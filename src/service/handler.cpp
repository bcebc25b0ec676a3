#include "service/handler.hpp"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "common/version.hpp"
#include "model/model.hpp"
#include "service/jsonl.hpp"
#include "topology/subdivision.hpp"

namespace wfc::svc {

namespace {

int int_field(const Fields& fields, std::string_view key,
              std::optional<int> fallback = std::nullopt) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    if (fallback) return *fallback;
    throw std::invalid_argument("missing field \"" + std::string(key) + "\"");
  }
  const std::string text(it->second);
  try {
    std::size_t pos = 0;
    const int value = std::stoi(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("field \"" + std::string(key) +
                                "\" is not an integer: " + text);
  }
}

std::string string_field(const Fields& fields, std::string_view key,
                         std::string_view fallback = "") {
  return std::string(fields.get(key, fallback));
}

/// Boolean field: accepts the JSON true/false tokens (parse_flat_json
/// passes them through as bare strings) as well as 0/1 integers.
bool bool_field(const Fields& fields, std::string_view key, bool fallback) {
  auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  if (it->second == "true") return true;
  if (it->second == "false") return false;
  return int_field(fields, key) != 0;
}

/// Iterated-SDS towers grow exponentially with "depth" and are constructed
/// on the transport thread, so the handler bounds the field at parse time
/// instead of letting one request stall an event loop.
void check_depth_cap(const Fields& fields, int max_depth) {
  if (max_depth <= 0 || fields.count("depth") == 0) return;
  if (int_field(fields, "depth") > max_depth) {
    throw std::invalid_argument("field \"depth\" exceeds the cap of " +
                                std::to_string(max_depth));
  }
}

/// Query option `key` (nullopt when absent) under svc::whole_number's
/// rule; a value that breaks it answers invalid_argument naming the field.
std::optional<std::uint64_t> option_field(const Fields& fields,
                                          std::string_view key,
                                          std::uint64_t max) {
  const auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  if (const auto value = whole_number(it->second, max)) return value;
  throw std::invalid_argument("field \"" + std::string(key) +
                              "\" is not a non-negative integer: " +
                              std::string(it->second));
}

QueryOptions parse_query_options(const Fields& fields, int default_max_level) {
  QueryOptions options;
  options.max_level = static_cast<int>(
      option_field(fields, "max_level", kMaxIntOption)
          .value_or(static_cast<std::uint64_t>(default_max_level)));
  if (const auto budget = option_field(
          fields, "budget", std::numeric_limits<std::uint64_t>::max())) {
    options.node_budget = *budget;
  }
  if (const auto timeout = option_field(fields, "timeout_ms", kMaxIntOption)) {
    options.timeout = std::chrono::milliseconds(*timeout);
  }
  return options;
}

/// The {"op":"metrics"} response: one flat-JSON line rendered from the
/// ServiceStats snapshot the Prometheus views also read, so the line and the
/// exposition agree by construction.  "reconciles" is the invariant the
/// chaos soak asserts: submitted == terminal == sum of the per-status
/// counters.
std::string metrics_line(std::string_view id, const ServiceStats& st) {
  JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "metrics").field("status", to_json_token(Status::kOk));
  w.field("submitted", st.submitted);
  std::uint64_t terminal = 0;
  for (int s = 0; s < kNumStatuses; ++s) {
    terminal += st.by_status[s];
    w.field(to_json_token(static_cast<Status>(s)), st.by_status[s]);
  }
  w.field("terminal", terminal);
  w.field("memo_hits", st.result_hits);
  w.field("stats_submitted", st.submitted);
  w.field("reconciles", st.reconciles());
  return std::move(w).str();
}

}  // namespace

std::shared_ptr<task::Task> make_canonical_task(const Fields& fields) {
  const std::string_view kind = fields.get("task");
  if (kind.empty()) throw std::invalid_argument("missing field \"task\"");
  const int procs = int_field(fields, "procs");
  if (kind == "consensus") {
    return std::make_shared<task::ConsensusTask>(procs,
                                                 int_field(fields, "values"));
  }
  if (kind == "set-consensus") {
    return std::make_shared<task::KSetConsensusTask>(procs,
                                                     int_field(fields, "k"));
  }
  if (kind == "renaming") {
    return std::make_shared<task::RenamingTask>(procs,
                                                int_field(fields, "names"));
  }
  if (kind == "approx") {
    return std::make_shared<task::ApproxAgreementTask>(
        procs, int_field(fields, "grid"));
  }
  if (kind == "simplex-agreement") {
    return std::make_shared<task::SimplexAgreementTask>(
        procs, topo::iterated_sds(topo::base_simplex(procs),
                                  int_field(fields, "depth")));
  }
  if (kind == "identity") {
    return std::make_shared<task::IdentityTask>(topo::base_simplex(procs));
  }
  throw std::invalid_argument("unknown task kind \"" + std::string(kind) +
                              "\"");
}

namespace {

/// Intern-table bound: 0 in the config selects a generous fixed ceiling
/// (the lock-free index has a fixed capacity chosen at construction).
std::size_t intern_bound(std::size_t configured) {
  return configured == 0 ? std::size_t{32768} : configured;
}

}  // namespace

RequestHandler::RequestHandler(QueryService& service, HandlerConfig config)
    : service_(service),
      config_(std::move(config)),
      started_(std::chrono::steady_clock::now()),
      interned_(decltype(interned_)::Options{
          .max_entries = intern_bound(config_.max_interned_tasks),
          .min_slots = 64}),
      models_(decltype(models_)::Options{
          .max_entries = intern_bound(config_.max_interned_tasks),
          .min_slots = 16}) {}

RequestHandler::ParsedLine RequestHandler::parse(std::string_view line,
                                                 int line_no) {
  ParsedLine parsed;
  parsed.line_no = line_no;
  RequestLine read = read_request(line, line_no, config_.max_line_bytes);
  switch (read.kind) {
    case RequestLine::Kind::kSkip:
      return parsed;
    case RequestLine::Kind::kError:
      parsed.action = Action::kRespond;
      parsed.immediate = {std::move(read.error), true};
      return parsed;
    case RequestLine::Kind::kRequest:
      break;
  }
  parsed.fields = std::move(read.fields);
  parsed.op = std::move(read.op);
  if (is_control_op(parsed.op)) {
    parsed.action = Action::kControl;
    return parsed;
  }
  // Every request names its "op"; "task" is a parameter of op "solve".
  if (parsed.fields.count("op") == 0) {
    parsed.action = Action::kRespond;
    parsed.immediate = {
        error_record(parsed.fields.get("id"), line_no,
                     Status::kInvalidArgument, "missing field \"op\""),
        true};
    return parsed;
  }
  if (parsed.op != "solve" && parsed.op != "convergence" &&
      parsed.op != "emulate" && parsed.op != "check") {
    // Reject unknown ops up front with a self-describing record: the
    // field-level errors in submit() would otherwise blame a missing
    // "task" field on a line whose real problem is a misspelled op.
    parsed.action = Action::kRespond;
    JsonWriter w;
    const std::string_view id = parsed.fields.get("id");
    if (!id.empty()) w.field("id", id);
    w.field("op", parsed.op)
        .field("status", to_json_token(Status::kInvalidArgument))
        .field("line", line_no)
        .field("error", "unknown op \"" + parsed.op + "\"");
    parsed.immediate = {std::move(w).str(), true};
    return parsed;
  }
  parsed.action = Action::kSubmit;
  return parsed;
}

namespace {

/// The calling thread's buffer for intern keys: a repeated request builds
/// its key without allocating.  A key past 4 KiB does not keep its buffer.
std::string& intern_key_buffer() {
  thread_local std::string key;
  key.clear();
  if (key.capacity() > 4096) key.shrink_to_fit();
  return key;
}

}  // namespace

RequestHandler::InternedTask RequestHandler::intern_task(const Fields& fields) {
  std::string& key = intern_key_buffer();
  for (const auto& [k, v] : fields) {
    // Skip fields that do not affect the constructed task.  max_level,
    // budget, and model DO affect the verdict, but they are part of the
    // service's memo key, not the task's -- the same task object under two
    // models is exactly what gives the memo's model_tag separation teeth.
    if (is_non_task_field(k) || k == "model") continue;
    key += k;
    key += '=';
    key += v;
    key += ';';
  }
  InternedTask hit;
  if (interned_.lookup(key, &hit)) return hit;
  // Construct BEFORE touching the index: large tasks (iterated-SDS towers)
  // are expensive to build, and the lock-free insert below keeps the table
  // consistent if concurrent twins race -- the first writer wins and every
  // twin adopts its object, preserving one identity for the result memo.
  InternedTask made;
  made.task = make_canonical_task(fields);
  made.label = std::make_shared<const std::string>(made.task->name());
  auto handle = interned_.get_or_insert(key, [&] { return made; });
  return *handle;
}

std::shared_ptr<const model::Model> RequestHandler::intern_model(
    const Fields& fields) {
  const std::string_view name = fields.get("model");
  if (name.empty()) return nullptr;
  std::string& key = intern_key_buffer();
  key += name;
  std::shared_ptr<const model::Model> m;
  if (!models_.lookup(key, &m)) {
    std::shared_ptr<const model::Model> parsed = model::Model::parse(key);
    m = *models_.get_or_insert(key, [&] { return parsed; });
  }
  return m->is_wait_free() ? nullptr : m;
}

std::size_t RequestHandler::interned_tasks() { return interned_.size(); }

std::pair<Query, RequestHandler::ResponseMeta> RequestHandler::build_query(
    const ParsedLine& parsed) {
  const Fields& fields = parsed.fields;
  check_depth_cap(fields, config_.max_task_depth);
  ResponseMeta meta;
  meta.id = fields.get("id");
  std::shared_ptr<const model::Model> model = intern_model(fields);
  meta.model = model;
  Query query;
  query.options = parse_query_options(fields, config_.default_max_level);
  if (parsed.op == "solve") {
    InternedTask interned = intern_task(fields);
    meta.label = std::move(interned.label);
    query.request = SolveRequest{std::move(interned.task), std::move(model)};
  } else if (parsed.op == "convergence") {
    const int procs = int_field(fields, "procs");
    const int depth = int_field(fields, "depth");
    auto agreement = std::make_shared<task::SimplexAgreementTask>(
        procs, topo::iterated_sds(topo::base_simplex(procs), depth));
    meta.label = std::make_shared<const std::string>(agreement->name());
    query.request = ConvergenceRequest{std::move(agreement), std::move(model)};
  } else if (parsed.op == "emulate") {
    if (model != nullptr) {
      // The §4 emulation runs a concrete adversary, not a run-set query;
      // restricting it by model is not meaningful.
      throw std::invalid_argument("op \"emulate\" does not take a model");
    }
    EmulateRequest emu;
    emu.procs = int_field(fields, "procs");
    emu.shots = int_field(fields, "shots", 1);
    meta.label = std::make_shared<const std::string>(
        "emulate(procs=" + std::to_string(emu.procs) +
        ",shots=" + std::to_string(emu.shots) + ")");
    meta.is_emulate = true;
    query.request = emu;
  } else {  // "check" (parse() rejected every other op)
    const std::string target = string_field(fields, "target", "sds");
    CheckRequest check;
    if (target == "sds") {
      check.target = CheckRequest::Target::kSds;
    } else if (target == "emulation") {
      check.target = CheckRequest::Target::kEmulation;
    } else if (target == "linearizability") {
      check.target = CheckRequest::Target::kLinearizability;
    } else {
      throw std::invalid_argument("unknown check target \"" + target + "\"");
    }
    check.procs = int_field(fields, "procs", 2);
    check.rounds = int_field(fields, "rounds", 1);
    check.crashes = int_field(fields, "crashes", 0);
    check.shots = int_field(fields, "shots", 1);
    check.symmetry = bool_field(fields, "symmetry", false);
    if (model != nullptr && check.target != CheckRequest::Target::kSds) {
      throw std::invalid_argument("check target \"" + target +
                                  "\" does not take a model");
    }
    check.model = std::move(model);
    meta.label = std::make_shared<const std::string>(
        "check(" + target + ",procs=" + std::to_string(check.procs) +
        ",rounds=" + std::to_string(check.rounds) +
        ",crashes=" + std::to_string(check.crashes) + ")");
    meta.is_check = true;
    query.request = check;
  }
  return {std::move(query), std::move(meta)};
}

std::optional<RequestHandler::Submitted> RequestHandler::submit(
    const ParsedLine& parsed, Rendered* error) {
  try {
    auto [query, meta] = build_query(parsed);
    Submitted submitted;
    submitted.meta = std::move(meta);
    submitted.ticket = service_.submit(std::move(query));
    return submitted;
  } catch (const std::exception& e) {
    *error = {error_record(parsed.fields.get("id"), parsed.line_no,
                           Status::kInvalidArgument, e.what()),
              true};
    return std::nullopt;
  }
}

bool RequestHandler::submit_async(const ParsedLine& parsed,
                                  std::function<void(Rendered&&)> done,
                                  Rendered* error) {
  try {
    auto [query, meta] = build_query(parsed);
    service_.submit(std::move(query),
                    [this, meta = std::move(meta),
                     done = std::move(done)](const QueryResult& result) {
                      done(render(meta, result));
                    });
    return true;
  } catch (const std::exception& e) {
    *error = {error_record(parsed.fields.get("id"), parsed.line_no,
                           Status::kInvalidArgument, e.what()),
              true};
    return false;
  }
}

RequestHandler::Rendered RequestHandler::render(
    const ResponseMeta& meta, const QueryResult& result) const {
  JsonWriter w;
  if (!meta.id.empty()) w.field("id", meta.id);
  w.field("task", meta.label != nullptr ? *meta.label : std::string_view());
  // Echoed only when a non-wait-free model was requested, so model-less
  // responses stay byte-for-byte what they were before wfc::model.
  if (meta.model != nullptr) w.field("model", meta.model->name());
  if (result.status != Status::kOk) {
    // Non-kOk terminal statuses use the lowercase taxonomy tokens
    // (status.hpp) in BOTH envelopes; retryable ones carry the service's
    // backoff hint.
    w.field("status", to_json_token(result.status));
    if (result.retry_after_ms > 0) {
      w.field("retry_after_ms",
              static_cast<std::uint64_t>(result.retry_after_ms));
    }
    if (!result.error.empty()) w.field("error", result.error);
  } else {
    // v2 envelope (the default since PR 5): "status" stays in the transport
    // taxonomy ("ok") and the domain outcome moves to "verdict".  Legacy
    // envelope (--legacy): the verdict IS the status, as PR 2/3 emitted.
    const bool legacy = config_.legacy_envelope;
    const char* verdict_key = legacy ? "status" : "verdict";
    if (!legacy) w.field("status", to_json_token(Status::kOk));
    if (meta.is_check) {
      w.field(verdict_key, result.check_ok ? "OK" : "VIOLATION");
      w.field("schedules", result.check_schedules)
          .field("histories", result.check_histories)
          .field("max_depth", result.check_max_depth);
      if (!result.check_violation.empty()) {
        w.field("violation", result.check_violation);
      }
    } else if (meta.is_emulate) {
      w.field(verdict_key, "OK")
          .field("rounds", result.emu_rounds)
          .field("iis_steps",
                 std::accumulate(result.emu_steps.begin(),
                                 result.emu_steps.end(), std::int64_t{0}));
    } else {
      w.field(verdict_key, task::to_cstring(result.solve.status));
      if (result.solve.status == task::Solvability::kSolvable) {
        w.field("level", result.solve.level);
      }
      w.field("nodes", result.solve.nodes_explored)
          .field("cache_hit", result.cache_hit);
    }
  }
  if (result.degraded) w.field("degraded", true);
  w.field("micros", result.micros);
  return {std::move(w).str(), result.status != Status::kOk};
}

RequestHandler::Rendered RequestHandler::control(const ParsedLine& parsed) {
  const std::string id = string_field(parsed.fields, "id");
  try {
    if (parsed.op == "stats") {
      return {service_.stats().to_string(), false};
    }
    if (parsed.op == "info") {
      // Backend identity for routers and operators: who am I, how long up,
      // how loaded, how warm.  Safe on every transport (no paths, no side
      // effects) and cheap enough for a health probe.
      const ServiceStats stats = service_.stats();
      JsonWriter w;
      if (!id.empty()) w.field("id", id);
      w.field("op", "info")
          .field("status", to_json_token(Status::kOk))
          .field("version", kVersion)
          .field("server_id", config_.server_id)
          .field("pid", static_cast<std::int64_t>(::getpid()))
          .field("uptime_ms",
                 static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - started_)
                         .count()))
          .field("workers", service_.workers())
          .field("queue_depth",
                 static_cast<std::uint64_t>(service_.queue_depth()))
          .field("queries", stats.queries)
          .field("cache_entries", stats.cache.entries)
          .field("cache_resident_vertices", stats.cache.resident_vertices)
          .field("memo_hits", stats.result_hits)
          .field("interned_tasks",
                 static_cast<std::uint64_t>(interned_tasks()));
      return {w.str(), false};
    }
    if (parsed.op == "store") {
      return store_control(parsed, id);
    }
    if (parsed.op == "metrics") {
      if (!service_.observer().enabled()) {
        throw std::invalid_argument(
            "metrics: the observability layer is disabled");
      }
      if (const std::string path = string_field(parsed.fields, "path");
          !path.empty()) {
        if (!config_.allow_control_paths) {
          throw std::invalid_argument(
              "metrics: \"path\" is not allowed on this transport");
        }
        std::ofstream file(path);
        if (!file) {
          throw std::invalid_argument("metrics: cannot open \"" + path +
                                      "\"");
        }
        service_.observer().write_prometheus(file);
      }
      return {metrics_line(id, service_.stats()), false};
    }
    // parsed.op == "trace"
    if (!service_.observer().enabled()) {
      throw std::invalid_argument(
          "trace: the observability layer is disabled");
    }
    const std::string path = string_field(parsed.fields, "path");
    if (path.empty()) {
      throw std::invalid_argument("trace: missing field \"path\"");
    }
    if (!config_.allow_control_paths) {
      throw std::invalid_argument(
          "trace: \"path\" is not allowed on this transport");
    }
    std::ofstream file(path);
    if (!file) {
      throw std::invalid_argument("trace: cannot open \"" + path + "\"");
    }
    service_.observer().write_chrome_trace(file);
    const obs::TraceSink* sink = service_.observer().trace();
    JsonWriter w;
    if (!id.empty()) w.field("id", id);
    w.field("op", "trace")
        .field("status", to_json_token(Status::kOk))
        .field("path", path)
        .field("spans", sink != nullptr ? sink->recorded() : 0)
        .field("dropped", sink != nullptr ? sink->dropped() : 0);
    return {w.str(), false};
  } catch (const std::exception& e) {
    return {error_record(id, parsed.line_no, Status::kInvalidArgument,
                         e.what()),
            true};
  }
}

RequestHandler::Rendered RequestHandler::store_control(const ParsedLine& parsed,
                                                       const std::string& id) {
  SdsCache& cache = service_.cache();
  const std::string action = string_field(parsed.fields, "action", "stats");

  JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "store").field("action", action);

  // Shared tail: the gauges operators (and the store-smoke CI job) read.
  // chain_builds == cache misses + extensions is THE warm-start number: it
  // stays 0 across a restart served entirely from the store.
  const auto append_stats = [&] {
    const CacheStats cs = cache.stats();
    const StoreStats ss = cache.store_stats();
    w.field("enabled", ss.enabled)
        .field("readonly", ss.readonly)
        .field("lookups", ss.lookups)
        .field("store_hits", ss.hits)
        .field("store_misses", ss.misses)
        .field("fallbacks", ss.fallbacks)
        .field("publishes", ss.publishes)
        .field("publish_skipped", ss.publish_skipped)
        .field("files", ss.files)
        .field("file_bytes", ss.file_bytes)
        .field("mapped_bytes", ss.mapped_bytes)
        .field("cache_store_hits", cs.store_hits)
        .field("chain_builds", cs.chain_builds())
        .field("pinned", cs.pinned);
  };

  if (action == "stats") {
    w.field("status", to_json_token(Status::kOk));
    append_stats();
    return {w.str(), false};
  }
  if (action == "warm") {
    const std::uint64_t admitted = cache.warm();
    w.field("status", to_json_token(Status::kOk)).field("admitted", admitted);
    append_stats();
    return {w.str(), false};
  }
  if (action == "shed") {
    // frac in percent (flat-JSON fields are integers); default half.
    const int percent = int_field(parsed.fields, "percent", 50);
    if (percent < 0 || percent > 100) {
      throw std::invalid_argument("store shed: \"percent\" not in [0, 100]");
    }
    const std::uint64_t evicted =
        cache.shed(static_cast<double>(percent) / 100.0);
    w.field("status", to_json_token(Status::kOk)).field("evicted", evicted);
    append_stats();
    return {w.str(), false};
  }
  if (action == "pin" || action == "unpin") {
    const std::string hex = string_field(parsed.fields, "fingerprint");
    if (hex.empty()) {
      throw std::invalid_argument("store " + action +
                                  ": missing field \"fingerprint\"");
    }
    char* end = nullptr;
    errno = 0;
    const std::uint64_t fp = std::strtoull(hex.c_str(), &end, 16);
    if (errno != 0 || end == hex.c_str() || *end != '\0') {
      throw std::invalid_argument("store " + action +
                                  ": \"fingerprint\" is not a hex id: " + hex);
    }
    const bool ok = action == "pin" ? cache.pin(fp) : cache.unpin(fp);
    w.field("status", to_json_token(Status::kOk))
        .field("fingerprint", hex)
        .field(action == "pin" ? "pinned" : "unpinned", ok);
    return {w.str(), false};
  }
  if (action == "publish") {
    // Path-bearing: publish writes files under the store directory, so it
    // follows the metrics/trace "path" rule -- operator transports only.
    if (!config_.allow_control_paths) {
      throw std::invalid_argument(
          "store publish: not allowed on this transport");
    }
    const std::uint64_t written = cache.publish_all();
    w.field("status", to_json_token(Status::kOk)).field("written", written);
    append_stats();
    return {w.str(), false};
  }
  throw std::invalid_argument("unknown store action \"" + action + "\"");
}

}  // namespace wfc::svc
