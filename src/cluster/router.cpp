#include "cluster/router.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "common/version.hpp"
#include "net/loadgen.hpp"
#include "service/jsonl.hpp"
#include "service/status.hpp"

namespace wfc::cluster {

namespace {

using Clock = std::chrono::steady_clock;

/// Mirrors the handler's error_record shape so router-side failures read
/// exactly like shard-side ones.
std::string error_line(const std::string& id, int line_no, const char* status,
                       const std::string& message, int retry_after_ms = 0) {
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("status", status).field("line", line_no).field("error", message);
  if (retry_after_ms > 0) w.field("retry_after_ms", retry_after_ms);
  return w.str();
}

/// splitmix64 -- spreads the request sequence uniformly for the random-
/// routing control arm of the locality experiment.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Compound-key segment for per-shard cluster_stats fields: flat JSON has
/// no nesting, so shard ids become key prefixes and must stay [\w] only.
std::string key_safe(const std::string& id) {
  std::string out = id;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_') {
      c = '_';
    }
  }
  return out;
}

std::int64_t int_or(const svc::Fields& fields, const char* key,
                    std::int64_t fallback) {
  const auto it = fields.find(key);
  if (it == fields.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

}  // namespace

// ---------------------------------------------------------------------------
// TokenBucket.

void TokenBucket::configure(double per_sec, int burst) {
  std::lock_guard<std::mutex> lk(mu_);
  per_sec_ = per_sec;
  burst_ = static_cast<double>(burst);
  tokens_ = burst_;
  last_ = std::chrono::steady_clock::now();
}

bool TokenBucket::try_take() {
  std::lock_guard<std::mutex> lk(mu_);
  if (burst_ <= 0) return true;
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      std::chrono::duration_cast<std::chrono::duration<double>>(now - last_)
          .count();
  last_ = now;
  tokens_ = std::min(burst_, tokens_ + per_sec_ * dt);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

// ---------------------------------------------------------------------------
// Internal structures.

struct Router::UpstreamConn {
  int index = 0;
  /// Guards client/generation; sends from front io threads serialize here.
  std::mutex send_mu;
  std::shared_ptr<net::Client> client;  // null while down
  std::uint64_t generation = 0;
  std::thread reader;
  std::atomic<bool> stop{false};
  std::mutex wake_mu;
  std::condition_variable wake_cv;  // interrupts reconnect backoff
};

struct Router::Shard {
  std::string id;
  net::Endpoint addr;
  std::vector<std::unique_ptr<UpstreamConn>> conns;
  std::atomic<int> up_conns{0};
  std::atomic<std::uint32_t> rr{0};
  std::atomic<bool> draining{false};
  /// Soft-backoff window (steady microsecond epoch) set by upstream
  /// overloaded / resource_exhausted envelopes carrying retry_after_ms.
  std::atomic<std::int64_t> backoff_until_us{0};
  std::atomic<std::uint64_t> routed{0};   // dispatches + re-dispatches
  std::atomic<std::uint64_t> hedges{0};   // hedge copies sent here
  std::atomic<std::uint64_t> answered{0};  // responses that won resolution
  std::atomic<std::uint64_t> connect_failures{0};
  /// Probe-driven health: 0 up / 1 suspect / 2 down.  Orthogonal to the
  /// connection breaker -- a blackholed shard keeps its sockets "up" while
  /// the probes walk it down.
  std::atomic<int> health{0};
  std::atomic<int> probe_streak{0};  // consecutive probe failures
  TokenBucket retry_budget;          // per-shard retry charge

  [[nodiscard]] bool in_backoff() const {
    const std::int64_t until = backoff_until_us.load(std::memory_order_relaxed);
    if (until == 0) return false;
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now().time_since_epoch())
               .count() < until;
  }
};

struct Router::Pending {
  std::uint64_t seq = 0;
  std::string rid;        // "r<seq>", the upstream id
  std::string client_id;  // raw (unescaped) client id
  bool had_id = false;
  int line_no = 0;
  std::string op;
  std::string wire;  // rid-stamped request line, reused by hedge/re-dispatch
  /// Deadline propagation: the client's timeout_ms and the wire line with
  /// that field stripped, so wire_now() can re-stamp the REMAINING budget
  /// on hedges and re-dispatches.  timeout_ms == 0: no deadline to carry.
  std::int64_t timeout_ms = 0;
  std::string wire_base;
  std::uint64_t key = 0;
  Done done;
  Clock::time_point submitted{};
  Clock::time_point hedge_at = Clock::time_point::max();
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<bool> resolved{false};

  struct Send {
    const void* conn = nullptr;  // identity only, never dereferenced
    std::uint64_t generation = 0;
    std::string shard;
  };
  std::mutex mu;  // guards everything below
  std::vector<Send> sends;
  std::string primary_shard;  // latest dispatch target (hedges excluded)
  int attempts = 0;           // dispatches, not hedges
  bool hedged = false;        // one hedge per request
};

// ---------------------------------------------------------------------------
// Construction / lifecycle.

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      observer_(config_.obs),
      started_(Clock::now()),
      ring_(config_.vnodes) {
  retry_budget_.configure(config_.retry_budget_per_sec,
                          config_.retry_budget_burst);
}

Router::~Router() { stop(); }

void Router::start() {
  if (started_flag_.exchange(true)) return;
  {
    std::unique_lock<std::shared_mutex> ml(membership_mu_);
    for (const ShardSpec& spec : config_.shards) {
      if (shards_.count(spec.id) != 0) {
        throw std::invalid_argument("duplicate shard id \"" + spec.id + "\"");
      }
      auto shard = std::make_shared<Shard>();
      shard->id = spec.id;
      shard->addr = spec.addr;
      shards_.emplace(spec.id, shard);
      ring_.add(spec.id);
    }
  }
  {
    std::shared_lock<std::shared_mutex> ml(membership_mu_);
    for (auto& [id, shard] : shards_) start_shard(shard);
  }
  maintenance_ = std::thread([this] { maintenance_thread(); });
  if (config_.probe_interval.count() > 0) {
    prober_ = std::thread([this] { probe_thread(); });
  }
}

void Router::stop() {
  if (!started_flag_.load() || stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> sl(stop_mu_);
  }
  stop_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
  if (prober_.joinable()) prober_.join();

  std::vector<std::shared_ptr<Shard>> doomed;
  {
    std::unique_lock<std::shared_mutex> ml(membership_mu_);
    for (auto& [id, shard] : shards_) doomed.push_back(shard);
    shards_.clear();
    ring_ = Ring(config_.vnodes);
  }
  for (auto& shard : doomed) stop_shard(shard);

  // Whatever the conn-death sweeps could not re-home answers overloaded so
  // every accepted Done fires exactly once even across shutdown.
  std::vector<std::uint64_t> leftover;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    leftover.reserve(pending_.size());
    for (const auto& [seq, p] : pending_) leftover.push_back(seq);
  }
  for (const std::uint64_t seq : leftover) {
    if (auto p = take_pending(seq, Cause::kFailed)) {
      resolve_error(p, svc::to_json_token(svc::Status::kOverloaded),
                    "router shutting down", true);
    }
  }
}

// ---------------------------------------------------------------------------
// LineBackend: the submit path.

net::LineBackend::Outcome Router::on_line(std::string_view line, int line_no,
                                          Done done) {
  Outcome out;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (config_.max_line_bytes != 0 && line.size() > config_.max_line_bytes) {
    out.kind = Outcome::Kind::kRespond;
    out.response = error_line(
        "", line_no, svc::to_json_token(svc::Status::kInvalidArgument),
        "request line exceeds " + std::to_string(config_.max_line_bytes) +
            " bytes");
    return out;
  }
  const std::size_t first = line.find_first_not_of(" \t");
  if (first == std::string_view::npos || line[first] == '#') {
    return out;  // kSkip
  }
  svc::Fields fields;
  try {
    fields = svc::parse_flat_json(line);
  } catch (const std::exception& e) {
    out.kind = Outcome::Kind::kRespond;
    out.response = error_line(
        "", line_no, svc::to_json_token(svc::Status::kInvalidArgument),
        e.what());
    return out;
  }
  const auto op_it = fields.find("op");
  const std::string op = op_it == fields.end() ? "solve" : op_it->second;
  if (op == "stats" || op == "metrics" || op == "trace" || op == "info" ||
      op == "store" || op == "cluster_stats" || op == "cluster_add" ||
      op == "cluster_remove" || op == "cluster_drain") {
    out.kind = Outcome::Kind::kControl;
    return out;
  }
  // Everything else -- solves, checks, unknown ops, legacy bare task lines
  // -- is the shards' business; forward and relay their verdict verbatim.
  return submit(fields, line, line_no, std::move(done));
}

net::LineBackend::Outcome Router::submit(const svc::Fields& fields,
                                         std::string_view line, int line_no,
                                         Done done) {
  Outcome out;
  const auto id_it = fields.find("id");
  const std::string client_id = id_it == fields.end() ? "" : id_it->second;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    if (pending_.size() >= config_.max_pending) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      out.kind = Outcome::Kind::kRespond;
      out.response = error_line(
          client_id, line_no, svc::to_json_token(svc::Status::kOverloaded),
          "router pending table full", jittered_retry_after());
      return out;
    }
  }

  auto p = std::make_shared<Pending>();
  p->seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  p->rid = "r" + std::to_string(p->seq);
  p->client_id = client_id;
  p->had_id = id_it != fields.end();
  p->line_no = line_no;
  const auto op_it = fields.find("op");
  p->op = op_it == fields.end() ? "solve" : op_it->second;
  p->key = make_key(fields);
  p->done = std::move(done);
  p->submitted = Clock::now();

  const std::int64_t timeout_ms = int_or(fields, "timeout_ms", 0);
  if (timeout_ms > 0) {
    p->deadline = p->submitted + std::chrono::milliseconds(timeout_ms) +
                  config_.pending_grace;
    if (config_.hedge_fraction > 0) {
      auto lead = std::chrono::milliseconds(static_cast<std::int64_t>(
          static_cast<double>(timeout_ms) * config_.hedge_fraction));
      if (lead < config_.hedge_min) lead = config_.hedge_min;
      p->hedge_at = p->submitted + lead;
    }
  } else {
    p->deadline = p->submitted + config_.pending_timeout;
    if (config_.hedge_after.count() > 0) {
      p->hedge_at = p->submitted + config_.hedge_after;
    }
  }
  p->wire = net::with_id(net::strip_id_field(std::string(line)), p->rid);
  if (config_.propagate_deadlines && timeout_ms > 0) {
    p->timeout_ms = timeout_ms;
    p->wire_base = net::strip_field(p->wire, "timeout_ms");
  }

  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    pending_.emplace(p->seq, p);
    // Bumped under the lock so metrics' reconciliation invariant
    // (requests == responses + timeouts + failed + pending) holds at every
    // instant, not just at quiescence.
    requests_.fetch_add(1, std::memory_order_relaxed);
  }

  if (!route_and_send(p, p->wire, "")) {
    if (auto taken = take_pending(p->seq, Cause::kFailed)) {
      // Resolve inline: the Done callback is unused and dropped with `out`.
      out.kind = Outcome::Kind::kRespond;
      out.response = error_line(
          client_id, line_no, svc::to_json_token(svc::Status::kOverloaded),
          "no shard available", jittered_retry_after());
      return out;
    }
  }
  out.kind = Outcome::Kind::kSubmitted;
  return out;
}

std::uint64_t Router::make_key(const svc::Fields& fields) {
  if (config_.random_routing) {
    return mix64(seq_.load(std::memory_order_relaxed) + 1);
  }
  // The canonical (task, model) identity: the fields RequestHandler interns
  // tasks by plus the model, so one fingerprint == one warm shard cache of
  // that model's restricted towers.  An explicit wait_free is dropped to
  // hash identically to omitting the field (the handler normalizes the
  // same way).
  std::string key;
  for (const auto& [k, v] : fields) {
    if (k == "id" || k == "op" || k == "max_level" || k == "budget" ||
        k == "timeout_ms") {
      continue;
    }
    if (k == "model" && v == "wait_free") continue;
    key += k;
    key += '=';
    key += v;
    key += ';';
  }
  return fnv1a64(key);
}

Ring::Accept Router::accept_predicate(bool skip_backoff) const {
  // Caller holds membership_mu_ (shared).
  return [this, skip_backoff](const std::string& id) {
    const auto it = shards_.find(id);
    if (it == shards_.end()) return false;
    const Shard& shard = *it->second;
    if (shard.draining.load(std::memory_order_relaxed)) return false;
    if (shard.up_conns.load(std::memory_order_relaxed) <= 0) return false;
    // Probe-driven health: Down shards are out of the candidate set
    // entirely; Suspect ones are skipped like backoff -- routed around
    // while a healthy alternative exists, used under cluster-wide duress.
    const int health = shard.health.load(std::memory_order_relaxed);
    if (health >= 2) return false;
    if (skip_backoff && (health == 1 || shard.in_backoff())) return false;
    return true;
  };
}

bool Router::route_and_send(const std::shared_ptr<Pending>& p,
                            const std::string& wire,
                            const std::string& exclude) {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  std::set<std::string> tried;
  if (!exclude.empty()) tried.insert(exclude);
  const Ring::Accept healthy = accept_predicate(true);
  const Ring::Accept any_up = accept_predicate(false);
  while (true) {
    const auto not_tried = [&](const Ring::Accept& base) {
      return [&tried, &base](const std::string& id) {
        return tried.count(id) == 0 && base(id);
      };
    };
    // Prefer shards outside their backoff window; under cluster-wide
    // pressure fall back to the fingerprint's true home (degraded beats
    // down, and locality still pays).
    std::string id = ring_.pick(p->key, not_tried(healthy));
    if (id.empty()) id = ring_.pick(p->key, not_tried(any_up));
    if (id.empty()) return false;
    const auto it = shards_.find(id);
    if (it == shards_.end()) return false;  // cannot happen: accept checked
    if (send_on_shard(it->second, p, wire)) {
      {
        std::lock_guard<std::mutex> gl(p->mu);
        p->primary_shard = id;
        ++p->attempts;
      }
      it->second->routed.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    tried.insert(id);
  }
}

bool Router::send_on_shard(const std::shared_ptr<Shard>& shard,
                           const std::shared_ptr<Pending>& p,
                           const std::string& wire) {
  const int n = static_cast<int>(shard->conns.size());
  const std::uint32_t start = shard->rr.fetch_add(1, std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    UpstreamConn* conn =
        shard->conns[(start + static_cast<std::uint32_t>(i)) % n].get();
    std::lock_guard<std::mutex> sl(conn->send_mu);
    if (!conn->client) continue;
    try {
      conn->client->send_line(wire);
    } catch (...) {
      // Broken or wedged socket: wake the reader (it owns teardown and
      // re-dispatch) and try the next connection.
      ::shutdown(conn->client->fd(), SHUT_RDWR);
      continue;
    }
    std::lock_guard<std::mutex> gl(p->mu);
    p->sends.push_back(Pending::Send{conn, conn->generation, shard->id});
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Upstream connections.

void Router::start_shard(const std::shared_ptr<Shard>& shard) {
  shard->retry_budget.configure(config_.shard_retry_budget_per_sec,
                                config_.shard_retry_budget_burst);
  for (int i = 0; i < config_.conns_per_shard; ++i) {
    auto conn = std::make_unique<UpstreamConn>();
    conn->index = i;
    UpstreamConn* raw = conn.get();
    shard->conns.push_back(std::move(conn));
    raw->reader = std::thread([this, shard, raw] { conn_reader(shard, raw); });
  }
}

void Router::stop_shard(const std::shared_ptr<Shard>& shard) {
  for (auto& conn : shard->conns) {
    conn->stop.store(true);
    {
      std::lock_guard<std::mutex> sl(conn->send_mu);
      if (conn->client) ::shutdown(conn->client->fd(), SHUT_RDWR);
    }
    conn->wake_cv.notify_all();
  }
  for (auto& conn : shard->conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void Router::conn_reader(std::shared_ptr<Shard> shard, UpstreamConn* conn) {
  std::chrono::milliseconds backoff = config_.reconnect_min;
  while (!conn->stop.load()) {
    std::shared_ptr<net::Client> client;
    try {
      net::ClientConfig cc;
      cc.server = shard->addr;
      cc.connect_timeout = config_.connect_timeout;
      cc.send_timeout = config_.send_timeout;
      client = std::make_shared<net::Client>(std::move(cc));
    } catch (...) {
      shard->connect_failures.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> wl(conn->wake_mu);
      conn->wake_cv.wait_for(wl, backoff, [&] { return conn->stop.load(); });
      backoff = std::min(backoff * 2, config_.reconnect_max);
      continue;
    }
    std::uint64_t generation = 0;
    {
      std::lock_guard<std::mutex> sl(conn->send_mu);
      conn->client = client;
      generation = ++conn->generation;
    }
    shard->up_conns.fetch_add(1);
    backoff = config_.reconnect_min;
    // stop() may have raced the install: its shutdown() hit the previous
    // (null) client, so re-check before blocking in recv.
    if (conn->stop.load()) {
      ::shutdown(client->fd(), SHUT_RDWR);
    }
    try {
      while (auto line = client->recv_line()) {
        on_upstream_line(shard, conn, generation, std::move(*line));
      }
    } catch (...) {
      // recv error / oversized response: fall through to teardown.
    }
    {
      std::lock_guard<std::mutex> sl(conn->send_mu);
      if (conn->client == client) conn->client.reset();
    }
    shard->up_conns.fetch_sub(1);
    if (config_.log) {
      config_.log("shard " + shard->id + " conn#" +
                  std::to_string(conn->index) + " down");
    }
    on_conn_down(shard, conn, generation);
  }
}

void Router::on_upstream_line(const std::shared_ptr<Shard>& shard,
                              UpstreamConn* conn, std::uint64_t generation,
                              std::string&& line) {
  (void)conn;
  (void)generation;
  svc::Fields fields;
  try {
    fields = svc::parse_flat_json(line);
  } catch (...) {
    late_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // A retryable envelope with a retry_after_ms hint opens the shard's soft
  // backoff window -- whoever wins the pending race, the hint is real.
  const auto status_it = fields.find("status");
  if (status_it != fields.end() &&
      (status_it->second == "overloaded" ||
       status_it->second == "resource_exhausted")) {
    const std::int64_t hint = int_or(fields, "retry_after_ms", 0);
    if (hint > 0) {
      const std::int64_t until =
          std::chrono::duration_cast<std::chrono::microseconds>(
              Clock::now().time_since_epoch())
              .count() +
          hint * 1000;
      shard->backoff_until_us.store(until, std::memory_order_relaxed);
    }
  }
  const auto id_it = fields.find("id");
  std::uint64_t seq = 0;
  if (id_it != fields.end() && id_it->second.size() > 1 &&
      id_it->second[0] == 'r') {
    seq = std::strtoull(id_it->second.c_str() + 1, nullptr, 10);
  }
  auto p = take_pending(seq, Cause::kResponse);
  if (!p) {
    // The hedge loser, a re-dispatched twin, or an id we never issued.
    late_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  shard->answered.fetch_add(1, std::memory_order_relaxed);
  resolve_response(p, std::move(line), shard->id);
}

void Router::on_conn_down(const std::shared_ptr<Shard>& shard,
                          UpstreamConn* conn, std::uint64_t generation) {
  // Requests whose ONLY outstanding send rode this connection are orphans;
  // a hedged twin still in flight elsewhere keeps ownership instead.
  std::vector<std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    for (auto& [seq, p] : pending_) {
      std::lock_guard<std::mutex> gl(p->mu);
      bool touched = false;
      for (auto it = p->sends.begin(); it != p->sends.end();) {
        if (it->conn == conn && it->generation == generation) {
          it = p->sends.erase(it);
          touched = true;
        } else {
          ++it;
        }
      }
      if (touched && p->sends.empty()) orphans.push_back(p);
    }
  }
  redispatch_orphans(orphans, shard, /*allow_fallback=*/true);
}

void Router::redispatch_orphans(
    const std::vector<std::shared_ptr<Pending>>& orphans,
    const std::shared_ptr<Shard>& shard, bool allow_fallback) {
  for (const auto& p : orphans) {
    bool exhausted = false;
    {
      std::lock_guard<std::mutex> gl(p->mu);
      exhausted = p->attempts >= config_.max_attempts;
    }
    if (!exhausted) {
      // Budget first: under a mass failure the bucket drains after the
      // first wave and the rest fast-fail, capping the retry
      // amplification a dying shard can inflict on the survivors.
      if (!charge_retry(shard)) {
        if (auto taken = take_pending(p->seq, Cause::kFailed)) {
          resolve_error(taken, svc::to_json_token(svc::Status::kOverloaded),
                        "retry budget exhausted", true);
        }
        continue;
      }
      // Deadline next: re-sending a query whose client budget is spent
      // would only burn a healthy shard's CPU on a dead answer.
      const std::optional<std::string> wire = wire_now(p);
      if (!wire) {
        hop_deadline_expired_.fetch_add(1, std::memory_order_relaxed);
        if (auto taken = take_pending(p->seq, Cause::kTimeout)) {
          resolve_error(taken,
                        svc::to_json_token(svc::Status::kDeadlineExceeded),
                        "client deadline passed before re-dispatch", false);
        }
        continue;
      }
      redispatches_.fetch_add(1, std::memory_order_relaxed);
      // The shard that just dropped us is suspect even while the rest of
      // its pool still counts as up (a dying process tears its sockets
      // down one reader at a time) -- prefer any other shard, and fall
      // back to the suspect only when nothing else can take the key.
      if (route_and_send(p, *wire, shard->id)) continue;
      if (allow_fallback &&
          shard->up_conns.load(std::memory_order_relaxed) > 0 &&
          route_and_send(p, *wire, "")) {
        continue;
      }
    }
    if (auto taken = take_pending(p->seq, Cause::kFailed)) {
      resolve_error(taken, svc::to_json_token(svc::Status::kOverloaded),
                    exhausted ? "shard connection lost repeatedly"
                              : "shard connection lost, no shard available",
                    true);
    }
  }
}

// ---------------------------------------------------------------------------
// Resolution.

std::shared_ptr<Router::Pending> Router::take_pending(std::uint64_t seq,
                                                      Cause cause) {
  std::shared_ptr<Pending> p;
  std::lock_guard<std::mutex> pl(pending_mu_);
  const auto it = pending_.find(seq);
  if (it == pending_.end()) return nullptr;
  p = it->second;
  pending_.erase(it);
  // Cause counters move under the same lock as the table so the metrics
  // reconciliation holds at every instant (see submit()).
  switch (cause) {
    case Cause::kResponse:
      responses_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Cause::kTimeout:
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Cause::kFailed:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  p->resolved.store(true);
  return p;
}

void Router::resolve_response(const std::shared_ptr<Pending>& p,
                              std::string&& response,
                              const std::string& shard_id) {
  {
    std::lock_guard<std::mutex> gl(p->mu);
    if (p->hedged && shard_id != p->primary_shard) {
      hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The id splice: our "r<seq>" comes out, the client's own id (escaped
  // again -- parse_flat_json unescaped it) goes back in.
  std::string out = net::strip_id_field(response);
  if (p->had_id) out = net::with_id(out, svc::json_escape(p->client_id));
  p->done(std::move(out));
}

void Router::resolve_error(const std::shared_ptr<Pending>& p,
                           const char* status, const std::string& message,
                           bool retryable) {
  p->done(error_line(p->had_id ? p->client_id : "", p->line_no, status,
                     message, retryable ? jittered_retry_after() : 0));
}

// ---------------------------------------------------------------------------
// Maintenance: hedging and router-side timeouts.

void Router::maintenance_thread() {
  while (!stopping_.load()) {
    {
      std::unique_lock<std::mutex> sl(stop_mu_);
      stop_cv_.wait_for(sl, config_.tick, [&] { return stopping_.load(); });
    }
    if (stopping_.load()) break;
    const Clock::time_point now = Clock::now();
    std::vector<std::shared_ptr<Pending>> to_hedge;
    std::vector<std::uint64_t> to_timeout;
    {
      std::lock_guard<std::mutex> pl(pending_mu_);
      for (auto& [seq, p] : pending_) {
        if (now >= p->deadline) {
          to_timeout.push_back(seq);
          continue;
        }
        std::lock_guard<std::mutex> gl(p->mu);
        if (!p->hedged && now >= p->hedge_at) {
          p->hedged = true;  // one shot, even if no successor exists
          to_hedge.push_back(p);
        }
      }
    }
    for (const std::uint64_t seq : to_timeout) {
      if (auto p = take_pending(seq, Cause::kTimeout)) {
        resolve_error(p, svc::to_json_token(svc::Status::kDeadlineExceeded),
                      "router: no response from cluster before deadline",
                      false);
      }
    }
    for (auto& p : to_hedge) hedge_one(p);
  }
}

void Router::hedge_one(const std::shared_ptr<Pending>& p) {
  if (p->resolved.load()) return;
  std::set<std::string> exclude;
  {
    std::lock_guard<std::mutex> gl(p->mu);
    exclude.insert(p->primary_shard);
    for (const auto& send : p->sends) exclude.insert(send.shard);
  }
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  const Ring::Accept healthy = accept_predicate(true);
  const std::string id = ring_.pick(p->key, [&](const std::string& s) {
    return exclude.count(s) == 0 && healthy(s);
  });
  if (id.empty()) return;  // nobody to hedge to; the primary keeps the key
  const auto it = shards_.find(id);
  if (it == shards_.end()) return;
  // A hedge is a retry in disguise: it pays the same budget, and carries
  // the remaining (not original) client deadline.
  if (!charge_retry(it->second)) return;
  const std::optional<std::string> wire = wire_now(p);
  if (!wire) return;  // out of budget; the router deadline clock fires soon
  if (send_on_shard(it->second, p, *wire)) {
    hedges_.fetch_add(1, std::memory_order_relaxed);
    it->second->hedges.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Hardening: active probes, retry budgets, deadline propagation.

void Router::probe_thread() {
  while (!stopping_.load()) {
    {
      std::unique_lock<std::mutex> sl(stop_mu_);
      stop_cv_.wait_for(sl, config_.probe_interval,
                        [&] { return stopping_.load(); });
    }
    if (stopping_.load()) break;
    // Probe a snapshot so membership changes never race the walk; shards
    // removed mid-pass just get one harmless last probe.
    std::vector<std::shared_ptr<Shard>> snapshot;
    {
      std::shared_lock<std::shared_mutex> ml(membership_mu_);
      snapshot.reserve(shards_.size());
      for (const auto& [id, shard] : shards_) snapshot.push_back(shard);
    }
    for (const auto& shard : snapshot) {
      if (stopping_.load()) break;
      probe_shard(shard);
    }
  }
}

void Router::probe_shard(const std::shared_ptr<Shard>& shard) {
  // A FRESH connection per probe, on purpose: the pooled sockets of a
  // blackholed shard look healthy forever, which is exactly the lie the
  // probe exists to catch.
  bool ok = false;
  try {
    net::ClientConfig cc;
    cc.server = shard->addr;
    cc.connect_timeout = config_.probe_timeout;
    cc.send_timeout = config_.probe_timeout;
    cc.recv_timeout = config_.probe_timeout;
    net::Client probe(std::move(cc));
    const std::string response = probe.roundtrip(R"({"op":"info"})");
    ok = response.find("\"status\":\"ok\"") != std::string::npos;
  } catch (...) {
    ok = false;
  }
  if (ok) {
    shard->probe_streak.store(0, std::memory_order_relaxed);
    const int prev = shard->health.exchange(0, std::memory_order_relaxed);
    if (prev != 0 && config_.log) {
      config_.log("shard " + shard->id + " probe ok, back up");
    }
    return;
  }
  probe_failures_.fetch_add(1, std::memory_order_relaxed);
  const int streak =
      shard->probe_streak.fetch_add(1, std::memory_order_relaxed) + 1;
  int next;
  if (streak >= config_.probe_down_after) {
    next = 2;
  } else if (streak >= config_.probe_suspect_after) {
    next = 1;
  } else {
    return;
  }
  const int prev = shard->health.exchange(next, std::memory_order_relaxed);
  if (prev != next && config_.log) {
    config_.log("shard " + shard->id + " probe failure #" +
                std::to_string(streak) + " -> " +
                (next == 2 ? "down" : "suspect"));
  }
  // Crossing into Down evicts the shard's unresolved sends NOW -- the
  // whole point of probing is beating pending_timeout to the bad news.
  if (prev != 2 && next == 2) evict_shard_pendings(shard);
}

void Router::evict_shard_pendings(const std::shared_ptr<Shard>& shard) {
  std::vector<std::shared_ptr<Pending>> orphans;
  {
    std::lock_guard<std::mutex> pl(pending_mu_);
    for (auto& [seq, p] : pending_) {
      std::lock_guard<std::mutex> gl(p->mu);
      bool touched = false;
      for (auto it = p->sends.begin(); it != p->sends.end();) {
        if (it->shard == shard->id) {
          it = p->sends.erase(it);
          touched = true;
        } else {
          ++it;
        }
      }
      if (touched && p->sends.empty()) orphans.push_back(p);
    }
  }
  // No fallback to the evicted shard: probes just declared it Down.
  redispatch_orphans(orphans, shard, /*allow_fallback=*/false);
}

bool Router::charge_retry(const std::shared_ptr<Shard>& shard) {
  if (retry_budget_.try_take() && shard->retry_budget.try_take()) return true;
  budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

std::optional<std::string> Router::wire_now(
    const std::shared_ptr<Pending>& p) const {
  if (p->timeout_ms <= 0) return p->wire;  // no deadline to propagate
  const std::int64_t elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            p->submitted)
          .count();
  const std::int64_t remaining = p->timeout_ms - elapsed;
  if (remaining <= 0) return std::nullopt;
  if (remaining >= p->timeout_ms) return p->wire;  // nothing burned yet
  std::string out = p->wire_base;
  out.insert(out.size() - 1, ",\"timeout_ms\":" + std::to_string(remaining));
  return out;
}

int Router::jittered_retry_after() const {
  const int base = config_.retry_after_ms;
  if (base <= 1) return base;
  // Uniform in [base/2, base*3/2] off a private splitmix lane, so a burst
  // of synchronized rejections fans back in spread out.
  const std::uint64_t z =
      mix64(retry_jitter_.fetch_add(1, std::memory_order_relaxed));
  return base / 2 + static_cast<int>(z % static_cast<std::uint64_t>(base + 1));
}

// ---------------------------------------------------------------------------
// Membership.

bool Router::add_shard(const ShardSpec& spec) {
  auto shard = std::make_shared<Shard>();
  shard->id = spec.id;
  shard->addr = spec.addr;
  {
    std::unique_lock<std::shared_mutex> ml(membership_mu_);
    if (shards_.count(spec.id) != 0) return false;
    shards_.emplace(spec.id, shard);
    ring_.add(spec.id);
  }
  start_shard(shard);
  if (config_.log) config_.log("shard " + spec.id + " added");
  return true;
}

bool Router::remove_shard(const std::string& id) {
  std::shared_ptr<Shard> shard;
  {
    std::unique_lock<std::shared_mutex> ml(membership_mu_);
    const auto it = shards_.find(id);
    if (it == shards_.end()) return false;
    shard = it->second;
    shards_.erase(it);
    ring_.remove(id);
  }
  // Joins happen OUTSIDE the membership lock: the dying readers run
  // on_conn_down -> route_and_send, which takes it shared.
  stop_shard(shard);
  if (config_.log) config_.log("shard " + id + " removed");
  return true;
}

bool Router::drain_shard(const std::string& id) {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  const auto it = shards_.find(id);
  if (it == shards_.end()) return false;
  it->second->draining.store(true);
  if (config_.log) config_.log("shard " + id + " draining");
  return true;
}

// ---------------------------------------------------------------------------
// Control plane.

std::string Router::control(std::string_view line, int line_no) {
  svc::Fields fields;
  try {
    fields = svc::parse_flat_json(line);
  } catch (const std::exception& e) {
    return error_line("", line_no,
                      svc::to_json_token(svc::Status::kInvalidArgument),
                      e.what());
  }
  const auto id_it = fields.find("id");
  const std::string id = id_it == fields.end() ? "" : id_it->second;
  const auto op_it = fields.find("op");
  const std::string op = op_it == fields.end() ? "" : op_it->second;
  if (op == "cluster_stats") return render_cluster_stats(id);
  if (op == "info") return render_info(id);
  if (op == "metrics") return render_metrics(id);
  if (op == "store") return render_store_op(fields, id, line_no);
  if (op == "stats") {
    const Stats s = stats();
    return "cluster shards=" + std::to_string(shard_count()) +
           " pending=" + std::to_string(s.pending) +
           " requests=" + std::to_string(s.requests) +
           " responses=" + std::to_string(s.responses) +
           " hedges=" + std::to_string(s.hedges) +
           " hedge_wins=" + std::to_string(s.hedge_wins) +
           " redispatches=" + std::to_string(s.redispatches) +
           " timeouts=" + std::to_string(s.timeouts) +
           " failed=" + std::to_string(s.failed) +
           " rejected=" + std::to_string(s.rejected);
  }
  if (op == "trace") {
    return error_line(id, line_no,
                      svc::to_json_token(svc::Status::kInvalidArgument),
                      "trace is not available on the router");
  }
  if (op == "cluster_add" || op == "cluster_remove" || op == "cluster_drain") {
    if (!config_.admin_ops) {
      return error_line(id, line_no,
                        svc::to_json_token(svc::Status::kInvalidArgument),
                        "cluster admin ops are disabled on this router");
    }
    return render_membership_op(fields, op);
  }
  return error_line(id, line_no,
                    svc::to_json_token(svc::Status::kInvalidArgument),
                    "unknown control op \"" + op + "\"");
}

std::size_t Router::shard_count() const {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  return shards_.size();
}

int Router::shard_up_conns(const std::string& id) const {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  const auto it = shards_.find(id);
  return it == shards_.end() ? 0 : it->second->up_conns.load();
}

Router::ShardHealth Router::shard_health(const std::string& id) const {
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  const auto it = shards_.find(id);
  if (it == shards_.end()) return ShardHealth::kDown;
  switch (it->second->health.load(std::memory_order_relaxed)) {
    case 1:
      return ShardHealth::kSuspect;
    case 2:
      return ShardHealth::kDown;
    default:
      return ShardHealth::kUp;
  }
}

Router::Stats Router::stats() const {
  Stats s;
  std::lock_guard<std::mutex> pl(pending_mu_);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.hedges = hedges_.load(std::memory_order_relaxed);
  s.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  s.late_drops = late_drops_.load(std::memory_order_relaxed);
  s.redispatches = redispatches_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.pending = pending_.size();
  s.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  s.budget_exhausted = budget_exhausted_.load(std::memory_order_relaxed);
  s.hop_deadline_expired =
      hop_deadline_expired_.load(std::memory_order_relaxed);
  return s;
}

std::string Router::render_cluster_stats(const std::string& id) {
  const Stats s = stats();
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "cluster_stats")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("requests", s.requests)
      .field("responses", s.responses)
      .field("pending", s.pending)
      .field("hedges", s.hedges)
      .field("hedge_wins", s.hedge_wins)
      .field("late_drops", s.late_drops)
      .field("redispatches", s.redispatches)
      .field("timeouts", s.timeouts)
      .field("failed", s.failed)
      .field("rejected", s.rejected)
      .field("probe_failures", s.probe_failures)
      .field("budget_exhausted", s.budget_exhausted)
      .field("hop_deadline_expired", s.hop_deadline_expired);
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  w.field("shards", static_cast<std::uint64_t>(shards_.size()))
      .field("ring_imbalance_permille", ring_.imbalance_permille());
  std::uint64_t up = 0;
  for (const auto& [sid, shard] : shards_) {
    if (shard->up_conns.load() > 0) ++up;
  }
  w.field("shards_up", up);
  // Flat JSON has no nesting, so per-shard state rides on compound keys.
  for (const auto& [sid, shard] : shards_) {
    const std::string prefix = "shard_" + key_safe(sid) + "_";
    const int health = shard->health.load(std::memory_order_relaxed);
    const char* state = "up";
    if (shard->draining.load()) {
      state = "draining";
    } else if (shard->up_conns.load() <= 0 || health >= 2) {
      state = "down";
    } else if (health == 1) {
      state = "suspect";
    } else if (shard->in_backoff()) {
      state = "backoff";
    }
    w.field(prefix + "state", state)
        .field(prefix + "conns", shard->up_conns.load())
        .field(prefix + "routed",
               shard->routed.load(std::memory_order_relaxed))
        .field(prefix + "hedges",
               shard->hedges.load(std::memory_order_relaxed))
        .field(prefix + "answered",
               shard->answered.load(std::memory_order_relaxed))
        .field(prefix + "connect_failures",
               shard->connect_failures.load(std::memory_order_relaxed))
        .field(prefix + "probe_streak",
               shard->probe_streak.load(std::memory_order_relaxed));
  }
  return w.str();
}

std::string Router::render_info(const std::string& id) {
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "info")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("version", kVersion)
      .field("server_id", config_.router_id)
      .field("role", "router")
      .field("uptime_ms",
             static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::milliseconds>(
                     Clock::now() - started_)
                     .count()));
  const Stats s = stats();
  std::shared_lock<std::shared_mutex> ml(membership_mu_);
  std::uint64_t up = 0;
  for (const auto& [sid, shard] : shards_) {
    if (shard->up_conns.load() > 0) ++up;
  }
  w.field("shards", static_cast<std::uint64_t>(shards_.size()))
      .field("shards_up", up)
      .field("pending", s.pending);
  return w.str();
}

std::string Router::render_metrics(const std::string& id) {
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  // One consistent snapshot (stats() reads everything under pending_mu_)
  // makes the reconciliation meaningful: accepted == resolved + inflight.
  const Stats s = stats();
  const bool reconciles =
      s.requests == s.responses + s.timeouts + s.failed + s.pending;
  w.field("op", "metrics")
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("requests", s.requests)
      .field("responses", s.responses)
      .field("timeouts", s.timeouts)
      .field("failed", s.failed)
      .field("pending", s.pending)
      .field("hedges", s.hedges)
      .field("hedge_wins", s.hedge_wins)
      .field("late_drops", s.late_drops)
      .field("redispatches", s.redispatches)
      .field("rejected", s.rejected)
      .field("probe_failures", s.probe_failures)
      .field("budget_exhausted", s.budget_exhausted)
      .field("hop_deadline_expired", s.hop_deadline_expired)
      .field("reconciles", reconciles);
  return w.str();
}

std::string Router::render_store_op(const svc::Fields& fields,
                                    const std::string& id, int line_no) {
  const auto action_it = fields.find("action");
  const std::string action =
      action_it == fields.end() ? "stats" : action_it->second;
  if (action != "stats" && action != "warm" && action != "shed" &&
      action != "pin" && action != "unpin" && action != "publish") {
    return error_line(id, line_no,
                      svc::to_json_token(svc::Status::kInvalidArgument),
                      "unknown store action \"" + action + "\"");
  }
  if (action == "publish" && config_.store_readonly) {
    return error_line(id, line_no,
                      svc::to_json_token(svc::Status::kInvalidArgument),
                      "store publish: this router treats the cluster store "
                      "as read-only (--store-readonly)");
  }
  // Forward a minimal request (id stripped: shard responses are consumed
  // here, not relayed).  Shards keep their own transport gating -- publish
  // over TCP is refused per shard unless its operator enabled it.
  svc::JsonWriter fwd;
  fwd.field("op", "store").field("action", action);
  for (const char* key : {"percent", "fingerprint"}) {
    if (const auto it = fields.find(key); it != fields.end()) {
      fwd.field(key, it->second);
    }
  }
  const std::string wire = fwd.str();

  std::vector<std::pair<std::string, std::shared_ptr<Shard>>> snapshot;
  {
    std::shared_lock<std::shared_mutex> ml(membership_mu_);
    snapshot.reserve(shards_.size());
    for (const auto& [sid, shard] : shards_) snapshot.emplace_back(sid, shard);
  }

  // Sum every counter the shard-side store op emits; per-shard rows ride
  // on compound keys like cluster_stats' (flat JSON has no nesting).
  static constexpr const char* kSummed[] = {
      "lookups",   "store_hits",       "store_misses", "fallbacks",
      "publishes", "publish_skipped",  "files",        "file_bytes",
      "mapped_bytes", "cache_store_hits", "chain_builds", "pinned",
      "admitted",  "evicted",          "written"};
  std::map<std::string, std::uint64_t> totals;
  svc::JsonWriter shard_rows;
  std::uint64_t shards_ok = 0;
  std::uint64_t shards_failed = 0;
  for (const auto& [sid, shard] : snapshot) {
    const std::string prefix = "shard_" + key_safe(sid) + "_store_";
    std::string response;
    try {
      net::ClientConfig cc;
      cc.server = shard->addr;
      cc.connect_timeout = config_.probe_timeout;
      cc.send_timeout = config_.probe_timeout;
      cc.recv_timeout = config_.probe_timeout;
      net::Client client(std::move(cc));
      response = client.roundtrip(wire);
    } catch (const std::exception&) {
      ++shards_failed;
      shard_rows.field(prefix + "status", "unreachable");
      continue;
    }
    svc::Fields reply;
    try {
      reply = svc::parse_flat_json(response);
    } catch (const std::exception&) {
      ++shards_failed;
      shard_rows.field(prefix + "status", "unparseable");
      continue;
    }
    const auto status_it = reply.find("status");
    const std::string status =
        status_it == reply.end() ? "missing" : status_it->second;
    shard_rows.field(prefix + "status", status);
    if (status != svc::to_json_token(svc::Status::kOk)) {
      ++shards_failed;
      if (const auto err = reply.find("error"); err != reply.end()) {
        shard_rows.field(prefix + "error", err->second);
      }
      continue;
    }
    ++shards_ok;
    for (const char* key : kSummed) {
      if (const auto it = reply.find(key); it != reply.end()) {
        totals[key] += static_cast<std::uint64_t>(
            std::strtoull(it->second.c_str(), nullptr, 10));
      }
    }
  }

  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", "store")
      .field("action", action)
      .field("status", svc::to_json_token(shards_failed == 0 || shards_ok > 0
                                              ? svc::Status::kOk
                                              : svc::Status::kInternal))
      .field("shards", static_cast<std::uint64_t>(snapshot.size()))
      .field("shards_ok", shards_ok)
      .field("shards_failed", shards_failed);
  if (!config_.store_dir.empty()) w.field("store_dir", config_.store_dir);
  if (config_.store_readonly) w.field("store_readonly", true);
  if (config_.store_max_bytes != 0) {
    w.field("store_max_bytes", config_.store_max_bytes);
  }
  for (const char* key : kSummed) {
    if (const auto it = totals.find(key); it != totals.end()) {
      w.field(key, it->second);
    }
  }
  std::string out = w.str();
  // Splice the per-shard rows into the envelope (both writers emit one
  // flat object; drop the rows' braces and join).
  const std::string rows = shard_rows.str();
  if (rows.size() > 2) {
    out.insert(out.size() - 1, "," + rows.substr(1, rows.size() - 2));
  }
  return out;
}

std::string Router::render_membership_op(const svc::Fields& fields,
                                         const std::string& op) {
  const auto id_it = fields.find("id");
  const std::string id = id_it == fields.end() ? "" : id_it->second;
  const auto shard_it = fields.find("shard");
  if (shard_it == fields.end() || shard_it->second.empty()) {
    return error_line(id, 0,
                      svc::to_json_token(svc::Status::kInvalidArgument),
                      op + ": missing \"shard\"");
  }
  const std::string& shard = shard_it->second;
  bool ok = false;
  if (op == "cluster_add") {
    const auto host_it = fields.find("host");
    const std::int64_t port = int_or(fields, "port", 0);
    if (host_it == fields.end() || port <= 0 || port > 65535) {
      return error_line(id, 0,
                        svc::to_json_token(svc::Status::kInvalidArgument),
                        "cluster_add: missing or invalid \"host\"/\"port\"");
    }
    ShardSpec spec;
    spec.id = shard;
    spec.addr.host = host_it->second;
    spec.addr.port = static_cast<std::uint16_t>(port);
    ok = add_shard(spec);
  } else if (op == "cluster_remove") {
    ok = remove_shard(shard);
  } else {
    ok = drain_shard(shard);
  }
  if (!ok) {
    return error_line(id, 0,
                      svc::to_json_token(svc::Status::kInvalidArgument),
                      op + ": " + (op == "cluster_add"
                                       ? "shard id already exists"
                                       : "unknown shard id"));
  }
  svc::JsonWriter w;
  if (!id.empty()) w.field("id", id);
  w.field("op", op)
      .field("status", svc::to_json_token(svc::Status::kOk))
      .field("shard", shard)
      .field("shards", static_cast<std::uint64_t>(shard_count()));
  return w.str();
}

}  // namespace wfc::cluster
