#include "net/loadgen.hpp"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <istream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "net/client.hpp"
#include "service/jsonl.hpp"

namespace wfc::net {

namespace {

using Clock = std::chrono::steady_clock;

bool is_error_status(const std::string& status) {
  return status == "cancelled" || status == "deadline_exceeded" ||
         status == "overloaded" || status == "resource_exhausted" ||
         status == "invalid_argument" || status == "internal";
}

/// Per-connection tallies, merged after the join.
struct ThreadOutcome {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t unmatched = 0;
  std::vector<std::uint64_t> latencies_us;
  std::map<std::string, std::uint64_t> by_status;
  std::map<std::string, std::uint64_t> by_model;
  std::string failure;  // nonempty: the thread died on this exception
};

}  // namespace

std::vector<std::string> load_corpus(std::istream& in) {
  std::vector<std::string> corpus;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    try {
      (void)svc::parse_flat_json(line);
    } catch (const std::exception& e) {
      throw std::invalid_argument("corpus line " + std::to_string(line_no) +
                                  ": " + e.what());
    }
    corpus.push_back(svc::strip_field(line, "id"));
  }
  return corpus;
}

std::string with_model(const std::string& line, const std::string& model) {
  return svc::with_field(svc::strip_field(line, "model"), "model", model);
}

namespace {

/// Whether the handler accepts a "model" field on this request line: solve,
/// convergence, and checks of the default "sds" target do; emulate, other
/// check targets, control ops and op-less lines reject or ignore it.
bool line_takes_model(const std::string& line) {
  svc::Fields fields;
  try {
    fields = svc::parse_flat_json(line);
  } catch (const std::exception&) {
    return false;
  }
  const std::string_view op = fields.get("op");
  if (op == "solve" || op == "convergence") return true;
  if (op == "check") {
    const auto target = fields.find("target");
    return target == fields.end() || target->second == "sds";
  }
  return false;
}

/// One sendable corpus entry after model-mix expansion.
struct CorpusEntry {
  std::string line;   // id-stripped, model spliced in when applicable
  std::string model;  // tally key ("" = no mix configured)
};

void drive_connection(const LoadgenConfig& config,
                      const std::vector<CorpusEntry>& corpus, int thread_idx,
                      Clock::time_point start, ThreadOutcome* out) {
  try {
    Client client(ClientConfig{config.server});
    const std::uint64_t total =
        config.duration.count() > 0
            ? 0  // duration-bounded instead
            : static_cast<std::uint64_t>(std::max(1, config.iterations)) *
                  corpus.size();
    const Clock::time_point deadline =
        config.duration.count() > 0 ? start + config.duration
                                    : Clock::time_point::max();
    // Open loop: this connection's share of the target rate.
    const double per_conn_rate =
        config.rate > 0 ? config.rate / std::max(1, config.connections) : 0;
    std::unordered_map<std::string, Clock::time_point> outstanding;
    std::unordered_set<std::string> answered;
    std::string id_prefix = "t";  // built up to dodge a GCC 12 -Wrestrict
    id_prefix += std::to_string(thread_idx);  // false positive on operator+
    id_prefix += '-';
    std::uint64_t seq = 0;
    std::size_t next_line = 0;

    auto handle_response = [&](const std::string& line) {
      ++out->received;
      std::string id;
      std::string status;
      try {
        const auto fields = svc::parse_flat_json(line);
        if (auto it = fields.find("id"); it != fields.end()) id = it->second;
        if (auto it = fields.find("status"); it != fields.end()) {
          status = it->second;
        }
      } catch (const std::exception&) {
        // Unparseable response: counted as unmatched below (empty id).
      }
      if (is_error_status(status)) ++out->errors;
      ++out->by_status[status.empty() ? "none" : status];
      auto it = outstanding.find(id);
      if (it != outstanding.end()) {
        out->latencies_us.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - it->second)
                .count()));
        answered.insert(id);
        outstanding.erase(it);
      } else if (!id.empty() && answered.count(id) != 0) {
        ++out->duplicates;
      } else {
        ++out->unmatched;
      }
    };

    while (true) {
      const Clock::time_point now = Clock::now();
      const bool more_to_send = config.duration.count() > 0
                                    ? now < deadline
                                    : seq < total;
      if (!more_to_send && outstanding.empty()) break;
      bool can_send = more_to_send &&
                      outstanding.size() < config.max_inflight;
      Clock::time_point slot = now;
      if (can_send && per_conn_rate > 0) {
        slot = start + std::chrono::microseconds(static_cast<std::int64_t>(
                           static_cast<double>(seq) * 1e6 / per_conn_rate));
        if (slot > now) {
          // Not this connection's turn yet: drain responses while waiting.
          pollfd pfd{client.fd(), POLLIN, 0};
          const int wait_ms = static_cast<int>(std::max<std::int64_t>(
              1, std::chrono::duration_cast<std::chrono::milliseconds>(
                     slot - now)
                     .count()));
          const int ready = ::poll(&pfd, 1, wait_ms);
          if (ready <= 0 && Clock::now() < slot) continue;
          can_send = Clock::now() >= slot;
          if (!can_send) {
            std::optional<std::string> line = client.recv_line();
            if (!line) break;  // premature server EOF
            handle_response(*line);
            continue;
          }
        }
      }
      if (can_send) {
        // Closed loop: refill the whole window in ONE send -- per-request
        // syscalls would dominate the wire cost.  Open loop sends one, so
        // the pacing stays per-request.
        std::string batch;
        do {
          const std::string id = id_prefix + std::to_string(seq);
          const CorpusEntry& entry = corpus[next_line];
          batch += svc::with_id(entry.line, id);
          batch += '\n';
          if (!entry.model.empty()) ++out->by_model[entry.model];
          next_line = (next_line + 1) % corpus.size();
          outstanding.emplace(id, Clock::now());
          ++seq;
          ++out->sent;
        } while (per_conn_rate <= 0 &&
                 outstanding.size() < config.max_inflight &&
                 (config.duration.count() > 0 ? Clock::now() < deadline
                                              : seq < total));
        client.send_raw(batch);
        continue;
      }
      std::optional<std::string> line = client.recv_line();
      if (!line) break;  // premature server EOF: leftovers count as lost
      handle_response(*line);
    }
    out->lost += outstanding.size();
  } catch (const std::exception& e) {
    out->failure = e.what();
  }
}

std::uint64_t percentile(const std::vector<std::uint64_t>& sorted,
                         double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return sorted[idx];
}

}  // namespace

LoadgenReport run_loadgen(const std::vector<std::string>& corpus,
                          const LoadgenConfig& config) {
  if (corpus.empty()) {
    throw std::invalid_argument("loadgen: empty corpus");
  }
  // Model-mix expansion: one pass of the corpus per model, model spliced
  // into every line the handler accepts it on.  Ineligible lines ride each
  // pass unchanged (tallied "none") so their share of the load is
  // preserved.
  std::vector<CorpusEntry> entries;
  if (config.models.empty()) {
    entries.reserve(corpus.size());
    for (const std::string& line : corpus) entries.push_back({line, ""});
  } else {
    entries.reserve(corpus.size() * config.models.size());
    for (const std::string& model : config.models) {
      for (const std::string& line : corpus) {
        if (line_takes_model(line)) {
          entries.push_back({with_model(line, model), model});
        } else {
          entries.push_back({line, "none"});
        }
      }
    }
  }
  const int connections = std::max(1, config.connections);
  std::vector<ThreadOutcome> outcomes(
      static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < connections; ++i) {
    threads.emplace_back(drive_connection, std::cref(config),
                         std::cref(entries), i, start,
                         &outcomes[static_cast<std::size_t>(i)]);
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          Clock::now() - start)
          .count();

  LoadgenReport report;
  std::vector<std::uint64_t> latencies;
  std::string failure;
  for (ThreadOutcome& o : outcomes) {
    report.sent += o.sent;
    report.received += o.received;
    report.errors += o.errors;
    report.lost += o.lost;
    report.duplicates += o.duplicates;
    report.unmatched += o.unmatched;
    latencies.insert(latencies.end(), o.latencies_us.begin(),
                     o.latencies_us.end());
    for (const auto& [status, count] : o.by_status) {
      report.by_status[status] += count;
    }
    for (const auto& [model, count] : o.by_model) {
      report.by_model[model] += count;
    }
    if (failure.empty() && !o.failure.empty()) failure = o.failure;
  }
  if (!failure.empty()) {
    throw std::runtime_error("loadgen connection failed: " + failure);
  }
  std::sort(latencies.begin(), latencies.end());
  report.seconds = seconds;
  report.qps = seconds > 0 ? static_cast<double>(report.received) / seconds
                           : 0.0;
  report.p50_us = percentile(latencies, 0.50);
  report.p90_us = percentile(latencies, 0.90);
  report.p99_us = percentile(latencies, 0.99);
  report.p999_us = percentile(latencies, 0.999);
  report.max_us = latencies.empty() ? 0 : latencies.back();

  if (config.check_metrics) {
    Client probe(ClientConfig{config.server});
    const std::string line =
        probe.roundtrip(R"({"id":"loadgen-metrics","op":"metrics"})");
    bool reconciles = false;
    try {
      const auto fields = svc::parse_flat_json(line);
      auto it = fields.find("reconciles");
      reconciles = it != fields.end() && it->second == "true";
    } catch (const std::exception&) {
    }
    report.metrics_reconcile = reconciles;
  }
  return report;
}

std::string LoadgenReport::to_json() const {
  std::ostringstream os;
  os << "{\"sent\":" << sent << ",\"received\":" << received
     << ",\"errors\":" << errors << ",\"lost\":" << lost
     << ",\"duplicates\":" << duplicates << ",\"unmatched\":" << unmatched
     << ",\"exactly_once\":" << (exactly_once() ? "true" : "false");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  os << ",\"seconds\":" << buf;
  std::snprintf(buf, sizeof(buf), "%.1f", qps);
  os << ",\"qps\":" << buf;
  os << ",\"p50_us\":" << p50_us << ",\"p90_us\":" << p90_us
     << ",\"p99_us\":" << p99_us << ",\"p999_us\":" << p999_us
     << ",\"max_us\":" << max_us;
  // Status tokens are [a-z_] -- but a chaos regime can corrupt one in
  // flight, so anything else maps to '_' to keep the flat
  // "status_<token>" keys valid, jq-addressable JSON.  Sanitized
  // collisions merge into one key.
  std::map<std::string, std::uint64_t> clean;
  for (const auto& [status, count] : by_status) {
    std::string key = status;
    for (char& c : key) {
      if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_') c = '_';
    }
    clean[key] += count;
  }
  for (const auto& [status, count] : clean) {
    os << ",\"status_" << status << "\":" << count;
  }
  // Model names carry punctuation ("t_resilient(1)"); same sanitization so
  // the keys stay jq-addressable.
  std::map<std::string, std::uint64_t> clean_models;
  for (const auto& [model, count] : by_model) {
    std::string key = model;
    for (char& c : key) {
      if ((c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_') c = '_';
    }
    clean_models[key] += count;
  }
  for (const auto& [model, count] : clean_models) {
    os << ",\"model_" << model << "\":" << count;
  }
  if (metrics_reconcile) {
    os << ",\"metrics_reconcile\":" << (*metrics_reconcile ? "true" : "false");
  }
  os << "}";
  return os.str();
}

}  // namespace wfc::net
