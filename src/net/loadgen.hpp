// wfc::net load generator -- drives a JSONL v2 server (net/server.hpp)
// with a corpus of request lines over N concurrent connections and verifies
// EXACTLY-ONCE delivery: every request is stamped with a unique "id", and
// the report counts lost (never answered), duplicated, and unmatched
// responses alongside throughput and latency percentiles.
//
// Two driving modes:
//   * closed loop (rate == 0): each connection keeps up to `max_inflight`
//     requests outstanding and sends as fast as the server answers;
//   * open loop (rate > 0): each connection paces sends to rate/connections
//     per second regardless of completions (up to the inflight cap), the
//     classic way to expose queueing collapse.
//
// Corpus lines are flat JSON requests (the examples/queries.jsonl shape);
// '#' comments and blanks are skipped, and any "id" the corpus carries is
// replaced by the generator's own unique ids.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/socket.hpp"

namespace wfc::net {

struct LoadgenConfig {
  Endpoint server;
  int connections = 1;
  /// Closed loop: passes over the corpus PER CONNECTION (total requests =
  /// connections * iterations * corpus size).  Ignored when duration is set.
  int iterations = 1;
  /// When nonzero, send for this long (looping the corpus) instead of a
  /// fixed iteration count.
  std::chrono::milliseconds duration{0};
  /// Pipelining window per connection.
  std::size_t max_inflight = 32;
  /// Open-loop target in requests/second across ALL connections; 0 = closed
  /// loop.
  double rate = 0.0;
  /// After the run, ask the server for {"op":"metrics"} on a fresh
  /// connection and record whether its counters reconcile.
  bool check_metrics = false;
  /// Model mix (wfc::model wire names).  Non-empty: the corpus is expanded
  /// to one pass per model, each pass sending every eligible line (solve /
  /// convergence / check target "sds") with that "model" field spliced in
  /// -- any corpus model field is replaced.  Ineligible lines are sent
  /// unchanged once per pass.  Effective corpus size becomes
  /// corpus * models, and the report tallies sends per model.
  std::vector<std::string> models;
};

struct LoadgenReport {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  /// Responses whose "status" is an error token of the transport taxonomy.
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;        // sent but never answered
  std::uint64_t duplicates = 0;  // answered more than once
  std::uint64_t unmatched = 0;   // answered with an unknown / missing id
  double seconds = 0.0;
  double qps = 0.0;  // received / seconds
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  std::uint64_t max_us = 0;
  /// Responses tallied by their "status" token ("none" when the response
  /// carried no status field) -- the per-regime breakdown a soak needs to
  /// tell fast-fail rejections from real answers.
  std::map<std::string, std::uint64_t> by_status;
  /// Set when LoadgenConfig::check_metrics: the server's own counters
  /// reconciled after the run.
  std::optional<bool> metrics_reconcile;
  /// Requests sent per injected model (LoadgenConfig::models); lines the
  /// mix could not apply to (emulate, non-sds checks) tally under "none".
  /// Empty when no model mix was configured.
  std::map<std::string, std::uint64_t> by_model;

  /// Every id answered exactly once.
  [[nodiscard]] bool exactly_once() const {
    return lost == 0 && duplicates == 0 && unmatched == 0;
  }
  /// One flat JSON line (BENCH_net.json-style fields).
  [[nodiscard]] std::string to_json() const;
};

/// Reads corpus lines from `in` ('#' and blanks skipped), validating each
/// as flat JSON and stripping any "id" field.  Throws std::invalid_argument
/// on a malformed line.
std::vector<std::string> load_corpus(std::istream& in);

/// Replaces any "model" field of a flat JSON line with `model` (wire name,
/// inserted as the line's first field).  Exposed for tests and the model
/// mix in run_loadgen.
std::string with_model(const std::string& line, const std::string& model);

/// Runs the generator; `corpus` must be load_corpus-shaped (no comments,
/// ids stripped).  Throws std::system_error if connecting fails and
/// std::invalid_argument on an empty corpus.
LoadgenReport run_loadgen(const std::vector<std::string>& corpus,
                          const LoadgenConfig& config);

}  // namespace wfc::net
