// Observability surface of the query service (wfc::svc).
//
// Counters come in two layers:
//   * CacheStats  -- hit/miss/extension/eviction counts and residency of the
//                    shared SDS-chain cache (sds_cache.hpp);
//   * ServiceStats -- per-service aggregates: admission and per-Status
//                    counters, queries by verdict, total search nodes, queue
//                    wait, total and maximum query latency, watchdog
//                    interventions.
// Both are plain snapshot structs: the live objects accumulate atomically
// and hand out consistent-enough copies on demand (counters are
// monotonically increasing; a snapshot may straddle a query boundary, which
// is fine for monitoring).
//
// These are the service's only books.  The obs layer keeps no second copy:
// its Prometheus series for these counts are views that read a snapshot at
// export time, and {"op":"metrics"} renders from one too.
//
// Reconciliation invariant (checked by the chaos soak test): once every
// outstanding future is terminal, submitted == sum over by_status == queries.
// Nothing is double-counted and nothing vanishes, whatever mix of sheds,
// cancellations, contained bad_allocs, and shutdowns occurred.
#pragma once

#include <cstdint>
#include <string>

#include "service/status.hpp"

namespace wfc::svc {

struct CacheStats {
  std::uint64_t hits = 0;        // chain served without any subdivision work
  std::uint64_t misses = 0;      // input seen for the first time
  std::uint64_t extensions = 0;  // cached prefix deepened to a new level
  std::uint64_t evictions = 0;   // entries dropped by the LRU bound or shed()
  std::uint64_t sheds = 0;       // shed() calls (memory-pressure responses)
  std::uint64_t entries = 0;     // live cached inputs
  std::uint64_t resident_vertices = 0;  // sum of vertex counts, all levels
  std::uint64_t store_hits = 0;  // chains adopted from the persistent store
  std::uint64_t pinned = 0;      // entries pinned against eviction
  /// Towers actually subdivided in this process -- the number the
  /// store-smoke CI job asserts is 0 after a warm restart.
  [[nodiscard]] std::uint64_t chain_builds() const {
    return misses + extensions;
  }
};

/// Snapshot of the persistent chain store (store/chain_store.hpp),
/// mirrored here so stats.hpp stays dependency-free.
struct StoreStats {
  bool enabled = false;
  bool readonly = false;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;            // mmap'ed chains served
  std::uint64_t misses = 0;          // fingerprint not on disk
  std::uint64_t fallbacks = 0;       // corrupt/truncated/skewed -> rebuild
  std::uint64_t publishes = 0;       // chain files written
  std::uint64_t publish_skipped = 0; // readonly / shallower / over budget
  std::uint64_t mapped_bytes = 0;    // live read-only mappings
  std::uint64_t files = 0;           // on-disk inventory
  std::uint64_t file_bytes = 0;
};

/// Aggregates over kCheck queries (the wfc::chk model checker).
struct CheckStats {
  std::uint64_t runs = 0;        // completed check queries
  std::uint64_t schedules = 0;   // executions / interleavings explored
  std::uint64_t histories = 0;   // operation histories verified
  std::uint64_t violations = 0;  // checks that found a counterexample
  std::uint64_t max_search_depth = 0;  // deepest linearization search
};

struct ServiceStats {
  std::uint64_t submitted = 0;   // tickets handed out by submit()
  std::uint64_t queries = 0;     // queries that reached a terminal Status
  /// Terminal statuses, indexed by static_cast<int>(Status).
  std::uint64_t by_status[kNumStatuses] = {};
  // Domain verdicts of kOk solve/convergence queries.
  std::uint64_t solvable = 0;
  std::uint64_t unsolvable = 0;
  std::uint64_t unknown = 0;     // node budget exhausted
  std::uint64_t result_hits = 0;     // queries answered from the result memo
  std::uint64_t nodes_explored = 0;  // summed over queries (fresh work only)
  std::uint64_t total_micros = 0;    // summed wall latency
  std::uint64_t max_micros = 0;      // worst single query
  // Admission control and resilience.
  std::uint64_t queue_total_micros = 0;  // summed time spent queued
  std::uint64_t queue_max_micros = 0;    // worst queue wait
  std::uint64_t queue_peak_depth = 0;    // high-water mark of the backlog
  std::uint64_t degraded = 0;        // queries run with a scaled-down budget
  std::uint64_t watchdog_kills = 0;  // hard-timeout force-cancellations
  std::uint64_t stuck_worker_reports = 0;  // no-progress detections
  CacheStats cache;
  StoreStats store;
  CheckStats check;

  [[nodiscard]] std::uint64_t count(Status s) const {
    return by_status[static_cast<int>(s)];
  }
  /// True iff every handed-out ticket has reached exactly one terminal
  /// status and the per-status counters add back up to the intake.
  [[nodiscard]] bool reconciles() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : by_status) sum += c;
    return sum == queries && queries == submitted;
  }

  /// One-line rendering for front-ends, e.g.
  /// "queries=12 (7 solvable, ...) nodes=... cache hits=.../miss=...".
  [[nodiscard]] std::string to_string() const;
};

}  // namespace wfc::svc
