// Metrics registry for the observability layer (wfc::obs).
//
// A series is either OWNED or a VIEW:
//
//   * owned instruments count events that nothing else counts, with
//     relaxed atomics so the hot path costs a handful of atomic adds:
//       - Counter   -- monotonically increasing u64;
//       - Histogram -- FIXED upper-bound buckets (latency in microseconds,
//                      sizes in nodes/vertices).  Bounds are chosen at
//                      registration and never change, so observation is two
//                      atomic adds (bucket + sum) after a short linear scan
//                      of <= 16 bounds.
//   * a view stores nothing.  Its read function fetches the value from the
//     component that owns the count (ServiceStats, net::Server::Stats, the
//     cache, ...) when the exposition is written, so the exposition agrees
//     with the owner by construction.  Counter and gauge views differ only
//     in their Prometheus TYPE; every gauge is a view.
//
// The registry owns every instrument and hands out stable references: the
// query service resolves its series ONCE at construction and never touches
// the registry mutex again.  Series are identified by (name, labels) where
// labels is a raw Prometheus label body, e.g. `status="ok"`; the same name
// may appear with many label sets (one series each).  Asking for an owned
// instrument under a view's (name, labels), or the reverse, fails
// WFC_REQUIRE.
//
// write_prometheus() renders the whole registry in the Prometheus text
// exposition format (# HELP / # TYPE once per family, histograms with
// cumulative `_bucket{le=...}`, `_sum`, `_count`).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace wfc::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Histogram {
 public:
  /// `bounds` are strictly increasing inclusive upper bounds; an implicit
  /// +Inf bucket is appended.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t value);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const {
    return bounds_;
  }
  /// Non-cumulative count of bucket i (i == bounds().size() is +Inf).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::uint64_t> bounds_;
  std::deque<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Latency bounds in microseconds: 10us .. 10s, roughly half-decade steps.
[[nodiscard]] const std::vector<std::uint64_t>& latency_bounds_us();
/// Size bounds (search nodes, vertices): powers of ten, 1 .. 10^8.
[[nodiscard]] const std::vector<std::uint64_t>& size_bounds();

/// A view's value source.  It runs while the exposition is written, under
/// the registry mutex, so it must not call back into the registry.
using ViewFn = std::function<std::uint64_t()>;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or finds) the owned series (name, labels).  `help` is
  /// recorded the first time a family is seen.  References stay valid for
  /// the registry's lifetime.
  Counter& counter(const std::string& name, const std::string& labels = "",
                   const std::string& help = "");
  Histogram& histogram(const std::string& name,
                       const std::vector<std::uint64_t>& bounds,
                       const std::string& labels = "",
                       const std::string& help = "");

  /// Registers a view series whose value is `read()`.  `read` must stay
  /// callable for the registry's lifetime: capture shared state, not a
  /// pointer to an object that may die first.  Registering the same view
  /// again adds a source, and the series exports the sum (two servers over
  /// one service export their combined wire counts).
  void counter_view(const std::string& name, const std::string& labels,
                    const std::string& help, ViewFn read);
  void gauge_view(const std::string& name, const std::string& labels,
                  const std::string& help, ViewFn read);

  /// Prometheus text exposition of every registered series.
  void write_prometheus(std::ostream& out) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    Kind kind;
    std::string name;
    std::string labels;  // raw label body, e.g. status="ok"
    std::string help;
    Counter counter;                       // owned counters
    std::unique_ptr<Histogram> histogram;  // histograms
    ViewFn view;                           // views, so every gauge
  };

  /// Caller holds mu_.  `view` says which flavor the caller wants; an
  /// existing series of the other flavor (or another kind) is an error.
  Series& find_or_add(Kind kind, bool view, const std::string& name,
                      const std::string& labels, const std::string& help);
  void add_view(Kind kind, const std::string& name, const std::string& labels,
                const std::string& help, ViewFn read);

  mutable std::mutex mu_;
  std::deque<Series> series_;  // deque: stable addresses
};

}  // namespace wfc::obs
