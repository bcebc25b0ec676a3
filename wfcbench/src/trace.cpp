// Histogram and the in-memory span recorder of the traced run.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace wfcbench {

namespace {

constexpr std::uint64_t kExact = 64;

std::size_t bucket_of(std::uint64_t v) {
  if (v < kExact) return static_cast<std::size_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - 5;  // keeps the top six bits: 32..63
  return kExact + static_cast<std::size_t>(shift - 1) * 32 +
         static_cast<std::size_t>((v >> shift) - 32);
}

/// [lower, lower + width) of bucket `i`.
void bucket_range(std::size_t i, double* lower, double* width) {
  if (i < kExact) {
    *lower = static_cast<double>(i);
    *width = 1;
    return;
  }
  const std::size_t shift = (i - kExact) / 32 + 1;
  const std::uint64_t top = (i - kExact) % 32 + 32;
  *lower = static_cast<double>(top << shift);
  *width = static_cast<double>(std::uint64_t{1} << shift);
}

}  // namespace

Histogram::Histogram()
    : buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(kBuckets)) {}

void Histogram::record(std::uint64_t ns) {
  const std::size_t i = std::min(bucket_of(ns), kBuckets - 1);
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    buckets_[i].fetch_add(other.buckets_[i].load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
  }
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    n += buckets_[i].load(std::memory_order_relaxed);
  }
  return n;
}

double Histogram::quantile_us(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  const double rank = q * static_cast<double>(n);
  double seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const double c =
        static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
    if (c == 0) continue;
    if (seen + c >= rank) {
      double lower = 0;
      double width = 0;
      bucket_range(i, &lower, &width);
      return (lower + width * (rank - seen) / c) / 1000.0;
    }
    seen += c;
  }
  return 0;
}

// ---------------------------------------------------------------- Recorder

Recorder::Recorder(std::size_t capacity)
    : epoch_ns_(now_ns()),
      spans_(capacity),
      front_id_(std::make_unique<std::atomic<std::uint64_t>[]>(kFrontSlots)),
      front_dur_(std::make_unique<std::atomic<std::uint64_t>[]>(kFrontSlots)) {
  for (std::size_t i = 0; i < kFrontSlots; ++i) {
    front_id_[i].store(0, std::memory_order_relaxed);
    front_dur_[i].store(0, std::memory_order_relaxed);
  }
}

std::uint64_t Recorder::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Recorder::add(Track track, std::uint64_t start_ns, std::uint64_t end_ns,
                   std::uint64_t id) {
  if (!enabled()) return;
  const std::uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  Agg& agg = agg_[static_cast<int>(track)];
  agg.count.fetch_add(1, std::memory_order_relaxed);
  agg.sum_ns.fetch_add(dur, std::memory_order_relaxed);
  agg.hist.record(dur);
  const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i < spans_.size()) spans_[i] = Rec{start_ns, dur, id, track};
}

double Recorder::mean_us(Track t) const {
  const Agg& agg = agg_[static_cast<int>(t)];
  const std::uint64_t n = agg.count.load(std::memory_order_relaxed);
  if (n == 0) return 0;
  return static_cast<double>(agg.sum_ns.load(std::memory_order_relaxed)) /
         static_cast<double>(n) / 1000.0;
}

double Recorder::p50_us(Track t) const {
  return agg_[static_cast<int>(t)].hist.quantile_us(0.5);
}

void Recorder::publish_front(std::uint64_t id, std::uint64_t dur_ns) {
  const std::size_t i = id & (kFrontSlots - 1);
  front_dur_[i].store(dur_ns, std::memory_order_relaxed);
  front_id_[i].store(id, std::memory_order_release);
}

std::int64_t Recorder::front_ns(std::uint64_t id) const {
  const std::size_t i = id & (kFrontSlots - 1);
  if (front_id_[i].load(std::memory_order_acquire) != id) return -1;
  return static_cast<std::int64_t>(
      front_dur_[i].load(std::memory_order_relaxed));
}

bool Recorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  static const char* kNames[kNumTracks] = {
      "",
      "client: generator send -> response",
      "cluster: Router span (on_line -> done)",
      "cluster: Router::on_line inline",
      "service: shard backend span (parse -> done)",
      "service: RequestHandler::parse",
      "service: RequestHandler::submit_async",
  };
  out << "{\"traceEvents\":[";
  bool first = true;
  for (int t = 1; t < kNumTracks; ++t) {
    out << (first ? "" : ",")
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"args\":{\"name\":\"" << kNames[t] << "\"}}";
    first = false;
  }
  const std::size_t n = std::min(next_.load(), spans_.size());
  char buf[256];
  for (std::size_t i = 0; i < n; ++i) {
    const Rec& r = spans_[i];
    const int t = static_cast<int>(r.track);
    const double ts =
        r.start_ns >= epoch_ns_
            ? static_cast<double>(r.start_ns - epoch_ns_) / 1000.0
            : 0.0;
    std::snprintf(buf, sizeof buf,
                  ",{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                  kNames[t], t, ts, static_cast<double>(r.dur_ns) / 1000.0,
                  static_cast<unsigned long long>(r.id));
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ns\"}\n";
  return static_cast<bool>(out);
}

bool parse_numeric_id(const char* begin, const char* end, std::uint64_t* out) {
  static constexpr char kKey[] = "\"id\":\"";
  constexpr std::size_t kLen = sizeof kKey - 1;
  const char* p = std::search(begin, end, kKey, kKey + kLen);
  if (p == end) return false;
  p += kLen;
  std::uint64_t v = 0;
  const char* digits = p;
  while (p < end && *p >= '0' && *p <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(*p - '0');
    ++p;
  }
  if (p == digits || p == end || *p != '"') return false;
  *out = v;
  return true;
}

}  // namespace wfcbench
