// E24 -- the wait-free data plane quantitatively: the mutex baselines the
// service grew up with against their wfc::wf replacements, swept across
// thread counts.  Three contended primitives, measured head to head:
//
//   * counter        -- one mutex-guarded uint64 vs wf::Counter (sharded
//                       relaxed cells);
//   * cache_hot_hits -- a mutex + std::map + LRU-list cache (the seed
//                       SdsCache index shape) vs wf::ClockCache, all-hits
//                       working set (the service hot path once a tower is
//                       resident);
//   * cache_churn    -- the same pair with a working set twice the cache
//                       bound, so every thread also races eviction.
//
// The claim under test: the mutex side LOSES absolute throughput as
// threads grow (every hit serializes on one lock and one LRU splice),
// while the wf side holds or scales.  CI runs this with
// --benchmark_out=BENCH_wf.json; EXPERIMENTS.md E24 records a local run.
// ops_per_s counts per-iteration operations summed over all threads.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <list>
#include <map>
#include <mutex>

#include "wf/clock_cache.hpp"
#include "wf/counter.hpp"

namespace {

using namespace wfc;

// ---------------------------------------------------------------------------
// Counters

struct MutexCounter {
  std::mutex mu;
  std::uint64_t v = 0;
  void inc() {
    std::lock_guard<std::mutex> lock(mu);
    ++v;
  }
};

void BM_MutexCounter(benchmark::State& state) {
  static MutexCounter counter;
  for (auto _ : state) counter.inc();
  state.counters["ops_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MutexCounter)->ThreadRange(1, 64)->UseRealTime();

void BM_WfCounter(benchmark::State& state) {
  static wf::Counter counter;
  for (auto _ : state) counter.inc();
  state.counters["ops_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WfCounter)->ThreadRange(1, 64)->UseRealTime();

// ---------------------------------------------------------------------------
// Caches

constexpr std::size_t kCacheBound = 128;
constexpr std::uint64_t kHotKeys = 64;    // all resident: pure hit path
constexpr std::uint64_t kChurnKeys = 256; // 2x the bound: constant eviction

/// The seed SdsCache index shape: exact LRU under one mutex.  Every hit
/// splices the recency list; every insert past the bound pops the tail.
class MutexLruCache {
 public:
  bool get_or_insert(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return true;
    }
    lru_.push_front(key);
    map_[key] = {key * 3, lru_.begin()};
    if (map_.size() > kCacheBound) {
      map_.erase(lru_.back());
      lru_.pop_back();
    }
    return false;
  }

 private:
  struct Ent {
    std::uint64_t value;
    std::list<std::uint64_t>::iterator pos;
  };
  std::mutex mu_;
  std::map<std::uint64_t, Ent> map_;
  std::list<std::uint64_t> lru_;
};

using WfCache = wf::ClockCache<std::uint64_t, std::uint64_t>;

WfCache::Options wf_cache_options() {
  WfCache::Options o;
  o.max_entries = kCacheBound;
  return o;
}

template <typename Cache>
void cache_loop(benchmark::State& state, Cache& cache, std::uint64_t keys) {
  // Per-thread stride over the key space; thread_index staggers the
  // starting phase so threads collide on keys, not in lockstep.
  std::uint64_t k = static_cast<std::uint64_t>(state.thread_index()) * 7;
  for (auto _ : state) {
    const std::uint64_t key = k++ % keys;
    if constexpr (std::is_same_v<Cache, MutexLruCache>) {
      benchmark::DoNotOptimize(cache.get_or_insert(key));
    } else {
      typename Cache::Handle h =
          cache.get_or_insert(key, [&] { return key * 3; });
      benchmark::DoNotOptimize(*h);
    }
  }
  state.counters["ops_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_MutexCacheHot(benchmark::State& state) {
  static MutexLruCache cache;
  cache_loop(state, cache, kHotKeys);
}
BENCHMARK(BM_MutexCacheHot)->ThreadRange(1, 64)->UseRealTime();

void BM_WfCacheHot(benchmark::State& state) {
  static WfCache cache(wf_cache_options());
  cache_loop(state, cache, kHotKeys);
}
BENCHMARK(BM_WfCacheHot)->ThreadRange(1, 64)->UseRealTime();

void BM_MutexCacheChurn(benchmark::State& state) {
  static MutexLruCache cache;
  cache_loop(state, cache, kChurnKeys);
}
BENCHMARK(BM_MutexCacheChurn)->ThreadRange(1, 64)->UseRealTime();

void BM_WfCacheChurn(benchmark::State& state) {
  static WfCache cache(wf_cache_options());
  cache_loop(state, cache, kChurnKeys);
}
BENCHMARK(BM_WfCacheChurn)->ThreadRange(1, 64)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
