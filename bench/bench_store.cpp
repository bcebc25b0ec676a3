// E26 -- the arena core and the persistent chain store.
//
// Two questions, two benchmark families:
//
//   1. Engine throughput: arena search nodes per second on the hardest
//      canonical instances of bench_solvability (deep consensus
//      refutations and 3-process renaming).  The search tree is pinned by
//      arena_test's node counts, so nodes/sec moves only with the engine's
//      per-node cost.  (The pointer-based engine these arms were measured
//      against now lives in tests/reference_search.cpp; EXPERIMENTS.md E26
//      keeps the recorded comparison.)
//   2. Cold vs warm start: time-to-first-answer of a fresh SdsCache with
//      an empty store (builds the tower, publishes) against one whose
//      store already holds the chain (mmap, zero builds).  The bar is
//      warm >= 10x faster.
//
// Counters: nodes_per_s for family 1, chain_builds for family 2 (warm runs
// must report 0).  CI captures the JSON as BENCH_store.json via
// --benchmark_out (store-smoke job).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>

#include "service/sds_cache.hpp"
#include "tasks/canonical.hpp"
#include "tasks/solvability.hpp"
#include "topology/complex.hpp"

namespace {

using namespace wfc;

// ---------------------------------------------------------------------------
// Family 1: arena search nodes/sec.

/// One shared chain across iterations so the subdivision cost stays out of
/// the measurement: this times the SEARCH.
std::shared_ptr<const proto::SdsChain> shared_chain(const task::Task& t,
                                                    int depth) {
  static std::map<std::string, std::shared_ptr<const proto::SdsChain>> cache;
  const std::string key = t.name() + "@" + std::to_string(depth);
  auto& slot = cache[key];
  if (!slot) {
    slot = std::make_shared<proto::SdsChain>(t.input(), depth);
  }
  return slot;
}

void run_engine(benchmark::State& state, task::Task& t, int level) {
  task::SolveOptions options;
  const auto chain = shared_chain(t, level);
  options.chain_provider = [&chain](const topo::ChromaticComplex&,
                                    int) { return chain; };
  std::uint64_t nodes = 0;
  task::SolveResult r;
  for (auto _ : state) {
    r = task::solve_at_level(t, level, options);
    benchmark::DoNotOptimize(r);
    nodes += r.nodes_explored;
  }
  state.counters["nodes"] = static_cast<double>(r.nodes_explored);
  state.counters["nodes_per_s"] =
      benchmark::Counter(static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.counters["solvable"] =
      r.status == task::Solvability::kSolvable ? 1 : 0;
}

/// The hardest bench_solvability instances: consensus refutation at depth 3
/// (the biggest exhaustive search in the suite) and 3-process renaming.
void BM_ConsensusRefute_Arena(benchmark::State& state) {
  task::ConsensusTask t(2, 2);
  run_engine(state, t, static_cast<int>(state.range(0)));
}
BENCHMARK(BM_ConsensusRefute_Arena)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_Renaming3_Arena(benchmark::State& state) {
  task::RenamingTask t(3, static_cast<int>(state.range(0)));
  run_engine(state, t, 1);
}
BENCHMARK(BM_Renaming3_Arena)->Arg(3)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_SetConsensus33_Arena(benchmark::State& state) {
  task::KSetConsensusTask t(3, 2);
  run_engine(state, t, 1);
}
BENCHMARK(BM_SetConsensus33_Arena)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Family 2: cold vs warm time-to-first-answer.

struct BenchDir {
  BenchDir() {
    char tmpl[] = "/tmp/wfc_bench_store_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~BenchDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
  std::string path;
};

/// Cold: every iteration starts a fresh cache over an EMPTY store and asks
/// for the depth-`range(0)` tower of the 2-process input -- the restart
/// worst case (full subdivision + first publish).
void BM_ColdStartTTFA(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const topo::ChromaticComplex input = topo::base_simplex(2);
  std::uint64_t builds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    BenchDir dir;  // empty store each iteration
    svc::SdsCache::Options options;
    options.store.dir = dir.path;
    svc::SdsCache cache(options);
    state.ResumeTiming();
    bool built = false;
    auto chain = cache.chain_for(input, depth, &built);
    benchmark::DoNotOptimize(chain);
    state.PauseTiming();
    builds += cache.stats().chain_builds();
    state.ResumeTiming();
  }
  state.counters["chain_builds"] =
      static_cast<double>(builds) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ColdStartTTFA)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

/// Warm: the store is populated ONCE; every iteration is a fresh cache
/// (a restarted process) whose first answer mmaps the stored tower.
void BM_WarmStartTTFA(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const topo::ChromaticComplex input = topo::base_simplex(2);
  static BenchDir dir;
  {
    svc::SdsCache::Options options;
    options.store.dir = dir.path;
    svc::SdsCache seeder(options);
    seeder.chain_for(input, depth);
  }
  std::uint64_t builds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    svc::SdsCache::Options options;
    options.store.dir = dir.path;
    options.store.readonly = true;
    svc::SdsCache cache(options);
    state.ResumeTiming();
    bool built = false;
    auto chain = cache.chain_for(input, depth, &built);
    benchmark::DoNotOptimize(chain);
    state.PauseTiming();
    builds += cache.stats().chain_builds();
    state.ResumeTiming();
  }
  state.counters["chain_builds"] =
      static_cast<double>(builds) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_WarmStartTTFA)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
