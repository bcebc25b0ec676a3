// E27 -- model-parameterized solvability (wfc::model).
//
// Three questions, three benchmark families:
//
//   1. Restriction overhead: solve_in_model under wait_free must cost what
//      task::solve costs (the restrictor seam is a null function), and a
//      real model's per-level pruning must stay a small multiple of the
//      unrestricted solve on the canonical instances -- the admissible
//      subcomplex is SMALLER, so the search itself often wins back the
//      prune cost (counter nodes shows it).
//   2. Derived-tower amortization: the service keys restricted towers in
//      SdsCache by mixed fingerprint, so only the FIRST query of a
//      (task, model) pair prunes; repeats are pure hits.  Cold builds vs
//      warm hits per second (counter derived_builds must be 0 when warm).
//   3. Run-filter cost in the checker: explore_iis with a model run_filter
//      against the unfiltered sweep -- executions/sec plus how many runs
//      the model rejected (counter filtered).
//
// CI captures the JSON as BENCH_model.json via --benchmark_out
// (model-conformance job).
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "check/explorer.hpp"
#include "model/model.hpp"
#include "model/oracle.hpp"
#include "model/restrict.hpp"
#include "model/solve.hpp"
#include "service/sds_cache.hpp"
#include "tasks/canonical.hpp"
#include "tasks/solvability.hpp"
#include "topology/complex.hpp"
#include "topology/hash.hpp"

namespace {

using namespace wfc;

// ---------------------------------------------------------------------------
// Family 1: restricted solve vs the unrestricted baseline.

void run_solve(benchmark::State& state, task::Task& t, int max_level,
               std::shared_ptr<const model::Model> m) {
  std::uint64_t nodes = 0;
  task::SolveResult r;
  for (auto _ : state) {
    r = model::solve_in_model(t, max_level, m);
    benchmark::DoNotOptimize(r);
    nodes += r.nodes_explored;
  }
  state.counters["nodes"] = static_cast<double>(r.nodes_explored);
  state.counters["nodes_per_s"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.counters["solvable"] =
      r.status == task::Solvability::kSolvable ? 1 : 0;
}

void BM_Consensus22_WaitFree(benchmark::State& state) {
  task::ConsensusTask t(2, 2);
  run_solve(state, t, static_cast<int>(state.range(0)),
            model::Model::parse("wait_free"));
}
BENCHMARK(BM_Consensus22_WaitFree)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);

void BM_Consensus22_Synchronous(benchmark::State& state) {
  task::ConsensusTask t(2, 2);
  run_solve(state, t, static_cast<int>(state.range(0)),
            model::Model::parse("t_resilient(0)"));
}
BENCHMARK(BM_Consensus22_Synchronous)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);

void BM_SetConsensus32_WaitFree(benchmark::State& state) {
  task::KSetConsensusTask t(3, 2);
  run_solve(state, t, 1, model::Model::parse("wait_free"));
}
BENCHMARK(BM_SetConsensus32_WaitFree)->Unit(benchmark::kMillisecond);

void BM_SetConsensus32_1Resilient(benchmark::State& state) {
  task::KSetConsensusTask t(3, 2);
  run_solve(state, t, 1, model::Model::parse("t_resilient(1)"));
}
BENCHMARK(BM_SetConsensus32_1Resilient)->Unit(benchmark::kMillisecond);

void BM_SetConsensus32_2ObstructionFree(benchmark::State& state) {
  task::KSetConsensusTask t(3, 2);
  run_solve(state, t, 1, model::Model::parse("k_obstruction_free(2)"));
}
BENCHMARK(BM_SetConsensus32_2ObstructionFree)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Family 2: derived-tower build vs cache hit.

struct BenchDir {
  BenchDir() {
    char tmpl[] = "/tmp/wfc_bench_model_XXXXXX";
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

/// Cold: each iteration prunes the depth-`range(0)` restricted tower from
/// scratch through a fresh cache (first query of a (task, model) pair).
void BM_DerivedTowerCold(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const topo::ChromaticComplex input = topo::base_simplex(3);
  const auto m = model::Model::parse("t_resilient(1)");
  const std::uint64_t key = model::mix_fingerprint(
      topo::complex_fingerprint(input), m->tag());
  std::uint64_t builds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    svc::SdsCache cache;
    const auto full = cache.chain_for(input, depth);
    state.ResumeTiming();
    bool built = false;
    auto derived = cache.acquire(
        key, m->tag(), depth,
        [&](std::shared_ptr<const proto::SdsChain> prior, int d) {
          return model::restricted_tower(*full, d, *m, prior);
        },
        &built);
    benchmark::DoNotOptimize(derived);
    if (built) ++builds;
  }
  state.counters["derived_builds"] =
      static_cast<double>(builds) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_DerivedTowerCold)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

/// Warm: one cache, tower pruned once before timing; iterations are the
/// steady-state hit path every repeat (task, model) query takes.
void BM_DerivedTowerWarm(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const topo::ChromaticComplex input = topo::base_simplex(3);
  const auto m = model::Model::parse("t_resilient(1)");
  const std::uint64_t key = model::mix_fingerprint(
      topo::complex_fingerprint(input), m->tag());
  svc::SdsCache cache;
  const auto full = cache.chain_for(input, depth);
  const auto builder = [&](std::shared_ptr<const proto::SdsChain> prior,
                           int d) {
    return model::restricted_tower(*full, d, *m, prior);
  };
  bool built = false;
  cache.acquire(key, m->tag(), depth, builder, &built);
  std::uint64_t builds = 0;
  for (auto _ : state) {
    bool hit_built = false;
    auto derived = cache.acquire(key, m->tag(), depth, builder, &hit_built);
    benchmark::DoNotOptimize(derived);
    if (hit_built) ++builds;
  }
  state.counters["derived_builds"] =
      static_cast<double>(builds) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_DerivedTowerWarm)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Family 3: model run_filter in the checker sweep.

void run_explore(benchmark::State& state, int n, int rounds,
                 std::shared_ptr<const model::Model> m) {
  chk::ExploreOptions opt;
  opt.n_procs = n;
  opt.rounds = rounds;
  if (m != nullptr) opt.run_filter = model::run_filter(m, n);
  std::uint64_t executions = 0;
  chk::ExploreStats stats;
  for (auto _ : state) {
    stats = chk::explore_iis<int>(
        opt, [](int p) { return p; },
        [](int, int, const rt::IisSnapshot<int>& snap) {
          return rt::Step<int>::cont(static_cast<int>(snap.size()));
        },
        [](const chk::Execution<int>&) {});
    benchmark::DoNotOptimize(stats);
    executions += stats.executions;
  }
  state.counters["executions"] = static_cast<double>(stats.executions);
  state.counters["filtered"] = static_cast<double>(stats.filtered);
  state.counters["executions_per_s"] = benchmark::Counter(
      static_cast<double>(executions), benchmark::Counter::kIsRate);
}

void BM_Explore32_Unfiltered(benchmark::State& state) {
  run_explore(state, 3, 2, nullptr);
}
BENCHMARK(BM_Explore32_Unfiltered)->Unit(benchmark::kMillisecond);

void BM_Explore32_1Resilient(benchmark::State& state) {
  run_explore(state, 3, 2, model::Model::parse("t_resilient(1)"));
}
BENCHMARK(BM_Explore32_1Resilient)->Unit(benchmark::kMillisecond);

void BM_Explore32_Synchronous(benchmark::State& state) {
  run_explore(state, 3, 2, model::Model::parse("t_resilient(0)"));
}
BENCHMARK(BM_Explore32_Synchronous)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
