// E3 -- the Proposition 3.1 decision procedure on the canonical tasks.
//
// Regenerates the solvability table: status (1 = solvable, 0 = unsolvable),
// witness level, and search nodes for consensus, (n+1, k)-set consensus,
// renaming, and simplex agreement, plus how the per-level refutation cost
// of consensus grows with b, and what a level's search set-up costs with
// and without a Delta compile.
#include <benchmark/benchmark.h>

#include <memory>

#include "protocol/sds_chain.hpp"
#include "tasks/canonical.hpp"
#include "tasks/delta_tables.hpp"
#include "tasks/solvability.hpp"
#include "tasks/two_proc.hpp"
#include "topology/structure.hpp"
#include "topology/subdivision.hpp"

namespace {

using namespace wfc;

void record(benchmark::State& state, const task::SolveResult& r) {
  state.counters["solvable"] =
      r.status == task::Solvability::kSolvable ? 1 : 0;
  state.counters["level"] = r.level;
  state.counters["nodes"] = static_cast<double>(r.nodes_explored);
}

void BM_Consensus(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int max_level = static_cast<int>(state.range(1));
  task::ConsensusTask t(procs, 2);
  task::SolveResult r;
  for (auto _ : state) {
    r = task::solve(t, max_level);
    benchmark::DoNotOptimize(r);
  }
  record(state, r);
}
BENCHMARK(BM_Consensus)
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({2, 3})
    ->Args({2, 4})
    ->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

void BM_SetConsensus(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int max_level = static_cast<int>(state.range(2));
  task::KSetConsensusTask t(procs, k);
  task::SolveResult r;
  for (auto _ : state) {
    r = task::solve(t, max_level);
    benchmark::DoNotOptimize(r);
  }
  record(state, r);
}
BENCHMARK(BM_SetConsensus)
    ->Args({2, 1, 3})
    ->Args({2, 2, 1})
    ->Args({3, 2, 1})
    ->Args({3, 3, 1})
    ->Unit(benchmark::kMillisecond);

void BM_Renaming(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int names = static_cast<int>(state.range(1));
  task::RenamingTask t(procs, names);
  task::SolveResult r;
  for (auto _ : state) {
    r = task::solve(t, 1);
    benchmark::DoNotOptimize(r);
  }
  record(state, r);
}
BENCHMARK(BM_Renaming)
    ->Args({2, 2})
    ->Args({2, 3})
    ->Args({3, 3})
    ->Args({3, 4})
    ->Unit(benchmark::kMillisecond);

void BM_SimplexAgreement(benchmark::State& state) {
  const int n_plus_1 = static_cast<int>(state.range(0));
  const int depth = static_cast<int>(state.range(1));
  topo::ChromaticComplex target =
      topo::iterated_sds(topo::base_simplex(n_plus_1), depth);
  task::SimplexAgreementTask t(n_plus_1, std::move(target));
  task::SolveResult r;
  for (auto _ : state) {
    r = task::solve(t, depth + 1);
    benchmark::DoNotOptimize(r);
  }
  record(state, r);
}
BENCHMARK(BM_SimplexAgreement)
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({2, 3})
    ->Args({3, 1})
    ->Unit(benchmark::kMillisecond);

// E11: the "level growth" series -- minimal IIS depth for approximate
// agreement as the grid refines.  Expected: b = ceil(log3 m); the measured
// `level` counter reproduces the staircase 1,1,2,2,...,3 and the time
// column shows the cost of deciding each rung.
void BM_ApproxAgreementLevel(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  int expected = 0;
  for (int reach = 1; reach < grid; reach *= 3) ++expected;
  task::ApproxAgreementTask t(2, grid);
  task::SolveResult r;
  for (auto _ : state) {
    r = task::solve(t, expected);
    benchmark::DoNotOptimize(r);
  }
  record(state, r);
  state.counters["grid"] = grid;
  state.counters["expected_level"] = expected;
}
BENCHMARK(BM_ApproxAgreementLevel)
    ->Arg(2)
    ->Arg(3)
    ->Arg(5)
    ->Arg(9)
    ->Arg(14)
    ->Arg(27)
    ->Arg(40)
    ->Arg(81)
    ->Unit(benchmark::kMillisecond);

// E12: the hole makes it unsolvable -- simplex agreement on SDS^2(s^2) vs
// the same target with one interior facet removed.
void BM_HoleAgreement(benchmark::State& state) {
  const bool punctured = state.range(0) != 0;
  topo::ChromaticComplex target =
      topo::iterated_sds(topo::base_simplex(3), 2);
  if (punctured) {
    for (std::size_t fi = 0; fi < target.num_facets(); ++fi) {
      bool interior = true;
      for (topo::VertexId v : target.facets()[fi]) {
        if (target.vertex(v).carrier != ColorSet::full(3)) interior = false;
      }
      if (interior) {
        target = topo::drop_facet(target, fi);
        break;
      }
    }
  }
  task::SimplexAgreementTask t(3, std::move(target));
  task::SolveResult r;
  for (auto _ : state) {
    r = task::solve(t, 2);
    benchmark::DoNotOptimize(r);
  }
  record(state, r);
  state.counters["punctured"] = punctured ? 1 : 0;
}
BENCHMARK(BM_HoleAgreement)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The 2-processor connectivity criterion vs the general subdivision search
// on the same instances: the special case wins by orders of magnitude while
// returning the identical minimal level (cross-checked in tests).
void BM_TwoProcCriterion(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  task::ApproxAgreementTask t(2, grid);
  task::TwoProcVerdict v;
  for (auto _ : state) {
    v = task::decide_two_processors(t);
    benchmark::DoNotOptimize(v);
  }
  state.counters["solvable"] = v.solvable ? 1 : 0;
  state.counters["level"] = v.level_lower_bound;
}
BENCHMARK(BM_TwoProcCriterion)
    ->Arg(3)
    ->Arg(9)
    ->Arg(27)
    ->Arg(81)
    ->Arg(243)
    ->Unit(benchmark::kMillisecond);

// Per-level search set-up: solve_at_level over a prebuilt tower with a
// FRESH task object per iteration (Delta compiled into tables every time,
// what a cold server pays once per interned task) against one reused task
// (tables compiled once per run).  Neither arm subdivides.  Counters: the
// search nodes and the task's Delta table bytes.
std::unique_ptr<task::Task> setup_task(int which) {
  switch (which) {
    case 0: return std::make_unique<task::ConsensusTask>(2, 2);
    case 1: return std::make_unique<task::ConsensusTask>(3, 2);
    case 2: return std::make_unique<task::KSetConsensusTask>(3, 2);
    case 3: return std::make_unique<task::RenamingTask>(3, 5);
    case 4: return std::make_unique<task::ApproxAgreementTask>(2, 9);
    case 5: return std::make_unique<task::IdentityTask>(topo::base_simplex(3));
    case 6:
      return std::make_unique<task::SimplexAgreementTask>(
          3, topo::iterated_sds(topo::base_simplex(3), 2));
    default: return std::make_unique<task::ConsensusTask>(2, 65);
  }
}

void search_setup(benchmark::State& state, bool fresh) {
  const int which = static_cast<int>(state.range(0));
  const int level = static_cast<int>(state.range(1));
  const std::unique_ptr<task::Task> shared = setup_task(which);
  const auto chain =
      std::make_shared<const proto::SdsChain>(shared->input(), level);
  task::SolveOptions opts;
  opts.chain_provider = [chain](const topo::ChromaticComplex&, int) {
    return chain;
  };
  task::SolveResult r;
  for (auto _ : state) {
    if (fresh) {
      state.PauseTiming();
      const std::unique_ptr<task::Task> t = setup_task(which);
      state.ResumeTiming();
      r = task::solve_at_level(*t, level, opts);
    } else {
      r = task::solve_at_level(*shared, level, opts);
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetLabel(shared->name());
  state.counters["nodes"] = static_cast<double>(r.nodes_explored);
  state.counters["delta_table_bytes"] = static_cast<double>(
      shared->delta_tables(opts)->table_bytes());
}
void BM_SearchSetupFreshTask(benchmark::State& state) {
  search_setup(state, true);
}
void BM_SearchSetupSharedTask(benchmark::State& state) {
  search_setup(state, false);
}
#define WFC_SETUP_ARGS                                                    \
  ->Args({0, 1})->Args({1, 1})->Args({2, 1})->Args({3, 0})->Args({4, 2}) \
      ->Args({5, 1})->Args({6, 2})->Args({7, 0})->Unit(benchmark::kMicrosecond)
BENCHMARK(BM_SearchSetupFreshTask) WFC_SETUP_ARGS;
BENCHMARK(BM_SearchSetupSharedTask) WFC_SETUP_ARGS;
#undef WFC_SETUP_ARGS

}  // namespace

BENCHMARK_MAIN();
