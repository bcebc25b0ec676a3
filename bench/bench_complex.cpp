// E1 / E2 / E10 -- Lemmas 3.2 & 3.3 and the growth of the iterated
// standard chromatic subdivision.
//
// Regenerates, as benchmark counters:
//   * facet/vertex counts of SDS^b(s^n)   (the "table" of complex sizes);
//   * construction time of SDS^b;
//   * time to verify the protocol-complex <-> SDS isomorphism from live
//     execution enumeration (the machine-checked lemma).
#include <benchmark/benchmark.h>

#include "protocol/protocol_complex.hpp"
#include "reference_subdivision.hpp"
#include "tasks/canonical.hpp"
#include "topology/arena.hpp"
#include "topology/subdivision.hpp"

namespace {

using namespace wfc;

void BM_SdsConstruction(benchmark::State& state) {
  const int n_plus_1 = static_cast<int>(state.range(0));
  const int b = static_cast<int>(state.range(1));
  topo::ChromaticComplex base = topo::base_simplex(n_plus_1);
  std::size_t facets = 0, vertices = 0;
  for (auto _ : state) {
    topo::ChromaticComplex sds = topo::iterated_sds(base, b);
    facets = sds.num_facets();
    vertices = sds.num_vertices();
    benchmark::DoNotOptimize(sds);
  }
  state.counters["facets"] = static_cast<double>(facets);
  state.counters["vertices"] = static_cast<double>(vertices);
}
BENCHMARK(BM_SdsConstruction)
    ->ArgsProduct({{2, 3, 4}, {1, 2}})
    ->Args({2, 3})
    ->Args({2, 4})
    ->Args({3, 3})
    ->Unit(benchmark::kMillisecond);

void BM_BsdConstruction(benchmark::State& state) {
  const int n_plus_1 = static_cast<int>(state.range(0));
  const int b = static_cast<int>(state.range(1));
  topo::ChromaticComplex base = topo::base_simplex(n_plus_1);
  std::size_t facets = 0;
  for (auto _ : state) {
    topo::ChromaticComplex bsd = topo::iterated_bsd(base, b);
    facets = bsd.num_facets();
    benchmark::DoNotOptimize(bsd);
  }
  state.counters["facets"] = static_cast<double>(facets);
}
BENCHMARK(BM_BsdConstruction)
    ->ArgsProduct({{2, 3}, {1, 2, 3, 4}})
    ->Unit(benchmark::kMillisecond);

// Lemma 3.2/3.3: protocol complex from execution enumeration == SDS^b.
void BM_Lemma33Verification(benchmark::State& state) {
  const int n_plus_1 = static_cast<int>(state.range(0));
  const int b = static_cast<int>(state.range(1));
  topo::ChromaticComplex base = topo::base_simplex(n_plus_1);
  bool ok = false;
  std::size_t facets = 0;
  for (auto _ : state) {
    proto::IsomorphismReport rep = proto::verify_iis_complex_is_sds(base, b);
    ok = rep.ok();
    facets = rep.sds_facets;
    benchmark::DoNotOptimize(rep);
  }
  state.counters["isomorphic"] = ok ? 1 : 0;
  state.counters["facets"] = static_cast<double>(facets);
}
BENCHMARK(BM_Lemma33Verification)
    ->Args({2, 1})
    ->Args({2, 2})
    ->Args({2, 3})
    ->Args({3, 1})
    ->Args({3, 2})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

// One-shot atomic-snapshot protocol complex vs SDS: the snapshot model
// admits strictly more one-round executions (non-immediate snapshots), the
// §3.4 containment.
void BM_SnapshotComplexVsSds(benchmark::State& state) {
  const int n_plus_1 = static_cast<int>(state.range(0));
  std::size_t snap_facets = 0, sds_facets = 0;
  for (auto _ : state) {
    topo::ChromaticComplex snap =
        proto::build_snapshot_protocol_complex(n_plus_1, 1);
    snap_facets = snap.num_facets();
    sds_facets = topo::standard_chromatic_subdivision(
                     topo::base_simplex(n_plus_1))
                     .num_facets();
    benchmark::DoNotOptimize(snap);
  }
  state.counters["snapshot_facets"] = static_cast<double>(snap_facets);
  state.counters["sds_facets"] = static_cast<double>(sds_facets);
}
BENCHMARK(BM_SnapshotComplexVsSds)->Arg(2)->Arg(3)->Unit(benchmark::kMillisecond);

// One SDS level two ways, from the same level below: the complex-based
// construction kept as the test reference (tests/reference_subdivision.cpp)
// plus Arena::build, against topo::subdivide arena to arena.  Both
// write the same bytes (tests/subdivision_test.cpp).  Inputs are cold-
// corpus input complexes; the second argument is the level subdivided.
topo::ChromaticComplex sds_input(int which) {
  switch (which) {
    case 0: return task::ConsensusTask(2, 2).input();
    case 1: return task::ConsensusTask(2, 3).input();
    case 2: return task::ConsensusTask(3, 2).input();
    case 3: return task::KSetConsensusTask(3, 2).input();
    case 4: return task::ApproxAgreementTask(2, 27).input();
    default: return topo::base_simplex(3);  // with coordinates
  }
}

topo::Arena level_below(int which, int level) {
  topo::Arena a = topo::Arena::build(sds_input(which));
  for (int r = 0; r < level; ++r) a = topo::subdivide(a);
  return a;
}

void BM_SdsLevelComplexThenBuild(benchmark::State& state) {
  const topo::ChromaticComplex below =
      level_below(static_cast<int>(state.range(0)),
                  static_cast<int>(state.range(1)))
          .materialize();
  std::uint32_t facets = 0;
  for (auto _ : state) {
    const topo::Arena next = topo::Arena::build(
        reference::standard_chromatic_subdivision(below));
    facets = next.num_facets();
    benchmark::DoNotOptimize(next);
  }
  state.counters["facets"] = facets;
}
void BM_SdsLevelSubdivide(benchmark::State& state) {
  const topo::Arena below = level_below(static_cast<int>(state.range(0)),
                                        static_cast<int>(state.range(1)));
  std::uint32_t facets = 0;
  for (auto _ : state) {
    const topo::Arena next = topo::subdivide(below);
    facets = next.num_facets();
    benchmark::DoNotOptimize(next);
  }
  state.counters["facets"] = facets;
}
BENCHMARK(BM_SdsLevelComplexThenBuild)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SdsLevelSubdivide)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
