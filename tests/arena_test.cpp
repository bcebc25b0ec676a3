// topo::Arena -- the data-oriented SoA core behind the PR-9 solver and the
// persistent chain store.  Three contracts are pinned here:
//
//   1. Round-trip fidelity: Arena::build(K).materialize() reproduces K up
//      to canonical fingerprint (same vertices/colors/carriers/facets in
//      the same order), and view(bytes) over a materialized blob is
//      byte-identical to the builder's output.
//   2. Blob validation: view() rejects truncation, bad magic, version
//      skew, and corrupted CSR tables with std::invalid_argument instead
//      of serving out-of-bounds spans, and arena_search rejects a viewable
//      arena whose base carriers or colors do not fit the task.
//   3. Engine equivalence: the arena search explores the IDENTICAL tree as
//      the reference ChromaticComplex search (reference_search.hpp) --
//      same verdicts, same decision maps, same nodes_explored, level by
//      level, across the canonical task families.  (Same discipline as
//      chain_reuse_test: any divergence in the exact node count means the
//      arena engine changed the search, not just its memory layout.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "delta_check.hpp"
#include "reference_search.hpp"
#include "tasks/arena_search.hpp"
#include "tasks/canonical.hpp"
#include "tasks/delta_tables.hpp"
#include "tasks/resilience.hpp"
#include "tasks/solvability.hpp"
#include "topology/arena.hpp"
#include "topology/complex.hpp"
#include "topology/hash.hpp"
#include "topology/subdivision.hpp"

namespace wfc::topo {
namespace {

ChromaticComplex sds_tower(int procs, int depth) {
  ChromaticComplex k = base_simplex(procs);
  for (int r = 0; r < depth; ++r) k = standard_chromatic_subdivision(k);
  return k;
}

TEST(Arena, RoundTripPreservesFingerprint) {
  for (int procs = 1; procs <= 3; ++procs) {
    for (int depth = 0; depth <= 2; ++depth) {
      if (procs == 3 && depth > 1) continue;  // keep the suite fast
      SCOPED_TRACE("procs=" + std::to_string(procs) +
                   " depth=" + std::to_string(depth));
      const ChromaticComplex k = sds_tower(procs, depth);
      const Arena a = Arena::build(k);
      ASSERT_TRUE(a.valid());
      EXPECT_EQ(a.num_vertices(), k.num_vertices());
      EXPECT_EQ(a.num_facets(), k.facets().size());
      const ChromaticComplex back = a.materialize();
      EXPECT_EQ(complex_fingerprint(back), complex_fingerprint(k));
    }
  }
}

TEST(Arena, PerVertexDataMatchesComplex) {
  const ChromaticComplex k = sds_tower(2, 2);
  const Arena a = Arena::build(k);
  for (VertexId v = 0; v < k.num_vertices(); ++v) {
    const VertexData& data = k.vertex(v);
    EXPECT_EQ(a.colors()[v], static_cast<std::uint8_t>(data.color));
    EXPECT_EQ(a.carrier_masks()[v], data.carrier.mask());
    EXPECT_EQ(a.key(v), data.key);
    const auto bc = a.base_carrier(v);
    ASSERT_EQ(bc.size(), data.base_carrier.size());
    for (std::size_t i = 0; i < bc.size(); ++i) {
      EXPECT_EQ(bc[i], data.base_carrier[i]);
    }
  }
  ASSERT_EQ(a.num_facets(), k.facets().size());
  for (std::uint32_t f = 0; f < a.num_facets(); ++f) {
    const auto fa = a.facet(f);
    const Simplex& fk = k.facets()[f];
    ASSERT_EQ(fa.size(), fk.size());
    for (std::size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fk[i]);
  }
}

TEST(Arena, ViewOverMaterializedBlobIsIdentical) {
  const ChromaticComplex k = sds_tower(2, 1);
  const Arena a = Arena::build(k);
  const auto bytes = a.bytes();
  auto copy = std::make_shared<std::vector<std::byte>>(bytes.begin(),
                                                       bytes.end());
  const Arena v = Arena::view({copy->data(), copy->size()}, copy);
  ASSERT_TRUE(v.valid());
  EXPECT_EQ(v.num_vertices(), a.num_vertices());
  EXPECT_EQ(complex_fingerprint(v.materialize()), complex_fingerprint(k));
}

TEST(Arena, ViewRejectsMalformedBlobs) {
  const ChromaticComplex k = sds_tower(2, 1);
  const Arena a = Arena::build(k);
  const auto bytes = a.bytes();
  auto blob = std::make_shared<std::vector<std::byte>>(bytes.begin(),
                                                       bytes.end());

  // Truncation: every prefix strictly shorter than the blob must throw.
  for (std::size_t cut : {std::size_t{0}, std::size_t{8},
                          blob->size() / 2, blob->size() - 1}) {
    EXPECT_THROW(Arena::view({blob->data(), cut}, blob),
                 std::invalid_argument)
        << "cut=" << cut;
  }

  // Bad magic.
  {
    auto bad = std::make_shared<std::vector<std::byte>>(*blob);
    (*bad)[0] = std::byte{0xff};
    EXPECT_THROW(Arena::view({bad->data(), bad->size()}, bad),
                 std::invalid_argument);
  }
  // Version skew.
  {
    auto bad = std::make_shared<std::vector<std::byte>>(*blob);
    const std::uint32_t future = kArenaVersion + 1;
    std::memcpy(bad->data() + sizeof(std::uint32_t), &future,
                sizeof(future));
    EXPECT_THROW(Arena::view({bad->data(), bad->size()}, bad),
                 std::invalid_argument);
  }
  // Corrupted header counts (vertex count inflated past every table).
  {
    auto bad = std::make_shared<std::vector<std::byte>>(*blob);
    ArenaHeader h;
    std::memcpy(&h, bad->data(), sizeof(h));
    h.n_vertices *= 1000;
    std::memcpy(bad->data(), &h, sizeof(h));
    EXPECT_THROW(Arena::view({bad->data(), bad->size()}, bad),
                 std::invalid_argument);
  }
}

TEST(Arena, ViewRejectsCountsThatWrap) {
  // n + 1 index entries for a count of 0xffffffff: the bounds check must
  // not wrap to an empty index array and then walk 2^32 entries (found by
  // arena_fuzz_test).
  const Arena a = Arena::build(base_simplex(3));
  for (const auto field : {&ArenaHeader::n_facets, &ArenaHeader::n_faces}) {
    auto bad = std::make_shared<std::vector<std::byte>>(a.bytes().begin(),
                                                        a.bytes().end());
    ArenaHeader h;
    std::memcpy(&h, bad->data(), sizeof(h));
    h.*field = 0xffffffffu;
    std::memcpy(bad->data(), &h, sizeof(h));
    EXPECT_THROW(Arena::view({bad->data(), bad->size()}, bad),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace wfc::topo

namespace wfc::task {
namespace {

struct Case {
  std::shared_ptr<Task> task;
  int max_level;
};

std::vector<Case> canonical_cases() {
  std::vector<Case> cases;
  cases.push_back({std::make_shared<ConsensusTask>(2, 2), 2});
  cases.push_back({std::make_shared<KSetConsensusTask>(3, 2), 1});
  cases.push_back({std::make_shared<RenamingTask>(2, 2), 2});
  cases.push_back({std::make_shared<ApproxAgreementTask>(2, 3), 2});
  cases.push_back({std::make_shared<ApproxAgreementTask>(2, 9), 2});
  cases.push_back({std::make_shared<IdentityTask>(topo::base_simplex(3)), 1});
  return cases;
}

TEST(ArenaSearch, MatchesLegacyEngineExactly) {
  for (const Case& c : canonical_cases()) {
    SCOPED_TRACE(c.task->name());
    const reference::LevelComplex levels =
        reference::full_levels(*c.task, c.max_level);
    for (int level = 0; level <= c.max_level; ++level) {
      SCOPED_TRACE("level=" + std::to_string(level));
      const SolveResult a = solve_at_level(*c.task, level);
      const SolveResult l =
          reference::solve_at_level(*c.task, level, *levels(level));
      EXPECT_EQ(a.status, l.status);
      EXPECT_EQ(a.level, l.level);
      EXPECT_EQ(a.nodes_explored, l.nodes_explored)
          << "engines explored different trees";
      EXPECT_EQ(a.decision, l.decision);
    }
  }
}

TEST(ArenaSearch, MatchesLegacyUnderBudgetExhaustion) {
  // Budgets that cut searches off mid-tree (set-consensus at all three,
  // approx at 1 and 7, renaming and identity at 1) and, at 50, let the
  // cheap levels finish: the verdict, the exact node count at which the
  // budget triggers, and any decision found after it must agree.
  // (Consensus refutes every level at the root, with 0 nodes.)
  for (const Case& c : canonical_cases()) {
    SCOPED_TRACE(c.task->name());
    const reference::LevelComplex levels =
        reference::full_levels(*c.task, c.max_level);
    for (const std::uint64_t budget : {1ull, 7ull, 50ull}) {
      SCOPED_TRACE("budget=" + std::to_string(budget));
      SolveOptions opts;
      opts.node_budget = budget;
      const SolveResult a = solve(*c.task, c.max_level, opts);
      const SolveResult l =
          reference::solve(*c.task, c.max_level, levels, opts);
      EXPECT_EQ(a.status, l.status);
      EXPECT_EQ(a.level, l.level);
      EXPECT_EQ(a.nodes_explored, l.nodes_explored);
      EXPECT_EQ(a.decision, l.decision);
    }
  }
}

/// A one-vertex arena that Arena::view accepts: color `color` of
/// `n_colors`, base carrier `bc` (vertex ids of the task's input).
topo::Arena one_vertex_arena(std::uint8_t color, std::uint32_t n_colors,
                             const std::vector<topo::VertexId>& bc) {
  topo::ArenaShape shape;
  shape.n_colors = n_colors;
  shape.n_vertices = 1;
  shape.bc_pool = bc.size();
  topo::ArenaWriter w(shape);
  w.colors()[0] = color;
  w.bc_idx()[1] = static_cast<std::uint32_t>(bc.size());
  std::copy(bc.begin(), bc.end(), w.bc_pool().begin());
  return std::move(w).finish();
}

TEST(ArenaSearch, RejectsAnEmptyBaseCarrier) {
  // The empty carrier is no face of I; as vertex 0's it is also the first
  // lookup, which the searcher's one-entry carrier cache must not answer.
  const ConsensusTask consensus(2, 2);
  const topo::Arena arena = one_vertex_arena(0, 2, {});
  std::vector<topo::VertexId> decision;
  std::uint64_t nodes = 0;
  EXPECT_THROW((void)arena_search(consensus, arena, SolveOptions{}, decision,
                                  nodes),
               std::invalid_argument);
}

TEST(ArenaSearch, RejectsAColorOutsideTheOutput) {
  // view() bounds colors only by the u8 section; O has 2 colors.
  const ConsensusTask consensus(2, 2);
  const topo::Arena arena = one_vertex_arena(7, 8, {0});
  std::vector<topo::VertexId> decision;
  std::uint64_t nodes = 0;
  EXPECT_THROW((void)arena_search(consensus, arena, SolveOptions{}, decision,
                                  nodes),
               std::invalid_argument);
}

TEST(DeltaTables, AgreeWithAllowsOnEveryCanonicalAndModelTask) {
  // Every canonical task kind, the tasks the model suite and the cold
  // corpus restrict (consensus(2,2), set consensus (3,1) and (3,2),
  // approx(2,9)), simplex agreement on the handler's targets, and the
  // projected colorless tasks of the resilience layer.
  std::vector<std::shared_ptr<Task>> tasks = {
      std::make_shared<ConsensusTask>(2, 2),
      std::make_shared<ConsensusTask>(2, 3),
      std::make_shared<ConsensusTask>(3, 2),
      std::make_shared<KSetConsensusTask>(2, 1),
      std::make_shared<KSetConsensusTask>(3, 1),
      std::make_shared<KSetConsensusTask>(3, 2),
      std::make_shared<KSetConsensusTask>(3, 3),
      std::make_shared<RenamingTask>(2, 3),
      std::make_shared<RenamingTask>(3, 5),
      std::make_shared<ApproxAgreementTask>(2, 9),
      std::make_shared<ApproxAgreementTask>(3, 2),
      std::make_shared<IdentityTask>(topo::base_simplex(3)),
      std::make_shared<SimplexAgreementTask>(
          2, topo::iterated_sds(topo::base_simplex(2), 2)),
      std::make_shared<SimplexAgreementTask>(
          3, topo::iterated_sds(topo::base_simplex(3), 1)),
      std::make_shared<ProjectedColorlessTask>(colorless_consensus(2), 3),
      std::make_shared<ProjectedColorlessTask>(colorless_set_consensus(2, 3),
                                               3, true),
      std::make_shared<ProjectedColorlessTask>(colorless_approx_agreement(4),
                                               2),
  };
  for (const auto& t : tasks) {
    SCOPED_TRACE(t->name());
    EXPECT_GT(test::expect_delta_tables_match(*t), 0u);
  }
}

TEST(DeltaTables, CompiledOncePerTaskObject) {
  const ApproxAgreementTask approx(2, 9);
  const SolveOptions none;
  const DeltaTables* first = approx.delta_tables(none);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(approx.delta_tables(none), first);
  (void)solve(approx, 2);
  EXPECT_EQ(approx.delta_tables(none), first);
  // A copy is a fresh task with its own tables.
  const ApproxAgreementTask copy = approx;
  EXPECT_NE(copy.delta_tables(none), first);
}

}  // namespace
}  // namespace wfc::task
