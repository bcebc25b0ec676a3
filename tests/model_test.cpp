// wfc::model -- model-parameterized solvability.
//
// The load-bearing suite here is the SEPARATIONS + CROSS-CHECK pair:
//   * known separations reproduce (consensus is FLP-unsolvable wait-free
//     but trivially solvable 0-resilient; the t-resilient and k-concurrency
//     set-consensus ladders land exactly where the literature puts them);
//   * on every instance the pruned-arena solver path and the live
//     chk::explore_iis oracle derive the SAME admissible subcomplex, so a
//     verdict never depends on which of the two derivations ran.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "model/oracle.hpp"
#include "model/restrict.hpp"
#include "model/solve.hpp"
#include "protocol/sds_chain.hpp"
#include "reference_search.hpp"
#include "tasks/canonical.hpp"
#include "tasks/solvability.hpp"
#include "topology/subdivision.hpp"

namespace wfc::model {
namespace {

using task::Solvability;

std::shared_ptr<const Model> M(const std::string& name) {
  return Model::parse(name);
}

Solvability verdict(const task::Task& t, int max_level,
                    const std::shared_ptr<const Model>& m) {
  return solve_in_model(t, max_level, m).status;
}

// ---------------------------------------------------------------- RunDesc

RunDesc make_run(int n_sys, ColorSet participants,
                 std::vector<RunRound> rounds) {
  RunDesc run;
  run.n_sys = n_sys;
  run.participants = participants;
  run.rounds = std::move(rounds);
  return run;
}

TEST(RunConcurrency, SequentialRunIsOne) {
  // [{a}, {b}, {c}]: fire in order, one active at a time.
  const RunDesc run =
      make_run(3, {0, 1, 2}, {RunRound{{{0}, {1}, {2}}, {}}});
  EXPECT_EQ(run_concurrency(run), 1);
}

TEST(RunConcurrency, CentralRunIsN) {
  const RunDesc run = make_run(3, {0, 1, 2}, {RunRound{{{0, 1, 2}}, {}}});
  EXPECT_EQ(run_concurrency(run), 3);
}

TEST(RunConcurrency, StaircaseIsTwo) {
  // [{ab}, {c}]: c only becomes active after a and b finished.
  const RunDesc run = make_run(3, {0, 1, 2}, {RunRound{{{0, 1}, {2}}, {}}});
  EXPECT_EQ(run_concurrency(run), 2);
}

TEST(RunConcurrency, TwoRoundOverlapForcedByRoundOrder) {
  // Round 0 [{a},{b}], round 1 [{b},{a}]: a's two events bracket both of
  // b's, so a stays active across b's interval -- concurrency 2.
  const RunDesc run = make_run(2, {0, 1},
                               {RunRound{{{0}, {1}}, {}},
                                RunRound{{{1}, {0}}, {}}});
  EXPECT_EQ(run_concurrency(run), 2);
}

TEST(RunConcurrency, TwoRoundSequentialStaysOne) {
  // Round 0 [{a},{b}], round 1 [{a},{b}] -- but a's round-1 step may run
  // before b's round-0 step?  No: block order within round 1 forces a
  // before b, and a's round 1 needs only a's round 0.  a can finish both
  // rounds before b starts: concurrency 1.
  const RunDesc run = make_run(2, {0, 1},
                               {RunRound{{{0}, {1}}, {}},
                                RunRound{{{0}, {1}}, {}}});
  EXPECT_EQ(run_concurrency(run), 1);
}

TEST(RunDescTest, SignatureDistinguishesCrashFromNonParticipation) {
  const RunDesc crashy = make_run(
      2, {0, 1}, {RunRound{{{0}, {1}}, {}}, RunRound{{{0}}, {1}}});
  const RunDesc solo = make_run(2, {0}, {RunRound{{{0}}, {}},
                                         RunRound{{{0}}, {}}});
  EXPECT_NE(crashy.signature(), solo.signature());
  EXPECT_EQ(crashy.survivors(), solo.survivors());
}

// ------------------------------------------------------------ Model::parse

TEST(ModelParse, RoundTripsCanonicalNames) {
  for (const std::string name :
       {"wait_free", "t_resilient(0)", "t_resilient(2)", "k_concurrency(1)",
        "k_obstruction_free(2)", "affine(2;t_resilient(0))"}) {
    EXPECT_EQ(M(name)->name(), name);
  }
}

TEST(ModelParse, RejectsGarbage) {
  for (const std::string name :
       {"", "waitfree", "t_resilient", "t_resilient(-1)", "k_concurrency(0)",
        "affine(0;wait_free)", "affine(2;nope)", "t_resilient(1ticks)"}) {
    EXPECT_THROW((void)Model::parse(name), std::invalid_argument) << name;
  }
}

TEST(ModelParse, TagIsZeroOnlyForWaitFree) {
  EXPECT_EQ(M("wait_free")->tag(), 0u);
  EXPECT_NE(M("t_resilient(1)")->tag(), 0u);
  EXPECT_NE(M("t_resilient(1)")->tag(), M("t_resilient(2)")->tag());
  EXPECT_EQ(mix_fingerprint(42, 0), 42u);
  EXPECT_NE(mix_fingerprint(42, M("t_resilient(1)")->tag()), 42u);
}

// ------------------------------------------------- arena path vs oracle

/// Every suite instance must agree between the two derivations.
void expect_cross_checked(const proto::SdsChain& chain, int level,
                          const std::shared_ptr<const Model>& m) {
  const Restriction res = restrict_level(chain, level, *m);
  std::string detail;
  EXPECT_TRUE(verify_restriction(chain, level, *m, res, &detail))
      << m->name() << " @ level " << level << ": " << detail;
}

TEST(CrossCheck, BaseSimplexAllModels) {
  const proto::SdsChain chain(topo::base_simplex(3), 2);
  for (const char* name :
       {"t_resilient(0)", "t_resilient(1)", "t_resilient(2)",
        "k_concurrency(1)", "k_concurrency(2)", "k_concurrency(3)",
        "k_obstruction_free(1)", "k_obstruction_free(2)",
        "affine(1;t_resilient(0))", "affine(2;k_concurrency(2))"}) {
    for (int level = 0; level <= 2; ++level) {
      expect_cross_checked(chain, level, M(name));
    }
  }
}

TEST(CrossCheck, MultiVertexInputComplex) {
  // Consensus inputs: several vertices per color, several base facets.
  const task::ConsensusTask task(2, 2);
  const proto::SdsChain chain(task.input(), 2);
  for (const char* name :
       {"t_resilient(0)", "t_resilient(1)", "k_concurrency(1)",
        "k_obstruction_free(1)"}) {
    for (int level = 0; level <= 2; ++level) {
      expect_cross_checked(chain, level, M(name));
    }
  }
}

TEST(RestrictLevel, WaitFreeKeepsEveryFacet) {
  const proto::SdsChain chain(topo::base_simplex(3), 1);
  const Restriction res = restrict_level(chain, 1, *M("wait_free"));
  EXPECT_EQ(res.arena.num_facets(), chain.arena(1).num_facets());
  EXPECT_EQ(res.facets_dropped, 0u);
  EXPECT_EQ(res.runs_rejected, 0u);
  EXPECT_GT(res.runs_admitted, 0u);
}

TEST(RestrictLevel, ZeroResilientKeepsOnlyCentralRuns) {
  // t_resilient(0) at level 1: the only admissible run per base facet is
  // the central one-block run, so exactly one facet per base facet stays.
  const proto::SdsChain chain(topo::base_simplex(3), 1);
  const Restriction res = restrict_level(chain, 1, *M("t_resilient(0)"));
  EXPECT_EQ(res.arena.num_facets(), 1u);
  EXPECT_EQ(res.runs_admitted, 1u);
}

TEST(RestrictLevel, AffineRejectsOffWindowLevels) {
  const proto::SdsChain chain(topo::base_simplex(2), 1);
  const Restriction res =
      restrict_level(chain, 1, *M("affine(2;t_resilient(0))"));
  EXPECT_TRUE(res.empty());
  EXPECT_EQ(res.runs_admitted, 0u);
}

TEST(AffineWindows, ExplicitWindowSetMatchesPredicate) {
  // affine(1; t_resilient(0)) rebuilt from its own level-1 affine task's
  // window signatures must carve identical subcomplexes at level 2.
  const proto::SdsChain chain(topo::base_simplex(3), 2);
  const auto inner = M("t_resilient(0)");
  const Restriction task_level = restrict_level(chain, 1, *inner);
  const auto windows = affine_task_windows(chain, 1, task_level.arena);
  EXPECT_FALSE(windows.empty());
  const auto predicate = Model::affine(1, inner);
  const auto explicit_model =
      Model::affine_from_windows("affine_explicit", 1, windows);

  for (int level = 0; level <= 2; ++level) {
    const Restriction a = restrict_level(chain, level, *predicate);
    const Restriction b = restrict_level(chain, level, *explicit_model);
    std::set<topo::Simplex> fa, fb;
    for (std::uint32_t f = 0; f < a.arena.num_facets(); ++f) {
      topo::Simplex s;
      for (topo::VertexId v : a.arena.facet(f)) s.push_back(a.to_base[v]);
      fa.insert(topo::make_simplex(std::move(s)));
    }
    for (std::uint32_t f = 0; f < b.arena.num_facets(); ++f) {
      topo::Simplex s;
      for (topo::VertexId v : b.arena.facet(f)) s.push_back(b.to_base[v]);
      fb.insert(topo::make_simplex(std::move(s)));
    }
    EXPECT_EQ(fa, fb) << "level " << level;
    expect_cross_checked(chain, level, explicit_model);
  }
}

// ------------------------------------------------------------- separations

TEST(Separations, WaitFreeMatchesUnrestrictedBitForBit) {
  const task::ConsensusTask consensus(2, 2);
  const task::KSetConsensusTask kset(3, 2);
  // kset stops at level 1: its level-2 wait-free search exhausts the node
  // budget (tens of seconds) without changing what this test pins down.
  const std::vector<std::pair<const task::Task*, int>> cases = {
      {&consensus, 2}, {&kset, 1}};
  for (const auto& [t, max_level] : cases) {
    const task::SolveResult plain = task::solve(*t, max_level);
    const task::SolveResult modeled =
        solve_in_model(*t, max_level, M("wait_free"));
    EXPECT_EQ(plain.status, modeled.status) << t->name();
    EXPECT_EQ(plain.level, modeled.level) << t->name();
    EXPECT_EQ(plain.nodes_explored, modeled.nodes_explored) << t->name();
    EXPECT_EQ(plain.decision, modeled.decision) << t->name();
  }
}

TEST(Separations, ConsensusWaitFreeVsZeroResilient) {
  // The paper's motivating separation: FLP kills wait-free consensus at
  // every level, but with no failures (synchronous runs only) one closing
  // round decides.
  const task::ConsensusTask consensus(2, 2);
  EXPECT_EQ(verdict(consensus, 2, M("wait_free")), Solvability::kUnsolvable);
  const task::SolveResult r = solve_in_model(consensus, 2, M("t_resilient(0)"));
  EXPECT_EQ(r.status, Solvability::kSolvable);
  EXPECT_EQ(r.level, 1);
  EXPECT_EQ(r.chain, nullptr);  // restricted decisions index the pruned level
}

TEST(Separations, TResilientLadder) {
  // The t-resilient k-set ladder, as visible through the per-round fairness
  // rendition IS_{n,t}.  Sperner kills wait-free 2-set consensus for 3
  // processors already at the first subdivision (level 2 only burns the node
  // budget without changing the verdict), one tolerated failure is enough
  // slack to decide 2 values, and with no failures at all (synchronous runs)
  // even consensus closes in one round.
  const task::KSetConsensusTask kset32(3, 2);
  const task::KSetConsensusTask kset31(3, 1);
  EXPECT_EQ(verdict(kset32, 1, M("wait_free")), Solvability::kUnsolvable);
  EXPECT_EQ(verdict(kset32, 2, M("t_resilient(1)")), Solvability::kSolvable);
  EXPECT_EQ(verdict(kset31, 2, M("t_resilient(0)")), Solvability::kSolvable);
}

TEST(Separations, PerRoundFairnessIsStrongerThanTrueResilience) {
  // A subtlety worth pinning as a regression test: IS_{n,t} (every round's
  // first block has >= n-t processors) is a STRICT sub-model of genuine
  // t-resilience for 0 < t < n-1.  Write-then-wait-for-(n-t) snapshots are
  // nested as sets but not immediate -- p in view(q) does not force
  // view(p) subseteq view(q) -- so an asynchronous t-resilient system
  // cannot implement one IS_{n,t} round per round.  The gap is visible in
  // the complex: a size->=2 round-1 view pins its members' round-0 views,
  // so after one fair round the round-0 schedule is common knowledge, the
  // level-2 admissible subcomplex disconnects per round-0 schedule, and
  // consensus becomes solvable per component -- which genuine 1-resilience
  // famously forbids (FLP).  At level 1 the fair subcomplex is still
  // connected through the central vertices and consensus stays unsolvable.
  // The faithful t-resilient model is an affine task over multi-round
  // windows; express it via Model::affine_from_windows.
  const task::KSetConsensusTask kset31(3, 1);
  EXPECT_EQ(verdict(kset31, 1, M("t_resilient(1)")),
            Solvability::kUnsolvable);
  const task::SolveResult two = solve_in_model(kset31, 2, M("t_resilient(1)"));
  EXPECT_EQ(two.status, Solvability::kSolvable);
  EXPECT_EQ(two.level, 2);
}

TEST(Separations, KConcurrencyLadder) {
  // k-set consensus is exactly as strong as k-concurrency [GHKR]: j-set
  // consensus is solvable under k_concurrency(k) iff j >= k.
  const task::KSetConsensusTask kset32(3, 2);
  const task::KSetConsensusTask kset31(3, 1);
  EXPECT_EQ(verdict(kset32, 2, M("k_concurrency(2)")),
            Solvability::kSolvable);
  EXPECT_EQ(verdict(kset31, 2, M("k_concurrency(2)")),
            Solvability::kUnsolvable);
  EXPECT_EQ(verdict(kset31, 2, M("k_concurrency(1)")),
            Solvability::kSolvable);
  // n-concurrency admits every run: same verdict as wait-free (level 1,
  // where the Sperner refutation is exhaustive and cheap).
  EXPECT_EQ(verdict(kset32, 1, M("k_concurrency(3)")),
            Solvability::kUnsolvable);
}

TEST(Separations, EnginesAgreeOnRestrictedSearch) {
  // The reference search runs over the pruned complex restrict_level
  // derives, the arena engine over its arena.
  const task::ConsensusTask consensus(2, 2);
  const proto::SdsChain chain(consensus.input(), 2);
  for (const char* name : {"t_resilient(0)", "k_concurrency(1)"}) {
    const auto model = M(name);
    const task::SolveResult arena = solve_in_model(consensus, 2, model);
    const task::SolveResult ref = task::reference::solve(
        consensus, 2, [&](int level) {
          return restrict_level(chain, level, *model).complex;
        });
    EXPECT_EQ(arena.status, ref.status) << name;
    EXPECT_EQ(arena.level, ref.level) << name;
    EXPECT_EQ(arena.nodes_explored, ref.nodes_explored) << name;
    EXPECT_EQ(arena.decision, ref.decision) << name;
  }
}

TEST(Separations, ObstructionFreeContainsConcurrency) {
  // Every k-concurrent run has a k-concurrent suffix, so k-OF admits at
  // least as much as k-concurrency: solvable under k-OF(k) implies nothing,
  // but UNSOLVABLE under k-OF(k) implies unsolvable under k_concurrency(k).
  const proto::SdsChain chain(topo::base_simplex(3), 2);
  for (int level = 0; level <= 2; ++level) {
    const Restriction conc = restrict_level(chain, level, *M("k_concurrency(2)"));
    const Restriction of = restrict_level(chain, level,
                                          *M("k_obstruction_free(2)"));
    EXPECT_GE(of.runs_admitted, conc.runs_admitted) << "level " << level;
  }
}

// ------------------------------------------------------- run_filter adapter

TEST(RunFilterAdapter, WaitFreeIsNoFilter) {
  EXPECT_FALSE(run_filter(nullptr, 3));
  EXPECT_FALSE(run_filter(M("wait_free"), 3));
}

TEST(RunFilterAdapter, MatchesModelOnExploredExecutions) {
  // Filtered exploration counts only the runs the model admits -- and that
  // count must equal the oracle's distinct admitted signatures, modulo the
  // explorer emitting equal-signature executions once each here (crash-free
  // plus every crash placement; n=2 keeps them all distinct).
  const auto m = M("t_resilient(0)");
  const auto filter = run_filter(m, 2);
  ASSERT_TRUE(static_cast<bool>(filter));
  chk::ExploreOptions opt;
  opt.n_procs = 2;
  opt.rounds = 2;
  opt.max_crashes = 2;
  std::uint64_t admitted = 0;
  chk::explore_iis<int>(
      opt, [](int p) { return p; },
      [](int, int, const rt::IisSnapshot<int>& snap) {
        return rt::Step<int>::cont(static_cast<int>(snap.size()));
      },
      [&](const chk::Execution<int>& exec) {
        if (filter(exec.schedule, exec.crashes)) ++admitted;
      });
  // t_resilient(0) over 2 procs, 2 rounds: only the central-central run.
  EXPECT_EQ(admitted, 1u);
}

}  // namespace
}  // namespace wfc::model
