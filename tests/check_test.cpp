// Tests for wfc::chk: the schedule explorer with crash injection, the
// SDS-membership and Delta exhaustive checks (bounded proofs of Lemmas
// 3.2/3.3 and Proposition 3.1's operational half), the step-interleaving
// driver over the register implementations, the Wing-Gong linearizability
// checker, and the §4 emulation conformance sweep.
//
// Two deliberately broken register doubles live here: a single-collect
// "snapshot" that drops concurrent writes and an immediate snapshot whose
// exit rule is off by one level.  The checkers must reject both while
// accepting the real implementations.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "check/conformance.hpp"
#include "check/explorer.hpp"
#include "check/lin_check.hpp"
#include "check/sds_check.hpp"
#include "check/step_driver.hpp"
#include "registers/atomic_snapshot.hpp"
#include "registers/immediate_snapshot.hpp"
#include "common/step_point.hpp"
#include "registers/swmr_register.hpp"
#include "runtime/adversary.hpp"
#include "tasks/canonical.hpp"
#include "tasks/solvability.hpp"
#include "topology/complex.hpp"
#include "topology/subdivision.hpp"

namespace wfc::chk {
namespace {

// ---------------------------------------------------------------------------
// Explorer: execution counts against the Fubini arithmetic.
// ---------------------------------------------------------------------------

/// A protocol that never halts: every execution runs the full depth.
ExploreStats explore_counting(ExploreOptions opt) {
  return explore_iis<int>(
      opt, [](int p) { return p; },
      [](int, int, const rt::IisSnapshot<int>& snap) {
        return rt::Step<int>::cont(static_cast<int>(snap.size()));
      },
      [](const Execution<int>&) {});
}

TEST(Explorer, CrashFreeCountsAreFubiniPowers) {
  // Fubini(2) = 3, Fubini(3) = 13, Fubini(4) = 75; b rounds multiply.
  EXPECT_EQ(explore_counting({.n_procs = 2, .rounds = 1}).executions, 3u);
  EXPECT_EQ(explore_counting({.n_procs = 2, .rounds = 2}).executions, 9u);
  EXPECT_EQ(explore_counting({.n_procs = 3, .rounds = 1}).executions, 13u);
  EXPECT_EQ(explore_counting({.n_procs = 3, .rounds = 2}).executions, 169u);
  EXPECT_EQ(explore_counting({.n_procs = 4, .rounds = 1}).executions, 75u);
}

TEST(Explorer, CrashInjectionAddsFaultyExecutions) {
  // n = 2, b = 1, t = 1: 3 crash-free + (crash {0}) + (crash {1}) = 5.
  const ExploreStats one =
      explore_counting({.n_procs = 2, .rounds = 1, .max_crashes = 1});
  EXPECT_EQ(one.executions, 5u);
  EXPECT_EQ(one.crashy_executions, 2u);
  // n = 2, b = 2, t = 1: 9 crash-free + 8 crashy.
  const ExploreStats two =
      explore_counting({.n_procs = 2, .rounds = 2, .max_crashes = 1});
  EXPECT_EQ(two.executions, 17u);
  EXPECT_EQ(two.crashy_executions, 8u);
}

TEST(Explorer, CrashedProcessorsTakeNoFurtherSteps) {
  ExploreOptions opt{.n_procs = 2, .rounds = 2, .max_crashes = 2};
  explore_iis<int>(
      opt, [](int p) { return p; },
      [](int, int, const rt::IisSnapshot<int>& snap) {
        return rt::Step<int>::cont(static_cast<int>(snap.size()));
      },
      [](const Execution<int>& ex) {
        for (Color p : ex.crashed) {
          int crash_round = -1;
          for (std::size_t r = 0; r < ex.crashes.size(); ++r) {
            if (ex.crashes[r].contains(p)) {
              crash_round = static_cast<int>(r);
            }
          }
          ASSERT_GE(crash_round, 0);
          EXPECT_EQ(ex.rounds_taken[static_cast<std::size_t>(p)], crash_round);
        }
      });
}

TEST(Explorer, SymmetryReductionKeepsOneExecutionPerOrbit) {
  // Ordered partitions of 3 processors fall into 4 shape orbits under S_3:
  // (3), (1,2), (2,1), (1,1,1).
  const ExploreStats stats = explore_counting(
      {.n_procs = 3, .rounds = 1, .symmetry_reduction = true});
  EXPECT_EQ(stats.executions, 4u);
  EXPECT_GT(stats.symmetry_pruned, 0u);
}

TEST(Explorer, SymmetryReductionComposesWithCrashInjection) {
  // Crash sets join the round signature the orbit minimization acts on, so
  // symmetric crashy branches are cut too.  Full n=3 b=1 t=1 sweep: 13
  // crash-free + 3 * (crash one of {0,1,2}) x Fubini(2) = 13 + 9 = 22.
  const ExploreStats full = explore_counting(
      {.n_procs = 3, .rounds = 1, .max_crashes = 1});
  EXPECT_EQ(full.executions, 22u);
  const ExploreStats reduced = explore_counting(
      {.n_procs = 3, .rounds = 1, .max_crashes = 1,
       .symmetry_reduction = true});
  EXPECT_LT(reduced.executions, full.executions);
  EXPECT_GT(reduced.symmetry_pruned, 0u);
  // Crashy orbits survive the reduction (one representative each).
  EXPECT_GT(reduced.crashy_executions, 0u);
  EXPECT_LT(reduced.crashy_executions, full.crashy_executions);
}

TEST(Explorer, TruncationAndCancellation) {
  const ExploreStats capped =
      explore_counting({.n_procs = 3, .rounds = 1, .max_executions = 5});
  EXPECT_TRUE(capped.truncated);
  EXPECT_EQ(capped.executions, 5u);

  std::atomic<bool> cancel{true};
  ExploreOptions opt{.n_procs = 3, .rounds = 1};
  opt.cancel = &cancel;
  const ExploreStats cancelled = explore_counting(opt);
  EXPECT_TRUE(cancelled.truncated);
  EXPECT_EQ(cancelled.executions, 0u);
}

// ---------------------------------------------------------------------------
// CrashAdversary and run_iis_crashing.
// ---------------------------------------------------------------------------

TEST(CrashAdversary, SilencesPlannedProcessors) {
  rt::SynchronousAdversary base;
  CrashAdversary adv(base, {{0, 1}});
  EXPECT_EQ(adv.crashes_at(0), ColorSet{1});
  EXPECT_TRUE(adv.crashes_at(1).empty());
  EXPECT_EQ(adv.crashed_by(3), ColorSet{1});

  std::map<int, int> final_view;
  const CrashRunStats stats = run_iis_crashing<int>(
      3, adv, 8, [](int p) { return p; },
      [&](int p, int round, const rt::IisSnapshot<int>& snap) {
        final_view[p] = static_cast<int>(snap.size());
        return round == 0 ? rt::Step<int>::cont(p)
                          : rt::Step<int>::halt();
      });
  EXPECT_EQ(stats.crashed, ColorSet{1});
  EXPECT_EQ(stats.iis.rounds_taken[1], 0);
  EXPECT_EQ(stats.iis.rounds_taken[0], 2);
  // Survivors only ever see each other.
  EXPECT_EQ(final_view[0], 2);
  EXPECT_EQ(final_view[2], 2);
  EXPECT_EQ(final_view.count(1), 0u);
}

TEST(CrashAdversary, RejectsMalformedPlans) {
  rt::SynchronousAdversary base;
  EXPECT_THROW(CrashAdversary(base, {{-1, 0}}), std::invalid_argument);
  EXPECT_THROW(CrashAdversary(base, {{0, 0}, {1, 0}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SDS membership: exhaustive bounded Lemmas 3.2/3.3 (the acceptance grid).
// ---------------------------------------------------------------------------

class SdsMembership
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SdsMembership, EveryViewVectorIsASimplexOfSdsB) {
  const auto [n_procs, rounds, crashes] = GetParam();
  ExploreOptions opt;
  opt.n_procs = n_procs;
  opt.rounds = rounds;
  opt.max_crashes = crashes;
  const SdsCheckReport report = check_views_in_sds(opt);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_FALSE(report.explored.truncated);
  EXPECT_GT(report.explored.executions, 0u);
  EXPECT_GT(report.vertices_located, 0u);
  EXPECT_GT(report.simplices_checked, 0u);
  if (crashes > 0) {
    EXPECT_GT(report.explored.crashy_executions, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SdsMembership,
    ::testing::Values(std::tuple{2, 1, 0}, std::tuple{2, 2, 0},
                      std::tuple{3, 1, 0}, std::tuple{3, 2, 0},
                      std::tuple{4, 1, 0}, std::tuple{2, 2, 1},
                      std::tuple{3, 2, 1}, std::tuple{2, 2, 2},
                      std::tuple{4, 1, 1}),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_b" +
             std::to_string(std::get<1>(info.param)) + "_t" +
             std::to_string(std::get<2>(info.param));
    });

TEST(SdsMembership, SymmetryReducedSweepAgrees) {
  ExploreOptions opt;
  opt.n_procs = 3;
  opt.rounds = 2;
  opt.symmetry_reduction = true;  // the full-information protocol is symmetric
  const SdsCheckReport report = check_views_in_sds(opt);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.explored.symmetry_pruned, 0u);
  EXPECT_LT(report.explored.executions, 169u);
}

TEST(SdsMembership, SymmetryReducedCrashingSweepAgrees) {
  // The membership property must hold on the reduced CRASHY sweep too:
  // each surviving representative stands for a whole orbit of runs, so a
  // violation anywhere in an orbit would surface on its representative.
  ExploreOptions opt;
  opt.n_procs = 3;
  opt.rounds = 2;
  opt.max_crashes = 1;
  opt.symmetry_reduction = true;
  const SdsCheckReport report = check_views_in_sds(opt);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.explored.symmetry_pruned, 0u);
  EXPECT_GT(report.explored.crashy_executions, 0u);
}

// ---------------------------------------------------------------------------
// Decision maps against Delta.
// ---------------------------------------------------------------------------

TEST(DeltaCheck, SolvedApproxAgreementDecidesLegallyUnderCrashes) {
  task::ApproxAgreementTask approx(2, 3);
  const task::SolveResult solved = task::solve(approx, 2);
  ASSERT_EQ(solved.status, task::Solvability::kSolvable);
  const DeltaCheckReport report =
      check_decision_against_delta(approx, solved, 1);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.decisions_checked, 0u);
  EXPECT_GT(report.explored.crashy_executions, 0u);
}

TEST(DeltaCheck, EverySolvableE3ResultDecidesLegally) {
  // The SOLVABLE rows of EXPERIMENTS.md E3.  The checker calls
  // Task::allows directly, so it is independent of the compiled Delta
  // tables the search ran on.
  struct Row {
    std::shared_ptr<task::Task> task;
    int max_level;
    int level;
  };
  const std::vector<Row> rows = {
      {std::make_shared<task::KSetConsensusTask>(3, 3), 1, 0},
      {std::make_shared<task::RenamingTask>(2, 3), 1, 0},
      {std::make_shared<task::SimplexAgreementTask>(
           3, topo::iterated_sds(topo::base_simplex(3), 1)),
       1, 1},
      {std::make_shared<task::SimplexAgreementTask>(
           3, topo::iterated_sds(topo::base_simplex(3), 2)),
       2, 2},
      {std::make_shared<task::SimplexAgreementTask>(
           2, topo::iterated_sds(topo::base_simplex(2), 2)),
       2, 2},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.task->name());
    const task::SolveResult solved = task::solve(*row.task, row.max_level);
    ASSERT_EQ(solved.status, task::Solvability::kSolvable);
    EXPECT_EQ(solved.level, row.level);
    const DeltaCheckReport report =
        check_decision_against_delta(*row.task, solved, 1);
    EXPECT_TRUE(report.ok) << report.violation;
    EXPECT_GT(report.decisions_checked, 0u);
  }
}

TEST(DeltaCheck, LevelZeroMapsAreCheckedFaceByFace) {
  task::IdentityTask identity(topo::base_simplex(3));
  const task::SolveResult solved = task::solve(identity, 1);
  ASSERT_EQ(solved.status, task::Solvability::kSolvable);
  ASSERT_EQ(solved.level, 0);
  const DeltaCheckReport report =
      check_decision_against_delta(identity, solved, 1);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.decisions_checked, 0u);
}

TEST(DeltaCheck, CorruptedDecisionMapIsRejected) {
  task::IdentityTask identity(topo::base_simplex(3));
  task::SolveResult solved = task::solve(identity, 1);
  ASSERT_EQ(solved.status, task::Solvability::kSolvable);
  ASSERT_GE(solved.decision.size(), 2u);
  // Identity demands decision(v) = v; redirecting one vertex must surface
  // as a Delta violation on some face.
  solved.decision[0] = solved.decision[1];
  const DeltaCheckReport report =
      check_decision_against_delta(identity, solved, 0);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.violation.empty());
}

// ---------------------------------------------------------------------------
// StepDriver: deterministic step control over the register seam.
// ---------------------------------------------------------------------------

TEST(StepDriver, StepsCountSharedAccesses) {
  reg::SwmrRegister<int> r;
  StepDriver driver(1);
  driver.spawn(0, [&] {
    r.write(1);
    r.write(2);
  });
  EXPECT_TRUE(driver.step(0));   // parked before the first write
  EXPECT_TRUE(driver.step(0));   // first write done
  EXPECT_FALSE(driver.step(0));  // second write done, body finished
  EXPECT_TRUE(driver.done(0));
  EXPECT_EQ(driver.steps_taken(0), 2);
  EXPECT_EQ(r.read(), std::optional<int>(2));
}

TEST(StepDriver, RunUntilAndFinish) {
  reg::SwmrRegister<int> r;
  StepDriver driver(2);
  driver.spawn(0, [&] {
    r.write(7);
    r.write(8);
  });
  EXPECT_TRUE(driver.run_until(
      0, [&] { return r.read() == std::optional<int>(7); }));
  driver.spawn(1, [&] { (void)r.read(); });
  driver.finish_all();
  EXPECT_TRUE(driver.done(0));
  EXPECT_TRUE(driver.done(1));
  EXPECT_EQ(r.read(), std::optional<int>(8));
}

TEST(StepDriver, PropagatesBodyExceptions) {
  StepDriver driver(1);
  driver.spawn(0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(driver.finish(0), std::runtime_error);
}

TEST(StepDriver, UnregisteredThreadsFallThroughTheHook) {
  // While a driver exists, accesses from non-spawned threads (here: this
  // controller thread) must not block on the hook.
  reg::SwmrRegister<int> r;
  StepDriver driver(1);
  r.write(42);
  EXPECT_EQ(r.read(), std::optional<int>(42));
}

TEST(StepInterleaving, EnumeratesAllOrdersOfIndependentWrites) {
  // Two processors, one write each (2 steps each): C(4, 2) = 6 schedules.
  reg::SwmrRegister<int> a, b;
  const InterleaveStats stats = for_each_step_interleaving(
      2,
      [&](StepDriver& driver) {
        driver.spawn(0, [&] { a.write(1); });
        driver.spawn(1, [&] { b.write(2); });
      },
      [&](const std::vector<int>& trace) { EXPECT_EQ(trace.size(), 4u); });
  EXPECT_EQ(stats.schedules, 6u);
  EXPECT_FALSE(stats.truncated);
}

TEST(StepInterleaving, TruncatesAtTheScheduleCap) {
  reg::SwmrRegister<int> a, b;
  const InterleaveStats stats = for_each_step_interleaving(
      2,
      [&](StepDriver& driver) {
        driver.spawn(0, [&] { a.write(1); });
        driver.spawn(1, [&] { b.write(2); });
      },
      [](const std::vector<int>&) {}, 2);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.schedules, 2u);
}

// ---------------------------------------------------------------------------
// Wing-Gong linearizability checker: hand histories.
// ---------------------------------------------------------------------------

RecordedOp update_op(int proc, int value, std::uint64_t inv,
                     std::uint64_t resp) {
  RecordedOp op;
  op.proc = proc;
  op.is_update = true;
  op.value = value;
  op.invoked = inv;
  op.responded = resp;
  return op;
}

RecordedOp scan_op(int proc, std::vector<std::optional<int>> view,
                   std::uint64_t inv, std::uint64_t resp) {
  RecordedOp op;
  op.proc = proc;
  op.view = std::move(view);
  op.invoked = inv;
  op.responded = resp;
  return op;
}

TEST(LinCheck, AcceptsASequentialHistory) {
  SnapshotHistory h;
  h.n_procs = 2;
  h.ops = {update_op(0, 5, 1, 2), scan_op(1, {5, std::nullopt}, 3, 4)};
  const LinearizeReport r = check_linearizable_snapshot(h);
  EXPECT_TRUE(r.linearizable) << r.violation;
  EXPECT_EQ(r.max_depth, 2);
}

TEST(LinCheck, AcceptsAConcurrentScanEitherWay) {
  // The scan overlaps the update, so both old and new views are legal.
  for (const auto& view :
       {std::vector<std::optional<int>>{std::nullopt, std::nullopt},
        std::vector<std::optional<int>>{7, std::nullopt}}) {
    SnapshotHistory h;
    h.n_procs = 2;
    h.ops = {update_op(0, 7, 1, 4), scan_op(1, view, 2, 3)};
    EXPECT_TRUE(check_linearizable_snapshot(h).linearizable);
  }
}

TEST(LinCheck, RejectsAScanThatMissesACompletedUpdate) {
  SnapshotHistory h;
  h.n_procs = 2;
  h.ops = {update_op(0, 1, 1, 2),
           scan_op(1, {std::nullopt, std::nullopt}, 3, 4)};
  const LinearizeReport r = check_linearizable_snapshot(h);
  EXPECT_FALSE(r.linearizable);
  EXPECT_FALSE(r.violation.empty());
}

TEST(LinCheck, RejectsIncomparableViews) {
  // Two scans that each miss the other's observed update: no total order.
  SnapshotHistory h;
  h.n_procs = 4;
  h.ops = {update_op(0, 1, 1, 2),   update_op(1, 1, 3, 4),
           scan_op(2, {2, 1, std::nullopt, std::nullopt}, 5, 10),
           update_op(0, 2, 6, 7),   update_op(1, 2, 8, 9),
           scan_op(3, {1, 2, std::nullopt, std::nullopt}, 11, 12)};
  const LinearizeReport r = check_linearizable_snapshot(h);
  EXPECT_FALSE(r.linearizable);
}

TEST(LinCheck, FlagsMalformedHistories) {
  SnapshotHistory overlap;
  overlap.n_procs = 1;
  overlap.ops = {update_op(0, 1, 1, 5), update_op(0, 2, 2, 3)};
  EXPECT_NE(check_linearizable_snapshot(overlap).violation.find("malformed"),
            std::string::npos);

  SnapshotHistory width;
  width.n_procs = 2;
  width.ops = {scan_op(0, {std::nullopt}, 1, 2)};
  EXPECT_NE(check_linearizable_snapshot(width).violation.find("malformed"),
            std::string::npos);
}

TEST(IsAxioms, DetectsEachViolationKind) {
  using Out = std::vector<std::pair<int, int>>;
  // Legal outputs.
  EXPECT_TRUE(check_is_axioms({{0, Out{{0, 1}}},
                               {1, Out{{0, 1}, {1, 2}}}})
                  .ok());
  // Self-inclusion.
  EXPECT_FALSE(check_is_axioms({{0, Out{{1, 2}}}}).self_inclusion);
  // Containment.
  EXPECT_FALSE(check_is_axioms({{0, Out{{0, 1}}}, {1, Out{{1, 2}}}})
                   .containment);
  // Immediacy: 1 in S_0 but S_1 not in S_0.
  EXPECT_FALSE(check_is_axioms({{0, Out{{0, 1}, {1, 2}}},
                                {1, Out{{0, 1}, {1, 2}, {2, 3}}},
                                {2, Out{{0, 1}, {1, 2}, {2, 3}}}})
                   .immediacy);
}

// ---------------------------------------------------------------------------
// The real registers under the checker.
// ---------------------------------------------------------------------------

TEST(RealRegisters, AtomicSnapshotBorrowPathIsLinearizable) {
  // Force the borrow: pause a scan after its first collect, let the writer
  // move twice, and resume -- the scan must return the second write's
  // embedded view, which contains the FIRST write (update embeds its scan
  // before publishing).
  reg::AtomicSnapshot<int> snap(2);
  snap.update(0, 10);

  StepDriver driver(1);
  reg::AtomicSnapshot<int>::View view;
  int collects = 0;
  driver.spawn(0, [&] { view = snap.scan_counting(collects); });
  for (int s = 0; s < 3; ++s) ASSERT_TRUE(driver.step(0));
  // First collect done; the scanner is parked inside its second collect.
  snap.update(1, 21);
  snap.update(1, 22);
  driver.finish(0);

  EXPECT_EQ(collects, 2);  // borrowed, not re-collected
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], std::optional<int>(10));
  EXPECT_EQ(view[1], std::optional<int>(21));
}

TEST(RealRegisters, AtomicSnapshotLinearizesUnderAllInterleavings) {
  using Rec = RecordingSnapshot<reg::AtomicSnapshot<int>>;
  std::shared_ptr<Rec> rec;
  std::uint64_t histories = 0;
  const InterleaveStats stats = for_each_step_interleaving(
      2,
      [&](StepDriver& driver) {
        rec = std::make_shared<Rec>(2);
        driver.spawn(0, [rec = rec] { rec->update(0, 1); });
        driver.spawn(1, [rec = rec] { (void)rec->scan(1); });
      },
      [&](const std::vector<int>&) {
        const LinearizeReport r =
            check_linearizable_snapshot(rec->history());
        EXPECT_TRUE(r.linearizable) << r.violation;
        ++histories;
      });
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.schedules, 100u);
  EXPECT_EQ(histories, stats.schedules);
}

TEST(RealRegisters, AtomicSnapshotLinearizesOnRealThreads) {
  RecordingSnapshot<reg::AtomicSnapshot<int>> rec(3);
  std::vector<std::thread> threads;
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back([&rec, p] {
      for (int i = 0; i < 4; ++i) {
        rec.update(p, 10 * p + i);
        (void)rec.scan(p);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const LinearizeReport r = check_linearizable_snapshot(rec.history());
  EXPECT_TRUE(r.linearizable) << r.violation;
  EXPECT_GT(r.states_explored, 0u);
}

TEST(RealRegisters, ImmediateSnapshotAxiomsUnderAllInterleavings) {
  std::shared_ptr<reg::ImmediateSnapshot<int>> is;
  using Output = reg::ImmediateSnapshot<int>::Output;
  auto outs = std::make_shared<std::vector<Output>>();
  const InterleaveStats stats = for_each_step_interleaving(
      2,
      [&](StepDriver& driver) {
        is = std::make_shared<reg::ImmediateSnapshot<int>>(2);
        outs->assign(2, {});
        for (int p = 0; p < 2; ++p) {
          driver.spawn(p, [is, outs, p] {
            (*outs)[static_cast<std::size_t>(p)] =
                is->write_read(p, 100 + p);
          });
        }
      },
      [&](const std::vector<int>&) {
        IsOutputs recorded;
        for (int p = 0; p < 2; ++p) {
          recorded.emplace_back(p, (*outs)[static_cast<std::size_t>(p)]);
        }
        const IsAxiomsReport r = check_is_axioms(recorded);
        EXPECT_TRUE(r.ok()) << r.violation;
      });
  EXPECT_FALSE(stats.truncated);
  EXPECT_GT(stats.schedules, 10u);
}

TEST(RealRegisters, ImmediateSnapshotAxiomsOnRealThreads) {
  reg::ImmediateSnapshot<int> is(3);
  std::vector<reg::ImmediateSnapshot<int>::Output> outs(3);
  std::vector<std::thread> threads;
  for (int p = 0; p < 3; ++p) {
    threads.emplace_back(
        [&is, &outs, p] { outs[static_cast<std::size_t>(p)] = is.write_read(p, p); });
  }
  for (std::thread& t : threads) t.join();
  IsOutputs recorded;
  for (int p = 0; p < 3; ++p) {
    recorded.emplace_back(p, outs[static_cast<std::size_t>(p)]);
  }
  const IsAxiomsReport r = check_is_axioms(recorded);
  EXPECT_TRUE(r.ok()) << r.violation;
}

// ---------------------------------------------------------------------------
// Broken doubles: the checker must reject them.
// ---------------------------------------------------------------------------

/// A "snapshot" that collects only once: a scan concurrent with updates can
/// return a view no sequential execution produces (it drops writes).
class SingleCollectSnapshot {
 public:
  using View = std::vector<std::optional<int>>;

  explicit SingleCollectSnapshot(int n_procs)
      : regs_(static_cast<std::size_t>(n_procs)) {}

  void update(int i, int value) {
    regs_[static_cast<std::size_t>(i)].write(value);
  }

  [[nodiscard]] View scan() const {
    View out(regs_.size());
    for (std::size_t j = 0; j < regs_.size(); ++j) {
      out[j] = regs_[j].read();
    }
    return out;
  }

 private:
  std::vector<reg::SwmrRegister<int>> regs_;
};

TEST(BrokenDoubles, SingleCollectSnapshotIsRejected) {
  // Force incomparable views: scanner 2 reads cell 0 old, cell 1 new;
  // scanner 3 reads cell 0 new, cell 1 old.  No linearization can order the
  // two (controller-sequential) updates to satisfy both.
  RecordingSnapshot<SingleCollectSnapshot> rec(4);
  rec.update(0, 1);
  rec.update(1, 1);

  StepDriver driver(4);
  driver.spawn(2, [&] { (void)rec.scan(2); });
  ASSERT_TRUE(driver.step(2));  // parked before reading cell 0
  ASSERT_TRUE(driver.step(2));  // read cell 0 = 1; parked before cell 1
  rec.update(0, 2);
  driver.spawn(3, [&] { (void)rec.scan(3); });
  driver.finish(3);  // sees (2, 1, _, _)
  rec.update(1, 2);
  driver.finish(2);  // resumes: cell 1 = 2 -> view (1, 2, _, _)

  const LinearizeReport r = check_linearizable_snapshot(rec.history());
  EXPECT_FALSE(r.linearizable);
  EXPECT_FALSE(r.violation.empty());
}

TEST(BrokenDoubles, RealSnapshotPassesTheSameForcedSchedule) {
  // The identical forcing applied to the real AtomicSnapshot must stay
  // linearizable: the double collect detects the interference.
  RecordingSnapshot<reg::AtomicSnapshot<int>> rec(4);
  rec.update(0, 1);
  rec.update(1, 1);

  StepDriver driver(4);
  driver.spawn(2, [&] { (void)rec.scan(2); });
  ASSERT_TRUE(driver.step(2));
  ASSERT_TRUE(driver.step(2));
  rec.update(0, 2);
  driver.spawn(3, [&] { (void)rec.scan(3); });
  driver.finish(3);
  rec.update(1, 2);
  driver.finish(2);

  const LinearizeReport r = check_linearizable_snapshot(rec.history());
  EXPECT_TRUE(r.linearizable) << r.violation;
}

/// An immediate snapshot whose exit test admits processors one level above
/// the caller's: outputs can violate immediacy.
class BrokenImmediateSnapshot {
 public:
  using Output = std::vector<std::pair<int, int>>;

  explicit BrokenImmediateSnapshot(int n_procs)
      : values_(static_cast<std::size_t>(n_procs)),
        levels_(static_cast<std::size_t>(n_procs)) {
    for (auto& l : levels_) l.store(kUnset, std::memory_order_relaxed);
  }

  Output write_read(int i, int value) {
    const auto ui = static_cast<std::size_t>(i);
    values_[ui].write(value);
    const int n = static_cast<int>(levels_.size());
    for (int level = n; level >= 1; --level) {
      wfc::detail::step_point();
      levels_[ui].store(level, std::memory_order_release);
      std::vector<int> seen;
      for (int j = 0; j < n; ++j) {
        wfc::detail::step_point();
        const int lj = levels_[static_cast<std::size_t>(j)].load(
            std::memory_order_acquire);
        // BUG: "level + 1" admits processors that announced ABOVE us.
        if (lj != kUnset && lj <= level + 1) seen.push_back(j);
      }
      if (static_cast<int>(seen.size()) >= level) {
        Output out;
        for (int j : seen) {
          out.emplace_back(j, *values_[static_cast<std::size_t>(j)].read());
        }
        return out;
      }
    }
    WFC_CHECK(false, "BrokenImmediateSnapshot: descended below level 1");
  }

 private:
  static constexpr int kUnset = 1 << 20;
  std::vector<reg::SwmrRegister<int>> values_;
  std::vector<std::atomic<int>> levels_;
};

TEST(BrokenDoubles, OffByOneImmediateSnapshotViolatesImmediacy) {
  // p2 announces level 3 and stalls; p0 then exits at level 2 having seen
  // p2 (admitted by the off-by-one test), so 2 is in S_0 -- but p2 later
  // finishes with S_2 = {0,1,2}, which is NOT a subset of S_0 = {0,2}.
  BrokenImmediateSnapshot is(3);
  std::vector<BrokenImmediateSnapshot::Output> outs(3);

  StepDriver driver(3);
  driver.spawn(2, [&] { outs[2] = is.write_read(2, 2); });
  // Value write, level-3 store, then park before the first collect read.
  for (int s = 0; s < 3; ++s) ASSERT_TRUE(driver.step(2));
  driver.spawn(0, [&] { outs[0] = is.write_read(0, 0); });
  driver.finish(0);
  driver.spawn(1, [&] { outs[1] = is.write_read(1, 1); });
  driver.finish(1);
  driver.finish(2);

  IsOutputs recorded;
  for (int p = 0; p < 3; ++p) recorded.emplace_back(p, outs[p]);
  const IsAxiomsReport r = check_is_axioms(recorded);
  EXPECT_TRUE(r.self_inclusion);
  EXPECT_FALSE(r.immediacy) << "S_0 = {0,2} yet S_2 = {0,1,2}";
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.violation.empty());
}

// ---------------------------------------------------------------------------
// §4 emulation conformance.
// ---------------------------------------------------------------------------

TEST(Conformance, CrashFreeEmulationProducesLegalHistories) {
  ConformanceOptions opt;
  opt.n_procs = 2;
  opt.shots = 1;
  opt.explore_rounds = 2;
  const ConformanceReport report = check_emulation_conformance(opt);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.explored.executions, 1u);
  EXPECT_EQ(report.histories_checked, report.explored.executions);
  EXPECT_GT(report.max_rounds_used, 0);
}

TEST(Conformance, SurvivesCrashInjection) {
  ConformanceOptions opt;
  opt.n_procs = 2;
  opt.shots = 1;
  opt.explore_rounds = 2;
  opt.max_crashes = 1;
  const ConformanceReport report = check_emulation_conformance(opt);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.explored.crashy_executions, 0u);
}

TEST(Conformance, ThreeEmulatorsTwoShots) {
  ConformanceOptions opt;
  opt.n_procs = 3;
  opt.shots = 2;
  opt.explore_rounds = 1;
  opt.max_crashes = 1;
  const ConformanceReport report = check_emulation_conformance(opt);
  EXPECT_TRUE(report.ok) << report.violation;
  EXPECT_GT(report.explored.executions, 13u);  // 13 partitions + crash branches
}

TEST(Conformance, TruncatesAtTheExecutionCap) {
  ConformanceOptions opt;
  opt.n_procs = 2;
  opt.explore_rounds = 2;
  opt.max_executions = 3;
  const ConformanceReport report = check_emulation_conformance(opt);
  EXPECT_TRUE(report.explored.truncated);
  EXPECT_EQ(report.explored.executions, 3u);
}

}  // namespace
}  // namespace wfc::chk
