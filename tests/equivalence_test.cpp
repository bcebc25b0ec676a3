// The model-equivalence circle, run in both directions, plus randomized
// cross-validation of the two independent decision procedures.
//
//   * reverse emulation: IIS protocols executed INSIDE the atomic-snapshot
//     model (per-round levels algorithm) -- §3.5's easy direction;
//   * snapshot renaming from one immediate snapshot ([8]);
//   * deterministic schedule record/replay;
//   * random 2-processor tasks: connectivity criterion vs Prop 3.1 search.
#include <gtest/gtest.h>

#include <set>

#include "core/wfc.hpp"
#include "delta_check.hpp"

namespace wfc {
namespace {

// ---------------------------------------------------------------------------
// Reverse emulation: IIS in the snapshot model.
// ---------------------------------------------------------------------------

// The counting protocol from the runtime tests, now run inside the
// atomic-snapshot model: per-round views must still satisfy the §3.5
// immediate-snapshot properties.
TEST(ReverseEmulation, ViewsSatisfyImmediateSnapshotProperties) {
  constexpr int kProcs = 3;
  constexpr int kRounds = 3;
  std::map<std::pair<int, int>, rt::IisSnapshot<int>> views;
  std::function<int(int)> init = [](int p) { return 10 * p; };
  std::function<rt::Step<int>(int, int, const rt::IisSnapshot<int>&)> on_view =
      [&](int p, int round, const rt::IisSnapshot<int>& snap) {
        views[{round, p}] = snap;
        return round + 1 < kRounds ? rt::Step<int>::cont(10 * p)
                                   : rt::Step<int>::halt();
      };
  emu::ReverseEmulationStats stats = emu::run_iis_in_snapshot_model<int>(
      kProcs, emu::reverse_emulation_schedule(kProcs, kRounds), init, on_view);
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_EQ(stats.rounds_completed[static_cast<std::size_t>(p)], kRounds);
  }

  auto contains = [](const rt::IisSnapshot<int>& s, int id) {
    return std::any_of(s.begin(), s.end(),
                       [id](const auto& e) { return e.first == id; });
  };
  auto subset = [&](const rt::IisSnapshot<int>& a,
                    const rt::IisSnapshot<int>& b) {
    return std::all_of(a.begin(), a.end(), [&](const auto& e) {
      return contains(b, e.first);
    });
  };
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kProcs; ++i) {
      const auto& si = views[{round, i}];
      EXPECT_TRUE(contains(si, i)) << "round " << round << " proc " << i;
      for (int j = 0; j < kProcs; ++j) {
        const auto& sj = views[{round, j}];
        EXPECT_TRUE(subset(si, sj) || subset(sj, si));
        if (contains(sj, i)) {
          EXPECT_TRUE(subset(si, sj));
        }
      }
    }
  }
}

TEST(ReverseEmulation, EveryInterleavingYieldsLegalSdsViews) {
  // Over ALL 2-processor atomic-snapshot interleavings with enough
  // appearances, the emulated one-round views must locate inside SDS(s^1)
  // -- i.e. the reverse emulation never produces a view the IIS model could
  // not.  (3 processors are covered by random sampling below; full
  // enumeration there is ~10^7 schedules.)
  proto::SdsChain chain(topo::base_simplex(2), 1);
  int executions = 0;
  rt::for_each_interleaving(2, 6, [&](const std::vector<Color>& sched) {
    ++executions;
    std::function<int(int)> init = [](int p) { return p; };
    std::function<rt::Step<int>(int, int, const rt::IisSnapshot<int>&)>
        on_view = [&](int p, int, const rt::IisSnapshot<int>& snap) {
          topo::Simplex seen;
          for (const auto& [q, v] : snap) {
            seen.push_back(static_cast<topo::VertexId>(v));
          }
          // Throws (failing the test) if not a legal SDS vertex.
          (void)chain.locate(1, p, topo::make_simplex(std::move(seen)));
          return rt::Step<int>::halt();
        };
    emu::run_iis_in_snapshot_model<int>(2, sched, init, on_view);
  });
  EXPECT_EQ(executions, 924);  // C(12, 6)
}

TEST(ReverseEmulation, RandomSchedulesYieldLegalSdsViews) {
  proto::SdsChain chain(topo::base_simplex(3), 2);
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    // Random shuffle of a sufficient schedule, plus a fair tail so nobody
    // is starved past the schedule's end.
    std::vector<Color> sched = emu::reverse_emulation_schedule(3, 2);
    rng.shuffle(sched);
    auto tail = emu::reverse_emulation_schedule(3, 2);
    sched.insert(sched.end(), tail.begin(), tail.end());

    std::function<topo::VertexId(int)> init = [](int p) {
      return static_cast<topo::VertexId>(p);
    };
    std::function<rt::Step<topo::VertexId>(
        int, int, const rt::IisSnapshot<topo::VertexId>&)>
        on_view = [&](int p, int round,
                      const rt::IisSnapshot<topo::VertexId>& snap) {
          topo::Simplex seen;
          for (const auto& [q, v] : snap) seen.push_back(v);
          const topo::VertexId next =
              chain.locate(round + 1, p, topo::make_simplex(std::move(seen)));
          return round == 0 ? rt::Step<topo::VertexId>::cont(next)
                            : rt::Step<topo::VertexId>::halt();
        };
    emu::run_iis_in_snapshot_model<topo::VertexId>(3, sched, init, on_view);
  }
}

TEST(ReverseEmulation, DecisionProtocolSolvesTaskInSnapshotModel) {
  // Full circle: a task solved via the characterization, executed inside
  // the atomic-snapshot model through the reverse emulation.
  auto target = topo::standard_chromatic_subdivision(topo::base_simplex(3));
  task::SimplexAgreementTask agreement(3, target);
  task::SolveResult solved = task::solve(agreement, 1);
  ASSERT_EQ(solved.status, task::Solvability::kSolvable);
  const auto& chain = *solved.chain;
  const int b = solved.level;

  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<topo::VertexId> finals(3, topo::kNoVertex);
    std::function<topo::VertexId(int)> init = [](int p) {
      return static_cast<topo::VertexId>(p);
    };
    std::function<rt::Step<topo::VertexId>(
        int, int, const rt::IisSnapshot<topo::VertexId>&)>
        on_view = [&](int p, int round,
                      const rt::IisSnapshot<topo::VertexId>& snap) {
          topo::Simplex seen;
          for (const auto& [q, v] : snap) seen.push_back(v);
          const topo::VertexId next =
              chain.locate(round + 1, p, topo::make_simplex(std::move(seen)));
          if (round + 1 == b) {
            finals[static_cast<std::size_t>(p)] = next;
            return rt::Step<topo::VertexId>::halt();
          }
          return rt::Step<topo::VertexId>::cont(next);
        };
    // Random-ish but sufficient schedule: shuffle a fair schedule.
    std::vector<Color> sched = emu::reverse_emulation_schedule(3, b);
    rng.shuffle(sched);
    // Shuffling can starve someone; append a fair tail as safety.
    auto tail = emu::reverse_emulation_schedule(3, b);
    sched.insert(sched.end(), tail.begin(), tail.end());
    emu::run_iis_in_snapshot_model<topo::VertexId>(3, sched, init, on_view);

    topo::Simplex decided;
    for (topo::VertexId v : finals) {
      ASSERT_NE(v, topo::kNoVertex);
      decided.push_back(solved.decision[v]);
    }
    decided = topo::make_simplex(std::move(decided));
    EXPECT_TRUE(agreement.output().contains_simplex(decided));
    EXPECT_TRUE(agreement.allows({0, 1, 2}, decided));
  }
}

TEST(ReverseEmulation, CostWithinTheoreticalBound) {
  constexpr int kProcs = 4;
  constexpr int kRounds = 3;
  std::function<int(int)> init = [](int p) { return p; };
  std::function<rt::Step<int>(int, int, const rt::IisSnapshot<int>&)> on_view =
      [&](int, int round, const rt::IisSnapshot<int>&) {
        return round + 1 < kRounds ? rt::Step<int>::cont(0)
                                   : rt::Step<int>::halt();
      };
  emu::ReverseEmulationStats stats = emu::run_iis_in_snapshot_model<int>(
      kProcs, emu::reverse_emulation_schedule(kProcs, kRounds), init, on_view);
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_LE(stats.ops_taken[static_cast<std::size_t>(p)],
              2 * kRounds * (kProcs + 1));
  }
}

// ---------------------------------------------------------------------------
// Snapshot renaming ([8]).
// ---------------------------------------------------------------------------

TEST(SnapshotRenaming, NameFormula) {
  EXPECT_EQ(task::snapshot_renaming_name(5, {5}), 0);          // solo -> name 0
  EXPECT_EQ(task::snapshot_renaming_name(2, {2, 7}), 1);       // pair, rank 0
  EXPECT_EQ(task::snapshot_renaming_name(7, {2, 7}), 2);       // pair, rank 1
  EXPECT_EQ(task::snapshot_renaming_name(4, {1, 4, 9}), 4);    // triple, rank 1
  EXPECT_THROW((void)task::snapshot_renaming_name(3, {1, 2}), std::invalid_argument);
}

TEST(SnapshotRenaming, ExhaustiveDistinctness) {
  EXPECT_EQ(task::validate_snapshot_renaming(1), 1u);
  EXPECT_EQ(task::validate_snapshot_renaming(2), 3u);
  EXPECT_EQ(task::validate_snapshot_renaming(3), 13u);
  EXPECT_EQ(task::validate_snapshot_renaming(4), 75u);
}

TEST(SnapshotRenaming, AdversarialRuns) {
  rt::RandomAdversary adv(13);
  for (int trial = 0; trial < 50; ++trial) {
    task::RenamingRun run = task::run_snapshot_renaming({0, 1, 2, 3}, adv);
    EXPECT_TRUE(run.distinct);
    EXPECT_LT(run.max_name, 4 * 5 / 2);
  }
}

TEST(SnapshotRenaming, AdaptiveBound) {
  // Two participants out of a large id space still land below p(p+1)/2 = 3.
  rt::SynchronousAdversary adv;
  task::RenamingRun run = task::run_snapshot_renaming({9, 17}, adv);
  EXPECT_TRUE(run.distinct);
  EXPECT_LT(run.max_name, 3);
}

TEST(SnapshotRenaming, RealThreads) {
  for (int trial = 0; trial < 25; ++trial) {
    task::RenamingRun run = task::run_snapshot_renaming_threads({0, 1, 2, 3, 4});
    EXPECT_TRUE(run.distinct);
    EXPECT_LT(run.max_name, 5 * 6 / 2);
  }
}

// ---------------------------------------------------------------------------
// Schedule record / replay.
// ---------------------------------------------------------------------------

TEST(Replay, RecordedScheduleReproducesRun) {
  emu::FullInfoClient client_a(2);
  rt::RandomAdversary random_adv(99);
  emu::EmulationResult first = emu::run_emulation_simulated(
      3, random_adv, 256, client_a.init(), client_a.on_scan());

  // Replay the recorded partitions with a FixedAdversary: identical logs.
  // (The schedule is embedded in the per-op round stamps; rebuild it by
  // re-running the recording adversary deterministically.)
  emu::FullInfoClient client_b(2);
  rt::RandomAdversary same_seed(99);
  emu::EmulationResult second = emu::run_emulation_simulated(
      3, same_seed, 256, client_b.init(), client_b.on_scan());

  ASSERT_EQ(first.ops.size(), second.ops.size());
  for (std::size_t p = 0; p < first.ops.size(); ++p) {
    ASSERT_EQ(first.ops[p].size(), second.ops[p].size());
    for (std::size_t i = 0; i < first.ops[p].size(); ++i) {
      EXPECT_EQ(first.ops[p][i].start_round, second.ops[p][i].start_round);
      EXPECT_EQ(first.ops[p][i].end_round, second.ops[p][i].end_round);
      EXPECT_EQ(first.ops[p][i].view, second.ops[p][i].view);
    }
  }
}

TEST(Replay, FixedAdversaryReplaysIisSchedule) {
  // Record an IIS run's schedule, then replay it via FixedAdversary.
  std::function<int(int)> init = [](int p) { return p; };
  std::vector<std::vector<int>> sizes_a, sizes_b;
  auto collect = [](std::vector<std::vector<int>>& out) {
    return [&out](int p, int round, const rt::IisSnapshot<int>& snap) {
      if (static_cast<int>(out.size()) <= round) out.resize(round + 1);
      out[round].push_back(static_cast<int>(snap.size()) * 10 + p);
      return round < 2 ? rt::Step<int>::cont(p) : rt::Step<int>::halt();
    };
  };
  rt::RandomAdversary adv(7);
  std::function<rt::Step<int>(int, int, const rt::IisSnapshot<int>&)> fa =
      collect(sizes_a);
  rt::IisRunStats stats = rt::run_iis<int>(4, adv, 8, init, fa);

  rt::FixedAdversary replay(stats.schedule);
  std::function<rt::Step<int>(int, int, const rt::IisSnapshot<int>&)> fb =
      collect(sizes_b);
  rt::run_iis<int>(4, replay, 8, init, fb);
  EXPECT_EQ(sizes_a, sizes_b);
}

// ---------------------------------------------------------------------------
// Random 2-processor tasks: two independent deciders must agree.
// ---------------------------------------------------------------------------

/// A random 2-processor task: single input edge, random bipartite output
/// complex, random face-closed Delta (per-vertex solo permissions plus
/// per-edge permissions consistent with them).
class RandomTask final : public task::Task {
 public:
  RandomTask(Rng& rng, int outs_per_color)
      : input_(topo::base_simplex(2)), output_(2) {
    std::vector<topo::VertexId> by_color[2];
    for (Color c = 0; c < 2; ++c) {
      for (int i = 0; i < outs_per_color; ++i) {
        by_color[c].push_back(output_.add_vertex(
            c, "o" + std::to_string(c) + "_" + std::to_string(i),
            ColorSet::single(c)));
      }
    }
    // Random edges (ensure every vertex appears in at least one facet so
    // the complex stays well-formed).
    for (Color c = 0; c < 2; ++c) {
      for (topo::VertexId v : by_color[c]) {
        const auto& other = by_color[1 - c];
        output_.add_facet(topo::make_simplex(
            {v, other[rng.below(other.size())]}));
      }
    }
    for (int extra = 0; extra < outs_per_color; ++extra) {
      output_.add_facet(topo::make_simplex(
          {by_color[0][rng.below(by_color[0].size())],
           by_color[1][rng.below(by_color[1].size())]}));
    }
    // Random Delta: solo permissions per input vertex; edge permissions =
    // random subset of output edges (face closure handled in allows()).
    solo_allowed_.assign(output_.num_vertices(), std::vector<bool>(2, false));
    for (topo::VertexId w = 0; w < output_.num_vertices(); ++w) {
      const Color c = output_.vertex(w).color;
      solo_allowed_[w][static_cast<std::size_t>(c)] = rng.below(100) < 60;
    }
    // Ensure at least one solo option per processor.
    for (Color c = 0; c < 2; ++c) {
      solo_allowed_[by_color[c][0]][static_cast<std::size_t>(c)] = true;
    }
    for (const topo::Simplex& f : output_.facets()) {
      if (rng.below(100) < 55) edge_allowed_.insert(f);
    }
  }

  [[nodiscard]] const topo::ChromaticComplex& input() const override {
    return input_;
  }
  [[nodiscard]] const topo::ChromaticComplex& output() const override {
    return output_;
  }
  [[nodiscard]] std::string name() const override { return "random"; }

  [[nodiscard]] bool allows(const topo::Simplex& in,
                            const topo::Simplex& out) const override {
    if (out.empty()) return true;
    if (in.size() == 1) {
      // Solo: single own-colored decision from the solo set.
      if (out.size() != 1) return false;
      const Color c = input_.vertex(in[0]).color;
      return solo_allowed_[out[0]][static_cast<std::size_t>(c)];
    }
    // Both participating: faces of allowed edges, plus any vertex of an
    // allowed edge (face closure), plus solo-allowed vertices (a processor
    // that ran alone before the other showed up must stay permitted).
    if (out.size() == 2) return edge_allowed_.count(out) > 0;
    const topo::VertexId w = out[0];
    const Color c = output_.vertex(w).color;
    if (solo_allowed_[w][static_cast<std::size_t>(c)]) return true;
    for (const topo::Simplex& e : edge_allowed_) {
      if (e[0] == w || e[1] == w) return true;
    }
    return false;
  }

 private:
  topo::ChromaticComplex input_;
  topo::ChromaticComplex output_;
  std::vector<std::vector<bool>> solo_allowed_;
  std::set<topo::Simplex> edge_allowed_;
};

TEST(RandomTasks, CriterionAgreesWithSearch) {
  Rng rng(20260706);
  int solvable = 0, unsolvable = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomTask t(rng, 3);
    task::TwoProcVerdict fast = task::decide_two_processors(t);
    if (fast.solvable && fast.level_lower_bound <= 3) {
      ++solvable;
      task::SolveResult slow = task::solve(t, fast.level_lower_bound);
      EXPECT_EQ(slow.status, task::Solvability::kSolvable) << "trial " << trial;
      EXPECT_EQ(slow.level, fast.level_lower_bound) << "trial " << trial;
    } else if (!fast.solvable) {
      ++unsolvable;
      task::SolveResult slow = task::solve(t, 2);
      EXPECT_EQ(slow.status, task::Solvability::kUnsolvable)
          << "trial " << trial;
    }
  }
  // The generator must actually exercise both outcomes.
  EXPECT_GT(solvable, 5);
  EXPECT_GT(unsolvable, 5);
}

TEST(RandomTasks, CompiledDeltaTablesAgreeWithAllows) {
  // Random Delta is the one that is not built from a formula; the tables
  // the search reads must still be allows() pair for pair.
  Rng rng(20260707);
  for (int trial = 0; trial < 40; ++trial) {
    RandomTask t(rng, 1 + trial % 4);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_GT(test::expect_delta_tables_match(t), 0u);
  }
}

}  // namespace
}  // namespace wfc
