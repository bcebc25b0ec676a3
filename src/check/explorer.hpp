// wfc::chk -- deterministic schedule explorer for the IIS model with crash
// fault injection and symmetry reduction.
//
// The paper quantifies over ALL schedules: Lemma 3.2/3.3 say the protocol
// complex of b IIS rounds is exactly SDS^b(s^n), and the wait-free reading
// of the model is that up to t = n processors may crash.  The runtime's
// for_each_iis_execution (runtime/sim_iis.hpp) enumerates the crash-free
// schedules; this explorer closes the gap:
//
//   * per round it first chooses a set of processors to SILENCE (a crash:
//     the processor performs no WriteRead at that round or later), bounded
//     by max_crashes in total, then an ordered partition of the remaining
//     live processors;
//   * a crashed processor is indistinguishable -- to every survivor -- from
//     one scheduled alone in the last block of every later round, which is
//     why crashed executions still land inside SDS^b (sds_check.hpp turns
//     that into an assertion);
//   * crash granularity is complete at the model level: an IIS WriteRead is
//     atomic, so "crashed mid-operation" is either "took the step, crashed
//     before the next round" (enumerated as a crash one round later) or
//     "never took the step" (enumerated as a crash this round).
//
// Symmetry reduction keeps only the lexicographically minimal execution in
// each orbit of the color group S_n acting on (crash set, partition) round
// signatures.  This is SOUND ONLY for color-symmetric protocols and
// properties (the full-information protocol and the SDS membership check
// are; a decision map generally is not) -- callers opt in explicitly.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/color_set.hpp"
#include "runtime/adversary.hpp"
#include "runtime/sim_iis.hpp"

namespace wfc::chk {

struct ExploreOptions {
  int n_procs = 2;
  /// Depth b: every execution runs exactly this many rounds unless all
  /// processors crash or halt first.
  int rounds = 1;
  /// Total crash budget t across the whole execution (0 = crash-free).
  int max_crashes = 0;
  /// Keep only lex-minimal orbit representatives under color permutations.
  /// Sound only for color-symmetric protocols/properties; see header.
  bool symmetry_reduction = false;
  /// Stop after this many executions (0 = unlimited); sets truncated.
  std::uint64_t max_executions = 0;
  /// Cooperative cancellation (service layer); checked per execution.
  const std::atomic<bool>* cancel = nullptr;
  /// Run-subset gate (the wfc::model adapter plugs in here): a complete
  /// execution whose (schedule, crashes) the filter rejects is counted in
  /// ExploreStats::filtered and never reaches at_end.  Null admits every
  /// execution.  Combining with symmetry_reduction is sound only when the
  /// filter is color-symmetric (the built-in adversary models are; an
  /// explicit affine window set generally is not).
  std::function<bool(const std::vector<rt::Partition>&,
                     const std::vector<ColorSet>&)>
      run_filter = nullptr;
};

struct ExploreStats {
  std::uint64_t executions = 0;        // complete executions emitted
  std::uint64_t crashy_executions = 0; // emitted executions with >= 1 crash
  std::uint64_t symmetry_pruned = 0;   // DFS branches cut as non-minimal
  std::uint64_t filtered = 0;          // executions rejected by run_filter
  bool truncated = false;              // max_executions or cancel hit
};

/// One complete bounded execution, valid only during the at_end callback.
template <typename Value>
struct Execution {
  /// Per executed round, the ordered partition of the processors that
  /// acted.  A round in which every remaining processor crashed is an empty
  /// partition (and is always the last round).
  const std::vector<rt::Partition>& schedule;
  /// Per executed round, the processors silenced at that round.
  const std::vector<ColorSet>& crashes;
  /// Union of `crashes`.
  ColorSet crashed;
  /// Final per-processor values (crashed processors hold their last value).
  const std::vector<Value>& value;
  /// WriteReads performed per processor.
  const std::vector<int>& rounds_taken;
};

namespace detail {

inline std::uint32_t permute_mask(std::uint32_t mask,
                                  const std::vector<int>& perm) {
  std::uint32_t out = 0;
  while (mask != 0) {
    const int c = std::countr_zero(mask);
    mask &= mask - 1;
    out |= std::uint32_t{1} << perm[static_cast<std::size_t>(c)];
  }
  return out;
}

/// A round's identity for the symmetry order: crash mask then block masks.
using RoundSig = std::vector<std::uint32_t>;

inline RoundSig permute_sig(const RoundSig& sig, const std::vector<int>& perm) {
  RoundSig out;
  out.reserve(sig.size());
  for (std::uint32_t m : sig) out.push_back(permute_mask(m, perm));
  return out;
}

}  // namespace detail

/// Enumerates every execution of `opt.rounds` IIS rounds of a deterministic
/// protocol, with every placement of up to `opt.max_crashes` crashes,
/// invoking at_end once per complete execution.  Cost without crashes is
/// prod_r Fubini(n_r); crashes multiply it by the number of crash placements
/// -- keep n <= 4 and rounds <= 3 (the paper's arguments never need more).
template <typename Value>
ExploreStats explore_iis(
    const ExploreOptions& opt, const std::function<Value(int)>& init,
    const std::function<rt::Step<Value>(int, int, const rt::IisSnapshot<Value>&)>&
        on_view,
    const std::function<void(const Execution<Value>&)>& at_end) {
  WFC_REQUIRE(opt.n_procs >= 1 && opt.n_procs <= kMaxColors,
              "explore_iis: bad n_procs");
  WFC_REQUIRE(opt.rounds >= 0, "explore_iis: negative rounds");
  WFC_REQUIRE(opt.max_crashes >= 0 && opt.max_crashes <= opt.n_procs,
              "explore_iis: bad crash budget");

  struct Frame {
    std::vector<Value> value;
    ColorSet active;
  };

  ExploreStats stats;
  std::vector<rt::Partition> schedule;
  std::vector<ColorSet> crashes;
  std::vector<int> rounds_taken(static_cast<std::size_t>(opt.n_procs), 0);
  int crashed_count = 0;
  bool stop = false;

  // Color permutations for symmetry reduction (identity excluded); `tied`
  // carries the indices of permutations that fix the current prefix.
  std::vector<std::vector<int>> perms;
  std::vector<int> all_tied;
  if (opt.symmetry_reduction) {
    std::vector<int> p(static_cast<std::size_t>(opt.n_procs));
    for (int i = 0; i < opt.n_procs; ++i) p[static_cast<std::size_t>(i)] = i;
    while (std::next_permutation(p.begin(), p.end())) perms.push_back(p);
    all_tied.resize(perms.size());
    for (std::size_t i = 0; i < perms.size(); ++i) {
      all_tied[i] = static_cast<int>(i);
    }
  }

  auto emit = [&](const Frame& frame) {
    if (opt.cancel != nullptr && opt.cancel->load(std::memory_order_relaxed)) {
      stats.truncated = true;
      stop = true;
      return;
    }
    if (opt.max_executions != 0 && stats.executions >= opt.max_executions) {
      stats.truncated = true;
      stop = true;
      return;
    }
    if (opt.run_filter && !opt.run_filter(schedule, crashes)) {
      ++stats.filtered;
      return;
    }
    ++stats.executions;
    ColorSet crashed;
    for (ColorSet c : crashes) crashed = crashed.unite(c);
    if (!crashed.empty()) ++stats.crashy_executions;
    at_end(Execution<Value>{schedule, crashes, crashed, frame.value,
                            rounds_taken});
  };

  auto rec = [&](auto&& self, const Frame& frame, int round,
                 const std::vector<int>& tied) -> void {
    if (stop) return;
    if (round == opt.rounds || frame.active.empty()) {
      emit(frame);
      return;
    }

    // One branch per (crash set, ordered partition of the survivors).
    auto try_round = [&](ColorSet crash_set, const rt::Partition& part) {
      if (stop) return;
      // Symmetry: compare this round's signature against every still-tied
      // permutation of it.
      std::vector<int> tied2;
      if (!tied.empty()) {
        detail::RoundSig sig;
        sig.push_back(crash_set.mask());
        for (ColorSet block : part) sig.push_back(block.mask());
        for (int pi : tied) {
          const detail::RoundSig permuted =
              detail::permute_sig(sig, perms[static_cast<std::size_t>(pi)]);
          if (permuted < sig) {
            ++stats.symmetry_pruned;
            return;  // an equivalent smaller execution will be explored
          }
          if (permuted == sig) tied2.push_back(pi);
        }
      }

      Frame next = frame;
      next.active = frame.active.minus(crash_set);
      rt::IisSnapshot<Value> written;
      for (ColorSet block : part) {
        for (Color p : block) {
          written.emplace_back(p, next.value[static_cast<std::size_t>(p)]);
        }
        std::sort(written.begin(), written.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        for (Color p : block) {
          ++rounds_taken[static_cast<std::size_t>(p)];
          rt::Step<Value> step = on_view(p, round, written);
          if (step.kind == rt::Step<Value>::Kind::kContinue) {
            next.value[static_cast<std::size_t>(p)] = std::move(step.next);
          } else {
            next.active = next.active.without(p);
          }
        }
      }

      schedule.push_back(part);
      crashes.push_back(crash_set);
      crashed_count += crash_set.size();
      self(self, next, round + 1, tied2);
      crashed_count -= crash_set.size();
      crashes.pop_back();
      schedule.pop_back();
      for (ColorSet block : part) {
        for (Color p : block) --rounds_taken[static_cast<std::size_t>(p)];
      }
    };

    auto with_crash_set = [&](ColorSet crash_set) {
      ColorSet live = frame.active.minus(crash_set);
      if (live.empty()) {
        // Everyone remaining crashed: the execution ends with an empty round.
        try_round(crash_set, rt::Partition{});
        return;
      }
      std::vector<Color> procs(live.begin(), live.end());
      topo::for_each_ordered_partition(
          static_cast<int>(procs.size()),
          [&](const topo::OrderedPartition& op) {
            rt::Partition part;
            part.reserve(op.size());
            for (const std::vector<int>& block : op) {
              ColorSet b;
              for (int pos : block) {
                b = b.with(procs[static_cast<std::size_t>(pos)]);
              }
              part.push_back(b);
            }
            try_round(crash_set, part);
          });
    };

    with_crash_set(ColorSet{});  // crash-free branches first
    const int budget = opt.max_crashes - crashed_count;
    if (budget > 0) {
      for_each_nonempty_subset(frame.active, [&](ColorSet crash_set) {
        if (crash_set.size() <= budget) with_crash_set(crash_set);
      });
    }
  };

  Frame root;
  root.value.resize(static_cast<std::size_t>(opt.n_procs));
  root.active = ColorSet::full(opt.n_procs);
  for (Color p : root.active) {
    root.value[static_cast<std::size_t>(p)] = init(p);
  }
  rec(rec, root, 0, all_tied);
  return stats;
}

/// A crash plan: (round, processor) pairs -- the processor performs no
/// WriteRead at that round or later.
using CrashPlan = std::vector<std::pair<int, Color>>;

/// Crash-fault injector: wraps a base adversary and silences the planned
/// processors.  rt::Adversary's contract requires partitions to cover the
/// active set exactly, so crash-AWARE executors (run_iis_crashing below, the
/// conformance runner) remove crashes_at(round) from the active set first;
/// partition() also subtracts them defensively so the injector composes with
/// any base adversary.
class CrashAdversary final : public rt::Adversary {
 public:
  CrashAdversary(rt::Adversary& base, CrashPlan plan);

  /// Processors newly silenced at `round`.
  [[nodiscard]] ColorSet crashes_at(int round) const;
  /// Processors silenced at any round <= `round`.
  [[nodiscard]] ColorSet crashed_by(int round) const;
  [[nodiscard]] int planned_crashes() const noexcept {
    return static_cast<int>(plan_.size());
  }

  rt::Partition partition(int round, ColorSet active) override;

 private:
  rt::Adversary* base_;
  CrashPlan plan_;
};

struct CrashRunStats {
  rt::IisRunStats iis;  // schedule of live partitions, rounds per processor
  ColorSet crashed;     // processors silenced during the run
};

/// run_iis with crash injection: before each round the processors in
/// adversary.crashes_at(round) stop for good; survivors follow the base
/// schedule.  Throws std::logic_error if a SURVIVOR is still running after
/// max_rounds (crashed processors are exempt from the halting requirement).
template <typename Value>
CrashRunStats run_iis_crashing(
    int n_procs, CrashAdversary& adversary, int max_rounds,
    const std::function<Value(int)>& init,
    const std::function<rt::Step<Value>(int, int, const rt::IisSnapshot<Value>&)>&
        on_view) {
  WFC_REQUIRE(n_procs >= 1 && n_procs <= kMaxColors,
              "run_iis_crashing: bad n_procs");
  WFC_REQUIRE(max_rounds >= 0, "run_iis_crashing: negative max_rounds");

  CrashRunStats stats;
  stats.iis.rounds_taken.assign(static_cast<std::size_t>(n_procs), 0);
  std::vector<Value> value(static_cast<std::size_t>(n_procs));
  ColorSet active = ColorSet::full(n_procs);
  for (Color p : active) value[static_cast<std::size_t>(p)] = init(p);

  for (int round = 0; round < max_rounds && !active.empty(); ++round) {
    const ColorSet newly = adversary.crashes_at(round).intersect(active);
    stats.crashed = stats.crashed.unite(newly);
    active = active.minus(newly);
    if (active.empty()) break;

    rt::Partition part = adversary.partition(round, active);
    rt::validate_partition(part, active);
    stats.iis.schedule.push_back(part);
    ++stats.iis.rounds_executed;

    rt::IisSnapshot<Value> written;
    ColorSet halted;
    for (ColorSet block : part) {
      for (Color p : block) {
        written.emplace_back(p, value[static_cast<std::size_t>(p)]);
      }
      std::sort(written.begin(), written.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (Color p : block) {
        ++stats.iis.rounds_taken[static_cast<std::size_t>(p)];
        rt::Step<Value> step = on_view(p, round, written);
        if (step.kind == rt::Step<Value>::Kind::kContinue) {
          value[static_cast<std::size_t>(p)] = std::move(step.next);
        } else {
          halted = halted.with(p);
        }
      }
    }
    active = active.minus(halted);
  }
  WFC_CHECK(active.empty(),
            "run_iis_crashing: survivors still running after max_rounds");
  return stats;
}

}  // namespace wfc::chk
