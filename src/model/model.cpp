#include "model/model.hpp"

#include <algorithm>
#include <array>
#include <sstream>
#include <stdexcept>

#include "common/assert.hpp"

namespace wfc::model {

namespace {

std::uint64_t fnv1a_str(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Re-roots rounds [from, from+len) of `run` as a standalone run: window
/// participants are the processors that write inside the window (a crash at
/// the window's first round becomes non-participation, mirroring RunDesc's
/// round-0 normalization).
RunDesc window_run(const RunDesc& run, int from, int len) {
  RunDesc w;
  w.n_sys = run.n_sys;
  for (int r = from; r < from + len; ++r) {
    const RunRound& src = run.rounds[static_cast<std::size_t>(r)];
    RunRound dst;
    dst.blocks = src.blocks;
    if (r > from) dst.crashed = src.crashed;
    w.rounds.push_back(std::move(dst));
    for (const ColorSet& b : src.blocks) {
      w.participants = w.participants.unite(b);
    }
  }
  // Crashes of processors that never wrote in the window are dropped; keep
  // only crash marks of window participants.
  for (RunRound& r : w.rounds) r.crashed = r.crashed.intersect(w.participants);
  return w;
}

}  // namespace

ColorSet RunDesc::crashed() const {
  ColorSet out;
  for (const RunRound& r : rounds) out = out.unite(r.crashed);
  return out.intersect(participants);
}

ColorSet RunDesc::survivors() const { return participants.minus(crashed()); }

std::string RunDesc::signature() const {
  std::ostringstream os;
  os << "n" << n_sys << ":q" << participants.mask();
  for (const RunRound& r : rounds) {
    os << ";";
    for (std::size_t i = 0; i < r.blocks.size(); ++i) {
      if (i) os << "|";
      os << r.blocks[i].mask();
    }
    if (!r.crashed.empty()) os << "!" << r.crashed.mask();
  }
  return os.str();
}

int run_concurrency(const RunDesc& run, int from_round) {
  const int b = static_cast<int>(run.rounds.size());
  if (from_round < 0) from_round = 0;
  // Rounds with at least one block, in order, starting at from_round.
  struct Round {
    const std::vector<ColorSet>* blocks;
  };
  constexpr int kMaxRounds = 8;
  int nr = 0;
  for (int r = from_round; r < b; ++r) {
    if (!run.rounds[static_cast<std::size_t>(r)].blocks.empty()) ++nr;
  }
  if (nr == 0) return 0;
  WFC_REQUIRE(nr <= kMaxRounds, "run_concurrency: too many rounds");
  std::array<Round, kMaxRounds> rounds{};
  for (int r = from_round, i = 0; r < b; ++r) {
    const auto& blocks = run.rounds[static_cast<std::size_t>(r)].blocks;
    if (!blocks.empty()) rounds[static_cast<std::size_t>(i++)] = Round{&blocks};
  }

  // Per processor: first/last round index (within `rounds`) and block index
  // per round it participates in.
  ColorSet procs;
  for (int r = 0; r < nr; ++r) {
    for (const ColorSet& blk : *rounds[static_cast<std::size_t>(r)].blocks) {
      procs = procs.unite(blk);
    }
  }
  std::array<int, kMaxColors> first;
  std::array<int, kMaxColors> last;
  first.fill(-1);
  last.fill(-1);
  std::array<std::array<int, kMaxColors>, kMaxRounds> block_of;
  for (auto& row : block_of) row.fill(-1);
  for (int r = 0; r < nr; ++r) {
    const auto& blocks = *rounds[static_cast<std::size_t>(r)].blocks;
    for (int j = 0; j < static_cast<int>(blocks.size()); ++j) {
      for (Color p : blocks[static_cast<std::size_t>(j)]) {
        block_of[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)] = j;
        if (first[static_cast<std::size_t>(p)] < 0) {
          first[static_cast<std::size_t>(p)] = r;
        }
        last[static_cast<std::size_t>(p)] = r;
      }
    }
  }

  // DFS over block-consumption states c[r] = blocks of round r fired so
  // far.  A round-r block fires only after each member's round-(r-1) block
  // (its previous event) has fired; cost of a firing is the number of
  // started-but-unfinished processors plus the firing block's members.
  // value(state) = min over next firings of max(cost, value(next)), memoized
  // in a flat table indexed by the state read as a mixed-radix number (digit
  // r is c[r], in 0..blocks of round r).
  std::array<int, kMaxRounds> c{};
  std::array<std::size_t, kMaxRounds> stride{};
  std::size_t states = 1;
  for (int r = 0; r < nr; ++r) {
    stride[static_cast<std::size_t>(r)] = states;
    states *= rounds[static_cast<std::size_t>(r)].blocks->size() + 1;
  }
  WFC_REQUIRE(states <= (std::size_t{1} << 24),
              "run_concurrency: too many block states");
  constexpr std::int8_t kUnknown = -1;
  std::vector<std::int8_t> memo(states, kUnknown);
  std::size_t at = 0;  // index of the current state c
  const int kInf = kMaxColors + 1;

  auto fired = [&](Color p, int r) {
    return block_of[static_cast<std::size_t>(r)][static_cast<std::size_t>(p)] <
           c[static_cast<std::size_t>(r)];
  };

  auto rec = [&](auto&& self) -> int {
    bool done = true;
    for (int r = 0; r < nr; ++r) {
      if (c[static_cast<std::size_t>(r)] <
          static_cast<int>(rounds[static_cast<std::size_t>(r)].blocks->size())) {
        done = false;
        break;
      }
    }
    if (done) return 0;
    const std::size_t here = at;
    if (memo[here] != kUnknown) return memo[here];
    memo[here] = kInf;  // cycle guard (the DAG has none, but be safe)

    int best = kInf;
    for (int r = 0; r < nr; ++r) {
      const auto& blocks = *rounds[static_cast<std::size_t>(r)].blocks;
      const int j = c[static_cast<std::size_t>(r)];
      if (j >= static_cast<int>(blocks.size())) continue;
      const ColorSet blk = blocks[static_cast<std::size_t>(j)];
      bool ready = true;
      if (r > 0) {
        for (Color p : blk) {
          // A member live in round r took round r-1 too (crashes only
          // truncate suffixes), so its previous event is in round r-1.
          if (block_of[static_cast<std::size_t>(r - 1)]
                      [static_cast<std::size_t>(p)] >= 0 &&
              !fired(p, r - 1)) {
            ready = false;
            break;
          }
        }
      }
      if (!ready) continue;
      // Active set at this firing.
      ColorSet active = blk;
      for (Color p : procs) {
        const int f = first[static_cast<std::size_t>(p)];
        const int l = last[static_cast<std::size_t>(p)];
        if (fired(p, f) && !fired(p, l)) active = active.with(p);
      }
      const int cost = active.size();
      if (cost >= best) continue;  // cannot improve along this branch
      ++c[static_cast<std::size_t>(r)];
      at += stride[static_cast<std::size_t>(r)];
      const int sub = self(self);
      at -= stride[static_cast<std::size_t>(r)];
      --c[static_cast<std::size_t>(r)];
      best = std::min(best, std::max(cost, sub));
    }
    memo[here] = static_cast<std::int8_t>(best);
    return best;
  };
  return rec(rec);
}

Model::Model(Kind kind, int param, std::string name)
    : kind_(kind), param_(param), name_(std::move(name)) {
  tag_ = kind_ == Kind::kWaitFree ? 0 : fnv1a_str(name_);
}

std::shared_ptr<const Model> Model::wait_free() {
  static const std::shared_ptr<const Model> instance(
      new Model(Kind::kWaitFree, 0, "wait_free"));
  return instance;
}

std::shared_ptr<const Model> Model::t_resilient(int t) {
  WFC_REQUIRE(t >= 0 && t < kMaxColors, "t_resilient: bad t");
  return std::shared_ptr<const Model>(new Model(
      Kind::kTResilient, t, "t_resilient(" + std::to_string(t) + ")"));
}

std::shared_ptr<const Model> Model::k_concurrency(int k) {
  WFC_REQUIRE(k >= 1 && k <= kMaxColors, "k_concurrency: bad k");
  return std::shared_ptr<const Model>(new Model(
      Kind::kKConcurrency, k, "k_concurrency(" + std::to_string(k) + ")"));
}

std::shared_ptr<const Model> Model::k_obstruction_free(int k) {
  WFC_REQUIRE(k >= 1 && k <= kMaxColors, "k_obstruction_free: bad k");
  return std::shared_ptr<const Model>(
      new Model(Kind::kKObstructionFree, k,
                "k_obstruction_free(" + std::to_string(k) + ")"));
}

std::shared_ptr<const Model> Model::affine(
    int m, std::shared_ptr<const Model> inner) {
  WFC_REQUIRE(m >= 1 && m <= 8, "affine: bad window");
  WFC_REQUIRE(inner != nullptr, "affine: null inner model");
  auto model = std::shared_ptr<Model>(new Model(
      Kind::kAffine, m,
      "affine(" + std::to_string(m) + ";" + inner->name() + ")"));
  model->window_ = m;
  model->inner_ = std::move(inner);
  return model;
}

std::shared_ptr<const Model> Model::affine_from_windows(
    std::string name, int m, std::set<std::string> windows) {
  WFC_REQUIRE(m >= 1 && m <= 8, "affine_from_windows: bad window");
  auto model =
      std::shared_ptr<Model>(new Model(Kind::kAffine, m, std::move(name)));
  model->window_ = m;
  model->windows_ = std::move(windows);
  model->has_window_set_ = true;
  return model;
}

std::shared_ptr<const Model> Model::parse(const std::string& name) {
  auto bad = [&]() -> std::shared_ptr<const Model> {
    throw std::invalid_argument("unknown model: " + name);
  };
  if (name == "wait_free") return wait_free();
  auto int_arg = [&](const std::string& prefix) -> int {
    const std::string body =
        name.substr(prefix.size(), name.size() - prefix.size() - 1);
    if (body.empty() ||
        body.find_first_not_of("0123456789") != std::string::npos ||
        body.size() > 2) {
      throw std::invalid_argument("unknown model: " + name);
    }
    return std::stoi(body);
  };
  auto is_call = [&](const std::string& prefix) {
    return name.size() > prefix.size() + 1 && name.rfind(prefix, 0) == 0 &&
           name.back() == ')';
  };
  try {
    if (is_call("t_resilient(")) return t_resilient(int_arg("t_resilient("));
    if (is_call("k_concurrency(")) {
      return k_concurrency(int_arg("k_concurrency("));
    }
    if (is_call("k_obstruction_free(")) {
      return k_obstruction_free(int_arg("k_obstruction_free("));
    }
    if (is_call("affine(")) {
      const std::string body = name.substr(7, name.size() - 8);
      const std::size_t semi = body.find(';');
      if (semi == std::string::npos || semi == 0 || semi + 1 >= body.size()) {
        return bad();
      }
      const std::string m_str = body.substr(0, semi);
      if (m_str.find_first_not_of("0123456789") != std::string::npos ||
          m_str.size() > 1) {
        return bad();
      }
      return affine(std::stoi(m_str), parse(body.substr(semi + 1)));
    }
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception&) {
    return bad();
  }
  return bad();
}

bool Model::admits(const RunDesc& run) const {
  const int b = static_cast<int>(run.rounds.size());
  switch (kind_) {
    case Kind::kWaitFree:
      return true;
    case Kind::kTResilient: {
      const int failures =
          (run.n_sys - run.participants.size()) + run.crashed().size();
      if (failures > param_) return false;
      for (const RunRound& r : run.rounds) {
        if (r.blocks.empty()) continue;  // all-crash tail; no survivors
        if (r.blocks.front().size() < run.n_sys - param_) return false;
      }
      return true;
    }
    case Kind::kKConcurrency:
      return run_concurrency(run, 0) <= param_;
    case Kind::kKObstructionFree: {
      if (b == 0) return true;
      for (int r0 = 0; r0 < b; ++r0) {
        if (run_concurrency(run, r0) <= param_) return true;
      }
      return false;
    }
    case Kind::kAffine: {
      if (b == 0) return true;
      if (b % window_ != 0) return false;
      for (int w = 0; w < b / window_; ++w) {
        const RunDesc win = window_run(run, w * window_, window_);
        if (has_window_set_) {
          if (windows_.find(win.signature()) == windows_.end()) return false;
        } else {
          if (!inner_->admits(win)) return false;
        }
      }
      return true;
    }
  }
  return false;
}

std::uint64_t mix_fingerprint(std::uint64_t fingerprint,
                              std::uint64_t model_tag) {
  if (model_tag == 0) return fingerprint;
  std::uint64_t z = fingerprint ^ model_tag;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace wfc::model
