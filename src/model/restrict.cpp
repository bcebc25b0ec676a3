#include "model/restrict.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "common/assert.hpp"

namespace wfc::model {

namespace {

using topo::Arena;
using topo::ChromaticComplex;
using topo::Simplex;
using topo::VertexId;

/// Every vertex key of one tower level, parsed once: the key
/// "<color>@<v1>,<v2>,..." gives the vertex's color and its view (sorted
/// vertex ids one level down; subdivision.cpp).
class ParsedLevel {
 public:
  explicit ParsedLevel(const Arena& arena) {
    const std::uint32_t n = arena.num_vertices();
    colors_.reserve(n);
    view_idx_.reserve(std::size_t{n} + 1);
    view_idx_.push_back(0);
    for (VertexId v = 0; v < n; ++v) parse(arena.key(v));
  }

  [[nodiscard]] Color color(VertexId v) const { return colors_[v]; }
  [[nodiscard]] std::span<const VertexId> view(VertexId v) const {
    return std::span<const VertexId>(views_).subspan(
        view_idx_[v], view_idx_[v + 1] - view_idx_[v]);
  }

 private:
  void parse(std::string_view key) {
    const std::size_t at = key.find('@');
    WFC_CHECK(at != std::string_view::npos && at > 0,
              "model: vertex key is not an SDS view key");
    Color color = 0;
    for (char c : key.substr(0, at)) {
      WFC_CHECK(c >= '0' && c <= '9' && color < kMaxColors,
                "model: bad color in SDS key");
      color = color * 10 + (c - '0');
    }
    VertexId v = 0;
    bool have = false;
    for (char c : key.substr(at + 1)) {
      if (c == ',') {
        WFC_CHECK(have, "model: empty id in SDS key view");
        views_.push_back(v);
        v = 0;
        have = false;
      } else {
        WFC_CHECK(c >= '0' && c <= '9', "model: bad id in SDS key view");
        v = v * 10 + static_cast<VertexId>(c - '0');
        have = true;
      }
    }
    WFC_CHECK(have, "model: empty SDS key view");
    views_.push_back(v);
    colors_.push_back(color);
    view_idx_.push_back(static_cast<std::uint32_t>(views_.size()));
  }

  std::vector<Color> colors_;
  std::vector<std::uint32_t> view_idx_;
  std::vector<VertexId> views_;
};

/// One descent step: groups the vertices of `simplex` by equal views into
/// the round's blocks (view-size order is the snapshot containment chain),
/// written to *blocks, and returns the parent simplex one level down (the
/// largest view).
std::span<const VertexId> step_down(const ParsedLevel& level,
                                    std::span<const VertexId> simplex,
                                    std::vector<ColorSet>* blocks) {
  struct Group {
    std::span<const VertexId> view;
    ColorSet colors;
  };
  std::vector<Group> groups;
  groups.reserve(simplex.size());
  for (VertexId v : simplex) {
    const std::span<const VertexId> view = level.view(v);
    auto it = std::find_if(groups.begin(), groups.end(), [&](const Group& g) {
      return std::ranges::equal(g.view, view);
    });
    if (it == groups.end()) it = groups.insert(groups.end(), Group{view, {}});
    it->colors = it->colors.with(level.color(v));
  }
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return a.view.size() < b.view.size();
  });
  blocks->clear();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (i > 0) {
      const auto& small = groups[i - 1].view;
      const auto& big = groups[i].view;
      WFC_CHECK(small.size() < big.size() &&
                    std::includes(big.begin(), big.end(), small.begin(),
                                  small.end()),
                "model: views are not a containment chain");
    }
    blocks->push_back(groups[i].colors);
  }
  return groups.back().view;
}

ColorSet span_colors(const Arena& arena, std::span<const VertexId> s) {
  ColorSet out;
  for (VertexId v : s) {
    out = out.with(static_cast<Color>(arena.colors()[v]));
  }
  return out;
}

ColorSet span_carrier(const Arena& arena, std::span<const VertexId> s) {
  ColorSet out;
  for (VertexId v : s) {
    out = out.unite(ColorSet(arena.carrier_masks()[v]));
  }
  return out;
}

/// A run as words: n_sys, the participants' mask, then per round the
/// crashed mask, the block count and the block masks.  Equal runs (and only
/// equal runs) have equal words, as with RunDesc::signature().
using RunKey = std::vector<std::uint32_t>;

RunDesc run_of(const RunKey& key, int rounds) {
  RunDesc run;
  run.n_sys = static_cast<int>(key[0]);
  run.participants = ColorSet(key[1]);
  run.rounds.resize(static_cast<std::size_t>(rounds));
  std::size_t i = 2;
  for (RunRound& rr : run.rounds) {
    rr.crashed = ColorSet(key[i++]);
    const std::uint32_t nb = key[i++];
    rr.blocks.reserve(nb);
    for (std::uint32_t j = 0; j < nb; ++j) rr.blocks.emplace_back(key[i++]);
  }
  return run;
}

struct Judged {
  std::uint64_t admitted = 0;  // distinct runs judge() admitted
  std::uint64_t rejected = 0;  // distinct runs judge() refused
  /// (facet index, survivor colors) of every run judge() admitted, once
  /// per facet that carries it: the survivor simplices, duplicates included.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> kept;
};

/// Enumerates every distinct run carried by level `level` of `chain`
/// restricted to the facets of `facets_arena` (chain.arena(level) for the
/// whole level): full-information runs plus every crash embedding; runs
/// with no survivor are skipped.  The top descent step parses keys from
/// `facets_arena` (which may be a pruned subcomplex with its own vertex
/// ids), lower steps from the chain's own levels; each level's keys are
/// parsed once.  judge(run) is called once per distinct run, the first
/// time any facet carries it; a run's RunDesc is built only then.
Judged for_each_run(const proto::SdsChain& chain, int level,
                    const Arena& facets_arena,
                    const std::function<bool(const RunDesc&)>& judge) {
  WFC_REQUIRE(level >= 0 && level <= chain.depth(),
              "for_each_run: level out of range");
  const int n_sys = facets_arena.n_colors();
  const int b = level;

  // levels[l - 1] parses tower level l; the top is facets_arena itself.
  std::vector<ParsedLevel> levels;
  for (int l = 1; l < b; ++l) levels.emplace_back(chain.arena(l));
  if (b >= 1) levels.emplace_back(facets_arena);

  Judged out;
  std::unordered_map<RunKey, bool, topo::SimplexHash> verdicts;
  verdicts.reserve(facets_arena.num_facets());  // about one run per facet
  RunKey key;
  const auto consider = [&](std::uint32_t f, ColorSet survivors) {
    auto [it, fresh] = verdicts.try_emplace(key, false);
    if (fresh) {
      it->second = judge(run_of(key, b));
      ++(it->second ? out.admitted : out.rejected);
    }
    if (it->second) out.kept.emplace_back(f, survivors.mask());
  };

  std::vector<std::vector<ColorSet>> schedule(static_cast<std::size_t>(b));
  for (std::uint32_t f = 0; f < facets_arena.num_facets(); ++f) {
    const std::span<const VertexId> fv = facets_arena.facet(f);
    const ColorSet colors = span_colors(facets_arena, fv);
    // The crash embedding is enumerated on top of a FULL-INFORMATION
    // simplex: its colors must equal its carrier colors (every processor
    // anyone saw survived to the facet).  restrict_level only emits such
    // facets for the canonical models; see affine_task_windows.
    WFC_REQUIRE(span_carrier(facets_arena, fv) == colors,
                "for_each_run: facet is not full-information");
    const int q = colors.size();
    WFC_CHECK(q == static_cast<int>(fv.size()),
              "for_each_run: non-rainbow facet");

    if (b == 0) {
      // 0-round runs: participation only.
      for (std::uint32_t sub = colors.mask(); sub != 0;
           sub = (sub - 1) & colors.mask()) {
        key.assign({static_cast<std::uint32_t>(n_sys), sub});
        consider(f, ColorSet(sub));
      }
      continue;
    }

    // Recover the schedule (round 0 first) by descending the tower.
    std::span<const VertexId> cur = fv;
    for (int l = b; l >= 1; --l) {
      const auto li = static_cast<std::size_t>(l - 1);
      cur = step_down(levels[li], cur, &schedule[li]);
    }

    // The crash assignments give every color a crash round in 0..b (0 =
    // never participated, b = survived).  One is valid iff at every round
    // the crashed-so-far colors occupy the trailing singleton blocks, so
    // the valid ones are generated directly: by round r the last k_r blocks
    // of round r have crashed, for k_r over the trailing singletons, with
    // the crashed sets growing from round to round.  The run key is built
    // alongside, one round per recursion level.
    double cost = 1;
    for (int i = 0; i < q; ++i) cost *= b + 1;
    WFC_REQUIRE(cost <= 4e6, "for_each_run: crash enumeration too large");

    key.assign({static_cast<std::uint32_t>(n_sys), 0});
    const auto crash = [&](const auto& self, int r, ColorSet before) -> void {
      if (r == b) {
        const ColorSet survivors = colors.minus(before);
        if (!survivors.empty()) consider(f, survivors);
        return;
      }
      const auto& blocks = schedule[static_cast<std::size_t>(r)];
      const std::size_t nb = blocks.size();
      const std::size_t mark = key.size();
      ColorSet gone;  // crashed by round r: the last k blocks
      for (std::size_t k = 0;; ++k) {
        if (before.subset_of(gone)) {
          if (r == 0) key[1] = colors.minus(gone).mask();  // participants
          key.push_back(r >= 1 ? gone.minus(before).mask() : 0);
          key.push_back(static_cast<std::uint32_t>(nb - k));
          for (std::size_t j = 0; j < nb - k; ++j) {
            key.push_back(blocks[j].mask());
          }
          self(self, r + 1, gone);
          key.resize(mark);
        }
        if (k == nb || blocks[nb - 1 - k].size() != 1) break;
        gone = gone.unite(blocks[nb - 1 - k]);
      }
    };
    crash(crash, 0, ColorSet{});
  }
  return out;
}

}  // namespace

Restriction restrict_level(const proto::SdsChain& chain, int level,
                           const Model& model) {
  const Arena arena = chain.arena(level);
  Restriction out;

  Judged judged = for_each_run(
      chain, level, arena, [&](const RunDesc& run) { return model.admits(run); });
  out.runs_admitted = judged.admitted;
  out.runs_rejected = judged.rejected;

  // The kept survivor simplices, deduplicated in lexicographic order.
  std::vector<Simplex> kept;
  kept.reserve(judged.kept.size());
  for (const auto& [f, mask] : judged.kept) {
    Simplex sx;
    for (VertexId v : arena.facet(f)) {
      if (ColorSet(mask).contains(static_cast<Color>(arena.colors()[v]))) {
        sx.push_back(v);
      }
    }
    kept.push_back(topo::make_simplex(std::move(sx)));
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());

  // Maximal kept simplices, in that order: a simplex is covered iff a
  // larger kept simplex through its least-used vertex contains it.
  std::vector<std::uint32_t> through_idx(arena.num_vertices() + 1, 0);
  for (const Simplex& s : kept) {
    for (VertexId v : s) ++through_idx[v + 1];
  }
  for (std::size_t v = 0; v < arena.num_vertices(); ++v) {
    through_idx[v + 1] += through_idx[v];
  }
  std::vector<const Simplex*> through(through_idx.back());
  {
    std::vector<std::uint32_t> fill(through_idx.begin(), through_idx.end() - 1);
    for (const Simplex& s : kept) {
      for (VertexId v : s) through[fill[v]++] = &s;
    }
  }
  std::vector<const Simplex*> maximal;
  for (const Simplex& s : kept) {
    const auto uses = [&](VertexId v) {
      return through_idx[v + 1] - through_idx[v];
    };
    const VertexId least = *std::min_element(
        s.begin(), s.end(),
        [&](VertexId a, VertexId b) { return uses(a) < uses(b); });
    const bool covered = std::any_of(
        through.begin() + through_idx[least],
        through.begin() + through_idx[least + 1], [&](const Simplex* t) {
          return t->size() > s.size() &&
                 std::includes(t->begin(), t->end(), s.begin(), s.end());
        });
    if (!covered) maximal.push_back(&s);
  }
  out.facets_kept = maximal.size();
  for (std::uint32_t f = 0; f < arena.num_facets(); ++f) {
    const auto fs = arena.facet(f);
    if (!std::binary_search(kept.begin(), kept.end(),
                            Simplex(fs.begin(), fs.end()))) {
      ++out.facets_dropped;
    }
  }

  // Rebuild the pruned level: kept vertices in ascending original order.
  std::vector<VertexId> remap(arena.num_vertices(), topo::kNoVertex);
  for (const Simplex* s : maximal) {
    for (VertexId v : *s) remap[v] = 0;
  }
  auto pruned = std::make_shared<ChromaticComplex>(arena.n_colors());
  for (VertexId v = 0; v < arena.num_vertices(); ++v) {
    if (remap[v] == topo::kNoVertex) continue;
    const auto bc = arena.base_carrier(v);
    const auto coords = arena.coords(v);
    remap[v] = pruned->add_vertex(
        static_cast<Color>(arena.colors()[v]), std::string(arena.key(v)),
        ColorSet(arena.carrier_masks()[v]),
        std::vector<double>(coords.begin(), coords.end()),
        Simplex(bc.begin(), bc.end()));
    out.to_base.push_back(v);
  }
  for (const Simplex* s : maximal) {
    Simplex facet;
    facet.reserve(s->size());
    for (VertexId v : *s) facet.push_back(remap[v]);
    pruned->add_facet(topo::make_simplex(std::move(facet)));
  }
  out.complex = pruned;
  out.arena = Arena::build(*pruned);
  return out;
}

std::set<std::string> affine_task_windows(const proto::SdsChain& chain, int m,
                                          const Arena& affine_arena) {
  std::set<std::string> out;
  for_each_run(chain, m, affine_arena, [&](const RunDesc& run) {
    out.insert(run.signature());
    return false;
  });
  return out;
}

std::shared_ptr<const proto::SdsChain> restricted_tower(
    const proto::SdsChain& full, int depth, const Model& model,
    const std::shared_ptr<const proto::SdsChain>& prior,
    std::uint64_t* runs_admitted, std::uint64_t* runs_rejected) {
  WFC_REQUIRE(depth >= 0 && depth <= full.depth(),
              "restricted_tower: depth out of range");
  std::vector<Arena> arenas;
  arenas.reserve(static_cast<std::size_t>(depth) + 1);
  int start = 0;
  if (prior != nullptr) {
    const int reuse = std::min(prior->depth(), depth);
    for (int r = 0; r <= reuse; ++r) arenas.push_back(prior->arena(r));
    start = reuse + 1;
  }
  for (int r = start; r <= depth; ++r) {
    Restriction res = restrict_level(full, r, model);
    if (runs_admitted != nullptr) *runs_admitted += res.runs_admitted;
    if (runs_rejected != nullptr) *runs_rejected += res.runs_rejected;
    arenas.push_back(std::move(res.arena));
  }
  return std::make_shared<proto::SdsChain>(
      std::make_shared<ArenaVectorBacking>(std::move(arenas)));
}

}  // namespace wfc::model
