// Arena-path derivation of the admissible subcomplex of SDS^level(I).
//
// The facets of SDS^b over a base facet F are in bijection with sequences
// of b ordered partitions of colors(F) (Lemma 3.2 iterated), and every
// level-l vertex key encodes its round-(l-1) view ("<color>@<v1>,<v2>,...",
// view ids at level l-1; subdivision.cpp).  The run enumerator
// (restrict.cpp) inverts the bijection by walking keys down the tower:
// group a simplex's vertices by equal views (the blocks), order blocks by
// view size (the containment chain), recurse into the largest view (the
// parent facet one level down).  Each level's keys are parsed once, and
// each distinct run is judged once, keyed by its masks.
//
// Crashes ride the chk::explore_iis embedding: a processor that crashes at
// round r is indistinguishable from one scheduled alone in the LAST block
// of every round >= r.  So the runs carried by a facet with schedule sigma
// are exactly the crash-round assignments (one per color; 0 = never
// participated, b = survived) under which every round's crashed-so-far set
// occupies the trailing singleton blocks of sigma; the run's survivor
// simplex is the facet minus the crashed colors' vertices.  The admissible
// subcomplex is the downward closure of the admissible runs' survivor
// simplices -- represented by its maximal simplices, pruned-and-rebuilt as
// a fresh ChromaticComplex + Arena with a map back to original vertex ids.
//
// oracle.hpp derives the same subcomplex a second way (live replay through
// chk::explore_iis + SdsChain::locate); verify_restriction cross-checks the
// two, which is the PR's main correctness argument.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "protocol/sds_chain.hpp"
#include "topology/arena.hpp"
#include "topology/complex.hpp"

namespace wfc::model {

/// The admissible subcomplex of one chain level, in both engine forms.
struct Restriction {
  /// Pruned level complex: kept vertices in ascending original-id order,
  /// maximal admissible simplices as facets in lexicographic order.
  std::shared_ptr<const topo::ChromaticComplex> complex;
  /// Arena::build(*complex) -- what the kArena engine searches.
  topo::Arena arena;
  /// to_base[pruned vertex id] = vertex id in SDS^level(I).
  std::vector<topo::VertexId> to_base;

  std::uint64_t runs_admitted = 0;   // distinct admissible runs
  std::uint64_t runs_rejected = 0;   // distinct runs the model refused
  std::uint64_t facets_kept = 0;     // maximal simplices of the subcomplex
  std::uint64_t facets_dropped = 0;  // original facets with no admissible run

  [[nodiscard]] bool empty() const {
    return complex == nullptr || complex->num_facets() == 0;
  }
};

/// Derives the admissible subcomplex of chain level `level` under `model`
/// by pruning the level's arena (see file comment).
Restriction restrict_level(const proto::SdsChain& chain, int level,
                           const Model& model);

/// Window-signature set of the runs of `affine_arena` viewed as a
/// subcomplex of chain level `m` -- the affine task A as input for
/// Model::affine_from_windows.  Iterating A admits a b-round run iff m | b
/// and every m-round window's signature is in this set.
std::set<std::string> affine_task_windows(const proto::SdsChain& chain, int m,
                                          const topo::Arena& affine_arena);

/// ChainBacking over a vector of arenas: how restricted towers (one pruned
/// arena per level) travel as proto::SdsChain through SdsCache and
/// store::ChainStore.
class ArenaVectorBacking final : public proto::ChainBacking {
 public:
  explicit ArenaVectorBacking(std::vector<topo::Arena> arenas)
      : arenas_(std::move(arenas)) {}
  [[nodiscard]] int depth() const override {
    return static_cast<int>(arenas_.size()) - 1;
  }
  [[nodiscard]] topo::Arena arena(int r) const override {
    return arenas_.at(static_cast<std::size_t>(r));
  }

 private:
  std::vector<topo::Arena> arenas_;
};

/// Builds (or extends) the restricted tower for `model` over `full`: level
/// r of the result is the pruned arena of restrict_level(full, r, model).
/// `prior` (may be null) contributes its already-pruned levels unchanged.
/// Totals of runs admitted/rejected across the NEW levels are added to the
/// optional counters.
std::shared_ptr<const proto::SdsChain> restricted_tower(
    const proto::SdsChain& full, int depth, const Model& model,
    const std::shared_ptr<const proto::SdsChain>& prior = nullptr,
    std::uint64_t* runs_admitted = nullptr,
    std::uint64_t* runs_rejected = nullptr);

}  // namespace wfc::model
