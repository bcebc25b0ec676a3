// SdsChain: the tower I, SDS(I), SDS^2(I), ..., SDS^b(I) with vertex
// location for live executions.
//
// A processor running the full-information IIS protocol can always name its
// own vertex: at round r it holds a set of (color, vertex-at-level-r) pairs
// -- its immediate snapshot -- and its level-(r+1) vertex is the interned
// SDS vertex (own color, that set).  This is the operational content of
// Lemma 3.3: local states after r rounds ARE vertices of SDS^r(I).  The
// solvability checker compiles decision maps against the top level, and the
// runtime looks itself up here to decide.
//
// A level is its flat topo::Arena; the ChromaticComplex form is
// materialized from the arena only when asked for (level(), top(),
// locate()), once per level.  In-memory levels >= 1 are written arena to
// arena by topo::subdivide; level 0 is Arena::build of the input, which
// also serves as level 0's complex.
//
// Levels are held through shared_ptr and immutable once built (a level's
// lazily materialized complex included), so chains over the same input can
// SHARE them: SdsChain(prefix, depth) reuses every already-built level of
// `prefix` and only subdivides beyond its top (or merely re-points at a
// prefix of the levels when depth <= prefix.depth()).  A shared level's
// complex is materialized at most once across every chain holding it.
// Iterated subdivision dominates every workload in this library; the
// service-layer cache (src/service) leans on this to compute SDS^k(I) once
// per input across queries and levels.
//
// A chain may also be BACKED: constructed over a ChainBacking that can hand
// out each level as a flat topo::Arena (in practice an mmap'ed region of
// the persistent chain store, shared read-only across processes).  The
// arena-core solver (tasks/arena_search) runs straight off the mapped
// spans, so a warm restart never rebuilds or even copies the tower, and
// extending a backed chain subdivides the mapped top arena directly.
// `arena(r)` is the uniform accessor.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "topology/arena.hpp"
#include "topology/complex.hpp"
#include "topology/subdivision.hpp"

namespace wfc::proto {

/// Source of pre-serialized chain levels (store/chain_store.cpp implements
/// this over an mmap).  `arena(r)` must be cheap -- a view, not a build.
class ChainBacking {
 public:
  virtual ~ChainBacking() = default;
  [[nodiscard]] virtual int depth() const = 0;
  [[nodiscard]] virtual topo::Arena arena(int r) const = 0;
};

class SdsChain {
 public:
  /// Builds levels 0..depth eagerly; level r is SDS^r(input).
  SdsChain(topo::ChromaticComplex input, int depth);

  /// Shares levels with `other`: levels 0..min(depth, other.depth()) are the
  /// same objects (no copy, no recomputation); levels beyond other.depth()
  /// are freshly subdivided.  Both extension (depth > other.depth()) and
  /// truncation (depth < other.depth()) are O(shared levels) pointer copies.
  SdsChain(const SdsChain& other, int depth);

  /// Adopts pre-serialized levels; depth() == backing->depth().  Arenas are
  /// zero-copy views into the backing.
  explicit SdsChain(std::shared_ptr<const ChainBacking> backing);

  [[nodiscard]] int depth() const noexcept { return depth_; }

  /// Level r complex; r = 0 is the input complex.  Materialized from the
  /// level's arena on first access (thread-safe, cached, shared with every
  /// chain sharing the level).
  [[nodiscard]] const topo::ChromaticComplex& level(int r) const;

  /// Top level, SDS^depth(input).
  [[nodiscard]] const topo::ChromaticComplex& top() const {
    return level(depth_);
  }

  /// Flat arena form of level r (a view into the backing for backed
  /// levels).  The returned Arena is a cheap value copy and stays valid
  /// independent of this chain.
  [[nodiscard]] topo::Arena arena(int r) const;

  /// Vertex count of level r WITHOUT materializing it (reads the arena
  /// header).  Lets the cache weigh chains without forcing the complex that
  /// laziness exists to avoid.
  [[nodiscard]] std::size_t level_vertex_count(int r) const;

  /// The vertex of level `r` (r >= 1) for a processor of color `c` whose
  /// round-(r-1) immediate snapshot contained exactly the level-(r-1)
  /// vertices `seen` (canonical simplex).  Throws std::logic_error if no
  /// such vertex exists -- i.e. if `seen` is not a legal view, which would
  /// contradict Lemma 3.2.
  [[nodiscard]] topo::VertexId locate(int r, Color c,
                                      const topo::Simplex& seen) const;

 private:
  struct Level;  // sds_chain.cpp

  // Requires mu_ held (or exclusive access in a constructor).  Slots are
  // written once and never reassigned, so references handed out under the
  // lock stay valid after it is released.
  const Level& ensure(int r) const;

  int depth_ = 0;
  std::shared_ptr<const ChainBacking> backing_;
  mutable std::mutex mu_;
  mutable std::vector<std::shared_ptr<const Level>> levels_;
};

}  // namespace wfc::proto
