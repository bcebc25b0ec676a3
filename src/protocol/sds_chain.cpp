#include "protocol/sds_chain.hpp"

namespace wfc::proto {

/// One tower level: its arena, and the complex materialized from it on
/// first request.
struct SdsChain::Level {
  explicit Level(topo::Arena a) : arena(std::move(a)) {}
  Level(topo::Arena a, topo::ChromaticComplex c)
      : arena(std::move(a)),
        complex(std::make_unique<const topo::ChromaticComplex>(std::move(c))) {}

  const topo::ChromaticComplex& materialized() const {
    std::call_once(once, [this] {
      if (!complex) {
        complex = std::make_unique<const topo::ChromaticComplex>(
            arena.materialize());
      }
    });
    return *complex;
  }

  const topo::Arena arena;
  mutable std::once_flag once;
  mutable std::unique_ptr<const topo::ChromaticComplex> complex;
};

SdsChain::SdsChain(topo::ChromaticComplex input, int depth) : depth_(depth) {
  WFC_REQUIRE(depth >= 0, "SdsChain: negative depth");
  levels_.resize(static_cast<std::size_t>(depth) + 1);
  topo::Arena base = topo::Arena::build(input);
  levels_[0] = std::make_shared<const Level>(std::move(base), std::move(input));
  for (int r = 1; r <= depth; ++r) ensure(r);
}

SdsChain::SdsChain(const SdsChain& other, int depth) : depth_(depth) {
  WFC_REQUIRE(depth >= 0, "SdsChain: negative depth");
  const int shared = std::min(depth, other.depth_);
  levels_.resize(static_cast<std::size_t>(depth) + 1);
  backing_ = other.backing_;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    for (int r = 0; r <= shared; ++r) {
      levels_[static_cast<std::size_t>(r)] =
          other.levels_[static_cast<std::size_t>(r)];
    }
  }
  // Extension beyond the shared prefix subdivides from our own (possibly
  // backed) top; the constructor has exclusive access, no lock needed.
  for (int r = shared + 1; r <= depth; ++r) ensure(r);
}

SdsChain::SdsChain(std::shared_ptr<const ChainBacking> backing)
    : depth_(backing ? backing->depth() : 0), backing_(std::move(backing)) {
  WFC_REQUIRE(backing_ != nullptr, "SdsChain: null backing");
  WFC_REQUIRE(depth_ >= 0, "SdsChain: backing with negative depth");
  levels_.resize(static_cast<std::size_t>(depth_) + 1);
}

const SdsChain::Level& SdsChain::ensure(int r) const {
  auto& slot = levels_[static_cast<std::size_t>(r)];
  if (!slot) {
    if (backing_ && r <= backing_->depth()) {
      slot = std::make_shared<const Level>(backing_->arena(r));
    } else {
      WFC_CHECK(r > 0, "SdsChain: level 0 has no source");
      slot =
          std::make_shared<const Level>(topo::subdivide(ensure(r - 1).arena));
    }
  }
  return *slot;
}

const topo::ChromaticComplex& SdsChain::level(int r) const {
  WFC_REQUIRE(r >= 0 && r <= depth_, "SdsChain::level: out of range");
  const Level* l = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    l = &ensure(r);
  }
  return l->materialized();
}

topo::Arena SdsChain::arena(int r) const {
  WFC_REQUIRE(r >= 0 && r <= depth_, "SdsChain::arena: out of range");
  std::lock_guard<std::mutex> lock(mu_);
  return ensure(r).arena;
}

std::size_t SdsChain::level_vertex_count(int r) const {
  WFC_REQUIRE(r >= 0 && r <= depth_,
              "SdsChain::level_vertex_count: out of range");
  std::lock_guard<std::mutex> lock(mu_);
  return ensure(r).arena.num_vertices();
}

topo::VertexId SdsChain::locate(int r, Color c,
                                const topo::Simplex& seen) const {
  WFC_REQUIRE(r >= 1 && r <= depth_, "SdsChain::locate: level out of range");
  const topo::VertexId v = level(r).find_vertex(topo::sds_vertex_key(c, seen));
  WFC_CHECK(v != topo::kNoVertex,
            "SdsChain::locate: live view is not a vertex of SDS^r -- "
            "Lemma 3.2 violation");
  return v;
}

}  // namespace wfc::proto
