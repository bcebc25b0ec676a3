// The deduplicated face table every arena carries (arena.hpp): each face of
// size >= 2 of a facet list, in first-emission order -- facets in order,
// then each facet's sub-face masks ascending.  Arena::build and
// topo::subdivide both emit it through dedupe_faces, so the two writers
// agree on the order by construction.
//
// Until the blob is written a face is a (facet, mask) pair into the
// caller's facet list.  A repeat is found by scanning the faces that start
// at the same vertex (a per-vertex linked list over flat arrays), so the
// table hashes nothing and allocates three arrays.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "topology/complex.hpp"

namespace wfc::topo::detail {

/// Face `mask` (a bitmask over positions) of facet `facet`.
struct FaceRef {
  std::uint32_t facet;
  std::uint32_t mask;
};

/// True iff the `ma` positions of `a` and the `mb` positions of `b` select
/// the same vertices in the same order.
inline bool same_face(std::span<const VertexId> a, std::uint32_t ma,
                      std::span<const VertexId> b, std::uint32_t mb) {
  if (std::popcount(ma) != std::popcount(mb)) return false;
  while (ma != 0) {
    if (a[static_cast<std::size_t>(std::countr_zero(ma))] !=
        b[static_cast<std::size_t>(std::countr_zero(mb))]) {
      return false;
    }
    ma &= ma - 1;
    mb &= mb - 1;
  }
  return true;
}

/// The face table of facets 0..n_facets-1, where `facet(g)` is facet g as
/// a sorted span of vertex ids below `n_vertices` with at most 24 vertices
/// (callers check both).  `expect` sizes the arrays up front.
template <typename FacetFn>
std::vector<FaceRef> dedupe_faces(std::uint32_t n_vertices,
                                  std::uint32_t n_facets, FacetFn&& facet,
                                  std::size_t expect) {
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<FaceRef> faces;
  faces.reserve(expect);
  std::vector<std::uint32_t> next;  // next face with the same first vertex
  next.reserve(expect);
  std::vector<std::uint32_t> head(n_vertices, kNone);
  for (std::uint32_t g = 0; g < n_facets; ++g) {
    const std::span<const VertexId> f = facet(g);
    const std::uint32_t end = std::uint32_t{1} << f.size();
    for (std::uint32_t mask = 3; mask < end; ++mask) {
      if (std::popcount(mask) < 2) continue;
      const VertexId first =
          f[static_cast<std::size_t>(std::countr_zero(mask))];
      bool seen = false;
      for (std::uint32_t id = head[first]; id != kNone; id = next[id]) {
        if (same_face(facet(faces[id].facet), faces[id].mask, f, mask)) {
          seen = true;
          break;
        }
      }
      if (seen) continue;
      next.push_back(head[first]);
      head[first] = static_cast<std::uint32_t>(faces.size());
      faces.push_back(FaceRef{g, mask});
    }
  }
  return faces;
}

}  // namespace wfc::topo::detail
