#include "reference_subdivision.hpp"

#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "topology/ordered_partition.hpp"
#include "topology/subdivision.hpp"

namespace wfc::reference {

namespace {

using topo::ChromaticComplex;
using topo::kNoVertex;
using topo::OrderedPartition;
using topo::Simplex;
using topo::VertexId;

/// Barycenter of the base-complex vertices listed in `verts` (coordinates
/// must be present and of equal length).
std::vector<double> barycenter(const ChromaticComplex& c,
                               std::span<const VertexId> verts) {
  WFC_CHECK(!verts.empty(), "barycenter of empty set");
  const std::size_t d = c.vertex(verts.front()).coords.size();
  std::vector<double> out(d, 0.0);
  for (VertexId v : verts) {
    const auto& coords = c.vertex(v).coords;
    WFC_CHECK(coords.size() == d, "barycenter: mixed coordinate dimensions");
    for (std::size_t i = 0; i < d; ++i) out[i] += coords[i];
  }
  for (double& x : out) x /= static_cast<double>(verts.size());
  return out;
}

bool has_embedding(const ChromaticComplex& c) {
  for (VertexId v = 0; v < c.num_vertices(); ++v) {
    if (c.vertex(v).coords.empty()) return false;
  }
  return c.num_vertices() > 0;
}

}  // namespace

ChromaticComplex standard_chromatic_subdivision(const ChromaticComplex& c) {
  WFC_REQUIRE(c.num_facets() > 0, "SDS: empty complex");
  const bool geom = has_embedding(c);
  ChromaticComplex out(c.n_colors());

  // Interns the SDS vertex (color of base vertex `own`, view `sigma`).
  auto intern = [&](VertexId own, const Simplex& sigma) -> VertexId {
    const Color color = c.vertex(own).color;
    std::string key = topo::sds_vertex_key(color, sigma);
    if (VertexId v = out.find_vertex(key); v != kNoVertex) return v;
    std::vector<double> coords;
    if (geom) {
      if (sigma.size() == 1) {
        coords = c.vertex(own).coords;
      } else {
        // Paper §3.6: midpoint of barycenter(sigma) and the barycenter of
        // the face of sigma opposite the vertex of this color.
        Simplex opposite;
        opposite.reserve(sigma.size() - 1);
        for (VertexId v : sigma) {
          if (v != own) opposite.push_back(v);
        }
        const std::vector<double> a = barycenter(c, sigma);
        const std::vector<double> b = barycenter(c, opposite);
        coords.resize(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          coords[i] = 0.5 * (a[i] + b[i]);
        }
      }
    }
    return out.add_vertex(color, std::move(key), c.carrier_of(sigma),
                          std::move(coords), c.base_carrier_of(sigma));
  };

  // The SDS vertices over one facet, by (own position, view as a mask of
  // positions): each is interned once per facet, not once per SDS facet
  // that contains it.
  std::vector<VertexId> local;
  Simplex sigma;
  for (const Simplex& facet : c.facets()) {
    const int k = static_cast<int>(facet.size());
    local.clear();
    topo::for_each_ordered_partition(k, [&](const OrderedPartition& blocks) {
      // Sized here, once k has passed the enumerator's range check.
      if (local.empty()) {
        local.assign(static_cast<std::size_t>(k) << k, kNoVertex);
      }
      Simplex sds_facet;
      sds_facet.reserve(facet.size());
      std::uint32_t prefix = 0;  // positions in the blocks so far
      for (const std::vector<int>& block : blocks) {
        for (int pos : block) prefix |= 1u << pos;
        for (int pos : block) {
          VertexId& v = local[(static_cast<std::size_t>(pos) << k) | prefix];
          if (v == kNoVertex) {
            sigma.clear();  // canonical: facets are sorted
            for (int i = 0; i < k; ++i) {
              if ((prefix >> i) & 1u) {
                sigma.push_back(facet[static_cast<std::size_t>(i)]);
              }
            }
            v = intern(facet[static_cast<std::size_t>(pos)], sigma);
          }
          sds_facet.push_back(v);
        }
      }
      out.add_facet(topo::make_simplex(std::move(sds_facet)));
    });
  }
  return out;
}

}  // namespace wfc::reference
