#include "topology/complex.hpp"

#include <algorithm>
#include <bit>
#include <charconv>

#include "topology/hash.hpp"

namespace wfc::topo {

Simplex make_simplex(std::vector<VertexId> verts) {
  std::sort(verts.begin(), verts.end());
  verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
  return verts;
}

std::size_t SimplexHash::operator()(
    std::span<const VertexId> s) const noexcept {
  std::uint64_t h = kFnvOffset;
  for (VertexId v : s) h = (h ^ v) * kFnvPrime;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

std::string to_string(const Simplex& s) {
  std::string out = "[";
  char buf[16];
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i) out += ' ';
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), s[i]).ptr);
  }
  out += ']';
  return out;
}

ChromaticComplex::ChromaticComplex(int n_colors) : n_colors_(n_colors) {
  WFC_REQUIRE(n_colors >= 1 && n_colors <= kMaxColors,
              "ChromaticComplex: color count out of range");
}

VertexId ChromaticComplex::add_vertex(Color color, std::string key,
                                      ColorSet carrier,
                                      std::vector<double> coords,
                                      std::optional<Simplex> base_carrier) {
  WFC_REQUIRE(color >= 0 && color < n_colors_, "add_vertex: bad color");
  WFC_REQUIRE(carrier.subset_of(all_colors()), "add_vertex: bad carrier");
  const VertexId id = static_cast<VertexId>(vertices_.size());
  const bool fresh = key_index_.try_emplace(key, id).second;
  WFC_REQUIRE(fresh, "add_vertex: duplicate key " + key);
  Simplex bc = base_carrier.has_value() ? std::move(*base_carrier)
                                        : Simplex{id};
  vertices_.push_back(VertexData{color, std::move(key), carrier,
                                 std::move(coords), std::move(bc)});
  vertex_facets_.emplace_back();
  return id;
}

VertexId ChromaticComplex::find_vertex(std::string_view key) const {
  auto it = key_index_.find(key);
  return it == key_index_.end() ? kNoVertex : it->second;
}

VertexId ChromaticComplex::intern_vertex(Color color, std::string key,
                                         ColorSet carrier,
                                         std::vector<double> coords,
                                         std::optional<Simplex> base_carrier) {
  if (VertexId v = find_vertex(key); v != kNoVertex) {
    WFC_CHECK(vertices_[v].color == color,
              "intern_vertex: color mismatch for key " + key);
    WFC_CHECK(vertices_[v].carrier == carrier,
              "intern_vertex: carrier mismatch for key " + key);
    return v;
  }
  return add_vertex(color, std::move(key), carrier, std::move(coords),
                    std::move(base_carrier));
}

std::size_t ChromaticComplex::add_facet(Simplex facet) {
  WFC_REQUIRE(!facet.empty(), "add_facet: empty facet");
  WFC_REQUIRE(std::is_sorted(facet.begin(), facet.end()) &&
                  std::adjacent_find(facet.begin(), facet.end()) == facet.end(),
              "add_facet: facet must be sorted and duplicate-free");
  ColorSet colors;
  for (VertexId v : facet) {
    WFC_REQUIRE(v < vertices_.size(), "add_facet: unknown vertex");
    const Color c = vertices_[v].color;
    WFC_REQUIRE(!colors.contains(c),
                "add_facet: chromatic complexes need distinct colors");
    colors = colors.with(c);
  }
  const std::size_t hash = SimplexHash{}(facet);
  for (auto [it, end] = facet_index_.equal_range(hash); it != end; ++it) {
    if (facets_[it->second] == facet) return it->second;
  }
  const auto idx = static_cast<std::uint32_t>(facets_.size());
  facet_index_.emplace(hash, idx);
  for (VertexId v : facet) vertex_facets_[v].push_back(idx);
  facets_.push_back(std::move(facet));
  return idx;
}

const VertexData& ChromaticComplex::vertex(VertexId v) const {
  WFC_REQUIRE(v < vertices_.size(), "vertex: id out of range");
  return vertices_[v];
}

int ChromaticComplex::dimension() const noexcept {
  int d = -1;
  for (const Simplex& f : facets_) {
    d = std::max(d, static_cast<int>(f.size()) - 1);
  }
  return d;
}

bool ChromaticComplex::is_pure() const noexcept {
  const int d = dimension();
  for (const Simplex& f : facets_) {
    if (static_cast<int>(f.size()) - 1 != d) return false;
  }
  return true;
}

ColorSet ChromaticComplex::colors_of(std::span<const VertexId> s) const {
  ColorSet out;
  for (VertexId v : s) out = out.with(vertex(v).color);
  return out;
}

ColorSet ChromaticComplex::carrier_of(std::span<const VertexId> s) const {
  ColorSet out;
  for (VertexId v : s) out = out.unite(vertex(v).carrier);
  return out;
}

Simplex ChromaticComplex::base_carrier_of(std::span<const VertexId> s) const {
  Simplex out;
  for (VertexId v : s) {
    const Simplex& bc = vertex(v).base_carrier;
    out.insert(out.end(), bc.begin(), bc.end());
  }
  return make_simplex(std::move(out));
}

bool ChromaticComplex::contains_simplex(const Simplex& s) const {
  if (s.empty()) return false;
  for (VertexId v : s) {
    if (v >= vertices_.size()) return false;
  }
  // Scan the facets of the vertex with the fewest incident facets.
  VertexId best = s[0];
  for (VertexId v : s) {
    if (vertex_facets_[v].size() < vertex_facets_[best].size()) best = v;
  }
  for (std::uint32_t fi : vertex_facets_[best]) {
    const Simplex& f = facets_[fi];
    if (std::includes(f.begin(), f.end(), s.begin(), s.end())) return true;
  }
  return false;
}

const std::vector<std::uint32_t>& ChromaticComplex::facets_containing(
    VertexId v) const {
  WFC_REQUIRE(v < vertices_.size(), "facets_containing: id out of range");
  return vertex_facets_[v];
}

ChromaticComplex ChromaticComplex::restrict_to_carrier(ColorSet face) const {
  ChromaticComplex out(n_colors_);
  std::vector<VertexId> remap(vertices_.size(), kNoVertex);
  auto map_vertex = [&](VertexId v) {
    if (remap[v] == kNoVertex) {
      const VertexData& d = vertices_[v];
      remap[v] = out.add_vertex(d.color, d.key, d.carrier, d.coords,
                                d.base_carrier);
    }
    return remap[v];
  };
  // From each facet keep the maximal sub-face carried by `face`, then drop
  // candidates contained in another candidate so the result lists only
  // genuine facets of the restricted subcomplex.
  std::vector<Simplex> candidates;
  for (const Simplex& f : facets_) {
    Simplex kept;
    for (VertexId v : f) {
      if (vertices_[v].carrier.subset_of(face)) kept.push_back(v);
    }
    if (!kept.empty()) candidates.push_back(std::move(kept));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Simplex& a, const Simplex& b) {
              return a.size() > b.size();
            });
  std::vector<Simplex> maximal;
  for (const Simplex& cand : candidates) {
    bool dominated = false;
    for (const Simplex& big : maximal) {
      if (std::includes(big.begin(), big.end(), cand.begin(), cand.end())) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(cand);
  }
  for (const Simplex& f : maximal) {
    Simplex mapped;
    mapped.reserve(f.size());
    for (VertexId v : f) mapped.push_back(map_vertex(v));
    out.add_facet(make_simplex(std::move(mapped)));
  }
  return out;
}

std::vector<VertexId> ChromaticComplex::vertices_with_color(Color c) const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (vertices_[v].color == c) out.push_back(v);
  }
  return out;
}

long long ChromaticComplex::euler_characteristic() const {
  long long chi = 0;
  for_each_face([&](const Simplex& s) {
    chi += (s.size() % 2 == 1) ? 1 : -1;
  });
  return chi;
}

ChromaticComplex base_simplex(int n_plus_1) {
  WFC_REQUIRE(n_plus_1 >= 1 && n_plus_1 <= kMaxColors,
              "base_simplex: size out of range");
  ChromaticComplex c(n_plus_1);
  Simplex facet;
  for (Color i = 0; i < n_plus_1; ++i) {
    std::vector<double> coords(static_cast<std::size_t>(n_plus_1), 0.0);
    coords[static_cast<std::size_t>(i)] = 1.0;
    facet.push_back(c.add_vertex(i, "P" + std::to_string(i),
                                 ColorSet::single(i), std::move(coords)));
  }
  c.add_facet(std::move(facet));
  return c;
}

}  // namespace wfc::topo
