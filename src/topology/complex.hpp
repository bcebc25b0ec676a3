// Chromatic simplicial complexes (paper §2).
//
// A complex stores an interned vertex table and a facet list.  Faces are
// implicit: a simplex belongs to the complex iff it is a subset of a facet.
// Every vertex carries:
//   * a color          -- processor id, identified with a corner of the base
//                         simplex s^n (paper §3.1);
//   * a string key     -- canonical identity used for interning.  The
//                         protocol runtime (src/protocol) generates the same
//                         keys from actual executions, which lets a running
//                         processor locate its own vertex in SDS^b(I);
//   * a carrier        -- the face of the *base* complex (as a ColorSet of
//                         base colors) that contains the vertex.  carrier()
//                         is the paper's carrier(v, s^n) for subdivisions of
//                         a simplex, and carrier colors for general inputs;
//   * coordinates      -- optional geometric embedding, barycentric with
//                         respect to the base simplex s^n.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/assert.hpp"
#include "common/color_set.hpp"

namespace wfc::topo {

using VertexId = std::uint32_t;
inline constexpr VertexId kNoVertex = std::numeric_limits<VertexId>::max();

/// A simplex is a sorted vector of distinct vertex ids.
using Simplex = std::vector<VertexId>;

/// Sorts and deduplicates a vertex list into canonical simplex form.
Simplex make_simplex(std::vector<VertexId> verts);

/// FNV-1a over a simplex's vertex ids, one id per step: the hash of face
/// and facet dedupe tables (never serialized).
struct SimplexHash {
  std::size_t operator()(std::span<const VertexId> s) const noexcept;
};

struct VertexData {
  Color color = 0;
  std::string key;
  ColorSet carrier;
  std::vector<double> coords;  // empty when the complex has no embedding
  // The carrier as a simplex of the ORIGINAL base complex (vertex ids of
  // that complex), maintained across iterated subdivisions.  For a base
  // complex this is {self}.  Needed when the base has several vertices per
  // color (general input complexes I^n): the ColorSet carrier only records
  // colors, but task maps Delta are indexed by input simplices (§3.2).
  Simplex base_carrier;
};

class ChromaticComplex {
 public:
  /// `n_colors` is the number of base colors (processors); vertices may use
  /// colors 0 .. n_colors-1 and carriers are subsets of full(n_colors).
  explicit ChromaticComplex(int n_colors);

  [[nodiscard]] int n_colors() const noexcept { return n_colors_; }

  /// All base colors, {0, ..., n_colors-1}.
  [[nodiscard]] ColorSet all_colors() const { return ColorSet::full(n_colors_); }

  /// Adds a vertex; `key` must be unique within the complex.  When
  /// `base_carrier` is omitted it defaults to {self} (the vertex is its own
  /// carrier -- correct for base complexes, wrong for subdivisions, which
  /// always pass it explicitly).
  VertexId add_vertex(Color color, std::string key, ColorSet carrier,
                      std::vector<double> coords = {},
                      std::optional<Simplex> base_carrier = std::nullopt);

  /// Interned lookup: returns the vertex with this key, or kNoVertex.
  [[nodiscard]] VertexId find_vertex(std::string_view key) const;

  /// Like add_vertex but returns the existing vertex if the key is taken
  /// (asserting that color and carrier agree).
  VertexId intern_vertex(Color color, std::string key, ColorSet carrier,
                         std::vector<double> coords = {},
                         std::optional<Simplex> base_carrier = std::nullopt);

  /// Registers a maximal simplex.  Vertices must exist and have pairwise
  /// distinct colors (chromatic complexes only contain rainbow simplices).
  /// Duplicate facets are ignored.  Returns the facet index.
  std::size_t add_facet(Simplex facet);

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return vertices_.size();
  }
  [[nodiscard]] std::size_t num_facets() const noexcept {
    return facets_.size();
  }
  [[nodiscard]] const VertexData& vertex(VertexId v) const;
  [[nodiscard]] const std::vector<Simplex>& facets() const noexcept {
    return facets_;
  }

  /// Largest facet dimension (|facet| - 1); -1 for an empty complex.
  [[nodiscard]] int dimension() const noexcept;

  /// True if every facet has exactly dim+1 vertices.
  [[nodiscard]] bool is_pure() const noexcept;

  /// Set of colors appearing in `s`.
  [[nodiscard]] ColorSet colors_of(std::span<const VertexId> s) const;

  /// Union of the carriers of the vertices of `s` -- the paper's
  /// carrier(s, base) for subdivision complexes.
  [[nodiscard]] ColorSet carrier_of(std::span<const VertexId> s) const;

  /// Union of the base carriers of the vertices of `s`: the carrier of `s`
  /// as a simplex of the original input complex.
  [[nodiscard]] Simplex base_carrier_of(std::span<const VertexId> s) const;

  /// True iff `s` (canonical form) is a face of some facet.
  [[nodiscard]] bool contains_simplex(const Simplex& s) const;

  /// Indices of facets containing vertex v.
  [[nodiscard]] const std::vector<std::uint32_t>& facets_containing(
      VertexId v) const;

  /// Enumerates every nonempty face of every facet exactly once, in
  /// canonical form.  fn(const Simplex&).  Cost is exponential in the
  /// dimension, which is <= 7 throughout this library.
  template <typename Fn>
  void for_each_face(Fn&& fn) const;

  /// The subcomplex of simplices whose carrier is contained in `face`
  /// (the paper's A(s^q), the face of a subdivided simplex).
  [[nodiscard]] ChromaticComplex restrict_to_carrier(ColorSet face) const;

  /// Returns ids of all vertices with the given color.
  [[nodiscard]] std::vector<VertexId> vertices_with_color(Color c) const;

  /// Euler characteristic over all faces (used by sanity tests: a subdivided
  /// simplex is contractible, so chi == 1).
  [[nodiscard]] long long euler_characteristic() const;

 private:
  int n_colors_;
  std::vector<VertexData> vertices_;
  std::vector<Simplex> facets_;
  /// Heterogeneous lookup: find_vertex(string_view) builds no string.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view k) const noexcept {
      return std::hash<std::string_view>{}(k);
    }
  };
  std::unordered_map<std::string, VertexId, KeyHash, std::equal_to<>>
      key_index_;
  /// Facet dedupe: SimplexHash of a facet -> indices of facets with it.
  std::unordered_multimap<std::size_t, std::uint32_t> facet_index_;
  std::vector<std::vector<std::uint32_t>> vertex_facets_;
};

/// The base chromatic simplex s^n with n_plus_1 vertices: vertex i has color
/// i, key "P<i>", carrier {i}, and unit barycentric coordinates e_i.
ChromaticComplex base_simplex(int n_plus_1);

/// Serializes a simplex's vertex ids, e.g. "[0 3 7]" (debugging aid).
std::string to_string(const Simplex& s);

template <typename Fn>
void ChromaticComplex::for_each_face(Fn&& fn) const {
  // Each face is emitted from the first facet containing it.  One scratch
  // face is reused; the set copies only the faces it has not seen.
  std::unordered_set<Simplex, SimplexHash> seen;
  Simplex face;
  for (const Simplex& f : facets_) {
    const std::size_t k = f.size();
    WFC_CHECK(k <= 24, "for_each_face: facet too large to enumerate");
    for (std::uint32_t mask = 1; mask < (1u << k); ++mask) {
      face.clear();
      for (std::size_t i = 0; i < k; ++i) {
        if ((mask >> i) & 1u) face.push_back(f[i]);
      }
      if (seen.insert(face).second) fn(face);
    }
  }
}

}  // namespace wfc::topo
