// Standard chromatic subdivision (SDS) and barycentric subdivision (Bsd).
//
// SDS(s^n) is the one-shot immediate snapshot protocol complex (Lemma 3.2):
// a vertex is a pair (P_i, S_i) with P_i in S_i; a set of such pairs is a
// simplex iff the S_i satisfy the immediate-snapshot properties
//   (1) self-inclusion, (2) total order by containment, (3) immediacy.
// We generate its facets from ordered partitions: the facet for ordered
// partition (B_1, ..., B_m) of the participating vertices assigns to each
// vertex v in B_j the view S_v = B_1 u ... u B_j.
//
// The one SDS algorithm is `subdivide`, which reads a level's flat
// topo::Arena and writes the next level's arena directly.  A vertex of
// SDS(C) is the pair (own vertex, view face of C): a dense slot over C's
// vertices and face table, so no string key is built or hashed until the
// key section is written.  The result is byte-identical to
// Arena::build of the complex-based construction (vertex order, keys,
// carriers, base carriers, coordinates summed in the same order, facet
// order, face table); tests/reference_subdivision.cpp keeps that
// construction and tests/subdivision_test.cpp pins the two together.
// `standard_chromatic_subdivision` and `iterated_sds` are subdivide plus
// Arena::materialize() for callers that want a ChromaticComplex.
//
// The geometric embedding follows the paper's §3.6 construction: the vertex
// (i, sigma) is planted at the midpoint of the barycenter of sigma and the
// barycenter of the face of sigma opposite the vertex colored i (equivalently
// at e_i itself when sigma = {i}).
//
// Bsd is the classical barycentric subdivision used by the simplicial
// approximation machinery of §5; its vertices are barycenters of faces and
// its facets are maximal flags.  Bsd vertices are colored by face dimension,
// which makes Bsd(C) a valid ChromaticComplex but NOT color-compatible with
// C -- §5 only ever asks Bsd for carrier-preserving (non-chromatic) maps.
#pragma once

#include "topology/arena.hpp"
#include "topology/complex.hpp"

namespace wfc::topo {

/// SDS(below) as an arena, written straight from the arena of the level
/// below: exactly the bytes of
/// Arena::build(standard_chromatic_subdivision(below.materialize())).
/// Coordinates are propagated when every vertex of `below` has them.
/// Throws std::invalid_argument if `below` has no facets, or a facet is not
/// sorted, repeats a color, uses a color >= n_colors or has more than 10
/// vertices, or a face of a facet is missing from the face table (an arena
/// Arena::view accepted but no writer produced).
[[nodiscard]] Arena subdivide(const Arena& below);

/// Standard chromatic subdivision of a chromatic complex with geometric
/// embedding (coordinates optional; propagated when present):
/// subdivide(Arena::build(c)).materialize().
ChromaticComplex standard_chromatic_subdivision(const ChromaticComplex& c);

/// SDS^k: k-fold iterated standard chromatic subdivision (Lemma 3.3),
/// subdivided arena to arena and materialized once.  k == 0 returns a copy
/// of c.
ChromaticComplex iterated_sds(const ChromaticComplex& c, int k);

/// Classical barycentric subdivision.  Requires n_colors >= dimension+1.
ChromaticComplex barycentric_subdivision(const ChromaticComplex& c);

/// Bsd^k.
ChromaticComplex iterated_bsd(const ChromaticComplex& c, int k);

/// Key of the SDS(C) vertex with color `color` and view `view` (a canonical
/// simplex of C).  The protocol runtime uses this to map live executions to
/// vertices of the combinatorial complex.
std::string sds_vertex_key(Color color, const Simplex& view);

}  // namespace wfc::topo
