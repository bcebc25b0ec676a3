// The complex-based standard chromatic subdivision, kept as the reference
// topo::subdivide is pinned to byte for byte (tests/subdivision_test.cpp).
// It is the construction the library ran before subdivision moved onto
// arenas: SDS vertices interned by their string key ("<color>@<view ids>")
// into a fresh ChromaticComplex, facet by facet and ordered partition by
// ordered partition.
#pragma once

#include "topology/complex.hpp"

namespace wfc::reference {

/// SDS(c) built as a ChromaticComplex (coordinates propagated when every
/// vertex of c has them).
topo::ChromaticComplex standard_chromatic_subdivision(
    const topo::ChromaticComplex& c);

}  // namespace wfc::reference
