// topo::subdivide against the complex-based reference it replaced
// (tests/reference_subdivision.cpp): every byte of the written arena must
// equal Arena::build of the reference SDS -- vertex order, keys, carriers,
// base carriers, coordinates, facet order and the face table.  Inputs: the
// golden-tower inputs, the simplex-agreement output complexes, inputs with
// coordinates (base simplices, barycentric subdivisions, a random
// embedding), and a seeded family of random small chromatic complexes
// (WFC_TEST_SEED reseeds it).  Also: subdivide rejects malformed arenas
// with std::invalid_argument.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "reference_subdivision.hpp"
#include "tasks/canonical.hpp"
#include "topology/arena.hpp"
#include "topology/subdivision.hpp"

namespace wfc::topo {
namespace {

/// Levels 1..depth of `input` both ways; the arenas must match byte for
/// byte at every level.  Where the reference level has no arena (its base
/// carriers name more vertices than the level has, so Arena::view refuses
/// it), subdivide must refuse it too.  Returns the levels compared.
int expect_tower_matches(const std::string& name,
                         const ChromaticComplex& input, int depth) {
  ChromaticComplex ref = input;
  Arena arena = Arena::build(input);
  for (int r = 1; r <= depth; ++r) {
    ref = reference::standard_chromatic_subdivision(ref);
    Arena want;
    try {
      want = Arena::build(ref);
    } catch (const std::invalid_argument&) {
      EXPECT_THROW((void)subdivide(arena), std::invalid_argument)
          << name << " level " << r;
      return r - 1;
    }
    arena = subdivide(arena);
    EXPECT_TRUE(std::equal(arena.bytes().begin(), arena.bytes().end(),
                           want.bytes().begin(), want.bytes().end()))
        << name << " level " << r;
  }
  return depth;
}

TEST(Subdivide, MatchesReferenceOnGoldenInputs) {
  // The golden-tower inputs (tower_golden_test.cpp) to depth 3, except
  // base_simplex(4), whose level 3 has 421875 facets: depth 2 there.
  expect_tower_matches("consensus(2,2)", task::ConsensusTask(2, 2).input(), 3);
  expect_tower_matches("consensus(2,3)", task::ConsensusTask(2, 3).input(), 3);
  expect_tower_matches("consensus(3,2)", task::ConsensusTask(3, 2).input(), 3);
  expect_tower_matches("set-consensus(2,1)",
                       task::KSetConsensusTask(2, 1).input(), 3);
  expect_tower_matches("set-consensus(3,2)",
                       task::KSetConsensusTask(3, 2).input(), 3);
  expect_tower_matches("renaming(2,3)", task::RenamingTask(2, 3).input(), 3);
  expect_tower_matches("renaming(3,5)", task::RenamingTask(3, 5).input(), 3);
  expect_tower_matches("approx(2,9)", task::ApproxAgreementTask(2, 9).input(),
                       3);
  expect_tower_matches("approx(2,27)",
                       task::ApproxAgreementTask(2, 27).input(), 3);
  expect_tower_matches("base_simplex(2)", base_simplex(2), 3);
  expect_tower_matches("base_simplex(3)", base_simplex(3), 3);
  expect_tower_matches("base_simplex(4)", base_simplex(4), 2);
}

TEST(Subdivide, MatchesReferenceOnSimplexAgreementOutputs) {
  // The targets the handler builds for simplex-agreement and convergence
  // lines (procs 2-3, depth 1-2), built by the reference, then subdivided.
  for (int procs = 2; procs <= 3; ++procs) {
    ChromaticComplex target = base_simplex(procs);
    for (int depth = 1; depth <= 2; ++depth) {
      target = reference::standard_chromatic_subdivision(target);
      expect_tower_matches("SDS^" + std::to_string(depth) + "(s^" +
                               std::to_string(procs - 1) + ")",
                           target, 1);
    }
  }
}

TEST(Subdivide, MatchesReferenceWithCoordinates) {
  // Barycentric subdivisions carry coordinates and base carriers of
  // several vertices; a 5-dimensional embedding of a 2-simplex path checks
  // that the coordinate dimension is the embedding's, not the color count.
  expect_tower_matches("bsd^1(base_simplex(3))",
                       iterated_bsd(base_simplex(3), 1), 2);
  expect_tower_matches("bsd^2(base_simplex(3))",
                       iterated_bsd(base_simplex(3), 2), 1);
  ChromaticComplex path(3);
  Rng rng(7);
  std::vector<VertexId> ids;
  for (int i = 0; i < 5; ++i) {
    std::vector<double> xyz(5);
    for (double& x : xyz) x = rng.unit() * 3.0 - 1.0;
    ids.push_back(path.add_vertex(i % 3, "v" + std::to_string(i),
                                  ColorSet::single(i % 3), std::move(xyz)));
  }
  for (int i = 0; i + 2 < 5; ++i) {
    path.add_facet(make_simplex({ids[static_cast<std::size_t>(i)],
                                 ids[static_cast<std::size_t>(i) + 1],
                                 ids[static_cast<std::size_t>(i) + 2]}));
  }
  expect_tower_matches("embedded path", path, 2);
}

/// A random chromatic complex: 1-4 colors, 1-3 vertices per color, some
/// vertices in no facet, facets on random color subsets (repeats and
/// non-maximal facets included), random carriers, sometimes explicit
/// unsorted base carriers, sometimes coordinates.
ChromaticComplex random_complex(Rng& rng) {
  const int n_colors = rng.between(1, 4);
  ChromaticComplex c(n_colors);
  std::vector<std::vector<VertexId>> by_color(
      static_cast<std::size_t>(n_colors));
  const bool coords = rng.coin();
  const int dim = rng.between(1, 3);
  const bool explicit_bc = rng.below(3) == 0;
  int next = 0;
  for (Color col = 0; col < n_colors; ++col) {
    const int count = rng.between(1, 3);
    for (int i = 0; i < count; ++i) {
      std::vector<double> xyz;
      if (coords) {
        for (int x = 0; x < dim; ++x) xyz.push_back(rng.unit());
      }
      const auto carrier =
          ColorSet(static_cast<std::uint32_t>(
                       rng.below(std::uint64_t{1} << n_colors)))
              .with(col);
      std::optional<Simplex> bc;
      if (explicit_bc && next > 0) {
        Simplex s;
        const int len = rng.between(1, 3);
        for (int j = 0; j < len; ++j) {
          s.push_back(static_cast<VertexId>(
              rng.below(static_cast<std::uint64_t>(next))));
        }
        bc = std::move(s);
      }
      by_color[static_cast<std::size_t>(col)].push_back(
          c.add_vertex(col, "x" + std::to_string(next++), carrier,
                       std::move(xyz), std::move(bc)));
    }
  }
  const int n_facets = rng.between(1, 5);
  for (int f = 0; f < n_facets; ++f) {
    std::vector<VertexId> facet;
    for (Color col = 0; col < n_colors; ++col) {
      if (col > 0 && rng.below(4) == 0) continue;
      const auto& pool = by_color[static_cast<std::size_t>(col)];
      facet.push_back(pool[static_cast<std::size_t>(rng.below(pool.size()))]);
    }
    c.add_facet(make_simplex(std::move(facet)));
  }
  return c;
}

TEST(Subdivide, MatchesReferenceOnRandomComplexes) {
  Rng rng(logged_test_seed("subdivision_test", 0x5D5u));
  int compared = 0;
  for (int i = 0; i < 150; ++i) {
    const ChromaticComplex c = random_complex(rng);
    compared += expect_tower_matches("random complex " + std::to_string(i), c,
                                     c.n_colors() <= 3 ? 2 : 1);
    if (HasFailure()) return;
  }
  // Most levels are representable; the family is not vacuous.
  EXPECT_GE(compared, 150);
  std::printf("random complexes: %d levels compared\n", compared);
}

TEST(Subdivide, WrappersAreSubdividePlusMaterialize) {
  const ChromaticComplex s = base_simplex(3);
  const ChromaticComplex two = iterated_sds(s, 2);
  const Arena want = subdivide(subdivide(Arena::build(s)));
  const Arena got = Arena::build(two);
  EXPECT_TRUE(std::equal(got.bytes().begin(), got.bytes().end(),
                         want.bytes().begin(), want.bytes().end()));
  EXPECT_EQ(iterated_sds(s, 0).num_vertices(), s.num_vertices());
  EXPECT_EQ(standard_chromatic_subdivision(s).num_facets(), 13u);
}

/// A writable, 8-byte aligned copy of an arena blob.
struct BlobCopy {
  explicit BlobCopy(const Arena& a)
      : words((a.bytes().size() + 7) / 8), size(a.bytes().size()) {
    std::memcpy(words.data(), a.bytes().data(), size);
  }
  std::byte* data() { return reinterpret_cast<std::byte*>(words.data()); }
  ArenaHeader& header() { return *reinterpret_cast<ArenaHeader*>(data()); }
  template <typename T>
  T* at(std::uint64_t off) {
    return reinterpret_cast<T*>(data() + off);
  }
  Arena view() {
    return Arena::view(std::span<const std::byte>(data(), size), nullptr);
  }
  std::vector<std::uint64_t> words;
  std::size_t size;
};

TEST(Subdivide, RejectsMalformedArenas) {
  EXPECT_THROW((void)subdivide(Arena::build(ChromaticComplex(2))),
               std::invalid_argument);
  EXPECT_THROW((void)subdivide(Arena()), std::invalid_argument);

  const Arena good = Arena::build(base_simplex(3));
  {
    // A face of the facet replaced by another valid id: view accepts the
    // arena, but the facet's face {0,1} is no longer in the table.
    BlobCopy blob(good);
    blob.at<VertexId>(blob.header().off_face_pool)[1] = 2;
    const Arena bad = blob.view();
    EXPECT_THROW((void)subdivide(bad), std::invalid_argument);
  }
  {
    BlobCopy blob(good);  // facet {0,1,2} -> {0,2,1}
    std::swap(blob.at<VertexId>(blob.header().off_facet_pool)[1],
              blob.at<VertexId>(blob.header().off_facet_pool)[2]);
    EXPECT_THROW((void)subdivide(blob.view()), std::invalid_argument);
  }
  {
    BlobCopy blob(good);  // two vertices of one color
    blob.at<std::uint8_t>(blob.header().off_colors)[1] = 0;
    EXPECT_THROW((void)subdivide(blob.view()), std::invalid_argument);
  }
  {
    BlobCopy blob(good);  // a color beyond n_colors
    blob.at<std::uint8_t>(blob.header().off_colors)[2] = 3;
    EXPECT_THROW((void)subdivide(blob.view()), std::invalid_argument);
  }
}

}  // namespace
}  // namespace wfc::topo
