// Seeded mutation test of the two readers of untrusted arena bytes:
// topo::Arena::view (every store-loaded tower level passes through it) and
// topo::subdivide (which reads a loaded level whenever a query goes deeper
// than the stored tower).
//
// Inputs: the blobs of the golden towers (tower_golden_test.cpp's inputs),
// levels 0 up to the golden depth whose subdivision stays under 20k facets
// (a mutant that keeps its shape is subdivided, so a level-3 tower of the
// 4-processor simplex would cost seconds per accepted mutant).  Mutations
// (SplitMix64 via wfc::Rng): byte flips, random and nearby u32 writes at
// aligned offsets (header counts and offsets, CSR indices, vertex ids),
// u32 copies from elsewhere in the blob, and truncation.  Oracle, per
// mutant:
//   * view either throws std::invalid_argument or returns an arena whose
//     every accessor stays inside the blob, with every vertex id in range;
//   * subdivide of an accepted mutant either throws std::invalid_argument
//     or returns an arena that view accepts, with the same accessor walk.
// The walk runs for about two seconds; WFC_TEST_SEED reseeds it.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "protocol/sds_chain.hpp"
#include "tasks/canonical.hpp"
#include "topology/arena.hpp"
#include "topology/ordered_partition.hpp"
#include "topology/subdivision.hpp"

namespace wfc::topo {
namespace {

/// An 8-byte aligned copy of a blob (Arena::view requires the alignment).
struct Blob {
  explicit Blob(std::span<const std::byte> bytes)
      : words((bytes.size() + 7) / 8 + 1), size(bytes.size()) {
    std::memcpy(words.data(), bytes.data(), size);
  }
  std::byte* data() { return reinterpret_cast<std::byte*>(words.data()); }
  [[nodiscard]] std::span<const std::byte> span() const {
    return {reinterpret_cast<const std::byte*>(words.data()), size};
  }
  std::vector<std::uint64_t> words;
  std::size_t size;
};

std::vector<Blob> golden_blobs() {
  struct Input {
    ChromaticComplex complex;
    int depth;
  };
  std::vector<Input> inputs = {
      {task::ConsensusTask(2, 2).input(), 3},
      {task::ConsensusTask(2, 3).input(), 3},
      {task::ConsensusTask(3, 2).input(), 2},
      {task::KSetConsensusTask(2, 1).input(), 3},
      {task::KSetConsensusTask(3, 2).input(), 2},
      {task::RenamingTask(3, 5).input(), 2},
      {task::ApproxAgreementTask(2, 9).input(), 3},
      {task::ApproxAgreementTask(2, 27).input(), 3},
      {base_simplex(2), 4},
      {base_simplex(3), 2},
      {base_simplex(4), 2},
  };
  std::vector<Blob> out;
  for (const Input& in : inputs) {
    const proto::SdsChain chain(in.complex, in.depth);
    for (int r = 0; r <= in.depth; ++r) {
      const Arena a = chain.arena(r);
      std::uint64_t sds_facets = 0;
      for (std::uint32_t f = 0; f < a.num_facets(); ++f) {
        sds_facets += fubini(static_cast<int>(a.facet(f).size()));
      }
      if (sds_facets <= 20000) out.emplace_back(a.bytes());
    }
  }
  return out;
}

bool inside(std::span<const std::byte> blob, const void* p, std::size_t bytes) {
  const auto* b = static_cast<const std::byte*>(p);
  return b >= blob.data() && b + bytes <= blob.data() + blob.size();
}

template <typename T>
bool span_inside(std::span<const std::byte> blob, std::span<const T> s) {
  return s.empty() || inside(blob, s.data(), s.size_bytes());
}

/// Every accessor of `a` stays inside `blob`; every vertex id is in range.
void expect_in_bounds(const Arena& a, std::span<const std::byte> blob,
                      const std::string& what) {
  const std::uint32_t n = a.num_vertices();
  ASSERT_TRUE(span_inside(blob, a.colors())) << what;
  ASSERT_TRUE(span_inside(blob, a.carrier_masks())) << what;
  ASSERT_EQ(a.colors().size(), n) << what;
  ASSERT_EQ(a.carrier_masks().size(), n) << what;
  const auto ids_ok = [n](std::span<const VertexId> ids) {
    for (VertexId v : ids) {
      if (v >= n) return false;
    }
    return true;
  };
  for (VertexId v = 0; v < n; ++v) {
    ASSERT_TRUE(span_inside(blob, a.base_carrier(v))) << what;
    ASSERT_TRUE(ids_ok(a.base_carrier(v))) << what;
    const std::string_view key = a.key(v);
    ASSERT_TRUE(key.empty() || inside(blob, key.data(), key.size())) << what;
    ASSERT_TRUE(span_inside(blob, a.coords(v))) << what;
  }
  for (std::uint32_t f = 0; f < a.num_facets(); ++f) {
    ASSERT_TRUE(span_inside(blob, a.facet(f))) << what;
    ASSERT_TRUE(ids_ok(a.facet(f))) << what;
  }
  for (std::uint32_t i = 0; i < a.num_faces(); ++i) {
    ASSERT_TRUE(span_inside(blob, a.face(i))) << what;
    ASSERT_TRUE(ids_ok(a.face(i))) << what;
    ASSERT_TRUE(span_inside(blob, a.face_base_carrier(i))) << what;
    ASSERT_TRUE(ids_ok(a.face_base_carrier(i))) << what;
  }
}

void mutate(Blob& b, Rng& rng) {
  const int rounds = rng.between(1, 4);
  for (int i = 0; i < rounds && b.size >= 8; ++i) {
    const std::size_t words = b.size / 4;
    // Header words are the likeliest to change a shape, so aim there often.
    const std::size_t word = rng.below(4) == 0
                                 ? rng.below(sizeof(ArenaHeader) / 4)
                                 : rng.below(words);
    auto* w = reinterpret_cast<std::uint32_t*>(b.data()) + word;
    switch (rng.below(6)) {
      case 0:  // flip a byte
        b.data()[rng.below(b.size)] ^=
            static_cast<std::byte>(1u << rng.below(8));
        break;
      case 1:  // a random word
        *w = static_cast<std::uint32_t>(rng.next());
        break;
      case 2:  // a nearby value
        *w += static_cast<std::uint32_t>(rng.between(-3, 3));
        break;
      case 3:  // a small value (ids, counts, colors)
        *w = static_cast<std::uint32_t>(rng.below(16));
        break;
      case 4:  // a word copied from elsewhere in the blob
        *w = reinterpret_cast<const std::uint32_t*>(b.data())[rng.below(words)];
        break;
      default:  // truncate
        b.size -= rng.below(b.size / 8 + 1);
        break;
    }
  }
}

TEST(ArenaFuzz, ViewAndSubdivideStayInBoundsOnMutatedTowers) {
  const std::vector<Blob> seeds = golden_blobs();
  ASSERT_GE(seeds.size(), 20u);
  Rng rng(logged_test_seed("arena_fuzz_test", 0xA7E4Au));
  const auto stop = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::uint64_t mutants = 0, accepted = 0, subdivided = 0;
  while (std::chrono::steady_clock::now() < stop) {
    Blob b = seeds[rng.below(seeds.size())];
    mutate(b, rng);
    ++mutants;
    const std::string what = "mutant " + std::to_string(mutants);
    Arena a;
    try {
      a = Arena::view(b.span(), nullptr);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++accepted;
    expect_in_bounds(a, b.span(), what);
    if (HasFatalFailure()) return;
    Arena next;
    try {
      next = subdivide(a);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++subdivided;
    const Blob copy(next.bytes());
    Arena again;
    ASSERT_NO_THROW(again = Arena::view(copy.span(), nullptr)) << what;
    expect_in_bounds(again, copy.span(), what + " subdivided");
    if (HasFatalFailure()) return;
  }
  std::printf("arena fuzz: %llu mutants, %llu accepted by view, %llu "
              "subdivided\n",
              static_cast<unsigned long long>(mutants),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(subdivided));
  // The walk must reach both readers.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(subdivided, 0u);
}

}  // namespace
}  // namespace wfc::topo
