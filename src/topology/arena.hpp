// Data-oriented arena form of a chromatic complex.
//
// An Arena is ONE contiguous byte blob: a fixed header followed by
// structure-of-arrays sections addressed by byte offsets.  Everything a
// consumer iterates in a hot loop -- vertex colors, carrier bitmasks, facet
// membership, the deduplicated face table with per-face base carriers -- is
// a flat span of dense uint32_t ids, so the Prop 3.1 backtracking inner
// loop and chain extension walk cache-linearly instead of chasing
// pointer-heavy ChromaticComplex structures.
//
// The same blob is the on-disk format: `build()` lays the sections out
// exactly as `store::ChainStore` writes them, and `view()` adopts a blob
// (typically an mmap'ed span) zero-copy after validating the header and
// section bounds.  Writers (`build()` here, `topo::subdivide` in
// subdivision.hpp) first count every section, then allocate the blob once
// at its final size and fill the sections in place (ArenaWriter).
// `materialize()` reconstructs a ChromaticComplex that is byte-for-byte
// canonical with the original -- same vertex order, keys, carriers,
// coords, base carriers, and facet order -- so
// `complex_fingerprint(materialize(build(c))) == complex_fingerprint(c)`.
//
// Sections (all offsets relative to blob start, 8-byte aligned):
//   colors        u8  [n_vertices]      vertex color
//   carriers      u32 [n_vertices]      ColorSet::mask() of the carrier
//   bc CSR        u32 [n_vertices+1] + u32 pool   per-vertex base carrier
//   facet CSR     u32 [n_facets+1]   + u32 pool   facets, insertion order
//   face CSR      u32 [n_faces+1]    + u32 pool   every canonical face of
//                                                 size >= 2, deduplicated
//   face bc CSR   u32 [n_faces+1]    + u32 pool   base carrier per face
//   key CSR       u32 [n_vertices+1] + char pool  interned vertex keys
//   coord CSR     u32 [n_vertices+1] + f64 pool   barycentric coords
//
// Singleton faces are intentionally absent from the face table: the solver
// folds them into per-vertex domains (tasks/arena_search.cpp), which only
// needs the per-vertex base carrier section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "topology/complex.hpp"

namespace wfc::topo {

inline constexpr std::uint32_t kArenaMagic = 0x414e5241u;  // "ARNA"
inline constexpr std::uint32_t kArenaVersion = 1;

/// Fixed-size arena header at blob offset 0.  All section offsets are byte
/// offsets from the blob start; `*_len` fields are element counts.
struct ArenaHeader {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint32_t n_colors;
  std::uint32_t n_vertices;
  std::uint32_t n_facets;
  std::uint32_t n_faces;
  std::uint32_t reserved0;
  std::uint32_t reserved1;
  std::uint64_t blob_bytes;

  std::uint64_t off_colors;
  std::uint64_t off_carriers;

  std::uint64_t off_bc_idx;    // u32 [n_vertices + 1]
  std::uint64_t off_bc_pool;   // u32 [bc_pool_len]
  std::uint64_t bc_pool_len;

  std::uint64_t off_facet_idx;   // u32 [n_facets + 1]
  std::uint64_t off_facet_pool;  // u32 [facet_pool_len]
  std::uint64_t facet_pool_len;

  std::uint64_t off_face_idx;   // u32 [n_faces + 1]
  std::uint64_t off_face_pool;  // u32 [face_pool_len]
  std::uint64_t face_pool_len;

  std::uint64_t off_face_bc_idx;   // u32 [n_faces + 1]
  std::uint64_t off_face_bc_pool;  // u32 [face_bc_pool_len]
  std::uint64_t face_bc_pool_len;

  std::uint64_t off_key_idx;   // u32 [n_vertices + 1]
  std::uint64_t off_key_pool;  // char [key_pool_len]
  std::uint64_t key_pool_len;

  std::uint64_t off_coord_idx;   // u32 [n_vertices + 1]
  std::uint64_t off_coord_pool;  // f64 [coord_pool_len]
  std::uint64_t coord_pool_len;
};

/// Flat, immutable, share-by-value view over an arena blob.  Copies are
/// cheap (a pointer, a span, and a shared_ptr keeping the backing alive --
/// a malloc'ed buffer for built arenas, an mmap for store-loaded ones).
class Arena {
 public:
  Arena() = default;

  /// Serializes `c` into a freshly allocated blob.
  [[nodiscard]] static Arena build(const ChromaticComplex& c);

  /// Adopts an existing blob (zero copy).  `backing` keeps the bytes alive
  /// for the lifetime of the arena and all its copies.  Throws
  /// std::invalid_argument if the header or any section is malformed --
  /// every section must land inside the blob and every vertex id must be
  /// dense (< n_vertices).
  [[nodiscard]] static Arena view(std::span<const std::byte> blob,
                                  std::shared_ptr<const void> backing);

  [[nodiscard]] bool valid() const noexcept { return header_ != nullptr; }
  [[nodiscard]] int n_colors() const noexcept {
    return static_cast<int>(header_->n_colors);
  }
  [[nodiscard]] std::uint32_t num_vertices() const noexcept {
    return header_->n_vertices;
  }
  [[nodiscard]] std::uint32_t num_facets() const noexcept {
    return header_->n_facets;
  }
  /// Deduplicated canonical faces of size >= 2 (see file comment).
  [[nodiscard]] std::uint32_t num_faces() const noexcept {
    return header_->n_faces;
  }

  [[nodiscard]] std::span<const std::uint8_t> colors() const noexcept;
  [[nodiscard]] std::span<const std::uint32_t> carrier_masks() const noexcept;
  [[nodiscard]] std::span<const VertexId> base_carrier(VertexId v) const;
  [[nodiscard]] std::span<const VertexId> facet(std::uint32_t f) const;
  [[nodiscard]] std::span<const VertexId> face(std::uint32_t i) const;
  [[nodiscard]] std::span<const VertexId> face_base_carrier(
      std::uint32_t i) const;
  [[nodiscard]] std::string_view key(VertexId v) const;
  [[nodiscard]] std::span<const double> coords(VertexId v) const;

  /// The whole serialized blob (what ChainStore writes to disk).
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return blob_;
  }

  /// Reconstructs the ChromaticComplex this arena was built from; the
  /// result fingerprints identically to the original.
  [[nodiscard]] ChromaticComplex materialize() const;

 private:
  template <typename T>
  [[nodiscard]] std::span<const T> section(std::uint64_t off,
                                           std::uint64_t len) const noexcept {
    return {reinterpret_cast<const T*>(blob_.data() + off),
            static_cast<std::size_t>(len)};
  }
  [[nodiscard]] std::span<const std::uint32_t> csr_idx(
      std::uint64_t off, std::uint64_t n) const noexcept {
    return section<std::uint32_t>(off, n + 1);
  }

  const ArenaHeader* header_ = nullptr;
  std::span<const std::byte> blob_;
  std::shared_ptr<const void> backing_;
};

/// Element count of every arena section: what a writer must know before
/// it allocates the blob.
struct ArenaShape {
  std::uint32_t n_colors = 0;
  std::uint32_t n_vertices = 0;
  std::uint32_t n_facets = 0;
  std::uint32_t n_faces = 0;
  std::uint64_t bc_pool = 0;
  std::uint64_t facet_pool = 0;
  std::uint64_t face_pool = 0;
  std::uint64_t face_bc_pool = 0;
  std::uint64_t key_pool = 0;
  std::uint64_t coord_pool = 0;
};

/// One zero-filled blob of exactly the size `shape` needs, laid out as
/// ArenaHeader describes.  The caller fills every section in place through
/// the spans below (CSR index arrays included), then `finish()` adopts the
/// blob through Arena::view, which validates it.  Throws
/// std::invalid_argument if a pool does not fit the u32 CSR indices.
class ArenaWriter {
 public:
  explicit ArenaWriter(const ArenaShape& shape);

  [[nodiscard]] std::span<std::uint8_t> colors();
  [[nodiscard]] std::span<std::uint32_t> carriers();
  [[nodiscard]] std::span<std::uint32_t> bc_idx();
  [[nodiscard]] std::span<VertexId> bc_pool();
  [[nodiscard]] std::span<std::uint32_t> facet_idx();
  [[nodiscard]] std::span<VertexId> facet_pool();
  [[nodiscard]] std::span<std::uint32_t> face_idx();
  [[nodiscard]] std::span<VertexId> face_pool();
  [[nodiscard]] std::span<std::uint32_t> face_bc_idx();
  [[nodiscard]] std::span<VertexId> face_bc_pool();
  [[nodiscard]] std::span<std::uint32_t> key_idx();
  [[nodiscard]] std::span<char> key_pool();
  [[nodiscard]] std::span<std::uint32_t> coord_idx();
  [[nodiscard]] std::span<double> coord_pool();

  [[nodiscard]] Arena finish() &&;

 private:
  template <typename T>
  [[nodiscard]] std::span<T> at(std::uint64_t off, std::uint64_t len) {
    return {reinterpret_cast<T*>(blob_->data() + off),
            static_cast<std::size_t>(len)};
  }

  ArenaHeader h_{};
  std::shared_ptr<std::vector<std::byte>> blob_;
};

}  // namespace wfc::topo
