#include "topology/arena.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/assert.hpp"

namespace wfc::topo {

namespace {

constexpr std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~7ull; }

/// CSR accumulator: an index array of element offsets plus a flat pool.
template <typename T>
struct Csr {
  std::vector<std::uint32_t> idx{0};
  std::vector<T> pool;

  void add(std::span<const T> row) {
    pool.insert(pool.end(), row.begin(), row.end());
    WFC_CHECK(pool.size() <= 0xffffffffull, "arena: CSR pool overflow");
    idx.push_back(static_cast<std::uint32_t>(pool.size()));
  }
};

void bounds_check(const char* what, std::uint64_t off, std::uint64_t len,
                  std::uint64_t elem_size, std::uint64_t blob_bytes) {
  if (off % 8 != 0 || off > blob_bytes || len > (blob_bytes - off) / elem_size) {
    throw std::invalid_argument(std::string("arena: section out of bounds: ") +
                                what);
  }
}

void csr_check(const char* what, std::span<const std::uint32_t> idx,
               std::uint64_t pool_len) {
  if (idx.empty() || idx.front() != 0 || idx.back() != pool_len) {
    throw std::invalid_argument(std::string("arena: bad CSR bounds: ") + what);
  }
  for (std::size_t i = 1; i < idx.size(); ++i) {
    if (idx[i] < idx[i - 1]) {
      throw std::invalid_argument(
          std::string("arena: CSR index not monotone: ") + what);
    }
  }
}

void ids_check(const char* what, std::span<const std::uint32_t> pool,
               std::uint32_t n_vertices) {
  for (std::uint32_t v : pool) {
    if (v >= n_vertices) {
      throw std::invalid_argument(std::string("arena: vertex id out of range: ") +
                                  what);
    }
  }
}

}  // namespace

Arena Arena::build(const ChromaticComplex& c) {
  const std::uint32_t n = static_cast<std::uint32_t>(c.num_vertices());
  const std::uint32_t nf = static_cast<std::uint32_t>(c.num_facets());

  std::vector<std::uint8_t> colors(n);
  std::vector<std::uint32_t> carriers(n);
  Csr<std::uint32_t> bc;
  Csr<char> keys;
  Csr<double> coords;
  for (VertexId v = 0; v < n; ++v) {
    const VertexData& vd = c.vertex(v);
    WFC_CHECK(vd.color >= 0 && vd.color < 256, "arena: color out of range");
    colors[v] = static_cast<std::uint8_t>(vd.color);
    carriers[v] = vd.carrier.mask();
    bc.add(std::span<const std::uint32_t>(vd.base_carrier));
    keys.add(std::span<const char>(vd.key.data(), vd.key.size()));
    coords.add(std::span<const double>(vd.coords));
  }

  Csr<std::uint32_t> facets;
  for (const Simplex& f : c.facets()) {
    facets.add(std::span<const std::uint32_t>(f));
  }

  // Deduplicated face table, size >= 2 only (singletons live in the
  // per-vertex sections).  Facets are sorted, so every submask is already
  // in canonical order; first-emission order is deterministic.
  Csr<std::uint32_t> faces;
  Csr<std::uint32_t> face_bcs;
  std::unordered_map<Simplex, std::uint32_t, SimplexHash> seen;
  Simplex face;
  Simplex face_bc;
  for (const Simplex& f : c.facets()) {
    const std::size_t k = f.size();
    WFC_CHECK(k <= 24, "arena: facet too large to enumerate");
    for (std::uint32_t mask = 1; mask < (1u << k); ++mask) {
      if (std::popcount(mask) < 2) continue;
      face.clear();
      for (std::size_t i = 0; i < k; ++i) {
        if ((mask >> i) & 1u) face.push_back(f[i]);
      }
      if (!seen.try_emplace(face, static_cast<std::uint32_t>(seen.size()))
               .second) {
        continue;
      }
      faces.add(std::span<const std::uint32_t>(face));
      face_bc.clear();  // c.base_carrier_of(face), without allocating
      for (VertexId v : face) {
        const Simplex& vbc = c.vertex(v).base_carrier;
        face_bc.insert(face_bc.end(), vbc.begin(), vbc.end());
      }
      std::sort(face_bc.begin(), face_bc.end());
      face_bc.erase(std::unique(face_bc.begin(), face_bc.end()), face_bc.end());
      face_bcs.add(std::span<const std::uint32_t>(face_bc));
    }
  }
  const std::uint32_t n_faces = static_cast<std::uint32_t>(faces.idx.size() - 1);

  ArenaHeader h{};
  h.magic = kArenaMagic;
  h.version = kArenaVersion;
  h.n_colors = static_cast<std::uint32_t>(c.n_colors());
  h.n_vertices = n;
  h.n_facets = nf;
  h.n_faces = n_faces;

  std::uint64_t off = align8(sizeof(ArenaHeader));
  const auto place = [&off](std::uint64_t count, std::uint64_t elem) {
    const std::uint64_t at = off;
    off = align8(off + count * elem);
    return at;
  };
  h.off_colors = place(n, 1);
  h.off_carriers = place(n, 4);
  h.off_bc_idx = place(n + 1, 4);
  h.off_bc_pool = place(bc.pool.size(), 4);
  h.bc_pool_len = bc.pool.size();
  h.off_facet_idx = place(nf + 1, 4);
  h.off_facet_pool = place(facets.pool.size(), 4);
  h.facet_pool_len = facets.pool.size();
  h.off_face_idx = place(n_faces + 1, 4);
  h.off_face_pool = place(faces.pool.size(), 4);
  h.face_pool_len = faces.pool.size();
  h.off_face_bc_idx = place(n_faces + 1, 4);
  h.off_face_bc_pool = place(face_bcs.pool.size(), 4);
  h.face_bc_pool_len = face_bcs.pool.size();
  h.off_key_idx = place(n + 1, 4);
  h.off_key_pool = place(keys.pool.size(), 1);
  h.key_pool_len = keys.pool.size();
  h.off_coord_idx = place(n + 1, 4);
  h.off_coord_pool = place(coords.pool.size(), 8);
  h.coord_pool_len = coords.pool.size();
  h.blob_bytes = off;

  auto blob = std::make_shared<std::vector<std::byte>>(
      static_cast<std::size_t>(off), std::byte{0});
  std::byte* base = blob->data();
  const auto emit = [base](std::uint64_t at, const void* src,
                           std::uint64_t bytes) {
    if (bytes > 0) std::memcpy(base + at, src, bytes);
  };
  emit(0, &h, sizeof(h));
  emit(h.off_colors, colors.data(), colors.size());
  emit(h.off_carriers, carriers.data(), carriers.size() * 4);
  emit(h.off_bc_idx, bc.idx.data(), bc.idx.size() * 4);
  emit(h.off_bc_pool, bc.pool.data(), bc.pool.size() * 4);
  emit(h.off_facet_idx, facets.idx.data(), facets.idx.size() * 4);
  emit(h.off_facet_pool, facets.pool.data(), facets.pool.size() * 4);
  emit(h.off_face_idx, faces.idx.data(), faces.idx.size() * 4);
  emit(h.off_face_pool, faces.pool.data(), faces.pool.size() * 4);
  emit(h.off_face_bc_idx, face_bcs.idx.data(), face_bcs.idx.size() * 4);
  emit(h.off_face_bc_pool, face_bcs.pool.data(), face_bcs.pool.size() * 4);
  emit(h.off_key_idx, keys.idx.data(), keys.idx.size() * 4);
  emit(h.off_key_pool, keys.pool.data(), keys.pool.size());
  emit(h.off_coord_idx, coords.idx.data(), coords.idx.size() * 4);
  emit(h.off_coord_pool, coords.pool.data(), coords.pool.size() * 8);

  std::span<const std::byte> span(blob->data(), blob->size());
  return view(span, std::move(blob));
}

Arena Arena::view(std::span<const std::byte> blob,
                  std::shared_ptr<const void> backing) {
  if (blob.size() < sizeof(ArenaHeader)) {
    throw std::invalid_argument("arena: blob smaller than header");
  }
  if (reinterpret_cast<std::uintptr_t>(blob.data()) % 8 != 0) {
    throw std::invalid_argument("arena: blob not 8-byte aligned");
  }
  const auto* h = reinterpret_cast<const ArenaHeader*>(blob.data());
  if (h->magic != kArenaMagic) {
    throw std::invalid_argument("arena: bad magic");
  }
  if (h->version != kArenaVersion) {
    throw std::invalid_argument("arena: unsupported version " +
                                std::to_string(h->version));
  }
  if (h->blob_bytes != blob.size()) {
    throw std::invalid_argument("arena: blob size mismatch");
  }
  if (h->n_colors > static_cast<std::uint32_t>(kMaxColors)) {
    throw std::invalid_argument("arena: color count out of range");
  }
  const std::uint64_t bytes = blob.size();
  const std::uint32_t n = h->n_vertices;
  bounds_check("colors", h->off_colors, n, 1, bytes);
  bounds_check("carriers", h->off_carriers, n, 4, bytes);
  bounds_check("bc_idx", h->off_bc_idx, n + 1, 4, bytes);
  bounds_check("bc_pool", h->off_bc_pool, h->bc_pool_len, 4, bytes);
  bounds_check("facet_idx", h->off_facet_idx, h->n_facets + 1, 4, bytes);
  bounds_check("facet_pool", h->off_facet_pool, h->facet_pool_len, 4, bytes);
  bounds_check("face_idx", h->off_face_idx, h->n_faces + 1, 4, bytes);
  bounds_check("face_pool", h->off_face_pool, h->face_pool_len, 4, bytes);
  bounds_check("face_bc_idx", h->off_face_bc_idx, h->n_faces + 1, 4, bytes);
  bounds_check("face_bc_pool", h->off_face_bc_pool, h->face_bc_pool_len, 4,
               bytes);
  bounds_check("key_idx", h->off_key_idx, n + 1, 4, bytes);
  bounds_check("key_pool", h->off_key_pool, h->key_pool_len, 1, bytes);
  bounds_check("coord_idx", h->off_coord_idx, n + 1, 4, bytes);
  bounds_check("coord_pool", h->off_coord_pool, h->coord_pool_len, 8, bytes);

  Arena a;
  a.header_ = h;
  a.blob_ = blob;
  a.backing_ = std::move(backing);

  csr_check("bc", a.csr_idx(h->off_bc_idx, n), h->bc_pool_len);
  csr_check("facet", a.csr_idx(h->off_facet_idx, h->n_facets),
            h->facet_pool_len);
  csr_check("face", a.csr_idx(h->off_face_idx, h->n_faces), h->face_pool_len);
  csr_check("face_bc", a.csr_idx(h->off_face_bc_idx, h->n_faces),
            h->face_bc_pool_len);
  csr_check("key", a.csr_idx(h->off_key_idx, n), h->key_pool_len);
  csr_check("coord", a.csr_idx(h->off_coord_idx, n), h->coord_pool_len);
  ids_check("bc", a.section<std::uint32_t>(h->off_bc_pool, h->bc_pool_len), n);
  ids_check("facet",
            a.section<std::uint32_t>(h->off_facet_pool, h->facet_pool_len), n);
  ids_check("face", a.section<std::uint32_t>(h->off_face_pool, h->face_pool_len),
            n);
  ids_check("face_bc",
            a.section<std::uint32_t>(h->off_face_bc_pool, h->face_bc_pool_len),
            n);
  return a;
}

std::span<const std::uint8_t> Arena::colors() const noexcept {
  return section<std::uint8_t>(header_->off_colors, header_->n_vertices);
}

std::span<const std::uint32_t> Arena::carrier_masks() const noexcept {
  return section<std::uint32_t>(header_->off_carriers, header_->n_vertices);
}

std::span<const VertexId> Arena::base_carrier(VertexId v) const {
  const auto idx = csr_idx(header_->off_bc_idx, header_->n_vertices);
  return section<std::uint32_t>(header_->off_bc_pool, header_->bc_pool_len)
      .subspan(idx[v], idx[v + 1] - idx[v]);
}

std::span<const VertexId> Arena::facet(std::uint32_t f) const {
  const auto idx = csr_idx(header_->off_facet_idx, header_->n_facets);
  return section<std::uint32_t>(header_->off_facet_pool,
                                header_->facet_pool_len)
      .subspan(idx[f], idx[f + 1] - idx[f]);
}

std::span<const VertexId> Arena::face(std::uint32_t i) const {
  const auto idx = csr_idx(header_->off_face_idx, header_->n_faces);
  return section<std::uint32_t>(header_->off_face_pool, header_->face_pool_len)
      .subspan(idx[i], idx[i + 1] - idx[i]);
}

std::span<const VertexId> Arena::face_base_carrier(std::uint32_t i) const {
  const auto idx = csr_idx(header_->off_face_bc_idx, header_->n_faces);
  return section<std::uint32_t>(header_->off_face_bc_pool,
                                header_->face_bc_pool_len)
      .subspan(idx[i], idx[i + 1] - idx[i]);
}

std::string_view Arena::key(VertexId v) const {
  const auto idx = csr_idx(header_->off_key_idx, header_->n_vertices);
  const auto pool =
      section<char>(header_->off_key_pool, header_->key_pool_len);
  return {pool.data() + idx[v], idx[v + 1] - idx[v]};
}

std::span<const double> Arena::coords(VertexId v) const {
  const auto idx = csr_idx(header_->off_coord_idx, header_->n_vertices);
  return section<double>(header_->off_coord_pool, header_->coord_pool_len)
      .subspan(idx[v], idx[v + 1] - idx[v]);
}

ChromaticComplex Arena::materialize() const {
  WFC_CHECK(valid(), "arena: materialize on empty arena");
  ChromaticComplex out(n_colors());
  const auto cols = colors();
  const auto masks = carrier_masks();
  for (VertexId v = 0; v < num_vertices(); ++v) {
    const auto bc = base_carrier(v);
    const auto xyz = coords(v);
    out.add_vertex(static_cast<Color>(cols[v]), std::string(key(v)),
                   ColorSet(masks[v]),
                   std::vector<double>(xyz.begin(), xyz.end()),
                   Simplex(bc.begin(), bc.end()));
  }
  for (std::uint32_t f = 0; f < num_facets(); ++f) {
    const auto fv = facet(f);
    out.add_facet(Simplex(fv.begin(), fv.end()));
  }
  return out;
}

}  // namespace wfc::topo
