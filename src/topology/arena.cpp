#include "topology/arena.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/assert.hpp"
#include "topology/face_table.hpp"

namespace wfc::topo {

namespace {

constexpr std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~7ull; }

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

/// Sorted, duplicate-free union of the base carriers of `face`'s vertices
/// (ChromaticComplex::base_carrier_of), into `out`.
void union_base_carrier(const ChromaticComplex& c,
                        std::span<const VertexId> face, Simplex& out) {
  out.clear();
  for (VertexId v : face) {
    const Simplex& vbc = c.vertex(v).base_carrier;
    out.insert(out.end(), vbc.begin(), vbc.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

}  // namespace

ArenaWriter::ArenaWriter(const ArenaShape& shape) {
  for (const std::uint64_t pool :
       {shape.bc_pool, shape.facet_pool, shape.face_pool, shape.face_bc_pool,
        shape.key_pool, shape.coord_pool}) {
    if (pool > 0xffffffffull) {
      throw std::invalid_argument("arena: CSR pool overflow");
    }
  }
  const std::uint64_t n = shape.n_vertices;
  h_.magic = kArenaMagic;
  h_.version = kArenaVersion;
  h_.n_colors = shape.n_colors;
  h_.n_vertices = shape.n_vertices;
  h_.n_facets = shape.n_facets;
  h_.n_faces = shape.n_faces;

  std::uint64_t off = align8(sizeof(ArenaHeader));
  const auto place = [&off](std::uint64_t count, std::uint64_t elem) {
    const std::uint64_t at = off;
    off = align8(off + count * elem);
    return at;
  };
  h_.off_colors = place(n, 1);
  h_.off_carriers = place(n, 4);
  h_.off_bc_idx = place(n + 1, 4);
  h_.off_bc_pool = place(shape.bc_pool, 4);
  h_.bc_pool_len = shape.bc_pool;
  h_.off_facet_idx = place(std::uint64_t{shape.n_facets} + 1, 4);
  h_.off_facet_pool = place(shape.facet_pool, 4);
  h_.facet_pool_len = shape.facet_pool;
  h_.off_face_idx = place(std::uint64_t{shape.n_faces} + 1, 4);
  h_.off_face_pool = place(shape.face_pool, 4);
  h_.face_pool_len = shape.face_pool;
  h_.off_face_bc_idx = place(std::uint64_t{shape.n_faces} + 1, 4);
  h_.off_face_bc_pool = place(shape.face_bc_pool, 4);
  h_.face_bc_pool_len = shape.face_bc_pool;
  h_.off_key_idx = place(n + 1, 4);
  h_.off_key_pool = place(shape.key_pool, 1);
  h_.key_pool_len = shape.key_pool;
  h_.off_coord_idx = place(n + 1, 4);
  h_.off_coord_pool = place(shape.coord_pool, 8);
  h_.coord_pool_len = shape.coord_pool;
  h_.blob_bytes = off;

  blob_ = std::make_shared<std::vector<std::byte>>(
      static_cast<std::size_t>(off), std::byte{0});
  std::memcpy(blob_->data(), &h_, sizeof(h_));
}

std::span<std::uint8_t> ArenaWriter::colors() {
  return at<std::uint8_t>(h_.off_colors, h_.n_vertices);
}
std::span<std::uint32_t> ArenaWriter::carriers() {
  return at<std::uint32_t>(h_.off_carriers, h_.n_vertices);
}
std::span<std::uint32_t> ArenaWriter::bc_idx() {
  return at<std::uint32_t>(h_.off_bc_idx, std::uint64_t{h_.n_vertices} + 1);
}
std::span<VertexId> ArenaWriter::bc_pool() {
  return at<VertexId>(h_.off_bc_pool, h_.bc_pool_len);
}
std::span<std::uint32_t> ArenaWriter::facet_idx() {
  return at<std::uint32_t>(h_.off_facet_idx, std::uint64_t{h_.n_facets} + 1);
}
std::span<VertexId> ArenaWriter::facet_pool() {
  return at<VertexId>(h_.off_facet_pool, h_.facet_pool_len);
}
std::span<std::uint32_t> ArenaWriter::face_idx() {
  return at<std::uint32_t>(h_.off_face_idx, std::uint64_t{h_.n_faces} + 1);
}
std::span<VertexId> ArenaWriter::face_pool() {
  return at<VertexId>(h_.off_face_pool, h_.face_pool_len);
}
std::span<std::uint32_t> ArenaWriter::face_bc_idx() {
  return at<std::uint32_t>(h_.off_face_bc_idx, std::uint64_t{h_.n_faces} + 1);
}
std::span<VertexId> ArenaWriter::face_bc_pool() {
  return at<VertexId>(h_.off_face_bc_pool, h_.face_bc_pool_len);
}
std::span<std::uint32_t> ArenaWriter::key_idx() {
  return at<std::uint32_t>(h_.off_key_idx, std::uint64_t{h_.n_vertices} + 1);
}
std::span<char> ArenaWriter::key_pool() {
  return at<char>(h_.off_key_pool, h_.key_pool_len);
}
std::span<std::uint32_t> ArenaWriter::coord_idx() {
  return at<std::uint32_t>(h_.off_coord_idx, std::uint64_t{h_.n_vertices} + 1);
}
std::span<double> ArenaWriter::coord_pool() {
  return at<double>(h_.off_coord_pool, h_.coord_pool_len);
}

Arena ArenaWriter::finish() && {
  const std::span<const std::byte> span(blob_->data(), blob_->size());
  return Arena::view(span, std::move(blob_));
}

Arena Arena::build(const ChromaticComplex& c) {
  const auto n = static_cast<std::uint32_t>(c.num_vertices());
  const auto nf = static_cast<std::uint32_t>(c.num_facets());
  const std::vector<Simplex>& facets = c.facets();

  ArenaShape shape;
  shape.n_colors = static_cast<std::uint32_t>(c.n_colors());
  shape.n_vertices = n;
  shape.n_facets = nf;
  std::size_t expect_faces = 0;
  for (VertexId v = 0; v < n; ++v) {
    const VertexData& vd = c.vertex(v);
    WFC_CHECK(vd.color >= 0 && vd.color < 256, "arena: color out of range");
    shape.bc_pool += vd.base_carrier.size();
    shape.key_pool += vd.key.size();
    shape.coord_pool += vd.coords.size();
  }
  for (const Simplex& f : facets) {
    WFC_CHECK(f.size() <= 24, "arena: facet too large to enumerate");
    shape.facet_pool += f.size();
    expect_faces += (std::size_t{1} << f.size()) - f.size() - 1;
  }

  // Deduplicated face table, size >= 2 only (singletons live in the
  // per-vertex sections).  Facets are sorted, so every submask is already
  // in canonical order; first-emission order is deterministic.
  const std::vector<detail::FaceRef> faces = detail::dedupe_faces(
      n, nf,
      [&facets](std::uint32_t g) {
        return std::span<const VertexId>(facets[g]);
      },
      expect_faces);
  shape.n_faces = static_cast<std::uint32_t>(faces.size());
  Simplex face;
  Simplex face_bc;
  const auto load_face = [&](const detail::FaceRef& ref) {
    const Simplex& f = facets[ref.facet];
    face.clear();
    for (std::uint32_t m = ref.mask; m != 0; m &= m - 1) {
      face.push_back(f[static_cast<std::size_t>(std::countr_zero(m))]);
    }
    union_base_carrier(c, face, face_bc);
  };
  for (const detail::FaceRef& ref : faces) {
    load_face(ref);
    shape.face_pool += face.size();
    shape.face_bc_pool += face_bc.size();
  }

  ArenaWriter w(shape);
  const auto colors = w.colors();
  const auto carriers = w.carriers();
  const auto bc_idx = w.bc_idx();
  const auto bc_pool = w.bc_pool();
  const auto key_idx = w.key_idx();
  const auto key_pool = w.key_pool();
  const auto coord_idx = w.coord_idx();
  const auto coord_pool = w.coord_pool();
  for (VertexId v = 0; v < n; ++v) {
    const VertexData& vd = c.vertex(v);
    colors[v] = static_cast<std::uint8_t>(vd.color);
    carriers[v] = vd.carrier.mask();
    std::copy(vd.base_carrier.begin(), vd.base_carrier.end(),
              bc_pool.begin() + bc_idx[v]);
    bc_idx[v + 1] =
        bc_idx[v] + static_cast<std::uint32_t>(vd.base_carrier.size());
    std::copy(vd.key.begin(), vd.key.end(), key_pool.begin() + key_idx[v]);
    key_idx[v + 1] = key_idx[v] + static_cast<std::uint32_t>(vd.key.size());
    std::copy(vd.coords.begin(), vd.coords.end(),
              coord_pool.begin() + coord_idx[v]);
    coord_idx[v + 1] =
        coord_idx[v] + static_cast<std::uint32_t>(vd.coords.size());
  }
  const auto facet_idx = w.facet_idx();
  const auto facet_pool = w.facet_pool();
  for (std::uint32_t g = 0; g < nf; ++g) {
    std::copy(facets[g].begin(), facets[g].end(),
              facet_pool.begin() + facet_idx[g]);
    facet_idx[g + 1] =
        facet_idx[g] + static_cast<std::uint32_t>(facets[g].size());
  }
  const auto face_idx = w.face_idx();
  const auto face_pool = w.face_pool();
  const auto face_bc_idx = w.face_bc_idx();
  const auto face_bc_pool = w.face_bc_pool();
  for (std::uint32_t i = 0; i < faces.size(); ++i) {
    load_face(faces[i]);
    std::copy(face.begin(), face.end(), face_pool.begin() + face_idx[i]);
    face_idx[i + 1] = face_idx[i] + static_cast<std::uint32_t>(face.size());
    std::copy(face_bc.begin(), face_bc.end(),
              face_bc_pool.begin() + face_bc_idx[i]);
    face_bc_idx[i + 1] =
        face_bc_idx[i] + static_cast<std::uint32_t>(face_bc.size());
  }
  return std::move(w).finish();
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
  // Index arrays hold count + 1 entries, counted in 64 bits: a count of
  // 0xffffffff must not wrap to an empty array.
  const std::uint64_t n_idx = std::uint64_t{n} + 1;
  const std::uint64_t facet_idx = std::uint64_t{h->n_facets} + 1;
  const std::uint64_t face_idx = std::uint64_t{h->n_faces} + 1;
  bounds_check("colors", h->off_colors, n, 1, bytes);
  bounds_check("carriers", h->off_carriers, n, 4, bytes);
  bounds_check("bc_idx", h->off_bc_idx, n_idx, 4, bytes);
  bounds_check("bc_pool", h->off_bc_pool, h->bc_pool_len, 4, bytes);
  bounds_check("facet_idx", h->off_facet_idx, facet_idx, 4, bytes);
  bounds_check("facet_pool", h->off_facet_pool, h->facet_pool_len, 4, bytes);
  bounds_check("face_idx", h->off_face_idx, face_idx, 4, bytes);
  bounds_check("face_pool", h->off_face_pool, h->face_pool_len, 4, bytes);
  bounds_check("face_bc_idx", h->off_face_bc_idx, face_idx, 4, bytes);
  bounds_check("face_bc_pool", h->off_face_bc_pool, h->face_bc_pool_len, 4,
               bytes);
  bounds_check("key_idx", h->off_key_idx, n_idx, 4, bytes);
  bounds_check("key_pool", h->off_key_pool, h->key_pool_len, 1, bytes);
  bounds_check("coord_idx", h->off_coord_idx, n_idx, 4, bytes);
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
