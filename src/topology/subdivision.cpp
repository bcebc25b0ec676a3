#include "topology/subdivision.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <stdexcept>
#include <string>

#include "topology/face_table.hpp"
#include "topology/ordered_partition.hpp"

namespace wfc::topo {

namespace {

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

std::uint64_t fubini(int k) {
  WFC_REQUIRE(k >= 0 && k <= 20, "fubini: k out of range");
  // a(k) = sum_{j=1..k} C(k, j) a(k-j), a(0) = 1.
  std::vector<std::uint64_t> a(static_cast<std::size_t>(k) + 1, 0);
  a[0] = 1;
  for (int m = 1; m <= k; ++m) {
    std::uint64_t binom = 1;  // C(m, j) built incrementally
    for (int j = 1; j <= m; ++j) {
      binom = binom * static_cast<std::uint64_t>(m - j + 1) /
              static_cast<std::uint64_t>(j);
      a[static_cast<std::size_t>(m)] +=
          binom * a[static_cast<std::size_t>(m - j)];
    }
  }
  return a[static_cast<std::size_t>(k)];
}

std::string sds_vertex_key(Color color, const Simplex& view) {
  char buf[16];
  std::string key(buf, std::to_chars(buf, buf + sizeof(buf), color).ptr);
  key += '@';
  for (std::size_t i = 0; i < view.size(); ++i) {
    if (i) key += ',';
    key.append(buf, std::to_chars(buf, buf + sizeof(buf), view[i]).ptr);
  }
  return key;
}

namespace {

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// Largest facet subdivide accepts: the Fubini(11) * 11 facet ids of an
/// 11-vertex facet's subdivision overflow the arena's u32 CSR pools.
constexpr std::size_t kMaxSdsFacet = 10;

/// The ordered partitions of k positions as block masks, in
/// for_each_ordered_partition's order, appended to `out` as records
/// [block count, B1, ..., Bm].
void ordered_partition_masks(std::uint32_t remaining,
                             std::vector<std::uint32_t>& blocks,
                             std::vector<std::uint32_t>& out) {
  if (remaining == 0) {
    out.push_back(static_cast<std::uint32_t>(blocks.size()));
    out.insert(out.end(), blocks.begin(), blocks.end());
    return;
  }
  for (std::uint32_t sub = remaining; sub != 0; sub = (sub - 1) & remaining) {
    blocks.push_back(sub);
    ordered_partition_masks(remaining & ~sub, blocks, out);
    blocks.pop_back();
  }
}

std::uint32_t decimal_digits(std::uint32_t v) {
  std::uint32_t d = 1;
  for (; v >= 10; v /= 10) ++d;
  return d;
}

/// A vertex of SDS(below): the vertex `own` of below seeing `view`, a face
/// id of below's face table, or kNone for the singleton view {own}.
struct SdsVertex {
  std::uint32_t view;
  VertexId own;
};

}  // namespace

Arena subdivide(const Arena& below) {
  WFC_REQUIRE(below.valid(), "subdivide: empty arena");
  const std::uint32_t n = below.num_vertices();
  const std::uint32_t n_facets = below.num_facets();
  const std::uint32_t n_faces = below.num_faces();
  const auto n_colors = static_cast<std::uint32_t>(below.n_colors());
  const auto colors = below.colors();
  const auto bad = [](const char* what) {
    throw std::invalid_argument(std::string("subdivide: ") + what);
  };
  if (n_facets == 0) bad("empty complex");

  // Every facet must be what ChromaticComplex::add_facet accepts: nonempty,
  // strictly ascending, one vertex per color.
  std::uint64_t sds_facets = 0;
  std::uint64_t sds_facet_ids = 0;
  std::uint64_t sds_faces = 0;
  for (std::uint32_t g = 0; g < n_facets; ++g) {
    const auto f = below.facet(g);
    if (f.empty() || f.size() > kMaxSdsFacet) bad("facet size out of range");
    std::uint32_t seen = 0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      if (i > 0 && f[i] <= f[i - 1]) bad("facet not sorted");
      if (colors[f[i]] >= n_colors) bad("facet color out of range");
      const std::uint32_t bit = std::uint32_t{1} << colors[f[i]];
      if ((seen & bit) != 0) bad("facet repeats a color");
      seen |= bit;
    }
    const std::uint64_t parts = fubini(static_cast<int>(f.size()));
    sds_facets += parts;
    sds_facet_ids += parts * f.size();
    sds_faces += parts * ((std::uint64_t{1} << f.size()) - f.size() - 1);
  }
  if (sds_facet_ids > 0xffffffffull) bad("subdivision too large");

  // Below's face table by first vertex, and each face's offset in the face
  // pool: a view of size >= 2 is found by a short scan, and its vertices'
  // slots are dense.
  std::vector<std::uint32_t> head(n, kNone);
  std::vector<std::uint32_t> next(n_faces);
  std::vector<std::uint32_t> face_off(std::size_t{n_faces} + 1, 0);
  for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
    face_off[fi + 1] =
        face_off[fi] + static_cast<std::uint32_t>(below.face(fi).size());
  }
  for (std::uint32_t fi = n_faces; fi-- > 0;) {
    const auto face = below.face(fi);
    next[fi] = kNone;
    if (face.empty()) continue;
    next[fi] = head[face[0]];
    head[face[0]] = fi;
  }
  const auto find_face = [&](std::span<const VertexId> f,
                             std::uint32_t mask) -> std::uint32_t {
    const auto size = static_cast<std::size_t>(std::popcount(mask));
    const VertexId first = f[static_cast<std::size_t>(std::countr_zero(mask))];
    for (std::uint32_t fi = head[first]; fi != kNone; fi = next[fi]) {
      const auto face = below.face(fi);
      if (face.size() != size) continue;
      std::size_t i = 0;
      for (std::uint32_t m = mask; m != 0; m &= m - 1, ++i) {
        if (face[i] != f[static_cast<std::size_t>(std::countr_zero(m))]) break;
      }
      if (i == size) return fi;
    }
    bad("a facet's face is missing from the face table");
    return kNone;
  };

  // Pass 1: the vertices, in the order SDS over the materialized complex
  // interns them (facets in order, ordered partitions in enumeration order,
  // blocks in order, positions ascending), and the facets.  A vertex is
  // identified by its slot: `own` for the singleton view, else
  // n + (offset of the view face) + (position of own in it).
  std::vector<std::uint32_t> slot_id(std::size_t{n} + face_off[n_faces], kNone);
  std::vector<SdsVertex> verts;
  verts.reserve(slot_id.size());
  std::vector<VertexId> facet_pool;
  facet_pool.reserve(static_cast<std::size_t>(sds_facet_ids));
  std::vector<std::uint32_t> facet_idx;
  facet_idx.reserve(static_cast<std::size_t>(sds_facets) + 1);
  facet_idx.push_back(0);
  std::vector<std::uint8_t> whole_seen(std::size_t{n} + n_faces, 0);
  std::vector<std::uint32_t> partitions[kMaxSdsFacet + 1];
  std::vector<std::uint32_t> blocks;
  std::vector<std::uint32_t> view_of;
  for (std::uint32_t g = 0; g < n_facets; ++g) {
    const auto f = below.facet(g);
    const auto k = static_cast<std::uint32_t>(f.size());
    view_of.assign(std::size_t{1} << k, kNone);
    for (std::uint32_t mask = 1; mask < (std::uint32_t{1} << k); ++mask) {
      view_of[mask] = std::popcount(mask) == 1
                          ? f[static_cast<std::size_t>(std::countr_zero(mask))]
                          : find_face(f, mask);
    }
    // materialize() drops a repeated facet; so does this.
    const std::uint32_t full = (std::uint32_t{1} << k) - 1;
    std::uint8_t& seen = whole_seen[k == 1 ? f[0] : n + view_of[full]];
    if (seen != 0) continue;
    seen = 1;

    std::vector<std::uint32_t>& parts = partitions[k];
    if (parts.empty()) ordered_partition_masks(full, blocks, parts);
    for (std::size_t p = 0; p < parts.size(); p += parts[p] + 1) {
      const std::size_t begin = facet_pool.size();
      std::uint32_t prefix = 0;
      for (std::uint32_t b = 1; b <= parts[p]; ++b) {
        const std::uint32_t block = parts[p + b];
        prefix |= block;
        const bool single = std::popcount(prefix) == 1;
        for (std::uint32_t m = block; m != 0; m &= m - 1) {
          const auto pos = static_cast<std::uint32_t>(std::countr_zero(m));
          const VertexId own = f[pos];
          const std::size_t slot =
              single ? own
                     : std::size_t{n} + face_off[view_of[prefix]] +
                           static_cast<std::size_t>(std::popcount(
                               prefix & ((std::uint32_t{1} << pos) - 1)));
          std::uint32_t& id = slot_id[slot];
          if (id == kNone) {
            id = static_cast<std::uint32_t>(verts.size());
            verts.push_back(SdsVertex{single ? kNone : view_of[prefix], own});
          }
          facet_pool.push_back(id);
        }
      }
      std::sort(facet_pool.begin() + static_cast<std::ptrdiff_t>(begin),
                facet_pool.end());
      facet_idx.push_back(static_cast<std::uint32_t>(facet_pool.size()));
    }
  }
  const auto n_new = static_cast<std::uint32_t>(verts.size());
  const auto view = [&below](const SdsVertex& v) {
    return v.view == kNone ? std::span<const VertexId>(&v.own, 1)
                           : below.face(v.view);
  };

  // Pass 2: section sizes.  A vertex's base carrier is the sorted union of
  // its view's (below's face base carrier for a face view).  Coordinates
  // exist iff every vertex of below has them, and a view's must agree in
  // dimension.
  bool geom = n > 0;
  for (VertexId v = 0; v < n && geom; ++v) geom = !below.coords(v).empty();
  ArenaShape shape;
  shape.n_colors = n_colors;
  shape.n_vertices = n_new;
  shape.n_facets = static_cast<std::uint32_t>(facet_idx.size() - 1);
  shape.facet_pool = facet_pool.size();
  std::vector<std::uint32_t> bc_len(n_new);
  Simplex sorted_bc;
  const auto sorted_base_carrier = [&below, &sorted_bc](VertexId v) {
    const auto bc = below.base_carrier(v);
    sorted_bc.assign(bc.begin(), bc.end());
    std::sort(sorted_bc.begin(), sorted_bc.end());
    sorted_bc.erase(std::unique(sorted_bc.begin(), sorted_bc.end()),
                    sorted_bc.end());
    return std::span<const VertexId>(sorted_bc);
  };
  for (std::uint32_t i = 0; i < n_new; ++i) {
    const SdsVertex& sv = verts[i];
    const auto sigma = view(sv);
    bc_len[i] = static_cast<std::uint32_t>(
        sv.view == kNone ? sorted_base_carrier(sv.own).size()
                         : below.face_base_carrier(sv.view).size());
    shape.bc_pool += bc_len[i];
    shape.key_pool += decimal_digits(colors[sv.own]) + sigma.size();
    for (VertexId v : sigma) shape.key_pool += decimal_digits(v);
    if (geom) {
      const std::size_t d = below.coords(sigma[0]).size();
      for (VertexId v : sigma) {
        if (below.coords(v).size() != d) bad("mixed coordinate dimensions");
      }
      shape.coord_pool += d;
    }
  }

  // The new face table; a face's base carrier is that of its vertex with
  // the largest view (the views of a face are nested).
  const auto sds_facet = [&](std::uint32_t g) {
    return std::span<const VertexId>(facet_pool)
        .subspan(facet_idx[g], facet_idx[g + 1] - facet_idx[g]);
  };
  const std::vector<detail::FaceRef> faces = detail::dedupe_faces(
      n_new, shape.n_facets, sds_facet, static_cast<std::size_t>(sds_faces));
  shape.n_faces = static_cast<std::uint32_t>(faces.size());
  const auto face_rep = [&](const detail::FaceRef& ref) {
    const auto f = sds_facet(ref.facet);
    VertexId rep = kNone;
    std::size_t widest = 0;
    for (std::uint32_t m = ref.mask; m != 0; m &= m - 1) {
      const VertexId v = f[static_cast<std::size_t>(std::countr_zero(m))];
      const std::size_t width = view(verts[v]).size();
      if (width > widest) {
        widest = width;
        rep = v;
      }
    }
    return rep;
  };
  for (const detail::FaceRef& ref : faces) {
    shape.face_pool += static_cast<std::uint64_t>(std::popcount(ref.mask));
    shape.face_bc_pool += bc_len[face_rep(ref)];
  }

  // Pass 3: every section, written once in place.
  ArenaWriter w(shape);
  const auto out_colors = w.colors();
  const auto carriers = w.carriers();
  const auto bc_idx = w.bc_idx();
  const auto bc_pool = w.bc_pool();
  const auto key_idx = w.key_idx();
  const auto key_pool = w.key_pool();
  const auto coord_idx = w.coord_idx();
  const auto coord_pool = w.coord_pool();
  const auto below_carriers = below.carrier_masks();
  for (std::uint32_t i = 0; i < n_new; ++i) {
    const SdsVertex& sv = verts[i];
    const auto sigma = view(sv);
    out_colors[i] = colors[sv.own];
    std::uint32_t carrier = 0;
    for (VertexId v : sigma) carrier |= below_carriers[v];
    carriers[i] = carrier;

    const auto bc = sv.view == kNone ? sorted_base_carrier(sv.own)
                                     : below.face_base_carrier(sv.view);
    std::copy(bc.begin(), bc.end(), bc_pool.begin() + bc_idx[i]);
    bc_idx[i + 1] = bc_idx[i] + bc_len[i];

    char* key = key_pool.data() + key_idx[i];
    char* const key_end = key_pool.data() + key_pool.size();
    key = std::to_chars(key, key_end, static_cast<int>(colors[sv.own])).ptr;
    *key++ = '@';
    for (std::size_t j = 0; j < sigma.size(); ++j) {
      if (j > 0) *key++ = ',';
      key = std::to_chars(key, key_end, sigma[j]).ptr;
    }
    key_idx[i + 1] = static_cast<std::uint32_t>(key - key_pool.data());

    coord_idx[i + 1] = coord_idx[i];
    if (!geom) continue;
    double* xyz = coord_pool.data() + coord_idx[i];
    const std::size_t d = below.coords(sigma[0]).size();
    coord_idx[i + 1] += static_cast<std::uint32_t>(d);
    if (sigma.size() == 1) {
      const auto src = below.coords(sv.own);
      std::copy(src.begin(), src.end(), xyz);
      continue;
    }
    // Paper §3.6: midpoint of barycenter(sigma) and the barycenter of the
    // face of sigma opposite own, summed in view order as barycenter() does.
    const auto size = static_cast<double>(sigma.size());
    for (std::size_t x = 0; x < d; ++x) {
      double a = 0.0;
      double b = 0.0;
      for (VertexId v : sigma) a += below.coords(v)[x];
      for (VertexId v : sigma) {
        if (v != sv.own) b += below.coords(v)[x];
      }
      a /= size;
      b /= size - 1.0;
      xyz[x] = 0.5 * (a + b);
    }
  }
  const auto out_facet_idx = w.facet_idx();
  std::copy(facet_idx.begin(), facet_idx.end(), out_facet_idx.begin());
  std::copy(facet_pool.begin(), facet_pool.end(), w.facet_pool().begin());
  const auto face_idx = w.face_idx();
  const auto face_pool = w.face_pool();
  const auto face_bc_idx = w.face_bc_idx();
  const auto face_bc_pool = w.face_bc_pool();
  for (std::uint32_t i = 0; i < faces.size(); ++i) {
    const auto f = sds_facet(faces[i].facet);
    VertexId* out = face_pool.data() + face_idx[i];
    for (std::uint32_t m = faces[i].mask; m != 0; m &= m - 1) {
      *out++ = f[static_cast<std::size_t>(std::countr_zero(m))];
    }
    face_idx[i + 1] = static_cast<std::uint32_t>(out - face_pool.data());
    const VertexId rep = face_rep(faces[i]);
    std::copy(bc_pool.begin() + bc_idx[rep], bc_pool.begin() + bc_idx[rep + 1],
              face_bc_pool.begin() + face_bc_idx[i]);
    face_bc_idx[i + 1] = face_bc_idx[i] + bc_len[rep];
  }
  return std::move(w).finish();
}

ChromaticComplex standard_chromatic_subdivision(const ChromaticComplex& c) {
  return subdivide(Arena::build(c)).materialize();
}

ChromaticComplex iterated_sds(const ChromaticComplex& c, int k) {
  WFC_REQUIRE(k >= 0, "iterated_sds: negative level");
  if (k == 0) return c;
  Arena cur = subdivide(Arena::build(c));
  for (int i = 1; i < k; ++i) cur = subdivide(cur);
  return cur.materialize();
}

ChromaticComplex barycentric_subdivision(const ChromaticComplex& c) {
  WFC_REQUIRE(c.num_facets() > 0, "Bsd: empty complex");
  WFC_REQUIRE(c.dimension() + 1 <= c.n_colors(),
              "Bsd: needs n_colors >= dim+1 for the dimension coloring");
  const bool geom = has_embedding(c);
  ChromaticComplex out(c.n_colors());

  auto intern = [&](const Simplex& sigma) -> VertexId {
    // Barycenter vertex of face sigma; colored by dim(sigma).
    std::string key = "b@" + to_string(sigma);
    if (VertexId v = out.find_vertex(key); v != kNoVertex) return v;
    std::vector<double> coords;
    if (geom) coords = barycenter(c, sigma);
    return out.add_vertex(static_cast<Color>(sigma.size() - 1), std::move(key),
                          c.carrier_of(sigma), std::move(coords),
                          c.base_carrier_of(sigma));
  };

  for (const Simplex& facet : c.facets()) {
    // Maximal flags of the face lattice of `facet` <-> permutations of its
    // vertices (prefix chains).
    std::vector<VertexId> perm(facet.begin(), facet.end());
    std::sort(perm.begin(), perm.end());
    do {
      Simplex flag_facet;
      Simplex prefix;
      for (VertexId v : perm) {
        prefix.push_back(v);
        Simplex canon = prefix;
        std::sort(canon.begin(), canon.end());
        flag_facet.push_back(intern(canon));
      }
      out.add_facet(make_simplex(std::move(flag_facet)));
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  return out;
}

ChromaticComplex iterated_bsd(const ChromaticComplex& c, int k) {
  WFC_REQUIRE(k >= 0, "iterated_bsd: negative level");
  if (k == 0) return c;
  ChromaticComplex cur = barycentric_subdivision(c);
  for (int i = 1; i < k; ++i) cur = barycentric_subdivision(cur);
  return cur;
}

}  // namespace wfc::topo
