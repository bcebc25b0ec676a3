#include "tasks/delta_tables.hpp"

#include <algorithm>

#include "tasks/arena_search.hpp"
#include "tasks/solvability.hpp"

namespace wfc::task {

namespace {

using topo::ChromaticComplex;
using topo::Simplex;
using topo::VertexId;

inline void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}

inline bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1u;
}

}  // namespace

std::unique_ptr<const DeltaTables> DeltaTables::compile(
    const Task& task, const SolveOptions& interrupt) {
  const ChromaticComplex& in = task.input();
  const ChromaticComplex& out = task.output();
  std::unique_ptr<DeltaTables> t(new DeltaTables());

  // Classes: every vertex of I, then I's faces of size >= 2.
  t->n_in_ = static_cast<std::uint32_t>(in.num_vertices());
  std::vector<Simplex> faces;
  for (VertexId v = 0; v < in.num_vertices(); ++v) {
    faces.push_back(Simplex{v});
    t->class_colors_.push_back(ColorSet::single(in.vertex(v).color));
  }
  in.for_each_face([&](const Simplex& face) {
    if (face.size() < 2) return;
    t->face_classes_.emplace(face, static_cast<std::uint32_t>(faces.size()));
    t->class_colors_.push_back(in.colors_of(face));
    faces.push_back(face);
  });
  const auto n_classes = static_cast<std::uint32_t>(faces.size());

  // O: colors, facet membership, edges, simplices of size >= 3.
  t->n_colors_ = static_cast<std::uint32_t>(out.n_colors());
  t->m_ = static_cast<std::uint32_t>(out.num_vertices());
  t->words_ = (t->m_ + 63) / 64;
  const auto n_out_facets = static_cast<std::uint32_t>(out.num_facets());
  t->facet_words_ = std::max<std::size_t>(1, (n_out_facets + 63) / 64);
  t->color_rows_.assign(static_cast<std::size_t>(t->n_colors_) * t->words_, 0);
  t->facet_rows_.assign(static_cast<std::size_t>(t->m_) * t->facet_words_, 0);
  std::vector<ColorSet> out_colors(t->m_);
  for (VertexId w = 0; w < t->m_; ++w) {
    const Color c = out.vertex(w).color;
    out_colors[w] = ColorSet::single(c);
    t->color_rows_[static_cast<std::size_t>(c) * t->words_ + (w >> 6)] |=
        std::uint64_t{1} << (w & 63);
  }
  for (std::uint32_t fi = 0; fi < n_out_facets; ++fi) {
    for (VertexId w : out.facets()[fi]) {
      t->facet_rows_[static_cast<std::size_t>(w) * t->facet_words_ +
                     (fi >> 6)] |= std::uint64_t{1} << (fi & 63);
    }
  }
  std::vector<Simplex> bigs;
  std::vector<ColorSet> big_colors;
  out.for_each_face([&](const Simplex& s) {
    if (s.size() == 2) {
      t->edges_.emplace_back(s[0], s[1]);
    } else if (s.size() >= 3) {
      t->big_ids_.emplace(s, static_cast<std::uint32_t>(bigs.size()));
      bigs.push_back(s);
      big_colors.push_back(out.colors_of(s));
    }
  });
  const std::size_t n_edges = t->edges_.size();

  // Delta, class by class, asked only within its contract.  The interrupt
  // is checked once per class.
  t->vertex_rows_.assign(static_cast<std::size_t>(n_classes) * t->words_, 0);
  t->edge_bits_.assign(
      (static_cast<std::size_t>(n_classes) * n_edges + 63) / 64, 0);
  t->big_row_.assign(n_classes, kNoClass);
  std::uint32_t big_rows = 0;
  for (std::uint32_t cls = 0; cls < n_classes; ++cls) {
    if (t->class_colors_[cls].size() >= 3 && !bigs.empty()) {
      t->big_row_[cls] = big_rows++;
    }
  }
  t->big_bits_.assign(
      (static_cast<std::size_t>(big_rows) * bigs.size() + 63) / 64, 0);
  Simplex single(1);
  Simplex pair(2);
  for (std::uint32_t cls = 0; cls < n_classes; ++cls) {
    if (cancel_requested(interrupt)) return nullptr;
    const Simplex& sigma = faces[cls];
    const ColorSet colors = t->class_colors_[cls];
    std::uint64_t* vrow = t->vertex_rows_.data() +
                          static_cast<std::size_t>(cls) * t->words_;
    for (VertexId w = 0; w < t->m_; ++w) {
      if (!out_colors[w].subset_of(colors)) continue;
      single[0] = w;
      if (task.allows(sigma, single)) {
        vrow[w >> 6] |= std::uint64_t{1} << (w & 63);
      }
    }
    if (colors.size() < 2) continue;
    for (std::size_t e = 0; e < n_edges; ++e) {
      const auto [a, b] = t->edges_[e];
      if (!out_colors[a].unite(out_colors[b]).subset_of(colors)) continue;
      pair[0] = a;
      pair[1] = b;
      if (task.allows(sigma, pair)) {
        set_bit(t->edge_bits_, static_cast<std::size_t>(cls) * n_edges + e);
      }
    }
    if (t->big_row_[cls] == kNoClass) continue;
    const std::size_t row =
        static_cast<std::size_t>(t->big_row_[cls]) * bigs.size();
    for (std::size_t s = 0; s < bigs.size(); ++s) {
      if (!big_colors[s].subset_of(colors)) continue;
      if (task.allows(sigma, bigs[s])) set_bit(t->big_bits_, row + s);
    }
  }
  return t;
}

const DeltaTables* Task::delta_tables(const SolveOptions& interrupt) const {
  if (const DeltaTables* ready = delta_ready_.load(std::memory_order_acquire)) {
    return ready;
  }
  std::lock_guard<std::mutex> lock(delta_mu_);
  if (delta_ == nullptr) {
    delta_ = DeltaTables::compile(*this, interrupt);
    if (delta_ == nullptr) return nullptr;  // interrupted
    delta_ready_.store(delta_.get(), std::memory_order_release);
  }
  return delta_.get();
}

std::uint32_t DeltaTables::class_of(std::span<const VertexId> face) const {
  if (face.size() == 1) {
    return face[0] < n_in_ ? face[0] : kNoClass;
  }
  const auto it = face_classes_.find(face);
  return it == face_classes_.end() ? kNoClass : it->second;
}

bool DeltaTables::simplex_allowed(std::uint32_t cls,
                                  const Simplex& image) const {
  const std::uint32_t row = big_row_[cls];
  if (row == kNoClass) return false;
  const auto it = big_ids_.find(image);
  if (it == big_ids_.end()) return false;
  return test_bit(big_bits_, static_cast<std::size_t>(row) * big_ids_.size() +
                                 it->second);
}

std::size_t DeltaTables::table_bytes() const noexcept {
  return (vertex_rows_.size() + edge_bits_.size() + big_bits_.size()) *
         sizeof(std::uint64_t);
}

}  // namespace wfc::task
