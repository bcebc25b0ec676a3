// Delta compiled into bit tables, once per task object.
//
// Prop 3.1 asks, for every simplex s of SDS^b(I), whether delta(s) lies in
// Delta(carrier(s, I)).  The carrier is always a face of I, so Delta is a
// finite relation between the faces of I and the simplices of O (as in
// Saraph-Herlihy-Gafni's algorithmic ACT, PAPERS.md).  These tables hold
// that relation, one "class" per face sigma of I:
//   * the output vertices allowed for sigma (a row of words, ANDed into
//     search domains);
//   * the output edges of O allowed for sigma (packed bits over O's edges);
//   * for sigma with three or more colors, the allowed output simplices of
//     size >= 3 (packed bits over O's simplices of that size).
// Every bit is one call of Task::allows(sigma, out) made within its
// contract, colors(out) subset of colors(sigma); pairs outside it are never
// asked and never read.  Retained memory is proportional to
// faces(I) x simplices(O) bits.
//
// Task::delta_tables() builds the tables on first use, under the task's
// lock, and frees them with the task, so an interned task compiles once
// per server.
// The arena search (arena_search.cpp) reads only these tables.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/color_set.hpp"
#include "tasks/task.hpp"
#include "topology/complex.hpp"

namespace wfc::task {

struct SolveOptions;

class DeltaTables {
 public:
  static constexpr std::uint32_t kNoClass = ~std::uint32_t{0};

  /// Compiles `task`'s Delta.  Checks `interrupt` (cancel_requested)
  /// before each class and returns nullptr once it fires.
  [[nodiscard]] static std::unique_ptr<const DeltaTables> compile(
      const Task& task, const SolveOptions& interrupt);

  // --- Classes: the faces of I.  Class v < input vertex count is the
  // vertex {v}; the faces of size >= 2 follow in first-emission order.

  [[nodiscard]] std::uint32_t num_classes() const noexcept {
    return static_cast<std::uint32_t>(class_colors_.size());
  }
  /// The class of `face` (sorted vertex ids of I), or kNoClass when it is
  /// not a face of I.
  [[nodiscard]] std::uint32_t class_of(
      std::span<const topo::VertexId> face) const;
  [[nodiscard]] ColorSet class_colors(std::uint32_t cls) const {
    return class_colors_[cls];
  }

  // --- O, the output complex.

  /// Colors of O: color_row(c) exists for c < n_colors().
  [[nodiscard]] std::uint32_t n_colors() const noexcept { return n_colors_; }
  /// Words of a row over the output vertices.
  [[nodiscard]] std::size_t words() const noexcept { return words_; }
  /// Words of a row over the output facets.
  [[nodiscard]] std::size_t facet_words() const noexcept {
    return facet_words_;
  }
  /// The output vertices of color `c`.
  [[nodiscard]] const std::uint64_t* color_row(Color c) const {
    return color_rows_.data() + static_cast<std::size_t>(c) * words_;
  }
  /// The facets of O containing output vertex `w`.
  [[nodiscard]] const std::uint64_t* facet_row(topo::VertexId w) const {
    return facet_rows_.data() + static_cast<std::size_t>(w) * facet_words_;
  }
  /// Edge e of O, as its two output vertices in ascending order.
  [[nodiscard]] const std::pair<topo::VertexId, topo::VertexId>& edge(
      std::uint32_t e) const {
    return edges_[e];
  }

  // --- Delta.

  /// The output vertices allowed for the class.
  [[nodiscard]] const std::uint64_t* vertex_row(std::uint32_t cls) const {
    return vertex_rows_.data() + static_cast<std::size_t>(cls) * words_;
  }
  /// Calls fn(e) for every edge e of O allowed for the class, ascending.
  template <typename Fn>
  void for_each_allowed_edge(std::uint32_t cls, Fn&& fn) const {
    const std::size_t begin = static_cast<std::size_t>(cls) * edges_.size();
    const std::size_t end = begin + edges_.size();
    for (std::size_t i = begin; i < end;) {
      const std::uint64_t word = edge_bits_[i >> 6] >> (i & 63);
      if (word == 0) {
        i = (i | 63) + 1;
        continue;
      }
      i += static_cast<std::size_t>(std::countr_zero(word));
      if (i >= end) break;
      fn(static_cast<std::uint32_t>(i - begin));
      ++i;
    }
  }
  /// True iff `image` (sorted, >= 3 vertices, a simplex of O) is allowed
  /// for the class.
  [[nodiscard]] bool simplex_allowed(std::uint32_t cls,
                                    const topo::Simplex& image) const;

  /// Bytes of the Delta bit tables (vertex rows, edge bits, simplex bits).
  [[nodiscard]] std::size_t table_bytes() const noexcept;

 private:
  /// Lookup of a std::vector-keyed simplex table by span.
  struct SpanHash {
    using is_transparent = void;
    std::size_t operator()(std::span<const topo::VertexId> s) const noexcept {
      return topo::SimplexHash{}(s);
    }
  };
  struct SpanEq {
    using is_transparent = void;
    bool operator()(std::span<const topo::VertexId> a,
                    std::span<const topo::VertexId> b) const noexcept {
      return std::ranges::equal(a, b);
    }
  };
  using SimplexIds =
      std::unordered_map<topo::Simplex, std::uint32_t, SpanHash, SpanEq>;

  DeltaTables() = default;

  std::uint32_t n_in_ = 0;  // vertices of I: the singleton classes
  std::vector<ColorSet> class_colors_;
  SimplexIds face_classes_;  // faces of I of size >= 2

  std::uint32_t n_colors_ = 0;
  std::uint32_t m_ = 0;
  std::size_t words_ = 0;
  std::size_t facet_words_ = 1;
  std::vector<std::uint64_t> color_rows_;
  std::vector<std::uint64_t> facet_rows_;
  std::vector<std::pair<topo::VertexId, topo::VertexId>> edges_;
  SimplexIds big_ids_;  // simplices of O of size >= 3

  std::vector<std::uint64_t> vertex_rows_;  // num_classes() x words_
  std::vector<std::uint64_t> edge_bits_;    // num_classes() x edges_, packed
  std::vector<std::uint32_t> big_row_;      // class -> row, or kNoClass
  std::vector<std::uint64_t> big_bits_;     // rows x big_ids_, packed
};

}  // namespace wfc::task
