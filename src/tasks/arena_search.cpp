#include "tasks/arena_search.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/assert.hpp"
#include "tasks/delta_tables.hpp"

namespace wfc::task {

namespace {

using topo::kNoVertex;
using topo::Simplex;
using topo::VertexId;

/// How often (in explored nodes) the deadline clock is consulted; the cancel
/// token is a relaxed atomic load and is checked at every node.  Part of
/// the search-order contract: interrupted searches count their nodes at
/// this cadence.
constexpr std::uint64_t kDeadlineCheckMask = 0x3ff;

bool deadline_passed(const SolveOptions& options) {
  return options.deadline &&
         std::chrono::steady_clock::now() >= *options.deadline;
}

inline bool test_bit(const std::uint64_t* row, std::uint32_t i) {
  return (row[i >> 6] >> (i & 63)) & 1u;
}
inline void set_bit(std::uint64_t* row, std::uint32_t i) {
  row[i >> 6] |= std::uint64_t{1} << (i & 63);
}
inline void clear_bit(std::uint64_t* row, std::uint32_t i) {
  row[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

class ArenaSearcher {
 public:
  ArenaSearcher(const DeltaTables& delta, const topo::Arena& arena,
                const SolveOptions& options)
      : delta_(&delta),
        in_(&arena),
        options_(&options),
        budget_(options.node_budget),
        n_(arena.num_vertices()),
        words_(delta.words()),
        facet_words_(delta.facet_words()) {
    build_domains();
    build_constraints();
    build_pair_rows();
    snapshots_.resize(static_cast<std::size_t>(n_) * words_);
    scratch_row_.resize(words_);
    scratch_facets_.resize(facet_words_);
  }

  Solvability run(std::vector<VertexId>& out, std::uint64_t& nodes) {
    assignment_.assign(n_, kNoVertex);
    nodes_ = 0;
    if (cancel_requested(*options_)) {
      nodes = 0;
      return Solvability::kCancelled;
    }
    trail_.clear();
    if (!propagate(kNoVertex)) {
      nodes = nodes_;
      return Solvability::kUnsolvable;
    }
    const Solvability result = assign(0);
    nodes = nodes_;
    if (result == Solvability::kSolvable) out = assignment_;
    return result;
  }

 private:
  std::uint64_t* dom_row(VertexId v) {
    return domains_.data() + static_cast<std::size_t>(v) * words_;
  }

  /// The class of a base carrier; consecutive lookups of one carrier (the
  /// common case along a facet) skip the hash.
  std::uint32_t class_of(std::span<const VertexId> bc) {
    if (last_cls_ == DeltaTables::kNoClass ||
        !std::ranges::equal(bc, last_bc_)) {
      last_bc_.assign(bc.begin(), bc.end());
      last_cls_ = delta_->class_of(bc);
      WFC_REQUIRE(last_cls_ != DeltaTables::kNoClass,
                  "arena_search: a base carrier is not a face of the task's "
                  "input complex");
    }
    return last_cls_;
  }

  void build_domains() {
    // Domain of v: the outputs allowed for v's base-carrier class, of v's
    // color.
    domains_.assign(static_cast<std::size_t>(n_) * words_, 0);
    dom_count_.assign(n_, 0);
    const auto colors = in_->colors();
    for (VertexId v = 0; v < n_; ++v) {
      const std::uint64_t* allowed =
          delta_->vertex_row(class_of(in_->base_carrier(v)));
      WFC_REQUIRE(colors[v] < delta_->n_colors(),
                  "arena_search: an arena vertex color is not a color of the "
                  "task's output complex");
      const std::uint64_t* same_color =
          delta_->color_row(static_cast<Color>(colors[v]));
      std::uint64_t* row = dom_row(v);
      std::uint32_t count = 0;
      for (std::size_t w = 0; w < words_; ++w) {
        row[w] = allowed[w] & same_color[w];
        count += static_cast<std::uint32_t>(std::popcount(row[w]));
      }
      dom_count_[v] = count;
    }
  }

  void build_constraints() {
    // One constraint per arena face (the face table holds every
    // deduplicated face of size >= 2 in ChromaticComplex::for_each_face's
    // first-emission order, so constraint indices line up with face
    // indices).  face_key_[fi] is the face's pair-row slot for an edge and
    // its class for a larger face.
    const std::uint32_t n_faces = in_->num_faces();
    face_key_.resize(n_faces);
    std::vector<std::uint32_t> slot_of(delta_->num_classes(), kNoSlot);
    for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
      const std::uint32_t cls = class_of(in_->face_base_carrier(fi));
      if (in_->face(fi).size() != 2) {
        face_key_[fi] = cls;
        continue;
      }
      if (slot_of[cls] == kNoSlot) {
        slot_of[cls] = static_cast<std::uint32_t>(slot_cls_.size());
        slot_cls_.push_back(cls);
      }
      face_key_[fi] = slot_of[cls];
    }

    // by_vertex CSR: face ids containing v, ascending.
    std::vector<std::uint32_t> counts(n_ + 1, 0);
    for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
      for (VertexId v : in_->face(fi)) ++counts[v + 1];
    }
    by_vertex_idx_.assign(counts.begin(), counts.end());
    for (std::size_t i = 1; i < by_vertex_idx_.size(); ++i) {
      by_vertex_idx_[i] += by_vertex_idx_[i - 1];
    }
    by_vertex_pool_.resize(by_vertex_idx_.back());
    {
      std::vector<std::uint32_t> cursor(by_vertex_idx_.begin(),
                                        by_vertex_idx_.end() - 1);
      for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
        for (VertexId v : in_->face(fi)) by_vertex_pool_[cursor[v]++] = fi;
      }
    }

    // Neighbour CSR over the edge (size-2) constraints.
    std::vector<std::uint32_t> ncounts(n_ + 1, 0);
    for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
      const auto f = in_->face(fi);
      if (f.size() != 2) continue;
      ++ncounts[f[0] + 1];
      ++ncounts[f[1] + 1];
    }
    nbr_idx_.assign(ncounts.begin(), ncounts.end());
    for (std::size_t i = 1; i < nbr_idx_.size(); ++i) {
      nbr_idx_[i] += nbr_idx_[i - 1];
    }
    nbr_pool_.resize(nbr_idx_.back());
    {
      std::vector<std::uint32_t> cursor(nbr_idx_.begin(), nbr_idx_.end() - 1);
      for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
        const auto f = in_->face(fi);
        if (f.size() != 2) continue;
        nbr_pool_[cursor[f[0]]++] = Arc{f[1], face_key_[fi]};
        nbr_pool_[cursor[f[1]]++] = Arc{f[0], face_key_[fi]};
      }
    }
  }

  void build_pair_rows() {
    // Per slot (a class on some edge face): a row over the outputs for each
    // endpoint of the class's allowed edges, bit b of a's row <=> {a, b} is
    // an allowed edge.  pair_keys_ marks the endpoints, pair_base_ numbers
    // their rows word by word; any other output's row is empty.
    pair_keys_.assign(slot_cls_.size() * words_, 0);
    pair_base_.resize(slot_cls_.size() * words_);
    std::uint32_t rows = 0;
    for (std::size_t s = 0; s < slot_cls_.size(); ++s) {
      std::uint64_t* keys = pair_keys_.data() + s * words_;
      delta_->for_each_allowed_edge(slot_cls_[s], [&](std::uint32_t e) {
        const auto [a, b] = delta_->edge(e);
        set_bit(keys, a);
        set_bit(keys, b);
      });
      for (std::size_t w = 0; w < words_; ++w) {
        pair_base_[s * words_ + w] = rows;
        rows += static_cast<std::uint32_t>(std::popcount(keys[w]));
      }
    }
    pair_rows_.assign(static_cast<std::size_t>(rows) * words_, 0);
    for (std::size_t s = 0; s < slot_cls_.size(); ++s) {
      const auto slot = static_cast<std::uint32_t>(s);
      delta_->for_each_allowed_edge(slot_cls_[s], [&](std::uint32_t e) {
        const auto [a, b] = delta_->edge(e);
        set_bit(pair_rows_.data() + pair_row_index(slot, a) * words_, b);
        set_bit(pair_rows_.data() + pair_row_index(slot, b) * words_, a);
      });
    }
  }

  /// Index of output `a`'s row in slot `s`'s pair table, or kNoRow when no
  /// allowed edge of the slot's class contains `a`.
  std::size_t pair_row_index(std::uint32_t s, VertexId a) const {
    const std::size_t at = static_cast<std::size_t>(s) * words_ + (a >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (a & 63);
    const std::uint64_t keys = pair_keys_[at];
    if ((keys & bit) == 0) return kNoRow;
    return static_cast<std::size_t>(pair_base_[at]) +
           static_cast<std::size_t>(std::popcount(keys & (bit - 1)));
  }
  const std::uint64_t* pair_row(std::uint32_t s, VertexId a) const {
    const std::size_t row = pair_row_index(s, a);
    return row == kNoRow ? nullptr : pair_rows_.data() + row * words_;
  }

  /// Exact check of every face constraint containing v whose members are
  /// all assigned: the image must be a simplex of O allowed for the face's
  /// carrier class (the pair rows for an edge; facet membership and the
  /// class's simplex table for a larger face).
  bool faces_consistent(VertexId v) {
    const std::uint32_t begin = by_vertex_idx_[v];
    const std::uint32_t end = by_vertex_idx_[v + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t fi = by_vertex_pool_[k];
      const auto face = in_->face(fi);
      image_.clear();
      bool all_assigned = true;
      for (VertexId u : face) {
        if (assignment_[u] == kNoVertex) {
          all_assigned = false;
          break;
        }
        image_.push_back(assignment_[u]);
      }
      if (!all_assigned) continue;
      if (image_.size() == 2) {
        const std::uint64_t* row = pair_row(face_key_[fi], image_[0]);
        if (row == nullptr || !test_bit(row, image_[1])) return false;
        continue;
      }
      std::sort(image_.begin(), image_.end());
      image_.erase(std::unique(image_.begin(), image_.end()), image_.end());
      // contains_simplex: some output facet contains every image vertex.
      const std::uint64_t* first = delta_->facet_row(image_[0]);
      std::copy(first, first + facet_words_, scratch_facets_.begin());
      for (std::size_t i = 1; i < image_.size(); ++i) {
        const std::uint64_t* row = delta_->facet_row(image_[i]);
        for (std::size_t w = 0; w < facet_words_; ++w) {
          scratch_facets_[w] &= row[w];
        }
      }
      bool contained = false;
      for (std::size_t w = 0; w < facet_words_; ++w) {
        if (scratch_facets_[w] != 0) {
          contained = true;
          break;
        }
      }
      if (!contained) return false;
      if (!delta_->simplex_allowed(face_key_[fi], image_)) return false;
    }
    return true;
  }

  /// AC-3 over the edge constraints, seeded with the arcs pointing at
  /// `start` (every arc at the root); bit-parallel support checks.
  /// Returns false on a domain wipe-out.
  bool propagate(VertexId start) {
    queue_.clear();
    if (start == kNoVertex) {
      for (VertexId v = 0; v < n_; ++v) {
        for (std::uint32_t k = nbr_idx_[v]; k < nbr_idx_[v + 1]; ++k) {
          queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].slot, v});
        }
      }
    } else {
      for (std::uint32_t k = nbr_idx_[start]; k < nbr_idx_[start + 1]; ++k) {
        queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].slot, start});
      }
    }
    while (!queue_.empty()) {
      const Item it = queue_.back();
      queue_.pop_back();
      const VertexId u = it.target;
      if (assignment_[u] != kNoVertex) continue;
      std::uint64_t* du = dom_row(u);
      std::copy(du, du + words_, scratch_row_.begin());
      const VertexId v_assigned = assignment_[it.source];
      const std::uint64_t* dv = dom_row(it.source);
      bool removed_any = false;
      for (std::size_t w = 0; w < words_; ++w) {
        std::uint64_t bits = scratch_row_[w];
        while (bits != 0) {
          const std::uint32_t cand =
              static_cast<std::uint32_t>(w * 64) +
              static_cast<std::uint32_t>(std::countr_zero(bits));
          bits &= bits - 1;
          bool supported;
          const std::uint64_t* prow = pair_row(it.slot, cand);
          if (prow == nullptr) {
            supported = false;
          } else if (v_assigned != kNoVertex) {
            supported = test_bit(prow, v_assigned);
          } else {
            supported = false;
            for (std::size_t x = 0; x < words_; ++x) {
              if (prow[x] & dv[x]) {
                supported = true;
                break;
              }
            }
          }
          if (!supported) {
            clear_bit(du, cand);
            --dom_count_[u];
            trail_.push_back(Removed{u, cand});
            removed_any = true;
          }
        }
      }
      if (dom_count_[u] == 0) return false;
      if (removed_any) {
        for (std::uint32_t k = nbr_idx_[u]; k < nbr_idx_[u + 1]; ++k) {
          if (nbr_pool_[k].peer != it.source) {
            queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].slot, u});
          }
        }
      }
    }
    return true;
  }

  void undo(std::size_t mark) {
    while (trail_.size() > mark) {
      const Removed r = trail_.back();
      trail_.pop_back();
      set_bit(dom_row(r.vertex), r.value);
      ++dom_count_[r.vertex];
    }
  }

  VertexId pick_vertex() const {
    VertexId best = kNoVertex;
    std::uint32_t best_size = ~std::uint32_t{0};
    for (VertexId v = 0; v < n_; ++v) {
      if (assignment_[v] != kNoVertex) continue;
      if (dom_count_[v] < best_size) {
        best = v;
        best_size = dom_count_[v];
      }
    }
    return best;
  }

  Solvability node_interrupt() {
    if (options_->progress != nullptr) {
      options_->progress->fetch_add(1, std::memory_order_relaxed);
    }
    if (++nodes_ > budget_) return Solvability::kUnknown;
    if (options_->checkpoint_every != 0 &&
        nodes_ % options_->checkpoint_every == 0 && options_->on_checkpoint) {
      options_->on_checkpoint(nodes_);
    }
    if (options_->cancel &&
        options_->cancel->load(std::memory_order_relaxed)) {
      return Solvability::kCancelled;
    }
    if ((nodes_ & kDeadlineCheckMask) == 0 && deadline_passed(*options_)) {
      return Solvability::kCancelled;
    }
    return Solvability::kSolvable;
  }

  Solvability assign(std::size_t depth) {
    const VertexId v = pick_vertex();
    if (v == kNoVertex) return Solvability::kSolvable;
    // Snapshot v's domain into this depth's slice: propagation from deeper
    // levels mutates the live row.  Bit order IS ascending output-id order,
    // the contract's value order.
    std::uint64_t* snap =
        snapshots_.data() + depth * static_cast<std::size_t>(words_);
    std::copy(dom_row(v), dom_row(v) + words_, snap);
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t bits = snap[w];
      while (bits != 0) {
        const std::uint32_t cand =
            static_cast<std::uint32_t>(w * 64) +
            static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const Solvability interrupt = node_interrupt();
        if (interrupt != Solvability::kSolvable) return interrupt;
        assignment_[v] = cand;
        const std::size_t mark = trail_.size();
        if (faces_consistent(v) && propagate(v)) {
          const Solvability sub = assign(depth + 1);
          if (sub != Solvability::kUnsolvable) {
            undo(mark);
            if (sub == Solvability::kSolvable) assignment_[v] = cand;
            return sub;
          }
        }
        undo(mark);
        assignment_[v] = kNoVertex;
      }
    }
    return Solvability::kUnsolvable;
  }

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::size_t kNoRow = ~std::size_t{0};

  struct Arc {
    std::uint32_t peer;
    std::uint32_t slot;
  };
  struct Item {
    VertexId target;
    std::uint32_t slot;
    VertexId source;
  };
  struct Removed {
    VertexId vertex;
    std::uint32_t value;
  };

  const DeltaTables* delta_;
  const topo::Arena* in_;
  const SolveOptions* options_;
  std::uint64_t budget_;
  std::uint64_t nodes_ = 0;

  std::uint32_t n_;
  std::size_t words_;
  std::size_t facet_words_;

  std::vector<std::uint64_t> domains_;
  std::vector<std::uint32_t> dom_count_;
  std::vector<VertexId> assignment_;

  Simplex last_bc_;
  std::uint32_t last_cls_ = DeltaTables::kNoClass;
  std::vector<std::uint32_t> face_key_;
  std::vector<std::uint32_t> slot_cls_;
  std::vector<std::uint32_t> by_vertex_idx_;
  std::vector<std::uint32_t> by_vertex_pool_;
  std::vector<std::uint32_t> nbr_idx_;
  std::vector<Arc> nbr_pool_;
  std::vector<std::uint64_t> pair_keys_;
  std::vector<std::uint32_t> pair_base_;
  std::vector<std::uint64_t> pair_rows_;

  std::vector<Item> queue_;
  std::vector<Removed> trail_;
  std::vector<std::uint64_t> snapshots_;
  std::vector<std::uint64_t> scratch_row_;
  std::vector<std::uint64_t> scratch_facets_;
  Simplex image_;
};

}  // namespace

bool cancel_requested(const SolveOptions& options) {
  return (options.cancel &&
          options.cancel->load(std::memory_order_relaxed)) ||
         deadline_passed(options);
}

Solvability arena_search(const Task& task, const topo::Arena& arena,
                         const SolveOptions& options,
                         std::vector<VertexId>& decision,
                         std::uint64_t& nodes) {
  WFC_REQUIRE(arena.valid(), "arena_search: invalid arena");
  const DeltaTables* delta = task.delta_tables(options);
  if (delta == nullptr) {  // interrupted while compiling
    nodes = 0;
    return Solvability::kCancelled;
  }
  ArenaSearcher searcher(*delta, arena, options);
  return searcher.run(decision, nodes);
}

}  // namespace wfc::task
