#include "tasks/arena_search.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>

#include "common/assert.hpp"

namespace wfc::task {

namespace {

using topo::ChromaticComplex;
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
  ArenaSearcher(const Task& task, const topo::Arena& arena,
                const SolveOptions& options)
      : task_(&task),
        in_(&arena),
        out_(&task.output()),
        options_(&options),
        budget_(options.node_budget),
        n_(arena.num_vertices()),
        m_(static_cast<std::uint32_t>(task.output().num_vertices())),
        words_((m_ + 63) / 64) {
    build_output_tables();
    build_domains();
    build_constraints();
    build_pair_tables();
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
  const std::uint64_t* pair_row(std::uint32_t cls, VertexId a) const {
    return pair_[cls].data() + static_cast<std::size_t>(a) * words_;
  }

  void build_output_tables() {
    // compat_[a] bit b <=> {a, b} is a simplex of O: any pair inside a
    // facet, plus the diagonal.
    compat_.assign(static_cast<std::size_t>(m_) * words_, 0);
    out_colors_.resize(m_);
    for (VertexId w = 0; w < m_; ++w) {
      out_colors_[w] = out_->vertex(w).color;
      set_bit(compat_.data() + static_cast<std::size_t>(w) * words_, w);
    }
    const auto& facets = out_->facets();
    const std::uint32_t n_facets = static_cast<std::uint32_t>(facets.size());
    facet_words_ = (n_facets + 63) / 64 == 0 ? 1 : (n_facets + 63) / 64;
    facet_bits_.assign(static_cast<std::size_t>(m_) * facet_words_, 0);
    for (std::uint32_t fi = 0; fi < n_facets; ++fi) {
      for (VertexId a : facets[fi]) {
        set_bit(facet_bits_.data() + static_cast<std::size_t>(a) * facet_words_,
                fi);
        for (VertexId b : facets[fi]) {
          set_bit(compat_.data() + static_cast<std::size_t>(a) * words_, b);
        }
      }
    }
  }

  void build_domains() {
    domains_.assign(static_cast<std::size_t>(n_) * words_, 0);
    dom_count_.assign(n_, 0);
    const auto colors = in_->colors();
    Simplex bc;
    Simplex single(1);
    for (VertexId v = 0; v < n_; ++v) {
      const auto bc_span = in_->base_carrier(v);
      bc.assign(bc_span.begin(), bc_span.end());
      std::uint64_t* row = dom_row(v);
      for (VertexId w = 0; w < m_; ++w) {
        if (out_colors_[w] != static_cast<Color>(colors[v])) continue;
        single[0] = w;
        if (!task_->allows(bc, single)) continue;
        set_bit(row, w);
        ++dom_count_[v];
      }
    }
  }

  void build_constraints() {
    // Carrier classes: one id per distinct face base-carrier.  The arena
    // face table holds every deduplicated face of size >= 2 in
    // ChromaticComplex::for_each_face's first-emission order, so
    // constraint indices line up with face indices.
    const std::uint32_t n_faces = in_->num_faces();
    face_cls_.resize(n_faces);
    std::map<Simplex, std::uint32_t> cls_ids;
    for (std::uint32_t fi = 0; fi < n_faces; ++fi) {
      const auto bc = in_->face_base_carrier(fi);
      Simplex key(bc.begin(), bc.end());
      const auto [it, inserted] =
          cls_ids.emplace(std::move(key), static_cast<std::uint32_t>(
                                              cls_ids.size()));
      if (inserted) cls_carrier_.push_back(it->first);
      face_cls_[fi] = it->second;
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
      pair_needed_.resize(cls_carrier_.size());
      pair_needed_[face_cls_[fi]] = true;
    }
    pair_needed_.resize(cls_carrier_.size());
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
        nbr_pool_[cursor[f[0]]++] = Arc{f[1], face_cls_[fi]};
        nbr_pool_[cursor[f[1]]++] = Arc{f[0], face_cls_[fi]};
      }
    }
  }

  void build_pair_tables() {
    // pair_[cls] row a, bit b: {a, b} is a simplex of O AND
    // allows(carrier(cls), {a, b}).  Computed once; the search never calls
    // the allows oracle on an edge again.
    pair_.resize(cls_carrier_.size());
    Simplex edge;
    for (std::uint32_t cls = 0; cls < cls_carrier_.size(); ++cls) {
      if (!pair_needed_[cls]) continue;
      auto& table = pair_[cls];
      table.assign(static_cast<std::size_t>(m_) * words_, 0);
      const Simplex& carrier = cls_carrier_[cls];
      for (VertexId a = 0; a < m_; ++a) {
        const std::uint64_t* compat_row =
            compat_.data() + static_cast<std::size_t>(a) * words_;
        for (VertexId b = a; b < m_; ++b) {
          if (!test_bit(compat_row, b)) continue;
          edge.clear();
          edge.push_back(a);
          if (b != a) edge.push_back(b);
          if (!task_->allows(carrier, edge)) continue;
          set_bit(table.data() + static_cast<std::size_t>(a) * words_, b);
          set_bit(table.data() + static_cast<std::size_t>(b) * words_, a);
        }
      }
    }
  }

  /// Exact check of every face constraint containing v whose members are
  /// all assigned: the image must be a simplex of O (facet-bitset AND)
  /// allowed for the face's carrier class.
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
      std::sort(image_.begin(), image_.end());
      image_.erase(std::unique(image_.begin(), image_.end()), image_.end());
      // contains_simplex: some output facet contains every image vertex.
      const std::uint64_t* first =
          facet_bits_.data() +
          static_cast<std::size_t>(image_[0]) * facet_words_;
      std::copy(first, first + facet_words_, scratch_facets_.begin());
      for (std::size_t i = 1; i < image_.size(); ++i) {
        const std::uint64_t* row =
            facet_bits_.data() +
            static_cast<std::size_t>(image_[i]) * facet_words_;
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
      if (!task_->allows(cls_carrier_[face_cls_[fi]], image_)) return false;
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
          queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].cls, v});
        }
      }
    } else {
      for (std::uint32_t k = nbr_idx_[start]; k < nbr_idx_[start + 1]; ++k) {
        queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].cls, start});
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
          const std::uint64_t* prow = pair_row(it.cls, cand);
          if (v_assigned != kNoVertex) {
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
            queue_.push_back(Item{nbr_pool_[k].peer, nbr_pool_[k].cls, u});
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

  struct Arc {
    std::uint32_t peer;
    std::uint32_t cls;
  };
  struct Item {
    VertexId target;
    std::uint32_t cls;
    VertexId source;
  };
  struct Removed {
    VertexId vertex;
    std::uint32_t value;
  };

  const Task* task_;
  const topo::Arena* in_;
  const ChromaticComplex* out_;
  const SolveOptions* options_;
  std::uint64_t budget_;
  std::uint64_t nodes_ = 0;

  std::uint32_t n_;
  std::uint32_t m_;
  std::size_t words_;
  std::size_t facet_words_ = 1;

  std::vector<Color> out_colors_;
  std::vector<std::uint64_t> compat_;
  std::vector<std::uint64_t> facet_bits_;

  std::vector<std::uint64_t> domains_;
  std::vector<std::uint32_t> dom_count_;
  std::vector<VertexId> assignment_;

  std::vector<std::uint32_t> face_cls_;
  std::vector<Simplex> cls_carrier_;
  std::vector<bool> pair_needed_;
  std::vector<std::uint32_t> by_vertex_idx_;
  std::vector<std::uint32_t> by_vertex_pool_;
  std::vector<std::uint32_t> nbr_idx_;
  std::vector<Arc> nbr_pool_;
  std::vector<std::vector<std::uint64_t>> pair_;

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
  ArenaSearcher searcher(task, arena, options);
  return searcher.run(decision, nodes);
}

}  // namespace wfc::task
