// The Prop 3.1 search: exact backtracking + AC-3 over the flat topo::Arena
// form of SDS^b(I), laid out so the inner loop is cache-linear:
//
//   * Delta comes from the task's compiled tables (delta_tables.hpp), one
//     class per face of I: the search never calls Task::allows.  A
//     vertex's domain is its base-carrier class's allowed-vertex row ANDed
//     with its color's row;
//   * domains are per-vertex bitmask words (one bit per output vertex), so
//     AC-3 support checks are word-wide ANDs instead of nested scans;
//   * per search, each class on an edge face gets pair rows (bit b of a's
//     row <=> {a, b} is an allowed edge) for the endpoints of its allowed
//     edges only, located by a rank over the class's endpoint bits;
//   * output facet membership is a bitset per output vertex, so the
//     contains_simplex check on a fully-assigned face of 3 or more
//     vertices is a word-wide AND, followed by one lookup in the class's
//     allowed-simplex bits;
//   * face/constraint/neighbour tables are CSR spans over dense uint32 ids
//     with zero per-node allocation (trail and snapshots live in reused
//     flat buffers).
//
// Search-order contract: variable order (min live domain, ties to lowest
// id), value order (ascending output id), the AC-3 fixpoints and the
// interrupt cadence are fixed.  tests/reference_search.cpp keeps the
// pointer-based search over topo::ChromaticComplex with the same contract,
// and tests/arena_test.cpp and tests/model_test.cpp pin verdict, decision
// map and nodes_explored to it bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

#include "tasks/solvability.hpp"
#include "topology/arena.hpp"

namespace wfc::task {

/// Runs the level search over `arena` (the flat form of SDS^b(I), or a
/// model restriction of it) against task.output().  On kSolvable,
/// `decision[v]` is the output vertex for arena vertex v.  `nodes` is the
/// explored-node count.  The task's Delta tables are compiled here on its
/// first search; if `options`' cancel token or deadline fires during that
/// compile, the result is kCancelled with 0 nodes.  Throws
/// std::invalid_argument if a base carrier of `arena` is not a face of
/// task.input(), or a vertex color of `arena` is not below
/// task.output().n_colors().
[[nodiscard]] Solvability arena_search(const Task& task,
                                       const topo::Arena& arena,
                                       const SolveOptions& options,
                                       std::vector<topo::VertexId>& decision,
                                       std::uint64_t& nodes);

/// True once `options.cancel` is set or `options.deadline` has passed.
[[nodiscard]] bool cancel_requested(const SolveOptions& options);

}  // namespace wfc::task
