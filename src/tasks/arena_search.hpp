// The Prop 3.1 search: exact backtracking + AC-3 over the flat topo::Arena
// form of SDS^b(I), laid out so the inner loop is cache-linear:
//
//   * domains are per-vertex bitmask words (one bit per output vertex), so
//     AC-3 support checks are word-wide ANDs instead of nested scans;
//   * the edge-constraint `allows` oracle is precomputed ONCE per distinct
//     face carrier (a "carrier class") into a pair-allowed bitmatrix --
//     the search itself never calls Task::allows on edges;
//   * output facet membership is a bitset per output vertex, so the
//     contains_simplex check on a fully-assigned face is a word-wide AND;
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

/// Runs the level search over `arena` (the flat form of SDS^b(I)) against
/// task.output().  On kSolvable, `decision[v]` is the output vertex for
/// arena vertex v.  `nodes` is the explored-node count.
[[nodiscard]] Solvability arena_search(const Task& task,
                                       const topo::Arena& arena,
                                       const SolveOptions& options,
                                       std::vector<topo::VertexId>& decision,
                                       std::uint64_t& nodes);

/// True once `options.cancel` is set or `options.deadline` has passed.
[[nodiscard]] bool cancel_requested(const SolveOptions& options);

}  // namespace wfc::task
