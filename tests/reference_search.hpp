// The reference Prop 3.1 search the arena engine is checked against.
//
// This is the pointer-based backtracking search over topo::ChromaticComplex
// that the library ran before tasks/arena_search.cpp replaced it.  It shares
// no search code with the library: domains are per-vertex candidate lists,
// constraints are the complex's own faces with their base carriers, and
// every support check asks Task::allows.  Its variable order (smallest live
// domain, ties to lowest id), value order (ascending output id), AC-3
// fixpoints and interrupt cadence are the arena engine's documented
// contract, so the engine-comparison tests (arena_test, model_test) expect
// equal verdicts, levels, decision maps and node counts, per level and
// under budget exhaustion.
#pragma once

#include <functional>
#include <memory>

#include "tasks/solvability.hpp"
#include "topology/complex.hpp"

namespace wfc::task::reference {

/// task::solve_at_level with the search run over `complex`: SDS^level(I),
/// or the admissible subcomplex of it under a model.  A complex with no
/// facets has no admissible run, so the level is unsolvable without a
/// search.  No chain travels with the result.  `options.chain_provider`
/// and `options.restrictor` are not consulted.
SolveResult solve_at_level(const Task& task, int level,
                           const topo::ChromaticComplex& complex,
                           const SolveOptions& options = {});

/// The complex to search at one level.
using LevelComplex =
    std::function<std::shared_ptr<const topo::ChromaticComplex>(int level)>;

/// task::solve's per-level loop: solve_at_level over levels(0), levels(1),
/// ..., levels(max_level), with the same cancellation check before each
/// level and the same node totals and verdict.
SolveResult solve(const Task& task, int max_level, const LevelComplex& levels,
                  const SolveOptions& options = {});

/// SDS^0(I), ..., SDS^max_level(I) of the task's input complex.
LevelComplex full_levels(const Task& task, int max_level);

}  // namespace wfc::task::reference
