// Tasks as input/output chromatic complexes plus the relation Delta
// (paper §3.2): for each input simplex (a participating set with inputs),
// the output tuples that may be decided.
//
// `allows(in, out)` must be FACE-CLOSED in `out` for fixed `in`: if an
// output tuple is allowed, so is every sub-tuple.  This matches the paper's
// solvability definition (a partial output tuple must extend to an allowed
// one; we represent Delta directly by its face closure) and is what makes
// partial-assignment pruning in the solvability search sound.
//
// The Prop 3.1 search never calls `allows` itself: it reads Delta compiled
// into bit tables over the faces of input() (delta_tables.hpp), which each
// Task object builds on its first search and keeps until it is destroyed.
// `allows` is otherwise called by the independent checkers
// (chk::check_decision_against_delta, the two-process decider, the
// decision protocols' validity checks).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "topology/complex.hpp"

namespace wfc::task {

class DeltaTables;
struct SolveOptions;

class Task {
 public:
  Task() = default;
  /// A copy is a fresh task: it compiles its own Delta tables.
  Task(const Task& /*other*/) noexcept {}
  Task& operator=(const Task& /*other*/) noexcept { return *this; }
  virtual ~Task() = default;

  [[nodiscard]] virtual const topo::ChromaticComplex& input() const = 0;
  [[nodiscard]] virtual const topo::ChromaticComplex& output() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// True iff the output simplex `out` (vertex ids of output()) is allowed
  /// when the participating input simplex is `in` (vertex ids of input()).
  /// Callers guarantee colors(out) subset colors(in); implementations check
  /// the value constraints.
  [[nodiscard]] virtual bool allows(const topo::Simplex& in,
                                    const topo::Simplex& out) const = 0;

  /// Convenience: the output vertex of color `c` carrying `value`, or
  /// kNoVertex.  Default implementation scans; tasks with value labels
  /// override nothing (they expose values via vertex keys).
  [[nodiscard]] topo::VertexId output_vertex(Color c,
                                             const std::string& key) const {
    for (topo::VertexId v = 0; v < output().num_vertices(); ++v) {
      if (output().vertex(v).color == c && output().vertex(v).key == key) {
        return v;
      }
    }
    return topo::kNoVertex;
  }

  /// Delta compiled into bit tables (delta_tables.hpp).  The first caller
  /// compiles them under a lock (concurrent callers wait for it and every
  /// caller gets the same object); they stay immutable until the task is
  /// destroyed.  Compiling checks `interrupt`'s cancel token and deadline
  /// before each face of input() and returns nullptr if either fires,
  /// leaving the tables for the next caller to compile.
  [[nodiscard]] const DeltaTables* delta_tables(
      const SolveOptions& interrupt) const;

 private:
  // Not std::call_once: an interrupted compile must leave the tables to the
  // next caller, which call_once allows only by exception, and
  // ThreadSanitizer's pthread_once never releases a flag whose initializer
  // threw, so the task's next caller would spin forever.
  mutable std::mutex delta_mu_;
  mutable std::shared_ptr<const DeltaTables> delta_;  // guarded by delta_mu_
  mutable std::atomic<const DeltaTables*> delta_ready_{nullptr};
};

}  // namespace wfc::task
