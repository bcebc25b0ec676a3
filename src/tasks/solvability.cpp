#include "tasks/solvability.hpp"

#include <utility>

#include "common/assert.hpp"
#include "tasks/arena_search.hpp"

namespace wfc::task {

namespace {

/// Chain acquisition shared by solve and solve_at_level: consult the
/// provider when present, otherwise grow `own` (extending the existing
/// tower shares every already-built level; see SdsChain).
std::shared_ptr<const proto::SdsChain> chain_for(
    const Task& task, int depth, const SolveOptions& options,
    std::shared_ptr<const proto::SdsChain>& own) {
  if (options.chain_provider) {
    std::shared_ptr<const proto::SdsChain> chain =
        options.chain_provider(task.input(), depth);
    WFC_CHECK(chain != nullptr && chain->depth() >= depth,
              "solve: chain provider returned a short chain");
    return chain;
  }
  if (!own) {
    own = std::make_shared<proto::SdsChain>(task.input(), depth);
  } else if (own->depth() < depth) {
    own = std::make_shared<proto::SdsChain>(*own, depth);
  }
  return own;
}

/// Runs the level-b search over `chain` (depth >= level) and assembles the
/// result; the stored chain is truncated to exactly `level` so that
/// DecisionProtocol's b == chain->depth() invariant holds.
SolveResult search_level(const Task& task, int level,
                         std::shared_ptr<const proto::SdsChain> chain,
                         const SolveOptions& options) {
  SolveResult result;
  std::optional<topo::Arena> restricted;
  if (options.restrictor) restricted = options.restrictor(*chain, level);
  if (restricted.has_value() && restricted->num_facets() == 0) {
    // No admissible run reaches this level; the search over an empty
    // complex would be vacuously solvable, so short-circuit.
    result.status = Solvability::kUnsolvable;
    return result;
  }
  // For store-backed chains arena(level) is a zero-copy view of the mmap.
  const topo::Arena arena =
      restricted.has_value() ? std::move(*restricted) : chain->arena(level);
  result.status = arena_search(task, arena, options, result.decision,
                               result.nodes_explored);
  if (result.status != Solvability::kSolvable) return result;
  result.level = level;
  // A restricted decision indexes the PRUNED complex; the full chain would
  // misalign, so no chain travels with a restricted result.
  if (!restricted.has_value()) {
    result.chain = chain->depth() == level
                       ? std::move(chain)
                       : std::make_shared<proto::SdsChain>(*chain, level);
  }
  return result;
}

}  // namespace

const char* to_cstring(Solvability s) {
  switch (s) {
    case Solvability::kSolvable: return "SOLVABLE";
    case Solvability::kUnsolvable: return "UNSOLVABLE";
    case Solvability::kUnknown: return "UNKNOWN";
    case Solvability::kCancelled: return "CANCELLED";
  }
  return "?";
}

SolveResult solve_at_level(const Task& task, int level,
                           const SolveOptions& options) {
  WFC_REQUIRE(level >= 0, "solve_at_level: negative level");
  std::shared_ptr<const proto::SdsChain> own;
  return search_level(task, level, chain_for(task, level, options, own),
                      options);
}

SolveResult solve(const Task& task, int max_level,
                  const SolveOptions& options) {
  WFC_REQUIRE(max_level >= 0, "solve: negative max_level");
  bool hit_budget = false;
  std::uint64_t total_nodes = 0;
  std::shared_ptr<const proto::SdsChain> own;
  for (int b = 0; b <= max_level; ++b) {
    if (cancel_requested(options)) {
      SolveResult out;
      out.status = Solvability::kCancelled;
      out.nodes_explored = total_nodes;
      return out;
    }
    SolveResult r =
        search_level(task, b, chain_for(task, b, options, own), options);
    total_nodes += r.nodes_explored;
    if (r.status == Solvability::kSolvable ||
        r.status == Solvability::kCancelled) {
      r.nodes_explored = total_nodes;
      return r;
    }
    if (r.status == Solvability::kUnknown) hit_budget = true;
  }
  SolveResult out;
  out.status = hit_budget ? Solvability::kUnknown : Solvability::kUnsolvable;
  out.nodes_explored = total_nodes;
  return out;
}

}  // namespace wfc::task
