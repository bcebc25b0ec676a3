// Cross-check of a task's compiled Delta tables (tasks/delta_tables.hpp)
// against Task::allows: for every face sigma of I and every simplex of O
// whose colors lie in sigma's (Delta's contract), the table's answer must
// be allows(sigma, out), and nothing outside the contract may be set.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <utility>

#include "tasks/delta_tables.hpp"
#include "tasks/solvability.hpp"
#include "tasks/task.hpp"

namespace wfc::test {

/// Compares every table entry with Task::allows; returns the number of
/// in-contract (sigma, out) pairs compared.
inline std::uint64_t expect_delta_tables_match(const task::Task& t) {
  using topo::Simplex;
  using topo::VertexId;
  const task::DeltaTables* delta = t.delta_tables(task::SolveOptions{});
  EXPECT_NE(delta, nullptr);
  if (delta == nullptr) return 0;
  const topo::ChromaticComplex& in = t.input();
  const topo::ChromaticComplex& out = t.output();

  // O's edges and larger simplices, enumerated here from its facets.
  std::set<std::pair<VertexId, VertexId>> edges;
  std::set<Simplex> bigs;
  out.for_each_face([&](const Simplex& s) {
    if (s.size() == 2) edges.emplace(s[0], s[1]);
    if (s.size() >= 3) bigs.insert(s);
  });

  std::uint64_t compared = 0;
  const auto check_class = [&](const Simplex& sigma) {
    const std::uint32_t cls = delta->class_of(sigma);
    EXPECT_NE(cls, task::DeltaTables::kNoClass) << topo::to_string(sigma);
    if (cls == task::DeltaTables::kNoClass) return;
    const ColorSet colors = in.colors_of(sigma);
    EXPECT_EQ(delta->class_colors(cls), colors);
    const std::uint64_t* vrow = delta->vertex_row(cls);
    for (VertexId w = 0; w < out.num_vertices(); ++w) {
      const bool bit = (vrow[w >> 6] >> (w & 63)) & 1u;
      if (!colors.contains(out.vertex(w).color)) {
        EXPECT_FALSE(bit) << "out-of-contract vertex bit";
        continue;
      }
      EXPECT_EQ(bit, t.allows(sigma, Simplex{w}))
          << "sigma " << topo::to_string(sigma) << " vertex " << w;
      ++compared;
    }
    std::set<std::pair<VertexId, VertexId>> table_edges;
    delta->for_each_allowed_edge(
        cls, [&](std::uint32_t e) { table_edges.insert(delta->edge(e)); });
    for (const auto& [a, b] : edges) {
      const Simplex pair{a, b};
      if (!out.colors_of(pair).subset_of(colors)) {
        EXPECT_EQ(table_edges.count({a, b}), 0u) << "out-of-contract edge";
        continue;
      }
      EXPECT_EQ(table_edges.count({a, b}) == 1, t.allows(sigma, pair))
          << "sigma " << topo::to_string(sigma) << " edge "
          << topo::to_string(pair);
      ++compared;
    }
    for (const auto& [a, b] : table_edges) {
      EXPECT_EQ(edges.count({a, b}), 1u) << "table edge is not an edge of O";
    }
    for (const Simplex& s : bigs) {
      if (!out.colors_of(s).subset_of(colors)) {
        EXPECT_FALSE(delta->simplex_allowed(cls, s))
            << "out-of-contract simplex";
        continue;
      }
      EXPECT_EQ(delta->simplex_allowed(cls, s), t.allows(sigma, s))
          << "sigma " << topo::to_string(sigma) << " simplex "
          << topo::to_string(s);
      ++compared;
    }
  };
  for (VertexId v = 0; v < in.num_vertices(); ++v) check_class(Simplex{v});
  std::uint32_t faces = static_cast<std::uint32_t>(in.num_vertices());
  in.for_each_face([&](const Simplex& sigma) {
    if (sigma.size() < 2) return;
    ++faces;
    check_class(sigma);
  });
  EXPECT_EQ(delta->num_classes(), faces);
  return compared;
}

}  // namespace wfc::test
