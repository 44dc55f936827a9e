// Tests for cycle detection with witnesses — the engine behind (C-3). The
// DFS decider is cross-checked against sequential Tarjan, which shares no
// code with it, on hand-built, random and dependency graphs.
#include <gtest/gtest.h>

#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"
#include "graph/tarjan.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/torus_xy.hpp"
#include "routing/xy.hpp"
#include "topology/mesh.hpp"
#include "util/rng.hpp"

namespace genoc {
namespace {

Digraph path_graph(std::size_t n) {
  Digraph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    g.add_edge(i, i + 1);
  }
  g.finalize();
  return g;
}

Digraph ring_graph(std::size_t n) {
  Digraph g(n);
  for (std::size_t i = 0; i < n; ++i) {
    g.add_edge(i, (i + 1) % n);
  }
  g.finalize();
  return g;
}

/// The DFS verdict equals Tarjan's, and every witness is a real cycle.
void expect_agrees_with_tarjan(const Digraph& graph) {
  const auto cycle = find_cycle(graph);
  EXPECT_EQ(cycle.has_value(), has_nontrivial_scc(graph));
  if (cycle.has_value()) {
    EXPECT_TRUE(is_valid_cycle(graph, *cycle));
  }
}

Digraph random_digraph(std::size_t vertices, std::size_t edges,
                       std::uint64_t seed) {
  Rng rng(seed);
  Digraph graph(vertices);
  for (std::size_t i = 0; i < edges; ++i) {
    graph.add_edge(rng.below(vertices), rng.below(vertices));
  }
  graph.finalize();
  return graph;
}

TEST(Cycle, AcyclicGraphsHaveNoCycle) {
  EXPECT_TRUE(is_acyclic(path_graph(1)));
  EXPECT_TRUE(is_acyclic(path_graph(10)));
  Digraph diamond(4);
  diamond.add_edge(0, 1);
  diamond.add_edge(0, 2);
  diamond.add_edge(1, 3);
  diamond.add_edge(2, 3);
  diamond.finalize();
  EXPECT_TRUE(is_acyclic(diamond));
  EXPECT_FALSE(find_cycle(diamond).has_value());
}

TEST(Cycle, RingYieldsFullCycleWitness) {
  const Digraph g = ring_graph(5);
  const auto cycle = find_cycle(g);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 5u);
  EXPECT_TRUE(is_valid_cycle(g, *cycle));
}

TEST(Cycle, SelfLoopIsACycle) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 1);
  g.finalize();
  const auto cycle = find_cycle(g);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 1u);
  EXPECT_EQ(cycle->front(), 1u);
  EXPECT_TRUE(is_valid_cycle(g, *cycle));
}

TEST(Cycle, CycleBehindALongTail) {
  // 0 -> 1 -> ... -> 7 -> 4 (cycle 4..7).
  Digraph g(8);
  for (std::size_t i = 0; i + 1 < 8; ++i) {
    g.add_edge(i, i + 1);
  }
  g.add_edge(7, 4);
  g.finalize();
  const auto cycle = find_cycle(g);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 4u);
  EXPECT_TRUE(is_valid_cycle(g, *cycle));
}

TEST(Cycle, DisconnectedComponents) {
  // Component A acyclic, component B a 3-ring.
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  g.finalize();
  const auto cycle = find_cycle(g);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 3u);
  EXPECT_TRUE(is_valid_cycle(g, *cycle));
}

TEST(Cycle, WitnessValidationRejectsJunk) {
  const Digraph g = ring_graph(4);
  EXPECT_FALSE(is_valid_cycle(g, {}));                // empty
  EXPECT_FALSE(is_valid_cycle(g, {0, 2}));            // not edges
  EXPECT_FALSE(is_valid_cycle(g, {0, 1, 1, 2, 3}));   // repeated vertex
  EXPECT_FALSE(is_valid_cycle(g, {0, 1, 9}));         // out of range
  EXPECT_FALSE(is_valid_cycle(g, {0, 1, 2}));         // 2->0 missing
  EXPECT_TRUE(is_valid_cycle(g, {0, 1, 2, 3}));
  EXPECT_TRUE(is_valid_cycle(g, {2, 3, 0, 1}));       // rotation also valid
}

TEST(Cycle, LargeSparseAcyclicGraphIsFast) {
  // A layered DAG with 50k vertices; mostly a smoke test for the iterative
  // DFS (no stack overflow, linear time).
  constexpr std::size_t kLayers = 500;
  constexpr std::size_t kWidth = 100;
  Digraph g(kLayers * kWidth);
  for (std::size_t layer = 0; layer + 1 < kLayers; ++layer) {
    for (std::size_t i = 0; i < kWidth; ++i) {
      g.add_edge(layer * kWidth + i, (layer + 1) * kWidth + i);
      g.add_edge(layer * kWidth + i, (layer + 1) * kWidth + (i + 1) % kWidth);
    }
  }
  g.finalize();
  EXPECT_TRUE(is_acyclic(g));
}

TEST(Cycle, AgreesWithTarjanOnHandGraphs) {
  Digraph empty(0);
  empty.finalize();
  expect_agrees_with_tarjan(empty);
  expect_agrees_with_tarjan(path_graph(1));
  expect_agrees_with_tarjan(path_graph(6));
  expect_agrees_with_tarjan(ring_graph(5));
  Digraph self_loop(2);
  self_loop.add_edge(0, 0);
  self_loop.add_edge(0, 1);
  self_loop.finalize();
  expect_agrees_with_tarjan(self_loop);
  // Two 3-cycles joined by a bridge, plus a dangling tail.
  Digraph g(8);
  for (const auto& [from, to] :
       {std::pair{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 5}, {5, 3},
        {5, 6}, {6, 7}}) {
    g.add_edge(from, to);
  }
  g.finalize();
  expect_agrees_with_tarjan(g);
}

TEST(Cycle, AgreesWithTarjanOnRandomDigraphs) {
  // Sparse graphs straddle the acyclic/cyclic boundary; the dense one has a
  // giant SCC.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    expect_agrees_with_tarjan(random_digraph(3000, 2000, seed));
    expect_agrees_with_tarjan(random_digraph(3000, 4500, seed));
  }
  expect_agrees_with_tarjan(random_digraph(12000, 30000, 2010));
}

TEST(Cycle, AgreesWithTarjanOnDependencyGraphs) {
  {
    const Mesh2D mesh(16, 16);
    expect_agrees_with_tarjan(build_dep_graph_fast(XYRouting(mesh)).graph);
  }
  {
    const Mesh2D torus(8, 8, true, true);  // cyclic wrap rings
    expect_agrees_with_tarjan(
        build_dep_graph_fast(TorusXYRouting(torus)).graph);
  }
  {
    const Mesh2D mesh(8, 8);  // one big SCC
    expect_agrees_with_tarjan(
        build_dep_graph_fast(FullyAdaptiveRouting(mesh)).graph);
  }
}

TEST(Cycle, AgreesWithTarjanOn64x64Graphs) {
  const Mesh2D mesh(64, 64);
  expect_agrees_with_tarjan(build_dep_graph_fast(XYRouting(mesh)).graph);
  const Mesh2D torus(64, 64, true, true);
  expect_agrees_with_tarjan(
      build_dep_graph_fast(TorusXYRouting(torus)).graph);
}

}  // namespace
}  // namespace genoc
