// Tests for the destination-sharded escape-lane analysis: the pooled sweep
// must be BIT-IDENTICAL to the sequential one — graph edges, counters,
// availability verdict and the missing-escape witness — at every thread
// count, across every escape-lane preset of the instance registry.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "deadlock/escape.hpp"
#include "escape_oracle.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/xy.hpp"
#include "util/thread_pool.hpp"

namespace genoc {
namespace {

void expect_identical(const EscapeAnalysis& pooled,
                      const EscapeAnalysis& sequential) {
  EXPECT_EQ(pooled.escape_always_available, sequential.escape_always_available);
  EXPECT_EQ(pooled.states_checked, sequential.states_checked);
  EXPECT_EQ(pooled.missing_states, sequential.missing_states);
  EXPECT_EQ(pooled.missing_escape, sequential.missing_escape);
  EXPECT_EQ(pooled.escape_graph.graph.vertex_count(),
            sequential.escape_graph.graph.vertex_count());
  EXPECT_EQ(pooled.escape_graph.graph.edges(),
            sequential.escape_graph.graph.edges());
  EXPECT_EQ(pooled.escape_graph_acyclic, sequential.escape_graph_acyclic);
  EXPECT_EQ(pooled.deadlock_free, sequential.deadlock_free);
  EXPECT_EQ(pooled.summary(), sequential.summary());
}

TEST(EscapeParallel, BitIdenticalOnEveryEscapePreset) {
  // Every registry preset that names an escape lane, including the 64x64
  // torus this PR's sharding targets. 1/4/8 threads all reduce to the same
  // merged analysis.
  std::size_t covered = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.escape.empty()) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    ++covered;
    const NetworkInstance instance(spec);
    ASSERT_NE(instance.escape(), nullptr);
    const EscapeAnalysis sequential =
        analyze_escape(instance.routing(), *instance.escape());
    for (const std::size_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const EscapeAnalysis pooled =
          analyze_escape(instance.routing(), *instance.escape(), &pool);
      expect_identical(pooled, sequential);
    }
  }
  EXPECT_GE(covered, 4u) << "escape-lane presets disappeared from the registry";
}

/// A deliberately broken escape lane: XY everywhere except that every
/// in-port state at nodes with x == 1 gets no hop at all. Deterministic
/// (at most one hop) and node-uniform, but unavailable on many states
/// spread across destinations — exactly the shape that would expose
/// witness nondeterminism in a sharded sweep.
class HolePuncturedXY final : public RoutingFunction {
 public:
  explicit HolePuncturedXY(const Mesh2D& mesh)
      : RoutingFunction(mesh), xy_(mesh) {}

  std::string name() const override { return "XY (punctured)"; }
  bool is_deterministic() const override { return true; }

  void append_next_hops(const Port& current, const Port& dest,
                        std::vector<Port>& out) const override {
    if (current.x == 1 && current.dir == Direction::kIn) {
      return;  // no escape hop from any in-port of column 1
    }
    xy_.append_next_hops(current, dest, out);
  }

  bool node_uniform() const override { return true; }
  std::uint8_t node_out_mask(std::int32_t x, std::int32_t y,
                             const Port& dest) const override {
    return x == 1 ? 0 : xy_.node_out_mask(x, y, dest);
  }

 private:
  XYRouting xy_;
};

TEST(EscapeParallel, MissingWitnessIsShardOrderInvariant) {
  const Mesh2D mesh(5, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const HolePuncturedXY escape(mesh);
  const EscapeAnalysis sequential = analyze_escape(adaptive, escape);
  ASSERT_FALSE(sequential.escape_always_available);
  ASSERT_GT(sequential.missing_states, 1u);
  ASSERT_FALSE(sequential.missing_escape.empty());
  for (const std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const EscapeAnalysis pooled = analyze_escape(adaptive, escape, &pool);
    expect_identical(pooled, sequential);
  }
}

TEST(EscapeParallel, SummaryIsBoundedWithManyMissingStates) {
  // The summary must report the first witness and a count — never one
  // entry per missing state.
  const Mesh2D mesh(5, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const HolePuncturedXY escape(mesh);
  const EscapeAnalysis analysis = analyze_escape(adaptive, escape);
  const std::string text = analysis.summary();
  EXPECT_NE(text.find("missing at"), std::string::npos) << text;
  EXPECT_NE(text.find("more"), std::string::npos) << text;
  EXPECT_LT(text.size(), 256u) << text;
  EXPECT_NE(text.find(analysis.missing_escape), std::string::npos);
}

TEST(EscapeParallel, PuncturedMaskMatchesPerPortOracle) {
  // The mutant's node mask and its append_next_hops must describe the same
  // lane: the per-port oracle reads only the latter.
  const Mesh2D mesh(5, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const HolePuncturedXY escape(mesh);
  const EscapeAnalysis oracle = analyze_escape_per_port(adaptive, escape);
  ASSERT_GT(oracle.missing_states, 1u);
  expect_identical(analyze_escape(adaptive, escape), oracle);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    expect_identical(analyze_escape(adaptive, escape, &pool), oracle);
  }
}

TEST(EscapeParallel, PoolOfOneMatchesNullptr) {
  // thread_count() == 1 still goes through the sharded code path; it must
  // degrade to the sequential result exactly.
  const Mesh2D mesh(4, 4);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting xy(mesh);
  ThreadPool pool(1);
  expect_identical(analyze_escape(adaptive, xy, &pool),
                   analyze_escape(adaptive, xy));
}

TEST(EscapeParallel, RepeatedPooledRunsAreStable) {
  const Mesh2D mesh(6, 6);
  const FullyAdaptiveRouting adaptive(mesh);
  const XYRouting xy(mesh);
  ThreadPool pool(4);
  const EscapeAnalysis first = analyze_escape(adaptive, xy, &pool);
  for (int i = 0; i < 3; ++i) {
    expect_identical(analyze_escape(adaptive, xy, &pool), first);
  }
}

}  // namespace
}  // namespace genoc
