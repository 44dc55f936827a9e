// The node-level escape sweep against its per-port oracle: every
// EscapeAnalysis field — availability, state counts, the first missing
// witness, the escape graph, its acyclicity, the verdict and the summary —
// must be identical, with no pool and with 1, 4 and 8 threads, on every
// registry escape preset, on adaptive x escape pairs over small meshes, and
// on sampled fault variants (inputs with missing-escape witnesses), and on
// a wrap-taking lane whose escape graph is cyclic.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/fault_model.hpp"
#include "deadlock/escape.hpp"
#include "escape_oracle.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "instance/spec.hpp"
#include "routing/fully_adaptive.hpp"
#include "routing/odd_even.hpp"
#include "routing/torus_xy.hpp"
#include "routing/west_first.hpp"
#include "routing/xy.hpp"
#include "routing/yx.hpp"
#include "util/thread_pool.hpp"
#include "verify/artifacts.hpp"

namespace genoc {
namespace {

void expect_identical(const EscapeAnalysis& actual,
                      const EscapeAnalysis& oracle) {
  EXPECT_EQ(actual.escape_always_available, oracle.escape_always_available);
  EXPECT_EQ(actual.states_checked, oracle.states_checked);
  EXPECT_EQ(actual.missing_states, oracle.missing_states);
  EXPECT_EQ(actual.missing_escape, oracle.missing_escape);
  EXPECT_EQ(actual.escape_graph.graph.vertex_count(),
            oracle.escape_graph.graph.vertex_count());
  EXPECT_EQ(actual.escape_graph.graph.edges(),
            oracle.escape_graph.graph.edges());
  EXPECT_EQ(actual.escape_graph_acyclic, oracle.escape_graph_acyclic);
  EXPECT_EQ(actual.deadlock_free, oracle.deadlock_free);
  EXPECT_EQ(actual.summary(), oracle.summary());
}

/// The pools every comparison runs under, nullptr first.
class EscapeOracle : public ::testing::Test {
 protected:
  /// Asserts analyze_escape == the oracle at every pool size and returns
  /// the oracle's analysis.
  EscapeAnalysis check(const RoutingFunction& adaptive,
                       const RoutingFunction& escape) {
    const EscapeAnalysis oracle = analyze_escape_per_port(adaptive, escape);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one_,
                             &four_, &eight_}) {
      SCOPED_TRACE(pool == nullptr ? 0 : pool->thread_count());
      expect_identical(analyze_escape(adaptive, escape, pool), oracle);
    }
    return oracle;
  }

  /// \p Adaptive with an XY and a YX escape lane on every mesh from 2x2
  /// to 7x5.
  template <typename Adaptive>
  void check_on_meshes() {
    for (std::int32_t w = 2; w <= 7; ++w) {
      for (std::int32_t h = 2; h <= 5; ++h) {
        SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
        const Mesh2D mesh(w, h);
        const Adaptive adaptive(mesh);
        check(adaptive, XYRouting(mesh));
        check(adaptive, YXRouting(mesh));
      }
    }
  }

  ThreadPool one_{1};
  ThreadPool four_{4};
  ThreadPool eight_{8};
};

InstanceSpec spec_or_die(const std::string& text) {
  std::string error;
  const std::optional<InstanceSpec> spec = parse_instance_spec(text, &error);
  EXPECT_TRUE(spec.has_value()) << text << ": " << error;
  return spec.value_or(InstanceSpec{});
}

TEST_F(EscapeOracle, MatchesOnEveryEscapePreset) {
  std::size_t covered = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (spec.escape.empty()) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    ++covered;
    const NetworkInstance instance(spec);
    ASSERT_NE(instance.escape(), nullptr);
    check(instance.routing(), *instance.escape());
  }
  EXPECT_GE(covered, 4u) << "escape-lane presets disappeared from the registry";
}

TEST_F(EscapeOracle, MatchesOnMeshesFullyAdaptive) {
  check_on_meshes<FullyAdaptiveRouting>();
}

TEST_F(EscapeOracle, MatchesOnMeshesWestFirst) {
  check_on_meshes<WestFirstRouting>();
}

TEST_F(EscapeOracle, MatchesOnMeshesOddEven) {
  // Odd-Even is port-mode: its reachability rows come from the compressed
  // closure tier rather than the node-granular sweep.
  check_on_meshes<OddEvenRouting>();
}

TEST_F(EscapeOracle, MatchesOnSampledFaultVariants) {
  // At most ~800 variants per (base, plan), taken at a fixed stride so the
  // sample spans the whole canonical link order.
  constexpr std::size_t kMaxPerPlan = 800;
  std::size_t variants = 0;
  std::size_t with_missing = 0;
  for (const char* base :
       {"topology=torus size=8x8 routing=torus_xy escape=xy",
        "topology=torus size=4x4 routing=torus_xy escape=xy",
        "topology=mesh size=5x5 routing=fully_adaptive escape=xy"}) {
    const FaultModel model(spec_or_die(base));
    for (const FaultPlan::Kind kind :
         {FaultPlan::Kind::kSingle, FaultPlan::Kind::kDouble}) {
      FaultPlan plan;
      plan.kind = kind;
      const std::vector<InstanceSpec> all = model.variants(plan);
      const std::size_t stride = (all.size() + kMaxPerPlan - 1) / kMaxPerPlan;
      for (std::size_t i = 0; i < all.size(); i += stride) {
        SCOPED_TRACE(to_spec_string(all[i]));
        const AnalysisArtifacts context(all[i]);
        ASSERT_NE(context.escape_routing(), nullptr);
        const EscapeAnalysis oracle =
            check(context.routing(), *context.escape_routing());
        ++variants;
        with_missing += oracle.escape_always_available ? 0 : 1;
      }
    }
  }
  EXPECT_GT(variants, 2000u);
  // The sample must exercise what no preset does: states without an escape
  // hop (a failed link on the XY path).
  EXPECT_GT(with_missing, 0u);
}

TEST_F(EscapeOracle, MatchesWithCyclicEscapeLane) {
  // Every spec-buildable lane (xy, yx) is acyclic even on faulted grids, so
  // a cyclic escape graph needs a lane that takes the wrap links: torus-XY
  // as its own escape is deterministic and node-uniform, but its rings
  // close.
  for (const auto& [w, h] : {std::pair{4, 4}, std::pair{5, 5},
                             std::pair{6, 4}, std::pair{8, 8}}) {
    SCOPED_TRACE(std::to_string(w) + "x" + std::to_string(h));
    const Mesh2D torus(w, h, true, true);
    const TorusXYRouting routing(torus);
    const EscapeAnalysis oracle = check(routing, routing);
    EXPECT_FALSE(oracle.escape_graph_acyclic) << oracle.summary();
  }
}

}  // namespace
}  // namespace genoc
