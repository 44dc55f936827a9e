// build_dep_graph_delta exactness: for every node-uniform grid preset the
// delta-built dependency graph of every single-link-faulted variant is
// BIT-IDENTICAL to a full per-destination rebuild — same vertex count, same
// edge count, same CSR adjacency, edge for edge. Non-node-uniform presets
// (odd_even) exercise the documented fallback: the variant constructor
// degrades to a full build and equality holds trivially. mesh64-xy is
// covered by a sampled sweep (every 97th link) to bound runtime.
//
// Monotone inheritance: a variant of a base whose rank certificate is
// checked decides acyclicity and its edge count off the base graph, with no
// graph and no DFS of its own. Its verdict row must equal both the
// delta-build + DFS fallback and a from-scratch context on every single-
// and double-fault variant of the acyclic node-uniform presets up to 8x8,
// and a base with a corrupted rank must never let a variant inherit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/fault_model.hpp"
#include "deadlock/depgraph.hpp"
#include "graph/cycle.hpp"
#include "graph/toposort.hpp"
#include "instance/registry.hpp"
#include "instance/spec.hpp"
#include "obs/metrics.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace genoc {
namespace {

void expect_identical(const PortDepGraph& delta, const PortDepGraph& full,
                      const std::string& context) {
  ASSERT_EQ(delta.graph.vertex_count(), full.graph.vertex_count()) << context;
  ASSERT_EQ(delta.graph.edge_count(), full.graph.edge_count()) << context;
  for (std::uint32_t v = 0; v < full.graph.vertex_count(); ++v) {
    const auto d = delta.graph.out(v);
    const auto f = full.graph.out(v);
    ASSERT_EQ(d.size(), f.size()) << context << " vertex " << v;
    for (std::size_t i = 0; i < f.size(); ++i) {
      ASSERT_EQ(d[i], f[i]) << context << " vertex " << v << " slot " << i;
    }
  }
}

/// Sweeps every single-link variant of \p base (every \p stride-th link),
/// comparing the delta-derived graph against a from-scratch rebuild.
/// stride == 0 selects automatically: exhaustive where the delta path is
/// live (node-uniform routing), sampled where the variant constructor can
/// only fall back to full builds anyway. Returns the variants compared.
std::size_t sweep_single_faults(const InstanceSpec& base, std::size_t stride) {
  const FaultModel model(base);
  FaultPlan plan;  // kSingle
  const std::vector<InstanceSpec> variants = model.variants(plan);
  auto base_artifacts = std::make_shared<AnalysisArtifacts>(base);
  base_artifacts->dep_graph(false, nullptr);
  if (stride == 0) {
    stride = base_artifacts->routing().node_uniform() ? 1 : 24;
  }
  std::size_t compared = 0;
  for (std::size_t i = 0; i < variants.size(); i += stride) {
    const InstanceSpec& vspec = variants[i];
    const std::string context =
        base.name + " failed=" + join_failed_links(vspec.failed_links);
    AnalysisArtifacts delta_artifacts(vspec, base_artifacts);
    AnalysisArtifacts full_artifacts(vspec);
    expect_identical(delta_artifacts.dep_graph(false, nullptr),
                     full_artifacts.dep_graph(false, nullptr), context);
    ++compared;
  }
  return compared;
}

TEST(DepGraphDelta, BitIdenticalOnEveryGridPresetSingleFault) {
  // Every registered grid preset small enough for an exhaustive sweep:
  // XY/YX, the turn models, torus dimension-order with escape lanes, the
  // adaptive families — whatever the registry grows, the delta must match.
  std::size_t presets = 0;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    if (!spec.is_grid() || !spec.failed_links.empty() ||
        spec.node_count() > 16 * 16) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    const std::size_t compared = sweep_single_faults(spec, 0);
    EXPECT_GT(compared, 0u) << spec.name;
    ++presets;
  }
  // The registry must actually feed the sweep (mesh8-xy, mesh16-xy, the
  // turn models, both toruses at minimum).
  EXPECT_GE(presets, 8u);
}

TEST(DepGraphDelta, SampledSweepOnMesh64) {
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh64-xy");
  ASSERT_NE(spec, nullptr);
  EXPECT_GE(sweep_single_faults(*spec, 97), 80u);
}

TEST(DepGraphDelta, DeltaPathIsActuallyTaken) {
  // The exactness sweep would pass vacuously if the variant constructor
  // silently fell back to full rebuilds; pin the counter.
  obs::Counter& delta_builds =
      obs::MetricsRegistry::global().counter("artifacts.dep_graph.delta_builds");
  const std::uint64_t before = delta_builds.value();
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh8-xy");
  ASSERT_NE(spec, nullptr);
  const std::size_t compared = sweep_single_faults(*spec, 1);
  EXPECT_EQ(compared, 112u);  // 7*8 + 7*8 links of an 8x8 mesh
  EXPECT_EQ(delta_builds.value() - before, compared);
}

TEST(DepGraphDelta, NonNodeUniformRoutingFallsBackToFullBuild) {
  // odd_even is not node-uniform: the variant constructor must degrade to
  // the plain owning path (no delta state), and the graphs still agree
  // because both sides are full builds.
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh16-oddeven");
  ASSERT_NE(spec, nullptr);
  obs::Counter& delta_builds =
      obs::MetricsRegistry::global().counter("artifacts.dep_graph.delta_builds");
  const std::uint64_t before = delta_builds.value();
  EXPECT_GT(sweep_single_faults(*spec, 24), 0u);
  EXPECT_EQ(delta_builds.value(), before);
}

// ---------------------------------------------------------------------------
// Monotone inheritance.
// ---------------------------------------------------------------------------

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

/// The campaign's per-variant verdict row.
struct Row {
  bool deadlock_free = false;
  std::string method;
  std::size_t edges = 0;
  std::uint64_t checks = 0;
  friend bool operator==(const Row&, const Row&) = default;
};

std::ostream& operator<<(std::ostream& out, const Row& row) {
  return out << "{free=" << row.deadlock_free << " method=" << row.method
             << " edges=" << row.edges << " checks=" << row.checks << "}";
}

Row verify_row(const InstanceSpec& spec, AnalysisArtifacts& artifacts) {
  const VerifyReport report = VerifyPipeline::standard().run(
      spec, artifacts, InstanceVerifyOptions{});
  return {report.verdict.deadlock_free, report.verdict.method,
          report.verdict.edges, report.verdict.checks};
}

/// A rank that orders every edge of \p graph but one: the first edge's
/// head is pulled down onto its tail.
std::vector<std::int64_t> corrupted_rank(const Digraph& graph) {
  const std::optional<std::vector<std::size_t>> ranks =
      longest_path_ranks(graph);
  EXPECT_TRUE(ranks.has_value());
  std::vector<std::int64_t> rank(ranks->begin(), ranks->end());
  for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
    if (!graph.out(v).empty()) {
      rank[graph.out(v).front()] = rank[v];
      break;
    }
  }
  return rank;
}

/// Compares every single- and double-fault variant of \p base three ways:
/// inherited from the certified base, the delta build + DFS fallback (a
/// twin base whose supplied rank is corrupted), and a from-scratch context.
/// Counts the variants compared into \p compared.
void check_inheritance(const InstanceSpec& base, std::size_t& compared) {
  auto certified = std::make_shared<AnalysisArtifacts>(base);
  EXPECT_TRUE(certified->rank_certificate(nullptr).checked) << base.name;
  auto corrupted = std::make_shared<AnalysisArtifacts>(base);
  corrupted->supply_rank(
      corrupted_rank(corrupted->dep_graph(false, nullptr).graph));
  EXPECT_FALSE(corrupted->rank_certificate(nullptr).checked) << base.name;

  const FaultModel model(base);
  for (const FaultPlan::Kind kind : {FaultPlan::Kind::kSingle,
                                   FaultPlan::Kind::kDouble}) {
    FaultPlan plan;
    plan.kind = kind;
    for (const InstanceSpec& vspec : model.variants(plan)) {
      const std::string context =
          base.name + " failed=" + join_failed_links(vspec.failed_links);
      const std::uint64_t delta_before =
          counter_value("artifacts.dep_graph.delta_builds");
      const std::uint64_t inherited_before =
          counter_value("artifacts.acyclicity.inherited");

      AnalysisArtifacts inherited(vspec, certified);
      const Row row = verify_row(vspec, inherited);
      ASSERT_EQ(inherited.stats().acyclicity_inherited, 1u) << context;
      ASSERT_EQ(inherited.stats().dep_graph.misses, 0u) << context;

      AnalysisArtifacts fallback(vspec, corrupted);
      const Row delta_row = verify_row(vspec, fallback);
      ASSERT_EQ(fallback.stats().acyclicity_inherited, 0u) << context;
      ASSERT_FALSE(find_cycle(fallback.dep_graph(false, nullptr).graph))
          << context;

      AnalysisArtifacts scratch(vspec);
      const Row scratch_row = verify_row(vspec, scratch);

      ASSERT_EQ(counter_value("artifacts.dep_graph.delta_builds") -
                    delta_before,
                1u)
          << context;
      ASSERT_EQ(counter_value("artifacts.acyclicity.inherited") -
                    inherited_before,
                1u)
          << context;
      ASSERT_TRUE(row.deadlock_free) << context;
      ASSERT_EQ(row.method, "Theorem 1 (C-3)") << context;
      ASSERT_EQ(row, delta_row) << context;
      ASSERT_EQ(row, scratch_row) << context;
      ++compared;
    }
  }
}

/// Runs check_inheritance over every distinct unfaulted mesh preset up to
/// 8x8 routed by \p routing; returns the presets covered.
std::size_t check_routing_presets(const std::string& routing) {
  std::vector<std::string> keys;
  for (const InstanceSpec& spec : InstanceRegistry::global().presets()) {
    const std::string key = AnalysisArtifacts::key(spec);
    if (spec.topology != "mesh" || spec.routing != routing ||
        !spec.escape.empty() || !spec.failed_links.empty() ||
        spec.width > 8 || spec.height > 8 ||
        std::find(keys.begin(), keys.end(), key) != keys.end()) {
      continue;
    }
    SCOPED_TRACE(spec.name);
    keys.push_back(key);
    std::size_t compared = 0;
    check_inheritance(spec, compared);
    EXPECT_GT(compared, 0u);
  }
  return keys.size();
}

TEST(MonotoneInheritance, XyPresetsMatchDeltaAndScratch) {
  EXPECT_EQ(check_routing_presets("xy"), 2u);  // hermes, mesh8-xy
}

TEST(MonotoneInheritance, YxPresetsMatchDeltaAndScratch) {
  EXPECT_EQ(check_routing_presets("yx"), 1u);
}

TEST(MonotoneInheritance, WestFirstPresetsMatchDeltaAndScratch) {
  EXPECT_EQ(check_routing_presets("west_first"), 1u);
}

TEST(MonotoneInheritance, NorthLastPresetsMatchDeltaAndScratch) {
  EXPECT_EQ(check_routing_presets("north_last"), 1u);
}

TEST(MonotoneInheritance, NegativeFirstPresetsMatchDeltaAndScratch) {
  EXPECT_EQ(check_routing_presets("negative_first"), 1u);
}

TEST(MonotoneInheritance, CorruptedBaseRankForcesTheFallback) {
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh8-xy");
  ASSERT_NE(spec, nullptr);
  auto base = std::make_shared<AnalysisArtifacts>(*spec);
  base->supply_rank(corrupted_rank(base->dep_graph(false, nullptr).graph));
  const RankCertificate& cert = base->rank_certificate(nullptr);
  EXPECT_FALSE(cert.checked);
  EXPECT_TRUE(cert.in_degree.empty());

  const std::uint64_t delta_before =
      counter_value("artifacts.dep_graph.delta_builds");
  const std::uint64_t inherited_before =
      counter_value("artifacts.acyclicity.inherited");
  const std::vector<InstanceSpec> variants =
      FaultModel(*spec).variants(FaultPlan{});
  for (const InstanceSpec& vspec : variants) {
    AnalysisArtifacts variant(vspec, base);
    EXPECT_TRUE(variant.acyclicity(false, nullptr).acyclic);
    EXPECT_EQ(variant.stats().acyclicity_inherited, 0u);
    EXPECT_EQ(variant.stats().dep_graph.misses, 1u);  // its delta graph
  }
  EXPECT_EQ(counter_value("artifacts.dep_graph.delta_builds") - delta_before,
            variants.size());
  EXPECT_EQ(counter_value("artifacts.acyclicity.inherited"), inherited_before);
  // supply_rank() checked the rank once; the probe above and every
  // variant read the refusal.
  EXPECT_EQ(base->stats().rank.misses, 1u);
  EXPECT_EQ(base->stats().rank.hits, variants.size() + 1);
}

TEST(MonotoneInheritance, SuppliedValidRankCertifiesTheBase) {
  // A closed-form rank other than Kahn's order (here the longest-path
  // ranks) passes the same check and lets variants inherit.
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh8-westfirst");
  ASSERT_NE(spec, nullptr);
  auto base = std::make_shared<AnalysisArtifacts>(*spec);
  const std::optional<std::vector<std::size_t>> ranks =
      longest_path_ranks(base->dep_graph(false, nullptr).graph);
  ASSERT_TRUE(ranks.has_value());
  base->supply_rank(std::vector<std::int64_t>(ranks->begin(), ranks->end()));
  EXPECT_TRUE(base->rank_certificate(nullptr).checked);
  const InstanceSpec vspec = FaultModel(*spec).variants(FaultPlan{}).front();
  AnalysisArtifacts variant(vspec, base);
  EXPECT_TRUE(variant.acyclicity(false, nullptr).acyclic);
  EXPECT_EQ(variant.stats().acyclicity_inherited, 1u);
  // The edge count comes off the base graph; the delta graph agrees.
  const std::size_t inherited_edges = variant.dep_edge_count(false, nullptr);
  EXPECT_EQ(variant.stats().dep_graph.misses, 0u);
  EXPECT_EQ(inherited_edges, variant.dep_graph(false, nullptr).graph.edge_count());
}

TEST(MonotoneInheritance, GenericBuilderNeverInherits) {
  const InstanceSpec* spec = InstanceRegistry::global().find("hermes");
  ASSERT_NE(spec, nullptr);
  auto base = std::make_shared<AnalysisArtifacts>(*spec);
  const InstanceSpec vspec = FaultModel(*spec).variants(FaultPlan{}).front();
  AnalysisArtifacts variant(vspec, base);
  EXPECT_TRUE(variant.acyclicity(true, nullptr).acyclic);
  EXPECT_EQ(variant.stats().acyclicity_inherited, 0u);
  EXPECT_EQ(variant.stats().dep_graph.misses, 1u);
}

}  // namespace
}  // namespace genoc
