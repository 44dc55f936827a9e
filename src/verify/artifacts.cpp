#include "verify/artifacts.hpp"

#include <algorithm>

#include "graph/toposort.hpp"
#include "instance/network_instance.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace genoc {

namespace {

/// The legacy ArtifactCacheStats counters stay (the per-run report delta is
/// computed from them); these mirror every tick into the process-wide
/// MetricsRegistry so the cache is observable without threading a report
/// through. References are stable for the process lifetime — call sites
/// cache them in function-local statics.
struct KindCounters {
  obs::Counter& hits;
  obs::Counter& misses;
};

KindCounters kind_counters(const char* kind) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const std::string prefix = std::string("artifacts.") + kind;
  return KindCounters{metrics.counter(prefix + ".hits"),
                      metrics.counter(prefix + ".misses")};
}

/// Edges of \p graph that survive deleting the sorted, deduplicated
/// vertices \p removed: every edge minus those with an endpoint in
/// \p removed, an edge between two removed vertices subtracted once.
/// O(|removed| · degree · log |removed|).
std::size_t surviving_edge_count(const Digraph& graph,
                                 const std::vector<std::uint32_t>& in_degree,
                                 const std::vector<PortId>& removed) {
  std::size_t incident = 0;
  for (const PortId r : removed) {
    incident += graph.out_degree(r) + in_degree[r];
    for (const std::uint32_t w : graph.out(r)) {
      if (std::binary_search(removed.begin(), removed.end(), w)) {
        --incident;  // counted as r's out-edge and as w's in-edge
      }
    }
  }
  return graph.edge_count() - incident;
}

}  // namespace

AnalysisArtifacts::AnalysisArtifacts(const InstanceSpec& spec) {
  const std::string invalid = validate_spec(spec);
  GENOC_REQUIRE(invalid.empty(), "invalid instance spec: " + invalid);
  topo_ = make_topology(spec);
  routing_ = make_routing(spec.routing, *topo_);
  if (!spec.escape.empty()) {
    escape_ = make_routing(spec.escape, *topo_);
  }
}

AnalysisArtifacts::AnalysisArtifacts(const InstanceSpec& spec,
                                     std::shared_ptr<AnalysisArtifacts> base)
    : AnalysisArtifacts(spec) {
  if (base == nullptr || spec.failed_links.empty() ||
      !routing_->node_uniform()) {
    return;  // nothing to delta from — full builds as usual
  }
  const auto* variant_mesh = dynamic_cast<const Mesh2D*>(topo_.get());
  const auto* base_mesh = dynamic_cast<const Mesh2D*>(&base->topology());
  if (variant_mesh == nullptr || base_mesh == nullptr) {
    return;  // faults are grid-only
  }
  GENOC_REQUIRE(base_mesh->width() == variant_mesh->width() &&
                    base_mesh->height() == variant_mesh->height() &&
                    base_mesh->wraps_x() == variant_mesh->wraps_x() &&
                    base_mesh->wraps_y() == variant_mesh->wraps_y() &&
                    !base_mesh->has_faults(),
                "delta base context does not match the variant's grid");
  // The base-graph ids of the variant's removed ports: four per distinct
  // failed link (both directed channels' OUT + IN). Duplicate faults are
  // idempotent, hence the dedup.
  for (const std::string& token : spec.failed_links) {
    std::string error;
    const std::optional<LinkFault> fault = parse_link_fault(token, &error);
    GENOC_REQUIRE(fault.has_value(), error);
    const LinkFault peer =
        link_fault_peer(*fault, base_mesh->width(), base_mesh->height(),
                        base_mesh->wraps_x(), base_mesh->wraps_y());
    for (const LinkFault& end : {*fault, peer}) {
      const Port in{end.node % base_mesh->width(),
                    end.node / base_mesh->width(), end.name, Direction::kIn};
      removed_base_ports_.push_back(base_mesh->id(in));
      removed_base_ports_.push_back(
          base_mesh->id(Port{in.x, in.y, in.name, Direction::kOut}));
    }
  }
  std::sort(removed_base_ports_.begin(), removed_base_ports_.end());
  removed_base_ports_.erase(
      std::unique(removed_base_ports_.begin(), removed_base_ports_.end()),
      removed_base_ports_.end());
  base_ = std::move(base);
}

std::string AnalysisArtifacts::key(const InstanceSpec& spec) {
  std::string prefix = "topology=" + spec.topology;
  if (spec.topology == "dragonfly") {
    prefix += " routers=" + std::to_string(spec.df_routers) +
              " globals=" + std::to_string(spec.df_globals) +
              " terminals=" + std::to_string(spec.df_terminals) +
              " groups=" + std::to_string(spec.df_groups_resolved());
  } else {
    prefix += " size=" + std::to_string(spec.width) + "x" +
              std::to_string(spec.height);
    if (spec.topology == "cmesh") {
      prefix += " concentration=" + std::to_string(spec.concentration);
    }
  }
  prefix += " routing=" + spec.routing +
            " escape=" + (spec.escape.empty() ? "none" : spec.escape);
  // Fault variants are distinct analysis contexts; the canonical token
  // order (with_failed_links) makes equal fault sets share one key.
  if (!spec.failed_links.empty()) {
    prefix += " failed=" + join_failed_links(spec.failed_links);
  }
  return prefix;
}

void AnalysisArtifacts::ensure_primed_locked(ThreadPool* pool) {
  static KindCounters counters = kind_counters("primed");
  if (primed_) {
    ++stats_.primed.hits;
    counters.hits.increment();
    return;
  }
  obs::TraceSpan span("artifact:prime");
  if (pool != nullptr) {
    routing_->prime(*pool);
    if (escape_ != nullptr) {
      escape_->prime(*pool);
    }
  } else {
    routing_->prime();
    if (escape_ != nullptr) {
      escape_->prime();
    }
  }
  primed_ = true;
  ++stats_.primed.misses;
  counters.misses.increment();
}

const PortDepGraph& AnalysisArtifacts::dep_graph_locked(bool generic_builder,
                                                        ThreadPool* pool) {
  static KindCounters counters = kind_counters("dep_graph");
  if (dep_.has_value()) {
    // Reused regardless of which builder produced it: the generic oracle,
    // the fast builder and the sharded builder are bit-identical (the test
    // suite's standing cross-check), so the graph content cannot differ.
    ++stats_.dep_graph.hits;
    counters.hits.increment();
    return *dep_;
  }
  ++stats_.dep_graph.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:dep_graph");
  if (generic_builder) {
    // The oracle walks reachable() per (port, dest); prime first so the
    // closure build is not racing a shared batch sibling.
    ensure_primed_locked(pool);
    dep_ = build_dep_graph(*routing_);
  } else if (base_ != nullptr) {
    // Fault-variant delta: filter the base graph instead of re-sweeping.
    // Lock order is variant -> base only (a base never acquires a
    // variant), so the nested dep_graph() cannot deadlock; concurrent
    // variants serialize on the base's first build and hit thereafter.
    static obs::Counter& delta_builds =
        obs::MetricsRegistry::global().counter("artifacts.dep_graph.delta_builds");
    const PortDepGraph& base_graph = base_->dep_graph(false, pool);
    dep_ = build_dep_graph_delta(base_graph, *routing_, removed_base_ports_);
    delta_builds.increment();
  } else if (pool != nullptr) {
    dep_ = build_dep_graph_parallel(*routing_, *pool);
  } else {
    dep_ = build_dep_graph_fast(*routing_);
  }
  return *dep_;
}

const PortDepGraph& AnalysisArtifacts::dep_graph(bool generic_builder,
                                                 ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return dep_graph_locked(generic_builder, pool);
}

std::size_t AnalysisArtifacts::dep_edge_count(bool generic_builder,
                                              ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!dep_.has_value() && inherits_locked(generic_builder, pool)) {
    return *inherited_edges_;
  }
  return dep_graph_locked(generic_builder, pool).graph.edge_count();
}

const RankCertificate& AnalysisArtifacts::rank_certificate(ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  static KindCounters counters = kind_counters("rank");
  if (rank_.has_value()) {
    ++stats_.rank.hits;
    counters.hits.increment();
    return *rank_;
  }
  const Digraph& graph = dep_graph_locked(false, pool).graph;
  std::vector<std::int64_t> rank;
  if (const auto order = topological_order(graph)) {
    rank.resize(order->size());
    for (std::size_t i = 0; i < order->size(); ++i) {
      rank[(*order)[i]] = static_cast<std::int64_t>(i);
    }
  }
  return certify_locked(graph, std::move(rank));
}

void AnalysisArtifacts::supply_rank(std::vector<std::int64_t> rank) {
  const std::lock_guard<std::mutex> lock(mutex_);
  GENOC_REQUIRE(!rank_.has_value(),
                "supply_rank() after the rank certificate was computed");
  GENOC_REQUIRE(rank.size() == topo_->port_count(),
                "supplied rank needs one entry per port");
  certify_locked(dep_graph_locked(false, nullptr).graph, std::move(rank));
}

const RankCertificate& AnalysisArtifacts::certify_locked(
    const Digraph& graph, std::vector<std::int64_t> rank) {
  static KindCounters counters = kind_counters("rank");
  ++stats_.rank.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:rank");
  RankCertificate cert;
  cert.rank = std::move(rank);
  // The decider (Kahn) and the checker share no code: only a rank that
  // passes verify_rank_certificate lets a variant inherit anything.
  cert.checked = !cert.rank.empty() && verify_rank_certificate(graph, cert.rank);
  if (cert.checked) {
    cert.in_degree.assign(graph.vertex_count(), 0);
    for (std::size_t v = 0; v < graph.vertex_count(); ++v) {
      for (const std::uint32_t w : graph.out(v)) {
        ++cert.in_degree[w];
      }
    }
  }
  rank_ = std::move(cert);
  return *rank_;
}

bool AnalysisArtifacts::inherits_locked(bool generic_builder,
                                        ThreadPool* pool) {
  if (generic_builder || base_ == nullptr) {
    return false;
  }
  if (!inheritance_decided_) {
    inheritance_decided_ = true;
    // Lock order variant -> base, as for the delta build.
    const RankCertificate& cert = base_->rank_certificate(pool);
    if (cert.checked) {
      // The base graph is immutable once its certificate exists.
      inherited_edges_ = surviving_edge_count(
          base_->dep_->graph, cert.in_degree, removed_base_ports_);
    }
  }
  return inherited_edges_.has_value();
}

const AcyclicityArtifact& AnalysisArtifacts::acyclicity_locked(
    bool generic_builder, ThreadPool* pool) {
  static KindCounters counters = kind_counters("acyclicity");
  if (acyclicity_.has_value()) {
    ++stats_.acyclicity.hits;
    counters.hits.increment();
    return *acyclicity_;
  }
  if (inherits_locked(generic_builder, pool)) {
    // Monotonicity: the base rank restricted to the surviving ports still
    // increases along every variant edge, so the variant is acyclic.
    static obs::Counter& inherited =
        obs::MetricsRegistry::global().counter("artifacts.acyclicity.inherited");
    ++stats_.acyclicity.misses;
    ++stats_.acyclicity_inherited;
    counters.misses.increment();
    inherited.increment();
    acyclicity_ = AcyclicityArtifact{true, std::nullopt};
    return *acyclicity_;
  }
  const PortDepGraph& dep = dep_graph_locked(generic_builder, pool);
  ++stats_.acyclicity.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:acyclicity");
  AcyclicityArtifact result;
  result.cycle = find_cycle(dep.graph);
  result.acyclic = !result.cycle.has_value();
  acyclicity_ = std::move(result);
  return *acyclicity_;
}

const AcyclicityArtifact& AnalysisArtifacts::acyclicity(bool generic_builder,
                                                        ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return acyclicity_locked(generic_builder, pool);
}

const EscapeAnalysis& AnalysisArtifacts::escape_analysis(ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  GENOC_REQUIRE(escape_ != nullptr,
                "escape_analysis() on a context without an escape lane");
  static KindCounters counters = kind_counters("escape");
  if (escape_analysis_.has_value()) {
    ++stats_.escape.hits;
    counters.hits.increment();
    return *escape_analysis_;
  }
  // analyze_escape reads closure rows per destination; priming here keeps
  // any eager closure build inside this cache's compute-once accounting
  // (node-granular tiers build nothing — the escape shards materialize
  // their own rows with thread locality).
  ensure_primed_locked(pool);
  ++stats_.escape.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:escape_analysis");
  escape_analysis_ = analyze_escape(*routing_, *escape_, pool);
  return *escape_analysis_;
}

const ConstraintsArtifact& AnalysisArtifacts::constraints(bool generic_builder,
                                                          ThreadPool* pool) {
  const std::lock_guard<std::mutex> lock(mutex_);
  static KindCounters counters = kind_counters("constraints");
  if (constraints_.has_value()) {
    ++stats_.constraints.hits;
    counters.hits.increment();
    return *constraints_;
  }
  const PortDepGraph& dep = dep_graph_locked(generic_builder, pool);
  ensure_primed_locked(pool);  // (C-1)/(C-2) enumerate reachable() heavily
  ++stats_.constraints.misses;
  counters.misses.increment();
  obs::TraceSpan span("artifact:constraints");
  ConstraintsArtifact result;
  result.c1 = check_c1(*routing_, dep);
  result.c2 = check_c2(*routing_, dep);
  constraints_ = std::move(result);
  return *constraints_;
}

ArtifactCacheStats AnalysisArtifacts::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::shared_ptr<AnalysisArtifacts> ArtifactStore::acquire(
    const InstanceSpec& spec) {
  static KindCounters counters = kind_counters("contexts");
  const std::string key = AnalysisArtifacts::key(spec);
  const auto find = [this, &key] {
    return std::find_if(
        entries_.begin(), entries_.end(),
        [&key](const auto& entry) { return entry.first == key; });
  };
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = find(); it != entries_.end()) {
      ++contexts_.hits;
      counters.hits.increment();
      return it->second;
    }
  }
  // Build outside the lock: a fault variant first acquires its unfaulted
  // BASE context (recursively, so campaigns share one base graph across
  // every variant), and context construction itself is the expensive part.
  std::shared_ptr<AnalysisArtifacts> base;
  if (!spec.failed_links.empty() && spec.is_grid()) {
    InstanceSpec base_spec = spec;
    base_spec.failed_links.clear();
    base = acquire(base_spec);
  }
  obs::TraceSpan span("artifact:context_build");
  auto artifacts = base != nullptr
                       ? std::make_shared<AnalysisArtifacts>(spec, base)
                       : std::make_shared<AnalysisArtifacts>(spec);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = find(); it != entries_.end()) {
    // Lost a build race; the first-published context wins so every caller
    // shares one cache.
    ++contexts_.hits;
    counters.hits.increment();
    return it->second;
  }
  ++contexts_.misses;
  counters.misses.increment();
  entries_.emplace_back(key, artifacts);
  return artifacts;
}

std::size_t ArtifactStore::context_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

ArtifactCacheStats ArtifactStore::stats() const {
  std::vector<std::shared_ptr<AnalysisArtifacts>> contexts;
  ArtifactCacheStats total;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    total.contexts = contexts_;
    contexts.reserve(entries_.size());
    for (const auto& [key, artifacts] : entries_) {
      contexts.push_back(artifacts);
    }
  }
  for (const auto& artifacts : contexts) {
    total += artifacts->stats();
  }
  return total;
}

}  // namespace genoc
