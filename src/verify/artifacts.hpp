/// \file artifacts.hpp
/// \brief AnalysisArtifacts: the compute-once cache the VerifyPipeline's
///        stages communicate through, and ArtifactStore: the batch-wide map
///        that shares one cache across every instance with the same
///        topology x routing x escape prefix.
///
/// Every stage consumes artifacts (the dependency graph, the primed
/// reachability closure, the SCC/acyclicity verdict, the escape analysis,
/// the (C-1)/(C-2) reports) and none of them may be rebuilt once they
/// exist: a stage that needs an artifact another stage already produced —
/// or a SECOND instance in a batch sweep sharing the same prefix — gets the
/// cached object and a `hits` tick instead of a recompute. The counters
/// make the reuse observable, so tests assert "verify --all primes each
/// distinct closure exactly once" instead of trusting it.
///
/// Thread-safety: accessors take one internal lock for the whole compute,
/// so two batch tasks acquiring the same shared artifacts serialize on the
/// first compute and both read the same object afterwards. A compute may
/// itself shard over the pool (nested parallel_for is work-sharing — the
/// lock holder participates in its own chunks, so a blocked sibling task
/// can never deadlock it).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "deadlock/constraints.hpp"
#include "deadlock/depgraph.hpp"
#include "deadlock/escape.hpp"
#include "graph/cycle.hpp"
#include "instance/spec.hpp"

namespace genoc {

class ThreadPool;

/// Compute-once bookkeeping of one artifact kind: `misses` counts the
/// computes (the guarantee under test: one per distinct context), `hits`
/// every access that found the artifact cached — later stages of the same
/// run included, so hits measure cache traffic, not sharing alone.
struct ArtifactCounter {
  std::uint64_t misses = 0;
  std::uint64_t hits = 0;

  ArtifactCounter& operator+=(const ArtifactCounter& other) {
    misses += other.misses;
    hits += other.hits;
    return *this;
  }
  friend bool operator==(const ArtifactCounter&,
                         const ArtifactCounter&) = default;
};

/// Per-kind counters of one AnalysisArtifacts (or, aggregated, of a whole
/// ArtifactStore — see ArtifactStore::stats()).
struct ArtifactCacheStats {
  ArtifactCounter contexts;     ///< store-level: acquire() builds vs reuses
  ArtifactCounter primed;       ///< reachability-closure prime() passes
  ArtifactCounter dep_graph;    ///< dependency-graph builds
  ArtifactCounter acyclicity;   ///< (C-3) decisions, DFS or inherited
  /// The acyclicity misses a fault variant decided by inheritance from its
  /// base's checked rank, with no graph and no DFS of its own.
  std::uint64_t acyclicity_inherited = 0;
  ArtifactCounter rank;         ///< base rank certificates (Kahn + check)
  ArtifactCounter escape;       ///< escape-lane analyses
  ArtifactCounter constraints;  ///< (C-1)/(C-2) discharges

  ArtifactCacheStats& operator+=(const ArtifactCacheStats& other) {
    contexts += other.contexts;
    primed += other.primed;
    dep_graph += other.dep_graph;
    acyclicity += other.acyclicity;
    acyclicity_inherited += other.acyclicity_inherited;
    rank += other.rank;
    escape += other.escape;
    constraints += other.constraints;
    return *this;
  }
};

/// The acyclicity artifact: the (C-3) verdict plus the DFS cycle witness
/// backing the "dependency cycle of length N" evidence when it fails.
struct AcyclicityArtifact {
  bool acyclic = false;
  std::optional<CycleWitness> cycle;
};

/// The base half of the monotone decision: a Kahn rank of the context's
/// dependency graph, checked by verify_rank_certificate, plus the per-port
/// in-degrees a fault variant needs to count its surviving edges. A link
/// fault only deletes ports, so a variant's graph is an induced subgraph of
/// its base's; once the base rank is `checked`, every variant is acyclic
/// (the same rank restricted to the survivors certifies it).
struct RankCertificate {
  /// verify_rank_certificate accepted `rank`: the graph is acyclic.
  bool checked = false;
  /// Topological positions (or a supplied rank); empty when Kahn's
  /// algorithm met a cycle.
  std::vector<std::int64_t> rank;
  /// Per-port in-degree of the graph; filled only when `checked`.
  std::vector<std::uint32_t> in_degree;
};

/// The (C-1)/(C-2) artifact.
struct ConstraintsArtifact {
  ConstraintReport c1;
  ConstraintReport c2;
};

/// The shared artifact cache of one analysis context: the topology, routing
/// and optional escape lane built from a spec's analysis prefix, owned here,
/// so the cached dependency graph (whose PortDepGraph points at that
/// topology) stays valid for as long as any verify, analyzer run or fault
/// variant holds the context.
class AnalysisArtifacts {
 public:
  /// Builds topology/routing/escape from the spec's analysis prefix
  /// (topology family + parameters, routing, escape). Requires a valid
  /// spec; throws ContractViolation otherwise.
  explicit AnalysisArtifacts(const InstanceSpec& spec);

  /// Constructor for a FAULT VARIANT sharing its unfaulted base context:
  /// when \p spec has failed links, a grid topology and a
  /// node-uniform routing, the variant has DELTA STATE. Its acyclicity and
  /// edge count are then inherited from a base whose rank is checked, and
  /// its dependency graph, built only when a caller needs the graph itself,
  /// comes from the base graph by build_dep_graph_delta instead of a full
  /// rebuild — the campaign hot path. \p base must be the context of this
  /// spec with failed_links cleared (same grid, same routing/escape);
  /// passing nullptr, or a spec where the delta does not apply, degrades
  /// to the plain constructor.
  AnalysisArtifacts(const InstanceSpec& spec,
                    std::shared_ptr<AnalysisArtifacts> base);

  AnalysisArtifacts(const AnalysisArtifacts&) = delete;
  AnalysisArtifacts& operator=(const AnalysisArtifacts&) = delete;

  /// The canonical sharing key: the fields the analysis artifacts actually
  /// depend on — topology family + its parameters, routing, escape — in
  /// spec-string order. Workload, switching, buffers and the expected
  /// verdict are deliberately absent: two presets differing only there
  /// (mesh8-xy vs mesh8-xy-sf) share every artifact.
  static std::string key(const InstanceSpec& spec);

  const Topology& topology() const { return *topo_; }
  const RoutingFunction& routing() const { return *routing_; }
  /// The escape-lane routing, or nullptr when the context has none.
  const RoutingFunction* escape_routing() const { return escape_.get(); }

  /// The port dependency graph. \p generic_builder selects the quadratic
  /// oracle (bit-identical to the fast builder, so a cached graph is reused
  /// regardless of which builder produced it); \p pool shards the fast
  /// build over destinations.
  const PortDepGraph& dep_graph(bool generic_builder, ThreadPool* pool);

  /// Edge count of the dependency graph. A fault variant whose base rank
  /// is checked answers it from the base graph (base edges minus the edges
  /// incident on its removed ports) without building its own graph; every
  /// other context reads it off dep_graph().
  std::size_t dep_edge_count(bool generic_builder, ThreadPool* pool);

  /// The (C-3) verdict with cycle witness. A fault variant whose base rank
  /// is checked inherits "acyclic" (monotonicity: its graph is an induced
  /// subgraph of the base's) and runs no DFS and no graph build; every
  /// other context decides it by find_cycle() on dep_graph(). \p pool only
  /// shards that graph build. The generic oracle never inherits.
  const AcyclicityArtifact& acyclicity(bool generic_builder, ThreadPool* pool);

  /// This context's rank certificate over its fast-built dependency graph,
  /// computed once: Kahn's topological order (or the rank supply_rank()
  /// installed), then verify_rank_certificate. Fault variants read it from
  /// their base before inheriting anything.
  const RankCertificate& rank_certificate(ThreadPool* pool);

  /// Certifies an externally computed rank (a closed-form one, such as the
  /// flows argument's) in place of the Kahn rank. It must precede the
  /// first rank_certificate() and is checked like the Kahn rank, so a
  /// wrong rank certifies nothing: variants then fall back to their own
  /// delta graph and DFS. \p rank must have one entry per port.
  void supply_rank(std::vector<std::int64_t> rank);

  /// The Duato escape-lane analysis. Requires escape_routing() != nullptr.
  const EscapeAnalysis& escape_analysis(ThreadPool* pool);

  /// The (C-1)/(C-2) reports; computes dep_graph and the closure on demand.
  const ConstraintsArtifact& constraints(bool generic_builder,
                                         ThreadPool* pool);

  /// Snapshot of this cache's hit/miss counters (`contexts` is always zero
  /// here; only the store tracks acquisitions).
  ArtifactCacheStats stats() const;

 private:
  const PortDepGraph& dep_graph_locked(bool generic_builder, ThreadPool* pool);
  const AcyclicityArtifact& acyclicity_locked(bool generic_builder,
                                              ThreadPool* pool);
  /// True when this fault variant may inherit from its base: delta state,
  /// the fast builder, and a checked base rank. Fills inherited_edges_ on
  /// first success and remembers a refusal.
  bool inherits_locked(bool generic_builder, ThreadPool* pool);
  /// Checks \p rank against \p graph and stores the resulting certificate.
  const RankCertificate& certify_locked(const Digraph& graph,
                                        std::vector<std::int64_t> rank);
  /// Primes the routing's (and escape lane's) lazily built reachability
  /// closure exactly once, so subsequent reachable() queries are read-only
  /// and shareable across threads. With a pool, compressed-tier rows are
  /// built destination-sharded in parallel; closed-form and node-granular
  /// routings stay no-op-cheap either way.
  void ensure_primed_locked(ThreadPool* pool);

  std::unique_ptr<Topology> topo_;
  std::unique_ptr<RoutingFunction> routing_;
  std::unique_ptr<RoutingFunction> escape_;  ///< null without an escape lane

  // Fault-variant delta state: the unfaulted base context (keeps the base
  // graph alive and shares its compute across every variant of a campaign)
  // and the base-graph ids of the ports this variant's faults removed.
  std::shared_ptr<AnalysisArtifacts> base_;
  std::vector<PortId> removed_base_ports_;
  bool inheritance_decided_ = false;
  std::optional<std::size_t> inherited_edges_;  ///< set iff inheriting

  mutable std::mutex mutex_;
  bool primed_ = false;
  std::optional<PortDepGraph> dep_;
  std::optional<AcyclicityArtifact> acyclicity_;
  std::optional<RankCertificate> rank_;
  std::optional<EscapeAnalysis> escape_analysis_;
  std::optional<ConstraintsArtifact> constraints_;
  ArtifactCacheStats stats_;
};

/// The batch-wide sharing map: one AnalysisArtifacts per distinct
/// AnalysisArtifacts::key() in the sweep. verify_instances() threads a
/// store through every instance so `genoc verify --all` builds each
/// distinct closure/graph exactly once.
class ArtifactStore {
 public:
  ArtifactStore() = default;
  ArtifactStore(const ArtifactStore&) = delete;
  ArtifactStore& operator=(const ArtifactStore&) = delete;

  /// The artifacts for \p spec's analysis prefix, building the context on
  /// first sight of the key. Thread-safe; the returned pointer stays valid
  /// for the life of the store.
  std::shared_ptr<AnalysisArtifacts> acquire(const InstanceSpec& spec);

  /// Number of distinct analysis contexts materialized so far.
  std::size_t context_count() const;

  /// Aggregated counters: `contexts` from the store's acquire() ledger,
  /// everything else summed over the per-context caches.
  ArtifactCacheStats stats() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, std::shared_ptr<AnalysisArtifacts>>>
      entries_;
  ArtifactCounter contexts_;
};

}  // namespace genoc
