/// \file network_instance.hpp
/// \brief NetworkInstance: an InstanceSpec brought to life — one analysis
///        context (topology, routing function, optional escape lane) plus
///        the switching policy and workload that `genoc sim` needs.
///
/// Verification does not need this class: `genoc verify` and `genoc
/// campaign` run VerifyPipeline::run over a spec and the AnalysisArtifacts
/// context they already hold. A NetworkInstance owns exactly one such
/// context and reads topology, routing and escape through it, so no spec is
/// ever built twice to answer one question.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "instance/spec.hpp"
#include "routing/routing.hpp"
#include "sim/simulator.hpp"
#include "switching/policy.hpp"
#include "topology/mesh.hpp"
#include "verify/artifacts.hpp"
#include "verify/verdict.hpp"
#include "workload/traffic.hpp"

namespace genoc {

/// Topology factory over the registered families of known_topologies():
/// grids map to Mesh2D with the spec's wrap flags, cmesh/dragonfly to their
/// own classes. Throws ContractViolation on invalid specs.
std::unique_ptr<Topology> make_topology(const InstanceSpec& spec);

/// Routing-function factory over the canonical names of known_routings().
/// Each function REQUIRE-downcasts \p topology to the family it routes
/// (the eight grid functions need a Mesh2D, cmesh_dor a CMeshTopology,
/// dragonfly_min a DragonflyTopology) — validate specs first.
std::unique_ptr<RoutingFunction> make_routing(const std::string& name,
                                              const Topology& topology);

/// Switching-policy factory over known_switchings().
std::unique_ptr<SwitchingPolicy> make_switching(const std::string& name);

class NetworkInstance {
 public:
  /// Builds the analysis context and the switching policy. Requires
  /// validate_spec(spec).empty(); throws ContractViolation otherwise.
  explicit NetworkInstance(const InstanceSpec& spec);

  NetworkInstance(NetworkInstance&&) = default;
  NetworkInstance& operator=(NetworkInstance&&) = default;

  const InstanceSpec& spec() const { return spec_; }
  /// display_name(spec()).
  std::string name() const { return display_name(spec_); }
  /// The port graph, whatever its family.
  const Topology& topology() const { return context_->topology(); }
  /// The grid view; REQUIREs spec().is_grid(). The Port-tuple consumers
  /// (simulator, escape lanes, constraints) go through this accessor.
  const Mesh2D& mesh() const;
  const RoutingFunction& routing() const { return context_->routing(); }
  /// The escape-lane routing, or nullptr when the spec has none.
  const RoutingFunction* escape() const { return context_->escape_routing(); }
  const SwitchingPolicy& switching() const { return *switching_; }

  /// The spec's workload (pattern/messages/seed), deterministically.
  /// Grid-only: the traffic patterns address the Port-tuple grid.
  std::vector<TrafficPair> make_traffic() const;

  /// Verifies deadlock freedom with VerifyPipeline::standard(): builds the
  /// dependency graph, checks (C-3); on a cyclic graph falls back to the
  /// Duato escape-lane analysis when the spec names an escape routing.
  /// Runs over options.artifacts' context for this spec when a store is
  /// given, else over the instance's own context — whose artifacts are
  /// cached, so a second call reuses the first call's graph.
  InstanceVerdict verify(const InstanceVerifyOptions& options = {}) const;

  /// Simulates \p pairs under the instance's switching policy (adaptive
  /// routes sampled from the spec seed). Audits CorrThm/EvacThm/(C-5).
  SimulationReport simulate(const std::vector<TrafficPair>& pairs,
                            const SimulationOptions& options = {}) const;

 private:
  InstanceSpec spec_;
  std::unique_ptr<AnalysisArtifacts> context_;
  std::unique_ptr<SwitchingPolicy> switching_;
};

}  // namespace genoc
