/// \file escape_oracle.hpp
/// \brief Test oracle for analyze_escape(): the per-port escape-lane sweep.
///
/// This is the escape analysis written directly from its definition, one
/// (in-port, destination) state at a time: every adaptive-reachable in-port
/// asks the escape function for its hops through the generic id layer
/// (next_hop_ids_into, i.e. the Port-tuple formula plus the existence
/// filter), and the lane's closure follows every escape-lane port the same
/// way. It needs no node-uniformity, so comparing it with the node-level
/// production sweep checks both that sweep and the escape function's
/// node_out_mask against its append_next_hops.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "deadlock/escape.hpp"
#include "routing/routing.hpp"
#include "routing/sweep.hpp"
#include "util/require.hpp"

namespace genoc {

/// The per-port escape analysis, sequential; field-for-field comparable
/// with analyze_escape().
inline EscapeAnalysis analyze_escape_per_port(const RoutingFunction& adaptive,
                                              const RoutingFunction& escape) {
  GENOC_REQUIRE(&adaptive.topology() == &escape.topology(),
                "adaptive and escape functions must share a topology");
  GENOC_REQUIRE(escape.is_deterministic(),
                "the escape function must be deterministic");
  const Topology& topo = adaptive.topology();
  const std::size_t port_count = topo.port_count();

  EscapeAnalysis result;
  result.escape_graph.topo = &topo;
  result.escape_graph.mesh = dynamic_cast<const Mesh2D*>(&topo);
  result.escape_graph.graph = Digraph(port_count);

  std::vector<PortId> in_ports;
  for (PortId pid = 0; pid < port_count; ++pid) {
    if (topo.dir_of(pid) == Direction::kIn) {
      in_ports.push_back(pid);
    }
  }

  ClosureRowScratch reach;
  std::vector<std::uint32_t> stamp(port_count, 0);
  std::uint32_t epoch = 0;
  std::vector<PortId> frontier;
  std::vector<Port> hops;
  std::vector<PortId> hop_ids;
  EdgeDedupCache emitted(port_count);
  std::vector<std::pair<PortId, PortId>> edges;

  for (std::size_t dest = 0; dest < topo.destination_count(); ++dest) {
    ++epoch;
    frontier.clear();
    auto seed = [&](PortId pid) {
      if (stamp[pid] != epoch) {
        stamp[pid] = epoch;
        frontier.push_back(pid);
      }
    };

    // Escape entries: the escape hops of every adaptive-reachable in-port.
    const std::uint64_t* reach_row = adaptive.closure_row(dest, reach);
    for (const PortId p : in_ports) {
      if (((reach_row[p >> 6] >> (p & 63)) & 1u) == 0) {
        continue;
      }
      ++result.states_checked;
      hop_ids.clear();
      escape.next_hop_ids_into(p, dest, hop_ids, hops);
      for (const PortId hid : hop_ids) {
        seed(hid);
      }
      if (hop_ids.empty()) {
        ++result.missing_states;
        if (result.missing_escape.empty()) {
          result.missing_escape = topo.port_label(p) + " / " +
                                  topo.port_label(topo.destination_id(dest));
        }
      }
    }

    // Escape continuation: follow the escape function from every
    // escape-lane port until consumption.
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const PortId pid = frontier[head];
      if (topo.dir_of(pid) == Direction::kOut &&
          ((topo.terminal_name_mask() >> topo.name_of(pid)) & 1) != 0) {
        continue;  // consumed
      }
      hop_ids.clear();
      escape.next_hop_ids_into(pid, dest, hop_ids, hops);
      for (const PortId hid : hop_ids) {
        if (emitted.fresh(pid, hid)) {
          edges.emplace_back(pid, hid);
        }
        seed(hid);
      }
    }
  }

  for (const auto& [from, to] : edges) {
    result.escape_graph.graph.add_edge(from, to);
  }
  result.escape_graph.graph.finalize();
  result.escape_always_available = result.missing_states == 0;
  result.escape_graph_acyclic = is_acyclic(result.escape_graph.graph);
  result.deadlock_free =
      result.escape_always_available && result.escape_graph_acyclic;
  return result;
}

}  // namespace genoc
