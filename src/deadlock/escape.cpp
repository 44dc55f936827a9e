#include "deadlock/escape.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/thread_pool.hpp"

namespace genoc {

std::string EscapeAnalysis::summary() const {
  std::ostringstream os;
  os << (deadlock_free ? "deadlock-free with escape lane"
                       : "NOT proven deadlock-free")
     << ": escape available on " << states_checked << " states (";
  if (escape_always_available) {
    os << "all";
  } else {
    // Bounded on purpose: the first witness in canonical sweep order plus
    // the total count — never one entry per missing state (a broken escape
    // formula on a 64x64 torus misses tens of thousands of states).
    os << "missing at " << missing_escape;
    if (missing_states > 1) {
      os << " and " << (missing_states - 1) << " more";
    }
  }
  os << "), escape graph " << escape_graph.graph.vertex_count() << " ports / "
     << escape_graph.graph.edge_count() << " edges, "
     << (escape_graph_acyclic ? "acyclic" : "CYCLIC");
  return os.str();
}

namespace {

constexpr auto kOut = static_cast<std::size_t>(Direction::kOut);

/// Scratch + partial results of one shard of the destination-sharded escape
/// sweep. Every member is private to the shard's worker, so the sweep body
/// runs lock-free; the deterministic merge happens after the fan-in.
struct EscapeShard {
  EscapeShard(std::size_t port_count, std::size_t node_count)
      : masks(node_count, 0),
        node_stamp(node_count, 0),
        in_used(port_count, 0),
        link_used(port_count, 0) {}

  // The closure scratch makes reachability row-granular AND shard-local:
  // each shard materializes the rows of exactly the destinations it owns
  // (lazy, locality-aware priming — no eager whole-closure build up front).
  ClosureRowScratch reach;
  // Per node: the existing escape out-names toward the current destination.
  std::vector<std::uint64_t> masks;
  // Per node: epoch in which its escape out-ports were seeded.
  std::vector<std::uint32_t> node_stamp;
  std::uint32_t epoch = 0;
  // The current destination's cardinal escape out-ports, index-walked.
  std::vector<PortId> frontier;

  // The lane's edges, accumulated over the shard's destinations: per
  // in-port the out-names its escape hops take, per out-port whether its
  // link edge is in the lane. Repeats across destinations are free ORs.
  std::vector<std::uint64_t> in_used;
  std::vector<std::uint8_t> link_used;
  std::uint64_t states_checked = 0;
  std::uint64_t missing_states = 0;
  // The shard's FIRST missing-escape state in (destination, in-port) sweep
  // order; the global minimum over shards is exactly the sequential witness.
  std::size_t missing_dest = std::numeric_limits<std::size_t>::max();
  PortId missing_port = kInvalidPort;
  std::string missing_witness;
};

/// Explores every escape-lane state for destination \p dest_index:
/// availability of the escape entries from the adaptive-reachable in-ports,
/// then the lane's own closure and dependency edges. The escape function is
/// node-uniform, so one mask per node decides the escape hops of every
/// in-port of that node, and a node's out-ports join the lane at most once
/// per destination.
void sweep_escape_destination(const RoutingFunction& adaptive,
                              const RoutingFunction& escape,
                              const Topology& topo,
                              const std::vector<std::uint64_t>& in_port_words,
                              std::size_t dest_index, EscapeShard& shard) {
  ++shard.epoch;
  shard.frontier.clear();
  const std::uint32_t epoch = shard.epoch;
  const std::uint64_t terminal = topo.terminal_name_mask();
  escape.fill_node_masks(dest_index, shard.masks.data());
  for (std::size_t node = 0; node < shard.masks.size(); ++node) {
    // A hop onto a non-existent out-port is no hop.
    shard.masks[node] &= topo.out_exists_mask(node);
  }
  // A node joins the lane once per destination: its cardinal escape
  // out-ports enter the frontier; terminal ones deliver (consumed, no
  // edge).
  auto enter = [&shard, &topo, terminal, epoch](std::size_t node) {
    if (shard.node_stamp[node] == epoch) {
      return;
    }
    shard.node_stamp[node] = epoch;
    const PortId* slots = topo.node_slots(node);
    std::uint64_t cardinal = shard.masks[node] & ~terminal;
    while (cardinal != 0) {
      const auto name = static_cast<std::size_t>(std::countr_zero(cardinal));
      cardinal &= cardinal - 1;
      shard.frontier.push_back(slots[name * 2 + kOut]);
    }
  };

  // Escape entries: every adaptive-reachable in-port state. A packet
  // transfers into the escape lane at the out-port the escape function
  // picks from its current (adaptive-lane) in-port; that transfer is not a
  // dependency between escape resources — the escape-lane graph contains
  // only the dependencies among escape-lane ports themselves, which is
  // what Duato's condition constrains. The entry hops seed the closure.
  // The reachability row is built on first touch by this shard, for the
  // destinations this shard owns.
  const std::uint64_t* reach_row =
      adaptive.closure_row(dest_index, shard.reach);
  for (std::size_t w = 0; w < in_port_words.size(); ++w) {
    std::uint64_t states = reach_row[w] & in_port_words[w];
    shard.states_checked += static_cast<std::uint64_t>(std::popcount(states));
    while (states != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(states));
      states &= states - 1;
      const auto p = static_cast<PortId>(w * 64 + bit);
      const std::size_t node = topo.node_of(p);
      if (shard.masks[node] != 0) {
        enter(node);
        continue;
      }
      ++shard.missing_states;
      if (shard.missing_witness.empty()) {
        shard.missing_dest = dest_index;
        shard.missing_port = p;
        shard.missing_witness =
            topo.port_label(p) + " / " +
            topo.port_label(topo.destination_id(dest_index));
      }
    }
  }

  // Escape continuation: follow the (deterministic) escape function from
  // every escape-lane out-port until consumption. A cardinal out-port
  // forwards along its link (the node-uniformity contract); the in-port it
  // drives takes its node's escape out-ports.
  for (std::size_t head = 0; head < shard.frontier.size(); ++head) {
    const PortId out = shard.frontier[head];
    const PortId in = topo.link_target(out);
    const std::size_t node = topo.node_of(in);
    shard.link_used[out] = 1;
    shard.in_used[in] |= shard.masks[node];
    enter(node);
  }
}

}  // namespace

EscapeAnalysis analyze_escape(const RoutingFunction& adaptive,
                              const RoutingFunction& escape,
                              ThreadPool* pool) {
  obs::TraceSpan span("escape_analysis");
  GENOC_REQUIRE(&adaptive.topology() == &escape.topology(),
                "adaptive and escape functions must share a topology");
  GENOC_REQUIRE(escape.is_deterministic(),
                "the escape function must be deterministic");
  GENOC_REQUIRE(escape.node_uniform(),
                "the escape function must be node-uniform (xy or yx)");
  const Topology& topo = adaptive.topology();
  const std::size_t port_count = topo.port_count();
  const std::size_t node_count = topo.node_count();

  EscapeAnalysis result;
  result.escape_graph.topo = &topo;
  result.escape_graph.mesh = dynamic_cast<const Mesh2D*>(&topo);
  result.escape_graph.graph = Digraph(port_count);

  // The adaptive-lane in-ports (the escape entry states) as a row mask,
  // shared read-only by every shard.
  std::vector<std::uint64_t> in_port_words(adaptive.closure_row_words(), 0);
  for (PortId pid = 0; pid < port_count; ++pid) {
    if (topo.dir_of(pid) == Direction::kIn) {
      in_port_words[pid >> 6] |= std::uint64_t{1} << (pid & 63);
    }
  }
  const std::size_t dest_count = topo.destination_count();
  std::vector<EscapeShard> shards;
  if (pool == nullptr) {
    // Sequential: one shard sweeps every destination in order.
    obs::TraceSpan sweep_span("escape_sweep");
    shards.emplace_back(port_count, node_count);
    for (std::size_t dest = 0; dest < dest_count; ++dest) {
      sweep_escape_destination(adaptive, escape, topo, in_port_words, dest,
                               shards.front());
    }
  } else {
    const std::size_t grain = pool->recommended_grain(dest_count);
    const std::size_t shard_total =
        std::max<std::size_t>(1, (dest_count + grain - 1) / grain);
    shards.reserve(shard_total);
    for (std::size_t i = 0; i < shard_total; ++i) {
      shards.emplace_back(port_count, node_count);
    }
    pool->parallel_for(
        dest_count, grain, [&](std::size_t begin, std::size_t end) {
          obs::TraceSpan shard_span("escape_shard");
          if (shard_span.active()) {
            shard_span.set_detail("dests " + std::to_string(begin) + ".." +
                                  std::to_string(end));
          }
          EscapeShard& shard = shards[begin / grain];
          for (std::size_t dest = begin; dest < end; ++dest) {
            sweep_escape_destination(adaptive, escape, topo, in_port_words,
                                     dest, shard);
          }
        });
  }

  // Deterministic merge: counters are sums, the witness is the minimum in
  // (destination, in-port) order, and the edge flags are ORed into the
  // first shard and emitted in port order — already sorted, so finalize()
  // skips its sort. The result never depends on shard count or
  // interleaving.
  obs::TraceSpan merge_span("escape_merge");
  EscapeShard& merged = shards.front();
  const EscapeShard* first_missing = nullptr;
  for (const EscapeShard& shard : shards) {
    if (&shard != &merged) {
      for (PortId pid = 0; pid < port_count; ++pid) {
        merged.in_used[pid] |= shard.in_used[pid];
        merged.link_used[pid] |= shard.link_used[pid];
      }
    }
    result.states_checked += shard.states_checked;
    result.missing_states += shard.missing_states;
    if (shard.missing_states != 0 &&
        (first_missing == nullptr ||
         std::pair(shard.missing_dest, shard.missing_port) <
             std::pair(first_missing->missing_dest,
                       first_missing->missing_port))) {
      first_missing = &shard;
    }
  }
  result.escape_always_available = result.missing_states == 0;
  if (first_missing != nullptr) {
    result.missing_escape = first_missing->missing_witness;
  }

  Digraph& graph = result.escape_graph.graph;
  for (PortId pid = 0; pid < port_count; ++pid) {
    if (merged.link_used[pid] != 0) {
      graph.add_edge(pid, topo.link_target(pid));
    }
    // Out-port ids ascend with the name index within a node.
    const PortId* slots = topo.node_slots(topo.node_of(pid));
    std::uint64_t names = merged.in_used[pid];
    while (names != 0) {
      const auto name = static_cast<std::size_t>(std::countr_zero(names));
      names &= names - 1;
      graph.add_edge(pid, slots[name * 2 + kOut]);
    }
  }

  graph.finalize();
  result.escape_graph_acyclic = is_acyclic(graph);
  result.deadlock_free =
      result.escape_always_available && result.escape_graph_acyclic;
  {
    // Shard sums are deterministic at any thread count — safe to compare
    // across 1/4/8-thread snapshots.
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
    static obs::Counter& states =
        metrics.counter("escape.states_checked");
    states.add(result.states_checked);
    metrics.gauge("escape.max_states")
        .record_max(static_cast<std::int64_t>(result.states_checked));
  }
  return result;
}

}  // namespace genoc
