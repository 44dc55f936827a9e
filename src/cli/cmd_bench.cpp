/// \file cmd_bench.cpp
/// \brief `genoc bench` — timed micro-benchmarks over the library's hot
///        paths, with machine-readable `BENCH_<name>.json` output so the
///        perf trajectory accumulates across PRs.
///
/// Self-contained on purpose: the Google-Benchmark reproductions under
/// bench/ stay available as separate binaries, but this subcommand must run
/// (and emit JSON) on machines without libbenchmark.
#include <algorithm>
#include <atomic>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "cli/commands.hpp"
#include "cli/json_writer.hpp"
#include "core/obligations.hpp"
#include "deadlock/depgraph.hpp"
#include "deadlock/escape.hpp"
#include "graph/cycle.hpp"
#include "graph/tarjan.hpp"
#include "instance/batch_runner.hpp"
#include "instance/registry.hpp"
#include "obs/trace.hpp"
#include "routing/cmesh_dor.hpp"
#include "routing/odd_even.hpp"
#include "routing/torus_xy.hpp"
#include "routing/west_first.hpp"
#include "sim/simulator.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "verify/artifacts.hpp"
#include "workload/traffic.hpp"

namespace genoc::cli {

namespace {

constexpr const char* kUsage =
    "Usage: genoc bench [options]\n"
    "  --json          write one BENCH_<name>.json per benchmark\n"
    "  --out-dir DIR   directory for the JSON files (default: cwd)\n"
    "  --filter STR    only run benchmarks whose name contains STR\n"
    "  --min-ms N      minimum measured time per benchmark (default 100),\n"
    "                  split over 5 samples; ns/op is their median\n"
    "  --threads N     pool size for the *_parallel benchmarks and the\n"
    "                  verify and campaign runs\n"
    "                  (default 0 = hardware concurrency)\n"
    "  --trace F       record a Chrome trace-event span trace of the whole\n"
    "                  run to F (default genoc-bench.trace.json); load it\n"
    "                  in Perfetto or chrome://tracing\n";

/// Opaque sink defeating dead-code elimination of benchmark bodies.
std::atomic<std::uint64_t> g_sink{0};

void keep(std::uint64_t value) {
  g_sink.fetch_add(value, std::memory_order_relaxed);
}

struct MicroBench {
  std::string name;
  std::string what;
  std::function<void()> body;
};

/// Timed samples per benchmark: the reported ns/op is their median, so one
/// descheduled sample cannot move a gate.
constexpr std::size_t kSamples = 5;
static_assert(kSamples % 2 == 1, "the median must be one sample");

struct BenchResult {
  std::string name;
  std::string what;
  std::uint64_t iterations = 0;  ///< over all samples
  double total_ms = 0.0;         ///< over all samples
  std::vector<double> sample_ns_per_op;  ///< one entry per sample

  /// The median of the per-sample ns/op (kSamples is odd).
  double ns_per_op() const {
    std::vector<double> sorted = sample_ns_per_op;
    std::sort(sorted.begin(), sorted.end());
    return sorted.empty() ? 0.0 : sorted[sorted.size() / 2];
  }
  double ops_per_sec() const {
    const double ns = ns_per_op();
    return ns <= 0.0 ? 0.0 : 1e9 / ns;
  }
};

/// Runs \p bench as kSamples timed samples of one batch size, together at
/// least \p min_ms of measured wall time. The batch grows geometrically
/// until one run of it takes min_ms / kSamples (or the body is so slow that
/// calibration stops), so the timer overhead amortizes away; every sample
/// holds at least one iteration, however slow the body.
BenchResult run_bench(const MicroBench& bench, double min_ms) {
  bench.body();  // warm-up (first-touch allocations, caches)
  BenchResult result{bench.name, bench.what, 0, 0.0, {}};
  const double sample_ms = min_ms / static_cast<double>(kSamples);
  std::uint64_t batch = 1;
  Stopwatch total;
  while (result.sample_ns_per_op.size() < kSamples) {
    Stopwatch timer;
    for (std::uint64_t i = 0; i < batch; ++i) {
      bench.body();
    }
    const double elapsed_ms = timer.elapsed_ms();
    result.total_ms += elapsed_ms;
    result.iterations += batch;
    // Calibration runs (too short to be a sample) are measured but not
    // sampled; the safety valve ends calibration for pathologically slow
    // bodies.
    const bool calibrated = !result.sample_ns_per_op.empty() ||
                            elapsed_ms >= sample_ms ||
                            total.elapsed_ms() > 100.0 * min_ms;
    if (calibrated) {
      result.sample_ns_per_op.push_back(elapsed_ms * 1e6 /
                                        static_cast<double>(batch));
    } else {
      batch *= 2;
    }
  }
  return result;
}

std::vector<MicroBench> build_suite(std::size_t threads) {
  std::vector<MicroBench> suite;

  suite.push_back({"mesh_construct_16x16", "Mesh2D(16,16) construction", [] {
                     const Mesh2D mesh(16, 16);
                     keep(mesh.port_count());
                   }});

  {
    auto mesh = std::make_shared<Mesh2D>(8, 8);
    suite.push_back({"exy_dep_8x8", "closed-form Exy_dep on 8x8", [mesh] {
                       const PortDepGraph dep = build_exy_dep(*mesh);
                       keep(dep.graph.edge_count());
                     }});
    auto routing = std::make_shared<XYRouting>(*mesh);
    // The lambda must keep the mesh alive itself: --filter may erase the
    // sibling benchmark that also captures it.
    suite.push_back({"depgraph_generic_8x8", "generic build_dep_graph on 8x8",
                     [mesh, routing] {
                       const PortDepGraph dep = build_dep_graph(*routing);
                       keep(dep.graph.edge_count());
                     }});
    // XY on a full mesh publishes its in-port unions, so the fast builder
    // takes the analytic O(ports) build here. CI guards the >= 10x ratio
    // over the generic oracle above.
    suite.push_back({"depgraph_fast_8x8",
                     "build_dep_graph_fast on 8x8 XY (analytic union build)",
                     [mesh, routing] {
                       const PortDepGraph dep = build_dep_graph_fast(*routing);
                       keep(dep.graph.edge_count());
                     }});
  }

  {
    // The per-destination node sweep against the generic oracle: West-First
    // is node-uniform but adaptive, so it publishes no in-port unions and
    // the fast builder sweeps every destination. CI guards this ratio too.
    auto mesh = std::make_shared<Mesh2D>(8, 8);
    auto routing = std::make_shared<WestFirstRouting>(*mesh);
    suite.push_back({"depgraph_generic_westfirst_8x8",
                     "generic build_dep_graph on 8x8 West-First",
                     [mesh, routing] {
                       const PortDepGraph dep = build_dep_graph(*routing);
                       keep(dep.graph.edge_count());
                     }});
    suite.push_back({"depgraph_fast_westfirst_8x8",
                     "per-destination node sweep on 8x8 West-First",
                     [mesh, routing] {
                       const PortDepGraph dep = build_dep_graph_fast(*routing);
                       keep(dep.graph.edge_count());
                     }});
  }

  {
    // The same fast-vs-generic guard on the first non-grid family: an
    // 8x8 c=4 concentrated mesh (the cmesh8-dor preset's network, 960
    // ports, 256 destinations). The fast builder takes the id-native
    // sweep here — no Port-tuple BFS — so this pins the dialect the
    // grid benches above never touch.
    auto cmesh = std::make_shared<CMeshTopology>(8, 8, 4);
    auto routing = std::make_shared<CMeshDORRouting>(*cmesh);
    suite.push_back({"depgraph_generic_cmesh",
                     "generic build_dep_graph on the 8x8 c=4 cmesh",
                     [cmesh, routing] {
                       const PortDepGraph dep = build_dep_graph(*routing);
                       keep(dep.graph.edge_count());
                     }});
    suite.push_back({"depgraph_fast_cmesh",
                     "id-native build_dep_graph_fast on the 8x8 c=4 cmesh",
                     [cmesh, routing] {
                       const PortDepGraph dep = build_dep_graph_fast(*routing);
                       keep(dep.graph.edge_count());
                     }});
  }

  {
    // The ROADMAP's scaling axis. depgraph_generic_8x8 above is the PR-1
    // baseline (~1.2 ms/op); these trace the XY builder up to 64x64 through
    // both entry points (on a full mesh both take the analytic O(ports)
    // build, so the pool stays idle), plus the linear DFS that decides
    // (C-3) at that scale next to sequential Tarjan.
    auto pool = std::make_shared<BatchRunner>(threads);
    auto mesh16 = std::make_shared<Mesh2D>(16, 16);
    auto routing16 = std::make_shared<XYRouting>(*mesh16);
    suite.push_back({"depgraph_generic_16x16",
                     "generic build_dep_graph on 16x16, sequential",
                     [mesh16, routing16] {
                       const PortDepGraph dep = build_dep_graph(*routing16);
                       keep(dep.graph.edge_count());
                     }});
    suite.push_back({"depgraph_parallel_16x16",
                     "build_dep_graph_parallel on 16x16 XY (analytic)",
                     [mesh16, routing16, pool] {
                       const PortDepGraph dep =
                           build_dep_graph_parallel(*routing16, *pool);
                       keep(dep.graph.edge_count());
                     }});
    auto mesh32 = std::make_shared<Mesh2D>(32, 32);
    auto routing32 = std::make_shared<XYRouting>(*mesh32);
    suite.push_back({"depgraph_parallel_32x32",
                     "build_dep_graph_parallel on 32x32 XY (analytic)",
                     [mesh32, routing32, pool] {
                       const PortDepGraph dep =
                           build_dep_graph_parallel(*routing32, *pool);
                       keep(dep.graph.edge_count());
                     }});
    auto mesh64 = std::make_shared<Mesh2D>(64, 64);
    auto routing64 = std::make_shared<XYRouting>(*mesh64);
    suite.push_back({"depgraph_fast_64x64",
                     "build_dep_graph_fast on 64x64 XY (analytic)",
                     [mesh64, routing64] {
                       const PortDepGraph dep =
                           build_dep_graph_fast(*routing64);
                       keep(dep.graph.edge_count());
                     }});
    suite.push_back({"depgraph_parallel_64x64",
                     "build_dep_graph_parallel on 64x64 XY (analytic)",
                     [mesh64, routing64, pool] {
                       const PortDepGraph dep =
                           build_dep_graph_parallel(*routing64, *pool);
                       keep(dep.graph.edge_count());
                     }});
    // Built on first use (the warm-up call), not at suite construction:
    // `--filter` would otherwise make every bench invocation pay the
    // 64x64 build only to erase the SCC entries.
    auto dep64 = std::make_shared<std::optional<PortDepGraph>>();
    auto dep64_graph = [mesh64, routing64, dep64]() -> const Digraph& {
      if (!dep64->has_value()) {
        *dep64 = build_dep_graph_fast(*routing64);
      }
      return (*dep64)->graph;
    };
    suite.push_back({"tarjan_scc_64x64",
                     "sequential Tarjan on the 64x64 XY dep graph",
                     [dep64_graph] {
                       const SccResult scc = tarjan_scc(dep64_graph());
                       keep(scc.components.size());
                     }});
    suite.push_back({"find_cycle_64x64",
                     "the (C-3) decider: linear DFS on the 64x64 XY dep graph",
                     [dep64_graph] {
                       const auto cycle = find_cycle(dep64_graph());
                       keep(cycle.has_value() ? cycle->size() : 0);
                     }});
    suite.push_back({"registry_verify_all",
                     "genoc verify --all: every non-heavy registered instance",
                     [pool] {
                       const auto verdicts = verify_instances(
                           InstanceRegistry::global().sweep_presets(),
                           pool.get());
                       keep(verdicts.size());
                     }});
    // Batch-wide artifact reuse, steady state: the store persists across
    // iterations, so after the first pass every dependency graph, primed
    // closure, SCC verdict and escape analysis is a cache hit — the
    // re-verification cost of a trend sweep (`verify --all --baseline`)
    // over unchanged instances.
    auto store = std::make_shared<ArtifactStore>();
    suite.push_back({"registry_verify_all_cached",
                     "verify --all with a persistent batch artifact store "
                     "(steady-state re-verification)",
                     [pool, store] {
                       InstanceVerifyOptions options;
                       options.artifacts = store.get();
                       const auto verdicts = verify_instances(
                           InstanceRegistry::global().sweep_presets(),
                           pool.get(), options);
                       keep(verdicts.size());
                     }});

    // The node-level escape-lane walk on the 64x64 torus (3.4 x 10^7
    // adaptive-reachable states; about half its time builds the adaptive
    // function's closure rows), sequential vs destination-sharded. CI
    // guards the parallel/sequential escape ratio on multicore runners
    // and the sharded run's wall time at 4 threads
    // (tools/check_bench_guard.py --escape-speedup, --max-ns).
    auto torus64 = std::make_shared<Mesh2D>(64, 64, true, true);
    auto torus64_routing = std::make_shared<TorusXYRouting>(*torus64);
    auto torus64_escape = std::make_shared<XYRouting>(*torus64);
    // Torus-XY publishes exact in-port unions, so the pooled entry point
    // takes the analytic O(ports) build on the calling thread. CI pins its
    // wall time at 4 threads (--max-ns), so a silent fallback to the
    // per-destination sweep (~0.23 s) fails the guard.
    suite.push_back({"depgraph_parallel_torus64",
                     "build_dep_graph_parallel on the 64x64 torus, Torus-XY "
                     "(analytic)",
                     [torus64, torus64_routing, pool] {
                       const PortDepGraph dep =
                           build_dep_graph_parallel(*torus64_routing, *pool);
                       keep(dep.graph.edge_count());
                     }});
    suite.push_back({"escape_sequential_64x64",
                     "escape-lane analysis on the 64x64 torus, sequential",
                     [torus64, torus64_routing, torus64_escape] {
                       const EscapeAnalysis analysis = analyze_escape(
                           *torus64_routing, *torus64_escape);
                       keep(analysis.deadlock_free ? 1 : 0);
                     }});
    suite.push_back({"escape_parallel_64x64",
                     "escape-lane analysis on the 64x64 torus, "
                     "destination-sharded",
                     [torus64, torus64_routing, torus64_escape, pool] {
                       const EscapeAnalysis analysis = analyze_escape(
                           *torus64_routing, *torus64_escape, pool.get());
                       keep(analysis.deadlock_free ? 1 : 0);
                     }});
    // This PR's perf pass: the tiered reachability closure and the
    // analytic dependency-graph builder. closure_prime_* constructs a
    // fresh Odd-Even routing each iteration (port-mode, so the closure
    // lands in the compressed tier) and primes every per-destination row,
    // sharded over the pool — the eager-priming cost the lazy tier
    // amortizes away. depgraph_fast_256x256 is the O(ports) analytic
    // builder that makes the first 256x256 verify tractable.
    auto prime64 = std::make_shared<Mesh2D>(64, 64);
    suite.push_back({"closure_prime_64x64",
                     "compressed closure, full prime of Odd-Even on 64x64",
                     [prime64, pool] {
                       OddEvenRouting routing(*prime64);
                       routing.prime(*pool);
                       keep(routing.closure_rows_built());
                     }});
    auto prime128 = std::make_shared<Mesh2D>(128, 128);
    suite.push_back({"closure_prime_128x128",
                     "compressed closure, full prime of Odd-Even on 128x128",
                     [prime128, pool] {
                       OddEvenRouting routing(*prime128);
                       routing.prime(*pool);
                       keep(routing.closure_rows_built());
                     }});
    auto mesh256 = std::make_shared<Mesh2D>(256, 256);
    auto routing256 = std::make_shared<XYRouting>(*mesh256);
    suite.push_back({"depgraph_fast_256x256",
                     "analytic O(ports) build_dep_graph_fast on 256x256",
                     [mesh256, routing256] {
                       const PortDepGraph dep =
                           build_dep_graph_fast(*routing256);
                       keep(dep.graph.edge_count());
                     }});
    // End-to-end verify anchors for the CI gates: mesh128-xy must stay
    // under 2 s wall at 4 threads (--max-ns), mesh256-xy under the RSS
    // ceiling (--max-rss-kb) — the two headline numbers of this pass.
    const InstanceSpec spec128 = *InstanceRegistry::global().find("mesh128-xy");
    suite.push_back({"verify_mesh128_xy",
                     "full verify of the mesh128-xy preset",
                     [spec128, pool] {
                       const auto verdicts = verify_instances(
                           {spec128}, pool.get());
                       keep(verdicts.front().deadlock_free ? 1 : 0);
                     }});
    const InstanceSpec spec256 = *InstanceRegistry::global().find("mesh256-xy");
    suite.push_back({"verify_mesh256_xy",
                     "full verify of the mesh256-xy heavy preset",
                     [spec256, pool] {
                       const auto verdicts = verify_instances(
                           {spec256}, pool.get());
                       keep(verdicts.front().deadlock_free ? 1 : 0);
                     }});
  }

  {
    auto dep = std::make_shared<PortDepGraph>(build_exy_dep(Mesh2D(16, 16)));
    suite.push_back({"cycle_check_16x16", "is_acyclic on Exy_dep(16x16)",
                     [dep] { keep(is_acyclic(dep->graph) ? 1 : 0); }});
    suite.push_back({"tarjan_scc_16x16", "Tarjan SCC on Exy_dep(16x16)",
                     [dep] {
                       const SccResult scc = tarjan_scc(dep->graph);
                       keep(scc.components.size());
                     }});
  }

  {
    auto hermes = std::make_shared<HermesInstance>(3, 3, 2);
    suite.push_back(
        {"verify_obligations_3x3", "full obligation suite on 3x3", [hermes] {
           ObligationOptions options;
           options.workloads = 1;
           options.messages_per_workload = 12;
           const ObligationSuite suite_run =
               run_hermes_obligations(*hermes, options);
           keep(suite_run.all_satisfied() ? 1 : 0);
         }});
  }

  {
    // Fault-campaign perf: the delta builder derives each single-link
    // variant's dependency graph from the base mesh16 graph by filtering
    // out edges incident to the removed ports; CI guards its >= 5x
    // advantage over rebuilding every variant's graph from scratch with
    // the fast builder (same 16-variant sample, every 30th link).
    struct FaultVariant {
      std::shared_ptr<Mesh2D> mesh;
      std::shared_ptr<XYRouting> routing;
      std::vector<PortId> removed;
    };
    auto base_mesh = std::make_shared<Mesh2D>(16, 16);
    auto base_routing = std::make_shared<XYRouting>(*base_mesh);
    auto base_dep =
        std::make_shared<PortDepGraph>(build_dep_graph_fast(*base_routing));
    auto variants = std::make_shared<std::vector<FaultVariant>>();
    std::vector<LinkFault> links;
    for (std::int32_t node = 0; node < 16 * 16; ++node) {
      for (const PortName name : {PortName::kEast, PortName::kNorth}) {
        const LinkFault fault{node, name};
        if (link_fault_exists(fault, 16, 16, false, false)) {
          links.push_back(canonical_link_fault(fault, 16, 16, false, false));
        }
      }
    }
    for (std::size_t i = 0; i < links.size(); i += 30) {
      const LinkFault fault = links[i];
      const LinkFault peer = link_fault_peer(fault, 16, 16, false, false);
      FaultVariant variant;
      variant.mesh = std::make_shared<Mesh2D>(16, 16, false, false,
                                              std::vector<LinkFault>{fault});
      variant.routing = std::make_shared<XYRouting>(*variant.mesh);
      for (const LinkFault& end : {fault, peer}) {
        for (const Direction dir : {Direction::kIn, Direction::kOut}) {
          variant.removed.push_back(base_mesh->id(
              Port{end.node % 16, end.node / 16, end.name, dir}));
        }
      }
      std::sort(variant.removed.begin(), variant.removed.end());
      variants->push_back(std::move(variant));
    }
    suite.push_back({"campaign_delta_mesh16_single",
                     "delta dep-graph build of 16 single-link mesh16 variants",
                     [base_dep, variants] {
                       for (const FaultVariant& v : *variants) {
                         const PortDepGraph dep = build_dep_graph_delta(
                             *base_dep, *v.routing, v.removed);
                         keep(dep.graph.edge_count());
                       }
                     }});
    suite.push_back({"campaign_rebuild_mesh16_single",
                     "full build_dep_graph_fast of the same 16 variants",
                     [variants] {
                       for (const FaultVariant& v : *variants) {
                         const PortDepGraph dep =
                             build_dep_graph_fast(*v.routing);
                         keep(dep.graph.edge_count());
                       }
                     }});
    // End-to-end campaign anchor: all 480 single-link variants of
    // mesh16-xy — screen, verify, shared artifacts — in one op.
    const InstanceSpec spec16 = *InstanceRegistry::global().find("mesh16-xy");
    suite.push_back({"campaign_mesh16_single",
                     "end-to-end single-link fault campaign on mesh16-xy",
                     [spec16, threads] {
                       CampaignOptions options;
                       options.plan.kind = FaultPlan::Kind::kSingle;
                       options.threads = threads;
                       const CampaignReport report =
                           run_campaign(spec16, options);
                       keep(report.verified);
                     }});
  }

  {
    auto hermes = std::make_shared<HermesInstance>(8, 8, 2);
    Rng rng(2010);
    auto uniform = std::make_shared<std::vector<TrafficPair>>(
        uniform_random_traffic(hermes->mesh(), 128, rng));
    suite.push_back(
        {"sim_uniform_8x8", "GeNoC2D, 128 uniform messages on 8x8",
         [hermes, uniform] {
           const SimulationReport report = simulate(*hermes, *uniform);
           keep(report.run.steps);
         }});
    auto transpose = std::make_shared<std::vector<TrafficPair>>(
        transpose_traffic(hermes->mesh()));
    suite.push_back(
        {"sim_transpose_8x8", "GeNoC2D, transpose pattern on 8x8",
         [hermes, transpose] {
           const SimulationReport report = simulate(*hermes, *transpose);
           keep(report.run.steps);
         }});
  }

  return suite;
}

bool write_json(const BenchResult& result, const std::string& out_dir) {
  JsonObject obj;
  obj.add("benchmark", result.name)
      .add("suite", "genoc-bench")
      .add("what", result.what)
      .add("iterations", result.iterations)
      .add("total_ms", result.total_ms)
      .add("ns_per_op", result.ns_per_op())
      .add("samples", static_cast<std::uint64_t>(result.sample_ns_per_op.size()))
      .add("ops_per_sec", result.ops_per_sec())
      .add("max_rss_kb", peak_rss_kb())
      .add("unix_time", static_cast<std::int64_t>(std::time(nullptr)));
  std::string path = out_dir.empty() ? "" : out_dir + "/";
  path += "BENCH_" + result.name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "genoc bench: cannot write " << path << "\n";
    return false;
  }
  out << obj.to_string();
  std::cout << "  wrote " << path << "\n";
  return true;
}

}  // namespace

int cmd_bench(const Args& args) {
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const bool as_json = args.has("json");
  const std::string out_dir = args.get("out-dir", "");
  const std::string filter = args.get("filter", "");
  const double min_ms = args.get_double("min-ms", 100.0);
  const auto threads =
      static_cast<std::size_t>(args.get_int_in("threads", 0, 0, 256));
  const std::string trace_path =
      args.has("trace") ? (args.get("trace", "").empty()
                               ? std::string("genoc-bench.trace.json")
                               : args.get("trace", ""))
                        : std::string();
  if (const int rc = finish_args(args, kUsage)) {
    return rc;
  }
  if (min_ms <= 0.0 || min_ms > 60000.0) {
    std::cerr << "genoc bench: --min-ms must be in (0, 60000], got " << min_ms
              << "\n";
    return 2;
  }
  if (as_json) {
    if (!out_dir.empty()) {
      // Create the output directory up front: failing after minutes of
      // measurement would discard every result.
      std::error_code ec;
      std::filesystem::create_directories(out_dir, ec);
      if (ec) {
        std::cerr << "genoc bench: cannot create --out-dir '" << out_dir
                  << "': " << ec.message() << "\n";
        return 2;
      }
    }
    // create_directories succeeds on an existing read-only directory, so
    // probe actual writability before running anything: an unwritable
    // destination must exit 2 before the measurement, not after it.
    const std::string probe_path =
        (out_dir.empty() ? std::string(".") : out_dir) +
        "/BENCH_writability.probe";
    {
      std::ofstream probe(probe_path);
      if (!probe) {
        std::cerr << "genoc bench: --out-dir '"
                  << (out_dir.empty() ? "." : out_dir)
                  << "' is not writable\n";
        return 2;
      }
    }
    std::error_code ec;
    std::filesystem::remove(probe_path, ec);
  }

  // Open-before-run, like verify: an unwritable --trace path must exit 2
  // before the minutes of measurement, not after.
  std::optional<std::ofstream> trace_out;
  if (!trace_path.empty()) {
    trace_out.emplace(trace_path);
    if (!*trace_out) {
      std::cerr << "genoc bench: cannot write --trace file '" << trace_path
                << "' (check the directory exists and is writable)\n";
      return 2;
    }
    obs::TraceRecorder::global().start();
  }

  std::vector<MicroBench> suite = build_suite(threads);
  if (!filter.empty()) {
    std::erase_if(suite, [&filter](const MicroBench& bench) {
      return bench.name.find(filter) == std::string::npos;
    });
  }
  if (suite.empty()) {
    std::cerr << "genoc bench: no benchmark matches filter '" << filter
              << "'\n";
    return 2;
  }
  std::vector<BenchResult> results;
  std::cout << "genoc bench — " << suite.size() << " micro-benchmarks, >= "
            << min_ms << " ms each\n\n";
  for (const MicroBench& bench : suite) {
    std::cout << "  running " << bench.name << " ...\n";
    // Span names must be static strings; the benchmark name rides in the
    // detail payload instead.
    obs::TraceSpan span("bench");
    if (span.active()) {
      span.set_detail(bench.name);
    }
    results.push_back(run_bench(bench, min_ms));
  }

  if (trace_out.has_value()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::global();
    recorder.stop();
    recorder.write_json(*trace_out);
    trace_out->flush();
    if (!*trace_out) {
      std::cerr << "genoc bench: writing --trace file '" << trace_path
                << "' failed\n";
      return 2;
    }
    std::cerr << "genoc bench: wrote " << recorder.event_count()
              << " trace events to " << trace_path << "\n";
  }

  std::cout << "\n";
  Table table({"Benchmark", "Iterations", "median ns/op", "ops/s"});
  for (const BenchResult& result : results) {
    table.add_row({result.name, format_count(result.iterations),
                   format_double(result.ns_per_op(), 1),
                   format_double(result.ops_per_sec(), 1)});
  }
  std::cout << table.render() << "\n";

  if (as_json) {
    for (const BenchResult& result : results) {
      if (!write_json(result, out_dir)) {
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace genoc::cli
