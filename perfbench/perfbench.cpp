/// \file perfbench.cpp
/// \brief The genoc benchmark program: runs one workload as a closed loop
///        (one client, the next op starts when the last one is done) and
///        prints one JSON result line on stdout.
///
///   genoc_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                    [--tamper]
///
/// An op is the full work of one `genoc verify --instance` or `genoc
/// campaign` command, driven through the public calls the CLI makes: parse
/// and resolve the spec, run the Analyzer::cheap() prescreen on
/// ArtifactStore::acquire, run verify_instance_reports (or run_campaign),
/// and render the JSON report. Every op's rendered report is parsed back
/// and checked against pinned verdicts; a mismatch or an exception counts
/// as a failed op and makes the program exit 1.
///
/// --trace 0 reports the end-to-end metrics. --trace 1 alternates an
/// instrumented op — the same work, split into timed calls to each
/// layer's public functions — with a plain one, and reports per-layer
/// medians, self times, the unattributed remainder and the tracing
/// overhead. --tamper corrupts one pinned expectation, to show that the
/// correctness gate catches it.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/analyzer.hpp"
#include "campaign/campaign.hpp"
#include "campaign/fault_model.hpp"
#include "cli/analyze_json.hpp"
#include "cli/campaign_json.hpp"
#include "cli/json_reader.hpp"
#include "cli/json_writer.hpp"
#include "cli/verify_json.hpp"
#include "instance/batch_runner.hpp"
#include "instance/network_instance.hpp"
#include "instance/registry.hpp"
#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace {

using namespace genoc;

/// Pool size of every op: the CLI default (hardware concurrency) on the
/// 4-core machine the benchmark was defined on, pinned so the work does
/// not change with the host.
constexpr std::size_t kThreads = 4;

/// The rules run_campaign screens each variant with (campaign.cpp).
const std::vector<std::string> kScreenRules = {"spec_sanity", "fault_sanity",
                                               "connectivity"};

struct Workload {
  const char* name;
  const char* instance;  ///< registry name or ad-hoc spec
  const char* faults;    ///< fault plan; empty for a single verify
  // Pinned outputs of a verify op.
  const char* method;
  std::size_t ports;
  std::size_t edges;
  // Pinned outputs of a campaign op.
  std::size_t variants;
  std::size_t screened;
  std::size_t free;
  std::size_t deadlocked;

  bool campaign() const { return faults[0] != '\0'; }
};

const Workload kWorkloads[] = {
    {"verify_mesh256", "mesh256-xy", "", "Theorem 1 (C-3)", 653312, 1369092,
     0, 0, 0, 0},
    {"verify_torus64_escape", "torus64-xy-escape", "", "escape(xy)", 40960,
     86016, 0, 0, 0, 0},
    {"campaign_mesh32_single", "topology=mesh size=32x32 routing=xy",
     "single", "", 0, 0, 1984, 0, 1984, 0},
    {"campaign_torus8_double",
     "topology=torus size=8x8 routing=torus_xy escape=xy", "double", "", 0, 0,
     8128, 0, 120, 8008},
};

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"op_s_p50", "s"},
    {"cpu_s_p50", "s"},         {"peak_rss_mb", "MB"},
    {"variants_per_s", "1/s"},  {"variant_ms_p50", "ms"},
    {"variant_ms_p90", "ms"},
};

const MetricDef kPerLayer[] = {
    {"instance.parse_ms", "ms"},
    {"topology.build_ms", "ms"},
    {"instance.construct_ms", "ms"},
    {"verify.context_ms", "ms"},
    {"analyze.prescreen_ms", "ms"},
    {"analyze.prescreen_checks", "count"},
    {"analyze.spec_sanity_ms", "ms"},
    {"analyze.dead_ports_ms", "ms"},
    {"analyze.turns_ms", "ms"},
    {"analyze.uniformity_ms", "ms"},
    {"deadlock.depgraph_ms", "ms"},
    {"deadlock.depgraph_cpu_ms", "ms"},
    {"deadlock.depgraph_edges", "count"},
    {"graph.acyclicity_ms", "ms"},
    {"graph.acyclicity_cpu_ms", "ms"},
    {"deadlock.escape_ms", "ms"},
    {"deadlock.escape_cpu_ms", "ms"},
    {"deadlock.escape_states", "count"},
    {"verify.pipeline_ms", "ms"},
    {"verify.cache_hits", "count"},
    {"verify.cache_misses", "count"},
    {"cli.report_ms", "ms"},
    {"campaign.enumerate_ms", "ms"},
    {"campaign.base_ms", "ms"},
    {"campaign.shard_ms", "ms"},
    {"campaign.variant_body_ms", "ms"},
    {"campaign.variants", "count"},
    {"verify.variant_context_ms", "ms"},
    {"instance.variant_construct_ms", "ms"},
    {"analyze.screen_ms", "ms"},
    {"deadlock.delta_ms", "ms"},
    {"graph.variant_acyclicity_ms", "ms"},
    {"deadlock.variant_escape_ms", "ms"},
    {"verify.variant_pipeline_ms", "ms"},
    {"campaign.screened", "count"},
    {"campaign.verified", "count"},
    {"campaign.deadlocked", "count"},
    {"deadlock.delta_builds", "count"},
    {"analyze.screen_yield", "ratio"},
    {"trace.unattributed_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

/// Spans of the traced op, each under its parent. Top-level spans have
/// parent "op" and are disjoint slices of the op's wall time. Probe spans
/// ("topology.build_ms" and the per-rule analyzers) are timed outside the
/// op as separate calls and stand for the work their parent repeats
/// inside it. The campaign's per-variant spans are thread time summed over
/// every variant, under their own root "campaign.variant_body_ms".
struct SpanDef {
  const char* name;
  const char* parent;
};

const std::vector<SpanDef> kVerifySpans = {
    {"instance.parse_ms", "op"},
    {"verify.context_ms", "op"},
    {"topology.build_ms", "verify.context_ms"},
    {"analyze.prescreen_ms", "op"},
    {"analyze.spec_sanity_ms", "analyze.prescreen_ms"},
    {"analyze.dead_ports_ms", "analyze.prescreen_ms"},
    {"analyze.turns_ms", "analyze.prescreen_ms"},
    {"analyze.uniformity_ms", "analyze.prescreen_ms"},
    {"instance.construct_ms", "op"},
    {"topology.build_ms", "instance.construct_ms"},
    {"deadlock.depgraph_ms", "op"},
    {"graph.acyclicity_ms", "op"},
    {"deadlock.escape_ms", "op"},
    {"verify.pipeline_ms", "op"},
    {"cli.report_ms", "op"},
};

const std::vector<SpanDef> kCampaignSpans = {
    {"instance.parse_ms", "op"},
    {"campaign.enumerate_ms", "op"},
    {"campaign.base_ms", "op"},
    {"campaign.shard_ms", "op"},
    {"cli.report_ms", "op"},
    {"campaign.variant_body_ms", ""},
    {"verify.variant_context_ms", "campaign.variant_body_ms"},
    {"analyze.screen_ms", "campaign.variant_body_ms"},
    {"instance.variant_construct_ms", "campaign.variant_body_ms"},
    {"deadlock.delta_ms", "campaign.variant_body_ms"},
    {"graph.variant_acyclicity_ms", "campaign.variant_body_ms"},
    {"deadlock.variant_escape_ms", "campaign.variant_body_ms"},
    {"verify.variant_pipeline_ms", "campaign.variant_body_ms"},
};

/// One traced op's layer values, keyed by per-layer metric name.
using Sample = std::map<std::string, double>;

/// What one op returns to the loop.
struct OpResult {
  bool ok = false;
  std::string error;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::vector<double> variant_ms;  ///< per-verdict wall times
  Sample layers;                   ///< traced ops only
};

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Times \p body in wall milliseconds.
template <class F>
double timed_ms(F&& body) {
  const Stopwatch timer;
  body();
  return timer.elapsed_ms();
}

InstanceSpec resolve(const char* text, std::uint64_t seed) {
  std::string error;
  std::optional<InstanceSpec> spec =
      InstanceRegistry::global().resolve(text, &error);
  if (!spec) {
    throw std::runtime_error("cannot resolve '" + std::string(text) +
                             "': " + error);
  }
  // The traffic seed is the only randomized input of a spec; verification
  // does not read it, so every seed measures the same verdicts.
  spec->seed = seed;
  return *spec;
}

FaultPlan fault_plan(const char* text) {
  std::string error;
  const std::optional<FaultPlan> plan = parse_fault_plan(text, &error);
  if (!plan) {
    throw std::runtime_error("bad fault plan '" + std::string(text) +
                             "': " + error);
  }
  return *plan;
}

std::uint64_t total_hits(const ArtifactCacheStats& s) {
  return s.contexts.hits + s.primed.hits + s.dep_graph.hits +
         s.acyclicity.hits + s.escape.hits + s.constraints.hits;
}

std::uint64_t total_misses(const ArtifactCacheStats& s) {
  return s.contexts.misses + s.primed.misses + s.dep_graph.misses +
         s.acyclicity.misses + s.escape.misses + s.constraints.misses;
}

// ---------------------------------------------------------------------------
// Rendering and the correctness gate
// ---------------------------------------------------------------------------

/// The `genoc verify --instance X --json` report of one instance.
std::string render_verify(const VerifyReport& report,
                          const AnalyzeReport& analysis,
                          const ArtifactStore& store) {
  std::vector<std::string> stages;
  for (const std::string& name : VerifyPipeline::standard().stage_names()) {
    stages.push_back("\"" + cli::json_escape(name) + "\"");
  }
  cli::JsonObject root;
  root.add("command", "verify")
      .add("schema_version", VerifyReport::kSchemaVersion)
      .add("mode", "instance")
      .add("threads", static_cast<std::uint64_t>(kThreads))
      .add_raw("stages", cli::json_array(stages))
      .add("instances_total", static_cast<std::uint64_t>(1))
      .add("analysis_prescreen", true)
      .add("all_deadlock_free", report.verdict.deadlock_free)
      .add("all_as_expected", report.verdict.as_expected())
      .add_raw("cache", cli::cache_stats_json(store.stats()))
      .add_raw("metrics", cli::metrics_json(
                              obs::MetricsRegistry::global().snapshot()))
      .add_raw("instances",
               cli::json_array({cli::report_json(
                   report, cli::analyze_report_json(analysis))}));
  return root.to_string();
}

cli::JsonValue parse_json(const std::string& text) {
  std::string error;
  std::optional<cli::JsonValue> doc = cli::JsonValue::parse(text, &error);
  if (!doc || !doc->is_object()) {
    throw std::runtime_error("rendered report is not a JSON object: " +
                             error);
  }
  return std::move(*doc);
}

void expect_eq(const std::string& what, double got, double want) {
  if (got != want) {
    throw std::runtime_error(what + " = " + cli::json_number(got) +
                             ", expected " + cli::json_number(want));
  }
}

void check_verify_json(const std::string& rendered, const Workload& w) {
  const cli::JsonValue doc = parse_json(rendered);
  const cli::JsonValue* rows = doc.find("instances");
  if (rows == nullptr || !rows->is_array() || rows->as_array().size() != 1) {
    throw std::runtime_error("verify report has no single instance row");
  }
  const cli::JsonValue& row = rows->as_array().front();
  if (row.get_bool("deadlock_free") != std::optional<bool>(true)) {
    throw std::runtime_error("verdict is not deadlock-free");
  }
  const std::string method = row.get_string("method").value_or("");
  if (method != w.method) {
    throw std::runtime_error("method '" + method + "', expected '" +
                             w.method + "'");
  }
  expect_eq("ports", row.get_number("ports").value_or(-1),
            static_cast<double>(w.ports));
  expect_eq("dep_edges", row.get_number("dep_edges").value_or(-1),
            static_cast<double>(w.edges));
}

void check_campaign_json(const std::string& rendered, const Workload& w) {
  const cli::JsonValue doc = parse_json(rendered);
  const auto field = [&doc](const char* key) {
    return doc.get_number(key).value_or(-1);
  };
  expect_eq("variants_total", field("variants_total"),
            static_cast<double>(w.variants));
  expect_eq("screened", field("screened"), static_cast<double>(w.screened));
  expect_eq("deadlock_free", field("deadlock_free"),
            static_cast<double>(w.free));
  expect_eq("deadlocked", field("deadlocked"),
            static_cast<double>(w.deadlocked));
  const cli::JsonValue* rows = doc.find("variants");
  expect_eq("variant rows",
            rows != nullptr && rows->is_array()
                ? static_cast<double>(rows->as_array().size())
                : -1.0,
            static_cast<double>(w.variants));
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// One set-up: the construction an op pays before any verify work.
double setup_once(const Workload& w, const InstanceSpec& spec) {
  if (!w.campaign()) {
    return timed_ms([&] {
      const NetworkInstance instance(spec);
      ArtifactStore store;
      store.acquire(spec);
    });
  }
  const FaultPlan plan = fault_plan(w.faults);
  BatchRunner pool(kThreads);
  return timed_ms([&] {
    const std::vector<InstanceSpec> variants = FaultModel(spec).variants(plan);
    ArtifactStore store;
    store.acquire(spec)->dep_graph(false, &pool);
  });
}

// ---------------------------------------------------------------------------
// Plain ops: the calls the CLI makes, untimed inside
// ---------------------------------------------------------------------------

void verify_op(const Workload& w, std::uint64_t seed, OpResult& /*out*/) {
  const InstanceSpec spec = resolve(w.instance, seed);
  ArtifactStore store;
  const AnalyzeReport analysis =
      Analyzer::cheap().run(spec, *store.acquire(spec));
  BatchRunner runner(kThreads);
  InstanceVerifyOptions options;
  options.artifacts = &store;
  const std::vector<VerifyReport> reports = verify_instance_reports(
      {spec}, VerifyPipeline::standard(), &runner, options);
  check_verify_json(render_verify(reports.front(), analysis, store), w);
}

void campaign_op(const Workload& w, std::uint64_t seed, OpResult& out) {
  const InstanceSpec base = resolve(w.instance, seed);
  CampaignOptions options;
  options.plan = fault_plan(w.faults);
  options.threads = kThreads;
  const CampaignReport report = run_campaign(base, options);
  check_campaign_json(cli::campaign_report_json(report, true), w);
  for (const VariantOutcome& variant : report.variants) {
    out.variant_ms.push_back(variant.wall_ms);
  }
}

// ---------------------------------------------------------------------------
// Traced ops: the same work, one timed call per layer
// ---------------------------------------------------------------------------

/// Wall and process-CPU milliseconds of \p body, stored under \p name and
/// \p cpu_name.
template <class F>
void timed_wall_cpu(Sample& s, const char* name, const char* cpu_name,
                    F&& body) {
  const CpuStopwatch cpu;
  s[name] = timed_ms(body);
  s[cpu_name] = cpu.elapsed_ms();
}

void traced_verify_op(const Workload& w, std::uint64_t seed, OpResult& out) {
  Sample& s = out.layers;
  const Stopwatch op_timer;
  InstanceSpec spec;
  s["instance.parse_ms"] = timed_ms([&] { spec = resolve(w.instance, seed); });
  ArtifactStore store;
  std::shared_ptr<AnalysisArtifacts> artifacts;
  s["verify.context_ms"] =
      timed_ms([&] { artifacts = store.acquire(spec); });
  AnalyzeReport analysis;
  s["analyze.prescreen_ms"] = timed_ms(
      [&] { analysis = Analyzer::cheap().run(spec, *artifacts); });
  s["analyze.prescreen_checks"] = static_cast<double>(analysis.checks);
  std::optional<NetworkInstance> instance;
  s["instance.construct_ms"] = timed_ms([&] { instance.emplace(spec); });
  BatchRunner runner(kThreads);
  timed_wall_cpu(s, "deadlock.depgraph_ms", "deadlock.depgraph_cpu_ms", [&] {
    s["deadlock.depgraph_edges"] = static_cast<double>(
        artifacts->dep_graph(false, &runner).graph.edge_count());
  });
  bool acyclic = false;
  timed_wall_cpu(s, "graph.acyclicity_ms", "graph.acyclicity_cpu_ms", [&] {
    acyclic = artifacts->acyclicity(false, &runner).acyclic;
  });
  if (!acyclic && artifacts->escape_routing() != nullptr) {
    timed_wall_cpu(s, "deadlock.escape_ms", "deadlock.escape_cpu_ms", [&] {
      s["deadlock.escape_states"] = static_cast<double>(
          artifacts->escape_analysis(&runner).states_checked);
    });
  }
  InstanceVerifyOptions options;
  options.artifacts = &store;
  options.runner = &runner;
  VerifyReport report;
  s["verify.pipeline_ms"] = timed_ms([&] {
    report = VerifyPipeline::standard().run(*instance, *artifacts, options);
  });
  std::string rendered;
  s["cli.report_ms"] = timed_ms(
      [&] { rendered = render_verify(report, analysis, store); });
  out.wall_ms = op_timer.elapsed_ms();
  const ArtifactCacheStats cache = store.stats();
  s["verify.cache_hits"] = static_cast<double>(total_hits(cache));
  s["verify.cache_misses"] = static_cast<double>(total_misses(cache));
  check_verify_json(rendered, w);

  // Probes, outside the op's wall time: one topology build (the op pays
  // it twice, in the instance and in the context) and each cheap rule as
  // its own analyzer over the same context.
  s["topology.build_ms"] = timed_ms([&] { make_topology(spec); });
  for (const std::string& rule : Analyzer::cheap_rule_names()) {
    std::string error;
    const std::optional<Analyzer> one =
        Analyzer::from_rule_names({rule}, &error);
    if (!one) {
      throw std::runtime_error("analyzer rule '" + rule + "': " + error);
    }
    s["analyze." + rule + "_ms"] =
        timed_ms([&] { one->run(spec, *artifacts); });
  }
}

/// Per-variant layer times of the traced campaign replay.
struct VariantTimes {
  double context = 0, screen = 0, construct = 0, delta = 0, acyclicity = 0,
         escape = 0, pipeline = 0, wall = 0;
  std::uint64_t escape_states = 0, hits = 0, misses = 0;
};

/// The body of run_campaign's variant loop, one timed call per layer.
void replay_variant(const InstanceSpec& vspec,
                    const std::shared_ptr<AnalysisArtifacts>& base,
                    const Analyzer& screen, VariantOutcome& out,
                    VariantTimes& t) {
  const Stopwatch variant_timer;
  out.faults = join_failed_links(vspec.failed_links);
  std::optional<AnalysisArtifacts> artifacts;
  t.context = timed_ms([&] { artifacts.emplace(vspec, base); });
  AnalyzeReport screen_report;
  t.screen = timed_ms([&] { screen_report = screen.run(vspec, *artifacts); });
  out.checks = screen_report.checks;
  for (const Diagnostic& diagnostic : screen_report.diagnostics) {
    if (diagnostic.severity == Severity::kError) {
      out.screen_codes.push_back(diagnostic.code);
    }
  }
  std::sort(out.screen_codes.begin(), out.screen_codes.end());
  out.screen_codes.erase(
      std::unique(out.screen_codes.begin(), out.screen_codes.end()),
      out.screen_codes.end());
  if (!out.screen_codes.empty()) {
    out.screened = true;
  } else {
    std::optional<NetworkInstance> instance;
    t.construct = timed_ms([&] { instance.emplace(vspec); });
    t.delta = timed_ms([&] { artifacts->dep_graph(false, nullptr); });
    bool acyclic = false;
    t.acyclicity = timed_ms(
        [&] { acyclic = artifacts->acyclicity(false, nullptr).acyclic; });
    if (!acyclic && artifacts->escape_routing() != nullptr) {
      t.escape = timed_ms([&] {
        t.escape_states = artifacts->escape_analysis(nullptr).states_checked;
      });
    }
    VerifyReport verified;
    t.pipeline = timed_ms([&] {
      verified = VerifyPipeline::standard().run(*instance, *artifacts,
                                                InstanceVerifyOptions{});
    });
    out.deadlock_free = verified.verdict.deadlock_free;
    out.method = verified.verdict.method;
    out.edges = verified.verdict.edges;
    out.checks += verified.verdict.checks;
  }
  const ArtifactCacheStats cache = artifacts->stats();
  t.hits = total_hits(cache);
  t.misses = total_misses(cache);
  out.wall_ms = variant_timer.elapsed_ms();
  t.wall = out.wall_ms;
}

void traced_campaign_op(const Workload& w, std::uint64_t seed,
                        OpResult& out) {
  Sample& s = out.layers;
  obs::Counter& delta_builds = obs::MetricsRegistry::global().counter(
      "artifacts.dep_graph.delta_builds");
  const std::uint64_t delta_builds_before = delta_builds.value();
  const Stopwatch op_timer;
  InstanceSpec base;
  FaultPlan plan;
  s["instance.parse_ms"] = timed_ms([&] {
    base = resolve(w.instance, seed);
    plan = fault_plan(w.faults);
  });
  std::optional<FaultModel> model;
  std::vector<InstanceSpec> variants;
  s["campaign.enumerate_ms"] = timed_ms([&] {
    model.emplace(base);
    variants = model->variants(plan);
  });
  BatchRunner pool(kThreads);
  ArtifactStore store;
  std::shared_ptr<AnalysisArtifacts> base_artifacts;
  s["campaign.base_ms"] = timed_ms([&] {
    base_artifacts = store.acquire(base);
    base_artifacts->dep_graph(false, &pool);
  });

  CampaignReport report;
  report.instance = base.name.empty() ? to_spec_string(base) : base.name;
  report.spec = to_spec_string(base);
  report.plan = to_string(plan);
  report.links = model->links().size();
  report.variants_total = variants.size();
  report.variants.resize(variants.size());
  report.threads = pool.thread_count();
  std::vector<VariantTimes> times(variants.size());
  std::string error;
  const std::optional<Analyzer> screen =
      Analyzer::from_rule_names(kScreenRules, &error);
  if (!screen) {
    throw std::runtime_error("campaign screen rules: " + error);
  }
  s["campaign.shard_ms"] = timed_ms([&] {
    pool.parallel_for(variants.size(),
                      pool.recommended_grain(variants.size()),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          replay_variant(variants[i], base_artifacts, *screen,
                                         report.variants[i], times[i]);
                        }
                      });
  });

  std::map<std::string, std::uint64_t> code_counts;
  for (const VariantOutcome& variant : report.variants) {
    if (variant.screened) {
      ++report.screened;
      for (const std::string& code : variant.screen_codes) {
        ++code_counts[code];
      }
    } else {
      ++report.verified;
      ++(variant.deadlock_free ? report.deadlock_free : report.deadlocked);
    }
  }
  report.screen_code_counts.assign(code_counts.begin(), code_counts.end());
  report.cache = store.stats();
  report.wall_ms = op_timer.elapsed_ms();
  std::string rendered;
  s["cli.report_ms"] =
      timed_ms([&] { rendered = cli::campaign_report_json(report, true); });
  out.wall_ms = op_timer.elapsed_ms();
  check_campaign_json(rendered, w);

  VariantTimes sum;
  for (const VariantTimes& t : times) {
    sum.context += t.context;
    sum.screen += t.screen;
    sum.construct += t.construct;
    sum.delta += t.delta;
    sum.acyclicity += t.acyclicity;
    sum.escape += t.escape;
    sum.pipeline += t.pipeline;
    sum.wall += t.wall;
    sum.escape_states += t.escape_states;
    sum.hits += t.hits;
    sum.misses += t.misses;
    out.variant_ms.push_back(t.wall);
  }
  s["campaign.variant_body_ms"] = sum.wall;
  s["verify.variant_context_ms"] = sum.context;
  s["analyze.screen_ms"] = sum.screen;
  s["instance.variant_construct_ms"] = sum.construct;
  s["deadlock.delta_ms"] = sum.delta;
  s["graph.variant_acyclicity_ms"] = sum.acyclicity;
  s["deadlock.variant_escape_ms"] = sum.escape;
  s["verify.variant_pipeline_ms"] = sum.pipeline;
  s["deadlock.escape_states"] = static_cast<double>(sum.escape_states);
  s["verify.cache_hits"] =
      static_cast<double>(total_hits(report.cache) + sum.hits);
  s["verify.cache_misses"] =
      static_cast<double>(total_misses(report.cache) + sum.misses);
  s["campaign.variants"] = static_cast<double>(report.variants_total);
  s["campaign.screened"] = static_cast<double>(report.screened);
  s["campaign.verified"] = static_cast<double>(report.verified);
  s["campaign.deadlocked"] = static_cast<double>(report.deadlocked);
  s["deadlock.delta_builds"] =
      static_cast<double>(delta_builds.value() - delta_builds_before);
  s["analyze.screen_yield"] = static_cast<double>(report.screened) /
                              static_cast<double>(report.variants_total);
}

// ---------------------------------------------------------------------------
// Self time and coverage
// ---------------------------------------------------------------------------

double sum_children(const std::vector<SpanDef>& spans, const Sample& s,
                    const std::string& parent) {
  double total = 0.0;
  for (const SpanDef& span : spans) {
    if (parent == span.parent) {
      total += s.at(span.name);
    }
  }
  return total;
}

/// Adds trace.unattributed_ms and trace.coverage to a traced op's sample.
void attribute(const std::vector<SpanDef>& spans, double wall_ms, Sample& s) {
  const double covered = sum_children(spans, s, "op");
  s["trace.unattributed_ms"] = wall_ms - covered;
  s["trace.coverage"] = covered / wall_ms;
}

/// Prints each span's median total and self time, and flags coverage
/// below the 90% target (a report, not a gate).
void print_spans(const std::vector<SpanDef>& spans,
                 const std::vector<Sample>& samples, double op_wall_ms) {
  const auto med = [&samples](const std::function<double(const Sample&)>& f) {
    std::vector<double> values;
    for (const Sample& s : samples) {
      values.push_back(f(s));
    }
    return median(values);
  };
  std::fprintf(stderr, "  %-34s %12s %12s %8s\n", "span (median per op)",
               "total ms", "self ms", "of op");
  std::fprintf(stderr, "  %-34s %12.3f\n", "op (wall)", op_wall_ms);
  const std::function<void(const std::string&, int)> print_level =
      [&](const std::string& parent, int depth) {
        for (const SpanDef& span : spans) {
          if (parent != span.parent) {
            continue;
          }
          const std::string name = span.name;
          const double total = med([&](const Sample& s) { return s.at(name); });
          const double self = med([&](const Sample& s) {
            return s.at(name) - sum_children(spans, s, name);
          });
          const std::string label =
              std::string(static_cast<std::size_t>(2 * depth), ' ') + name;
          if (depth == 0) {
            std::fprintf(stderr, "  %-34s %12.3f %12.3f %7.1f%%\n",
                         label.c_str(), total, self,
                         100.0 * total / op_wall_ms);
          } else {
            std::fprintf(stderr, "  %-34s %12.3f %12.3f\n", label.c_str(),
                         total, self);
          }
          print_level(name, depth + 1);
        }
      };
  print_level("op", 0);
  const double unattributed =
      med([](const Sample& s) { return s.at("trace.unattributed_ms"); });
  const double coverage =
      med([](const Sample& s) { return s.at("trace.coverage"); });
  std::fprintf(stderr, "  %-34s %12.3f %12s %7.1f%%\n", "unattributed",
               unattributed, "", 100.0 * unattributed / op_wall_ms);
  std::fprintf(stderr, "  coverage %.1f%% of op wall time%s\n",
               100.0 * coverage,
               coverage < 0.9 ? "  ** below the 90% target **" : "");
  for (const SpanDef& root : spans) {
    if (std::string(root.parent).empty()) {
      const std::string name = root.name;
      const double total = med([&](const Sample& s) { return s.at(name); });
      const double inner = med([&](const Sample& s) {
        return sum_children(spans, s, name) / s.at(name);
      });
      std::fprintf(stderr,
                   "  %s (thread time summed over variants): %.3f ms\n",
                   name.c_str(), total);
      print_level(name, 1);
      std::fprintf(stderr, "  child spans cover %.1f%% of it%s\n",
                   100.0 * inner,
                   inner < 0.9 ? "  ** below the 90% target **" : "");
    }
  }
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tamper = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper") {
      args.tamper = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << flag << " needs a value\n";
      return std::nullopt;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          args.workload = &w;
        }
      }
      if (args.workload == nullptr) {
        std::cerr << "perfbench: unknown workload '" << value << "'\n";
        return std::nullopt;
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      args.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      std::cerr << "perfbench: unknown flag '" << flag << "'\n";
      return std::nullopt;
    }
  }
  if (args.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    std::cerr << "usage: genoc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--tamper]\n";
    return std::nullopt;
  }
  return args;
}

using Metrics = std::vector<std::pair<const MetricDef*, double>>;

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + std::string(metrics[i].first->name) +
            "\": {\"value\": " + cli::json_number(metrics[i].second) +
            ", \"unit\": \"" + metrics[i].first->unit + "\"}";
  }
  std::cout << line << "}}\n";
}

int run(const Args& args) {
  Workload w = *args.workload;
  if (args.tamper) {
    ++(w.campaign() ? w.deadlocked : w.edges);
  }
  const auto op = [&](bool traced) {
    OpResult out;
    const CpuStopwatch cpu;
    const Stopwatch wall;
    try {
      if (w.campaign()) {
        (traced ? traced_campaign_op : campaign_op)(w, args.seed, out);
      } else {
        (traced ? traced_verify_op : verify_op)(w, args.seed, out);
      }
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    if (!traced) {
      out.wall_ms = wall.elapsed_ms();
      out.cpu_ms = cpu.elapsed_ms();
      if (!w.campaign()) {
        out.variant_ms.push_back(out.wall_ms);
      }
    }
    return out;
  };

  // Set-ups run in bursts of at least 50 ms before each plain op, so that
  // setup_s, their median, sees the same slow and fast stretches of the
  // host as the ops do.
  const InstanceSpec spec = resolve(w.instance, args.seed);
  std::vector<double> setups;
  const auto setup_burst = [&] {
    const Stopwatch burst;
    do {
      setups.push_back(setup_once(w, spec) / 1000.0);
    } while (burst.elapsed_ms() < 50.0);
  };

  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto account = [&](const OpResult& result) {
    ++attempted;
    if (!result.ok) {
      ++failed;
      std::cerr << "perfbench: op " << attempted << " FAILED: "
                << result.error << "\n";
    }
  };
  setup_burst();
  account(op(false));  // warm-up: lazy statics, pool threads, page faults
  setups.clear();

  std::vector<OpResult> plain;
  std::vector<OpResult> traced;
  const Stopwatch run_timer;
  while (run_timer.elapsed_s() < args.seconds || plain.empty() ||
         (args.trace && traced.empty())) {
    const bool trace_this = args.trace && traced.size() <= plain.size();
    if (!args.trace) {
      setup_burst();
    }
    OpResult result = op(trace_this);
    account(result);
    (trace_this ? traced : plain).push_back(std::move(result));
  }

  const auto walls = [](const std::vector<OpResult>& ops) {
    std::vector<double> values;
    for (const OpResult& result : ops) {
      values.push_back(result.wall_ms);
    }
    return values;
  };
  const bool correct = failed == 0;
  Metrics metrics;
  std::fprintf(stderr, "%s (seed %llu, %zu threads): %zu ops, %zu failed, "
               "error_rate %g\n",
               w.name, static_cast<unsigned long long>(args.seed), kThreads,
               attempted, failed,
               static_cast<double>(failed) / static_cast<double>(attempted));
  if (!args.trace) {
    // Variant percentiles are taken within each op, over its verdicts, and
    // reported as the median over ops: a slow stretch of the host then
    // moves a few ops, not the whole tail. A verify op has one verdict.
    // The tail is p90, not p99: on a shared 4-core host p99 swung by up to
    // 22% between runs of the same code, p50 by at most 11%.
    std::vector<double> cpus;
    std::vector<double> p50s;
    std::vector<double> p90s;
    for (const OpResult& result : plain) {
      cpus.push_back(result.cpu_ms);
      p50s.push_back(percentile(result.variant_ms, 0.5));
      p90s.push_back(percentile(result.variant_ms, 0.9));
    }
    const std::size_t verdicts = plain.front().variant_ms.size();
    const double op_s = median(walls(plain)) / 1000.0;
    const double values[] = {
        median(setups),
        op_s,
        median(cpus) / 1000.0,
        static_cast<double>(peak_rss_kb()) / 1024.0,
        static_cast<double>(verdicts) / op_s,
        median(p50s),
        median(p90s),
    };
    std::fprintf(stderr, "  %zu timed ops of %zu verdicts, %zu set-ups\n",
                 plain.size(), verdicts, setups.size());
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(&kEndToEnd[i], values[i]);
      std::fprintf(stderr, "  %-16s %14.6f %s\n", kEndToEnd[i].name,
                   values[i], kEndToEnd[i].unit);
    }
  } else {
    const std::vector<SpanDef>& spans =
        w.campaign() ? kCampaignSpans : kVerifySpans;
    std::vector<Sample> samples;
    for (OpResult& result : traced) {
      Sample s;
      for (const MetricDef& def : kPerLayer) {
        s[def.name] = 0.0;
      }
      for (const auto& [name, value] : result.layers) {
        s[name] = value;
      }
      attribute(spans, result.wall_ms, s);
      samples.push_back(std::move(s));
    }
    const double traced_wall = median(walls(traced));
    const double plain_wall = median(walls(plain));
    std::fprintf(stderr,
                 "  %zu traced ops (median %.3f ms), %zu plain ops (median "
                 "%.3f ms): tracing overhead ratio %.4f\n",
                 traced.size(), traced_wall, plain.size(), plain_wall,
                 traced_wall / plain_wall);
    print_spans(spans, samples, traced_wall);
    for (const MetricDef& def : kPerLayer) {
      std::vector<double> values;
      for (const Sample& s : samples) {
        values.push_back(s.at(def.name));
      }
      const double value = std::string(def.name) == "trace.overhead_ratio"
                               ? traced_wall / plain_wall
                               : median(values);
      metrics.emplace_back(&def, value);
    }
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
