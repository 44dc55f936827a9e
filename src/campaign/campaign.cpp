#include "campaign/campaign.hpp"

#include <algorithm>
#include <map>

#include "analyze/analyzer.hpp"
#include "instance/batch_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/require.hpp"
#include "util/stopwatch.hpp"
#include "verify/pipeline.hpp"

namespace genoc {

namespace {

/// The screening subset: the rules that decide "is this variant worth a
/// verify" in O(ports) — spec-level sanity, fault-set sanity, and
/// connectivity under the failed links. The heavier cheap() rules
/// (dead_ports, turns, uniformity) re-derive per-variant facts the delta
/// machinery already guarantees, so the campaign skips them. A variant
/// that survives the screen is decided by monotonicity when its base rank
/// is checked; its delta graph is built only when a cyclic base leaves the
/// verdict to a DFS and the escape lane.
const Analyzer& screen_analyzer() {
  static const Analyzer analyzer = [] {
    std::string error;
    auto built = Analyzer::from_rule_names(
        {"spec_sanity", "fault_sanity", "connectivity"}, &error);
    GENOC_REQUIRE(built.has_value(), "campaign screen rules: " + error);
    return *built;
  }();
  return analyzer;
}

}  // namespace

CampaignReport run_campaign(const InstanceSpec& base,
                            const CampaignOptions& options) {
  obs::TraceSpan span("campaign");
  Stopwatch timer;
  const FaultModel model(base);  // validates grid / unfaulted / spec
  const std::vector<InstanceSpec> variants = model.variants(options.plan);

  CampaignReport report;
  report.instance = display_name(base);
  report.spec = to_spec_string(base);
  report.plan = to_string(options.plan);
  report.links = model.links().size();
  report.variants_total = variants.size();
  report.variants.resize(variants.size());

  BatchRunner pool(options.threads);
  report.threads = pool.thread_count();

  // One store for the whole campaign: the base context (topology, routing,
  // closure, dependency graph) is built exactly once, up front and sharded
  // over the pool. The first variant to verify certifies the base rank;
  // the rest read it as a cache hit and, when it is checked, inherit their
  // verdicts from it without building a graph of their own.
  ArtifactStore store;
  std::shared_ptr<AnalysisArtifacts> base_artifacts = store.acquire(base);
  {
    obs::TraceSpan base_span("campaign:base");
    base_artifacts->dep_graph(false, &pool);
  }

  const Analyzer& screen = screen_analyzer();
  const VerifyPipeline& pipeline = VerifyPipeline::standard();
  // Each chunk folds its variant contexts' counters into its own slot;
  // the slots are summed in chunk (hence variant) order below.
  const std::size_t grain = pool.recommended_grain(variants.size());
  std::vector<ArtifactCacheStats> chunk_cache((variants.size() + grain - 1) /
                                              grain);
  pool.parallel_for(
      variants.size(), grain, [&](std::size_t begin, std::size_t end) {
        ArtifactCacheStats& cache = chunk_cache[begin / grain];
        for (std::size_t i = begin; i < end; ++i) {
          obs::TraceSpan variant_span("campaign:variant");
          Stopwatch variant_timer;
          const InstanceSpec& vspec = variants[i];
          VariantOutcome& out = report.variants[i];
          out.faults = join_failed_links(vspec.failed_links);
          if (variant_span.active()) {
            variant_span.set_detail("failed=" + out.faults);
          }
          // Variant artifacts stay LOCAL (a campaign-wide store entry per
          // variant would hold thousands of dead contexts); only the base
          // is shared, through the explicit wiring.
          AnalysisArtifacts artifacts = [&] {
            obs::TraceSpan context_span("campaign:variant_context");
            return AnalysisArtifacts(vspec, base_artifacts);
          }();
          const AnalyzeReport screen_report =
              screen.run(vspec, artifacts, options.analyze);
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
            // Screened: the variant is structurally broken (shattered
            // network, malformed fault set) — the deadlock question is not
            // worth a verify. Warnings (route-disconnected) do NOT screen:
            // a minimal routing strands traffic at every fault, yet its
            // deadlock verdict on routed traffic stays well-posed.
            out.screened = true;
            cache += artifacts.stats();
            out.wall_ms = variant_timer.elapsed_ms();
            continue;
          }
          InstanceVerifyOptions verify_options;  // sequential: the shard
                                                 // parallelism is across
                                                 // variants, not within one
          const VerifyReport verified =
              pipeline.run(vspec, artifacts, verify_options);
          out.deadlock_free = verified.verdict.deadlock_free;
          out.method = verified.verdict.method;
          out.edges = verified.verdict.edges;
          out.checks += verified.verdict.checks;
          cache += artifacts.stats();
          out.wall_ms = variant_timer.elapsed_ms();
        }
      });

  // Sequential aggregation in variant order: counts, the screen-code
  // histogram, and the metric mirrors — all deterministic at any thread
  // count.
  std::map<std::string, std::uint64_t> code_counts;
  for (const VariantOutcome& out : report.variants) {
    if (out.screened) {
      ++report.screened;
      for (const std::string& code : out.screen_codes) {
        ++code_counts[code];
      }
    } else {
      ++report.verified;
      ++(out.deadlock_free ? report.deadlock_free : report.deadlocked);
    }
  }
  report.screen_code_counts.assign(code_counts.begin(), code_counts.end());
  // The base's ledger plus every variant context's own computes, so the
  // report counts each delta build and each inherited decision.
  report.cache = store.stats();
  for (const ArtifactCacheStats& stats : chunk_cache) {
    report.cache += stats;
  }
  report.wall_ms = timer.elapsed_ms();

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("campaign.variants").add(report.variants_total);
  metrics.counter("campaign.screened").add(report.screened);
  metrics.counter("campaign.verified").add(report.verified);
  metrics.counter("campaign.deadlocked").add(report.deadlocked);
  return report;
}

}  // namespace genoc
