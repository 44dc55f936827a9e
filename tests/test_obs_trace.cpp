// TraceRecorder tests: the zero-cost-when-disabled contract, the Chrome
// trace-event serialization (parsed back with the repo's own JsonValue —
// the same reader the --baseline machinery trusts), span nesting across a
// real multi-threaded verify, and bit-identical verdicts with tracing on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "cli/json_reader.hpp"
#include "instance/batch_runner.hpp"
#include "instance/registry.hpp"
#include "obs/trace.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace genoc {
namespace {

/// Clears the process-wide recorder on entry AND exit so traced tests never
/// leak an enabled recorder into a neighboring test.
struct RecorderGuard {
  RecorderGuard() { obs::TraceRecorder::global().clear(); }
  ~RecorderGuard() { obs::TraceRecorder::global().clear(); }
};

cli::JsonValue parse_trace() {
  const std::string text = obs::TraceRecorder::global().to_json();
  std::string error;
  const std::optional<cli::JsonValue> doc = cli::JsonValue::parse(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.value_or(cli::JsonValue{});
}

struct Span {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
};

/// The "X" spans per tid, in serialization order.
std::map<std::int64_t, std::vector<Span>> spans_by_tid(
    const cli::JsonValue& doc) {
  std::map<std::int64_t, std::vector<Span>> tracks;
  const cli::JsonValue* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  for (const cli::JsonValue& event : events->as_array()) {
    if (event.get_string("ph").value_or("") != "X") {
      continue;
    }
    Span span;
    span.name = event.get_string("name").value_or("");
    span.ts = event.get_number("ts").value_or(-1.0);
    span.dur = event.get_number("dur").value_or(-1.0);
    const auto tid =
        static_cast<std::int64_t>(event.get_number("tid").value_or(-1.0));
    tracks[tid].push_back(span);
  }
  return tracks;
}

TEST(ObsTrace, DisabledTracingRecordsNothing) {
  RecorderGuard guard;
  ASSERT_FALSE(obs::TraceRecorder::enabled());
  {
    obs::TraceSpan span("never_recorded");
    EXPECT_FALSE(span.active());
    obs::TraceSpan nested("also_never_recorded");
  }
  EXPECT_EQ(obs::TraceRecorder::global().event_count(), 0u);
  // The empty document is still well-formed.
  const cli::JsonValue doc = parse_trace();
  EXPECT_TRUE(spans_by_tid(doc).empty());
}

TEST(ObsTrace, NestedSpansSerializeContainedInTheirParent) {
  RecorderGuard guard;
  obs::TraceRecorder::global().start();
  {
    obs::TraceSpan outer("outer");
    EXPECT_TRUE(outer.active());
    {
      obs::TraceSpan inner("inner");
      inner.set_detail("payload");
    }
  }
  obs::TraceRecorder::global().stop();
  // Spans after stop() are dropped again.
  { obs::TraceSpan late("late"); }
  EXPECT_EQ(obs::TraceRecorder::global().event_count(), 2u);

  const cli::JsonValue doc = parse_trace();
  const auto tracks = spans_by_tid(doc);
  ASSERT_EQ(tracks.size(), 1u);
  const std::vector<Span>& track = tracks.begin()->second;
  ASSERT_EQ(track.size(), 2u);
  // Start-sorted with longer-duration-first ties: the parent leads.
  EXPECT_EQ(track[0].name, "outer");
  EXPECT_EQ(track[1].name, "inner");
  EXPECT_GE(track[1].ts, track[0].ts);
  EXPECT_LE(track[1].ts + track[1].dur, track[0].ts + track[0].dur + 1e-3);
}

TEST(ObsTrace, ParallelVerifyTraceNestsAndLeavesVerdictsBitIdentical) {
  const InstanceSpec* spec = InstanceRegistry::global().find("mesh16-xy");
  ASSERT_NE(spec, nullptr);
  const std::vector<InstanceSpec> specs = {*spec};

  const auto run_verify = [&specs] {
    InstanceVerifyOptions options;
    ArtifactStore store;
    options.artifacts = &store;
    BatchRunner runner(4);
    return verify_instance_reports(specs, VerifyPipeline::standard(), &runner,
                                   options);
  };

  RecorderGuard guard;
  const std::vector<VerifyReport> untraced = run_verify();
  obs::TraceRecorder::global().start();
  const std::vector<VerifyReport> traced = run_verify();
  obs::TraceRecorder::global().stop();

  // Tracing must not perturb the verdict: every non-timing field matches.
  ASSERT_EQ(traced.size(), untraced.size());
  const InstanceVerdict& a = traced[0].verdict;
  const InstanceVerdict& b = untraced[0].verdict;
  EXPECT_EQ(a.instance, b.instance);
  EXPECT_EQ(a.deadlock_free, b.deadlock_free);
  EXPECT_EQ(a.dep_acyclic, b.dep_acyclic);
  EXPECT_EQ(a.constraints_ok, b.constraints_ok);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.ports, b.ports);
  EXPECT_EQ(a.checks, b.checks);
  EXPECT_EQ(a.note, b.note);

  const cli::JsonValue doc = parse_trace();
  const auto tracks = spans_by_tid(doc);
  ASSERT_FALSE(tracks.empty());

  std::set<std::string> names;
  for (const auto& [tid, track] : tracks) {
    for (const Span& span : track) {
      names.insert(span.name);
    }
  }
  // The pipeline stages and the sharded builder both show up.
  for (const char* expected :
       {"verify_instance", "verify_pipeline", "build_depgraph",
        "scc_acyclicity", "pool_chunk"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span " << expected;
  }

  // Per-track stack discipline: start-sorted, and each span either nests in
  // the enclosing open span or starts after it ends (what makes Perfetto
  // render a flame stack). Small epsilon: boundaries are µs-rounded.
  for (const auto& [tid, track] : tracks) {
    std::vector<double> open_ends;
    double last_ts = -1.0;
    for (const Span& span : track) {
      EXPECT_GE(span.ts + 1e-3, last_ts) << "tid " << tid << " regresses";
      last_ts = span.ts;
      while (!open_ends.empty() && span.ts >= open_ends.back() - 1e-3) {
        open_ends.pop_back();
      }
      if (!open_ends.empty()) {
        EXPECT_LE(span.ts + span.dur, open_ends.back() + 1e-3)
            << "tid " << tid << " span " << span.name
            << " overlaps its parent without nesting";
      }
      open_ends.push_back(span.ts + span.dur);
    }
  }
}

TEST(ObsTrace, CampaignVariantContextSpanNestsUnderItsVariant) {
  std::string error;
  const std::optional<InstanceSpec> base =
      parse_instance_spec("topology=mesh size=4x4 routing=xy", &error);
  ASSERT_TRUE(base.has_value()) << error;
  CampaignOptions options;
  options.threads = 2;

  RecorderGuard guard;
  obs::TraceRecorder::global().start();
  const CampaignReport report = run_campaign(*base, options);
  obs::TraceRecorder::global().stop();

  // One context span per variant, each inside the campaign:variant span
  // that starts before it on the same thread.
  std::size_t contexts = 0;
  for (const auto& [tid, track] : spans_by_tid(parse_trace())) {
    const Span* variant = nullptr;
    for (const Span& span : track) {
      if (span.name == "campaign:variant") {
        variant = &span;
      } else if (span.name == "campaign:variant_context") {
        ++contexts;
        ASSERT_NE(variant, nullptr) << "context span outside any variant";
        EXPECT_GE(span.ts + 1e-3, variant->ts);
        EXPECT_LE(span.ts + span.dur, variant->ts + variant->dur + 1e-3);
      }
    }
  }
  EXPECT_EQ(contexts, report.variants_total);
}

}  // namespace
}  // namespace genoc
