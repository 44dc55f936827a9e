// JSON reader tests: the parser backing `verify --baseline` and the typed
// Diagnostic/StageStats round-trip through the exact serialization the
// driver ships (cli/verify_json.hpp) — writer -> parser -> struct equality.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cli/json_reader.hpp"
#include "cli/json_writer.hpp"
#include "cli/verify_json.hpp"
#include "instance/registry.hpp"
#include "verify/artifacts.hpp"
#include "verify/pipeline.hpp"

namespace genoc::cli {
namespace {

JsonValue parse_ok(const std::string& text) {
  std::string error;
  const std::optional<JsonValue> value = JsonValue::parse(text, &error);
  EXPECT_TRUE(value.has_value()) << text << " -> " << error;
  return value.value_or(JsonValue{});
}

void expect_parse_fails(const std::string& text, const std::string& what) {
  std::string error;
  const std::optional<JsonValue> value = JsonValue::parse(text, &error);
  EXPECT_FALSE(value.has_value()) << text;
  EXPECT_NE(error.find(what), std::string::npos)
      << text << " -> '" << error << "' (wanted '" << what << "')";
}

TEST(JsonReader, ParsesScalars) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_ok("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse_ok("-17.5").as_number(), -17.5);
  EXPECT_DOUBLE_EQ(parse_ok("6.25e3").as_number(), 6250.0);
  EXPECT_DOUBLE_EQ(parse_ok("0").as_number(), 0.0);
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_ok("  \"ws\"  ").as_string(), "ws");
}

TEST(JsonReader, ParsesContainersPreservingOrder) {
  const JsonValue doc = parse_ok(
      R"({"b": [1, 2, {"x": true}], "a": "second", "c": {}})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "b");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.members()[2].first, "c");
  const JsonValue* array = doc.find("b");
  ASSERT_NE(array, nullptr);
  ASSERT_EQ(array->as_array().size(), 3u);
  EXPECT_DOUBLE_EQ(array->as_array()[1].as_number(), 2.0);
  EXPECT_EQ(array->as_array()[2].get_bool("x"), true);
  EXPECT_EQ(doc.get_string("a"), "second");
  EXPECT_EQ(doc.get_string("missing"), std::nullopt);
  EXPECT_EQ(doc.get_number("a"), std::nullopt);  // kind mismatch
}

TEST(JsonReader, DecodesEscapes) {
  EXPECT_EQ(parse_ok(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(parse_ok(R"("\u0041\u00e9\u20ac")").as_string(),
            "A\xC3\xA9\xE2\x82\xAC");  // A, e-acute, euro sign
}

TEST(JsonReader, RejectsMalformedDocuments) {
  expect_parse_fails("", "unexpected end");
  expect_parse_fails("tru", "invalid literal");
  expect_parse_fails("01", "trailing garbage");
  expect_parse_fails("1.", "digit required after");
  expect_parse_fails("1e", "digit required in exponent");
  expect_parse_fails("\"unterminated", "unterminated string");
  expect_parse_fails("\"bad\\q\"", "invalid escape");
  expect_parse_fails("\"\\ud800\"", "surrogate");
  expect_parse_fails("[1, 2", "unterminated array");
  expect_parse_fails("[1 2]", "expected ',' or ']'");
  expect_parse_fails("{\"a\" 1}", "expected ':'");
  expect_parse_fails("{a: 1}", "quoted member name");
  expect_parse_fails("{} []", "trailing garbage");
  expect_parse_fails("\"ctrl\x01\"", "control character");
}

TEST(JsonReader, RoundTripsJsonNumberPrecision) {
  // The shortest-round-trip doubles json_number emits (the PR-4 contract)
  // must come back bit-equal through the parser.
  for (const double value : {0.0, 1.0, -1.0, 1e-3, 1234567.890625,
                             3.141592653589793, 2.3e9, 5e-324, 1.7e308}) {
    const std::string text = json_number(value);
    const JsonValue parsed = parse_ok(text);
    ASSERT_TRUE(parsed.is_number()) << text;
    EXPECT_EQ(parsed.as_number(), value) << text;
  }
}

TEST(JsonReader, ParsesTheWritersObjectOutput) {
  JsonObject obj;
  obj.add("name", "quote\" backslash\\ newline\n")
      .add("count", std::uint64_t{18446744073709551615ull})
      .add("ratio", 0.375)
      .add("flag", true);
  const JsonValue doc = parse_ok(obj.to_string());
  EXPECT_EQ(doc.get_string("name"), "quote\" backslash\\ newline\n");
  EXPECT_DOUBLE_EQ(*doc.get_number("count"), 1.8446744073709552e19);
  EXPECT_DOUBLE_EQ(*doc.get_number("ratio"), 0.375);
  EXPECT_EQ(doc.get_bool("flag"), true);
}

TEST(JsonReader, DiagnosticRoundTrip) {
  genoc::Diagnostic original;
  original.stage = "escape";
  original.severity = genoc::Severity::kError;
  original.code = "escape-refuted";
  original.message = "missing at <1,0,N,IN> / <5,2,L,OUT>; \"quoted\"\n";
  original.witness = {{"states_checked", "11264"},
                      {"first_missing", "<1,0,N,IN> / <5,2,L,OUT>"},
                      {"tricky", "back\\slash and \ttab"}};
  const std::string text = diagnostic_json(original);
  const JsonValue doc = parse_ok(text);
  std::string error;
  const std::optional<genoc::Diagnostic> round =
      diagnostic_from_json(doc, &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_EQ(*round, original);
}

TEST(JsonReader, DiagnosticFromJsonRejectsMalformedRecords) {
  std::string error;
  EXPECT_FALSE(
      diagnostic_from_json(parse_ok("[1, 2]"), &error).has_value());
  EXPECT_FALSE(diagnostic_from_json(
                   parse_ok(R"({"stage": "escape", "code": "x"})"), &error)
                   .has_value());
  EXPECT_FALSE(
      diagnostic_from_json(
          parse_ok(R"({"stage": "s", "severity": "fatal", "code": "c",)"
                   R"( "message": "m", "witness": {}})"),
          &error)
          .has_value());
  EXPECT_NE(error.find("severity"), std::string::npos);
}

TEST(JsonReader, StageStatsRoundTrip) {
  genoc::StageStats original;
  original.stage = "scc_acyclicity";
  original.ran = true;
  original.passed = false;
  original.skip_reason = "";
  original.checks = 123456789;
  original.wall_ms = 7654321.015625;
  original.cpu_ms = 1234567.890625;  // exercises the >= 1e6 precision fix
  const JsonValue doc = parse_ok(stage_stats_json(original));
  std::string error;
  const std::optional<genoc::StageStats> round =
      stage_stats_from_json(doc, &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_EQ(*round, original);
}

TEST(JsonReader, StageStatsV1RowWithoutWallMsFallsBackToCpuMs) {
  // Schema-v1 artifacts have no wall_ms field; cpu_ms held the wall-clock
  // figure back then, so the parser must map it over instead of rejecting.
  const JsonValue doc =
      parse_ok(R"({"stage": "escape", "ran": true, "passed": true,)"
               R"( "skip_reason": "", "checks": 42, "cpu_ms": 12.5})");
  std::string error;
  const std::optional<genoc::StageStats> stats =
      stage_stats_from_json(doc, &error);
  ASSERT_TRUE(stats.has_value()) << error;
  EXPECT_DOUBLE_EQ(stats->wall_ms, 12.5);
  EXPECT_DOUBLE_EQ(stats->cpu_ms, 12.5);
}

TEST(JsonReader, EveryPipelineDiagnosticRoundTripsThroughTheWireFormat) {
  // End to end: run the real pipeline on a cyclic escape instance (the
  // richest diagnostic mix), serialize the full report, parse it back and
  // rebuild every typed record.
  const genoc::InstanceSpec* spec =
      genoc::InstanceRegistry::global().find("torus8-xy");
  ASSERT_NE(spec, nullptr);
  genoc::AnalysisArtifacts context(*spec);
  const genoc::VerifyReport report = genoc::VerifyPipeline::standard().run(
      *spec, context, genoc::InstanceVerifyOptions{});
  const JsonValue doc = parse_ok(report_json(report));
  EXPECT_EQ(doc.get_string("instance"), report.verdict.instance);
  EXPECT_EQ(doc.get_bool("deadlock_free"), report.verdict.deadlock_free);
  EXPECT_EQ(doc.get_string("method"), report.verdict.method);
  EXPECT_EQ(doc.get_string("note"), report.verdict.note);

  const JsonValue* diagnostics = doc.find("diagnostics");
  ASSERT_NE(diagnostics, nullptr);
  ASSERT_EQ(diagnostics->as_array().size(), report.diagnostics.size());
  for (std::size_t i = 0; i < report.diagnostics.size(); ++i) {
    std::string error;
    const std::optional<genoc::Diagnostic> round =
        diagnostic_from_json(diagnostics->as_array()[i], &error);
    ASSERT_TRUE(round.has_value()) << error;
    EXPECT_EQ(*round, report.diagnostics[i]) << "diagnostic " << i;
  }
  const JsonValue* stages = doc.find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_EQ(stages->as_array().size(), report.stages.size());
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    std::string error;
    const std::optional<genoc::StageStats> round =
        stage_stats_from_json(stages->as_array()[i], &error);
    ASSERT_TRUE(round.has_value()) << error;
    EXPECT_EQ(*round, report.stages[i]) << "stage " << i;
  }
  const JsonValue* cache = doc.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("dep_graph")->get_number("misses"), 1.0);
}

}  // namespace
}  // namespace genoc::cli
