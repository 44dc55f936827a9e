#!/usr/bin/env python3
"""Schema validation for `genoc verify ... --json` artifacts.

Validates the schema-versioned instance-mode report the VerifyPipeline
emits: the top-level envelope, every verdict row, the typed per-stage stats
and Diagnostic records, and the artifact-cache counters. CI runs this over
the `verify --all --json` artifact of every matrix job so an accidental
field rename or shape change fails the build instead of silently breaking
downstream tooling (the --baseline trend report reads these artifacts back).

Usage: tools/check_verify_schema.py report.json [--expect-baseline]
"""
import argparse
import json
import pathlib
import sys

SCHEMA_VERSION = 2

SEVERITIES = {"info", "warning", "error"}

TOP_LEVEL = {
    "command": str,
    "schema_version": int,
    "mode": str,
    "threads": int,
    "stages": list,
    "constraints": bool,
    "instances_total": int,
    "all_deadlock_free": bool,
    "analysis_prescreen": bool,
    "cache": dict,
    "metrics": dict,
    "instances": list,
}

INSTANCE_ROW = {
    "instance": str,
    "spec": str,
    "topology": str,
    "routing": str,
    "switching": str,
    "nodes": int,
    "ports": int,
    "dep_edges": int,
    "deterministic": bool,
    "dep_acyclic": bool,
    "method": str,
    "deadlock_free": bool,
    "constraints_ok": bool,
    "checks": int,
    "wall_ms": (int, float),
    "cpu_ms": (int, float),
    "max_rss_kb": int,
    "note": str,
    "stages": list,
    "diagnostics": list,
    "cache": dict,
}

STAGE_ROW = {
    "stage": str,
    "ran": bool,
    "passed": bool,
    "skip_reason": str,
    "checks": int,
    "wall_ms": (int, float),
    "cpu_ms": (int, float),
}

DIAGNOSTIC_ROW = {
    "stage": str,
    "severity": str,
    "code": str,
    "message": str,
    "witness": dict,
}

# The analyzer pre-screen row attached per instance when the cheap-rule
# subset ran before the verify (absent under --no-analyze). Same shape as
# an `analyze --json` instance row; the full validation lives in
# check_analyze_schema.py — here only the envelope the verify report
# embeds is checked.
ANALYSIS_ROW = {
    "instance": str,
    "spec": str,
    "clean": bool,
    "findings": int,
    "checks": int,
    "rules": list,
    "diagnostics": list,
}

CACHE_KINDS = ("contexts", "primed", "dep_graph", "acyclicity", "rank",
               "escape", "constraints")

BASELINE = {
    "file": str,
    "instances_compared": int,
    "verdict_regression": bool,
    "regressions": list,
    "improvements": list,
    "added": list,
    "removed": list,
    "wall_ms_before": (int, float),
    "wall_ms_now": (int, float),
    "wall_ms_delta": (int, float),
    "rows": list,
}

METRICS_SECTION = {
    "counters": dict,
    "gauges": dict,
    "histograms": dict,
}

HISTOGRAM_ENTRY = {
    "count": int,
    "sum": int,
    "max": int,
    "buckets": list,
}


def fail(context: str, message: str) -> None:
    sys.exit(f"check_verify_schema: {context}: {message}")


def check_fields(obj: dict, spec: dict, context: str) -> None:
    if not isinstance(obj, dict):
        fail(context, f"expected an object, got {type(obj).__name__}")
    for key, kind in spec.items():
        if key not in obj:
            fail(context, f"missing field '{key}'")
        value = obj[key]
        # bool is an int subclass in Python; keep the kinds strict.
        if kind is int and isinstance(value, bool):
            fail(context, f"field '{key}' is a bool, wanted an integer")
        if not isinstance(value, kind):
            fail(context, f"field '{key}' has type {type(value).__name__}")


def check_cache(cache: dict, context: str) -> None:
    for kind in CACHE_KINDS:
        if kind not in cache:
            fail(context, f"cache is missing the '{kind}' counter")
        counter = cache[kind]
        check_fields(counter, {"misses": int, "hits": int},
                     f"{context}.cache.{kind}")
    check_fields(cache["acyclicity"], {"inherited": int},
                 f"{context}.cache.acyclicity")


def check_metrics(metrics: dict, context: str) -> None:
    """The MetricsRegistry snapshot: counters/gauges are name -> integer
    maps, histograms are {count, sum, max, buckets: [{le, count}]}."""
    check_fields(metrics, METRICS_SECTION, context)
    for name, value in metrics["counters"].items():
        if isinstance(value, bool) or not isinstance(value, int):
            fail(f"{context}.counters", f"'{name}' is not an integer")
    for name, value in metrics["gauges"].items():
        if isinstance(value, bool) or not isinstance(value, int):
            fail(f"{context}.gauges", f"'{name}' is not an integer")
    for name, entry in metrics["histograms"].items():
        check_fields(entry, HISTOGRAM_ENTRY, f"{context}.histograms.{name}")
        for i, bucket in enumerate(entry["buckets"]):
            check_fields(bucket, {"le": int, "count": int},
                         f"{context}.histograms.{name}.buckets[{i}]")
    # The pipeline always runs under instance mode, so its counters must be
    # present — an empty metrics block means the registry got disconnected.
    if "verify.pipeline_runs" not in metrics["counters"]:
        fail(context, "counters are missing 'verify.pipeline_runs'")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("report", type=pathlib.Path)
    parser.add_argument("--expect-baseline", action="store_true",
                        help="additionally require the --baseline trend "
                             "section")
    args = parser.parse_args()

    try:
        doc = json.loads(args.report.read_text())
    except (OSError, json.JSONDecodeError) as error:
        fail(str(args.report), f"unreadable or invalid JSON: {error}")

    check_fields(doc, TOP_LEVEL, "top level")
    if doc["schema_version"] != SCHEMA_VERSION:
        fail("top level", f"schema_version {doc['schema_version']}, this "
                          f"validator speaks {SCHEMA_VERSION}")
    if doc["command"] != "verify":
        fail("top level", f"command '{doc['command']}', wanted 'verify'")
    if len(doc["instances"]) != doc["instances_total"]:
        fail("top level", "instances_total does not match the array length")
    check_cache(doc["cache"], "top level")
    check_metrics(doc["metrics"], "metrics")
    stage_names = set(doc["stages"])

    for i, row in enumerate(doc["instances"]):
        context = f"instances[{i}]"
        check_fields(row, INSTANCE_ROW, context)
        check_cache(row["cache"], context)
        if len(row["stages"]) != len(doc["stages"]):
            fail(context, "per-instance stage list does not match the "
                          "pipeline's stage selection")
        for j, stage in enumerate(row["stages"]):
            check_fields(stage, STAGE_ROW, f"{context}.stages[{j}]")
            if stage["stage"] not in stage_names:
                fail(f"{context}.stages[{j}]",
                     f"unknown stage '{stage['stage']}'")
        for j, diagnostic in enumerate(row["diagnostics"]):
            check_fields(diagnostic, DIAGNOSTIC_ROW,
                         f"{context}.diagnostics[{j}]")
            if diagnostic["severity"] not in SEVERITIES:
                fail(f"{context}.diagnostics[{j}]",
                     f"unknown severity '{diagnostic['severity']}'")
            for key, value in diagnostic["witness"].items():
                if not isinstance(value, str):
                    fail(f"{context}.diagnostics[{j}]",
                         f"witness '{key}' is not a string")
        # The analyzer pre-screen attaches per row iff the top-level flag
        # says it ran — a mismatch means the attach wiring regressed.
        if doc["analysis_prescreen"] != ("analysis" in row):
            fail(context, "analysis row presence contradicts the top-level "
                          "analysis_prescreen flag")
        if "analysis" in row:
            check_fields(row["analysis"], ANALYSIS_ROW, f"{context}.analysis")

    if args.expect_baseline:
        if "baseline" not in doc:
            fail("top level", "--expect-baseline: no 'baseline' section")
        check_fields(doc["baseline"], BASELINE, "baseline")
        if doc["baseline"]["verdict_regression"]:
            fail("baseline", "verdict regression flagged: "
                             f"{doc['baseline']['regressions']}")

    print(f"check_verify_schema: OK — schema_version {SCHEMA_VERSION}, "
          f"{doc['instances_total']} instances, "
          f"{len(doc['stages'])} stages"
          + (", baseline section present" if args.expect_baseline else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
