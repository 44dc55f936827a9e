#!/usr/bin/env python3
"""Perf regression guards over the BENCH_*.json artifacts.

Reads the artifacts `genoc bench --json` wrote into the given directory and
fails (exit 1) when a guarded ratio regresses. Every gate reads ns_per_op,
which `genoc bench` reports as the median of at least 5 timed samples; an
artifact with fewer samples (or without the field) fails, so a single
descheduled sample can neither pass nor trip a gate:

  1. Always: depgraph_fast_8x8 must finish within 10% of the
     depgraph_generic_8x8 oracle measured in the same run. XY on a full
     mesh takes the analytic in-port-union build, so this pins that build's
     >= 10x advantage.
  2. Always: depgraph_fast_westfirst_8x8 must finish within 15% of the
     depgraph_generic_westfirst_8x8 oracle — the per-destination node
     sweep (West-First publishes no in-port unions) keeps a >= 6.7x
     advantage and has not re-quadraticized. Measured 12.7-17.2x at 4
     threads (fast <= 0.08 * generic); the bound leaves about 2x for
     runner noise.
  3. Always: depgraph_fast_cmesh must finish within 25% of the
     depgraph_generic_cmesh oracle — the id-native sweep (the non-grid
     dialect the 8x8 mesh guard never exercises) keeps a >= 4x advantage
     on the 8x8 c=4 concentrated mesh. The measured ratio is ~7.7x; the
     looser bound reflects the smaller gap id-native closures leave over
     a 960-port/256-destination product.
  4. Always: campaign_delta_mesh16_single must finish within 20% of
     campaign_rebuild_mesh16_single — the fault-campaign delta builder
     (base-graph edge filtering) keeps a >= 5x advantage over rebuilding
     every variant's dependency graph from scratch. Measured ~35x; the
     loose bound absorbs runner noise on the small 16-variant sample.
  5. With --escape-speedup X (multicore CI only): escape_parallel_64x64
     must be at least X times faster than escape_sequential_64x64 from the
     same run — the destination-sharded escape sweep actually beats the
     sequential lane walk. Skipped by default because the ratio is
     meaningless on single-core runners, where the sharded sweep can only
     tie the sequential one.
  6. With --max-ns NAME=NS (repeatable): the named benchmark's ns_per_op
     must not exceed the absolute ceiling — e.g.
     --max-ns verify_mesh128_xy=95000000 pins the headline "mesh128
     verifies in under 95 ms at 4 threads" (about 3x the measured ~31 ms),
     --max-ns escape_parallel_64x64=600000000 keeps the node-level
     escape walk on the 64x64 torus under 0.6 s at 4 threads (about 3x
     the measured ~0.2 s; the per-port sweep it replaced took ~1.1 s),
     and --max-ns depgraph_parallel_torus64=3500000 keeps the 64x64
     Torus-XY dependency graph on the analytic build (about 3x the
     measured ~1.1 ms; the per-destination sweep took ~0.23 s).
  7. With --max-rss-kb NAME=KB (repeatable): the named benchmark's
     max_rss_kb (peak process RSS when its artifact was written) must not
     exceed the ceiling — the memory gate for the mesh256-xy verify.

Usage: tools/check_bench_guard.py [bench-results-dir] [--escape-speedup X]
           [--max-ns NAME=NS ...] [--max-rss-kb NAME=KB ...]
"""
import argparse
import json
import pathlib
import sys

FAST = "depgraph_fast_8x8"
GENERIC = "depgraph_generic_8x8"
# The fast builder must finish within this fraction of the generic oracle's
# time. The measured ratio is ~15x (fast <= 0.07 * generic); 0.10 leaves
# room for runner noise without letting a real regression through.
LIMIT_FRACTION = 0.10

FAST_SWEEP = "depgraph_fast_westfirst_8x8"
GENERIC_SWEEP = "depgraph_generic_westfirst_8x8"
# Measured 12.7-17.2x on 8x8 West-First (fast <= 0.08 * generic); 0.15
# leaves about 2x for runner noise.
SWEEP_LIMIT_FRACTION = 0.15

FAST_CMESH = "depgraph_fast_cmesh"
GENERIC_CMESH = "depgraph_generic_cmesh"
# Measured ~7.7x on the 8x8 c=4 cmesh (fast <= 0.13 * generic); 0.25
# keeps the guard meaningful without flaking on noisy runners.
CMESH_LIMIT_FRACTION = 0.25

DELTA_CAMPAIGN = "campaign_delta_mesh16_single"
REBUILD_CAMPAIGN = "campaign_rebuild_mesh16_single"
# Measured ~35x on the 16-variant single-link mesh16 sample (delta <=
# 0.03 * rebuild); 0.20 pins the >= 5x acceptance bound without flaking.
CAMPAIGN_LIMIT_FRACTION = 0.20

ESCAPE_PARALLEL = "escape_parallel_64x64"
ESCAPE_SEQUENTIAL = "escape_sequential_64x64"

# ns_per_op must be a median over at least this many timed samples.
MIN_SAMPLES = 5


def bench_field(directory: pathlib.Path, name: str, field: str) -> float:
    path = directory / f"BENCH_{name}.json"
    if not path.is_file():
        sys.exit(f"check_bench_guard: missing {path} — run "
                 f"`genoc bench --json` first")
    record = json.loads(path.read_text())
    if field not in record:
        sys.exit(f"check_bench_guard: {path} has no '{field}' field")
    return float(record[field])


def ns_per_op(directory: pathlib.Path, name: str) -> float:
    """The median ns/op of the named benchmark's timed samples."""
    samples = bench_field(directory, name, "samples")
    if samples < MIN_SAMPLES:
        sys.exit(f"check_bench_guard: BENCH_{name}.json holds {samples:.0f} "
                 f"samples; the gates need a median of >= {MIN_SAMPLES}")
    return bench_field(directory, name, "ns_per_op")


def parse_gate(spec: str, flag: str) -> tuple[str, float]:
    name, sep, value = spec.partition("=")
    if not sep or not name:
        sys.exit(f"check_bench_guard: {flag} expects NAME=VALUE, got "
                 f"'{spec}'")
    try:
        return name, float(value)
    except ValueError:
        sys.exit(f"check_bench_guard: {flag} value in '{spec}' is not a "
                 "number")


def check_absolute(directory: pathlib.Path, name: str, ceiling: float,
                   field: str, unit: str) -> bool:
    measured = (ns_per_op(directory, name) if field == "ns_per_op"
                else bench_field(directory, name, field))
    print(f"{name}: {measured:,.0f} {unit} (ceiling {ceiling:,.0f} {unit})")
    if measured > ceiling:
        print(f"FAIL: {name} exceeds the absolute {field} ceiling")
        return False
    print(f"OK: {name} holds under the {field} ceiling")
    return True


def check_ratio(directory: pathlib.Path, fast_name: str, generic_name: str,
                limit_fraction: float, fail_hint: str) -> bool:
    fast = ns_per_op(directory, fast_name)
    generic = ns_per_op(directory, generic_name)
    limit = limit_fraction * generic
    ratio = generic / fast if fast > 0 else float("inf")
    print(f"{fast_name}: {fast:,.0f} ns/op, {generic_name}: "
          f"{generic:,.0f} ns/op ({ratio:.1f}x, limit {limit:,.0f} ns/op)")
    if fast > limit:
        print(f"FAIL: {fast_name} exceeds {limit_fraction:.0%} of the "
              f"generic baseline — {fail_hint}")
        return False
    print(f"OK: fast builder holds its >= {1 / limit_fraction:.0f}x "
          "advantage")
    return True


def check_depgraph(directory: pathlib.Path) -> bool:
    return check_ratio(directory, FAST, GENERIC, LIMIT_FRACTION,
                       "the analytic union build lost its edge")


def check_sweep(directory: pathlib.Path) -> bool:
    return check_ratio(directory, FAST_SWEEP, GENERIC_SWEEP,
                       SWEEP_LIMIT_FRACTION,
                       "the per-destination node sweep re-quadraticized")


def check_cmesh(directory: pathlib.Path) -> bool:
    return check_ratio(directory, FAST_CMESH, GENERIC_CMESH,
                       CMESH_LIMIT_FRACTION,
                       "the id-native sweep lost its edge on the cmesh")


def check_campaign(directory: pathlib.Path) -> bool:
    return check_ratio(directory, DELTA_CAMPAIGN, REBUILD_CAMPAIGN,
                       CAMPAIGN_LIMIT_FRACTION,
                       "the fault-delta builder lost its edge over full "
                       "rebuilds")


def check_escape(directory: pathlib.Path, min_speedup: float) -> bool:
    parallel = ns_per_op(directory, ESCAPE_PARALLEL)
    sequential = ns_per_op(directory, ESCAPE_SEQUENTIAL)
    speedup = sequential / parallel if parallel > 0 else float("inf")
    print(f"{ESCAPE_PARALLEL}: {parallel:,.0f} ns/op, "
          f"{ESCAPE_SEQUENTIAL}: {sequential:,.0f} ns/op "
          f"({speedup:.2f}x, required >= {min_speedup:.2f}x)")
    if speedup < min_speedup:
        print(f"FAIL: the destination-sharded escape sweep is only "
              f"{speedup:.2f}x the sequential analysis — the parallel "
              "escape lane regressed")
        return False
    print("OK: sharded escape sweep beats the sequential analysis")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?", default="bench-results",
                        type=pathlib.Path)
    parser.add_argument("--escape-speedup", type=float, default=None,
                        metavar="X",
                        help="additionally require escape_parallel_64x64 to "
                             "be >= X times faster than the sequential "
                             "escape bench (use on multicore runners only)")
    parser.add_argument("--max-ns", action="append", default=[],
                        metavar="NAME=NS",
                        help="absolute ns_per_op ceiling for the named "
                             "benchmark (repeatable)")
    parser.add_argument("--max-rss-kb", action="append", default=[],
                        metavar="NAME=KB",
                        help="absolute max_rss_kb ceiling for the named "
                             "benchmark's artifact (repeatable)")
    parser.add_argument("--skip-ratios", action="store_true",
                        help="only evaluate the --max-ns/--max-rss-kb gates "
                             "(for filtered bench runs that did not produce "
                             "the ratio-guard artifacts)")
    args = parser.parse_args()

    ok = True
    if not args.skip_ratios:
        ok = check_depgraph(args.directory)
        ok = check_sweep(args.directory) and ok
        ok = check_cmesh(args.directory) and ok
        ok = check_campaign(args.directory) and ok
        if args.escape_speedup is not None:
            ok = check_escape(args.directory, args.escape_speedup) and ok
    for spec in args.max_ns:
        name, ceiling = parse_gate(spec, "--max-ns")
        ok = check_absolute(args.directory, name, ceiling, "ns_per_op",
                            "ns/op") and ok
    for spec in args.max_rss_kb:
        name, ceiling = parse_gate(spec, "--max-rss-kb")
        ok = check_absolute(args.directory, name, ceiling, "max_rss_kb",
                            "KiB") and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
