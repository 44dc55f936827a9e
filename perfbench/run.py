#!/usr/bin/env python3
"""Run one workload of the genoc benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a genoc checkout. The benchmark program is built from
the checkout's sources into .bench_build (or $CARGO_TARGET_DIR), then runs
the workload in its own process. Human-readable figures go to stderr; the last
line of stdout is the JSON result. The exit status is the program's: 0 when
every op produced the pinned outputs, non-zero otherwise.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
PROGRAM = os.path.join(BUILD, "genoc_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then (re)builds the program; build output to stderr."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "genoc_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_program(workload, seed, seconds, trace, tamper=False):
    """Runs the program; returns its exit code and parsed result line."""
    command = [PROGRAM, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if tamper:
        command.append("--tamper")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_names(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json declares,
    and layers.json must map every per-layer metric to end-to-end metrics
    and workloads that exist."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    if (set(layers) != {m["name"] for m in spec["per_layer"]}
            or any(not set(e["moves"]) <= end_to_end
                   or not set(e["on"]) <= workloads for e in layers.values())):
        raise SystemExit("perfbench: layers.json does not match BENCHMARK.json")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json: "
                         f"missing {missing}, extra {extra}, unit {wrong}")


def self_test():
    """A tampered expectation must fail the run; the real one must pass."""
    ok = True
    for workload in ("verify_torus64_escape", "campaign_mesh32_single"):
        for tamper in (True, False):
            code, result = run_program(workload, 1, 1, 0, tamper)
            caught = (code != 0 and result is not None
                      and result["correct"] is False
                      and result["failed"] == result["attempted"])
            passed = code == 0 and result is not None and result["correct"]
            good = caught if tamper else passed
            ok = ok and good
            print(f"self-test {workload} "
                  f"{'tampered' if tamper else 'pinned'} expectation: "
                  f"exit {code}, {'ok' if good else 'WRONG'}", file=sys.stderr)
    print("self-test " + ("passed" if ok else "FAILED"), file=sys.stderr)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        code, result = run_program(args.workload, args.seed, args.seconds,
                                  args.trace)
    except subprocess.TimeoutExpired:
        print("perfbench: the benchmark program timed out", file=sys.stderr)
        return 2
    if result is None:
        print("perfbench: the benchmark program printed no result",
              file=sys.stderr)
        return code or 2
    check_names(result, args.trace)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
