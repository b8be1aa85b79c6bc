#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The harness is built from source
into $CARGO_TARGET_DIR (default .bench_build) under perfbench/, then run
once; its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics, is printed as this script's last line.
The metric names and units are checked against BENCHMARK.json first.
Exits non-zero, printing no result, when the build or the run fails.

--self-test runs every workload at a tiny scale, traced and untraced,
checks that every declared metric is printed with its unit, and checks
that a deliberately corrupted member makes a run fail its oracle check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures and builds the harness; returns the binary path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(out, "perfbench")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_harness(binary, args):
    """Runs the harness; returns (exit code, parsed result or None)."""
    work_dir = os.path.join(build_dir(), "work")
    command = [binary, "--work-dir", work_dir] + args
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1, None
    lines = done.stdout.strip().splitlines()
    if not lines:
        return done.returncode or 1, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the harness printed no result line")
        return done.returncode or 1, None
    return done.returncode, result


def check_metrics(result, expected):
    """Problems with the metric set of `result` against `expected`."""
    problems = []
    metrics = result.get("metrics", {})
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {metrics[name].get('unit')}, "
                            f"declared {unit}")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys differ from correct/attempted/failed/metrics")
    return problems


def self_test(binary):
    end_to_end, per_layer = declared_metrics()
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    for workload in workloads:
        for trace in ("0", "1"):
            code, result = run_harness(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", trace, "--tiny"])
            expected = per_layer if trace == "1" else end_to_end
            problems = ["no result"] if result is None else check_metrics(result, expected)
            if code != 0 or problems or not result["correct"]:
                ok = False
                log(f"self-test FAIL {workload} trace={trace}: code {code} {problems}")
            else:
                for name, metric in result["metrics"].items():
                    print(f"{workload:11s} {name:32s} {metric['value']:16.6f} {metric['unit']}")
        code, result = run_harness(binary, [
            "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
            "--tiny", "--corrupt-member"])
        if code == 0 or result is None or result["correct"]:
            ok = False
            log(f"self-test FAIL {workload}: a corrupted member was not caught")
        else:
            log(f"self-test {workload}: the corrupted member was caught")
    log("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    try:
        end_to_end, per_layer = declared_metrics()
    except (OSError, ValueError, KeyError) as error:
        log(f"cannot read BENCHMARK.json: {error}")
        return 1
    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return self_test(binary)

    code, result = run_harness(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", f"{args.seconds:g}", "--trace", args.trace])
    if result is None:
        return code or 1
    problems = check_metrics(result, per_layer if args.trace == "1" else end_to_end)
    for problem in problems:
        log(problem)
    if problems:
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
