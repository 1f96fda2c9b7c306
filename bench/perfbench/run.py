#!/usr/bin/env python3
"""reconfnet performance benchmark driver (see README.md next to this file).

Builds the benchmark package in this directory with optimisation on, runs one
workload in its own single-threaded process, checks the outputs, and prints
one JSON result as the last line of standard output:

    python3 bench/perfbench/run.py --workload churn --seed 1 --seconds 20 \
        --trace 0

--trace 0 reports the end-to-end metrics named in BENCHMARK.json; --trace 1
runs the untraced and the traced binary on the same trials, requires both to
print the same output digest, and reports the per-layer metrics.
--selftest builds and runs the benchmark's own tests instead.

Exit status: 0 when the outputs are correct, 1 otherwise (including a build
that fails, e.g. when the reconfnet sources are missing).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ("churn", "combined-isolation", "dht-zipf", "nodelevel")
# Metrics the untraced binary measures that BENCHMARK.json lists under
# per_layer (they are zero on some workloads, so they cannot be gated).
UNTRACED_LAYER_METRICS = ("node_kbits_max", "epochs_failed_frac",
                          "requests_per_s", "req_p50_rounds",
                          "req_p999_rounds", "requests_failed_frac")
CHILD_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(targets):
    """Configures and builds the given targets; False on failure."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target", *targets]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def run_binary(name, args):
    """Runs one benchmark binary; returns its report (last stdout line)."""
    command = [os.path.join(build_dir(), name), *args]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{name} exceeded {CHILD_TIMEOUT_S} s")
        return None
    lines = done.stdout.strip().splitlines()
    if not lines:
        log(f"{name} printed no report (exit {done.returncode})")
        return None
    report = json.loads(lines[-1])
    report["exit_code"] = done.returncode
    print(json.dumps({"report": report}), flush=True)
    return report


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pick(source, entries):
    """Exactly the named metrics, as {"value", "unit"}."""
    picked = {}
    for entry in entries:
        name = entry["name"]
        if name not in source:
            raise KeyError(f"report lacks metric {name}")
        value = source[name]["value"]
        if source[name]["unit"] != entry["unit"]:
            raise ValueError(f"{name}: unit {source[name]['unit']} is not "
                             f"{entry['unit']}")
        picked[name] = {"value": value, "unit": entry["unit"]}
    return picked


def report_ok(report):
    build_info = report.get("build", {})
    if not build_info.get("optimize", False):
        log("refusing numbers from an unoptimised build")
        return False
    if not report["correct"] or report["exit_code"] != 0:
        log(f"output check failed: {report.get('violation')}")
        return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build(["perfbench_selftest"]):
            return 1
        return subprocess.run(
            [os.path.join(build_dir(), "perfbench_selftest")],
            check=False).returncode
    if args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    if not build(["perfbench", "perfbench_traced"]):
        return 1
    log(f"build ready after {time.monotonic() - started:.1f} s")
    spec = load_spec()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]

    if args.trace == 0:
        report = run_binary("perfbench", common)
        if report is None:
            return 1
        correct = report_ok(report)
        metrics = pick(report["end_to_end"], spec["end_to_end"])
    else:
        # Both binaries run exactly the digest trials, so the digests and the
        # per-trial run times compare like with like.
        limit = ["--digest-only"]
        untraced = run_binary("perfbench", common + limit)
        spans = os.path.join(build_dir(), f"spans-{args.workload}.tsv")
        traced = run_binary("perfbench_traced",
                            common + limit + ["--spans", spans])
        if untraced is None or traced is None:
            return 1
        correct = report_ok(untraced) and report_ok(traced)
        if untraced["digest"] != traced["digest"]:
            log(f"traced digest {traced['digest']} differs from untraced "
                f"{untraced['digest']}")
            correct = False
        layers = dict(traced["per_layer"])
        for name in UNTRACED_LAYER_METRICS:
            layers[name] = untraced["end_to_end"][name]
        layers["trace.overhead_s"] = {
            "value": statistics.median(traced["trial_run_s"]) -
                     statistics.median(untraced["trial_run_s"]),
            "unit": "s"}
        metrics = pick(layers, spec["per_layer"])
        report = untraced

    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
