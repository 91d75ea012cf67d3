#!/usr/bin/env python3
"""Builds and runs the wsflow repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload plan_mix --seed 1 --seconds 10 --trace 0

It builds perfbench/ (which compiles the library from src/) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, runs one
workload in a fresh process and prints one JSON object as the last line of
standard output:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
With --trace 1 it runs the workload twice, untraced and traced, and prints
the per-layer metrics of BENCHMARK.json: span-derived layer timings and
layer counts from the traced run, raw timings and the calibration kernel
from the untraced run, and bench.trace_overhead (traced ops_per_s over
untraced). A per-layer metric the workload does not exercise reads 0. The
traced run's spans are written to <build dir>/traces/.

--self-test builds and runs the benchmark's own tests instead.
Exits 1 (without a result line) when the build fails, and 1 after printing
the result when an answer check fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.stderr.flush()


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    log_path = os.path.join(out, "build.log")
    with open(log_path, "a") as log_file:
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log_file, stderr=subprocess.STDOUT)
            if rc != 0:
                # A failed configure leaves a cache that would skip the
                # configure step next time; drop it.
                if cmd[1] == "-S":
                    cache = os.path.join(out, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                log(f"build step failed: {' '.join(cmd)}")
                return None
    return os.path.join(out, target)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(binary, args):
    """Runs one workload process; returns its parsed result and exit code."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no result from {' '.join(args)} (exit {proc.returncode})")
        return None, proc.returncode or 1
    try:
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        log(f"unparseable result line: {lines[-1][:200]}")
        return None, 1


def slo_for(spec, workload):
    for item in spec.split(","):
        name, _, value = item.partition("=")
        if name == workload:
            return value
    return "0"


def pick(result, names, units):
    metrics = {}
    for name in names:
        m = result["metrics"].get(name)
        value = m["value"] if m is not None else 0.0
        metrics[name] = {"value": value, "unit": units[name]}
    return metrics


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--calib-ref-ms", default="0")
    p.add_argument("--slo-ms", default="",
                   help="per-workload latency limits, name=ms,...")
    p.add_argument("--default-seed", type=int, default=1)
    # Recorded in BENCHMARK.json's command so the reserved seed travels with
    # the benchmark; a run never reads it. Confirm a claimed gain by running
    # again with --seed set to it.
    p.add_argument("--confirm-seed", type=int,
                   help="seed reserved for confirming a claimed gain")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if a.self_test:
        binary = build("perfbench_tests")
        return 1 if binary is None else subprocess.call([binary])
    if not a.workload:
        p.error("--workload is required")

    binary = build("perfbench")
    if binary is None:
        return 1
    spec = load_spec()
    seed = a.default_seed if a.seed is None else a.seed
    args = ["--workload", a.workload, "--seed", str(seed),
            "--seconds", str(a.seconds), "--calib-ref-ms", a.calib_ref_ms,
            "--slo-ms", slo_for(a.slo_ms, a.workload)]

    plain, rc = run_binary(binary, args + ["--trace", "0"])
    if plain is None:
        return 1
    if a.trace == 0:
        e2e = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in e2e}
        missing = [n for n in units if n not in plain["metrics"]]
        if missing:
            log(f"workload did not report {missing}")
            return 1
        result = dict(plain, metrics=pick(plain, list(units), units))
    else:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        spans = os.path.join(trace_dir, f"{a.workload}-seed{seed}.spans.tsv")
        traced, rc_traced = run_binary(
            binary, args + ["--trace", "1", "--trace-out", spans])
        if traced is None:
            return 1
        rc = rc or rc_traced
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        # Timings that tracing would distort come from the untraced run.
        untraced_names = {n for n in units
                          if n.startswith("bench.raw_") or n == "host.calib_ms"}
        metrics = pick(traced, [n for n in units if n not in untraced_names],
                       units)
        metrics.update(pick(plain, [n for n in units if n in untraced_names],
                            units))
        base = plain["metrics"]["ops_per_s"]["value"]
        if "bench.trace_overhead" in units:
            metrics["bench.trace_overhead"]["value"] = (
                traced["metrics"]["ops_per_s"]["value"] / base if base else 0.0)
        metrics = {n: metrics[n] for n in units}
        result = {"correct": plain["correct"] and traced["correct"],
                  "attempted": traced["attempted"],
                  "failed": traced["failed"], "metrics": metrics}
        log(f"spans written to {spans}")
    print(json.dumps(result))
    return 0 if result["correct"] and rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
