#!/usr/bin/env python3
"""Builds and runs the uaq benchmark from the root of a checkout.

One run (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload serve-novel --seed 1 --seconds 10 --trace 0

Steadiness mode: N runs of one workload on seeds 1..N, then per
metric the median, the quartiles and the spread (Q3 - Q1) / median
against the metric's bound in BENCHMARK.json:

    python3 perfbench/run.py --steady 10 --workload paper-eval

The Rust package is built with `cargo build --release --offline` into
$CARGO_TARGET_DIR (default `.bench_build`). Every run starts with a fixed
register-only loop and a fixed memory-bound loop, timed in a process of
their own and printed as `# host probes`, so a busy host can be told
apart from a slow program.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-novel", "serve-repeat", "paper-eval")
# Wall-clock limit of one workload process, seconds.
RUN_TIMEOUT = 170


def build():
    """Builds the benchmark binary and returns its path, or None."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return None
    return os.path.join(os.path.abspath(target), "release", "uaq-perfbench")


def run_binary(args, echo):
    """Runs the binary to completion; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"error: {' '.join(args[1:])} ran past {RUN_TIMEOUT} s", file=sys.stderr)
        return 1, []
    lines = done.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    return done.returncode, lines


def one_run(binary, workload, seed, seconds, trace, echo=True):
    """Host probes, then one workload run. Returns (code, result, probes)."""
    _, probe = run_binary([binary, "--probe"], echo)
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    code, lines = run_binary(args, echo)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return code, result, (probe[-1] if probe else "")


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(binary, opts):
    values = {}
    units = {}
    failed_share = set()
    for seed in range(1, opts.steady + 1):
        code, result, probe = one_run(binary, opts.workload, seed, opts.seconds,
                                      opts.trace, echo=False)
        if code != 0 or result is None:
            print(f"seed {seed}: run failed (exit {code})")
            return 1
        failed_share.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        shown = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: attempted={result['attempted']} failed={result['failed']} "
              f"{probe.lstrip('# ')} | {shown}", flush=True)
    limits = bounds()
    print(f"\n{opts.workload}: {opts.steady} runs, failed share {sorted(failed_share)}")
    print(f"{'metric':34} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("inf")
        bound = limits.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:34} {units[name]:6} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="run N times on seeds 1..N and print the spread")
    opts = p.parse_args()

    binary = build()
    if binary is None:
        return 1
    if opts.steady:
        return steady(binary, opts)
    code, result, _ = one_run(binary, opts.workload, opts.seed, opts.seconds,
                              opts.trace)
    if result is None:
        print("error: the run printed no result", file=sys.stderr)
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
