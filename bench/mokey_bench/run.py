#!/usr/bin/env python3
"""Build mokey_bench and run it.

One run, the benchmark's command (run from the repository root):

    python3 bench/mokey_bench/run.py --workload short-http --seed 1 \\
        --seconds 15 --trace 0

configures and builds the benchmark binary under .bench_build/ (the
mokey library through the root CMakeLists, in Release), runs one
workload and passes its output through. The last line of stdout is the JSON result; with
--trace 1 it holds the per-layer metrics and the spans are written to
.bench_build/mokey_bench/traces/<workload>-<seed>.json.

Several runs of every workload in BENCHMARK.json:

    python3 bench/mokey_bench/run.py --repeat 3 --seed 1 [--out r.json]
    python3 bench/mokey_bench/run.py --repeat 3 --seed 1 --compare

prints each end-to-end metric's median and quartiles over the runs and
writes them as JSON. --vary-seed gives run i the seed seed+i.
--compare runs a second set with seed+1 and exits 1 when any metric's
medians differ by more than its bound in BENCHMARK.json.

    python3 bench/mokey_bench/run.py --self-test

checks the binary's percentile, latency-split and gap arithmetic.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "mokey_bench")
BINARY = os.path.join(BUILD, "mokey_bench")
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure until it succeeds, then build incrementally; output to
    stderr so the result line stays last on stdout."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mokey_bench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; never ask a parent repo
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def binary_args(workload, seed, seconds, trace):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--git-sha", git_sha()]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace",
                 os.path.join(traces, f"{workload}-{seed}.json")]
    return args


def run_once(workload, seed, seconds, trace, capture):
    """Run the binary once; returns (exit code, stdout or None)."""
    try:
        r = subprocess.run(binary_args(workload, seed, seconds, trace),
                           cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    return r.returncode, r.stdout


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def run_set(bench, seed, repeat, vary_seed, seconds):
    """Run every workload `repeat` times; None when any run failed."""
    results = {}
    for w in bench["workloads"]:
        name = w["name"]
        per_metric = {}
        for i in range(repeat):
            s = seed + i if vary_seed else seed
            code, out = run_once(name, s, seconds, False, capture=True)
            line = out.strip().splitlines()[-1] if out and out.strip() else ""
            if code != 0 or not line.startswith("{"):
                log(f"{name} seed {s}: exit {code}")
                return None
            res = json.loads(line)
            log(f"{name} seed {s}: attempted {res['attempted']}, "
                f"failed {res['failed']}")
            for k, m in res["metrics"].items():
                per_metric.setdefault(k, []).append(m["value"])
        results[name] = {k: summarize(v) for k, v in per_metric.items()}
    return results


def print_set(title, results):
    print(title)
    print(f"  {'workload':<13} {'metric':<18} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for w, metrics in results.items():
        for k, s in metrics.items():
            print(f"  {w:<13} {k:<18} {s['median']:>12.5g} "
                  f"{s['q1']:>12.5g} {s['q3']:>12.5g} {s['spread']:>8.4f}")


def compare(bench, a, b):
    """Metrics whose medians differ by more than their bound."""
    bad = []
    for m in bench["end_to_end"]:
        for w in a:
            ma, mb = a[w][m["name"]]["median"], b[w][m["name"]]["median"]
            rel = abs(mb - ma) / abs(ma) if ma else float("inf")
            flag = "ok" if rel <= m["bound"] else "OUTSIDE BOUND"
            print(f"  {w:<13} {m['name']:<18} {ma:>12.5g} -> {mb:<12.5g} "
                  f"{rel:7.2%} (bound {m['bound']:.0%}) {flag}")
            if rel > m["bound"]:
                bad.append((w, m["name"]))
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int)
    p.add_argument("--vary-seed", action="store_true")
    p.add_argument("--compare", action="store_true")
    p.add_argument("--out")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()

    if not build():
        return 1
    if a.self_test:
        return subprocess.run([BINARY, "--self-test"]).returncode
    if a.workload:
        bench_seconds = a.seconds or load_benchmark()["run_seconds"]
        code, _ = run_once(a.workload, a.seed, bench_seconds, a.trace,
                           capture=False)
        return code

    bench = load_benchmark()
    seconds = a.seconds or bench["run_seconds"]
    repeat = a.repeat or 3
    sets = [a.seed, a.seed + 1] if a.compare else [a.seed]
    results = []
    for seed in sets:
        r = run_set(bench, seed, repeat, a.vary_seed, seconds)
        if r is None:
            return 1
        print_set(f"seed {seed}, {repeat} runs of {seconds} s:", r)
        results.append(r)
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"seeds": sets, "repeat": repeat, "seconds": seconds,
                       "sets": results}, f, indent=1)
    if a.compare:
        print("medians, second set against first:")
        bad = compare(bench, results[0], results[1])
        if bad:
            print(f"{len(bad)} metric(s) outside their bound")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
