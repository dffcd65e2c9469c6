#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

One run (the benchmark contract):

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

builds the server and the load generator from source with dune, then
replaces itself with the load generator, whose last stdout line is the
JSON result.  Steadiness mode:

    python3 perfbench/run.py --steady 10 --workload all --seed 1 --seconds 20

runs each workload N times (seeds seed, seed+1, ...) and prints, per
metric, the median, the quartiles, the interquartile range as a share of
the median, and (max - min) / median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SERVER = os.path.join("_build", "default", "bin", "cxxlookup.exe")
WORKLOADS = ["point", "batch", "edit"]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet",
           "./perfbench/perfbench.exe", "./bin/cxxlookup.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        sys.exit(1)
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(1)


def bench_args(workload, seed, seconds, trace):
    return [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--server-exe", SERVER, "--out", ".perfbench"]


def steady(args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    os.makedirs(".perfbench", exist_ok=True)
    ok = True
    for w in workloads:
        runs = []
        for k in range(args.steady):
            seed = args.seed + k
            r = subprocess.run(bench_args(w, seed, args.seconds, args.trace),
                               capture_output=True, text=True, timeout=180)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {r.returncode}\n{r.stderr}")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: {res['failed']} of {res['attempted']} failed")
                ok = False
            # the run's record holds every metric, bounded or not
            path = os.path.join(".perfbench", "results",
                                f"result-{w}-seed{seed}-trace{args.trace}.json")
            with open(path) as f:
                rec = json.load(f)["metrics"]
            runs.append({n: {"value": float(m["value"]), "unit": m["unit"]}
                         for n, m in rec.items()})
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in res["metrics"].items()),
                flush=True)
        if len(runs) < 2:
            continue
        print(f"\n{w}: {len(runs)} runs, seeds {args.seed}..{args.seed + args.steady - 1}")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'range/med':>9}")
        table = {}
        for name, m in runs[0].items():
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            iqr = (q3 - q1) / med if med else float("nan")
            rng = (max(vals) - min(vals)) / med if med else float("nan")
            table[name] = {"unit": m["unit"], "values": vals, "median": med,
                           "q1": q1, "q3": q3, "iqr_over_median": iqr,
                           "range_over_median": rng}
            print(f"  {name:30} {med:12.4f} {q1:12.4f} {q3:12.4f} {iqr:8.3f} {rng:9.3f}")
        print()
        with open(os.path.join(".perfbench", f"steady-{w}-trace{args.trace}.json"), "w") as f:
            json.dump(table, f, indent=1)
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run each workload N times and report the spread")
    args = p.parse_args()
    build()
    if args.steady:
        sys.exit(steady(args))
    if args.workload == "all":
        p.error("--workload all needs --steady")
    sys.stdout.flush()
    os.execv(EXE, bench_args(args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    main()
