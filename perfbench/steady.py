#!/usr/bin/env python3
"""Steadiness check: run workloads N times with different seeds and print
each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steady.py                      # every workload, 10 runs
    python3 perfbench/steady.py --workloads campaign --runs 5
    python3 perfbench/steady.py --sets 2             # two interleaved sets

Run from the repository root. The spread is (q3 - q1) / median with the
quartiles of statistics.quantiles(values, n=4); a metric is flagged when its
spread exceeds a third of its bound in BENCHMARK.json. With --sets N the
sets' runs alternate (run i of every set, then run i + 1), so a change in
the host's speed lands on all sets alike, and each later set's median is
compared with the first set's: a metric is flagged when it is worse by more
than its bound. Every run's values are printed in run order with the run's
`# host` line (steal share, load, probe time), so runs on a busy or slow
host show up as a cluster.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  warning: {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}")
    host = {}
    for line in lines:
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, host


def spread(v):
    q1, _, q3 = statistics.quantiles(v, n=4)
    med = statistics.median(v)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    # values[workload][set][metric] -> per-run list; the host line likewise.
    values = {w: [{} for _ in range(args.sets)] for w in args.workloads}
    hosts = {w: [{} for _ in range(args.sets)] for w in args.workloads}
    for i in range(args.runs):
        for w in args.workloads:
            for s in range(args.sets):
                seed = args.seed_base + s * args.runs + i
                v, host = run_once(w, seed, args.seconds)
                for name, x in v.items():
                    values[w][s].setdefault(name, []).append(x)
                for name, x in host.items():
                    hosts[w][s].setdefault(name, []).append(x)
                print(f"# {w} set {s} run {i} seed {seed}: " +
                      " ".join(f"{n}={x:.4g}" for n, x in v.items()) +
                      f" host={host}", flush=True)

    steady = True
    for w in args.workloads:
        print(f"{w}: {args.sets} x {args.runs} runs of {args.seconds:g} s")
        for s in range(args.sets):
            print(f" set {s}:")
            print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>8} {'bound':>6}")
            for name, v in values[w][s].items():
                med, q1, q3, sp = spread(v)
                bound = metrics[name]["bound"]
                flag = ""
                if sp > bound / 3:
                    flag = "  <-- above bound/3"
                    steady = False
                if s > 0:
                    first = statistics.median(values[w][0][name])
                    worse = med / first - 1.0
                    if metrics[name]["better"] == "higher":
                        worse = first / med - 1.0
                    flag += f"  vs set 0: {worse:+.3f}"
                    if worse > bound:
                        flag += "  <-- worse by more than the bound"
                        steady = False
                print(f"  {name:<18} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{sp:8.4f} {bound:6.2f}{flag}")
                print("  " + " " * 18 + " runs: " +
                      " ".join(f"{x:.4g}" for x in v))
            for name, v in hosts[w][s].items():
                print(f"  {name:<18} runs: " + " ".join(f"{x:.4g}" for x in v))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
