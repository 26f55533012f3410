#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly and compare the spread of
every metric with the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --runs 10 [--workloads public-splice,...]
                                [--first-seed 1] [--seconds N] [--trace]

Each run gets its own seed (first-seed, first-seed + 1, ...) and its own
process.  For every end-to-end metric the tool prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median.  A metric is flagged
UNSTEADY when its spread exceeds a third of its bound and FAIL when it
exceeds the bound itself; setup_s is exempt from the spread rule, as its
bound only limits how far its median may move.  Exit code 1 if any metric
fails or any run is incorrect.

With --trace it also makes a traced run per seed and prints the per-layer
medians and the tracing overhead: each traced end-to-end figure
(trace.latency_p50_s, trace.throughput_rps) against the untraced median.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 to have quartiles")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        traced = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds, 0)
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: INCORRECT "
                      f"({r['failed']} of {r['attempted']} failed)")
                bad = True
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
            if args.trace:
                t = run_once(workload, seed, args.seconds, 1)
                for name, m in t["metrics"].items():
                    traced.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " + " ".join(
                f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)

        print(f"{workload}: {args.runs} runs")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            med, q1, q3, s = spread(values[name])
            flag = ""
            if name != "setup_s" and s > bound:
                flag, bad = "FAIL", True
            elif name != "setup_s" and s > bound / 3:
                flag = "UNSTEADY"
            print(f"  {name:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{s:>8.2%} {bound:>6.2f} {flag}")
        if traced:
            print(f"  per-layer medians ({args.runs} traced runs):")
            for name, vals in traced.items():
                print(f"    {name:<36} {statistics.median(vals):.6g}")
            for t_name, e_name in (("trace.latency_p50_s", "latency_p50_s"),
                                   ("trace.throughput_rps", "throughput_rps")):
                t_med = statistics.median(traced[t_name])
                e_med = statistics.median(values[e_name])
                print(f"  tracing overhead on {e_name}: traced {t_med:.6g} - "
                      f"untraced {e_med:.6g} = {t_med - e_med:+.6g} "
                      f"({(t_med - e_med) / e_med:+.2%})")
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
