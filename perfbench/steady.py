#!/usr/bin/env python3
"""Steadiness check for perfbench.

Runs the benchmark once per seed (1, 2, ...) on each workload, untraced,
and reports for every end-to-end metric the median of the runs and the
spread: the distance between the first and third quartile as a share of
the median (statistics.quantiles(values, n=4)). Every spread must stay
within the metric's bound in BENCHMARK.json, and should stay below a third
of it. With --sets 2 or more it repeats the whole set and also requires
that no later set's median is worse than the first set's by more than the
bound. Run from the repository root:

    python3 perfbench/steady.py                       # every workload, 10 seeds, one set
    python3 perfbench/steady.py --sets 2              # two sets that must agree
    python3 perfbench/steady.py --workloads fed-exam --seeds 5

Exits nonzero when a run fails, a spread exceeds its bound or a median
moves by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(label, wl, metrics, seeds, seconds):
    """Runs one set on one workload; returns (ok, median by metric)."""
    values = {m["name"]: [] for m in metrics}
    ok = True
    failed = attempted = 0
    for seed in range(1, seeds + 1):
        res = run_once(wl, seed, seconds)
        ok &= res["correct"]
        failed += res["failed"]
        attempted += res["attempted"]
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"{label} {wl} seed {seed}: " + ", ".join(
            f"{n} {res['metrics'][n]['value']:.4g}" for n in values), flush=True)
    print(f"{label} {wl}: {failed}/{attempted} operations failed")
    medians = {}
    for m in metrics:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        ok &= spread <= bound
        medians[m["name"]] = med
        print(f"  {m['name']:16s} median {med:12.5g}  spread {100 * spread:6.2f}%  "
              f"bound {100 * bound:5.1f}%  {verdict}", flush=True)
    return ok, medians


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    ok = True
    first = {}
    for s in range(1, args.sets + 1):
        for wl in args.workloads.split(","):
            set_ok, medians = run_set(f"set {s}", wl, metrics, args.seeds, args.seconds)
            ok &= set_ok
            if s == 1:
                first[wl] = medians
                continue
            for m in metrics:
                a, b = first[wl][m["name"]], medians[m["name"]]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                verdict = "ok" if worse <= m["bound"] else "MOVED"
                ok &= worse <= m["bound"]
                print(f"  set {s} vs set 1, {wl} {m['name']:16s} {a:12.5g} -> {b:12.5g}  "
                      f"worse by {100 * worse:+6.2f}%  bound {100 * m['bound']:5.1f}%  {verdict}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
