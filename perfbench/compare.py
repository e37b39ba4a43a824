#!/usr/bin/env python3
"""Runs two sets of benchmark runs of one checkout and compares them.

Run from the repository root:

    python3 perfbench/compare.py                 # 2 sets x 10 runs, all workloads
    python3 perfbench/compare.py --runs 5 --workloads oltp

Every run uses its own seed (set 1: first_seed .. first_seed+runs-1, set 2
the next `runs` seeds). For each workload and end-to-end metric of
BENCHMARK.json it prints, per set, the median and quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
and then whether the sets agree within the metric's bound:

  * spread: every set's spread is within the bound;
  * drift:  set 2's median is not worse than set 1's by more than the bound;
  * failed: the share of failed operations is identical in both sets.

Exits non-zero when any check fails or any run does not complete.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_once(spec, workload, seed, seconds):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit code "
                           f"{done.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    results = {}  # (workload, set) -> [result objects]
    ok = True
    for s in range(SETS):
        for w in workloads:
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                try:
                    r = run_once(spec, w, seed, seconds)
                except RuntimeError as e:
                    print(f"RUN FAILED: {e}", file=sys.stderr)
                    ok = False
                    continue
                if not r["correct"]:
                    print(f"INCORRECT: {w} seed {seed}", file=sys.stderr)
                    ok = False
                runs.append(r)
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{m['name']}={r['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), file=sys.stderr)
            results[(w, s)] = runs
    print(f"{'workload':9} {'metric':12} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        sets = [results.get((w, s), []) for s in range(SETS)]
        if any(len(r) < 2 for r in sets):
            print(f"{w}: too few completed runs to compare")
            ok = False
            continue
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summary(values)
                medians.append(med)
                spread_ok = spread <= bound
                ok &= spread_ok
                print(f"{w:9} {name:12} {s + 1:>3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {spread:7.3f} {bound:6.2f}  "
                      f"{'spread ok' if spread_ok else 'SPREAD TOO WIDE'}")
            base, now = medians
            worse = ((now - base) / base if m["better"] == "lower"
                     else (base - now) / base) if base else 0.0
            drift_ok = worse <= bound
            ok &= drift_ok
            print(f"{w:9} {name:12} {'':>3} set 2 vs set 1: "
                  f"{worse * 100:+.2f}% worse (bound {bound * 100:.0f}%)  "
                  f"{'agree' if drift_ok else 'DISAGREE'}")
        shares = set()
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.add(failed / attempted if attempted else -1)
        if len(shares) != 1:
            print(f"{w}: failed-operation share differs between sets: "
                  f"{sorted(shares)}")
            ok = False
    print("ALL AGREE" if ok else "CHECKS FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
