#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py [--workloads claims,serve]

Run from the root of the source tree.  For each workload (by default
those of BENCHMARK.json) it makes two interleaved sets of ten untraced
runs, seeds 1000-1019, and prints every end-to-end metric's median,
quartiles and spread (quartile distance over median, quartiles as
statistics.quantiles(values, n=4) gives them) per set.  It then
reports whether the sets agree within the bounds of BENCHMARK.json:
every spread, setup_s's too, within its bound, the two medians within
the bound of each other, and the same share of failed operations.
Each run's result line is appended to .perfbench/steady.jsonl.  Exits 1
when the sets disagree or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SETS = 2
RUNS = 10
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"steady: {workload} seed {seed} exited {p.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    os.makedirs(".perfbench", exist_ok=True)
    log = open(os.path.join(".perfbench", "steady.jsonl"), "a")
    ok = True
    for w in workloads:
        sets = [[] for _ in range(SETS)]
        for i in range(RUNS):
            for s in range(SETS):
                seed = SEED_BASE + i * SETS + s
                r = run_once(w, seed, bench["run_seconds"])
                log.write(json.dumps({"workload": w, "set": s, "seed": seed, "result": r}) + "\n")
                log.flush()
                if not r["correct"]:
                    print(f"{w} seed {seed}: correct=false")
                    ok = False
                sets[s].append(r)
        print(f"\n== {w}: {RUNS} runs per set")
        print(f"{'metric':14s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                verdict = "ok"
                if spread > bound:
                    verdict = "SPREAD"
                    ok = False
                elif spread > bound / 3:
                    verdict = "ok (> bound/3)"
                print(f"{name:14s} {s:3d} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.3f}  {verdict}")
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            verdict = "ok" if abs(worse) <= bound else "MEDIANS DIFFER"
            ok = ok and abs(worse) <= bound
            print(f"{name:14s} set 1 worse than set 0 by {worse:+.4f}: {verdict}")
        shares = {(r["failed"] / r["attempted"]) for runs in sets for r in runs}
        print(f"failed share: {sorted(shares)}" + ("" if len(shares) == 1 else "  DIFFERS"))
        ok = ok and len(shares) == 1
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
