#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree of this repository.  It builds the
`layered` CLI and the benchmark executable (perfbench/pbench.ml) with
dune, then runs one workload and relays its output; the last line of
standard output is the result object.  Build logs go to standard error.
Exits non-zero without a result when the tree or the build is missing.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["claims", "sweep", "sweep-parallel", "serve", "serve-jobs2"]
PBENCH = os.path.join("_build", "default", "perfbench", "pbench.exe")
LAYERED = os.path.join("_build", "default", "bin", "main.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            sys.exit(f"perfbench: {need} not found; run from the root of the source tree")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/pbench.exe", "./bin/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")
    if args.workload == "serve":
        # The client and the daemon hand each request back and forth.  On
        # a VM, a hand-off that wakes an idle vCPU waits for the
        # hypervisor to run it again; on one CPU the closed loop keeps
        # that CPU busy.  The daemon and its children inherit the mask.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = subprocess.run(
        [
            PBENCH, "run",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--bin", LAYERED,
        ]
    )
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
