#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload olap --seed 1 --seconds 20 --trace 0

The binary is compiled in Release mode from perfbench/CMakeLists.txt, which
takes the engine library from the root project, into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the root
build directory is never touched. The last line of standard output is the result
object of the run. Build output and the binary's diagnostics go to
standard error. Exits non-zero when the build fails, when any operation
or correctness check fails, or when the binary does not finish in time.

Extra options, for the self-test: --scale tiny runs the workload on small
tables; --corrupt perturbs one expected answer (the run must then fail).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "engine", "engine.h"))):
        fail(f"engine sources not found under {ROOT}; run from a full "
             "checkout of the repository")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "pidx_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT)
        except FileNotFoundError:
            fail("cmake is not installed")
        if done.returncode != 0:
            fail("building the benchmark failed: " + " ".join(cmd))
    binary = os.path.join(out_dir, "pidx_perfbench")
    if not os.path.isfile(binary):
        fail("the build produced no pidx_perfbench binary")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["olap", "oltp", "maintain"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--workdir", os.path.join(out_dir, "tmp")]
    if args.trace:
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the binary and waits for it before raising.
        fail(f"the {args.workload} run did not finish within "
             f"{RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        print(f"perfbench: the {args.workload} run failed "
              f"(exit code {done.returncode})", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
