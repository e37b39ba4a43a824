#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json, at a tiny size:
  1. an untraced run passes its checks and prints every end-to-end metric;
  2. a traced run passes and prints every per-layer metric;
  3. the same run with one expected answer corrupted (--corrupt) fails:
     non-zero exit and "correct": false.
Finally, the benchmark must refuse to run (non-zero exit, no result) in
a directory holding only BENCHMARK.json and the benchmark's own files.
Exits non-zero when any of these does not hold.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        base = ["--workload", w, "--seed", "7", "--seconds", "1",
                "--scale", "tiny"]
        rc, r = run(base + ["--trace", "0"])
        if rc != 0 or r is None or not r["correct"]:
            problems.append(f"{w}: clean run failed (exit {rc})")
        elif set(r["metrics"]) != e2e:
            problems.append(f"{w}: end-to-end metrics differ from "
                            f"BENCHMARK.json: {sorted(set(r['metrics']) ^ e2e)}")
        rc, r = run(base + ["--trace", "1"])
        if rc != 0 or r is None or not r["correct"]:
            problems.append(f"{w}: traced run failed (exit {rc})")
        elif set(r["metrics"]) != layer:
            problems.append(f"{w}: per-layer metrics differ from "
                            f"BENCHMARK.json: {sorted(set(r['metrics']) ^ layer)}")
        rc, r = run(base + ["--trace", "0", "--corrupt"])
        if rc == 0 or r is None or r["correct"]:
            problems.append(f"{w}: a corrupted expected answer was not "
                            f"detected (exit {rc})")
        print(f"{w}: checked", file=sys.stderr)

    # A bare copy of the benchmark, without the engine sources, must fail.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, r = run(["--workload", "olap", "--seed", "1", "--seconds", "1"],
                    cwd=bare)
        if rc == 0 or r is not None:
            problems.append("a copy without the engine sources did not fail")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"SELFTEST FAILED: {p}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
