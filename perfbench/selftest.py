"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each prints exactly the metrics BENCHMARK.json names, with their units, and
no failed op.  Then feeds every workload's checks corrupted answers (numbers
become NaN or -1, flags flip) and requires every op to count as failed while
all metrics are still reported, which shows the checks read the answers.
Last, it copies the benchmark into a directory without src/ and requires a
non-zero exit with no result line.  Exits 1 if anything is off.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np

import run

SEED = 7


def corrupt(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, np.integer)):
        return -1
    if isinstance(value, float):
        return math.nan
    if isinstance(value, np.ndarray):
        return np.full(value.shape, -1 if value.dtype.kind in "iu" else math.nan)
    if isinstance(value, dict):
        return {k: corrupt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(corrupt(v) for v in value)
    return value


def check_bare_directory(problems):
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gap-lab",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main():
    run.import_program()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            res = run.run(name, SEED, 0, trace, tiny=True, write=False)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if res["failed"] or not res["attempted"] or not res["correct"]:
                problems.append(f"{name} trace {trace}: {res['failed']} of "
                                f"{res['attempted']} ops failed")
        bad = run.run(name, SEED, 0, 0, tiny=True, corrupt=corrupt, write=False)
        if bad["failed"] != bad["attempted"] or bad["correct"]:
            problems.append(f"{name}: corrupted answers passed: {bad['failed']} of "
                            f"{bad['attempted']} failed")
        if set(bad["metrics"]) != set(wanted[0]):
            problems.append(f"{name}: a run with failures dropped metrics")
        print(f"{name}: ok" if not problems else f"{name}: {len(problems)} problem(s) so far",
              flush=True)
    check_bare_directory(problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
