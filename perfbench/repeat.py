"""Repeat the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --workloads rounding gap-lab --seeds 1-10 --seconds 20

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, and
prints for every metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the bound in BENCHMARK.json.  ``--out FILE`` also writes every run's
result, the summary and the machine record as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def summarise(results, bounds):
    names = results[0]["metrics"].keys()
    out = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else float("inf"),
                     "bound": bounds.get(name)}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        results, walls = [], []
        for seed in parse_seeds(args.seeds):
            result, wall = run_once(workload, seed, seconds, args.trace)
            results.append(result)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f}s attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
        summary = summarise(results, bounds)
        report[workload] = {"walls": walls, "runs": results, "summary": summary}
        print(f"\n{workload}: wall median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
        for name, s in summary.items():
            bound = "" if s["bound"] is None else f"  bound {s['bound']}"
            print(f"  {name:40s} median {s['median']:<14.6g} spread {s['spread']:.4f}{bound}")
    if args.out:
        sys.path.insert(0, str(HERE))
        import run

        seeds = parse_seeds(args.seeds)
        record = {"machine": run.machine_record(),
                  "method": {"seeds": seeds, "run_seconds": seconds, "trace": args.trace,
                             "runs_per_workload": len(seeds)},
                  "workloads": report}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
