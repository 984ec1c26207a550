"""csplp benchmark: one seeded workload, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload local-oracle --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; csplp is imported from ``src/``.
Set-up (inputs and references) is repeated, at least SETUP_MIN_REPEATS
times and for SETUP_MIN_SECONDS, and its median time is reported.  The
timed loop then repeats whole passes of the workload's fixed op mix, one op
at a time (closed loop, one client), until ``--seconds`` have passed.
Counts and quality ratios come from the first pass, so they repeat exactly
for a given seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics: self times and
counts per pass from spans around csplp's public functions (tracing.py), and
the traced/untraced time ratio.  Spans and a record of the machine and
method are written under perfbench/out/.

The last line of standard output is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import LAYERS, Tracer, corpus_entry_points, entry_points, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 20101006
HOLDOUT_SEED = 33680314
SETUP_MIN_REPEATS = 3     # set-up runs at least this often ...
SETUP_MIN_SECONDS = 1.0   # ... and until this much time is spent on it
SETUP_MAX_REPEATS = 200
MAX_TRACEBACKS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "passed_ratio": "passed/attempted",
    "peak_rss_mb": "MB",
    "oracle_queries_per_op.mean": "queries/op",
    "oracle_queries_per_op.max": "queries/op",
    "packing_value_ratio.mean": "ratio",
    "assignment_value_ratio.mean": "ratio",
}

def per_layer_units():
    """Per-layer metric name -> unit; size classes come from the workloads."""
    import workloads

    units = {}
    for name in ("csp.brute_force_opt", "csp.sum_estimator", "simplex.solve", "lp.build_basic_lp",
                 "lp.solve_lp", "pipeline.to_packing", "pipeline.normalize_packing",
                 "pipeline.exact_packing_optimum", "pipeline.restore_and_repair",
                 "localsolve.build_ball", "localsolve.BallProgram", "localsolve.dynamics",
                 "rounding.round_assignment", "rounding.per_variable_shares",
                 "rounding.fold_map", "robustness.repair_to_feasible",
                 "gaplab.gen_opt_instance", "gaplab.gen_lp_instance",
                 "gaplab.TranscriptProcess.query", "gaplab.TranscriptProcess.complete",
                 "gaplab.collision_experiment", "corpus"):
        units[f"{name}.self_s"] = "s"
    units.update({
        "csp.brute_force_opt.assignments": "count",
        "csp.oracle_queries": "queries",
        "csp.sum_estimator.samples": "count",
        "simplex.solve.calls": "count",
        "simplex.tableau_mb.max": "MB",
        "lp.columns.max": "count",
        "localsolve.build_ball.calls": "count",
        "localsolve.ball_vars.mean": "vars",
        "localsolve.ball_vars.max": "vars",
        "localsolve.ball_columns.mean": "columns",
        "localsolve.rounds": "rounds",
        "rounding.buckets.mean": "buckets",
        "rounding.folded_assignments.mean": "count",
        "robustness.smooth.calls": "count",
        "gaplab.TranscriptProcess.query.calls": "count",
        "trace.overhead_ratio": "ratio",
    })
    for n, _ in workloads.LOCAL_SIZES:
        units[f"localsolve.queries_per_answer.n{n}"] = "queries/op"
    for n, _ in workloads.ROUND_HORN:
        units[f"rounding.lp_queries_per_trial.n{n}"] = "queries/op"
        units[f"rounding.base_queries_per_trial.n{n}"] = "queries/op"
    for layer in LAYERS:
        units[f"{layer}.share"] = "ratio"
    return units


# --- running passes -------------------------------------------------------------

class Runner:
    def __init__(self, corrupt=None):
        self.corrupt = corrupt
        self.tracebacks = 0
        self.next_op = 0

    def _failed(self, unit, dt):
        from workloads import Op

        if self.tracebacks < MAX_TRACEBACKS:
            self.tracebacks += 1
            traceback.print_exc(file=sys.stderr)
        return [Op(unit.kind, dt / unit.size, False) for _ in range(unit.size)]

    def run_pass(self, workload, tracer=None):
        """Run every unit once; returns (ops, seconds spent inside csplp calls)."""
        ops, busy = [], 0.0
        for unit in workload.units:
            call = unit.call
            if tracer is not None:
                op_id, self.next_op = self.next_op, self.next_op + 1
                call = lambda unit=unit, op_id=op_id: tracer.run_op(op_id, "op." + unit.kind,
                                                                    unit.call)
            start = time.perf_counter()
            try:
                answer = call()
            except Exception:
                dt = time.perf_counter() - start
                busy += dt
                ops += self._failed(unit, dt)
                continue
            dt = time.perf_counter() - start
            busy += dt
            if self.corrupt is not None:
                answer = self.corrupt(answer)
            try:
                ops += unit.judge(answer, dt)
            except Exception:
                ops += self._failed(unit, dt)
        return ops, busy


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def _mean_or_one(values):
    """Mean of a quality ratio; 1 where the workload computes no such ratio."""
    values = [v for v in values if v is not None]
    return float(statistics.fmean(values)) if values else 1.0


def _pass_summary(ops, busy):
    timed = [op.seconds for op in ops if op.timed]
    return {"busy_s": busy, "ops": len(ops), "p50_ms": _percentile(timed, 50) * 1e3,
            "p90_ms": _percentile(timed, 90) * 1e3}


def end_to_end(ops, first, setup_times):
    timed = [op.seconds for op in ops if op.timed]
    queries = [float(op.queries) for op in first]
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(ops) / sum(op.seconds for op in ops),
        "op_ms.p50": _percentile(timed, 50) * 1e3,
        "op_ms.p90": _percentile(timed, 90) * 1e3,
        "passed_ratio": sum(op.ok for op in ops) / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "oracle_queries_per_op.mean": statistics.fmean(queries),
        "oracle_queries_per_op.max": max(queries),
        "packing_value_ratio.mean": _mean_or_one(op.packing_ratio for op in first),
        "assignment_value_ratio.mean": _mean_or_one(op.assignment_ratio for op in first),
    }
    return {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tracer, traced_ops, traced_passes, overhead, setup_spans):
    units = per_layer_units()
    spans = [s for s in tracer.spans if s.op is not None]
    own = self_times(tracer.spans)
    by_name, own_by_name = {}, {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        own_by_name[s.name] = own_by_name.get(s.name, 0.0) + own[s.sid]
    per_pass = 1.0 / traced_passes

    def self_s(prefix):
        return sum(t for name, t in own_by_name.items()
                   if name == prefix or name.startswith(prefix + ".")) * per_pass

    def attrs(name, key):
        return [s.attrs[key] for s in by_name.get(name, []) if key in s.attrs]

    def mean(xs):
        return float(statistics.fmean(xs)) if xs else 0.0

    def calls(name):
        return len(by_name.get(name, [])) * per_pass

    values = {name: self_s(name[:-len(".self_s")]) for name in units
              if name.endswith(".self_s")}
    op_time = sum(s.end - s.start for s in spans if s.parent is None)
    for layer in LAYERS:
        values[f"{layer}.share"] = self_s(layer) / (op_time * per_pass) if op_time else 0.0
    values.update({
        "corpus.self_s": sum(self_times(setup_spans).values()),
        "csp.brute_force_opt.assignments": sum(attrs("csp.brute_force_opt", "assignments"))
        * per_pass,
        "csp.oracle_queries": round(sum(op.extra.get("handle_queries", 0.0)
                                        for op in traced_ops)) * per_pass,
        "csp.sum_estimator.samples": sum(attrs("csp.sum_estimator", "samples")) * per_pass,
        "simplex.solve.calls": calls("simplex.solve"),
        "simplex.tableau_mb.max": max(attrs("simplex.solve", "tableau_mb"), default=0.0),
        "lp.columns.max": max(attrs("lp.solve_lp", "columns")
                              + attrs("lp.build_basic_lp", "columns"), default=0),
        "localsolve.build_ball.calls": calls("localsolve.build_ball"),
        "localsolve.ball_vars.mean": mean(attrs("localsolve.build_ball", "ball_vars")),
        "localsolve.ball_vars.max": max(attrs("localsolve.build_ball", "ball_vars"), default=0),
        "localsolve.ball_columns.mean": mean(attrs("localsolve.BallProgram", "ball_columns")),
        "localsolve.rounds": max(attrs("localsolve.dynamics.ascend", "rounds"), default=0),
        "rounding.buckets.mean": mean(attrs("rounding.round_assignment", "buckets")),
        "rounding.folded_assignments.mean":
            mean(attrs("rounding.round_assignment", "folded_assignments")),
        "robustness.smooth.calls": calls("robustness.smooth"),
        "gaplab.TranscriptProcess.query.calls": calls("gaplab.TranscriptProcess.query"),
        "trace.overhead_ratio": overhead,
    })
    import workloads

    for n, _ in workloads.LOCAL_SIZES:
        mine = [op.queries for op in traced_ops
                if op.n == n and op.kind in ("assemble_packing", "assemble_global",
                                             "packing_value", "query")]
        values[f"localsolve.queries_per_answer.n{n}"] = mean(mine)
    for n, _ in workloads.ROUND_HORN:
        mine = [op for op in traced_ops if op.kind == "round_horn" and op.n == n]
        values[f"rounding.lp_queries_per_trial.n{n}"] = mean([op.extra["lp_queries"]
                                                              for op in mine])
        values[f"rounding.base_queries_per_trial.n{n}"] = mean([op.extra["base_queries"]
                                                                for op in mine])
    return {k: {"value": float(values[k]), "unit": unit} for k, unit in units.items()}


# --- machine and method record --------------------------------------------------

def _blas_threads():
    import ctypes
    import glob
    import os

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_record():
    import os

    import numpy

    cpu = None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# --- entry point ----------------------------------------------------------------

def import_program():
    """Put the checkout's src/ first on the path and import csplp from it."""
    src = ROOT / "src"
    if not (src / "csplp" / "__init__.py").is_file():
        raise SystemExit(f"error: no csplp sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import csplp

    if Path(csplp.__file__).resolve().parent != (src / "csplp").resolve():
        raise SystemExit(f"error: csplp imported from {csplp.__file__}, not {src}")


def run(workload_name, seed, seconds, trace, tiny=False, corrupt=None, write=True):
    """Run one workload; returns the result object (and writes the record)."""
    import workloads

    build = workloads.WORKLOADS[workload_name]
    setup_times = []
    while not setup_times or not trace and len(setup_times) < SETUP_MAX_REPEATS and (
            len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS):
        gc.collect()
        start = time.perf_counter()
        workload = build(seed, tiny)
        setup_times.append(time.perf_counter() - start)

    runner = Runner(corrupt)
    ops, first, passes = [], None, 0
    tracer = Tracer() if trace else None
    if trace:
        tracer.install(corpus_entry_points())
        try:
            build(seed, tiny)
        finally:
            tracer.uninstall()
        setup_spans = list(tracer.spans)
        tracer.spans.clear()
        traced_ops, ratios, traced_passes = [], [], 0

    start = time.perf_counter()
    pass_detail = []
    while passes == 0 or time.perf_counter() - start < seconds:
        pass_ops, busy = runner.run_pass(workload)
        pass_detail.append(_pass_summary(pass_ops, busy))
        first = first or list(pass_ops)
        if trace:
            tracer.install(entry_points())
            try:
                traced, traced_busy = runner.run_pass(workload, tracer)
            finally:
                tracer.uninstall()
            traced_ops += traced
            pass_ops += traced
            ratios.append(traced_busy / busy)
            traced_passes += 1
        ops += pass_ops
        passes += 1
    workload.finish(ops)

    if trace:
        metrics = per_layer(tracer, traced_ops, traced_passes, statistics.median(ratios),
                            setup_spans)
    else:
        metrics = end_to_end(ops, first, setup_times)
    failed = sum(1 for op in ops if not op.ok)
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    if write:
        OUT.mkdir(exist_ok=True)
        stem = f"{workload_name}-seed{seed}-trace{int(bool(trace))}"
        record = {
            "workload": workload_name, "seed": seed, "trace": bool(trace),
            "machine": machine_record(),
            "method": {"run_seconds": seconds, "measured_seconds": time.perf_counter() - start,
                       "passes": passes, "ops_per_pass": len(first), "pass_detail": pass_detail,
                       "setup_repeats": len(setup_times),
                       "setup_seconds": {"min": min(setup_times), "max": max(setup_times)},
                       "loop": "closed, one client, whole passes"},
            "result": result,
        }
        if trace:
            record["absent_entry_points"] = sorted(set(tracer.absent))
            tracer.write(OUT / f"{stem}.spans.jsonl")
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["local-oracle", "exact-reference", "rounding", "gap-lab"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    import_program()
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
