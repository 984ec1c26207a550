"""Spans around csplp's public entry points, installed from benchmark code.

The benchmark never changes the program: a traced pass replaces selected
module functions and methods by thin wrappers that record one span per call
(id, parent, op id, name, start, end, attributes) and puts the originals
back afterwards.  Untraced passes run with nothing installed.

Each entry of ``entry_points()`` names where a function is looked up at call
time (the module or class the program itself reads it from), the span name,
and an optional probe that turns the call's arguments and result into
counts.  A name that no longer exists is recorded as absent, not an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []
        self.op: int | None = None

    # -- recording --

    def _open(self) -> tuple[int, int | None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, attrs):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, self.op, name, start, end, attrs))

    def run_op(self, op_id: int, name: str, fn):
        """Call ``fn`` as the root span of one op."""
        self.op = op_id
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._close(sid, parent, name, start, {})
            self.op = None

    # -- installing wrappers --

    def wrap(self, owner_path: str, attr: str, name: str, probe=None):
        """Wrap ``csplp.<owner_path>.<attr>``; a class owner must define it itself."""
        module, _, cls = owner_path.partition(".")
        owner = importlib.import_module(f"csplp.{module}")
        if cls:
            owner = getattr(owner, cls, None)
        original = (vars(owner).get(attr) if isinstance(owner, type)
                    else getattr(owner, attr, None))
        if original is None:
            self.absent.append(name)
            return
        signature = inspect.signature(original) if probe else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                attrs = {}
                if probe is not None and tracer.op is not None:
                    bound = signature.bind(*args, **kwargs)
                    attrs = probe(bound.arguments, result)
                tracer._close(sid, parent, name, start, attrs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, entry_points):
        for owner, attr, name, probe in entry_points:
            self.wrap(owner, attr, name, probe)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.sid, s.parent, s.op, s.name, s.start, s.end, s.attrs]))
                fh.write("\n")


def self_times(spans):
    """Span duration minus the time covered by its direct children.

    Calls are synchronous on one thread, so children never overlap and their
    durations can simply be subtracted.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - child[s.sid] for s in spans}


# --- probes: counts taken at the span boundary ---------------------------------

def _tableau_mb(args, _result):
    A = np.asarray(args["A"], dtype=float)
    b = np.asarray(args["b"], dtype=float)
    rows = len(b)
    structural = A.shape[1] if A.ndim == 2 else len(args["c"])
    senses = [{"<=": ">=", ">=": "<=", "=": "="}[s] if bi < 0 else s
              for s, bi in zip(args["senses"], b)]
    n_le, n_ge = senses.count("<="), senses.count(">=")
    n_eq = rows - n_le - n_ge
    cols = structural + n_le + n_ge + (n_ge + n_eq) + 1
    return {"tableau_mb": rows * cols * 8 / 2 ** 20}


def _assignments(args, _result):
    inst = args["instance"]
    return {"assignments": inst.q ** inst.n}


def _samples(args, _result):
    from csplp.csp import estimator_sample_count

    return {"samples": estimator_sample_count(args["w"], args["eps"], args["delta"])}


def _lp_columns_in(args, _result):
    return {"columns": args["lp"].num_cols}


def _lp_columns_out(_args, result):
    return {"columns": result.num_cols} if result is not None else {}


def _ball(_args, view):
    return {"ball_vars": len(view.known_vars)} if view is not None else {}


def _ball_program(args, _result):
    return {"ball_columns": len(args["self"].labels)}


def _rounds(args, _result):
    return {"rounds": args["rounds"]}


def _rounding_result(_args, result):
    if result is None or result.fold is None:
        return {}
    return {"buckets": result.fold.bucket_count,
            "folded_assignments": len(result.transcript)}


def entry_points():
    """(owner, attribute, span name, probe) for every wrapped entry point.

    Owners are where the program looks the name up at call time, e.g.
    ``rounding.sum_estimator`` because rounding imports it by name.
    """
    return [
        ("csp", "brute_force_opt", "csp.brute_force_opt", _assignments),
        ("rounding", "sum_estimator", "csp.sum_estimator", _samples),
        ("simplex", "solve", "simplex.solve", _tableau_mb),
        ("lp", "build_basic_lp", "lp.build_basic_lp", _lp_columns_out),
        ("lp", "solve_lp", "lp.solve_lp", _lp_columns_in),
        ("lp", "solve_basic_lp", "lp.solve_basic_lp", None),
        ("pipeline", "to_packing", "pipeline.to_packing", None),
        ("pipeline", "normalize_packing", "pipeline.normalize_packing", None),
        ("pipeline", "exact_packing_optimum", "pipeline.exact_packing_optimum", None),
        ("pipeline", "restore_and_repair", "pipeline.restore_and_repair", None),
        ("localsolve", "build_ball", "localsolve.build_ball", _ball),
        ("localsolve.BallProgram", "__init__", "localsolve.BallProgram", _ball_program),
        ("localsolve.PackingDynamics", "initial_point", "localsolve.dynamics.initial_point",
         None),
        ("localsolve.PackingDynamics", "ascend", "localsolve.dynamics.ascend", _rounds),
        ("localsolve.PackingDynamics", "rescale_feasible",
         "localsolve.dynamics.rescale_feasible", None),
        ("localsolve.LpOracle", "query", "localsolve.LpOracle.query", None),
        ("localsolve.LpOracle", "packing_value", "localsolve.LpOracle.packing_value", None),
        ("localsolve", "assemble_packing_vector", "localsolve.assemble_packing_vector", None),
        ("localsolve", "assemble_global", "localsolve.assemble_global", None),
        ("rounding", "round_assignment", "rounding.round_assignment", _rounding_result),
        ("rounding", "test_satisfiability", "rounding.test_satisfiability", None),
        ("rounding", "per_variable_shares", "rounding.per_variable_shares", None),
        ("rounding", "estimate_assignment_value", "rounding.estimate_assignment_value", None),
        ("rounding", "fold_map", "rounding.fold_map", None),
        ("robustness", "repair_to_feasible", "robustness.repair_to_feasible", None),
        ("robustness", "smooth", "robustness.smooth", None),
        ("gaplab", "gen_opt_instance", "gaplab.gen_opt_instance", None),
        ("gaplab", "gen_lp_instance", "gaplab.gen_lp_instance", None),
        ("gaplab", "collision_experiment", "gaplab.collision_experiment", None),
        ("gaplab.TranscriptProcess", "query", "gaplab.TranscriptProcess.query", None),
        ("gaplab.TranscriptProcess", "complete", "gaplab.TranscriptProcess.complete", None),
        ("gaplab.TranscriptProcess", "replay_consistent",
         "gaplab.TranscriptProcess.replay_consistent", None),
    ]


def corpus_entry_points():
    """Generators the workloads call in set-up; traced only there."""
    names = ["triangle", "random_instance", "component_union", "horn_satisfiable",
             "horn_far", "neq_predicate", "eq_predicate"]
    return [("corpus", n, f"corpus.{n}", None) for n in names]


LAYERS = ("csp", "simplex", "lp", "pipeline", "localsolve", "rounding", "robustness", "gaplab")
