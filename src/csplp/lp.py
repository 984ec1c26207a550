"""Exact LP layer: the basic relaxation of a CSP instance and its solver.

The basic relaxation has one marginal column x[v,a] per variable/value and
one local-distribution column mu[P,beta] per constraint and assignment to
the DISTINCT variables of its scope (so a folded self-loop constraint gets a
q-entry table, not q^2).  Column labels are structured tuples:

    ("x", v, a)            variable marginal
    ("mu", cid, beta)      local table entry, beta a tuple over distinct vars
    ("xbar", v, a), ("mubar", cid, beta)   complement columns (pipeline only)

Rows carry a tag naming their role; builders downstream reuse the tags.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import simplex
from .csp import Constraint, CspInstance, json_field, json_value
from .errors import NegativeEntry, SizeLimit

DEFAULT_COLUMN_LIMIT = 50_000


@dataclass
class Row:
    cols: np.ndarray          # column indices
    coefs: np.ndarray         # matching coefficients
    sense: str                # "<=", "=", ">="
    rhs: float
    tag: tuple = ()


class LinearProgram:
    """Dense-solvable LP with labelled columns and tagged rows."""

    def __init__(self):
        self.labels: list[tuple] = []
        self.index: dict[tuple, int] = {}
        self.objective: list[float] = []
        self.rows: list[Row] = []

    def add_column(self, label, objective=0.0) -> int:
        if label in self.index:
            raise ValueError(f"duplicate column {label}")
        self.index[label] = len(self.labels)
        self.labels.append(label)
        self.objective.append(float(objective))
        return self.index[label]

    def add_row(self, entries, sense, rhs, tag=()):
        """entries: iterable of (label, coefficient)."""
        cols, coefs = [], []
        for label, coef in entries:
            cols.append(self.index[label])
            coefs.append(float(coef))
        self.rows.append(Row(np.asarray(cols, dtype=np.int64),
                             np.asarray(coefs, dtype=np.float64),
                             sense, float(rhs), tag))

    @property
    def num_cols(self) -> int:
        return len(self.labels)

    def dense(self):
        m, n = len(self.rows), self.num_cols
        A = np.zeros((m, n))
        b = np.zeros(m)
        senses = []
        for i, row in enumerate(self.rows):
            A[i, row.cols] = row.coefs
            b[i] = row.rhs
            senses.append(row.sense)
        return np.asarray(self.objective), A, senses, b


def solve_lp(lp: LinearProgram, column_limit: int = DEFAULT_COLUMN_LIMIT):
    """Solve to optimality; returns (value, {label: value}).

    Raises SizeLimit / Infeasible / Unbounded.  The optimum is the first
    optimal basic solution under the solver's deterministic pivot rule.
    """
    if lp.num_cols > column_limit:
        raise SizeLimit(f"{lp.num_cols} columns > limit {column_limit}")
    c, A, senses, b = lp.dense()
    x, value = simplex.solve(c, A, senses, b, maximize=True)
    return value, {label: float(x[j]) for j, label in enumerate(lp.labels)}


# --- the basic relaxation ---------------------------------------------------

def mu_assignments(instance: CspInstance, c: Constraint):
    """All assignments to the distinct scope variables, lexicographic order."""
    dv = c.distinct_vars()
    return itertools.product(range(instance.q), repeat=len(dv))


def mu_objective_coef(instance: CspInstance, c: Constraint, beta) -> float:
    dv = c.distinct_vars()
    values = dict(zip(dv, beta))
    vals = [values[v] for v in c.scope]
    return c.weight * instance.predicates[c.predicate].value(vals, instance.q)


def build_basic_lp(instance: CspInstance) -> LinearProgram:
    """The standard local-marginal relaxation.

    max  sum_P w_P sum_beta P(beta) mu[P,beta]
    s.t. sum_a x[v,a] = 1                   for every variable
         sum_{beta: beta_v = a} mu[P,beta] = x[v,a]
                                            for every (P, v in scope, a)
         all columns >= 0
    """
    q = instance.q
    lp = LinearProgram()
    for v in range(instance.n):
        for a in range(q):
            lp.add_column(("x", v, a))
    for cid, c in enumerate(instance.constraints):
        for beta in mu_assignments(instance, c):
            lp.add_column(("mu", cid, beta), mu_objective_coef(instance, c, beta))

    for v in range(instance.n):
        lp.add_row([(("x", v, a), 1.0) for a in range(q)], "=", 1.0, tag=("norm", v))
    for cid, c in enumerate(instance.constraints):
        dv = c.distinct_vars()
        for pos, v in enumerate(dv):
            for a in range(q):
                entries = [(("mu", cid, beta), 1.0)
                           for beta in mu_assignments(instance, c) if beta[pos] == a]
                entries.append((("x", v, a), -1.0))
                lp.add_row(entries, "=", 0.0, tag=("marg", cid, v, a))
    return lp


# --- solutions --------------------------------------------------------------

@dataclass
class LpSolution:
    """Marginals and local tables for one instance, plus the objective value."""

    x: np.ndarray                    # shape (n, q)
    mu: dict[int, np.ndarray]        # cid -> flat table over distinct vars
    value: float

    @classmethod
    def from_columns(cls, instance: CspInstance, values: dict) -> "LpSolution":
        x = np.zeros((instance.n, instance.q))
        for v in range(instance.n):
            for a in range(instance.q):
                x[v, a] = values.get(("x", v, a), 0.0)
        mu = {}
        for cid, c in enumerate(instance.constraints):
            table = np.array([values.get(("mu", cid, beta), 0.0)
                              for beta in mu_assignments(instance, c)])
            mu[cid] = table
        return cls(x, mu, value_of(instance, x, mu))


def value_of(instance: CspInstance, x, mu) -> float:
    total = 0.0
    for cid, c in enumerate(instance.constraints):
        coefs = np.array([mu_objective_coef(instance, c, beta)
                          for beta in mu_assignments(instance, c)])
        total += float(coefs @ mu[cid])
    return total


def solve_basic_lp(instance: CspInstance, column_limit: int = DEFAULT_COLUMN_LIMIT):
    value, cols = solve_lp(build_basic_lp(instance), column_limit)
    return value, LpSolution.from_columns(instance, cols)


def check_fits(instance: CspInstance, sol: LpSolution) -> None:
    """Raise a one-line ValueError unless sol has the shape of a solution of
    instance: x is n by q and there is one table of q^(distinct vars)
    entries per constraint, keyed 0..m-1."""
    if sol.x.shape != (instance.n, instance.q):
        raise ValueError(f"solution x has shape {sol.x.shape}, "
                         f"the instance needs {(instance.n, instance.q)}")
    m = len(instance.constraints)
    if sorted(sol.mu) != list(range(m)):
        raise ValueError(f"solution has tables for constraints {sorted(sol.mu)}, "
                         f"the instance has constraints 0..{m - 1}")
    for cid, c in enumerate(instance.constraints):
        size = instance.q ** len(c.distinct_vars())
        if sol.mu[cid].shape != (size,):
            raise ValueError(f"table of constraint {cid} has shape {sol.mu[cid].shape}, "
                             f"the instance needs ({size},)")


def infeasibility(instance: CspInstance, sol: LpSolution) -> float:
    """Max violation over the equality rows: the smallest eps such that the
    solution is eps-infeasible.  Negative entries are an error, not a measure.
    """
    if (sol.x < -1e-12).any():
        raise NegativeEntry("negative variable marginal")
    worst = 0.0
    for v in range(instance.n):
        worst = max(worst, abs(float(sol.x[v].sum()) - 1.0))
    q = instance.q
    for cid, c in enumerate(instance.constraints):
        table = sol.mu[cid]
        if (table < -1e-12).any():
            raise NegativeEntry(f"negative local table entry in constraint {cid}")
        dv = c.distinct_vars()
        shaped = table.reshape((q,) * len(dv))
        for pos, v in enumerate(dv):
            marg = shaped.sum(axis=tuple(i for i in range(len(dv)) if i != pos))
            worst = max(worst, float(np.max(np.abs(marg - sol.x[v]))))
    return worst


# --- oracle view of a materialized solution ----------------------------------

class SolutionLpOracle:
    """Serve LP values out of a full solution; used to drive the rounding
    scheme from an exactly solved program."""

    def __init__(self, instance: CspInstance, sol: LpSolution):
        self.instance = instance
        self.sol = sol
        self.query_count = 0
        self._flat_index = {}
        for cid, c in enumerate(instance.constraints):
            for j, beta in enumerate(mu_assignments(instance, c)):
                self._flat_index[(cid, beta)] = j

    def query(self, name) -> float:
        self.query_count += 1
        kind = name[0]
        if kind == "x":
            _, v, a = name
            return float(self.sol.x[v, a])
        if kind == "mu":
            _, cid, beta = name
            return float(self.sol.mu[cid][self._flat_index[(cid, beta)]])
        raise ValueError(f"unknown column name {name}")

    def query_many(self, names) -> tuple[list[float], list[int]]:
        return [self.query(name) for name in names], [1] * len(names)


# --- JSON -------------------------------------------------------------------

def solution_to_json(sol: LpSolution) -> dict:
    return {
        "value": sol.value,
        "x": [[float(e) for e in row] for row in sol.x],
        "mu": [{"constraint": cid, "table": [float(e) for e in sol.mu[cid]]}
               for cid in sorted(sol.mu)],
    }


def solution_from_json(data: dict) -> LpSolution:
    """Solution from its JSON form; every field is type-checked first, so a
    malformed file raises a one-line ValueError."""
    value = json_field(data, "value", "number", "solution")
    rows = json_field(data, "x", "list", "solution")
    for i, row in enumerate(rows):
        for e in json_value(row, "list", f"x[{i}]"):
            json_value(e, "number", f"x[{i}]")
    mu = {}
    for i, e in enumerate(json_field(data, "mu", "list", "solution")):
        cid = json_field(e, "constraint", "int", f"mu[{i}]")
        table = json_field(e, "table", "list", f"mu[{i}]")
        for entry in table:
            json_value(entry, "number", f"mu[{i}].table")
        mu[cid] = np.asarray(table, dtype=float)
    return LpSolution(np.asarray(rows, dtype=float), mu, float(value))


def save_solution(sol: LpSolution, path) -> None:
    with open(path, "w") as fh:
        json.dump(solution_to_json(sol), fh, indent=1)
        fh.write("\n")


def load_solution(path) -> LpSolution:
    with open(path) as fh:
        return solution_from_json(json.load(fh))
