"""Exact LP layer: the basic relaxation of a CSP instance and its solver.

The basic relaxation has one marginal column x[v,a] per variable/value and
one local-distribution column mu[P,beta] per constraint and assignment to
the DISTINCT variables of its scope (so a folded self-loop constraint gets a
q-entry table, not q^2).  Column labels are structured tuples:

    ("x", v, a)            variable marginal
    ("mu", cid, beta)      local table entry, beta a tuple over distinct vars
    ("xbar", v, a), ("mubar", cid, beta)   complement columns (pipeline only)

Every program has one form, `LinearProgram`: flat (row, col, coef) entries
sorted by row, with a tag naming each row's role.  `marginal_rows` writes
the rows "the mu columns that agree with (v, a), and x[v,a]" once; the basic
LP here and the stage-1 and stage-2 programs of `pipeline` are compositions
over it, and `table_objective` is the one w * P(beta) rule.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import simplex
from .csp import Constraint, CspInstance, json_field, json_value
from .errors import NegativeEntry, SizeLimit

TABLEAU_BYTE_LIMIT = 2 ** 30


@dataclass
class Row:
    cols: np.ndarray          # column indices
    coefs: np.ndarray         # matching coefficients
    sense: str                # "<=", "=", ">="
    rhs: float
    tag: tuple = ()


@dataclass
class LinearProgram:
    """max objective . z  s.t. one (sense, rhs) per row,  z >= 0.

    The matrix is kept flat, as (row, col, coef) entries sorted by row.
    """

    labels: list              # per column
    objective: np.ndarray
    tags: list                # per row
    senses: list              # "<=", "=", ">="
    rhs: np.ndarray
    row: np.ndarray           # per entry
    col: np.ndarray
    coef: np.ndarray

    @property
    def num_cols(self) -> int:
        return len(self.labels)

    @property
    def rows(self) -> list[Row]:
        """Per-row view of the entries."""
        ends = np.cumsum(np.bincount(self.row, minlength=len(self.rhs))).tolist()
        return [Row(self.col[a:b], self.coef[a:b], *r) for a, b, *r in
                zip([0] + ends, ends, self.senses, self.rhs.tolist(), self.tags)]

    def dense(self):
        A = np.zeros((len(self.rhs), self.num_cols))
        A[self.row, self.col] = self.coef
        return np.array(self.objective, dtype=float), A, list(self.senses), np.array(self.rhs)


def check_tableau_size(rows: int, cols: int):
    """Raise SizeLimit when the dense simplex tableau of a rows x cols program,
    at most rows x (cols + 2 rows + 1) floats with its slack and artificial
    columns and rhs, would exceed TABLEAU_BYTE_LIMIT.  The solver builds that
    one array and pivots on it in place, so besides the caller's rows x cols
    matrix its peak is the tableau plus temporaries of at most
    simplex.ROW_BLOCK rows."""
    size = rows * (cols + 2 * rows + 1) * 8
    if size > TABLEAU_BYTE_LIMIT:
        raise SizeLimit(f"{rows} x {cols} program needs a {size / 2 ** 30:.1f} GiB tableau, "
                        f"limit {TABLEAU_BYTE_LIMIT / 2 ** 30:g} GiB")


def solve_lp(lp: LinearProgram):
    """Solve to optimality; returns (value, {label: value}).

    Raises SizeLimit / Infeasible / Unbounded.  The optimum is the first
    optimal basic solution under the solver's deterministic pivot rule.
    """
    check_tableau_size(len(lp.rhs), lp.num_cols)
    c, A, senses, b = lp.dense()
    x, value = simplex.solve(c, A, senses, b)
    return value, {label: float(x[j]) for j, label in enumerate(lp.labels)}


# --- the basic relaxation ---------------------------------------------------

@functools.lru_cache(maxsize=None)
def _assignment_grid(q: int, k: int):
    """Assignments to k distinct variables in lexicographic order.

    Returns the tuples, their (q^k, k) array, and per (position, value) the
    ascending indices of the assignments that agree there, shape (k, q, q^(k-1)).
    Cached and shared, so the arrays are read-only.
    """
    betas = tuple(itertools.product(range(q), repeat=k))
    grid = np.array(betas, dtype=np.int64).reshape(len(betas), k)
    hits = np.argsort(grid, axis=0, kind="stable").T.reshape(k, q, -1)
    grid.flags.writeable = hits.flags.writeable = False
    return betas, grid, hits


def mu_assignments(instance: CspInstance, c: Constraint):
    """All assignments to the distinct scope variables, lexicographic order."""
    return _assignment_grid(instance.q, len(c.distinct_vars()))[0]


@functools.lru_cache(maxsize=None)
def _table_truth(q: int, pattern: tuple, truth_table: tuple):
    """P(beta) per table entry (`mu_assignments` order) of a scope whose
    positions hold the distinct variables `pattern` (the first scope position
    most significant).  Cached and shared, so the array is read-only."""
    grid = _assignment_grid(q, max(pattern) + 1)[1]
    index = grid[:, list(pattern)] @ q ** np.arange(len(pattern))[::-1]
    values = np.asarray(truth_table)[index]
    values.flags.writeable = False
    return values


def table_objective(instance: CspInstance, c: Constraint) -> np.ndarray:
    """w * P(beta) per entry of the constraint's table (`mu_assignments` order)."""
    dv = c.distinct_vars()
    return c.weight * _table_truth(instance.q, tuple(map(dv.index, c.scope)),
                                   instance.predicates[c.predicate].truth_table)


class MarginalRows(NamedTuple):
    """One row per (constraint, distinct variable v, value a): x[v,a] and the
    mu columns that agree with (v, a).  Columns are the x labels, then the
    mu labels; entries come sorted by row, the x column first."""

    x_labels: list
    mu_labels: list
    mu_objective: np.ndarray    # w * P(beta) per mu column
    tags: list                  # (cid, v, a) per row
    mu_count: np.ndarray        # q^(k-1) mu columns per row
    row: np.ndarray             # per entry
    col: np.ndarray


def marginal_rows(instance: CspInstance, variables=None, constraint_ids=None) -> MarginalRows:
    """The marginal rows over a (variables, constraints) subset; the whole
    instance by default.  Every distinct variable of a listed constraint must
    be listed.  Columns are indexed through per-variable and per-constraint
    offsets, so the entries come out in one pass per constraint arity.
    """
    q = instance.q
    vs = range(instance.n) if variables is None else list(variables)
    cids = range(len(instance.constraints)) if constraint_ids is None else list(constraint_ids)
    cons = [instance.constraints[cid] for cid in cids]
    dvs = [c.distinct_vars() for c in cons]
    nx = len(vs) * q
    ks = np.array([len(dv) for dv in dvs], dtype=np.int64)
    sizes = q ** ks
    mu0 = nx + np.cumsum(sizes) - sizes           # first mu column per constraint
    widths = np.repeat(sizes // q, q * ks)        # per row
    ents = q * ks * (1 + sizes // q)              # entries per constraint
    e0 = np.cumsum(ents) - ents
    col = np.empty(int(ents.sum()), dtype=np.int64)
    slot = {v: i for i, v in enumerate(vs)}
    for k in sorted(set(ks.tolist())):
        _, _, hits = _assignment_grid(q, k)
        g = np.flatnonzero(ks == k)
        x = (np.array([[slot[v] for v in dvs[i]] for i in g]).reshape(len(g), k, 1, 1) * q
             + np.arange(q).reshape(q, 1))
        cols = np.concatenate([x, mu0[g].reshape(-1, 1, 1, 1) + hits], 3)  # (g, pos, a, entry)
        col[e0[g].reshape(-1, 1) + np.arange(cols[0].size)] = cols.reshape(len(g), -1)
    betas = [_assignment_grid(q, len(dv))[0] for dv in dvs]
    return MarginalRows(
        [("x", v, a) for v in vs for a in range(q)],
        [("mu", cid, beta) for cid, bs in zip(cids, betas) for beta in bs],
        np.concatenate([table_objective(instance, c) for c in cons] or [np.empty(0)]),
        [(cid, v, a) for cid, dv in zip(cids, dvs) for v in dv for a in range(q)],
        widths, np.repeat(np.arange(len(widths)), widths + 1), col)


def interleaved(row, first, second):
    """Two copies of every row of the entries (row, col) sorted by row: row r
    becomes rows 2r, with columns `first`, and 2r+1, with columns `second`."""
    width = np.bincount(row)
    at = np.arange(len(row)) + (np.cumsum(width) - width)[row]
    col = np.empty(2 * len(row), dtype=np.int64)
    col[at], col[at + width[row]] = first, second
    return np.repeat(np.arange(2 * len(width)), np.repeat(width, 2)), col


def build_basic_lp(instance: CspInstance) -> LinearProgram:
    """The standard local-marginal relaxation.

    max  sum_P w_P sum_beta P(beta) mu[P,beta]
    s.t. sum_a x[v,a] = 1                   for every variable
         sum_{beta: beta_v = a} mu[P,beta] = x[v,a]
                                            for every (P, v in scope, a)
         all columns >= 0
    """
    n, q = instance.n, instance.q
    m = marginal_rows(instance)
    nx, nrows = n * q, n + len(m.tags)
    return LinearProgram(
        m.x_labels + m.mu_labels, np.concatenate([np.zeros(nx), m.mu_objective]),
        [("norm", v) for v in range(n)] + [("marg",) + tag for tag in m.tags],
        ["="] * nrows, np.concatenate([np.ones(n), np.zeros(len(m.tags))]),
        np.concatenate([np.repeat(np.arange(n), q), n + m.row]),
        np.concatenate([np.arange(nx), m.col]),
        np.concatenate([np.ones(nx), np.where(m.col < nx, -1.0, 1.0)]))


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
    return sum((float(table_objective(instance, c) @ mu[cid])
                for cid, c in enumerate(instance.constraints)), 0.0)


def solve_basic_lp(instance: CspInstance):
    value, cols = solve_lp(build_basic_lp(instance))
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
    for cid in range(len(instance.constraints)):
        if (sol.mu[cid] < -1e-12).any():
            raise NegativeEntry(f"negative local table entry in constraint {cid}")
    return max(worst, marginal_violation(instance, sol.x, sol.mu))


def table_marginal(values: np.ndarray, q: int, k: int, pos: int) -> np.ndarray:
    shaped = values.reshape((q,) * k)
    axes = tuple(i for i in range(k) if i != pos)
    return shaped.sum(axis=axes)


def marginal_violation(instance: CspInstance, x: np.ndarray, mu: dict) -> float:
    """Max over constraints and their distinct variables v of the largest
    |marginal of the table on v - x[v]|."""
    worst = 0.0
    for cid, c in enumerate(instance.constraints):
        dv = c.distinct_vars()
        for pos, v in enumerate(dv):
            marg = table_marginal(mu[cid], instance.q, len(dv), pos)
            worst = max(worst, float(np.max(np.abs(marg - x[v]))))
    return worst


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
