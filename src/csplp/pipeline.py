"""Transformation chain from the basic relaxation to a restricted packing LP.

Stage 1 substitutes x <- 1 - x and relaxes every equality by eps (the "x"
columns of the stage-1/2 programs therefore live in complement coordinates).
Stage 2 adds a complement column for every column, couples each pair by
z + zbar <= 1, keeps only the <= halves, and puts a large reward C on every
column so optimal pairs sum to one.  Stage 3 rescales variables by their
objective coefficient and rows by fixed multipliers so the objective is
1^T z and every nonzero matrix entry is at least one.

`packing_rows` is the one builder of the stage-2 rows, over a (variables,
constraints) subset: the whole instance for `to_packing`, one component for
`exact_packing_optimum`, one ball for the local oracle.  `PackingRows.restricted`
is the one stage-3 scaling on top of it, and `PackingProgram` the one stage-3
form: flat (row, col, coef) arrays from which the statistics, the exact solve
and the local dynamics (`localsolve.PackingDynamics` subclasses it) are all
computed.  `check_lp3_feasible` checks a stage-2 vector against the same flat
rows before scaling.

restore_and_repair walks back: it maps a feasible stage-2 vector to basic
coordinates through `repair_blocks`, the block-reset rule the local oracle
applies per query too: any variable block whose pair sums drift is reset and
the affected local tables are rebuilt as product distributions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import simplex
from .csp import CspInstance, connected_components
from .errors import NotFeasibleForLp3, SizeLimit
from .lp import (
    DEFAULT_COLUMN_LIMIT,
    LinearProgram,
    LpSolution,
    Row,
    infeasibility,
    mu_assignments,
    mu_objective_coef,
    value_of,
)


@dataclass(frozen=True)
class PipelineParams:
    """Relaxation slack, reward constant, repair thresholds, model parameters.

    Defaults instantiate the hidden constants as C = q^(2s) (t w)^2 / eps^2,
    eps_inner = eps^3 / (q^(2s) (t w)^2) and eps_reset = eps; every field can
    be overridden.
    """

    epsilon: float
    C: float
    eps_inner: float
    eps_reset: float
    q: int
    s: int
    t: int
    w: float

    @classmethod
    def for_instance(cls, instance: CspInstance, epsilon: float, C=None,
                     eps_inner=None, eps_reset=None) -> "PipelineParams":
        if not (0.0 < epsilon < 0.5):
            raise ValueError("epsilon must lie in (0, 1/2)")
        q, s, t, w = instance.q, instance.s, instance.t, instance.w
        base = q ** (2 * s) * (t * w) ** 2
        C = float(C if C is not None else base / epsilon ** 2)
        eps_inner = float(eps_inner if eps_inner is not None else epsilon ** 3 / base)
        eps_reset = float(eps_reset if eps_reset is not None else epsilon)
        if C < instance.w:
            raise ValueError("C must dominate the maximum weight")
        return cls(epsilon, C, eps_inner, eps_reset, q, s, t, float(w))


def relax_basic_lp(instance: CspInstance, epsilon: float) -> LinearProgram:
    """Stage 1: complemented marginals, equalities relaxed to +-eps bands.

    Columns additionally carry the unit box (explicit <= 1 rows): the
    complement substitution of stage 2 needs every value to stay a
    probability, and without the box the eps slack would let single table
    entries grow past one, breaking the exact value shift between stages.
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 1/2)")
    q = instance.q
    lp = LinearProgram()
    for v in range(instance.n):
        for a in range(q):
            lp.add_column(("x", v, a))
    for cid, c in enumerate(instance.constraints):
        for beta in mu_assignments(instance, c):
            lp.add_column(("mu", cid, beta), mu_objective_coef(instance, c, beta))

    for v in range(instance.n):
        entries = [(("x", v, a), 1.0) for a in range(q)]
        lp.add_row(entries, "<=", q - 1 + epsilon, tag=("norm_hi", v))
        lp.add_row(entries, ">=", q - 1 - epsilon, tag=("norm_lo", v))
    for cid, c in enumerate(instance.constraints):
        dv = c.distinct_vars()
        for pos, v in enumerate(dv):
            for a in range(q):
                entries = [(("x", v, a), 1.0)]
                entries += [(("mu", cid, beta), 1.0)
                            for beta in mu_assignments(instance, c) if beta[pos] == a]
                lp.add_row(entries, "<=", 1 + epsilon, tag=("marg_hi", cid, v, a))
                lp.add_row(entries, ">=", 1 - epsilon, tag=("marg_lo", cid, v, a))
    for label in lp.labels:
        lp.add_row([(label, 1.0)], "<=", 1.0, tag=("box",) + label)
    return lp


def to_packing(instance: CspInstance, params: PipelineParams) -> LinearProgram:
    """Stage 2: complement columns, <=-only rows, reward C on every column."""
    return packing_rows(instance, params).linear_program()


@functools.lru_cache(maxsize=None)
def _assignment_grid(q: int, k: int):
    """Assignments to k distinct variables in `mu_assignments` order.

    Returns the tuples, their (q^k, k) array, and per (position, value) the
    ascending indices of the assignments that agree there, shape (k, q, q^(k-1)).
    Cached and shared, so the arrays are read-only.
    """
    betas = tuple(itertools.product(range(q), repeat=k))
    grid = np.array(betas, dtype=np.int64).reshape(len(betas), k)
    hits = np.argsort(grid, axis=0, kind="stable").T.reshape(k, q, -1)
    grid.flags.writeable = hits.flags.writeable = False
    return betas, grid, hits


@dataclass
class PackingRows:
    """The stage-2 packing program over a (variables, constraints) subset, flat.

    Column blocks are x, xbar, mu, mubar; rows come as r1, r2, r3/r4
    (interleaved per constraint, variable and value), r5, r6, all of them
    <= rows.  Entries are (row, col, coef) triples sorted by row.
    """

    labels: list
    reward: np.ndarray      # stage-2 objective per column
    tags: list              # per row
    rhs: np.ndarray         # per row
    row: np.ndarray         # per entry
    col: np.ndarray
    coef: np.ndarray

    @classmethod
    def of(cls, lp: LinearProgram) -> "PackingRows":
        row, col, coef = flatten_rows([r.cols for r in lp.rows], [r.coefs for r in lp.rows])
        return cls(list(lp.labels), np.asarray(lp.objective, dtype=float),
                   [r.tag for r in lp.rows], np.array([r.rhs for r in lp.rows], dtype=float),
                   row, col, coef)

    def linear_program(self) -> LinearProgram:
        lp = LinearProgram()
        for label, reward in zip(self.labels, self.reward.tolist()):
            lp.add_column(label, reward)
        lp.rows = [Row(cols, coefs, "<=", rhs, tag) for (cols, coefs), rhs, tag in
                   zip(split_rows(self.row, len(self.rhs), self.col, self.coef),
                       self.rhs.tolist(), self.tags)]
        return lp

    def restricted(self, params: PipelineParams):
        """Stage 3: scale columns by reward, rows to coefficient floor one.

        Rows carrying objective-bearing table columns (r3, r6) are multiplied
        by (w + C), the remaining rows by C; combined with dividing each
        column by its stage-2 objective coefficient this makes every
        surviving coefficient >= 1 while the objective becomes the plain sum
        of the scaled columns.  Returns (coefficient per entry, rhs per row).
        """
        boosted = np.array([tag[0] in ("r3", "r6") for tag in self.tags], dtype=bool)
        mult = np.where(boosted, params.w + params.C, params.C)
        return self.coef * mult[self.row] / self.reward[self.col], self.rhs * mult

    def program(self, params: PipelineParams) -> "PackingProgram":
        return PackingProgram(self.labels, self.tags, self.row, self.col,
                              *self.restricted(params), self.reward)


def flatten_rows(row_cols, row_coefs):
    """Per-row column and coefficient arrays as flat (row, col, coef) arrays."""
    sizes = [len(cols) for cols in row_cols]
    return (np.repeat(np.arange(len(sizes)), sizes),
            np.concatenate(list(row_cols) or [np.empty(0, dtype=np.int64)]),
            np.concatenate(list(row_coefs) or [np.empty(0)]))


def split_rows(rows, num_rows: int, cols, coefs) -> list:
    """Per-row (cols, coefs) pieces of per-entry arrays sorted by row id."""
    ends = np.cumsum(np.bincount(rows, minlength=num_rows)).tolist()
    return [(cols[a:b], coefs[a:b]) for a, b in zip([0] + ends, ends)]


def packing_rows(instance: CspInstance, params: PipelineParams, variables=None,
                 constraint_ids=None) -> PackingRows:
    """The stage-2 packing program restricted to a subset; the whole instance by default.

    This is the only place packing rows are written: `to_packing`,
    `exact_packing_optimum` (per component) and the local oracle's ball
    program (per ball) all read it.  Every distinct variable of a listed
    constraint must be listed.  Columns are indexed through per-variable and
    per-constraint offsets, so rows and entries come out in one pass per
    constraint arity.
    """
    q, C, eps = instance.q, params.C, params.epsilon
    vs = range(instance.n) if variables is None else list(variables)
    cids = range(len(instance.constraints)) if constraint_ids is None else list(constraint_ids)
    cons = [instance.constraints[cid] for cid in cids]
    dvs = [c.distinct_vars() for c in cons]
    nv, nx = len(vs), len(vs) * q
    ks = np.array([len(dv) for dv in dvs], dtype=np.int64)
    sizes = q ** ks
    nmu = int(sizes.sum())
    mu0 = 2 * nx + np.cumsum(sizes) - sizes       # first mu column per constraint
    rows34 = 2 * q * ks                           # its r3/r4 rows
    ents34 = rows34 * (1 + sizes // q)            # and their entries
    r0, e0 = np.cumsum(rows34) - rows34, np.cumsum(ents34) - ents34
    row34 = np.empty(int(ents34.sum()), dtype=np.int64)
    col34 = np.empty_like(row34)
    rhs34 = np.empty(int(rows34.sum()))

    slot = {v: i for i, v in enumerate(vs)}
    for k in sorted(set(ks.tolist())):
        _, _, hits = _assignment_grid(q, k)
        g = np.flatnonzero(ks == k)
        # x column of (pos, a) and the mu columns agreeing with it, per constraint
        x = (np.array([[slot[v] for v in dvs[i]] for i in g]).reshape(len(g), k, 1, 1) * q
             + np.arange(q).reshape(q, 1))
        mu = mu0[g].reshape(-1, 1, 1, 1) + hits
        cols = np.stack([np.concatenate([x, mu], 3),
                         np.concatenate([x + nx, mu + nmu], 3)], 3)   # (g, pos, a, r3/r4, entry)
        rows = r0[g].reshape(-1, 1) + np.arange(2 * k * q)
        at = e0[g].reshape(-1, 1) + np.arange(cols[0].size)
        col34[at] = cols.reshape(len(g), -1)
        row34[at] = np.repeat(rows, cols.shape[-1], axis=1)
        rhs34[rows] = np.tile([1 + eps, q ** (k - 1) + eps], k * q)

    # r5 and r6 pair every x and mu column with its complement
    first = np.concatenate([np.arange(nx), 2 * nx + np.arange(nmu)])
    second = first + np.repeat([nx, nmu], [nx, nmu])
    n12, n34 = 2 * nv, len(rhs34)
    row = np.concatenate([np.repeat(np.arange(n12), q), n12 + row34,
                          np.repeat(n12 + n34 + np.arange(nx + nmu), 2)])
    col = np.concatenate([np.arange(2 * nx), col34, np.stack([first, second], 1).ravel()])
    rhs = np.concatenate([np.full(nv, q - 1 + eps), np.full(nv, 1 + eps), rhs34,
                          np.ones(nx + nmu)])

    grids = [_assignment_grid(q, len(dv)) for dv in dvs]
    mu_labels = [(cid, beta) for cid, (betas, _, _) in zip(cids, grids) for beta in betas]
    labels = [(kind, v, a) for kind in ("x", "xbar") for v in vs for a in range(q)]
    labels += [("mu",) + lab for lab in mu_labels] + [("mubar",) + lab for lab in mu_labels]
    tags = [(kind, v) for kind in ("r1", "r2") for v in vs]
    tags += [(kind, cid, v, a) for cid, dv in zip(cids, dvs) for v in dv for a in range(q)
             for kind in ("r3", "r4")]
    tags += [("r5", v, a) for v in vs for a in range(q)] + [("r6",) + lab for lab in mu_labels]
    # table objectives w * P(beta), the first scope position most significant
    sat = [c.weight * np.asarray(instance.predicates[c.predicate].truth_table)[
               grid[:, [dv.index(u) for u in c.scope]] @ q ** np.arange(len(c.scope))[::-1]]
           for c, dv, (_, grid, _) in zip(cons, dvs, grids)]
    reward = np.concatenate([np.full(2 * nx, C), np.concatenate(sat or [np.empty(0)]) + C,
                             np.full(nmu, C)])
    return PackingRows(labels, reward, tags, rhs, row, col, np.ones(len(col)))


def primal_column_count(instance: CspInstance) -> int:
    """Columns of the stage-1 program: n q marginals plus the table entries."""
    return instance.n * instance.q + sum(
        instance.q ** len(c.distinct_vars()) for c in instance.constraints
    )


# --- restricted packing form --------------------------------------------------

@dataclass
class PackingProgram:
    """max 1^T z  s.t.  A^T z <= c,  z >= 0, every nonzero of A at least 1.

    A has one row per column variable z_i and one column per packing
    inequality; it is kept sparse, as (row, col, coef) triples sorted by row.
    """

    col_labels: list
    row_tags: list
    row: np.ndarray              # inequality per entry
    col: np.ndarray              # column per entry
    coef: np.ndarray             # coefficient per entry
    c: np.ndarray                # rhs per inequality
    col_scale: np.ndarray        # stage-2 value = z / col_scale

    def __post_init__(self):
        self.index = {lab: i for i, lab in enumerate(self.col_labels)}

    @property
    def num_cols(self):
        return len(self.col_labels)

    @property
    def num_rows(self):
        return len(self.c)

    @property
    def b(self) -> np.ndarray:
        """The objective, all ones."""
        return np.ones(self.num_cols)

    @property
    def row_entries(self) -> list:
        """Per inequality: (col indices, coefficients)."""
        return split_rows(self.row, self.num_rows, self.col, self.coef)

    # statistics of the restricted form
    @property
    def c_max(self) -> float:
        return float(self.c.max(initial=0.0))

    @property
    def gamma_d(self) -> float:
        """Max over columns z_i of its total coefficient mass (max row sum of A)."""
        return float(np.bincount(self.col, self.coef, self.num_cols).max(initial=0.0))

    @property
    def gamma_p(self) -> float:
        """Max over inequalities of (c_max / c_j) times its coefficient sum.

        Rows of one length are summed as the rows of one matrix, which adds
        in numpy's pairwise order, the order of summing each row on its own.
        """
        counts = np.bincount(self.row, minlength=self.num_rows)
        starts = np.cumsum(counts) - counts
        sums = np.zeros(self.num_rows)
        for size in np.unique(counts).tolist():
            rows = np.flatnonzero(counts == size)
            sums[rows] = self.coef[starts[rows, None] + np.arange(size)].sum(axis=1)
        return float((self.c_max / self.c * sums).max(initial=0.0))

    @property
    def delta_p(self) -> int:
        """Max number of columns appearing in one inequality."""
        return int(np.bincount(self.row, minlength=self.num_rows).max(initial=0))

    @property
    def delta_d(self) -> int:
        """Max number of inequalities where one column appears."""
        return int(np.bincount(self.col, minlength=self.num_cols).max(initial=0))

    def loads(self, z: np.ndarray) -> np.ndarray:
        """Left-hand side of every inequality at z."""
        return np.bincount(self.row, self.coef * z[self.col], len(self.c))

    def max_violation(self, z: np.ndarray) -> float:
        return float((self.loads(z) - self.c).max(initial=0.0))

    def solve_exact(self):
        """Exact optimum of the packing program via the dense solver."""
        if self.num_cols > DEFAULT_COLUMN_LIMIT:
            raise SizeLimit(f"{self.num_cols} columns > limit {DEFAULT_COLUMN_LIMIT}")
        A = np.zeros((self.num_rows, self.num_cols))
        A[self.row, self.col] = self.coef
        z, value = simplex.solve(self.b, A, ["<="] * self.num_rows, self.c)
        return value, z


def normalize_packing(lp3: LinearProgram, params: PipelineParams) -> PackingProgram:
    """Stage 3 of a stage-2 program: the `PackingRows.restricted` scaling."""
    return PackingRows.of(lp3).program(params)


def exact_packing_optimum(instance: CspInstance, params: PipelineParams) -> float:
    """Optimum of the restricted packing program, solved per component."""
    total = 0.0
    for vs, cids in connected_components(instance):
        value, _ = packing_rows(instance, params, vs, cids).program(params).solve_exact()
        total += value
    return total


# --- the restore-and-repair step ----------------------------------------------

def check_lp3_feasible(rows: PackingRows, z: dict, tol: float = 1e-7) -> float:
    """Largest row excess of the stage-2 vector z (missing labels read 0).

    Raises NotFeasibleForLp3 on a column below -tol or an excess above tol.
    """
    vals = np.array([z.get(lab, 0.0) for lab in rows.labels], dtype=float)
    negative = np.flatnonzero(vals < -tol)
    if len(negative):
        raise NotFeasibleForLp3(f"negative column {rows.labels[negative[0]]}")
    loads = np.bincount(rows.row, rows.coef * vals[rows.col], len(rows.rhs))
    worst = float((loads - rows.rhs).max(initial=0.0))
    if worst > tol:
        raise NotFeasibleForLp3(f"row violation {worst:.3e}")
    return worst


def repair_blocks(z, instance: CspInstance, eps_reset: float, variables, constraint_ids):
    """The block-reset rule on stage-2 values, read through `z(label)`.

    A variable whose pair sum x + xbar falls at least eps_reset below one
    at some value is reset to the uniform marginal; any other variable gets
    the marginal 1 - x, clipped at zero.  A listed constraint touching a
    reset variable gets the product of the (normalized) marginals of its
    distinct variables as its table, a genuine distribution; the others
    keep their mu values, clipped at zero.  Only the entries these need are
    read.  Returns ({v: marginal}, {cid: table}, reset variables).
    """
    q = instance.q
    marginals, reset = {}, set()
    for v in variables:
        xs = [z(("x", v, a)) for a in range(q)]
        if any(1.0 - x - z(("xbar", v, a)) >= eps_reset for a, x in enumerate(xs)):
            reset.add(v)
            marginals[v] = np.full(q, 1.0 / q)
        else:
            marginals[v] = np.clip(1.0 - np.array(xs), 0.0, None)
    tables = {}
    for cid in constraint_ids:
        c = instance.constraints[cid]
        dv = c.distinct_vars()
        if reset.intersection(dv):
            factors = [marginals[v] / marginals[v].sum() for v in dv]
            table = [float(np.prod([f[b] for f, b in zip(factors, beta)]))
                     for beta in mu_assignments(instance, c)]
        else:
            table = [z(("mu", cid, beta)) for beta in mu_assignments(instance, c)]
        tables[cid] = np.clip(np.array(table, dtype=float), 0.0, None)
    return marginals, tables, reset


def restore_and_repair(instance: CspInstance, z: dict, params: PipelineParams,
                       lp3: LinearProgram | None = None):
    """Map a feasible stage-2 vector to basic coordinates and patch drifted blocks.

    `repair_blocks` over the whole instance: blocks whose pair sums drift are
    reset to the uniform marginal and every local table touching one is
    rebuilt as a product distribution.  z is first checked against the
    stage-2 rows, those of `lp3` when it is given.  Returns (LpSolution, report).
    """
    rows = packing_rows(instance, params) if lp3 is None else PackingRows.of(lp3)
    check_lp3_feasible(rows, z)
    q, n = instance.q, instance.n
    eps2 = params.eps_reset
    marginals, mu, reset_vars = repair_blocks(lambda lab: z.get(lab, 0.0), instance, eps2,
                                              range(n), range(len(instance.constraints)))
    x = np.array([marginals[v] for v in range(n)]).reshape(n, q)
    reset_tables = [cid for cid, c in enumerate(instance.constraints)
                    if reset_vars.intersection(c.distinct_vars())]

    sol = LpSolution(x, mu, value_of(instance, x, mu))
    measured = infeasibility(instance, sol)
    s = instance.s
    bound = max(
        params.epsilon + q * eps2,
        params.epsilon + eps2 * (q ** (s - 1) + 1),
        2 * max(s - 1, 1) * (params.epsilon + q * eps2),
    )
    report = {
        "reset_variables": sorted(reset_vars),
        "reset_tables": reset_tables,
        "measured_infeasibility": float(measured),
        "infeasibility_bound": float(bound),
        "value": sol.value,
    }
    return sol, report
