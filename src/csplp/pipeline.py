"""Transformation chain from the basic relaxation to a restricted packing LP.

Stage 1 substitutes x <- 1 - x and relaxes every equality by eps (the "x"
columns of the stage-1/2 programs therefore live in complement coordinates).
Stage 2 adds a complement column for every column, couples each pair by
z + zbar <= 1, keeps only the <= halves, and puts a large reward C on every
column so optimal pairs sum to one.  Stage 3 rescales variables by their
objective coefficient and rows by fixed multipliers so the objective is
1^T z and every nonzero matrix entry is at least one.

Stages 1 and 2 are `lp.LinearProgram`s composed over `lp.marginal_rows`,
as the basic LP is; each writes every marginal row twice (its two bands, or
its x/mu and xbar/mubar halves) through `lp.interleaved`.  `packing_rows` is
the one builder of the stage-2 program, over a (variables, constraints)
subset: the whole instance for `to_packing`, one component for
`exact_packing_optimum`, one ball for the local oracle.  `restricted` is the
one stage-3 scaling on top of it, and `PackingProgram` the one stage-3 form:
flat (row, col, coef) arrays from which the statistics, the exact solve and
the local dynamics (`localsolve.PackingDynamics` subclasses it) are all
computed.  `check_lp3_feasible` checks a stage-2 vector against the stage-2
rows before scaling.

restore_and_repair walks back: it maps a feasible stage-2 vector to basic
coordinates through `repair_blocks`, the block-reset rule the local oracle
applies per query too: any variable block whose pair sums drift is reset and
the affected local tables are rebuilt as product distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .csp import CspInstance, connected_components
from .errors import NotFeasibleForLp3
from .lp import (
    LinearProgram,
    LpSolution,
    check_tableau_size,
    infeasibility,
    interleaved,
    marginal_rows,
    mu_assignments,
    value_of,
)


@dataclass(frozen=True)
class PipelineParams:
    """Relaxation slack eps and the model parameters; every hidden constant derives from them.

    The reward is C = q^(2s) (t w)^2 / eps^2, above 16 w^2 since eps < 1/2,
    and the block-reset threshold of `repair_blocks` is eps itself.  The
    local oracle's round count reads `epsilon` too.
    """

    epsilon: float
    q: int
    s: int
    t: int
    w: float

    @classmethod
    def for_instance(cls, instance: CspInstance, epsilon: float) -> "PipelineParams":
        if not (0.0 < epsilon < 0.5):
            raise ValueError("epsilon must lie in (0, 1/2)")
        return cls(epsilon, instance.q, instance.s, instance.t, float(instance.w))

    @property
    def C(self) -> float:
        """The reward on every packing column."""
        return float(self.q ** (2 * self.s) * (self.t * self.w) ** 2 / self.epsilon ** 2)


def relax_basic_lp(instance: CspInstance, epsilon: float) -> LinearProgram:
    """Stage 1: complemented marginals, equalities relaxed to +-eps bands.

    Columns additionally carry the unit box (explicit <= 1 rows): the
    complement substitution of stage 2 needs every value to stay a
    probability, and without the box the eps slack would let single table
    entries grow past one, breaking the exact value shift between stages.
    """
    if not (0.0 < epsilon < 0.5):
        raise ValueError("epsilon must lie in (0, 1/2)")
    n, q = instance.n, instance.q
    m = marginal_rows(instance)
    labels = m.x_labels + m.mu_labels
    nx, nmarg, ncols = n * q, len(m.tags), len(labels)
    # every norm and marginal row twice: its <= half, then its >= half
    cols = np.concatenate([np.arange(nx), m.col])
    row, col = interleaved(np.concatenate([np.repeat(np.arange(n), q), n + m.row]), cols, cols)
    return LinearProgram(
        labels, np.concatenate([np.zeros(nx), m.mu_objective]),
        [(kind, v) for v in range(n) for kind in ("norm_hi", "norm_lo")]
        + [(kind,) + tag for tag in m.tags for kind in ("marg_hi", "marg_lo")]
        + [("box",) + label for label in labels],
        ["<=", ">="] * (n + nmarg) + ["<="] * ncols,
        np.concatenate([np.tile([q - 1 + epsilon, q - 1 - epsilon], n),
                        np.tile([1 + epsilon, 1 - epsilon], nmarg), np.ones(ncols)]),
        np.concatenate([row, 2 * (n + nmarg) + np.arange(ncols)]),
        np.concatenate([col, np.arange(ncols)]), np.ones(len(row) + ncols))


def to_packing(instance: CspInstance, params: PipelineParams) -> PackingRows:
    """Stage 2: complement columns, <=-only rows, reward C on every column."""
    return packing_rows(instance, params)


@dataclass
class PackingRows(LinearProgram):
    """A stage-2 program with the mask of its r3 and r6 rows, the rows `restricted` boosts."""

    boosted: np.ndarray       # per row


def packing_rows(instance: CspInstance, params: PipelineParams, variables=None,
                 constraint_ids=None) -> PackingRows:
    """The stage-2 packing program restricted to a subset; the whole instance by default.

    This is the only place packing rows are written: `to_packing`,
    `exact_packing_optimum` (per component) and the local oracle's ball
    program (per ball) all read it.  Every distinct variable of a listed
    constraint must be listed.  Column blocks are x, xbar, mu, mubar; rows
    come as r1, r2, r3/r4 (the two halves of each marginal row), r5, r6,
    all of them <= rows; the r3 and r6 rows are marked `boosted`.
    """
    q, C, eps = instance.q, params.C, params.epsilon
    m = marginal_rows(instance, variables, constraint_ids)
    nx, nmu, nmarg = len(m.x_labels), len(m.mu_labels), len(m.tags)
    vs = [label[1] for label in m.x_labels[::q]]
    nv, is_mu = len(vs), m.col >= nx
    row34, col34 = interleaved(m.row, m.col + nx * is_mu, m.col + nx + nmu * is_mu)
    # r5 and r6 pair every x and mu column with its complement
    first = np.concatenate([np.arange(nx), 2 * nx + np.arange(nmu)])
    second = first + np.repeat([nx, nmu], [nx, nmu])
    n12, n34 = 2 * nv, 2 * nmarg
    row = np.concatenate([np.repeat(np.arange(n12), q), n12 + row34,
                          np.repeat(n12 + n34 + np.arange(nx + nmu), 2)])
    col = np.concatenate([np.arange(2 * nx), col34, np.stack([first, second], 1).ravel()])
    rhs34 = np.stack([np.full(nmarg, 1 + eps), m.mu_count + eps], 1).ravel()
    rhs = np.concatenate([np.full(nv, q - 1 + eps), np.full(nv, 1 + eps), rhs34,
                          np.ones(nx + nmu)])
    labels = m.x_labels + [("xbar",) + label[1:] for label in m.x_labels]
    labels += m.mu_labels + [("mubar",) + label[1:] for label in m.mu_labels]
    tags = [(kind, v) for kind in ("r1", "r2") for v in vs]
    tags += [(kind,) + tag for tag in m.tags for kind in ("r3", "r4")]
    tags += [("r5",) + label[1:] for label in m.x_labels]
    tags += [("r6",) + label[1:] for label in m.mu_labels]
    reward = np.concatenate([np.full(2 * nx, C), m.mu_objective + C, np.full(nmu, C)])
    boosted = np.concatenate([np.zeros(n12, dtype=bool), np.tile([True, False], nmarg),
                              np.zeros(nx, dtype=bool), np.ones(nmu, dtype=bool)])
    return PackingRows(labels, reward, tags, ["<="] * len(rhs), rhs, row, col,
                       np.ones(len(col)), boosted)


def restricted(lp3: PackingRows, params: PipelineParams):
    """Stage 3 of a stage-2 program: scale columns by reward, rows to coefficient floor one.

    Rows carrying objective-bearing table columns (r3, r6) are multiplied
    by (w + C), the remaining rows by C; combined with dividing each
    column by its stage-2 objective coefficient this makes every
    surviving coefficient >= 1 while the objective becomes the plain sum
    of the scaled columns.  Returns (coefficient per entry, rhs per row).
    """
    mult = np.where(lp3.boosted, params.w + params.C, params.C)
    return lp3.coef * mult[lp3.row] / lp3.objective[lp3.col], lp3.rhs * mult


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
        ends = np.cumsum(np.bincount(self.row, minlength=self.num_rows)).tolist()
        return [(self.col[a:b], self.coef[a:b]) for a, b in zip([0] + ends, ends)]

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
        check_tableau_size(self.num_rows, self.num_cols)
        A = np.zeros((self.num_rows, self.num_cols))
        A[self.row, self.col] = self.coef
        z, value = simplex.solve(self.b, A, ["<="] * self.num_rows, self.c)
        return value, z


def normalize_packing(lp3: PackingRows, params: PipelineParams) -> PackingProgram:
    """Stage 3 of a stage-2 program: the `restricted` scaling."""
    return PackingProgram(lp3.labels, lp3.tags, lp3.row, lp3.col, *restricted(lp3, params),
                          lp3.objective)


def exact_packing_optimum(instance: CspInstance, params: PipelineParams) -> float:
    """Optimum of the restricted packing program, solved per component."""
    total = 0.0
    for vs, cids in connected_components(instance):
        value, _ = normalize_packing(packing_rows(instance, params, vs, cids),
                                     params).solve_exact()
        total += value
    return total


# --- the restore-and-repair step ----------------------------------------------

LP3_TOL = 1e-7  # slack `check_lp3_feasible` allows on columns and rows


def check_lp3_feasible(lp3: LinearProgram, z: dict) -> float:
    """Largest row excess of the stage-2 vector z (missing labels read 0).

    Raises NotFeasibleForLp3 on a column below -LP3_TOL or an excess above it.
    """
    vals = np.array([z.get(lab, 0.0) for lab in lp3.labels], dtype=float)
    negative = np.flatnonzero(vals < -LP3_TOL)
    if len(negative):
        raise NotFeasibleForLp3(f"negative column {lp3.labels[negative[0]]}")
    loads = np.bincount(lp3.row, lp3.coef * vals[lp3.col], len(lp3.rhs))
    worst = float((loads - lp3.rhs).max(initial=0.0))
    if worst > LP3_TOL:
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
    check_lp3_feasible(packing_rows(instance, params) if lp3 is None else lp3, z)
    q, n, eps = instance.q, instance.n, params.epsilon
    marginals, mu, reset_vars = repair_blocks(lambda lab: z.get(lab, 0.0), instance, eps,
                                              range(n), range(len(instance.constraints)))
    x = np.array([marginals[v] for v in range(n)]).reshape(n, q)
    reset_tables = [cid for cid, c in enumerate(instance.constraints)
                    if reset_vars.intersection(c.distinct_vars())]

    sol = LpSolution(x, mu, value_of(instance, x, mu))
    measured = infeasibility(instance, sol)
    s = instance.s
    bound = max(
        eps + q * eps,
        eps + eps * (q ** (s - 1) + 1),
        2 * max(s - 1, 1) * (eps + q * eps),
    )
    report = {
        "reset_variables": sorted(reset_vars),
        "reset_tables": reset_tables,
        "measured_infeasibility": float(measured),
        "infeasibility_bound": float(bound),
        "value": sol.value,
    }
    return sol, report
