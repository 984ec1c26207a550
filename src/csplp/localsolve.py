"""Per-query local simulation of a round-limited packing solver.

A query names one column of the restricted packing program.  We explore the
constraint structure around the column's anchor variables out to a fixed
radius using only (variable, index) oracle accesses, build the packing
program on that ball with the same builder and scaling as the whole-instance
program (`pipeline.packing_rows` over the ball's variables and constraints),
and run the round-limited dynamics there.  Values of columns whose own
radius-r neighbourhood is contained in the ball come out exactly as a global
run would produce them, which is what makes the assembled vector feasible:
every column is scaled against the true load of every row it appears in.
Repaired basic-coordinate values go through `pipeline.repair_blocks`, the
same block-reset rule `restore_and_repair` applies to a global vector.

The dynamics are a two-phase rule:

  phase 1 (r rounds)   multiplicative ascent.  Start each column at
      min_j c_j / (a_ji * Gamma_d); each round every row reports its
      relative slack (c_j - load_j) / c_j and every column multiplies
      itself by 1 + eta * (its worst slack), clamped to [1, 1 + eta].

  phase 2 (one sweep)  guaranteed feasibility.  Each column scales by
      min over its rows of min(1, c_j / load_j), with the loads taken at
      the phase-1 values.  Whatever phase 1 did, the assembled global
      vector now satisfies every row.

Approximation quality is a measured property, not a proved one; the
acceptance suite tracks it against exact solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from .csp import ConstraintOracle, CspInstance, RevealMemo
from .lp import LpSolution, marginal_rows
from .pipeline import PackingProgram, PipelineParams, packing_rows, repair_blocks, restricted


@dataclass(frozen=True)
class LocalSolverParams:
    """Round budget of the local dynamics; the step size eta is fixed."""

    eta: ClassVar[float] = 0.25
    rounds_cap: int = 64

    def __post_init__(self):
        if self.rounds_cap < 1:
            raise ValueError(f"rounds_cap must be at least 1, got {self.rounds_cap}")

    def rounds(self, epsilon: float, gamma_p: float, gamma_d: float) -> int:
        """log Gamma_p * log Gamma_d / eps^4 rounds, capped; eps is the pipeline's."""
        raw = math.log(max(gamma_p, 2.0)) * math.log(max(gamma_d, 2.0))
        raw /= epsilon ** 4
        return min(self.rounds_cap, int(math.ceil(raw)))


def analytic_gamma_bounds(pp: PipelineParams):
    """Upper bounds on the packing statistics from the model parameters only.

    The local simulation may not scan the instance, so the round count and
    the ascent's starting point use these closed forms instead of the built
    matrix.  Overestimates are safe on both counts.
    """
    q, s, t, w, C, eps = pp.q, pp.s, pp.t, pp.w, pp.C, pp.epsilon
    ratio = (w + C) / C
    gamma_d = max(2.0 + t * ratio, 2.0 + t, (s + 1.0) * ratio, s + ratio)
    c_max = max(C * (q - 1 + eps), C * (1 + eps), (1 + eps) * (w + C),
                C * (q ** (s - 1) + eps), C, w + C)
    per_row = [
        (q, C * (q - 1 + eps)),
        (q, C * (1 + eps)),
        (ratio * (1 + q ** (s - 1)), (1 + eps) * (w + C)),
        (1 + q ** (s - 1), C * (1 + eps)),
        (2, C),
        (2 * ratio, w + C),
    ]
    gamma_p = max(c_max * colsum / rhs for colsum, rhs in per_row)
    return gamma_p, gamma_d


# --- ball exploration ---------------------------------------------------------

class CommGraphView:
    """Everything `build_ball` discovered within its radius of the seed set.

    `scanned` holds variables whose full index list was read, up to the
    first empty slot (min(t, deg(v) + 1) queries each, memoized);
    `known_vars` additionally contains scope members at the boundary.
    `constraints` maps revealed constraint ids to their data.  `level` is
    the BFS level of each scanned variable (the anchors are level 0) and
    `depth` the deepest level.  `closed` says the frontier emptied within
    the radius: every known variable was scanned, so the ball is the whole
    component of its anchors.  `queries` is the number of questions the
    search asked, which is what it costs on a fresh oracle.
    """

    def __init__(self):
        self.scanned: set[int] = set()
        self.known_vars: set[int] = set()
        self.constraints: dict[int, object] = {}
        self.level: dict[int, int] = {}
        self.depth = 0
        self.closed = False
        self.queries = 0


def build_ball(oracle: ConstraintOracle, center, radius: int) -> CommGraphView:
    """BFS over the communication structure; ascending-id exploration order.

    Slot lists are gap-free (`build_instance`), so a variable's scan stops
    at its first empty slot.
    """
    inst = oracle.instance
    view = CommGraphView()
    kind = center[0]
    if kind in ("x", "xbar"):
        frontier = [center[1]]
    elif kind in ("mu", "mubar"):
        view.queries = 1  # the anchor constraint's payload
        frontier = sorted(oracle.constraint(center[1]).distinct_vars())
    else:
        raise ValueError(f"unknown column name {center}")
    view.known_vars.update(frontier)
    for depth in range(radius + 1):
        view.depth = depth
        next_frontier: set[int] = set()
        for v in frontier:
            if v in view.scanned:
                continue
            view.scanned.add(v)
            view.level[v] = depth
            for i in range(1, inst.t + 1):
                view.queries += 1
                cid = oracle.query(v, i)
                if cid is None:
                    break
                if cid in view.constraints:
                    continue
                c = inst.constraints[cid]  # payload of the answer just given
                view.constraints[cid] = c
                for u in c.distinct_vars():
                    if u not in view.known_vars:
                        next_frontier.add(u)
                    view.known_vars.add(u)
        if not next_frontier:
            view.closed = True
            break
        frontier = sorted(next_frontier)
    return view


# --- packing data inside a ball ----------------------------------------------

class PackingDynamics(PackingProgram):
    """The two-phase rule on a restricted packing program."""

    def __init__(self, labels, row_cols, row_coefs, rhs):
        super().__init__(list(labels), [None] * len(rhs),
                         np.repeat(np.arange(len(rhs)), [len(cols) for cols in row_cols]),
                         np.concatenate(row_cols), np.concatenate(row_coefs),
                         np.asarray(rhs, dtype=np.float64), np.ones(len(labels)))

    def initial_point(self, gamma_d: float) -> np.ndarray:
        z0 = np.full(self.num_cols, np.inf)
        np.minimum.at(z0, self.col, self.c[self.row] / (self.coef * gamma_d))
        return z0

    def ascend(self, z: np.ndarray, rounds: int, eta: float) -> np.ndarray:
        z = z.copy()
        padded = np.full(self.num_rows + 1, np.inf)  # slack per row, then inf
        slack = padded[:-1]
        for _ in range(rounds):
            np.subtract(self.c, self.loads(z), out=slack)
            slack /= self.c
            step = self._column_min(padded)
            step *= eta
            step += 1.0
            z *= np.minimum(np.maximum(step, 1.0, out=step), 1.0 + eta, out=step)
        return z

    def rescale_feasible(self, z: np.ndarray) -> np.ndarray:
        """Phase-2 column scaling against the phase-1 loads."""
        caps = np.minimum(1.0, self.c / self.loads(z))
        return z * self._column_min(np.append(caps, 1.0))

    @cached_property
    def _rows_by_column(self) -> np.ndarray:
        """Row index table, (most entries of one column) x columns: slot k of a
        column holds the row of its k-th entry, or `num_rows` past its last."""
        counts = np.bincount(self.col, minlength=self.num_cols)
        order = np.argsort(self.col, kind="stable")
        slot = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        table = np.full((counts.max(initial=0), self.num_cols), self.num_rows)
        table[slot, self.col[order]] = self.row[order]
        return table

    def _column_min(self, padded: np.ndarray) -> np.ndarray:
        """Per column, the least of `padded[-1]` and `padded` over the column's rows.

        A minimum is exact in any order, so this is `np.minimum.at` over the
        entries from `padded[-1]`, as one gather and one reduction.
        """
        return padded[self._rows_by_column].min(axis=0, initial=padded[-1])


class BallProgram(PackingDynamics):
    """The restricted packing program restricted to a ball.

    `pipeline.packing_rows` over the view's variables and constraints, scaled
    by the stage-3 rule of the whole-instance program, so its entries agree
    exactly with what the whole-instance builder produces.
    """

    def __init__(self, view: CommGraphView, inst: CspInstance, pp: PipelineParams):
        lp3 = packing_rows(inst, pp, sorted(view.known_vars), sorted(view.constraints))
        PackingProgram.__init__(self, lp3.labels, lp3.tags, lp3.row, lp3.col,
                                *restricted(lp3, pp), lp3.objective)

    @property
    def labels(self) -> list:
        """`col_labels` under the name perfbench's ball probe reads."""
        return self.col_labels


# --- the oracle ----------------------------------------------------------------

class LpOracle:
    """Constant-radius access to a near-optimal solution of the basic relaxation.

    Each query explores its own ball, runs the two-phase dynamics, undoes the
    packing scalings and applies the block-reset repair.  Across calls the
    oracle keeps only the underlying query counter and `last_query_cost`, the
    query cost of the latest `query` or `packing_value`.  Counted queries
    are distinct reveals per call: within one `query_many` call a slot or
    payload already revealed is read from memory, while each name's
    reported cost is still its stand-alone ball cost; a caller's own memo
    passed to `query_many` shares its reveals.  Within one call a ball that
    is a whole component is explored once for the x names whose own ball
    provably equals it, and all such balls share one dynamics run (see
    `query_many`); nothing is kept between calls.  Output values are in
    basic coordinates: marginals of unreset blocks are 1 - x_stage2, reset
    blocks are uniform, and tables touching a reset block become product
    distributions.
    """

    def __init__(self, oracle: ConstraintOracle, pipeline: PipelineParams,
                 solver: LocalSolverParams | None = None):
        self.oracle = oracle
        self.pipeline = pipeline
        self.solver = solver or LocalSolverParams()
        gamma_p, self.gamma_d_bound = analytic_gamma_bounds(pipeline)
        self.rounds = self.solver.rounds(pipeline.epsilon, gamma_p, self.gamma_d_bound)
        self.last_query_cost = 0

    # -- raw packing access --

    def packing_value(self, label) -> float:
        """Phase-2 value of one packing column (its ball only)."""
        view = build_ball(self.oracle, label, self.rounds + 1)
        prog, z2 = self._solve(view)
        self.last_query_cost = view.queries
        return float(z2[prog.col_labels.index(label)])

    def _solve(self, view: CommGraphView):
        """The ball's program and its phase-2 vector."""
        prog = BallProgram(view, self.oracle.instance, self.pipeline)
        z1 = prog.ascend(prog.initial_point(self.gamma_d_bound), self.rounds, self.solver.eta)
        return prog, prog.rescale_feasible(z1)

    # -- repaired basic-coordinate access --

    def query(self, name) -> float:
        values, costs = self.query_many([name])
        self.last_query_cost = costs[0]
        return values[0]

    def query_many(self, names, memo=None) -> tuple[list[float], list[int]]:
        """Repaired values of `names`, in order, and each name's query cost.

        Values and costs are exactly those of `query` called once per name:
        a name's cost is what its ball costs on its own.  Every ball search
        reads through one `RevealMemo` (the caller's `memo`, over a handle
        on the same instance, or else a new one over `self.oracle`), whose
        handle pays once per distinct slot and payload.  Consecutive names
        with the same anchor (the variable of an x name, the constraint of a
        mu name) share one ball.

        A closed ball is its anchors' whole component.  An x name whose
        variable sits at level d of a closed x ball of depth E, with
        d + E within its own radius, would explore that same component and
        ask the same questions, so it reuses the ball and the ball's recorded
        question count without a BFS.  Every name with a
        closed ball is answered after the loop from one program over the
        union of the call's closed components, with one dynamics run; the
        union is the whole-instance program restricted to those
        components, so the values are unchanged.  Open balls are solved
        one at a time, and consecutive open balls holding the same
        variables and constraints share one solved program.  Each solved
        program repairs a variable block or a mu table once, and its names
        read their entries from that one result.  The call thus holds at
        most the instance's program plus one open ball, and all of it ends
        with the call.
        """
        memo = RevealMemo(self.oracle) if memo is None else memo
        if memo.instance is not self.oracle.instance:
            raise ValueError("memo reads another instance than this oracle's")
        values, costs, deferred = [None] * len(names), [], []
        whole = CommGraphView()   # union of the call's closed balls
        closed_x = {}             # variable -> a closed x ball scanning it
        anchor = key = view = None
        for pos, name in enumerate(names):
            kind = name[0]
            if kind not in ("x", "mu"):
                raise ValueError(f"unknown oracle name {name}")
            if name[:2] != anchor:
                anchor = name[:2]
                radius = self.rounds + (1 if kind == "x" else 2)
                ball = closed_x.get(name[1]) if kind == "x" else None
                if ball is not None and ball.level[name[1]] + ball.depth <= radius:
                    view = ball
                else:
                    view = build_ball(memo, name, radius)
                    if view.closed:
                        whole.known_vars |= view.known_vars
                        whole.constraints.update(view.constraints)
                        if kind == "x":
                            closed_x.update(dict.fromkeys(view.scanned, view))
                    else:
                        ball_key = (sorted(view.known_vars), sorted(view.constraints))
                        if ball_key != key:
                            key = ball_key
                            repaired = self._repairer(view)
            costs.append(view.queries)
            if view.closed:
                deferred.append(pos)
            else:
                values[pos] = repaired(name)
        if deferred:
            repaired = self._repairer(whole)
            for pos in deferred:
                values[pos] = repaired(names[pos])
        return values, costs

    def _repairer(self, view: CommGraphView):
        """Solve the view's program; return name -> repaired value over it.

        Each variable block and mu table is repaired once, on its first name.
        """
        inst, eps = self.oracle.instance, self.pipeline.epsilon
        prog, z2 = self._solve(view)
        blocks = {}

        def stage2(label):
            i = prog.index[label]
            return z2[i] / prog.col_scale[i]

        def repaired(name) -> float:
            kind, anchor, entry = name
            block = blocks.get((kind, anchor))
            if block is None:
                if kind == "x":
                    block = repair_blocks(stage2, inst, eps, [anchor], [])[0][anchor]
                else:
                    dv = inst.constraints[anchor].distinct_vars()
                    block = repair_blocks(stage2, inst, eps, dv, [anchor])[1][anchor]
                blocks[kind, anchor] = block
            if kind == "mu":
                entry = np.ravel_multi_index(entry, (inst.q,) * len(entry))
            return float(block[entry])

        return repaired


# --- whole-oracle materializers (test scale only) --------------------------------

def assemble_packing_vector(lp_oracle: LpOracle, instance: CspInstance) -> dict:
    """Query the phase-2 value of every packing column."""
    return {label: lp_oracle.packing_value(label)
            for label in packing_rows(instance, lp_oracle.pipeline).labels}


def assemble_global(lp_oracle: LpOracle, instance: CspInstance) -> LpSolution:
    """Read every repaired basic-coordinate value in one `query_many` call."""
    m = marginal_rows(instance)
    names = m.x_labels + m.mu_labels
    return LpSolution.from_columns(instance, dict(zip(names, lp_oracle.query_many(names)[0])))
