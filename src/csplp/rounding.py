"""Rounding an LP-oracle solution into an actual assignment.

The scheme buckets variables by their discretized marginal vectors, folds
the instance along those buckets, enumerates every combination of per-bucket
rules, estimates each one's value by sampling, and keeps the argmax.

A bucket's rules are the q constants.  A bucket that holds two distinct
variables of one constraint, and whose discretized marginal is not a point
mass, also gets the draw rule: each of its variables draws its value
independently from the bucket's normalized discretized marginal, with the
uniform taken from (seed, variable).  The LP's tables are over distinct
variables, so folding such a bucket onto itself loses the LP value (the
triangle folds to three self-loops with LP value 0); independent positions
are what keeps the original tables valid for the folded constraint.  Where
no bucket shares a constraint the value is multilinear in each bucket's
distribution and the constants are optimal, so only they are enumerated.
Per-variable answers cost nothing beyond the bucket lookup and, for a draw,
one seeded uniform.

The number of folded assignments is gated by ASSIGNMENT_BUDGET: the
guarantee rests on full enumeration, so an oversized fold is a hard error
rather than a silent fallback to sampling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .csp import ConstraintOracle, CspInstance, RevealMemo, sum_estimator
from .errors import FoldTooLarge

ASSIGNMENT_BUDGET = 2 ** 20  # most folded assignments `round_assignment` enumerates


def adjust_epsilon(eps: float) -> float:
    """Decrease eps slightly until 1/eps is an integer."""
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    return 1.0 / math.ceil(1.0 / eps)


def _check_grid(eps: float):
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-9:
        raise ValueError(f"1/eps must be an integer; got eps={eps}")


def grid_coords(x, eps: float) -> np.ndarray:
    """The grid rule: integer coordinates k of x rounded up to k*eps.

    Nonpositive entries map to 0, others to the smallest k with
    (k-1)*eps < x <= k*eps.  Monotone, idempotent on its own image, and
    x <= k*eps < x + eps for positive x.
    """
    _check_grid(eps)
    x = np.asarray(x, dtype=float)
    # the 1e-9 nudge keeps exact grid points in place under float division
    return np.where(x <= 0.0, 0, np.ceil(x / eps - 1e-9)).astype(np.int64)


@dataclass
class FoldingMap:
    """Variable -> bucket assignment induced by discretized marginals."""

    keys: list[tuple[int, ...]]          # per variable, its grid coordinates
    buckets: dict[tuple[int, ...], int]  # key -> dense bucket id
    _draws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def bucket_count(self) -> int:
        return len(self.buckets)

    def bucket_of(self, v: int) -> int:
        return self.buckets[self.keys[v]]

    def draw(self, v: int, seed: int) -> int:
        """Value of v drawn from its bucket's normalized discretized marginal.

        The uniform comes from (seed, v) alone, so the answer repeats and
        needs no oracle query; it is drawn once per map and (seed, v).
        """
        if (seed, v) not in self._draws:
            key = self.keys[v]
            u = np.random.default_rng([seed, v]).random() * sum(key)
            acc = 0
            for a, k in enumerate(key):
                acc += k
                if u < acc:
                    self._draws[seed, v] = a
                    break
            else:
                raise ValueError(f"variable {v} has an all-zero marginal")
        return self._draws[seed, v]


def fold_map(x: np.ndarray, eps: float) -> FoldingMap:
    """Bucket variables with identical discretized marginal vectors.

    Bucket ids are dense, assigned in first-occurrence order over variable
    ids, so the map is deterministic.
    """
    keys = [tuple(row) for row in grid_coords(x, eps).tolist()]
    buckets: dict[tuple[int, ...], int] = {}
    for key in keys:
        if key not in buckets:
            buckets[key] = len(buckets)
    return FoldingMap(keys, buckets)


DRAW = "draw"  # bucket rule: every variable draws from the bucket's marginal


def unfold_value(fm: FoldingMap, folded_beta, v: int, draw_seed: int | None = None) -> int:
    """Value of v under per-bucket rules: a constant, or DRAW with draw_seed."""
    rule = folded_beta[fm.bucket_of(v)]
    return fm.draw(v, draw_seed) if rule == DRAW else int(rule)


def shared_buckets(slots: SlotScan, fm: FoldingMap) -> set[int]:
    """Buckets that get the draw rule.

    These hold two distinct variables of one constraint and have a
    discretized marginal with at least two nonzero values.  Constraint ids
    come from `slots`, the scan every candidate's estimate reads, and a
    bucket's check stops at its first shared constraint.
    """
    inst = slots.instance
    spread = {b for key, b in fm.buckets.items() if sum(1 for k in key if k) > 1}
    shared: set[int] = set()
    for v, cids in enumerate(slots.cids):
        b = fm.bucket_of(v)
        if b not in spread or b in shared:
            continue
        if any(u != v and fm.bucket_of(u) == b
               for cid in cids for u in inst.constraints[cid].distinct_vars()):
            shared.add(b)
    return shared


# --- value estimation ---------------------------------------------------------

class SlotScan:
    """Every variable's constraint ids in slot order, read through `oracle`.

    The scan runs on the first read of `cids`, so its queries are metered
    there, and it stops at each variable's first empty slot.  One scan
    serves the bucket check and every candidate estimated over it.
    """

    def __init__(self, oracle: ConstraintOracle):
        self.oracle = oracle
        self.instance = oracle.instance

    @cached_property
    def cids(self) -> list[list[int]]:
        ask, t = self.oracle.query, self.instance.t
        return [list(itertools.takewhile(lambda cid: cid is not None,
                                         (ask(v, i) for i in range(1, t + 1))))
                for v in range(self.instance.n)]


def per_variable_shares(slots: SlotScan, fm: FoldingMap, folded_beta,
                        draw_seed: int | None = None):
    """f[v] = sum over constraints containing v of w * P(beta) / #distinct vars.

    The assignment is read through the folding map (DRAW rules with
    draw_seed); each variable's constraints come from `slots`, in slot
    order.  Summing f over variables gives the exact value of the unfolded
    assignment.
    """
    inst = slots.instance
    values = [unfold_value(fm, folded_beta, v, draw_seed) for v in range(inst.n)]
    f = np.zeros(inst.n)
    share: dict[int, float] = {}
    for v, cids in enumerate(slots.cids):
        for cid in cids:
            if cid not in share:
                c = inst.constraints[cid]
                sat = inst.predicates[c.predicate].value(
                    [values[u] for u in c.scope], inst.q)
                share[cid] = c.weight * sat / len(c.distinct_vars())
            f[v] += share[cid]
    return f


def estimate_assignment_value(slots: SlotScan, fm: FoldingMap, folded_beta,
                              eps: float, delta: float, seed: int,
                              draw_seed: int | None = None) -> float:
    """Sampled value of the unfolded assignment, within eps*n/2 w.p. 1-delta."""
    inst = slots.instance
    f = per_variable_shares(slots, fm, folded_beta, draw_seed)
    bound = inst.t * inst.w
    return sum_estimator(f, inst.n, bound, eps / 2.0, delta, seed)


# --- the rounding scheme --------------------------------------------------------

@dataclass
class RoundingResult:
    estimate: float
    folded_assignment: tuple[int, ...] | None
    fold: FoldingMap | None
    transcript: list          # (assignment, estimate, new slots revealed for it)
    short_circuited: bool = False
    draw_seed: int | None = None

    def assignment_query(self, v: int) -> int:
        """Value of variable v under the committed rule of its bucket."""
        if self.short_circuited:
            return 0
        return unfold_value(self.fold, self.folded_assignment, v, self.draw_seed)

    def full_assignment(self, n: int) -> np.ndarray:
        return np.array([self.assignment_query(v) for v in range(n)], dtype=np.int64)


def default_fold_eps(instance: CspInstance, epsilon: float) -> float:
    """Internal discretization schedule eps^2 / poly(q, s, t, w)."""
    poly = instance.q ** instance.s * instance.s * instance.t * instance.w * 8.0
    return adjust_epsilon(epsilon ** 2 / poly)


def round_assignment(oracle: ConstraintOracle, lp_oracle, epsilon: float,
                     seed: int) -> RoundingResult:
    """Enumerate per-bucket rules, estimate each combination, commit to the argmax.

    Every bucket takes the q constants; a bucket from `shared_buckets` also
    takes DRAW, under which each of its variables v draws its value from the
    bucket's normalized discretized marginal with the uniform from (seed, v).
    The N combinations are gated by ASSIGNMENT_BUDGET, and the fold's
    discretization is `default_fold_eps`.  Per-combination estimation budgets
    its failure probability as 1/(3 N), so the union over all of them
    succeeds with probability at least 2/3.  When the total weight is
    below epsilon * n any answer is within the additive slack already; we
    return a flagged zero-estimate result.

    Counted queries are distinct reveals per trial, the LP oracle's too:
    one `RevealMemo` over the base oracle serves the `lp_oracle.query_many`
    call for the n*q marginals, then the `SlotScan` of the bucket check
    and every candidate.  Each variable anchors a ball search that reads
    its slots up to the first empty one, so the scan reveals nothing new
    and a trial pays each slot once.  The transcript's query column counts
    each candidate's new reveals.
    """
    inst = oracle.instance
    if inst.total_weight < epsilon * inst.n or inst.n == 0:
        return RoundingResult(0.0, None, None, [], short_circuited=True)

    q = inst.q
    memo = RevealMemo(oracle)
    values, _ = lp_oracle.query_many([("x", v, a) for v in range(inst.n) for a in range(q)], memo)
    x = np.array(values).reshape(inst.n, q)
    fm = fold_map(x, default_fold_eps(inst, epsilon))

    slots = SlotScan(memo)
    shared = shared_buckets(slots, fm)
    rules = [tuple(range(q)) + ((DRAW,) if b in shared else ())
             for b in range(fm.bucket_count)]
    count = math.prod(len(r) for r in rules)
    if count > ASSIGNMENT_BUDGET:
        raise FoldTooLarge(f"{count} folded assignments exceed budget {ASSIGNMENT_BUDGET}")
    delta = 1.0 / (3.0 * count)

    rng = np.random.default_rng(seed)
    transcript = []
    best_beta, best_est = None, -math.inf
    for beta in itertools.product(*rules):
        sub_seed = int(rng.integers(0, 2 ** 62))
        before = oracle.query_count
        est = estimate_assignment_value(slots, fm, beta, epsilon, delta, sub_seed, seed)
        transcript.append((beta, est, oracle.query_count - before))
        if est > best_est:
            best_beta, best_est = beta, est
    return RoundingResult(best_est, best_beta, fm, transcript, draw_seed=seed)


# --- satisfiability tester ------------------------------------------------------

TESTER_DELTA_PRESETS = {
    # families whose LP value curve stays close to one near satisfiability;
    # the modulus is a per-family input, these are shipped defaults
    "horn-sat": lambda eps: eps / 4.0,
    # max-2sat's curve drops to 1/2 at the top: no constant-query tester exists
    "max-2sat": None,
}


def tester_threshold(instance: CspInstance, epsilon: float) -> float:
    return (1.0 - epsilon / 2.0) * instance.total_weight \
        - epsilon * instance.t * instance.w * instance.n / 2.0


def test_satisfiability(oracle: ConstraintOracle, lp_oracle, epsilon: float,
                        delta: float, seed: int) -> bool:
    """Accept when the rounded estimate clears the separation threshold.

    `delta` is the family-specific modulus: the rounding scheme runs at
    min(epsilon/2, delta).  Instances far from satisfiability lose at least
    epsilon * t * w * n weight under every assignment, which pins their
    estimates below the threshold.
    """
    inst = oracle.instance
    eps_run = min(epsilon / 2.0, delta)
    result = round_assignment(oracle, lp_oracle, eps_run, seed)
    if result.short_circuited:
        # negligible total weight: nothing measurable can be far
        return True
    return result.estimate > tester_threshold(inst, epsilon)
