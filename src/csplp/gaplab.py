"""Blow-up distributions, lazy transcript processes, and collision probes.

Two instance distributions are built from a seed instance: one blows up
every constraint through uniform stub matchings (its optima concentrate near
the seed's), the other routes the matchings through the classes of an exact
LP solution so a planted assignment recovers the full LP value.  A lazy
process answers oracle queries while deferring the rest of the instance,
which is what the query-cost experiments drive.

Scopes of the seed instance must be repeat-free: the per-position matchings
assume each position owns its own variable block.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .csp import Constraint, CspInstance, build_instance
from .errors import ArityMismatch, InfeasibleSeedSolution, UnseenVariableQuery
from .lp import LpSolution, infeasibility, mu_assignments


def apportion(probs, N: int) -> np.ndarray:
    """Largest-remainder integer apportionment; ties to the lowest index."""
    probs = np.asarray(probs, dtype=float)
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {probs.sum()}")
    raw = probs * N
    base = np.floor(raw + 1e-12).astype(np.int64)
    leftover = N - int(base.sum())
    if leftover:
        remainders = raw - base
        order = sorted(range(len(probs)), key=lambda i: (-remainders[i], i))
        for i in order[:leftover]:
            base[i] += 1
    return base


def _check_blowup(instance: CspInstance, N: int, T: int):
    if any(len(set(c.scope)) != len(c.scope) for c in instance.constraints):
        raise ValueError("blow-up generators need repeat-free scopes")
    if N < 1 or T < 1:
        raise ValueError("blow-up sizes N and T must be at least 1")


@dataclass(frozen=True)
class GapParams:
    instance: CspInstance
    xstar: np.ndarray
    mustar: dict
    N: int
    T: int
    seed: int

    @classmethod
    def from_solution(cls, instance, sol: LpSolution, N, T, seed):
        return cls(instance, sol.x, sol.mu, int(N), int(T), int(seed))


@dataclass
class GapInstance:
    instance: CspInstance
    label_perm: np.ndarray
    alpha: np.ndarray | None = None


def _class_table(instance, cid, mu_flat, marginals, N):
    """Integer class sizes per local assignment, consistent with per-variable
    value counts.  Exact when mu * N is integral; otherwise floor-and-fill,
    which can stall on higher arities."""
    scope = instance.constraints[cid].scope
    betas = mu_assignments(instance, instance.constraints[cid])
    raw = np.asarray(mu_flat, dtype=float) * N
    ints = np.rint(raw)
    if np.max(np.abs(raw - ints)) < 1e-7:
        return ints.astype(np.int64)
    base = np.floor(raw + 1e-12).astype(np.int64)
    deficit = {}
    for pos, v in enumerate(scope):
        for a in range(instance.q):
            have = sum(int(base[i]) for i, b in enumerate(betas) if b[pos] == a)
            deficit[pos, a] = int(marginals[v][a]) - have
    remainders = raw - base
    order = sorted(range(len(betas)), key=lambda i: (-remainders[i], i))
    for _ in range(N - int(base.sum())):
        fit = next((i for i in order
                    if all(deficit[pos, a] > 0 for pos, a in enumerate(betas[i]))), None)
        if fit is None:
            raise InfeasibleSeedSolution(
                "cannot reconcile rounded class sizes with the value counts; "
                f"choose N so the tables of constraint {cid} scale to integers")
        base[fit] += 1
        for pos, a in enumerate(betas[fit]):
            deficit[pos, a] -= 1
    return base


def _finish(instance, N, T, rng, pairs, alpha_virtual=None):
    """Relabel the copies and lay out their index slots.

    `pairs` holds one (source constraint id, copy per scope position) pair per
    blown-up constraint; copy j of source variable v is label v * N + j before
    the relabelling `pi`.
    """
    nN = instance.n * N
    pi = rng.permutation(nN)
    incident = defaultdict(list)  # (v, block, copy) -> blown-up constraint ids
    constraints = []
    for jcid, (cid, copies) in enumerate(pairs):
        c = instance.constraints[cid]
        for u, j in zip(c.scope, copies):
            incident[u, instance.degree_index[u].index(cid), j].append(jcid)
        constraints.append(Constraint(c.predicate, tuple(int(pi[u * N + j])
                                                         for u, j in zip(c.scope, copies)),
                                      c.weight))
    index = [None] * nN
    for v in range(instance.n):
        for j in range(N):
            index[pi[v * N + j]] = [incident[v, b, j][o] for b in range(instance.degree(v))
                                    for o in rng.permutation(T)]
    blown = build_instance(instance.q, instance.s, instance.t * T, instance.w,
                           nN, instance.predicates, constraints, degree_index=index)
    alpha = None
    if alpha_virtual is not None:
        alpha = np.empty(nN, dtype=np.int64)
        alpha[pi] = alpha_virtual
    return GapInstance(blown, pi, alpha)


def _matched(rng, cid, copies, T):
    """Match T stubs of every copy uniformly across the scope positions of
    constraint `cid`; `copies[pos]` lists the copies position pos draws from."""
    stubs = [pool[rng.permutation(len(pool) * T) // T] for pool in copies]
    return [(cid, tuple(row)) for row in np.stack(stubs, axis=1).tolist()]


def gen_opt_instance(params: GapParams) -> GapInstance:
    """Blow-up through uniform per-position stub matchings."""
    inst, N, T = params.instance, params.N, params.T
    _check_blowup(inst, N, T)
    rng = np.random.default_rng(params.seed)
    merge = {(v, cid): rng.permutation(N) for v in range(inst.n) for cid in inst.degree_index[v]}
    pairs = []
    for cid, c in enumerate(inst.constraints):
        pairs += _matched(rng, cid, [merge[u, cid] for u in c.scope], T)
    return _finish(inst, N, T, rng, pairs)


def gen_lp_instance(params: GapParams) -> GapInstance:
    """Blow-up routed through the classes of an exact LP solution.

    Copies of each variable are pre-assigned values in proportion to the
    solution's marginals; each constraint's copies are split across its local
    assignments, and matchings stay inside value classes.  The planted
    assignment is recorded.
    """
    inst, N, T = params.instance, params.N, params.T
    _check_blowup(inst, N, T)
    sol = LpSolution(np.asarray(params.xstar, dtype=float),
                     {k: np.asarray(v, dtype=float) for k, v in params.mustar.items()},
                     0.0)
    try:
        eps = infeasibility(inst, sol)
    except Exception as exc:
        raise InfeasibleSeedSolution(str(exc))
    if eps > 1e-9:
        raise InfeasibleSeedSolution(f"seed solution violates rows by {eps:.2e}")

    rng = np.random.default_rng(params.seed)
    marginals = [apportion(sol.x[v], N) for v in range(inst.n)]
    # copy j of v takes value a when j lies in ranges[v][a]
    bounds = [np.concatenate([[0], np.cumsum(m)]) for m in marginals]
    ranges = [[np.arange(lo, hi) for lo, hi in zip(b[:-1], b[1:])] for b in bounds]
    alpha_virtual = np.concatenate([np.repeat(np.arange(inst.q), m) for m in marginals])

    # class-preserving cross-constraint matchings
    merge = {(v, cid): np.concatenate([rng.permutation(r) for r in ranges[v]])
             for v in range(inst.n) for cid in inst.degree_index[v]}
    pairs = []
    for cid, c in enumerate(inst.constraints):
        betas = mu_assignments(inst, c)
        counts = _class_table(inst, cid, sol.mu[cid], marginals, N)
        # partition each position's value classes into local-assignment groups
        groups = defaultdict(list)  # assignment -> its copies per position
        for pos, u in enumerate(c.scope):
            for a, r in enumerate(ranges[u]):
                pool = rng.permutation(r)
                start = 0
                for bi, beta in enumerate(betas):
                    if beta[pos] == a and counts[bi]:
                        groups[bi].append(pool[start:start + counts[bi]])
                        start += counts[bi]
        for bi in range(len(betas)):
            if counts[bi]:
                pairs += _matched(rng, cid, [merge[u, cid][g]
                                             for u, g in zip(c.scope, groups[bi])], T)
    return _finish(inst, N, T, rng, pairs, alpha_virtual)


# --- switching ------------------------------------------------------------------

def switch(constraints, i: int, j: int, pairing):
    """Exchange scope entries of two like constraints position-wise.

    `pairing` selects, per position, whether the entries swap.  The degree
    sequence and the per-position variable multisets are unchanged.
    """
    ci, cj = constraints[i], constraints[j]
    if ci.predicate != cj.predicate or len(ci.scope) != len(cj.scope):
        raise ArityMismatch("switch requires two applications of one predicate")
    si, sj = list(ci.scope), list(cj.scope)
    for pos, swap in enumerate(pairing):
        if swap:
            si[pos], sj[pos] = sj[pos], si[pos]
    out = list(constraints)
    out[i] = Constraint(ci.predicate, tuple(si), ci.weight)
    out[j] = Constraint(cj.predicate, tuple(sj), cj.weight)
    return out


# --- lazy transcript process ------------------------------------------------------

def _numpy_sum(xs) -> float:
    """Sum floats in the order numpy's float64 `sum` adds them: in sequence
    below 8 terms, in 8 interleaved lanes up to 128, halved above that."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        lanes = list(xs[:8])
        tail = n - n % 8
        for i in range(8, tail, 8):
            for j in range(8):
                lanes[j] += xs[i + j]
        total = (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
                 + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7])))
        for x in xs[tail:]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _numpy_sum(xs[:half]) + _numpy_sum(xs[half:])


class _ClassSlots:
    """The labels placed in one class and their free index slots, by block
    and by commit.

    Row r is `labels[r]`, the class's r-th placed label.  `free[r, b]` counts
    its unused slots in block b, and `tag[r, b]` is 0 while (label, b) is
    uncommitted, else 1 + the index of the local assignment it is committed
    to.  `mass[b, tag]` is the sum of `free[:, b]` over the rows with that tag
    and `total[b]` its sum over every tag.  The counts are integers, so every
    mass and prefix sum is exact.
    """

    def __init__(self, blocks: int):
        self.labels: list[int] = []
        self.free = np.zeros((8, blocks), dtype=np.int64)
        self.tag = np.zeros((8, blocks), dtype=np.int64)
        self.mass: Counter = Counter()
        self.total = [0] * blocks

    def add(self, label: int, T: int) -> int:
        """Place `label` with T free slots per block; returns its row."""
        row = len(self.labels)
        if row == len(self.free):
            self.free = np.concatenate([self.free, np.zeros_like(self.free)])
            self.tag = np.concatenate([self.tag, np.zeros_like(self.tag)])
        self.labels.append(label)
        self.free[row] = T
        for b in range(len(self.total)):
            self.mass[b, 0] += T
            self.total[b] += T
        return row

    def use(self, row: int, block: int):
        self.free[row, block] -= 1
        self.mass[block, int(self.tag[row, block])] -= 1
        self.total[block] -= 1

    def commit(self, row: int, block: int, tag: int):
        free = int(self.free[row, block])
        self.tag[row, block] = tag
        self.mass[block, 0] -= free
        self.mass[block, tag] += free

    def seen_mass(self, block: int, tag: int) -> int:
        """Free slots in `block` of the rows uncommitted or tagged `tag`."""
        return self.mass[block, 0] + (self.mass[block, tag] if tag else 0)

    def locate(self, r: float, block: int, tag: int) -> int:
        """The label of the first row, among those `seen_mass` counts, whose
        running free mass exceeds r; r must lie below `seen_mass(block, tag)`."""
        rows = len(self.labels)
        weights = self.free[:rows, block]
        if self.seen_mass(block, tag) < self.total[block]:  # rows of other tags hold slots
            tags = self.tag[:rows, block]
            weights = weights * ((tags == 0) | (tags == tag))
        return self.labels[int(weights.cumsum().searchsorted(r, side="right"))]


class TranscriptProcess:
    """Answer oracle queries against a deferred blow-up instance.

    The process keeps the revealed fragment consistent with the target
    distribution: classes are assigned with probability proportional to
    remaining capacity, partners are drawn with stub weights, and a final
    `complete()` fills in everything else.  With T = 1 the interaction
    distribution matches the direct generators exactly; larger T uses the
    same stub weights per copy.  With T >= 2 the lp branch can dead-end, a
    fresh partner being due after every label is seen; it then raises
    InfeasibleSeedSolution.

    A reveal's Python work depends on neither N nor the labels already seen:
    each class keeps its labels' free slots by block and by commit
    (`_ClassSlots`), so a partner draw reads the seen mass directly, and only a
    draw that lands on a seen label locates it with one numpy prefix-sum
    search over that class.  `complete()` reveals every slot, so it costs one
    such search per seen partner.

    The caller must obtain variables through `random_unseen_variable` before
    asking for their constraints, mirroring the restricted access discipline
    the probe experiments assume.
    """

    def __init__(self, source: CspInstance, N: int, T: int, seed: int,
                 branch: str = "star", xstar=None, mustar=None):
        _check_blowup(source, N, T)
        self.source = source
        self.N, self.T = int(N), int(T)
        self.rng = np.random.default_rng(seed)
        if branch == "star":
            branch = "opt" if self.rng.random() < 0.5 else "lp"
        self.branch = branch
        self.mustar = mustar
        if branch == "opt":
            self.capacity = {(i,): float(self.N) for i in range(source.n)}
        elif xstar is None or mustar is None:
            raise ValueError("lp branch needs the seed solution")
        else:
            xstar = np.asarray(xstar, dtype=float)
            self.capacity = {(i, a): float(xstar[i, a] * self.N)
                             for i in range(source.n) for a in range(source.q)}
        self.n_labels = source.n * self.N
        self.rho: dict[int, tuple] = {}
        self.revealed: dict[tuple[int, int], int | None] = {}
        self.block_used: defaultdict[tuple[int, int], set[int]] = defaultdict(set)
        self.commit: dict[tuple[int, int], tuple] = {}
        self.committed_count: Counter = Counter()
        self.constraints: list[Constraint] = []
        self.transcript: list = []
        self.collisions = 0
        self._betas = {cid: mu_assignments(source, c)
                       for cid, c in enumerate(source.constraints)}
        self._tags = {cid: {beta: i + 1 for i, beta in enumerate(betas)}
                      for cid, betas in self._betas.items()}
        self._classes = {key: _ClassSlots(source.degree(key[0])) for key in self.capacity}
        self._row: dict[int, int] = {}

    # -- class machinery --

    def _pick(self, weights, what: str) -> int:
        """An index drawn with probability proportional to `weights` exactly
        as `rng.choice(len(weights), p=weights / weights.sum())` draws it:
        one uniform located in the normalised running sum."""
        total = _numpy_sum(weights)
        if total <= 0:
            raise InfeasibleSeedSolution(f"{what} capacities exhausted")
        cdf = list(accumulate(w / total for w in weights))
        last = cdf[-1]
        return bisect_right([c / last for c in cdf], self.rng.random())

    def _unseen_label(self) -> int:
        if len(self.rho) >= self.n_labels:
            raise InfeasibleSeedSolution("a fresh partner is due but every variable is seen")
        while True:
            label = int(self.rng.integers(0, self.n_labels))
            if label not in self.rho:
                return label

    def _place(self, label, key):
        self.rho[label] = key
        self._row[label] = self._classes[key].add(label, self.T)

    def _assign_class(self, label):
        keys = list(self.capacity)
        weights = [max(0.0, self.capacity[k] - len(self._classes[k].labels)) for k in keys]
        self._place(label, keys[self._pick(weights, "class")])

    def _commit(self, label, block, p_src, pos, beta):
        if (label, block) not in self.commit:
            self.commit[label, block] = beta
            self.committed_count[p_src, pos, beta] += 1
            self._classes[self.rho[label]].commit(self._row[label], block,
                                                  self._tags[p_src][beta])

    def random_unseen_variable(self) -> int:
        if len(self.rho) >= self.n_labels:
            raise UnseenVariableQuery("all variables already seen")
        label = self._unseen_label()
        self._assign_class(label)
        self.transcript.append(("var", label))
        return label

    # -- constraint queries --

    def query(self, label: int, p: int):
        """The constraint at slot p (1-based) of a seen label; None past its
        last slot."""
        if p < 1:
            raise ValueError(f"index {p} below 1")
        if label not in self.rho:
            raise UnseenVariableQuery(
                f"variable {label} must be obtained through the random-variable query first")
        jcid = self._reveal(label, p)
        self.transcript.append(("con", label, p, jcid))
        return None if jcid is None else self.constraints[jcid]

    def _reveal(self, label, p) -> int | None:
        """The constraint at slot p of a seen label, drawn on first sight."""
        if (label, p) in self.revealed:
            return self.revealed[label, p]
        i = self.rho[label][0]
        b = (p - 1) // self.T
        if b >= self.source.degree(i):
            self.revealed[label, p] = None
            return None
        p_src = self.source.degree_index[i][b]
        c = self.source.constraints[p_src]
        ell = c.scope.index(i)
        beta = self._draw_beta(label, b, p_src, ell) if self.branch == "lp" else None
        scope, partners = [], []
        for pos, u in enumerate(c.scope):
            if pos == ell:
                scope.append(label)
                continue
            block = self.source.degree_index[u].index(p_src)
            key = (u,) if beta is None else (u, beta[pos])
            partner, was_seen = self._draw_partner(key, block, p_src, pos, beta)
            scope.append(partner)
            partners.append((partner, block, was_seen))
        jcid = len(self.constraints)
        self.constraints.append(Constraint(c.predicate, tuple(scope), c.weight))
        # bind index slots for every participant
        self._use_slot(label, b, p)
        for partner, block, _ in partners:
            self.revealed[partner, self._fresh_slot(partner, block)] = jcid
        self.revealed[label, p] = jcid
        self.collisions += any(was_seen for *_, was_seen in partners)
        return jcid

    def _draw_beta(self, label, block, p_src, ell):
        if (label, block) in self.commit:
            return self.commit[label, block]
        a = self.rho[label][1]
        betas = self._betas[p_src]
        table = np.asarray(self.mustar[p_src], dtype=float).tolist()
        weights = [max(0.0, cap * self.N - self.committed_count[p_src, ell, beta])
                   if beta[ell] == a and cap > 0 else 0.0 for beta, cap in zip(betas, table)]
        beta = betas[self._pick(weights, "local class")]
        self._commit(label, block, p_src, ell, beta)
        return beta

    def _draw_partner(self, key, block, p_src, pos, beta):
        """A label of class `key` for `block`: a seen one by its free slots, or
        a fresh one by the class's unseen stubs.  Returns (label, was_seen).

        A seen label qualifies while (label, block) is uncommitted or
        committed to `beta`; labels are weighed in the order they were
        placed."""
        tag = 0 if beta is None else self._tags[p_src][beta]
        cls = self._classes[key]
        seen_mass = cls.seen_mass(block, tag)
        unseen_mass = max(0.0, (self.capacity[key] - len(cls.labels)) * self.T)
        r = self.rng.random() * (seen_mass + unseen_mass)
        was_seen = r < seen_mass
        if was_seen:
            partner = cls.locate(r, block, tag)
        else:
            partner = self._unseen_label()
            self._place(partner, key)
        if beta is not None:
            self._commit(partner, block, p_src, pos, beta)
        return partner, was_seen

    def _fresh_slot(self, label, block) -> int:
        used = self.block_used[label, block]
        options = [slot for slot in range(block * self.T + 1, (block + 1) * self.T + 1)
                   if slot not in used]
        slot = options[int(self.rng.integers(0, len(options)))]
        self._use_slot(label, block, slot)
        return slot

    def _use_slot(self, label, block, slot):
        self.block_used[label, block].add(slot)
        self._classes[self.rho[label]].use(self._row[label], block)

    # -- completion --

    def complete(self) -> CspInstance:
        """Fill in the rest of the instance consistently with the transcript."""
        for label in range(self.n_labels):
            if label not in self.rho:
                self._assign_class(label)
        index = [[self._reveal(label, p)
                  for p in range(1, self.source.degree(self.rho[label][0]) * self.T + 1)]
                 for label in range(self.n_labels)]
        return build_instance(self.source.q, self.source.s, self.source.t * self.T,
                              self.source.w, self.n_labels, self.source.predicates,
                              self.constraints, degree_index=index)

    def replay_consistent(self, instance: CspInstance) -> bool:
        """Check every transcribed answer against a completed instance."""
        for item in self.transcript:
            if item[0] != "con":
                continue
            _, label, p, jcid = item
            slots = instance.degree_index[label]
            got = slots[p - 1] if p <= len(slots) else None
            if got != jcid:
                return False
        return True


# --- collision probe ----------------------------------------------------------------

def collision_bound(tau: int, s: int, mu_min: float, N: int) -> float:
    if tau * s >= mu_min * N:
        raise ValueError("probe too long for the class sizes: tau*s must stay below mu*N")
    return tau ** 2 * s ** 2 / (mu_min * N - tau * s)


def collision_experiment(source: CspInstance, sol: LpSolution, N: int, T: int,
                         tau: int, trials: int, seed: int):
    """Probe the mixed process and report how often an answer reuses a
    transcribed variable, next to the analytic bound."""
    mu_min = min(float(t[t > 1e-12].min()) for t in
                 (np.asarray(sol.mu[cid]) for cid in sol.mu) if (t > 1e-12).any())
    bound = collision_bound(tau, source.s, mu_min, N)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(trials):
        proc = TranscriptProcess(source, N, T, int(rng.integers(0, 2 ** 62)),
                                 branch="star", xstar=sol.x, mustar=sol.mu)
        for _ in range(tau):
            v = proc.random_unseen_variable()
            proc.query(v, 1)
        if proc.collisions:
            hits += 1
    return hits / trials, bound
