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

from dataclasses import dataclass

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


def _check_repeat_free(instance: CspInstance):
    for c in instance.constraints:
        if len(set(c.scope)) != len(c.scope):
            raise ValueError("blow-up generators need repeat-free scopes")


def _check_sizes(N: int, T: int):
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
    provenance: str
    source: CspInstance
    N: int
    T: int
    seed: int
    label_perm: np.ndarray
    alpha: np.ndarray | None = None


def _class_table(instance, cid, mu_flat, marginals, N):
    """Integer class sizes per local assignment, consistent with per-variable
    value counts.  Exact when mu * N is integral; otherwise floor-and-fill,
    which can stall on higher arities."""
    c = instance.constraints[cid]
    dv = c.distinct_vars()
    k, q = len(dv), instance.q
    betas = list(mu_assignments(instance, c))
    raw = np.asarray(mu_flat, dtype=float) * N
    ints = np.rint(raw)
    if np.max(np.abs(raw - ints)) < 1e-7:
        return ints.astype(np.int64)
    base = np.floor(raw + 1e-12).astype(np.int64)
    deficit = {}
    for pos, v in enumerate(dv):
        for a in range(q):
            have = sum(int(base[i]) for i, b in enumerate(betas) if b[pos] == a)
            deficit[(pos, a)] = int(marginals[v][a]) - have
    remainders = raw - base
    order = sorted(range(len(betas)), key=lambda i: (-remainders[i], i))
    need = N - int(base.sum())
    for _ in range(need):
        placed = False
        for i in order:
            beta = betas[i]
            if all(deficit[(pos, beta[pos])] > 0 for pos in range(k)):
                base[i] += 1
                for pos in range(k):
                    deficit[(pos, beta[pos])] -= 1
                placed = True
                break
        if not placed:
            raise InfeasibleSeedSolution(
                "cannot reconcile rounded class sizes with the value counts; "
                f"choose N so the tables of constraint {cid} scale to integers")
    return base


def _finish(instance, N, T, rng, cons_virtual, incident, alpha_virtual, provenance,
            seed):
    n = instance.n
    nN = n * N
    pi = rng.permutation(nN)
    constraints = [Constraint(pred, tuple(int(pi[u]) for u in scope), weight)
                   for (pred, scope, weight) in cons_virtual]
    index = [[] for _ in range(nN)]
    for v in range(n):
        deg = instance.degree(v)
        for j in range(N):
            slots = []
            for b in range(deg):
                block = list(incident[(v, b)][j])
                order = rng.permutation(T)
                slots.extend(block[o] for o in order)
            index[int(pi[v * N + j])] = slots
    blown = build_instance(instance.q, instance.s, instance.t * T, instance.w,
                           nN, instance.predicates, constraints, degree_index=index)
    alpha = None
    if alpha_virtual is not None:
        alpha = np.empty(nN, dtype=np.int64)
        alpha[pi] = alpha_virtual
    return GapInstance(blown, provenance, instance, N, T, seed, pi, alpha)


def gen_opt_instance(params: GapParams) -> GapInstance:
    """Blow-up through uniform per-position stub matchings."""
    inst, N, T = params.instance, params.N, params.T
    _check_repeat_free(inst)
    _check_sizes(N, T)
    rng = np.random.default_rng(params.seed)
    merge = {(v, b): rng.permutation(N)
             for v in range(inst.n) for b in range(inst.degree(v))}
    cons_virtual = []
    incident = {(v, b): [[] for _ in range(N)]
                for v in range(inst.n) for b in range(inst.degree(v))}
    for p_src, c in enumerate(inst.constraints):
        scope = c.scope
        blocks = [inst.degree_index[u].index(p_src) for u in scope]
        perms = [rng.permutation(T * N) for _ in scope]
        for m in range(T * N):
            jcid = len(cons_virtual)
            entry = []
            for pos, u in enumerate(scope):
                copy = int(perms[pos][m]) // T
                final = int(merge[(u, blocks[pos])][copy])
                entry.append(u * N + final)
                incident[(u, blocks[pos])][final].append(jcid)
            cons_virtual.append((c.predicate, tuple(entry), c.weight))
    return _finish(inst, N, T, rng, cons_virtual, incident, None, "opt", params.seed)


def gen_lp_instance(params: GapParams) -> GapInstance:
    """Blow-up routed through the classes of an exact LP solution.

    Copies of each variable are pre-assigned values in proportion to the
    solution's marginals; each constraint's copies are split across its local
    assignments, and matchings stay inside value classes.  The planted
    assignment is recorded.
    """
    inst, N, T = params.instance, params.N, params.T
    _check_repeat_free(inst)
    _check_sizes(N, T)
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
    q = inst.q
    marginals = {v: apportion(sol.x[v], N) for v in range(inst.n)}
    # copy j of v takes the value of its class range
    offsets = {v: np.concatenate([[0], np.cumsum(marginals[v])]) for v in range(inst.n)}
    alpha_virtual = np.empty(inst.n * N, dtype=np.int64)
    for v in range(inst.n):
        for a in range(q):
            alpha_virtual[v * N + offsets[v][a]: v * N + offsets[v][a + 1]] = a

    # class-preserving cross-constraint matchings
    merge = {}
    for v in range(inst.n):
        for b in range(inst.degree(v)):
            perm = np.empty(N, dtype=np.int64)
            for a in range(q):
                lo, hi = int(offsets[v][a]), int(offsets[v][a + 1])
                block = np.arange(lo, hi)
                perm[lo:hi] = rng.permutation(block)
            merge[(v, b)] = perm

    cons_virtual = []
    incident = {(v, b): [[] for _ in range(N)]
                for v in range(inst.n) for b in range(inst.degree(v))}
    for p_src, c in enumerate(inst.constraints):
        dv = c.distinct_vars()
        scope = c.scope
        blocks = [inst.degree_index[u].index(p_src) for u in scope]
        betas = list(mu_assignments(inst, c))
        counts = _class_table(inst, p_src, sol.mu[p_src], marginals, N)
        # partition each position's value classes into local-assignment groups
        groups = {}
        for pos, u in enumerate(dv):
            for a in range(q):
                lo, hi = int(offsets[u][a]), int(offsets[u][a + 1])
                pool = rng.permutation(np.arange(lo, hi))
                start = 0
                for bi, beta in enumerate(betas):
                    if beta[pos] != a or counts[bi] == 0:
                        continue
                    groups[(pos, bi)] = pool[start:start + int(counts[bi])]
                    start += int(counts[bi])
        for bi, beta in enumerate(betas):
            nb = int(counts[bi])
            if nb == 0:
                continue
            perms = [rng.permutation(nb * T) for _ in dv]
            for m in range(nb * T):
                jcid = len(cons_virtual)
                entry_by_var = {}
                for pos, u in enumerate(dv):
                    copy = int(groups[(pos, bi)][int(perms[pos][m]) // T])
                    final = int(merge[(u, blocks[scope.index(u)])][copy])
                    entry_by_var[u] = final
                    incident[(u, blocks[scope.index(u)])][final].append(jcid)
                entry = tuple(u * N + entry_by_var[u] for u in scope)
                cons_virtual.append((c.predicate, entry, c.weight))
    return _finish(inst, N, T, rng, cons_virtual, incident, alpha_virtual, "lp",
                   params.seed)


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

class TranscriptProcess:
    """Answer oracle queries against a deferred blow-up instance.

    The process keeps the revealed fragment consistent with the target
    distribution: classes are assigned with probability proportional to
    remaining capacity, partners are drawn with stub weights, and a final
    `complete()` fills in everything else.  With T = 1 the interaction
    distribution matches the direct generators exactly; larger T uses the
    same stub weights per copy.

    The caller must obtain variables through `random_unseen_variable` before
    asking for their constraints, mirroring the restricted access discipline
    the probe experiments assume.
    """

    def __init__(self, source: CspInstance, N: int, T: int, seed: int,
                 branch: str = "star", xstar=None, mustar=None):
        _check_repeat_free(source)
        _check_sizes(N, T)
        self.source = source
        self.N, self.T = int(N), int(T)
        self.rng = np.random.default_rng(seed)
        if branch == "star":
            branch = "opt" if self.rng.random() < 0.5 else "lp"
        self.branch = branch
        self.xstar = None if xstar is None else np.asarray(xstar, dtype=float)
        self.mustar = mustar
        if branch == "lp" and (self.xstar is None or mustar is None):
            raise ValueError("lp branch needs the seed solution")
        self.n_labels = source.n * self.N
        self.rho: dict[int, tuple] = {}
        self.members: dict[tuple, list[int]] = {}
        self.counts: dict[tuple, float] = {}
        self.revealed: dict[tuple[int, int], int | None] = {}
        self.block_used: dict[tuple[int, int], set[int]] = {}
        self.commit: dict[tuple[int, int], tuple] = {}
        self.committed_count: dict[tuple, float] = {}
        self.constraints: list[Constraint] = []
        self.transcript: list = []
        self.collisions = 0
        self._betas = {cid: list(mu_assignments(source, c))
                       for cid, c in enumerate(source.constraints)}

    # -- class machinery --

    def _classes(self):
        if self.branch == "opt":
            return [(i,) for i in range(self.source.n)]
        return [(i, a) for i in range(self.source.n) for a in range(self.source.q)]

    def _capacity(self, key) -> float:
        if self.branch == "opt":
            return float(self.N)
        i, a = key
        return float(self.xstar[i, a] * self.N)

    def _assign_class(self, label):
        keys = self._classes()
        weights = np.array([max(0.0, self._capacity(k) - self.counts.get(k, 0.0))
                            for k in keys])
        total = weights.sum()
        if total <= 0:
            raise InfeasibleSeedSolution("class capacities exhausted")
        pick = int(self.rng.choice(len(keys), p=weights / total))
        key = keys[pick]
        self.rho[label] = key
        self.counts[key] = self.counts.get(key, 0.0) + 1.0
        self.members.setdefault(key, []).append(label)
        return key

    def random_unseen_variable(self) -> int:
        if len(self.rho) >= self.n_labels:
            raise UnseenVariableQuery("all variables already seen")
        while True:
            label = int(self.rng.integers(0, self.n_labels))
            if label not in self.rho:
                break
        self._assign_class(label)
        self.transcript.append(("var", label))
        return label

    # -- constraint queries --

    def query(self, label: int, p: int, _record=True):
        if label not in self.rho:
            raise UnseenVariableQuery(
                f"variable {label} must be obtained through the random-variable query first")
        if (label, p) in self.revealed:
            jcid = self.revealed[(label, p)]
            answer = None if jcid is None else self.constraints[jcid]
            if _record:
                self.transcript.append(("con", label, p, jcid))
            return answer
        key = self.rho[label]
        i = key[0]
        deg = self.source.degree(i)
        b = (p - 1) // self.T
        if b >= deg:
            self.revealed[(label, p)] = None
            if _record:
                self.transcript.append(("con", label, p, None))
            return None
        p_src = self.source.degree_index[i][b]
        c = self.source.constraints[p_src]
        scope = c.scope
        ell = scope.index(i)

        beta = self._draw_beta(label, b, p_src, ell) if self.branch == "lp" else None
        partners = {}
        collision = False
        for pos, u_src in enumerate(scope):
            if pos == ell:
                partners[pos] = label
                continue
            q_j = self.source.degree_index[u_src].index(p_src)
            want = (u_src,) if self.branch == "opt" else (u_src, beta[pos])
            partner, was_seen = self._draw_partner(want, q_j, p_src, pos, beta)
            partners[pos] = partner
            collision = collision or was_seen
        jcid = len(self.constraints)
        self.constraints.append(Constraint(c.predicate,
                                           tuple(partners[pos] for pos in range(len(scope))),
                                           c.weight))
        # bind index slots for every participant
        self._use_slot(label, b, p)
        for pos, u_src in enumerate(scope):
            if pos == ell:
                continue
            partner = partners[pos]
            q_j = self.source.degree_index[u_src].index(p_src)
            slot = self._fresh_slot(partner, q_j)
            self.revealed[(partner, slot)] = jcid
        self.revealed[(label, p)] = jcid
        if collision:
            self.collisions += 1
        if _record:
            self.transcript.append(("con", label, p, jcid))
        return self.constraints[jcid]

    def _draw_beta(self, label, block, p_src, ell):
        if (label, block) in self.commit:
            return self.commit[(label, block)]
        a = self.rho[label][1]
        betas = self._betas[p_src]
        table = np.asarray(self.mustar[p_src], dtype=float)
        weights = []
        for bi, beta in enumerate(betas):
            if beta[ell] != a or table[bi] <= 0:
                weights.append(0.0)
                continue
            cap = table[bi] * self.N
            used = self.committed_count.get((p_src, ell, beta), 0.0)
            weights.append(max(0.0, cap - used))
        weights = np.array(weights)
        if weights.sum() <= 0:
            raise InfeasibleSeedSolution("local class capacities exhausted")
        pick = int(self.rng.choice(len(betas), p=weights / weights.sum()))
        beta = betas[pick]
        self.commit[(label, block)] = beta
        self.committed_count[(p_src, ell, beta)] = \
            self.committed_count.get((p_src, ell, beta), 0.0) + 1.0
        return beta

    def _draw_partner(self, class_key, q_j, p_src, pos, beta):
        candidates = []
        weights = []
        for u in self.members.get(class_key, []):
            if self.branch == "lp":
                committed = self.commit.get((u, q_j))
                if committed is not None and committed != beta:
                    continue
            free = self.T - len(self.block_used.get((u, q_j), ()))
            if free > 0:
                candidates.append(u)
                weights.append(float(free))
        unseen_mass = max(0.0, (self._capacity(class_key)
                                - self.counts.get(class_key, 0.0)) * self.T)
        total = sum(weights) + unseen_mass
        r = self.rng.random() * total
        acc = 0.0
        for u, wgt in zip(candidates, weights):
            acc += wgt
            if r < acc:
                if self.branch == "lp" and (u, q_j) not in self.commit:
                    self.commit[(u, q_j)] = beta
                    self.committed_count[(p_src, pos, beta)] = \
                        self.committed_count.get((p_src, pos, beta), 0.0) + 1.0
                return u, True
        # fresh variable
        while True:
            label = int(self.rng.integers(0, self.n_labels))
            if label not in self.rho:
                break
        self.rho[label] = class_key
        self.counts[class_key] = self.counts.get(class_key, 0.0) + 1.0
        self.members.setdefault(class_key, []).append(label)
        if self.branch == "lp":
            self.commit[(label, q_j)] = beta
            self.committed_count[(p_src, pos, beta)] = \
                self.committed_count.get((p_src, pos, beta), 0.0) + 1.0
        return label, False

    def _use_slot(self, label, block, p):
        self.block_used.setdefault((label, block), set()).add(p)

    def _fresh_slot(self, label, block) -> int:
        used = self.block_used.setdefault((label, block), set())
        options = [block * self.T + off for off in range(1, self.T + 1)
                   if block * self.T + off not in used]
        slot = options[int(self.rng.integers(0, len(options)))]
        used.add(slot)
        return slot

    # -- completion --

    def complete(self) -> CspInstance:
        """Fill in the rest of the instance consistently with the transcript."""
        for label in range(self.n_labels):
            if label not in self.rho:
                self._assign_class(label)
        for label in range(self.n_labels):
            i = self.rho[label][0]
            for p in range(1, self.source.degree(i) * self.T + 1):
                if (label, p) not in self.revealed:
                    self.query(label, p, _record=False)
        index = [[] for _ in range(self.n_labels)]
        for label in range(self.n_labels):
            i = self.rho[label][0]
            for p in range(1, self.source.degree(i) * self.T + 1):
                index[label].append(self.revealed[(label, p)])
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
