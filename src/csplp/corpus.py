"""Seeded instance generators used by the CLI, the tests, and the experiments.

Everything here is deterministic given its seed.  The random families keep
q <= 3, arity <= 3 and degree <= 5 so that the exact enumeration and exact
LP oracles stay cheap.
"""

from __future__ import annotations

import itertools

import numpy as np

from .csp import Constraint, CspInstance, Predicate, build_instance


# --- predicate builders -----------------------------------------------------

def neq_predicate(q: int) -> Predicate:
    table = tuple(int(a != b) for a, b in itertools.product(range(q), repeat=2))
    return Predicate("neq", 2, table)


def eq_predicate(q: int) -> Predicate:
    table = tuple(int(a == b) for a, b in itertools.product(range(q), repeat=2))
    return Predicate("eq", 2, table)


def unary_is(q: int, value: int) -> Predicate:
    return Predicate(f"is{value}", 1, tuple(int(a == value) for a in range(q)))


def clause_predicate(signs, name=None) -> Predicate:
    """Boolean clause over q=2: signs[i] is the satisfying literal polarity.

    A tuple entry 1 means the positive literal x_i appears, 0 means the
    negated literal.  The clause is satisfied unless every position differs
    from its satisfying polarity... i.e. standard OR of literals.
    """
    k = len(signs)
    table = []
    for vals in itertools.product(range(2), repeat=k):
        table.append(int(any(v == s for v, s in zip(vals, signs))))
    return Predicate(name or "or" + "".join(str(s) for s in signs), k, tuple(table))


def random_predicate(rng, q: int, k: int, name: str) -> Predicate:
    table = rng.integers(0, 2, size=q ** k)
    if table.sum() == 0:  # keep at least one satisfying row
        table[rng.integers(0, q ** k)] = 1
    return Predicate(name, k, tuple(int(x) for x in table))


# --- named instances --------------------------------------------------------

def triangle() -> CspInstance:
    """Max Cut on a 3-cycle (q=2): the canonical small gap instance."""
    neq = neq_predicate(2)
    cons = [Constraint(0, sc, 1.0) for sc in ((0, 1), (1, 2), (2, 0))]
    return build_instance(2, 2, 3, 1.0, 3, [neq], cons)


def single() -> CspInstance:
    """One NEQ constraint on 5 variables; three of them are isolated."""
    return build_instance(2, 2, 2, 1.0, 5, [neq_predicate(2)], [Constraint(0, (0, 1), 1.0)])


# --- random bounded-degree instances ----------------------------------------

def random_instance(seed, *, q=2, s=2, t=3, w=1.0, n=6, m=5,
                    weights_vary=False) -> CspInstance:
    """Random instance: random predicates applied to random repeat-free scopes.

    Scopes are drawn uniformly among variable tuples whose members still have
    an index slot free, so the degree bound always holds.
    """
    rng = np.random.default_rng(seed)
    arities = list(range(1, s + 1))
    npred = max(2, min(4, m))
    preds = [random_predicate(rng, q, int(rng.choice(arities)), f"p{i}") for i in range(npred)]
    degree = [0] * n
    cons = []
    for _ in range(m):
        pid = int(rng.integers(0, npred))
        k = preds[pid].arity
        free = [v for v in range(n) if degree[v] < t]
        if len(free) < k:
            break
        scope = tuple(int(v) for v in rng.choice(free, size=k, replace=False))
        weight = float(1.0 + rng.random() * (w - 1.0)) if weights_vary and w > 1 else 1.0
        cons.append(Constraint(pid, scope, weight))
        for v in set(scope):
            degree[v] += 1
    return build_instance(q, s, t, w, n, preds, cons)


def brute_corpus(count=200, seed=20240):
    """Instances small enough for exact enumeration (q <= 3, s <= 3, n <= 14)."""
    out = []
    rng = np.random.default_rng(seed)
    for i in range(count):
        q = int(rng.choice([2, 2, 2, 3]))
        s = int(rng.choice([2, 2, 3]))
        n = int(rng.integers(4, 15 if q == 2 else 9))
        t = int(rng.integers(2, 6))
        w = float(rng.choice([1.0, 2.0]))
        m = int(rng.integers(2, max(3, min(2 * n, (t * n) // s))))
        out.append(random_instance(int(rng.integers(0, 2 ** 31)), q=q, s=s, t=t, w=w,
                                   n=n, m=m, weights_vary=True))
    return out


def pipeline_corpus(count=50, seed=77):
    """Small instances for exact LP chain comparisons (moderate C values)."""
    out = []
    rng = np.random.default_rng(seed)
    for i in range(count):
        q = int(rng.choice([2, 2, 3]))
        n = int(rng.integers(3, 8))
        t = int(rng.integers(2, 4))
        m = int(rng.integers(2, 6))
        out.append(random_instance(int(rng.integers(0, 2 ** 31)), q=q, s=2, t=t,
                                   w=2.0, n=n, m=m, weights_vary=True))
    return out


def component_union(seed, *, pieces, q=2, s=2, t=4, w=1.0, piece_n=(3, 7), piece_m=(2, 5)):
    """Disjoint union of small random components: locality-friendly topology."""
    rng = np.random.default_rng(seed)
    preds: list[Predicate] = []
    cons: list[Constraint] = []
    offset = 0
    for j in range(pieces):
        n = int(rng.integers(piece_n[0], piece_n[1] + 1))
        m = int(rng.integers(piece_m[0], piece_m[1] + 1))
        piece = random_instance(int(rng.integers(0, 2 ** 31)), q=q, s=s, t=t, w=w, n=n, m=m)
        pid_offset = len(preds)
        preds.extend(piece.predicates)
        for c in piece.constraints:
            cons.append(Constraint(c.predicate + pid_offset,
                                   tuple(v + offset for v in c.scope), c.weight))
        offset += n
    return build_instance(q, s, t, w, offset, preds, cons)


def local_corpus(count=100, seed=4242, max_n=300):
    """Corpus for the local solver: unions of components, sizes up to max_n."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        q = int(rng.choice([2, 2, 3]))
        if i == 9:
            # one instance pinned at the size ceiling
            inst = component_union(int(rng.integers(0, 2 ** 31)), pieces=max_n // 6,
                                   q=q, piece_n=(6, 6))
        elif i % 10 == 9:
            # large union, capped so piece sizes cannot push past max_n
            pieces = int(rng.integers(30, max_n // 6 + 1))
            inst = component_union(int(rng.integers(0, 2 ** 31)), pieces=pieces, q=q,
                                   piece_n=(3, 6))
        else:
            pieces = int(rng.integers(1, 9))
            inst = component_union(int(rng.integers(0, 2 ** 31)), pieces=pieces, q=q)
        assert inst.n <= max_n
        out.append(inst)
    return out


# --- Horn families ----------------------------------------------------------

def horn_satisfiable(seed, *, n=8, m=10, t=4) -> CspInstance:
    """Random satisfiable Horn formula.

    Every clause has at most one positive literal and at least one negative
    one, so the all-false assignment satisfies everything.
    """
    rng = np.random.default_rng(seed)
    preds: list[Predicate] = []
    sig_index: dict[tuple, int] = {}
    degree = [0] * n
    cons = []
    tries = 0
    while len(cons) < m and tries < 20 * m:
        tries += 1
        k = int(rng.integers(2, 4))
        free = [v for v in range(n) if degree[v] < t]
        if len(free) < k:
            break
        scope = tuple(int(v) for v in rng.choice(free, size=k, replace=False))
        # at most one positive literal, never all-positive
        pos = int(rng.integers(0, k + 1))  # k means "no positive literal"
        signs = tuple(1 if j == pos else 0 for j in range(k))
        if signs not in sig_index:
            sig_index[signs] = len(preds)
            preds.append(clause_predicate(signs))
        cons.append(Constraint(sig_index[signs], scope, 1.0))
        for v in scope:
            degree[v] += 1
    return build_instance(2, 3, t, 1.0, n, preds, cons)


def horn_far(n: int) -> CspInstance:
    """n contradictory unary pairs (x)(not x): distance to satisfiability n."""
    pos = unary_is(2, 1)
    neg = unary_is(2, 0)
    cons = []
    for v in range(n):
        cons.append(Constraint(0, (v,), 1.0))
        cons.append(Constraint(1, (v,), 1.0))
    return build_instance(2, 2, 2, 1.0, n, [pos, neg], cons)


def horn_chain() -> CspInstance:
    """(not x or y)(not y or z): satisfiable two-clause implication chain."""
    impl = clause_predicate((0, 1), name="imp")
    return build_instance(2, 2, 2, 1.0, 3,
                          [impl], [Constraint(0, (0, 1), 1.0), Constraint(0, (1, 2), 1.0)])
