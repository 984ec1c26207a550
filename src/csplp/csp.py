"""CSP data model, bounded-degree constraint oracle, and exact reference oracles.

Variables take values in {0, ..., q-1}.  A predicate of arity k is a 0/1
truth table over all k-tuples of values, indexed lexicographically with the
FIRST scope position most significant (this order is part of the on-disk
format).  A constraint applies a predicate to a sequence of variable ids
(repeats permitted) and carries a weight in [1, w].

"Degree" counts constraint incidences: a constraint containing v occupies
exactly one of v's index slots, no matter how often v repeats inside the
scope.  The oracle signature is (variable, index) -> constraint-or-None and
every answered query costs exactly one unit.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArityExceeded,
    BadTruthTableLength,
    BudgetExceeded,
    DegreeExceeded,
    WeightOutOfRange,
)

DEFAULT_ENUM_BUDGET = 2 ** 26
_ENUM_CHUNK = 2 ** 16


@dataclass(frozen=True)
class Predicate:
    """0/1 predicate over [q]^arity given as a flat truth table."""

    name: str
    arity: int
    truth_table: tuple[int, ...]

    def value(self, values: Sequence[int], q: int) -> int:
        idx = 0
        for v in values:
            idx = idx * q + v
        return self.truth_table[idx]


@dataclass(frozen=True)
class Constraint:
    """A predicate id applied to a scope, with a weight in [1, w]."""

    predicate: int
    scope: tuple[int, ...]
    weight: float

    def distinct_vars(self) -> tuple[int, ...]:
        """Distinct scope variables in order of first occurrence."""
        # computed on first use and kept in the instance dict, which equality,
        # hashing and repr (fields only) do not read
        cache = self.__dict__
        dv = cache.get("_distinct_vars")
        if dv is None:
            dv = cache["_distinct_vars"] = tuple(dict.fromkeys(self.scope))
        return dv


@dataclass(frozen=True)
class CspInstance:
    q: int
    s: int
    t: int
    w: float
    n: int
    predicates: tuple[Predicate, ...]
    constraints: tuple[Constraint, ...]
    degree_index: tuple[tuple[int, ...], ...]

    @property
    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.constraints))

    def degree(self, v: int) -> int:
        return len(self.degree_index[v])


def build_instance(q, s, t, w, n, predicates, constraints, degree_index=None) -> CspInstance:
    """Validate and assemble an instance from `Predicate` and `Constraint` objects.

    When `degree_index` is omitted it is derived deterministically in
    constraint-id order.  An explicit index (used by the blow-up generators,
    which scatter constraints into per-incidence blocks) is checked for
    consistency against the constraint list.
    """
    if q < 2 or s < 1 or t < 1 or n < 0 or w < 1:
        raise ValueError(f"bad model parameters q={q} s={s} t={t} w={w} n={n}")
    preds = tuple(predicates)
    for p in preds:
        if p.arity < 1 or p.arity > s:
            raise ArityExceeded(f"predicate {p.name!r} has arity {p.arity} > s = {s}")
        if len(p.truth_table) != q ** p.arity:
            raise BadTruthTableLength(
                f"predicate {p.name!r}: table length {len(p.truth_table)} != q^k = {q ** p.arity}"
            )
        if any(e not in (0, 1) for e in p.truth_table):
            raise BadTruthTableLength(f"predicate {p.name!r}: entries must be 0/1")

    cons = []
    for c in constraints:
        if c.predicate < 0 or c.predicate >= len(preds):
            raise ValueError(f"constraint references unknown predicate {c.predicate}")
        if len(c.scope) != preds[c.predicate].arity:
            raise ArityExceeded(
                f"scope length {len(c.scope)} != arity {preds[c.predicate].arity}"
            )
        if any(v < 0 or v >= n for v in c.scope):
            raise ValueError(f"scope {c.scope} references variable >= n = {n}")
        if not (1.0 <= c.weight <= w):
            raise WeightOutOfRange(f"weight {c.weight} outside [1, {w}]")
        cons.append(c)
    cons = tuple(cons)

    incident = constraint_order_index(n, cons)
    if degree_index is None:
        index = incident
    else:
        index = tuple(tuple(slots) for slots in degree_index)
        if len(index) != n:
            raise ValueError("degree_index length != n")
        for v in range(n):
            if sorted(index[v]) != sorted(incident[v]):
                raise ValueError(f"degree_index for variable {v} inconsistent with constraints")

    for v in range(n):
        if len(index[v]) > t:
            raise DegreeExceeded(v, len(index[v]), t)

    return CspInstance(q, int(s), int(t), float(w), int(n), preds, cons, index)


def constraint_order_index(n: int, constraints) -> tuple[tuple[int, ...], ...]:
    """The default degree index: each variable's constraint ids in increasing order."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for cid, c in enumerate(constraints):
        for v in c.distinct_vars():
            incident[v].append(cid)
    return tuple(tuple(slots) for slots in incident)


class ConstraintOracle:
    """Degree-indexed access to an immutable instance, with query counting.

    Each handle owns its counter; concurrent workers should each hold their
    own handle.
    """

    def __init__(self, instance: CspInstance):
        self.instance = instance
        self.query_count = 0

    def query(self, v: int, i: int):
        """Return the i-th (1-based) constraint where v appears, or None."""
        inst = self.instance
        if not (0 <= v < inst.n):
            raise ValueError(f"variable {v} out of range")
        if not (1 <= i <= inst.t):
            raise ValueError(f"index {i} outside [1, t={inst.t}]")
        self.query_count += 1
        slots = inst.degree_index[v]
        if i <= len(slots):
            return slots[i - 1]
        return None

    def constraint(self, cid: int) -> Constraint:
        """Resolve a constraint id previously revealed by some query.

        Costs one query unit, like the (v, i) access that produced it.
        """
        self.query_count += 1
        return self.instance.constraints[cid]


class RevealMemo:
    """The `ConstraintOracle` surface over an oracle, asking each question once.

    A (v, i) slot or a constraint payload goes to the wrapped oracle the
    first time it is asked and is read from memory after that, so the
    wrapped counter meters distinct reveals.  `asked` counts every question,
    answered from memory or not: its delta over a computation is what that
    computation would cost on a fresh oracle.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.instance = oracle.instance
        self.asked = 0
        self._slots: dict = {}
        self._payloads: dict = {}

    def query(self, v: int, i: int):
        self.asked += 1
        if (v, i) not in self._slots:
            self._slots[v, i] = self.oracle.query(v, i)
        return self._slots[v, i]

    def constraint(self, cid: int) -> Constraint:
        self.asked += 1
        if cid not in self._payloads:
            self._payloads[cid] = self.oracle.constraint(cid)
        return self._payloads[cid]


def evaluate(instance: CspInstance, assignment) -> float:
    """Exact weighted satisfied count; repeated scope positions read the same value."""
    total = 0.0
    q = instance.q
    for c in instance.constraints:
        vals = []
        for v in c.scope:
            a = assignment[v]
            if a is None:
                raise ValueError(f"assignment undefined for constrained variable {v}")
            vals.append(a)
        total += c.weight * instance.predicates[c.predicate].value(vals, q)
    return total


def _scan_assignments(instance: CspInstance, budget: int, weighted: bool):
    """Enumerate all q^n assignments in lexicographic order (variable 0 most
    significant, value 0 first) and return (best score, best index).

    The scan reads merged terms, not constraints: one float table per
    distinct ordered scope, in order of first occurrence, holding the sum of
    weight * truth table over the constraints on that scope (weight 1 when
    `weighted` is false, so the score counts satisfied constraints).  Each
    term becomes a tensor over its distinct variables in increasing order; a
    scope that repeats a variable reads the table's diagonal.  The scan runs
    in blocks of q^L assignments, L the largest with q^L <= `_ENUM_CHUNK`
    (2^16 for q = 2, 3^10 for q = 3): the last L variables run along the
    axes of an L-axis score array and the first n - L are fixed per block.
    For each block every term, in merge order, is indexed by the fixed
    variables' values and added in place, broadcast over the axes of the
    variables it does not read, so each assignment's score is the same
    float sum in the same term order whatever the block size.  The first
    maximum of a block replaces the best so far only if it is larger by
    more than 1e-12, so exact ties keep the lexicographically first.
    """
    n, q = instance.n, instance.q
    total = q ** n if n > 0 else 1
    if total > budget:
        raise BudgetExceeded(f"q^n = {total} exceeds enumeration budget {budget}")
    merged: dict[tuple[int, ...], np.ndarray] = {}
    for c in instance.constraints:
        table = (c.weight if weighted else 1.0) * np.asarray(
            instance.predicates[c.predicate].truth_table, dtype=np.float64)
        if c.scope in merged:
            merged[c.scope] += table
        else:
            merged[c.scope] = table
    running = max(L for L in range(n + 1) if q ** L <= _ENUM_CHUNK)
    split = n - running
    terms = []
    for scope, table in merged.items():
        letter = {v: chr(97 + i) for i, v in enumerate(sorted(set(scope)))}
        tensor = np.einsum("".join(map(letter.get, scope)) + "->" + "".join(letter.values()),
                           table.reshape((q,) * len(scope)))
        fixed = tuple(v for v in letter if v < split)
        shape = (q,) * len(fixed) + tuple(q if v in letter else 1 for v in range(split, n))
        terms.append((fixed, tensor.reshape(shape)))

    best_score, best_index = -1.0, 0
    for block, prefix in enumerate(itertools.product(range(q), repeat=split)):
        score = np.zeros((q,) * running)
        for fixed, tensor in terms:
            score += tensor[tuple(prefix[v] for v in fixed)]
        flat = score.reshape(-1)
        k = int(np.argmax(flat))
        if flat[k] > best_score + 1e-12:
            best_score, best_index = float(flat[k]), block * flat.size + k
    return best_score, best_index


def _index_to_assignment(index: int, n: int, q: int) -> tuple[int, ...]:
    digits = []
    for j in range(n):
        digits.append(index // q ** (n - 1 - j) % q)
    return tuple(int(d) for d in digits)


def brute_force_opt(instance: CspInstance, budget: int = DEFAULT_ENUM_BUDGET):
    """Exact optimum by full enumeration.

    Returns (opt value, argmax assignment).  The argmax comes from the
    blockwise merged-term scan: exact ties break to the lexicographically
    smallest assignment, and a later block wins only by more than 1e-12
    (blocks are 2^16 assignments for q = 2, 3^10 for q = 3).  The value is
    `evaluate` of that argmax, the constraint-order sum, so
    `evaluate(argmax) == opt` holds exactly even where merging reorders a
    fractional-weight sum.
    """
    _, index = _scan_assignments(instance, budget, weighted=True)
    argmax = _index_to_assignment(index, instance.n, instance.q)
    return evaluate(instance, argmax), argmax


def distance_to_satisfiability(instance: CspInstance) -> int:
    """Minimum NUMBER of constraints to remove so the rest is satisfiable."""
    if not instance.constraints:
        return 0
    best, _ = _scan_assignments(instance, DEFAULT_ENUM_BUDGET, weighted=False)
    return len(instance.constraints) - int(round(best))


# --- sampling estimator -----------------------------------------------------

def estimator_sample_count(w: float, eps: float, delta: float) -> int:
    """Samples needed so the additive error exceeds eps*n with prob <= delta."""
    return int(math.ceil(w * w * math.log(2.0 / delta) / (2.0 * eps * eps)))


def sum_estimator(f, n: int, w: float, eps: float, delta: float, seed: int) -> float:
    """Estimate sum_i f[i] for f an array of n values in [0, w] from uniform samples.

    Draws m = ceil(w^2 ln(2/delta) / (2 eps^2)) indices with replacement and
    returns (n/m) * sum of samples; by Hoeffding the additive error exceeds
    eps*n with probability at most delta.
    """
    if not (0.0 < eps < 1.0 and 0.0 < delta < 1.0):
        raise ValueError("eps and delta must lie in (0, 1)")
    m = estimator_sample_count(w, eps, delta)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=m)
    total = float(np.asarray(f, dtype=np.float64)[idx].sum())
    return n * total / m


# --- structure helpers ------------------------------------------------------

def connected_components(instance: CspInstance):
    """Partition into components of the variable/constraint incidence graph.

    Returns a list of (variable ids, constraint ids), both sorted.  Isolated
    variables form singleton components with no constraints.
    """
    n = instance.n
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for c in instance.constraints:
        dv = c.distinct_vars()
        for u in dv[1:]:
            ra, rb = find(dv[0]), find(u)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for v in range(n):
        groups.setdefault(find(v), ([], []))[0].append(v)
    for cid, c in enumerate(instance.constraints):
        groups[find(c.scope[0])][1].append(cid)
    return [groups[root] for root in sorted(groups)]


# --- JSON format ------------------------------------------------------------

def instance_to_json(instance: CspInstance) -> dict:
    """The JSON form; `degree_index` is written only where it is not the
    constraint-order default, as in a blow-up's per-block slot layout."""
    data = {
        "q": instance.q,
        "s": instance.s,
        "t": instance.t,
        "w": instance.w,
        "n": instance.n,
        "predicates": [
            {"name": p.name, "arity": p.arity, "truth_table": list(p.truth_table)}
            for p in instance.predicates
        ],
        "constraints": [
            {"predicate": c.predicate, "scope": list(c.scope), "weight": c.weight}
            for c in instance.constraints
        ],
    }
    if instance.degree_index != constraint_order_index(instance.n, instance.constraints):
        data["degree_index"] = [list(slots) for slots in instance.degree_index]
    return data


def _json_text(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def json_value(value, kind: str, where: str):
    """Check that a parsed JSON value is of `kind` and return it.

    Kinds: "int" (a bool is not one), "number" (a finite int or float, not a
    bool), "list" and "str".  A mismatch raises a one-line ValueError naming
    the field `where`.
    """
    if kind == "int":
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind == "number":
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value))
    else:
        ok = isinstance(value, {"list": list, "str": str}[kind])
    if not ok:
        raise ValueError(f"{where}: expected {kind}, got {_json_text(value)}")
    return value


def json_field(data, key: str, kind: str, where: str):
    """`data[key]` of a JSON object, checked by `json_value`."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {_json_text(data)}")
    if key not in data:
        raise ValueError(f"{where}: missing key {key!r}")
    return json_value(data[key], kind, f"{where}.{key}")


def instance_from_json(data: dict) -> CspInstance:
    """Instance from its JSON form; every field is type-checked first, so a
    malformed file raises a one-line ValueError instead of reaching the model."""
    q, s, t, n = (json_field(data, key, "int", "instance") for key in "qstn")
    w = json_field(data, "w", "number", "instance")
    preds = []
    for i, p in enumerate(json_field(data, "predicates", "list", "instance")):
        where = f"predicates[{i}]"
        table = json_field(p, "truth_table", "list", where)
        for e in table:
            if json_value(e, "int", f"{where}.truth_table") not in (0, 1):
                raise ValueError(f"{where}.truth_table: entries must be 0 or 1, got {e}")
        preds.append(Predicate(json_field(p, "name", "str", where),
                               json_field(p, "arity", "int", where), tuple(table)))
    cons = []
    for i, c in enumerate(json_field(data, "constraints", "list", "instance")):
        where = f"constraints[{i}]"
        scope = json_field(c, "scope", "list", where)
        for v in scope:
            json_value(v, "int", f"{where}.scope")
        cons.append(Constraint(json_field(c, "predicate", "int", where), tuple(scope),
                               float(json_field(c, "weight", "number", where))))
    index = None
    if "degree_index" in data:
        index = []
        for v, slots in enumerate(json_field(data, "degree_index", "list", "instance")):
            where = f"instance.degree_index[{v}]"
            index.append([json_value(cid, "int", where)
                          for cid in json_value(slots, "list", where)])
    return build_instance(q, s, t, w, n, preds, cons, index)


def save_instance(instance: CspInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(instance), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> CspInstance:
    with open(path) as fh:
        return instance_from_json(json.load(fh))
