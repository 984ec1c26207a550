import hashlib

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from csplp import corpus, simplex
from csplp.csp import Constraint, build_instance
from csplp.errors import CsplpError, Infeasible, IterationLimit, Unbounded
from csplp.lp import solve_basic_lp


def test_single_bound():
    # max z s.t. z <= 1
    x, val = simplex.solve([1.0], [[1.0]], ["<="], [1.0])
    assert val == pytest.approx(1.0, abs=1e-9)
    assert x[0] == pytest.approx(1.0)


def test_diagonal_packing_closed_form():
    # max sum z  s.t. a_i z_i <= c_i  has optimum sum(c_i / a_i)
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        a = rng.uniform(1.0, 5.0, size=n)
        c = rng.uniform(0.5, 10.0, size=n)
        A = np.diag(a)
        x, val = simplex.solve(np.ones(n), A, ["<="] * n, c)
        assert val == pytest.approx(float(np.sum(c / a)), abs=1e-7)


def test_equalities_and_inequalities():
    # max x + y  s.t. x + y = 1, x <= 0.25
    x, val = simplex.solve([1.0, 1.0], [[1, 1], [1, 0]], ["=", "<="], [1.0, 0.25])
    assert val == pytest.approx(1.0, abs=1e-9)
    assert x[0] <= 0.25 + 1e-9


def test_ge_rows():
    # min x + y  s.t. x + 2y >= 4, 3x + y >= 6  (classic diet-style LP), as max -x - y
    x, val = simplex.solve([-1.0, -1.0], [[1, 2], [3, 1]], [">=", ">="], [4.0, 6.0])
    assert -val == pytest.approx(2.8, abs=1e-7)


def test_infeasible():
    with pytest.raises(Infeasible):
        simplex.solve([1.0], [[1.0], [1.0]], ["<=", ">="], [1.0, 2.0])


def test_unbounded():
    with pytest.raises(Unbounded):
        simplex.solve([1.0, 1.0], [[1.0, -1.0]], ["<="], [1.0])


def test_degenerate_terminates():
    # many redundant rows through the same vertex
    A = [[1, 0], [1, 0], [1, 0], [0, 1], [1, 1]]
    x, val = simplex.solve([1.0, 1.0], A, ["<="] * 5, [1, 1, 1, 1, 2])
    assert val == pytest.approx(2.0, abs=1e-9)


def test_iteration_limit_is_a_package_error():
    with pytest.raises(IterationLimit) as info:
        simplex.solve([1, 1, 1], np.eye(3), ["<="] * 3, [1, 2, 3], max_iters=1)
    assert isinstance(info.value, CsplpError)


def test_negative_rhs_normalization():
    # x >= 1 written as -x <= -1, minimize x as max -x
    x, val = simplex.solve([-1.0], [[-1.0]], ["<="], [-1.0])
    assert -val == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(15))
def test_random_cross_check_against_scipy(seed):
    """Random mixed-sense LPs cross-validated against an independent solver."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 9))
    A = rng.uniform(-1.0, 2.0, size=(m, n))
    b = rng.uniform(0.5, 3.0, size=m)
    senses = [str(rng.choice(["<=", "<=", "=", ">="])) for _ in range(m)]
    c = rng.uniform(-1.0, 1.0, size=n)
    # add a box row so the LP is bounded
    A = np.vstack([A, np.ones(n)])
    b = np.append(b, 10.0)
    senses.append("<=")

    A_ub = [A[i] for i in range(len(b)) if senses[i] == "<="]
    b_ub = [b[i] for i in range(len(b)) if senses[i] == "<="]
    A_ub += [-A[i] for i in range(len(b)) if senses[i] == ">="]
    b_ub += [-b[i] for i in range(len(b)) if senses[i] == ">="]
    A_eq = [A[i] for i in range(len(b)) if senses[i] == "="] or None
    b_eq = [b[i] for i in range(len(b)) if senses[i] == "="] or None
    ref = linprog(-c, A_ub=A_ub or None, b_ub=b_ub or None, A_eq=A_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")

    if ref.status == 2:
        with pytest.raises(Infeasible):
            simplex.solve(c, A, senses, b)
        return
    assert ref.status == 0
    x, val = simplex.solve(c, A, senses, b)
    assert val == pytest.approx(-ref.fun, abs=1e-7)
    # returned point is feasible
    act = A @ x
    for i, s in enumerate(senses):
        if s == "<=":
            assert act[i] <= b[i] + 1e-9
        elif s == ">=":
            assert act[i] >= b[i] - 1e-9
        else:
            assert act[i] == pytest.approx(b[i], abs=1e-9)
    assert (x >= -1e-12).all()


# --- sparse, degenerate general LPs against HiGHS ------------------------------

ENTRIES = st.sampled_from([0.0] * 6 + [-2.0, -1.0, 1.0, 3.0])  # about 60 % zeros


@st.composite
def sparse_lps(draw):
    """Sparse LPs with zero and negative rhs, mixed senses and copied rows; half of
    them feasible by construction."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    A = np.array(draw(st.lists(st.lists(ENTRIES, min_size=n, max_size=n),
                               min_size=m, max_size=m)))
    senses = draw(st.lists(st.sampled_from(["<=", ">=", "="]), min_size=m, max_size=m))
    b = np.array(draw(st.lists(st.integers(-3, 4), min_size=m, max_size=m)), dtype=float)
    if draw(st.booleans()):
        # feasible by construction: the loads at a planted point, loosened on
        # the slack side of each inequality
        x0 = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        side = np.array([{"<=": 1, ">=": -1, "=": 0}[s] for s in senses])
        b = A @ x0 + side * np.abs(b)
    for src, dst in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                                  max_size=3)):
        A[dst], b[dst] = A[src], b[src]
    c = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    return c, A, senses, b, draw(st.booleans())


def _highs(c, A, senses, b, maximize):
    """HiGHS verdict: the optimal value, or "infeasible" / "unbounded"."""
    rows = {s: [i for i, t in enumerate(senses) if t == s] for s in ("<=", ">=", "=")}
    A_ub = np.vstack([A[rows["<="]], -A[rows[">="]]])
    b_ub = np.concatenate([b[rows["<="]], -b[rows[">="]]])
    kw = dict(A_ub=A_ub if len(b_ub) else None, b_ub=b_ub if len(b_ub) else None,
              A_eq=A[rows["="]] if rows["="] else None, b_eq=b[rows["="]] if rows["="] else None,
              bounds=(0, None), method="highs")
    # feasibility first: HiGHS may answer "infeasible or unbounded" (status 4)
    if linprog(np.zeros(len(c)), **kw).status == 2:
        return "infeasible"
    ref = linprog(-c if maximize else c, **kw)
    if ref.status in (3, 4):
        return "unbounded"
    assert ref.status == 0, ref.message
    return -ref.fun if maximize else ref.fun


@settings(max_examples=400, deadline=None, derandomize=True)
@given(lp=sparse_lps())
def test_sparse_degenerate_lps_against_highs(lp):
    c, A, senses, b, maximize = lp
    expected = _highs(c, A, senses, b, maximize)
    sign = 1.0 if maximize else -1.0  # a minimization is solved as max -c
    try:
        x, val = simplex.solve(sign * c, A, senses, b)
    except Infeasible:
        got = "infeasible"
    except Unbounded:
        got = "unbounded"
    else:
        got = "optimal"
    event(got)
    assert got == (expected if isinstance(expected, str) else "optimal")
    if got != "optimal":
        return
    assert sign * val == pytest.approx(expected, abs=1e-7)
    assert (x >= 0).all()
    act = A @ x
    for i, s in enumerate(senses):
        if s == "<=":
            assert act[i] <= b[i] + 1e-9
        elif s == ">=":
            assert act[i] >= b[i] - 1e-9
        else:
            assert act[i] == pytest.approx(b[i], abs=1e-9)


# --- golden solutions ------------------------------------------------------------

def _cycle_pair(n=120, piece=6):
    """A Hamiltonian cycle of q=2 neq/eq constraints, and the same constraint
    kinds on n/piece disjoint cycles."""
    rng = np.random.default_rng(120)
    preds = [corpus.neq_predicate(2), corpus.eq_predicate(2)]
    kinds = [int(k) for k in rng.integers(0, 2, size=n)]
    perm = [int(v) for v in rng.permutation(n)]
    ring = [Constraint(kinds[i], (perm[i], perm[(i + 1) % n]), 1.0) for i in range(n)]
    blocks = [Constraint(kinds[j], (j, j - j % piece + (j + 1) % piece), 1.0) for j in range(n)]
    return (build_instance(2, 2, 2, 1.0, n, preds, ring),
            build_instance(2, 2, 2, 1.0, n, preds, blocks))


GOLDEN_INSTANCES = {
    "cycle-120": lambda: _cycle_pair()[0],
    "cycle-120-split": lambda: _cycle_pair()[1],
    "horn-32": lambda: corpus.horn_satisfiable(3, n=32, m=40),
}
# sha256 over repr of the value, x and every mu table of solve_basic_lp, as
# recorded with the full rank-one pivot update.  The horn-32 vertex depends on
# the Bland fallback: without it the simplex stops at another optimum.
SOLVE_SHA256 = {
    "cycle-120": "84e048685c2396882cd25a6ed375086a001a98e1a63638121cb0c4a17e09179a",
    "cycle-120-split": "06c403c10f1548934b22d7fc4110c69123192befcded8077ee02ac1dbbb70556",
    "horn-32": "5da8b30559d5e75ba099aefdd6f98c221d1fbf18425af14ff1bbf5c64d421d27",
}


@pytest.mark.parametrize("name", sorted(SOLVE_SHA256))
def test_basic_lp_solution_golden(name):
    value, sol = solve_basic_lp(GOLDEN_INSTANCES[name]())
    parts = [repr(value), repr(sol.x.tolist())]
    parts += [repr(sol.mu[cid].tolist()) for cid in sorted(sol.mu)]
    assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == SOLVE_SHA256[name]
