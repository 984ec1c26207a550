import numpy as np
import pytest
from scipy.optimize import linprog

from csplp import simplex
from csplp.errors import CsplpError, Infeasible, IterationLimit, Unbounded


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
    # min x + y  s.t. x + 2y >= 4, 3x + y >= 6  (classic diet-style LP)
    x, val = simplex.solve([1.0, 1.0], [[1, 2], [3, 1]], [">=", ">="], [4.0, 6.0],
                           maximize=False)
    assert val == pytest.approx(2.8, abs=1e-7)


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
    # x >= 1 written as -x <= -1, minimize x
    x, val = simplex.solve([1.0], [[-1.0]], ["<="], [-1.0], maximize=False)
    assert val == pytest.approx(1.0, abs=1e-9)


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
