import numpy as np
import pytest

from csplp import corpus
from csplp.csp import Constraint, brute_force_opt, build_instance
from csplp.errors import NegativeEntry, SizeLimit
from csplp.lp import (
    LinearProgram,
    LpSolution,
    build_basic_lp,
    infeasibility,
    mu_assignments,
    solution_from_json,
    solution_to_json,
    solve_basic_lp,
    solve_lp,
)

from solution_oracle import SolutionLpOracle


@pytest.fixture
def tri():
    return corpus.triangle()


@pytest.fixture
def single():
    return corpus.single()


class TestBuild:
    def test_triangle_counts(self, tri):
        lp = build_basic_lp(tri)
        x_cols = [l for l in lp.labels if l[0] == "x"]
        mu_cols = [l for l in lp.labels if l[0] == "mu"]
        assert len(x_cols) == 6 and len(mu_cols) == 12
        norm = [r for r in lp.rows if r.tag[0] == "norm"]
        marg = [r for r in lp.rows if r.tag[0] == "marg"]
        assert len(norm) == 3 and len(marg) == 12

    def test_single_counts(self, single):
        lp = build_basic_lp(single)
        assert sum(1 for l in lp.labels if l[0] == "x") == 10
        assert sum(1 for l in lp.labels if l[0] == "mu") == 4

    def test_self_loop_scope_collapses_table(self):
        inst = build_instance(2, 2, 1, 1.0, 1, [corpus.neq_predicate(2)],
                              [Constraint(0, (0, 0), 1.0)])
        lp = build_basic_lp(inst)
        assert sum(1 for l in lp.labels if l[0] == "mu") == 2
        assert list(mu_assignments(inst, inst.constraints[0])) == [(0,), (1,)]


class TestSolve:
    def test_triangle_lp_value(self, tri):
        value, sol = solve_basic_lp(tri)
        assert value == pytest.approx(3.0, abs=1e-7)
        assert infeasibility(tri, sol) <= 1e-9

    def test_triangle_certificate(self, tri):
        # a feasible solution of value 3 exists, and 3 = total weight bounds it
        x = np.full((3, 2), 0.5)
        mu = {cid: np.array([0.0, 0.5, 0.5, 0.0]) for cid in range(3)}
        sol = LpSolution(x, mu, 3.0)
        assert infeasibility(tri, sol) <= 1e-12
        value, _ = solve_basic_lp(tri)
        assert 3.0 <= value + 1e-9
        assert value <= tri.total_weight + 1e-9

    def test_single_lp_value(self, single):
        value, _ = solve_basic_lp(single)
        assert value == pytest.approx(1.0, abs=1e-7)

    def test_max_z_leq_one(self):
        one, zero = np.ones(1), np.zeros(1, dtype=np.int64)
        lp = LinearProgram([("z",)], one, [()], ["<="], one, zero, zero, one)
        value, cols = solve_lp(lp)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_tableau_size_limit(self):
        # 20 000 empty "<=" rows over 10 columns: a tableau of about 6 GB
        rows, empty = 20_000, np.zeros(0, dtype=np.int64)
        lp = LinearProgram([("z", j) for j in range(10)], np.ones(10), [()] * rows,
                           ["<="] * rows, np.ones(rows), empty, empty, np.zeros(0))
        with pytest.raises(SizeLimit):
            solve_lp(lp)

    def test_relaxation_dominates_opt_small_corpus(self):
        for seed in range(25):
            inst = corpus.random_instance(seed, n=5, m=4, q=2, t=3)
            lp_val, sol = solve_basic_lp(inst)
            opt, _ = brute_force_opt(inst)
            assert lp_val >= opt - 1e-7
            assert lp_val <= inst.total_weight + 1e-7
            assert infeasibility(inst, sol) <= 1e-9


class TestInfeasibility:
    def test_perturbed_normalization_row(self, tri):
        _, sol = solve_basic_lp(tri)
        sol.x[0, 0] += 0.05
        assert infeasibility(tri, sol) == pytest.approx(0.05, abs=1e-6)

    def test_negative_entry_is_error(self, tri):
        _, sol = solve_basic_lp(tri)
        sol.mu[0][0] = -0.01
        with pytest.raises(NegativeEntry):
            infeasibility(tri, sol)


class TestSolutionPlumbing:
    def test_value_recomputable(self, tri):
        value, sol = solve_basic_lp(tri)
        assert sol.value == pytest.approx(value, abs=1e-9)

    def test_json_round_trip(self, tri):
        _, sol = solve_basic_lp(tri)
        back = solution_from_json(solution_to_json(sol))
        assert back.value == pytest.approx(sol.value)
        assert np.allclose(back.x, sol.x)
        assert all(np.allclose(back.mu[c], sol.mu[c]) for c in sol.mu)

    def test_solution_oracle_serves_columns(self, tri):
        _, sol = solve_basic_lp(tri)
        oracle = SolutionLpOracle(tri, sol)
        assert oracle.query(("x", 0, 1)) == pytest.approx(sol.x[0, 1])
        assert oracle.query(("mu", 0, (0, 1))) == pytest.approx(0.5, abs=1e-7)
        assert oracle.query_count == 2
