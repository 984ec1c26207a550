import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from csplp import corpus
from csplp.csp import build_instance, Constraint
from csplp.errors import NotFeasibleForLp3, SizeLimit
from csplp.lp import build_basic_lp, infeasibility, solve_basic_lp, solve_lp
from csplp.pipeline import (
    PackingProgram,
    PipelineParams,
    check_lp3_feasible,
    exact_packing_optimum,
    normalize_packing,
    packing_rows,
    primal_column_count,
    relax_basic_lp,
    restore_and_repair,
    to_packing,
)
from csplp.robustness import repair_to_feasible


@pytest.fixture
def tri():
    return corpus.triangle()


@pytest.fixture
def single():
    return corpus.single()


def params_for(inst, eps=0.25):
    return PipelineParams.for_instance(inst, eps)


class TestRelaxed:
    def test_single_band_rows(self, single):
        lp = relax_basic_lp(single, 0.1)
        hi = [r for r in lp.rows if r.tag == ("marg_hi", 0, 0, 0)]
        lo = [r for r in lp.rows if r.tag == ("marg_lo", 0, 0, 0)]
        assert len(hi) == 1 and len(lo) == 1
        assert hi[0].rhs == pytest.approx(1.1)
        assert lo[0].rhs == pytest.approx(0.9)
        # row touches x[0,0] plus the two table entries with beta_0 = 0
        labels = [lp.labels[j] for j in hi[0].cols]
        assert ("x", 0, 0) in labels
        assert ("mu", 0, (0, 0)) in labels and ("mu", 0, (0, 1)) in labels

    def test_zero_slack_matches_complemented_basic(self, tri):
        # at eps=0 the feasible set is the basic one under x -> 1-x, so the
        # optima agree
        lp_val, _ = solve_basic_lp(tri)
        eps0 = relax_basic_lp(tri, 1e-9)
        val, _ = solve_lp(eps0)
        assert val == pytest.approx(lp_val, abs=1e-6)

    def test_relaxation_only_helps(self, tri):
        val, _ = solve_lp(relax_basic_lp(tri, 0.1))
        assert val >= 3.0 - 1e-7


class TestPacking:
    def test_column_doubling(self, single):
        lp3 = to_packing(single, params_for(single))
        assert lp3.num_cols == 2 * (10 + 4) == 28

    def test_pair_sums_at_optimum(self, tri):
        params = params_for(tri)
        lp3 = to_packing(tri, params)
        _, cols = solve_lp(lp3)
        for lab in lp3.labels:
            if lab[0] == "x":
                pair = cols[lab] + cols[("xbar",) + lab[1:]]
            elif lab[0] == "mu":
                pair = cols[lab] + cols[("mubar",) + lab[1:]]
            else:
                continue
            assert pair == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("name", ["triangle", "single"])
    def test_value_shift_is_c_times_columns(self, name):
        inst = getattr(corpus, name)()
        params = params_for(inst, 0.3)
        v2, _ = solve_lp(relax_basic_lp(inst, params.epsilon))
        v3, _ = solve_lp(to_packing(inst, params))
        N = primal_column_count(inst)
        assert v3 - v2 == pytest.approx(params.C * N, abs=1e-6 * max(1.0, inst.total_weight))


class TestNormalize:
    def test_toy_gamma_d(self):
        # two columns with coefficient rows (1,2) and (0,3): max row sum 3
        pp = PackingProgram(
            col_labels=["a", "b"],
            row_tags=[("t", 0), ("t", 1)],
            row=np.array([0, 0, 1, 1]),
            col=np.array([0, 1, 0, 1]),
            coef=np.array([1.0, 0.0, 2.0, 3.0]),
            c=np.array([1.0, 1.0]),
            col_scale=np.ones(2),
        )
        assert pp.gamma_d == 3.0

    def test_exact_solve_size_limit(self):
        # 20 000 empty inequalities over 10 columns: a tableau of about 6 GB
        rows, empty = 20_000, np.zeros(0, dtype=np.int64)
        pp = PackingProgram([("z", j) for j in range(10)], [()] * rows, empty, empty,
                            np.zeros(0), np.ones(rows), np.ones(10))
        with pytest.raises(SizeLimit):
            pp.solve_exact()

    def test_single_stats_and_restricted_form(self, single):
        params = params_for(single, 0.25)
        pp = normalize_packing(to_packing(single, params), params)
        assert pp.coef.min() >= 1.0 - 1e-12
        # c_max stays within a small multiple of C (w + q^s)
        assert pp.c_max <= 4 * params.C * (single.w + single.q ** single.s)
        assert pp.gamma_p > 0 and pp.gamma_d > 0
        assert pp.delta_p >= 2 and pp.delta_d >= 2

    def test_scaling_round_trip(self, single):
        params = params_for(single)
        lp3 = to_packing(single, params)
        v3, cols = solve_lp(lp3)
        pp = normalize_packing(lp3, params)
        y = np.array([cols[lab] for lab in pp.col_labels])
        z = y * pp.col_scale
        assert pp.b @ z == pytest.approx(v3, abs=1e-9)
        assert z / pp.col_scale == pytest.approx(y, rel=1e-15)

    def test_exact_packing_matches_direct_solve(self, tri):
        params = params_for(tri)
        pp = normalize_packing(to_packing(tri, params), params)
        direct, _ = pp.solve_exact()
        assert exact_packing_optimum(tri, params) == pytest.approx(direct, rel=1e-9)


@st.composite
def small_instances(draw):
    """A random small instance and a slack eps."""
    q = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(1, 3))
    inst = corpus.random_instance(draw(st.integers(0, 2 ** 31 - 1)), q=q, s=s,
                                  n=draw(st.integers(max(s, 2), 5)),
                                  m=draw(st.integers(1, 4)))
    return inst, draw(st.floats(0.1, 0.4))


@st.composite
def small_programs(draw):
    """The restricted packing program of a random small instance."""
    inst, eps = draw(small_instances())
    params = params_for(inst, eps)
    return normalize_packing(packing_rows(inst, params), params)


class TestBasicBuilders:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(drawn=small_instances())
    def test_against_highs_and_row_view(self, drawn):
        inst, eps = drawn
        for lp in (build_basic_lp(inst), relax_basic_lp(inst, eps)):
            c, A, senses, b = lp.dense()
            rows = lp.rows
            rebuilt = np.zeros_like(A)
            for j, row in enumerate(rows):
                rebuilt[j, row.cols] = row.coefs
            assert np.array_equal(rebuilt, A)
            assert [(r.sense, r.rhs, r.tag) for r in rows] == list(zip(senses, b, lp.tags))
            eq = np.array(senses) == "="
            flip = np.where(np.array(senses) == ">=", -1.0, 1.0)
            res = linprog(-c, A_ub=(flip[:, None] * A)[~eq], b_ub=(flip * b)[~eq],
                          A_eq=A[eq], b_eq=b[eq], bounds=(0, None), method="highs")
            assert res.status == 0
            value, _ = solve_lp(lp)
            assert value == pytest.approx(-res.fun, rel=1e-7)


class TestFlatProgram:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(prog=small_programs())
    def test_against_dense_matrix_and_highs(self, prog):
        A = np.zeros((prog.num_rows, prog.num_cols))
        for j, (cols, coefs) in enumerate(prog.row_entries):
            A[j, cols] = coefs
        res = linprog(-prog.b, A_ub=A, b_ub=prog.c, bounds=(0, None), method="highs")
        assert res.status == 0
        value, _ = prog.solve_exact()
        assert value == pytest.approx(-res.fun, rel=1e-7)
        assert prog.max_violation(res.x) <= 1e-7
        over = 2 * res.x
        assert prog.max_violation(over) == pytest.approx(max(0.0, (A @ over - prog.c).max()),
                                                         rel=1e-12)
        assert prog.gamma_d == pytest.approx(A.sum(axis=0).max(), rel=1e-12)
        assert prog.gamma_p == pytest.approx(
            (prog.c.max() / prog.c * A.sum(axis=1)).max(), rel=1e-12)
        assert prog.delta_p == (A != 0).sum(axis=1).max()
        assert prog.delta_d == (A != 0).sum(axis=0).max()


class TestCheckLp3:
    def test_negative_column_is_named(self, single):
        rows = packing_rows(single, params_for(single))
        with pytest.raises(NotFeasibleForLp3, match=r"\('xbar', 3, 1\)"):
            check_lp3_feasible(rows, {("xbar", 3, 1): -1e-6})

    def test_row_excess_within_tol_passes(self, single):
        # x + xbar <= 1 for the isolated variable 2; its other rows keep slack
        rows = packing_rows(single, params_for(single))
        assert check_lp3_feasible(rows, {("x", 2, 0): 1 + 0.5e-7}) == pytest.approx(0.5e-7)

    def test_row_excess_beyond_tol_raises(self, single):
        rows = packing_rows(single, params_for(single))
        with pytest.raises(NotFeasibleForLp3, match="row violation"):
            check_lp3_feasible(rows, {("x", 2, 0): 1 + 2e-7})


class TestRestoreRepair:
    def test_exact_optimum_no_resets(self, tri):
        params = params_for(tri, 0.25)
        lp3 = to_packing(tri, params)
        _, cols = solve_lp(lp3)
        sol, report = restore_and_repair(tri, cols, params, lp3)
        assert report["reset_variables"] == []
        assert report["measured_infeasibility"] <= params.epsilon + 1e-9
        # output x agrees with the complement columns at the optimum
        for v in range(3):
            for a in range(2):
                assert sol.x[v, a] == pytest.approx(cols[("xbar", v, a)], abs=1e-6)

    def test_drifted_pair_resets_block(self, single):
        params = params_for(single, 0.25)
        lp3 = to_packing(single, params)
        _, cols = solve_lp(lp3)
        cols[("x", 0, 0)] = 0.25
        cols[("xbar", 0, 0)] = 0.25  # pair sums to 0.5: gap 0.5 >= eps = 0.25
        sol, report = restore_and_repair(single, cols, params, lp3)
        assert report["reset_variables"] == [0]
        assert np.allclose(sol.x[0], 0.5)
        assert 0 in report["reset_tables"]
        # rebuilt table is an exact product distribution here
        assert sol.mu[0].sum() == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_input_rejected(self, single):
        params = params_for(single)
        z = {lab: 2.0 for lab in to_packing(single, params).labels}
        with pytest.raises(NotFeasibleForLp3):
            restore_and_repair(single, z, params)

    def test_corpus_contract(self):
        # exact stage-2 optima restored to basic coordinates keep nearly all
        # of the LP value and stay within the slack band
        eps = 0.2
        good = 0
        insts = corpus.pipeline_corpus(15, seed=5)
        for inst in insts:
            params = PipelineParams.for_instance(inst, eps)
            lp3 = to_packing(inst, params)
            _, cols = solve_lp(lp3)
            sol, report = restore_and_repair(inst, cols, params, lp3)
            lp_val, _ = solve_basic_lp(inst)
            if (report["measured_infeasibility"] <= eps + 1e-9
                    and sol.value >= (1 - eps) * lp_val - eps * inst.n - 1e-7):
                good += 1
        assert good >= 0.9 * len(insts)

    def test_downstream_repair_is_exactly_feasible(self, tri):
        params = params_for(tri, 0.2)
        lp3 = to_packing(tri, params)
        _, cols = solve_lp(lp3)
        sol, _ = restore_and_repair(tri, cols, params, lp3)
        fixed, rep = repair_to_feasible(tri, sol)
        assert infeasibility(tri, fixed) <= 1e-9
        kappa = 6 * tri.s * tri.q ** 3
        eps_meas = rep["input_eps"]
        assert fixed.value >= sol.value - kappa * max(eps_meas, 1e-12) * tri.total_weight - 1e-7
