import numpy as np
import pytest

from csplp import corpus, localsolve
from csplp.csp import ConstraintOracle, Constraint, build_instance, connected_components
from csplp.lp import infeasibility, mu_assignments, solve_basic_lp
from csplp.localsolve import (
    BallProgram,
    LocalSolverParams,
    LpOracle,
    PackingDynamics,
    analytic_gamma_bounds,
    assemble_global,
    assemble_packing_vector,
    build_ball,
)
from csplp.pipeline import (
    PipelineParams,
    exact_packing_optimum,
    normalize_packing,
    restore_and_repair,
    to_packing,
)
from csplp.rounding import round_assignment


def make_oracle(inst, eps=0.2, **solver_kw):
    o = ConstraintOracle(inst)
    pp = PipelineParams.for_instance(inst, eps)
    return LpOracle(o, pp, LocalSolverParams(**solver_kw)), pp


def canon_rows(labels, row_cols, row_coefs, rhs):
    out = set()
    for cols, coefs, r in zip(row_cols, row_coefs, rhs):
        entry = tuple(sorted(zip((tuple(labels[c]) for c in cols), coefs)))
        out.add((entry, round(float(r), 6)))
    return out


class TestBall:
    def test_radius_zero_scans_center_only(self):
        single = corpus.single()
        o = ConstraintOracle(single)
        view = build_ball(o, ("x", 0, 0), 0)
        assert view.scanned == {0}
        assert o.query_count <= single.t

    def test_radius_one_cost(self):
        single = corpus.single()
        o = ConstraintOracle(single)
        view = build_ball(o, ("x", 0, 0), 1)
        assert 0 in view.constraints  # the only constraint
        assert o.query_count <= single.t * single.s

    def test_isolated_variable_never_grows(self):
        single = corpus.single()
        o = ConstraintOracle(single)
        view = build_ball(o, ("x", 2, 0), 5)
        assert view.scanned == {2}
        assert view.constraints == {}

    def test_ball_rows_match_global_builder(self):
        # the locally derived program is exactly the whole-instance one once
        # the view covers everything
        from csplp.localsolve import CommGraphView
        for inst in [corpus.triangle(), corpus.random_instance(3, q=3, n=4, m=3)]:
            pp = PipelineParams.for_instance(inst, 0.25)
            view = CommGraphView()
            view.known_vars = set(range(inst.n))
            view.scanned = set(range(inst.n))
            view.constraints = dict(enumerate(inst.constraints))
            prog = BallProgram(view, inst, pp)
            ref = normalize_packing(to_packing(inst, pp), pp)
            got = canon_rows(prog.labels, [c for c, _ in prog.row_entries],
                             [f for _, f in prog.row_entries], prog.c)
            want = canon_rows(ref.col_labels, [c for c, _ in ref.row_entries],
                              [f for _, f in ref.row_entries], ref.c)
            assert got == want


class TestDynamics:
    def test_singleton_column_returns_its_bound(self):
        # max z s.t. z <= c, solved by the two-phase rule alone
        c = 7.25
        prog = PackingDynamics(["z"], [np.array([0])], [np.array([1.0])], [c])
        z = prog.rescale_feasible(prog.ascend(prog.initial_point(5.0), 64, 0.25))
        assert z[0] == pytest.approx(c, rel=1e-6)

    def test_two_disconnected_columns_component_exact(self):
        prog = PackingDynamics(
            ["a", "b"],
            [np.array([0]), np.array([1])],
            [np.array([1.0]), np.array([2.0])],
            [3.0, 5.0],
        )
        z = prog.rescale_feasible(prog.ascend(prog.initial_point(4.0), 64, 0.25))
        assert z[0] == pytest.approx(3.0, rel=1e-6)
        assert z[1] == pytest.approx(2.5, rel=1e-6)

    def test_phase_two_forces_feasibility_any_round_count(self):
        tri = corpus.triangle()
        pp = PipelineParams.for_instance(tri, 0.2)
        ref = normalize_packing(to_packing(tri, pp), pp)
        for rounds in (0, 1, 3, 17):
            lo, _ = make_oracle(tri, rounds_cap=max(rounds, 1))
            lo.rounds = max(rounds, 1)
            z = assemble_packing_vector(lo, tri)
            arr = np.array([z[lab] for lab in ref.col_labels])
            assert ref.max_violation(arr) <= 1e-9


def minimum_at_dynamics(prog, gamma_d, rounds, eta):
    """The two-phase rule with every column minimum taken by `np.minimum.at`."""
    z = np.full(prog.num_cols, np.inf)
    np.minimum.at(z, prog.col, prog.c[prog.row] / (prog.coef * gamma_d))
    start = z.copy()
    for _ in range(rounds):
        slack = (prog.c - prog.loads(z)) / prog.c
        worst = np.full_like(z, np.inf)
        np.minimum.at(worst, prog.col, slack[prog.row])
        z *= np.clip(1.0 + eta * worst, 1.0, 1.0 + eta)
    factor = np.ones(prog.num_cols)
    np.minimum.at(factor, prog.col, np.minimum(1.0, prog.c / prog.loads(z))[prog.row])
    return start, z, z * factor


class TestColumnMinimum:
    def assert_bit_identical(self, prog, gamma_d, rounds, eta=0.25):
        start, z1, z2 = minimum_at_dynamics(prog, gamma_d, rounds, eta)
        got_start = prog.initial_point(gamma_d)
        got_z1 = prog.ascend(got_start, rounds, eta)
        got = [got_start, got_z1, prog.rescale_feasible(got_z1)]
        assert [a.tobytes() for a in got] == [b.tobytes() for b in (start, z1, z2)]

    def test_random_programs_match_minimum_at(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            ncols, nrows = int(rng.integers(1, 12)), int(rng.integers(1, 9))
            # some columns sit in no row and keep growing at the full rate
            row_cols = [np.sort(rng.choice(ncols, size=int(rng.integers(1, ncols + 1)),
                                           replace=False)) for _ in range(nrows)]
            row_coefs = [1.0 + 3.0 * rng.random(len(cols)) for cols in row_cols]
            prog = PackingDynamics(range(ncols), row_cols, row_coefs,
                                   0.5 + 10.0 * rng.random(nrows))
            self.assert_bit_identical(prog, 1.0 + 5.0 * rng.random(),
                                      int(rng.integers(0, 70)))

    def test_ball_program_matches_minimum_at(self):
        inst = corpus.horn_satisfiable(3, n=16, m=20)
        lo, pp = make_oracle(inst)
        prog = BallProgram(build_ball(ConstraintOracle(inst), ("x", 0, 0), lo.rounds + 1),
                           inst, pp)
        self.assert_bit_identical(prog, lo.gamma_d_bound, lo.rounds, lo.solver.eta)


class TestOracleContract:
    def test_deterministic_repeats(self):
        tri = corpus.triangle()
        lo, _ = make_oracle(tri)
        a = lo.query(("x", 1, 0))
        b = lo.query(("x", 1, 0))
        assert a == b
        m1 = lo.query(("mu", 0, (0, 1)))
        m2 = lo.query(("mu", 0, (0, 1)))
        assert m1 == m2

    def test_assembled_quality_triangle(self):
        tri = corpus.triangle()
        lo, _ = make_oracle(tri)
        sol = assemble_global(lo, tri)
        eps, n = 0.2, tri.n
        # the ascent converges geometrically; allow its residual dust
        assert infeasibility(tri, sol) <= eps + 1e-6
        assert (1 - eps) * 3.0 - eps * n - 1e-9 <= sol.value <= 3.0 + 1e-9

    def test_assembled_quality_single(self):
        single = corpus.single()
        lo, _ = make_oracle(single)
        sol = assemble_global(lo, single)
        lp_val, _ = solve_basic_lp(single)
        assert infeasibility(single, sol) <= 0.2 + 1e-6
        assert sol.value >= (1 - 0.2) * lp_val - 0.2 * single.n - 1e-9

    def test_empty_instance(self):
        inst = build_instance(2, 2, 2, 1.0, 0, [corpus.neq_predicate(2)], [])
        lo, _ = make_oracle(inst)
        sol = assemble_global(lo, inst)
        assert sol.value == 0.0
        assert sol.x.shape == (0, 2)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_rounds_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match="rounds_cap"):
            LocalSolverParams(rounds_cap=cap)

    def test_query_cost_bound(self):
        inst = corpus.random_instance(11, q=2, n=8, m=7, t=4)
        lo, pp = make_oracle(inst, rounds_cap=2)
        ref = normalize_packing(to_packing(inst, pp), pp)
        bound = max(inst.q, inst.q * inst.s) * float(ref.delta_p * ref.delta_d) ** (lo.rounds + 2)
        for name in [("x", 0, 0), ("x", 5, 1), ("mu", 0, (0, 0))]:
            lo.query(name)
            assert 0 < lo.last_query_cost <= bound


class TestLocality:
    def chain(self, last_pred):
        neq, eq = corpus.neq_predicate(2), corpus.eq_predicate(2)
        cons = [Constraint(0, (i, i + 1), 1.0) for i in range(5)]
        cons.append(Constraint(last_pred, (5, 6), 1.0))
        return build_instance(2, 2, 2, 1.0, 7, [neq, eq], cons)

    def test_far_edits_do_not_change_answers(self):
        # two chains differing only in the far end; with one ascent round the
        # needed balls agree, so answers are bit identical
        a, b = self.chain(0), self.chain(1)
        for name in [("x", 0, 0), ("x", 0, 1), ("mu", 0, (0, 1))]:
            lo_a, _ = make_oracle(a, rounds_cap=1)
            lo_b, _ = make_oracle(b, rounds_cap=1)
            assert lo_a.query(name) == lo_b.query(name)

    def test_near_edits_do_change_inputs(self):
        a, b = self.chain(0), self.chain(1)
        lo_a, _ = make_oracle(a, rounds_cap=1)
        lo_b, _ = make_oracle(b, rounds_cap=1)
        va = lo_a.packing_value(("mu", 5, (0, 1)))
        vb = lo_b.packing_value(("mu", 5, (0, 1)))
        assert va != vb  # the flipped predicate sits inside this ball


class TestLocalEqualsGlobal:
    def test_local_answers_equal_one_global_run(self):
        # one builder and one reset rule: every per-query answer is exactly
        # the entry of a single run over the whole program
        insts = corpus.local_corpus(12, seed=7)[:6]
        insts += [corpus.component_union(5, pieces=6), corpus.triangle(), corpus.single()]
        cases = [(inst, LocalSolverParams()) for inst in insts]
        # a 40-cycle at few rounds, where every ball is smaller than the instance
        cons = [Constraint(0, (i, (i + 1) % 40), 1.0) for i in range(40)]
        cycle = build_instance(2, 2, 2, 1.0, 40, [corpus.neq_predicate(2)], cons)
        cases += [(cycle, LocalSolverParams(rounds_cap=cap)) for cap in (1, 2, 4)]
        for inst, solver in cases:
            pp = PipelineParams.for_instance(inst, 0.2)
            lo = LpOracle(ConstraintOracle(inst), pp, solver)
            if inst is cycle:
                ball = build_ball(ConstraintOracle(inst), ("x", 0, 0), lo.rounds + 1)
                assert len(ball.known_vars) < inst.n
            ref = normalize_packing(to_packing(inst, pp), pp)
            dyn = PackingDynamics(ref.col_labels, [c for c, _ in ref.row_entries],
                                  [k for _, k in ref.row_entries], ref.c)
            z = dyn.rescale_feasible(dyn.ascend(dyn.initial_point(lo.gamma_d_bound),
                                                lo.rounds, lo.solver.eta))
            assert assemble_packing_vector(lo, inst) == dict(zip(ref.col_labels, z))
            stage2 = {lab: z[i] / ref.col_scale[i] for i, lab in enumerate(ref.col_labels)}
            want, _ = restore_and_repair(inst, stage2, pp)
            got = assemble_global(lo, inst)
            assert (got.x == want.x).all()
            assert got.mu.keys() == want.mu.keys()
            assert all((got.mu[cid] == want.mu[cid]).all() for cid in want.mu)


class RecordingOracle(ConstraintOracle):
    """A constraint oracle that logs every question it answers."""

    def __init__(self, inst):
        super().__init__(inst)
        self.asked = []

    def query(self, v, i):
        self.asked.append(("slot", v, i))
        return super().query(v, i)

    def constraint(self, cid):
        self.asked.append(("payload", cid))
        return super().constraint(cid)


def distinct_reveals(lo, names) -> int:
    """Distinct slots and payloads that the balls of `names` reveal."""
    rec = RecordingOracle(lo.oracle.instance)
    for name in names:
        build_ball(rec, name, lo.rounds + (1 if name[0] == "x" else 2))
    return len(set(rec.asked))


class TestQueryMany:
    def assert_matches_query(self, inst, names, **solver_kw):
        lo, _ = make_oracle(inst, **solver_kw)
        values, costs = lo.query_many(names)
        fresh, _ = make_oracle(inst, **solver_kw)
        want = [(fresh.query(name), fresh.last_query_cost) for name in names]
        assert list(zip(values, costs)) == want
        # each name reports its stand-alone cost; the counter pays each reveal once
        assert lo.oracle.query_count == distinct_reveals(lo, names)

    def test_repeated_balls_match_query(self):
        for inst in [corpus.triangle(), corpus.horn_satisfiable(3, n=16, m=20),
                     corpus.component_union(5, pieces=6), corpus.horn_far(8)]:
            names = [("x", v, a) for v in range(inst.n) for a in range(inst.q)]
            names += [("mu", cid, beta) for cid, c in enumerate(inst.constraints)
                      for beta in mu_assignments(inst, c)]
            self.assert_matches_query(inst, names)

    def test_distinct_balls_match_query(self):
        # a 12-cycle at one ascent round: balls differ by anchor, and the names
        # jump between far-apart anchors and back, so a stale ball is missing
        # the next name's columns
        cons = [Constraint(0, (i, (i + 1) % 12), 1.0) for i in range(12)]
        cycle = build_instance(2, 2, 2, 1.0, 12, [corpus.neq_predicate(2)], cons)
        names = [("x", 0, 0), ("x", 6, 1), ("mu", 3, (0, 1)), ("x", 1, 0), ("x", 7, 0),
                 ("mu", 9, (1, 1)), ("x", 0, 0), ("mu", 0, (1, 0)), ("x", 0, 1),
                 ("x", 6, 0), ("x", 6, 0), ("mu", 6, (0, 0))]
        self.assert_matches_query(cycle, names, rounds_cap=1)

    def test_mixed_names_across_components(self):
        inst = corpus.component_union(5, pieces=6)
        names = []
        comps = connected_components(inst)
        for vs, cids in comps + comps[::-1]:
            mus = [("mu", cid, beta) for cid in cids[::2]
                   for beta in mu_assignments(inst, inst.constraints[cid])[::3]]
            names += mus[:2] + [("x", vs[-1], 1), ("x", vs[0], 0)] + mus[2:]
        assert {name[0] for name in names} == {"x", "mu"}
        self.assert_matches_query(inst, names)

    def test_closed_call_runs_dynamics_once(self, monkeypatch):
        calls = []
        ascend = PackingDynamics.ascend
        monkeypatch.setattr(PackingDynamics, "ascend",
                            lambda self, *a: calls.append(1) or ascend(self, *a))
        inst = corpus.horn_far(8)
        lo, _ = make_oracle(inst)
        names = [("x", v, a) for v in range(inst.n) for a in range(inst.q)]
        names += [("mu", cid, (0,)) for cid in range(len(inst.constraints))]
        lo.query_many(names)
        assert len(calls) == 1

    @staticmethod
    def path(n):
        cons = [Constraint(0, (i, i + 1), 1.0) for i in range(n - 1)]
        return build_instance(2, 2, 2, 1.0, n, [corpus.neq_predicate(2)], cons)

    @pytest.mark.parametrize("n, order, searches", [
        # the middle's ball closes at depth 1; both ends sit at level 1, and
        # 1 + 1 is the x radius at one round, so they reuse it
        (3, [1, 0, 2], 1),
        # the middle's ball closes at depth 2; level 1 + depth 2 exceeds the
        # radius, so every other variable searches again, and those balls are open
        (5, [2, 1, 0, 3, 4], 5),
    ])
    def test_reuse_needs_level_plus_depth_within_radius(self, monkeypatch, n, order,
                                                        searches):
        names = [("x", v, a) for v in order for a in (0, 1)]
        self.assert_matches_query(self.path(n), names, rounds_cap=1)
        calls = []
        monkeypatch.setattr(localsolve, "build_ball",
                            lambda *a: calls.append(1) or build_ball(*a))
        lo, _ = make_oracle(self.path(n), rounds_cap=1)
        lo.query_many(names)
        assert len(calls) == searches

    @pytest.mark.parametrize("cap", [1, 2, 4])
    def test_open_balls_on_cycle_match_query(self, cap):
        cons = [Constraint(0, (i, (i + 1) % 40), 1.0) for i in range(40)]
        cycle = build_instance(2, 2, 2, 1.0, 40, [corpus.neq_predicate(2)], cons)
        names = [("x", v, a) for v in range(40) for a in (0, 1)]
        self.assert_matches_query(cycle, names, rounds_cap=cap)

    def test_rounding_counts_distinct_marginal_reveals(self):
        inst = corpus.horn_satisfiable(3, n=16, m=20)
        lo, _ = make_oracle(inst)
        round_assignment(ConstraintOracle(inst), lo, 0.3, 0)
        names = [("x", v, a) for v in range(inst.n) for a in range(inst.q)]
        assert lo.oracle.query_count == distinct_reveals(lo, names)


class TestCorpusQuality:
    def test_feasible_and_near_optimal_on_small_corpus(self):
        insts = corpus.local_corpus(12, seed=7)
        ok_quality = 0
        for inst in insts[:8]:
            pp = PipelineParams.for_instance(inst, 0.2)
            lo = LpOracle(ConstraintOracle(inst), pp)
            ref = normalize_packing(to_packing(inst, pp), pp)
            z = assemble_packing_vector(lo, inst)
            arr = np.array([z[lab] for lab in ref.col_labels])
            assert ref.max_violation(arr) <= 1e-9
            exact = exact_packing_optimum(inst, pp)
            if arr.sum() >= 0.8 * exact:
                ok_quality += 1
        assert ok_quality >= 7

    def test_quality_monotone_in_rounds(self):
        inst = corpus.random_instance(5, q=2, n=6, m=5, t=3)
        pp = PipelineParams.for_instance(inst, 0.2)
        ref = normalize_packing(to_packing(inst, pp), pp)
        exact = exact_packing_optimum(inst, pp)
        ratios = []
        for cap in (1, 2, 4, 8, 16):
            lo = LpOracle(ConstraintOracle(inst), pp, LocalSolverParams(rounds_cap=cap))
            z = assemble_packing_vector(lo, inst)
            arr = np.array([z[lab] for lab in ref.col_labels])
            ratios.append(arr.sum() / exact)
        for lo_r, hi_r in zip(ratios, ratios[1:]):
            assert hi_r >= lo_r - 0.01


def test_gamma_bounds_dominate_measured():
    for seed in (1, 2, 3):
        inst = corpus.random_instance(seed, q=2, n=5, m=4)
        pp = PipelineParams.for_instance(inst, 0.25)
        ref = normalize_packing(to_packing(inst, pp), pp)
        gp, gd = analytic_gamma_bounds(pp)
        assert gd >= ref.gamma_d - 1e-9
        # gamma_p uses worst-case rhs pairings; allow the analytic form to win
        assert gp >= ref.gamma_p * 0.99
