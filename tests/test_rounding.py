import inspect
import itertools

import numpy as np
import pytest

from csplp import corpus, localsolve, rounding
from csplp.csp import (Constraint, ConstraintOracle, RevealMemo, brute_force_opt,
                       build_instance, evaluate)
from csplp.errors import FoldTooLarge
from csplp.lp import LpSolution, infeasibility, solve_basic_lp
from csplp.localsolve import LpOracle
from csplp.pipeline import PipelineParams
from csplp.rounding import (
    DRAW,
    adjust_epsilon,
    estimate_assignment_value,
    fold_map,
    grid_coords,
    per_variable_shares,
    round_assignment,
    SlotScan,
    test_satisfiability as run_satisfiability_test,
    tester_threshold as separation_threshold,
    unfold_value,
    TESTER_DELTA_PRESETS,
)

from solution_oracle import SolutionLpOracle


def unfolded_assignment(fm, beta):
    return [unfold_value(fm, beta, v) for v in range(len(fm.keys))]


def exact_oracle(inst):
    _, sol = solve_basic_lp(inst)
    return SolutionLpOracle(inst, sol), sol


def local_oracle(inst, eps=0.2):
    return LpOracle(ConstraintOracle(inst), PipelineParams.for_instance(inst, eps))


class TestDiscretize:
    """The one grid rule: x rounds up to grid_coords(x, eps) * eps."""

    def test_examples(self):
        assert grid_coords(0.3, 0.25) == 2
        assert grid_coords(0.0, 0.25) == 0
        assert grid_coords(1.0, 0.25) == 4

    def test_maps_small_positives_up(self):
        assert grid_coords(1e-9, 0.25) == 1

    def test_monotone_and_bracketing(self):
        eps = adjust_epsilon(0.3)
        xs = np.linspace(0.0, 1.0 + eps, 237)
        ys = grid_coords(xs, eps) * eps
        assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:]))
        for x, y in zip(xs, ys):
            if x > 0:
                assert x - 1e-9 <= y < x + eps

    def test_idempotent_on_image(self):
        eps = 0.2
        for k in range(0, 7):
            v = grid_coords(k * eps, eps) * eps
            assert grid_coords(v, eps) * eps == pytest.approx(v)

    def test_adjust_epsilon(self):
        assert adjust_epsilon(0.3) == pytest.approx(0.25)
        assert adjust_epsilon(0.25) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            grid_coords(0.5, 0.3)


def fold(instance, x, eps):
    """Materialize the folded instance (same predicates and weights, scopes
    mapped through the bucket map; scopes may repeat buckets).  The program
    folds implicitly, through `fold_map` and `unfold_value`."""
    fm = fold_map(x, eps)
    folded_cons = [Constraint(c.predicate, tuple(fm.bucket_of(v) for v in c.scope), c.weight)
                   for c in instance.constraints]
    degree = [0] * fm.bucket_count
    for c in folded_cons:
        for b in set(c.scope):
            degree[b] += 1
    t_folded = max(degree, default=1) or 1
    folded = build_instance(instance.q, instance.s, t_folded, instance.w,
                            fm.bucket_count, instance.predicates, folded_cons)
    return fm, folded


class TestFold:
    def test_triangle_collapses_to_self_loops(self):
        tri = corpus.triangle()
        x = np.full((3, 2), 0.5)
        fm, folded = fold(tri, x, 0.25)
        assert fm.bucket_count == 1
        assert folded.n == 1
        assert len(folded.constraints) == 3
        assert all(c.scope == (0, 0) for c in folded.constraints)
        assert folded.total_weight == tri.total_weight

    def test_identity_fold_preserves_lp(self):
        tri = corpus.triangle()
        x = np.array([[0.1, 0.9], [0.4, 0.6], [0.7, 0.3]])
        fm, folded = fold(tri, x, adjust_epsilon(0.01))
        assert fm.bucket_count == 3
        v1, _ = solve_basic_lp(tri)
        v2, _ = solve_basic_lp(folded)
        assert v2 == pytest.approx(v1, abs=1e-7)

    def test_fold_value_preservation_exhaustive(self):
        inst = corpus.random_instance(9, n=6, m=5, q=2, t=4)
        rng = np.random.default_rng(1)
        x = rng.random((6, 2))
        fm, folded = fold(inst, x, 0.5)
        for beta in itertools.product(range(2), repeat=fm.bucket_count):
            unfolded = unfolded_assignment(fm, beta)
            assert evaluate(folded, beta) == pytest.approx(evaluate(inst, unfolded))

    def test_merge_of_identical_gadgets_keeps_lp(self):
        # gadget with a unique, variable-distinguishing optimum; identical
        # copies fold onto each other without losing LP value
        is1 = corpus.unary_is(2, 1)
        neq = corpus.neq_predicate(2)
        copies = 3
        cons = []
        for j in range(copies):
            cons.append(Constraint(0, (2 * j,), 1.0))
            cons.append(Constraint(1, (2 * j, 2 * j + 1), 1.0))
        inst = build_instance(2, 2, 2, 1.0, 2 * copies, [is1, neq], cons)
        lp_val, sol = solve_basic_lp(inst)
        eps = adjust_epsilon(0.02)
        fm, folded = fold(inst, sol.x, eps)
        assert fm.bucket_count == 2
        folded_val, _ = solve_basic_lp(folded)
        assert folded_val == pytest.approx(lp_val, abs=1e-6)

    def test_discretized_solution_stays_nearly_feasible(self):
        # an eps0-infeasible pair moves to at most (q+1) eps violation
        for seed in range(6):
            inst = corpus.random_instance(seed, n=5, m=4, q=2)
            _, sol = solve_basic_lp(inst)
            eps = adjust_epsilon(0.2)
            x_eps = grid_coords(sol.x, eps) * eps
            moved = LpSolution(x_eps, sol.mu, sol.value)
            assert infeasibility(inst, moved) <= (inst.q + 1) * eps + 1e-9


class TestShares:
    def test_triangle_hand_values(self):
        tri = corpus.triangle()
        x = np.array([[0.1, 0.9], [0.4, 0.6], [0.7, 0.3]])
        fm = fold_map(x, 0.05)
        beta = [None] * fm.bucket_count
        for v, val in enumerate((0, 1, 0)):
            beta[fm.bucket_of(v)] = val
        f = per_variable_shares(SlotScan(ConstraintOracle(tri)), fm, beta)
        assert np.allclose(f, [0.5, 1.0, 0.5])
        assert f.sum() == pytest.approx(evaluate(tri, (0, 1, 0)))

    def test_constant_instance_estimate(self):
        true = corpus.Predicate("true", 1, (1, 1))
        cons = [Constraint(0, (v,), 1.0) for v in range(6)]
        inst = build_instance(2, 2, 2, 1.0, 6, [true], cons)
        fm = fold_map(np.full((6, 2), 0.5), 0.25)
        est = estimate_assignment_value(SlotScan(ConstraintOracle(inst)), fm, (0,), 0.3, 0.1,
                                        seed=4)
        assert est == pytest.approx(inst.total_weight)  # constant f has no variance

    def test_estimator_miss_rate(self):
        inst = corpus.horn_satisfiable(17, n=8, m=10)
        _, sol = solve_basic_lp(inst)
        fm = fold_map(sol.x, adjust_epsilon(0.02))
        beta = tuple(0 for _ in range(fm.bucket_count))
        truth = evaluate(inst, unfolded_assignment(fm, beta))
        eps, delta = 0.3, 0.05
        misses = 0
        trials = 400
        for seed in range(trials):
            est = estimate_assignment_value(SlotScan(ConstraintOracle(inst)), fm, beta, eps,
                                            delta, seed)
            if abs(est - truth) > eps * inst.n / 2:
                misses += 1
        assert misses / trials <= delta + 3 * np.sqrt(delta / trials)


class TestRound:
    def test_gadget_copies_recover_opt(self):
        is1 = corpus.unary_is(2, 1)
        neq = corpus.neq_predicate(2)
        cons = []
        for j in range(4):
            cons.append(Constraint(0, (2 * j,), 1.0))
            cons.append(Constraint(1, (2 * j, 2 * j + 1), 1.0))
        inst = build_instance(2, 2, 2, 1.0, 8, [is1, neq], cons)
        opt, _ = brute_force_opt(inst)
        oracle, _ = exact_oracle(inst)
        hits = 0
        for seed in range(30):
            res = round_assignment(ConstraintOracle(inst), oracle, 0.3, seed)
            if evaluate(inst, res.full_assignment(inst.n)) == pytest.approx(opt):
                hits += 1
        assert hits >= 20

    def test_single_bucket_enumerates_two_assignments(self):
        # the triangle's one bucket holds every edge, so besides its two
        # constants it is enumerated with exactly one independent-draw rule
        tri = corpus.triangle()
        oracle, _ = exact_oracle(tri)
        res = round_assignment(ConstraintOracle(tri), oracle, 0.3, seed=0)
        assert res.fold.bucket_count == 1
        rules = [beta for beta, _, _ in res.transcript]
        assert len(rules) == tri.q + 1
        assert set(rules) == {(0,), (1,), (DRAW,)}

    def test_estimate_upper_envelope(self):
        eps = 0.3
        for seed in range(10):
            inst = corpus.horn_satisfiable(seed, n=7, m=8)
            opt, _ = brute_force_opt(inst)
            res = round_assignment(ConstraintOracle(inst), local_oracle(inst), eps, seed)
            assert res.estimate <= opt + eps * inst.n / 2 + 1e-9

    def test_short_circuit_on_negligible_weight(self):
        single = corpus.single()  # weight 1 < 0.3 * 5
        res = round_assignment(ConstraintOracle(single), local_oracle(single), 0.3, 1)
        assert res.short_circuited
        assert res.estimate == 0.0
        assert res.assignment_query(3) == 0

    def test_fold_budget(self):
        inst = corpus.horn_satisfiable(5, n=24, m=30)
        # one bucket per variable: 2^24 folded assignments, past ASSIGNMENT_BUDGET
        x = np.linspace(0.05, 0.95, inst.n)[:, None] * np.array([1.0, 1.0])
        oracle = SolutionLpOracle(inst, LpSolution(x, {}, 0.0))
        with pytest.raises(FoldTooLarge):
            round_assignment(ConstraintOracle(inst), oracle, 0.3, 1)

    def test_assignment_queries_deterministic_and_bucket_constant(self):
        tri = corpus.triangle()
        base = ConstraintOracle(tri)
        res = round_assignment(base, local_oracle(tri), 0.3, seed=3)
        spent = base.query_count
        answers = [res.assignment_query(v) for v in range(3)]
        assert answers == [res.assignment_query(v) for v in range(3)]
        assert base.query_count == spent  # answers cost no oracle query
        # each answer is its bucket's committed rule: the constant, or the
        # draw seeded by (seed, v)
        for v, a in enumerate(answers):
            rule = res.folded_assignment[res.fold.bucket_of(v)]
            assert a == (res.fold.draw(v, 3) if rule == DRAW else rule)

    def test_trial_reads_each_slot_once(self):
        # the marginals' ball searches, the bucket check and every
        # candidate's estimate read through one reveal memo, and every
        # variable anchors a search that reads its slots up to the first
        # empty one, so a trial pays for exactly those slots, once
        for n in (16, 32, 64):
            inst = corpus.horn_satisfiable(n, n=n, m=round(1.25 * n))
            base, lp_oracle = ConstraintOracle(inst), local_oracle(inst)
            res = round_assignment(base, lp_oracle, 0.3, seed=n)
            assert base.query_count + lp_oracle.oracle.query_count == sum(
                min(inst.t, inst.degree(v) + 1) for v in range(inst.n))
            assert len(res.transcript) > 1
            assert all(queries == 0 for _, _, queries in res.transcript)

    def test_solution_double_takes_the_oracle_parameters(self):
        # rounding passes its memo to whichever LP oracle it is given
        def params(fn):
            return [(p.name, p.kind, p.default)
                    for p in inspect.signature(fn).parameters.values()]

        assert params(SolutionLpOracle.query_many) == params(LpOracle.query_many)

    def test_trial_repairs_draws_and_scans_once(self, monkeypatch):
        # one repair per variable block for the n q marginals, one seeded
        # generator per distinct (seed, v) that the draw rule reads, and one
        # slot scan that every candidate's estimate shares
        repairs, generators, memos = [], [], []
        real_repair, real_rng = localsolve.repair_blocks, np.random.default_rng
        monkeypatch.setattr(localsolve, "repair_blocks",
                            lambda *a: repairs.append(list(a[3])) or real_repair(*a))
        monkeypatch.setattr(rounding, "RevealMemo",
                            lambda oracle: memos.append(RevealMemo(oracle)) or memos[-1])

        def rng(seed=None):
            if isinstance(seed, list):
                generators.append(tuple(seed))
            return real_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", rng)
        for seed in range(3):
            inst = corpus.horn_satisfiable(3, n=16, m=20)
            repairs.clear(), generators.clear(), memos.clear()
            res = round_assignment(ConstraintOracle(inst), local_oracle(inst), 0.3, seed)
            assert sorted(repairs) == [[v] for v in range(inst.n)]
            # the bucket scan reads at most what the one full scan reads
            full_scan = sum(min(inst.t, inst.degree(v) + 1) for v in range(inst.n))
            assert len(res.transcript) > 2 and full_scan <= memos[0].asked <= 2 * full_scan
            draw_buckets = {b for beta, _, _ in res.transcript
                            for b, rule in enumerate(beta) if rule == DRAW}
            assert draw_buckets
            res.full_assignment(inst.n)
            assert len(generators) == len(set(generators))
            assert set(generators) == {(seed, v) for v in range(inst.n)
                                       if res.fold.bucket_of(v) in draw_buckets}

    def test_no_shared_spread_bucket_keeps_constant_enumeration(self, monkeypatch):
        # The boundaries of the draw rule.  In the gadget copies every bucket
        # is a point mass and no constraint stays inside a bucket; the spread
        # triangle puts each variable in a bucket of its own; in the point-mass
        # triangle the one bucket holds every edge but is a point mass.  All
        # keep exactly q ** bucket_count constant candidates, estimated with
        # the same seeds as plain constant enumeration.
        is1 = corpus.unary_is(2, 1)
        neq = corpus.neq_predicate(2)
        cons = []
        for j in range(3):
            cons.append(Constraint(0, (2 * j,), 1.0))
            cons.append(Constraint(1, (2 * j, 2 * j + 1), 1.0))
        gadget = build_instance(2, 2, 2, 1.0, 6, [is1, neq], cons)
        gadget_oracle, _ = exact_oracle(gadget)
        tri = corpus.triangle()
        spread = LpSolution(np.array([[0.1, 0.9], [0.4, 0.6], [0.7, 0.3]]), {}, 0.0)
        point_mass = LpSolution(np.tile([1.0, 0.0], (3, 1)), {}, 0.0)
        cases = [(gadget, gadget_oracle, 2), (tri, SolutionLpOracle(tri, spread), 3),
                 (tri, SolutionLpOracle(tri, point_mass), 1)]
        for inst, lp_oracle, buckets in cases:
            for seed in range(3):
                res = round_assignment(ConstraintOracle(inst), lp_oracle, 0.3, seed)
                assert res.fold.bucket_count == buckets
                betas = list(itertools.product(range(inst.q), repeat=res.fold.bucket_count))
                assert [beta for beta, _, _ in res.transcript] == betas
                rng = np.random.default_rng(seed)
                delta = 1.0 / (3.0 * len(betas))
                for (_, est, _), beta in zip(res.transcript, betas):
                    sub_seed = int(rng.integers(0, 2 ** 62))
                    assert est == estimate_assignment_value(
                        SlotScan(ConstraintOracle(inst)), res.fold, beta, 0.3, delta, sub_seed)
                best = max(range(len(betas)), key=lambda i: (res.transcript[i][1], -i))
                assert res.folded_assignment == betas[best]
        # the budget still counts constants only, so FoldTooLarge is unchanged
        monkeypatch.setattr(rounding, "ASSIGNMENT_BUDGET", 2 ** 2 - 1)
        with pytest.raises(FoldTooLarge):
            round_assignment(ConstraintOracle(gadget), gadget_oracle, 0.3, 0)


class TestTester:
    def test_satisfiable_horn_accepted(self):
        acc = 0
        for seed in range(10):
            inst = corpus.horn_satisfiable(seed + 50, n=8, m=10)
            if run_satisfiability_test(ConstraintOracle(inst), local_oracle(inst),
                                   0.3, TESTER_DELTA_PRESETS["horn-sat"](0.3), seed):
                acc += 1
        assert acc >= 7

    def test_far_family_rejected(self):
        from csplp.csp import distance_to_satisfiability
        inst = corpus.horn_far(8)
        # certified far: every pair needs one removal
        assert distance_to_satisfiability(inst) == 8
        rej = 0
        for seed in range(10):
            if not run_satisfiability_test(ConstraintOracle(inst), local_oracle(inst),
                                       0.3, 0.075, seed):
                rej += 1
        assert rej >= 7

    def test_empty_instance_accepted(self):
        inst = build_instance(2, 2, 2, 1.0, 4, [corpus.neq_predicate(2)], [])
        assert run_satisfiability_test(ConstraintOracle(inst), local_oracle(inst),
                                   0.3, 0.075, seed=0)

    def test_threshold_orders_the_two_cases(self):
        inst = corpus.horn_satisfiable(3, n=8, m=12)
        thr = separation_threshold(inst, 0.3)
        assert thr < (1 - 0.15) * inst.total_weight
