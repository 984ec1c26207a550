import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csplp import corpus
from csplp.csp import (
    _ENUM_CHUNK,
    Constraint,
    ConstraintOracle,
    Predicate,
    brute_force_opt,
    build_instance,
    connected_components,
    distance_to_satisfiability,
    estimator_sample_count,
    evaluate,
    instance_from_json,
    instance_to_json,
    load_instance,
    save_instance,
    sum_estimator,
)
from csplp.errors import (
    ArityExceeded,
    BadTruthTableLength,
    BudgetExceeded,
    DegreeExceeded,
    WeightOutOfRange,
)


@pytest.fixture
def tri():
    return corpus.triangle()


@pytest.fixture
def single():
    return corpus.single()


class TestBuild:
    def test_triangle_shape(self, tri):
        assert tri.n == 3
        assert tri.total_weight == 3.0
        assert [tri.degree(v) for v in range(3)] == [2, 2, 2]

    def test_single_degrees(self, single):
        assert [single.degree(v) for v in range(5)] == [1, 1, 0, 0, 0]

    def test_degree_limit(self):
        neq = corpus.neq_predicate(2)
        cons = [Constraint(0, (0, v), 1.0) for v in range(1, 4)]  # degree(0) = 3
        with pytest.raises(DegreeExceeded):
            build_instance(2, 2, 2, 1.0, 4, [neq], cons)

    def test_weight_range(self):
        neq = corpus.neq_predicate(2)
        with pytest.raises(WeightOutOfRange):
            build_instance(2, 2, 2, 1.0, 2, [neq], [Constraint(0, (0, 1), 0.5)])
        with pytest.raises(WeightOutOfRange):
            build_instance(2, 2, 2, 2.0, 2, [neq], [Constraint(0, (0, 1), 2.5)])

    def test_arity_and_table_validation(self):
        neq = corpus.neq_predicate(2)
        with pytest.raises(ArityExceeded):
            build_instance(2, 1, 2, 1.0, 2, [neq], [Constraint(0, (0, 1), 1.0)])
        bad = Predicate("bad", 2, (0, 1, 1))
        with pytest.raises(BadTruthTableLength):
            build_instance(2, 2, 2, 1.0, 2, [bad], [])

    def test_explicit_degree_index_checked(self, tri):
        with pytest.raises(ValueError):
            build_instance(2, 2, 3, 1.0, 3, tri.predicates, tri.constraints,
                           degree_index=[(0,), (0, 1), (1, 2)])

    def test_repeated_scope_counts_one_slot(self):
        neq = corpus.neq_predicate(2)
        inst = build_instance(2, 2, 1, 1.0, 1, [neq], [Constraint(0, (0, 0), 1.0)])
        assert inst.degree(0) == 1


class TestOracle:
    def test_index_order(self, tri):
        o = ConstraintOracle(tri)
        cid = o.query(0, 1)
        assert tri.constraints[cid].scope == (0, 1)
        assert o.query_count == 1

    def test_missing_index_counts(self, tri):
        o = ConstraintOracle(tri)
        assert o.query(0, 3) is None
        assert o.query_count == 1

    def test_isolated_variable(self, single):
        o = ConstraintOracle(single)
        assert o.query(2, 1) is None

    def test_pure_function_of_args(self, tri):
        o1, o2 = ConstraintOracle(tri), ConstraintOracle(tri)
        for v in range(3):
            for i in range(1, 4):
                assert o1.query(v, i) == o2.query(v, i)
        assert o1.query_count == o2.query_count == 9

    def test_usage_errors(self, tri):
        o = ConstraintOracle(tri)
        with pytest.raises(ValueError):
            o.query(5, 1)
        with pytest.raises(ValueError):
            o.query(0, 0)
        assert o.query_count == 0


class TestEvaluate:
    def test_two_of_three_cut(self, tri):
        assert evaluate(tri, (0, 1, 0)) == 2.0

    def test_constant_assignment(self, tri):
        assert evaluate(tri, (0, 0, 0)) == 0.0

    def test_partial_with_isolated_vars(self, single):
        assert evaluate(single, (0, 1, None, None, None)) == 1.0

    def test_range(self, tri):
        for m in range(8):
            beta = [(m >> 2) & 1, (m >> 1) & 1, m & 1]
            assert 0.0 <= evaluate(tri, beta) <= tri.total_weight


class TestBruteForce:
    def test_triangle_opt(self, tri):
        val, beta = brute_force_opt(tri)
        assert val == 2.0
        # first maximizer in lexicographic order
        assert beta == (0, 0, 1)
        assert evaluate(tri, beta) == 2.0

    def test_single_opt(self, single):
        val, _ = brute_force_opt(single)
        assert val == 1.0

    def test_empty_constraints(self):
        inst = build_instance(2, 2, 2, 1.0, 3, [corpus.neq_predicate(2)], [])
        val, beta = brute_force_opt(inst)
        assert val == 0.0
        assert beta == (0, 0, 0)  # first alphabet value everywhere

    def test_budget(self):
        inst = build_instance(2, 2, 2, 1.0, 30, [corpus.neq_predicate(2)], [])
        with pytest.raises(BudgetExceeded):
            brute_force_opt(inst, budget=2 ** 20)

    def test_scan_memory_stays_within_a_block(self):
        inst = corpus.random_instance(0, q=2, n=18, m=30)
        tracemalloc.start()
        try:
            brute_force_opt(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_matches_full_enumeration_small(self):
        for seed in range(12):
            inst = corpus.random_instance(seed, n=5, m=4, q=2)
            val, _ = brute_force_opt(inst)
            ref = max(
                evaluate(inst, [(m >> (4 - j)) & 1 for j in range(5)]) for m in range(32)
            )
            assert val == pytest.approx(ref)


@st.composite
def merged_term_instances(draw):
    """Small instances whose scopes repeat variables, repeat (predicate,
    scope) pairs and hold two predicates on one scope, with integer or
    fractional weights."""
    q = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 7))
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    preds = [Predicate(f"p{i}", k, tuple(draw(st.lists(
                 st.integers(0, 1), min_size=q ** k, max_size=q ** k))))
             for i, k in enumerate(arities)]
    weight = st.integers(1, 3).map(float) if draw(st.booleans()) else st.floats(1.0, 3.0)
    cons = []
    for _ in range(draw(st.integers(0, 6))):
        pid = draw(st.integers(0, len(preds) - 1))
        scope = draw(st.lists(st.integers(0, n - 1), min_size=arities[pid],
                              max_size=arities[pid]))
        cons.append(Constraint(pid, tuple(scope), draw(weight)))
    for _ in range(draw(st.integers(0, 3)) if cons else 0):
        c = draw(st.sampled_from(cons))
        same_arity = [pid for pid, k in enumerate(arities) if k == len(c.scope)]
        cons.append(Constraint(draw(st.sampled_from(same_arity)), c.scope, draw(weight)))
    degree = [sum(v in c.scope for c in cons) for v in range(n)]
    return build_instance(q, 3, max(1, *degree), 3.0, n, preds, cons)


def _fractional_shared_scopes():
    neq, eq, is1 = corpus.neq_predicate(2), corpus.eq_predicate(2), corpus.unary_is(2, 1)
    cons = [Constraint(0, (0, 1), 1.3), Constraint(0, (0, 1), 2.7), Constraint(1, (0, 1), 1.1),
            Constraint(0, (2, 2), 1.5), Constraint(2, (2,), 1.25), Constraint(1, (1, 2), 2.2)]
    return build_instance(2, 2, 5, 3.0, 3, [neq, eq, is1], cons)


class TestScanCrossCheck:
    """The merged-term scan against exhaustive `itertools.product` + `evaluate`."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @example(inst=_fractional_shared_scopes())
    @given(inst=merged_term_instances())
    def test_matches_exhaustive_enumeration(self, inst):
        assignments = list(itertools.product(range(inst.q), repeat=inst.n))
        values = [evaluate(inst, a) for a in assignments]
        counts = [sum(inst.predicates[c.predicate].value([a[v] for v in c.scope], inst.q)
                      for c in inst.constraints) for a in assignments]
        val, beta = brute_force_opt(inst)
        assert val == evaluate(inst, beta)
        assert abs(val - max(values)) <= 1e-9 * inst.total_weight
        if all(c.weight.is_integer() for c in inst.constraints):
            assert beta == assignments[values.index(max(values))]
        assert distance_to_satisfiability(inst) == len(inst.constraints) - max(counts)

    @pytest.mark.parametrize("q", [2, 3])
    def test_unique_optimum_in_last_chunk(self, q):
        """The only optimum lies in the last block of q^L assignments (three
        3^10 blocks for q = 3); one scope spans the fixed and running
        variables and one repeats a variable."""
        target = {2: (1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1),
                  3: (2, 0, 1, 2, 2, 1, 0, 0, 2, 1, 1)}[q]
        n = len(target)
        block = max(q ** L for L in range(n) if q ** L <= _ENUM_CHUNK)
        assert sum(d * q ** (n - 1 - v) for v, d in enumerate(target)) >= q ** n - block

        def only(values):
            return Predicate(str(values), len(values), tuple(
                int(a == values) for a in itertools.product(range(q), repeat=len(values))))

        scopes = [((v,), 1.0) for v in range(n)] + [((v, v + 1), 2.0) for v in range(n - 1)]
        scopes += [((0, n - 1), 1.0), ((0, n - 2, 0), 3.0)]
        preds = [only(tuple(target[v] for v in scope)) for scope, _ in scopes]
        cons = [Constraint(i, scope, w) for i, (scope, w) in enumerate(scopes)]
        inst = build_instance(q, 3, 4, 3.0, n, preds, cons)
        assert brute_force_opt(inst) == (3.0 * n + 2.0, target)
        assert distance_to_satisfiability(inst) == 0


class TestDistance:
    def test_triangle(self, tri):
        assert distance_to_satisfiability(tri) == 1

    def test_horn_chain_satisfiable(self):
        assert distance_to_satisfiability(corpus.horn_chain()) == 0

    def test_contradictory_unaries(self):
        assert distance_to_satisfiability(corpus.horn_far(1)) == 1

    def test_zero_iff_opt_counts_all(self, tri):
        inst = corpus.horn_chain()
        assert distance_to_satisfiability(inst) == 0
        val, _ = brute_force_opt(inst)
        assert val == inst.total_weight


class TestSumEstimator:
    def test_constant_function_exact(self):
        est = sum_estimator(np.full(50, 0.7), 50, 1.0, 0.2, 0.1, seed=3)
        assert est == pytest.approx(0.7 * 50)

    def test_sample_count_formula(self):
        assert estimator_sample_count(1.0, 0.1, 1.0 / 3.0) == 90
        assert estimator_sample_count(1.0, 0.1, 1.0 / 3.0) == math.ceil(50 * math.log(6))

    def test_seed_reproducible(self):
        arr = np.arange(100) % 2
        a = sum_estimator(arr, 100, 1.0, 0.1, 0.1, seed=11)
        b = sum_estimator(arr, 100, 1.0, 0.1, 0.1, seed=11)
        assert a == b

    def test_failure_rate_half_indicator(self):
        # f is the indicator of half the indices; measure the miss rate of
        # the (1, eps*n) guarantee over many trials.
        n, eps, delta, trials = 10_000, 0.05, 0.01, 10_000
        m = estimator_sample_count(1.0, eps, delta)
        rng = np.random.default_rng(99)
        # sampling the indicator directly: each draw is Bernoulli(1/2)
        hits = rng.random((trials, m)) < 0.5
        est = n * hits.sum(axis=1) / m
        failures = np.abs(est - n / 2) > eps * n
        rate = failures.mean()
        assert rate <= delta + 3 * math.sqrt(delta / trials)


class TestStructure:
    def test_components_of_union(self):
        inst = corpus.component_union(5, pieces=4)
        comps = connected_components(inst)
        assert sum(len(vs) for vs, _ in comps) == inst.n
        assert sum(len(cs) for _, cs in comps) == len(inst.constraints)

    def test_subinstance_evaluates_consistently(self):
        # every constraint lies in exactly one component, whose variables
        # hold its whole scope: evaluating each component's constraints with
        # only its variables assigned (None raises) sums to the whole value
        inst = corpus.component_union(7, pieces=3)
        comps = connected_components(inst)
        assert sorted(cid for _, cs in comps for cid in cs) == list(range(len(inst.constraints)))
        rng = np.random.default_rng(0)
        beta = rng.integers(0, inst.q, size=inst.n)
        total = 0.0
        for vs, cs in comps:
            assert all(set(inst.constraints[cid].scope) <= set(vs) for cid in cs)
            part = [int(beta[v]) if v in vs else None for v in range(inst.n)]
            piece = build_instance(inst.q, inst.s, inst.t, inst.w, inst.n, inst.predicates,
                                   [inst.constraints[cid] for cid in cs])
            total += evaluate(piece, part)
        assert total == pytest.approx(evaluate(inst, beta))


class TestJson:
    def test_round_trip(self, tri):
        data = instance_to_json(tri)
        back = instance_from_json(data)
        assert back == tri

    def test_corpus_round_trips_through_files(self, tmp_path):
        instances = [
            corpus.triangle(), corpus.single(), corpus.horn_far(8), corpus.horn_chain(),
            corpus.horn_far(1), corpus.horn_satisfiable(3, n=16, m=20),
            corpus.random_instance(1, q=3, s=3, n=7, m=6, w=2.5, weights_vary=True),
            corpus.component_union(5, pieces=6),
            *corpus.brute_corpus(), *corpus.pipeline_corpus(), *corpus.local_corpus(),
        ]
        path = tmp_path / "instance.json"
        for inst in instances:
            save_instance(inst, path)
            assert load_instance(path) == inst

    def test_validates_on_load(self, tri):
        data = instance_to_json(tri)
        data["constraints"][0]["weight"] = 0.0
        with pytest.raises(WeightOutOfRange):
            instance_from_json(data)
