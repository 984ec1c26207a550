import contextlib
import hashlib
import signal
import zlib
from collections import Counter

import numpy as np
import pytest

from csplp import corpus
from csplp.csp import (
    Constraint,
    ConstraintOracle,
    brute_force_opt,
    build_instance,
    evaluate,
    load_instance,
    save_instance,
)
from csplp.errors import ArityMismatch, InfeasibleSeedSolution, UnseenVariableQuery
from csplp.gaplab import (
    GapParams,
    TranscriptProcess,
    _numpy_sum,
    apportion,
    collision_bound,
    collision_experiment,
    gen_lp_instance,
    gen_opt_instance,
    switch,
)
from csplp.lp import LpSolution, solve_basic_lp


def single_edge():
    return build_instance(2, 2, 2, 1.0, 2, [corpus.neq_predicate(2)],
                          [Constraint(0, (0, 1), 1.0)])


def edge_solution():
    x = np.array([[0.6, 0.4], [0.8, 0.2]])
    mu = {0: np.array([0.4, 0.2, 0.4, 0.0])}
    return x, mu


def triangle_solution():
    x = np.full((3, 2), 0.5)
    mu = {c: np.array([0.0, 0.5, 0.5, 0.0]) for c in range(3)}
    return x, mu


@contextlib.contextmanager
def deadline(seconds):
    """Fail with TimeoutError, instead of hanging, after `seconds`."""
    def hang(*_):
        raise TimeoutError("the transcript process hangs")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestApportion:
    def test_fig_tables(self):
        assert apportion([0.4, 0.2, 0.4, 0.0], 5).tolist() == [2, 1, 2, 0]

    def test_uniform(self):
        assert apportion([0.25] * 4, 8).tolist() == [2, 2, 2, 2]

    def test_thirds_tie_break(self):
        assert apportion([1 / 3] * 3, 10).tolist() == [4, 3, 3]

    def test_counts_sum_and_stay_close(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(k))
            N = int(rng.integers(1, 40))
            counts = apportion(p, N)
            assert counts.sum() == N
            assert np.max(np.abs(counts - p * N)) <= 1.0 + 1e-9


class TestGenerators:
    def test_fig_shape(self):
        J = gen_opt_instance(GapParams(single_edge(), None, None, N=5, T=1, seed=2))
        inst = J.instance
        assert inst.n == 10
        assert len(inst.constraints) == 5
        assert all(inst.degree(v) == 1 for v in range(10))

    def test_triangle_shape(self):
        J = gen_opt_instance(GapParams(corpus.triangle(), None, None, N=4, T=3, seed=2))
        inst = J.instance
        assert inst.n == 12
        assert len(inst.constraints) == 36
        assert all(inst.degree(v) == 6 for v in range(12))

    def test_lp_blowup_class_sizes(self):
        x, mu = edge_solution()
        J = gen_lp_instance(GapParams(single_edge(), x, mu, N=5, T=1, seed=4))
        # u-side copies assigned to 0: three of five
        u_values = [J.alpha[J.label_perm[j]] for j in range(5)]
        assert sorted(u_values).count(0) == 3
        v_values = [J.alpha[J.label_perm[5 + j]] for j in range(5)]
        assert sorted(v_values).count(0) == 4

    def test_planted_value_is_exact_on_integral_seeds(self):
        x, mu = triangle_solution()
        for seed in range(5):
            J = gen_lp_instance(GapParams(corpus.triangle(), x, mu, N=4, T=3, seed=seed))
            assert evaluate(J.instance, J.alpha) == pytest.approx(3 * 4 * 3.0)

    def test_planted_value_beats_seed_opt_ratio(self):
        x, mu = triangle_solution()
        J = gen_lp_instance(GapParams(corpus.triangle(), x, mu, N=4, T=2, seed=9))
        w = J.instance.total_weight
        assert evaluate(J.instance, J.alpha) / w == pytest.approx(1.0)  # vs 2/3 for the seed

    def test_infeasible_seed_rejected(self):
        x, mu = edge_solution()
        x = x.copy()
        x[0, 0] = 0.9  # marginals no longer match the table
        with pytest.raises(InfeasibleSeedSolution):
            gen_lp_instance(GapParams(single_edge(), x, mu, N=5, T=1, seed=0))

    def test_deterministic_given_seed(self):
        p = GapParams(corpus.triangle(), None, None, N=3, T=2, seed=123)
        a, b = gen_opt_instance(p), gen_opt_instance(p)
        assert a.instance == b.instance

    def test_permutation_invariance_of_objectives(self):
        x, mu = triangle_solution()
        J = gen_lp_instance(GapParams(corpus.triangle(), x, mu, N=2, T=1, seed=5))
        inst = J.instance
        rng = np.random.default_rng(0)
        pi = rng.permutation(inst.n)
        permuted = build_instance(
            inst.q, inst.s, inst.t, inst.w, inst.n, inst.predicates,
            [Constraint(c.predicate, tuple(int(pi[u]) for u in c.scope), c.weight)
             for c in inst.constraints])
        assert brute_force_opt(permuted)[0] == pytest.approx(brute_force_opt(inst)[0])
        assert solve_basic_lp(permuted)[0] == pytest.approx(solve_basic_lp(inst)[0], abs=1e-6)


class TestSwitch:
    def test_identity_pairing(self):
        J = gen_opt_instance(GapParams(single_edge(), None, None, N=6, T=1, seed=1))
        cons = list(J.instance.constraints)
        assert switch(cons, 0, 1, (False, False)) == cons

    def test_full_swap_relabels_only(self):
        J = gen_opt_instance(GapParams(single_edge(), None, None, N=6, T=1, seed=1))
        cons = list(J.instance.constraints)
        swapped = switch(cons, 0, 1, (True, True))
        assert sorted(c.scope for c in swapped) == sorted(c.scope for c in cons)

    def test_predicate_mismatch(self):
        neq, eq = corpus.neq_predicate(2), corpus.eq_predicate(2)
        inst = build_instance(2, 2, 2, 1.0, 4, [neq, eq],
                              [Constraint(0, (0, 1), 1.0), Constraint(1, (2, 3), 1.0)])
        with pytest.raises(ArityMismatch):
            switch(list(inst.constraints), 0, 1, (True, False))

    def test_value_moves_by_at_most_two_weights(self):
        J = gen_opt_instance(GapParams(single_edge(), None, None, N=40, T=2, seed=8))
        inst = J.instance
        rng = np.random.default_rng(11)
        beta = rng.integers(0, 2, size=inst.n)
        base = evaluate(inst, beta)
        cons = list(inst.constraints)
        for _ in range(2000):
            i, j = rng.integers(0, len(cons), size=2)
            if i == j:
                continue
            pairing = tuple(bool(b) for b in rng.integers(0, 2, size=2))
            swapped = switch(cons, int(i), int(j), pairing)
            delta = sum(
                c.weight * inst.predicates[c.predicate].value([beta[u] for u in c.scope], 2)
                - d.weight * inst.predicates[d.predicate].value([beta[u] for u in d.scope], 2)
                for c, d in ((swapped[int(i)], cons[int(i)]), (swapped[int(j)], cons[int(j)])))
            assert abs(delta) <= 2 * inst.w + 1e-9
            assert evaluate(inst, beta) == base  # original untouched


def assert_masses_match_recount(proc):
    """The kept free-slot masses of every (class, block, commit) equal a scan
    of the class's members in placement order, and each unit of mass locates
    the member the scan's running sum puts there."""
    for key in proc.capacity:
        members = [u for u, k in proc.rho.items() if k == key]
        slots = proc._classes[key]
        for block, p_src in enumerate(proc.source.degree_index[key[0]]):
            free = {u: proc.T - len(proc.block_used.get((u, block), ())) for u in members}
            assert slots.total[block] == sum(free.values())
            for beta in [None] if proc.branch == "opt" else proc._betas[p_src]:
                units = []
                for u in members:
                    if proc.commit.get((u, block), beta) == beta:
                        units += [u] * free[u]
                tag = 0 if beta is None else proc._tags[p_src][beta]
                assert slots.seen_mass(block, tag) == len(units)
                for r, u in enumerate(units):
                    assert slots.locate(float(r), block, tag) == u
                    assert slots.locate(r + 0.5, block, tag) == u


class TestProcess:
    def test_first_draw_is_class_uniform(self):
        tri = corpus.triangle()
        counts = Counter()
        for seed in range(1500):
            proc = TranscriptProcess(tri, 5, 1, seed, branch="opt")
            v = proc.random_unseen_variable()
            counts[proc.rho[v]] += 1
        for key in counts:
            assert abs(counts[key] / 1500 - 1 / 3) < 0.05

    def test_unseen_discipline_enforced(self):
        proc = TranscriptProcess(single_edge(), 4, 1, 0, branch="opt")
        with pytest.raises(UnseenVariableQuery):
            proc.query(0, 1)

    def test_replay_and_validity(self):
        x, mu = edge_solution()
        for branch in ("opt", "lp"):
            proc = TranscriptProcess(single_edge(), 5, 1, 7, branch=branch,
                                     xstar=x, mustar=mu)
            for _ in range(3):
                v = proc.random_unseen_variable()
                proc.query(v, 1)
                proc.query(v, 2)  # out of range: answered with None
            inst = proc.complete()  # validates shape on build
            assert proc.replay_consistent(inst)
            assert len(inst.constraints) == 5
            assert all(inst.degree(v) == 1 for v in range(inst.n))

    def test_process_deterministic_given_seed(self):
        x, mu = edge_solution()
        runs = []
        for _ in range(2):
            proc = TranscriptProcess(single_edge(), 5, 2, 42, branch="lp",
                                     xstar=x, mustar=mu)
            v = proc.random_unseen_variable()
            proc.query(v, 1)
            proc.query(v, 2)
            runs.append((proc.transcript, tuple(proc.constraints)))
        assert runs[0] == runs[1]

    def test_slot_below_one_is_rejected(self):
        proc = TranscriptProcess(corpus.triangle(), 50, 1, 0, branch="opt")
        v = proc.random_unseen_variable()
        for p in (0, -1):
            with pytest.raises(ValueError):
                proc.query(v, p)
        assert proc.transcript == [("var", v)]

    def test_pick_matches_generator_choice(self):
        proc = TranscriptProcess(single_edge(), 2, 1, 0, branch="opt")
        weight_rng = np.random.default_rng(5)
        for length in [*range(1, 13), 129, 300]:
            for trial in range(40):
                w = weight_rng.integers(0, 4, length).astype(float)
                if trial % 2:
                    w *= weight_rng.random(length)
                if not w.any():
                    w[-1] = 1.0
                assert _numpy_sum(w.tolist()) == w.sum()
                proc.rng = np.random.default_rng(trial)
                ref = np.random.default_rng(trial)
                assert proc._pick(w.tolist(), "class") == ref.choice(length, p=w / w.sum())
                assert proc.rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("branch, T", [("opt", 1), ("opt", 2), ("lp", 1), ("lp", 2)])
    def test_free_slot_masses_match_recount(self, branch, T):
        x, mu = triangle_solution()
        proc = TranscriptProcess(corpus.triangle(), 6, T, 2, branch=branch,
                                 xstar=x, mustar=mu)
        for _ in range(4):
            v = proc.random_unseen_variable()
            for p in range(1, 2 * T + 1):
                proc.query(v, p)
                assert_masses_match_recount(proc)
        proc.complete()
        assert_masses_match_recount(proc)

    def test_star_branch_choice_is_seeded(self):
        x, mu = edge_solution()
        branches = {TranscriptProcess(single_edge(), 4, 1, seed, branch="star",
                                      xstar=x, mustar=mu).branch
                    for seed in range(30)}
        assert branches == {"opt", "lp"}

    def test_lp_dead_end_raises_instead_of_hanging(self):
        # at T = 2 a fresh partner falls due after every label is seen
        x = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        mu = {0: np.array([1 / 3, 1 / 3, 0.0, 1 / 3])}
        proc = TranscriptProcess(single_edge(), 3, 2, 1, branch="lp", xstar=x, mustar=mu)
        with deadline(5), pytest.raises(InfeasibleSeedSolution):
            v = proc.random_unseen_variable()
            proc.query(v, 1)
            proc.query(v, 2)
            proc.complete()

    @pytest.mark.slow
    def test_process_matches_generator_distribution(self):
        # two-sample TV on labeled instances; the same-size noise floor for
        # identical distributions sits near 0.03 here
        one = single_edge()
        x = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        mu = {0: np.array([1 / 3, 1 / 3, 0.0, 1 / 3])}
        runs = 25000

        def canon(inst):
            return tuple(sorted(c.scope for c in inst.constraints))

        for branch in ("opt", "lp"):
            rng = np.random.default_rng(zlib.crc32(branch.encode()))
            gen_counts, proc_counts = Counter(), Counter()
            for _ in range(runs):
                seed = int(rng.integers(0, 2 ** 62))
                if branch == "opt":
                    J = gen_opt_instance(GapParams(one, None, None, 3, 1, seed))
                else:
                    J = gen_lp_instance(GapParams(one, x, mu, 3, 1, seed))
                gen_counts[canon(J.instance)] += 1
            for _ in range(runs):
                seed = int(rng.integers(0, 2 ** 62))
                proc = TranscriptProcess(one, 3, 1, seed, branch=branch,
                                         xstar=x, mustar=mu)
                v = proc.random_unseen_variable()
                proc.query(v, 1)
                u = proc.random_unseen_variable()
                proc.query(u, 1)
                proc_counts[canon(proc.complete())] += 1
            keys = set(gen_counts) | set(proc_counts)
            tv = 0.5 * sum(abs(gen_counts.get(k, 0) - proc_counts.get(k, 0)) / runs
                           for k in keys)
            assert tv <= 0.05, f"{branch}: TV {tv}"


class TestCollision:
    def test_bound_formula(self):
        assert collision_bound(10, 2, 0.2, 10_000) == pytest.approx(400 / 1980)

    def test_bound_precondition(self):
        with pytest.raises(ValueError):
            collision_bound(100, 2, 0.01, 1000)

    def test_single_query_never_collides(self):
        x, mu = triangle_solution()
        sol = LpSolution(x, mu, 3.0)
        emp, bound = collision_experiment(corpus.triangle(), sol, N=500, T=1,
                                          tau=1, trials=300, seed=3)
        assert emp == 0.0

    def test_sweep_stays_under_bound(self):
        x, mu = triangle_solution()
        sol = LpSolution(x, mu, 3.0)
        for tau in (4, 8, 16):
            emp, bound = collision_experiment(corpus.triangle(), sol, N=2000, T=1,
                                              tau=tau, trials=300, seed=tau)
            assert emp <= bound + 1e-12


# sha256 of the generators' instances, index slots, relabellings and planted
# assignments, and of the processes' transcripts, collisions and completed
# instances over a seed sweep, as recorded before the generators shared one
# relabel step, when the two lp processes that now raise hung instead
GOLDEN_SHA256 = "6258b3dfdca4502083a10ecf7ce15c7fa3041046b7d806215e1f932a5a3f86dd"


def test_outputs_golden():
    record = []
    with deadline(30):
        for source, (x, mu), N in ((single_edge(), edge_solution(), 5),
                                   (corpus.triangle(), triangle_solution(), 4)):
            for seed in range(4):
                for gen in (gen_opt_instance, gen_lp_instance):
                    J = gen(GapParams(source, x, mu, N, 2, seed))
                    record.append((J.instance.constraints, J.instance.degree_index,
                                   J.label_perm.tolist(),
                                   None if J.alpha is None else J.alpha.tolist()))
                for branch in ("opt", "lp"):
                    proc = TranscriptProcess(source, N, 2, seed, branch=branch,
                                             xstar=x, mustar=mu)
                    try:
                        for _ in range(2):
                            v = proc.random_unseen_variable()
                            proc.query(v, 1)
                            proc.query(v, 3)
                        inst = proc.complete()
                        record.append((proc.transcript, inst.constraints, inst.degree_index,
                                       proc.collisions))
                    except InfeasibleSeedSolution:
                        record.append("InfeasibleSeedSolution")
    assert hashlib.sha256(repr(record).encode()).hexdigest() == GOLDEN_SHA256


# sha256 of the processes' transcripts, collisions and completed instances, or
# of the transcript and message where the process dead-ends, over both
# sources, branches, T, N and seeds 0-11, and of two collision probes, as
# recorded before partner draws kept per-class free-slot masses
PROCESS_SHA256 = "52f2012fce3f4f03c4864bde1724c02dfd3005bfdc7454200afb733172b6bbad"


def test_process_sweep_golden():
    record = []
    tri = corpus.triangle()
    with deadline(30):
        for source, (x, mu) in ((single_edge(), edge_solution()), (tri, triangle_solution())):
            for branch in ("opt", "lp"):
                for T in (1, 2, 3):
                    for N in (3, 10, 40):
                        for seed in range(12):
                            proc = TranscriptProcess(source, N, T, seed, branch=branch,
                                                     xstar=x, mustar=mu)
                            try:
                                for _ in range(3):
                                    if len(proc.rho) == proc.n_labels:
                                        break
                                    v = proc.random_unseen_variable()
                                    for p in range(1, source.t * T + 2):
                                        proc.query(v, p)
                                inst = proc.complete()
                                record.append((proc.transcript, proc.collisions,
                                               [c.scope for c in inst.constraints],
                                               inst.degree_index))
                            except InfeasibleSeedSolution as exc:
                                record.append((proc.transcript, str(exc)))
        sol = LpSolution(*triangle_solution(), 3.0)
        for seed in (0, 1):
            record.append(collision_experiment(tri, sol, N=200, T=1, tau=8, trials=20,
                                               seed=seed))
    assert hashlib.sha256(repr(record).encode()).hexdigest() == PROCESS_SHA256


@pytest.mark.parametrize("gen", [gen_opt_instance, gen_lp_instance])
def test_saved_blowup_keeps_slot_layout(gen, tmp_path):
    # at T = 2 the generators scatter each variable's slots into per-block
    # layouts, which a reload must keep: every (v, i) answer stays the same
    tri = corpus.triangle()
    _, sol = solve_basic_lp(tri)
    inst = gen(GapParams(tri, sol.x, sol.mu, 4, 2, 5)).instance
    path = tmp_path / "blowup.json"
    save_instance(inst, path)
    back = load_instance(path)
    answers = [[oracle.query(v, i) for v in range(inst.n) for i in range(1, inst.t + 1)]
               for oracle in (ConstraintOracle(inst), ConstraintOracle(back))]
    assert answers[0] == answers[1]
    assert back == inst
