import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csplp import corpus
from csplp.csp import build_instance, Constraint
from csplp.errors import NotADistribution, ZeroRow
from csplp.lp import LpSolution, infeasibility, solve_basic_lp, table_marginal, value_of
from csplp.robustness import build_basis, repair_to_feasible, smooth, surgery, transform


class TestBasis:
    def test_q2_sign_convention(self):
        b = build_basis(2)
        assert np.allclose(b[0], [1.0, 1.0])
        assert np.allclose(b[1], [1.0, -1.0])

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_orthonormal(self, q):
        b = build_basis(q)
        gram = b @ b.T / q
        assert np.max(np.abs(gram - np.eye(q))) <= 1e-12

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_bounded_by_sqrt_q(self, q):
        b = build_basis(q)
        assert np.max(np.abs(b)) <= math.sqrt(q) + 1e-9


class TestTransforms:
    def test_uniform_table(self):
        q, k = 2, 3
        coef = transform(np.full(q ** k, 1.0 / q ** k), build_basis(q), k)
        expected = np.zeros(q ** k)
        expected[0] = 1.0
        assert np.allclose(coef, expected, atol=1e-12)

    def test_point_mass_q2_k1(self):
        b = build_basis(2)
        assert np.allclose(transform(np.array([1.0, 0.0]), b, 1), [1.0, 1.0])
        assert np.allclose(transform(np.array([0.0, 1.0]), b, 1), [1.0, -1.0])

    @pytest.mark.parametrize("q,k", [(2, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_round_trip(self, q, k):
        rng = np.random.default_rng(q * 10 + k)
        vals = rng.random(q ** k)
        b = build_basis(q)
        back = transform(transform(vals, b, k), b.T / q, k)
        assert np.allclose(back, vals, atol=1e-9)


class TestSurgery:
    def test_basic_normalization(self):
        x = surgery(np.array([[0.5, 0.6]]))
        assert np.allclose(x, [[5 / 11, 6 / 11]])
        assert np.max(np.abs(x - [[0.5, 0.6]])) <= 2 * 0.1

    def test_normalized_row_unchanged(self):
        x = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert np.allclose(surgery(x), x)

    def test_zero_row(self):
        with pytest.raises(ZeroRow):
            surgery(np.array([[0.0, 0.0]]))

    def test_move_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            q = int(rng.integers(2, 5))
            eps = rng.uniform(0.0, 0.2)
            row = rng.dirichlet(np.ones(q)) * (1.0 + rng.uniform(-eps, eps))
            out = surgery(row[None, :])
            assert np.max(np.abs(out - row)) <= 2 * eps + 1e-12


def assert_smooth_contract(q, k, mu, x):
    """smooth's contract at the measured violation of the pair: h >= 0,
    sum h = 1, mixed marginals exact at 1e-9, and ||mu - h||_1 <= 2 delta."""
    eps = max(float(np.max(np.abs(table_marginal(mu, q, k, i) - x[i]))) for i in range(k))
    h, delta = smooth(mu, x, eps)
    assert (h >= 0).all()
    assert h.sum() == pytest.approx(1.0, abs=1e-9)
    for i in range(k):
        want = (1 - delta) * x[i] + delta / q
        assert np.allclose(table_marginal(h, q, k, i), want, atol=1e-9)
    assert np.abs(mu - h).sum() <= 2 * delta + 1e-9


@st.composite
def smoothing_pairs(draw):
    """A table over [q]^k and k target rows, drawn from point masses, ties,
    near-zero entries and, half the time, targets near the table's own marginals."""
    q, k = draw(st.sampled_from([2, 3])), draw(st.integers(1, 3))
    entry = st.sampled_from([0.0, 1e-12, 1e-6, 0.5, 1.0]) | st.floats(0.0, 1.0)

    def distribution(size):
        raw = np.array(draw(st.lists(entry, min_size=size, max_size=size)))
        assume(raw.sum() > 0)
        return raw / raw.sum()

    mu = distribution(q ** k)
    if draw(st.booleans()):
        shift = draw(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2]))
        x = np.vstack([table_marginal(mu, q, k, i) for i in range(k)])
        x = (1 - shift) * x + shift * np.vstack([distribution(q) for _ in range(k)])
        x /= x.sum(axis=1, keepdims=True)
    else:
        x = np.vstack([distribution(q) for _ in range(k)])
    return q, k, mu, x


class TestSmooth:
    def test_uniform_fixed_point(self):
        mu = np.full(4, 0.25)
        x = np.full((2, 2), 0.5)
        h, delta = smooth(mu, x, eps=0.01)
        marg = table_marginal(h, 2, 2, 0)
        assert np.allclose(marg, (1 - delta) * 0.5 + delta / 2)
        assert np.allclose(h.sum(), 1.0)
        assert np.allclose(h, 0.25)  # uniform stays uniform

    def test_product_table_only_mixes(self):
        # mu already the product of its own marginals, matching x
        x = np.array([[0.3, 0.7], [0.6, 0.4]])
        mu = np.outer(x[0], x[1]).reshape(-1)
        h, delta = smooth(mu, x, eps=0.0)
        assert delta == 0.0
        assert np.allclose(h, mu, atol=1e-12)

    def test_postconditions_random_pairs(self):
        # the four contract clauses over a thousand random pairs
        rng = np.random.default_rng(42)
        for _ in range(1000):
            q = int(rng.integers(2, 4))
            k = int(rng.integers(1, 4))
            mu = rng.dirichlet(np.ones(q ** k))
            x = np.vstack([rng.dirichlet(np.ones(q)) for _ in range(k)])
            assert_smooth_contract(q, k, mu, x)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(pair=smoothing_pairs())
    def test_contract_on_adversarial_pairs(self, pair):
        assert_smooth_contract(*pair)

    def test_rejects_non_distribution(self):
        with pytest.raises(NotADistribution):
            smooth(np.array([0.9, -0.1, 0.1, 0.1]), np.full((2, 2), 0.5), 0.01)


class TestRepair:
    def test_feasible_input_stays_put(self):
        tri = corpus.triangle()
        _, sol = solve_basic_lp(tri)
        repaired, report = repair_to_feasible(tri, sol)
        assert infeasibility(tri, repaired) <= 1e-9
        assert report["delta"] <= 1e-8
        assert repaired.value == pytest.approx(sol.value, abs=1e-6)

    def test_perturbed_optimum(self):
        tri = corpus.triangle()
        _, sol = solve_basic_lp(tri)
        sol.x[0, 0] += 0.01
        repaired, report = repair_to_feasible(tri, sol)
        assert infeasibility(tri, repaired) <= 1e-9
        # loss bounded by twice delta times the total weight, delta from the
        # post-surgery violation (at most 3x the input violation)
        delta_bound = 2 * 8 * 3 * 0.01  # k_max * q^3 * (3 eps)
        assert report["delta"] <= delta_bound + 1e-12
        assert repaired.value >= sol.value - 2 * report["delta"] * tri.total_weight - 1e-9

    def test_corpus_loss_ratio(self):
        rng = np.random.default_rng(2024)
        worst_kappa = 0.0
        for seed in range(30):
            inst = corpus.random_instance(seed, n=5, m=4, q=2, t=3)
            lp_val, sol = solve_basic_lp(inst)
            eps = rng.uniform(0.005, 0.03)
            noisy_x = np.clip(sol.x + rng.uniform(-eps, eps, size=sol.x.shape), 0.0, None)
            noisy = LpSolution(noisy_x, sol.mu, value_of(inst, noisy_x, sol.mu))
            measured = infeasibility(inst, noisy)
            repaired, report = repair_to_feasible(inst, noisy)
            assert infeasibility(inst, repaired) <= 1e-9
            assert repaired.value <= noisy.value + 1e-9  # repair never gains value here
            if measured > 1e-12:
                s, q = inst.s, inst.q
                loss = noisy.value - repaired.value
                kappa = loss / (measured * inst.total_weight)
                worst_kappa = max(worst_kappa, kappa)
                assert loss <= 6 * s * q ** 3 * measured * inst.total_weight + 1e-9
        assert worst_kappa <= 6 * 2 * 8 * 3  # generous sanity margin

    def test_end_to_end_value_bound(self):
        # lp(I) >= value of any eps-infeasible pair minus kappa * eps * w_I
        for seed in range(10):
            inst = corpus.random_instance(seed + 100, n=4, m=3, q=2, t=3)
            lp_val, sol = solve_basic_lp(inst)
            rng = np.random.default_rng(seed)
            noisy_x = np.clip(sol.x + rng.uniform(-0.02, 0.02, size=sol.x.shape), 0.0, None)
            noisy = LpSolution(noisy_x, sol.mu, value_of(inst, noisy_x, sol.mu))
            eps = infeasibility(inst, noisy)
            repaired, _ = repair_to_feasible(inst, noisy)
            kappa = 6 * inst.s * inst.q ** 3
            assert lp_val >= repaired.value - 1e-7
            assert lp_val >= noisy.value - kappa * eps * inst.total_weight - 1e-7
