"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with -s to see them live) and
asserts the criterion at its stated tolerance.  Shared corpora are module
fixtures so expensive exact solves run once.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from csplp import corpus
from csplp.csp import (
    ConstraintOracle,
    brute_force_opt,
    distance_to_satisfiability,
    evaluate,
    save_instance,
)
from csplp.gaplab import GapParams, collision_experiment, gen_lp_instance, gen_opt_instance
from csplp.localsolve import LpOracle, analytic_gamma_bounds
from csplp.lp import (LpSolution, infeasibility, save_solution, solve_basic_lp, solve_lp,
                      table_marginal)
from csplp.pipeline import (
    PipelineParams,
    exact_packing_optimum,
    normalize_packing,
    primal_column_count,
    relax_basic_lp,
    restore_and_repair,
    to_packing,
)
from csplp.robustness import repair_to_feasible, smooth
from csplp.rounding import round_assignment, test_satisfiability as run_tester

pytestmark = pytest.mark.acceptance


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def brute200():
    return corpus.brute_corpus(200)


@pytest.fixture(scope="module")
def pipe50():
    return corpus.pipeline_corpus(50)


@pytest.fixture(scope="module")
def pipe50_stage2(pipe50):
    """Exact stage-2 optima at eps = 0.2 for criteria 2 and 4."""
    out = []
    for inst in pipe50:
        params = PipelineParams.for_instance(inst, 0.2)
        lp3 = to_packing(inst, params)
        v3, cols = solve_lp(lp3)
        out.append((inst, params, lp3, v3, cols))
    return out


def test_1_ground_truth(brute200):
    t0 = time.time()
    tri = corpus.triangle()
    lp_tri, _ = solve_basic_lp(tri)
    opt_tri, _ = brute_force_opt(tri)
    ok = abs(lp_tri - 3.0) <= 1e-6 and opt_tri == 2.0
    checked = 0
    for inst in brute200:
        lp_val, sol = solve_basic_lp(inst)
        opt, _ = brute_force_opt(inst)
        ok = ok and lp_val >= opt - 1e-7 and lp_val <= inst.total_weight + 1e-7
        checked += 1
    elapsed = time.time() - t0
    report(1, ok and elapsed < 30,
           f"lp(triangle)={lp_tri:.8f}, opt(triangle)={opt_tri}, "
           f"lp>=opt on {checked}/200 instances in {elapsed:.1f}s")
    assert abs(lp_tri - 3.0) <= 1e-6
    assert opt_tri == 2.0
    assert ok
    assert elapsed < 30


def test_2_pipeline_equivalences(pipe50):
    t0 = time.time()
    eps = 0.4
    shift_ok = pair_ok = 0
    for inst in pipe50:
        params = PipelineParams.for_instance(inst, eps)
        v2, _ = solve_lp(relax_basic_lp(inst, eps))
        lp3 = to_packing(inst, params)
        v3, cols = solve_lp(lp3)
        N = primal_column_count(inst)
        if abs(v3 - v2 - params.C * N) <= 1e-6 * max(1.0, inst.total_weight):
            shift_ok += 1
        worst = max(
            abs(cols[lab] + cols[(("xbar" if lab[0] == "x" else "mubar"),) + lab[1:]] - 1.0)
            for lab in lp3.labels if lab[0] in ("x", "mu"))
        if worst <= 1e-7:
            pair_ok += 1
    elapsed = time.time() - t0
    ok = shift_ok == 50 and pair_ok == 50 and elapsed < 120
    report(2, ok, f"value shift exact on {shift_ok}/50, pair sums on {pair_ok}/50, "
                  f"{elapsed:.1f}s")
    assert shift_ok == 50 and pair_ok == 50
    assert elapsed < 120


def test_3_local_oracle():
    t0 = time.time()
    insts = corpus.local_corpus(100)
    assert max(inst.n for inst in insts) <= 300
    feas = qual = cost = 0
    for inst in insts:
        params = PipelineParams.for_instance(inst, 0.2)
        oracle = LpOracle(ConstraintOracle(inst), params)
        ref = normalize_packing(to_packing(inst, params), params)
        bound = max(inst.q, inst.q * inst.s) \
            * float(ref.delta_p * ref.delta_d) ** (oracle.rounds + 2)
        worst_cost = 0
        z = np.empty(ref.num_cols)
        for i, lab in enumerate(ref.col_labels):
            z[i] = oracle.packing_value(lab)
            worst_cost = max(worst_cost, oracle.last_query_cost)
        if ref.max_violation(z) <= 1e-9:
            feas += 1
        if z.sum() >= 0.8 * exact_packing_optimum(inst, params):
            qual += 1
        if worst_cost <= bound:
            cost += 1
    elapsed = time.time() - t0
    ok = feas == 100 and qual >= 95 and cost == 100 and elapsed < 300
    report(3, ok, f"feasible {feas}/100, quality {qual}/100 (need 95), "
                  f"cost bound {cost}/100, {elapsed:.1f}s")
    assert feas == 100
    assert qual >= 95
    assert cost == 100
    assert elapsed < 300


def test_4_restore_repair_contract(pipe50_stage2):
    t0 = time.time()
    eps = 0.2
    good = 0
    for inst, params, lp3, v3, cols in pipe50_stage2:
        sol, rep = restore_and_repair(inst, cols, params, lp3)
        lp_val, _ = solve_basic_lp(inst)
        if (rep["measured_infeasibility"] <= eps + 1e-9
                and sol.value >= (1 - eps) * lp_val - eps * inst.n - 1e-7):
            good += 1
    elapsed = time.time() - t0
    ok = good >= 45 and elapsed < 120
    report(4, ok, f"contract holds on {good}/50 (need 45), {elapsed:.1f}s")
    assert good >= 45
    assert elapsed < 120


def test_5_robustness():
    t0 = time.time()
    rng = np.random.default_rng(20_000)
    smooth_ok = 0
    for _ in range(1000):
        q = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        mu = rng.dirichlet(np.ones(q ** k))
        x = np.vstack([rng.dirichlet(np.ones(q)) for _ in range(k)])
        eps = max(float(np.max(np.abs(table_marginal(mu, q, k, i) - x[i])))
                  for i in range(k))
        h, delta = smooth(mu, x, eps)
        good = (h >= -1e-9).all() and abs(h.sum() - 1.0) <= 1e-9
        for i in range(k):
            want = (1 - delta) * x[i] + delta / q
            good = good and np.max(np.abs(table_marginal(h, q, k, i) - want)) <= 1e-9
        good = good and np.abs(mu - h).sum() <= 2 * delta + 1e-9
        smooth_ok += bool(good)

    repair_ok = 0
    trials = 0
    for seed in range(20):
        inst = corpus.random_instance(seed + 300, n=5, m=4, q=2, t=3)
        _, sol = solve_basic_lp(inst)
        noise = np.random.default_rng(seed).uniform(-0.02, 0.02, size=sol.x.shape)
        from csplp.lp import value_of
        noisy_x = np.clip(sol.x + noise, 0.0, None)
        noisy = LpSolution(noisy_x, sol.mu, value_of(inst, noisy_x, sol.mu))
        eps = infeasibility(inst, noisy)
        fixed, _ = repair_to_feasible(inst, noisy)
        trials += 1
        loss = noisy.value - fixed.value
        bound = 6 * inst.s * inst.q ** 3 * eps * inst.total_weight
        if infeasibility(inst, fixed) <= 1e-9 and loss <= bound + 1e-9:
            repair_ok += 1
    elapsed = time.time() - t0
    ok = smooth_ok == 1000 and repair_ok == trials and elapsed < 60
    report(5, ok, f"smoothing contract {smooth_ok}/1000, repair {repair_ok}/{trials}, "
                  f"{elapsed:.1f}s")
    assert smooth_ok == 1000
    assert repair_ok == trials
    assert elapsed < 60


def _round_stack(inst, eps_lp=0.2):
    oracle = ConstraintOracle(inst)
    lp_oracle = LpOracle(ConstraintOracle(inst), PipelineParams.for_instance(inst, eps_lp))
    return oracle, lp_oracle


def test_6a_triangle_rounding_recovers_opt():
    # The basic LP of the Max Cut 3-cycle is 3 and OPT is 2.  At eps = 0.3
    # the additive guarantee is 2 - eps * n = 1.1 > 0, and a triangle's cut
    # is 0 or 2, so value 2 must come out in at least 2/3 of the runs.  The
    # symmetric marginals fold all three variables into one bucket that holds
    # every edge; a constant assignment cuts none of them, so the bucket's
    # independent-draw rule has to carry the run: a draw from (1/2, 1/2)
    # cuts two edges with probability 3/4.
    t0 = time.time()
    tri = corpus.triangle()
    hits = 0
    for seed in range(100):
        oracle, lp_oracle = _round_stack(tri)
        res = round_assignment(oracle, lp_oracle, 0.3, seed)
        if evaluate(tri, res.full_assignment(3)) == 2.0:
            hits += 1
    elapsed = time.time() - t0
    ok = hits >= 67
    report("6a", ok, f"value-2 assignments in {hits}/100 trials (need 67), {elapsed:.1f}s")
    assert hits >= 67, (
        "the single bucket's independent-draw rule should give value 2 in "
        "about 3/4 of the runs")


def test_6b_horn_estimates():
    t0 = time.time()
    eps = 0.3
    ok_count = trials = 0
    for i in range(12):
        inst = corpus.horn_satisfiable(1000 + i, n=8, m=10)
        for s in range(3):
            oracle, lp_oracle = _round_stack(inst)
            res = round_assignment(oracle, lp_oracle, eps, 31 * i + s)
            trials += 1
            if res.estimate >= (1 - eps) * inst.total_weight - eps * inst.n:
                ok_count += 1
    elapsed = time.time() - t0
    ok = ok_count >= (2 * trials) // 3 and elapsed < 180
    report("6b", ok, f"estimate cleared the bar in {ok_count}/{trials} trials, "
                     f"{elapsed:.1f}s")
    assert ok_count >= (2 * trials) // 3
    assert elapsed < 180


def test_6c_estimate_never_exceeds_opt_envelope():
    t0 = time.time()
    eps = 0.3
    bad = 0
    trials = 0
    for i in range(12):
        inst = corpus.horn_satisfiable(1000 + i, n=8, m=10)
        opt, _ = brute_force_opt(inst)
        for s in range(3):
            oracle, lp_oracle = _round_stack(inst)
            res = round_assignment(oracle, lp_oracle, eps, 77 * i + s)
            trials += 1
            if res.estimate > opt + eps * inst.n / 2 + 1e-9:
                bad += 1
    tri = corpus.triangle()
    for seed in range(40):
        oracle, lp_oracle = _round_stack(tri)
        res = round_assignment(oracle, lp_oracle, eps, seed)
        trials += 1
        if res.estimate > 2.0 + eps * 3 / 2 + 1e-9:
            bad += 1
    elapsed = time.time() - t0
    report("6c", bad == 0, f"envelope violations {bad}/{trials}, {elapsed:.1f}s")
    assert bad == 0


def test_7_tester_rates():
    t0 = time.time()
    eps, delta = 0.3, 0.075
    far = corpus.horn_far(8)
    assert distance_to_satisfiability(far) >= eps * far.t * far.w * far.n
    accepted = rejected = 0
    for seed in range(50):
        sat = corpus.horn_satisfiable(2000 + seed % 10, n=8, m=11)
        oracle, lp_oracle = _round_stack(sat)
        if run_tester(oracle, lp_oracle, eps, delta, seed):
            accepted += 1
        oracle, lp_oracle = _round_stack(far)
        if not run_tester(oracle, lp_oracle, eps, delta, seed):
            rejected += 1
    elapsed = time.time() - t0
    ok = accepted >= 30 and rejected >= 30 and elapsed < 120
    report(7, ok, f"accepted {accepted}/50 satisfiable, rejected {rejected}/50 far, "
                  f"{elapsed:.1f}s")
    assert accepted >= 30
    assert rejected >= 30
    assert elapsed < 120


def test_8_gap_lab():
    t0 = time.time()
    tri = corpus.triangle()
    x = np.full((3, 2), 0.5)
    mu = {c: np.array([0.0, 0.5, 0.5, 0.0]) for c in range(3)}

    planted_exact = all(
        evaluate(J.instance, J.alpha) == pytest.approx(4 * 6 * 3.0)
        for J in (gen_lp_instance(GapParams(tri, x, mu, N=6, T=4, seed=s))
                  for s in range(5)))

    good_ratio = 0
    for seed in range(30):
        J = gen_opt_instance(GapParams(tri, None, None, N=6, T=32, seed=seed))
        opt, _ = brute_force_opt(J.instance)
        if opt / J.instance.total_weight <= 2.0 / 3.0 + 0.15:
            good_ratio += 1

    sol = LpSolution(x, mu, 3.0)
    sweep_ok = True
    for tau in (4, 8, 16, 32):
        emp, bound = collision_experiment(tri, sol, N=10_000, T=1, tau=tau,
                                          trials=1000, seed=tau)
        sweep_ok = sweep_ok and emp <= bound
    elapsed = time.time() - t0
    ok = planted_exact and good_ratio >= 24 and sweep_ok and elapsed < 600
    report(8, ok, f"planted value exact: {planted_exact}, blowup ratio ok on "
                  f"{good_ratio}/30 (need 24), collision sweep ok: {sweep_ok}, "
                  f"{elapsed:.1f}s")
    assert planted_exact
    assert good_ratio >= 24
    assert sweep_ok
    assert elapsed < 600


def test_9_cli_determinism(tmp_path):
    t0 = time.time()
    tri_path = tmp_path / "triangle.json"
    save_instance(corpus.triangle(), tri_path)
    horn_path = tmp_path / "horn.json"
    save_instance(corpus.horn_satisfiable(4, n=6, m=8), horn_path)
    _, sol = solve_basic_lp(corpus.triangle())
    sol.x[0, 0] += 0.02
    sol_path = tmp_path / "sol.json"
    save_solution(sol, sol_path)

    commands = [
        ("solve-lp", "--instance", str(tri_path)),
        ("pipeline", "dump", "--instance", str(tri_path), "--epsilon", "0.25"),
        ("local-lp", "--instance", str(tri_path), "--query", "x:0:0"),
        ("round", "--instance", str(tri_path), "--epsilon", "0.3",
         "--trials", "2", "--seed", "5"),
        ("test-sat", "--instance", str(horn_path), "--epsilon", "0.3",
         "--trials", "2", "--seed", "5"),
        ("repair", "--instance", str(tri_path), "--solution", str(sol_path),
         "--out", str(tmp_path / "fixed.json")),
        ("gap", "gen", "--seed-instance", str(tri_path), "--mode", "lp",
         "--N", "4", "--T", "2", "--seed", "3", "--out", str(tmp_path / "J.json")),
        ("gap", "verify", "--seed-instance", str(tri_path), "--N", "4", "--T", "4",
         "--trials", "1", "--seed", "3"),
        ("gap", "collide", "--seed-instance", str(tri_path), "--N", "500",
         "--tau", "4,8", "--trials", "50", "--seed", "2"),
        ("corpus", "make", "--kind", "horn", "--count", "2", "--seed", "9",
         "--out-dir", str(tmp_path / "c")),
    ]
    identical = 0
    for argv in commands:
        runs = []
        for _ in range(2):
            res = subprocess.run([sys.executable, "-m", "csplp.cli", *argv],
                                 capture_output=True, text=True)
            assert res.returncode == 0, f"{argv}: {res.stderr}"
            extra = ""
            for out in sorted(tmp_path.rglob("*")):
                if out.is_file() and out.suffix == ".json":
                    extra += out.read_text()
            runs.append(res.stdout + extra)
        if runs[0] == runs[1]:
            identical += 1
    elapsed = time.time() - t0
    ok = identical == len(commands)
    report(9, ok, f"byte-identical reruns {identical}/{len(commands)}, {elapsed:.1f}s")
    assert identical == len(commands)
