"""The benchmark's four workloads: seeded inputs, one pass of ops, checks.

Each workload is built by a set-up function ``(seed, tiny) -> Workload``.
Set-up makes every input from the seed and computes the references the
checks compare against; independent optima come from scipy's HiGHS.  A
pass is a fixed list of units; a unit makes one call into csplp (timed by
the runner) and judges the answer, giving one ``Op`` per answered value.
An op fails when the call raises or the answer fails its check.

All program calls go through module attributes (``lp.solve_lp(...)``) so a
traced pass sees them; see tracing.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from csplp import corpus, csp, gaplab, localsolve, lp, pipeline, robustness, rounding
from csplp.csp import Constraint, ConstraintOracle, build_instance, evaluate

LOCAL_EPSILON = 0.2      # packing relaxation used by every LpOracle here
ROUND_EPSILON = 0.3      # rounding accuracy, as in `csplp round` and test_6b
TESTER_DELTA = 0.075     # horn-sat modulus at eps = 0.3, as in test_7


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    queries: float = 0.0                 # counted oracle queries of this op
    n: int | None = None                 # size class (n, or tau for probes)
    packing_ratio: float | None = None   # packing value / independent optimum
    assignment_ratio: float | None = None  # assignment value / total weight
    extra: dict = field(default_factory=dict)
    timed: bool = True                   # False: a share of a bulk call's time


@dataclass
class Unit:
    kind: str
    size: int                                  # values one call answers
    call: Callable[[], dict]
    judge: Callable[[dict, float], list[Op]]


@dataclass
class Workload:
    units: list[Unit]
    finish: Callable[[list[Op]], None] = lambda ops: None


def _interleaved(rng, units) -> list[Unit]:
    """The pass in a seeded random order.  Machine speed drifts over seconds
    on shared hosts; spreading each kind of op over the whole pass keeps that
    drift from landing on one kind only."""
    return [units[i] for i in rng.permutation(len(units))]


def _close(value, ref, rel) -> bool:
    return bool(abs(value - ref) <= rel * max(1.0, abs(ref)))


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(a, dtype=float)))) for a in arrays)


def _seeds(rng, k):
    return [int(s) for s in rng.integers(0, 2 ** 31, size=k)]


def _highs_max(objective, rows, n_cols) -> float:
    """Optimum of max c^T x over rows (cols, coefs, sense, rhs), x >= 0."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    def matrix(sel):
        data, ri, ci = [], [], []
        for r, (cols, coefs, _, _) in enumerate(sel):
            data += list(coefs)
            ri += [r] * len(cols)
            ci += list(cols)
        return csr_matrix((data, (ri, ci)), shape=(len(sel), n_cols)) if sel else None

    ub = [(c, k, s, b) if s == "<=" else (c, -np.asarray(k), "<=", -b)
          for c, k, s, b in rows if s != "="]
    eq = [r for r in rows if r[2] == "="]
    res = linprog(-np.asarray(objective, dtype=float),
                  A_ub=matrix(ub), b_ub=[r[3] for r in ub] or None,
                  A_eq=matrix(eq), b_eq=[r[3] for r in eq] or None,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference failed: {res.message}")
    return -float(res.fun)


def _highs_lp(program: lp.LinearProgram) -> float:
    rows = [(r.cols, r.coefs, r.sense, r.rhs) for r in program.rows]
    return _highs_max(program.objective, rows, program.num_cols)


def _highs_packing(pp: pipeline.PackingProgram) -> float:
    rows = [(cols, coefs, "<=", rhs) for (cols, coefs), rhs in zip(pp.row_entries, pp.c)]
    return _highs_max(pp.b, rows, pp.num_cols)


# --- local-oracle -------------------------------------------------------------

# (size class n, components): unions of components as in corpus.local_corpus,
# with every component of the same shape (as its size-ceiling instance) so
# the per-answer cost moves little from seed to seed.
LOCAL_SIZES = ((30, 6), (100, 20), (300, 60))
LOCAL_PIECE = dict(q=2, piece_n=(5, 5), piece_m=(4, 4))
LOCAL_SAMPLES = 100      # single timed calls per instance


@dataclass
class _LocalRef:
    size: int
    instance: object
    oracle: localsolve.LpOracle
    program: pipeline.PackingProgram
    packing: dict          # label -> phase-2 value of one global dynamics run
    repaired: lp.LpSolution
    optimum: float         # HiGHS optimum of the packing program
    cost_bound: float      # test_3's analytic per-answer query bound


def _local_reference(size, inst) -> _LocalRef:
    params = pipeline.PipelineParams.for_instance(inst, LOCAL_EPSILON)
    oracle = localsolve.LpOracle(ConstraintOracle(inst), params)
    pp = pipeline.normalize_packing(pipeline.to_packing(inst, params), params)
    dyn = localsolve.PackingDynamics(pp.col_labels, [c for c, _ in pp.row_entries],
                                     [k for _, k in pp.row_entries], pp.c)
    z = dyn.rescale_feasible(dyn.ascend(dyn.initial_point(oracle.gamma_d_bound),
                                        oracle.rounds, oracle.solver.eta))
    stage2 = {lab: z[i] / pp.col_scale[i] for i, lab in enumerate(pp.col_labels)}
    repaired, _ = pipeline.restore_and_repair(inst, stage2, params)
    bound = max(inst.q, inst.q * inst.s) * float(pp.delta_p * pp.delta_d) ** (oracle.rounds + 2)
    return _LocalRef(size, inst, oracle, pp, dict(zip(pp.col_labels, z)), repaired,
                     _highs_packing(pp), bound)


def _basic_names(inst):
    names = [("x", v, a) for v in range(inst.n) for a in range(inst.q)]
    names += [("mu", cid, beta) for cid, c in enumerate(inst.constraints)
              for beta in lp.mu_assignments(inst, c)]
    return names


def _repaired_value(ref: _LocalRef, name) -> float:
    if name[0] == "x":
        return float(ref.repaired.x[name[1], name[2]])
    betas = list(lp.mu_assignments(ref.instance, ref.instance.constraints[name[1]]))
    return float(ref.repaired.mu[name[1]][betas.index(name[2])])


def _counted(ref: _LocalRef, fn):
    """Call fn and return (result, constraint-oracle queries it made)."""
    before = ref.oracle.oracle.query_count
    out = fn()
    return out, ref.oracle.oracle.query_count - before


def _assemble_packing_unit(ref: _LocalRef) -> Unit:
    labels = ref.program.col_labels

    def call():
        vec, queries = _counted(ref, lambda: localsolve.assemble_packing_vector(
            ref.oracle, ref.instance))
        return {"values": [vec.get(lab, math.nan) for lab in labels], "queries": queries}

    def judge(ans, dt):
        z = np.asarray(ans["values"], dtype=float)
        per = ans["queries"] / len(labels)
        vector_ok = (_finite(z) and ref.program.max_violation(z) <= 1e-9
                     and per <= ref.cost_bound)
        ops = [Op("assemble_packing", dt / len(labels),
                  vector_ok and _close(zi, ref.packing[lab], 1e-9), per, ref.size,
                  extra={"handle_queries": per}, timed=False)
               for zi, lab in zip(z, labels)]
        ops[0].packing_ratio = float(z.sum()) / ref.optimum
        return ops

    return Unit("assemble_packing", len(labels), call, judge)


def _assemble_global_unit(ref: _LocalRef) -> Unit:
    inst = ref.instance
    size = inst.n * inst.q + sum(len(t) for t in ref.repaired.mu.values())

    def call():
        sol, queries = _counted(ref, lambda: localsolve.assemble_global(ref.oracle, inst))
        return {"x": sol.x, "mu": [sol.mu[cid] for cid in range(len(inst.constraints))],
                "queries": queries}

    def judge(ans, dt):
        got = np.concatenate([np.ravel(ans["x"])] + [np.ravel(t) for t in ans["mu"]])
        want = np.concatenate([np.ravel(ref.repaired.x)]
                              + [ref.repaired.mu[cid] for cid in range(len(inst.constraints))])
        per = ans["queries"] / size
        shape_ok = got.shape == want.shape and per <= ref.cost_bound
        ok = np.abs(got - want) <= 1e-9 if shape_ok else np.zeros(size, dtype=bool)
        return [Op("assemble_global", dt / size, bool(o), per, ref.size,
                   extra={"handle_queries": per}, timed=False) for o in ok]

    return Unit("assemble_global", size, call, judge)


def _single_unit(ref: _LocalRef, name, packing: bool) -> Unit:
    kind = "packing_value" if packing else "query"
    want = ref.packing[name] if packing else _repaired_value(ref, name)
    method = ref.oracle.packing_value if packing else ref.oracle.query

    def call():
        value, queries = _counted(ref, lambda: method(name))
        return {"value": value, "queries": queries}

    def judge(ans, dt):
        ok = _close(ans["value"], want, 1e-9) and 0 < ans["queries"] <= ref.cost_bound
        return [Op(kind, dt, ok, ans["queries"], ref.size,
                   extra={"handle_queries": ans["queries"]})]

    return Unit(kind, 1, call, judge)


def local_oracle(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    sizes = ((30, 2), (100, 3)) if tiny else LOCAL_SIZES
    samples = 4 if tiny else LOCAL_SAMPLES
    units = []
    for size, pieces in sizes:
        inst = corpus.component_union(_seeds(rng, 1)[0], pieces=pieces, **LOCAL_PIECE)
        ref = _local_reference(size, inst)
        units += [_assemble_packing_unit(ref), _assemble_global_unit(ref)]
        packing_pick = rng.choice(len(ref.program.col_labels), size=samples // 2, replace=False)
        names = _basic_names(inst)
        basic_pick = rng.choice(len(names), size=samples - samples // 2, replace=False)
        units += [_single_unit(ref, ref.program.col_labels[i], True) for i in packing_pick]
        units += [_single_unit(ref, names[i], False) for i in basic_pick]
    return Workload(_interleaved(rng, units))


# --- exact-reference ------------------------------------------------------------

def _cycle_pair(rng, n: int, piece: int = 6):
    """Two q=2 instances with n variables and n binary constraints each: one
    Hamiltonian cycle (connected) and n/piece disjoint cycles (split).  Both
    use the same per-edge predicates, so only the topology differs."""
    preds = [corpus.neq_predicate(2), corpus.eq_predicate(2)]
    kinds = [int(k) for k in rng.integers(0, 2, size=n)]
    perm = [int(v) for v in rng.permutation(n)]
    ring = [Constraint(kinds[i], (perm[i], perm[(i + 1) % n]), 1.0) for i in range(n)]
    blocks = []
    for j in range(n):
        base, off = (j // piece) * piece, j % piece
        blocks.append(Constraint(kinds[j], (base + off, base + (off + 1) % piece), 1.0))
    return (build_instance(2, 2, 2, 1.0, n, preds, ring),
            build_instance(2, 2, 2, 1.0, n, preds, blocks))


def _solution_arrays(sol: lp.LpSolution):
    return {"x": sol.x, "mu": [sol.mu[cid] for cid in sorted(sol.mu)]}


def _infeasibility(inst, ans) -> float:
    sol = lp.LpSolution(np.asarray(ans["x"], dtype=float),
                        {cid: np.asarray(t, dtype=float) for cid, t in enumerate(ans["mu"])},
                        0.0)
    if not _finite(sol.x, *sol.mu.values()):
        return math.inf
    return lp.infeasibility(inst, sol)


def _brute_unit(inst, lp_ref: float, noise) -> Unit:
    def call():
        value, sol = lp.solve_basic_lp(inst)
        opt, _ = csp.brute_force_opt(inst)
        noisy_x = np.clip(sol.x + noise, 0.0, None)
        noisy = lp.LpSolution(noisy_x, sol.mu, lp.value_of(inst, noisy_x, sol.mu))
        fixed, _ = robustness.repair_to_feasible(inst, noisy)
        return {"lp": value, "opt": opt, **_solution_arrays(fixed)}

    def judge(ans, dt):
        ok = (_close(ans["lp"], lp_ref, 1e-6) and ans["lp"] >= ans["opt"] - 1e-7
              and _infeasibility(inst, ans) <= 1e-9)
        return [Op("brute", dt, ok, inst.n * inst.t,
                   assignment_ratio=ans["opt"] / inst.total_weight)]

    return Unit("brute", 1, call, judge)


def _pipeline_unit(inst, params, packing_ref: float, stage1_ref: float) -> Unit:
    shift = params.C * pipeline.primal_column_count(inst)

    def call():
        packing = pipeline.exact_packing_optimum(inst, params)
        lp3 = pipeline.to_packing(inst, params)
        stage2, cols = lp.solve_lp(lp3)
        sol, _ = pipeline.restore_and_repair(inst, cols, params, lp3)
        return {"packing": packing, "stage2": stage2, **_solution_arrays(sol)}

    def judge(ans, dt):
        ok = (_close(ans["packing"], packing_ref, 1e-6)
              and abs(ans["stage2"] - stage1_ref - shift) <= 1e-6 * max(1.0, inst.total_weight)
              and _infeasibility(inst, ans) <= params.epsilon + 1e-9)
        return [Op("pipeline", dt, ok, inst.n * inst.t,
                   packing_ratio=ans["packing"] / packing_ref)]

    return Unit("pipeline", 1, call, judge)


def _large_unit(kind, inst, lp_ref: float) -> Unit:
    def call():
        value, _ = lp.solve_basic_lp(inst)
        return {"lp": value}

    def judge(ans, dt):
        return [Op(kind, dt, _close(ans["lp"], lp_ref, 1e-6), inst.n * inst.t)]

    return Unit(kind, 1, call, judge)


# Fixed-parameter versions of corpus.brute_corpus and corpus.pipeline_corpus:
# only the structure is random, so per-instance times stay close and the
# median and p90 of a pass move little from seed to seed.
BRUTE_SHAPE = dict(q=2, s=2, n=10, t=3, m=12, w=2.0, weights_vary=True)
PIPELINE_SHAPE = dict(q=2, s=2, n=6, t=3, m=5, w=2.0, weights_vary=True)
BRUTE_COUNT = 75
PIPELINE_COUNT = 150


def exact_reference(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    brute_count, pipe_count, large_n = (2, 2, 12) if tiny else (BRUTE_COUNT, PIPELINE_COUNT, 120)
    units = []
    for s in _seeds(rng, brute_count):
        inst = corpus.random_instance(s, **BRUTE_SHAPE)
        noise = rng.uniform(-0.02, 0.02, size=(inst.n, inst.q))
        units.append(_brute_unit(inst, _highs_lp(lp.build_basic_lp(inst)), noise))
    for s in _seeds(rng, pipe_count):
        inst = corpus.random_instance(s, **PIPELINE_SHAPE)
        params = pipeline.PipelineParams.for_instance(inst, LOCAL_EPSILON)
        packing = pipeline.normalize_packing(pipeline.to_packing(inst, params), params)
        stage1 = _highs_lp(pipeline.relax_basic_lp(inst, params.epsilon))
        units.append(_pipeline_unit(inst, params, _highs_packing(packing), stage1))
    connected, split = _cycle_pair(rng, large_n)
    units.append(_large_unit("large_connected", connected,
                             _highs_lp(lp.build_basic_lp(connected))))
    units.append(_large_unit("large_split", split, _highs_lp(lp.build_basic_lp(split))))
    return Workload(_interleaved(rng, units))


# --- rounding -----------------------------------------------------------------

# (n, trials per pass): Horn instances with m = 1.25 n.  Every trial has its
# own instance; the small sizes come in numbers so that the median and p90
# fall inside a group of similar trials, not between two groups.
ROUND_HORN = ((8, 12), (16, 12), (32, 1), (64, 1))
ROUND_SAT = 12           # satisfiable-tester trials, each on its own instance
ROUND_FIXED = 6          # triangle and far-tester trials (one instance each)
BRUTE_MAX_N = 16         # Horn sizes that also get a brute-force optimum


def _round_stack(inst):
    params = pipeline.PipelineParams.for_instance(inst, LOCAL_EPSILON)
    return ConstraintOracle(inst), localsolve.LpOracle(ConstraintOracle(inst), params)


def _round_unit(kind, inst, trial_seed, size_class) -> Unit:
    # test_6c's envelope: no estimate may beat the optimum by more than eps n/2
    optimum = csp.brute_force_opt(inst)[0] if inst.n <= BRUTE_MAX_N else math.inf
    slack = ROUND_EPSILON * inst.n / 2 + 1e-9

    def call():
        base, lp_oracle = _round_stack(inst)
        res = rounding.round_assignment(base, lp_oracle, ROUND_EPSILON, trial_seed)
        return {"estimate": res.estimate, "assignment": res.full_assignment(inst.n),
                "base_queries": base.query_count, "lp_queries": lp_oracle.oracle.query_count}

    def judge(ans, dt):
        a = np.asarray(ans["assignment"])
        in_range = a.shape == (inst.n,) and bool(np.all((a >= 0) & (a < inst.q)))
        value = evaluate(inst, [int(v) for v in a]) if in_range else math.nan
        ok = (in_range and abs(ans["estimate"] - value) <= slack
              and ans["estimate"] <= optimum + slack)
        queries = ans["base_queries"] + ans["lp_queries"]
        return [Op(kind, dt, ok, queries, size_class,
                   assignment_ratio=value / inst.total_weight,
                   extra={"handle_queries": queries, "lp_queries": ans["lp_queries"],
                          "base_queries": ans["base_queries"]})]

    return Unit(kind, 1, call, judge)


def _tester_unit(kind, inst, trial_seed, expect: bool) -> Unit:
    def call():
        base, lp_oracle = _round_stack(inst)
        accepted = rounding.test_satisfiability(base, lp_oracle, ROUND_EPSILON,
                                                TESTER_DELTA, trial_seed)
        return {"accepted": bool(accepted),
                "queries": base.query_count + lp_oracle.oracle.query_count}

    def judge(ans, dt):
        return [Op(kind, dt, ans["accepted"] is expect, ans["queries"],
                   extra={"handle_queries": ans["queries"]})]

    return Unit(kind, 1, call, judge)


def rounding_workload(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    horn_mix = ((8, 1),) if tiny else ROUND_HORN
    n_sat, n_fixed = (1, 1) if tiny else (ROUND_SAT, ROUND_FIXED)
    horn = [(n, corpus.horn_satisfiable(s, n=n, m=round(1.25 * n)))
            for n, k in horn_mix for s in _seeds(rng, k)]
    tri = corpus.triangle()
    far = corpus.horn_far(8)
    sat = [corpus.horn_satisfiable(s, n=8, m=11) for s in _seeds(rng, n_sat)]
    groups = [
        [_round_unit("round_horn", inst, s, n)
         for (n, inst), s in zip(horn, _seeds(rng, len(horn)))],
        [_round_unit("round_triangle", tri, s, None) for s in _seeds(rng, n_fixed)],
        [_tester_unit("tester_sat", inst, s, True) for inst, s in zip(sat, _seeds(rng, n_sat))],
        [_tester_unit("tester_far", far, s, False) for s in _seeds(rng, n_fixed)],
    ]
    return Workload(_interleaved(rng, [u for g in groups for u in g]))


# --- gap-lab ------------------------------------------------------------------

# Probes per (tau, branch) per pass, each with its own seed.  Probes on the
# "lp" branch take longer, so every (tau, branch) pair is its own time group;
# with these counts the median falls inside the tau = 16 "opt" group and the
# p90 inside the tau = 32 "lp" group, not on the edge between two groups.
GAP_PROBES = {(4, "opt"): 30, (4, "lp"): 30, (8, "opt"): 30, (8, "lp"): 30,
              (16, "opt"): 60, (16, "lp"): 30, (32, "opt"): 30, (32, "lp"): 60}
GAP_TAUS = (4, 8, 16, 32)
GAP_PLANTED = 20         # gen_lp_instance ops per pass
PROBE_N = 10_000
COMPLETE_N = 300         # complete() grows quadratically in N; ~0.1 s here


def _binomial_tail(hits: int, trials: int, p: float) -> float:
    """P(X >= hits) for X ~ Binomial(trials, p)."""
    if hits <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    tail = 0.0
    for k in range(hits, trials + 1):
        tail += math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1)
                         - math.lgamma(trials - k + 1)
                         + k * math.log(p) + (trials - k) * math.log1p(-p))
    return min(1.0, tail)


def gap_lab(seed: int, tiny: bool = False) -> Workload:
    rng = np.random.default_rng(seed)
    tri = corpus.triangle()
    lp_value, sol = lp.solve_basic_lp(tri)
    mu_min = min(float(t[t > 1e-12].min()) for t in sol.mu.values())
    opt_T, planted_T = (4, 2) if tiny else (32, 4)
    units = []

    opt_seed = _seeds(rng, 1)[0]

    def blowup_call():
        J = gaplab.gen_opt_instance(gaplab.GapParams(tri, None, None, N=6, T=opt_T,
                                                     seed=opt_seed))
        opt, argmax = csp.brute_force_opt(J.instance)
        return {"opt": opt, "argmax": np.asarray(argmax), "instance": J.instance}

    def blowup_judge(ans, dt):
        inst, a = ans["instance"], ans["argmax"]
        in_range = a.shape == (inst.n,) and bool(np.all((a >= 0) & (a < inst.q)))
        ok = in_range and evaluate(inst, [int(v) for v in a]) == ans["opt"]
        return [Op("blowup_opt", dt, ok, 0.0, assignment_ratio=ans["opt"] / inst.total_weight)]

    units.append(Unit("blowup_opt", 1, blowup_call, blowup_judge))

    def planted_unit(s):
        want = planted_T * 6 * lp_value

        def call():
            J = gaplab.gen_lp_instance(gaplab.GapParams.from_solution(tri, sol, N=6,
                                                                      T=planted_T, seed=s))
            return {"alpha": np.asarray(J.alpha), "instance": J.instance}

        def judge(ans, dt):
            inst, a = ans["instance"], ans["alpha"]
            in_range = a.shape == (inst.n,) and bool(np.all((a >= 0) & (a < inst.q)))
            value = evaluate(inst, [int(v) for v in a]) if in_range else math.nan
            return [Op("planted", dt, _close(value, want, 1e-12), 0.0,
                       packing_ratio=value / want)]

        return Unit("planted", 1, call, judge)

    units += [planted_unit(s) for s in _seeds(rng, 1 if tiny else GAP_PLANTED)]

    def probe_unit(tau, branch, s):
        def call():
            proc = gaplab.TranscriptProcess(tri, PROBE_N, 1, s, branch=branch,
                                            xstar=sol.x, mustar=sol.mu)
            for _ in range(tau):
                proc.query(proc.random_unseen_variable(), 1)
            return {"collisions": proc.collisions, "transcript": len(proc.transcript)}

        def judge(ans, dt):
            ok = 0 <= ans["collisions"] <= tau and ans["transcript"] == 2 * tau
            return [Op("probe", dt, ok, float(tau), tau, extra={"hit": ans["collisions"] > 0})]

        return Unit("probe", 1, call, judge)

    for (tau, branch), count in GAP_PROBES.items():
        units += [probe_unit(tau, branch, s) for s in _seeds(rng, 1 if tiny else count)]

    sweep_seed, sweep_tau = _seeds(rng, 1)[0], 8
    sweep_bound = gaplab.collision_bound(sweep_tau, tri.s, mu_min, PROBE_N)

    def sweep_call():
        rate, bound = gaplab.collision_experiment(tri, sol, N=PROBE_N, T=1, tau=sweep_tau,
                                                  trials=1, seed=sweep_seed)
        return {"rate": rate, "bound": bound}

    def sweep_judge(ans, dt):
        ok = ans["rate"] in (0.0, 1.0) and _close(ans["bound"], sweep_bound, 1e-12)
        return [Op("sweep", dt, ok, float(sweep_tau))]

    units.append(Unit("sweep", 1, sweep_call, sweep_judge))

    complete_n = 20 if tiny else COMPLETE_N

    def complete_unit(branch, s):
        def call():
            proc = gaplab.TranscriptProcess(tri, complete_n, 1, s, branch=branch,
                                            xstar=sol.x, mustar=sol.mu)
            for _ in range(8):
                proc.query(proc.random_unseen_variable(), 1)
            inst = proc.complete()
            return {"consistent": bool(proc.replay_consistent(inst)), "n": inst.n}

        def judge(ans, dt):
            return [Op("complete", dt,
                       ans["consistent"] is True and ans["n"] == 3 * complete_n)]

        return Unit("complete", 1, call, judge)

    units += [complete_unit(b, s) for b, s in zip(("opt", "lp"), _seeds(rng, 2))]

    def finish(ops):
        """Collision rate per tau against its analytic bound, over every probe
        of the run: a tau fails when the observed hits would have probability
        below 1e-3 if the true rate sat exactly at the bound."""
        for tau in GAP_TAUS:
            mine = [op for op in ops if op.kind == "probe" and op.n == tau]
            hits = sum(1 for op in mine if op.extra.get("hit"))
            bound = gaplab.collision_bound(tau, tri.s, mu_min, PROBE_N)
            if mine and _binomial_tail(hits, len(mine), bound) < 1e-3:
                for op in mine:
                    op.ok = False

    return Workload(_interleaved(rng, units), finish)


WORKLOADS = {
    "local-oracle": local_oracle,
    "exact-reference": exact_reference,
    "rounding": rounding_workload,
    "gap-lab": gap_lab,
}
