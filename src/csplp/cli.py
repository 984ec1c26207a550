"""Command-line front end: one executable, one subcommand per experiment.

Every command is deterministic given --seed and writes plain CSV or JSON;
the first CSV line is a comment naming the command and the seed, the second
names the columns (units in the names).  Exit codes: 0 success, 2 validation
problem, 3 enumeration or fold budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import corpus
from .csp import ConstraintOracle, brute_force_opt, evaluate, load_instance, save_instance
from .errors import BudgetExceeded, CsplpError, FoldTooLarge, SizeLimit
from .gaplab import GapParams, collision_experiment, gen_lp_instance, gen_opt_instance
from .localsolve import LocalSolverParams, LpOracle
from .lp import check_fits, load_solution, marginal_rows, save_solution, solve_basic_lp
from .pipeline import PipelineParams, normalize_packing, relax_basic_lp, to_packing
from .robustness import repair_to_feasible
from .rounding import TESTER_DELTA_PRESETS, round_assignment, test_satisfiability


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path, command, seed, columns, rows):
    buf = io.StringIO()
    buf.write(f"# csplp {command} seed={seed}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    text = buf.getvalue()
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _lp_oracle(instance, epsilon, cap):
    return LpOracle(ConstraintOracle(instance), PipelineParams.for_instance(instance, epsilon),
                    LocalSolverParams(rounds_cap=cap))


# --- subcommands ---------------------------------------------------------------

def cmd_solve_lp(args):
    inst = load_instance(args.instance)
    value, sol = solve_basic_lp(inst)
    print(_fmt(value))
    if args.out:
        save_solution(sol, args.out)
    return 0


def cmd_pipeline_dump(args):
    inst = load_instance(args.instance)
    pp = PipelineParams.for_instance(inst, args.epsilon)
    stage = args.stage
    if stage == "relaxed":
        lp = relax_basic_lp(inst, args.epsilon)
        data = _lp_json(lp)
    elif stage == "packing":
        data = _lp_json(to_packing(inst, pp))
    else:
        prog = normalize_packing(to_packing(inst, pp), pp)
        data = {
            "columns": [_name(lab) for lab in prog.col_labels],
            "rows": [
                {"tag": _name(tag), "cols": [_name(prog.col_labels[c]) for c in cols],
                 "coefs": [float(x) for x in coefs], "rhs": float(rhs)}
                for tag, (cols, coefs), rhs in zip(prog.row_tags, prog.row_entries, prog.c)
            ],
            "stats": {"c_max": prog.c_max, "gamma_p": prog.gamma_p,
                      "gamma_d": prog.gamma_d, "delta_p": prog.delta_p,
                      "delta_d": prog.delta_d},
        }
    out = json.dumps(data, indent=1)
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def _name(label) -> str:
    return ":".join(str(p) for p in label) if isinstance(label, tuple) else str(label)


def _lp_json(lp):
    return {
        "columns": [_name(lab) for lab in lp.labels],
        "objective": [float(c) for c in lp.objective],
        "rows": [
            {"tag": _name(r.tag), "cols": [_name(lp.labels[j]) for j in r.cols],
             "coefs": [float(c) for c in r.coefs], "sense": r.sense, "rhs": r.rhs}
            for r in lp.rows
        ],
    }


def _parse_column(text, inst):
    """The column named x:v:a or mu:cid:b1,b2, checked against the instance."""
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in ("x", "mu"):
        raise ValueError(f"cannot parse column name {text!r}; use x:v:a or mu:cid:b1,b2")

    def index(part, bound, what):
        if not (part.isascii() and part.isdigit() and int(part) < bound):
            raise ValueError(f"column {text!r}: {what} {part!r} is not in [0, {bound})")
        return int(part)

    if parts[0] == "x":
        return ("x", index(parts[1], inst.n, "variable"), index(parts[2], inst.q, "value"))
    cid = index(parts[1], len(inst.constraints), "constraint")
    beta = tuple(index(b, inst.q, "value") for b in parts[2].split(","))
    arity = len(inst.constraints[cid].distinct_vars())
    if len(beta) != arity:
        raise ValueError(f"column {text!r}: constraint {cid} has {arity} distinct variables, "
                         f"not {len(beta)}")
    return ("mu", cid, beta)


def _column_text(name):
    """The --query form of a column name: x:v:a or mu:cid:b1,b2."""
    kind, i, a = name
    return f"{kind}:{i}:" + (",".join(map(str, a)) if kind == "mu" else str(a))


def cmd_local_lp(args):
    inst = load_instance(args.instance)
    oracle = _lp_oracle(inst, args.epsilon, args.rounds_cap)
    rows = []
    if args.query:
        name = _parse_column(args.query, inst)
        value = oracle.query(name)
        rows.append((args.query, value, oracle.last_query_cost))
    elif args.assemble:
        m = marginal_rows(inst)
        names = m.x_labels + m.mu_labels
        values, costs = oracle.query_many(names)
        rows = [(_column_text(name), val, cost) for name, val, cost in zip(names, values, costs)]
    else:
        raise ValueError("local-lp needs --query or --assemble")
    _write_csv(args.csv, "local-lp", "none", ("name", "value", "query_cost"), rows)
    return 0


def _round_trial(task):
    path, lp_eps, cap, epsilon, trial, seed = task
    inst = load_instance(path)
    oracle = _lp_oracle(inst, lp_eps, cap)
    base = ConstraintOracle(inst)
    res = round_assignment(base, oracle, epsilon, seed)
    val = evaluate(inst, res.full_assignment(inst.n))
    return (trial, seed, res.estimate, val,
            base.query_count + oracle.oracle.query_count)


def _run_trials(worker, tasks, jobs):
    """Run independent seeded trials, aggregated in seed-sorted order."""
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(worker, tasks)
    else:
        results = [worker(t) for t in tasks]
    return sorted(results, key=lambda row: row[1])


def cmd_round(args):
    inst = load_instance(args.instance)
    opt_value = ""
    try:
        opt_value, _ = brute_force_opt(inst, budget=args.budget)
    except BudgetExceeded:
        opt_value = ""
    tasks = [(args.instance, args.lp_epsilon, args.rounds_cap,
              args.epsilon, trial, args.seed + trial)
             for trial in range(args.trials)]
    rows = [(trial, seed, est, val, opt_value, cost)
            for trial, seed, est, val, cost in _run_trials(_round_trial, tasks, args.jobs)]
    _write_csv(args.csv, "round", args.seed,
               ("trial", "seed", "estimate_weight", "value_weight",
                "opt_weight", "query_cost"), rows)
    return 0


def _tester_trial(task):
    path, lp_eps, cap, epsilon, delta, trial, seed = task
    inst = load_instance(path)
    oracle = _lp_oracle(inst, lp_eps, cap)
    verdict = test_satisfiability(ConstraintOracle(inst), oracle, epsilon, delta, seed)
    return (trial, seed, int(verdict))


def cmd_test_sat(args):
    load_instance(args.instance)  # validate before spawning workers
    delta = args.delta
    if delta is None:
        preset = TESTER_DELTA_PRESETS.get(args.family)
        if preset is None:
            raise ValueError("give --delta or a testable --family preset")
        delta = preset(args.epsilon)
    tasks = [(args.instance, args.lp_epsilon, args.rounds_cap,
              args.epsilon, delta, trial, args.seed + trial)
             for trial in range(args.trials)]
    rows = _run_trials(_tester_trial, tasks, args.jobs)
    _write_csv(args.csv, "test-sat", args.seed, ("trial", "seed", "accept"), rows)
    return 0


def cmd_repair(args):
    inst = load_instance(args.instance)
    sol = load_solution(args.solution)
    check_fits(inst, sol)
    repaired, report = repair_to_feasible(inst, sol)
    save_solution(repaired, args.out)
    print(json.dumps({
        "input_eps": report["input_eps"],
        "delta": report["delta"],
        "value_before": report["value_before"],
        "value_after": report["value_after"],
    }, indent=1))
    return 0


def cmd_gap_gen(args):
    inst = load_instance(args.seed_instance)
    _, sol = solve_basic_lp(inst)
    params = GapParams(inst, sol.x, sol.mu, args.N, args.T, args.seed)
    J = gen_opt_instance(params) if args.mode == "opt" else gen_lp_instance(params)
    save_instance(J.instance, args.out)
    if args.alpha_out and J.alpha is not None:
        with open(args.alpha_out, "w") as fh:
            json.dump([int(a) for a in J.alpha], fh)
            fh.write("\n")
    return 0


def cmd_gap_verify(args):
    inst = load_instance(args.seed_instance)
    lp_value, sol = solve_basic_lp(inst)
    opt_value, _ = brute_force_opt(inst, budget=args.budget)
    w = inst.total_weight
    rows = []
    for trial in range(args.trials):
        seed = args.seed + trial
        params = GapParams(inst, sol.x, sol.mu, args.N, args.T, seed)
        Jlp = gen_lp_instance(params)
        planted = evaluate(Jlp.instance, Jlp.alpha)
        rows.append((trial, seed, "lp_planted_value", planted,
                     args.T * args.N * lp_value,
                     int(abs(planted - args.T * args.N * lp_value) < 1e-6)))
        Jopt = gen_opt_instance(params)
        blown_opt, _ = brute_force_opt(Jopt.instance, budget=args.budget)
        ratio = blown_opt / Jopt.instance.total_weight
        bound = opt_value / w + args.epsilon
        rows.append((trial, seed, "opt_ratio", ratio, bound, int(ratio <= bound)))
    _write_csv(args.csv, "gap-verify", args.seed,
               ("trial", "seed", "quantity", "value_weight", "bound_weight", "ok"),
               rows)
    return 0


def cmd_gap_collide(args):
    inst = load_instance(args.seed_instance)
    _, sol = solve_basic_lp(inst)
    rows = []
    for i, tau in enumerate(args.tau):
        emp, bound = collision_experiment(inst, sol, args.N, args.T, tau,
                                          args.trials, args.seed + i)
        rows.append((tau, args.N, args.trials, emp, bound, int(emp <= bound)))
    _write_csv(args.csv, "gap-collide", args.seed,
               ("tau_queries", "N_blowup", "trials", "empirical_rate",
                "bound_rate", "ok"), rows)
    return 0


def cmd_corpus_make(args):
    import os
    os.makedirs(args.out_dir, exist_ok=True)
    if args.kind == "brute":
        instances = corpus.brute_corpus(args.count, args.seed)
    elif args.kind == "pipeline":
        instances = corpus.pipeline_corpus(args.count, args.seed)
    elif args.kind == "local":
        instances = corpus.local_corpus(args.count, args.seed)
    elif args.kind == "horn":
        instances = [corpus.horn_satisfiable(args.seed + i) for i in range(args.count)]
    else:
        raise ValueError(f"unknown corpus kind {args.kind!r}")
    for i, inst in enumerate(instances):
        save_instance(inst, f"{args.out_dir}/{args.kind}_{i:04d}.json")
    print(f"wrote {len(instances)} instances to {args.out_dir}")
    return 0


def cmd_named(args):
    inst = getattr(corpus, args.name)()
    save_instance(inst, args.out)
    return 0


# --- parser ------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits 2 with one `error:` line on bad arguments, as on any other validation problem."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _ranged(kind, ok, what):
    """An argparse type: `kind` of the text, rejected unless `ok` holds."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_ROUNDS_CAP = _ranged(int, lambda k: k >= 1, "an integer of at least 1")
_UNIT_EPSILON = _ranged(float, lambda e: 0.0 < e <= 1.0, "a number in (0, 1]")
_POSITIVE = _ranged(float, lambda e: 0.0 < e < math.inf, "a finite number above 0")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="csplp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common_lp(sp):
        sp.add_argument("--lp-epsilon", type=float, default=0.2,
                        help="slack of the relaxation behind the local oracle")
        sp.add_argument("--rounds-cap", type=_ROUNDS_CAP, default=64)
        sp.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for independent trials")

    sp = sub.add_parser("solve-lp", help="exact optimum of the basic relaxation")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--out", help="write the solution JSON here")
    sp.set_defaults(func=cmd_solve_lp)

    sp = sub.add_parser("pipeline", help="inspect the LP transformation chain")
    ssub = sp.add_subparsers(dest="pipeline_command", required=True)
    sd = ssub.add_parser("dump")
    sd.add_argument("--instance", required=True)
    sd.add_argument("--epsilon", type=float, default=0.25)
    sd.add_argument("--stage", choices=("relaxed", "packing", "restricted"),
                    default="restricted")
    sd.add_argument("--out", default="-")
    sd.set_defaults(func=cmd_pipeline_dump)

    sp = sub.add_parser("local-lp", help="query the local LP oracle")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--epsilon", type=float, default=0.2)
    sp.add_argument("--rounds-cap", type=_ROUNDS_CAP, default=64)
    sp.add_argument("--query", help="column name, x:v:a or mu:cid:b1,b2")
    sp.add_argument("--assemble", action="store_true")
    sp.add_argument("--csv", default="-")
    sp.set_defaults(func=cmd_local_lp)

    sp = sub.add_parser("round", help="rounding trials against the local oracle")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--epsilon", type=_UNIT_EPSILON, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--budget", type=int, default=2 ** 26)
    sp.add_argument("--csv", default="-")
    common_lp(sp)
    sp.set_defaults(func=cmd_round)

    sp = sub.add_parser("test-sat", help="satisfiability tester trials")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--epsilon", type=_UNIT_EPSILON, required=True)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--family", default="horn-sat")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1)
    sp.add_argument("--csv", default="-")
    common_lp(sp)
    sp.set_defaults(func=cmd_test_sat)

    sp = sub.add_parser("repair", help="make a near-feasible solution exactly feasible")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--solution", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_repair)

    sp = sub.add_parser("gap", help="blow-up experiments")
    gsub = sp.add_subparsers(dest="gap_command", required=True)
    sg = gsub.add_parser("gen")
    sg.add_argument("--seed-instance", required=True)
    sg.add_argument("--mode", choices=("opt", "lp"), required=True)
    sg.add_argument("--N", type=int, required=True)
    sg.add_argument("--T", type=int, required=True)
    sg.add_argument("--seed", type=int, default=0)
    sg.add_argument("--out", required=True)
    sg.add_argument("--alpha-out")
    sg.set_defaults(func=cmd_gap_gen)
    sv = gsub.add_parser("verify")
    sv.add_argument("--seed-instance", required=True)
    sv.add_argument("--N", type=int, default=6)
    sv.add_argument("--T", type=int, default=32)
    sv.add_argument("--epsilon", type=_POSITIVE, default=0.15)
    sv.add_argument("--trials", type=int, default=5)
    sv.add_argument("--seed", type=int, default=0)
    sv.add_argument("--budget", type=int, default=2 ** 26)
    sv.add_argument("--csv", default="-")
    sv.set_defaults(func=cmd_gap_verify)
    sc = gsub.add_parser("collide")
    sc.add_argument("--seed-instance", required=True)
    sc.add_argument("--N", type=int, default=10_000)
    sc.add_argument("--T", type=int, default=1)
    sc.add_argument("--tau", type=lambda s: [int(x) for x in s.split(",")],
                    default=[4, 8, 16, 32])
    sc.add_argument("--trials", type=int, default=1000)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--csv", default="-")
    sc.set_defaults(func=cmd_gap_collide)

    sp = sub.add_parser("corpus", help="write seeded instance corpora")
    csub = sp.add_subparsers(dest="corpus_command", required=True)
    cm = csub.add_parser("make")
    cm.add_argument("--kind", choices=("brute", "pipeline", "local", "horn"),
                    required=True)
    cm.add_argument("--count", type=int, default=10)
    cm.add_argument("--seed", type=int, default=0)
    cm.add_argument("--out-dir", required=True)
    cm.set_defaults(func=cmd_corpus_make)
    cn = csub.add_parser("named")
    cn.add_argument("--name", choices=("triangle", "single", "horn_chain"),
                    required=True)
    cn.add_argument("--out", required=True)
    cn.set_defaults(func=cmd_named)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceeded, FoldTooLarge, SizeLimit) as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (CsplpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
