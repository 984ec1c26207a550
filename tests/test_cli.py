import csv
import hashlib
import json
import subprocess
import sys

import pytest

from csplp import cli, corpus
from csplp.csp import instance_to_json, save_instance
from csplp.lp import save_solution, solve_basic_lp


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "csplp.cli", *argv],
                          capture_output=True, text=True)


@pytest.fixture
def tri_path(tmp_path):
    path = tmp_path / "triangle.json"
    save_instance(corpus.triangle(), path)
    return str(path)


def test_solve_lp_prints_value(tri_path):
    out = run_cli("solve-lp", "--instance", tri_path)
    assert out.returncode == 0
    assert float(out.stdout.strip()) == pytest.approx(3.0, abs=1e-6)


def test_pipeline_dump_stats(tri_path):
    out = run_cli("pipeline", "dump", "--instance", tri_path, "--epsilon", "0.25")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["stats"]["delta_p"] >= 2
    assert len(data["columns"]) == 2 * (6 + 12)


def test_local_lp_query(tri_path):
    out = run_cli("local-lp", "--instance", tri_path, "--query", "x:0:1")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("# csplp local-lp")
    assert lines[1] == "name,value,query_cost"
    name, value, cost = lines[2].split(",")
    assert 0.0 <= float(value) <= 1.0
    assert int(cost) > 0


@pytest.mark.parametrize("name", ["x:0", "x:0:5", "mu:9:0,1", "mu:0:0", "mu:0:", "mu:0:0,0,0",
                                  "x:0:-1", "x:0:0:0"])
def test_local_lp_malformed_query_exits_2_with_one_line(tri_path, name, capsys):
    # names that are not columns of the triangle: too few or too many parts,
    # an index out of range, or a table entry of the wrong length
    assert cli.main(["local-lp", "--instance", tri_path, "--query", name]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["local-lp", "--query", "x:0:0", "--rounds-cap", "0"],
    ["local-lp", "--query", "x:0:0", "--rounds-cap", "-3"],
    ["round", "--epsilon", "0.3", "--rounds-cap", "0"],
    ["test-sat", "--epsilon", "0.3", "--rounds-cap", "0"],
    ["round", "--epsilon", "1.5"],
    ["round", "--epsilon", "0"],
    ["test-sat", "--epsilon", "1.5"],
    ["test-sat", "--epsilon", "-0.2"],
    ["gap", "verify", "--epsilon", "0"],
    ["gap", "verify", "--epsilon", "-1"],
], ids=["local-lp-cap-0", "local-lp-cap-negative", "round-cap-0", "test-sat-cap-0",
        "round-eps-above-1", "round-eps-0", "test-sat-eps-above-1", "test-sat-eps-negative",
        "gap-verify-eps-0", "gap-verify-eps-negative"])
def test_out_of_range_option_exits_2_with_one_line(tri_path, argv, capsys):
    instance = ["--seed-instance" if argv[0] == "gap" else "--instance", tri_path]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv + instance)
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1 and out.err.startswith("error: ")


def test_local_lp_assemble_names_round_trip(tri_path):
    out = run_cli("local-lp", "--instance", tri_path, "--assemble")
    assert out.returncode == 0
    rows = list(csv.reader(out.stdout.splitlines()[1:]))
    assert rows[0] == ["name", "value", "query_cost"]
    assert all(len(row) == 3 for row in rows)
    mu_rows = [row for row in rows[1:] if row[0].startswith("mu:")]
    assert len(mu_rows) == 12
    for name, value, cost in mu_rows:
        single = run_cli("local-lp", "--instance", tri_path, "--query", name)
        assert single.returncode == 0
        assert list(csv.reader(single.stdout.splitlines()[2:])) == [[name, value, cost]]


def test_round_csv_and_determinism(tri_path, tmp_path):
    args = ("round", "--instance", tri_path, "--epsilon", "0.3",
            "--trials", "3", "--seed", "7", "--csv", "-")
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout  # byte identical
    header = a.stdout.splitlines()[1].split(",")
    assert "estimate_weight" in header and "query_cost" in header


def test_test_sat_accepts_satisfiable(tmp_path):
    path = tmp_path / "horn.json"
    save_instance(corpus.horn_satisfiable(1, n=6, m=8), path)
    out = run_cli("test-sat", "--instance", str(path), "--epsilon", "0.3",
                  "--trials", "2", "--seed", "3")
    assert out.returncode == 0
    rows = [line.split(",") for line in out.stdout.strip().splitlines()[2:]]
    assert all(r[2] == "1" for r in rows)


def test_repair_roundtrip(tri_path, tmp_path):
    _, sol = solve_basic_lp(corpus.triangle())
    sol.x[0, 0] += 0.02
    sol_path = tmp_path / "sol.json"
    save_solution(sol, sol_path)
    out_path = tmp_path / "fixed.json"
    out = run_cli("repair", "--instance", tri_path, "--solution", str(sol_path),
                  "--out", str(out_path))
    assert out.returncode == 0
    assert out_path.exists()
    report = json.loads(out.stdout)
    assert report["value_after"] <= report["value_before"] + 1e-9


def test_gap_gen_and_collide(tri_path, tmp_path):
    out_path = tmp_path / "blowup.json"
    out = run_cli("gap", "gen", "--seed-instance", tri_path, "--mode", "lp",
                  "--N", "4", "--T", "2", "--seed", "5", "--out", str(out_path))
    assert out.returncode == 0, out.stderr
    data = json.loads(out_path.read_text())
    assert data["n"] == 12
    assert len(data["constraints"]) == 3 * 2 * 4

    res = run_cli("gap", "collide", "--seed-instance", tri_path, "--N", "500",
                  "--tau", "4,8", "--trials", "50", "--seed", "1")
    assert res.returncode == 0
    rows = [line.split(",") for line in res.stdout.strip().splitlines()[2:]]
    assert len(rows) == 2
    assert all(r[-1] == "1" for r in rows)


def test_corpus_make(tmp_path):
    out = run_cli("corpus", "make", "--kind", "horn", "--count", "3",
                  "--seed", "2", "--out-dir", str(tmp_path / "c"))
    assert out.returncode == 0
    assert len(list((tmp_path / "c").glob("*.json"))) == 3


def test_validation_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    out = run_cli("solve-lp", "--instance", missing)
    assert out.returncode == 2


def _set(path, value):
    def edit(data):
        *keys, last = path
        for key in keys:
            data = data[key]
        data[last] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set(("constraints", 0, "scope"), [0.0, 1]),
    _set(("q",), "2"),
    lambda data: data.pop("t"),
    _set(("constraints", 0, "scope"), None),
    _set(("constraints", 0, "scope"), [False, True]),
    _set(("predicates", 0, "truth_table"), [0.0, 1.0, 1.0, 0.0]),
    _set(("degree_index",), [[0, 2.0], [0, 1], [1, 2]]),
    _set(("degree_index",), [[0], [0, 1], [1, 2]]),
    _set(("degree_index",), {"0": [0, 2]}),
], ids=["float-scope", "string-q", "missing-key", "null-scope", "bool-scope",
        "float-truth-table", "float-degree-index", "wrong-degree-index",
        "object-degree-index"])
def test_malformed_instance_exits_2_with_one_line(tmp_path, edit):
    data = instance_to_json(corpus.triangle())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = run_cli("solve-lp", "--instance", str(path))
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")


@pytest.mark.parametrize("edit", [
    lambda data: data.pop("value"),
    _set(("x", 1), [0.5]),
    _set(("x", 0, 0), True),
    _set(("mu", 0, "table"), "0.5"),
    _set(("mu", 0, "constraint"), 0.0),
], ids=["missing-value", "ragged-x", "bool-x", "string-table", "float-constraint"])
def test_malformed_solution_exits_2_with_one_line(tri_path, tmp_path, edit):
    _, sol = solve_basic_lp(corpus.triangle())
    sol_path = tmp_path / "sol.json"
    save_solution(sol, sol_path)
    data = json.loads(sol_path.read_text())
    edit(data)
    sol_path.write_text(json.dumps(data))
    out = run_cli("repair", "--instance", tri_path, "--solution", str(sol_path),
                  "--out", str(tmp_path / "out.json"))
    assert out.returncode == 2
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")


def _drop_table(data):
    data["mu"].pop(1)


def _short_table(data):
    data["mu"][2]["table"].pop()


@pytest.mark.parametrize("instance, solution, edit", [
    ("triangle", "single", None),
    ("single", "triangle", None),
    ("triangle", "triangle", _drop_table),
    ("triangle", "triangle", _short_table),
], ids=["single-on-triangle", "triangle-on-single", "missing-table", "short-table"])
def test_repair_rejects_solution_of_another_shape(tmp_path, instance, solution, edit):
    inst_path = tmp_path / "inst.json"
    save_instance(getattr(corpus, instance)(), inst_path)
    _, sol = solve_basic_lp(getattr(corpus, solution)())
    sol_path = tmp_path / "sol.json"
    save_solution(sol, sol_path)
    if edit:
        data = json.loads(sol_path.read_text())
        edit(data)
        sol_path.write_text(json.dumps(data))
    out = run_cli("repair", "--instance", str(inst_path), "--solution", str(sol_path),
                  "--out", str(tmp_path / "out.json"))
    assert out.returncode == 2
    assert out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith("error: ")


# sha256 of `pipeline dump` (default epsilon 0.25) as of the flat stage-3 form, and of
# the `solve-lp --out` solution and its `repair --out` as of the flat basic LP: the
# first optimal basis the simplex finds depends on the builders' row order
DUMP_SHA256 = {
    ("triangle", "relaxed"): "a170f7e01bb0a20ff39cd2d0f6f041dfa5f12183362789255854b71fa8a02d2e",
    ("triangle", "packing"): "eac1a59a96cfb8ec5be04f7718f0cf90e3af8e8133027f0e332d7a5d5d2ff757",
    ("triangle", "restricted"): "add32d6e2947af950c18f3712aa59fbd8ae3ed2336e5e5bb2d30ea416396cc30",
    ("random", "relaxed"): "6df7e1cb454cb3edb075f6f25e5e5d330e6a7aaa9563c157937a2f837b2d63f8",
    ("random", "packing"): "1fcdd8044c6b7a635523c94f9dcdf5556d4ec32e22fe4ab4cfed3eadb7340e2e",
    ("random", "restricted"): "739bcdeb33c0964fdc67f9bbdf3bed774254102860a82679ffd5c68e34dcd048",
    ("union", "relaxed"): "fa7f08567b7d3bf25c97592589f0438b8139d0d493760997c9d866c266335454",
    ("union", "packing"): "7adefb232ba481687c4f363ad02cc0e8c35f68b14e354e7cf1c32cfd7b1b9975",
    ("union", "restricted"): "66734e4483b626fb1d80ecca8b67f69337aba061820380033d48a7029483159d",
    ("triangle", "solve-lp"): "179f69a3537e6b2e9d93b0740eb5375216abc079486b91fee66b88a5afe8cda3",
    ("triangle", "repair"): "179f69a3537e6b2e9d93b0740eb5375216abc079486b91fee66b88a5afe8cda3",
    ("random", "solve-lp"): "833dfe28625f2b5857b74f80588ee5eaf4705fd4fe265a7f3f2cc9d95ea478d0",
    ("random", "repair"): "b71cb4e0bc8af8fecf93739a2ba088a375d73e9918d2f37bfa711e97a23eef6e",
    ("union", "solve-lp"): "6667acb4a0c2e22ced51aa7ef06ca72690c45a274d1e38c7b1d14e946ce1f9fd",
    ("union", "repair"): "6667acb4a0c2e22ced51aa7ef06ca72690c45a274d1e38c7b1d14e946ce1f9fd",
}
DUMP_INSTANCES = {
    "triangle": corpus.triangle,
    "random": lambda: corpus.random_instance(3, q=3, n=4, m=3),
    "union": lambda: corpus.component_union(5, pieces=6),
}


@pytest.mark.parametrize("name, stage", sorted(DUMP_SHA256))
def test_pipeline_dump_golden(tmp_path, name, stage):
    inst_path = tmp_path / "inst.json"
    save_instance(DUMP_INSTANCES[name](), inst_path)
    sol_path, out_path = tmp_path / "sol.json", tmp_path / "out.json"
    if stage == "solve-lp":
        argv = ["solve-lp", "--instance", str(inst_path), "--out", str(out_path)]
    elif stage == "repair":
        assert cli.main(["solve-lp", "--instance", str(inst_path), "--out", str(sol_path)]) == 0
        argv = ["repair", "--instance", str(inst_path), "--solution", str(sol_path),
                "--out", str(out_path)]
    else:
        argv = ["pipeline", "dump", "--instance", str(inst_path), "--stage", stage,
                "--out", str(out_path)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == DUMP_SHA256[name, stage]


# sha256 of the local-oracle CSVs on DUMP_INSTANCES and one Horn instance, as of
# the oracle with two epsilons and two ball-solve paths; the `round` CSVs as of
# counting distinct reveals per trial (only their query_cost column moved)
ORACLE_SHA256 = {
    ("triangle", "assemble"): "5316ea7e1e1798609e8266ab80334e04eec901ba6c670ed012f97790925ba3e2",
    ("triangle", "query"): "466ddbfdc15436100f05b7f72d7d9a80d383be507d9939f3ce9301c2e414a6a5",
    ("triangle", "round"): "b3007d19bbf52b197f641d0b625202a09a2e72eaf9fa5b8c0734bf025ef03d05",
    ("random", "assemble"): "5b3ca1eb6d7c78f0e2d8570e2d927a631a90c083d6a81f00e3a7e33b7828f6ac",
    ("random", "query"): "8f45491e37c3b033149f0d8fea69ed8fce51e63374c1da651c0ee36af3a37a7c",
    ("random", "round"): "aa4b9cb715240d8310465155dcc1a38e6f61436a7f05b15d3a4ac1f654f388c3",
    ("union", "assemble"): "1f6ceb3805817fc9ab7a593449268213b878e96a2b8d4bd92d787af81b31e734",
    ("union", "query"): "72d4cc5f5a2b6aab3ec0f573ad2c512281a49ab3329b78c9ff56230847923b84",
    ("union", "round"): "5ad20680f7aa0c59da87d010f902ef794317e935c99670ae632a8f64f9c4842a",
    ("horn", "assemble"): "f1783d0659cab968e70f8c69f2ebf434138403655b7b68df4fab4fde2366d040",
    ("horn", "query"): "7fafbbe8f5931e6625f44a5a011f9a7dd6691201586ace94d6af8ed318971987",
    ("horn", "round"): "e5ebaaadfbd2fb5fb4ec20045dcfd3f9a423eaa1abeda7f7fa246d537b0110b2",
    ("horn", "test-sat"): "74c115d73fb7b5d06fd1c72129ee2debb2258444a74cc034b98c7ded7f75ad0c",
}
ORACLE_RUNS = {
    "assemble": ["local-lp", "--assemble"],
    "query": ["local-lp", "--query", "x:0:1"],
    "round": ["round", "--epsilon", "0.3", "--trials", "3", "--seed", "7"],
    "test-sat": ["test-sat", "--epsilon", "0.3", "--trials", "2", "--seed", "3"],
}


@pytest.mark.parametrize("name, run", sorted(ORACLE_SHA256))
def test_oracle_outputs_golden(tmp_path, name, run):
    make = {**DUMP_INSTANCES, "horn": lambda: corpus.horn_satisfiable(1, n=6, m=8)}[name]
    inst_path, out_path = tmp_path / "inst.json", tmp_path / "out.csv"
    save_instance(make(), inst_path)
    command, *options = ORACLE_RUNS[run]
    assert cli.main([command, "--instance", str(inst_path), *options,
                     "--csv", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == ORACLE_SHA256[name, run]


# sha256 of the gap outputs on the triangle (N 4, T 2, seed 5 for `gap gen`), as of
# the blow-up generators and transcript process before the one-relabel-step form; the
# two `gap gen` files as of the saved slot layout (`degree_index`, written after the
# constraints; without it they hash as before)
GAP_SHA256 = {
    "gen-opt": "a8de0a057ef2a40a4f23ee6058f3e6068f6150cc2367409c236fda212ede8a75",
    "gen-lp": "23feab8bb887c176a144396fcf9ae5a0ff147313c1284864410971211a70ea43",
    "gen-lp-alpha": "ed64f907ef6b072241c006c1dab43bb3d0da4a1b79aeebe20280f899dc56940a",
    "collide": "d0075cee4e2c618feb47e79b6ff756bdbfd5c8b06c7fe2ccd12ab7671b6e6d6d",
    "verify": "a6c67e366566b1bdf6ae14b20022a2183af24ad6b5c3cc1ca8392afba70e53c6",
}


def test_gap_outputs_golden(tri_path, tmp_path):
    out, alpha = str(tmp_path / "out"), str(tmp_path / "alpha.json")
    gen = ["gap", "gen", "--seed-instance", tri_path, "--N", "4", "--T", "2", "--seed", "5"]
    runs = {
        "gen-opt": gen + ["--mode", "opt", "--out", out],
        "gen-lp": gen + ["--mode", "lp", "--out", out, "--alpha-out", alpha],
        "collide": ["gap", "collide", "--seed-instance", tri_path, "--N", "60",
                    "--tau", "2,4", "--trials", "20", "--seed", "3", "--csv", out],
        "verify": ["gap", "verify", "--seed-instance", tri_path, "--N", "2", "--T", "2",
                   "--trials", "2", "--seed", "3", "--csv", out],
    }
    got = {}
    for name, argv in runs.items():
        assert cli.main(argv) == 0
        got[name] = hashlib.sha256(open(out, "rb").read()).hexdigest()
    got["gen-lp-alpha"] = hashlib.sha256(open(alpha, "rb").read()).hexdigest()
    assert got == GAP_SHA256


def test_gap_verify_passes_budget_to_every_brute_force(tri_path, monkeypatch):
    budgets = []
    real = cli.brute_force_opt

    def spy(instance, budget=None):
        budgets.append(budget)
        return real(instance, budget=budget)

    monkeypatch.setattr(cli, "brute_force_opt", spy)
    argv = ["gap", "verify", "--seed-instance", tri_path, "--N", "2", "--T", "2",
            "--trials", "2", "--budget", "4099"]
    assert cli.main(argv) == 0
    assert budgets == [4099] * 3


def test_budget_exit_code(tmp_path):
    big = corpus.random_instance(1, n=40, m=10, t=4)
    path = tmp_path / "big.json"
    save_instance(big, path)
    out = run_cli("round", "--instance", str(path), "--epsilon", "0.05",
                  "--trials", "1", "--budget", "1024", "--rounds-cap", "1")
    assert out.returncode in (0, 3)  # 3 when the fold or opt budget trips


def test_jobs_flag_is_deterministic(tri_path):
    args = ("round", "--instance", tri_path, "--epsilon", "0.3",
            "--trials", "4", "--seed", "2")
    serial = run_cli(*args, "--jobs", "1")
    parallel = run_cli(*args, "--jobs", "2")
    assert serial.returncode == parallel.returncode == 0
    assert serial.stdout == parallel.stdout
