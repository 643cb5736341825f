import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from vcgen.cli import main
from vcgen.graphs import (
    Instance,
    complete_graph,
    cycle_graph,
    format_graph,
    format_instance,
    petersen_graph,
)
from vcgen.measure import pure_k
from vcgen.rulegen import gensa, table_to_json
from vcgen.subspaces import assertions_for, root_config


@pytest.fixture()
def k4_instance(tmp_path):
    p = tmp_path / "k4.vc"
    p.write_text(format_instance(Instance(complete_graph(4), 3)))
    return p


def gen_tables(tmp_path, *extra):
    out = tmp_path / "tables"
    rc = main([
        "generate", "--measure", "k-mode", "a=1", "--mode", "det",
        "--subspace", "P19", "--subspace", "P7", "--subspace", "P6",
        "--out", str(out), *extra,
    ])
    assert rc == 0
    return out


def test_generate_solve_roundtrip(tmp_path, capsys, k4_instance):
    out = gen_tables(tmp_path)
    assert (out / "P19.json").exists() and (out / "P7.json").exists()
    rc = main(["solve", "--instance", str(k4_instance), "--tables", str(out),
               "--mode", "det", "--show-cover"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "YES" in captured
    # K4 with k=2 answers NO with exit code 1
    low = tmp_path / "k4lo.vc"
    low.write_text(format_instance(Instance(complete_graph(4), 2)))
    rc = main(["solve", "--instance", str(low), "--tables", str(out), "--mode", "det"])
    assert rc == 1
    assert "NO" in capsys.readouterr().out


def test_generate_infeasible_measure_exits_3(tmp_path, capsys):
    rc = main(["generate", "--measure", "k-mode", "a=1", "b2=0.1",
               "--out", str(tmp_path / "t")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: infeasible measure: ") and err.count("\n") == 1, err


def test_generate_weak_measure_fails_with_chain(tmp_path, capsys):
    rc = main([
        "generate", "--measure", "n-mode", "b3=0.001", "--mode", "rand",
        "--subspace", "P19", "--depth", "3", "--out", str(tmp_path / "t"),
    ])
    assert rc == 2
    out = capsys.readouterr().out
    assert "generation aborted" in out and "blocking chain" in out


def test_solve_randomized_with_trace(tmp_path, capsys):
    out = tmp_path / "tables"
    rc = main(["generate", "--measure", "n-mode", "b3=0.25", "--mode", "rand",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    inst = tmp_path / "pet.vc"
    inst.write_text(format_instance(Instance(petersen_graph(), 6)))
    rc = main(["solve", "--instance", str(inst), "--tables", str(out),
               "--mode", "rand", "--seed", "7", "--trace"])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "YES" in captured and "mu =" in captured and "trials =" in captured
    assert "trial 0: P" in captured
    assert captured == (Path(__file__).parent / "golden" / "solve_trace.txt").read_text()


@pytest.mark.parametrize("budget, safety", [("2000", "20"), ("3", "1" + "0" * 400)],
                         ids=["mu", "safety"])
def test_solve_rand_with_a_plan_beyond_a_float_exits_3(tmp_path, capsys, budget, safety):
    # 2^mu * safety trials do not fit in a float: under pure k, mu = k
    out = gen_tables(tmp_path)
    inst = tmp_path / "k4.vc"
    inst.write_text(format_instance(Instance(complete_graph(4), int(budget))))
    capsys.readouterr()
    assert main(["solve", "--instance", str(inst), "--tables", str(out),
                 "--mode", "rand", "--safety", safety]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("safety", ["0", "-5"])
def test_solve_rand_with_a_safety_below_one_exits_3(tmp_path, capsys, k4_instance, safety):
    out = gen_tables(tmp_path)
    capsys.readouterr()
    assert main(["solve", "--instance", str(k4_instance), "--tables", str(out),
                 "--mode", "rand", "--safety", safety]) == 3
    err = capsys.readouterr().err
    assert err == f"error: the safety factor must be at least 1, got {safety}\n", err


def test_solve_refuses_tampered_table(tmp_path, capsys, k4_instance):
    out = gen_tables(tmp_path)
    path = out / "P19.json"
    doc = json.loads(path.read_text())
    for node in doc["nodes"]:
        if node["kind"] == "leaf" and node["leaf"]["kind"] == "rule":
            node["leaf"]["entries"] = node["leaf"]["entries"][:1]
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    rc = main(["solve", "--instance", str(k4_instance), "--tables", str(out),
               "--mode", "det"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not certified" in err and err.count("\n") == 1, err


def test_solve_refuses_two_tables_for_one_subspace(tmp_path, capsys, k4_instance):
    # two files for one subspace leave it open which table runs; one file
    # named twice does not
    for depth in ("12", "13"):
        assert main(["generate", "--measure", "k-mode", "a=1", "--mode", "det", "--subspace",
                     "P3", "--subspace", "P7", "--depth", depth, "--out", str(tmp_path / depth)]) == 0
    capsys.readouterr()
    first, second = tmp_path / "12", tmp_path / "13" / "P3.json"
    assert (first / "P3.json").read_text() != second.read_text()
    solve = ["solve", "--instance", str(k4_instance), "--mode", "det", "--tables"]
    assert main([*solve, str(first), str(second)]) == 3
    err = capsys.readouterr().err
    assert err == f"error: {first / 'P3.json'} and {second} are both tables for P3\n", err
    assert main([*solve, str(first), str(first / "P3.json")]) == 0  # K4 is in P7
    assert capsys.readouterr().out == "YES\n"


def _p19_table_doc() -> dict:
    t = gensa(root_config(19), pure_k(), rule_mode="deterministic",
              assertions=assertions_for(19), subspace_id=19)
    return json.loads(table_to_json(t))


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _with_first(doc: dict, kind: str, edit) -> dict:
    """A copy of doc whose first node of the given kind is edited in place."""
    doc = json.loads(json.dumps(doc))
    edit(next(node for node in doc["nodes"] if node["kind"] == kind))
    return doc


K4 = format_instance(Instance(complete_graph(4), 3))
MALFORMED_INSTANCES = {
    "non-integer edge end": "p vc 3 1\ne 0 x\nk 1\n",
    "budget line without a value": "p vc 3 1\ne 0 1\nk\n",
    "non-integer budget": "p vc 3 1\ne 0 1\nk one\n",
    "non-integer vertex count": "p vc x 3\ne 0 1\nk 1\n",
    "second problem line": "p vc 3 1\np vc 4 1\ne 0 1\nk 1\n",
    "second budget line": "p vc 3 1\ne 0 1\nk 1\nk 2\n",
    "edge line before the problem line": "e 0 1\np vc 3 1\nk 1\n",
    "negative vertex count": "p vc -3 0\nk 1\n",
    "repeated edge": "p vc 3 2\ne 0 1\ne 1 0\nk 1\n",
    "edge count above the edge lines": "p vc 3 5\ne 0 1\ne 1 2\nk 1\n",
    "vertex of degree 4": "p vc 5 4\ne 0 1\ne 0 2\ne 0 3\ne 0 4\nk 1\n",
}
MALFORMED_TABLES = {
    "table without measure": lambda doc: json.dumps(_without(doc, "measure")),
    "measure with a non-rational coefficient": lambda doc: json.dumps(
        {**doc, "measure": {**doc["measure"], "alpha": "one"}}),
    "table without nodes": lambda doc: json.dumps(_without(doc, "nodes")),
    "node without configuration": lambda doc: json.dumps(
        {**doc, "nodes": [_without(doc["nodes"][0], "config")] + doc["nodes"][1:]}),
    "table with nodes not a list": lambda doc: json.dumps({**doc, "nodes": 7}),
    "table that is a list": lambda doc: "[]",
    "truncated table": lambda doc: json.dumps(doc)[:-20],
    "child node index as a string": lambda doc: json.dumps(_with_first(
        doc, "expanded", lambda node: node["children"][-1].update(node="0"))),
    "branch vertex as a string": lambda doc: json.dumps(_with_first(
        doc, "leaf", lambda node: node["leaf"]["entries"][0].update(take=[0, "x"]))),
    "unknown rule mode": lambda doc: json.dumps({**doc, "mode": "bogus"}),
    "child label not a pair": lambda doc: json.dumps(_with_first(
        doc, "expanded", lambda node: node["children"][0].update(label=["new", {"a": 1}]))),
    "branch weight divided by zero": lambda doc: json.dumps(_with_first(
        doc, "leaf", lambda node: node["leaf"]["entries"][0].update(weight="1/0"))),
    "node id out of step with its position": lambda doc: json.dumps(_with_first(
        doc, "leaf", lambda node: node.update(id=node["id"] + 1))),
    "measure beyond a float": lambda doc: json.dumps(
        {**doc, "measure": {**doc["measure"], "alpha": "1e400"}}),
    "lists nested deeper than the recursion limit": lambda doc: "[" * 100_000,
}
UNREADABLE = {
    "a directory": lambda path: path.mkdir(),
    "bytes that are not UTF-8": lambda path: path.write_bytes(K4.encode() + b"c \xff\n"),
}
MALFORMED_ARGUMENTS = {
    "measure field not a number": ["feasibility", "--measure", "n", "b3=abc"],
    "measure field divided by zero": ["feasibility", "--measure", "n", "b3=1/0"],
    "generation measure field not a number": ["generate", "--measure", "n", "b3=abc"],
    "combine field not a number": ["bound", "--combine", "a=x", "b=1", "base_n=2"],
    "combine base of zero": ["bound", "--combine", "a=1", "b=1", "base_n=0"],
    "branch decrease not a number": ["bound", "--vector", "1:x"],
    "branch entry without a decrease": ["bound", "--vector", "1"],
    "combine field beyond a float": ["bound", "--combine", "a=1e400", "b=1", "base_n=2"],
    "combine fields missing": ["bound", "--combine", "a=1"],
    "combine field unknown": ["bound", "--combine", "a=1", "b=2", "base_n=1.1", "bogus=7"],
    "combine field repeated": ["bound", "--combine", "a=1", "b=2", "base_n=1.1", "a=3"],
    "bound with neither option": ["bound"],
}


@pytest.mark.parametrize("case", [
    *[("instance", name, cmd) for name in MALFORMED_INSTANCES
      for cmd in ("solve", "classify", "oracle")],
    *[("table", name, cmd) for name in MALFORMED_TABLES for cmd in ("solve", "verify")],
    *[("arguments", name, None) for name in MALFORMED_ARGUMENTS],
    *[("unreadable instance", name, cmd) for name in UNREADABLE
      for cmd in ("solve", "classify", "oracle")],
    *[("unreadable table", name, cmd) for name in UNREADABLE for cmd in ("solve", "verify")],
])
def test_malformed_input_exits_3_with_one_line(tmp_path, capsys, case):
    kind, name, cmd = case
    inst, table = tmp_path / "in.vc", tmp_path / "P19.json"
    if kind == "instance":
        inst.write_text(MALFORMED_INSTANCES[name])
        table.write_text(json.dumps(_p19_table_doc()))
    elif kind == "table":
        inst.write_text(K4)
        table.write_text(MALFORMED_TABLES[name](_p19_table_doc()))
    elif kind == "unreadable instance":
        UNREADABLE[name](inst)
        table.write_text(json.dumps(_p19_table_doc()))
    elif kind == "unreadable table":
        inst.write_text(K4)
        UNREADABLE[name](table)
    # solve reads the tables of a directory, so that it also meets a
    # directory named P19.json as a table
    tables = tmp_path if kind == "unreadable table" else table
    argv = MALFORMED_ARGUMENTS[name] if kind == "arguments" else {
        "solve": ["solve", "--instance", str(inst), "--tables", str(tables), "--mode", "det"],
        "classify": ["classify", "--instance", str(inst)],
        "oracle": ["oracle", "--instance", str(inst)],
        "verify": ["verify", "--table", str(table)],
    }[cmd]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_solve_without_tables_exits_3_with_one_line(tmp_path, capsys, k4_instance):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["solve", "--instance", str(k4_instance), "--tables", str(empty)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: no tables found\n", captured.err
    assert captured.out == ""


def test_generate_into_a_file_exits_3_with_one_line(tmp_path, capsys):
    out = tmp_path / "tables"
    out.write_text("not a directory\n")
    assert main(["generate", "--measure", "k-mode", "a=1", "--mode", "det",
                 "--subspace", "P19", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert out.read_text() == "not a directory\n"


def test_generate_with_a_malformed_subspace_name_exits_3(tmp_path, capsys):
    # a subspace is named by an optional single P or p and ASCII digits
    assert main(["generate", "--measure", "k-mode", "a=1", "--mode", "det",
                 "--subspace", "PP3", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not list(tmp_path.iterdir())


def run_cli(*argv: str, timeout: float = 60) -> "subprocess.CompletedProcess":
    """vcgen as a child process with the same package as this one; a hang
    fails the test at the timeout instead of stalling the suite."""
    import subprocess
    import sys

    import vcgen

    package_root = str(Path(vcgen.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "vcgen.cli", *argv],
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
        capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("vector", [
    "1:1e-300,1:1e-300",  # every decrease rounds x^-d to 1: no finite root
    "1e400:1",  # a weight beyond a float
    "1e300:1e-300,1e300:1e-300",
])
def test_bound_without_a_finite_branching_number_exits_3(vector):
    proc = run_cli("bound", "--vector", vector, timeout=20)
    assert proc.returncode == 3, proc
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_bound_with_a_huge_branching_number_returns():
    # bisection stops at adjacent floats instead of chasing a 1e-9 width
    proc = run_cli("bound", "--vector", "1e100:1", timeout=20)
    assert proc.returncode == 0, proc
    assert float(proc.stdout.split("=")[1]) == pytest.approx(1e100)


def test_generate_with_another_delta_is_an_input_error(tmp_path, capsys):
    # the degree bound is fixed at 3, so --delta is an unknown option
    assert main(["generate", "--measure", "n", "b3=0.2", "--delta", "0",
                 "--subspace", "P19", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--delta" in err and err.count("\n") == 1, err
    assert not (tmp_path / "P19.json").exists()


def test_generate_with_a_rule_failing_its_check_is_a_generation_failure(
        tmp_path, capsys, monkeypatch):
    # costs rounded below 2^e make gensa raise ContractError on its leaf
    # check; that is a generation failure (exit 2), not an input error
    import vcgen.rulegen

    monkeypatch.setattr(vcgen.rulegen, "cost_value",
                        lambda e: Fraction(2.0 ** float(e)) * (1 - Fraction(1, 2**30)))
    assert main(["generate", "--measure", "k-mode", "a=1", "--mode", "det",
                 "--subspace", "P19", "--out", str(tmp_path)]) == 2
    assert "P19: FAILED" in capsys.readouterr().out
    assert not (tmp_path / "P19.json").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--measure", "n", "b3=0.2", "--depth", "x"],  # malformed int
    ["solve", "--instance", "g.vc", "--tables", "t", "--seed", "x"],
    ["oracle", "--instance", "g.vc", "--bogus"],  # unknown option
    ["verify"],  # missing required option
    ["frobnicate"],  # unknown command
    [],  # no command
])
def test_usage_errors_exit_3_on_one_line(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--help"])
    assert exc.value.code == 0
    assert "--measure" in capsys.readouterr().out


def test_generate_with_a_nan_wall_budget_is_an_input_error(tmp_path, capsys):
    # a NaN budget would never run out: generation would run unbounded
    assert main(["generate", "--measure", "n", "b3=0.125", "--depth", "20",
                 "--subspace", "P11", "--seconds", "nan", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "NaN" in err and err.count("\n") == 1, err
    assert not (tmp_path / "P11.json").exists()


@pytest.mark.parametrize("limit", [["--depth", "-1"], ["--nodes", "0"], ["--nodes", "-5"],
                                   ["--seconds", "-1"]])
def test_generate_with_a_malformed_limit_is_an_input_error(tmp_path, capsys, limit):
    assert main(["generate", "--measure", "k-mode", "a=1", "--mode", "det",
                 "--subspace", "P19", *limit, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("limit", [["--depth", "0"], ["--nodes", "1"], ["--seconds", "0"],
                                   ["--seconds", "inf"]])
def test_generate_with_the_smallest_limits_runs(tmp_path, capsys, limit):
    # a budget the search may exhaust ends in a generation failure (exit 2)
    assert main(["generate", "--measure", "k-mode", "a=1", "--mode", "det",
                 "--subspace", "P19", *limit, "--out", str(tmp_path)]) in (0, 2)
    assert capsys.readouterr().err == ""


def test_verify_command(tmp_path, capsys, k4_instance):
    out = gen_tables(tmp_path)
    rc = main(["verify", "--table", str(out / "P19.json")])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in captured and "objective" in captured
    # tamper and expect FAIL with the leaf named
    path = out / "P19.json"
    doc = json.loads(path.read_text())
    for node in doc["nodes"]:
        if node["kind"] == "leaf" and node["leaf"]["kind"] == "rule":
            node["leaf"]["entries"] = node["leaf"]["entries"][:1]
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    rc = main(["verify", "--table", str(path)])
    captured = capsys.readouterr().out
    assert rc == 2
    assert "FAIL" in captured


def test_verify_fails_a_table_relabelled_to_another_subspace(tmp_path, capsys):
    t = gensa(root_config(1), pure_k(), rule_mode="deterministic",
              assertions=assertions_for(1), subspace_id=1)
    path = tmp_path / "P1.json"
    for sid, rc in ((1, 0), (19, 2)):
        path.write_text(table_to_json(dataclasses.replace(t, subspace_id=sid)))
        assert main(["verify", "--table", str(path)]) == rc
    out = capsys.readouterr().out
    assert "(P19): FAIL" in out and "root configuration is not the root of P19" in out
    # solve refuses to load it
    instance = tmp_path / "k4.vc"
    instance.write_text(K4)
    assert main(["solve", "--instance", str(instance), "--tables", str(path)]) == 3
    err = capsys.readouterr().err
    assert "root configuration is not the root of P19" in err and err.count("\n") == 1, err


def test_classify_and_oracle_commands(tmp_path, capsys):
    # an instance file's budget line changes nothing
    for fmt in (format_graph, lambda g: format_instance(Instance(g, 2))):
        c8 = tmp_path / "c8.vc"
        c8.write_text(fmt(cycle_graph(8)))
        assert main(["classify", "--instance", str(c8)]) == 0
        assert capsys.readouterr().out.strip() == "P6"
        c5 = tmp_path / "c5.vc"
        c5.write_text(fmt(cycle_graph(5)))
        assert main(["oracle", "--instance", str(c5)]) == 0
        assert capsys.readouterr().out.strip() == "3"


def test_bound_command(capsys):
    assert main(["bound", "--combine", "a=0.59303", "b=0.03958", "base_n=1.13735"]) == 0
    out = capsys.readouterr().out
    base = float(out.splitlines()[1].split("=")[-1])
    assert abs(base - 1.21103) < 1.5e-4
    assert main(["bound", "--vector", "1:1,1:3"]) == 0
    out = capsys.readouterr().out
    assert abs(float(out.split("=")[-1]) - 1.46558) < 1e-4
    assert main(["bound", "--combine", "a=1", "b=0", "base_n=1"]) == 0
    out = capsys.readouterr().out
    assert "base = e^d = 1.000000" in out


def test_feasibility_command(capsys):
    assert main(["feasibility", "--measure", "n-mode", "b3=0.106"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["feasibility", "--measure", "k-mode", "a=1"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_generation_byte_identical_across_processes(tmp_path):
    # hash randomization must not leak into serialized tables
    import subprocess
    import sys
    from pathlib import Path

    import vcgen

    # the minimal environment is deliberate; the children only need to import
    # the same vcgen package as this process, from a src/ checkout or an install
    package_root = str(Path(vcgen.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "424242"):
        out_dir = tmp_path / f"t{seed}"
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root}
        proc = subprocess.run(
            [sys.executable, "-m", "vcgen.cli", "generate", "--measure", "n-mode",
             "b3=0.2", "--mode", "rand", "--subspace", "P2", "--subspace", "P19",
             "--out", str(out_dir)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, f"exit {proc.returncode}:\n{proc.stderr}"
        outs.append((out_dir / "P2.json").read_bytes() + (out_dir / "P19.json").read_bytes())
    assert outs[0] == outs[1]


def test_deterministic_cli_output(tmp_path, capsys, k4_instance):
    out = gen_tables(tmp_path)
    capsys.readouterr()  # drop the generation log
    main(["solve", "--instance", str(k4_instance), "--tables", str(out), "--mode", "det"])
    first = capsys.readouterr().out
    main(["solve", "--instance", str(k4_instance), "--tables", str(out), "--mode", "det"])
    assert capsys.readouterr().out == first
