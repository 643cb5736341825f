import dataclasses
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest

import vcgen.rulegen as rulegen
from corpus import MU_N20, lp_ilp_pairs, random_subcubic, relabel
from vcgen.configs import LocalConfiguration, format_config, instance_as_config
from vcgen.cli import main
from vcgen.errors import ContractError, InputDomainError
from vcgen.graphs import Graph, Instance, complete_graph, format_instance, path_graph
from vcgen.lp import solve_cover_ilp, solve_cover_lp
from vcgen.measure import Measure, pure_k
from vcgen.rulegen import (
    GenLimits,
    gensa,
    table_from_json,
    table_to_json,
    verify_table,
)
from vcgen.simplify import simplify_fixpoint
from vcgen.subspaces import assertions_for, classify, root_config
from vcgen.tree import ExpansionTree, Leaf, RuleEntry, TreeNode, find_anchor, match_instance


def p19_pure_k(**kw):
    return gensa(
        root_config(19),
        pure_k(),
        rule_mode="deterministic",
        assertions=assertions_for(19),
        subspace_id=19,
        **kw,
    )


def assert_embeds(config, inst, phi):
    """phi embeds config in the instance: injective, every edge kept, every
    true degree the instance degree.  For the leaf a walk returns, this
    covers every node on the walk: expansion keeps edges and true degrees,
    and aliases are isomorphisms."""
    g = inst.graph
    assert set(phi) == set(config.h.vertices)
    assert len(set(phi.values())) == len(phi)
    assert all(g.has_edge(phi[u], phi[v]) for u, v in config.h.edges())
    assert all(g.degree(phi[v]) == config.true_degree(v) for v in config.h.vertices)


def test_solve_lp_edge_example():
    # crucial {{u},{v}} with costs 1/2 each and disjoint satisfier sets:
    # branch i satisfies requirement i alone
    costs = [Fraction(1, 2), Fraction(1, 2)]
    out = solve_cover_lp(costs, [0b01, 0b10], 2)
    assert out is not None
    assert out.weights == (1, 1) and out.objective == 1


def test_solve_lp_infeasible_signals_none():
    # the only branch satisfies nothing, the one requirement stays uncovered
    assert solve_cover_lp([Fraction(1, 2)], [0], 1) is None


def test_solve_ilp_matches_lp_when_integral():
    out_lp = solve_cover_lp([Fraction(1, 4)], [0b1], 1)
    out_ilp = solve_cover_ilp([Fraction(1, 4)], [0b1], 1, out_lp)
    assert out_lp == out_ilp
    assert out_ilp.objective == Fraction(1, 4)


def test_gensa_p19_pure_k_structure():
    t = p19_pure_k()
    assert t.complete
    assert len(t.tree.nodes) == 3
    root = t.tree.node(t.tree.root)
    assert root.kind == "expanded" and root.selected == 0
    # the two shallow levels reject at exactly 1 + rounding margin, the
    # third attaches the classic "v or two neighbors" rule
    leaf = t.tree.node(0)
    assert leaf.kind == "leaf" and leaf.leaf.kind == "rule"
    takes = sorted(sorted(e.take) for e in leaf.leaf.entries)
    assert takes == [[0], [1, 2]]
    assert all(e.weight == 1 for e in leaf.leaf.entries)
    # degree-1 and degree-2 fresh endpoints are pruned by earlier subspaces
    for node in t.tree.nodes:
        if node.kind == "expanded":
            by_label = {ref.label: ref for ref in node.children}
            assert by_label[("new", 1)].node is None
            assert by_label[("new", 1)].pruned_by == 1
            assert by_label[("new", 2)].node is None
            assert by_label[("new", 2)].pruned_by == 6


def test_gensa_rejects_inadmissible_measure():
    with pytest.raises(InputDomainError):
        gensa(root_config(19), Measure(1, 0, Fraction("0.1"), 0, "k"))


def test_gensa_constant_leaf_for_boundaryless_root():
    t = gensa(instance_as_config(complete_graph(4)), pure_k(), rule_mode="deterministic")
    assert len(t.tree.nodes) == 1
    assert t.tree.node(0).leaf.kind == "constant"
    assert verify_table(t).ok


def test_gensa_simplification_leaf_at_root():
    t = gensa(root_config(1), pure_k(), rule_mode="deterministic", subspace_id=1)
    assert t.tree.node(t.tree.root).leaf.kind == "simplification"
    assert t.tree.node(t.tree.root).leaf.rule_id == 2
    assert verify_table(t).ok


def test_gensa_failure_report_on_tight_limits():
    t = gensa(
        root_config(19),
        Measure(0, 0, 0, Fraction("0.001"), "n"),
        rule_mode="randomized",
        assertions=assertions_for(19),
        subspace_id=19,
        limits=GenLimits(max_depth=3, max_nodes=1000),
    )
    assert not t.complete
    assert t.failure.reason == "depth limit exceeded"
    assert len(t.failure.chain) >= 2
    cert = verify_table(t)
    assert not cert.ok


@pytest.mark.parametrize("sid, reason", [
    (17, "boundary of size 13 exceeds cap 12"),
    (18, "oracle limited to 24 vertices, got 25"),
])
def test_gensa_names_the_cap_that_stops_it(sid, reason):
    # at beta3 = 0.12 P17 meets a boundary of 13 and P18 a configuration of
    # 25 vertices (boundary 12): each report names the cap it hit
    t = gensa(root_config(sid), Measure(0, 0, 0, Fraction("0.12"), "n"), assertions=assertions_for(sid),
              limits=GenLimits(max_depth=20), subspace_id=sid)
    assert t.failure.reason == reason


def test_failure_report_prints_one_line_per_configuration():
    t = gensa(root_config(17), Measure(0, 0, 0, Fraction("0.12"), "n"), assertions=assertions_for(17),
              limits=GenLimits(max_depth=20), subspace_id=17)
    chain = t.failure.chain
    lines = t.failure.describe().splitlines()
    assert len(chain) == 19 and len(lines) == 1 + len(chain)
    assert lines[0] == "generation aborted: boundary of size 13 exceeds cap 12; blocking chain:"
    assert [line.split("; ") for line in lines[1:]] == [text.splitlines() for text in chain]
    assert all(text.count("\n") > 1 for text in chain)  # the JSON keeps the text forms


def test_gensa_reports_a_root_beyond_the_seed_cap():
    root = LocalConfiguration(path_graph(17), {0: 1, 16: 1})
    t = gensa(root, MU_N20)
    assert not t.complete and t.tree.root == -1
    assert t.failure.reason == "seeding capped at 16 vertices"
    assert t.failure.chain == (format_config(root),)
    assert table_from_json(table_to_json(t)).failure == t.failure


@pytest.mark.parametrize("config, reason", [
    (LocalConfiguration(path_graph(13), dict.fromkeys(range(13), 1)), "boundary of size 13 exceeds cap 12"),
    (LocalConfiguration(path_graph(25), {0: 1, 24: 1}), "oracle limited to 24 vertices, got 25"),
], ids=["boundary", "oracle"])
def test_verify_names_the_cap_a_rule_leaf_exceeds(config, reason):
    t = p19_pure_k()
    assert t.tree.node(0).leaf.kind == "rule"
    t.tree.nodes[0] = dataclasses.replace(t.tree.node(0), config=config)
    assert f"node 0: {reason}" in verify_table(t).failures


def test_gensa_deterministic_output():
    a = table_to_json(p19_pure_k())
    b = table_to_json(p19_pure_k())
    assert a == b


@pytest.mark.parametrize("sid", range(1, 20), ids=lambda sid: f"P{sid}")
@pytest.mark.parametrize("engine", ["det_engine", "rand_engine"], ids=["deterministic", "randomized"])
def test_table_roundtrip_byte_identical(request, engine, sid):
    # every table of both reference generations loads through the reader,
    # which accepts only the text the writer emits, and writes back unchanged
    text = table_to_json(request.getfixturevalue(engine).tables[sid])
    assert table_to_json(table_from_json(text)) == text


def test_failure_table_roundtrip_and_rejection():
    t = gensa(
        root_config(19),
        Measure(0, 0, 0, Fraction("0.001"), "n"),
        rule_mode="randomized",
        assertions=assertions_for(19),
        subspace_id=19,
        limits=GenLimits(max_depth=2),
    )
    assert not t.complete
    text = table_to_json(t)
    back = table_from_json(text)
    assert table_to_json(back) == text
    assert back.failure.reason == t.failure.reason
    assert back.failure.chain == t.failure.chain
    cert = verify_table(back)
    assert not cert.ok
    assert cert.failures == (f"table carries a failure report ({t.failure.reason})",)


def test_from_json_rejects_other_formats():
    text = table_to_json(p1_pure_k())
    for ours, theirs in (('"format":"vcgen-rule-table"', '"format":"something-else"'),
                         ('"version":1}', '"version":99}')):
        assert ours in text
        with pytest.raises(InputDomainError, match="not a canonical table file"):
            table_from_json(text.replace(ours, theirs))


def test_audit_lp_never_exceeds_ilp():
    with lp_ilp_pairs() as pairs:
        for sid in (6, 7, 19):
            gensa(
                root_config(sid),
                pure_k(),
                rule_mode="deterministic",
                assertions=assertions_for(sid),
                subspace_id=sid,
            )
    assert pairs
    for lp, ilp in pairs:
        if lp is not None and ilp is not None:
            assert lp <= ilp


def test_limits_reject_a_nan_wall_budget():
    # elapsed > nan is never true: the budget would never run out
    with pytest.raises(InputDomainError):
        GenLimits(max_seconds=float("nan"))
    # an infinite one is no wall budget, which a table file writes as null
    assert GenLimits(max_seconds=float("inf")).max_seconds is None


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_generate_without_a_wall_budget_writes_strict_json(tmp_path, capsys):
    # --seconds inf once wrote "max_seconds":Infinity, which strict JSON
    # readers refuse; it is the file that no --seconds writes
    for seconds, out in ((["--seconds", "inf"], tmp_path / "inf"), ([], tmp_path / "none")):
        assert main(["generate", "--measure", "k-mode", "a=1", "--mode", "det",
                     "--subspace", "P19", *seconds, "--out", str(out)]) == 0
    text = (tmp_path / "inf" / "P19.json").read_text()
    assert json.loads(text, parse_constant=_refuse_constant)["meta"]["limits"]["max_seconds"] is None
    assert text == (tmp_path / "none" / "P19.json").read_text()


@pytest.mark.parametrize("limits", [{"max_depth": -1}, {"max_nodes": 0}, {"max_nodes": -5},
                                    {"max_seconds": -1.0}])
def test_limits_reject_budgets_no_generation_can_meet(limits):
    with pytest.raises(InputDomainError):
        GenLimits(**limits)

def test_gensa_checks_each_rule_as_the_verifier_does(monkeypatch):
    # costs rounded below 2^e by 2^-30 pass the LP, but a rule built on them
    # fails the exact power check, so generation stops rather than return a
    # table that only fails at verification
    monkeypatch.setattr(rulegen, "cost_value",
                        lambda e: Fraction(2.0 ** float(e)) * (1 - Fraction(1, 2**30)))
    with pytest.raises(ContractError, match="below 2"):
        p19_pure_k()


def test_verify_detects_lowered_weight():
    # deterministic tables reject fractional weights outright
    t = p19_pure_k()
    leaf = t.tree.node(0)
    tampered_entries = tuple(
        RuleEntry(e.take, e.weight - Fraction(1, 2)) for e in leaf.leaf.entries
    )
    t.tree.nodes[0] = TreeNode(0, leaf.config, "leaf",
                               leaf=Leaf("rule", entries=tampered_entries))
    cert = verify_table(t)
    assert not cert.ok
    assert any("fractional weight" in f for f in cert.failures)


def test_verify_detects_coverage_gap():
    # dropping one entry leaves a crucial requirement uncovered
    t = p19_pure_k()
    leaf = t.tree.node(0)
    t.tree.nodes[0] = TreeNode(0, leaf.config, "leaf",
                               leaf=Leaf("rule", entries=leaf.leaf.entries[:1]))
    cert = verify_table(t)
    assert not cert.ok
    assert any("covered with weight" in f for f in cert.failures)


def test_verify_detects_missing_child():
    t = p19_pure_k()
    for i, node in enumerate(t.tree.nodes):
        if node.kind == "expanded":
            t.tree.nodes[i] = TreeNode(
                node.node_id, node.config, "expanded",
                selected=node.selected, children=node.children[:-1],
            )
            break
    cert = verify_table(t)
    assert not cert.ok
    assert any("expansion cover" in f for f in cert.failures)


def _with_child(t, node_id, pos, **changes):
    node = t.tree.nodes[node_id]
    children = list(node.children)
    children[pos] = dataclasses.replace(children[pos], **changes)
    t.tree.nodes[node_id] = dataclasses.replace(node, children=tuple(children))


def test_verify_reports_out_of_range_child():
    # nodes 1 and 2 of the P19 table each expand into one kept child (the
    # last) and two pruned ones
    t = p19_pure_k()
    _with_child(t, 1, 2, node=999)
    _with_child(t, 2, 2, node=-1)
    cert = verify_table(t)
    assert not cert.ok
    assert "node 1: child ('new', 3) refers to missing node 999" in cert.failures
    assert "node 2: child ('new', 3) refers to missing node -1" in cert.failures


@pytest.mark.parametrize("pruned_by", [None, 6, 19])
def test_verify_requires_the_smallest_forbidden_subspace(pruned_by):
    # the first child of node 1 gets a vertex of true degree 1: P1's structure
    t = p19_pure_k()
    assert t.tree.nodes[1].children[0].pruned_by == 1
    _with_child(t, 1, 0, pruned_by=pruned_by)
    cert = verify_table(t)
    assert cert.failures == ("node 1: child ('new', 1) pruned without justification",)


def p1_pure_k():
    return gensa(root_config(1), pure_k(), rule_mode="deterministic",
                 assertions=assertions_for(1), subspace_id=1)


def test_verify_ties_the_root_to_its_subspace():
    # P1's table is certified for P1; relabelled as P19 its root is not P19's
    t = p1_pure_k()
    assert verify_table(t).ok
    t.subspace_id = 19
    assert verify_table(t).failures == ("root configuration is not the root of P19",)


def test_verify_fails_a_relabelled_root():
    # a table runs only from root_config(sid) itself: P1's one-node table
    # with its root vertex renamed is isomorphic to P1's root, yet fails
    t = p1_pure_k()
    root = t.tree.nodes[t.tree.root]
    t.tree.nodes[t.tree.root] = dataclasses.replace(
        root, config=relabel(root.config, {0: 7}))
    assert "root configuration is not the root of P1" in verify_table(t).failures


# the table `generate --delta 0` once wrote for P19: with no fresh vertex of
# any true degree, the root expanded into no children at all
DELTA0_P19 = (
    '{"delta":0,"failure":null,"format":"vcgen-rule-table","measure":{"alpha":"0",'
    '"b1":"0","b2":"0","b3":"1/5","mode":"n"},"meta":{"aliases":0,"limits":{"max_depth":12,'
    '"max_nodes":200000,"max_seconds":null},"lp_calls":1,"nodes":1,"pruned_children":0,'
    '"rule_leaves":0},"mode":"randomized","nodes":[{"children":[],"config":{"d":{"0":3},'
    '"delta":3,"edges":[],"vertices":[0]},"id":0,"kind":"expanded","selected":0}],'
    '"root":0,"subspace":19,"version":1}'
)


def _canonical(doc) -> str:
    """doc written as vcgen writes table files."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def assert_commands_refuse(tmp_path, capsys, text: str) -> str:
    """The library and both commands that read tables refuse text as a
    table file, the commands with exit 3 and one line; that line."""
    with pytest.raises(InputDomainError):
        table_from_json(text)
    path = tmp_path / "table.json"
    path.write_text(text)
    instance = tmp_path / "k4.vc"
    instance.write_text(format_instance(Instance(complete_graph(4), 3)))
    errors = set()
    for argv in (["verify", "--table", str(path)],
                 ["solve", "--instance", str(instance), "--tables", str(path)]):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
        errors.add(err)
    (err,) = errors
    return err


def test_reader_accepts_only_delta_3(tmp_path, capsys):
    # the degree bound is fixed: a table or configuration "delta" of
    # anything but the integer 3 is an input error, for the library and
    # for verify and solve
    doc = json.loads(DELTA0_P19)
    doc["delta"] = 3
    assert table_from_json(_canonical(doc)).tree.nodes[0].config == root_config(19)
    for bad in (0, 300, "3", 3.0, True):
        for where in ("table", "config"):
            doc = json.loads(DELTA0_P19)
            doc["delta"] = 3
            (doc["nodes"][0]["config"] if where == "config" else doc)["delta"] = bad
            assert_commands_refuse(tmp_path, capsys, _canonical(doc))


def _p3_doc_with(edit) -> str:
    """The beta3 = 1/5 P3 table's file text, with one node edited in place."""
    doc = json.loads(table_to_json(
        gensa(root_config(3), MU_N20, assertions=assertions_for(3), subspace_id=3)))
    edit(doc["nodes"])
    return _canonical(doc)


def _first_leaf(nodes, kind):
    return next(n["leaf"] for n in nodes if n["kind"] == "leaf" and n["leaf"]["kind"] == kind)


# each of these once read as a table that certifies: an unknown leaf kind as
# a constant leaf, and values equal to the right integer (true == 1,
# 3.0 == 3, 0.0 == 0) as that integer
MALFORMED_NODES = {
    "unknown leaf kind": lambda nodes: _first_leaf(nodes, "constant").update(kind="bogus"),
    "selected vertex true": lambda nodes: nodes[-1].update(selected=True),
    "simplification rule 3.0": lambda nodes: _first_leaf(nodes, "simplification").update(rule=3.0),
    "pruned_by true": lambda nodes: nodes[-1]["children"][1].update(pruned_by=True),
    "configuration vertex 0.0": lambda nodes: nodes[-1]["config"]["vertices"].__setitem__(0, 0.0),
    "edge end true": lambda nodes: nodes[-1]["config"]["edges"][0].__setitem__(1, True),
}


@pytest.mark.parametrize("name", MALFORMED_NODES)
def test_reader_rejects_malformed_nodes(tmp_path, capsys, name):
    assert verify_table(table_from_json(_p3_doc_with(lambda nodes: None))).ok
    assert_commands_refuse(tmp_path, capsys, _p3_doc_with(MALFORMED_NODES[name]))


# json reads Infinity as a float, which Fraction() and int() refuse with an
# OverflowError
INFINITE_FIELDS = {
    "b3": lambda doc: doc["measure"].update(b3=math.inf),
    "weight": lambda doc: _first_leaf(doc["nodes"], "rule")["entries"][0].update(weight=math.inf),
    "root": lambda doc: doc.update(root=math.inf),
}


@pytest.mark.parametrize("where", INFINITE_FIELDS)
def test_reader_rejects_infinity(tmp_path, capsys, where):
    doc = json.loads(_p3_doc_with(lambda nodes: None))
    INFINITE_FIELDS[where](doc)
    text = _canonical(doc)
    assert "Infinity" in text
    assert "OverflowError" in assert_commands_refuse(tmp_path, capsys, text)


def _prefix_first_key(obj: dict, prefix: str) -> None:
    key = next(iter(obj))
    obj[prefix + key] = obj.pop(key)


def _first_d(nodes) -> dict:
    return next(n["config"]["d"] for n in nodes if n["config"]["d"])


def _first_iso(nodes) -> dict:
    return next(n["alias"]["iso"] for n in nodes if n["kind"] == "alias")


def _first_child_with_node(nodes) -> dict:
    return next(c for n in nodes if n["kind"] == "expanded" for c in n["children"]
                if c["node"] is not None)


# each of these reads as a table that certifies, but is not the file that
# vcgen writes for that table
NONCANONICAL_FILES = {
    "extra key": lambda: _p3_doc_with(lambda nodes: nodes[-1].update(bogus=1)),
    "d key written +1": lambda: _p3_doc_with(
        lambda nodes: _prefix_first_key(_first_d(nodes), "+")),
    "iso key with a space": lambda: _p3_doc_with(
        lambda nodes: _prefix_first_key(_first_iso(nodes), " ")),
    "pruned_by next to a node": lambda: _p3_doc_with(
        lambda nodes: _first_child_with_node(nodes).update(pruned_by=1)),
    "pretty-printed": lambda: json.dumps(json.loads(_p3_doc_with(lambda nodes: None)),
                                         indent=2, sort_keys=True),
    "CRLF line end": lambda: _p3_doc_with(lambda nodes: None).replace("\n", "\r\n"),
}


@pytest.mark.parametrize("name", NONCANONICAL_FILES)
def test_commands_read_only_canonical_table_files(tmp_path, capsys, name):
    # the library and both commands refuse the file, and the one error line
    # quotes the file where it first differs from the canonical text
    text, canonical = NONCANONICAL_FILES[name](), _p3_doc_with(lambda nodes: None)
    err = assert_commands_refuse(tmp_path, capsys, text)
    assert "not a canonical table file" in err
    at = int(re.search(r"at character (\d+)", err).group(1))
    assert text[:at] == canonical[:at] and text[at] != canonical[at]
    assert repr(text[max(0, at - 24):at + 24]) in err


def _p3_meta_with(edit) -> str:
    """The beta3 = 1/5 P3 table's file text, with its meta edited in place."""
    doc = json.loads(_p3_doc_with(lambda nodes: None))
    edit(doc["meta"])
    return _canonical(doc)


def _p19_aborted_with(edit) -> str:
    """A P19 table that ran out of depth, with its file edited in place."""
    doc = json.loads(table_to_json(gensa(
        root_config(19), Measure(0, 0, 0, Fraction("0.001"), "n"), assertions=assertions_for(19),
        subspace_id=19, limits=GenLimits(max_depth=2))))
    edit(doc)
    return _canonical(doc)


# each of these once read as a table that certifies (or, for the failure
# edits, that reports its failure): the reader took meta and the failure
# report as they were and wrote them back verbatim
MALFORMED_META = {
    "renamed key": lambda: _p3_meta_with(lambda meta: meta.update({"+aliases": meta.pop("aliases")})),
    "missing key": lambda: _p3_meta_with(lambda meta: meta.pop("rule_leaves")),
    "extra key": lambda: _p3_meta_with(lambda meta: meta.update(seconds=1.5)),
    "count written as a string": lambda: _p3_meta_with(lambda meta: meta.update(nodes="30")),
    "count written as a float": lambda: _p3_meta_with(lambda meta: meta.update(nodes=30.5)),
    "count negative": lambda: _p3_meta_with(lambda meta: meta.update(aliases=-3)),
    "limits without max_seconds": lambda: _p3_meta_with(lambda meta: meta["limits"].pop("max_seconds")),
    "limits with an extra key": lambda: _p3_meta_with(lambda meta: meta["limits"].update(max_width=3)),
    "limits as a list": lambda: _p3_meta_with(lambda meta: meta.update(limits=[12, 200000, None])),
    "max_depth true": lambda: _p3_meta_with(lambda meta: meta["limits"].update(max_depth=True)),
    "max_nodes a float": lambda: _p3_meta_with(lambda meta: meta["limits"].update(max_nodes=2.5)),
    "max_seconds a string": lambda: _p3_meta_with(lambda meta: meta["limits"].update(max_seconds="5")),
    "max_seconds true": lambda: _p3_meta_with(lambda meta: meta["limits"].update(max_seconds=True)),
    "max_seconds Infinity": lambda: _p3_meta_with(lambda meta: meta["limits"].update(max_seconds=math.inf)),
    "max_depth negative": lambda: _p3_meta_with(lambda meta: meta["limits"].update(max_depth=-1)),
    "max_nodes zero": lambda: _p3_meta_with(lambda meta: meta["limits"].update(max_nodes=0)),
    **{f"{key} changed": (lambda key=key: _p3_meta_with(lambda meta: meta.update({key: meta[key] + 1})))
       for key in ("nodes", "lp_calls", "rule_leaves", "aliases", "pruned_children")},
    "aborted table's count as a string": lambda: _p19_aborted_with(
        lambda doc: doc["meta"].update(lp_calls=str(doc["meta"]["lp_calls"]))),
    "failure reason an integer": lambda: _p19_aborted_with(lambda doc: doc["failure"].update(reason=3)),
    "failure chain holding a list": lambda: _p19_aborted_with(lambda doc: doc["failure"]["chain"].append(["x"])),
    "failure chain with a number": lambda: _p19_aborted_with(lambda doc: doc["failure"]["chain"].append(7)),
}


@pytest.mark.parametrize("name", MALFORMED_META)
def test_reader_takes_meta_only_as_generation_writes_it(tmp_path, capsys, name):
    for seconds in (None, 30, 30.5):  # as gensa writes a table made under each limit
        assert verify_table(table_from_json(
            _p3_meta_with(lambda meta: meta["limits"].update(max_seconds=seconds)))).ok
    assert table_from_json(_p19_aborted_with(lambda doc: None)).failure.reason == "depth limit exceeded"
    assert_commands_refuse(tmp_path, capsys, MALFORMED_META[name]())


def test_reader_refuses_a_tree_deeper_than_its_max_depth(tmp_path, capsys):
    # gensa never emits a node below max_depth, so a complete table whose
    # tree is deeper is not one that gensa wrote
    doc = json.loads(table_to_json(p19_pure_k()))
    doc["meta"]["limits"]["max_depth"] = 2
    assert verify_table(table_from_json(_canonical(doc))).ok
    doc["meta"]["limits"]["max_depth"] = 1
    err = assert_commands_refuse(tmp_path, capsys, _canonical(doc))
    assert "2 deep, beyond its max_depth of 1" in err


def test_a_tree_edit_fails_as_a_file_or_as_a_certificate(tmp_path, capsys):
    # node 1 of the P19 table keeps its last child; marked pruned instead,
    # the tree no longer has the pruned_children count its meta states, so
    # the file is not what vcgen writes (exit 3, quoting the count) ...
    doc = json.loads(table_to_json(p19_pure_k()))
    doc["nodes"][1]["children"][2].update(node=None, pruned_by=None)
    assert "pruned_children" in assert_commands_refuse(tmp_path, capsys, _canonical(doc))
    # ... and with the count restated it reads, and verify names the defect
    doc["meta"]["pruned_children"] += 1
    path = tmp_path / "P19.json"
    path.write_text(_canonical(doc))
    assert main(["verify", "--table", str(path)]) == 2
    assert "node 1: child ('new', 3) pruned without justification" in capsys.readouterr().out


def test_verify_detects_objective_violation():
    # duplicating the heavy entry pushes the objective above 1
    t = p19_pure_k()
    leaf = t.tree.node(0)
    entries = leaf.leaf.entries + (leaf.leaf.entries[0],)
    t.tree.nodes[0] = TreeNode(0, leaf.config, "leaf", leaf=Leaf("rule", entries=entries))
    cert = verify_table(t)
    assert not cert.ok
    assert any("objective" in f for f in cert.failures)


def test_verify_rejects_a_cost_below_its_power_of_two(monkeypatch):
    # every accepted cost must be at least 2^e, checked in integers, so a
    # cost_value that rounds down fails the certificate though the
    # objective only shrinks
    t = gensa(root_config(19), MU_N20, assertions=assertions_for(19), subspace_id=19)
    assert verify_table(t).ok
    monkeypatch.setattr(rulegen, "cost_value",
                        lambda e: Fraction(2.0 ** float(e)) * (1 - Fraction(1, 2**30)))
    cert = verify_table(t)
    assert not cert.ok
    assert any("is below 2^" in f for f in cert.failures)


def test_exact_power_check_agrees_with_integer_powers():
    # _at_least_pow2 rounds its bound on c^q down to 128 bits; on costs a
    # little above and below 2^e it must agree with c^q >= 2^p computed in full
    rng = random.Random(7)
    for _ in range(300):
        e = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        p, q = e.numerator, e.denominator
        for c in (rulegen.cost_value(e), rulegen.cost_value(e) * (1 - Fraction(1, 2**30)),
                  Fraction(2) ** (p // q), Fraction(2) ** (p // q) * (1 - Fraction(1, 2**90))):
            exact = c.numerator ** q << max(-p, 0) >= c.denominator ** q << max(p, 0)
            assert rulegen._at_least_pow2(c, e) == exact


def test_verify_with_a_large_denominator_measure_is_fast():
    # beta3 = 0.2000001 gives exponents over q = 10^7: raising a cost to the
    # q-th power in full would take hours, the 128-bit bound takes log q steps
    m = Measure(0, 0, 0, Fraction("0.2000001"), "n")
    t = gensa(root_config(19), m, assertions=assertions_for(19), subspace_id=19)
    assert t.complete
    start = time.monotonic()
    assert verify_table(t).ok
    assert time.monotonic() - start < 10


def test_generation_keys_no_root(monkeypatch):
    # the root is stored last, so no node can alias it: its canonical key,
    # the costliest of all on P18's 8-cycle, is never computed
    root = root_config(18)
    keyed = []
    canonical_key = rulegen.canonical_key
    monkeypatch.setattr(rulegen, "canonical_key", lambda l: keyed.append(l) or canonical_key(l))
    t = gensa(root, MU_N20, assertions=assertions_for(18), subspace_id=18)
    assert t.complete and verify_table(t).ok
    assert keyed  # every other node is still keyed
    assert all(l is not root and l != root for l in keyed)


def test_match_instance_p19_walk():
    t = p19_pure_k()
    g = complete_graph(4)
    inst = Instance(g, 3)
    anchor = find_anchor(inst, t.tree.root_config)
    assert anchor == {0: 0}
    leaf_id, phi = match_instance(t.tree, inst, anchor)
    leaf = t.tree.node(leaf_id)
    assert leaf.leaf.kind == "rule"
    assert_embeds(leaf.config, inst, phi)
    # anchor vertex plus its two smallest neighbors got mapped
    assert phi[0] == 0 and set(phi.values()) == {0, 1, 2}


def test_match_refuses_pruned_children():
    # the P19 table prunes degree-1/2 fresh endpoints as unreachable; an
    # instance outside the subspace that resolves into one must fault loudly
    from vcgen.errors import CertificateViolation

    t = p19_pure_k()
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])  # vertex 0 has deg 3
    inst = Instance(g, 3)
    with pytest.raises(CertificateViolation):
        match_instance(t.tree, inst, {0: 0})


def test_match_depth_zero_rule_leaf():
    cfg = instance_as_config(complete_graph(4))
    tree = ExpansionTree(
        [TreeNode(0, cfg, "leaf", leaf=Leaf("constant"))], root=0
    )
    inst = Instance(complete_graph(4), 3)
    anchor = find_anchor(inst, cfg)
    leaf_id, phi = match_instance(tree, inst, anchor)
    assert leaf_id == 0 and phi == anchor


def test_match_walks_aliases_consistently():
    # the P2 table at this measure contains alias nodes; matching through
    # them must keep the embedding valid
    m = Measure(0, 0, 0, Fraction("0.2"), "n")
    t = gensa(root_config(2), m, rule_mode="randomized",
              assertions=assertions_for(2), subspace_id=2)
    assert t.complete
    assert any(n.kind == "alias" for n in t.tree.nodes)
    assert verify_table(t).ok
    rng = random.Random(97)
    matched = 0
    attempts = 0
    while matched < 8 and attempts < 4000:
        attempts += 1
        g = random_subcubic(rng, rng.randint(6, 14))
        reduced, _ = simplify_fixpoint(Instance(g, 8))
        if reduced.graph.edge_count() == 0 or classify(reduced.graph) != 2:
            continue
        anchor = find_anchor(reduced, t.tree.root_config)
        assert anchor is not None
        leaf_id, phi = match_instance(t.tree, reduced, anchor)
        assert t.tree.node(leaf_id).leaf is not None
        assert_embeds(t.tree.node(leaf_id).config, reduced, phi)
        matched += 1
    assert matched == 8
