"""Rule-leaf checks against the Fraction-sum reference in
tests/reference_leaf_check.py.

The package sums each crucial requirement's coverage as integer numerators
over the lcm of the weights' denominators; the reference adds Fractions.
The failures, in order, and the objective must agree on every rule leaf of
the two reference generations and on seeded mutations of them: coverage
lowered to exactly 1 and to 1 - 2^-60, an entry dropped, entries reordered,
an entry outside the graph, an entry that takes an isolated vertex, and
every weight raised to 1.  verify_table must give the same certificate
with either check.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

import reference_leaf_check as ref
import vcgen.rulegen as rulegen
from vcgen.branching import NO_ASSERTIONS
from vcgen.configs import LocalConfiguration
from vcgen.graphs import Graph
from vcgen.measure import Measure
from vcgen.requirements import RequirementContext
from vcgen.rulegen import verify_table
from vcgen.subspaces import assertions_for
from vcgen.tree import ExpansionTree, Leaf, RuleEntry, TreeNode

ENGINES = pytest.mark.parametrize("engine", ["rand_engine", "det_engine"], ids=["n20", "k"])


def rule_leaves(engine):
    for sid in sorted(engine.tables):
        table = engine.tables[sid]
        for node in table.tree.nodes:
            if node.kind == "leaf" and node.leaf.kind == "rule":
                yield table, node


def assert_same_check(config, entries, table, rule_mode=None):
    ctx = RequirementContext(config)
    crucial = ctx.crucial_set()
    assertions = NO_ASSERTIONS if table.subspace_id is None else assertions_for(table.subspace_id)
    args = (config, tuple(entries), ctx, crucial, table.measure, rule_mode or table.rule_mode,
            assertions)
    got = rulegen._check_rule_leaf(*args)
    assert got == ref.check_rule_leaf(*args), (config, entries)
    return got


def lowered(config, entries, excess):
    """(entries reweighted so that the coverage of requirement r becomes
    1 - excess, r), or None when no entry covers a crucial requirement.
    Each of the m entries that cover r gets weight 1/m, the first of them
    1/m - excess; an entry that covers r alone is split in two first."""
    ctx = RequirementContext(config)
    crucial = ctx.crucial_set()
    masks = ctx.cover_masks([ctx.solver.mask_of(e.take) for e in entries], crucial)
    for i, r in enumerate(crucial):
        covering = [j for j, mask in enumerate(masks) if mask >> i & 1]
        if len(covering) == 1:
            j = covering[0]
            entries, covering = entries[:j + 1] + entries[j:], [j, j + 1]
        if covering:
            share = Fraction(1, len(covering))
            weights = [share if j in covering else e.weight for j, e in enumerate(entries)]
            weights[covering[0]] -= excess
            return tuple(RuleEntry(e.take, w) for e, w in zip(entries, weights)), r
    return None


@ENGINES
def test_leaf_checks_match_reference_on_rule_leaves(engine, request):
    leaves = list(rule_leaves(request.getfixturevalue(engine)))
    assert leaves
    for table, node in leaves:
        failures, objective = assert_same_check(node.config, node.leaf.entries, table)
        assert failures == [] and objective is not None


@ENGINES
def test_leaf_checks_match_reference_on_mutations(engine, request):
    rng = random.Random(31)
    applied = dict.fromkeys(["exactly one", "just below one", "dropped", "first failure",
                             "outside", "isolated", "raised"], 0)
    for table, node in rule_leaves(request.getfixturevalue(engine)):
        config, entries = node.config, node.leaf.entries
        # fractional weights reach the coverage sums only in a randomized check
        for excess, name in ((0, "exactly one"), (Fraction(1, 2**60), "just below one")):
            found = lowered(config, entries, excess)
            if found is not None:
                mutated, r = found
                for mode in (table.rule_mode, "randomized"):
                    failures, _ = assert_same_check(config, mutated, table, mode)
                short = f"requirement {sorted(r)} covered with weight"
                assert any(f.startswith(short) for f in failures) == bool(excess)
                applied[name] += 1
        j = rng.randrange(len(entries))
        assert_same_check(config, entries[:j] + entries[j + 1:], table)
        applied["dropped"] += 1

        outside = RuleEntry(frozenset({max(config.h.vertices) + 1}), Fraction(1, 2))
        too_heavy = RuleEntry(entries[0].take, Fraction(3, 2))
        first = assert_same_check(config, (outside, *entries, too_heavy), table)
        second = assert_same_check(config, (too_heavy, *reversed(entries), outside), table)
        assert first != second
        assert assert_same_check(config, entries[::-1], table)[0] == []
        applied["first failure"] += 1
        for take in (outside.take, frozenset()):
            assert_same_check(config, (*entries, RuleEntry(take, Fraction(1, 2))), table)
            applied["outside"] += 1

        # an interior vertex of degree 0 leaves every vc(H - R) as it is
        lone = max(config.h.vertices) + 1
        padded = LocalConfiguration(Graph([*config.h.vertices, lone], config.h.edges()), config.d)
        failures, _ = assert_same_check(padded, (*entries, RuleEntry(frozenset({lone}), Fraction(1))),
                                        table)
        assert "isolated vertex" in failures[0]
        applied["isolated"] += 1

        raised = tuple(RuleEntry(e.take, Fraction(1)) for e in entries)
        assert_same_check(config, raised, table, "randomized")
        applied["raised"] += 1
    assert all(applied.values()), applied


def test_coverage_just_below_one_fails_with_its_exact_weight():
    # two branches of weight 1/2 - 2^-61 cover {0}: the shortfall prints exactly
    config = LocalConfiguration(Graph([0, 1], [(0, 1)]), {0: 2, 1: 2})
    table = rulegen.RuleTable(None, Measure(0, 0, 0, Fraction(1, 5), "n"), "randomized",
                              ExpansionTree())
    w = Fraction(1, 2) - Fraction(1, 2**61)
    entries = (RuleEntry(frozenset({0}), w), RuleEntry(frozenset({0}), w),
               RuleEntry(frozenset({1}), Fraction(1)))
    failures, _ = assert_same_check(config, entries, table)
    assert f"requirement [0] covered with weight {2 * w} < 1" in failures


def mutated_tables(engine):
    """For each rule leaf, copies of its table with that leaf mutated: one
    seeded entry dropped, and one requirement's coverage lowered to
    1 - 2^-60."""
    rng = random.Random(5)
    for table, node in rule_leaves(engine):
        entries = node.leaf.entries
        j = rng.randrange(len(entries))
        found = lowered(node.config, entries, Fraction(1, 2**60))
        for mutated in [entries[:j] + entries[j + 1:]] + [found[0]] * (found is not None):
            nodes = list(table.tree.nodes)
            nodes[node.node_id] = TreeNode(node.node_id, node.config, "leaf",
                                           leaf=Leaf("rule", entries=mutated))
            yield dataclasses.replace(table, tree=ExpansionTree(nodes, table.tree.root))


@ENGINES
def test_certificates_match_reference_check(engine, request, monkeypatch):
    engine = request.getfixturevalue(engine)
    tables = [*engine.tables.values(), *mutated_tables(engine)]
    got = [verify_table(t) for t in tables]
    monkeypatch.setattr(rulegen, "_check_rule_leaf", ref.check_rule_leaf)
    want = [verify_table(t) for t in tables]
    assert got == want
    assert all(c.ok for c in got[:len(engine.tables)])
    assert not all(c.ok for c in got[len(engine.tables):])
