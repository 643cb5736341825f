"""Acceptance suite: one test per criterion, one printed verdict line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from completions import completion_config, enumerate_completions, realized_exponent
from corpus import is_cover, lp_ilp_pairs, random_subcubic
from vcgen.branching import SubspaceAssertions, cost_bound
from vcgen.graphs import (
    Graph,
    Instance,
    complete_graph,
    cycle_graph,
    petersen_graph,
    vc_oracle,
)
from vcgen.measure import (
    MU1,
    MU2,
    BranchVector,
    Measure,
    branching_number,
    check_feasibility,
    combine_bound,
    evaluate,
    pure_k,
)
from vcgen.requirements import RequirementContext
from vcgen.rulegen import gensa, verify_table
from vcgen.runtime import TableEngine
from vcgen.simplify import apply, config_site, find_site
from vcgen.subspaces import assertions_for, forbidden_by, root_config

ACCEPT_BETA3 = Fraction("0.2")  # binary search certified 0.14; gate is <= 0.25


def verdict(number: int, name: str, ok: bool = True) -> None:
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


# -- 1: measure feasibility ---------------------------------------------------


def test_criterion_01_measure_feasibility():
    r1 = check_feasibility(MU1)
    r2 = check_feasibility(MU2)
    ok = r1.ok and r2.ok
    # mu2 sits exactly on the chain boundaries
    ok = ok and MU2.beta2 == -MU2.alpha / 2
    ok = ok and MU2.beta1 == -MU2.alpha / 2 - MU2.beta2 / 2 == MU2.alpha / 2 + 3 * MU2.beta2 / 2
    verdict(1, "measure feasibility", ok)


# -- 2: branching numbers -----------------------------------------------------


def test_criterion_02_branching_numbers():
    pairs = [
        (BranchVector(((1, 1), (1, 3))), 1.46558),
        (BranchVector(((1, 3),) * 4), 1.58741),
        (BranchVector(((Fraction(4, 3), 1),)), 1.33334),
    ]
    ok = all(abs(branching_number(v) - target) < 1e-4 for v, target in pairs)
    verdict(2, "branching numbers", ok)


# -- 3: bound combination ------------------------------------------------------


def test_criterion_03_combined_k_bounds():
    rows = [
        (0.59303, 0.03958, 1.13735, 1.21103),  # degree 4
        (0.37997, 0.09725, 1.17354, 1.24382),  # degree 5
        (0.16828, 0.16570, 1.18922, 1.25210),  # degree 6
        (0.02580, 0.21576, 1.19698, 1.25281),  # general
    ]
    ok = True
    for a, b, base_n, target in rows:
        d = combine_bound(a, b, math.log(base_n))
        ok = ok and abs(math.exp(d) - target) < 1.5e-4
    verdict(3, "combined k bounds", ok)


# -- 4: simplification soundness ----------------------------------------------


def test_criterion_04_simplification_soundness():
    rng = random.Random(0xACCE04)
    applications = 0
    instances = 0
    while instances < 10_000:
        instances += 1
        g = random_subcubic(rng, rng.randint(3, 16))
        k = rng.randint(0, 10)
        inst = Instance(g, k)
        while True:
            site = find_site(inst)
            if site is None:
                break
            out = apply(inst, site)
            # answer preserved for every budget at once: vc drop = budget drop
            assert vc_oracle(inst.graph) - vc_oracle(out.graph) == inst.budget - out.budget
            for m in (MU1, MU2):
                assert evaluate(m, out) <= evaluate(m, inst)
            applications += 1
            inst = out
    assert applications >= 10_000
    verdict(4, f"simplification soundness ({instances} instances, {applications} applications)")


# -- 5: crucial sets and proposition-20 implications ---------------------------


def _config_corpus_v6(seed: int, count: int):
    from corpus import config_corpus

    return config_corpus(seed=seed, count=count, max_n=6)


def test_criterion_05_crucial_sets_exhaustive():
    corpus = _config_corpus_v6(0xACCE05, 150)
    checked = 0
    for l in corpus:
        ctx = RequirementContext(l)
        crucial = ctx.crucial_set()
        delta = ctx.delta
        vs = sorted(l.h.vertices)
        universe = [
            frozenset(c)
            for size in range(len(delta) + 1)
            for c in itertools.combinations(delta, size)
        ]
        branches = [
            frozenset(c)
            for size in range(1, len(vs) + 1)
            for c in itertools.combinations(vs, size)
        ]
        sat = {
            r: sum(1 << i for i, b in enumerate(branches) if ctx.satisfies(b, r))
            for r in universe
        }
        # coverage transfer: every requirement context is dominated by some
        # crucial requirement whose satisfier set is contained in its own
        for r in universe:
            assert any(sat[rc] & ~sat[r] == 0 for rc in crucial), (l, r)
        # proposition-20 implications, both directions, every branch
        for creq in universe:
            for v in delta:
                if v in creq:
                    continue
                forced = ctx.vc_minus(creq) == ctx.vc_minus(creq | {v}) + 1
                up = sat[creq | {v}]
                down = sat[creq]
                if forced:
                    assert up & ~down == 0
                else:
                    assert down & ~up == 0
                checked += 1
    verdict(5, f"crucial sets + proposition 20 ({len(corpus)} configs, {checked} pairs)")


# -- 6: cost-bound soundness ----------------------------------------------------


COST_MEASURES = (
    MU1,
    MU2,
    Measure(0, Fraction("0.02"), Fraction("0.04"), Fraction("0.1"), "n"),
    Measure(1, Fraction("-0.3"), Fraction("-0.4"), 0, "k"),
)

L13 = SubspaceAssertions(no_deg3_with_two_deg2=True)
L14 = SubspaceAssertions(no_degree_2=True)
# the structures lemmas 13 and 14 rule out: P2's fork, P6's degree-2 vertex
FORK = SubspaceAssertions(excluded_subspaces=(2,))
DEG2 = SubspaceAssertions(excluded_subspaces=(6,))


def _cost_corpus(seed: int, count: int):
    rng = random.Random(seed)
    from corpus import random_config

    out, seen = [], set()
    while len(out) < count:
        l = random_config(rng, rng.randint(2, 6))
        if config_site(l) is not None:
            continue
        if sum(l.d.values()) > 5 or not l.boundary():
            continue
        key = (frozenset(l.h.vertices), frozenset(l.h.edges()), tuple(sorted(l.d.items())))
        if key in seen:
            continue
        seen.add(key)
        out.append(l)
    return out


def test_criterion_06_cost_bound_soundness():
    corpus = _cost_corpus(0xACCE06, 60)

    completions_checked = 0
    for l in corpus:
        vs = sorted(l.h.vertices)
        for size in range(1, len(vs) + 1):
            for combo in itertools.combinations(vs, size):
                b = frozenset(combo)
                if any(l.h.degree(v) == 0 for v in b):
                    continue  # isolated takes satisfy nothing; see ledger
                e12 = cost_bound(l, b, MU2).exponent
                e13 = cost_bound(l, b, MU2, L13).exponent
                e14 = cost_bound(l, b, MU2, L14).exponent
                assert e14 <= e13 <= e12
                bounds = {
                    (m, lemma): cost_bound(
                        l, b, m,
                        {12: SubspaceAssertions(), 13: L13, 14: L14}[lemma],
                    ).exponent
                    for m in COST_MEASURES
                    for lemma in (12, 13, 14)
                }
                for c in enumerate_completions(l, b):
                    cc = completion_config(l, c)
                    if config_site(cc) is not None:
                        continue  # not simplification-free
                    has_deg2 = forbidden_by(cc, DEG2) is not None
                    has_d3d2 = forbidden_by(cc, FORK) is not None
                    for m in COST_MEASURES:
                        realized = realized_exponent(l, b, c, m)
                        assert realized <= bounds[(m, 12)], (l, b, c, m)
                        if not has_d3d2:
                            assert realized <= bounds[(m, 13)], (l, b, c, m)
                        if not has_deg2:
                            assert realized <= bounds[(m, 14)], (l, b, c, m)
                        completions_checked += 1
    verdict(6, f"cost-bound soundness ({len(corpus)} configs, {completions_checked} realized checks)")


# -- 7 + 8: LP <= ILP at generation, and oracle equivalence --------------------


@pytest.fixture(scope="module")
def pure_k_generation():
    with lp_ilp_pairs() as pairs:
        tables = {
            sid: gensa(
                root_config(sid),
                pure_k(),
                rule_mode="deterministic",
                assertions=assertions_for(sid),
                subspace_id=sid,
            )
            for sid in range(1, 20)
        }
    return tables, pairs


def test_criterion_07_lp_ilp_and_reverification(pure_k_generation):
    tables, pairs = pure_k_generation
    nodes_compared = 0
    for lp, ilp in pairs:
        if lp is not None and ilp is not None:
            assert lp <= ilp
            nodes_compared += 1
    assert nodes_compared > 0
    for sid, t in tables.items():
        cert = verify_table(t)
        assert cert.ok, (sid, cert.failures)
        for nid, objective in cert.leaf_objectives.items():
            assert objective <= 1
    verdict(7, f"LP <= ILP and rule re-verification ({nodes_compared} generation nodes)")


def test_criterion_08_oracle_equivalence(pure_k_generation):
    tables, _ = pure_k_generation
    engine = TableEngine(tables, pure_k())
    rng = random.Random(0xACCE08)
    disagreements = 0
    for i in range(1000):
        g = random_subcubic(rng, rng.randint(3, 20))
        vc = vc_oracle(g)
        k = vc + rng.choice((-2, -1, -1, 0, 0, 1))
        cover = engine.deterministic_cover(Instance(g, k))
        expected = vc <= k
        if (cover is not None) != expected:
            disagreements += 1
        if cover is not None:
            assert is_cover(g, cover) and len(cover) <= k
    assert disagreements == 0
    verdict(8, "deterministic oracle equivalence (1000 instances, n <= 20)")


# -- 9: randomized guarantee ----------------------------------------------------


@pytest.fixture(scope="module")
def randomized_engine():
    m = Measure(0, 0, 0, ACCEPT_BETA3, "n")
    tables = {
        sid: gensa(root_config(sid), m, rule_mode="randomized",
                   assertions=assertions_for(sid), subspace_id=sid)
        for sid in range(1, 20)
    }
    return TableEngine(tables, m), m


def prism_graph():
    return Graph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                            (0, 3), (1, 4), (2, 5)])


def cube_graph():
    return Graph(range(8), [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                            (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)])


def yes_instance_deck():
    graphs = [complete_graph(4), petersen_graph(), prism_graph(), cube_graph(),
              cycle_graph(5), Graph(range(4), [(0, 1), (0, 2), (0, 3), (1, 2)])]
    rng = random.Random(0xACCE09)
    while len(graphs) < 20:
        g = random_subcubic(rng, rng.randint(6, 14))
        if g.edge_count() >= 4:
            graphs.append(g)
    return [Instance(g, vc_oracle(g)) for g in graphs]


def test_criterion_09_randomized_guarantee(randomized_engine):
    engine, m = randomized_engine
    trials = 10_000
    deck = yes_instance_deck()
    assert len(deck) == 20
    for idx, inst in enumerate(deck):
        mu = float(evaluate(m, inst))
        bound = 2.0 ** (-mu)
        wins = sum(
            1
            for i in range(trials)
            if engine.rsearch_cover(inst, seed=(idx << 20) + i) is not None
        )
        sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / trials)
        assert wins / trials >= bound - 3 * sigma, (idx, wins / trials, bound)
    # one-sided error: no-instances never answer YES
    for idx, inst in enumerate(deck):
        below = Instance(inst.graph, vc_oracle(inst.graph) - 1)
        for i in range(300):
            assert engine.rsearch_cover(below, seed=(idx << 12) + i) is None
    verdict(9, f"randomized per-trial bound (20 instances x {trials} trials) + one-sided error")


# -- 10: n-mode certification at desk scale -------------------------------------


def test_criterion_10_n_mode_certification(randomized_engine):
    engine, m = randomized_engine
    assert m.beta3 <= Fraction("0.25")
    assert check_feasibility(m).ok
    for sid in range(1, 20):
        t = engine.tables[sid]
        assert t.complete
        cert = verify_table(t)
        assert cert.ok, (sid, cert.failures)
    base = 2.0 ** float(m.beta3)
    verdict(10, f"n-mode certification across 19 subspaces at beta3 = {m.beta3} (base {base:.5f})")
