import contextlib
import inspect
import math
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from corpus import MU_N20, build_tables, is_cover, random_cubic, random_subcubic, relabel
from reference_lp import solve_cover_lp
from vcgen.errors import CertificateViolation, ContractError, InputDomainError
from vcgen.graphs import (
    Graph,
    Instance,
    complete_graph,
    cycle_graph,
    petersen_graph,
    vc_oracle,
)
from vcgen.measure import MU2, Measure, evaluate, pure_k
from vcgen.rulegen import gensa, verify_table
from vcgen.runtime import (
    TRIAL_BLOCK,
    TableEngine,
    TraceStep,
    TrialPlan,
    _component_cover,
    _cover_lower_bound,
    _matching,
    _trial_seed,
)
from vcgen.simplify import simplify_fixpoint
from vcgen.subspaces import assertions_for, classify, root_config
from vcgen.tree import find_anchor


def test_trial_plan():
    plan = TrialPlan.for_instance(MU_N20, Instance(complete_graph(4), 3), safety=20)
    assert plan.trials == math.ceil(2 ** 0.8 * 20)
    with pytest.raises(InputDomainError):
        TrialPlan(0, 1)


@pytest.mark.parametrize("budget, safety", [
    (2000, 20),  # 2^mu beyond a float
    (10, 10**400),  # a safety beyond a float
    (10, 10**306),  # 2^mu * safety rounds to infinity
], ids=["mu", "safety", "product"])
def test_trial_plan_beyond_a_float_is_an_input_error(budget, safety):
    with pytest.raises(InputDomainError, match="more trials than a float"):
        TrialPlan.for_instance(pure_k(), Instance(complete_graph(4), budget), safety=safety)


@pytest.mark.parametrize("safety", [0, -5])
def test_trial_plan_needs_a_safety_of_at_least_one(safety):
    with pytest.raises(InputDomainError, match="safety factor must be at least 1"):
        TrialPlan.for_instance(MU_N20, Instance(complete_graph(4), 3), safety=safety)


def test_trial_plan_far_below_zero_runs_one_trial():
    # mu = -0.089 * 13,000 under MU2: 2^mu underflows to 0.0
    inst = Instance(cycle_graph(13_000), 0)
    assert 2.0 ** float(evaluate(MU2, inst)) == 0.0
    assert TrialPlan.for_instance(MU2, inst, safety=20).trials == 1


def test_deterministic_frozen_answers(det_engine):
    assert det_engine.deterministic_cover(Instance(complete_graph(4), 3)) is not None
    assert det_engine.deterministic_cover(Instance(complete_graph(4), 2)) is None
    assert det_engine.deterministic_cover(Instance(cycle_graph(5), 2)) is None
    assert det_engine.deterministic_cover(Instance(cycle_graph(5), 3)) is not None
    assert det_engine.deterministic_cover(Instance(Graph(), 0)) == frozenset()


def test_deterministic_matches_oracle(det_engine):
    rng = random.Random(11)
    for _ in range(150):
        g = random_subcubic(rng, rng.randint(3, 16))
        vc = vc_oracle(g)
        for k in (vc - 1, vc):
            got = det_engine.deterministic_cover(Instance(g, k))
            if k >= vc:
                assert got is not None and is_cover(g, got) and len(got) <= k
            else:
                assert got is None



def _matching_or_degree_bound(g):
    """The cover lower bound the LP bound replaced: the larger of a greedy
    maximal matching's size and ceil(m / 3)."""
    matched = set()
    for u in g.vertices:
        if u not in matched:
            for v in g.neighbors(u):
                if v not in matched:
                    matched.update((u, v))
                    break
    return max(len(matched) // 2, -(-g.edge_count() // 3))


def _cover_lp(g):
    """The vertex-cover LP optimum of g by the Fraction simplex: one
    unit-cost branch per vertex, one requirement per edge."""
    vertices, edges = sorted(g.vertices), list(g.edges())
    masks = [sum(1 << r for r, e in enumerate(edges) if v in e) for v in vertices]
    return solve_cover_lp([Fraction(1)] * len(vertices), masks, len(edges)).objective


def _bound(g):
    """The cover lower bound of g from a fresh maximum matching."""
    return _cover_lower_bound(g, _matching(g, {}))


def _is_matching(g, mate):
    """Whether mate pairs each vertex with a neighbour, no two with the same."""
    return all(g.has_edge(u, v) for u, v in mate.items()) and len(set(mate.values())) == len(mate)


def test_cover_lower_bound_is_sound():
    rng = random.Random(21)
    graphs = [random_subcubic(rng, rng.randint(1, 20)) for _ in range(300)]
    graphs += [complete_graph(4), cycle_graph(5), petersen_graph()]
    stronger = beats_lp = 0
    for g in graphs:
        mate = _matching(g, {})
        bound, old, lp = _cover_lower_bound(g, mate), _matching_or_degree_bound(g), _cover_lp(g)
        assert _is_matching(g, mate)
        assert old <= bound <= vc_oracle(g)
        assert math.ceil(lp) <= bound
        # the matching is maximum: half its size is the LP optimum
        assert (len(mate) + 1) // 2 == math.ceil(lp)
        stronger += bound > old
        beats_lp += bound > math.ceil(lp)
    assert stronger > 0 and beats_lp > 0
    # C5's LP optimum is 5/2, so the bound is vc(C5) = 3, one above every
    # maximal matching; Petersen's is 15/3 = 5
    assert _bound(cycle_graph(5)) == 3
    assert _bound(petersen_graph()) == 5


def test_cycle_bound_beats_the_lp_bound():
    # two disjoint triangles: the LP optimum is 3, but a maximum matching
    # of the double cover pairs each triangle into a cycle of 3, so the
    # bound is vc = 4
    triangles = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert math.ceil(_cover_lp(triangles)) == 3 and _bound(triangles) == 4
    # a seeded random graph whose LP optimum is 8 and whose bound is vc = 9
    g = random_subcubic(random.Random(11), 16)
    assert (_cover_lp(g), _bound(g), vc_oracle(g)) == (8, 9, 9)


def test_carried_matching_is_a_maximum_matching_of_the_child():
    # a parent fixpoint, a take and the child fixpoint, as in the search:
    # the parent's matching, carried into the child, is a matching there
    # and grows to the size of a fresh maximum one
    rng = random.Random(27)
    folds = 0
    for _ in range(120):
        parent = Instance(random_cubic(rng, 2 * rng.randint(3, 20)), 100)
        mate = _matching(parent.graph, {})
        take = frozenset(rng.sample(sorted(parent.graph.vertices), rng.randint(1, 3)))
        child, steps = simplify_fixpoint(parent, take)
        folds += any(fold for _, fold in steps)
        carried = _matching(child.graph, mate)
        assert _is_matching(child.graph, carried)
        assert len(carried) == len(_matching(child.graph, {}))
    # rule 4 adds an edge that the parent's matching cannot hold
    assert folds > 0


def test_pruned_search_returns_the_unpruned_cover(monkeypatch, det_engine):
    rng = random.Random(23)
    cases = []
    for _ in range(120):
        g = random_subcubic(rng, rng.randint(4, 18))
        vc = vc_oracle(g)
        cases += [Instance(g, k) for k in range(vc - 2, vc + 2)]
    for n in range(30, 61, 2):
        g = random_cubic(rng, n)
        vc = _bound(g)  # past the oracle's cap: the first k with a cover
        while det_engine.deterministic_cover(Instance(g, vc)) is None:
            vc += 1
        cases += [Instance(g, k) for k in range(vc - 1, vc + 2)]
    pruned = [det_engine.deterministic_cover(inst) for inst in cases]
    # a bound of 0 prunes nothing
    monkeypatch.setattr("vcgen.runtime._cover_lower_bound", lambda g, mate: 0)
    assert [det_engine.deterministic_cover(inst) for inst in cases] == pruned
    assert any(c is None for c in pruned) and any(c is not None for c in pruned)


def test_deterministic_search_prunes_below_the_bound(monkeypatch, det_engine):
    # a cubic graph at k = vc - 1: the pruned search classifies fewer
    # residual instances than the full one
    g = random_cubic(random.Random(1), 50)
    k = _bound(g)
    while det_engine.deterministic_cover(Instance(g, k)) is None:
        k += 1
    calls = []
    monkeypatch.setattr(
        "vcgen.runtime.classify", lambda h, **kw: calls.append(h) or classify(h, **kw)
    )
    assert det_engine.deterministic_cover(Instance(g, k - 1)) is None
    pruned = len(calls)
    monkeypatch.setattr("vcgen.runtime._cover_lower_bound", lambda h, mate: 0)
    assert det_engine.deterministic_cover(Instance(g, k - 1)) is None
    assert 0 < pruned < len(calls) - pruned


def test_lp_bound_prunes_more_than_the_matching_bound(monkeypatch, det_engine):
    # a cubic graph at k = vc - 1: the cycle-cover bound classifies fewer
    # residual instances than the LP bound from the same matchings, and
    # that fewer than the matching-or-degree bound the LP bound replaced
    g = random_cubic(random.Random(5), 60)
    k = _bound(g)
    while det_engine.deterministic_cover(Instance(g, k)) is None:
        k += 1
    counts = []
    for bound in (None, lambda h, mate: (len(mate) + 1) // 2,
                  lambda h, mate: _matching_or_degree_bound(h)):
        if bound is not None:
            monkeypatch.setattr("vcgen.runtime._cover_lower_bound", bound)
        calls = []
        monkeypatch.setattr(
            "vcgen.runtime.classify", lambda h, **kw: calls.append(h) or classify(h, **kw)
        )
        assert det_engine.deterministic_cover(Instance(g, k - 1)) is None
        counts.append(len(calls))
    cycle_calls, lp_calls, old_calls = counts
    assert 0 < cycle_calls < lp_calls < old_calls - lp_calls, counts


def test_randomized_one_sided_error(rand_engine):
    rng = random.Random(13)
    for _ in range(40):
        g = random_subcubic(rng, rng.randint(3, 12))
        k = vc_oracle(g) - 1
        res = rand_engine.solve_randomized(Instance(g, k), TrialPlan(30, rng.getrandbits(32)))
        assert not res.answer and res.successes == 0


def test_randomized_finds_yes_with_trials(rand_engine):
    rng = random.Random(17)
    for _ in range(25):
        g = random_subcubic(rng, rng.randint(3, 12))
        k = vc_oracle(g)
        inst = Instance(g, k)
        plan = TrialPlan.for_instance(MU_N20, inst, safety=20, base_seed=rng.getrandbits(32))
        res = rand_engine.solve_randomized(inst, plan)
        assert res.answer
        assert res.cover is not None and is_cover(g, res.cover) and len(res.cover) <= k


def test_two_5_cycles_sharing_a_path_anchor_and_solve(det_engine, rand_engine):
    # two 5-cycles share a path of two edges and no pair shares exactly one
    # edge, so P9's root is not in the graph; classified P9, every solve
    # would raise CertificateViolation
    g = random_cubic(random.Random(93), 18)
    assert vc_oracle(g) == 10
    assert det_engine.deterministic_cover(Instance(g, 9)) is None
    cover = det_engine.deterministic_cover(Instance(g, 10))
    assert cover is not None and is_cover(g, cover) and len(cover) <= 10
    assert not rand_engine.solve_randomized(Instance(g, 9), TrialPlan(20, 0)).answer
    res = rand_engine.solve_randomized(Instance(g, 10), TrialPlan(20, 0))
    assert res.successes >= 1 and is_cover(g, res.cover) and len(res.cover) <= 10
    assert find_anchor(Instance(g, 0), root_config(classify(g))) is not None


def test_rsearch_trace_probabilities(rand_engine):
    inst = Instance(petersen_graph(), 6)
    trace: list[TraceStep] = []
    cover = rand_engine.rsearch_cover(inst, seed=5, trace=trace)
    assert cover is not None
    assert trace, "a branching step must be traced"
    for step in trace:
        assert 0 < step.probability <= 1
        assert step.format().startswith("P")


def test_rsearch_deterministic_given_seed(rand_engine):
    inst = Instance(petersen_graph(), 6)
    a = rand_engine.rsearch_cover(inst, seed=42)
    b = rand_engine.rsearch_cover(inst, seed=42)
    assert a == b


def test_walk_past_a_measure_of_1024_does_not_overflow(rand_engine):
    # mu = n/5 = 1,200 here, so 2^mu is beyond a float; the walk weighs
    # each child by its measure drop instead.
    g = random_cubic(random.Random(6000), 6000)
    k = 3600
    assert evaluate(MU_N20, Instance(g, k)) > 1024
    cover = rand_engine.rsearch_cover(Instance(g, k), seed=1)
    assert cover is None or (is_cover(g, cover) and len(cover) <= k)


@contextlib.contextmanager
def recursion_headroom(frames: int):
    """Python's recursion limit set to frames above the current depth."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_walk_depth_is_not_bounded_by_the_recursion_limit(rand_engine):
    # about 180 branching steps, far more than 80 frames of headroom
    g = random_cubic(random.Random(2000), 2000)
    with recursion_headroom(80):
        cover = rand_engine.rsearch_cover(Instance(g, 1200), seed=1)
    assert cover is not None and is_cover(g, cover) and len(cover) <= 1200


def test_deterministic_depth_is_not_bounded_by_the_recursion_limit(det_engine):
    # a YES instance that the search answers without backtracking, along
    # a path of about 270 rule steps, far more than 80 frames of headroom
    g = random_cubic(random.Random(2000), 2000)
    with recursion_headroom(80):
        cover = det_engine.deterministic_cover(Instance(g, 2000))
    assert cover is not None and is_cover(g, cover)


def test_rsearch_never_returns_a_non_cover_silently(monkeypatch, rand_engine):
    # a lift that loses a vertex leaves at most 5 of the Petersen graph's
    # vertices, never a cover: a walk that reaches a cover must raise
    import vcgen.runtime

    lift = vcgen.runtime.lift_cover
    monkeypatch.setattr(vcgen.runtime, "lift_cover",
                        lambda steps, cover: frozenset(sorted(lift(steps, cover))[1:]))
    inst = Instance(petersen_graph(), 6)
    raised = 0
    for seed in range(20):
        try:
            assert rand_engine.rsearch_cover(inst, seed) is None
        except CertificateViolation:
            raised += 1
    assert raised > 0


def test_deterministic_search_builds_no_graph_per_branch(monkeypatch, det_engine):
    # a branch's take is the first step of the child's fixpoint, on the
    # fixpoint's own working graph
    built = []
    without = Graph.without
    monkeypatch.setattr(Graph, "without", lambda g, vs: built.append(vs) or without(g, vs))
    assert det_engine.deterministic_cover(Instance(petersen_graph(), 5)) is None
    assert built == []
    assert det_engine.deterministic_cover(Instance(petersen_graph(), 6)) is not None
    assert built == []


def test_walks_build_no_graph_per_branch(monkeypatch, rand_engine):
    # each child's measure comes from the degree changes around its take,
    # and the take is the first step of the child's fixpoint
    built = []
    without = Graph.without
    monkeypatch.setattr(Graph, "without", lambda g, vs: built.append(vs) or without(g, vs))
    inst = Instance(petersen_graph(), 6)
    assert any(rand_engine.rsearch_cover(inst, seed) is not None for seed in range(5))
    assert rand_engine.solve_randomized(inst, TrialPlan(12, 7)).answer
    assert built == []


def decided_before_any_rule_leaf() -> Instance:
    # a 7-vertex path: the simplification rules alone cover it
    return Instance(Graph(range(7), [(i, i + 1) for i in range(6)]), 3)


def test_solve_randomized_is_one_walk_per_trial(rand_engine):
    # trials share the steps of their common path; every trial must still
    # give what its own walk from the input gives, also past the end of a
    # block of trials
    rng = random.Random(47)
    cases = [(Instance(petersen_graph(), 6), 12), (Instance(petersen_graph(), 5), 4),
             (Instance(petersen_graph(), 6), 2 * TRIAL_BLOCK + 5),
             (decided_before_any_rule_leaf(), 3),
             (Instance(decided_before_any_rule_leaf().graph, 2), 3)]
    for n in (12, 18, 24):
        g = random_cubic(rng, n)
        cases += [(Instance(g, vc_oracle(g) + extra), 10) for extra in (-1, 0, 1)]
    answers = set()
    for inst, trials in cases:
        plan = TrialPlan(trials, rng.getrandbits(32))
        traces: list[list[TraceStep]] = []
        res = rand_engine.solve_randomized(inst, plan, traces)
        walks, steps = [], []
        for i in range(plan.trials):
            steps.append([])
            walks.append(rand_engine.rsearch_cover(inst, _trial_seed(plan.base_seed, i), steps[-1]))
        wins = [c for c in walks if c is not None]
        assert res.successes == len(wins) and res.answer == bool(wins)
        assert res.cover == (wins[0] if wins else None)
        assert traces == steps
        answers.add(res.answer)
    assert answers == {True, False}


def test_solve_randomized_runs_the_root_step_once(monkeypatch, rand_engine):
    import vcgen.runtime

    g = petersen_graph()
    at_root = []
    classify_ = vcgen.runtime.classify
    monkeypatch.setattr(vcgen.runtime, "classify",
                        lambda h, **kw: at_root.append(h == g) or classify_(h, **kw))
    fixpoints = []
    simplify_ = vcgen.runtime.simplify_fixpoint
    monkeypatch.setattr(vcgen.runtime, "simplify_fixpoint",
                        lambda inst, take=None: fixpoints.append(take) or simplify_(inst, take))
    traces: list[list[TraceStep]] = []
    rand_engine.solve_randomized(Instance(g, 6), TrialPlan(TRIAL_BLOCK, 7), traces)
    # once at the root; the walks classify only the graphs after a take
    assert at_root.count(True) == 1 and len(at_root) > 1
    # within one block every step runs once: the root's fixpoint, and one
    # per distinct path of takes, which the traces name
    prefixes = {tuple(steps[:j]) for steps in traces for j in range(1, len(steps) + 1)}
    assert len(fixpoints) == 1 + len(prefixes)
    assert len(prefixes) < sum(map(len, traces))


def test_solve_randomized_keeps_one_block_of_generators(monkeypatch, rand_engine):
    import vcgen.runtime

    alive, peak, made = 0, 0, 0

    class Counted(random.Random):
        def __init__(self, seed):
            nonlocal alive, peak, made
            super().__init__(seed)
            alive, made = alive + 1, made + 1
            peak = max(peak, alive)

        def __del__(self):
            nonlocal alive
            alive -= 1

    monkeypatch.setattr(vcgen.runtime, "random", SimpleNamespace(Random=Counted))
    plan = TrialPlan(5 * TRIAL_BLOCK, 3)
    assert rand_engine.solve_randomized(Instance(petersen_graph(), 6), plan).answer
    assert (alive, peak, made) == (0, TRIAL_BLOCK, plan.trials)


def test_plan_decided_by_its_first_step_answers_at_once(rand_engine):
    plan = TrialPlan(10**18, 0)
    res = rand_engine.solve_randomized(decided_before_any_rule_leaf(), plan)
    assert res.answer and res.trials_run == res.successes == plan.trials
    assert is_cover(decided_before_any_rule_leaf().graph, res.cover)
    res = rand_engine.solve_randomized(Instance(decided_before_any_rule_leaf().graph, 2), plan)
    assert not res.answer and res.successes == 0 and res.cover is None
    traces: list[list[TraceStep]] = []
    res = rand_engine.solve_randomized(decided_before_any_rule_leaf(), TrialPlan(3, 0), traces)
    assert res.successes == 3 and traces == [[], [], []]


def test_per_trial_success_bound_small(rand_engine):
    # Lemma-2-style statistical check on one fixed instance
    g = complete_graph(4)
    inst = Instance(g, 3)
    mu = float(evaluate(MU_N20, inst))
    bound = 2.0 ** (-mu)
    trials = 600
    wins = sum(
        1 for i in range(trials) if rand_engine.rsearch_cover(inst, seed=900 + i) is not None
    )
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert wins / trials >= bound - 3 * sigma


def test_constant_leaf_path(monkeypatch, rand_engine):
    # the beta3 = 1/5 P3 table's only constant leaf: this instance matches
    # it at once, and the engine decides the whole matched component, all
    # six vertices, by the exact oracle
    table = rand_engine.tables[3]
    (constant,) = (n.node_id for n in table.tree.nodes
                   if n.kind == "leaf" and n.leaf.kind == "constant")
    g = Graph(range(6), [(0, 1), (0, 3), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)])
    assert classify(g) == 3 and vc_oracle(g) == 3
    assert rand_engine._match_leaf(Instance(g, 3))[1].node_id == constant
    comps = []
    real = _component_cover
    monkeypatch.setattr("vcgen.runtime._component_cover",
                        lambda h, comp: comps.append(comp) or real(h, comp))
    for k in (2, 3):
        cover = rand_engine.solve_randomized(Instance(g, k), TrialPlan(20, 0)).cover
        assert (cover is not None) == (k == 3)
        assert cover is None or is_cover(g, cover) and len(cover) == 3
    assert comps and all(comp == frozenset(range(6)) for comp in comps)


def test_engine_refuses_uncertified_tables():
    from vcgen.rulegen import GenLimits

    m = Measure(0, 0, 0, Fraction("0.001"), "n")
    bad = gensa(root_config(19), m, rule_mode="randomized",
                assertions=assertions_for(19), subspace_id=19,
                limits=GenLimits(max_depth=3))
    assert not bad.complete
    with pytest.raises(ContractError):
        TableEngine({19: bad}, m)


def test_deterministic_search_requires_ilp_tables(rand_engine):
    with pytest.raises(ContractError):
        rand_engine.deterministic_cover(Instance(complete_graph(4), 3))


def test_engine_refuses_measure_mismatch(det_engine):
    table = det_engine.tables[19]
    with pytest.raises(ContractError):
        TableEngine({19: table}, MU_N20)


def test_engine_refuses_a_table_under_another_key(det_engine):
    # the P19 table's certificate assumes no P1-P18 structure, so it must
    # not run on P3 instances
    with pytest.raises(ContractError, match="table for P19 loaded as P3"):
        TableEngine({3: det_engine.tables[19]}, pure_k())


@pytest.mark.parametrize("m, mode", [
    (MU_N20, "randomized"),
    (pure_k(), "deterministic"),
], ids=["rand", "det"])
def test_engine_refuses_a_relabelled_root(m, mode):
    # a table of P3 runs only from root_config(3) itself: one generated from
    # an isomorphic copy of it, with its vertices renamed, does not load
    root = relabel(root_config(3), {v: (v - 1) % 4 for v in range(4)})
    assert root != root_config(3)
    table = gensa(root, m, rule_mode=mode, assertions=assertions_for(3), subspace_id=3)
    with pytest.raises(ContractError, match="root configuration is not the root of P3"):
        TableEngine({3: table}, m)


@pytest.mark.parametrize("sid", [3, 7, 19])
def test_engine_refuses_a_generic_table(sid):
    # a table generated without a subspace carries no subspace's root or
    # assertions, so it runs under no key, not even one whose root it has
    m = pure_k()
    table = gensa(root_config(sid), m, rule_mode="deterministic")
    assert table.subspace_id is None and verify_table(table).ok
    with pytest.raises(ContractError, match=f"generic table loaded as P{sid}"):
        TableEngine({sid: table}, m)


def test_solve_randomized_hands_out_each_trials_trace(rand_engine):
    inst = Instance(petersen_graph(), 6)
    plan = TrialPlan(12, 7)
    traces: list[list[TraceStep]] = []
    res = rand_engine.solve_randomized(inst, plan, traces)
    assert len(traces) == plan.trials and all(traces)
    assert all(0 < step.probability <= 1 for steps in traces for step in steps)
    # tracing changes nothing, and the same plan replays the same walks
    assert res == rand_engine.solve_randomized(inst, plan)
    again: list[list[TraceStep]] = []
    rand_engine.solve_randomized(inst, plan, again)
    assert again == traces


def test_engines_agree_across_measures(det_engine, rand_engine):
    # pure-k deterministic tables and n-mode randomized tables must reach
    # the same verdicts as the oracle on a mixed corpus
    rng = random.Random(31)
    for _ in range(40):
        g = random_subcubic(rng, rng.randint(4, 14))
        vc = vc_oracle(g)
        for k in (vc - 1, vc):
            inst = Instance(g, k)
            det = det_engine.deterministic_cover(inst) is not None
            assert det == (vc <= k)
            plan = TrialPlan.for_instance(MU_N20, inst, safety=25,
                                          base_seed=rng.getrandbits(16))
            rand = rand_engine.solve_randomized(inst, plan).answer
            if k < vc:
                assert not rand
            else:
                # failure probability <= (1 - 2^-mu)^(25 * 2^mu) ~ e^-25
                assert rand


def test_pure_k_randomized_tables():
    # k-mode randomized tables (pure budget measure) agree with the oracle
    tables = build_tables(pure_k(), "randomized")
    engine = TableEngine(tables, pure_k())
    rng = random.Random(23)
    for _ in range(15):
        g = random_subcubic(rng, rng.randint(4, 10))
        vc = vc_oracle(g)
        inst = Instance(g, vc)
        plan = TrialPlan.for_instance(pure_k(), inst, safety=20, base_seed=rng.getrandbits(32))
        res = engine.solve_randomized(inst, plan)
        assert res.answer
        bad = engine.solve_randomized(Instance(g, vc - 1), plan)
        assert not bad.answer


def subdivided_petersen():
    # subdividing every edge once yields 25 simplification-free vertices:
    # degree-2 vertices never adjacent, all alternating cycles longer than 8
    g = petersen_graph()
    edges = list(g.edges())
    new_edges = []
    nxt = 10
    for u, v in edges:
        new_edges.append((u, nxt))
        new_edges.append((nxt, v))
        nxt += 1
    return Graph(range(nxt), new_edges)


def test_budget_cover_fallback_paths():
    from vcgen.runtime import _budget_cover
    from vcgen.simplify import find_site

    # small graphs: the answer of the exact oracle
    assert _budget_cover(Instance(complete_graph(4), 3)) is not None
    assert _budget_cover(Instance(complete_graph(4), 2)) is None
    # a 25-vertex graph with no simplification site; taking the ten
    # original vertices covers every subdivided edge, and
    # |C| >= |S| + m - e(S) over originals S makes 10 optimal
    g = subdivided_petersen()
    assert find_site(Instance(g, 0)) is None
    cover = _budget_cover(Instance(g, 10))
    assert cover is not None and is_cover(g, cover) and len(cover) <= 10
    assert _budget_cover(Instance(g, 9)) is None


def test_budget_cover_at_zero_budget_builds_no_graph(monkeypatch):
    # with an edge left and k = 0 no cover fits: the fallback says so at
    # once instead of building both children of a branch first
    from vcgen.runtime import _budget_cover

    inst = Instance(Graph(range(2), [(0, 1)]), 0)
    removed = []
    without = Graph.without
    monkeypatch.setattr(Graph, "without", lambda g, vs: removed.append(vs) or without(g, vs))
    assert _budget_cover(inst) is None
    assert removed == []
    assert _budget_cover(Instance(inst.graph, 1)) == {0}
    assert removed == [{0}]


def test_mu2_low_measure_fallback_before_tables():
    # with mu <= 0 and edges remaining, the engine answers via the fallback
    # without consulting any table (k-mode measures can bottom out early)
    engine = TableEngine({}, MU2)
    g = subdivided_petersen()
    inst = Instance(g, 7)
    assert float(evaluate(MU2, inst)) <= 0
    assert engine.deterministic_cover(inst) is None
    assert engine.rsearch_cover(inst, seed=1) is None
    assert engine.fallbacks >= 2
