import math
import random
from fractions import Fraction

import pytest

from vcgen.errors import InputDomainError
from vcgen.graphs import Graph, Instance, complete_graph
from vcgen.measure import (
    MU1,
    MU2,
    BranchVector,
    Measure,
    branching_number,
    check_feasibility,
    combine_bound,
    evaluate,
    format_measure,
    generation_admissible,
    parse_measure_tokens,
    pure_k,
)


def test_evaluate_mu1_on_k4():
    v = evaluate(MU1, Instance(complete_graph(4), 3))
    assert v == Fraction(424, 1000)


def test_evaluate_mu2_on_k4():
    v = evaluate(MU2, Instance(complete_graph(4), 3))
    assert v == Fraction(534, 1000)  # 0.178*3; n1 = n2 = 0


def test_evaluate_empty_instance():
    assert evaluate(MU2, Instance(Graph(), 0)) == 0


def test_evaluate_degree0_contributes_nothing():
    assert evaluate(MU1, Instance(Graph(range(5)), 2)) == 0


def test_evaluate_rejects_degree4():
    # a degree-4 input never reaches the call: Graph refuses to build it
    with pytest.raises(InputDomainError):
        star = Graph(range(5), [(0, i) for i in range(1, 5)])
        evaluate(MU1, Instance(star, 2))


def test_evaluate_additive_over_disjoint_union():
    rng = random.Random(3)
    from corpus import random_subcubic

    for _ in range(10):
        g1 = random_subcubic(rng, 6)
        g2 = random_subcubic(rng, 5)
        shift = max(g1.vertices) + 1
        union = Graph(
            list(g1.vertices) + [v + shift for v in g2.vertices],
            list(g1.edges()) + [(u + shift, v + shift) for u, v in g2.edges()],
        )
        for m in (MU1, MU2):
            assert evaluate(m, Instance(union, 5)) == evaluate(
                m, Instance(g1, 2)
            ) + evaluate(m, Instance(g2, 3))


def test_feasibility_mu1_passes():
    assert check_feasibility(MU1).ok


def test_feasibility_mu2_passes_at_boundaries():
    r = check_feasibility(MU2)
    assert r.ok
    # the boundary equalities hold exactly
    assert MU2.beta2 == -MU2.alpha / 2
    assert MU2.beta1 == -MU2.alpha / 2 - MU2.beta2 / 2
    assert MU2.beta1 == MU2.alpha / 2 + 3 * MU2.beta2 / 2


def test_feasibility_sign_violation():
    m = Measure(Fraction("0.178"), Fraction("0.01"), Fraction("-0.089"), 0, "k")
    r = check_feasibility(m)
    assert not r.ok
    assert any("beta1 <= 0" in v for v in r.violations)


def test_feasibility_n_mode_chain_violation():
    m = Measure(0, Fraction("0.2"), Fraction("0.1"), Fraction("0.3"), "n")
    r = check_feasibility(m)
    assert not r.ok  # beta1 > beta2 breaks the chain


def test_violation_messages_are_pinned():
    # measures that break every inequality of their mode's chain
    n_mode = Measure(Fraction(1, 3), Fraction(-1, 7), Fraction(-2, 7), Fraction(-3, 5), "n")
    assert check_feasibility(n_mode).violations == (
        "alpha = 0 required in n-mode (alpha = 1/3)",
        "beta3 >= 0 required in n-mode (beta3 = -3/5)",
        "0 <= 3*beta1/4 violated (beta1 = -1/7)",
        "3*beta1/4 <= 3*beta2/4 violated (-1/7 > -2/7)",
        "3*beta2/4 <= beta3 violated (3*-2/7/4 > -3/5)",
    )
    k_mode = Measure(Fraction(-6), Fraction(1), Fraction(5, 2), Fraction(1, 9), "k")
    assert check_feasibility(k_mode).violations == (
        "beta1 <= 0 required in k-mode (beta1 = 1)",
        "beta2 <= 0 required in k-mode (beta2 = 5/2)",
        "beta3 = 0 required in k-mode (beta3 = 1/9)",
        "-alpha/2 <= beta2 violated (--6/2 > 5/2)",
        "beta2 <= -alpha/3 violated (5/2 > --6/3)",
        "-alpha/2 - beta2/2 <= beta1 violated (bound > 1)",
        "beta1 <= alpha/2 + 3*beta2/2 violated (1 > bound)",
    )
    assert not check_feasibility(n_mode).ok and not check_feasibility(k_mode).ok


def test_pure_k_admissible_for_generation_but_not_chain():
    m = pure_k()
    assert not check_feasibility(m).ok
    assert generation_admissible(m).ok
    assert not generation_admissible(Measure(1, 0, Fraction("0.1"), 0, "k")).ok


def test_weights_must_be_exact():
    with pytest.raises(InputDomainError):
        Measure(0.1, 0, 0, 0, "k")


def test_branching_number_two_way():
    x = branching_number(BranchVector(((1, 1), (1, 3))))
    assert abs(x - 1.46558) < 1e-4
    assert abs(x**3 - x**2 - 1) < 1e-6  # root of the characteristic equation


def test_branching_number_four_way():
    x = branching_number(BranchVector(((1, 3), (1, 3), (1, 3), (1, 3))))
    assert abs(x - 1.58741) < 1e-4
    assert abs(x - 4 ** (1 / 3)) < 1e-8


def test_branching_number_weighted():
    x = branching_number(BranchVector(((Fraction(4, 3), 1),)))
    assert abs(x - 4 / 3) < 1e-8
    assert abs(x - 1.33334) < 1e-4


def test_branching_number_below_one_weight():
    assert branching_number(BranchVector(((Fraction(1, 2), 5),))) == 1.0


def test_branching_number_monotone():
    rng = random.Random(5)
    for _ in range(30):
        entries = tuple(
            (Fraction(rng.randint(1, 3)), Fraction(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        )
        base = branching_number(BranchVector(entries))
        heavier = ((entries[0][0] + 1, entries[0][1]),) + entries[1:]
        shallower = ((entries[0][0], Fraction(1, 2)),) + entries[1:]
        assert branching_number(BranchVector(heavier)) >= base - 1e-9
        assert branching_number(BranchVector(shallower)) >= base - 1e-9


def test_combine_bound_paper_rows():
    # degree-5 row: Branch5 measure combined with the degree-5 n-base
    d = combine_bound(0.37997, 0.09725, math.log(1.17354))
    assert abs(math.exp(d) - 1.24382) < 1e-4
    # general row: Branch7 measure with the degree-7 n-base
    d = combine_bound(0.02580, 0.21576, math.log(1.19698))
    assert abs(math.exp(d) - 1.25281) < 1e-4


def test_combine_bound_zero_c():
    assert combine_bound(1.0, 2.0, 0.0) == 0.0


def test_combine_bound_domain_error():
    with pytest.raises(InputDomainError):
        combine_bound(0.0, 1.0, 0.0)


def test_combine_bound_sanity_inequalities():
    rng = random.Random(7)
    for _ in range(100):
        a, b, c = (rng.uniform(0, 1) for _ in range(3))
        if a + 2 * c == 0:
            continue
        d = combine_bound(a, b, c)
        assert d <= a + b + 1e-12
        if b <= 2 * c:
            assert d <= 2 * c + 1e-12


def test_measure_text_roundtrip():
    for m in (MU1, MU2, pure_k()):
        assert parse_measure_tokens(format_measure(m).split()) == m


def test_parse_measure_tokens_cli_style():
    m = parse_measure_tokens(["k-mode", "a=1"])
    assert m == pure_k()
    m = parse_measure_tokens(["n-mode", "b3=0.106"])
    assert m == MU1
    with pytest.raises(InputDomainError):
        parse_measure_tokens(["x-mode"])
    with pytest.raises(InputDomainError):
        parse_measure_tokens(["k-mode", "zz=1"])
