"""Cycle searches that vcgen.simplify and vcgen.subspaces used before they
searched only what each step can use, kept unchanged as oracles for
tests/test_cycles_differential.py.

rule5_sites lists every cycle of length up to 8 and then filters it by the
degree pattern.  Structures lists every cycle of length up to 8 once, when
it is built, and the detectors read that inventory; classify and
forbidden_by run them in the same order as vcgen.subspaces.

The detectors of P9, P10 and P12 ask for two cycles that share exactly one
edge, as their roots do: two 5-cycles that share a path of two edges hold
no P9 root, and a table anchors only the instances that hold its root.
"""

from __future__ import annotations

from typing import Callable, Optional

from vcgen.branching import SubspaceAssertions
from vcgen.configs import LocalConfiguration
from vcgen.errors import InputDomainError
from vcgen.graphs import Graph, enumerate_cycles
from vcgen.simplify import CYCLE_SEARCH_CAP, SimplificationSite

DegreeFn = Callable[[int], int]


def rule5_sites(g: Graph, deg: DegreeFn):
    for cyc in enumerate_cycles(g, CYCLE_SEARCH_CAP):
        if len(cyc) % 2:
            continue
        if all(deg(x) == 2 for x in cyc):
            yield SimplificationSite(5, cyc)
            continue
        for parity in (0, 1):
            ok = all(
                (deg(x) == 2) if i % 2 == parity else (deg(x) > 2)
                for i, x in enumerate(cyc)
            )
            if ok:
                yield SimplificationSite(5, cyc)
                break


def _cycles_by_length(g: Graph) -> dict[int, list[tuple[int, ...]]]:
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for c in enumerate_cycles(g, 8):
        by_len.setdefault(len(c), []).append(c)
    return by_len


def _cycle_edges(c: tuple[int, ...]) -> frozenset[frozenset[int]]:
    return frozenset(
        frozenset((c[i], c[(i + 1) % len(c)])) for i in range(len(c))
    )


class Structures:
    """Cycle inventory of one graph, shared by all detectors."""

    def __init__(self, g: Graph, deg: DegreeFn):
        self.g = g
        self.deg = deg
        self.cycles = _cycles_by_length(g)

    def degree_le1(self) -> bool:
        return any(self.deg(v) <= 1 for v in self.g.vertices)

    def deg3_with_two_deg2_neighbors(self) -> bool:
        return any(
            self.deg(v) == 3
            and sum(1 for u in self.g.neighbors(v) if self.deg(u) == 2) >= 2
            for v in self.g.vertices
        )

    def cycle_with_profile(self, length: int, n3: int, n2: int) -> bool:
        for c in self.cycles.get(length, ()):  # exact degree multiset
            d3 = sum(1 for v in c if self.deg(v) == 3)
            d2 = sum(1 for v in c if self.deg(v) == 2)
            if d3 == n3 and d2 == n2:
                return True
        return False

    def degree2(self) -> bool:
        return any(self.deg(v) == 2 for v in self.g.vertices)

    def has_cycle(self, length: int) -> bool:
        return bool(self.cycles.get(length))

    def cycles_sharing(self, len_a: int, len_b: int, shared: int, exact: bool) -> bool:
        a_list = self.cycles.get(len_a, ())
        b_list = self.cycles.get(len_b, ())
        for i, ca in enumerate(a_list):
            ea = _cycle_edges(ca)
            if len_a == len_b:
                others = a_list[i + 1 :]
            else:
                others = b_list
            for cb in others:
                common = len(ea & _cycle_edges(cb))
                if (common == shared) if exact else (common >= shared):
                    return True
        return False


DETECTORS: dict[int, Callable[[Structures], bool]] = {
    1: Structures.degree_le1,
    2: Structures.deg3_with_two_deg2_neighbors,
    3: lambda s: s.cycle_with_profile(4, 3, 1),
    4: lambda s: s.cycle_with_profile(5, 4, 1),
    5: lambda s: s.cycle_with_profile(6, 5, 1),
    6: Structures.degree2,
    7: lambda s: s.has_cycle(3),
    8: lambda s: s.has_cycle(4),
    9: lambda s: s.cycles_sharing(5, 5, 1, exact=True),
    10: lambda s: s.cycles_sharing(5, 7, 1, exact=True),
    11: lambda s: s.has_cycle(5),
    12: lambda s: s.cycles_sharing(6, 6, 1, exact=True),
    13: lambda s: s.has_cycle(6),
    14: lambda s: s.cycles_sharing(7, 7, 3, exact=True),
    15: lambda s: s.cycles_sharing(7, 7, 2, exact=True),
    16: lambda s: s.cycles_sharing(7, 7, 1, exact=True),
    17: lambda s: s.has_cycle(7),
    18: lambda s: s.has_cycle(8),
}


def classify(g: Graph) -> int:
    if max((g.degree(v) for v in g.vertices), default=0) > 3:
        raise InputDomainError("classification requires maximum degree 3")
    s = Structures(g, g.degree)
    for sid in range(1, 19):
        if DETECTORS[sid](s):
            return sid
    return 19


def forbidden_by(l: LocalConfiguration, a: SubspaceAssertions) -> Optional[int]:
    s = Structures(l.h, l.true_degree)
    for sid in a.excluded_subspaces:
        if DETECTORS[sid](s):
            return sid
    return None
