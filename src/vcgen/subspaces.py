"""The 19-way partition of subcubic instances and its per-subspace data.

Each subspace is defined by a structure detector, with all earlier
detectors negated.  Detectors are written over a degree function so they
run both on concrete instances (graph degree) and on local configurations
(true degree over complete edges only), where a structure counts only when
it is certain in every host graph.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .branching import SubspaceAssertions
from .configs import LocalConfiguration
from .errors import InputDomainError
from .graphs import Graph, cycle_graph, enumerate_cycles

SUBSPACE_IDS = tuple(range(1, 20))

DegreeFn = Callable[[int], int]


def _cycle_edges(c: tuple[int, ...]) -> frozenset[frozenset[int]]:
    return frozenset(
        frozenset((c[i], c[(i + 1) % len(c)])) for i in range(len(c))
    )


class _Structures:
    """Cycle inventory of one graph, shared by all detectors and searched
    only up to the longest length a detector has asked for.

    scan, by default every vertex, holds every vertex of degree at most 2
    under deg (it may hold more); the degree detectors look only there.
    """

    def __init__(self, g: Graph, deg: DegreeFn, scan: Optional[Iterable[int]] = None):
        self.g = g
        self.deg = deg
        self.low = [v for v in (g.vertices if scan is None else scan) if deg(v) <= 2]
        self._searched = 0
        self._cycles: dict[int, list[tuple[int, ...]]] = {}

    def cycles(self, length: int) -> list[tuple[int, ...]]:
        if length > self._searched:
            self._searched, self._cycles = length, {}
            for c in enumerate_cycles(self.g, length):
                self._cycles.setdefault(len(c), []).append(c)
        return self._cycles.get(length, [])

    def degree_le1(self) -> bool:
        return any(self.deg(v) <= 1 for v in self.low)

    def deg3_with_two_deg2_neighbors(self) -> bool:
        seen: set[int] = set()
        for u in self.low:
            if self.deg(u) != 2:
                continue
            for v in self.g.neighbors(u):
                if self.deg(v) == 3:
                    if v in seen:
                        return True
                    seen.add(v)
        return False

    def cycle_with_one_deg2(self, length: int) -> bool:
        """A cycle of the given length with one vertex of degree 2 and all
        others of degree 3: a degree-2 vertex on two edges of g, and a
        path of length - 2 edges between its neighbours."""
        for x in self.low:
            if self.deg(x) == 2 and self.g.degree(x) == 2:
                a, b = self.g.neighbors(x)
                if self.deg(a) == 3 and self._deg3_path(a, b, length - 2, {x, a}):
                    return True
        return False

    def _deg3_path(self, u: int, end: int, edges: int, on_path: set[int]) -> bool:
        """A simple path of the given number of edges from u to end, off
        on_path, through vertices of degree 3 only."""
        if edges == 1:
            return self.g.has_edge(u, end) and self.deg(end) == 3
        for w in self.g.neighbors(u):
            if w not in on_path and w != end and self.deg(w) == 3:
                on_path.add(w)
                if self._deg3_path(w, end, edges - 1, on_path):
                    return True
                on_path.remove(w)
        return False

    def degree2(self) -> bool:
        return any(self.deg(v) == 2 for v in self.low)

    def has_cycle(self, length: int) -> bool:
        return bool(self.cycles(length))

    def cycles_sharing(self, len_a: int, len_b: int, shared: int, exact: bool) -> bool:
        a_list = self.cycles(len_a)
        b_list = self.cycles(len_b)
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


def _detector(sid: int) -> Callable[[_Structures], bool]:
    table: dict[int, Callable[[_Structures], bool]] = {
        1: _Structures.degree_le1,
        2: _Structures.deg3_with_two_deg2_neighbors,
        3: lambda s: s.cycle_with_one_deg2(4),
        4: lambda s: s.cycle_with_one_deg2(5),
        5: lambda s: s.cycle_with_one_deg2(6),
        6: _Structures.degree2,
        7: lambda s: s.has_cycle(3),
        8: lambda s: s.has_cycle(4),
        9: lambda s: s.cycles_sharing(5, 5, 1, exact=False),
        10: lambda s: s.cycles_sharing(5, 7, 1, exact=False),
        11: lambda s: s.has_cycle(5),
        12: lambda s: s.cycles_sharing(6, 6, 1, exact=False),
        13: lambda s: s.has_cycle(6),
        14: lambda s: s.cycles_sharing(7, 7, 3, exact=True),
        15: lambda s: s.cycles_sharing(7, 7, 2, exact=True),
        16: lambda s: s.cycles_sharing(7, 7, 1, exact=True),
        17: lambda s: s.has_cycle(7),
        18: lambda s: s.has_cycle(8),
    }
    return table[sid]


def classify(g: Graph) -> int:
    """Smallest subspace whose structure is present; 19 when none is."""
    if g.max_degree() > 3:
        raise InputDomainError("classification requires maximum degree 3")
    s = _Structures(g, g.degree, g.low_degree())
    for sid in range(1, 19):
        if _detector(sid)(s):
            return sid
    return 19


def forbidden_by(l: LocalConfiguration, a: SubspaceAssertions) -> Optional[int]:
    """Smallest subspace excluded by the assertions whose structure is
    certain in l; None when there is none."""
    s = _Structures(l.h, l.true_degree)
    for sid in a.excluded_subspaces:
        if _detector(sid)(s):
            return sid
    return None


def subspace_name(sid: int) -> str:
    return f"P{sid}"


def parse_subspace(name: str) -> int:
    text = name.upper().lstrip("P")
    try:
        sid = int(text)
    except ValueError:
        raise InputDomainError(f"bad subspace name {name!r}") from None
    if sid not in SUBSPACE_IDS:
        raise InputDomainError(f"subspace id {sid} outside 1..19")
    return sid


def _shared_cycles_config(lens: tuple[int, int], shared_path: int) -> LocalConfiguration:
    """Two cycles of the given lengths sharing a path of `shared_path` edges,
    every vertex at true degree 3."""
    la, lb = lens
    a = list(range(la))
    edges = [(a[i], a[(i + 1) % la]) for i in range(la)]
    # second cycle reuses vertices 0..shared_path then fresh ones
    fresh = list(range(la, la + lb - shared_path - 1))
    b_path = list(range(shared_path + 1)) + fresh
    edges += [(b_path[i], b_path[i + 1]) for i in range(shared_path, len(b_path) - 1)]
    edges.append((b_path[-1], 0))
    g = Graph(range(la + len(fresh)), edges)
    return LocalConfiguration(g, {v: 3 - g.degree(v) for v in g.vertices})


def _cycle_with_one_deg2(length: int) -> LocalConfiguration:
    g = cycle_graph(length)
    d = {v: 1 for v in range(1, length)}
    return LocalConfiguration(g, d)


def root_config(sid: int) -> LocalConfiguration:
    """The subspace's defining structure as an anchoring configuration."""
    if sid == 1:
        return LocalConfiguration(Graph([0]), {0: 1})
    if sid == 2:
        g = Graph(range(3), [(0, 1), (0, 2)])
        return LocalConfiguration(g, {0: 1, 1: 1, 2: 1})
    if sid in (3, 4, 5):
        return _cycle_with_one_deg2(sid + 1)
    if sid == 6:
        return LocalConfiguration(Graph([0]), {0: 2})
    if sid in (7, 8, 11, 13, 17, 18):
        length = {7: 3, 8: 4, 11: 5, 13: 6, 17: 7, 18: 8}[sid]
        g = cycle_graph(length)
        return LocalConfiguration(g, {v: 1 for v in range(length)})
    if sid == 9:
        return _shared_cycles_config((5, 5), 1)
    if sid == 10:
        return _shared_cycles_config((5, 7), 1)
    if sid == 12:
        return _shared_cycles_config((6, 6), 1)
    if sid == 14:
        return _shared_cycles_config((7, 7), 3)
    if sid == 15:
        return _shared_cycles_config((7, 7), 2)
    if sid == 16:
        return _shared_cycles_config((7, 7), 1)
    if sid == 19:
        return LocalConfiguration(Graph([0]), {0: 3})
    raise InputDomainError(f"subspace id {sid} outside 1..19")


def assertions_for(sid: int) -> SubspaceAssertions:
    if sid not in SUBSPACE_IDS:
        raise InputDomainError(f"subspace id {sid} outside 1..19")
    return SubspaceAssertions(
        no_degree_le1=sid >= 2,
        no_deg3_with_two_deg2=sid >= 3,
        no_degree_2=sid >= 7,
        excluded_subspaces=tuple(range(1, sid)),
    )
