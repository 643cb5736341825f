"""Simple undirected graphs, instances, and the exact vertex-cover oracle.

Vertices are dense non-negative integers.  Deleting vertices leaves gaps in
the identifier space on purpose: embeddings computed before a deletion stay
valid afterwards.  Graphs are immutable; every operation returns a new
graph.  A WorkingGraph takes a run of edits in place and freezes into one
Graph at the end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import CapacityError, InputDomainError

ORACLE_CAP = 24
MAX_DEGREE = 3  # every graph and configuration vcgen handles is subcubic
CYCLE_SEARCH_CAP = 8  # the longest cycle enumerate_cycles searches for


class Graph:
    """Immutable simple undirected graph over integer vertex ids, of
    maximum degree at most MAX_DEGREE."""

    __slots__ = ("_adj", "_vertices", "_low")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InputDomainError(f"self-loop at vertex {u}")
            adj.setdefault(u, set())
            adj.setdefault(v, set())
            adj[u].add(v)
            adj[v].add(u)
        for v, ns in adj.items():
            _check_degree(v, len(ns))
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}
        self._vertices = frozenset(self._adj)
        self._low = None

    @classmethod
    def _from_adj(
        cls, adj: dict[int, frozenset[int]], low: Optional[frozenset[int]]
    ) -> "Graph":
        """The graph whose adjacency map is adj, taken as it is; low is its
        set of degree-<=2 vertices, or None to compute it when first asked."""
        g = cls.__new__(cls)
        g._adj = adj
        g._vertices = frozenset(adj)
        g._low = low
        return g

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise InputDomainError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def low_degree(self) -> frozenset[int]:
        """The vertices of degree at most 2."""
        if self._low is None:
            self._low = frozenset(v for v, ns in self._adj.items() if len(ns) <= 2)
        return self._low

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each edge once as (u, v) with u < v, sorted."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    def without(self, removed: Iterable[int]) -> "Graph":
        s = set(removed)
        unknown = s - self._vertices
        if unknown:
            raise InputDomainError(f"unknown vertices {sorted(unknown)}")
        work = WorkingGraph(self)
        work.remove(s)
        return work.freeze()

    def with_edge(self, u: int, v: int) -> "Graph":
        work = WorkingGraph(self)
        work.add_edge(u, v)
        return work.freeze()

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph({sorted(self._vertices)}, {list(self.edges())})"


class WorkingGraph:
    """A graph under a run of edits, each of which costs the degrees it
    changes rather than a copy of the graph; freeze() then makes one
    immutable Graph of the result.

    It starts as a view of a Graph and copies the adjacency map at the
    first edit.  Entries stay frozensets and an edit replaces the ones it
    changes, so freeze() takes the map as it is.  The set of degree-<=2
    vertices is kept in step when the source graph has it.
    """

    __slots__ = ("_source", "_adj", "_low")

    def __init__(self, g: Graph):
        self._source = g
        self._adj = g._adj
        self._low: Optional[set[int]] = None

    def _edit(self) -> dict[int, frozenset[int]]:
        if self._adj is self._source._adj:
            self._adj = self._adj.copy()
            low = self._source._low
            self._low = None if low is None else set(low)
        return self._adj

    @property
    def vertices(self):
        return self._adj.keys()

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def remove(self, removed: Iterable[int]) -> set[int]:
        """Delete the vertices and their edges; returns the vertices left
        whose neighbour sets changed."""
        adj = self._edit()
        s = set(removed)
        touched: set[int] = set()
        for v in s:
            touched.update(adj.pop(v))
        touched -= s
        low = self._low
        if low is not None:
            low -= s
        for u in touched:  # only neighbours of removed vertices lose degree
            ns = adj[u] = adj[u] - s
            if low is not None and len(ns) <= 2:
                low.add(u)
        return touched

    def add_edge(self, u: int, v: int) -> None:
        """Join u and v, adding either when it is not yet a vertex."""
        if u == v:
            raise InputDomainError(f"self-loop at vertex {u}")
        nu = self._adj.get(u, frozenset()) | {v}
        nv = self._adj.get(v, frozenset()) | {u}
        _check_degree(u, len(nu))
        _check_degree(v, len(nv))
        adj = self._edit()
        adj[u], adj[v] = nu, nv
        if self._low is not None:
            for x in (u, v):
                if len(adj[x]) <= 2:
                    self._low.add(x)
                else:
                    self._low.discard(x)

    def freeze(self) -> Graph:
        """The graph as edited so far; later edits start from a new copy."""
        if self._adj is not self._source._adj:
            low = None if self._low is None else frozenset(self._low)
            self._source = Graph._from_adj(self._adj, low)
        return self._source


def _check_degree(v: int, degree: int) -> None:
    if degree > MAX_DEGREE:
        raise InputDomainError(f"vertex {v} has degree {degree}, above {MAX_DEGREE}")


@dataclass(frozen=True)
class Instance:
    """A vertex-cover instance: graph plus budget k (may go negative)."""

    graph: Graph
    budget: int

    def __repr__(self) -> str:
        return f"Instance(n={len(self.graph)}, m={self.graph.edge_count()}, k={self.budget})"


class VertexCoverSolver:
    """Exact minimum vertex cover on masks of one base graph.

    Built once per graph, then queried for many induced subgraphs; all
    results are memoized by vertex mask.  Branches on a maximum-degree
    vertex (take it, or take its whole neighborhood), which is instant at
    the sizes the oracle cap admits.
    """

    def __init__(self, g: Graph):
        if len(g) > ORACLE_CAP:
            raise CapacityError(f"oracle limited to {ORACLE_CAP} vertices, got {len(g)}")
        self._order = sorted(g.vertices)
        self._index = {v: i for i, v in enumerate(self._order)}
        self._nbr = [
            sum(1 << self._index[u] for u in g.neighbors(v)) for v in self._order
        ]
        self.full_mask = (1 << len(self._order)) - 1
        self._memo: dict[int, int] = {0: 0}

    def mask_of(self, vs: Iterable[int]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self._index[v]
        return m

    def vc(self, mask: int | None = None) -> int:
        """Minimum vertex cover size of the subgraph induced by mask."""
        if mask is None:
            mask = self.full_mask
        try:
            return self._memo[mask]
        except KeyError:
            pass
        best_v, best_deg = -1, 0
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (self._nbr[i] & mask).bit_count()
            if deg > best_deg:
                best_v, best_deg = i, deg
        if best_deg == 0:
            self._memo[mask] = 0
            return 0
        if best_deg == 1:
            # remaining graph is a perfect matching on the covered part
            count = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                if self._nbr[i] & mask:
                    count += 1
            self._memo[mask] = count // 2
            return count // 2
        take = 1 + self.vc(mask & ~(1 << best_v))
        nbrs = self._nbr[best_v] & mask
        leave = nbrs.bit_count() + self.vc(mask & ~nbrs & ~(1 << best_v))
        result = min(take, leave)
        self._memo[mask] = result
        return result

    def minimum_covers(self, mask: int) -> list[int]:
        """Every minimum vertex cover of the subgraph induced by mask, as
        masks.  The lowest vertex v with an edge is either in the cover, when
        vc drops by one without it, or not, and then its neighbourhood is,
        when that is optimal; the two cases are disjoint, so no cover comes
        out twice."""
        m = mask
        while m:
            low = m & -m
            nbrs = self._nbr[low.bit_length() - 1] & mask
            if nbrs:
                break
            m ^= low
        else:
            return [0]
        target = self.vc(mask)
        covers = []
        if self.vc(mask ^ low) == target - 1:
            covers += [c | low for c in self.minimum_covers(mask ^ low)]
        rest = mask & ~nbrs & ~low
        if nbrs.bit_count() + self.vc(rest) == target:
            covers += [c | nbrs for c in self.minimum_covers(rest)]
        return covers

    def cover(self) -> frozenset[int]:
        """A deterministic minimum vertex cover of the graph."""
        mask = self.full_mask
        chosen: set[int] = set()
        while True:
            target = self.vc(mask)
            if target == 0:
                break
            # pick the smallest vertex that belongs to some optimal cover
            for i in range(len(self._order)):
                bit = 1 << i
                if not (mask & bit) or not (self._nbr[i] & mask):
                    continue
                if self.vc(mask & ~bit) == target - 1:
                    chosen.add(self._order[i])
                    mask &= ~bit
                    break
            else:  # pragma: no cover - unreachable on consistent memo
                raise AssertionError("no vertex extends an optimal cover")
        return frozenset(chosen)


def vc_oracle(g: Graph) -> int:
    """Exact minimum vertex cover size; deterministic, capped at 24 vertices."""
    return VertexCoverSolver(g).vc()


def enumerate_cycles(
    g,
    max_len: int,
    keep: Optional[Callable[[list[int], int], bool]] = None,
    through: Optional[Iterable[int]] = None,
) -> list[tuple[int, ...]]:
    """Every simple cycle of length 3..max_len with a vertex in through
    (default: every vertex), once, in canonical rotation, sorted.  g is a
    Graph or a WorkingGraph.

    Canonical form: the sequence starts at the cycle's smallest vertex and
    proceeds toward the smaller of its two cycle neighbors.  Each cycle is
    searched from its smallest vertex in through, and a search path is
    extended by w only when keep(path, w) holds, so keep must admit every
    rotation and direction of the cycles it keeps.
    """
    assert max_len <= CYCLE_SEARCH_CAP, f"cycle search is capped at length {CYCLE_SEARCH_CAP}"
    through = g.vertices if through is None else set(through)
    cycles: list[tuple[int, ...]] = []

    def extend(start: int, path: list[int], on_path: set[int]) -> None:
        last = path[-1]
        for w in g.neighbors(last):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:  # each cycle found once per direction
                    cycles.append(tuple(path))
            elif (
                (w > start or w not in through)
                and w not in on_path
                and len(path) < max_len
            ):
                if keep is not None and not keep(path, w):
                    continue
                path.append(w)
                on_path.add(w)
                extend(start, path, on_path)
                on_path.remove(w)
                path.pop()

    for s in through:
        extend(s, [s], {s})
    for i, cyc in enumerate(cycles):
        j = cyc.index(min(cyc))
        cyc = cyc[j:] + cyc[:j]
        cycles[i] = cyc if cyc[1] < cyc[-1] else cyc[:1] + cyc[:0:-1]
    cycles.sort()
    return cycles


# -- text format -----------------------------------------------------------
#
# c <comment>
# p vc <n> <m>
# e <u> <v>          (m lines, 0-based endpoints)
# k <budget>         (instances only)
#
# Vertices are written densely 0..n-1; graphs with identifier gaps are
# renumbered in sorted order on output.


def format_graph(g: Graph) -> str:
    order = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(order)}
    lines = [f"p vc {len(order)} {g.edge_count()}"]
    lines.extend(f"e {pos[u]} {pos[v]}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def format_instance(inst: Instance) -> str:
    return format_graph(inst.graph) + f"k {inst.budget}\n"


def parse_graph(text: str) -> Graph:
    return _parse(text)[0]


def parse_instance(text: str) -> Instance:
    g, budget = _parse(text)
    if budget is None:
        raise InputDomainError("instance file is missing a 'k <budget>' line")
    return Instance(g, budget)


def _int_field(field: str, lineno: int, line: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise InputDomainError(f"line {lineno}: {field!r} is not an integer in {line!r}") from None


def _parse(text: str) -> tuple[Graph, int | None]:
    n = m = None
    edges: list[tuple[int, int]] = []
    seen: set[frozenset[int]] = set()
    budget: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4 or parts[1] != "vc":
                raise InputDomainError(f"line {lineno}: bad problem line {line!r}")
            if n is not None:
                raise InputDomainError(f"line {lineno}: second problem line {line!r}")
            n = _int_field(parts[2], lineno, line)
            m = _int_field(parts[3], lineno, line)
            if n < 0 or m < 0:
                raise InputDomainError(f"line {lineno}: negative count in {line!r}")
        elif parts[0] == "e":
            if len(parts) != 3:
                raise InputDomainError(f"line {lineno}: bad edge line {line!r}")
            if n is None:
                raise InputDomainError(f"line {lineno}: edge line before the problem line")
            u, v = _int_field(parts[1], lineno, line), _int_field(parts[2], lineno, line)
            if not (0 <= u < n and 0 <= v < n):
                raise InputDomainError(f"line {lineno}: edge ({u}, {v}) outside 0..{n - 1}")
            if frozenset((u, v)) in seen:
                raise InputDomainError(f"line {lineno}: repeated edge ({u}, {v})")
            seen.add(frozenset((u, v)))
            edges.append((u, v))
        elif parts[0] == "k":
            if len(parts) != 2:
                raise InputDomainError(f"line {lineno}: bad budget line {line!r}")
            if budget is not None:
                raise InputDomainError(f"line {lineno}: second budget line {line!r}")
            budget = _int_field(parts[1], lineno, line)
        else:
            raise InputDomainError(f"line {lineno}: unknown directive {line!r}")
    if n is None:
        raise InputDomainError("missing 'p vc <n> <m>' header")
    if len(edges) != m:
        raise InputDomainError(f"problem line declares {m} edges, found {len(edges)}")
    return Graph(range(n), edges), budget


# -- small named graphs (used across tests and demos) -----------------------


def complete_graph(n: int) -> Graph:
    return Graph(range(n), itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(range(10), outer + inner + spokes)
