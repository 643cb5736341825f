"""Simple undirected graphs, instances, and the exact vertex-cover oracle.

Vertices are dense non-negative integers.  Deleting vertices leaves gaps in
the identifier space on purpose: embeddings computed before a deletion stay
valid afterwards.  All values are immutable; every operation returns a new
graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .errors import CapacityError, InputDomainError

ORACLE_CAP = 24
MAX_DEGREE = 3  # every graph and configuration vcgen handles is subcubic


class Graph:
    """Immutable simple undirected graph over integer vertex ids."""

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

    def max_degree(self) -> int:
        return max((len(ns) for ns in self._adj.values()), default=0)

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
        adj = self._adj.copy()
        touched: set[int] = set()
        for v in s:
            touched.update(adj.pop(v))
        touched -= s
        for u in touched:
            adj[u] = adj[u] - s
        low = self._low
        if low is not None:  # only neighbours of removed vertices lose degree
            low = low.difference(s).union([u for u in touched if len(adj[u]) <= 2])
        return Graph._from_adj(adj, low)

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise InputDomainError(f"self-loop at vertex {u}")
        adj = dict(self._adj)
        adj[u] = adj.get(u, frozenset()) | {v}
        adj[v] = adj.get(v, frozenset()) | {u}
        low = None
        if self._low is not None:
            grown = {x for x in (u, v) if len(adj[x]) > 2}
            low = (self._low | {u, v}) - grown
        return Graph._from_adj(adj, low)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._vertices, frozenset(self.edges())))

    def __repr__(self) -> str:
        return f"Graph({sorted(self._vertices)}, {list(self.edges())})"


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

    def cover(self, mask: int | None = None) -> frozenset[int]:
        """A deterministic minimum vertex cover of the masked subgraph."""
        if mask is None:
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


def vc_cover(g: Graph) -> frozenset[int]:
    """A deterministic minimum vertex cover witness."""
    return VertexCoverSolver(g).cover()


def enumerate_cycles(
    g: Graph,
    max_len: int,
    keep: Optional[Callable[[list[int], int], bool]] = None,
    starts: Optional[Iterable[int]] = None,
) -> list[tuple[int, ...]]:
    """Every simple cycle of length 3..max_len, once, in canonical rotation.

    Canonical form: the sequence starts at the cycle's smallest vertex and
    proceeds toward the smaller of its two cycle neighbors.  With keep, a
    search path is extended by w only when keep(path, w) holds, so only the
    cycles all of whose canonical prefixes keep admits are found.  With
    starts, only the cycles whose smallest vertex is in starts are found.
    """
    assert max_len <= 8, "cycle search is capped at length 8"
    cycles: list[tuple[int, ...]] = []
    order = sorted(g.vertices if starts is None else starts)

    def extend(start: int, path: list[int], on_path: set[int]) -> None:
        last = path[-1]
        for w in sorted(g.neighbors(last)):
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:  # each cycle found once per direction
                    cycles.append(tuple(path))
            elif w > start and w not in on_path and len(path) < max_len:
                if keep is not None and not keep(path, w):
                    continue
                path.append(w)
                on_path.add(w)
                extend(start, path, on_path)
                on_path.remove(w)
                path.pop()

    for s in order:
        extend(s, [s], {s})
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
    return _parse(text, want_budget=False)[0]


def parse_instance(text: str) -> Instance:
    g, budget = _parse(text, want_budget=True)
    if budget is None:
        raise InputDomainError("instance file is missing a 'k <budget>' line")
    return Instance(g, budget)


def _int_field(field: str, lineno: int, line: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise InputDomainError(f"line {lineno}: {field!r} is not an integer in {line!r}") from None


def _parse(text: str, want_budget: bool) -> tuple[Graph, int | None]:
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
