"""Seeded inputs of the benchmark.

A graph is a plain pair (n, edges) on vertices 0..n-1, so the reference
solver and the checks never depend on vcgen's own types.

The solve workloads use the same graphs in every run, drawn from fixed
deck seeds: fresh random cubic graphs of one size differ by 30% to 100% in
solve time, and so does one graph under a relabelling of its vertices, so a
deck that averaged this out would not fit in one run.  The run's --seed
chooses the trial seeds of solve-rand's random walks and solve-det's deck
of small instances; solve-det's timed search is deterministic, so its
runs differ only by the machine.
"""

from __future__ import annotations

import itertools
import random

Graph = tuple[int, list[tuple[int, int]]]

# Deck seeds are part of the benchmark's definition: changing them changes
# every reference figure in README.md.
RAND_DECK_SEED = "vcgen-bench/solve-rand/deck-1"
DET_DECK_SEED = "vcgen-bench/solve-det/deck-2"

# n -> (graphs, trials per plan); each graph is solved at k = vc and k = vc - 1.
RAND_SIZES = {20: (2, 20), 40: (2, 6), 80: (2, 2), 160: (1, 2)}
RAND_SIZES_SHORT = {20: (1, 8), 40: (1, 2)}
DET_SIZES = (50, 60, 70, 80)
DET_SIZES_SHORT = (12, 16)
ORACLE_DECK = 24
ORACLE_DECK_SHORT = 8


def cubic_graph(rng: random.Random, n: int) -> Graph:
    """Uniform random simple cubic graph on n vertices (pairing model with
    rejection of loops and multi-edges)."""
    if n % 2 or n < 4:
        raise ValueError("a cubic graph needs an even n >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for u, v in zip(points[::2], points[1::2]):
            e = (min(u, v), max(u, v))
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            return n, sorted(edges)


def subcubic_graph(rng: random.Random, n: int) -> Graph:
    """Random simple graph of maximum degree 3 on n vertices."""
    target = rng.randint(n // 2, (3 * n) // 2)
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if len(edges) >= target:
            break
        if deg[u] < 3 and deg[v] < 3:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return n, edges


def rand_deck(short: bool) -> list[Graph]:
    """The solve-rand graphs, in plan order; the same in every run."""
    base = random.Random(RAND_DECK_SEED)
    sizes = RAND_SIZES_SHORT if short else RAND_SIZES
    deck = []
    for n, (count, _) in RAND_SIZES.items():
        graphs = [cubic_graph(base, n) for _ in range(count)]
        deck.extend(graphs[: sizes[n][0]] if n in sizes else ())
    return deck


def det_deck(short: bool) -> list[Graph]:
    """The solve-det graphs; the same in every run."""
    base = random.Random(DET_DECK_SEED)
    return [cubic_graph(base, n) for n in (DET_SIZES_SHORT if short else DET_SIZES)]


def oracle_deck(seed: int, short: bool) -> list[Graph]:
    """Small subcubic graphs that the deterministic engine must decide."""
    rng = random.Random(f"solve-det/oracle/{seed}")
    count, top = (ORACLE_DECK_SHORT, 10) if short else (ORACLE_DECK, 20)
    return [subcubic_graph(rng, rng.randint(3, top)) for _ in range(count)]


def oracle_budgets(seed: int, vcs: list[int]) -> list[int]:
    """Budgets around the optimum, so both answers occur."""
    rng = random.Random(f"solve-det/oracle-budgets/{seed}")
    return [vc + rng.choice((-2, -1, -1, 0, 0, 1)) for vc in vcs]


def is_cover(g: Graph, cover) -> bool:
    """Edge-by-edge check, independent of vcgen."""
    n, edges = g
    cover = set(cover)
    return cover <= set(range(n)) and all(u in cover or v in cover for u, v in edges)
