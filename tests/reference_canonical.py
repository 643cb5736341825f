"""Canonical forms by the direct search, kept as the oracle of
tests/test_canonical_differential.py.

The refined colour blocks are listed in colour order, every order in the
product of their permutations is encoded pair by pair through has_edge, and
a running best keeps the first order whose encoding is least.  The caps,
their checks and their messages are those of vcgen.configs.
"""

from __future__ import annotations

import itertools

from vcgen.configs import CANONICAL_CAP, _PERM_BUDGET, LocalConfiguration, _refined_colors
from vcgen.errors import CapacityError


def canonical_order(l: LocalConfiguration) -> list[list[int]]:
    colors = _refined_colors(l)
    blocks: dict[tuple, list[int]] = {}
    for v in sorted(l.h.vertices):
        blocks.setdefault(colors[v], []).append(v)
    return [blocks[c] for c in sorted(blocks)]


def encode(l: LocalConfiguration, perm: list[int]) -> bytes:
    """Encoding of l under the vertex order perm (position -> old vertex)."""
    n = len(perm)
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if l.h.has_edge(perm[i], perm[j]):
                bits[idx >> 3] |= 1 << (idx & 7)
            idx += 1
    header = bytes([n]) + bytes(l.d[v] for v in perm)
    return header + bytes(bits)


def canonical_form(l: LocalConfiguration) -> tuple[bytes, list[int]]:
    """The least encoding and the first order found that realizes it."""
    if len(l.h) > CANONICAL_CAP:
        raise CapacityError(f"canonicalization capped at {CANONICAL_CAP} vertices")
    blocks = canonical_order(l)
    total = 1
    for blk in blocks:
        for i in range(2, len(blk) + 1):
            total *= i
        if total > _PERM_BUDGET:
            raise CapacityError("too many candidate orderings for canonicalization")
    best: bytes | None = None
    best_perm: list[int] | None = None
    for parts in itertools.product(*[itertools.permutations(blk) for blk in blocks]):
        perm = [v for part in parts for v in part]
        enc = encode(l, perm)
        if best is None or enc < best:
            best, best_perm = enc, perm
    assert best is not None and best_perm is not None
    return best, best_perm
