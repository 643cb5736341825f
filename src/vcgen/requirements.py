"""Boundary requirements and their reduction to a crucial set.

A requirement R names the boundary vertices the unseen exterior forces into
the cover.  Ordering requirements by the exact-cover test
VC(H-R) = VC(H-R-v) + 1 yields an acyclic relation whose sources are enough
to certify every branch; those sources are the crucial set.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Iterable, NamedTuple, Sequence

from .configs import LocalConfiguration
from .errors import CapacityError
from .graphs import ORACLE_CAP, VertexCoverSolver

BOUNDARY_CAP = 12

# vc_table packs values of at most ORACLE_CAP + 1 into byte-wide fields whose
# top bit guards the carry-free compares
assert ORACLE_CAP + 1 < 0x80

Requirement = frozenset[int]


class _FieldMasks(NamedTuple):
    """Constants over 2^n byte-wide fields, field S for boundary subset S:
    `ones` holds 1 and `guards` 0x80 in every field, `sizes` holds |S|, and
    clears[i] holds 0xFF in each field without bit i."""
    ones: int
    guards: int
    sizes: int
    clears: tuple[int, ...]


@cache
def _field_masks(n: int) -> _FieldMasks:
    everything = (1 << (8 << n)) - 1
    ones = everything // 0xFF
    sizes, clears = 0, []
    for i in range(n):
        w = 8 << i
        block = (1 << w) - 1  # 2^i fields of 0xFF, repeated every 2^(i+1) fields
        clears.append(everything // ((1 << 2 * w) - 1) * block)
        sizes |= (sizes + block // 0xFF) << w
    return _FieldMasks(ones, ones << 7, sizes, tuple(clears))


def _field_max(a: int, b: int, guards: int) -> int:
    """The field-wise maximum of two packed tables with fields below 0x80:
    a field's guard bit survives (a | guard) - b iff a >= b there, and
    spreads over the field as the select mask."""
    ge = ((a | guards) - b) & guards
    return b ^ ((a ^ b) & (ge | (ge - (ge >> 7))))


class RequirementContext:
    """Shared vertex-cover solver plus requirement arithmetic for one
    configuration; built once, queried many times during generation."""

    def __init__(self, l: LocalConfiguration):
        self.config = l
        self.delta = tuple(sorted(l.boundary()))
        if len(self.delta) > BOUNDARY_CAP:
            raise CapacityError(
                f"boundary of size {len(self.delta)} exceeds cap {BOUNDARY_CAP}"
            )
        self.solver = VertexCoverSolver(l.h)
        self._full = self.solver.full_mask

    @cached_property
    def vc_table(self) -> list[int]:
        """vc(H - S) for every S within the boundary, indexed by S's bits
        over self.delta.  A maximum independent set of H - S is an
        independent J within delta - S plus one of I - N(J), I the interior;
        so with f(J) = |J| + alpha(I - N(J)), and f = -1 (below every f >= 0)
        on dependent J, alpha(H - S) is the maximum of f over the subsets of
        delta - S.  f + 1 sits in one byte-wide field per subset J of one
        integer, and the subset-maximum transform is one shift and one
        field-wise maximum per boundary bit."""
        solver, n = self.solver, len(self.delta)
        bits = [solver.mask_of((v,)) for v in self.delta]
        nbrs = [solver.mask_of(self.config.h.neighbors(v)) for v in self.delta]
        interior = self._full & ~solver.mask_of(self.delta)
        size = 1 << n
        f = bytearray(size)  # f(J) + 1, 0 on dependent J
        reach = [0] * size  # N(J), over the solver's bits
        f[0] = 1 + interior.bit_count() - solver.vc(interior)
        for j in range(1, size):
            low = j & -j
            rest, i = j ^ low, low.bit_length() - 1
            if not f[rest] or reach[rest] & bits[i]:
                continue
            reach[j] = reach[rest] | nbrs[i]
            free = interior & ~reach[j]
            f[j] = 1 + j.bit_count() + free.bit_count() - solver.vc(free)
        masks = _field_masks(n)
        table = int.from_bytes(f, "little")
        for i, clear in enumerate(masks.clears):
            table = _field_max(table, (table & clear) << (8 << i), masks.guards)
        # field S of the reversed table holds f + 1 at delta - S
        reversed_table = int.from_bytes(table.to_bytes(size, "little"), "big")
        vc = (self._full.bit_count() + 1) * masks.ones - masks.sizes - reversed_table
        return list(vc.to_bytes(size, "little"))

    def crucial_set(self) -> tuple[Requirement, ...]:
        """The sources of the exact-cover DAG.  Removing one vertex from a
        requirement changes vc(H - R) by 0 or 1, and R has no incoming edge
        iff dropping any v of R raises it by one (v is forced at R - v) and
        adding any other boundary v leaves it as it is (v is not forced at
        R).  With vc_table packed one byte-wide field per R, each boundary
        bit is one field-wise equality test over every R at once; the
        crucial R are the fields whose guard bit no test set, in increasing
        mask order."""
        d, n = self.delta, len(self.delta)
        masks = _field_masks(n)
        vc = int.from_bytes(bytes(self.vc_table), "little")
        failed = 0
        for i, clear in enumerate(masks.clears):
            w = 8 << i
            with_v = clear << w
            # vc(H - (R ^ v)) in field R, against vc(H - R) + [v in R]
            flipped = (vc >> w & clear) | (vc << w & with_v)
            failed |= ((flipped ^ (vc + (with_v & masks.ones))) | masks.guards) - masks.ones
        crucial: list[Requirement] = []
        sources = masks.guards & ~failed
        while sources:
            low = sources & -sources
            sources ^= low
            r = (low.bit_length() >> 3) - 1
            crucial.append(frozenset(d[i] for i in range(n) if r >> i & 1))
        return tuple(crucial)

    def cover_masks(self, branches: Iterable[Iterable[int]], reqs: Sequence[Requirement]) -> list[int]:
        """For each branch b, the mask with bit i set iff b satisfies reqs[i]
        (the Algorithm-3 test): b extends some minimum cover of H - R, that
        is vc(H - R) = vc(H - R - b) + |b - R|.  Each requirement's mask and
        vc(H - R), read off vc_table, are looked up once per call."""
        solver, full, delta, vc_table = self.solver, self._full, self.delta, self.vc_table
        vc = solver.vc
        # each requirement R as the vertices H - R keeps, and vc(H - R)
        looked_up = [(full & ~solver.mask_of(req), vc_table[sum(1 << delta.index(v) for v in req)])
                     for req in reqs]
        out = []
        for b in branches:
            b_mask = solver.mask_of(b)
            mask = 0
            for i, (kept, base) in enumerate(looked_up):
                if base == vc(kept & ~b_mask) + (b_mask & kept).bit_count():
                    mask |= 1 << i
            out.append(mask)
        return out

    def subset_cover_masks(self, reqs: Sequence[Requirement]) -> list[int]:
        """cover_masks of every vertex subset of H at once, indexed by the
        subset's mask over H's sorted vertices (the solver's bits).

        b satisfies R iff b - R lies inside some minimum cover C of H - R,
        that is iff b is a subset of C | R.  So the subsets satisfying R are
        the union, over R's minimum covers, of all subsets of C | R.  Here
        every subset b has one field of `width` bits in one integer, and all
        subsets of a set s, each with R's bit in its field, take one doubling
        shift per vertex of s."""
        solver, full = self.solver, self._full
        nbytes = (len(reqs) + 7) // 8 or 1
        width = 8 * nbytes
        table = 0
        for i, req in enumerate(reqs):
            r = solver.mask_of(req)
            for cover in solver.minimum_covers(full & ~r):
                s, subsets = cover | r, 1 << i
                for j in range(s.bit_length()):
                    if s >> j & 1:
                        subsets |= subsets << (width << j)
                table |= subsets
        data = table.to_bytes(nbytes << full.bit_length(), "little")
        return [int.from_bytes(data[k:k + nbytes], "little") for k in range(0, len(data), nbytes)]

    def satisfies(self, b: Iterable[int], req: Requirement) -> bool:
        """Algorithm-3 test: b extends some minimum cover of H - req."""
        return self.cover_masks([b], (req,)) == [1]
