"""Boundary requirements and their reduction to a crucial set.

A requirement R names the boundary vertices the unseen exterior forces into
the cover.  Ordering requirements by the exact-cover test
VC(H-R) = VC(H-R-v) + 1 yields an acyclic relation whose sources are enough
to certify every branch; those sources are the crucial set.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .configs import LocalConfiguration
from .errors import CapacityError
from .graphs import VertexCoverSolver

BOUNDARY_CAP = 12

Requirement = frozenset[int]


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
        self._crucial: tuple[Requirement, ...] | None = None
        self._requirements: dict[Requirement, tuple[int, int]] = {}

    def _forced(self, req_mask: int, v_bit: int) -> bool:
        """True iff adding v to the requirement costs no extra cover vertex,
        which directs the DAG edge (R + v) -> R."""
        return self._vc_req[req_mask] == self._vc_req[req_mask | v_bit] + 1

    def _vc_table(self) -> list[int]:
        """vc(H - S) for every S within the boundary, indexed by S's bits
        over self.delta.  A maximum independent set of H - S is an
        independent J within delta - S plus one of I - N(J), I the interior;
        so with f(J) = |J| + alpha(I - N(J)), and f = -1 (below every f >= 0)
        on dependent J, alpha(H - S) is the maximum of f over the subsets of
        delta - S, which one subset-maximum transform gives for every S."""
        solver, n = self.solver, len(self.delta)
        bits = [solver.mask_of((v,)) for v in self.delta]
        nbrs = [solver.mask_of(self.config.h.neighbors(v)) for v in self.delta]
        interior = self._full & ~solver.mask_of(self.delta)
        size = 1 << n
        f = [-1] * size
        reach = [0] * size  # N(J), over the solver's bits
        f[0] = interior.bit_count() - solver.vc(interior)
        for j in range(1, size):
            low = j & -j
            rest, i = j ^ low, low.bit_length() - 1
            if f[rest] < 0 or reach[rest] & bits[i]:
                continue
            reach[j] = reach[rest] | nbrs[i]
            free = interior & ~reach[j]
            f[j] = j.bit_count() + free.bit_count() - solver.vc(free)
        for i in range(n):
            bit = 1 << i
            for j in range(size):
                if j & bit and f[j ^ bit] > f[j]:
                    f[j] = f[j ^ bit]
        total = self._full.bit_count()
        return [total - s.bit_count() - f[(size - 1) ^ s] for s in range(size)]

    def crucial_set(self) -> tuple[Requirement, ...]:
        if self._crucial is not None:
            return self._crucial
        d = self.delta
        n = len(d)
        self._vc_req = self._vc_table()
        crucial: list[Requirement] = []
        for mask in range(1 << n):
            incoming = False
            for i in range(n):
                bit = 1 << i
                if mask & bit:
                    # edge (mask - v) -> mask unless v is forced there
                    if not self._forced(mask & ~bit, bit):
                        incoming = True
                        break
                else:
                    # edge (mask + v) -> mask iff v is forced at mask
                    if self._forced(mask, bit):
                        incoming = True
                        break
            if not incoming:
                crucial.append(frozenset(d[i] for i in range(n) if mask >> i & 1))
        self._crucial = tuple(crucial)
        return self._crucial

    def cover_mask(self, b: Iterable[int], reqs: Sequence[Requirement]) -> int:
        """Bit i set iff b satisfies reqs[i] (the Algorithm-3 test): b extends
        some minimum cover of H - R, that is vc(H - R) = vc(H - R - b) + |b - R|.
        Each requirement's mask and vc(H - R) are computed once."""
        solver, full, known = self.solver, self._full, self._requirements
        b_mask = solver.mask_of(b)
        out = 0
        for i, req in enumerate(reqs):
            if req not in known:
                r_mask = solver.mask_of(req)
                known[req] = (r_mask, solver.vc(full & ~r_mask))
            r_mask, base = known[req]
            if base == solver.vc(full & ~(r_mask | b_mask)) + (b_mask & ~r_mask).bit_count():
                out |= 1 << i
        return out

    def satisfies(self, b: Iterable[int], req: Requirement) -> bool:
        """Algorithm-3 test: b extends some minimum cover of H - req."""
        return self.cover_mask(b, (req,)) == 1
