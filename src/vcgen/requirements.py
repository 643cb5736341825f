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

    def vc_minus(self, vs: Iterable[int]) -> int:
        return self.solver.vc(self._full & ~self.solver.mask_of(vs))

    def _forced(self, req_mask: int, v_bit: int) -> bool:
        """True iff adding v to the requirement costs no extra cover vertex,
        which directs the DAG edge (R + v) -> R."""
        return self._vc_req[req_mask] == self._vc_req[req_mask | v_bit] + 1

    def crucial_set(self) -> tuple[Requirement, ...]:
        if self._crucial is not None:
            return self._crucial
        d = self.delta
        n = len(d)
        self._vc_req = [0] * (1 << n)
        for mask in range(1 << n):
            self._vc_req[mask] = self.vc_minus(d[i] for i in range(n) if mask >> i & 1)
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

    def eb(self, b: Iterable[int], reqs: Sequence[Requirement]) -> tuple[Requirement, ...]:
        mask = self.cover_mask(b, reqs)
        return tuple(r for i, r in enumerate(reqs) if mask >> i & 1)
