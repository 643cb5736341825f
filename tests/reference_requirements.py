"""Reference crucial sets: one vertex-cover search per boundary subset, as
first written, kept as the oracle of tests/test_requirements_differential.py
and of the tests that read vc(H - R) or the branches' satisfied sets.

`vc_table` runs `vc_minus` on each of the 2^|delta| requirement masks and
`crucial_set` takes the sources of the exact-cover DAG from that table.
The package derives the same table from one subset-maximum transform over
the boundary's independent subsets; both must agree on every input.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from vcgen.requirements import Requirement, RequirementContext


def vc_minus(ctx: RequirementContext, vs: Iterable[int]) -> int:
    """vc(H - vs)."""
    solver = ctx.solver
    return solver.vc(solver.full_mask & ~solver.mask_of(vs))


def vc_table(ctx: RequirementContext) -> list[int]:
    """vc(H - S) for every S within the boundary, indexed by S's bits over
    ctx.delta."""
    d = ctx.delta
    n = len(d)
    return [vc_minus(ctx, (d[i] for i in range(n) if mask >> i & 1)) for mask in range(1 << n)]


def crucial_set(ctx: RequirementContext) -> tuple[Requirement, ...]:
    d = ctx.delta
    n = len(d)
    vc_req = vc_table(ctx)

    def forced(req_mask: int, v_bit: int) -> bool:
        return vc_req[req_mask] == vc_req[req_mask | v_bit] + 1

    crucial: list[Requirement] = []
    for mask in range(1 << n):
        incoming = False
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                # edge (mask - v) -> mask unless v is forced there
                if not forced(mask & ~bit, bit):
                    incoming = True
                    break
            else:
                # edge (mask + v) -> mask iff v is forced at mask
                if forced(mask, bit):
                    incoming = True
                    break
        if not incoming:
            crucial.append(frozenset(d[i] for i in range(n) if mask >> i & 1))
    return tuple(crucial)


def eb(ctx: RequirementContext, b: Iterable[int], reqs: Sequence[Requirement]) -> tuple[Requirement, ...]:
    """The requirements of reqs that b satisfies, in order."""
    mask = ctx.cover_masks([ctx.solver.mask_of(b)], reqs)[0]
    return tuple(r for i, r in enumerate(reqs) if mask >> i & 1)
