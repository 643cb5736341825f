"""Subspace membership by root embedding, kept as the oracle of
tests/test_roots_differential.py.

A generated table is certified only for the instances that contain its
root.  So a subspace's structure is present in a configuration when its
root configuration embeds there by vcgen.configs.is_expansion, which keeps
every true degree.  The one exception is P1, which also takes a vertex of
degree 0, a vertex no root maps to.
"""

from __future__ import annotations

from typing import Optional

from vcgen.branching import SubspaceAssertions
from vcgen.configs import LocalConfiguration, instance_as_config, is_expansion
from vcgen.graphs import Graph
from vcgen.subspaces import SUBSPACE_IDS, root_config

ROOTS = {sid: root_config(sid) for sid in SUBSPACE_IDS}


def present(l: LocalConfiguration, sid: int) -> bool:
    if sid == 1 and any(l.true_degree(v) == 0 for v in l.h.vertices):
        return True
    return is_expansion(l, ROOTS[sid]) is not None


def classify(g: Graph) -> int:
    """The smallest subspace whose root embeds in g; 19 for the empty graph."""
    l = instance_as_config(g)
    return next((sid for sid in SUBSPACE_IDS if present(l, sid)), 19)


def forbidden_by(l: LocalConfiguration, a: SubspaceAssertions) -> Optional[int]:
    """The first excluded subspace whose root embeds in l."""
    return next((sid for sid in a.excluded_subspaces if present(l, sid)), None)
