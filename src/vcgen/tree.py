"""Expansion trees: the case analysis a generated algorithm executes.

Internal nodes record which boundary vertex was expanded and one child per
possible resolution of one of its incomplete edges.  Leaves carry the
attached rule.  Isomorphic configurations share a subtree through alias
nodes that store the witnessing isomorphism; matching composes embeddings
through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .configs import ChildLabel, LocalConfiguration, instance_as_config, is_expansion
from .errors import CertificateViolation
from .graphs import Instance


@dataclass(frozen=True)
class RuleEntry:
    take: frozenset[int]
    weight: Fraction


@dataclass(frozen=True)
class Leaf:
    kind: str  # "rule" | "simplification" | "constant"
    entries: tuple[RuleEntry, ...] = ()
    rule_id: Optional[int] = None


@dataclass(frozen=True)
class ChildRef:
    label: ChildLabel
    node: Optional[int]  # None when pruned as unreachable
    pruned_by: Optional[int] = None  # earlier subspace whose structure forbids it


@dataclass(frozen=True)
class TreeNode:
    node_id: int
    config: LocalConfiguration
    kind: str  # "expanded" | "leaf" | "alias"
    selected: Optional[int] = None
    children: tuple[ChildRef, ...] = ()
    leaf: Optional[Leaf] = None
    alias_target: Optional[int] = None
    alias_iso: Optional[dict[int, int]] = None  # target vertex -> own vertex


@dataclass
class ExpansionTree:
    nodes: list[TreeNode] = field(default_factory=list)
    root: int = -1

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    @property
    def root_config(self) -> LocalConfiguration:
        return self.nodes[self.root].config


def find_anchor(
    inst: Instance, root: LocalConfiguration, starts: Optional[Iterable[int]] = None
) -> Optional[dict[int, int]]:
    """Embedding of the root configuration into the instance, if any.
    starts, when given, must hold every vertex that the root's smallest
    vertex can map to; the embedding found is the same."""
    return is_expansion(instance_as_config(inst.graph), root, starts)


def match_instance(
    tree: ExpansionTree,
    inst: Instance,
    anchor: dict[int, int],
) -> tuple[int, dict[int, int]]:
    """Walk from the root to the leaf whose configuration the instance
    expands, resolving at each step the unmapped instance edge at the
    selected vertex with the smallest opposite endpoint.

    Raises CertificateViolation when no child matches: the expansion cover
    was incomplete, which certification rules out.
    """
    node = tree.node(tree.root)
    phi = dict(anchor)
    while True:
        if node.kind == "alias":
            assert node.alias_iso is not None and node.alias_target is not None
            phi = {tv: phi[sv] for tv, sv in node.alias_iso.items()}
            node = tree.node(node.alias_target)
            continue
        if node.kind == "leaf":
            return node.node_id, phi
        v = node.selected
        assert v is not None
        pv = phi[v]
        mapped_neighbors = {phi[u] for u in node.config.h.neighbors(v)}
        candidates = sorted(
            w for w in inst.graph.neighbors(pv) if w not in mapped_neighbors
        )
        if not candidates:
            raise CertificateViolation(
                f"no unresolved instance edge at node {node.node_id} vertex {v}"
            )
        w = candidates[0]
        image = {iv: cv for cv, iv in phi.items()}
        if w in image:
            label: ChildLabel = ("internal", image[w])
        else:
            label = ("new", inst.graph.degree(w))
        ref = next((c for c in node.children if c.label == label), None)
        if ref is None or ref.node is None:
            raise CertificateViolation(
                f"instance resolves {label} at node {node.node_id}, "
                f"which the cover does not provide"
            )
        child = tree.node(ref.node)
        if label[0] == "new":
            (fresh,) = child.config.h.vertices - node.config.h.vertices
            phi[fresh] = w
        node = child
