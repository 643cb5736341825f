#!/usr/bin/env python3
"""Walk through the core objects: a local configuration, its expansion
children, boundary requirements, branch costs, and the rule the generator
attaches for the 3-regular subspace."""

from itertools import combinations

from vcgen.branching import cost_bound
from vcgen.configs import LocalConfiguration, expand, format_config
from vcgen.graphs import Graph
from vcgen.measure import pure_k
from vcgen.requirements import RequirementContext
from vcgen.rulegen import gensa
from vcgen.subspaces import assertions_for, root_config

print("=== the P19 root: a single vertex with three unresolved edges")
root = root_config(19)
print(format_config(root))

print("=== expansion children (one per resolution of one incomplete edge)")
for label, child in expand(root):
    print(f"child {label}:")
    print("  " + format_config(child).replace("\n", "\n  ").rstrip())

print("=== after two expansions: the path configuration the rule lives on")
path3 = LocalConfiguration(Graph([0, 1, 2], [(0, 1), (0, 2)]), {0: 1, 1: 2, 2: 2})
ctx = RequirementContext(path3)
print(format_config(path3))
print("boundary:", sorted(path3.boundary()))
print("crucial requirements:", [sorted(r) for r in ctx.crucial_set()])

print("=== branch costs under the pure budget measure (cost = 2^-|b|)")
m = pure_k()
# every nonempty vertex subset, smallest first, as gensa seeds a root
for b in (frozenset(c) for size in (1, 2, 3) for c in combinations(sorted(path3.h.vertices), size)):
    cb = cost_bound(path3, b, m)
    sats = [sorted(r) for r in ctx.crucial_set() if ctx.satisfies(b, r)]
    print(f"branch {sorted(b)}: exponent {cb.exponent}, satisfies {sats}")

print("=== the generated deterministic table for P19")
table = gensa(root, m, rule_mode="deterministic",
              assertions=assertions_for(19), subspace_id=19)
for node in table.tree.nodes:
    if node.kind == "leaf" and node.leaf.kind == "rule":
        takes = [(sorted(e.take), str(e.weight)) for e in node.leaf.entries]
        print(f"rule leaf {node.node_id}: branches {takes}")
    elif node.kind == "expanded":
        print(f"expanded node {node.node_id}: selected vertex {node.selected}, "
              f"children {[(r.label, r.node if r.node is not None else f'pruned by P{r.pruned_by}') for r in node.children]}")
