"""Rule synthesis: the recursive generator, its certificates, and table files.

At each configuration the generator either attaches a simplification or
constant-solvable leaf, finds a weighted branch set whose total
upward-rounded cost is at most 1 while covering every crucial boundary
requirement (LP for randomized rules, ILP for deterministic ones), or
expands one incomplete edge and recurses.  Certification recomputes every
leaf's requirement sets, costs and coverage from scratch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .branching import (
    Branch,
    NO_ASSERTIONS,
    SubspaceAssertions,
    branch_sort_key,
    cost_bound,
    cost_exponents,
    cost_value,
    extend_branches,
    prune_dominated_indexed,
    seed_masks,
    subset_exponents,
)
from .configs import (
    LocalConfiguration,
    canonical_key,
    expand,
    format_config,
    isomorphism,
    select_expansion_vertex,
)
from .errors import CapacityError, ContractError, InputDomainError
from .graphs import MAX_DEGREE, Graph
from .lp import solve_cover_ilp, solve_cover_lp
from .measure import Measure, generation_admissible
from .requirements import Requirement, RequirementContext
from .simplify import config_site
from .subspaces import assertions_for, forbidden_by, root_config, subspace_name
from .tree import ChildRef, ExpansionTree, Leaf, RuleEntry, TreeNode

RULE_MODES = ("randomized", "deterministic")


@dataclass(frozen=True)
class GenLimits:
    max_depth: int = 12
    max_nodes: int = 200_000
    max_seconds: Optional[float] = None

    def __post_init__(self):
        if self.max_depth < 0:
            raise InputDomainError(f"max_depth {self.max_depth} is negative: even the root is too deep")
        if self.max_nodes < 1:
            raise InputDomainError(f"max_nodes {self.max_nodes} is below 1: no table has fewer nodes")
        if self.max_seconds is not None:
            if math.isnan(self.max_seconds):
                raise InputDomainError("max_seconds is NaN, which no wall time exceeds")
            if self.max_seconds < 0:
                raise InputDomainError(f"max_seconds {self.max_seconds} is negative")
            if math.isinf(self.max_seconds):  # no wall budget, which a table file writes as null
                object.__setattr__(self, "max_seconds", None)


@dataclass(frozen=True)
class FailureReport:
    reason: str
    chain: tuple[str, ...]  # config text forms, root first

    def describe(self) -> str:
        parts = [f"generation aborted: {self.reason}; blocking chain:"]
        parts.extend(self.chain)
        return "\n".join(parts)


@dataclass
class RuleTable:
    subspace_id: Optional[int]
    measure: Measure
    rule_mode: str  # one of RULE_MODES
    tree: ExpansionTree
    meta: dict = field(default_factory=dict)
    failure: Optional[FailureReport] = None

    @property
    def complete(self) -> bool:
        return self.failure is None


class _LimitHit(Exception):
    def __init__(self, reason: str, chain: list[LocalConfiguration]):
        self.reason = reason
        self.chain = chain


def gensa(
    root: LocalConfiguration,
    m: Measure,
    rule_mode: str = "randomized",
    assertions: SubspaceAssertions = NO_ASSERTIONS,
    limits: GenLimits = GenLimits(),
    subspace_id: Optional[int] = None,
) -> RuleTable:
    """Generate a rule table for every instance expanding the root.

    Limits turn into a failure report carrying the root-to-blocker chain of
    configurations, not an exception; the table is then partial and carries
    no certificate.
    """
    if rule_mode not in RULE_MODES:
        raise InputDomainError(f"unknown rule mode {rule_mode!r}")
    adm = generation_admissible(m)
    if not adm.ok:
        raise InputDomainError(
            "measure not admissible for generation: " + "; ".join(adm.violations)
        )
    start = time.monotonic()
    nodes: list[TreeNode] = []
    memo: dict[bytes, int] = {}
    counters = {"lp_calls": 0, "rule_leaves": 0, "aliases": 0, "pruned_children": 0}

    def out_of_budget() -> Optional[str]:
        if len(nodes) >= limits.max_nodes:
            return "node budget exhausted"
        if limits.max_seconds is not None and time.monotonic() - start > limits.max_seconds:
            return "wall budget exhausted"
        return None

    def emit(node: TreeNode) -> int:
        nodes.append(node)
        return node.node_id

    def build(config: LocalConfiguration, basis: Optional[list[Branch]], depth: int,
              chain: list[LocalConfiguration]) -> int:
        """The node of config, whose candidates are the nonempty branches of
        basis, or at the root (basis None) every nonempty vertex subset."""
        chain = chain + [config]
        reason = out_of_budget()
        if reason is not None:
            raise _LimitHit(reason, chain)
        if depth > limits.max_depth:
            raise _LimitHit("depth limit exceeded", chain)

        site = config_site(config)
        if site is not None:
            return emit(TreeNode(len(nodes), config, "leaf",
                                 leaf=Leaf("simplification", rule_id=site.rule_id)))
        if not config.boundary():
            return emit(TreeNode(len(nodes), config, "leaf", leaf=Leaf("constant")))

        key = None  # merging is an optimization; generate without it
        if depth:  # the root is stored last, so no node can alias it
            try:
                key = canonical_key(config)
            except CapacityError:
                pass
        if key is not None and key in memo:
            target_id = memo[key]
            iso = isomorphism(nodes[target_id].config, config)
            assert iso is not None
            counters["aliases"] += 1
            return emit(TreeNode(len(nodes), config, "alias",
                                 alias_target=target_id, alias_iso=iso))

        try:
            ctx = RequirementContext(config)
            crucial = ctx.crucial_set()
        except CapacityError:
            raise _LimitHit("boundary width beyond requirement cap", chain)

        if basis is None:  # the root: score every subset at once, as masks
            exps, covered = subset_exponents(config, m, assertions), ctx.subset_cover_masks(crucial)
            exponents, masks = [exps[b] for b in seeds], [covered[b] for b in seeds]
            keep = prune_dominated_indexed(seeds, exponents, masks)
            vs = sorted(config.h.vertices)
            pruned = [frozenset(v for j, v in enumerate(vs) if seeds[i] >> j & 1) for i in keep]
        else:
            candidates = sorted((b for b in basis if b), key=branch_sort_key)
            exponents = cost_exponents(config, candidates, m, assertions)  # over m.scaled[0]
            masks = ctx.cover_masks(candidates, crucial)
            keep = prune_dominated_indexed(candidates, exponents, masks)
            pruned = [candidates[i] for i in keep]
        pruned_masks = [masks[i] for i in keep]
        pruned_costs = [cost_value(Fraction(exponents[i], m.scaled[0])) for i in keep]

        counters["lp_calls"] += 1
        lp_sol = solve_cover_lp(pruned_costs, pruned_masks, len(crucial))
        if rule_mode == "deterministic":
            sol = solve_cover_ilp(pruned_costs, pruned_masks, len(crucial), lp_sol)
        else:
            sol = lp_sol

        if sol is not None and sol.objective <= 1:
            entries = tuple(RuleEntry(b, w) for b, w in zip(pruned, sol.weights) if w > 0)
            wrong, _ = _check_rule_leaf(config, entries, ctx, crucial, m, rule_mode, assertions)
            if wrong:
                raise ContractError(f"solver returned a rule failing its check: {wrong[0]}")
            counters["rule_leaves"] += 1
            node_id = emit(TreeNode(len(nodes), config, "leaf",
                                    leaf=Leaf("rule", entries=entries)))
            if key is not None:
                memo[key] = node_id
            return node_id

        # no efficient rule: expand and recurse
        selected = select_expansion_vertex(config)
        refs: list[ChildRef] = []
        for label, child in expand(config):
            forbidden = forbidden_by(child, assertions)
            if forbidden is not None:
                counters["pruned_children"] += 1
                refs.append(ChildRef(label, None, pruned_by=forbidden))
                continue
            new_edge = _expansion_edge(config, child)
            basis_for_child = extend_branches([frozenset()] + pruned, *new_edge)
            child_id = build(child, basis_for_child, depth + 1, chain)
            refs.append(ChildRef(label, child_id))
        node_id = emit(TreeNode(len(nodes), config, "expanded",
                                selected=selected, children=tuple(refs)))
        if key is not None:
            memo[key] = node_id
        return node_id

    def _expansion_edge(parent: LocalConfiguration, child: LocalConfiguration) -> tuple[int, int]:
        (edge,) = set(child.h.edges()) - set(parent.h.edges())
        return edge

    seeds = seed_masks(root)
    try:
        root_id = build(root, None, 0, [])
        failure = None
    except _LimitHit as hit:
        root_id = -1
        failure = FailureReport(hit.reason, tuple(format_config(c) for c in hit.chain))
    tree = ExpansionTree(nodes, root_id)
    return RuleTable(subspace_id, m, rule_mode, tree, _meta(limits, len(nodes), counters), failure)


def _meta(limits: GenLimits, nodes: int, counts: dict[str, int]) -> dict:
    """A table's meta: its node count, the limits it was generated under and
    the counts lp_calls, rule_leaves, aliases and pruned_children."""
    return {
        "nodes": nodes,
        "limits": {
            "max_depth": limits.max_depth,
            "max_nodes": limits.max_nodes,
            "max_seconds": limits.max_seconds,
        },
        **counts,
    }


def _tree_counts(nodes: list[TreeNode]) -> dict[str, int]:
    """The counts gensa makes while it generates a complete tree, read from
    the tree: an LP per rule leaf and per expanded node."""
    rule_leaves = sum(n.kind == "leaf" and n.leaf.kind == "rule" for n in nodes)
    expanded = [n for n in nodes if n.kind == "expanded"]
    return {
        "lp_calls": rule_leaves + len(expanded),
        "rule_leaves": rule_leaves,
        "aliases": sum(n.kind == "alias" for n in nodes),
        "pruned_children": sum(ref.node is None for n in expanded for ref in n.children),
    }


def _tree_depth(nodes: list[TreeNode], root: int) -> int:
    """The depth of the deepest node reached from root through child
    references, root at depth 0, each node counted once; references out of
    range are left to the certificate."""
    depth, level = 0, {root} if 0 <= root < len(nodes) else set()
    seen = set(level)
    while True:
        level = {ref.node for i in level for ref in nodes[i].children
                 if ref.node is not None and 0 <= ref.node < len(nodes)} - seen
        if not level:
            return depth
        seen |= level
        depth += 1


# -- certification -----------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    ok: bool
    failures: tuple[str, ...]
    leaf_objectives: dict[int, Fraction]


def _iso_valid(a: LocalConfiguration, b: LocalConfiguration, iso: dict[int, int]) -> bool:
    if set(iso) != set(a.h.vertices) or set(iso.values()) != set(b.h.vertices):
        return False
    if len(set(iso.values())) != len(iso):
        return False
    if a.h.edge_count() != b.h.edge_count():
        return False
    for u, v in a.h.edges():
        if not b.h.has_edge(iso[u], iso[v]):
            return False
    return all(a.d[v] == b.d[iso[v]] for v in iso)


def verify_table(t: RuleTable) -> Certificate:
    """Recompute everything a leaf claims and every node's cover; pass iff
    all checks pass.  Failure tables never certify."""
    failures: list[str] = []
    objectives: dict[int, Fraction] = {}

    def fail(msg: str) -> None:
        failures.append(msg)

    if t.failure is not None:
        fail(f"table carries a failure report ({t.failure.reason})")
        return Certificate(False, tuple(failures), objectives)
    adm = generation_admissible(t.measure)
    if not adm.ok:
        fail("measure inadmissible: " + "; ".join(adm.violations))
    if t.tree.root < 0 or t.tree.root >= len(t.tree.nodes):
        fail("missing root node")
        return Certificate(False, tuple(failures), objectives)
    assertions = NO_ASSERTIONS if t.subspace_id is None else assertions_for(t.subspace_id)
    if t.subspace_id is not None and t.tree.root_config != root_config(t.subspace_id):
        fail(f"root configuration is not the root of {subspace_name(t.subspace_id)}")

    for node in t.tree.nodes:
        nid = node.node_id
        if node.kind == "leaf":
            leaf = node.leaf
            if leaf is None:
                fail(f"node {nid}: leaf node without leaf payload")
                continue
            if leaf.kind == "simplification":
                site = config_site(node.config)
                if site is None or site.rule_id != leaf.rule_id:
                    fail(f"node {nid}: simplification rule {leaf.rule_id} does not fire")
            elif leaf.kind == "constant":
                if node.config.boundary():
                    fail(f"node {nid}: constant leaf with nonempty boundary")
            elif leaf.kind == "rule":
                try:
                    ctx = RequirementContext(node.config)
                    crucial = ctx.crucial_set()
                except CapacityError:
                    fail(f"node {nid}: boundary beyond requirement cap")
                    continue
                wrong, objective = _check_rule_leaf(node.config, leaf.entries, ctx, crucial,
                                                    t.measure, t.rule_mode, assertions)
                failures.extend(f"node {nid}: {f}" for f in wrong)
                if objective is not None:
                    objectives[nid] = objective
            else:
                fail(f"node {nid}: unknown leaf kind {leaf.kind!r}")
        elif node.kind == "alias":
            if node.alias_target is None or node.alias_iso is None:
                fail(f"node {nid}: incomplete alias")
                continue
            if not (0 <= node.alias_target < len(t.tree.nodes)):
                fail(f"node {nid}: alias target out of range")
                continue
            target = t.tree.nodes[node.alias_target]
            if target.kind == "alias":
                fail(f"node {nid}: alias chains to another alias")
            if not _iso_valid(target.config, node.config, node.alias_iso):
                fail(f"node {nid}: alias isomorphism invalid")
        elif node.kind == "expanded":
            if config_site(node.config) is not None:
                fail(f"node {nid}: expanded although a simplification applies")
            expected = expand(node.config)
            got = {ref.label: ref for ref in node.children}
            if [ref.label for ref in node.children] != [lbl for lbl, _ in expected]:
                fail(f"node {nid}: children do not match the expansion cover")
                continue
            if node.selected != select_expansion_vertex(node.config):
                fail(f"node {nid}: wrong selected vertex")
            for label, child_cfg in expected:
                ref = got[label]
                if ref.node is None:
                    if ref.pruned_by is None or forbidden_by(child_cfg, assertions) != ref.pruned_by:
                        fail(f"node {nid}: child {label} pruned without justification")
                elif not 0 <= ref.node < len(t.tree.nodes):
                    fail(f"node {nid}: child {label} refers to missing node {ref.node}")
                elif t.tree.nodes[ref.node].config != child_cfg:
                    fail(f"node {nid}: child {label} configuration mismatch")
        else:
            fail(f"node {nid}: unknown kind {node.kind!r}")
    return Certificate(not failures, tuple(failures), objectives)


def _at_least_pow2(c: Fraction, e: Fraction) -> bool:
    """Whether c > 0 is at least 2^e, exactly: for e = p/q in lowest terms, a
    lower bound m * 2^k on c^q, raised by repeated squaring and rounded down
    to 128 bits at each step, is compared with 2^p.  The work grows with log q
    only, and the bound is within (3q + 1) * 2^-127 of c^q, relatively: far
    inside the q * 2^-40 that cost_value's margin adds."""
    def floor_128(m: int, k: int) -> tuple[int, int]:
        s = max(m.bit_length() - 128, 0)
        return m >> s, k + s
    p, q = e.numerator, e.denominator
    k = c.numerator.bit_length() - c.denominator.bit_length() - 128
    m = (c.numerator << max(-k, 0)) // (c.denominator << max(k, 0))  # c >= m * 2^k
    bound, bk = 1, 0
    while q:
        if q & 1:
            bound, bk = floor_128(bound * m, bk + k)
        q >>= 1
        m, k = floor_128(m * m, 2 * k)
    return bound.bit_length() - 1 + bk >= p


def _check_rule_leaf(
    config: LocalConfiguration,
    entries: Sequence[RuleEntry],
    ctx: RequirementContext,
    crucial: Sequence[Requirement],
    m: Measure,
    rule_mode: str,
    assertions: SubspaceAssertions,
) -> tuple[list[str], Optional[Fraction]]:
    """Everything a rule leaf claims, recomputed by exact substitution: the
    failures found and the objective (None when an entry is malformed).
    Coverage is summed as integer numerators over the lcm of the weights'
    denominators."""
    objective = Fraction(0)
    for entry in entries:
        take = sorted(entry.take)
        if not entry.take or not entry.take <= config.h.vertices:
            return [f"branch {take} outside the graph"], None
        if any(config.h.degree(v) == 0 for v in entry.take):
            return [f"branch {take} takes an isolated vertex (its cost bound is not sound)"], None
        if entry.weight <= 0 or entry.weight > 1:
            return [f"weight {entry.weight} outside (0, 1]"], None
        if rule_mode == "deterministic" and entry.weight != 1:
            return ["fractional weight in a deterministic table"], None
        exp = cost_bound(config, entry.take, m, assertions).exponent
        cost = cost_value(exp)
        if not _at_least_pow2(cost, exp):
            return [f"cost of branch {take} is below 2^({exp})"], None
        objective += entry.weight * cost
    den = math.lcm(*(e.weight.denominator for e in entries))
    nums = [e.weight.numerator * (den // e.weight.denominator) for e in entries]
    masks = ctx.cover_masks([e.take for e in entries], crucial)
    failures = []
    for i, r in enumerate(crucial):
        covered = sum(num for num, mask in zip(nums, masks) if mask >> i & 1)
        if covered < den:
            failures.append(f"requirement {sorted(r)} covered with weight {Fraction(covered, den)} < 1")
    if objective > 1:
        failures.append(f"objective {objective} exceeds 1")
    return failures, objective


# -- serialization -----------------------------------------------------------

FORMAT_NAME = "vcgen-rule-table"
FORMAT_VERSION = 1


def _config_obj(l: LocalConfiguration) -> dict:
    return {
        "vertices": sorted(l.h.vertices),
        "edges": [list(e) for e in l.h.edges()],
        "d": {str(v): l.d[v] for v in sorted(l.h.vertices) if l.d[v]},
        "delta": MAX_DEGREE,
    }


def _config_from_obj(obj: dict) -> LocalConfiguration:
    return LocalConfiguration(Graph(obj["vertices"], obj["edges"]),
                              {int(v): c for v, c in obj["d"].items()})


def table_to_json(t: RuleTable) -> str:
    nodes = []
    for node in t.tree.nodes:
        obj: dict = {
            "id": node.node_id,
            "kind": node.kind,
            "config": _config_obj(node.config),
        }
        if node.kind == "expanded":
            obj["selected"] = node.selected
            obj["children"] = [
                {
                    "label": list(ref.label),
                    "node": ref.node,
                    **({"pruned_by": ref.pruned_by} if ref.node is None else {}),
                }
                for ref in node.children
            ]
        elif node.kind == "leaf":
            leaf = node.leaf
            assert leaf is not None
            lobj: dict = {"kind": leaf.kind}
            if leaf.kind == "rule":
                lobj["entries"] = [
                    {"take": sorted(e.take), "weight": str(e.weight)}
                    for e in leaf.entries
                ]
            elif leaf.kind == "simplification":
                lobj["rule"] = leaf.rule_id
            obj["leaf"] = lobj
        elif node.kind == "alias":
            obj["alias"] = {
                "target": node.alias_target,
                "iso": {str(k): v for k, v in sorted(node.alias_iso.items())},
            }
        nodes.append(obj)
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "subspace": t.subspace_id,
        "mode": t.rule_mode,
        "measure": {
            "mode": t.measure.mode,
            "alpha": str(t.measure.alpha),
            "b1": str(t.measure.beta1),
            "b2": str(t.measure.beta2),
            "b3": str(t.measure.beta3),
        },
        "delta": MAX_DEGREE,
        "root": t.tree.root,
        "nodes": nodes,
        "meta": t.meta,
        "failure": None
        if t.failure is None
        else {"reason": t.failure.reason, "chain": list(t.failure.chain)},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def table_from_json(text: str) -> RuleTable:
    """Parse a table file.  The file must hold exactly the text that
    table_to_json writes for the table it parses to; any other text raises
    InputDomainError.  So the reader checks only the values that would
    write back unchanged, the enum fields, and reads every integer with
    int(): a true, 3.0, "3" or "+1" writes back differently and is refused.
    meta is rebuilt the same way, its counts from the tree when the table
    is complete, so a meta other than the one gensa wrote is refused too."""
    try:
        table = _table_from_doc(json.loads(text))
        canonical = table_to_json(table)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, ZeroDivisionError,
            OverflowError, RecursionError) as exc:
        raise InputDomainError(f"malformed rule table: {type(exc).__name__}: {exc}") from None
    if canonical != text:
        at = next((i for i, (a, b) in enumerate(zip(text, canonical)) if a != b),
                  min(len(text), len(canonical)))
        raise InputDomainError(f"not a canonical table file: it differs from the text vcgen "
                               f"writes at character {at}, near {text[max(0, at - 24):at + 24]!r}")
    return table


def _label(x) -> tuple[str, int]:
    """x as a child label ("internal", vertex) or ("new", true degree)."""
    if x[0] not in ("internal", "new"):
        raise InputDomainError(f"malformed rule table: child label {x!r}")
    return (x[0], int(x[1]))


def _table_from_doc(doc) -> RuleTable:
    if doc["mode"] not in RULE_MODES:
        raise InputDomainError(f"malformed rule table: unknown mode {doc['mode']!r}")
    measure = Measure(
        Fraction(doc["measure"]["alpha"]),
        Fraction(doc["measure"]["b1"]),
        Fraction(doc["measure"]["b2"]),
        Fraction(doc["measure"]["b3"]),
        doc["measure"]["mode"],
    )
    nodes = []
    for node_id, obj in enumerate(doc["nodes"]):  # the tree finds a node by its position
        config = _config_from_obj(obj["config"])
        kind = obj["kind"]
        if kind == "expanded":
            children = tuple(
                ChildRef(
                    _label(ref["label"]),
                    None if ref["node"] is None else int(ref["node"]),
                    None if ref.get("pruned_by") is None else int(ref["pruned_by"]),
                )
                for ref in obj["children"]
            )
            nodes.append(TreeNode(node_id, config, kind, selected=int(obj["selected"]),
                                  children=children))
        elif kind == "leaf":
            lobj = obj["leaf"]
            if lobj["kind"] == "rule":
                entries = tuple(
                    RuleEntry(frozenset(int(v) for v in e["take"]), Fraction(e["weight"]))
                    for e in lobj["entries"]
                )
                leaf = Leaf("rule", entries=entries)
            elif lobj["kind"] == "simplification":
                leaf = Leaf("simplification", rule_id=int(lobj["rule"]))
            elif lobj["kind"] == "constant":
                leaf = Leaf("constant")
            else:
                raise InputDomainError(f"malformed rule table: unknown leaf kind {lobj['kind']!r}")
            nodes.append(TreeNode(node_id, config, kind, leaf=leaf))
        elif kind == "alias":
            nodes.append(
                TreeNode(
                    node_id,
                    config,
                    kind,
                    alias_target=int(obj["alias"]["target"]),
                    alias_iso={int(k): int(v) for k, v in obj["alias"]["iso"].items()},
                )
            )
        else:
            raise InputDomainError(f"unknown node kind {kind!r}")
    failure = None
    if doc["failure"] is not None:
        failure = FailureReport(str(doc["failure"]["reason"]), tuple(map(str, doc["failure"]["chain"])))
    meta = doc["meta"]
    seconds = meta["limits"]["max_seconds"]  # null or a number: + 0 makes a true 1
    limits = GenLimits(int(meta["limits"]["max_depth"]), int(meta["limits"]["max_nodes"]),
                       None if seconds is None else seconds + 0)
    if failure is None:
        counts = _tree_counts(nodes)
        depth = _tree_depth(nodes, int(doc["root"]))
        if depth > limits.max_depth:
            raise InputDomainError(f"malformed rule table: its tree is {depth} deep, "
                                   f"beyond its max_depth of {limits.max_depth}")
    else:  # an aborted generation also counted nodes it never emitted
        counts = {key: int(meta[key]) for key in ("lp_calls", "rule_leaves", "aliases", "pruned_children")}
    return RuleTable(
        None if doc["subspace"] is None else int(doc["subspace"]),
        measure,
        doc["mode"],
        ExpansionTree(nodes, int(doc["root"])),
        _meta(limits, len(nodes), counts),
        failure,
    )
