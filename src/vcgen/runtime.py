"""Execution of certified rule tables.

A solve step simplifies to a fixpoint, classifies the residual instance
into its subspace, anchors that subspace's table, walks the expansion tree
to a leaf and applies the leaf's rule: the randomized engine samples one
branch with probability proportional to weight times measure shrinkage,
the deterministic engine explores every selected branch of each rule step.
The deterministic engine also cuts off, right after each fixpoint and
before classifying it, every instance whose budget is below a cover lower
bound: the cycle-cover bound of a maximum matching of the graph's
bipartite double cover, which splits the graph into vertex-disjoint cycles
and paths.  The bound is sound, so what it cuts off holds no cover within
budget.  Each rule step keeps its matching on the search's stack, and its
children carry it over and only augment it.  Both engines are loops over
one solve step, in which a branch's take is the first step of the next
fixpoint: the deterministic search keeps a stack of the rule steps
on its path with their untried takes, and the randomized engine runs a
block of walks, one seeded trial each, as one depth-first traversal of
the tree of their choices, so a step that several trials reach by the
same path runs once for all of them and a single walk holds only its
current step.  A plan decided by its first step answers for every trial
at once.  Both keep the measure as an integer over the common denominator
of its weights.  The randomized engine reads each child's measure drop
off the degree changes around its take, so it builds no child graph and
no weight overflows.  YES answers are only ever reported with an
explicitly verified cover in hand, so no YES is wrong; a deterministic NO
is exact, and a randomized NO is wrong with probability at most
(1 - 2^-mu)^trials.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import CertificateViolation, ContractError, InputDomainError
from .graphs import Graph, Instance, VertexCoverSolver
from .measure import Measure, degree_counts, degree_shift, evaluate
from .rulegen import RuleTable, verify_table
from .simplify import lift_cover, simplify_fixpoint
from .subspaces import classify
from .tree import TreeNode, find_anchor, match_instance

PROBABILITY_TOL = 1e-12
# trials per depth-first traversal of a plan: bounds the generators and
# pending steps alive at once, whatever the plan's size
TRIAL_BLOCK = 64


@dataclass(frozen=True)
class TrialPlan:
    trials: int
    base_seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise InputDomainError("a trial plan needs at least one trial")

    @staticmethod
    def for_instance(
        m: Measure, inst: Instance, safety: int = 20, base_seed: int = 0
    ) -> "TrialPlan":
        if safety < 1:
            raise InputDomainError(f"the safety factor must be at least 1, got {safety}")
        try:
            # 2^mu underflows to 0 where mu is far below zero; one trial
            # still runs there
            trials = max(1, math.ceil(2.0 ** float(evaluate(m, inst)) * safety))
        except OverflowError:
            raise InputDomainError(
                "the trial plan needs more trials than a float can count"
            ) from None
        return TrialPlan(trials, base_seed)


@dataclass
class RandomizedResult:
    answer: bool
    trials_run: int
    successes: int
    mu: Fraction
    cover: Optional[frozenset[int]]


@dataclass(frozen=True)
class TraceStep:
    subspace: int
    leaf: int
    branch: tuple[int, ...]
    probability: float

    def format(self) -> str:
        return f"P{self.subspace} {self.leaf} {list(self.branch)} {self.probability:.6f}"


class _RuleStep(NamedTuple):
    """A solve step that reached a rule leaf: the simplified instance, its
    subspace, the leaf node, the map of the leaf's configuration into the
    instance and, in the deterministic search, a maximum matching of the
    instance's double cover."""

    inst: Instance
    sid: int
    leaf: TreeNode
    phi: dict[int, int]
    mate: Optional[dict[int, int]]


def _trial_seed(base_seed: int, i: int) -> int:
    return (base_seed * 0x9E3779B97F4A7C15 + i * 0xBF58476D1CE4E5B9) % 2**64


def _component_cover(g: Graph, comp: frozenset[int]) -> frozenset[int]:
    sub = Graph(comp, ((u, v) for u in comp for v in g.neighbors(u) if v in comp))
    return VertexCoverSolver(sub).cover()


def _matching(g: Graph, mate_l: dict[int, int]) -> dict[int, int]:
    """A maximum matching of g's bipartite double cover B, with an edge
    uL-vR and vL-uR per edge uv of g, as the map from each matched left
    copy to its right partner.

    It grows from the pairs of mate_l, a matching of an earlier graph of
    the search (or none), whose ends are still adjacent in g: a step only
    removes vertices, and rule 4 adds an edge, so those pairs are a
    matching of B.  Kuhn's augmenting-path search, run depth-first on an
    explicit stack, then starts once from each free left vertex; one with
    no augmenting path gains none from later augmentations, so the result
    is maximum."""
    mate_l = {u: v for u, v in mate_l.items() if g.has_edge(u, v)}
    mate_r = {v: u for u, v in mate_l.items()}  # right copy -> its left partner
    for root in g.vertices:
        if root in mate_l:
            continue
        # the alternating path: its left vertices, the right vertex that
        # leads from each to the next, and each left vertex's untried edges
        lefts, rights, edges = [root], [], [iter(g.neighbors(root))]
        seen: set[int] = set()
        while edges:
            v = next(edges[-1], None)
            if v is None:
                edges.pop()
                lefts.pop()
                if rights:
                    rights.pop()
            elif v not in seen:
                seen.add(v)
                u = mate_r.get(v)
                if u is None:
                    rights.append(v)
                    for left, right in zip(lefts, rights):
                        mate_l[left] = right
                        mate_r[right] = left
                    break
                lefts.append(u)
                rights.append(v)
                edges.append(iter(g.neighbors(u)))
    return mate_l


def _cover_lower_bound(g: Graph, mate_l: dict[int, int]) -> int:
    """The cycle-cover bound on vc(g) (Akiba and Iwata, TCS 609, 2016)
    from mate_l, a matching of g's double cover B (see _matching).

    Each vertex u has at most one partner mate_l[u], a neighbour, and no
    two vertices share one, so the pairs split g into vertex-disjoint
    cycles (u and v partners of each other make a cycle of 2) and paths.
    A cover holds ceil(l / 2) vertices of a cycle of l vertices and
    floor(t / 2) of a path of t, so their sum is a lower bound for any
    matching.  It is never below ceil(|mate_l| / 2), which for a maximum
    matching is the vertex-cover LP optimum rounded up: any cover C of g
    gives the cover C_L | C_R of B, so nu(B) <= 2 vc(g)."""
    entered = set(mate_l.values())
    unwalked = dict(mate_l)
    bound = 0
    # each path from its first vertex, which no pair enters
    for u in g.vertices:
        if u not in entered and u in unwalked:
            t = 1
            while u in unwalked:
                u = unwalked.pop(u)
                t += 1
            bound += t // 2
    # every pair left lies on a cycle
    while unwalked:
        u, v = unwalked.popitem()
        length = 1
        while v != u:
            v = unwalked.pop(v)
            length += 1
        bound += (length + 1) // 2
    return bound


def _budget_cover(inst: Instance) -> Optional[frozenset[int]]:
    """Fallback decision when the measure bottoms out with edges remaining:
    plain two-way branching on a vertex of largest degree, answering NO
    wherever the cycle-cover bound of a fresh maximum matching of the
    double cover exceeds the budget; the bound is sound, so that NO is
    always right."""
    g = inst.graph
    if inst.budget < 0:
        return None
    if g.edge_count() == 0:
        return frozenset()
    if _cover_lower_bound(g, _matching(g, {})) > inst.budget:
        return None
    v = max(g.vertices, key=lambda x: (g.degree(x), -x))
    take = _budget_cover(Instance(g.without({v}), inst.budget - 1))
    if take is not None:
        return take | {v}
    nbrs = g.neighbors(v)
    drop = _budget_cover(Instance(g.without(nbrs | {v}), inst.budget - len(nbrs)))
    return None if drop is None else drop | nbrs


def is_vertex_cover(g: Graph, cover: frozenset[int]) -> bool:
    return all(u in cover or v in cover for u, v in g.edges())


def _checked_cover(inst: Instance, events: list) -> frozenset[int]:
    """The cover that the event log lifts to.  Raises CertificateViolation
    when it is not a budget cover of inst."""
    cover = lift_cover(events, frozenset())
    if not is_vertex_cover(inst.graph, cover) or len(cover) > inst.budget:
        raise CertificateViolation("constructed set is not a budget cover")
    return cover


class TableEngine:
    """Loaded and certified tables, ready to solve instances.

    Building one verifies every table.  It raises ContractError for a table
    that fails verification, was generated for another measure, or is keyed
    by a subspace other than its own, a generic table (no subspace) included.
    A certified table of P<sid> is rooted at root_config(sid) itself, so
    anchoring tries only classify's starts, the images of its vertex 0.

    fallbacks counts the _budget_cover fallbacks run; a fallback step that
    several trials of a plan share runs, and counts, once.
    """

    def __init__(self, tables: dict[int, RuleTable], m: Measure):
        self.measure = m
        self.tables = dict(tables)
        self.fallbacks = 0
        for sid, t in self.tables.items():
            if t.subspace_id != sid:
                name = "generic table" if t.subspace_id is None else f"table for P{t.subspace_id}"
                raise ContractError(f"{name} loaded as P{sid}")
            if t.measure != m:
                raise ContractError(f"table P{sid} was generated for another measure")
            cert = verify_table(t)
            if not cert.ok:
                raise ContractError(
                    f"table P{sid} is not certified: " + "; ".join(cert.failures[:3])
                )

    def _table_for(self, sid: int) -> RuleTable:
        try:
            return self.tables[sid]
        except KeyError:
            raise ContractError(f"no rule table loaded for subspace P{sid}") from None

    # -- the solve step shared by both modes ----------------------------------

    def _match_leaf(self, inst: Instance):
        sid, starts = classify(inst.graph, with_starts=True)
        table = self._table_for(sid)
        anchor = find_anchor(inst, table.tree.root_config, starts)
        if anchor is None:
            raise CertificateViolation(
                f"subspace P{sid} root does not anchor the residual instance"
            )
        leaf_id, phi = match_instance(table.tree, inst, anchor)
        leaf = table.tree.node(leaf_id)
        assert leaf.leaf is not None
        if leaf.leaf.kind == "simplification":
            raise CertificateViolation(
                "matched a simplification leaf on a simplification-free instance"
            )
        return sid, leaf, phi

    def _advance(
        self,
        inst: Instance,
        take: Optional[frozenset[int]],
        events: list,
        mate: Optional[dict[int, int]] = None,
    ):
        """Take take (when given), simplify, fall back and apply constant
        leaves until the instance is decided or a rule leaf matches,
        appending every step to the event log; lift_cover turns the log
        into a cover.

        mate, when given, is a matching of the double cover of the graph
        of inst or an earlier graph of the search ({} at its start): each
        fixpoint that the fallback does not decide then carries it over,
        grows it to a maximum matching and answers False where the
        cycle-cover bound from it exceeds the budget, before anything is
        classified.

        Returns True when the log now holds a cover, False when no cover
        within budget exists, else the _RuleStep to branch on, which holds
        the matching of its instance when mate was given.
        """
        while True:
            inst, steps = simplify_fixpoint(inst, take)
            events.extend(steps)
            if inst.budget < 0:
                return False
            # a fixpoint leaves no isolated vertex, so no vertex means no edge
            if len(inst.graph) == 0:
                return True
            if self.measure.scaled_value(inst.budget, degree_counts(inst.graph)) <= 0:
                self.fallbacks += 1
                cover = _budget_cover(inst)
                if cover is None:
                    return False
                events.append((cover, None))
                return True
            if mate is not None:
                mate = _matching(inst.graph, mate)
                if _cover_lower_bound(inst.graph, mate) > inst.budget:
                    return False
            sid, leaf, phi = self._match_leaf(inst)
            if leaf.leaf.kind != "constant":
                return _RuleStep(inst, sid, leaf, phi, mate)
            # the cover isolates the rest of its component, which rule 1 drops
            take = _component_cover(inst.graph, frozenset(phi.values()))

    def _first_step(self, inst: Instance, mate: Optional[dict[int, int]] = None) -> tuple:
        """_advance(inst, None, mate) and the event log it fills."""
        events: list = []
        return self._advance(inst, None, events, mate), events

    # -- deterministic mode --------------------------------------------------

    def deterministic_cover(self, inst: Instance) -> Optional[frozenset[int]]:
        """A cover within budget, trying every branch of each rule leaf,
        or None when there is none.

        Every fixpoint whose cycle-cover bound exceeds its budget is a dead
        end, cut before it is classified: the bound is sound, so its
        subtree holds no cover within budget and skipping it leaves the
        first cover found, and every NO, as they are.  The bound comes from
        a maximum matching of the double cover that each rule step keeps
        on the stack and its children carry over, so a child's augmenting
        searches start only from the vertices left without a partner."""
        for sid, t in self.tables.items():
            if t.rule_mode != "deterministic":
                raise ContractError(
                    f"table P{sid} is randomized; deterministic search needs ILP tables"
                )
        step, events = self._first_step(inst, {})
        # per rule step on the current path: the step, the log length
        # before its first take, and its untried takes, in table order
        stack: list = []
        while step is not True:
            if step is not False:
                takes = (take for _, take in _branches(step.leaf, step.phi))
                stack.append((step, len(events), takes))
            while stack and (take := next(stack[-1][2], None)) is None:
                stack.pop()
            if not stack:
                return None
            parent, mark, _ = stack[-1]
            del events[mark:]
            step = self._advance(parent.inst, take, events, parent.mate)
        return _checked_cover(inst, events)

    # -- randomized mode -----------------------------------------------------

    def rsearch_cover(
        self, inst: Instance, seed: int, trace: Optional[list[TraceStep]] = None
    ) -> Optional[frozenset[int]]:
        """One random root-to-leaf walk; a cover on success, else None."""
        root, events = self._first_step(inst)
        traces = None if trace is None else [trace]
        return self._walks(inst, root, events, [random.Random(seed)], traces)[0]

    def _probabilities(self, step: _RuleStep) -> tuple[list, list[float]]:
        """The takes of a rule step's branches and the probability of each:
        weight times measure shrinkage.  Each child is weighed by
        2^(mu_child - mu_parent), read off the degree changes around its
        take, which normalises to the same probabilities as 2^mu_child and
        cannot overflow."""
        m = self.measure
        scale = m.scaled[0]
        g = step.inst.graph
        takes, shares = [], []
        for entry, take in _branches(step.leaf, step.phi):
            dn, _ = degree_shift(g.degree, g.neighbors, take)
            takes.append(take)
            shares.append(float(entry.weight) * 2.0 ** (m.scaled_value(-len(take), dn) / scale))
        total = sum(shares)
        assert total > 0
        probs = [share / total for share in shares]
        assert abs(sum(probs) - 1.0) <= PROBABILITY_TOL
        return takes, probs

    def _walks(
        self,
        inst: Instance,
        root,
        events: list,
        rngs: list[random.Random],
        traces: Optional[list[list[TraceStep]]],
    ) -> list[Optional[frozenset[int]]]:
        """One random walk per generator in rngs, from root, inst's first
        step, with events holding root's log: each walk's cover, or None
        where it fails.  When traces is a list, walk i's steps are appended
        to traces[i].

        A walk's path depends only on its draws, and every part of a step
        but the draw depends only on the path so far.  So the walks run as
        one depth-first traversal of the tree of their choices: each step
        runs once for all walks through it, each walk draws one number per
        rule step on its path, and each decided path lifts its cover once.
        Every pending child holds at least one walk, so at most len(rngs)
        are pending at once."""
        covers: list[Optional[frozenset[int]]] = [None] * len(rngs)
        # per pending child: its parent rule step, the log length at the
        # parent, its take, and the walks that take it
        stack: list = []
        step, walks = root, range(len(rngs))
        while True:
            if step is True:
                cover = _checked_cover(inst, events)
                for i in walks:
                    covers[i] = cover
            elif step is not False:
                takes, probs = self._probabilities(step)
                # a draw picks the first branch whose cumulative probability
                # exceeds it, the last when rounding leaves none
                cums = list(itertools.accumulate(probs))
                picked: dict[int, list[int]] = {}
                for i in walks:
                    pick = min(bisect.bisect_right(cums, rngs[i].random()), len(takes) - 1)
                    picked.setdefault(pick, []).append(i)
                for pick, group in sorted(picked.items(), reverse=True):
                    take = takes[pick]
                    if traces is not None:
                        traced = TraceStep(
                            step.sid, step.leaf.node_id, tuple(sorted(take)), probs[pick]
                        )
                        for i in group:
                            traces[i].append(traced)
                    stack.append((step, len(events), take, group))
            if not stack:
                return covers
            parent, mark, take, walks = stack.pop()
            del events[mark:]
            step = self._advance(parent.inst, take, events)

    def solve_randomized(
        self,
        inst: Instance,
        plan: TrialPlan,
        trace: Optional[list[list[TraceStep]]] = None,
    ) -> RandomizedResult:
        """Run every trial of the plan.  When trace is a list, each trial's
        steps are appended to it as one list, in trial order.

        The trials run in blocks of TRIAL_BLOCK, each block as one _walks
        traversal from the plan's first step, which runs once; so a step
        that several trials of a block share runs once, and no more than
        TRIAL_BLOCK generators and pending steps are alive at once.  A plan
        whose first step decides the instance has no random choice to make:
        every trial gives that answer, at once."""
        mu = evaluate(self.measure, inst)
        root, root_events = self._first_step(inst)
        n = plan.trials
        if isinstance(root, bool):
            if trace is not None:
                trace.extend([] for _ in range(n))
            cover = _checked_cover(inst, root_events) if root else None
            return RandomizedResult(root, n, n if root else 0, mu, cover)
        successes = 0
        witness: Optional[frozenset[int]] = None
        for start in range(0, n, TRIAL_BLOCK):
            block = range(start, min(start + TRIAL_BLOCK, n))
            steps = None if trace is None else [[] for _ in block]
            covers = self._walks(
                inst,
                root,
                list(root_events),
                [random.Random(_trial_seed(plan.base_seed, i)) for i in block],
                steps,
            )
            if trace is not None:
                trace.extend(steps)
            for cover in covers:
                if cover is not None:
                    successes += 1
                    if witness is None:
                        witness = cover
        return RandomizedResult(witness is not None, n, successes, mu, witness)


def _branches(leaf, phi: dict[int, int]):
    """Each entry of a rule leaf, with the vertices it takes in the instance."""
    for entry in leaf.leaf.entries:
        yield entry, frozenset(phi[v] for v in entry.take)
