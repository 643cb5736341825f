"""The workloads: set-up, timed rounds, and the checks of every output.

Every workload attempts whole rounds of the same operations.  Each output
is checked after the round's timed interval ends, against the reference
sizes from ``reference.py`` or against a property the method must have;
an operation that raises or fails a check is counted as failed.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import inputs
import reference

RAND_BETA3 = Fraction(1, 5)
SUBSPACES = range(1, 20)


def fresh_vcgen():
    """Import vcgen anew, as a new user process does."""
    for name in [m for m in sys.modules if m == "vcgen" or m.startswith("vcgen.")]:
        del sys.modules[name]
    return importlib.import_module("vcgen")


def rand_measure(vc):
    """n-mode, beta3 = 1/5: the randomized reference measure."""
    return vc.Measure(0, 0, 0, RAND_BETA3, "n")


def det_measure(vc):
    """Pure k, alpha = 1: the deterministic reference measure."""
    return vc.pure_k()


MEASURES = {"rand": (rand_measure, "randomized"), "det": (det_measure, "deterministic")}


def generate_tables(vc, label: str) -> dict:
    measure_fn, rule_mode = MEASURES[label]
    m = measure_fn(vc)
    return {
        sid: vc.gensa(vc.root_config(sid), m, rule_mode=rule_mode,
                      assertions=vc.subspaces.assertions_for(sid), subspace_id=sid)
        for sid in SUBSPACES
    }


def to_instance(vc, g: inputs.Graph, k: int):
    n, edges = g
    return vc.Instance(vc.Graph(range(n), edges), k)


@dataclass
class Run:
    """Operations attempted and failed, timed samples, and run-level checks."""

    seed: int
    short: bool
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    run_failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{label}: {'; '.join(problems)}")


def attempt(fn):
    """Run one operation; what it raises is its outcome, checked later."""
    try:
        return fn()
    except Exception as exc:  # any exception is a failed operation
        return exc


def raised(outcome) -> list[str]:
    if isinstance(outcome, Exception):
        return [f"raised {type(outcome).__name__}: {outcome}"]
    return []


def settle() -> None:
    """Start each timed interval from a collected heap, so that when the
    cyclic collector runs does not depend on what came before."""
    gc.collect()


def table_problems(vc, label: str, sid: int, table, identical: bool) -> list[str]:
    """A generated table must be complete, certified, serialize stably and
    carry only weights its mode allows."""
    problems = []
    if not table.complete:
        problems.append("incomplete")
    cert = vc.verify_table(table)
    if not cert.ok:
        problems.append("not certified: " + "; ".join(cert.failures[:2]))
    text = vc.table_to_json(table)
    if vc.table_to_json(vc.table_from_json(text)) != text:
        problems.append("JSON round trip changes the bytes")
    if not identical:
        problems.append("bytes differ between two generations in this run")
    doc = json.loads(text)
    if doc["subspace"] != sid or doc["mode"] != MEASURES[label][1]:
        problems.append("wrong subspace or mode in the JSON")
    for node in doc["nodes"]:
        leaf = node.get("leaf") or {}
        for entry in leaf.get("entries", ()):
            w = Fraction(entry["weight"])
            if label == "det" and w != 1:
                problems.append(f"node {node['id']}: deterministic weight {w}")
            if label == "rand" and not 0 < w <= 1:
                problems.append(f"node {node['id']}: weight {w} outside (0, 1]")
    return problems


def cover_problems(g, k: int, cover) -> list[str]:
    problems = []
    if cover is not None:
        if not inputs.is_cover(g, cover):
            problems.append("returned set misses an edge")
        if len(cover) > k:
            problems.append(f"cover of {len(cover)} exceeds k={k}")
    return problems


def answer_problems(g, k: int, vc_ref: int, cover) -> list[str]:
    """An exact answer: YES, with a cover, exactly when vc <= k."""
    problems = cover_problems(g, k, cover)
    if (cover is not None) != (vc_ref <= k):
        problems.append(f"answered {'NO' if cover is None else 'YES'} at k={k}, vc={vc_ref}")
    return problems


class Solve:
    """Set-up and table checks shared by the two solve workloads.

    A set-up is what a user pays before the first solve: import vcgen,
    generate and certify the 19 tables of the workload's measure, and build
    the TableEngine.  Every round re-checks the tables after its timed
    interval, so that a faulty table stays the same share of the attempted
    operations however many rounds fit in a run.
    """

    label: str
    setups = 3

    def __init__(self, run: Run):
        self.run = run
        self.texts: dict = {}
        self.identical = {sid: True for sid in SUBSPACES}
        self.passes: list[float] = []

    def setup(self, on_import):
        vc = fresh_vcgen()
        on_import(vc)
        self.tables = generate_tables(vc, self.label)
        measure = MEASURES[self.label][0](vc)
        self.engine = attempt(lambda: vc.TableEngine(self.tables, measure))
        self.vc = vc

    def after_setup(self) -> None:
        """Two generations in one run must give identical bytes."""
        for sid, table in self.tables.items():
            text = self.vc.table_to_json(table)
            if self.texts.setdefault(sid, text) != text:
                self.identical[sid] = False

    def after_round(self) -> None:
        for sid, table in self.tables.items():
            problems = table_problems(self.vc, self.label, sid, table, self.identical[sid])
            self.run.record(f"{self.label} table P{sid}", problems)
        self.run.sample("table_nodes", sum(len(t.tree.nodes) for t in self.tables.values()))
        passes, self.passes = self.passes, []
        self.run.sample("certify_s", sum(passes) / len(passes))

    def certify(self) -> None:
        """One timed verify_table pass over all tables.  Rounds take a pass
        between their solves, so that the passes spread over the same
        stretch of the run as the solves; a round's passes, timed one by
        one, make one sample of their mean."""
        t0 = perf_counter()
        for t in self.tables.values():
            self.vc.verify_table(t)
        self.passes.append(perf_counter() - t0)

    def solve(self, fn):
        """Run one solve, or report the engine's own failure to build."""
        if isinstance(self.engine, Exception):
            return self.engine
        return attempt(fn)

    @property
    def fallbacks(self) -> int:
        return 0 if isinstance(self.engine, Exception) else self.engine.fallbacks

    def finish(self) -> None:
        """Run-level checks, after the last round."""

    def success_ratio(self) -> float:
        return 0.0


class SolveRand(Solve):
    """TableEngine.solve_randomized with the beta3 = 1/5 tables over seeded
    trial plans, on random cubic graphs at k = vc and k = vc - 1."""

    label = "rand"

    def __init__(self, run: Run):
        super().__init__(run)
        deck = inputs.rand_deck(run.short)
        vcs = reference.cover_sizes(deck)
        sizes = inputs.RAND_SIZES_SHORT if run.short else inputs.RAND_SIZES
        self.plans = [
            (g, vc_ref, k, sizes[g[0]][1])
            for g, vc_ref in zip(deck, vcs)
            for k in (vc_ref, vc_ref - 1)
        ]
        self.trial_seeds = random.Random(f"solve-rand/trials/{run.seed}")
        self.successes = 0
        self.trials = 0
        self.small = []  # (successes, trials, 2^-mu) of each n = 20 plan at k = vc

    def setup(self, on_import):
        super().setup(on_import)
        self.instances = [to_instance(self.vc, g, k) for g, _, k, _ in self.plans]

    def round(self) -> None:
        vc, run, engine = self.vc, self.run, self.engine
        seeds = [self.trial_seeds.getrandbits(32) for _ in self.plans]
        outcomes = []
        per_n: dict[int, list] = {}
        round_s = 0.0
        settle()
        for i, ((g, _, _, trials), inst, base_seed) in enumerate(zip(self.plans, self.instances, seeds)):
            t = perf_counter()
            outcomes.append(self.solve(lambda: engine.solve_randomized(inst, vc.TrialPlan(trials, base_seed))))
            spent_s = perf_counter() - t
            round_s += spent_s
            spent = per_n.setdefault(g[0], [0.0, 0])
            spent[0] += spent_s
            spent[1] += trials
            if i % 2:  # after each graph's two plans
                self.certify()
        run.sample("round_s", round_s)
        for n, (seconds, trials) in per_n.items():
            run.sample(f"trial_ms_n{n}", 1000 * seconds / trials)

        for (g, vc_ref, k, trials), outcome in zip(self.plans, outcomes):
            problems = raised(outcome)
            if not problems:
                res = outcome  # one-sided: a NO at k >= vc is allowed
                problems = cover_problems(g, k, res.cover)
                if res.trials_run != trials or not 0 <= res.successes <= trials:
                    problems.append(f"{res.successes} successes in {res.trials_run} trials")
                if res.answer != (res.successes > 0) or res.answer != (res.cover is not None):
                    problems.append("answer, successes and witness disagree")
                if k < vc_ref and res.successes:
                    problems.append(f"{res.successes} trials found a cover below vc")
                self.successes += res.successes
                self.trials += res.trials_run
                if g[0] == 20 and k == vc_ref:
                    self.small.append((res.successes, trials, per_trial_bound(g)))
            run.record(f"solve-rand n={g[0]} k={k}", problems)
        self.after_round()

    def finish(self) -> None:
        """At n = 20 the successes must reach the 2^-mu bound minus 3 sigma."""
        wins = sum(s for s, _, _ in self.small)
        expected = sum(t * p for _, t, p in self.small)
        sigma = math.sqrt(sum(t * p * (1 - p) for _, t, p in self.small))
        if self.small and wins < expected - 3 * sigma:
            self.run.run_failures.append(
                f"n=20: {wins} successes, below the bound {expected:.1f} - 3 x {sigma:.1f}"
            )

    def success_ratio(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


def per_trial_bound(g: inputs.Graph) -> float:
    """2^-mu for mu = beta3 * n3, computed apart from vcgen's measure code."""
    n, edges = g
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return 2.0 ** -float(RAND_BETA3 * sum(1 for d in deg if d == 3))


class SolveDet(Solve):
    """TableEngine.deterministic_cover with the pure-k tables on random cubic
    graphs with n from 50 to 80, each at k = vc - 1 (NO) and k = vc (YES);
    then, untimed, on a seeded deck of small subcubic instances."""

    label = "det"

    def __init__(self, run: Run):
        super().__init__(run)
        deck = inputs.det_deck(run.short)
        oracle = inputs.oracle_deck(run.seed, run.short)
        vcs = reference.cover_sizes(deck + oracle)
        deck_vcs, oracle_vcs = vcs[: len(deck)], vcs[len(deck):]
        self.cases = {
            "no": [(g, vc_ref, vc_ref - 1) for g, vc_ref in zip(deck, deck_vcs)],
            "yes": [(g, vc_ref, vc_ref) for g, vc_ref in zip(deck, deck_vcs)],
        }
        self.oracle = list(zip(oracle, oracle_vcs, inputs.oracle_budgets(run.seed, oracle_vcs)))

    def setup(self, on_import):
        super().setup(on_import)
        self.instances = {
            answer: [to_instance(self.vc, g, k) for g, _, k in cases]
            for answer, cases in self.cases.items()
        }

    def round(self) -> None:
        run, engine = self.run, self.engine
        outcomes = {}
        round_s = 0.0
        settle()
        for answer, instances in self.instances.items():
            outcomes[answer], spent = [], 0.0
            for inst in instances:
                t = perf_counter()
                outcomes[answer].append(self.solve(lambda: engine.deterministic_cover(inst)))
                spent += perf_counter() - t
                self.certify()
            run.sample(f"det_{answer}_s", spent)
            round_s += spent
        run.sample("round_s", round_s)
        for answer, cases in self.cases.items():
            for (g, vc_ref, k), cover in zip(cases, outcomes[answer]):
                problems = raised(cover) or answer_problems(g, k, vc_ref, cover)
                run.record(f"solve-det n={g[0]} k={k}", problems)
        for i, (g, vc_ref, k) in enumerate(self.oracle):
            cover = self.solve(lambda: engine.deterministic_cover(to_instance(self.vc, g, k)))
            problems = raised(cover) or answer_problems(g, k, vc_ref, cover)
            run.record(f"oracle deck {i} (n={g[0]}, k={k})", problems)
        self.after_round()


WORKLOADS = {"solve-rand": SolveRand, "solve-det": SolveDet}
