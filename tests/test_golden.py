"""Fixed outputs of the reference tables and of both engines.

The files under tests/golden/ hold the canonical-JSON digests of the 38
reference tables, the deterministic covers of a seeded deck, and seeded
randomized walks with their traces.  A refactor of generation or of the
engines must leave every line unchanged; a deliberate change of behaviour
rewrites the files and says why in CHANGES.md.
"""

import hashlib
import random
from pathlib import Path

from corpus import random_subcubic
from vcgen.errors import VcgenError
from vcgen.graphs import Instance, vc_oracle
from vcgen.rulegen import table_to_json
from vcgen.runtime import TraceStep

GOLDEN = Path(__file__).parent / "golden"


def table_digests(det_engine, rand_engine) -> str:
    lines = []
    for mode, engine in (("det", det_engine), ("rand", rand_engine)):
        for sid in sorted(engine.tables):
            text = table_to_json(engine.tables[sid])
            lines.append(f"{mode} P{sid} {hashlib.sha256(text.encode()).hexdigest()}")
    return "\n".join(lines) + "\n"


def deck(seed: int, count: int, low: int, high: int):
    """Seeded subcubic graphs; every other one as dense as degree 3 allows."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(low, high)
        out.append(random_subcubic(rng, n, (3 * n) // 2 if i % 2 else None))
    return out


def _outcome(solve) -> str:
    try:
        cover = solve()
    except VcgenError as exc:
        return f"error {type(exc).__name__}"
    return "NO" if cover is None else f"cover {sorted(cover)}"


def deterministic_results(engine) -> str:
    lines = []
    for i, g in enumerate(deck(101, 36, 6, 22)):
        vc = vc_oracle(g)
        for k in (vc - 1, vc):
            before = engine.fallbacks
            got = _outcome(lambda: engine.deterministic_cover(Instance(g, k)))
            lines.append(f"graph {i} n={len(g)} m={g.edge_count()} k={k}: {got}"
                         f" fallbacks={engine.fallbacks - before}")
    return "\n".join(lines) + "\n"


def randomized_walks(engine) -> str:
    rng = random.Random(202)
    lines = []
    for i, g in enumerate(deck(203, 20, 10, 24)):
        vc = vc_oracle(g)
        for k in (vc - 1, vc):
            for _ in range(3):
                seed = rng.getrandbits(32)
                trace: list[TraceStep] = []
                before = engine.fallbacks
                got = _outcome(lambda: engine.rsearch_cover(Instance(g, k), seed, trace))
                lines.append(f"graph {i} n={len(g)} m={g.edge_count()} k={k} seed={seed}: {got}"
                             f" fallbacks={engine.fallbacks - before}")
                lines.extend("  " + step.format() for step in trace)
    return "\n".join(lines) + "\n"


def assert_golden(name: str, text: str) -> None:
    expected = (GOLDEN / name).read_text().splitlines()
    got = text.splitlines()
    for lineno, (a, b) in enumerate(zip(expected, got), 1):
        assert a == b, f"{name} line {lineno} differs"
    assert len(got) == len(expected), f"{name}: {len(got)} lines, expected {len(expected)}"


def test_table_digests(det_engine, rand_engine):
    assert_golden("table_digests.txt", table_digests(det_engine, rand_engine))


def test_deterministic_covers(det_engine):
    assert_golden("deterministic_covers.txt", deterministic_results(det_engine))


def test_randomized_walks(rand_engine):
    assert_golden("randomized_walks.txt", randomized_walks(rand_engine))
