"""Fixed outputs of the reference tables and of both engines.

The files under tests/golden/ hold the canonical-JSON digests of the 38
reference tables and of the deep tables (randomized P3-P8 at n-mode
beta3 = 1/8, depth 20), the deterministic covers of a seeded deck, and seeded
randomized walks with their traces.  table_digests_b3_eighth_all.txt holds
the digests of all 19 tables at beta3 = 1/8, depth 20, which the CI
workflow diffs; tier-1 checks only that its P3-P8 lines are the deep
tables' file.  A refactor of generation or of the
engines must leave every line unchanged; a deliberate change of behaviour
rewrites the files and says why in CHANGES.md.

To rewrite every file from the current sources, run from the checkout root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

from corpus import MU_N20, build_tables, deep_tables, random_subcubic
from vcgen.cli import main as cli_main
from vcgen.errors import VcgenError
from vcgen.graphs import Instance, format_instance, petersen_graph, vc_oracle
from vcgen.measure import pure_k
from vcgen.rulegen import table_to_json
from vcgen.runtime import TableEngine, TraceStep

GOLDEN = Path(__file__).parent / "golden"


def table_digests(det_engine, rand_engine) -> str:
    return digest_lines("det", det_engine.tables) + digest_lines("rand", rand_engine.tables)


def digest_lines(mode: str, tables: dict) -> str:
    return "".join(f"{mode} P{sid} {hashlib.sha256(table_to_json(tables[sid]).encode()).hexdigest()}\n"
                   for sid in sorted(tables))


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


def test_deep_table_digests():
    assert_golden("table_digests_b3_eighth.txt", digest_lines("rand", deep_tables()))


def test_all_deep_digests_extend_the_deep_digests():
    lines = (GOLDEN / "table_digests_b3_eighth_all.txt").read_text().splitlines(keepends=True)
    assert [line.split()[1] for line in lines] == [f"P{sid}" for sid in range(1, 20)]
    assert "".join(lines[2:8]) == (GOLDEN / "table_digests_b3_eighth.txt").read_text()


def test_deterministic_covers(det_engine):
    assert_golden("deterministic_covers.txt", deterministic_results(det_engine))


def test_randomized_walks(rand_engine):
    assert_golden("randomized_walks.txt", randomized_walks(rand_engine))


def solve_trace() -> str:
    """Stdout of `vcgen solve --trace` on the Petersen graph at k = 6, with
    freshly generated n-mode beta3 = 1/4 tables; test_cli compares it."""
    with tempfile.TemporaryDirectory() as tmp:
        tables, inst = Path(tmp) / "tables", Path(tmp) / "pet.vc"
        inst.write_text(format_instance(Instance(petersen_graph(), 6)))
        with contextlib.redirect_stdout(io.StringIO()):
            generated = cli_main(["generate", "--measure", "n-mode", "b3=0.25",
                                  "--mode", "rand", "--out", str(tables)])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            solved = cli_main(["solve", "--instance", str(inst), "--tables", str(tables),
                               "--mode", "rand", "--seed", "7", "--trace"])
    if (generated, solved) != (0, 0):
        sys.exit(f"generate exited {generated}, solve exited {solved}")
    return out.getvalue()


if __name__ == "__main__":
    det = TableEngine(build_tables(pure_k(), "deterministic"), pure_k())
    rand = TableEngine(build_tables(MU_N20, "randomized"), MU_N20)
    (GOLDEN / "table_digests.txt").write_text(table_digests(det, rand))
    (GOLDEN / "table_digests_b3_eighth.txt").write_text(digest_lines("rand", deep_tables()))
    (GOLDEN / "table_digests_b3_eighth_all.txt").write_text(digest_lines("rand", deep_tables(range(1, 20))))
    (GOLDEN / "deterministic_covers.txt").write_text(deterministic_results(det))
    (GOLDEN / "randomized_walks.txt").write_text(randomized_walks(rand))
    (GOLDEN / "solve_trace.txt").write_text(solve_trace())
