"""Tests of the benchmark itself: the short mode of every workload runs every
check, and each kind of wrong output is counted as a failed operation.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import inputs
import run
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def short_run(workload: str, trace: bool = False) -> dict:
    return run.run(workload, seed=3, seconds=0, trace=trace, short=True)


def inject(monkeypatch, fault) -> None:
    """Apply fault to every fresh import of vcgen the benchmark makes."""
    fresh = workloads.fresh_vcgen

    def faulty():
        vc = fresh()
        fault(vc)
        return vc

    monkeypatch.setattr(workloads, "fresh_vcgen", faulty)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_short_mode_passes_every_check(workload):
    record = short_run(workload)
    line = record["line"]
    assert line["correct"] and line["attempted"] > 0 and line["failed"] == 0, record["failures"]
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(line["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_run_reports_every_layer():
    line = short_run("solve-rand", trace=True)["line"]
    assert sorted(line["metrics"]) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert line["metrics"]["lp.solve_cover_lp.calls"]["value"] > 0
    assert line["metrics"]["tree.match_instance.calls"]["value"] > 0


def test_halved_rule_weight_fails(monkeypatch):
    def halve_p2_weight(vc):
        gensa = vc.gensa

        def gensa_halved(*args, **kwargs):
            table = gensa(*args, **kwargs)
            if kwargs["subspace_id"] == 2 and kwargs["rule_mode"] == "deterministic":
                nodes = table.tree.nodes
                i = next(i for i, n in enumerate(nodes) if n.kind == "leaf" and n.leaf.kind == "rule")
                leaf = nodes[i].leaf
                first = dataclasses.replace(leaf.entries[0], weight=leaf.entries[0].weight / 2)
                entries = (first,) + leaf.entries[1:]
                nodes[i] = dataclasses.replace(nodes[i], leaf=dataclasses.replace(leaf, entries=entries))
            return table

        vc.gensa = gensa_halved

    inject(monkeypatch, halve_p2_weight)
    record = short_run("solve-det")
    assert record["line"]["failed"] > 0
    assert any(f.startswith("det table P2: not certified") for f in record["failures"])


def test_flipped_answer_fails(monkeypatch):
    def yes_to_no(vc):
        vc.TableEngine.deterministic_cover = lambda self, inst: None

    inject(monkeypatch, yes_to_no)
    record = short_run("solve-det")
    # every YES instance of the deck, and the YES ones of the small-instance deck
    assert record["line"]["failed"] >= len(inputs.DET_SIZES_SHORT)
    assert all("answered NO at" in f for f in record["failures"])


@pytest.mark.parametrize("workload", ["solve-det", "solve-rand"])
def test_cover_missing_a_vertex_fails(monkeypatch, workload):
    def drop_one_vertex(vc):
        engine = vc.TableEngine
        det, rand = engine.deterministic_cover, engine.solve_randomized

        def det_short(self, inst):
            cover = det(self, inst)
            return None if cover is None else cover - {min(cover)}

        def rand_short(self, inst, plan):
            res = rand(self, inst, plan)
            if res.cover is not None:
                res.cover = res.cover - {min(res.cover)}
            return res

        engine.deterministic_cover, engine.solve_randomized = det_short, rand_short

    inject(monkeypatch, drop_one_vertex)
    record = short_run(workload)
    assert record["line"]["failed"] > 0
    assert all("misses an edge" in f for f in record["failures"])


def test_decks_avoid_the_unanchored_subspace_fault():
    """A cubic graph whose subspace root does not embed makes every solve
    raise CertificateViolation (see CHANGES.md); no deck graph may be one."""
    import vcgen

    for n, edges in inputs.rand_deck(short=False) + inputs.det_deck(short=False):
        g = vcgen.Graph(range(n), edges)
        sid = vcgen.classify(g)
        assert vcgen.find_anchor(vcgen.Instance(g, 0), vcgen.root_config(sid)) is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-det", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
