#!/usr/bin/env python3
"""Benchmark of vcgen's uses: generating and certifying the tables of a
measure, then solving with the randomized or the deterministic engine.

    python3 bench/run.py --workload solve-rand --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: vcgen is imported from ./src.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one traced set-up and round with
``--trace 1``.
A fuller record of the run goes to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RESULT_VERSION = 1

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb(children_before: int) -> float:
    """Peak resident memory of this process, or of a child started after
    the reference solver if one grew larger (vcgen starts none today)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children if children > children_before else 0) / 1024


def run(workload: str, seed: int, seconds: float, trace: bool, short: bool = False) -> dict:
    """One benchmark run; returns the full record, whose ``line`` is printed."""
    state = workloads.Run(seed, short)
    w = workloads.WORKLOADS[workload](state)  # reference sizes, in a child process
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tracer = spans.Tracer() if trace else None
    on_import = tracer.install if tracer else (lambda vc: None)

    # The rounds are shared out between the set-ups, so that the timed
    # samples of a run come from the whole of it, not only from its end.
    setups = 1 if trace or short else w.setups
    measured_s = 0.0
    rounds = 0
    for i in range(setups):
        workloads.settle()
        t0 = perf_counter()
        w.setup(on_import)
        state.sample("setup_s", perf_counter() - t0)
        w.after_setup()

        t0 = perf_counter()
        while True:
            w.round()
            rounds += 1
            if trace or measured_s + perf_counter() - t0 >= seconds * (i + 1) / setups:
                break
        measured_s += perf_counter() - t0
    w.finish()

    if trace:
        extra = {
            f"rulegen.{key}": (sum(t.meta.get(key, 0) for t in w.tables.values()), "count")
            for key in ("lp_calls", "aliases", "pruned_children")
        }
        extra["runtime.fallbacks"] = (w.fallbacks, "count")
        extra["runtime.success_ratio"] = (round(w.success_ratio(), 6), "ratio")
        metrics = spans.layer_metrics(tracer, extra)
    else:
        metrics = {
            name: {"value": statistics.median(state.samples[name]), "unit": "s"}
            for name in ("setup_s", "round_s", "certify_s")
        }
        metrics["table_nodes"] = {"value": max(state.samples["table_nodes"]), "unit": "count"}
        metrics["peak_rss_mb"] = {"value": round(peak_rss_mb(children_before), 3), "unit": "MB"}

    line = {
        "correct": not state.run_failures,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": metrics,
    }
    return {
        "version": RESULT_VERSION,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "short": short,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "rounds": rounds,
        "measured_s": round(measured_s, 3),
        "samples": state.samples,
        "failures": state.failures,
        "run_failures": state.run_failures,
        "line": line,
        "_tracer": tracer,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="tiny inputs, one set-up (for tests)")
    args = ap.parse_args(argv)

    if not (SRC / "vcgen" / "__init__.py").is_file():
        print(f"error: no vcgen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.short)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-short" if args.short else "")
    tracer = record.pop("_tracer")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.tsv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in record["failures"] + record["run_failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
