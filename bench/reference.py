"""Exact minimum vertex cover sizes from the HiGHS MILP solver in scipy.

This is the benchmark's reference, made apart from vcgen.  It runs in a
child process, before any timed interval, so that neither scipy's import
nor its solver threads touch the measured process:

    python3 bench/reference.py < graphs.json > sizes.json

reads a JSON list of [n, edges] pairs and writes the list of their minimum
vertex cover sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def min_cover_size(n: int, edges) -> int:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    if not edges:
        return 0
    a = np.zeros((len(edges), n))
    for row, (u, v) in enumerate(edges):
        a[row, u] = a[row, v] = 1
    res = milp(
        np.ones(n),
        constraints=LinearConstraint(a, lb=1, ub=np.inf),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    if not res.success:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return int(round(res.fun))


def cover_sizes(graphs) -> list[int]:
    """Minimum cover sizes of (n, edges) graphs, solved in a child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve())],
        input=json.dumps([[n, edges] for n, edges in graphs]),
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference solver failed: {proc.stderr.strip()[-2000:]}")
    sizes = json.loads(proc.stdout)
    if len(sizes) != len(graphs):
        raise RuntimeError("reference solver returned the wrong number of sizes")
    return sizes


if __name__ == "__main__":
    graphs = json.load(sys.stdin)
    json.dump([min_cover_size(n, [tuple(e) for e in edges]) for n, edges in graphs], sys.stdout)
