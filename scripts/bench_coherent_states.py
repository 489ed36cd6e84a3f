"""Per-call CPU time of ``su11_ncs_coefficients``, a parent and a changed
source tree side by side.

Usage, from the repository root:

    python3 scripts/bench_coherent_states.py PARENT_SRC CHANGE_SRC --out BENCH_coherent_states.json

The two trees are loaded into one interpreter and timed in turn by the
loader and timer of ``bench_jcjc_irreps.py``, the first tree alternating
from cell to cell and from run to run. The grid is k in K_GRID, n in
N_GRID and |zeta| in ZETA_GRID, at arg zeta = 0.7 and the default
``max_index``. A cell's figure is each side's median over ``--runs`` runs;
it also records both sides' coefficient counts (None where the call
refuses with TailError, which is timed as well) and their largest
coefficient difference.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import platform
import statistics
import sys

import numpy as np
import scipy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_jcjc_irreps import _load, _per_call  # noqa: E402

K_GRID = (0.5, 3.0)
N_GRID = (0, 40, 1000)
ZETA_GRID = (0.3, 0.9, 0.99)


def _state(package, k: float, n: int, abs_zeta: float):
    """A call of ``package``'s ``su11_ncs_coefficients`` on one grid cell,
    returning the coefficients, or None when it refuses with TailError."""
    zeta = cmath.rect(abs_zeta, 0.7)

    def call():
        try:
            return package.displace.su11_ncs_coefficients(k, n, zeta).coeffs
        except package.errors.TailError:
            return None

    return call


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--runs", type=int, default=11)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": _load(args.parent_src, "_parent_twomode_jcx"),
             "change": _load(args.change_src, "_change_twomode_jcx")}
    keys = [(k, n, z) for k in K_GRID for n in N_GRID for z in ZETA_GRID]
    calls = {side: {key: _state(package, *key) for key in keys} for side, package in trees.items()}
    times = {side: {key: [] for key in keys} for side in trees}
    for run in range(args.runs):
        for i, key in enumerate(keys):
            order = ("parent", "change") if (run + i) % 2 == 0 else ("change", "parent")
            for side, t in zip(order, _per_call(*(calls[side][key] for side in order))):
                times[side][key].append(t)
    cells = []
    for key in keys:
        parent, change = (calls[side][key]() for side in ("parent", "change"))
        t_parent = statistics.median(times["parent"][key])
        t_change = statistics.median(times["change"][key])
        cell = {"k": key[0], "n": key[1], "abs_zeta": key[2],
                "parent_s": t_parent, "change_s": t_change, "change_over_parent": t_change / t_parent,
                "parent_terms": None if parent is None else parent.size,
                "change_terms": None if change is None else change.size, "max_coeff_diff": None}
        if parent is not None and change is not None:
            size = min(parent.size, change.size)
            cell["max_coeff_diff"] = float(np.max(np.abs(parent[:size] - change[:size])))
        cells.append(cell)
    ratios = [c["change_over_parent"] for c in cells]
    diffs = [c["max_coeff_diff"] for c in cells if c["max_coeff_diff"] is not None]
    report = {
        "what": "per-call CPU time of su11_ncs_coefficients(k, n, |zeta| e^{0.7i}), "
                f"median over {args.runs} runs per side, the two sides called in turn",
        "command": f"python3 scripts/bench_coherent_states.py PARENT_SRC CHANGE_SRC --runs {args.runs} "
                   "--out BENCH_coherent_states.json",
        "machine": {"python": platform.python_version(), "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), "numpy": np.__version__, "scipy": scipy.__version__},
        "summary": {"min_change_over_parent": min(ratios), "max_change_over_parent": max(ratios),
                    "median_change_over_parent": statistics.median(ratios),
                    "same_terms": all(c["parent_terms"] == c["change_terms"] for c in cells),
                    "max_coeff_diff": max(diffs)},
        "cells": cells,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps(report["summary"]))


if __name__ == "__main__":
    main()
