"""Per-solve CPU time of ``numeric_spectrum`` on JC+JC su(2) irreps, a
parent and a changed source tree side by side.

Usage, from the repository root:

    python3 scripts/bench_jcjc_irreps.py PARENT_SRC CHANGE_SRC --out BENCH_jcjc_irreps.json

Both trees' ``twomode_jcx`` packages are loaded into one interpreter under
names of their own, so that their calls alternate within milliseconds and
share every change of the machine's load. The grid is N_s in N_S_GRID,
|g|/|f| in RATIO_GRID (|f| = 1, arg g = 0.7, m c² = hbar = 1) and both
components, ``count`` = COUNT levels. In each of ``--runs`` runs, every
cell calls the two trees in turn, one call each, the first tree
alternating from cell to cell and from run to run, until each side has
spent CELL_S of CPU time (``time.process_time``) and made at least three
calls after one warm-up call; a side's time is its CPU time over its
calls. A cell's figure is each side's median over the runs. Each cell
also records whether each side certified the irrep from its seed
(``tridiag.whole_ladder_eigenvalues``) or declined it to the index solve,
and the largest gap between the two sides' levels over the sum of their
half-widths (a declined side's half-width is its bisection bound): at
most 1 when the two agree within their widths.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

N_S_GRID = (48, 60, 300, 400, 1000, 4000)
RATIO_GRID = (0.0, 0.1, 0.5, 0.9, 1.0, 10.0)
COUNT = 8
CELL_S = 0.02  # CPU seconds of calls per cell, side and run, at least


def _load(src: str, name: str):
    """The ``twomode_jcx`` package under ``src``, imported as ``name``."""
    root = os.path.join(src, "twomode_jcx")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _solve(package, n_s: int, ratio: float, component: str):
    """A call of ``package``'s ``numeric_spectrum`` on one grid cell."""
    p = package.ModelParams(f=1.0, g=cmath.rect(ratio, 0.7))
    sector = package.fock.su2_irrep(n_s)
    kind, comp = package.ModelKind.JC_JC, package.Component(component)
    return lambda: package.spectra.numeric_spectrum(kind, comp, p, sector, COUNT)


def _levels(package, n_s: int, ratio: float, component: str) -> tuple:
    """(levels, half-widths, certified) of ``package`` on one grid cell: the
    seed's certified levels, or the index solve's within its bisection
    bound when the seed declines the irrep."""
    p = package.ModelParams(f=1.0, g=cmath.rect(ratio, 0.7))
    kind, comp = package.ModelKind.JC_JC, package.Component(component)
    bands = package.models.sector_tridiagonal(kind, comp, p, package.fock.su2_irrep(n_s))
    cut = package.tridiag.whole_ladder_eigenvalues(*bands, COUNT)
    if cut is not None:
        return cut[0], cut[1], True
    levels = package.spectra._lowest(bands, COUNT)
    return levels, np.full(COUNT, package.tridiag.bisection_bound(*bands)), False


def _per_call(first, second) -> tuple:
    """CPU seconds per call of ``first`` and of ``second``, called in turn."""
    first(), second()
    spent, calls = [0.0, 0.0], 0
    while calls < 3 or min(spent) < CELL_S:
        for j, call in enumerate((first, second)):
            t0 = time.process_time()
            call()
            spent[j] += time.process_time() - t0
        calls += 1
    return spent[0] / calls, spent[1] / calls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--runs", type=int, default=11)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    trees = {"parent": _load(args.parent_src, "_parent_twomode_jcx"),
             "change": _load(args.change_src, "_change_twomode_jcx")}
    keys = [(n_s, ratio, component) for n_s in N_S_GRID for ratio in RATIO_GRID
            for component in ("upper", "lower")]
    calls = {side: {key: _solve(package, *key) for key in keys} for side, package in trees.items()}
    times = {side: {key: [] for key in keys} for side in trees}
    for run in range(args.runs):
        for i, key in enumerate(keys):
            order = ("parent", "change") if (run + i) % 2 == 0 else ("change", "parent")
            for side, t in zip(order, _per_call(*(calls[side][key] for side in order))):
                times[side][key].append(t)
    cells = []
    for n_s, ratio, component in keys:
        parent = statistics.median(times["parent"][n_s, ratio, component])
        change = statistics.median(times["change"][n_s, ratio, component])
        (v0, w0, c0), (v1, w1, c1) = (_levels(package, n_s, ratio, component) for package in trees.values())
        cells.append({"n_s": n_s, "g_over_f": ratio, "component": component,
                      "parent_s": parent, "change_s": change, "change_over_parent": change / parent,
                      "certified": {"parent": c0, "change": c1},
                      "level_gap_over_widths": float(np.max(np.abs(v1 - v0) / (w0 + w1)))})
    mid = [c["change_over_parent"] for c in cells if 300 <= c["n_s"] <= 1000 and 0 < c["g_over_f"] <= 1]
    report = {
        "what": f"per-solve CPU time of numeric_spectrum(JC_JC, component, p, su2_irrep(N_s), {COUNT}), "
                f"median over {args.runs} runs per side, the two sides called in turn",
        "command": f"python3 scripts/bench_jcjc_irreps.py PARENT_SRC CHANGE_SRC --runs {args.runs} "
                   "--out BENCH_jcjc_irreps.json",
        "machine": {"python": platform.python_version(), "processor": platform.processor() or platform.machine(),
                    "cpus": os.cpu_count(), "numpy": np.__version__, "scipy": scipy.__version__},
        "summary": {"max_change_over_parent": max(c["change_over_parent"] for c in cells),
                    "median_change_over_parent_n_s_300_1000_g_over_f_0_1": statistics.median(mid),
                    "max_level_gap_over_widths": max(c["level_gap_over_widths"] for c in cells)},
        "cells": cells,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(json.dumps(report["summary"]))


if __name__ == "__main__":
    main()
