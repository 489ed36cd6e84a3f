"""Thread-budget helper, kept only because the benchmark's spans
(``bench/spans.py``) trace ``parallel_map`` and ``thread_budget`` by name.

No command uses it. ``diagonalize`` once spread its sectors over this pool,
but LAPACK's ``dstebz`` and ``dstein`` hold the GIL for the whole call, so
the threads could not overlap sector solves and only added the pool's cost.
``thread_budget`` reads TWOMODE_JCX_THREADS (0 or unset = one per CPU).
"""

from __future__ import annotations

import os


def thread_budget() -> int:
    raw = os.environ.get("TWOMODE_JCX_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n


def parallel_map(fn, items):
    """Ordered map over items, threaded when the budget and workload allow."""
    items = list(items)
    budget = min(thread_budget(), len(items))
    if budget <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor  # not loaded with the CLI

    with ThreadPoolExecutor(max_workers=budget) as pool:
        return list(pool.map(fn, items))
