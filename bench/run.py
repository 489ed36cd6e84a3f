"""Benchmark of the twomode-jcx CLI: seeded workloads, checked outputs, spans.

Usage, from the repository root:

    python3 bench/run.py --workload sector_sweep --seed 1 --seconds 55 --trace 0

One invocation is one fresh interpreter running one workload. It

1. runs the seeded round of ops (bench/workloads.py) in a closed loop with
   one client, one op at a time, each through the in-process entry point
   ``twomode_jcx.cli.main`` with the argument list a user would type and
   ``--out`` pointing at a scratch file under bench/out/; rounds repeat
   until ``--seconds`` have passed (at least MIN_ROUNDS rounds);
2. times ``setup_s`` in fresh interpreters, each from spawn to
   ``import twomode_jcx.cli`` done: PROBES_PER_ROUND of them, one after
   another, before every round, and more after the last round until there
   are SETUP_PROBES (median), so that the probes sample the whole run;
3. checks every output against its reference (bench/checks.py) outside the
   timed region;
4. with ``--trace 1``, runs every op of a round twice back to back, once
   untraced and once with spans installed (bench/spans.py), in alternating
   order. It reports the median over rounds of each per-layer metric, and
   as ``tracing_overhead_s`` the median over rounds of the traced minus the
   untraced time of the round's ops.

It prints a readable report, writes everything, including the environment
and every generated argument list, to bench/out/<workload>-seed<seed>-trace<t>.json,
and prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15
PROBES_PER_ROUND = 3
MIN_ROUNDS = 2
RUN_LIMIT_S = 150.0  # no round starts once it would likely end past this
TAIL_MIN_OPS = 20  # op_tail_s needs a percentile of at least p50
TAIL_BEYOND = 10  # ops beyond the reported tail percentile

# Metric names and units of the final JSON line; the benchmark's contract.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
# Printed with the end-to-end metrics but not in the final line: op_tail_s
# is undefined on runs with few ops, and fail_ratio reads 0 where no op
# fails, so neither can carry a relative bound.
REPORT_ONLY_UNITS = {"op_tail_s": "s", "fail_ratio": "ratio"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure_setup(probes: int) -> list:
    """Spawn-to-import-done time of ``probes`` fresh interpreters, one at a time."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "import twomode_jcx.cli; print(time.monotonic())")
    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def environment() -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import version

    def blas(cfg):
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}

    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "threads_env": {k: os.environ.get(k) for k in (
            "TWOMODE_JCX_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    """Runs ops through the CLI entry point and keeps their checked results."""

    def __init__(self, cli, checks, spans, workload: str):
        self.cli = cli
        self.checks = checks
        self.spans = spans
        self.out_file = OUT / f"op-{workload}.out"
        self.first_output: dict = {}
        self.results: list[dict] = []

    def run_op(self, op, recorder=None) -> dict:
        if self.out_file.exists():
            self.out_file.unlink()
        argv = list(op.argv) + ["--out", str(self.out_file)]
        sink_out, sink_err = io.StringIO(), io.StringIO()
        code, error = 0, ""
        span = recorder.open("cli.command") if recorder else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
                self.cli.main.main(args=argv, prog_name="twomode-jcx", standalone_mode=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an uncaught exception is a traceback for a user
            code = "exception"
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        latency = time.perf_counter() - t0
        if span is not None:
            recorder.close(span)
        if not error:
            lines = [ln for ln in sink_err.getvalue().splitlines() if ln.strip()]
            error = lines[-1] if lines else ""
        output = self.out_file.read_bytes() if self.out_file.exists() else b""
        first = self.first_output.setdefault(op.argv, output) if op.command == "verify" else None
        verdict = self.checks.check(op, code, output, error, first)
        result = {"argv": list(op.argv), "latency_s": latency, "exit": code,
                  "ok": verdict.ok, "violation": verdict.violation, "reason": verdict.reason,
                  "traced": recorder is not None}
        self.results.append(result)
        return result

    def untraced_round(self, ops, index: int) -> dict:
        return {"untraced": [self.run_op(op) for op in ops]}

    def paired_round(self, ops, index: int) -> dict:
        """Every op untraced and traced back to back, the order alternating
        from op to op and from round to round, so that host drift between
        the two halves of a pair stays small and cancels in the median."""
        recorder = self.spans.Recorder()
        untraced, traced = [], []
        for i, op in enumerate(ops):
            for with_trace in ((False, True) if (i + index) % 2 == 0 else (True, False)):
                if not with_trace:
                    untraced.append(self.run_op(op))
                    continue
                installed = self.spans.Installation(recorder)
                try:
                    traced.append(self.run_op(op, recorder))
                finally:
                    installed.uninstall()
        return {"untraced": untraced, "traced": traced, "recorder": recorder}

    def run_rounds(self, round_fn, ops, budget_s: float, min_rounds: int, started: float):
        """Whole rounds, each after PROBES_PER_ROUND set-up probes, while the
        next one is expected to end within the budget; then set-up probes
        until there are SETUP_PROBES. Returns the rounds and the probes."""
        rounds, spans_s, setup = [], [], []
        t_start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            setup += measure_setup(PROBES_PER_ROUND)
            rounds.append(round_fn(ops, len(rounds)))
            now = time.perf_counter()
            spans_s.append(now - t_round)
            expected_end = now + statistics.median(spans_s)
            if expected_end - started > RUN_LIMIT_S:
                break
            if len(rounds) >= min_rounds and expected_end - t_start > budget_s:
                break
        setup += measure_setup(max(0, SETUP_PROBES - len(setup)))
        return rounds, setup


def end_to_end(rounds, setup_samples) -> dict:
    walls = [sum(r["latency_s"] for r in rnd) for rnd in rounds]
    rates = [sum(r["ok"] for r in rnd) / w for rnd, w in zip(rounds, walls)]
    lat = sorted(r["latency_s"] for rnd in rounds for r in rnd)
    n = len(lat)
    failed = sum(not r["ok"] for rnd in rounds for r in rnd)
    m = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(rates),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": None,
        "fail_ratio": failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = {"ops": n}
    if n >= TAIL_MIN_OPS:
        m["op_tail_s"] = lat[n - TAIL_BEYOND - 1]
        tail["percentile"] = 100.0 * (n - TAIL_BEYOND) / n
    return m, tail


def round_median(name: str, values: list):
    """Median over traced rounds; a count, the same in every round, stays a whole number."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return (statistics.median_low if layer_unit(name) == "count" else statistics.median)(present)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sector_sweep", "verify_suite", "states"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "twomode_jcx" / "cli.py").is_file():
        print(f"bench: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)

    sys.path.insert(0, str(SRC))
    import twomode_jcx.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "twomode_jcx").resolve():
        print(f"bench: imported twomode_jcx from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import spans
    import workloads

    env = environment()
    ops = workloads.make_round(args.workload, args.seed)
    runner = Runner(cli, checks, spans, args.workload)
    if args.trace:
        rounds, setup_samples = runner.run_rounds(runner.paired_round, ops, args.seconds, 1, started)
    else:
        rounds, setup_samples = runner.run_rounds(
            runner.untraced_round, ops, args.seconds, MIN_ROUNDS, started)
    untraced = [r["untraced"] for r in rounds]
    e2e, tail = end_to_end(untraced, setup_samples)

    layers = layers_per_round = None
    if args.trace:
        layers_per_round = []
        for r in rounds:
            traced_wall = sum(x["latency_s"] for x in r["traced"])
            m = spans.layer_metrics(r["recorder"], traced_wall)
            m["tracing_overhead_s"] = traced_wall - sum(x["latency_s"] for x in r["untraced"])
            layers_per_round.append(m)
        layers = {k: round_median(k, [m[k] for m in layers_per_round]) for k in layers_per_round[0]}

    results = runner.results
    failed = [r for r in results if not r["ok"]]
    correct = not any(r["violation"] for r in results)

    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"rounds={len(rounds)} ops/round={len(ops)}{' (each untraced and traced)' if args.trace else ''} "
             f"setup_probes={len(setup_samples)} closed loop, 1 client"]
    blas = env["numpy_blas"]
    lines.append(f"env: nproc={env['nproc']} blas={blas['name']} {blas['version']} "
                 f"({blas['openblas configuration']}) threads_env={env['threads_env']} "
                 f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    units = {**END_TO_END, **REPORT_ONLY_UNITS}
    for name in ("setup_s", "wall_s", "ops_per_s", "op_p50_s", "op_tail_s", "fail_ratio", "peak_rss_mb"):
        val, unit = e2e[name], units[name]
        if name == "op_tail_s":
            if val is None:
                lines.append(f"op_tail_s: omitted ({tail['ops']} ops; needs >= {TAIL_MIN_OPS})")
            else:
                lines.append(f"op_tail_s = {val:.6g} s (p{tail['percentile']:.1f} of {tail['ops']} ops)")
        elif name == "fail_ratio":
            n_untraced = sum(len(r) for r in untraced)
            n_failed = sum(not x["ok"] for r in untraced for x in r)
            lines.append(f"fail_ratio = {val:.6g} ratio ({n_failed} of {n_untraced} ops)")
        else:
            lines.append(f"{name} = {val:.6g} {unit}")
    if layers is None:
        lines.append("tracing_overhead_s: not measured (untraced run; see --trace 1)")
    else:
        lines.append(f"per-layer metrics: median over {len(rounds)} traced rounds")
        for name, val in layers.items():
            if val is None:
                lines.append(f"{name}: absent (no verify records on this workload)")
            else:
                lines.append(f"{name} = {val:.6g} {layer_unit(name)}")
    seen = set()
    for r in failed:
        key = (tuple(r["argv"]), r["reason"])
        if key not in seen:
            seen.add(key)
            lines.append(f"FAILED {r['reason']}\n  replay: twomode-jcx {shlex.join(r['argv'])}")
    print("\n".join(lines))

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_samples_s": setup_samples, "ops": [op.as_dict() for op in ops],
        "rounds": len(rounds), "end_to_end": e2e, "op_tail": tail, "layers": layers,
        "layers_per_round": layers_per_round,
        "results": results, "correct": correct,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")

    chosen, values = (PER_LAYER, layers) if args.trace else (END_TO_END, e2e)
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
