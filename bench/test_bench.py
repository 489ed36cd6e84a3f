"""Tests of the benchmark itself: span arithmetic, the checker, seeded inputs.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads
from spans import Recorder, Span, self_times, summarize


def ticking_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    rec = Recorder(clock=ticking_clock([0.0, 1.0, 4.0, 5.0, 6.0, 10.0]))
    outer = rec.open("cli.command")
    inner = rec.open("fock.build_basis")
    rec.close(inner)
    second = rec.open("lapack.eigensolve")
    rec.close(second)
    rec.close(outer)
    own = self_times(rec.spans)
    assert own[outer.sid] == pytest.approx(6.0)  # 10 - 3 - 1
    assert own[inner.sid] == pytest.approx(3.0)
    assert own[second.sid] == pytest.approx(1.0)
    groups = summarize(rec.spans)
    assert groups["cli.command"] == {"self_s": pytest.approx(6.0), "calls": 1}


def test_recursion_in_one_group_counts_one_call_and_no_double_time():
    rec = Recorder(clock=ticking_clock([0.0, 2.0, 5.0, 9.0]))
    outer = rec.open("models.kg_operator")
    inner = rec.open("models.kg_operator")
    rec.close(inner)
    rec.close(outer)
    g = summarize(rec.spans)["models.kg_operator"]
    assert g["calls"] == 1
    assert g["self_s"] == pytest.approx(9.0)


def test_pool_thread_spans_are_not_children_of_the_waiting_span():
    rec = Recorder()
    caller = rec.open("parallel.map")

    def work(_):
        span = rec.open("spectra.numeric_spectrum")
        rec.close(span)
        return span.thread

    with ThreadPoolExecutor(max_workers=2) as pool:
        threads = list(pool.map(work, range(4)))
    rec.close(caller)
    workers = [s for s in rec.spans if s.group == "spectra.numeric_spectrum"]
    assert all(s.parent is None for s in workers)
    assert caller.thread not in threads
    assert self_times(rec.spans)[caller.sid] == pytest.approx(caller.duration)


def test_self_time_is_per_thread():
    # Caller waits 0..10 while a pool thread runs a span 1..9 with a child 2..5.
    waiting = Span(0, "parallel.map", thread=1, parent=None, start=0.0, end=10.0)
    worker = Span(1, "spectra.numeric_spectrum", thread=2, parent=None, start=1.0, end=9.0)
    child = Span(2, "lapack.eigensolve", thread=2, parent=1, start=2.0, end=5.0,
                 counts={"dim": 40})
    groups = summarize([child, worker, waiting])
    assert groups["parallel.map"]["self_s"] == pytest.approx(10.0)
    assert groups["spectra.numeric_spectrum"]["self_s"] == pytest.approx(5.0)
    assert groups["lapack.eigensolve"] == {"self_s": pytest.approx(3.0), "calls": 1, "dim": 40}


def test_install_rebinds_by_name_imports_and_restores():
    sys.path.insert(0, str(run.SRC))
    import twomode_jcx.cli as cli
    import twomode_jcx.fock as fock
    import twomode_jcx.models as models
    import twomode_jcx.spectra as spectra

    original = fock.build_basis
    linalg = spectra.la
    rec = Recorder()
    inst = spans.Installation(rec)
    try:
        assert cli.build_basis is fock.build_basis is not original
        assert models.get_sector is fock.get_sector
        sector = fock.get_sector(fock.build_basis(30), fock.ChargeKind.DIFFERENCE_ND, 0)
        p = models.ModelParams(g=1.0, f=2.0)
        spectra.numeric_spectrum(models.ModelKind.JC_AJC, models.Component.UPPER, p, sector, 2)
    finally:
        inst.uninstall()
    assert fock.build_basis is original and cli.build_basis is original
    assert spectra.la is linalg
    groups = summarize(rec.spans)
    # Ours, plus build_kg_operator's for the cutoff-30 sector; the doubled
    # cutoff 60 is built by numeric_spectrum and again by build_kg_operator.
    assert groups["fock.build_basis"]["states"] == 2 * 31**2 + 2 * 61**2
    assert groups["lapack.eigensolve"]["calls"] == 2
    assert groups["lapack.eigensolve"]["dim"] == 31 + 61


def _diagonalize_output(model, f, g, cutoff, sectors, count):
    rows = []
    for q in sectors:
        levels = min(count, checks.sector_dim(model, cutoff, q))
        if model == "jc-ajc":
            vals = [checks.su11_sector_energy_sq(f, g, 1.0, 1.0, q, n) for n in range(levels)]
        else:
            vals = checks.su2_sector_energy_sq(f, g, 1.0, 1.0, q)[:levels]
        rows += [{"sector": q, "level": n, "energy_sq": float(v)} for n, v in enumerate(vals)]
    return rows


def _op(command, params):
    return workloads.Op(command, params, ("x",))


@pytest.mark.parametrize("model,rel", [("jc-ajc", 1e-7), ("jc-jc", 1e-9)])
def test_checker_rejects_a_perturbed_eigenvalue(model, rel):
    f, g = 2.0 + 0.3j, 0.7 - 0.1j
    params = {"model": model, "f": f, "g": g, "mc2": 1.0, "hbar": 1.0,
              "cutoff": 40, "sectors": [3, 6], "count": 4}
    rows = _diagonalize_output(model, f, g, 40, [3, 6], 4)
    op = _op("diagonalize", params)
    good = json.dumps({"schema_version": 1, "rows": rows}).encode()
    assert checks.check(op, 0, good, "").ok
    rows[5]["energy_sq"] *= 1.0 + rel
    bad = checks.check(op, 0, json.dumps({"rows": rows}).encode(), "")
    assert not bad.ok and bad.violation
    missing = checks.check(op, 0, json.dumps({"rows": rows[:-1]}).encode(), "")
    assert not missing.ok and missing.violation


def _coherent_output(coeffs):
    rows = [{"index": i, "re": float(c.real), "im": float(c.imag), "abs2": float(abs(c) ** 2)}
            for i, c in enumerate(coeffs)]
    meta = {"norm_sq": float(np.sum(np.abs(coeffs) ** 2))}
    return json.dumps({"rows": rows, "meta": meta}).encode()


@pytest.mark.parametrize("params", [
    {"algebra": "su11", "k": 1.5, "n": 2, "zeta": 0.3 + 0.2j},
    {"algebra": "su2", "j": 3.0, "mu": -1.0, "zeta": 0.5 - 0.8j},
])
def test_checker_rejects_a_perturbed_norm(params):
    if params["algebra"] == "su11":
        ref = checks.irrep_column("su11", params["k"], params["n"], params["zeta"])
        ref = ref[np.abs(ref) > 1e-17]  # the CLI stops once the tail is negligible
    else:
        ref = checks.irrep_column("su2", params["j"], int(params["j"] + params["mu"]), params["zeta"])
    op = _op("coherent-state", params)
    assert checks.check(op, 0, _coherent_output(ref), "").ok
    verdict = checks.check(op, 0, _coherent_output(ref * (1 + 1e-9)), "")
    assert not verdict.ok and not verdict.violation
    assert "norm_sq" in verdict.reason


def test_checker_rejects_a_perturbed_wavefunction_norm():
    params = {"n_l": 1, "m_n": 2, "zeta": 0j, "n_rho": 4, "n_phi": 3}
    rho = np.repeat(np.linspace(0.0, 4.0, 4), 3)
    phi = np.tile(np.linspace(0.0, 2 * np.pi, 3, endpoint=False), 4)
    vals = checks.oscillator(1, 2, rho, phi)
    rows = [{"rho": float(r), "phi": float(p), "re": float(v.real), "im": float(v.imag),
             "abs2": float(abs(v) ** 2)} for r, p, v in zip(rho, phi, vals)]
    op = _op("wavefunction", params)

    def out(norm):
        return json.dumps({"rows": rows, "meta": {"norm_estimate": norm}}).encode()

    assert checks.check(op, 0, out(1.0 + 1e-12), "").ok
    assert not checks.check(op, 0, out(1.0 + 1e-6), "").ok


def test_checker_counts_clean_error_exits_as_failures_only():
    op = _op("verify", {"f": 1.0, "g": 2.0, "seed": 1})
    clean = checks.check(op, 2, b"", "Error: edge state")
    assert not clean.ok and not clean.violation
    crash = checks.check(op, "exception", b"", "ZeroDivisionError")
    assert not crash.ok and crash.violation


def test_verify_check_demands_byte_identical_repeats():
    rows = [{"anchor": "a", "status": "PASS"}, {"anchor": "b", "status": "SKIP"}]
    first = json.dumps({"rows": rows}).encode()
    op = _op("verify", {})
    assert checks.check(op, 0, first, "", first).ok
    assert checks.check(op, 0, first + b" ", "", first).violation


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fixed_seed_regenerates_identical_inputs(workload):
    a = [op.argv for op in workloads.make_round(workload, 7)]
    b = [op.argv for op in workloads.make_round(workload, 7)]
    c = [op.argv for op in workloads.make_round(workload, 8)]
    assert a == b
    assert a != c


def test_generated_couplings_stay_in_the_verify_domain():
    for seed in range(20):
        for op in workloads.make_round("sector_sweep", seed) + workloads.make_round("verify_suite", seed):
            fa, ga = abs(op.params["f"]), abs(op.params["g"])
            assert 0.4 <= min(fa, ga) and max(fa, ga) <= 2.0
            assert 2 * fa * ga / (fa**2 + ga**2) <= workloads.TILT_MAX


def test_tail_percentile_keeps_ten_ops_beyond_it():
    ops = [{"latency_s": float(i), "ok": True} for i in range(40)]
    e2e, tail = run.end_to_end([ops[:20], ops[20:]], [0.5])
    assert e2e["op_tail_s"] == 29.0
    assert tail == {"ops": 40, "percentile": 75.0}
    e2e, tail = run.end_to_end([ops[:5]], [0.5])
    assert e2e["op_tail_s"] is None and tail == {"ops": 5}


def test_benchmark_refuses_a_tree_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path) / "src")
    assert run.main(["--workload", "states", "--seed", "1", "--seconds", "1"]) == 2


def test_paired_round_runs_each_op_untraced_and_traced_then_unwraps():
    sys.path.insert(0, str(run.SRC))
    import twomode_jcx.cli as cli
    import twomode_jcx.fock as fock

    original = fock.build_basis
    run.OUT.mkdir(exist_ok=True)
    runner = run.Runner(cli, checks, spans, "pytest")
    ops = workloads.make_round("states", 1)[:2]
    for index in (0, 1):
        r = runner.paired_round(ops, index)
        assert [x["traced"] for x in r["untraced"]] == [False, False]
        assert [x["traced"] for x in r["traced"]] == [True, True]
        assert summarize(r["recorder"].spans)["cli.command"]["calls"] == 2
    assert [x["traced"] for x in runner.results] == [False, True, True, False, True, False, False, True]
    assert fock.build_basis is original and cli.build_basis is original


def test_round_median_skips_absent_values_and_keeps_counts_whole():
    assert run.round_median("verify.records_pass_ratio", [None, None]) is None
    assert run.round_median("verify.records_pass_ratio", [0.5, None, 1.0]) == 0.75
    assert run.round_median("fock.sector.self_s", [3.0, 1.0, 2.0, 4.0]) == 2.5
    assert run.round_median("verify.records", [86, 86]) == 86
    assert isinstance(run.round_median("verify.records", [86, 86]), int)
