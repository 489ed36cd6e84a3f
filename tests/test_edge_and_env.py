"""Edge-regime spinors, thread budget, and report-flag coverage."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from twomode_jcx import parallel
from twomode_jcx.cli import main
from twomode_jcx.errors import EdgeStateError
from twomode_jcx.fock import ChargeKind, build_basis, reassemble, sector_decompose, project_operator
from twomode_jcx.models import (
    Branch,
    Component,
    ModelKind,
    ModelParams,
    build_full_hamiltonian,
    build_kg_operator,
    build_spinor,
    eigen_residual,
)


class TestGDominantEdgeStates:
    """|g| > |f| mirrors the edge structure: the vacuum level of the mixed
    model sits at E = +mc^2 with a vanishing lower component."""

    def test_vacuum_is_edge(self, basis60):
        p = ModelParams(g=2.0, f=1.0)
        h = build_full_hamiltonian(ModelKind.JC_AJC, p, basis60)
        s = build_spinor(ModelKind.JC_AJC, p, 0, 0, Branch.PLUS, basis60)
        assert s.edge
        assert s.energy == pytest.approx(1.0)
        assert eigen_residual(h, s) <= 1e-10
        with pytest.raises(EdgeStateError):
            build_spinor(ModelKind.JC_AJC, p, 0, 0, Branch.MINUS, basis60)

    @pytest.mark.parametrize("n_l,m_n", [(1, 0), (0, 2), (2, 3)])
    def test_excited_states_regular(self, basis60, n_l, m_n):
        p = ModelParams(g=2.0, f=1.0)
        h = build_full_hamiltonian(ModelKind.JC_AJC, p, basis60)
        for branch in (Branch.PLUS, Branch.MINUS):
            s = build_spinor(ModelKind.JC_AJC, p, n_l, m_n, branch, basis60)
            assert not s.edge
            assert eigen_residual(h, s) <= 1e-8


class TestReassembly:
    def test_kg_operator_roundtrip(self):
        basis = build_basis(8)
        p = ModelParams(g=0.7 + 0.2j, f=1.4)
        for kind, charge in (
            (ModelKind.JC_AJC, ChargeKind.DIFFERENCE_ND),
            (ModelKind.JC_JC, ChargeKind.SUM_NS),
        ):
            kg = build_kg_operator(kind, Component.UPPER, p, basis)
            sectors = sector_decompose(basis, charge)
            blocks = [project_operator(kg, s) for s in sectors]
            rebuilt = reassemble(blocks, sectors, basis.dim)
            assert abs(rebuilt - kg).max() == 0.0


class TestThreadBudget:
    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv("TWOMODE_JCX_THREADS", "3")
        assert parallel.thread_budget() == 3
        monkeypatch.setenv("TWOMODE_JCX_THREADS", "0")
        assert parallel.thread_budget() >= 1
        monkeypatch.setenv("TWOMODE_JCX_THREADS", "junk")
        assert parallel.thread_budget() >= 1

    def test_parallel_map_ordered(self, monkeypatch):
        monkeypatch.setenv("TWOMODE_JCX_THREADS", "4")
        out = parallel.parallel_map(lambda x: x * x, range(17))
        assert out == [x * x for x in range(17)]
        monkeypatch.setenv("TWOMODE_JCX_THREADS", "1")
        assert parallel.parallel_map(lambda x: -x, [3, 1, 2]) == [-3, -1, -2]


class TestVerifyFlags:
    def test_timing_flag_adds_runtime(self):
        runner = CliRunner()
        res = runner.invoke(
            main, ["verify", "--cutoff", "60", "--timing", "--format", "json"]
        )
        assert res.exit_code == 0, res.output
        rows = json.loads(res.output)["rows"]
        assert all("runtime_s" in r for r in rows)
        assert any(r["runtime_s"] > 0 for r in rows)

    def test_tol_override_can_fail(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "report.json"
        res = runner.invoke(
            main,
            ["verify", "--cutoff", "60", "--tol", "1e-300", "--format", "json",
             "--out", str(out)],
        )
        assert res.exit_code == 1  # verification failure exit code
        rows = json.loads(out.read_text())["rows"]
        assert any(r["status"] == "FAIL" for r in rows)
        # SKIP records stay skipped under the override
        assert all(r["status"] in {"PASS", "FAIL", "SKIP"} for r in rows)
