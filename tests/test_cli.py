import csv
import io
import json
import os
import tempfile
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode_jcx import cli
from twomode_jcx.cli import SCHEMA_VERSION, emit_rows, main
from twomode_jcx.wavefunc import oscillator_wavefunction


@pytest.fixture
def runner():
    return CliRunner()


def parse_csv(text):
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    meta = {}
    for ln in text.splitlines():
        if ln.startswith("# "):
            key, _, val = ln[2:].partition("=")
            meta[key] = val
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return rows, meta


class TestSpectrumCommand:
    def test_dirac2p1_column(self, runner):
        result = runner.invoke(
            main,
            ["spectrum", "--case", "dirac2p1", "--omega", "0.1", "--nmax", "5",
             "--mmax", "0", "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["schema_version"] == 1
        # m_n = 0 rows: both inner families coincide and give sqrt(1 + 0.4 n)
        plus_rows = [r for r in payload["rows"] if r["branch"] == "plus"]
        for n_l in range(6):
            ref = np.sqrt(1 + 0.4 * n_l)
            assert any(abs(r["energy"] - ref) < 1e-12 for r in plus_rows)

    def test_empty_grid(self, runner):
        result = runner.invoke(
            main, ["spectrum", "--nmax", "-1", "--mmax", "3", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["rows"] == []

    def test_json_csv_identical_numbers(self, runner, tmp_path):
        args = ["spectrum", "--f-re", "2", "--g-re", "1", "--nmax", "2", "--mmax", "2"]
        r_json = runner.invoke(main, args + ["--format", "json"])
        r_csv = runner.invoke(main, args + ["--format", "csv"])
        assert r_json.exit_code == 0 and r_csv.exit_code == 0
        json_rows = json.loads(r_json.output)["rows"]
        csv_rows, _ = parse_csv(r_csv.output)
        assert len(json_rows) == len(csv_rows)
        for a, b in zip(json_rows, csv_rows):
            assert float(b["energy"]) == a["energy"]  # 17 digits round-trip

    def test_out_file(self, runner, tmp_path):
        path = tmp_path / "levels.csv"
        result = runner.invoke(
            main, ["spectrum", "--nmax", "1", "--mmax", "1", "--format", "csv",
                   "--out", str(path)]
        )
        assert result.exit_code == 0
        text = path.read_text()
        assert text.splitlines()[0] == "n_l,m_n,branch,inner_sign,energy"
        assert "\r" not in text


class TestDiagonalizeCommand:
    def test_small_run(self, runner):
        result = runner.invoke(
            main,
            ["diagonalize", "--model", "jc-jc", "--f-re", "1", "--g-re", "1",
             "--cutoff", "16", "--sector", "3", "--count", "4", "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        assert len(rows) == 4
        assert all(r["sector"] == 3 for r in rows)
        vals = [r["energy_sq"] for r in rows]
        assert vals == sorted(vals)

    def test_cutoff_minimum_enforced(self, runner):
        result = runner.invoke(main, ["diagonalize", "--cutoff", "2"])
        assert result.exit_code == 2

    def test_degenerate_su11_coupling_reports_domain_error(self, runner):
        result = runner.invoke(
            main,
            ["diagonalize", "--model", "jc-ajc", "--f-re", "1", "--g-re", "1",
             "--cutoff", "16", "--sector", "0", "--count", "20"],
        )
        assert result.exit_code != 0


def _one_line_usage_error(result, fragment):
    """Exit 2 through click's usage error: one 'Error:' line, no traceback."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
    assert len(errors) == 1 and fragment in errors[0], result.output
    assert "Traceback" not in result.output


class TestDomainErrorExitCodes:
    @pytest.mark.parametrize("model, sector", [
        ("jc-ajc", "17"), ("jc-ajc", "-17"), ("jc-jc", "-1"), ("jc-jc", "33"),
    ])
    def test_sector_outside_charge_range(self, runner, model, sector):
        result = runner.invoke(
            main, ["diagonalize", "--model", model, "--cutoff", "16", "--sector", sector]
        )
        _one_line_usage_error(result, f"no sector with charge {sector} at cutoff 16")

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one(self, runner, count):
        result = runner.invoke(main, ["diagonalize", "--cutoff", "16", "--count", count])
        _one_line_usage_error(result, "--count must be at least 1")

    @pytest.mark.parametrize("flags, fragment", [
        (["--index", "-1"], "index -1 outside the dim-161 sector"),
        (["--charge", "200"], "no sector with charge 200 at cutoff 160"),
    ])
    def test_limits_level_outside_sector(self, runner, flags, fragment):
        result = runner.invoke(main, ["limits", "--case", "ndpa", *flags])
        _one_line_usage_error(result, fragment)

    @pytest.mark.parametrize("command", ["spectrum", "diagonalize", "verify"])
    @pytest.mark.parametrize("flags, fragment", [
        (["--mc2", "-1"], "mc2 must be positive"),
        (["--mc2", "inf"], "mc2 must be finite"),
        (["--hbar", "nan"], "hbar must be finite"),
        (["--f-re", "nan"], "f must be finite"),
        (["--g-im", "inf"], "g must be finite"),
    ])
    def test_invalid_model_parameters(self, runner, command, flags, fragment):
        result = runner.invoke(main, [command, *flags])
        _one_line_usage_error(result, fragment)

    @pytest.mark.parametrize("argv, fragment", [
        (["limits", "--omega1", "-1"], "frequencies must be nonnegative"),
        (["wavefunction", "--n-l", "-1"], "n_l and m_n must be nonnegative"),
        (["wavefunction", "--n-l", "3", "--m-n", "-2"], "n_l and m_n must be nonnegative"),
        (["wavefunction", "--n-rho", "-1"], "-1"),
        (["wavefunction", "--zeta-re", "0.5", "--n-l", "-1"], "n must be nonnegative"),
        (["verify", "--cutoff", "5"], "requested 8 levels from a dim-3 sector"),
        (["verify", "--cutoff", "0"], "no sector with charge -3 at cutoff 0"),
        (["verify", "--cutoff", "-3"], "cutoff must be nonnegative"),
        (["verify", "--seed", "-1"], ""),
        (["spectrum", "--case", "dirac2p1", "--hbar", "0"], "hbar must be positive"),
        (["diagonalize", "--case", "ndpa", "--hbar", "0"], "hbar must be positive"),
        (["limits", "--omega1", "0", "--omega2", "0"], "decay exponent undefined"),
        (["limits", "--scales", "1e4,1e4"], "at least two distinct scales"),
        (["limits", "--scales", "-1,1e4"], "limit scale must be positive and finite, got -1.0"),
        (["limits", "--scales", "0"], "limit scale must be positive and finite, got 0.0"),
        (["coherent-state", "--k", "inf"], "Bargmann index k must be positive and finite"),
        (["wavefunction", "--zeta-re", "nan"], "|zeta| < 1"),
        (["wavefunction", "--n-l", "400", "--m-n", "300"], "under node doubling"),
    ])
    def test_library_errors_end_at_the_group_boundary(self, runner, argv, fragment):
        _one_line_usage_error(runner.invoke(main, argv), fragment)

    def test_unwritable_out_path(self, runner, tmp_path):
        out = tmp_path / "missing" / "levels.json"
        result = runner.invoke(main, ["spectrum", "--nmax", "0", "--out", str(out)])
        _one_line_usage_error(result, "No such file or directory")

    @pytest.mark.parametrize("text, fragment", [
        ("{not json", "Expecting property name"),
        ("[1, 2]", "--config must hold a JSON object of per-command objects"),
        ('{"spectrum": 5}', "--config must hold a JSON object of per-command objects"),
    ])
    def test_bad_config(self, runner, tmp_path, text, fragment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        _one_line_usage_error(runner.invoke(main, ["--config", str(cfg), "spectrum"]), fragment)

    def test_non_finite_metadata_refused(self):
        with pytest.raises(click.UsageError, match="non-finite number in output"):
            emit_rows([], "json", None, meta={"decay_exponent": float("nan")})


class TestVerifyCommand:
    def test_fast_profile_passes(self, runner):
        result = runner.invoke(
            main, ["verify", "--cutoff", "60", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        statuses = {r["status"] for r in payload["rows"]}
        assert statuses <= {"PASS", "SKIP"}
        assert any(r["status"] == "PASS" for r in payload["rows"])

    def test_degenerate_coupling_skips(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--f-re", "1", "--g-re", "1", "--cutoff", "60",
             "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        skipped = [r for r in rows if r["status"] == "SKIP"]
        assert skipped
        assert any("|f| = |g|" in r["detail"] for r in skipped)

    def test_g_dominant_passes_with_the_minus_edge_state_skipped(self, runner):
        result = runner.invoke(
            main,
            ["verify", "--f-re", "1", "--g-re", "2", "--cutoff", "60",
             "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        assert {r["status"] for r in rows} <= {"PASS", "SKIP"}
        skipped = [r for r in rows if r["status"] == "SKIP"]
        assert [r["anchor"] for r in skipped] == ["spinor-edge-su11"]
        assert "no lower-branch eigenvector" in skipped[0]["detail"]
        assert any(r["anchor"] == "spinor-residual-su11" and r["status"] == "PASS" for r in rows)

    def test_g_zero_passes(self, runner):
        result = runner.invoke(
            main, ["verify", "--f-re", "1", "--g-re", "0", "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        assert {r["status"] for r in rows} <= {"PASS", "SKIP"}
        assert any(r["anchor"] == "tilting-su2" and r["status"] == "PASS" for r in rows)

    def test_loose_tol_keeps_the_record_tolerances(self, runner):
        args = ["verify", "--cutoff", "60", "--format", "json"]
        base = runner.invoke(main, args)
        loose = runner.invoke(main, args + ["--tol", "1e3"])
        assert base.exit_code == 0 and loose.exit_code == 0, loose.output
        tols = [[r["tolerance"] for r in json.loads(res.output)["rows"]] for res in (base, loose)]
        assert tols[0] == tols[1]

    def test_seeded_reports_byte_identical(self, runner, tmp_path):
        args = ["verify", "--cutoff", "60", "--seed", "7", "--format", "json"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        r1 = runner.invoke(main, args + ["--out", str(p1)])
        r2 = runner.invoke(main, args + ["--out", str(p2)])
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestWavefunctionCommand:
    def test_oscillator_grid(self, runner):
        result = runner.invoke(
            main,
            ["wavefunction", "--n-l", "0", "--m-n", "0", "--n-rho", "20",
             "--n-phi", "8", "--format", "csv"],
        )
        assert result.exit_code == 0, result.output
        rows, meta = parse_csv(result.output)
        assert len(rows) == 20 * 8
        assert list(rows[0].keys()) == ["rho", "phi", "re", "im", "abs2"]
        assert abs(float(meta["norm_estimate"]) - 1.0) <= 1e-6
        assert 0.0 <= float(meta["norm_error_estimate"]) <= 1e-7

    def test_zeta_zero_matches_oscillator_file(self, runner):
        base = ["wavefunction", "--n-l", "1", "--m-n", "1", "--n-rho", "10",
                "--n-phi", "6", "--format", "csv"]
        r1 = runner.invoke(main, base)
        r2 = runner.invoke(main, base + ["--zeta-re", "0", "--zeta-im", "0"])
        assert r1.output == r2.output
        # every sample is the oscillator eigenfunction, to the last printed digit
        rows, _ = parse_csv(r1.output)
        for row in rows:
            want = oscillator_wavefunction(1, 1, float(row["rho"]), float(row["phi"]))
            assert (row["re"], row["im"]) == (f"{want.real:.17g}", f"{want.imag:.17g}")

    @pytest.mark.parametrize("argv", [
        ["--zeta-re", "0.99", "--n-l", "2", "--m-n", "1"],
        ["--zeta-re", "0.9", "--n-l", "4", "--m-n", "4", "--n-rho", "4", "--n-phi", "4"],
        ["--zeta-re", "0.3", "--n-l", "50", "--m-n", "200"],
    ])
    def test_uncertified_norm_exits_2(self, runner, argv):
        # node doubling exposes these; each used to print a wrong norm_estimate
        _one_line_usage_error(runner.invoke(main, ["wavefunction", *argv]), "under node doubling")

    def test_norm_off_one_exits_2(self, runner):
        # no node reaches the peak at rho^2 ~ 2000: both rules agree on norm 0
        result = runner.invoke(main, ["wavefunction", "--m-n", "2000"])
        _one_line_usage_error(result, "quadrature norm 0 is not 1 within 1e-07")

    @pytest.mark.parametrize("value", ["-1", "-inf", "inf", "nan"])
    def test_bad_rho_max(self, runner, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["wavefunction", "--rho-max", value])
        _one_line_usage_error(result, "--rho-max must be nonnegative and finite")

    def test_zeta_0_6_certified(self, runner):
        result = runner.invoke(
            main, ["wavefunction", "--zeta-re", "0.6", "--n-l", "6", "--m-n", "6",
                   "--format", "json"]
        )
        assert result.exit_code == 0, result.output
        meta = json.loads(result.output)["meta"]
        assert abs(meta["norm_estimate"] - 1.0) <= 1e-7
        assert meta["norm_error_estimate"] <= 1e-7

    def test_deterministic(self, runner):
        args = ["wavefunction", "--n-l", "1", "--m-n", "2", "--zeta-re", "0.2",
                "--n-rho", "8", "--n-phi", "4", "--format", "json"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_singular_zeta_exit_code(self, runner):
        result = runner.invoke(
            main, ["wavefunction", "--zeta-re", "1.2", "--zeta-im", "0"]
        )
        assert result.exit_code == 2


class TestCoherentStateCommand:
    def test_su11_coefficients(self, runner):
        result = runner.invoke(
            main,
            ["coherent-state", "--algebra", "su11", "--k", "0.5", "--n", "0",
             "--zeta-re", "0.4", "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert abs(payload["meta"]["norm_sq"] - 1.0) <= 1e-10
        c0 = payload["rows"][0]
        assert c0["re"] == pytest.approx(np.sqrt(1 - 0.16), rel=1e-12)

    def test_su2_coefficients(self, runner):
        result = runner.invoke(
            main,
            ["coherent-state", "--algebra", "su2", "--j", "1.5", "--mu", "-1.5",
             "--zeta-re", "0.3", "--zeta-im", "0.2", "--format", "csv"],
        )
        assert result.exit_code == 0, result.output
        rows, meta = parse_csv(result.output)
        assert len(rows) == 4  # 2j + 1
        assert abs(float(meta["norm_sq"]) - 1.0) <= 1e-10

    @pytest.mark.parametrize("flags", [
        ["--k", "2", "--n", "40", "--zeta-re", "0.9"],
        ["--k", "3", "--n", "40", "--zeta-re", "0.9"],
        ["--k", "0.5", "--n", "2000", "--zeta-re", "0.3"],
        ["--algebra", "su2", "--j", "100", "--mu", "0"],
        ["--algebra", "su2", "--j", "20", "--mu", "0", "--zeta-re", "0.5"],
        ["--algebra", "su2", "--j", "24", "--mu", "0", "--zeta-re", "1.2"],
    ])
    def test_large_labels_certified(self, runner, flags):
        # Labels and |zeta| at which the alternating double sums cancel in float64.
        result = runner.invoke(main, ["coherent-state", *flags, "--format", "json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert abs(payload["meta"]["norm_sq"] - 1.0) <= 1e-10
        assert abs(1.0 - sum(r["abs2"] for r in payload["rows"])) <= 1e-10

    def test_bad_labels_exit_code(self, runner):
        result = runner.invoke(
            main, ["coherent-state", "--algebra", "su2", "--j", "1.0", "--mu", "0.3"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("k", ["0", "-0.5"])
    def test_nonpositive_k_exit_code(self, runner, k):
        result = runner.invoke(main, ["coherent-state", "--algebra", "su11", "--k", k])
        _one_line_usage_error(result, "Bargmann index k must be positive")


class TestLimitsCommand:
    def test_coupled_osc_decay(self, runner):
        result = runner.invoke(
            main,
            ["limits", "--case", "coupled-osc", "--omega1", "1", "--omega2", "2",
             "--charge", "2", "--index", "1", "--scales", "1e4,1e5,1e6",
             "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        errs = [r["rel_error"] for r in payload["rows"]]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 1e-5
        assert payload["meta"]["decay_exponent"] == pytest.approx(-1.0, abs=0.1)


class TestConfigPrecedence:
    def test_config_file_defaults(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"spectrum": {"nmax": 1, "mmax": 0}}))
        result = runner.invoke(
            main, ["--config", str(cfg), "spectrum", "--format", "json"]
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert {r["n_l"] for r in rows} == {0, 1}
        # CLI flag wins over the config value
        result = runner.invoke(
            main, ["--config", str(cfg), "spectrum", "--nmax", "0", "--format", "json"]
        )
        rows = json.loads(result.output)["rows"]
        assert {r["n_l"] for r in rows} == {0}


def _payload(rows, meta):
    payload = {"schema_version": SCHEMA_VERSION, "rows": rows}
    if meta:
        payload["meta"] = meta
    return payload


class TestJsonLayout:
    """JSON output is byte-equal to json.dumps(payload, indent=2) + "\\n"."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "jc-jc", "--nmax", "2", "--mmax", "2"],
        ["diagonalize", "--cutoff", "40", "--sector", "0", "--sector", "1", "--count", "3"],
        ["verify"],
        ["wavefunction", "--n-l", "1", "--m-n", "2", "--zeta-re", "0.3", "--n-rho", "5", "--n-phi", "4"],
        ["coherent-state", "--algebra", "su2", "--j", "2", "--mu", "0", "--zeta-im", "0.4"],
        ["limits", "--scales", "1e4,1e5"],
    ], ids=lambda argv: argv[0])
    def test_command_rows(self, runner, monkeypatch, argv):
        emitted = []

        def recording(rows, fmt, out_path, meta=None, fields=None):
            emitted.append(_payload(rows, meta))
            return emit_rows(rows, fmt, out_path, meta=meta, fields=fields)

        monkeypatch.setattr(cli, "emit_rows", recording)
        result = runner.invoke(main, [*argv, "--format", "json"])
        assert result.exit_code == 0, result.output
        (payload,) = emitted
        assert payload["rows"]
        assert result.stdout == json.dumps(payload, indent=2) + "\n"

    SCALARS = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.sampled_from([-0.0, 5e-324, np.float64(-2.5e-310), 1e308]),
        st.booleans(),
        st.none(),
        st.integers(),
        st.text(),
        st.sampled_from(["Δ ≤ 1e-10 — |ψ|² ✓", "{key}", 'quote " backslash \\ tab \t sep \u2028']),
    )

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        table=st.lists(
            st.fixed_dictionaries({
                "name": st.text(),
                "residual": SCALARS,
                "status": st.sampled_from(["PASS", "FAIL", "SKIP"]),
                "detail": SCALARS,
            }),
            max_size=5,
        ),
        loose=st.lists(st.dictionaries(st.text(), SCALARS, max_size=4), max_size=4),
        meta=st.dictionaries(st.text(), SCALARS, max_size=4),
    )
    def test_drawn_scalars(self, table, loose, meta):
        with tempfile.TemporaryDirectory() as tmp:
            for rows in (table, loose):
                out = os.path.join(tmp, "rows.json")
                emit_rows(rows, "json", out, meta=meta)
                with open(out, "rb") as fh:
                    got = fh.read()
                want = json.dumps(_payload(rows, meta), indent=2) + "\n"
                assert got == want.encode("utf-8")
