import csv
import hashlib
import io
import json
import os
import tempfile
import threading
import warnings
from types import SimpleNamespace

import click
import mpmath
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode_jcx import cli, wavefunc
from twomode_jcx.cli import SCHEMA_VERSION, emit_rows, main
from twomode_jcx.displace import su11_ncs_coefficients
from twomode_jcx.wavefunc import ncs_wavefunction_series, oscillator_wavefunction


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


# One small table-producing argv per command.
COMMAND_ARGVS = [
    ["spectrum", "--model", "jc-jc", "--nmax", "2", "--mmax", "2"],
    ["diagonalize", "--cutoff", "40", "--sector", "0", "--sector", "1", "--count", "3"],
    ["verify"],
    ["wavefunction", "--n-l", "1", "--m-n", "2", "--zeta-re", "0.3", "--n-rho", "5", "--n-phi", "4"],
    ["coherent-state", "--algebra", "su2", "--j", "2", "--mu", "0", "--zeta-im", "0.4"],
    ["limits", "--scales", "1e4,1e5"],
]


def _mp_wavefunction(zeta, n_l, m_n, rho, phi):
    """psi at one point in mpmath, at 40 digits: the oscillator eigenfunction
    psi_{n_l, m_n} at zeta = 0, else the resummed closed form of the
    coherent-state wavefunction (``wavefunc.ncs_wavefunction_closed``)."""
    with mpmath.workdps(40):
        rho, z = mpmath.mpf(rho), mpmath.mpc(zeta)
        x = rho**2
        c = mpmath.sqrt(mpmath.factorial(n_l) / (mpmath.pi * mpmath.factorial(n_l + m_n)))
        if z == 0:
            val = (-1) ** n_l * c * rho**m_n * mpmath.laguerre(n_l, m_n, x) * mpmath.exp(-x / 2)
        else:
            w = (1 - abs(z) ** 2) / (mpmath.conj(z) * (1 + z))
            val = (c * rho**m_n * (1 - abs(z) ** 2) ** (mpmath.mpf(m_n + 1) / 2)
                   * (-mpmath.conj(z)) ** n_l * (1 + w) ** n_l * (1 + z) ** (-(m_n + 1))
                   * mpmath.exp(-x * (1 - z) / (2 * (1 + z)))
                   * mpmath.laguerre(n_l, m_n, w * x / ((1 + z) * (1 + w))))
        return complex(val * mpmath.expj(m_n * mpmath.mpf(phi)))


def _csv_cells(line):
    """The cells of one CSV line, quoted ones unquoted (RFC 4180)."""
    (cells,) = csv.reader([line])
    return cells


def _same_cell(text, value):
    """A CSV cell holds ``value``: floats equal after the round trip."""
    if isinstance(value, str):
        return text == value
    return type(value)(text) == value


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

    def test_omega_is_a_second_name_of_omega1(self, runner):
        # one option in --help; whichever name is given last wins
        help_lines = runner.invoke(main, ["spectrum", "--help"]).output.splitlines()
        assert [ln.split()[:2] for ln in help_lines if "--omega" in ln and "--omega2" not in ln] \
            == [["--omega1,", "--omega"]]
        base = ["spectrum", "--case", "dirac2p1", "--nmax", "2", "--mmax", "1"]
        outputs = {argv: runner.invoke(main, [*base, *argv.split()]).output for argv in (
            "--omega1 0.3", "--omega 0.3", "--omega 0.1 --omega1 0.3", "--omega1 0.1 --omega 0.3")}
        assert len(set(outputs.values())) == 1, outputs

    def test_empty_grid(self, runner):
        result = runner.invoke(
            main, ["spectrum", "--nmax", "-1", "--mmax", "3", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["rows"] == []

    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
    def test_json_csv_identical_numbers(self, runner, argv):
        r_json = runner.invoke(main, [*argv, "--format", "json"])
        r_csv = runner.invoke(main, [*argv, "--format", "csv"])
        assert r_json.exit_code == 0 and r_csv.exit_code == 0
        payload = json.loads(r_json.stdout)
        header, *lines = r_csv.stdout.splitlines()
        body = [ln for ln in lines if not ln.startswith("# ")]
        meta = [ln[2:].partition("=") for ln in lines if ln.startswith("# ")]
        assert payload["rows"] and len(body) == len(payload["rows"])
        assert all(header.split(",") == list(row) for row in payload["rows"])
        for line, row in zip(body, payload["rows"]):
            cells = _csv_cells(line)
            assert len(cells) == len(row), (line, row)
            assert all(map(_same_cell, cells, row.values())), (line, row)
        assert [k for k, _, _ in meta] == list(payload["meta"])
        assert all(_same_cell(v, payload["meta"][k]) for k, _, v in meta)

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


# sha256 of spectrum's stdout (JSON, CSV) for these argvs, pinned so that no
# change to the closed forms or to the table moves a byte; each exits 0 with
# nothing on stderr. The last two grids are empty.
SPECTRUM_GOLDEN = [
    ("",
     "5ce7d27a94501d4ed42b056042d5663cbc98f376e6de918fd750476a15849bbf",
     "5aa644ce3e60fafeb48f69d7ad3f42ed07e7f2f655e07af423a956f429aebf15"),
    ("--model jc-jc",
     "0daa94263390dd7a6bee8037572e2fa41a7e137cf9483329e175dc6ba13b8a77",
     "4cb54269e24ee6fc0bcb453588c726d497498023a5653d84b90c1ed7205d7ed4"),
    ("--case dirac1p1",
     "402c0acb59b8e4a6e59d664370a22d5b1c82d14e68fd3e5c674e44cd652cefbf",
     "7ef661d77eb60bc8b928c9626e1d96f82ad2f3f1c9a99b2c53ca77203f0cca28"),
    ("--case dirac2p1",
     "05c489f3659463c9afd21f006f4ae28ed60a056d4d27b99b059b61abc51e716a",
     "0d916877143181475c681e8e8ea6580f6477b0ec9c2901aa69fe9df3b60391f6"),
    ("--case ndpa",
     "f7a923f78a16e22b2c861cb1d14795c53b0275b1bdc6cc700752438e208e7bc8",
     "699466e8318d2af2dba5b65765ba523f52e286cba3e3c7f249996258f75b5393"),
    ("--case coupled-osc",
     "db8e3e702ffac3c17d4beea163ad0dffe1321060ff7879fcde51fd27843ae9d6",
     "aa8ac1ad29d6bb6b6fd5f305c3f83c92b74e749b6dbe15b92f9c1ec906229586"),
    ("--f-re 1 --g-re 2 --nmax 40 --mmax 40",
     "3db5e46d26410eeaf44d44fe568063a405b0c9824ec68cde1c86db3462f7cca3",
     "66dc3b24ed553b87251fde2bdc5be2a8e06734b95a0d89ab21ea54fc6602b480"),
    ("--model jc-jc --f-re 0.7 --f-im -1.3 --g-re 0.4 --g-im 2.1 --mc2 0.5 --hbar 1.7 --nmax 12 --mmax 9",
     "8b637322bd81f54bb3ff749e2a780f5ae7af91cdeaa5b6a202f621aea6a7c485",
     "3708e67351d157550491481c3529136adea0582074af87deb68e5d97770c59ea"),
    ("--nmax -1",
     "076a66575997ab653ad3c15f9b0ab5ae100e942c358768537250a8592b4eeaa5",
     "17c9b54b701924a2c4a2b3ab0843ce0afd4132ec37bdf9c56cedc02be7583cdb"),
    ("--nmax -3 --mmax -3",
     "076a66575997ab653ad3c15f9b0ab5ae100e942c358768537250a8592b4eeaa5",
     "17c9b54b701924a2c4a2b3ab0843ce0afd4132ec37bdf9c56cedc02be7583cdb"),
]


@pytest.mark.parametrize("argv, json_sha, csv_sha", SPECTRUM_GOLDEN,
                         ids=[argv or "default" for argv, _, _ in SPECTRUM_GOLDEN])
def test_spectrum_golden_bytes(runner, argv, json_sha, csv_sha):
    for fmt, sha in (("json", json_sha), ("csv", csv_sha)):
        result = runner.invoke(main, ["spectrum", *argv.split(), "--format", fmt])
        assert (result.exit_code, result.stderr) == (0, ""), result.output
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == sha, (argv, fmt)


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

    def test_sectors_solved_in_order_in_one_thread(self, runner, monkeypatch):
        def refuse(thread):
            raise AssertionError("diagonalize started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        monkeypatch.setenv("TWOMODE_JCX_THREADS", "4")  # read by no command
        result = runner.invoke(
            main,
            ["diagonalize", "--cutoff", "40", "--sector", "2", "--sector", "-1",
             "--sector", "0", "--count", "3", "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        assert [(r["sector"], r["level"]) for r in rows] == [
            (q, i) for q in (2, -1, 0) for i in range(3)
        ]

    @pytest.mark.parametrize("argv, want", [
        # N_s = cutoff, lower component: the sector is solved whole, so its
        # top states keep their a a† and b b† terms.
        (["--cutoff", "40", "--sector", "40", "--count", "3", "--component", "lower"],
         [6.0, 11.0, 16.0]),
        # N_s above the cutoff: still one finite irrep, solved whole.
        (["--cutoff", "20", "--sector", "30"], [1.0 + 5.0 * k for k in range(8)]),
    ], ids=["at-cutoff-lower", "above-cutoff"])
    def test_su2_sector_solved_whole(self, runner, argv, want):
        result = runner.invoke(
            main, ["diagonalize", "--model", "jc-jc", "--f-re", "2", "--g-re", "1", *argv,
                   "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        got = [r["energy_sq"] for r in json.loads(result.output)["rows"]]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("component", ["upper", "lower"])
    def test_every_su2_sector_of_the_cutoff(self, runner, component):
        # N_s = 0..2 cutoff all exit 0, --count clipped to each irrep's N_s + 1
        # levels: E² = 1 + 5k, k = 0..N_s (upper) or 1..N_s + 1 (lower).
        cutoff, shift = 4, 0 if component == "upper" else 1
        sectors = [arg for q in range(2 * cutoff + 1) for arg in ("--sector", str(q))]
        result = runner.invoke(
            main, ["diagonalize", "--model", "jc-jc", "--f-re", "1", "--g-re", "0", "--g-im", "2",
                   "--cutoff", str(cutoff), *sectors, "--count", "100",
                   "--component", component, "--format", "json"],
        )
        assert result.exit_code == 0, result.output
        rows = json.loads(result.output)["rows"]
        assert [(r["sector"], r["level"]) for r in rows] == [
            (q, k) for q in range(2 * cutoff + 1) for k in range(q + 1)
        ]
        want = [1.0 + 5.0 * (r["level"] + shift) for r in rows]
        np.testing.assert_allclose([r["energy_sq"] for r in rows], want, rtol=1e-10, atol=0)

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
        (["--hbar", "1e160"], "numeric overflow: hbar² overflows float64"),
        (["--f-im", "-1e160"], "numeric overflow: f² overflows float64"),
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
        (["verify", "--cutoff", "5"], "--cutoff must be at least 10"),
        (["verify", "--cutoff", "0"], "--cutoff must be at least 10"),
        (["verify", "--cutoff", "-3"], "--cutoff must be at least 10"),
        (["verify", "--seed", "-1"], ""),
        (["spectrum", "--case", "dirac2p1", "--hbar", "0"], "hbar must be positive"),
        (["diagonalize", "--case", "ndpa", "--hbar", "0"], "hbar must be positive"),
        (["limits", "--omega1", "0", "--omega2", "0"], "decay exponent undefined"),
        (["limits", "--scales", "1e4,1e4"], "at least two distinct scales"),
        (["limits", "--scales", "-1,1e4"], "limit scale must be positive and finite, got -1.0"),
        (["limits", "--scales", "0"], "limit scale must be positive and finite, got 0.0"),
        (["coherent-state", "--k", "inf"], "Bargmann index k must be positive and finite"),
        (["wavefunction", "--zeta-re", "nan"], "|zeta| < 1"),
        (["coherent-state", "--n", "10", "--max-index", "5"], "max_index = 5 is below n = 10"),
        (["coherent-state", "--max-index", "-1"], "max_index = -1 is below n = 0"),
        (["coherent-state", "--n", "100000", "--zeta-re", "0.99"], "(no level in the window"),
        (["limits", "--case", "ndpa", "--omega1", "0", "--omega2", "0"], "decay exponent undefined"),
        (["coherent-state", "--n", "3", "--max-index", "3"], "reaches index 32 above max_index=3"),
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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_metadata_refused(self, tmp_path, fmt):
        out = tmp_path / "rows.out"
        for rows, meta in [(cli.table(scale=[]), {"decay_exponent": float("nan")}),
                           (cli.table(index=[0, 1], abs2=[0.5, float("inf")]), None)]:
            with pytest.raises(click.UsageError, match="non-finite number in output"):
                emit_rows(rows, fmt, str(out), meta=meta)
            assert not out.exists()


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

    def test_csv_strings_read_back_as_json(self, runner):
        # name and detail cells hold commas; quoted, every row keeps the
        # header's fields and DictReader puts nothing under an overflow key.
        args = ["verify", "--seed", "7"]
        rows = json.loads(runner.invoke(main, [*args, "--format", "json"]).stdout)["rows"]
        text = runner.invoke(main, [*args, "--format", "csv"]).stdout
        got = list(csv.DictReader(ln for ln in text.splitlines() if not ln.startswith("# ")))
        assert len(got) == len(rows)
        assert any("," in row["detail"] for row in rows)
        for csv_row, row in zip(got, rows):
            assert None not in csv_row and list(csv_row) == list(row)
            assert all(csv_row[k] == v for k, v in row.items() if isinstance(v, str))

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

    @pytest.mark.parametrize("zeta, n_l, m_n, grid", [
        (0.99, 2, 1, []),
        (0.9, 4, 4, ["--n-rho", "4", "--n-phi", "4"]),
        (0.3, 50, 200, []),
        (0.3, 50, 200, ["--rho-max", "25"]),
        (0.0, 400, 300, []),
        (0.0, 400, 300, ["--rho-max", "50"]),
        (0.0, 100, 100, ["--rho-max", "25"]),
        (0.0, 0, 2000, ["--rho-max", "55"]),
    ])
    def test_certified_at_any_labels(self, runner, zeta, n_l, m_n, grid):
        # norms that need more than 170 Gauss-Laguerre nodes (up to 7 384);
        # the --rho-max rows sample the whole support (out to rho^2 ~ 2n + m). The tolerance is
        # absolute: these states peak at |psi| ~ 0.02-0.06, and in the far
        # tail (0.3, 50, 200 on [0, 4]) the truncated series is ~1e-31 where
        # psi is ~1e-72.
        result = runner.invoke(main, ["wavefunction", "--zeta-re", str(zeta), "--n-l", str(n_l),
                                      "--m-n", str(m_n), *grid])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.stdout)
        assert abs(payload["meta"]["norm_estimate"] - 1.0) <= 1e-7
        rows = payload["rows"][:: max(1, len(payload["rows"]) // 64)]
        have = np.array([complex(r["re"], r["im"]) for r in rows])
        want = np.array([_mp_wavefunction(zeta, n_l, m_n, r["rho"], r["phi"]) for r in rows])
        assert np.max(np.abs(have - want)) <= 1e-12

    @pytest.mark.parametrize("argv, nodes", [
        (["--zeta-re", "0.999"], 55236),
        (["--m-n", "1000000000"], 1000000002),
    ])
    def test_node_cap_exits_2_before_building_a_rule(self, runner, monkeypatch, argv, nodes):
        def refuse(n):
            raise AssertionError("a rule above the cap was built")

        monkeypatch.setattr(wavefunc, "_laguerre_rule", refuse)
        _one_line_usage_error(runner.invoke(main, ["wavefunction", *argv]),
                              f"Gauss-Laguerre nodes = {nodes} exceeds the cap of {wavefunc.MAX_NODES}")

    def test_norm_off_one_exits_2(self, runner, monkeypatch):
        # an unnormalized coefficient vector: both rules agree on its norm
        ncs = cli.su11_ncs_coefficients
        monkeypatch.setattr(cli, "su11_ncs_coefficients",
                            lambda *args: SimpleNamespace(coeffs=1.001 * ncs(*args).coeffs))
        result = runner.invoke(main, ["wavefunction", "--zeta-re", "0.5", "--n-l", "2"])
        _one_line_usage_error(result, "quadrature norm 1.002001 is not 1 within 1e-07")

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

    def test_abs2_over_the_column(self, runner):
        # abs2 is np.abs(vals) ** 2 over the whole column, bit for bit. On
        # this grid np.abs(v) ** 2 one sample at a time differs from it in 14
        # samples, so the form cannot change unnoticed. (Which grids show a
        # difference depends on the last bits of the coefficients.)
        result = runner.invoke(main, ["wavefunction", "--n-l", "3", "--m-n", "3", "--zeta-re", "0.5",
                                      "--n-rho", "64", "--n-phi", "16", "--format", "json"])
        assert result.exit_code == 0, result.output
        rho = np.linspace(0.0, 4.0, 64)
        phi = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        vals = ncs_wavefunction_series(complex(0.5, 0.0), 3, 3, rho[:, None], phi[None, :]).ravel()
        rows = json.loads(result.stdout)["rows"]
        assert [complex(r["re"], r["im"]) for r in rows] == vals.tolist()
        want = (np.abs(vals) ** 2).tolist()
        assert [r["abs2"] for r in rows] == want
        assert [float(np.abs(v) ** 2) for v in vals] != want

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

    def test_abs2_over_the_column(self, runner):
        # abs2 is np.abs(coeffs) ** 2 over the whole column, bit for bit;
        # abs(c) ** 2 one coefficient at a time differs from it in some of these 68
        result = runner.invoke(main, ["coherent-state", "--k", "1.5", "--n", "3", "--zeta-re", "0.5",
                                      "--zeta-im", "-0.2", "--format", "json"])
        assert result.exit_code == 0, result.output
        coeffs = su11_ncs_coefficients(1.5, 3, 0.5 - 0.2j).coeffs
        rows = json.loads(result.stdout)["rows"]
        assert [complex(r["re"], r["im"]) for r in rows] == coeffs.tolist()
        want = (np.abs(coeffs) ** 2).tolist()
        assert [r["abs2"] for r in rows] == want
        assert [float(abs(c) ** 2) for c in coeffs] != want

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

    def test_coupled_osc_sector_above_the_cutoff(self, runner):
        # N_s = 200 exceeds the limit check's cutoff 160: the sector is
        # solved whole, and its level 1 is w1 + w2 = 3.
        result = runner.invoke(main, ["limits", "--case", "coupled-osc", "--charge", "200",
                                      "--format", "json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        for row in payload["rows"]:
            assert row["eps_analytic"] == pytest.approx(3.0, rel=1e-12)
        assert payload["meta"]["decay_exponent"] == pytest.approx(-1.0, abs=0.15)


    @pytest.mark.parametrize("index", ["30", "100"])
    def test_unconverged_amplifier_level_refused(self, runner, index):
        # The cut N_d ladder misplaces these levels (level 100 is 253.6 at
        # cutoff 160, 132.4 at 320 and 99.0 at 640): doubling refuses them.
        result = runner.invoke(main, ["limits", "--case", "ndpa", "--index", index])
        _one_line_usage_error(result, "cutoff doubling moved eigenvalues")


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


def _dicts(rows):
    """A table's rows as dicts, the way json.dumps is given them."""
    return [dict(zip(rows.dtype.names, row)) for row in rows.tolist()]


def _payload(rows, meta):
    payload = {"schema_version": SCHEMA_VERSION, "rows": rows}
    if meta:
        payload["meta"] = meta
    return payload


class TestEmptyTableCsv:
    """An empty table's CSV still starts with the command's header row."""

    @pytest.mark.parametrize("argv", [*COMMAND_ARGVS, ["verify", "--timing"]],
                             ids=[argv[0] for argv in COMMAND_ARGVS] + ["verify-timing"])
    def test_emptied_table_keeps_the_header(self, runner, monkeypatch, argv):
        headers = []

        def emptied(rows, fmt, out_path, meta=None):
            assert len(rows)
            headers.append(",".join(rows.dtype.names))
            return emit_rows(rows[:0], fmt, out_path, meta=meta)

        monkeypatch.setattr(cli, "emit_rows", emptied)
        result = runner.invoke(main, [*argv, "--format", "csv"])
        assert result.exit_code == 0, result.output
        (header,) = headers
        assert result.stdout.split("\n")[0] == header

    @pytest.mark.parametrize("argv, header", [
        (["spectrum", "--nmax", "-1"], "n_l,m_n,branch,inner_sign,energy"),
        (["wavefunction", "--n-rho", "0"], "rho,phi,re,im,abs2"),
        (["limits", "--scales", ","], "scale,eps_model,eps_analytic,offset,rel_error"),
    ], ids=["spectrum", "wavefunction", "limits"])
    def test_empty_table(self, runner, argv, header):
        result = runner.invoke(main, [*argv, "--format", "csv"])
        assert result.exit_code == 0, result.output
        assert result.stdout.split("\n")[0] == header


class TestCsvQuoting:
    """A CSV string cell is raw unless it needs quoting (RFC 4180)."""

    @pytest.mark.parametrize("value, cell", [
        ("plain", "plain"), ("", ""), ("a,b", '"a,b"'), ('say "hi"', '"say ""hi"""'),
        ("two\nlines", '"two\nlines"'), ("cr\rhere", '"cr\rhere"'),
    ])
    def test_string_cell(self, tmp_path, value, cell):
        out = tmp_path / "rows.csv"
        emit_rows(cli.table(name=[value], level=[1]), "csv", str(out))
        text = out.read_bytes().decode("utf-8")
        assert text == f"name,level\n{cell},1\n"
        assert list(csv.reader(io.StringIO(text, newline=""))) == [["name", "level"], [value, "1"]]


class TestJsonLayout:
    """JSON output is byte-equal to json.dumps(payload, indent=2) + "\\n"."""

    @pytest.mark.parametrize("argv", COMMAND_ARGVS, ids=lambda argv: argv[0])
    def test_command_rows(self, runner, monkeypatch, argv):
        emitted = []

        def recording(rows, fmt, out_path, meta=None):
            emitted.append(_payload(_dicts(rows), meta))
            return emit_rows(rows, fmt, out_path, meta=meta)

        monkeypatch.setattr(cli, "emit_rows", recording)
        result = runner.invoke(main, [*argv, "--format", "json"])
        assert result.exit_code == 0, result.output
        (payload,) = emitted
        assert payload["rows"]
        assert result.stdout == json.dumps(payload, indent=2) + "\n"

    FLOATS = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.sampled_from([-0.0, 5e-324, np.float64(-2.5e-310), 1e308]),
    )
    TEXT = st.one_of(
        st.text(),
        st.sampled_from(["Δ ≤ 1e-10 — |ψ|² ✓", "{key}", 'quote " backslash \\ tab \t sep \u2028']),
    )
    NAMES = ("name", "residual", "level", "detail")

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        rows=st.lists(st.tuples(TEXT, FLOATS, st.integers(-2**63, 2**63 - 1), TEXT), max_size=5),
        meta=st.dictionaries(st.text(), st.one_of(FLOATS, st.integers(), TEXT), max_size=4),
    )
    def test_drawn_scalars(self, rows, meta):
        # int columns are int64; meta ints are Python ints of any size
        columns = zip(*rows) if rows else [[]] * len(self.NAMES)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "rows.json")
            emit_rows(cli.table(**dict(zip(self.NAMES, columns))), "json", out, meta=meta)
            with open(out, "rb") as fh:
                got = fh.read()
        want = json.dumps(_payload([dict(zip(self.NAMES, r)) for r in rows], meta), indent=2) + "\n"
        assert got == want.encode("utf-8")
