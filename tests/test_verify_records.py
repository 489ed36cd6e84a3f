"""``verify``'s record set and its structural identity check stay the same checks.

``verify_records_seed7.json`` holds the ordered (name, anchor, status,
tolerance) records of ``run_verification_suite`` at seed 7, captured from the
code before ``verify``'s checks were made cheaper, at the CLI default
couplings (f, g) = (2, 1), at (1, 2) and on the excluded |f| = |g| ray. A
change that drops, renames, reorders or reclassifies a record fails here.
"""

import json
import pathlib

import numpy as np
import pytest
from click.testing import CliRunner

from twomode_jcx import spectra, verify
from twomode_jcx.cli import main
from twomode_jcx.models import Branch, ModelParams
from twomode_jcx.verify import run_verification_suite

RECORDS = json.loads(
    (pathlib.Path(__file__).with_name("verify_records_seed7.json")).read_text(encoding="utf-8")
)


def _key(f, g):
    return f"{f:g},{g:g}"


@pytest.mark.parametrize("f, g", [(2.0, 1.0), (1.0, 2.0), (1.0, 1.0)])
def test_record_set_is_pinned(f, g):
    report = run_verification_suite(ModelParams(g=g, f=f), seed=7)
    got = [[r.name, r.anchor, r.status, r.tolerance] for r in report.records]
    assert got == RECORDS[_key(f, g)]


def test_cli_defaults_give_the_pinned_record_set():
    result = CliRunner().invoke(main, ["verify", "--seed", "7", "--format", "json"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.stdout)["rows"]
    got = [[r["name"], r["anchor"], r["status"], r["tolerance"]] for r in rows]
    assert got == RECORDS[_key(2.0, 1.0)]


@pytest.mark.parametrize("f, g", [
    (0.65, 1.0), (1.0, 0.65), (0.7, 1.0), (1.0, 0.7), (0.75, 1.0), (1.0, 0.75), (0.7 + 0.2j, 1.0),
])
def test_suite_passes_up_to_coupling_ratio_075(f, g):
    # Each spinor pair runs past its certified upper component, so no
    # truncation enters the spinor records; on a fixed cutoff-70 pair these
    # couplings fail spinor-residual-su11 at 1.6e-7 to 2.2e-3.
    report = run_verification_suite(ModelParams(g=g, f=f), seed=7)
    assert report.all_passed, [(r.anchor, r.residual) for r in report.failed]


def _complex_sample_residuals(seed, n_samples=10_000):
    """The identity check on complex couplings r e^{i theta}, |f|² = |f|**2:
    the formula the magnitude-only check replaced, kept as its oracle."""
    rng = np.random.default_rng(seed)
    f = np.empty(n_samples, dtype=complex)
    g = np.empty(n_samples, dtype=complex)
    have = 0
    while have < n_samples:
        cf = rng.uniform(0.1, 3.0, 2 * n_samples) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 2 * n_samples)
        )
        cg = rng.uniform(0.1, 3.0, 2 * n_samples) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, 2 * n_samples)
        )
        ok = np.abs(np.abs(cf) ** 2 - np.abs(cg) ** 2) >= 0.05 * (
            np.abs(cf) ** 2 + np.abs(cg) ** 2
        )
        take = min(n_samples - have, int(np.sum(ok)))
        f[have : have + take] = cf[ok][:take]
        g[have : have + take] = cg[ok][:take]
        have += take
    fa2, ga2 = np.abs(f) ** 2, np.abs(g) ** 2
    rad_a = np.sqrt((ga2 + fa2) ** 2 - 4 * ga2 * fa2)
    dev_a = np.max(np.abs(rad_a - np.abs(fa2 - ga2)) / (fa2 + ga2))
    rad_b = np.sqrt((ga2 - fa2) ** 2 + 4 * ga2 * fa2)
    dev_b = np.max(np.abs(rad_b - (fa2 + ga2)) / (fa2 + ga2))
    return (float(dev_a), float(dev_b)), (fa2, ga2)


@pytest.mark.parametrize("seed", [0, 7, 2024, 31337, 987654321])
def test_identity_check_is_the_complex_sample_check(seed):
    (dev_a, dev_b), (oracle_fa2, oracle_ga2) = _complex_sample_residuals(seed)
    rec_a, rec_b = verify._structural_identity_checks(seed)
    assert (rec_a.anchor, rec_b.anchor) == ("radicand-identity-a", "radicand-identity-b")
    assert abs(rec_a.residual - dev_a) <= 1e-15, (rec_a.residual, dev_a)
    assert abs(rec_b.residual - dev_b) <= 1e-15, (rec_b.residual, dev_b)
    fa2, ga2 = verify._coupling_magnitudes_sq(seed, 10_000)
    assert fa2.shape == ga2.shape == (10_000,)
    assert np.all(np.abs(fa2 - ga2) >= 0.05 * (fa2 + ga2))
    # the same couplings: |r e^{i theta}|² and r² differ only in rounding
    np.testing.assert_allclose(fa2, oracle_fa2, rtol=1e-15, atol=0)
    np.testing.assert_allclose(ga2, oracle_ga2, rtol=1e-15, atol=0)


def test_special_case_records_equal_the_scalar_loops():
    # the label-by-label loops the array calls replaced: same bits
    worst, worst_factor = 0.0, 0.0
    for omega in (0.1, 0.5):
        pre, _ = spectra.special_case_params(spectra.Dirac1p1(omega))
        for n_l in range(6):
            target = 2.0 * pre.hbar * omega * pre.mc2 * (n_l + 1)
            rewritten = spectra.su11_energy_sq_rewritten(pre, n_l) - pre.mc2**2
            general = spectra.su11_energy_sq(pre, n_l, 0) - pre.mc2**2
            worst = max(worst, abs(rewritten - target) / target)
            worst_factor = max(worst_factor, abs(rewritten - 2.0 * general) / target)
    worst_2p1 = 0.0
    for xi in (0.05, 0.1, 0.25):
        pre, _ = spectra.special_case_params(spectra.Dirac2p1(xi))
        for n_l in range(11):
            e = spectra.analytic_energy_su2(pre, n_l, 3, Branch.PLUS, inner_sign=-1)
            ref = pre.mc2 * np.sqrt(1.0 + 4.0 * xi * n_l)
            worst_2p1 = max(worst_2p1, abs(e - ref) / ref)
    got = {r.anchor: r.residual for r in verify._special_case_checks()}
    assert got["special-case-dirac1p1"] == worst
    assert got["special-case-dirac1p1-factor"] == worst_factor
    assert got["special-case-dirac2p1"] == worst_2p1
