"""Structured self-verification suite behind the ``verify`` CLI command.

Each check produces a ReportRecord with a stable anchor slug, the computed
and reference values, the residual and its tolerance. Checks cover algebra
closure, conjugation identities, tilting diagonalization, analytic-versus-
numeric spectra, coherent-state normalization, and the wavefunction
equivalences. Runtimes are recorded but excluded from serialized reports
unless requested, so fixed-seed runs are byte-identical.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from . import displace, liealg, spectra, wavefunc
from .errors import EdgeStateError
from .fock import ChargeKind, sector_basis, su2_irrep
from .liealg import AlgebraKind
from .models import (
    Branch,
    Component,
    ModelKind,
    ModelParams,
    sector_spinor,
    tilted_number_state,
)


class ReportRecord(NamedTuple):
    name: str
    anchor: str
    computed: float
    reference: float
    residual: float
    tolerance: float
    status: str  # PASS / FAIL / SKIP
    runtime: float | None = None
    detail: str = ""

    @classmethod
    def check(cls, name, anchor, residual, tolerance, computed=0.0, reference=0.0, detail=""):
        return cls(
            name=name,
            anchor=anchor,
            computed=float(computed),
            reference=float(reference),
            residual=float(residual),
            tolerance=float(tolerance),
            status="PASS" if residual <= tolerance else "FAIL",
            detail=detail,
        )

    @classmethod
    def skip(cls, name, anchor, detail):
        return cls(
            name=name,
            anchor=anchor,
            computed=0.0,
            reference=0.0,
            residual=0.0,
            tolerance=0.0,
            status="SKIP",
            detail=detail,
        )


class VerificationReport:
    __slots__ = ("records",)

    def __init__(self, records: list | None = None):
        self.records = [] if records is None else records

    @property
    def failed(self) -> list:
        return [r for r in self.records if r.status == "FAIL"]

    @property
    def all_passed(self) -> bool:
        return not self.failed


def _timed(fn):
    t0 = time.perf_counter()
    recs = fn()
    share = (time.perf_counter() - t0) / max(1, len(recs))
    return [r._replace(runtime=share) if r.runtime is None else r for r in recs]


def _algebra_checks(cutoff: int):
    recs = []
    for algebra in (AlgebraKind.SU11, AlgebraKind.SU2):
        tag = algebra.value
        rep = liealg.verify_sector_algebra(cutoff, algebra, interior_margin=1)
        recs.append(
            ReportRecord.check(
                f"{tag} closure (cutoff {cutoff})",
                f"algebra-closure-{tag}",
                rep.max_residual,
                1e-12,
                detail="; ".join(f"{k}={v:.1e}" for k, v in rep.residuals.items()),
            )
        )
        recs.append(
            ReportRecord.check(
                f"{tag} Casimir commutes (scaled)",
                f"casimir-commutation-{tag}",
                rep.max_casimir_residual,
                1e-12,
            )
        )
    return recs


def _similarity_checks(seed: int):
    recs = []
    rng = np.random.default_rng(seed)
    for n_s in (4, 8):
        xi = 0.4 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        sec = sector_basis(24, ChargeKind.SUM_NS, n_s)
        rep = displace.verify_similarity(xi, sec)
        recs.append(
            ReportRecord.check(
                f"su2 conjugation identities (N_s={n_s})",
                "bch-similarity-su2",
                rep.max_residual,
                1e-10,
            )
        )
    for d, mag in ((0, 0.5), (1, 0.2)):
        xi = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
        sec = sector_basis(120, ChargeKind.DIFFERENCE_ND, d)
        rep = displace.verify_similarity(xi, sec, keep=12)
        recs.append(
            ReportRecord.check(
                f"su11 conjugation identities (N_d={d}, |xi|={mag})",
                "bch-similarity-su11",
                rep.max_residual,
                1e-8,
            )
        )
    # Normal form == direct exponential
    tp = displace.TiltingParams.from_xi(AlgebraKind.SU2, 0.3 * np.exp(0.7j))
    sec = sector_basis(24, ChargeKind.SUM_NS, 6)
    dev = np.max(
        np.abs(displace.displacement_normal(tp, sec) - displace.displacement_direct(tp.xi, sec))
    )
    recs.append(
        ReportRecord.check("su2 normal form == direct", "normal-form-su2", dev, 1e-12)
    )
    tp11 = displace.TiltingParams.from_xi(AlgebraKind.SU11, -0.4)
    # exp(zeta G+) is lower and exp(-zeta* G-) upper triangular, so the normal
    # form's leading 15x15 block is the normal form on the first 15 states;
    # the direct side keeps the cut 121-state ladder, whose truncation this checks
    sec = sector_basis(120, ChargeKind.DIFFERENCE_ND, 0)
    full_dev = (
        displace.displacement_normal(tp11, sector_basis(14, ChargeKind.DIFFERENCE_ND, 0))
        - displace.displacement_direct(tp11.xi, sec, slice(15))[:15]
    )
    recs.append(
        ReportRecord.check(
            "su11 normal form == direct (lowest 15)",
            "normal-form-su11",
            float(np.max(np.abs(full_dev))),
            1e-8,
        )
    )
    return recs


def _tilting_checks(p: ModelParams, seed: int, n_random: int = 5):
    recs = []
    rng = np.random.default_rng(seed)

    def pairs():
        yield p.f, p.g, "configured"
        made = 0
        while made < n_random:
            f = rng.uniform(0.4, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            g = rng.uniform(0.4, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            # keep the hyperbolic angle moderate so cutoff-140 truncation
            # stays far below the tolerance
            if 2 * abs(f) * abs(g) / (abs(f) ** 2 + abs(g) ** 2) > 0.8:
                continue
            made += 1
            yield f, g, f"random-{made}"

    for f, g, tag in pairs():
        pp = ModelParams(g=g, f=f, mc2=p.mc2, hbar=p.hbar)
        if abs(abs(f) - abs(g)) < 1e-12:
            recs.append(
                ReportRecord.skip(
                    f"su11 tilting ({tag})",
                    "tilting-su11",
                    "|f| = |g|: hyperbolic angle diverges; excluded domain",
                )
            )
        else:
            sec = sector_basis(140, ChargeKind.DIFFERENCE_ND, 0)
            rep = spectra.verify_tilting(ModelKind.JC_AJC, pp, sec, keep=10)
            recs.append(
                ReportRecord.check(
                    f"su11 tilting eliminates ladder terms ({tag})",
                    "tilting-su11",
                    max(rep.max_offdiag_rel, rep.max_diag_dev_rel),
                    1e-7,
                )
            )
        sec2 = sector_basis(24, ChargeKind.SUM_NS, 5)
        rep2 = spectra.verify_tilting(ModelKind.JC_JC, pp, sec2)
        recs.append(
            ReportRecord.check(
                f"su2 tilting eliminates ladder terms ({tag})",
                "tilting-su2",
                max(rep2.max_offdiag_rel, rep2.max_diag_dev_rel),
                1e-10,
            )
        )
    return recs


def _spectrum_checks(p: ModelParams, cutoff: int):
    recs = []
    cutoff2 = max(12, cutoff // 10)

    def su2_sector_dev(n_s):
        sec = su2_irrep(n_s)
        numeric = spectra.numeric_spectrum(ModelKind.JC_JC, Component.UPPER, p, sec, n_s + 1)
        # the irrep's states (n_a, N_s - n_a): m_n = |n_a - n_b|, inner sign of n_a - n_b
        diff = 2 * np.arange(n_s + 1) - n_s
        m_n = np.abs(diff)
        inner = np.where(diff < 0, -1, 1)
        analytic = np.sort(spectra.su2_energy_sq(p, (n_s - m_n) // 2, m_n, inner))
        return float(np.max(np.abs(numeric - analytic) / np.abs(analytic)))

    devs = [su2_sector_dev(n_s) for n_s in range(0, cutoff2 // 2)]
    recs.append(
        ReportRecord.check(
            "su2 numeric == analytic spectrum (all sectors)",
            "spectrum-oracle-su2",
            max(devs),
            1e-10,
        )
    )

    if abs(abs(p.f) - abs(p.g)) < 1e-12:
        recs.append(
            ReportRecord.skip(
                "su11 numeric == analytic spectrum",
                "spectrum-oracle-su11",
                "|f| = |g|: analytic spectrum collapses; excluded domain",
            )
        )
        return recs

    def su11_sector_dev(d):
        sec = sector_basis(cutoff, ChargeKind.DIFFERENCE_ND, d)
        numeric = spectra.numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 8)
        analytic = spectra.su11_sector_energy_sq(p, d, np.arange(8))
        return float(np.max(np.abs(numeric - analytic) / np.abs(analytic)))

    devs = [su11_sector_dev(d) for d in range(-3, 4)]
    recs.append(
        ReportRecord.check(
            "su11 numeric == analytic spectrum (N_d -3..3)",
            "spectrum-oracle-su11",
            max(devs),
            1e-8,
        )
    )
    return recs


def _coherent_state_checks(seed: int):
    recs = []
    rng = np.random.default_rng(seed)
    worst_col, worst_norm = 0.0, 0.0
    for k2, n in ((1, 0), (1, 2), (4, 1)):
        k = k2 / 2.0
        zeta = 0.45 * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = displace.su11_ncs_coefficients(k, n, zeta)
        worst_norm = max(worst_norm, abs(c.norm_sq - 1.0))
        d = int(round(-(2 * k - 1)))
        sec = sector_basis(120, ChargeKind.DIFFERENCE_ND, d)
        xi = displace.zeta_to_xi(AlgebraKind.SU11, zeta)
        col = displace.ncs_from_displacement(xi, sec, n)
        m = min(len(c.coeffs), len(col))
        worst_col = max(worst_col, float(np.max(np.abs(c.coeffs[:m] - col[:m]))))
    recs.append(
        ReportRecord.check(
            "su11 number coherent states == displacement columns",
            "ncs-oracle-su11",
            worst_col,
            1e-8,
        )
    )
    recs.append(
        ReportRecord.check(
            "su11 number coherent state normalization",
            "ncs-normalization-su11",
            worst_norm,
            displace.NCS_NORM_TOL,
        )
    )

    worst_col, worst_norm = 0.0, 0.0
    for j2, mu2 in ((4, 0), (3, -3), (6, 4)):
        j, mu = j2 / 2.0, mu2 / 2.0
        zeta = rng.uniform(0.2, 1.4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = displace.su2_ncs_coefficients(j, mu, zeta)
        worst_norm = max(worst_norm, abs(c.norm_sq - 1.0))
        sec = sector_basis(16, ChargeKind.SUM_NS, int(2 * j))
        xi = displace.zeta_to_xi(AlgebraKind.SU2, zeta)
        col = displace.ncs_from_displacement(xi, sec, int(j + mu))
        worst_col = max(worst_col, float(np.max(np.abs(c.coeffs - col))))
    recs.append(
        ReportRecord.check(
            "su2 number coherent states == displacement columns",
            "ncs-oracle-su2",
            worst_col,
            1e-10,
        )
    )
    recs.append(
        ReportRecord.check(
            "su2 number coherent state normalization",
            "ncs-normalization-su2",
            worst_norm,
            displace.NCS_NORM_TOL,
        )
    )
    return recs


def _wavefunction_checks():
    recs = []
    worst = 0.0
    for n, m in ((0, 0), (2, 1), (4, 4)):
        e_n = np.eye(1, n + 1, n)[0]
        worst = max(worst, abs(wavefunc.quadrature_inner_product(e_n, e_n, m).value - 1.0))
    worst_orth = abs(wavefunc.quadrature_inner_product([1.0], [0.0, 1.0], 1).value)
    recs.append(
        ReportRecord.check(
            "oscillator eigenfunctions orthonormal by quadrature",
            "wavefunction-orthonormality",
            max(worst, worst_orth),
            1e-9,
        )
    )
    coeffs = displace.su11_ncs_coefficients(1.0, 1, 0.3j).coeffs
    res = wavefunc.quadrature_inner_product(coeffs, coeffs, 1)
    recs.append(
        ReportRecord.check(
            "coherent-state wavefunction norm (series)",
            "ncs-wavefunction-norm",
            abs(res.value - 1.0),
            1e-8,
        )
    )
    rep = wavefunc.closed_form_comparison(0.3j, 1, 1)
    recs.append(
        ReportRecord.check(
            "closed form (resummed) == series",
            "ncs-closed-resummed",
            rep.max_dev_resummed,
            1e-7,
        )
    )
    recs.append(
        ReportRecord.check(
            "sigma-variant mismatch characterized (mirror identity)",
            "ncs-closed-sigma-discrepancy",
            rep.max_dev_sigma_mirror,
            1e-7,
            computed=rep.max_dev_sigma,
            detail=(
                "sigma variant deviates from the series by "
                f"{rep.max_dev_sigma:.3e}; with the Laguerre-argument sign "
                "flipped it equals the resummed form at -zeta"
            ),
        )
    )
    return recs


def _coupling_magnitudes_sq(seed: int, n_samples: int) -> tuple:
    """(|f|², |g|²) of random couplings, magnitudes in [0.1, 3), kept where
    ||f|² - |g|²| >= 0.05 (|f|² + |g|²). Neither radicand identity reads a
    phase, so the phases are skipped, not drawn: advancing the bit generator
    past one 64-bit draw per phase keeps the stream of complex couplings."""
    rng = np.random.default_rng(seed)

    def draw():
        r = rng.uniform(0.1, 3.0, 2 * n_samples)
        rng.bit_generator.advance(2 * n_samples)  # the phases
        return r * r

    fa2, ga2, have = np.empty(n_samples), np.empty(n_samples), 0
    while have < n_samples:
        cf2, cg2 = draw(), draw()
        ok = np.abs(cf2 - cg2) >= 0.05 * (cf2 + cg2)
        take = min(n_samples - have, int(np.sum(ok)))
        fa2[have : have + take] = cf2[ok][:take]
        ga2[have : have + take] = cg2[ok][:take]
        have += take
    return fa2, ga2


def _structural_identity_checks(seed: int, n_samples: int = 10_000):
    # Relative gap guard: near the excluded |f| = |g| ray the first radical
    # cancels catastrophically (conditioning eps * S / gap) and no float
    # evaluation can certify 1e-13; the identities are checked over the
    # validated non-degenerate domain, on squared magnitudes alone.
    fa2, ga2 = _coupling_magnitudes_sq(seed, n_samples)
    rad_a = np.sqrt((ga2 + fa2) ** 2 - 4 * ga2 * fa2)
    dev_a = np.max(np.abs(rad_a - np.abs(fa2 - ga2)) / (fa2 + ga2))
    rad_b = np.sqrt((ga2 - fa2) ** 2 + 4 * ga2 * fa2)
    dev_b = np.max(np.abs(rad_b - (fa2 + ga2)) / (fa2 + ga2))
    return [
        ReportRecord.check(
            "radicand identity sqrt((S)^2-4|fg|^2) == | |f|^2-|g|^2 |",
            "radicand-identity-a",
            float(dev_a),
            1e-13,
        ),
        ReportRecord.check(
            "radicand identity sqrt((D)^2+4|fg|^2) == |f|^2+|g|^2",
            "radicand-identity-b",
            float(dev_b),
            1e-13,
        ),
    ]


def _special_case_checks():
    recs = []
    # 1+1 oscillator preset: the rewritten one-parameter form reproduces
    # 2 hbar w mc^2 (n+1); the general (oracle-backed) formula gives exactly
    # half of that at this preset, and the factor is pinned as part of the
    # record so the mismatch between the two printed forms stays documented.
    worst, worst_factor = 0.0, 0.0
    n_l = np.arange(6)
    for omega in (0.1, 0.5):
        pre, _ = spectra.special_case_params(spectra.Dirac1p1(omega))
        target = 2.0 * pre.hbar * omega * pre.mc2 * (n_l + 1)
        rewritten = spectra.su11_energy_sq_rewritten(pre, n_l) - pre.mc2**2
        general = spectra.su11_energy_sq(pre, n_l, 0) - pre.mc2**2
        worst = max(worst, float(np.max(np.abs(rewritten - target) / target)))
        worst_factor = max(worst_factor, float(np.max(np.abs(rewritten - 2.0 * general) / target)))
    recs.append(
        ReportRecord.check(
            "1+1 oscillator preset: rewritten form gives 2 hbar w mc^2 (n+1)",
            "special-case-dirac1p1",
            worst,
            1e-12,
        )
    )
    recs.append(
        ReportRecord.check(
            "rewritten su11 form carries twice the general coupling term",
            "special-case-dirac1p1-factor",
            worst_factor,
            1e-12,
            detail="general (oracle-backed) spectrum at this preset is hbar w mc^2 (n+1)",
        )
    )
    # 2+1 oscillator: inner-minus branch reproduces mc^2 sqrt(1 + 4 xi n)
    worst = 0.0
    n_l = np.arange(11)
    for xi in (0.05, 0.1, 0.25):
        pre, _ = spectra.special_case_params(spectra.Dirac2p1(xi))
        e = spectra.analytic_energy_su2(pre, n_l, 3, Branch.PLUS, inner_sign=-1)
        ref = pre.mc2 * np.sqrt(1.0 + 4.0 * xi * n_l)
        worst = max(worst, float(np.max(np.abs(e - ref) / ref)))
    recs.append(
        ReportRecord.check(
            "2+1 oscillator preset: E = mc^2 sqrt(1 + 4 xi n)",
            "special-case-dirac2p1",
            worst,
            1e-12,
        )
    )
    # amplifier / coupled-oscillator presets equal the general formulas
    worst = 0.0
    pre, _ = spectra.special_case_params(spectra.NondegenerateParametricAmplifier(1.0, 2.0))
    for n_l in range(4):
        for m in range(4):
            e = spectra.ndpa_energy(1.0, 2.0, n_l, m)
            ref = spectra.su11_energy_sq(pre, n_l, m)
            worst = max(worst, abs(e**2 - ref) / ref)
    pre, _ = spectra.special_case_params(spectra.CoupledOscillators(1.0, 2.0))
    for j2 in range(0, 7):
        for mu2 in range(-j2, j2 + 1, 2):
            e = spectra.coupled_osc_energy(1.0, 2.0, j2 / 2, mu2 / 2)
            ref = spectra.su2_energy_sq(pre, (j2 - abs(mu2)) // 2, abs(mu2), 1 if mu2 >= 0 else -1)
            worst = max(worst, abs(e**2 - ref) / max(ref, 1.0))
    recs.append(
        ReportRecord.check(
            "amplifier/coupled presets equal the general spectra",
            "special-case-presets",
            worst,
            1e-12,
        )
    )
    return recs


def _limit_checks():
    recs = []
    # one certified coupled-oscillator level for the scale-1e6 record and the slope
    coupled = spectra.nonrelativistic_limit_checks(
        spectra.CoupledOscillators(1.0, 2.0), 2, 1, [1e4, 1e5, 1e6]
    )
    rep = coupled[-1]
    recs.append(
        ReportRecord.check(
            "coupled-oscillator weak-coupling limit at scale 1e6",
            "nonrelativistic-limit-coupled",
            rep.rel_error,
            1e-5,
            computed=rep.eps_model,
            reference=rep.eps_analytic,
        )
    )
    rep = spectra.nonrelativistic_limit_check(
        spectra.NondegenerateParametricAmplifier(1.0, 2.0), 0, 1, 1e6
    )
    recs.append(
        ReportRecord.check(
            "amplifier weak-coupling limit at scale 1e6",
            "nonrelativistic-limit-ndpa",
            rep.rel_error,
            1e-5,
            computed=rep.eps_model,
            reference=rep.eps_analytic,
        )
    )
    slope = spectra.decay_exponent(coupled)
    recs.append(
        ReportRecord.check(
            "limit error decays first order in 1/scale",
            "nonrelativistic-limit-slope",
            abs(slope + 1.0),
            0.15,
            computed=slope,
            reference=-1.0,
        )
    )
    return recs


def _spinor_checks(p: ModelParams):
    # Residuals on each spinor's (upper, lower) sector pair, which runs past
    # the certified upper component, so no entry of H psi - E psi is cut; the
    # two branches of a level share its pair and upper component.
    recs = []
    if abs(abs(p.f) - abs(p.g)) < 1e-12:
        recs.append(
            ReportRecord.skip(
                "su11 eigenspinor residuals",
                "spinor-residual-su11",
                "|f| = |g|: analytic spectrum not certified on this ray",
            )
        )
    else:
        worst = 0.0
        edge_skips = []
        for n_l, m_n in ((0, 0), (2, 1), (1, 4)):
            tilted = tilted_number_state(ModelKind.JC_AJC, p, n_l, m_n)
            for br in (Branch.PLUS, Branch.MINUS):
                try:
                    s, pair = sector_spinor(ModelKind.JC_AJC, p, n_l, m_n, br, tilted=tilted)
                except EdgeStateError as exc:
                    # |E| = mc²: the flagged one-component PLUS spinor is
                    # still checked; the MINUS branch has no eigenvector.
                    edge_skips.append(
                        ReportRecord.skip(
                            f"su11 eigenspinor ({n_l}, {m_n}) {br.name.lower()} edge state",
                            "spinor-edge-su11",
                            str(exc),
                        )
                    )
                    continue
                worst = max(worst, pair.residual(s))
        recs.append(
            ReportRecord.check(
                "su11 eigenspinor residuals",
                "spinor-residual-su11",
                worst,
                1e-8,
            )
        )
        recs += edge_skips
    worst = 0.0
    for n_l, m_n in ((1, 0), (1, 2), (0, 3)):
        s, pair = sector_spinor(ModelKind.JC_JC, p, n_l, m_n, Branch.PLUS)
        worst = max(worst, pair.residual(s))
    recs.append(
        ReportRecord.check(
            "su2 eigenspinor residuals",
            "spinor-residual-su2",
            worst,
            1e-8,
        )
    )
    return recs


def run_verification_suite(
    p: ModelParams,
    cutoff: int = 120,
    seed: int = 2024,
) -> VerificationReport:
    """Run every suite; deterministic for fixed seed and parameters."""
    report = VerificationReport()
    report.records += _timed(lambda: _algebra_checks(min(cutoff, 20)))
    report.records += _timed(lambda: _similarity_checks(seed))
    report.records += _timed(lambda: _tilting_checks(p, seed))
    report.records += _timed(lambda: _spectrum_checks(p, cutoff))
    report.records += _timed(lambda: _coherent_state_checks(seed))
    report.records += _timed(_wavefunction_checks)
    report.records += _timed(lambda: _structural_identity_checks(seed))
    report.records += _timed(_special_case_checks)
    report.records += _timed(_limit_checks)
    report.records += _timed(lambda: _spinor_checks(p))
    return report
