"""Acceptance suite: one check per shipped guarantee, stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL
line per criterion including its runtime.
"""

import time

import numpy as np
import pytest

from twomode_jcx import displace, liealg, spectra, wavefunc
from twomode_jcx.displace import ncs_from_displacement, verify_similarity, zeta_to_xi
from twomode_jcx.fock import ChargeKind, build_basis, get_sector
from twomode_jcx.liealg import AlgebraKind, su2_generators, su11_generators, verify_algebra
from twomode_jcx.models import (
    Branch,
    Component,
    ModelKind,
    ModelParams,
    build_full_hamiltonian,
    build_spinor,
    eigen_residual,
)
from twomode_jcx.spectra import (
    CoupledOscillators,
    Dirac1p1,
    Dirac2p1,
    NondegenerateParametricAmplifier,
    analytic_energy_su2,
    coupled_osc_energy,
    ndpa_energy,
    nonrelativistic_limit_check,
    numeric_spectrum,
    special_case_params,
    su2_energy_sq,
    su11_energy_sq,
    su11_energy_sq_rewritten,
    su11_sector_energy_sq,
    verify_tilting,
)

SEED = 20240817


def report(number, label, worst, tol, t0, budget=None):
    elapsed = time.perf_counter() - t0
    ok = worst <= tol and (budget is None or elapsed <= budget)
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label} "
        f"(worst {worst:.3e} vs tol {tol:.0e}, {elapsed:.2f}s"
        + (f" of {budget:.0f}s budget" if budget else "")
        + ")"
    )
    print(line)
    assert worst <= tol, line
    if budget is not None:
        assert elapsed <= budget, line
    return elapsed


def test_criterion_1_algebra_closure():
    t0 = time.perf_counter()
    basis = build_basis(20)
    worst = 0.0
    for gens in (su11_generators(basis), su2_generators(basis)):
        rep = verify_algebra(gens, interior_margin=1)
        worst = max(worst, rep.max_residual, rep.max_casimir_residual)
    report(1, "su(1,1)/su(2) closure on interior states, cutoff 20", worst, 1e-12, t0, budget=5.0)


def test_criterion_2_similarity_transforms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    basis2 = build_basis(12)
    worst_su2 = 0.0
    for n_s in range(1, 11):
        xi = rng.uniform(0.1, 0.6) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        sec = get_sector(basis2, ChargeKind.SUM_NS, n_s)
        worst_su2 = max(worst_su2, verify_similarity(xi, sec).max_residual)
    assert worst_su2 <= 1e-10

    basis11 = build_basis(120)
    worst_su11 = 0.0
    for d in (0, 1, -2):
        xi = rng.uniform(0.1, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        sec = get_sector(basis11, ChargeKind.DIFFERENCE_ND, d)
        worst_su11 = max(worst_su11, verify_similarity(xi, sec, keep=12).max_residual)
    report(
        2,
        "conjugation identities: su(2) exact sectors and su(1,1) low states",
        max(worst_su2 * 1e2, worst_su11),  # su2 at 1e-10 folded into the 1e-8 scale
        1e-8,
        t0,
        budget=30.0,
    )


def test_criterion_3_tilting_diagonalization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    pairs = [(2.0 + 0.0j, 1.0 + 0.0j)]
    while len(pairs) < 21:
        f = rng.uniform(0.4, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = rng.uniform(0.4, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if 2 * abs(f) * abs(g) / (abs(f) ** 2 + abs(g) ** 2) <= 0.8:
            pairs.append((f, g))
    basis11 = build_basis(140)
    basis2 = build_basis(20)
    worst = 0.0
    for f, g in pairs:
        p = ModelParams(g=g, f=f)
        sec = get_sector(basis11, ChargeKind.DIFFERENCE_ND, 0)
        rep = verify_tilting(ModelKind.JC_AJC, p, sec, keep=10)
        worst = max(worst, rep.max_offdiag_rel, rep.max_diag_dev_rel)
        sec2 = get_sector(basis2, ChargeKind.SUM_NS, 6)
        rep2 = verify_tilting(ModelKind.JC_JC, p, sec2)
        worst = max(worst, rep2.max_offdiag_rel, rep2.max_diag_dev_rel)
    # lower components for the reference pair
    p = ModelParams(g=1.0, f=2.0)
    rep = verify_tilting(
        ModelKind.JC_AJC, p, get_sector(basis11, ChargeKind.DIFFERENCE_ND, -1),
        component=Component.LOWER, keep=10,
    )
    worst = max(worst, rep.max_offdiag_rel, rep.max_diag_dev_rel)
    report(3, "tilting reduces 21 coupling pairs to the diagonal forms", worst, 1e-7, t0)


def test_criterion_4_spectrum_oracle_su2():
    t0 = time.perf_counter()
    p = ModelParams(g=1.0, f=2.0)
    basis = build_basis(20)
    worst = 0.0
    for n_s in range(0, 21):
        sec = get_sector(basis, ChargeKind.SUM_NS, n_s)
        numeric = numeric_spectrum(ModelKind.JC_JC, Component.UPPER, p, sec, n_s + 1)
        assert len(numeric) == n_s + 1
        analytic = []
        for m_n in range(n_s, -1, -1):
            if (n_s - m_n) % 2 == 0:
                n_l = (n_s - m_n) // 2
                analytic.append(su2_energy_sq(p, n_l, m_n, 1))
                if m_n:
                    analytic.append(su2_energy_sq(p, n_l, m_n, -1))
        worst = max(worst, float(np.max(np.abs(numeric - np.sort(analytic)) / np.abs(numeric))))
    report(4, "su(2) numeric == analytic, all sectors N_s <= 20", worst, 1e-10, t0, budget=10.0)


def test_criterion_5_spectrum_oracle_su11():
    t0 = time.perf_counter()
    worst = 0.0
    basis = build_basis(200)
    for f, g in ((2.0, 1.0), (1.0, 2.0)):
        p = ModelParams(g=g, f=f)
        for d in range(-3, 4):
            sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, d)
            numeric = numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 10)
            analytic = np.array([su11_sector_energy_sq(p, d, n) for n in range(10)])
            worst = max(worst, float(np.max(np.abs(numeric - analytic) / np.abs(analytic))))
    report(
        5,
        "su(1,1) numeric == analytic, N_d in -3..3 at cutoff 200 (doubling certified)",
        worst,
        1e-8,
        t0,
        budget=60.0,
    )


def test_criterion_6_special_case_reductions():
    t0 = time.perf_counter()
    worst = 0.0
    # (a) one-mode oscillator limit through the rewritten form
    for omega in (0.05, 0.2, 1.0):
        pre, _ = special_case_params(Dirac1p1(omega))
        for n_l in range(8):
            val = su11_energy_sq_rewritten(pre, n_l) - pre.mc2**2
            ref = 2.0 * pre.hbar * omega * pre.mc2 * (n_l + 1)
            worst = max(worst, abs(val - ref) / ref)
    # (b) planar oscillator limit, inner-minus branch
    for xi in (0.05, 0.1, 0.25):
        pre, _ = special_case_params(Dirac2p1(xi))
        for n_l in range(11):
            e = analytic_energy_su2(pre, n_l, 2, Branch.PLUS, inner_sign=-1).energy
            ref = pre.mc2 * np.sqrt(1 + 4 * xi * n_l)
            worst = max(worst, abs(e - ref) / ref)
            e_m = analytic_energy_su2(pre, n_l, 2, Branch.MINUS, inner_sign=-1).energy
            worst = max(worst, abs(e_m + ref) / ref)
    # (c) amplifier and coupled-oscillator presets are the general formulas
    pre, _ = special_case_params(NondegenerateParametricAmplifier(1.0, 2.0, 0.3))
    for n_l in range(5):
        for m in range(5):
            a = ndpa_energy(1.0, 2.0, n_l, m).energy_sq
            b = su11_energy_sq(pre, n_l, m)
            worst = max(worst, abs(a - b) / abs(b))
    pre, _ = special_case_params(CoupledOscillators(1.0, 2.0, 0.2))
    for j2 in range(0, 9):
        for mu2 in range(-j2, j2 + 1, 2):
            a = coupled_osc_energy(1.0, 2.0, j2 / 2, mu2 / 2).energy_sq
            b = su2_energy_sq(pre, (j2 - abs(mu2)) // 2, abs(mu2), 1 if mu2 >= 0 else -1)
            worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    report(6, "special-case presets reproduce their quoted reductions", worst, 1e-12, t0)


def test_criterion_7_nonrelativistic_limits():
    t0 = time.perf_counter()
    worst = 0.0
    for case, charge in (
        (CoupledOscillators(1.0, 2.0), 2),
        (NondegenerateParametricAmplifier(1.0, 2.0), 0),
    ):
        rep = nonrelativistic_limit_check(case, charge, 1, 1e6)
        worst = max(worst, rep.rel_error)
        slope = spectra.limit_decay_exponent(case, charge, 1, [1e4, 1e5, 1e6])
        assert abs(slope + 1.0) <= 0.1, f"decay exponent {slope} not first order"
    report(7, "weak-coupling limits at scale 1e6 with first-order decay", worst, 1e-5, t0)


def test_criterion_8_coherent_states():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    basis11 = build_basis(150)
    worst11, worst_norm = 0.0, 0.0
    for k2, n in ((1, 0), (1, 3), (3, 1), (5, 2)):
        k = k2 / 2.0
        zeta = rng.uniform(0.2, 0.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = displace.su11_ncs_coefficients(k, n, zeta)
        worst_norm = max(worst_norm, abs(c.norm_sq - 1.0))
        sec = get_sector(basis11, ChargeKind.DIFFERENCE_ND, -(k2 - 1))
        col = ncs_from_displacement(zeta_to_xi(AlgebraKind.SU11, zeta), sec, n)
        m = min(len(c.coeffs), len(col))
        worst11 = max(worst11, float(np.max(np.abs(c.coeffs[:m] - col[:m]))))
    assert worst11 <= 1e-8

    basis2 = build_basis(14)
    worst2 = 0.0
    for j2, mu2 in ((2, 0), (5, -3), (8, 4)):
        zeta = rng.uniform(0.2, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = displace.su2_ncs_coefficients(j2 / 2, mu2 / 2, zeta)
        worst_norm = max(worst_norm, abs(c.norm_sq - 1.0))
        sec = get_sector(basis2, ChargeKind.SUM_NS, j2)
        col = ncs_from_displacement(zeta_to_xi(AlgebraKind.SU2, zeta), sec, (j2 + mu2) // 2)
        worst2 = max(worst2, float(np.max(np.abs(c.coeffs - col))))
    assert worst2 <= 1e-10
    assert worst_norm <= 1e-10
    report(
        8,
        "number coherent states match displacement columns (norms to 1e-10)",
        max(worst11, worst2 * 1e2, worst_norm * 1e2),
        1e-8,
        t0,
    )


def test_criterion_9_eigenspinors():
    t0 = time.perf_counter()
    basis = build_basis(84)
    worst = 0.0
    p = ModelParams(g=1.0, f=2.0)
    h = build_full_hamiltonian(ModelKind.JC_AJC, p, basis)
    for n_l in range(6):
        for m_n in range(6):
            for branch in (Branch.PLUS, Branch.MINUS):
                s = build_spinor(ModelKind.JC_AJC, p, n_l, m_n, branch, basis)
                worst = max(worst, eigen_residual(h, s))
    p2, _ = special_case_params(Dirac2p1(0.1))
    h2 = build_full_hamiltonian(ModelKind.JC_JC, p2, basis)
    for n_l in range(6):
        for m_n in range(6):
            s = build_spinor(ModelKind.JC_JC, p2, n_l, m_n, Branch.PLUS, basis)
            worst = max(worst, eigen_residual(h2, s))
            if n_l >= 1:  # inner-minus away from the edge family
                s = build_spinor(
                    ModelKind.JC_JC, p2, n_l, m_n, Branch.MINUS, basis, inner_sign=-1
                )
                worst = max(worst, eigen_residual(h2, s))
    assert worst <= 1e-8

    # partner-shift statements as spectral multiset identities
    shift_worst = 0.0
    basis_s = build_basis(90)
    for m_n in (2, 4):
        up = numeric_spectrum(
            ModelKind.JC_AJC, Component.UPPER, p,
            get_sector(basis_s, ChargeKind.DIFFERENCE_ND, -m_n), 8,
        )
        lo = numeric_spectrum(
            ModelKind.JC_AJC, Component.LOWER, p,
            get_sector(basis_s, ChargeKind.DIFFERENCE_ND, -(m_n - 2)), 9,
        )
        shift_worst = max(shift_worst, float(np.max(np.abs(up - lo[1:]) / np.abs(up))))
    basis_ns = build_basis(25)
    for n_s in (5, 8):
        up = numeric_spectrum(
            ModelKind.JC_JC, Component.UPPER, p,
            get_sector(basis_ns, ChargeKind.SUM_NS, n_s), n_s + 1,
        )
        lo = numeric_spectrum(
            ModelKind.JC_JC, Component.LOWER, p,
            get_sector(basis_ns, ChargeKind.SUM_NS, n_s - 2), n_s - 1,
        )
        shift_worst = max(shift_worst, float(np.max(np.abs(up[1:-1] - lo) / np.abs(up[1:-1]))))
    report(
        9,
        "eigenspinor residuals (n_l, m_n <= 5) and partner-shift identities",
        max(worst, shift_worst),
        1e-8,
        t0,
    )


def test_criterion_10_wavefunctions():
    t0 = time.perf_counter()
    worst_orth = 0.0
    states = [(n, m) for n in range(5) for m in range(5)]
    for i, (n1, m1) in enumerate(states):
        f1 = lambda r, p, n=n1, m=m1: wavefunc.oscillator_wavefunction(n, m, r, p)
        for n2, m2 in states[i:]:
            f2 = lambda r, p, n=n2, m=m2: wavefunc.oscillator_wavefunction(n, m, r, p)
            val = wavefunc.quadrature_inner_product(f1, f2, n_rho=64, n_phi=48).value
            expected = 1.0 if (n1, m1) == (n2, m2) else 0.0
            worst_orth = max(worst_orth, abs(val - expected))
    assert worst_orth <= 1e-9

    fs = lambda r, p: wavefunc.ncs_wavefunction_series(0.3j, 1, 1, r, p)
    norm_dev = abs(wavefunc.quadrature_inner_product(fs, fs).value - 1.0)
    assert norm_dev <= 1e-8

    # closed form: resummed variant matches; the sigma variant's mismatch is
    # reproducible and characterized by the mirror identity
    worst_closed = 0.0
    for zeta, n_l, m_n in ((0.3j, 1, 1), (0.25 - 0.35j, 2, 3), (0.5, 0, 2)):
        rep = wavefunc.closed_form_comparison(zeta, n_l, m_n)
        worst_closed = max(worst_closed, rep.max_dev_resummed, rep.max_dev_sigma_mirror)
        assert rep.max_dev_sigma > 1e-2, "sigma-variant discrepancy disappeared"
    report(
        10,
        "wavefunction orthonormality, series norm, closed-form equivalence",
        max(worst_orth, float(norm_dev), worst_closed),
        1e-7,
        t0,
    )


def test_criterion_11_structural_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n = 10_000
    f = np.empty(n, dtype=complex)
    g = np.empty(n, dtype=complex)
    have = 0
    while have < n:
        cf = rng.uniform(0.1, 3.0, 2 * n) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2 * n))
        cg = rng.uniform(0.1, 3.0, 2 * n) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2 * n))
        ok = np.abs(np.abs(cf) ** 2 - np.abs(cg) ** 2) >= 0.05 * (
            np.abs(cf) ** 2 + np.abs(cg) ** 2
        )
        take = min(n - have, int(np.sum(ok)))
        f[have : have + take] = cf[ok][:take]
        g[have : have + take] = cg[ok][:take]
        have += take
    fa2, ga2 = np.abs(f) ** 2, np.abs(g) ** 2
    s = fa2 + ga2
    dev_a = np.max(np.abs(np.sqrt((ga2 + fa2) ** 2 - 4 * ga2 * fa2) - np.abs(fa2 - ga2)) / s)
    dev_b = np.max(np.abs(np.sqrt((ga2 - fa2) ** 2 + 4 * ga2 * fa2) - s) / s)
    report(
        11,
        "radicand identities over 10^4 seeded non-degenerate pairs",
        float(max(dev_a, dev_b)),
        1e-13,
        t0,
    )
