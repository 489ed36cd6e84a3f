import cmath
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twomode_jcx import spectra, tridiag
from twomode_jcx.errors import DegenerateCouplingError, DomainError, NotConvergedError
from twomode_jcx.fock import ChargeKind, build_basis, get_sector, sector_basis, su2_irrep
from twomode_jcx.models import Branch, Component, ModelKind, ModelParams, sector_tridiagonal
from twomode_jcx.spectra import (
    CoupledOscillators,
    Dirac1p1,
    Dirac2p1,
    NondegenerateParametricAmplifier,
    analytic_energy_su2,
    analytic_energy_su11,
    coupled_osc_energy,
    ndpa_energy,
    nonrelativistic_limit_check,
    numeric_spectrum,
    special_case_params,
    su2_energy_sq,
    su2_energy_sq_rewritten,
    su11_energy_sq,
    su11_energy_sq_simplified,
    su11_sector_energy_sq,
    tilting_parameters,
    verify_tilting,
)


class TestAnalyticSu11:
    def test_lowest_level_matches_oracle(self, basis100):
        # oracle: lowest eigenvalue of the sector-projected second-order
        # operator plus m^2c^4, N_d = 0 sector. For g = 0, f = 1 that
        # operator is b†b + 1 with lowest eigenvalue 1, so E = sqrt(2).
        p = ModelParams(g=0.0, f=1.0)
        sec = get_sector(basis100, ChargeKind.DIFFERENCE_ND, 0)
        numeric = numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 1)
        assert numeric[0] == pytest.approx(2.0, abs=1e-12)
        e = analytic_energy_su11(p, 0, 0, Branch.PLUS)
        assert e == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert e == pytest.approx(np.sqrt(numeric[0]), rel=1e-12)

    def test_degenerate_ray_collapses(self):
        p = ModelParams(g=1.3, f=1.3)
        for n_l in range(3):
            for m_n in range(3):
                assert su11_energy_sq(p, n_l, m_n) == pytest.approx(1.0)

    def test_general_value_example(self):
        # |g| > |f|: E^2 - 1 = 3 (1 + 3/2 + 1/2) + 3 = 12
        p = ModelParams(g=2.0, f=1.0)
        assert su11_energy_sq(p, 1, 3) == pytest.approx(13.0, abs=1e-13)
        assert analytic_energy_su11(p, 1, 3, Branch.MINUS) == pytest.approx(
            -np.sqrt(13.0)
        )

    def test_simplified_form_agrees_when_f_dominates(self, params_f2_g1):
        for n_l in range(8):
            for m_n in range(8):
                assert su11_energy_sq(params_f2_g1, n_l, m_n) == pytest.approx(
                    su11_energy_sq_simplified(params_f2_g1, n_l), rel=1e-14
                )

    def test_simplified_rejects_g_dominant(self):
        with pytest.raises(DomainError):
            su11_energy_sq_simplified(ModelParams(g=2.0, f=1.0), 0)

    def test_g_dominant_reduction(self):
        # for |g| > |f| the general formula reduces to (|g|^2-|f|^2)(n + m)
        p = ModelParams(g=2.0, f=1.0)
        for n_l in range(5):
            for m_n in range(5):
                expected = 1.0 + 3.0 * (n_l + m_n)
                assert su11_energy_sq(p, n_l, m_n) == pytest.approx(expected)

    def test_negative_qn_rejected(self, params_f2_g1):
        with pytest.raises(DomainError):
            analytic_energy_su11(params_f2_g1, -1, 0)

    COUPLING = st.floats(-1e3, 1e3, allow_nan=False)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(g_re=COUPLING, g_im=COUPLING, f_re=COUPLING, f_im=COUPLING,
           mc2=st.floats(1e-3, 1e3), hbar=st.floats(1e-3, 1e3),
           n_l=st.integers(0, 10**6), m_n=st.integers(0, 10**6))
    def test_general_form_is_the_sector_form(self, g_re, g_im, f_re, f_im, mc2, hbar, n_l, m_n):
        # (n_l, m_n) is level n_l of the N_d = -m_n sector, bit for bit; the
        # reference is the general formula as the paper writes it
        p = ModelParams(g=complex(g_re, g_im), f=complex(f_re, f_im), mc2=mc2, hbar=hbar)
        fa2, ga2 = abs(p.f) ** 2, abs(p.g) ** 2
        lam, dlt = abs(fa2 - ga2), fa2 - ga2
        written = p.hbar**2 * (lam * (n_l + m_n / 2.0 + 0.5) - 0.5 * dlt * (m_n - 1)) + p.mc2**2
        assert su11_energy_sq(p, n_l, m_n) == su11_sector_energy_sq(p, -m_n, n_l) == written
        # integer-array labels: each element is the scalar result, bit for bit,
        # for both models, both inner signs and both branches
        pairs = [(0, m_n), (1, 0), (n_l, 3), (n_l + 1, m_n + 1)]
        n, m = np.array(pairs).T
        assert su11_energy_sq(p, n, m).tolist() == [su11_energy_sq(p, a, b) for a, b in pairs]
        for inner in (1, -1):
            assert su2_energy_sq(p, n, m, inner).tolist() == [
                su2_energy_sq(p, a, b, inner) for a, b in pairs]
        for branch in Branch:
            assert analytic_energy_su11(p, n, m, branch).tolist() == [
                analytic_energy_su11(p, a, b, branch) for a, b in pairs]
            for inner in (1, -1):
                assert analytic_energy_su2(p, n, m, branch, inner).tolist() == [
                    analytic_energy_su2(p, a, b, branch, inner) for a, b in pairs]


class TestAnalyticSu2:
    def test_value_example(self):
        p = ModelParams(g=1.0, f=1.0)
        assert su2_energy_sq(p, 1, 2, 1) == pytest.approx(7.0)
        assert analytic_energy_su2(p, 1, 2, Branch.PLUS, 1) == pytest.approx(np.sqrt(7.0))

    def test_m_zero_inner_sign_irrelevant(self, params_f2_g1):
        for n_l in range(5):
            plus = su2_energy_sq(params_f2_g1, n_l, 0, 1)
            minus = su2_energy_sq(params_f2_g1, n_l, 0, -1)
            assert plus == minus
            s = abs(params_f2_g1.f) ** 2 + abs(params_f2_g1.g) ** 2
            assert plus - 1.0 == pytest.approx(s * n_l)

    @pytest.mark.parametrize("m_n", [1, 2, 3])
    def test_one_coupling_dwarfing_the_other(self, m_n):
        # Inner minus at n_l = 0 is m²c⁴ exactly, and the literal radical
        # sqrt((|g|²-|f|²)² + 4|g|²|f|²) cancels at these couplings.
        p = ModelParams(g=1e8, f=3.0)
        assert su2_energy_sq(p, 0, m_n, -1) == 1.0

    def test_rewritten_form_identical(self, rng):
        for _ in range(50):
            p = ModelParams(
                g=complex(rng.normal(), rng.normal()),
                f=complex(rng.normal(), rng.normal()),
            )
            n_l, m_n = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            for inner in (1, -1):
                a = su2_energy_sq(p, n_l, m_n, inner)
                b = su2_energy_sq_rewritten(p, n_l, m_n, inner)
                assert a == pytest.approx(b, rel=1e-14)

    def test_dirac2p1_reduction(self):
        # inner minus at the balanced preset: E = ±mc^2 sqrt(1 + 4 xi n)
        for xi in (0.05, 0.1, 0.25):
            p, kind = special_case_params(Dirac2p1(xi))
            assert kind is ModelKind.JC_JC
            for n_l in range(11):
                for m_n in (0, 2, 5):
                    e = analytic_energy_su2(p, n_l, m_n, Branch.PLUS, -1)
                    assert e == pytest.approx(np.sqrt(1 + 4 * xi * n_l), rel=1e-12)


class TestTilting:
    def test_g_zero_identity(self, params_f2_g1):
        p = ModelParams(g=0.0, f=2.0)
        tp = tilting_parameters(ModelKind.JC_AJC, p)
        assert tp.theta == 0.0
        assert tp.xi == 0.0

    def test_hyperbolic_angle_value(self, params_f2_g1):
        tp = tilting_parameters(ModelKind.JC_AJC, params_f2_g1)
        assert tp.theta == pytest.approx(np.arctanh(0.8), abs=1e-12)

    def test_degenerate_coupling_raises(self):
        with pytest.raises(DegenerateCouplingError):
            tilting_parameters(ModelKind.JC_AJC, ModelParams(g=1.0, f=1.0))

    def test_su2_balanced_angle(self):
        tp = tilting_parameters(ModelKind.JC_JC, ModelParams(g=1.0, f=1.0))
        assert tp.theta == pytest.approx(np.pi / 2)

    @pytest.mark.parametrize("f", [1.0, 1j, 2.0 - 0.5j])
    def test_su2_angle_is_pi_at_g_zero(self, f):
        # atan2(0, -|f|^2) = pi; theta = 0 would leave the f ladder terms.
        p = ModelParams(g=0.0, f=f)
        assert tilting_parameters(ModelKind.JC_JC, p).theta == pytest.approx(np.pi)
        sec = get_sector(build_basis(16), ChargeKind.SUM_NS, 5)
        rep = verify_tilting(ModelKind.JC_JC, p, sec)
        assert rep.max_offdiag <= 1e-10
        assert rep.max_diag_dev <= 1e-10

    def test_su11_elimination(self, params_f2_g1):
        basis = build_basis(150)
        for d in (0, -1, 2):
            sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, d)
            rep = verify_tilting(ModelKind.JC_AJC, params_f2_g1, sec, keep=10)
            assert rep.max_offdiag_rel <= 1e-9
            assert rep.max_diag_dev_rel <= 1e-9

    def test_su2_elimination_exact(self):
        basis = build_basis(16)
        for f, g in ((1.0, 2.0), (2.0, 1.0), (1.0 + 0.5j, 0.7 - 0.3j)):
            p = ModelParams(g=g, f=f)
            sec = get_sector(basis, ChargeKind.SUM_NS, 5)
            rep = verify_tilting(ModelKind.JC_JC, p, sec)
            assert rep.max_offdiag <= 1e-10
            assert rep.max_diag_dev <= 1e-10

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("f, g", [(1.0 + 0.5j, 0.7 - 0.3j), (0.4 - 0.3j, 1.1j)])
    def test_su11_elimination_complex_couplings(self, f, g, component):
        # KG C is formed from the complex (diag, offdiag) band by band; a
        # misplaced conjugate leaves O(|f||g|) off-diagonal entries.
        p = ModelParams(g=g, f=f)
        for d in (-2, 0, 3):
            sec = sector_basis(120, ChargeKind.DIFFERENCE_ND, d)
            rep = verify_tilting(ModelKind.JC_AJC, p, sec, component=component, keep=10)
            assert rep.max_offdiag_rel <= 1e-9
            assert rep.max_diag_dev_rel <= 1e-9

    def test_g_zero_tilting_noop(self):
        p = ModelParams(g=0.0, f=1.3)
        basis = build_basis(30)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, 0)
        rep = verify_tilting(ModelKind.JC_AJC, p, sec)
        assert rep.max_offdiag == 0.0

    def test_lower_component_reduced_form(self, params_f2_g1):
        basis = build_basis(150)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, -1)
        rep = verify_tilting(
            ModelKind.JC_AJC, params_f2_g1, sec, component=Component.LOWER, keep=10
        )
        assert rep.max_offdiag_rel <= 1e-9
        assert rep.max_diag_dev_rel <= 1e-9


class TestNumericSpectrum:
    def test_zero_coupling(self, basis20):
        p = ModelParams(g=0.0, f=0.0)
        sec = get_sector(basis20, ChargeKind.SUM_NS, 4)
        vals = numeric_spectrum(ModelKind.JC_JC, Component.UPPER, p, sec, 5)
        np.testing.assert_allclose(vals, np.ones(5), atol=0)

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("p", [
        ModelParams(g=0.5 - 0.4j, f=1.7 + 0.9j, mc2=1.3, hbar=0.9),
        ModelParams(g=-1.6 + 1.1j, f=0.3 - 0.6j, mc2=1.3, hbar=0.9),
    ], ids=["f>g", "g>f"])
    @pytest.mark.parametrize("cutoff", [4, 10, 30])
    def test_su2_sector_complete_and_exact(self, cutoff, p, component):
        # Every sector the cutoff admits, N_s = 0..2 cutoff, is its whole
        # su(2) irrep: E² = m²c⁴ + hbar² S k with k = 0..N_s (upper) or
        # 1..N_s + 1 (lower), at the cutoff and above it alike.
        s = abs(p.f) ** 2 + abs(p.g) ** 2
        shift = 0 if component is Component.UPPER else 1
        for n_s in range(2 * cutoff + 1):
            sec = sector_basis(cutoff, ChargeKind.SUM_NS, n_s)
            vals = numeric_spectrum(ModelKind.JC_JC, component, p, sec, n_s + 1)
            want = p.mc2**2 + p.hbar**2 * s * np.arange(shift, n_s + 1 + shift)
            np.testing.assert_allclose(vals, want, rtol=1e-10, atol=0, err_msg=f"N_s={n_s}")

    def test_su11_grid_pattern(self, basis100):
        # g = 0: eigenvalues m^2c^4 + |f|^2 (n + 1) on the N_d = 0 sector
        p = ModelParams(g=0.0, f=1.0)
        sec = get_sector(basis100, ChargeKind.DIFFERENCE_ND, 0)
        vals = numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 6)
        np.testing.assert_allclose(vals, 1.0 + np.arange(1, 7), atol=1e-12)

    @pytest.mark.parametrize("f,g", [(2.0, 1.0), (1.0, 2.0)])
    def test_su11_oracle_equivalence(self, f, g):
        p = ModelParams(g=g, f=f)
        basis = build_basis(100)
        for d in range(-3, 4):
            sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, d)
            numeric = numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 8)
            analytic = np.array([su11_sector_energy_sq(p, d, n) for n in range(8)])
            np.testing.assert_allclose(numeric, analytic, rtol=1e-8)

    def test_not_converged_raises(self):
        # tiny cutoff with strong mixing cannot certify 8 levels
        p = ModelParams(g=1.9, f=2.0)
        basis = build_basis(12)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, 0)
        with pytest.raises((NotConvergedError, ValueError)):
            numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 10)


_EIGH = tridiag.eigh


def _record_solves(monkeypatch):
    """Replace the kernel ``tridiag.eigh`` by one that also logs
    (dim, select_range) of every solve; returns the log."""
    calls = []

    def recording(d, e, **kwargs):
        calls.append((d.size, kwargs.get("select_range")))
        return _EIGH(d, e, **kwargs)

    monkeypatch.setattr(tridiag, "eigh", recording)
    return calls


def _bands(p, component, cutoff, charge):
    """(diag, off) of the JC_AJC N_d = ``charge`` ladder cut at ``cutoff``."""
    sec = sector_basis(cutoff, ChargeKind.DIFFERENCE_ND, charge)
    return sector_tridiagonal(ModelKind.JC_AJC, component, p, sec)


class TestIndexSolves:
    """Each exact su(2) sector is one index solve, and the general path of
    an su(1,1) sector two: the lowest ``count`` levels of the cut ladder and
    of the doubled one."""

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("p", [ModelParams(g=1.0, f=2.0), ModelParams(g=2.0, f=1.0)],
                             ids=["f>g", "g>f"])
    def test_general_path_is_two_index_solves(self, monkeypatch, p, component):
        # numeric_spectrum's general path, called directly: these sectors
        # take the leading-block shortcut through numeric_spectrum itself.
        cutoff, count = 120, 8
        for q in range(-3, 4):
            args = (_bands(p, component, cutoff, q), _bands(p, component, 2 * cutoff, q))
            calls = _record_solves(monkeypatch)
            vals2 = spectra._doubled_lowest(*args, count, 1e-9, p.mc2**2)
            monkeypatch.undo()
            dims = [b[0].size for b in args]
            assert calls == [(dim, (0, count - 1)) for dim in dims], q
            full = la.eigh_tridiagonal(args[1][0], np.abs(args[1][1]), eigvals_only=True)
            np.testing.assert_allclose(vals2, full[:count], rtol=0, atol=1e-13 * np.max(np.abs(full)))

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("p", [ModelParams(g=1.6, f=2.0), ModelParams(g=2.0, f=1.6),
                                   ModelParams(g=0.5, f=0.4j)], ids=["f>g", "g>f", "complex"])
    def test_interlacing_bounds_the_doubled_levels(self, p, component):
        # The cut ladder is the doubled one's leading block: no cut level
        # lies below the doubled ladder's level of the same index.
        for q in (-2, 0, 3):
            diag, off = _bands(p, component, 20, q)
            diag2, off2 = _bands(p, component, 40, q)
            assert np.array_equal(diag2[: diag.size], diag)
            assert np.array_equal(off2[: off.size], off)
            vals = la.eigh_tridiagonal(diag, np.abs(off), eigvals_only=True)
            vals2 = la.eigh_tridiagonal(diag2, np.abs(off2), eigvals_only=True)
            slack = 8 * np.finfo(float).eps * np.max(np.abs(vals2))
            assert np.all(vals >= vals2[: vals.size] - slack)

    def test_refusal_reports_the_move_and_the_bound_apart(self):
        # |g| >> |f|: level 0 is exactly 0, and bisection on a ladder of norm
        # ~3e6 x cutoff cannot resolve it to 1e-9 of the scale m²c⁴ = 1.
        p = ModelParams(f=8.534914926026937, g=1765.5664673413253)
        args = (_bands(p, Component.UPPER, 80, 1), _bands(p, Component.UPPER, 160, 1))
        with pytest.raises(NotConvergedError) as err:
            spectra._doubled_lowest(*args, 6, 1e-9, p.mc2**2)
        move, bound = map(float, re.findall(r"\d\.\d{3}e[-+]\d+", str(err.value))[:2])
        bounds = sum(tridiag.bisection_bound(*b) for b in args)
        assert bound == pytest.approx(bounds, rel=1e-3)
        assert move < bound

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("n_s, count", [(6, 7), (20, 3), (30, 31), (40, 5)])
    def test_exact_su2_sector_is_one_solve(self, monkeypatch, n_s, count, component):
        # Below, at and above the cutoff 20: one eigenvalue-only solve of the
        # N_s + 1 states, never cutoff doubling.
        calls = _record_solves(monkeypatch)
        sec = sector_basis(20, ChargeKind.SUM_NS, n_s)
        vals = numeric_spectrum(ModelKind.JC_JC, component, ModelParams(g=1.0, f=2.0), sec, count)
        assert calls == [(n_s + 1, (0, count - 1))]
        assert len(vals) == count

    def test_su2_count_beyond_the_irrep_raises(self):
        sec = sector_basis(20, ChargeKind.SUM_NS, 30)
        with pytest.raises(ValueError, match="requested 32 levels from a dim-31 sector"):
            numeric_spectrum(ModelKind.JC_JC, Component.UPPER, ModelParams(g=1.0, f=2.0), sec, 32)


def _tilted(tilt, magnitude=1.0, f_dominant=True, phases=(0.0, 0.0), mc2=1.0):
    """Couplings with tilt 2|f||g|/(|f|² + |g|²) = ``tilt`` < 1, the larger
    of magnitude ``magnitude``."""
    small = magnitude * tilt / (1.0 + math.sqrt(1.0 - tilt**2))
    fa, ga = (magnitude, small) if f_dominant else (small, magnitude)
    return ModelParams(f=cmath.rect(fa, phases[0]), g=cmath.rect(ga, phases[1]), mc2=mc2)


def _both_paths(p, component, cutoff, charge, count):
    """(the shortcut's levels or None, the general path's levels or the
    NotConvergedError it raised) of one N_d sector, both E² - m²c⁴, and
    the doubled ladder's Gershgorin bound on its norm."""
    bands, bands2 = _bands(p, component, cutoff, charge), _bands(p, component, 2 * cutoff, charge)
    try:
        general = spectra._doubled_lowest(bands, bands2, count, 1e-9, p.mc2**2)
    except NotConvergedError as exc:
        general = exc
    norm2 = np.max(np.abs(bands2[0])) + 2 * np.max(np.abs(bands2[1]))
    return spectra._seeded_doubling(bands2, bands[0].size, count, 1e-9, p.mc2**2), general, norm2


def _index_solve_dims(calls):
    """Dims of the index-range solves in a ``_record_solves`` log (a value
    window has float ends)."""
    return [dim for dim, rng in calls if rng is not None and isinstance(rng[0], int)]


def _bisecting_windows(diag, off, theta, delta):
    """The window check that bisected each level: the bisected values when
    the windows theta_k ± delta_k on the ladder (diag, |off|) are disjoint,
    the ladder holds as many eigenvalues up to the top of the last window
    as there are windows, and each window bisects (dstebz, abstol 0) to
    exactly one value; None otherwise."""
    d, b, norm = tridiag.ladder(diag, off)
    if not norm <= tridiag.SEED_NORM_MAX:
        return None
    lo, hi = theta - delta, theta + delta
    if np.any(lo[1:] <= hi[:-1]):
        return None
    found, _, _, _, info = tridiag.dstebz(d, b, 1, -np.inf, hi[-1], 1, 1, 2 * (abs(hi[-1]) + norm), "E")
    if info or found != theta.size:
        return None
    values = np.empty(theta.size)
    for k in range(theta.size):
        found, w, _, _, info = tridiag.dstebz(d, b, 1, lo[k], hi[k], 1, 1, 0.0, "E")
        if info or found != 1:
            return None
        values[k] = w[0]
    return values


def _log_lapack(monkeypatch):
    """Log (name, args) of every LAPACK call ``tridiag`` makes; returns the log."""
    log = []
    for name in ("dstebz", "dstein", "dsterf", "dstevd"):
        def logged(*args, _name=name, _routine=getattr(tridiag, name), **kwargs):
            log.append((_name, args))
            return _routine(*args, **kwargs)
        monkeypatch.setattr(tridiag, name, logged)
    return log


def _log_seeds(monkeypatch):
    """Log the rows of every leading block whose Rayleigh quotients
    ``tridiag`` forms, and (theta, resid) of every seed whose windows it
    checks; returns the two logs."""
    blocks, seeds = [], []
    rayleigh, windows = tridiag._rayleigh, tridiag._windows

    def logged_rayleigh(d, e, v, tail):
        blocks.append(d.size)
        return rayleigh(d, e, v, tail)

    def logged_windows(theta, resid, bound):
        seeds.append((theta, resid))
        return windows(theta, resid, bound)

    monkeypatch.setattr(tridiag, "_rayleigh", logged_rayleigh)
    monkeypatch.setattr(tridiag, "_windows", logged_windows)
    return blocks, seeds


class TestLeadingBlockShortcut:
    """Where the leading-block shortcut certifies an N_d sector, the general
    path certifies the same levels to roundoff; everywhere else
    ``numeric_spectrum`` is the general path, errors included. The
    shortcut's two checks: disjoint windows, and the count up to the last
    window; its precondition: each window holds an eigenvalue."""

    @settings(max_examples=200, deadline=None)
    @given(
        tilt=st.floats(0.0, 0.97),
        magnitude=st.floats(0.3, 3.0),
        f_dominant=st.booleans(),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        mc2=st.sampled_from([0.3, 1.0, 5.0]),
        cutoff=st.integers(12, 400),
        charge=st.integers(-3, 3),
        count=st.integers(1, 8),
        component=st.sampled_from(list(Component)),
    )
    def test_certifies_what_the_general_path_certifies(
        self, tilt, magnitude, f_dominant, phases, mc2, cutoff, charge, count, component
    ):
        p = _tilted(tilt, magnitude, f_dominant, phases, mc2)
        seeded, general, norm2 = _both_paths(p, component, cutoff, charge, count)
        sec = sector_basis(cutoff, ChargeKind.DIFFERENCE_ND, charge)
        if seeded is not None:
            np.testing.assert_array_equal(
                numeric_spectrum(ModelKind.JC_AJC, component, p, sec, count), seeded + p.mc2**2
            )
            assert not isinstance(general, NotConvergedError)
            assert np.max(np.abs(seeded - general)) <= 4 * np.finfo(float).eps * norm2
        elif isinstance(general, NotConvergedError):
            with pytest.raises(NotConvergedError, match=f"^{re.escape(str(general))}$"):
                numeric_spectrum(ModelKind.JC_AJC, component, p, sec, count)
        else:
            np.testing.assert_array_equal(
                numeric_spectrum(ModelKind.JC_AJC, component, p, sec, count), general + p.mc2**2
            )

    def test_general_path_certifies_a_whole_small_sector(self):
        # Hard truncation pinned one of these five levels to the cut; the
        # leading block holds all five, too close to the cut for a seed.
        p = ModelParams(f=0.93, g=0.016)
        seeded, general, _ = _both_paths(p, Component.UPPER, 12, -3, 5)
        assert seeded is None
        sec = sector_basis(12, ChargeKind.DIFFERENCE_ND, -3)
        got = numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 5)
        np.testing.assert_array_equal(got, general + p.mc2**2)
        np.testing.assert_allclose(got, su11_sector_energy_sq(p, -3, np.arange(5)), rtol=1e-12)

    @pytest.mark.parametrize("p", [ModelParams(g=cmath.rect(1.0, 0.3), f=2.0),
                                   ModelParams(g=2.0, f=cmath.rect(1.0, 1.0))],
                             ids=["f>g", "g>f"])
    def test_benchmark_sector_takes_the_shortcut(self, monkeypatch, p):
        # cutoff 280, N_d = 0, tilt 0.8: no index-range solve at or above
        # the seed block's size, so none at dim 281 or 561
        calls = _record_solves(monkeypatch)
        blocks, seeds = _log_seeds(monkeypatch)
        sec = sector_basis(280, ChargeKind.DIFFERENCE_ND, 0)
        numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 8)
        assert len(seeds) == 1  # the seed of the last block was accepted
        assert tridiag.leading_block_eigenvalues(*_bands(p, Component.UPPER, 560, 0), 8, 281) is not None
        assert all(dim < blocks[-1] for dim in _index_solve_dims(calls))

    def test_strong_tilt_takes_the_general_path(self, monkeypatch):
        # tilt 0.97: the levels' eigenvectors reach past any block the cut allows
        p = _tilted(0.97, 1.0)
        calls = _record_solves(monkeypatch)
        sec = sector_basis(200, ChargeKind.DIFFERENCE_ND, 0)
        numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 8)
        assert {201, 401} <= set(_index_solve_dims(calls))

    def test_seed_block_may_reach_the_row_below_the_cut(self, monkeypatch):
        # tilt 0.3 at cutoff 24: only the 24-row block, dim - 1, holds the
        # lowest three levels to roundoff; a 22-row one does not
        p = _tilted(0.3, 1.0)
        diag, off = _bands(p, Component.UPPER, 24, 0)
        blocks, _ = _log_seeds(monkeypatch)
        vals, *_ = tridiag.leading_block_eigenvalues(diag, off, 3, diag.size)
        assert blocks[-1] == diag.size - 1
        assert tridiag.leading_block_eigenvalues(diag[:23], off[:22], 3, 23) is None
        np.testing.assert_allclose(vals, su11_sector_energy_sq(p, 0, np.arange(3)) - 1.0,
                                   rtol=1e-13)

    def test_overlapping_windows_are_declined(self):
        p = ModelParams(g=2.0, f=1.0)
        d, b, norm = tridiag.ladder(*_bands(p, Component.UPPER, 120, 0))
        theta, bound = np.array([0.0, 3.0, 6.0]), tridiag.bisection_bound(d, b, norm)
        # levels 0, 3, 6: windows of half-width 1.5 + bound overlap
        assert tridiag._windows(theta, np.full(3, 1.5), bound) is None
        delta = tridiag._windows(theta, np.full(3, 1.4), bound)
        np.testing.assert_array_equal(delta, 1.4 + bound)
        assert tridiag._count_up_to(d, b, norm, theta[-1] + delta[-1]) == 3

    def test_eigenvalue_between_windows_is_declined(self):
        # two rows cut off the top of a ladder whose levels are 0, 3, 6, ...:
        # decoupled eigenvalues 10 and 11 between the levels 9 and 12
        p = ModelParams(g=2.0, f=1.0)
        diag, off = _bands(p, Component.UPPER, 120, 0)
        diag[-2:], off[-2:] = (10.0, 11.0), 0.0
        # the rows above the two certify the seed's levels 0, 3, ..., 21
        theta, _, width2, _, _ = tridiag.leading_block_eigenvalues(diag[:-2], off[:-2], 8, diag.size - 2)
        np.testing.assert_allclose(theta, 3.0 * np.arange(8), rtol=0, atol=1e-12)
        # on the whole ladder the count finds ten eigenvalues up to the last window
        assert tridiag.leading_block_eigenvalues(diag, off, 8, diag.size) is None
        d, b, norm = tridiag.ladder(diag, off)
        assert tridiag._count_up_to(d, b, norm, theta[-1] + width2[-1]) == 10
        vals = tridiag.eigh(diag, np.abs(off), eigvals_only=True, select="i", select_range=(0, 7))
        np.testing.assert_allclose(vals, [0, 3, 6, 9, 10, 11, 12, 15], rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        tilt=st.floats(0.0, 0.97),
        magnitude=st.floats(0.3, 3.0),
        f_dominant=st.booleans(),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        mc2=st.sampled_from([0.3, 1.0, 5.0]),
        cutoff=st.integers(12, 400),
        charge=st.integers(-3, 3),
        count=st.integers(1, 8),
        component=st.sampled_from(list(Component)),
    )
    def test_every_seed_window_holds_an_eigenvalue(
        self, tilt, magnitude, f_dominant, phases, mc2, cutoff, charge, count, component
    ):
        # The precondition the single count rests on, over the domain of
        # test_certifies_what_the_general_path_certifies: each value of a
        # seed that leading_block_eigenvalues accepts has an eigenvalue of the
        # cut and of the doubled ladder within resid_k plus the bisection
        # bound. The eigenvalues come from root-free QR on the whole ladder
        # (dsterf), which bisects nothing: over 3,000 draws they lay within
        # resid_k + 0.6 eps·‖T‖ of the seed values. MRRR (dstemr) cannot
        # judge an 8 eps·‖T‖ bound: on the same ladders it erred by up to
        # 35 eps·‖T‖.
        p = _tilted(tilt, magnitude, f_dominant, phases, mc2)
        bands, bands2 = _bands(p, component, cutoff, charge), _bands(p, component, 2 * cutoff, charge)
        with pytest.MonkeyPatch.context() as mp:
            _, seeds = _log_seeds(mp)
            tridiag.leading_block_eigenvalues(*bands2, count, bands[0].size)
        for theta, resid in seeds:
            for diag, off in (bands, bands2):
                exact = la.eigvalsh_tridiagonal(diag, np.abs(off), lapack_driver="sterf")
                gap = np.min(np.abs(exact[:, None] - theta), axis=0)
                assert np.all(gap <= resid + tridiag.bisection_bound(diag, off)), gap

    @settings(max_examples=200, deadline=None)
    @given(
        tilt=st.floats(0.0, 0.97),
        magnitude=st.floats(0.3, 3.0),
        f_dominant=st.booleans(),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        mc2=st.sampled_from([0.3, 1.0, 5.0]),
        cutoff=st.integers(12, 400),
        charge=st.integers(-3, 3),
        count=st.integers(1, 8),
        component=st.sampled_from(list(Component)),
    )
    def test_bisecting_windows_pass_where_the_counts_certify(
        self, tilt, magnitude, f_dominant, phases, mc2, cutoff, charge, count, component
    ):
        # The domain of test_certifies_what_the_general_path_certifies: where
        # the counts on the doubled ladder certify, the bisecting window check
        # passes on both ladders, and each level returned lies within the
        # doubled half-width of that ladder's bisected value.
        p = _tilted(tilt, magnitude, f_dominant, phases, mc2)
        bands, bands2 = _bands(p, component, cutoff, charge), _bands(p, component, 2 * cutoff, charge)
        vals2 = spectra._seeded_doubling(bands2, bands[0].size, count, 1e-9, p.mc2**2)
        if vals2 is None:
            return
        theta, width, width2, _, _ = tridiag.leading_block_eigenvalues(*bands2, count, bands[0].size)
        assert _bisecting_windows(*bands, theta, width) is not None
        bisected2 = _bisecting_windows(*bands2, theta, width2)
        assert np.all(np.abs(vals2 - bisected2) <= width2)

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("f_dominant", [True, False], ids=["f>g", "g>f"])
    def test_certified_sector_work_is_pinned(self, monkeypatch, f_dominant, component):
        # The benchmark's sizes at tilt 0.8: per sector one QR seed, at most
        # two inverse iterations and one value-range count on the doubled
        # ladder; nothing bisected, no index solve, no general path.
        log = _log_lapack(monkeypatch)

        def general_path(*args):
            raise AssertionError("the general path ran")

        monkeypatch.setattr(spectra, "_doubled_lowest", general_path)
        p = _tilted(0.8, 1.0, f_dominant, phases=(0.3, 1.1))
        for cutoff, charge in [(280, 0), *((160, q) for q in range(-3, 4))]:
            log.clear()
            sec = sector_basis(cutoff, ChargeKind.DIFFERENCE_ND, charge)
            numeric_spectrum(ModelKind.JC_AJC, component, p, sec, 8)
            names = [name for name, _ in log]
            assert names.count("dsterf") <= 1 and names.count("dstein") <= 2, names
            assert "dstevd" not in names, names
            # dstebz(d, e, range, vl, vu, il, iu, abstol, order): 1 is a value range
            counts = [args for name, args in log if name == "dstebz"]
            assert len(counts) == 1, names
            for d, _, select, *_, abstol, _ in counts:
                assert (select, d.size) == (1, 2 * cutoff + 1 - abs(charge))
                assert abstol > 0


def _irrep_bands(p, component, n_s):
    """(diag, off) of the JC_JC su(2) irrep N_s = ``n_s``."""
    return sector_tridiagonal(ModelKind.JC_JC, component, p, su2_irrep(n_s))


def _su2_levels(p, n_s, count, component):
    """The closed form's lowest ``count`` E² of the irrep N_s: the irrep's
    states (n_a, N_s - n_a) give m_n = |n_a - n_b| and the inner sign of
    n_a - n_b, as in verify's su(2) spectrum check; the lower component is
    shifted by hbar²(|f|² + |g|²)."""
    diff = 2 * np.arange(n_s + 1) - n_s
    m_n = np.abs(diff)
    levels = np.sort(su2_energy_sq(p, (n_s - m_n) // 2, m_n, np.where(diff < 0, -1, 1)))[:count]
    return levels if component is Component.UPPER else levels + p.hbar**2 * (abs(p.f) ** 2 + abs(p.g) ** 2)


class TestWholeIrrepSeed:
    """An su(2) irrep of WHOLE_MIN_ROWS rows or more, asked for fewer than
    WHOLE_COUNT_LIMIT levels, is certified from a seed on a window of its
    rows: a coarse index bisection, inverse iteration, the two cut couplings,
    Kato–Temple windows and one count on the whole irrep. Its levels are
    bisection's, within twice the bisection bound; every other irrep is one
    index solve, bit for bit."""

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("n_s", [398, 399])
    def test_certified_irrep_work_is_pinned(self, monkeypatch, n_s, component):
        # The benchmark's sizes at tilt 0.6: one coarse index bisection and
        # one inverse iteration of 9 levels on the rows ``_seed_rows`` sizes,
        # fewer than the irrep's, and one value-range count on the whole
        # irrep; no full-precision bisection, no second window or dstein.
        p = _tilted(0.6, 1.0, phases=(0.3, 1.1))
        bands = _irrep_bands(p, component, n_s)
        lo, hi = tridiag._seed_rows(*tridiag.ladder(*bands), 8)
        assert hi - lo < n_s + 1
        log = _log_lapack(monkeypatch)
        residuals = []

        def rayleigh(*args, _routine=tridiag._rayleigh):
            theta, resid = _routine(*args)
            residuals.append(resid)
            return theta, resid

        monkeypatch.setattr(tridiag, "_rayleigh", rayleigh)
        got = numeric_spectrum(ModelKind.JC_JC, component, p, su2_irrep(n_s), 8)
        names = [name for name, _ in log]
        assert names == ["dstebz", "dstein", "dstebz"], names
        # dstebz(d, e, range, vl, vu, il, iu, abstol, order): 1 is a value range, 2 an index range
        (_, seed), (_, stein), (_, count) = log
        d, _, select, *_, abstol, _ = seed
        assert select == 2 and abstol > 0 and np.array_equal(d, bands[0][lo:hi])
        assert np.array_equal(stein[0], d)
        assert (count[2], count[0].size) == (1, n_s + 1) and count[7] > 0
        # the residual bound alone is far wider: Kato–Temple certifies
        (resid,) = residuals
        assert np.max(resid) > 2 * tridiag.bisection_bound(*bands)
        np.testing.assert_allclose(got, _su2_levels(p, n_s, 8, component), rtol=1e-12, atol=0)

    @staticmethod
    def _rows_tried(monkeypatch):
        """Log the rows [lo, hi) of every window the seed is tried on."""
        tried = []

        def logged(d, b, norm, count, lo, hi, _routine=tridiag._window_levels):
            tried.append((lo, hi))
            return _routine(d, b, norm, count, lo, hi)

        monkeypatch.setattr(tridiag, "_window_levels", logged)
        return tried

    @pytest.mark.parametrize("n_s, ratio, count, where", [
        (1000, 10.0, 8, "first"),  # |g| > |f|: the well at row 0
        (1000, 0.1, 8, "last"),  # |g| < |f|: the well at the last row
        (1000, 1.0, 8, "interior"),  # |g| = |f|: the well mid-irrep
        (120, 1.0, 40, "whole"),  # 40 levels spread over all 121 rows
    ])
    def test_one_window_certifies(self, monkeypatch, n_s, ratio, count, where):
        # One window, placed where the low eigenvectors sit; each level
        # within its half-width of the index solve's.
        bands = _irrep_bands(ModelParams(f=1.0, g=cmath.rect(ratio, 0.4)), Component.UPPER, n_s)
        tried = self._rows_tried(monkeypatch)
        vals, width = tridiag.whole_ladder_eigenvalues(*bands, count)
        ((lo, hi),) = tried
        n = n_s + 1
        placed = {"first": lo == 0 < hi < n, "last": 0 < lo < hi == n,
                  "interior": 0 < lo < hi < n, "whole": (lo, hi) == (0, n)}
        assert placed[where], (lo, hi)
        assert np.all(np.abs(vals - spectra._lowest(bands, count)) <= width)

    def test_a_window_too_small_doubles_until_it_certifies(self, monkeypatch):
        # 40 rows mid-irrep hold the core of the low eigenvectors but not
        # their tails: the cut couplings keep the first windows from
        # certifying, and the rows double about them until they do.
        bands = _irrep_bands(ModelParams(f=1.0, g=cmath.rect(1.0, 0.4)), Component.UPPER, 1000)
        monkeypatch.setattr(tridiag, "_seed_rows", lambda d, b, norm, count: (480, 520))
        tried = self._rows_tried(monkeypatch)
        vals, width = tridiag.whole_ladder_eigenvalues(*bands, 8)
        assert [hi - lo for lo, hi in tried] == [40 * 2**k for k in range(len(tried))], tried
        assert len(tried) > 2 and 0 < tried[-1][0] and tried[-1][1] < 1001, tried
        assert np.all(np.abs(vals - spectra._lowest(bands, 8)) <= width)

    def test_a_second_well_grows_the_window_to_the_whole_ladder(self, monkeypatch):
        # A parabolic well cut into the diagonal at row 200 holds the least
        # Gershgorin bound, and its lowest level, 4.03, falls among the
        # irrep's (0, 1.09, ..., 8.72 at its last rows). The first window,
        # on the second well, misses the irrep's levels; the windows double
        # about it until the whole ladder certifies all nine.
        diag, off = _irrep_bands(ModelParams(f=1.0, g=0.3), Component.UPPER, 1000)
        rows = np.arange(diag.size)
        diag = diag - 600.0 * np.maximum(0.0, 1.0 - ((rows - 200) / 10.0) ** 2)
        tried = self._rows_tried(monkeypatch)
        vals, width = tridiag.whole_ladder_eigenvalues(diag, off, 8)
        sizes = [hi - lo for lo, hi in tried]
        assert tried[0][0] > 0 and tried[-1] == (0, diag.size) and len(tried) > 2
        assert all(s2 == min(2 * s1, diag.size) for s1, s2 in zip(sizes, sizes[1:])), tried
        assert all(lo2 <= lo1 and hi1 <= hi2 for (lo1, hi1), (lo2, hi2) in zip(tried, tried[1:])), tried
        assert np.all(np.abs(vals - spectra._lowest((diag, off), 8)) <= width)

    def test_a_failed_count_declines_to_the_index_solve(self, monkeypatch):
        # A count that always finds one eigenvalue more than the windows
        # hold: every window fails, they grow to the whole ladder, and the
        # irrep is solved by index, bit for bit.
        p = _tilted(0.6)
        bands = _irrep_bands(p, Component.UPPER, 400)
        tried = self._rows_tried(monkeypatch)
        count_up_to = tridiag._count_up_to
        monkeypatch.setattr(tridiag, "_count_up_to", lambda *args: count_up_to(*args) + 1)
        assert tridiag.whole_ladder_eigenvalues(*bands, 8) is None
        assert tried[0] != (0, 401) and tried[-1] == (0, 401), tried
        got = numeric_spectrum(ModelKind.JC_JC, Component.UPPER, p, su2_irrep(400), 8)
        np.testing.assert_array_equal(got, spectra._lowest(bands, 8) + p.mc2**2)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(
        n_s=st.integers(96, 3000),
        log_ratio=st.one_of(st.just(0.0), st.floats(math.log(1e-2), math.log(1e2))),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        count=st.integers(1, tridiag.WHOLE_COUNT_LIMIT - 1),
        component=st.sampled_from(list(Component)),
    )
    def test_window_levels_are_index_bisections(self, n_s, log_ratio, phases, count, component):
        # Irreps up to N_s = 3000, |g|/|f| across four decades and exactly 1,
        # up to 47 levels: the seed's windows certify every irrep, each level
        # within its half-width of the index solve's.
        p = ModelParams(f=cmath.rect(1.0, phases[0]), g=cmath.rect(math.exp(log_ratio), phases[1]))
        bands = _irrep_bands(p, component, n_s)
        vals, width = tridiag.whole_ladder_eigenvalues(*bands, count)
        assert np.all(width <= 2 * tridiag.bisection_bound(*bands))
        assert np.all(np.abs(vals - spectra._lowest(bands, count)) <= width)

    @pytest.mark.parametrize("n_s, count, g", [
        (tridiag.WHOLE_MIN_ROWS - 2, 8, 0.5),  # one row short
        (400, tridiag.WHOLE_COUNT_LIMIT, 0.5),
        (400, 8, 0.0),  # zero off-diagonals
    ])
    def test_gates_decline_before_any_lapack_call(self, monkeypatch, n_s, count, g):
        bands = _irrep_bands(ModelParams(f=1.0, g=g), Component.UPPER, n_s)
        log = _log_lapack(monkeypatch)
        assert tridiag.whole_ladder_eigenvalues(*bands, count) is None
        assert log == []

    def test_smallest_certified_irrep(self):
        bands = _irrep_bands(ModelParams(f=1.0, g=0.5j), Component.UPPER, tridiag.WHOLE_MIN_ROWS - 1)
        count = tridiag.WHOLE_COUNT_LIMIT - 1
        vals, width = tridiag.whole_ladder_eigenvalues(*bands, count)
        bound = tridiag.bisection_bound(*bands)
        assert vals.size == count and np.all(width <= 2 * bound)
        assert np.all(np.abs(vals - spectra._lowest(bands, count)) <= width + bound)

    def test_too_coarse_a_seed_declines_to_the_index_solve(self, monkeypatch):
        # A seed bisected to a tenth of the spectrum: its windows overlap or
        # stay too wide (or dstein fails), and the irrep is solved by index.
        p = _tilted(0.6)
        bands = _irrep_bands(p, Component.UPPER, 300)
        monkeypatch.setattr(tridiag, "SEED_COARSE", 30.0)
        assert tridiag.whole_ladder_eigenvalues(*bands, 8) is None
        got = numeric_spectrum(ModelKind.JC_JC, Component.UPPER, p, su2_irrep(300), 8)
        np.testing.assert_array_equal(got, spectra._lowest(bands, 8) + p.mc2**2)

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(
        log_f=st.floats(math.log(1e-3), math.log(1e4)),
        log_g=st.floats(math.log(1e-3), math.log(1e4)),
        phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
        case=st.sampled_from(["free", "free", "free", "g=0", "f=0", "|f|=|g|"]),
        log_mc2=st.floats(math.log(1e-3), math.log(1e3)),
        n_s=st.integers(48, 1200),
        count=st.integers(1, 24),
        component=st.sampled_from(list(Component)),
    )
    def test_certified_levels_are_bisections(
        self, log_f, log_g, phases, case, log_mc2, n_s, count, component
    ):
        # Couplings across seven decades and both dominances: a certified
        # level lies within its half-width plus the bisection bound of the
        # index solve's, each half-width at most twice the bound; a declined
        # irrep (zero couplings among them) is the index solve, bit for bit.
        fa, ga = math.exp(log_f), math.exp(log_g)
        fa, ga = {"g=0": (fa, 0.0), "f=0": (0.0, ga), "|f|=|g|": (fa, fa)}.get(case, (fa, ga))
        p = ModelParams(f=cmath.rect(fa, phases[0]), g=cmath.rect(ga, phases[1]), mc2=math.exp(log_mc2))
        bands = _irrep_bands(p, component, n_s)
        lowest = spectra._lowest(bands, count)
        got = numeric_spectrum(ModelKind.JC_JC, component, p, su2_irrep(n_s), count)
        cut = tridiag.whole_ladder_eigenvalues(*bands, count)
        if cut is None:
            np.testing.assert_array_equal(got, lowest + p.mc2**2)
            return
        vals, width = cut
        bound = tridiag.bisection_bound(*bands)
        np.testing.assert_array_equal(got, vals + p.mc2**2)
        assert np.all(width <= 2 * bound), width / bound
        assert np.all(np.abs(vals - lowest) <= width + bound), (vals - lowest) / bound


_LOG_COUPLING = st.floats(math.log(1e-4), math.log(1e8))


@settings(max_examples=300, deadline=None)
@given(
    log_f=_LOG_COUPLING,
    log_g=_LOG_COUPLING,
    phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
    cutoff=st.integers(2, 400),
    charge=st.integers(-6, 6),
    count=st.integers(1, 8),
    component=st.sampled_from(list(Component)),
)
# diagonalize --f-re 8.534914926026937 --g-re 1765.5664673413253 --cutoff 80
# --sector 1 --count 6: level 0 is exactly m²c⁴, and bisection on this
# ladder cannot resolve it to the doubling tolerance
@example(log_f=math.log(8.534914926026937), log_g=math.log(1765.5664673413253),
         phases=(0.0, 0.0), cutoff=80, charge=1, count=6, component=Component.UPPER)
def test_certified_levels_match_the_closed_form(log_f, log_g, phases, cutoff, charge, count, component):
    # Couplings across twelve decades, each dominance and phase: every level
    # numeric_spectrum certifies is the closed form's to 1e-8 of E² (which
    # is at least m²c⁴); NotConvergedError is the only other outcome.
    p = ModelParams(f=cmath.rect(math.exp(log_f), phases[0]), g=cmath.rect(math.exp(log_g), phases[1]))
    sec = sector_basis(cutoff, ChargeKind.DIFFERENCE_ND, max(-cutoff, min(cutoff, charge)))
    count = min(count, sec.dim)
    try:
        got = numeric_spectrum(ModelKind.JC_AJC, component, p, sec, count)
    except NotConvergedError:
        return
    want = su11_sector_energy_sq(p, sec.charge_value, np.arange(count))
    if component is Component.LOWER:
        want = want - p.hbar**2 * (abs(p.f) ** 2 - abs(p.g) ** 2)
    scale = np.maximum(np.abs(want), p.mc2**2)
    assert np.max(np.abs(got - want) / scale) <= 1e-8, (got, want)


@settings(max_examples=300, deadline=None)
@given(
    log_f=_LOG_COUPLING,
    log_g=_LOG_COUPLING,
    phases=st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)),
    log_mc2=st.floats(math.log(1e-3), math.log(1e3)),
    log_hbar=st.floats(math.log(1e-3), math.log(1e3)),
    cutoff=st.integers(4, 400),
    charge=st.integers(-3, 3),
    component=st.sampled_from(list(Component)),
)
def test_cut_ladder_is_the_doubled_ladders_leading_block(
    log_f, log_g, phases, log_mc2, log_hbar, cutoff, charge, component
):
    # numeric_spectrum builds only the doubled ladder and takes the cut one
    # as its leading rows: bit for bit the cut ladder's own bands.
    p = ModelParams(f=cmath.rect(math.exp(log_f), phases[0]), g=cmath.rect(math.exp(log_g), phases[1]),
                    mc2=math.exp(log_mc2), hbar=math.exp(log_hbar))
    diag, off = _bands(p, component, cutoff, charge)
    diag2, off2 = _bands(p, component, 2 * cutoff, charge)
    assert np.array_equal(diag2[: diag.size], diag)
    assert np.array_equal(off2[: off.size], off)


class TestPartnerShift:
    """The upper/lower relabelings hold as spectral multiset identities."""

    def test_su11_shift(self, params_f2_g1):
        basis = build_basis(90)
        for m_n in (2, 3, 5):
            up = numeric_spectrum(
                ModelKind.JC_AJC, Component.UPPER, params_f2_g1,
                get_sector(basis, ChargeKind.DIFFERENCE_ND, -m_n), 8,
            )
            lo = numeric_spectrum(
                ModelKind.JC_AJC, Component.LOWER, params_f2_g1,
                get_sector(basis, ChargeKind.DIFFERENCE_ND, -(m_n - 2)), 9,
            )
            # n'_l = n_l + 1: the lower sector has one extra level below
            np.testing.assert_allclose(up, lo[1:], rtol=1e-8)

    def test_su11_shift_analytic(self, rng):
        for _ in range(100):
            p = ModelParams(
                g=complex(rng.normal(), rng.normal()),
                f=complex(rng.normal(), rng.normal()),
            )
            n_l, m_n = int(rng.integers(0, 8)), int(rng.integers(2, 8))
            up = su11_energy_sq(p, n_l, m_n)
            lo = su11_energy_sq(p, n_l + 1, m_n - 2) - p.hbar**2 * (
                abs(p.f) ** 2 - abs(p.g) ** 2
            )
            assert up == pytest.approx(lo, rel=1e-12)

    def test_su2_shift(self):
        p = ModelParams(g=0.6 + 0.3j, f=1.2 - 0.4j)
        basis = build_basis(25)
        for n_s in (4, 7):
            up = numeric_spectrum(
                ModelKind.JC_JC, Component.UPPER, p,
                get_sector(basis, ChargeKind.SUM_NS, n_s), n_s + 1,
            )
            lo = numeric_spectrum(
                ModelKind.JC_JC, Component.LOWER, p,
                get_sector(basis, ChargeKind.SUM_NS, n_s - 2), n_s - 1,
            )
            # n'_l = n_l - 1 drops the extreme levels of the upper sector
            np.testing.assert_allclose(up[1:-1], lo, rtol=1e-10)


class TestSpecialCases:
    def test_dirac1p1_preset(self):
        p, kind = special_case_params(Dirac1p1(0.3), mc2=1.0, hbar=1.0)
        assert kind is ModelKind.JC_AJC
        assert p.g == 0.0
        assert abs(p.f) ** 2 == pytest.approx(0.3)

    @pytest.mark.parametrize("case", [Dirac1p1(0.3), Dirac2p1(0.3),
                                      NondegenerateParametricAmplifier(1.0, 2.0),
                                      CoupledOscillators(1.0, 2.0)])
    @pytest.mark.parametrize("mc2, hbar, name", [
        (1.0, 0.0, "hbar"), (1.0, -1.0, "hbar"), (0.0, 1.0, "mc2"), (-2.0, 1.0, "mc2"),
    ])
    def test_nonpositive_mc2_or_hbar_rejected(self, case, mc2, hbar, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            special_case_params(case, mc2=mc2, hbar=hbar)

    def test_dirac2p1_preset(self):
        p, kind = special_case_params(Dirac2p1(0.3))
        assert kind is ModelKind.JC_JC
        assert p.f == p.g
        assert abs(p.f) ** 2 == pytest.approx(0.6)

    def test_ndpa_preset(self):
        p, kind = special_case_params(NondegenerateParametricAmplifier(1.0, 2.0, 0.4))
        assert kind is ModelKind.JC_AJC
        assert abs(p.g) ** 2 == pytest.approx(2.0)
        assert abs(p.f) ** 2 == pytest.approx(4.0)
        # g carries the i e^{-i phase}, f the e^{+i phase}
        assert np.angle(p.g) == pytest.approx(np.pi / 2 - 0.4)
        assert np.angle(p.f) == pytest.approx(0.4)

    def test_ndpa_energy_consistency(self):
        # frozen from the preset + general formula: omega = (1, 2),
        # (n_l, m) = (0, 1) gives E^2 = 3
        assert ndpa_energy(1.0, 2.0, 0, 1) == pytest.approx(np.sqrt(3.0), abs=1e-14)
        p, _ = special_case_params(NondegenerateParametricAmplifier(1.0, 2.0))
        for n_l in range(4):
            for m in range(4):
                assert ndpa_energy(1.0, 2.0, n_l, m) ** 2 == pytest.approx(
                    su11_energy_sq(p, n_l, m), rel=1e-13
                )

    def test_ndpa_degenerate_frequencies(self):
        for n_l in range(3):
            for m in range(3):
                assert ndpa_energy(1.5, 1.5, n_l, m) == pytest.approx(1.0)

    @pytest.mark.parametrize("delta, rel", [(1e-9, 1e-6), (3e-12, 1e-4)])
    def test_ndpa_near_degenerate_frequencies(self, delta, rel):
        # E² - m²c⁴ = 12 (w2 - w1) at n_l = 5, m = 0. The literal radical
        # sqrt((w1+w2)² - 4 w1 w2) cancels here; the tolerance covers only
        # the rounding of E = sqrt(E²) and its square back.
        w2 = 1.0 + delta
        assert ndpa_energy(1.0, w2, 5, 0) ** 2 - 1.0 == pytest.approx(12.0 * (w2 - 1.0), rel=rel)

    def test_ndpa_matches_numeric(self):
        p, kind = special_case_params(NondegenerateParametricAmplifier(1.0, 2.0, 0.3))
        basis = build_basis(140)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, 0)
        numeric = numeric_spectrum(kind, Component.UPPER, p, sec, 5)
        analytic = [ndpa_energy(1.0, 2.0, n, 0) ** 2 for n in range(5)]
        np.testing.assert_allclose(numeric, analytic, rtol=1e-8)

    def test_coupled_osc_consistency(self):
        p, _ = special_case_params(CoupledOscillators(1.0, 2.0))
        for j2 in range(0, 7):
            for mu2 in range(-j2, j2 + 1, 2):
                e = coupled_osc_energy(1.0, 2.0, j2 / 2, mu2 / 2)
                ref = su2_energy_sq(
                    p, (j2 - abs(mu2)) // 2, abs(mu2), 1 if mu2 >= 0 else -1
                )
                assert e**2 == pytest.approx(ref, rel=1e-13)

    def test_coupled_osc_ground(self):
        assert coupled_osc_energy(1.0, 2.0, 0.0, 0.0) == pytest.approx(1.0)
        assert coupled_osc_energy(1.0, 2.0, 0.0, 0.0, Branch.MINUS) == pytest.approx(-1.0)

    def test_coupled_osc_degenerate_matches_dirac2p1(self):
        # omega1 = omega2 = w is the balanced preset up to phases
        w = 0.2
        pa, _ = special_case_params(CoupledOscillators(w, w, 0.3))
        pb, _ = special_case_params(Dirac2p1(w))
        for n_l in range(4):
            for m_n in range(4):
                for inner in (1, -1):
                    assert su2_energy_sq(pa, n_l, m_n, inner) == pytest.approx(
                        su2_energy_sq(pb, n_l, m_n, inner), rel=1e-13
                    )


class TestStructuralIdentities:
    def test_radicands(self, rng):
        # 10^4 seeded random pairs with a relative gap guard: near the
        # excluded |f| = |g| ray the first radical cancels catastrophically
        # (conditioning eps * S / gap), so no float evaluation can certify
        # 1e-13 there; everywhere else the identities hold to roundoff.
        n = 10_000
        f = np.empty(n, dtype=complex)
        g = np.empty(n, dtype=complex)
        have = 0
        while have < n:
            cand_f = rng.uniform(0.1, 3.0, 2 * n) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2 * n))
            cand_g = rng.uniform(0.1, 3.0, 2 * n) * np.exp(1j * rng.uniform(0, 2 * np.pi, 2 * n))
            gap_ok = np.abs(np.abs(cand_f) ** 2 - np.abs(cand_g) ** 2) >= 0.05 * (
                np.abs(cand_f) ** 2 + np.abs(cand_g) ** 2
            )
            take = min(n - have, int(np.sum(gap_ok)))
            f[have : have + take] = cand_f[gap_ok][:take]
            g[have : have + take] = cand_g[gap_ok][:take]
            have += take
        fa2, ga2 = np.abs(f) ** 2, np.abs(g) ** 2
        s = fa2 + ga2
        rad_a = np.sqrt((ga2 + fa2) ** 2 - 4 * ga2 * fa2)
        assert np.max(np.abs(rad_a - np.abs(fa2 - ga2)) / s) <= 1e-13
        rad_b = np.sqrt((ga2 - fa2) ** 2 + 4 * ga2 * fa2)
        assert np.max(np.abs(rad_b - s) / s) <= 1e-13


class TestNonRelativisticLimits:
    def test_coupled_first_excited(self):
        rep = nonrelativistic_limit_check(CoupledOscillators(1.0, 2.0), 2, 1, 1e6)
        assert rep.offset == 0.0
        assert rep.rel_error <= 1e-5

    def test_ndpa_levels(self):
        for idx in (1, 2):
            rep = nonrelativistic_limit_check(
                NondegenerateParametricAmplifier(1.0, 2.0), 0, idx, 1e6
            )
            assert rep.rel_error <= 1e-5
            assert rep.offset == pytest.approx(2.0)  # hbar * omega2

    def test_ndpa_level_reported_at_the_cutoff(self):
        # the level reported is the certified one, the doubled ladder's: the
        # cut ladder at cutoff 160 bisects to within its certificate of it
        # (the doubling tolerance over max(|level|, w1 + w2), bisection
        # bounds included) and, by interlacing, to no less than it minus the
        # two bisection bounds
        case = NondegenerateParametricAmplifier(1.0, 2.0)
        diag, off = spectra._nonrel_tridiagonal(case, sector_basis(160, ChargeKind.DIFFERENCE_ND, 0))
        bound = sum(tridiag.bisection_bound(*spectra._nonrel_tridiagonal(
            case, sector_basis(cutoff, ChargeKind.DIFFERENCE_ND, 0))) for cutoff in (160, 320))
        for idx in (0, 1, 2):
            rep = nonrelativistic_limit_check(case, 0, idx, 1e6)
            assert rep.scale == 1e6
            certified = rep.eps_analytic - rep.offset
            level = float(tridiag.eigh(diag, np.abs(off), eigvals_only=True, select="i",
                                       select_range=(idx, idx))[0])
            assert -bound <= level - certified <= spectra.LIMIT_DOUBLING_TOL * max(abs(certified), 3.0)
            if idx == 1:  # exactly w2 = 2: level 0 of the limit Hamiltonian is 0
                assert abs(rep.eps_analytic - 2.0) <= bound

    @pytest.mark.parametrize("idx", [30, 100])
    def test_ndpa_unconverged_level_refused(self, idx):
        with pytest.raises(NotConvergedError, match="cutoff doubling moved eigenvalues by"):
            nonrelativistic_limit_check(NondegenerateParametricAmplifier(1.0, 2.0), 0, idx, 1e6)

    @pytest.mark.parametrize("idx", [0, 1, 2])
    def test_zero_frequency_amplifier(self, idx):
        # every level of the limit Hamiltonian is 0, so the scale floor of
        # its certificate falls back to 1, as the case's mc² does: no 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = nonrelativistic_limit_check(NondegenerateParametricAmplifier(0.0, 0.0), 0, idx, 1e5)
        assert rep.eps_analytic == 0.0

    def test_scale_doubling_halves_error(self):
        e1 = nonrelativistic_limit_check(CoupledOscillators(1.0, 2.0), 2, 1, 2e4).rel_error
        e2 = nonrelativistic_limit_check(CoupledOscillators(1.0, 2.0), 2, 1, 4e4).rel_error
        assert e1 / e2 == pytest.approx(2.0, rel=0.02)

    def test_decay_exponent(self):
        slope = spectra.limit_decay_exponent(
            NondegenerateParametricAmplifier(1.0, 2.0), 0, 1, [1e4, 1e5, 1e6]
        )
        assert slope == pytest.approx(-1.0, abs=0.1)

    @staticmethod
    def _count_solves(monkeypatch):
        calls = []
        certified = spectra._certified_lowest
        monkeypatch.setattr(spectra, "_certified_lowest",
                            lambda *a, **k: calls.append(1) or certified(*a, **k))
        return calls

    @pytest.mark.parametrize("case", ["ndpa", "coupled-osc"])
    def test_limits_command_solves_the_level_once(self, monkeypatch, tmp_path, case):
        # the level does not depend on the scale: it is certified once a
        # call, by the path ``numeric_spectrum`` takes
        from twomode_jcx.cli import main

        calls = self._count_solves(monkeypatch)
        main(["limits", "--case", case, "--out", str(tmp_path / "limits.json")],
             standalone_mode=False)
        assert len(calls) == 1

    def test_decay_exponent_solves_the_level_once(self, monkeypatch):
        calls = self._count_solves(monkeypatch)
        spectra.limit_decay_exponent(NondegenerateParametricAmplifier(1.0, 2.0), 0, 1,
                                     [1e4, 1e5, 1e6])
        assert len(calls) == 1

    @pytest.mark.parametrize("case, charge", [(NondegenerateParametricAmplifier(1.0, 2.0), 0),
                                              (CoupledOscillators(1.0, 2.0), 2)])
    def test_first_order_decay_up_to_scale_1e12(self, case, charge):
        # E - mc² is formed as Lam/(E + mc²): no cancellation at large mc²
        scales = [1e2, 1e4, 1e6, 1e8, 1e10, 1e12]
        reports = spectra.nonrelativistic_limit_checks(case, charge, 1, scales)
        assert all(r.rel_error > 0 for r in reports)
        assert spectra.decay_exponent(reports) == pytest.approx(-1.0, abs=0.15)

    @pytest.mark.parametrize("case, charge", [(NondegenerateParametricAmplifier(1.0, 2.0), 0),
                                              (CoupledOscillators(1.0, 2.0), 2)])
    def test_checks_equal_one_call_per_scale(self, case, charge):
        scales = [1e4, 1e5, 1e6]
        assert spectra.nonrelativistic_limit_checks(case, charge, 1, scales) == [
            nonrelativistic_limit_check(case, charge, 1, s) for s in scales
        ]

    @pytest.mark.parametrize("scales", [[1e4, 1e4], [1e5], []])
    def test_decay_exponent_needs_two_distinct_scales(self, scales):
        with pytest.raises(ValueError, match="two distinct scales"):
            spectra.limit_decay_exponent(CoupledOscillators(1.0, 2.0), 2, 1, scales)

    @pytest.mark.parametrize("scale", [-1e4, 0.0, float("inf"), float("nan")])
    def test_scale_outside_domain_named(self, scale):
        with pytest.raises(ValueError, match=f"limit scale must be positive and finite, got {scale}"):
            nonrelativistic_limit_check(CoupledOscillators(1.0, 2.0), 2, 1, scale)

    def test_zero_frequencies(self):
        rep = nonrelativistic_limit_check(CoupledOscillators(0.0, 0.0), 2, 0, 1e5)
        assert rep.eps_model == pytest.approx(0.0, abs=1e-12)
        assert rep.eps_analytic == pytest.approx(0.0, abs=1e-12)
