import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode_jcx import spectra, tridiag
from twomode_jcx.errors import DegenerateCouplingError, DomainError, NotConvergedError
from twomode_jcx.fock import ChargeKind, build_basis, get_sector, sector_basis
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
        lvl = analytic_energy_su11(p, 0, 0, Branch.PLUS)
        assert lvl.energy == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert lvl.energy == pytest.approx(np.sqrt(numeric[0]), rel=1e-12)

    def test_degenerate_ray_collapses(self):
        p = ModelParams(g=1.3, f=1.3)
        for n_l in range(3):
            for m_n in range(3):
                assert su11_energy_sq(p, n_l, m_n) == pytest.approx(1.0)

    def test_general_value_example(self):
        # |g| > |f|: E^2 - 1 = 3 (1 + 3/2 + 1/2) + 3 = 12
        p = ModelParams(g=2.0, f=1.0)
        assert su11_energy_sq(p, 1, 3) == pytest.approx(13.0, abs=1e-13)
        assert analytic_energy_su11(p, 1, 3, Branch.MINUS).energy == pytest.approx(
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


class TestAnalyticSu2:
    def test_value_example(self):
        p = ModelParams(g=1.0, f=1.0)
        assert su2_energy_sq(p, 1, 2, 1) == pytest.approx(7.0)
        lvl = analytic_energy_su2(p, 1, 2, Branch.PLUS, 1)
        assert lvl.energy == pytest.approx(np.sqrt(7.0))

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
                    e = analytic_energy_su2(p, n_l, m_n, Branch.PLUS, -1).energy
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


def _full_interior_prefix(diag, off, count):
    """(boundary-free prefix, artifacts below its last pair) of the full
    eigendecomposition of the tridiagonal (diag, |off|)."""
    w, v = la.eigh_tridiagonal(diag, np.abs(off))
    keep = tridiag.boundary_free(v)
    last = int(np.flatnonzero(keep)[count - 1])
    return w[keep][:count], last + 1 - count, float(np.max(np.abs(w)))


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


class TestIncrementalInteriorSolve:
    """``tridiag.interior_eigenvalues`` solves indices in order, each at
    most once, and equals the boundary-free prefix of the full
    eigendecomposition."""

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("p", [ModelParams(g=0.5j, f=2.0), ModelParams(g=2.0, f=0.5 - 0.2j)],
                             ids=["f>g", "g>f"])
    def test_equals_full_solve_prefix(self, p, component):
        rejected_seen = set()
        for cutoff in (40, 120):
            for q in range(-3, 4):
                sec = sector_basis(cutoff, ChargeKind.DIFFERENCE_ND, q)
                diag, off = sector_tridiagonal(ModelKind.JC_AJC, component, p, sec)
                for count in (1, 3, 8):
                    vals, rejected = tridiag.interior_eigenvalues(diag, off, count)
                    ref, ref_rejected, norm = _full_interior_prefix(diag, off, count)
                    np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-13 * norm)
                    assert rejected == ref_rejected
                    rejected_seen.add(rejected)
        # The upper component at |f| > |g| (sectors N_d >= 0) and the lower
        # one at |g| > |f| (N_d <= 0) carry an artifact at index 0.
        pinned = (abs(p.f) > abs(p.g)) == (component is Component.UPPER)
        assert rejected_seen == ({0, 1} if pinned else {0})

    @pytest.mark.parametrize("count", range(1, 8))
    def test_equals_full_solve_prefix_with_several_pinned_pairs(self, count, pinned_tridiagonal):
        diag, off = pinned_tridiagonal
        vals, rejected = tridiag.interior_eigenvalues(diag, off, count)
        ref, ref_rejected, norm = _full_interior_prefix(diag, off, count)
        np.testing.assert_allclose(vals, ref, rtol=0, atol=1e-13 * norm)
        assert rejected == ref_rejected

    def test_growth_requests_only_the_shortfall(self, monkeypatch, pinned_tridiagonal):
        # Levels: 0 P, 10 I, 10.5 P, 11 I | 12 I, 12.5 P | 13 I (P pinned).
        calls = _record_solves(monkeypatch)
        vals, rejected = tridiag.interior_eigenvalues(*pinned_tridiagonal, 4)
        assert calls == [(40, (0, 3)), (40, (4, 5)), (40, (6, 6))]
        assert rejected == 3 and len(vals) == 4

    def test_first_sets_the_initial_window(self, monkeypatch, pinned_tridiagonal):
        calls = _record_solves(monkeypatch)
        tridiag.interior_eigenvalues(*pinned_tridiagonal, 4, first=7)
        assert calls == [(40, (0, 6))]

    def test_exhausted_sector_raises(self, pinned_tridiagonal):
        diag, off = pinned_tridiagonal
        with pytest.raises(NotConvergedError, match="only 37 interior-supported"):
            tridiag.interior_eigenvalues(diag, off, 38)

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("p", [ModelParams(g=1.0, f=2.0), ModelParams(g=2.0, f=1.0)],
                             ids=["f>g", "g>f"])
    def test_numeric_spectrum_solves_each_index_once(self, monkeypatch, p, component):
        cutoff, count = 120, 8
        for q in range(-3, 4):
            sec = sector_basis(cutoff, ChargeKind.DIFFERENCE_ND, q)
            doubled = sector_basis(2 * cutoff, ChargeKind.DIFFERENCE_ND, q)
            _, r, _ = _full_interior_prefix(
                *sector_tridiagonal(ModelKind.JC_AJC, component, p, sec), count)
            _, r2, _ = _full_interior_prefix(
                *sector_tridiagonal(ModelKind.JC_AJC, component, p, doubled), count)
            calls = _record_solves(monkeypatch)
            numeric_spectrum(ModelKind.JC_AJC, component, p, sec, count)
            monkeypatch.undo()
            for dim, needed in ((sec.dim, count + r), (doubled.dim, count + max(r, r2))):
                ranges = [rng for d, rng in calls if d == dim]
                indices = [i for lo, hi in ranges for i in range(lo, hi + 1)]
                assert indices == list(range(needed)), (q, dim, ranges)
            assert {d for d, _ in calls} == {sec.dim, doubled.dim}

    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("n_s, count", [(6, 7), (20, 3), (30, 31), (40, 5)])
    def test_exact_su2_sector_is_one_solve(self, monkeypatch, n_s, count, component):
        # Below, at and above the cutoff 20: one eigenvalue-only solve of the
        # N_s + 1 states, never the interior solve or cutoff doubling.
        calls = _record_solves(monkeypatch)
        monkeypatch.setattr(tridiag, "interior_eigenvalues", None)
        sec = sector_basis(20, ChargeKind.SUM_NS, n_s)
        vals = numeric_spectrum(ModelKind.JC_JC, component, ModelParams(g=1.0, f=2.0), sec, count)
        assert calls == [(n_s + 1, (0, count - 1))]
        assert len(vals) == count

    def test_su2_count_beyond_the_irrep_raises(self):
        sec = sector_basis(20, ChargeKind.SUM_NS, 30)
        with pytest.raises(ValueError, match="requested 32 levels from a dim-31 sector"):
            numeric_spectrum(ModelKind.JC_JC, Component.UPPER, ModelParams(g=1.0, f=2.0), sec, 32)


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
        lvl = ndpa_energy(1.0, 2.0, 0, 1)
        assert lvl.energy == pytest.approx(np.sqrt(3.0), abs=1e-14)
        p, _ = special_case_params(NondegenerateParametricAmplifier(1.0, 2.0))
        for n_l in range(4):
            for m in range(4):
                assert ndpa_energy(1.0, 2.0, n_l, m).energy_sq == pytest.approx(
                    su11_energy_sq(p, n_l, m), rel=1e-13
                )

    def test_ndpa_degenerate_frequencies(self):
        for n_l in range(3):
            for m in range(3):
                assert ndpa_energy(1.5, 1.5, n_l, m).energy == pytest.approx(1.0)

    def test_ndpa_matches_numeric(self):
        p, kind = special_case_params(NondegenerateParametricAmplifier(1.0, 2.0, 0.3))
        basis = build_basis(140)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, 0)
        numeric = numeric_spectrum(kind, Component.UPPER, p, sec, 5)
        analytic = [ndpa_energy(1.0, 2.0, n, 0).energy_sq for n in range(5)]
        np.testing.assert_allclose(numeric, analytic, rtol=1e-8)

    def test_coupled_osc_consistency(self):
        p, _ = special_case_params(CoupledOscillators(1.0, 2.0))
        for j2 in range(0, 7):
            for mu2 in range(-j2, j2 + 1, 2):
                lvl = coupled_osc_energy(1.0, 2.0, j2 / 2, mu2 / 2)
                ref = su2_energy_sq(
                    p, (j2 - abs(mu2)) // 2, abs(mu2), 1 if mu2 >= 0 else -1
                )
                assert lvl.energy_sq == pytest.approx(ref, rel=1e-13)

    def test_coupled_osc_ground(self):
        assert coupled_osc_energy(1.0, 2.0, 0.0, 0.0).energy == pytest.approx(1.0)
        assert coupled_osc_energy(1.0, 2.0, 0.0, 0.0, Branch.MINUS).energy == pytest.approx(-1.0)

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

    def test_scale_doubling_halves_error(self):
        e1 = nonrelativistic_limit_check(CoupledOscillators(1.0, 2.0), 2, 1, 2e4).rel_error
        e2 = nonrelativistic_limit_check(CoupledOscillators(1.0, 2.0), 2, 1, 4e4).rel_error
        assert e1 / e2 == pytest.approx(2.0, rel=0.02)

    def test_decay_exponent(self):
        slope = spectra.limit_decay_exponent(
            NondegenerateParametricAmplifier(1.0, 2.0), 0, 1, [1e4, 1e5, 1e6]
        )
        assert slope == pytest.approx(-1.0, abs=0.1)

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
