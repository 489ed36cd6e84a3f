import cmath
import math
import warnings

import numpy as np
import pytest
import scipy.linalg as la
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twomode_jcx import displace, tridiag
from twomode_jcx.displace import (
    NCS_LADDER_TOL,
    TiltingParams,
    displacement_direct,
    displacement_normal,
    ncs_from_displacement,
    similarity_coefficients,
    su2_ncs_coefficients,
    su11_ncs_coefficients,
    verify_similarity,
    zeta_to_xi,
)
from twomode_jcx.errors import ConvergenceError, TailError
from twomode_jcx.fock import ChargeKind, build_basis, get_sector, sector_basis, sector_charges, su2_irrep
from twomode_jcx.liealg import AlgebraKind, sector_generators

from test_spectra import _log_lapack


@pytest.fixture(scope="module")
def basis16():
    return build_basis(16)


class TestTiltingParams:
    def test_zeta_eta_su11(self):
        tp = TiltingParams(AlgebraKind.SU11, theta=0.8, phi=0.3)
        assert abs(tp.zeta) == pytest.approx(np.tanh(0.4))
        assert tp.eta == pytest.approx(np.log(1 - np.tanh(0.4) ** 2))
        # eta = -2 ln cosh|xi|
        assert tp.eta == pytest.approx(-2 * np.log(np.cosh(0.4)))

    def test_zeta_eta_su2(self):
        tp = TiltingParams(AlgebraKind.SU2, theta=0.8, phi=0.3)
        assert abs(tp.zeta) == pytest.approx(np.tan(0.4))
        # eta = -2 ln cos|xi| = +ln(1 + |zeta|^2)
        assert tp.eta == pytest.approx(np.log(1 + np.tan(0.4) ** 2))
        assert tp.eta == pytest.approx(-2 * np.log(np.cos(0.4)))

    def test_from_xi_roundtrip(self):
        xi = 0.37 * np.exp(1.1j)
        tp = TiltingParams.from_xi(AlgebraKind.SU11, xi)
        assert tp.xi == pytest.approx(xi)


class TestDisplacementDirect:
    def test_xi_zero_identity(self, basis16):
        sec = get_sector(basis16, ChargeKind.SUM_NS, 3)
        d = displacement_direct(0.0, sec)
        np.testing.assert_array_equal(d, np.eye(4))

    def test_su2_two_dim_real_rotation(self, basis16):
        # phi = pi makes xi = +theta/2 real; the N_s = 1 sector is the
        # fundamental representation and D is a plane rotation
        theta = 0.9
        tp = TiltingParams(AlgebraKind.SU2, theta=theta, phi=np.pi)
        sec = get_sector(basis16, ChargeKind.SUM_NS, 1)
        d = displacement_direct(tp.xi, sec)
        assert np.max(np.abs(d.imag)) <= 1e-14
        assert np.max(np.abs(d @ d.conj().T - np.eye(2))) <= 1e-14
        assert d[0, 0].real == pytest.approx(np.cos(theta / 2), abs=1e-12)

    def test_su11_unitary_on_low_states(self, basis100):
        sec = get_sector(basis100, ChargeKind.DIFFERENCE_ND, 0)
        d = displacement_direct(0.3, sec)
        dev = d.conj().T @ d - np.eye(sec.dim)
        assert np.max(np.abs(dev[:10, :10])) <= 1e-10

    def test_group_property(self, basis16):
        sec = get_sector(basis16, ChargeKind.SUM_NS, 5)
        xi = 0.4 * np.exp(0.9j)
        d1 = displacement_direct(xi, sec)
        d2 = displacement_direct(-xi, sec)
        assert np.max(np.abs(d1 @ d2 - np.eye(sec.dim))) <= 1e-12


class TestDisplacementColumns:
    """D[:, columns] formed from the cached xi-free eigenbasis, not from D."""

    @pytest.mark.parametrize("cutoff", range(25))
    @pytest.mark.parametrize("charge_kind", list(ChargeKind))
    def test_columns_equal_full_unitary_and_expm(self, cutoff, charge_kind):
        for q in sector_charges(cutoff, charge_kind):
            sec = sector_basis(cutoff, charge_kind, q)
            dim = sec.dim
            _, sub = sector_generators(sec)
            gp = np.diag(sub, -1)
            for xi in (0.0, (0.2 + 0.1 * (q % 5)) * np.exp(1j * (0.4 + 1.3 * q))):
                full = displacement_direct(xi, sec)
                ref = la.expm(xi * gp - np.conj(xi) * gp.T)
                for columns in (q % dim, slice(dim // 2, None), slice(None, None, 2),
                                np.array([dim - 1, 0]), [dim - 1]):
                    got = displacement_direct(xi, sec, columns)
                    assert got.shape == full[:, columns].shape
                    assert np.max(np.abs(got - full[:, columns])) <= 1e-12
                    assert np.max(np.abs(got - ref[:, columns])) <= 1e-12

    def test_eigenbasis_cached_read_only(self):
        sec = sector_basis(12, ChargeKind.DIFFERENCE_ND, 1)
        key = (sec.parent_cutoff, sec.charge_kind, sec.charge_value)
        displace._generator_eigenbasis.cache_clear()
        first = displace._generator_eigenbasis(*key)
        displacement_direct(0.3j, sec)
        displacement_direct(0.5, sec, 2)
        again = displace._generator_eigenbasis(*key)
        assert all(a is b for a, b in zip(first, again))
        assert not any(arr.flags.writeable for arr in first)
        info = displace._generator_eigenbasis.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    @pytest.mark.parametrize("columns", [slice(None), 3])
    def test_corrupted_eigenbasis_raises(self, monkeypatch, columns):
        sec = sector_basis(12, ChargeKind.SUM_NS, 7)
        w, v = displace._generator_eigenbasis(sec.parent_cutoff, sec.charge_kind, sec.charge_value)
        skewed = v.copy()
        skewed[:, 0] *= 1.0 + 1e-6
        monkeypatch.setattr(displace, "_generator_eigenbasis", lambda *key: (w, skewed))
        with pytest.raises(ConvergenceError, match="lost unitarity"):
            displacement_direct(0.4, sec, columns)

    def test_eigenbasis_checked_when_solved(self, monkeypatch):
        solve = tridiag.eigh

        def skewed(d, e):
            w, v = solve(d, e)
            return w, v * (1.0 + 1e-6)

        displace._generator_eigenbasis.cache_clear()
        monkeypatch.setattr(tridiag, "eigh", skewed)
        with pytest.raises(ConvergenceError, match="not orthonormal"):
            displace._generator_eigenbasis(12, ChargeKind.SUM_NS, 7)
        assert displace._generator_eigenbasis.cache_info().currsize == 0


class TestDisplacementNormal:
    def test_trivial_params_identity(self, basis16):
        tp = TiltingParams(AlgebraKind.SU2, theta=0.0, phi=0.0)
        sec = get_sector(basis16, ChargeKind.SUM_NS, 4)
        d = displacement_normal(tp, sec)
        np.testing.assert_allclose(d, np.eye(5), atol=1e-15)

    @pytest.mark.parametrize("n_s", [1, 4, 9])
    def test_su2_normal_equals_direct(self, basis16, n_s):
        tp = TiltingParams.from_xi(AlgebraKind.SU2, 0.35 * np.exp(-0.4j))
        sec = get_sector(basis16, ChargeKind.SUM_NS, n_s)
        dn = displacement_normal(tp, sec)
        dd = displacement_direct(tp.xi, sec)
        assert np.max(np.abs(dn - dd)) <= 1e-12

    def test_su11_normal_equals_direct_low_block(self):
        basis = build_basis(150)
        tp = TiltingParams.from_xi(AlgebraKind.SU11, 0.4)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, 0)
        dn = displacement_normal(tp, sec)
        dd = displacement_direct(tp.xi, sec)
        assert np.max(np.abs((dn - dd)[:15, :15])) <= 1e-8

    @pytest.mark.parametrize("xi", [-0.4, 0.3 + 0.2j, 1.1j])
    @pytest.mark.parametrize("charge", [-3, 0, 4])
    def test_su11_leading_block_is_the_normal_form_on_the_first_states(self, xi, charge):
        # exp(zeta G+) is lower and exp(-zeta* G-) upper triangular, so the
        # leading k x k block of their product involves the first k states
        # alone; the two products differ only in the rounding of their sums
        tp = TiltingParams.from_xi(AlgebraKind.SU11, xi)
        full = displacement_normal(tp, sector_basis(60, ChargeKind.DIFFERENCE_ND, charge))
        for k in (1, 2, 15):
            first = sector_basis(k - 1 + abs(charge), ChargeKind.DIFFERENCE_ND, charge)
            block = displacement_normal(tp, first)
            assert block.shape == (k, k)
            np.testing.assert_allclose(block, full[:k, :k], rtol=0, atol=1e-11)


class TestSimilarityCoefficients:
    def test_xi_zero_identity_coeffs(self):
        c = similarity_coefficients(AlgebraKind.SU11, 0.0)
        assert c.zero == (1.0, 0.0, 0.0)
        assert c.plus == (0.0, 1.0, 0.0)

    def test_su11_real_half(self):
        # xi = 0.5: c0 of G0 row is cosh(1), c+ is sinh(1)/2
        c = similarity_coefficients(AlgebraKind.SU11, 0.5)
        assert c.zero[0] == pytest.approx(np.cosh(1.0))
        assert complex(c.zero[1]) == pytest.approx(np.sinh(1.0) / 2)

    def test_su2_real_half(self):
        c = similarity_coefficients(AlgebraKind.SU2, 0.5)
        assert c.zero[0] == pytest.approx(np.cos(1.0))

    def test_su2_residuals_exact_sector(self, basis16):
        sec = get_sector(basis16, ChargeKind.SUM_NS, 6)
        rep = verify_similarity(0.3 * np.exp(0.7j), sec)
        assert rep.max_residual <= 1e-10

    def test_su11_residuals_low_block(self):
        basis = build_basis(120)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, 1)
        rep = verify_similarity(0.2 * np.exp(0.3j), sec, keep=12)
        assert rep.max_residual <= 1e-8

    def test_xi_zero_zero_residual(self, basis16):
        sec = get_sector(basis16, ChargeKind.SUM_NS, 4)
        rep = verify_similarity(0.0, sec)
        assert rep.max_residual <= 1e-14


BARGMANN_K = st.one_of(st.integers(1, 40).map(lambda t: t / 2), st.floats(0.5, 20.0))


class TestSu11Ncs:
    def test_zeta_zero_unit_vector(self):
        c = su11_ncs_coefficients(1.5, 3, 0.0)
        target = np.zeros(4)
        target[3] = 1.0
        np.testing.assert_array_equal(c.coeffs, target)

    @pytest.mark.parametrize("k,zeta", [(0.5, 0.4), (1.0, 0.3j), (2.5, -0.25 + 0.3j)])
    def test_lowest_weight_matches_closed_form(self, k, zeta):
        # n = 0 is the plain group coherent state:
        # c_m = (1-|z|^2)^k sqrt(G(m+2k)/(m! G(2k))) z^m
        from scipy.special import gammaln

        c = su11_ncs_coefficients(k, 0, zeta)
        m = np.arange(len(c.coeffs))
        log_mag = 0.5 * (gammaln(m + 2 * k) - gammaln(m + 1) - gammaln(2 * k))
        expected = (1 - abs(zeta) ** 2) ** k * np.exp(log_mag) * zeta**m
        np.testing.assert_allclose(c.coeffs, expected, atol=1e-14)

    def test_normalization(self):
        for zeta in (0.5, 0.45j, -0.3 + 0.25j):
            c = su11_ncs_coefficients(1.0, 2, zeta)
            assert abs(c.norm_sq - 1.0) <= 1e-10

    def test_matches_displacement_column(self, basis100):
        zeta = 0.4j
        c = su11_ncs_coefficients(0.5, 2, zeta)
        sec = get_sector(basis100, ChargeKind.DIFFERENCE_ND, 0)
        col = ncs_from_displacement(zeta_to_xi(AlgebraKind.SU11, zeta), sec, 2)
        m = min(len(c.coeffs), len(col))
        assert np.max(np.abs(c.coeffs[:m] - col[:m])) <= 1e-8

    def test_series_trimmed_at_tail_mass(self, basis100):
        # The trim drops a tail of mass below 1e-24 and keeps the rest.
        zeta = 0.45j
        size = len(su11_ncs_coefficients(1.0, 2, zeta).coeffs)
        sec = get_sector(basis100, ChargeKind.DIFFERENCE_ND, 1)
        col = ncs_from_displacement(zeta_to_xi(AlgebraKind.SU11, zeta), sec, 2)
        assert np.sum(np.abs(col[size:]) ** 2) < 1e-24 <= np.sum(np.abs(col[size - 1 :]) ** 2)

    def test_tail_error_when_capped(self):
        with pytest.raises(TailError, match="reaches index 62 above max_index=5"):
            su11_ncs_coefficients(0.5, 1, 0.6, max_index=5)

    def test_tail_error_names_a_ladder_with_no_state_free_of_the_cut(self):
        # n + 1 > MAX_LADDER_LENGTH / 2: the first ladder is already at the
        # cap, and it pushes level n out of its window, so no doubling change
        # was ever measured; the message must not report one.
        with pytest.raises(TailError, match="no level in the window") as err:
            su11_ncs_coefficients(0.5, 100_000, 0.99)
        assert "doubling change" not in str(err.value)

    def test_tail_error_names_a_first_ladder_at_the_cap(self):
        # the first ladder is already at the cap; its own tail residual
        # certifies it, with no shorter ladder to compare
        c = su11_ncs_coefficients(0.5, 70_000, 0.01)
        assert c.coeffs.size == 71_513
        assert abs(c.norm_sq - 1.0) <= 1e-10

    @pytest.mark.parametrize("n, max_index", [(10, 5), (1, 0), (0, -1)])
    def test_max_index_below_n_refused_by_name(self, n, max_index):
        with pytest.raises(ValueError, match=f"max_index = {max_index} is below n = {n}"):
            su11_ncs_coefficients(0.5, n, 0.3, max_index=max_index)

    def test_tail_error_reports_the_last_doubling_change(self):
        # |zeta| = 0.9999: the state's tail outlasts MAX_LADDER_LENGTH states
        with pytest.raises(TailError, match=r"tail residual \d\.\de[-+]\d+ > 5e-13"):
            su11_ncs_coefficients(0.5, 1, 0.9999, max_index=200)

    @settings(max_examples=200, deadline=None)
    @given(k=BARGMANN_K, n=st.integers(0, 200), z=st.floats(0.0, 0.95),
           phase=st.floats(0.0, 2 * np.pi),
           extra=st.one_of(st.integers(0, 400), st.integers(0, 99_800)))
    @example(k=0.5, n=1, z=0.01, phase=0.0, extra=14)
    def test_max_index_bounds_the_state_not_the_ladder(self, k, n, z, phase, extra):
        # any max_index >= n (up to the default) either refuses a state that
        # reaches past it or returns the default's bits
        zeta = z * cmath.exp(1j * phase)
        want = _coeffs_or_error(k, n, zeta)
        got = _coeffs_or_error(k, n, zeta, max_index=n + extra)
        if isinstance(want, type):
            assert got is want
        elif got is TailError:
            assert want.size > n + extra + 1
        else:
            assert not isinstance(got, type), got
            assert got.shape == want.shape and np.array_equal(got, want)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(k=st.floats(0.0, 20.0, exclude_min=True), n=st.integers(0, 300),
           z=st.floats(0.0, 0.95), phase=st.floats(0.0, 2 * np.pi))
    def test_certified_state_agrees_with_a_ladder_four_times_as_long(self, k, n, z, phase):
        # the tail residual bounds the truncation error of the accepted
        # ladder's state; a ladder four times as long cuts far less
        zeta = z * cmath.exp(1j * phase)
        solve, lengths = displace._tilted_state, []

        def logged(algebra, lowest, n_, zeta_, length):
            lengths.append(length)
            return solve(algebra, lowest, n_, zeta_, length)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(displace, "_tilted_state", logged)
            got = su11_ncs_coefficients(k, n, zeta).coeffs
        longer, _ = solve(AlgebraKind.SU11, k, n, zeta, 4 * (lengths[-1] if lengths else n + 1))
        assert np.max(np.abs(got - longer[: got.size])) <= NCS_LADDER_TOL

    def test_invalid_zeta(self):
        with pytest.raises(ValueError):
            su11_ncs_coefficients(0.5, 0, 1.2)

    @pytest.mark.parametrize("k", [0.0, -0.5])
    def test_nonpositive_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be positive"):
            su11_ncs_coefficients(k, 0, 0.3)

    @pytest.mark.parametrize("k, zeta, match", [
        (float("inf"), 0.3, "k must be positive and finite"),
        (float("nan"), 0.3, "k must be positive and finite"),
        (0.5, complex(float("nan"), 0.0), r"\|zeta\| < 1"),
    ])
    def test_non_finite_inputs_rejected_up_front(self, k, zeta, match):
        with pytest.raises(ValueError, match=match):
            su11_ncs_coefficients(k, 0, zeta)


def _boundary_mass_pick(algebra, k, n, zeta, length):
    """The earlier su(1,1) pick of ``displace._tilted_state``: drop each level
    of the window k + n ± 1/2 with more than 1e-8 of its mass in the top 3
    rows of the cut ladder, then take the level nearest k + n; with its
    tail residual, as ``_tilted_state`` returns it."""
    assert algebra is AlgebraKind.SU11
    z = abs(zeta)
    den = 1.0 - z * z
    m = np.arange(length + 1, dtype=float)
    off = (z / den) * np.sqrt(m[1:] * (m[:-1] + 2 * k))
    m = m[:-1]
    diag = ((1.0 + z * z) / den) * (k + m)
    target = k + n
    w, v = la.eigh_tridiagonal(diag, off[:-1], select="v", select_range=(target - 0.5, target + 0.5))
    margin = min(3, max(1, length - 1))
    keep = np.sum(v[-margin:, :] ** 2, axis=0) <= 1e-8
    w, v = w[keep], v[:, keep]
    if not w.size:
        return None, np.inf
    i = int(np.argmin(np.abs(w - target)))
    vec = v[:, i]
    p = int(np.argmax(np.abs(vec)))
    sign = np.sign(vec[p]) * displace._det_sign(w[i], diag, off, p)
    return sign * np.exp(1j * cmath.phase(-zeta) * (m - n)) * vec, abs(off[-1] * vec[-1])


def _coeffs_or_error(k, n, zeta, **kwargs):
    try:
        return su11_ncs_coefficients(k, n, zeta, **kwargs).coeffs
    except Exception as exc:  # compared by class with the other pick's
        return type(exc)


class TestOneInverseIteration:
    """Each ladder is one ``dstein`` call at its known level lowest + n,
    with nothing bisected; the vector is kept only when its Rayleigh
    quotient lies within 1/2 of that level, and a LAPACK failure is a
    ConvergenceError."""

    def test_ncs_coefficients_make_no_dstebz_call(self, monkeypatch):
        log = _log_lapack(monkeypatch)
        solve, lengths = displace._tilted_state, []

        def logged(algebra, lowest, n, zeta, length):
            lengths.append(length)
            return solve(algebra, lowest, n, zeta, length)

        monkeypatch.setattr(displace, "_tilted_state", logged)
        for k, n, zeta in [(0.5, 0, 0.3), (1.5, 3, 0.5 - 0.2j), (3.0, 40, cmath.rect(0.9, 0.7))]:
            log.clear()
            lengths.clear()
            su11_ncs_coefficients(k, n, zeta)
            assert [name for name, _ in log] == ["dstein"] * len(lengths), (k, n, zeta)
        assert len(lengths) > 1  # the last state doubled its ladder
        for j2, mu2, zeta in [(4, 0, 0.5), (48, -6, 1.2j), (399, 1, 0.7)]:
            log.clear()
            su2_ncs_coefficients(j2 / 2, mu2 / 2, zeta)
            assert [name for name, _ in log] == ["dstein"], (j2, mu2, zeta)

    def test_dstein_failure_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(tridiag, "dstein", lambda d, e, w, *blocks: (np.zeros((d.size, w.size)), 1))
        with pytest.raises(ConvergenceError, match=r"dstein did not converge \(info=1\)"):
            su11_ncs_coefficients(0.5, 2, 0.3)
        with pytest.raises(ConvergenceError, match=r"dstein did not converge \(info=1\)"):
            su2_ncs_coefficients(2.0, 0.0, 0.5)

    def test_a_neighbouring_level_is_never_kept(self, monkeypatch):
        # inverse iteration one level up finds level n + 1, whose tail
        # residual is at roundoff: only its Rayleigh quotient refuses it
        solve = tridiag._inverse_iteration
        monkeypatch.setattr(tridiag, "_inverse_iteration", lambda d, e, w, *error: solve(d, e, w + 1.0, *error))
        assert displace._tilted_state(AlgebraKind.SU11, 0.5, 2, 0.3, 64) == (None, math.inf)
        with pytest.raises(TailError, match=r"no level in the window around k \+ n"):
            su11_ncs_coefficients(0.5, 2, 0.3)
        with pytest.raises(ConvergenceError, match="missed the level mu = 0.0"):
            su2_ncs_coefficients(2.0, 0.0, 0.5)

    @pytest.mark.parametrize("z", [1e-150, 5.8e-296, 1e-301, 1e-304])
    def test_couplings_dstebz_would_split_at_are_dropped(self, z):
        # kept, such couplings cost dstein's pivots the vector at the level:
        # errors up to 0.15 (su(2)) and spurious tails past 1e-12 (su(1,1))
        for j2, mu2 in [(4, 0), (25, 19), (39, 27)]:
            want = np.zeros(j2 + 1)
            want[(j2 + mu2) // 2] = 1.0
            c = su2_ncs_coefficients(j2 / 2, mu2 / 2, z).coeffs
            assert np.max(np.abs(c - want)) <= 1e-15, (j2, mu2)
        for k, n in [(0.5, 2), (1.0, 17), (20.0, 34)]:
            c = su11_ncs_coefficients(k, n, z).coeffs
            assert c.size == n + 1 and np.max(np.abs(c - np.eye(n + 1)[n])) <= 1e-15, (k, n)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(k=BARGMANN_K, n=st.integers(0, 60), z=st.floats(0.01, 0.97),
           phase=st.floats(0.0, 2 * np.pi), length=st.integers(1, 80))
    @example(k=0.5, n=4, z=0.79, phase=0.0, length=2)
    def test_kept_vectors_lie_within_half_of_the_level(self, k, n, z, phase, length):
        # on a short ladder the level nearest k + n is often another one
        zeta = z * cmath.exp(1j * phase)
        state, resid = displace._tilted_state(AlgebraKind.SU11, k, n, zeta, length)
        if state is None:
            assert resid == math.inf
            return
        m = np.arange(length)
        vec = (state * np.exp(-1j * cmath.phase(-zeta) * (m - n))).real
        den = 1.0 - z * z
        diag = ((1.0 + z * z) / den) * (k + m)
        off = (z / den) * np.sqrt(m[1:] * (m[:-1] + 2 * k))
        assert abs(vec @ (diag * vec) + 2 * (off * vec[:-1]) @ vec[1:] - (k + n)) < 0.5


class TestTopOfWindow:
    """The vector found at k + n is that of the level the boundary-mass
    filter picked in the window k + n ± 1/2: the same coefficient count and
    refusal, every coefficient within NCS_LADDER_TOL."""

    @settings(max_examples=200, deadline=None)
    @given(k=BARGMANN_K, n=st.integers(0, 200), z=st.floats(0.05, 0.95),
           phase=st.floats(0.0, 2 * np.pi))
    @example(k=0.5, n=200, z=0.95, phase=0.0)
    @example(k=20.0, n=200, z=0.95, phase=2.0)
    def test_equals_the_boundary_mass_pick(self, k, n, z, phase):
        zeta = z * cmath.exp(1j * phase)
        got = _coeffs_or_error(k, n, zeta)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(displace, "_tilted_state", _boundary_mass_pick)
            want = _coeffs_or_error(k, n, zeta)
        if isinstance(want, type):
            assert got is want
        else:
            assert not isinstance(got, type), got
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= NCS_LADDER_TOL

    @settings(max_examples=200, deadline=None)
    @given(k=BARGMANN_K, z=st.floats(0.0, 0.999), length=st.integers(1, 400))
    def test_cut_ladder_levels_sit_above_the_infinite_ladders(self, k, z, length):
        # the tilted generator D K0 D† on the first ``length`` ladder states
        # is a leading block of the infinite one, whose level j is k + j
        den = 1.0 - z * z
        m = np.arange(length, dtype=float)
        diag = ((1.0 + z * z) / den) * (k + m)
        off = (z / den) * np.sqrt(m[1:] * (m[:-1] + 2 * k))
        w = tridiag.eigh(diag, off, eigvals_only=True, select="i", select_range=(0, length - 1))
        norm = tridiag.ladder(diag, off)[2]
        assert np.all(w >= k + m - 4 * np.finfo(float).eps * norm)


class TestSu2Ncs:
    def test_zeta_zero_unit_vector(self):
        c = su2_ncs_coefficients(2.0, 1.0, 0.0)
        target = np.zeros(5)
        target[3] = 1.0  # index j + mu
        np.testing.assert_array_equal(c.coeffs, target)

    @pytest.mark.parametrize("j", [0.5, 1.0, 2.5])
    def test_lowest_weight_matches_closed_form(self, j):
        # mu = -j reduces to the spin coherent state
        from scipy.special import gammaln

        zeta = 0.7 * np.exp(0.4j)
        c = su2_ncs_coefficients(j, -j, zeta)
        p = np.arange(len(c.coeffs))  # p = j + mu'
        log_mag = 0.5 * (
            gammaln(2 * j + 1) - gammaln(p + 1) - gammaln(2 * j - p + 1)
        )
        expected = (1 + abs(zeta) ** 2) ** (-j) * np.exp(log_mag) * zeta**p
        np.testing.assert_allclose(c.coeffs, expected, atol=1e-13)

    def test_matches_displacement_column_exactly(self, basis16):
        zeta = 0.3 - 0.2j
        c = su2_ncs_coefficients(2.0, 0.0, zeta)
        sec = get_sector(basis16, ChargeKind.SUM_NS, 4)
        col = ncs_from_displacement(zeta_to_xi(AlgebraKind.SU2, zeta), sec, 2)
        assert np.max(np.abs(c.coeffs - col)) <= 1e-10

    @pytest.mark.parametrize("j2, mu2", [(9, 3), (9, 5), (12, -6)])
    def test_zero_pivot_of_the_sign_recurrence(self, j2, mu2):
        # At |zeta| = 1 - eps a pivot of the LDLᵀ sign recurrence is zero;
        # it is taken as -pivmin, and the next b²/q stays finite.
        zeta = -0.9999999999999999
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = su2_ncs_coefficients(j2 / 2, mu2 / 2, zeta)
        col = ncs_from_displacement(zeta_to_xi(AlgebraKind.SU2, zeta), su2_irrep(j2), (j2 + mu2) // 2)
        assert np.max(np.abs(c.coeffs - col)) <= 1e-10

    def test_normalization(self):
        for zeta in (0.9, 1.7j, -0.4 + 1.1j):
            c = su2_ncs_coefficients(1.5, 0.5, zeta)
            assert abs(c.norm_sq - 1.0) <= 1e-10

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            su2_ncs_coefficients(1.0, 0.3, 0.2)
        with pytest.raises(ValueError):
            su2_ncs_coefficients(1.0, -2.0, 0.2)
        with pytest.raises(ValueError, match="finite"):
            su2_ncs_coefficients(1.0, 0.0, complex(float("nan"), 0.0))


class TestRandomizedUnitarity:
    def test_su2_columns_normalized(self, rng):
        for _ in range(10):
            j2 = rng.integers(1, 9)
            zeta = rng.uniform(0.1, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            mu2 = rng.integers(-j2, j2 + 1)
            if (j2 - mu2) % 2 or (j2 + mu2) % 2:
                mu2 = -j2 + 2 * ((mu2 + j2) // 2)
            c = su2_ncs_coefficients(j2 / 2, mu2 / 2, zeta)
            assert abs(c.norm_sq - 1.0) <= 1e-10
