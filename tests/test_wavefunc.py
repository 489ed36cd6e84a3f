import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln, roots_genlaguerre

from twomode_jcx import wavefunc
from twomode_jcx.displace import su11_ncs_coefficients
from twomode_jcx.errors import QuadratureError, SingularParameterError
from twomode_jcx.wavefunc import (
    ClosedFormParams,
    closed_form_comparison,
    laguerre,
    ncs_wavefunction_closed,
    ncs_wavefunction_series,
    oscillator_wavefunction,
    quadrature_inner_product,
)


def reference_wavefunction(n, m, rho, phi):
    """psi_{n,m} from scipy's Laguerre polynomials, independent of wavefunc."""
    log_norm = 0.5 * (gammaln(n + 1) - gammaln(n + m + 1))
    return (
        (-1) ** n * np.exp(log_norm) / np.sqrt(np.pi)
        * rho**m * eval_genlaguerre(n, m, rho**2) * np.exp(-0.5 * rho**2)
        * np.exp(1j * m * phi)
    )


class TestLaguerre:
    def test_order_zero(self):
        assert laguerre(0, 2.3, 1.7) == 1.0

    def test_order_one(self):
        assert laguerre(1, 2.5, 0.4) == pytest.approx(1 + 2.5 - 0.4)

    def test_explicit_second_order(self):
        # oracle: L_2^0(x) = (x^2 - 4x + 2)/2 evaluated at x = 2
        assert laguerre(2, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_vectorized(self):
        x = np.linspace(0, 5, 7)
        vals = laguerre(2, 1.0, x)
        expected = (x**2 - 6 * x + 6) / 2.0  # L_2^1
        np.testing.assert_allclose(vals, expected, atol=1e-13)

    def test_recurrence_consistency_randomized(self, rng):
        # (n+1) L_{n+1} = (2n+1+a-x) L_n - (n+a) L_{n-1}
        for _ in range(200):
            n = int(rng.integers(1, 30))
            alpha = rng.uniform(0, 10)
            x = rng.uniform(0, 50)
            lhs = (n + 1) * laguerre(n + 1, alpha, x)
            rhs = (2 * n + 1 + alpha - x) * laguerre(n, alpha, x) - (n + alpha) * laguerre(
                n - 1, alpha, x
            )
            scale = max(1.0, abs(lhs))
            assert abs(lhs - rhs) / scale <= 1e-12

    def test_complex_argument(self):
        z = 0.3 + 0.4j
        val = laguerre(2, 1.0, z)
        expected = (z**2 - 6 * z + 6) / 2.0
        assert val == pytest.approx(expected)


class TestOscillatorWavefunction:
    def test_origin_value(self):
        # normalized ground state at the origin: 1/sqrt(pi)
        val = oscillator_wavefunction(0, 0, 0.0, 0.0)
        assert val == pytest.approx(1 / np.sqrt(np.pi), abs=1e-12)

    @pytest.mark.parametrize("n_l,m_n", [(0, 0), (1, 1), (2, 3), (4, 4)])
    def test_orthonormality(self, n_l, m_n):
        e_n = np.eye(1, n_l + 1, n_l)[0]
        res = quadrature_inner_product(e_n, e_n, m_n)
        assert abs(res.value - 1.0) <= 1e-9

    def test_orthogonality_same_m(self):
        assert abs(quadrature_inner_product([1.0], [0.0, 1.0], 1).value) <= 1e-10

    def test_pairwise_orthonormal_grid(self, polar_inner_product):
        # a pair of one m by wavefunc's radial rule; a pair of two m, whose
        # phases make it vanish, on scipy's polar grid
        states = [(n, m) for n in range(3) for m in range(3)]
        for i, (n1, m1) in enumerate(states):
            for n2, m2 in states[i:]:
                if m1 == m2:
                    a, b = np.eye(1, n1 + 1, n1)[0], np.eye(1, n2 + 1, n2)[0]
                    val = quadrature_inner_product(a, b, m1).value
                else:
                    val = polar_inner_product(
                        lambda r, p, n=n1, m=m1: oscillator_wavefunction(n, m, r, p),
                        lambda r, p, n=n2, m=m2: oscillator_wavefunction(n, m, r, p),
                    )
                expected = 1.0 if (n1, m1) == (n2, m2) else 0.0
                assert abs(val - expected) <= 1e-9

    def test_large_quantum_numbers_finite(self):
        # log-domain prefactors keep n ~ 90 from overflowing
        val = oscillator_wavefunction(90, 40, 2.0, 0.1)
        assert np.isfinite(val.real) and np.isfinite(val.imag)

    def test_matches_scipy_reference(self):
        rho = np.linspace(0.0, 12.0, 241)
        phi = np.linspace(0.0, 2 * np.pi, 241)
        for n in range(31):
            for m in range(31):
                want = reference_wavefunction(n, m, rho, phi)
                have = oscillator_wavefunction(n, m, rho, phi)
                assert np.max(np.abs(have - want)) <= 1e-12 * np.max(np.abs(want)), (n, m)

    @pytest.mark.parametrize("n_l,m_n,rho_max", [(400, 300, 70.0), (1000, 500, 90.0)])
    def test_high_orders_stay_normalized(self, n_l, m_n, rho_max):
        # rho^300 overflows near rho = 11, and rho^m e^{-rho^2/2} underflows
        # inside the support of psi_{1000, 500}; the scaled recurrence does neither
        rho = np.linspace(0.0, rho_max, 30_001)
        val = oscillator_wavefunction(n_l, m_n, rho, 0.0)
        assert np.all(np.isfinite(val))
        norm = 2 * np.pi * np.trapezoid(np.abs(val) ** 2 * rho, rho)
        assert abs(norm - 1.0) <= 1e-10


class TestNcsSeries:
    def test_zeta_zero_reduces(self):
        r, p = 1.2, 0.8
        assert ncs_wavefunction_series(0.0, 2, 1, r, p) == pytest.approx(
            oscillator_wavefunction(2, 1, r, p)
        )

    def test_norm_unity(self):
        coeffs = su11_ncs_coefficients(1.0, 1, 0.3j).coeffs
        res = quadrature_inner_product(coeffs, coeffs, 1)
        assert abs(res.value - 1.0) <= 1e-8

    @pytest.mark.parametrize("zeta,n_l,m_n", [(0.25 - 0.3j, 2, 2), (0.6j, 5, 3), (-0.7, 1, 6)])
    def test_matches_per_term_reference(self, zeta, n_l, m_n, rng):
        # oracle: the coefficient vector times scipy's eigenfunctions, term by term
        coeffs = su11_ncs_coefficients(0.5 * (m_n + 1), n_l, zeta).coeffs
        r = rng.uniform(0.0, 6.0, 200)
        p = rng.uniform(0, 2 * np.pi, 200)
        direct = sum(c * reference_wavefunction(i, m_n, r, p) for i, c in enumerate(coeffs))
        series = ncs_wavefunction_series(zeta, n_l, m_n, r, p)
        assert np.max(np.abs(series - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_norm_invariant_under_zeta_phase(self):
        norms = []
        for arg in (0.0, 1.1, 2.7):
            z = 0.35 * np.exp(1j * arg)
            coeffs = su11_ncs_coefficients(1.0, 1, z).coeffs
            norms.append(quadrature_inner_product(coeffs, coeffs, 1).value.real)
        assert np.max(np.abs(np.array(norms) - 1.0)) <= 1e-8


class TestNcsClosedForm:
    def test_singular_parameters_rejected(self):
        with pytest.raises(SingularParameterError):
            ClosedFormParams(zeta=0.0)
        with pytest.raises(SingularParameterError):
            ClosedFormParams(zeta=1.0)

    @pytest.mark.parametrize(
        "zeta,n_l,m_n",
        [(0.3j, 1, 1), (0.25 - 0.35j, 2, 3), (0.5, 0, 0), (-0.2 + 0.4j, 3, 2)],
    )
    def test_resummed_equals_series(self, zeta, n_l, m_n, rng):
        p = ClosedFormParams(zeta=zeta)
        for _ in range(25):
            r = rng.uniform(0.05, 3.0)
            ph = rng.uniform(0, 2 * np.pi)
            series = ncs_wavefunction_series(zeta, n_l, m_n, r, ph)
            closed = ncs_wavefunction_closed(p, n_l, m_n, r, ph, variant="resummed")
            assert closed == pytest.approx(series, abs=1e-10)

    def test_zeta_to_zero_continuity(self):
        # the genuine state difference is O(zeta), so the gap at 1e-6 is tiny
        p = ClosedFormParams(zeta=1e-6)
        v_closed = ncs_wavefunction_closed(p, 1, 2, 1.3, 0.7)
        v_base = oscillator_wavefunction(1, 2, 1.3, 0.7)
        assert abs(v_closed - v_base) <= 1e-5

    def test_sigma_variant_reproducible_discrepancy(self):
        # the sigma parameterization does not reproduce the series; the
        # mirror identity (one sign change, evaluated at -zeta) pins the
        # mismatch exactly
        rep = closed_form_comparison(0.3j, 1, 1)
        assert rep.max_dev_sigma > 1e-2  # frozen, reproducible disagreement
        assert not rep.sigma_matches_series
        assert rep.max_dev_resummed <= 1e-7
        assert rep.max_dev_sigma_mirror <= 1e-7

    def test_comparison_deterministic(self):
        a = closed_form_comparison(0.25 - 0.35j, 2, 3)
        b = closed_form_comparison(0.25 - 0.35j, 2, 3)
        assert a == b


def _radial_norm(coeffs, m_n, n):
    """pi sum_k W_k |sum_r c_r psi_{r,m_n}(sqrt x_k)|^2 on the n-node rule."""
    x, w = wavefunc._laguerre_rule(n)
    vals = wavefunc._radial_series(coeffs, m_n, np.sqrt(x), 0.0)
    return float(np.pi * np.sum(w * np.abs(vals) ** 2))


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 96, 170])
    def test_laguerre_rules_are_shared_read_only(self, n):
        rule = wavefunc._laguerre_rule(n)
        assert wavefunc._laguerre_rule(n) is rule
        x, wx = roots_genlaguerre(n, 0.0)
        np.testing.assert_allclose(rule[0], x, rtol=1e-13, atol=0)
        # scipy's own weights lose digits as they approach underflow (1e-280 at n = 170)
        np.testing.assert_allclose(rule[1], wx * np.exp(x), rtol=2e-10, atol=0)
        for arr in rule:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            rule[0][0] = 1.0

    def test_gaussian_integral(self):
        # sqrt(pi) psi_{0,0} = e^{-rho^2/2}: integr e^{-rho^2} rho drho dphi = pi
        res = quadrature_inner_product([np.sqrt(np.pi)], [np.sqrt(np.pi)], 0)
        assert res.value == pytest.approx(np.pi, rel=1e-13)

    @pytest.mark.parametrize("n_l,m_n", [(0, 3), (2, 2), (3, 5), (40, 30)])
    def test_rule_exact_from_its_degree(self, n_l, m_n):
        # |psi_{n,m}|^2 = e^{-x} x^m (degree-n polynomial)^2: exact from
        # n + 1 + floor(m/2) nodes on, and off one node below
        e_n = np.eye(1, n_l + 1, n_l)[0]
        size = n_l + 1 + m_n // 2
        for n in (size, size + 1, 2 * size):
            assert abs(_radial_norm(e_n, m_n, n) - 1.0) <= 1e-12, n
        assert abs(_radial_norm(e_n, m_n, size - 1) - 1.0) > 1e-6

    def test_node_doubling_agrees_to_roundoff(self):
        coeffs = su11_ncs_coefficients(3.5, 4, 0.6 - 0.3j).coeffs
        res = quadrature_inner_product(coeffs, coeffs, 6, tol=1e-12)
        assert abs(res.value - 1.0) <= 1e-12

    def test_tolerance_violation_raises(self, monkeypatch):
        # node-dependent noise in the series: the two rules no longer agree
        coeffs = [1.0, 0.5]
        quadrature_inner_product(coeffs, coeffs, 2)  # build both rules unpatched
        series = wavefunc._radial_series
        monkeypatch.setattr(wavefunc, "_radial_series", lambda c, m, rho, phi: (
            series(c, m, rho, phi) * (1.0 + 1e-3 * np.cos(rho.size * rho))))
        with pytest.raises(QuadratureError, match="under node doubling"):
            quadrature_inner_product(coeffs, coeffs, 2, tol=1e-10)

    def test_node_cap_refused_before_any_rule_is_built(self, monkeypatch):
        def refuse(n):
            raise AssertionError("a rule above the cap was built")

        monkeypatch.setattr(wavefunc, "_laguerre_rule", refuse)
        half = wavefunc.MAX_NODES // 2
        with pytest.raises(QuadratureError, match=f"exceeds the cap of {wavefunc.MAX_NODES}"):
            quadrature_inner_product(np.ones(half - 4), [1.0], 10)
        with pytest.raises(QuadratureError, match="nodes = 2000000002 exceeds"):
            quadrature_inner_product([1.0], [1.0], 2 * 10**9)

    @pytest.mark.parametrize("same, calls", [(True, 2), (False, 4)])
    def test_series_evaluated_once_per_rule_when_b_is_a(self, monkeypatch, same, calls):
        a = [1.0, 0.5]
        quadrature_inner_product(a, a, 1)  # build both rules before counting
        seen = []
        series = wavefunc._radial_series

        def counted(*args):
            seen.append(args)
            return series(*args)

        monkeypatch.setattr(wavefunc, "_radial_series", counted)
        quadrature_inner_product(a, a if same else list(a), 1)
        assert len(seen) == calls

    def test_error_estimate_returned(self):
        res = quadrature_inner_product([0.0, 1.0], [0.0, 1.0], 0)
        assert 0.0 <= res.error_estimate <= 1e-13
