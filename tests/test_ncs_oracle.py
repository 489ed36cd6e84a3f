"""Number coherent states against the paper's double sums in mpmath.

Each coefficient of |zeta, k, n> (su(1,1)) or |zeta, j, mu> (su(2)) is one
inner sum of the double sum. Its terms are generated from the first one by
their exact rational ratio, which is real and negative, so the sum
alternates and cancels. The working precision of each coefficient is set
from the decimal exponent of its largest term, found in float log-Gamma:
larger labels get more digits (about 230 at j = 300), and the cancellation
never eats the last 30.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from twomode_jcx.displace import su2_ncs_coefficients, su11_ncs_coefficients

ORACLE_TOL = 1e-12
GUARD_DIGITS = 30
SAMPLES = 48  # compared coefficients per state, besides the first, n and the peak


def _inner_sum(first_log, ratio, count):
    """exp(first_log) * sum_{t < count} prod_{u < t} ratio(u), in the current mp precision."""
    term = mpmath.exp(first_log)
    total = term
    for t in range(count - 1):
        term *= ratio(t)
        total += term
    return total


def _polar(zeta):
    """|zeta|^2 and arg(zeta) of the float ``zeta``, exact to the mp precision."""
    re, im = mpmath.mpf(complex(zeta).real), mpmath.mpf(complex(zeta).imag)
    return re**2 + im**2, mpmath.atan2(im, re)


def _digits(log_terms, digits):
    """``digits``, or else the working precision for a sum whose natural term
    logs are ``log_terms``: GUARD_DIGITS beyond the largest term."""
    if digits is not None:
        return digits
    return GUARD_DIGITS + max(0, math.ceil(float(np.max(log_terms)) / math.log(10)))


def su11_oracle(k, n, zeta, r, digits=None):
    """Coefficient of |k, r> in |zeta, k, n>:

        sum_j (zeta^s / s!) ((-zeta*)^j / j!) e^{eta (k + n - j)}
              sqrt(G(2k+n) G(2k+r)) / G(2k+n-j)  sqrt(n! r!) / (n-j)!,

    s = r - n + j, eta = ln(1 - |zeta|^2). The term ratio in j is
    -(|zeta|^2 / (1 - |zeta|^2)) (2k+n-j-1)(n-j) / ((s+1)(j+1)).
    """
    z2 = abs(zeta) ** 2
    j0 = max(0, n - r)
    j = np.arange(j0, n + 1)
    s = r - n + j
    log_terms = (
        (s + j) * math.log(abs(zeta)) - gammaln(s + 1) - gammaln(j + 1)
        + math.log1p(-z2) * (k + n - j)
        + 0.5 * (gammaln(2 * k + n) + gammaln(2 * k + r)) - gammaln(2 * k + n - j)
        + 0.5 * (gammaln(n + 1) + gammaln(r + 1)) - gammaln(n - j + 1)
    )
    with mpmath.workdps(_digits(log_terms, digits)):
        z2m, phase = _polar(zeta)
        x = z2m / (1 - z2m)
        first_log = (
            (r - n + 2 * j0) * mpmath.log(z2m) / 2
            - mpmath.loggamma(r - n + j0 + 1) - mpmath.loggamma(j0 + 1)
            + mpmath.log(1 - z2m) * (k + n - j0)
            + (mpmath.loggamma(2 * k + n) + mpmath.loggamma(2 * k + r)) / 2
            - mpmath.loggamma(2 * k + n - j0)
            + (mpmath.loggamma(n + 1) + mpmath.loggamma(r + 1)) / 2
            - mpmath.loggamma(n - j0 + 1)
        )
        total = _inner_sum(
            first_log,
            lambda t: -x * (2 * k + n - (j0 + t) - 1) * (n - (j0 + t))
            / ((r - n + j0 + t + 1) * (j0 + t + 1)),
            n - j0 + 1,
        )
        # zeta^s (-zeta*)^j = |zeta|^(s+j) (-1)^j e^{i arg(zeta) (s - j)}, and s - j = r - n.
        return complex(total * (-1) ** j0 * mpmath.expj(phase * (r - n)))


def su2_oracle(j, mu, zeta, q, digits=None):
    """Coefficient of |j, q - j> in |zeta, j, mu>:

        sum_nn (zeta^s / s!) ((-zeta*)^nn / nn!) e^{eta (mu - nn)}
               G(j-mu+nn+1) / G(j+mu-nn+1)
               sqrt(G(j+mu+1) G(q+1) / (G(j-mu+1) G(2j-q+1))),

    s = q - (j + mu) + nn, eta = ln(1 + |zeta|^2). The term ratio in nn is
    -(|zeta|^2 / (1 + |zeta|^2)) (j-mu+nn+1)(j+mu-nn) / ((s+1)(nn+1)).
    """
    jp, jm = round(j + mu), round(j - mu)
    z2 = abs(zeta) ** 2
    n0 = max(0, jp - q)
    nn = np.arange(n0, jp + 1)
    s = q - jp + nn
    log_terms = (
        (s + nn) * math.log(abs(zeta)) - gammaln(s + 1) - gammaln(nn + 1)
        + math.log1p(z2) * (mu - nn)
        + gammaln(jm + nn + 1) - gammaln(jp - nn + 1)
        + 0.5 * (gammaln(jp + 1) + gammaln(q + 1) - gammaln(jm + 1) - gammaln(jp + jm - q + 1))
    )
    with mpmath.workdps(_digits(log_terms, digits)):
        z2m, phase = _polar(zeta)
        x = z2m / (1 + z2m)
        first_log = (
            (q - jp + 2 * n0) * mpmath.log(z2m) / 2
            - mpmath.loggamma(q - jp + n0 + 1) - mpmath.loggamma(n0 + 1)
            + mpmath.log(1 + z2m) * (mpmath.mpf(mu) - n0)
            + mpmath.loggamma(jm + n0 + 1) - mpmath.loggamma(jp - n0 + 1)
            + (mpmath.loggamma(jp + 1) + mpmath.loggamma(q + 1)
               - mpmath.loggamma(jm + 1) - mpmath.loggamma(jp + jm - q + 1)) / 2
        )
        total = _inner_sum(
            first_log,
            lambda t: -x * (jm + n0 + t + 1) * (jp - n0 - t)
            / ((q - jp + n0 + t + 1) * (n0 + t + 1)),
            jp - n0 + 1,
        )
        return complex(total * (-1) ** n0 * mpmath.expj(phase * (q - jp)))


def _compared_indices(coeffs, n):
    size = len(coeffs)
    if size <= 2 * SAMPLES:
        return range(size)
    spread = np.linspace(0, size - 1, SAMPLES).astype(int).tolist()
    return sorted({0, n, int(np.argmax(np.abs(coeffs))), *spread})


def _max_oracle_error(coeffs, n, oracle):
    return max(abs(coeffs[i] - oracle(i)) for i in _compared_indices(coeffs, n))


SU11_GRID = [
    (0.5, 40, 0.05j),  # c_0 ~ 9e-53: its sign cannot fix the gauge
    (3.0, 40, 0.9),
    (1.0, 0, 0.6 - 0.6j),
    (2.5, 3, -0.25 + 0.3j),
    (0.75, 17, 0.7 * cmath.exp(-1.2j)),
    (1.5, 120, 0.5 * cmath.exp(2.1j)),
    (0.5, 200, 0.99 * cmath.exp(0.7j)),
    # exact c_0 ~ 1e-450 (below the float range) and 1e-300: computed, each
    # is roundoff of about 1e-50 with either sign, so only the count fixes
    # the gauge
    (0.5, 150, 1e-3),
    (2.0, 120, 3e-3j),
]

SU2_GRID = [
    (2.0, 0.0, 0.3 - 0.2j),
    (2.5, -0.5, 0.9j),
    (7.5, 7.5, 0.8 * cmath.exp(1.0j)),
    (20.0, 0.0, 0.5),
    (24.0, 0.0, 0.99 * cmath.exp(-2.5j)),
    (100.0, -37.0, 0.6 + 0.3j),
    (300.0, 0.0, 0.99 * cmath.exp(0.4j)),
]


@pytest.mark.parametrize("k, n, zeta", SU11_GRID)
def test_su11_matches_double_sum(k, n, zeta):
    c = su11_ncs_coefficients(k, n, zeta).coeffs
    err = _max_oracle_error(c, n, lambda r: su11_oracle(k, n, zeta, r))
    assert err <= ORACLE_TOL


@pytest.mark.parametrize("j, mu, zeta", SU2_GRID)
def test_su2_matches_double_sum(j, mu, zeta):
    c = su2_ncs_coefficients(j, mu, zeta).coeffs
    err = _max_oracle_error(c, round(j + mu), lambda q: su2_oracle(j, mu, zeta, q))
    assert err <= ORACLE_TOL


def test_fixed_80_digits_are_not_enough_at_j_300():
    # The largest terms of the middle coefficient are ~1e170 times larger
    # than the coefficient, so an 80-digit sum returns noise.
    j, mu, zeta = SU2_GRID[-1]
    scaled = su2_oracle(j, mu, zeta, 300)
    assert abs(scaled) < 1.0
    assert abs(su2_oracle(j, mu, zeta, 300, digits=80) - scaled) > 1.0


def test_oracle_reproduces_lowest_weight_closed_form():
    # n = 0: c_r = (1-|z|^2)^k sqrt(G(2k+r)/(r! G(2k))) z^r
    k, zeta = 1.5, 0.4 * cmath.exp(0.9j)
    for r in range(6):
        exact = (1 - abs(zeta) ** 2) ** k * math.exp(
            0.5 * (math.lgamma(2 * k + r) - math.lgamma(r + 1) - math.lgamma(2 * k))
        ) * zeta**r
        assert abs(su11_oracle(k, 0, zeta, r) - exact) <= 1e-15
