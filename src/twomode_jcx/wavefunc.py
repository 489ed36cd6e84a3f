"""Position-space eigenfunctions and coherent-state wavefunctions.

The tilted Hamiltonians are diagonal in the two-dimensional oscillator
basis, whose polar eigenfunctions are

    psi_{n,m}(rho, phi) = (-1)^n sqrt(n!/(pi (n+m)!)) e^{i m phi}
                          rho^m L_n^m(rho^2) e^{-rho^2/2},

normalized to 1 under the measure rho drho dphi. Mapping a tilted
eigenstate back with the displacement operator turns it into a number
coherent state; its wavefunction is the coefficient series over fixed m
with running Laguerre order, or equivalently a single closed form obtained
by resumming that series through the Laguerre generating function.

A norm is one radial Gauss-Laguerre rule, exact by degree, whose nodes
``tridiag.eigh`` solves (Golub and Welsch, Math. Comp. 23, 1969).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import tridiag
from .displace import su11_ncs_coefficients
from .errors import QuadratureError, SingularParameterError

_SQRT_PI = math.sqrt(math.pi)
MAX_NODES = 8192  # largest rule a norm may use: O(n^2) to build, 1.4 s at the cap on 2 CPUs


def laguerre(n: int, alpha, x):
    """Associated Laguerre polynomial L_n^alpha by the three-term recurrence.

    (k+1) L_{k+1} = (2k + 1 + alpha - x) L_k - (k + alpha) L_{k-1}

    Serves the closed forms, whose arguments are complex; ``x`` may be a
    scalar or array, real or complex.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(x)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.shape else prev[()]
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur if cur.shape else cur[()]


def _radial_series(coeffs, m_n: int, rho, phi):
    """Sum_r coeffs[r] psi_{r, m_n}(rho, phi) in one pass over the radial orders.

    With x = rho^2, the normalized radial factors l_r of psi_{r, m} obey
    l_{r+1} = -[(2r+1+m-x) l_r + sqrt(r (r+m)) l_{r-1}] / sqrt((r+1)(r+1+m))
    from l_0 = rho^m e^{-x/2} / sqrt(pi m!). l_r is carried as a value times
    exp(log_scale); l_0's factors start in the log domain and values above
    1e150 move into the scale, so nothing overflows or underflows at rho = 0
    or large m, r. rho >= 0; the phase e^{i m phi} broadcasts against it.
    """
    rho = np.asarray(rho, dtype=float)
    x = rho**2
    with np.errstate(divide="ignore"):  # log 0 = -inf: l_0 = 0 at rho = 0 for m > 0
        log_rho_m = m_n * np.log(rho) if m_n else 0.0
    log_scale = log_rho_m - 0.5 * x - 0.5 * math.lgamma(m_n + 1)
    prev, cur = 0.0, np.full(x.shape, 1.0 / _SQRT_PI)
    radial = np.zeros(x.shape, dtype=complex)
    for r, c in enumerate(coeffs):
        if r:
            prev, cur = cur, -(
                (2 * r - 1 + m_n - x) * cur + math.sqrt((r - 1) * (r - 1 + m_n)) * prev
            ) / math.sqrt(r * (r + m_n))
            if np.max(np.abs(cur), initial=0.0) > 1e150:
                s = np.maximum(np.abs(cur), 1.0)
                prev, cur, radial, log_scale = prev / s, cur / s, radial / s, log_scale + np.log(s)
        if c:
            radial += c * cur
    val = radial * np.exp(log_scale) * np.exp(1j * m_n * phi)
    return val if val.ndim else complex(val)


def oscillator_wavefunction(n_l: int, m_n: int, rho, phi):
    """Normalized polar oscillator eigenfunction psi_{n_l, m_n}(rho, phi).

    ``_radial_series`` with the unit coefficient vector e_{n_l}; finite for
    any labels. Accepts scalar or array rho >= 0 and phi.
    """
    if n_l < 0 or m_n < 0:
        raise ValueError("n_l and m_n must be nonnegative")
    return _radial_series(np.eye(1, n_l + 1, n_l)[0], m_n, rho, phi)


def ncs_wavefunction_series(
    zeta: complex,
    n_l: int,
    m_n: int,
    rho,
    phi,
):
    """Coherent-state wavefunction as a coefficient series.

    Sum of su(1,1) number-coherent-state coefficients (Bargmann index
    k = (m_n+1)/2, excitation n_l) times oscillator eigenfunctions of
    fixed m_n and running radial number, in one ``_radial_series`` pass.
    It ends where the coefficients are trimmed; TailError propagates.
    """
    if n_l < 0 or m_n < 0:
        raise ValueError("n_l and m_n must be nonnegative")
    coeffs = su11_ncs_coefficients(0.5 * (m_n + 1), n_l, zeta).coeffs
    return _radial_series(coeffs, m_n, rho, phi)


@dataclass(frozen=True)
class ClosedFormParams:
    """zeta and the derived ratio sigma = (1-|zeta|^2)/((1-zeta)(-zeta*))."""

    zeta: complex

    def __post_init__(self):
        z = self.zeta
        if z == 0 or abs(1.0 - z) < 1e-12 or abs(1.0 + z) < 1e-12:
            raise SingularParameterError(
                "closed form is singular at zeta in {0, 1, -1}"
            )
        if abs(z) >= 1.0:
            raise SingularParameterError("closed form requires |zeta| < 1")

    @property
    def sigma(self) -> complex:
        z = self.zeta
        return (1.0 - abs(z) ** 2) / ((1.0 - z) * (-np.conj(z)))


def ncs_wavefunction_closed(
    params: ClosedFormParams,
    n_l: int,
    m_n: int,
    rho,
    phi,
    variant: str = "resummed",
):
    """Closed-form coherent-state wavefunction.

    variant="resummed": evaluation of the series in closed form via the
    Laguerre generating function and multiplication theorem,

        psi = C e^{i m phi} rho^m (1-|z|^2)^{(m+1)/2} (-z*)^n (1+w)^n
              (1+z)^{-(m+1)} exp(-rho^2 (1-z)/(2(1+z)))
              L_n^m( w rho^2 / ((1+z)(1+w)) ),
        w = (1-|z|^2)/(z* (1+z)),  C = sqrt(n!/(pi (n+m)!)).

    This variant reproduces ``ncs_wavefunction_series`` to roundoff.

    variant="sigma": an alternative printed form parameterized by
    sigma = (1-|z|^2)/((1-z)(-z*)) with a sqrt(2) prefactor, Gaussian
    exp(-rho^2 (1+z)/(2(1-z))) and Laguerre argument
    sigma rho^2/((1-z)(1-sigma)). It does not reproduce the series; with
    one sign change in the Laguerre argument it equals the resummed form
    at -zeta (see ``closed_form_comparison``). Kept for the discrepancy
    report.
    """
    z = params.zeta
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x = rho**2
    log_norm = 0.5 * (math.lgamma(n_l + 1) - math.lgamma(n_l + m_n + 1))
    if variant == "resummed":
        w = (1.0 - abs(z) ** 2) / (np.conj(z) * (1.0 + z))
        pref = math.exp(log_norm) / _SQRT_PI
        val = (
            pref
            * np.exp(1j * m_n * phi)
            * rho**m_n
            * (1.0 - abs(z) ** 2) ** (0.5 * (m_n + 1))
            * (-np.conj(z)) ** n_l
            * (1.0 + w) ** n_l
            * (1.0 + z) ** (-(m_n + 1))
            * np.exp(-x * (1.0 - z) / (2.0 * (1.0 + z)))
            * laguerre(n_l, m_n, w * x / ((1.0 + z) * (1.0 + w)))
        )
    elif variant == "sigma":
        sig = params.sigma
        if abs(1.0 - sig) < 1e-12:
            raise SingularParameterError("sigma variant singular at sigma = 1")
        pref = math.sqrt(2.0) * math.exp(log_norm) * ((-1) ** n_l) / _SQRT_PI
        val = (
            pref
            * np.exp(1j * m_n * phi)
            * rho**m_n
            * (-np.conj(z)) ** n_l
            * (1.0 - abs(z) ** 2) ** (0.5 * m_n + 0.5)
            * (1.0 + sig) ** n_l
            * (1.0 - z) ** (-(m_n + 1))
            * np.exp(-x * (z + 1.0) / (2.0 * (1.0 - z)))
            * laguerre(n_l, m_n, x * sig / ((1.0 - z) * (1.0 - sig)))
        )
    else:
        raise ValueError(f"unknown closed-form variant {variant!r}")
    return val if np.ndim(val) else complex(val)


@dataclass(frozen=True)
class ClosedFormReport:
    """Reproducible comparison of the closed-form variants against the series."""

    zeta: complex
    n_l: int
    m_n: int
    max_dev_resummed: float
    max_dev_sigma: float
    max_dev_sigma_mirror: float
    n_points: int

    @property
    def sigma_matches_series(self) -> bool:
        return self.max_dev_sigma <= 1e-7


def closed_form_comparison(
    zeta: complex, n_l: int, m_n: int, n_points: int = 50, seed: int = 7
) -> ClosedFormReport:
    """Evaluate both closed-form variants against the series on random points.

    ``max_dev_sigma_mirror`` checks the diagnosis of the sigma variant: with
    the Laguerre argument denominator flipped to (1 + sigma) and the sqrt(2)
    removed, the sigma form evaluated at -zeta reproduces the series at
    +zeta. A small value pins the mismatch to that sign and the mirrored
    argument rather than to a loose tolerance.
    """
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.05, 3.0, n_points)
    phi = rng.uniform(0.0, 2 * np.pi, n_points)
    series = ncs_wavefunction_series(zeta, n_l, m_n, rho, phi)
    scale = max(1e-30, float(np.max(np.abs(series))))

    p = ClosedFormParams(zeta=zeta)
    resummed = ncs_wavefunction_closed(p, n_l, m_n, rho, phi, variant="resummed")
    sigma = ncs_wavefunction_closed(p, n_l, m_n, rho, phi, variant="sigma")

    p_mirror = ClosedFormParams(zeta=-zeta)
    sig_m = p_mirror.sigma
    x = rho**2
    log_norm = 0.5 * (math.lgamma(n_l + 1) - math.lgamma(n_l + m_n + 1))
    pref = math.exp(log_norm) * ((-1) ** n_l) / _SQRT_PI
    mirror = (
        pref
        * np.exp(1j * m_n * phi)
        * rho**m_n
        * (np.conj(zeta)) ** n_l
        * (1.0 - abs(zeta) ** 2) ** (0.5 * m_n + 0.5)
        * (1.0 + sig_m) ** n_l
        * (1.0 + zeta) ** (-(m_n + 1))
        * np.exp(-x * (1.0 - zeta) / (2.0 * (1.0 + zeta)))
        * laguerre(n_l, m_n, x * sig_m / ((1.0 + zeta) * (1.0 + sig_m)))
    )

    return ClosedFormReport(
        zeta=zeta,
        n_l=n_l,
        m_n=m_n,
        max_dev_resummed=float(np.max(np.abs(resummed - series)) / scale),
        max_dev_sigma=float(np.max(np.abs(sigma - series)) / scale),
        max_dev_sigma_mirror=float(np.max(np.abs(mirror - series)) / scale),
        n_points=n_points,
    )


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    error_estimate: float


@functools.lru_cache(maxsize=16)
def _laguerre_rule(n: int):
    """Nodes x_k and weights W_k = w_k e^{x_k} of the n-point Gauss-Laguerre rule.

    The nodes are the eigenvalues of the Jacobi matrix (diagonal 2k + 1,
    off-diagonal k); the weights are w_k = x_k / ((n+1)^2 L_{n+1}(x_k)^2)
    (Abramowitz and Stegun 25.4.45), with L_{n+1}(x)^2 e^{-x} read as
    pi psi_{n+1,0}(sqrt x)^2, so e^{x_k} is never formed. Every W_k stays
    between about 2e-4 and 1.3e2 up to n = 16384. A rule depends on n alone
    and is built once; the arrays are read-only because callers share them.
    """
    k = np.arange(n, dtype=float)
    x = tridiag.eigh(2.0 * k + 1.0, k[1:], eigvals_only=True)
    psi = oscillator_wavefunction(n + 1, 0, np.sqrt(x), 0.0).real
    w = x / ((n + 1) ** 2 * math.pi * psi**2)
    for arr in (x, w):
        arr.flags.writeable = False
    return x, w


def quadrature_inner_product(a, b, m_n: int, tol: float | None = None) -> QuadratureResult:
    """<sum_r a_r psi_{r,m_n} | sum_r b_r psi_{r,m_n}> by a radial Gauss-Laguerre rule.

    With x = rho^2 the integrand is e^{-x} times a polynomial of degree
    < 2n in x and its phase integrates to 2 pi, so the n-node rule, n =
    max(len a, len b) + floor(m_n / 2), is exact: the value is
    pi sum_k W_k conj(A_k) B_k over the radial factors A, B at the nodes.
    The 2n-node rule is the independent check, and their difference is
    ``error_estimate``; the series are evaluated once per rule when ``b is
    a``. QuadratureError, before any rule is built, when 2n exceeds
    MAX_NODES, and when an explicit ``tol`` is given and the rules differ
    by more than it.
    """
    n = max(len(a), len(b)) + m_n // 2
    if 2 * n > MAX_NODES:
        raise QuadratureError(f"Gauss-Laguerre nodes = {2 * n} exceeds the cap of {MAX_NODES}")

    def evaluate(nodes):
        x, w = _laguerre_rule(nodes)
        rho = np.sqrt(x)
        fa = _radial_series(a, m_n, rho, 0.0)
        fb = fa if b is a else _radial_series(b, m_n, rho, 0.0)
        return complex(math.pi * np.sum(w * np.conj(fa) * fb))

    coarse = evaluate(n)
    fine = evaluate(2 * n)
    err = abs(fine - coarse)
    if tol is not None and err > tol:
        raise QuadratureError(
            f"quadrature moved by {err:.3e} under node doubling (tol {tol:.1e})"
        )
    return QuadratureResult(value=fine, error_estimate=err)
