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

scipy.special is imported where it is used, so only the commands that
evaluate a wavefunction (``wavefunction``, ``verify``) pay for loading it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .displace import su11_ncs_coefficients
from .errors import QuadratureError, SingularParameterError

_SQRT_PI = math.sqrt(math.pi)


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
    from scipy.special import gammaln, xlogy

    rho = np.asarray(rho, dtype=float)
    x = rho**2
    log_scale = xlogy(m_n, rho) - 0.5 * x - 0.5 * gammaln(m_n + 1)
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
    from scipy.special import gammaln

    z = params.zeta
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    x = rho**2
    log_norm = 0.5 * (gammaln(n_l + 1) - gammaln(n_l + m_n + 1))
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
    from scipy.special import gammaln

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
    log_norm = 0.5 * (gammaln(n_l + 1) - gammaln(n_l + m_n + 1))
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
    n_rho: int
    n_phi: int


@functools.lru_cache(maxsize=16)
def _polar_nodes(n_rho: int, n_phi: int):
    """Nodes/weights for integr(f rho drho dphi) over rho >= 0, phi in [0, 2pi).

    Radial part: substitute x = rho^2 and use Gauss-Laguerre with the e^{-x}
    weight folded back in; combined weights stay O(1) because the integrands
    carry Gaussian decay. Angular part: Gauss-Legendre scaled to the period.
    Each rule costs an eigenproblem and depends on the sizes alone, so it is
    built once per size; the arrays are read-only because callers share them.
    """
    from scipy.special import roots_genlaguerre, roots_legendre

    if n_rho > 170:
        raise QuadratureError("Gauss-Laguerre weights underflow beyond ~170 nodes")
    x, wx = roots_genlaguerre(n_rho, 0.0)
    rho = np.sqrt(x)
    w_rho = 0.5 * np.exp(np.log(wx) + x)  # w e^x without overflow
    t, wt = roots_legendre(n_phi)
    phi = np.pi * (t + 1.0)
    w_phi = np.pi * wt
    nodes = (rho, w_rho, phi, w_phi)
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


def quadrature_inner_product(
    f,
    g,
    n_rho: int = 96,
    n_phi: int = 64,
    tol: float | None = None,
) -> QuadratureResult:
    """integr f*(rho,phi) g(rho,phi) rho drho dphi with a node-doubling error estimate.

    ``f`` and ``g`` are callables of (rho, phi) broadcastable over arrays;
    when ``g is f`` it is evaluated once per node set.
    QuadratureError when an explicit ``tol`` is given and node doubling
    moves the result by more than it.
    """

    def evaluate(nr, nph):
        rho, w_rho, phi, w_phi = _polar_nodes(nr, nph)
        rr = rho[:, None]
        pp = phi[None, :]
        fv = f(rr, pp)
        vals = np.conj(fv) * (fv if g is f else g(rr, pp))
        return complex(np.einsum("i,j,ij->", w_rho, w_phi, vals))

    coarse = evaluate(n_rho, n_phi)
    fine = evaluate(min(2 * n_rho, 170), 2 * n_phi)
    err = abs(fine - coarse)
    if tol is not None and err > tol:
        raise QuadratureError(
            f"quadrature moved by {err:.3e} under node doubling (tol {tol:.1e})"
        )
    return QuadratureResult(value=fine, error_estimate=err, n_rho=n_rho, n_phi=n_phi)
