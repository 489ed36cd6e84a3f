"""Group displacement operators, their normal forms, and number coherent states.

The displacement operator is D(xi) = exp(xi G+ - xi* G-) for either algebra,
with xi = -(theta/2) e^{-i phi}. It acts within one irrep at a time, so it
is built per charge sector, from the sector's closed-form generators
(``liealg.sector_generators``: su(1,1) on N_d sectors, su(2) on N_s
sectors), and returned as a dense unitary. Its Gaussian (normal) form is

    D = exp(zeta G+) exp(eta G0) exp(-zeta* G-)

with zeta = -tanh(theta/2) e^{-i phi}, eta = ln(1 - |zeta|^2) for su(1,1) and
zeta = -tan(theta/2) e^{-i phi}, eta = ln(1 + |zeta|^2) for su(2). The su(2)
eta follows from the 2x2 Gaussian decomposition and is the only choice under
which the normal form reproduces exp(xi J+ - xi* J-); see
``tests/test_displace.py`` for the numeric identity.

Conjugation moves generators inside the algebra:

    D† K+ D = (xi*/|xi|) alpha K0 + beta (K+ + (xi*/xi) K-) + K+
    D† K0 D = (2 beta + 1) K0 + (alpha xi / 2|xi|) K+ + (alpha xi* / 2|xi|) K-

with alpha = sinh 2|xi|, beta = (cosh 2|xi| - 1)/2, and the su(2) analogues
carry delta = sin 2|xi|, eps = (cos 2|xi| - 1)/2 and a minus sign on the G0
transfer of G±.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
from scipy.special import gammaln

from .errors import ConvergenceError, SectorMismatchError, TailError
from .fock import SectorBasis
from .liealg import AlgebraKind, sector_algebra, sector_generators

UNITARITY_TOL = 1e-10
NCS_NORM_TOL = 1e-10


@dataclass(frozen=True)
class TiltingParams:
    """Displacement parameters (theta, phi) and everything derived from them."""

    algebra: AlgebraKind
    theta: float
    phi: float

    @property
    def xi(self) -> complex:
        return -(self.theta / 2.0) * cmath.exp(-1j * self.phi)

    @property
    def zeta(self) -> complex:
        half = self.theta / 2.0
        mag = math.tanh(half) if self.algebra is AlgebraKind.SU11 else math.tan(half)
        return -mag * cmath.exp(-1j * self.phi)

    @property
    def eta(self) -> float:
        # su(1,1): eta = -2 ln cosh|xi| = ln(1 - |zeta|^2);
        # su(2):   eta = -2 ln cos|xi|  = +ln(1 + |zeta|^2).
        # Both follow from the 2x2 Gaussian decomposition and are pinned by
        # the normal-form == direct-exponential identity.
        z2 = abs(self.zeta) ** 2
        if self.algebra is AlgebraKind.SU11:
            if z2 >= 1.0:
                raise ValueError("|zeta| must stay below 1 for su(1,1)")
            return math.log(1.0 - z2)
        return math.log(1.0 + z2)

    @classmethod
    def from_xi(cls, algebra: AlgebraKind, xi: complex) -> "TiltingParams":
        theta = 2.0 * abs(xi)
        phi = -cmath.phase(-xi) if xi != 0 else 0.0
        return cls(algebra=algebra, theta=theta, phi=phi)


def zeta_to_xi(algebra: AlgebraKind, zeta: complex) -> complex:
    """xi with the same phase as zeta and |xi| = artanh|zeta| (su(1,1)) or
    arctan|zeta| (su(2))."""
    if zeta == 0:
        return 0.0
    mag = abs(zeta)
    r = math.atanh(mag) if algebra is AlgebraKind.SU11 else math.atan(mag)
    return r * zeta / mag


def _sector_triple(sector: SectorBasis):
    """Dense (G0, G+, G-) of the sector's algebra, from ``sector_generators``."""
    g0, sub = sector_generators(sector)
    gp = np.diag(sub, -1)
    return np.diag(g0), gp, gp.T


def displacement_direct(xi: complex, sector: SectorBasis) -> np.ndarray:
    """exp(xi G+ - xi* G-) on a charge sector, as a dense unitary.

    The algebra is the sector's: su(1,1) on N_d sectors, su(2) on N_s
    sectors. The generator is anti-Hermitian, so the exponential is taken
    through the eigendecomposition of the Hermitian matrix
    H = i(xi G+ - xi* G-); unitarity is then structural rather than
    accidental. H is tridiagonal with a zero diagonal and subdiagonal
    i xi ``pair_amplitudes``, one phase u = i xi / |xi| throughout, so the
    diagonal gauge Phi = diag(u^k) makes it the real tridiagonal
    T = Phi† H Phi with subdiagonal |xi| ``pair_amplitudes``. With
    T = V diag(w) Vᵀ, D = (Phi V) e^{-iw} (Phi V)†.
    """
    dim = sector.dim
    if xi == 0:
        return np.eye(dim, dtype=complex)
    _, sub = sector_generators(sector)
    w, v = la.eigh_tridiagonal(np.zeros(dim), abs(xi) * sub)
    pv = np.exp(1j * cmath.phase(1j * xi) * np.arange(dim))[:, None] * v
    d = (pv * np.exp(-1j * w)) @ pv.conj().T
    unit_dev = np.max(np.abs(d @ d.conj().T - np.eye(dim)))
    if unit_dev > UNITARITY_TOL:
        raise ConvergenceError(
            f"displacement exponential lost unitarity: deviation {unit_dev:.3e}"
        )
    return d


def displacement_normal(params: TiltingParams, sector: SectorBasis) -> np.ndarray:
    """Normal-form product exp(zeta G+) exp(eta G0) exp(-zeta* G-) on a sector.

    SectorMismatchError when ``params.algebra`` is not the sector's algebra.
    """
    if params.algebra is not sector_algebra(sector):
        raise SectorMismatchError(
            f"{params.algebra.value} parameters on a {sector.charge_kind.value} sector"
        )
    g0, gp, gm = _sector_triple(sector)
    zeta, eta = params.zeta, params.eta
    left = la.expm(zeta * gp)
    mid = np.diag(np.exp(eta * np.diag(g0)))
    right = la.expm(-np.conj(zeta) * gm)
    return left @ mid @ right


@dataclass(frozen=True)
class SimilarityCoefficients:
    """Nine scalars expressing D† G_i D in the (G0, G+, G-) basis.

    Each triple is ordered (c0, c_plus, c_minus).
    """

    plus: tuple
    minus: tuple
    zero: tuple


def similarity_coefficients(algebra: AlgebraKind, xi: complex) -> SimilarityCoefficients:
    if xi == 0:
        return SimilarityCoefficients(
            plus=(0.0, 1.0, 0.0), minus=(0.0, 0.0, 1.0), zero=(1.0, 0.0, 0.0)
        )
    r = abs(xi)
    u = xi / r  # unit phase
    if algebra is AlgebraKind.SU11:
        a = math.sinh(2 * r)
        b = 0.5 * (math.cosh(2 * r) - 1.0)
        return SimilarityCoefficients(
            plus=(np.conj(u) * a, b + 1.0, b * np.conj(u) / u),
            minus=(u * a, b * u / np.conj(u), b + 1.0),
            zero=(2 * b + 1.0, a * u / 2.0, a * np.conj(u) / 2.0),
        )
    d = math.sin(2 * r)
    e = 0.5 * (math.cos(2 * r) - 1.0)
    return SimilarityCoefficients(
        plus=(-np.conj(u) * d, e + 1.0, e * np.conj(u) / u),
        minus=(-u * d, e * u / np.conj(u), e + 1.0),
        zero=(2 * e + 1.0, d * u / 2.0, d * np.conj(u) / 2.0),
    )


@dataclass(frozen=True)
class SimilarityReport:
    algebra: AlgebraKind
    xi: complex
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def verify_similarity(xi: complex, sector: SectorBasis, keep: int | None = None) -> SimilarityReport:
    """Compare numerical D† G_i D against the closed-form combinations.

    ``keep`` restricts the comparison to the lowest-lying block of the
    sector; use it for su(1,1), where truncation pollutes the top states.
    """
    algebra = sector_algebra(sector)
    g0, gp, gm = _sector_triple(sector)
    d = displacement_direct(xi, sector)
    coeffs = similarity_coefficients(algebra, xi)
    sl = slice(None) if keep is None else slice(0, keep)
    residuals = {}
    for name, g, (c0, cp, cm) in (
        ("G+", gp, coeffs.plus),
        ("G-", gm, coeffs.minus),
        ("G0", g0, coeffs.zero),
    ):
        lhs = d.conj().T @ g @ d
        rhs = c0 * g0 + cp * gp + cm * gm
        residuals[name] = float(np.max(np.abs((lhs - rhs)[sl, sl])))
    return SimilarityReport(algebra=algebra, xi=xi, residuals=residuals)


@dataclass(frozen=True)
class CoherentStateCoeffs:
    """Expansion of D(xi)|k, n> or D(xi)|j, mu> over the representation ladder.

    ``coeffs[r]`` multiplies the state with excitation number r above the
    lowest weight. Norm deviates from 1 only by the truncated tail.
    """

    zeta: complex
    coeffs: np.ndarray = field(repr=False)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def su11_ncs_coefficients(
    k: float,
    n: int,
    zeta: complex,
    max_index: int | None = None,
    tail_tol: float = 1e-12,
) -> CoherentStateCoeffs:
    """Number coherent state |zeta, k, n> in the discrete-series ladder.

    Coefficient of |k, r> is the double sum over (j, s) with r = n - j + s:

        sum_j  (zeta^s / s!) ((-zeta*)^j / j!) e^{eta (k + n - j)}
               sqrt(G(2k+n) G(2k+r)) / G(2k+n-j)
               sqrt(G(n+1) G(r+1)) / G(n-j+1)

    evaluated with log-Gamma prefactors. The infinite tail over r is cut
    once a geometric bound on the remaining amplitude mass (sum of |c_r|)
    drops below ``tail_tol``; TailError if the cap ``max_index`` is too
    small for that. ValueError unless 0 < k < inf and |zeta| < 1;
    ConvergenceError when the float64 sum has lost the norm.
    """
    if not 0 < k < math.inf:
        raise ValueError(f"Bargmann index k must be positive and finite, got {k}")
    if not abs(zeta) < 1.0:
        raise ValueError("su(1,1) coherent states require |zeta| < 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if zeta == 0:
        coeffs = np.zeros(n + 1, dtype=complex)
        coeffs[n] = 1.0
        return CoherentStateCoeffs(zeta=zeta, coeffs=coeffs)

    eta = math.log(1.0 - abs(zeta) ** 2)
    az = abs(zeta)
    hard_cap = max_index if max_index is not None else 100_000

    def coeff(r: int):
        total = 0.0 + 0.0j
        mass = 0.0
        for j in range(max(0, n - r), n + 1):
            s = r - n + j
            log_mag = (
                eta * (k + n - j)
                + 0.5 * (gammaln(2 * k + n) + gammaln(2 * k + r))
                - gammaln(2 * k + n - j)
                + 0.5 * (gammaln(n + 1) + gammaln(r + 1))
                - gammaln(n - j + 1)
                - gammaln(s + 1)
                - gammaln(j + 1)
            )
            term = (zeta**s) * ((-np.conj(zeta)) ** j) * math.exp(log_mag)
            total += term
            mass += abs(term)
        return total, mass

    values = []
    r = 0
    while True:
        value, mass = coeff(r)
        values.append(value)
        # Geometric tail bound on the absolute term mass: for r >= n the
        # per-step ratio is at most |zeta| sqrt((2k+r)(r+1)) / (r-n+1),
        # which decreases towards |zeta|. Bounding with the absolute mass
        # rather than the signed coefficient keeps the bound valid under
        # cancellation between j-terms.
        if r >= n + 1:
            q = az * math.sqrt((2 * k + r + 1) * (r + 2)) / (r - n + 1)
            if q < 1.0:
                tail = mass * q / (1.0 - q)
                if tail < tail_tol:
                    break
        if r >= hard_cap:
            raise TailError(
                f"tail mass not below {tail_tol:.1e} within max_index={hard_cap}"
            )
        r += 1
    coeffs = np.array(values, dtype=complex)
    return _norm_checked(CoherentStateCoeffs(zeta=zeta, coeffs=coeffs))


def _norm_checked(state: CoherentStateCoeffs) -> CoherentStateCoeffs:
    """``state`` itself; ConvergenceError when |1 - norm²| > NCS_NORM_TOL.

    The alternating double sums cancel catastrophically in float64 at large
    labels or |zeta|; a truncated tail alone leaves a defect below tail_tol².
    """
    defect = abs(1.0 - state.norm_sq)
    if not defect <= NCS_NORM_TOL:
        raise ConvergenceError(
            f"coherent-state coefficients lost their norm: |1 - norm^2| = {defect:.3e} "
            f"> {NCS_NORM_TOL:.0e} (float64 cancellation)"
        )
    return state


def su2_ncs_coefficients(j: float, mu: float, zeta: complex) -> CoherentStateCoeffs:
    """Number coherent state |zeta, j, mu>; all sums are finite.

    Coefficient of |j, mu - n + s> accumulates

        (zeta^s / s!) ((-zeta*)^n / n!) e^{eta (mu - n)}
        G(j-mu+n+1) / G(j+mu-n+1)
        sqrt( G(j+mu+1) G(j+mu-n+s+1) / (G(j-mu+1) G(j-mu+n-s+1)) )

    over 0 <= n <= j + mu and 0 <= s <= j - mu + n, with
    eta = ln(1 + |zeta|^2). ConvergenceError when the float64 sum has lost
    the norm.
    """
    jp, jm = j + mu, j - mu
    if abs(jp - round(jp)) > 1e-9 or abs(jm - round(jm)) > 1e-9:
        raise ValueError("j + mu and j - mu must be integers")
    jp, jm = int(round(jp)), int(round(jm))
    if jp < 0 or jm < 0:
        raise ValueError("mu must lie in [-j, j]")
    dim = jp + jm + 1  # 2j + 1
    coeffs = np.zeros(dim, dtype=complex)
    if zeta == 0:
        coeffs[jp] = 1.0
        return CoherentStateCoeffs(zeta=zeta, coeffs=coeffs)
    eta = math.log(1.0 + abs(zeta) ** 2)
    for nn in range(jp + 1):
        for s in range(jm + nn + 1):
            log_mag = (
                eta * (mu - nn)
                + gammaln(jm + nn + 1)
                - gammaln(jp - nn + 1)
                + 0.5 * (gammaln(jp + 1) + gammaln(jp - nn + s + 1))
                - 0.5 * (gammaln(jm + 1) + gammaln(jm + nn - s + 1))
                - gammaln(s + 1)
                - gammaln(nn + 1)
            )
            term = (zeta**s) * ((-np.conj(zeta)) ** nn) * math.exp(log_mag)
            coeffs[jp - nn + s] += term
    return _norm_checked(CoherentStateCoeffs(zeta=zeta, coeffs=coeffs))


def ncs_from_displacement(xi: complex, sector: SectorBasis, excitation: int) -> np.ndarray:
    """Matrix-action oracle: column of D(xi) over the sector ladder."""
    return displacement_direct(xi, sector)[:, excitation]
