"""Group displacement operators, their normal forms, and number coherent states.

The displacement operator is D(xi) = exp(xi G+ - xi* G-) for either algebra,
with xi = -(theta/2) e^{-i phi}. It acts within one irrep at a time, so it
is built per charge sector, from the sector's closed-form generators
(``liealg.sector_generators``: su(1,1) on N_d sectors, su(2) on N_s
sectors). In a diagonal phase gauge its generator is |xi| times a real
tridiagonal that does not depend on xi, so that tridiagonal is
eigendecomposed once per sector and cached; ``displacement_direct`` then
forms only the columns a caller reads, O(dim² k) for k columns, and checks
that they are orthonormal. Its Gaussian (normal) form is

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
transfer of G±. Number coherent states D(xi)|n> are eigenvectors of the
tilted generator D G0 D†, tridiagonal on the irrep ladder, at its known
level lowest + n: one inverse iteration there, certified on a cut su(1,1)
ladder by the tail residual of the vector it finds.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from . import tridiag
from .errors import ConvergenceError, SectorMismatchError, TailError
from .fock import ChargeKind, SectorBasis, sector_basis
from .liealg import AlgebraKind, sector_algebra, sector_generators


def __getattr__(name):
    # la (scipy.linalg) is bound on first access, for the benchmark alone: its
    # span tests (bench/) trace the eigensolvers of displace.la. No command reads
    # it, so no command pays for importing scipy.linalg.
    if name == "la":
        global la
        import scipy.linalg as la
        return la
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


UNITARITY_TOL = 1e-10
NCS_NORM_TOL = 1e-10
NCS_LADDER_TOL = 1e-12  # truncation error allowed per coefficient; roundoff is not covered
NCS_TAIL_MASS = 1e-24  # coefficient mass left out when the series is trimmed
# Longest irrep ladder a coherent state may request (su(1,1) max_index + 1,
# su(2) 2j + 1). The solve peaks at about 100 bytes per ladder state (the
# tridiagonal, LAPACK's dstein workspace and vector, and the phased result;
# measured with tracemalloc), about 13 MB here; the cap admits the default
# su(1,1) max_index of 100 000.
MAX_LADDER_LENGTH = 1 << 17
_PIVMIN = float(np.finfo(float).tiny)


class TiltingParams(NamedTuple):
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


@functools.lru_cache(maxsize=64)  # verify uses 17 sectors, 0.6 MB of V0 in all
def _generator_eigenbasis(parent_cutoff: int, charge_kind: ChargeKind, charge_value: int):
    """(w0, V0) with T0 = V0 diag(w0) V0ᵀ, T0 the real tridiagonal with zero
    diagonal and subdiagonal ``pair_amplitudes`` of the sector.

    T0 depends on the sector alone, so it is solved once per sector; the
    arrays are read-only because callers share them. ConvergenceError when
    max|V0ᵀV0 - I| > UNITARITY_TOL.
    """
    sub = sector_basis(parent_cutoff, charge_kind, charge_value).pair_amplitudes
    w, v = tridiag.eigh(np.zeros(sub.size + 1), sub)
    orth_dev = np.max(np.abs(v.T @ v - np.eye(w.size)))
    if orth_dev > UNITARITY_TOL:
        raise ConvergenceError(
            f"displacement generator eigenbasis is not orthonormal: deviation {orth_dev:.3e}"
        )
    for arr in (w, v):
        arr.flags.writeable = False
    return w, v


def displacement_direct(xi: complex, sector: SectorBasis, columns=slice(None)) -> np.ndarray:
    """Columns D[:, columns] of D = exp(xi G+ - xi* G-) on a charge sector.

    ``columns`` indexes like a numpy column index (scalar, slice or index
    array); the default is the whole unitary. The algebra is the sector's:
    su(1,1) on N_d sectors, su(2) on N_s sectors. The generator is
    anti-Hermitian, D = exp(-iH) with H = i(xi G+ - xi* G-) Hermitian and
    tridiagonal, zero diagonal, subdiagonal i xi ``pair_amplitudes``: one
    phase u = i xi / |xi| throughout. So the diagonal gauge Phi = diag(u^k)
    gives H = |xi| Phi T0 Phi†, with T0 real and free of xi
    (``_generator_eigenbasis``), and

        D[:, columns] = Phi V0 e^{-i|xi| w0} V0ᵀ Phi† E_columns,

    O(dim² k) for k columns, V0 never cast to complex. ConvergenceError
    unless the returned columns C are orthonormal to UNITARITY_TOL:
    max|C†C - I|, with I the Gram matrix of the unit columns asked for (a
    repeated index repeats a column). For the whole D this is the full
    unitarity check.
    """
    dim = sector.dim
    idx = np.arange(dim)[columns]
    cols = np.atleast_1d(idx)
    if xi == 0:
        out = np.eye(dim, dtype=complex)[:, cols]
    else:
        w, v = _generator_eigenbasis(sector.parent_cutoff, sector.charge_kind, sector.charge_value)
        phase = np.exp(1j * cmath.phase(1j * xi) * np.arange(dim))
        right = np.exp(-1j * abs(xi) * w)[:, None] * (v[cols].T * phase[cols].conj())
        # V0 real: one real product on (re, im) pairs, which need ``right`` C-ordered
        out = phase[:, None] * (v @ np.ascontiguousarray(right).view(float)).view(complex)
    # D unitary: the Gram matrix of its columns is that of the unit vectors
    gram = cols[:, None] == cols[None, :]
    unit_dev = np.max(np.abs(out.conj().T @ out - gram), initial=0.0)
    if unit_dev > UNITARITY_TOL:
        raise ConvergenceError(
            f"displacement exponential lost unitarity: deviation {unit_dev:.3e}"
        )
    return out if np.ndim(idx) else out[:, 0]


def displacement_normal(params: TiltingParams, sector: SectorBasis) -> np.ndarray:
    """Normal-form product exp(zeta G+) exp(eta G0) exp(-zeta* G-) on a sector.

    Each factor is in closed form: G+ is nilpotent on the ladder
    (``_raising_exp``), and exp(eta G0) scales rows.
    SectorMismatchError when ``params.algebra`` is not the sector's algebra.
    """
    if params.algebra is not sector_algebra(sector):
        raise SectorMismatchError(
            f"{params.algebra.value} parameters on a {sector.charge_kind.value} sector"
        )
    g0, sub = sector_generators(sector)
    zeta = params.zeta
    # G- = G+ᵀ with real amplitudes, so exp(-zeta* G-) = exp(-zeta* G+)ᵀ.
    right = np.exp(params.eta * g0)[:, None] * _raising_exp(-np.conj(zeta), sub).T
    return _raising_exp(zeta, sub) @ right


def _raising_exp(c: complex, sub: np.ndarray) -> np.ndarray:
    """exp(c G+) for the nilpotent G+ with subdiagonal ``sub``, in closed form.

    Column j is sum_k c^k/k! (G+)^k e_j, so its entries obey
    e_{j+k, j} = e_{j+k-1, j} c sub[j+k-1] / k: each subdiagonal band is the
    one above it times c sub / k. O(dim²), no series or scaling-and-squaring.
    """
    dim = sub.size + 1
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)  # band k starts at flat index k dim, stride dim + 1
    band = np.ones(dim, dtype=complex)
    flat[:: dim + 1] = band
    for k in range(1, dim):
        band = band[:-1] * (c / k) * sub[k - 1 :]
        flat[k * dim :: dim + 1] = band
    return out


class SimilarityCoefficients(NamedTuple):
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


class SimilarityReport(NamedTuple):
    algebra: AlgebraKind
    xi: complex
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _generator_action(sector: SectorBasis, x: np.ndarray) -> tuple:
    """(G+ x, G- x, G0 x) for the columns of ``x``, from the sector's
    tridiagonal generators (``sector_generators``): O(dim) per column."""
    g0, sub = sector_generators(sector)
    up, down = np.zeros_like(x), np.zeros_like(x)
    up[1:] = sub[:, None] * x[:-1]
    down[:-1] = sub[:, None] * x[1:]
    return up, down, g0[:, None] * x


def verify_similarity(xi: complex, sector: SectorBasis, keep: int | None = None) -> SimilarityReport:
    """Compare numerical D† G_i D against the closed-form combinations.

    ``keep`` restricts the comparison to the lowest-lying block of the
    sector; use it for su(1,1), where truncation pollutes the top states.
    That block, C† G_i C with C = D[:, :keep], needs only those columns.
    """
    algebra = sector_algebra(sector)
    sl = slice(None) if keep is None else slice(0, keep)
    c = displacement_direct(xi, sector, sl)
    coeffs = similarity_coefficients(algebra, xi)
    gp, gm, g0 = _generator_action(sector, np.eye(sector.dim)[:, sl])
    residuals = {}
    for name, g_c, (c0, cp, cm) in zip(
        ("G+", "G-", "G0"),
        _generator_action(sector, c),
        (coeffs.plus, coeffs.minus, coeffs.zero),
    ):
        lhs = c.conj().T @ g_c
        rhs = (c0 * g0 + cp * gp + cm * gm)[sl]
        residuals[name] = float(np.max(np.abs(lhs - rhs)))
    return SimilarityReport(algebra=algebra, xi=xi, residuals=residuals)


class CoherentStateCoeffs(NamedTuple):
    """Expansion of D(xi)|k, n> or D(xi)|j, mu> over the representation ladder.

    ``coeffs[r]`` multiplies the state with excitation number r above the
    lowest weight. Norm deviates from 1 only by the truncated tail.
    """

    zeta: complex
    coeffs: np.ndarray

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def _det_sign(lam: float, diag: np.ndarray, off: np.ndarray, p: int) -> int:
    """Sign of det(lam - T[:p, :p]) for the tridiagonal T = (diag, off): the
    product of its LDLᵀ pivot signs. As in LAPACK's dstebz count, a pivot of
    magnitude at most pivmin = tiny·max(1, max b²) is taken as -pivmin, which
    keeps the sign of each pivot product and lets no b²/q overflow."""
    b2s = [0.0] + (off[: max(p - 1, 0)] ** 2).tolist()
    pivmin = _PIVMIN * max(1.0, *b2s)
    q, sign = 1.0, 1
    for a, b2 in zip((lam - diag[:p]).tolist(), b2s):
        q = a - b2 / q
        if abs(q) <= pivmin:
            q = -pivmin
        if q < 0:
            sign = -sign
    return sign


def _tilted_state(algebra: AlgebraKind, lowest: float, n: int, zeta: complex, length: int):
    """(D(xi)|n> on the first ``length`` ladder states |m>, its tail
    residual), G0 = lowest + m (lowest = k or -j); (None, inf) when the
    vector found is not that of a level within 1/2 of lowest + n.

    D|n> is the eigenvector, eigenvalue lam = lowest + n, of D G0 D† = c0 G0 +
    c+ G+ + c- G- (``similarity_coefficients(algebra, -xi).zero``), here in
    zeta: c0 = (1 ± |zeta|²)/(1 ∓ |zeta|²), c+ = -zeta/(1 ∓ |zeta|²), upper
    signs su(1,1); the artanh/arctan round trip costs digits as |zeta| -> 1.
    It is tridiagonal on the ladder, real T in the gauge diag(u^m),
    u = c+/|c+| (as in ``displacement_direct``), and solved by one inverse
    iteration at lam (``tridiag._inverse_iteration``), which finds the
    vector y of the level nearest lam; ConvergenceError when it does not
    converge. A coupling is dropped first where ``dstebz`` would split the
    ladder (off_i² < eps²|d_i d_i+1| + tiny), a change within the solve's
    roundoff. The tail residual r = |off_L|·|y[L-1]|, off_L coupling the
    last state to the first one cut off, is that of [y; 0] on the uncut
    ladder (0 on a whole su(2) irrep), so a level of its exact spectrum
    lowest + ℕ lies within r of y's Rayleigh quotient rho. y is kept only
    when |rho - lam| < 1/2: then, once r < 1/2, that level is lam and no
    other. Gauge: c_0 is (-zeta*)^n times a positive number and can
    underflow, so the sign of y is read at its peak p, where y_p / y_0 =
    det(lam - T[:p, :p]) / (product of the subdiagonal).
    """
    su11 = algebra is AlgebraKind.SU11
    z = abs(zeta)
    num, den = (1.0 + z * z, 1.0 - z * z) if su11 else (1.0 - z * z, 1.0 + z * z)
    m = np.arange(length + 1, dtype=float)  # the ladder states and the first one cut off
    span = m[:-1] + 2 * lowest if su11 else -2 * lowest - m[:-1]
    diag = (num / den) * (lowest + m[:-1])
    off = (z / den) * np.sqrt(m[1:] * span)
    lam, e = lowest + n, off[:-1]
    # dropped where dstebz's test splits the ladder: dstein's pivots there
    # lose the vector (errors to 0.15 at |zeta| = 1e-304)
    e = np.where(e * e < tridiag.EPS**2 * np.abs(diag[:-1] * diag[1:]) + _PIVMIN, 0.0, e)
    vec = tridiag._inverse_iteration(diag, e, np.array([lam]), ConvergenceError)[:, 0]
    if not abs(diag @ vec**2 + 2 * (e * vec[:-1]) @ vec[1:] - lam) < 0.5:
        return None, math.inf
    p = int(np.argmax(np.abs(vec)))
    sign = np.sign(vec[p]) * _det_sign(lam, diag, off, p)
    # u^m (-zeta*)^n / |zeta|^n = e^{i arg(-zeta) (m - n)}
    return sign * np.exp(1j * cmath.phase(-zeta) * (m[:-1] - n)) * vec, abs(off[-1] * vec[-1])


def _su11_ladder_state(k: float, n: int, zeta: complex) -> np.ndarray:
    """D(xi)|k, n> on the first ladder it is certified on, untrimmed: the
    ``_tilted_state`` of ladders of max(16, 2(n + 1)) states doubled up to
    MAX_LADDER_LENGTH, the first with tail residual r ≤ NCS_LADDER_TOL/2
    (the unit vector e_n at zeta = 0). TailError when none up to
    MAX_LADDER_LENGTH states meets the bound."""
    if zeta == 0:
        return (np.arange(n + 1) == n).astype(complex)
    length = max(16, 2 * (n + 1))
    while True:
        length = min(length, MAX_LADDER_LENGTH)
        state, resid = _tilted_state(AlgebraKind.SU11, k, n, zeta, length)
        if resid <= NCS_LADDER_TOL / 2:
            return state
        if length == MAX_LADDER_LENGTH:
            why = (
                "no level in the window around k + n" if state is None
                else f"tail residual {resid:.1e} > {NCS_LADDER_TOL / 2:.0e}"
            )
            raise TailError(f"coherent-state ladder not converged within {length} states ({why})")
        length *= 2


def su11_ncs_coefficients(
    k: float,
    n: int,
    zeta: complex,
    max_index: int | None = None,
) -> CoherentStateCoeffs:
    """Number coherent state |zeta, k, n> = D(xi)|k, n> in the discrete-series ladder.

    The certified ladder vector of ``_su11_ladder_state``, trimmed where its
    tail mass falls below NCS_TAIL_MASS. D G0 D† has the exact spectrum
    k + ℕ, so by the sin θ theorem (Davis & Kahan, SIAM J. Numer. Anal. 7,
    1970; Parlett, The Symmetric Eigenvalue Problem, §11) the angle φ of
    the ladder vector to D|k, n> has sin φ ≤ r/(1 - r), r its tail
    residual, and each coefficient lies within √2·r/(1 - r) <
    NCS_LADDER_TOL of its exact value. That bounds truncation only: the
    roundoff of the solve, growing as |zeta| -> 1, is not certified.
    ``max_index`` (default 100 000) bounds the trimmed state, not the
    ladders solved, so a state within it is the same bits at any
    ``max_index``. TailError when no ladder up to MAX_LADDER_LENGTH states
    meets the residual bound, or when the trimmed state reaches an index
    above ``max_index``; ValueError unless 0 < k < inf, |zeta| < 1 and
    n <= ``max_index``, and when ``max_index`` + 1 or n + 1 exceeds
    MAX_LADDER_LENGTH.
    """
    if not 0 < k < math.inf:
        raise ValueError(f"Bargmann index k must be positive and finite, got {k}")
    if not abs(zeta) < 1.0:
        raise ValueError("su(1,1) coherent states require |zeta| < 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    top = 100_000 if max_index is None else max_index
    _check_ladder_length(top + 1, "max_index + 1")
    _check_ladder_length(n + 1, "n + 1")
    if top < n:
        raise ValueError(f"max_index = {top} is below n = {n}")
    state = _su11_ladder_state(k, n, zeta)
    tail_mass = np.cumsum(np.abs(state[::-1]) ** 2)[::-1]
    coeffs = state[: np.count_nonzero(tail_mass >= NCS_TAIL_MASS)]
    if coeffs.size > top + 1:
        raise TailError(f"coherent state reaches index {coeffs.size - 1} above max_index={top}")
    return _norm_checked(CoherentStateCoeffs(zeta=zeta, coeffs=coeffs))


def _check_ladder_length(length: int, what: str) -> None:
    """ValueError, before anything is allocated, when ``length`` ladder states exceed the cap."""
    if length > MAX_LADDER_LENGTH:
        raise ValueError(
            f"{what} = {float(length):.6g} ladder states exceeds the cap of {MAX_LADDER_LENGTH}"
        )


def _norm_checked(state: CoherentStateCoeffs) -> CoherentStateCoeffs:
    """``state`` itself; ConvergenceError when |1 - norm²| > NCS_NORM_TOL."""
    defect = abs(1.0 - state.norm_sq)
    if not defect <= NCS_NORM_TOL:
        raise ConvergenceError(
            f"coherent-state coefficients lost their norm: |1 - norm^2| = {defect:.3e} "
            f"> {NCS_NORM_TOL:.0e}"
        )
    return state


def su2_ncs_coefficients(j: float, mu: float, zeta: complex) -> CoherentStateCoeffs:
    """|zeta, j, mu> = D(xi)|j, mu> over the 2j + 1 states: one exact
    ``_tilted_state``, the Wigner-d method of Feng et al., PRE 92, 043307 (2015).
    ValueError when 2j + 1 exceeds MAX_LADDER_LENGTH."""
    jp, jm = j + mu, j - mu
    if abs(jp - round(jp)) > 1e-9 or abs(jm - round(jm)) > 1e-9:
        raise ValueError("j + mu and j - mu must be integers")
    jp, jm = int(round(jp)), int(round(jm))
    if jp < 0 or jm < 0:
        raise ValueError("mu must lie in [-j, j]")
    _check_ladder_length(jp + jm + 1, "2j + 1")
    if not abs(zeta) * abs(zeta) < math.inf:
        raise ValueError("su(2) coherent states require a finite |zeta|^2")
    if zeta == 0:
        coeffs = np.zeros(jp + jm + 1, dtype=complex)
        coeffs[jp] = 1.0
        return CoherentStateCoeffs(zeta=zeta, coeffs=coeffs)
    coeffs, _ = _tilted_state(AlgebraKind.SU2, -0.5 * (jp + jm), jp, zeta, jp + jm + 1)
    if coeffs is None:
        raise ConvergenceError(f"inverse iteration missed the level mu = {mu} of the irrep")
    return _norm_checked(CoherentStateCoeffs(zeta=zeta, coeffs=coeffs))


def ncs_from_displacement(xi: complex, sector: SectorBasis, excitation: int) -> np.ndarray:
    """Matrix-action oracle: column of D(xi) over the sector ladder."""
    return displacement_direct(xi, sector, excitation)
