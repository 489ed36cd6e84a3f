"""Closed-form spectra, tilting diagonalization, presets, and limits.

Notation: S = |f|² + |g|², Dlt = |f|² - |g|², Lam = sqrt(S² - 4|f|²|g|²)
(= |Dlt| identically). The second-order (Klein-Gordon-type) operator of each
model splits per charge sector; eliminating the ladder terms by conjugation
with a displacement operator leaves

    JC_AJC:  H' = hbar² [ Lam K0 + (Dlt/2)(N_d + 1) ]
    JC_JC:   H' = hbar² [ (S/2) N_s + S J0 ]

whose diagonal gives the closed-form spectra

    JC_AJC:  E² = m²c⁴ + hbar² [ Lam (n_l + m_n/2 + 1/2) - (Dlt/2)(m_n - 1) ]
    JC_JC:   E² = m²c⁴ + hbar² [ S (n_l + m_n/2) ± (S/2) m_n ]

with the su(2) inner sign selecting mu = ±m_n/2. Both closed forms (and the
signed energies ``analytic_energy_su11``/``analytic_energy_su2``) are
array-valued: integer-array labels give one value per element, bit-identical
to the scalar result at that element. The hyperbolic tilting
angle satisfies tanh(theta) = 2|f||g|/S (su(1,1), diverges at |f| = |g|) and
tan(theta) = 2|f||g|/(|g|² - |f|²) taken in [0, pi) (su(2)); the phase
-arg(f* g) kills the G± coefficients, which is verified numerically rather
than assumed.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from . import tridiag
from .displace import TiltingParams, displacement_direct
from .errors import DegenerateCouplingError, DomainError, NotConvergedError
from .fock import ChargeKind, SectorBasis, sector_basis, su2_irrep
from .liealg import AlgebraKind
from .models import (
    Branch,
    Component,
    ModelKind,
    ModelParams,
    conserved_charge,
    sector_tridiagonal,
)


def __getattr__(name):
    # la (scipy.linalg) is bound on first access, for the benchmark alone: its
    # span tests (bench/) trace the eigensolvers of spectra.la. No command reads
    # it, so no command pays for importing scipy.linalg.
    if name == "la":
        global la
        import scipy.linalg as la
        return la
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The closed forms take scalar or integer-array labels; each array element is
# bit-identical to the scalar result, and a term that overflows gives inf
# (or nan) as a Python float does, not a numpy warning.
_FLOAT_SEMANTICS = np.errstate(over="ignore", invalid="ignore")


@_FLOAT_SEMANTICS
def _su11_sector_coupling(p: ModelParams, d, n):
    """hbar² [ Lam (n + (|d|+1)/2) + (Dlt/2)(d+1) ]: E² - m²c⁴ of the n-th
    level in the N_d = d sector of the JC_AJC model, and the diagonal of
    that sector's tilted operator."""
    fa2, ga2 = abs(p.f) ** 2, abs(p.g) ** 2
    lam = abs(fa2 - ga2)
    dlt = fa2 - ga2
    return p.hbar**2 * (lam * (n + (abs(d) + 1) / 2.0) + 0.5 * dlt * (d + 1))


@_FLOAT_SEMANTICS
def su11_sector_energy_sq(p: ModelParams, d, n):
    """E² of the n-th level in the N_d = d sector of the JC_AJC model.

    hbar² [ Lam (n + (|d|+1)/2) + (Dlt/2)(d+1) ] + m²c⁴; for d = -m_n this
    is the (n_l, m_n) closed form, for d > 0 it is the mirror family.
    """
    return _su11_sector_coupling(p, d, n) + p.mc2**2


def su11_energy_sq(p: ModelParams, n_l, m_n):
    """General closed form for E² of the JC_AJC model: the N_d = -m_n sector's
    n_l-th level."""
    return su11_sector_energy_sq(p, -m_n, n_l)


def su11_energy_sq_simplified(p: ModelParams, n_l: int) -> float:
    """(|f| > |g| only) E² = m²c⁴ + hbar² (|f|² - |g|²)(n_l + 1).

    Algebraically identical to the general form when |f| > |g|; for
    |g| > |f| the general form reduces to hbar² (|g|²-|f|²)(n_l + m_n)
    instead and this function is out of its domain.
    """
    fa2, ga2 = abs(p.f) ** 2, abs(p.g) ** 2
    if fa2 < ga2:
        raise DomainError("simplified form assumes |f| > |g|")
    return p.mc2**2 + p.hbar**2 * (fa2 - ga2) * (n_l + 1)


def su11_energy_sq_rewritten(p: ModelParams, n_l: int) -> float:
    """One-parameter rewritten form, kept verbatim:

        E² = m²c⁴ (1 + (2 hbar²/m²c⁴)(|f|² - |g|²)(n_l + 1)).

    Carries twice the coupling term of the general formula (and of the
    brute-force spectra); ``su11_energy_sq_simplified`` is the internally
    consistent reduction. Retained because the conventional one-mode
    oscillator preset quotes its spectrum through this form.
    """
    fa2, ga2 = abs(p.f) ** 2, abs(p.g) ** 2
    return p.mc2**2 * (
        1.0 + (2.0 * p.hbar**2 / p.mc2**2) * (fa2 - ga2) * (n_l + 1)
    )


def _signed_energy(e_sq_of, p: ModelParams, n_l, m_n, branch: Branch, *inner):
    """``branch``-signed sqrt of ``e_sq_of(p, n_l, m_n, *inner)``: a float,
    or an array over array labels. DomainError for a negative label, or for
    a negative radicand, named by its first element."""
    if np.any(np.less(n_l, 0)) or np.any(np.less(m_n, 0)):
        raise DomainError("n_l and m_n must be nonnegative")
    e_sq = e_sq_of(p, n_l, m_n, *inner)
    negative = np.less(e_sq, 0)
    if np.any(negative):
        first = int(np.argmax(negative))
        e_sq, n_l, m_n, *inner = (
            x.item(first) for x in np.broadcast_arrays(e_sq, n_l, m_n, *inner)
        )
        where = f" (inner {inner[0]})" if inner else f", f={p.f}, g={p.g}"
        raise DomainError(f"negative radicand {e_sq} at n_l={n_l}, m_n={m_n}{where}")
    # a scalar stays a Python float, whose ** raises OverflowError
    e = math.sqrt(e_sq) if np.ndim(e_sq) == 0 else np.sqrt(e_sq)
    return e if branch is Branch.PLUS else -e


def analytic_energy_su11(p: ModelParams, n_l, m_n, branch: Branch = Branch.PLUS):
    """Closed-form JC_AJC energy of ``branch``; general formula is the authority."""
    return _signed_energy(su11_energy_sq, p, n_l, m_n, branch)


@_FLOAT_SEMANTICS
def _su2_coupling_term(p: ModelParams, n_l, m_n, inner_sign=1):
    """hbar² S (n_l + m_n/2 ± m_n/2): E² - m²c⁴ of the JC_JC model.

    The radical sqrt((|g|² - |f|²)² + 4|g|²|f|²) is S, written so it cannot cancel."""
    s = abs(p.f) ** 2 + abs(p.g) ** 2
    return p.hbar**2 * s * (n_l + m_n / 2.0 + inner_sign * 0.5 * m_n)


@_FLOAT_SEMANTICS
def su2_energy_sq(p: ModelParams, n_l, m_n, inner_sign=1):
    """General closed form for E² of the JC_JC model (inner sign = sign of mu)."""
    return _su2_coupling_term(p, n_l, m_n, inner_sign) + p.mc2**2


def su2_energy_sq_rewritten(p: ModelParams, n_l: int, m_n: int, inner_sign: int = 1) -> float:
    """Same spectrum via E² = m²c⁴ (1 + (hbar²/2m²c⁴) S (N ± m_n)), N = 2 n_l + m_n."""
    fa2, ga2 = abs(p.f) ** 2, abs(p.g) ** 2
    s = fa2 + ga2
    n_tot = 2 * n_l + m_n
    return p.mc2**2 * (
        1.0 + (p.hbar**2 / (2.0 * p.mc2**2)) * s * (n_tot + inner_sign * m_n)
    )


def analytic_energy_su2(p: ModelParams, n_l, m_n, branch: Branch = Branch.PLUS, inner_sign=1):
    """Closed-form JC_JC energy of ``branch``."""
    return _signed_energy(su2_energy_sq, p, n_l, m_n, branch, inner_sign)


def tilting_parameters(kind: ModelKind, p: ModelParams) -> TiltingParams:
    """Displacement parameters that cancel the ladder terms of the model.

    The phase is fixed by the elimination condition: with
    xi/|xi| = -e^{i arg(f* g)} the G+ coefficient of the conjugated operator
    is proportional to -S alpha/2 + |f||g|(2 beta + 1) (su(1,1)) or
    -(|g|²-|f|²) delta/2 + |f||g|(2 eps + 1) (su(2)), whose zeros give the
    angles in the module docstring. This branch also leaves the su(2)
    diagonal with a +S J0 coefficient. The su(2) angle is atan2 at every
    coupling, pi at g = 0; the su(1,1) model needs no tilt when f g = 0.
    """
    fa, ga = abs(p.f), abs(p.g)
    algebra = AlgebraKind.SU11 if kind is ModelKind.JC_AJC else AlgebraKind.SU2
    chi = cmath.phase(np.conj(p.f) * p.g)
    if kind is ModelKind.JC_AJC:
        if fa * ga == 0.0:
            return TiltingParams(algebra=algebra, theta=0.0, phi=0.0)
        ratio = 2.0 * fa * ga / (fa**2 + ga**2)
        if ratio >= 1.0 - 1e-15:
            raise DegenerateCouplingError(
                f"|f| = |g| (f={p.f}, g={p.g}): hyperbolic tilting angle diverges"
            )
        theta = math.atanh(ratio)
    else:
        theta = math.atan2(2.0 * fa * ga, ga**2 - fa**2)
    return TiltingParams(algebra=algebra, theta=theta, phi=-chi)


class TiltingReport(NamedTuple):
    max_offdiag: float
    max_diag_dev: float
    diag_scale: float

    @property
    def max_offdiag_rel(self) -> float:
        return self.max_offdiag / self.diag_scale

    @property
    def max_diag_dev_rel(self) -> float:
        return self.max_diag_dev / self.diag_scale


def _predicted_tilted_diagonal(
    kind: ModelKind, component: Component, p: ModelParams, sector: SectorBasis
) -> np.ndarray:
    fa2, ga2 = abs(p.f) ** 2, abs(p.g) ** 2
    h2 = p.hbar**2
    if kind is ModelKind.JC_AJC:
        diag = _su11_sector_coupling(p, sector.charge_value, np.arange(sector.dim))
        if component is Component.LOWER:
            diag = diag - h2 * (fa2 - ga2)
        return diag
    n_tot = sector.charge_value
    na, nb = sector.occupations
    mu = (na - nb) / 2.0
    s = fa2 + ga2
    diag = h2 * (0.5 * s * n_tot + s * mu)
    if component is Component.LOWER:
        diag = diag + h2 * s
    return diag


def verify_tilting(
    kind: ModelKind,
    p: ModelParams,
    sector: SectorBasis,
    params: TiltingParams | None = None,
    component: Component = Component.UPPER,
    keep: int | None = None,
) -> TiltingReport:
    """Conjugate the sector KG operator and compare with the reduced form.

    Reports the largest off-diagonal element and the largest deviation of
    the diagonal from the predicted reduced form, both over the lowest
    ``keep`` states (entire sector when ``keep`` is None). That block is
    C† KG C with C = D[:, :keep], so only those displacement columns are
    formed, and KG C comes from the sector tridiagonal in three banded
    products (the layout of ``build_kg_operator``).
    """
    if params is None:
        params = tilting_parameters(kind, p)
    sl = slice(None) if keep is None else slice(0, keep)
    c = displacement_direct(params.xi, sector, sl)
    kg_diag, kg_off = sector_tridiagonal(kind, component, p, sector)
    kg_c = kg_diag[:, None] * c
    kg_c[1:] += kg_off[:, None] * c[:-1]
    kg_c[:-1] += kg_off.conj()[:, None] * c[1:]
    block = c.conj().T @ kg_c
    predicted = _predicted_tilted_diagonal(kind, component, p, sector)[sl]
    diag = np.diag(block)
    off = block - np.diag(diag)
    scale = max(float(np.max(np.abs(predicted))), abs(p.hbar**2) * max(abs(p.f), abs(p.g)) ** 2, 1e-300)
    return TiltingReport(
        max_offdiag=float(np.max(np.abs(off))) if off.size else 0.0,
        max_diag_dev=float(np.max(np.abs(diag - predicted))),
        diag_scale=scale,
    )


def numeric_spectrum(
    kind: ModelKind,
    component: Component,
    p: ModelParams,
    sector: SectorBasis,
    count: int,
) -> np.ndarray:
    """Lowest ``count`` E² values of the sector KG operator, ascending.

    Brute-force oracle: the sector operator is built as a tridiagonal from
    the closed ladder matrix elements (``models.sector_tridiagonal``) and
    solved on (diag, |offdiag|) by ``tridiag``, the package's one LAPACK
    tridiagonal eigensolver; that phase gauge is a diagonal unitary
    similarity, so it leaves the eigenvalues and |eigenvector| entries
    unchanged. ``_certified_lowest`` certifies the levels to
    SPECTRUM_DOUBLING_TOL, relative with scale floor m²c⁴.
    """
    bands_of = functools.partial(sector_tridiagonal, kind, component, p)
    return _certified_lowest(bands_of, sector, count, SPECTRUM_DOUBLING_TOL, p.mc2**2) + p.mc2**2


def _certified_lowest(bands_of, sector: SectorBasis, count: int, tol: float, floor: float):
    """The lowest ``count`` eigenvalues, ascending and certified, of the
    tridiagonal (diag, offdiag) = ``bands_of(sector)``.

    An N_s sector is a finite su(2) irrep whatever the cutoff of
    ``sector``: it is solved whole (``fock.su2_irrep``, N_s + 1 states, no
    truncated term), so ``count`` may reach N_s + 1. Its low eigenvectors
    sit in a band of its rows, so its levels are certified from a seed on
    a window of them: a coarse bisection and inverse iteration there, and
    one count on the whole irrep, each level within twice the bisection
    bound of its exact value (``tridiag.whole_ladder_eigenvalues``). Small
    irreps, many levels, zero couplings and failed checks take one
    eigenvalue-only index solve (``_lowest``) instead.

    An N_d sector is a cut su(1,1) ladder: the leading block of the
    untruncated ladder, so by Cauchy interlacing each of its eigenvalues
    bounds the doubled ladder's and the infinite ladder's from above. It is
    certified against the same ladder cut at twice the cutoff, built alone
    (the cut ladder is its leading rows): for each of the lowest ``count``
    levels, the move under doubling plus the error bounds of both
    bisections (``tridiag.bisection_bound``), relative with scale floor
    ``floor``, must not exceed ``tol``. The low levels' eigenvectors decay
    geometrically up the ladder, so the shortcut (``_seeded_doubling``)
    certifies them from their support: one count of the doubled ladder's
    eigenvalues up to the top of narrow disjoint windows around a seed of
    the cut ladder (``tridiag.leading_block_eigenvalues``), bisecting
    nothing. When a check of the shortcut fails (slow decay, clustered
    levels, a small cutoff), the general path (``_doubled_lowest``) solves
    both ladders by index and compares them; it alone raises
    NotConvergedError. Where the shortcut certifies, the general path
    certifies the same levels, and both return the doubled ladder's values
    to roundoff.
    """
    if sector.charge_kind is ChargeKind.SUM_NS:
        sector = su2_irrep(sector.charge_value)
    if not 1 <= count <= sector.dim:
        raise ValueError(f"requested {count} levels from a dim-{sector.dim} sector")
    if sector.charge_kind is ChargeKind.SUM_NS:
        bands = bands_of(sector)
        cut = tridiag.whole_ladder_eigenvalues(*bands, count)
        return _lowest(bands, count) if cut is None else cut[0]

    doubled = sector_basis(2 * sector.parent_cutoff, sector.charge_kind, sector.charge_value)
    diag2, off2 = bands_of(doubled)
    vals2 = _seeded_doubling((diag2, off2), sector.dim, count, tol, floor)
    bands = (diag2[: sector.dim], off2[: sector.dim - 1])
    return _doubled_lowest(bands, (diag2, off2), count, tol, floor) if vals2 is None else vals2


def _lowest(bands, count):
    """The lowest ``count`` eigenvalues of the tridiagonal ``bands`` =
    (diag, off), by one eigenvalue-only index solve on (diag, |off|)."""
    diag, off = bands
    return tridiag.eigh(diag, np.abs(off), eigvals_only=True, select="i", select_range=(0, count - 1))


def _seeded_doubling(bands2, cut, count, tol, floor):
    """The lowest ``count`` levels of the doubled ladder ``bands2`` when a
    seed of its leading ``cut`` rows, the cut ladder, certifies both within
    ``tol`` (``tridiag.leading_block_eigenvalues``); None otherwise.

    The count on the doubled ladder puts its k-th level within resid_k of
    theta_k; the cut ladder's is no lower (Cauchy interlacing) and, with an
    eigenvalue in each disjoint window, no higher than theta_k + resid_k.
    So a bisection of either lies within its half-width (residual plus its
    bisection bound) of theta_k, and their sum bounds the doubling move of
    the general path. With both bisection bounds added, as there, over a
    scale the doubled level cannot undercut, floored at ``floor`` (m²c⁴),
    the general path certifies whatever this certifies.
    """
    seeded = tridiag.leading_block_eigenvalues(*bands2, count, cut)
    if seeded is None:
        return None
    vals2, width, width2, bound, bound2 = seeded
    scale = np.maximum(np.abs(vals2) - 2 * width2, floor)
    return vals2 if np.max((width + width2 + (bound + bound2)) / scale) <= tol else None


def _doubled_lowest(bands, bands2, count, tol, floor):
    """The general path: the lowest ``count`` levels of the cut ladder
    ``bands`` and of the doubled one ``bands2``, each by one index solve;
    the doubled ones, when at every level the doubling move plus the two
    bisection bounds, over max(|level|, ``floor``), is at most ``tol``.
    NotConvergedError otherwise, reporting the move and the bound of the
    worst level apart."""
    vals, vals2 = _lowest(bands, count), _lowest(bands2, count)
    scale = np.maximum(np.abs(vals2), floor)
    move = np.abs(vals - vals2) / scale
    bound = (tridiag.bisection_bound(*bands) + tridiag.bisection_bound(*bands2)) / scale
    worst = int(np.argmax(move + bound))
    if not move[worst] + bound[worst] <= tol:
        raise NotConvergedError(
            f"cutoff doubling moved eigenvalues by {move[worst]:.3e}, with a bisection "
            f"error bound of {bound[worst]:.3e} (sum > {tol:.1e}); raise the cutoff "
            "when the move dominates"
        )
    return vals2


# ---------------------------------------------------------------------------
# Special-case presets


# Each preset is a NamedTuple subclass whose ``__new__`` validates; presets
# are told apart by type (``special_case_params``), never by value.
class _OneModeFields(NamedTuple):
    omega: float


class _OneModePreset(_OneModeFields):
    __slots__ = ()

    def __new__(cls, omega: float):
        if omega < 0:
            raise ValueError("omega must be nonnegative")
        return tuple.__new__(cls, (omega,))


class Dirac1p1(_OneModePreset):
    """1+1 oscillator limit of the JC_AJC model: g = 0, f = sqrt(omega mc²/hbar)."""

    __slots__ = ()


class Dirac2p1(_OneModePreset):
    """2+1 oscillator limit of the JC_JC model: f = g = sqrt(2 mc² omega/hbar)."""

    __slots__ = ()


class _TwoModeFields(NamedTuple):
    omega1: float
    omega2: float
    phase: float


class _TwoModePreset(_TwoModeFields):
    __slots__ = ()

    def __new__(cls, omega1: float, omega2: float, phase: float = 0.0):
        if omega1 < 0 or omega2 < 0:
            raise ValueError("frequencies must be nonnegative")
        return tuple.__new__(cls, (omega1, omega2, phase))


class NondegenerateParametricAmplifier(_TwoModePreset):
    """g = i sqrt(2 mc² w1/hbar) e^{-i phase}, f = sqrt(2 mc² w2/hbar) e^{+i phase}."""

    __slots__ = ()


class CoupledOscillators(_TwoModePreset):
    """g = sqrt(2 mc² w1/hbar) e^{-i phase}, f = sqrt(2 mc² w2/hbar) e^{+i phase}."""

    __slots__ = ()


def special_case_params(case, mc2: float = 1.0, hbar: float = 1.0):
    """(ModelParams, ModelKind) realizing a named special case."""
    for name, value in (("mc2", mc2), ("hbar", hbar)):
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if isinstance(case, Dirac1p1):
        f = math.sqrt(case.omega * mc2 / hbar)
        return ModelParams(g=0.0, f=f, mc2=mc2, hbar=hbar), ModelKind.JC_AJC
    if isinstance(case, Dirac2p1):
        f = math.sqrt(2.0 * mc2 * case.omega / hbar)
        return ModelParams(g=f, f=f, mc2=mc2, hbar=hbar), ModelKind.JC_JC
    if isinstance(case, NondegenerateParametricAmplifier):
        g = 1j * math.sqrt(2.0 * mc2 * case.omega1 / hbar) * cmath.exp(-1j * case.phase)
        f = math.sqrt(2.0 * mc2 * case.omega2 / hbar) * cmath.exp(1j * case.phase)
        return ModelParams(g=g, f=f, mc2=mc2, hbar=hbar), ModelKind.JC_AJC
    if isinstance(case, CoupledOscillators):
        g = math.sqrt(2.0 * mc2 * case.omega1 / hbar) * cmath.exp(-1j * case.phase)
        f = math.sqrt(2.0 * mc2 * case.omega2 / hbar) * cmath.exp(1j * case.phase)
        return ModelParams(g=g, f=f, mc2=mc2, hbar=hbar), ModelKind.JC_JC
    raise TypeError(f"unknown special case {case!r}")


def ndpa_energy(
    omega1: float,
    omega2: float,
    n_l: int,
    m: int,
    branch: Branch = Branch.PLUS,
    mc2: float = 1.0,
    hbar: float = 1.0,
) -> float:
    """Parametric-amplifier energy of ``branch``:

        E² = m²c⁴ + hbar mc² [ 2 sqrt((w1+w2)² - 4 w1 w2)(n_l + m/2 + 1/2)
                               - (w2 - w1)(m - 1) ].

    Identical to the general su(1,1) formula at the amplifier preset (the
    two couplings have |g|² = 2 mc² w1/hbar and |f|² = 2 mc² w2/hbar, so the
    radical collapses to 2 mc² |w2 - w1| / hbar). The radical is evaluated
    as |w2 - w1|, which cannot cancel when w1 ≈ w2.
    """
    rad = abs(omega2 - omega1)
    e_sq = mc2**2 + hbar * mc2 * (
        2.0 * rad * (n_l + m / 2.0 + 0.5) - (omega2 - omega1) * (m - 1)
    )
    if e_sq < 0:
        raise DomainError(f"negative radicand {e_sq} for amplifier spectrum")
    e = math.sqrt(e_sq)
    return e if branch is Branch.PLUS else -e


def coupled_osc_energy(
    omega1: float,
    omega2: float,
    j: float,
    mu: float,
    branch: Branch = Branch.PLUS,
    mc2: float = 1.0,
    hbar: float = 1.0,
) -> float:
    """Coupled-oscillator energy of ``branch``, in group labels:

        E = ± mc² sqrt(1 + (2 hbar/mc²) (w1 + w2)(j + mu))

    using sqrt((w1-w2)² + 4 w1 w2) = w1 + w2. Equals the general su(2)
    formula at the coupled-oscillator preset.
    """
    rad = math.sqrt((omega1 - omega2) ** 2 + 4.0 * omega1 * omega2)
    e_sq = mc2**2 * (1.0 + (2.0 * hbar / mc2) * rad * (j + mu))
    if e_sq < 0:
        raise DomainError("negative radicand for coupled-oscillator spectrum")
    e = math.sqrt(e_sq)
    return e if branch is Branch.PLUS else -e


# ---------------------------------------------------------------------------
# Non-relativistic limits


SPECTRUM_DOUBLING_TOL = 1e-9  # certifies numeric_spectrum, relative with scale floor m²c⁴
LIMIT_DOUBLING_TOL = 1e-9
LIMIT_CUTOFF = 160  # which limit sectors exist; an amplifier ladder is cut here


class LimitReport(NamedTuple):
    case: str
    scale: float
    charge: int
    index: int
    eps_model: float
    eps_analytic: float
    offset: float

    @property
    def rel_error(self) -> float:
        denom = max(abs(self.eps_model), 1e-300)
        return abs(self.eps_model - self.eps_analytic) / denom


def _nonrel_tridiagonal(case, sector: SectorBasis) -> tuple:
    """(diag, offdiag) of the weak-coupling limit Hamiltonian (hbar = 1).

    w1 n_a + w2 n_b plus the pair coupling i chi e^{-2i phase} a† b† + h.c.
    (amplifier, N_d sectors) or chi e^{-2i phase} a† b + h.c. (coupled
    oscillators, N_s sectors), chi = sqrt(w1 w2); ``offdiag`` is laid out
    as in ``models.sector_tridiagonal``.
    """
    na, nb = sector.occupations
    chi = math.sqrt(case.omega1 * case.omega2) * cmath.exp(-2j * case.phase)
    if isinstance(case, NondegenerateParametricAmplifier):
        chi *= 1j
    diag = (case.omega1 * na + case.omega2 * nb).astype(float)
    return diag, chi * sector.pair_amplitudes


def nonrelativistic_limit_check(case, charge: int, index: int, scale: float) -> LimitReport:
    """Compare E - mc² against the weak-coupling spectrum at large mc²/(hbar w).

    ``eps_model`` is the exact relativistic E - mc² for the level ``index``
    (ascending) of the given charge sector; ``eps_analytic`` is the matching
    eigenvalue of the limit Hamiltonian obtained by sector diagonalization,
    shifted by the constant the second-order reduction leaves behind
    (hbar w2 for the amplifier; zero for the coupled oscillators). The
    relative error decays like 1/scale.

    LIMIT_CUTOFF decides which sectors exist (ValueError otherwise). The level
    is certified by ``_certified_lowest`` to LIMIT_DOUBLING_TOL, relative
    with scale floor w1 + w2 (or 1 when both vanish; the amplifier's level
    1 sits at roundoff of 0). ``eps_model`` is Lam/(E + mc²), with
    Lam = E² - m²c⁴ the closed form's coupling term, so it cannot cancel.
    """
    return nonrelativistic_limit_checks(case, charge, index, [scale])[0]


def nonrelativistic_limit_checks(case, charge: int, index: int, scales) -> list:
    """``nonrelativistic_limit_check`` at each of ``scales``, in order.

    The limit Hamiltonian (hbar = 1) does not depend on the scale, so its
    level is solved and certified once, by the first scale that reaches it;
    every check before it runs per scale, in the same order as one call per
    scale, so each error is the one the first failing call would raise.
    """
    hbar = 1.0
    if not isinstance(case, (NondegenerateParametricAmplifier, CoupledOscillators)):
        raise TypeError("limit check applies to the amplifier and coupled-oscillator cases")
    level, reports = None, []
    for scale in scales:
        if not 0 < scale < math.inf:
            raise ValueError(f"limit scale must be positive and finite, got {scale}")
        wbar = 0.5 * (case.omega1 + case.omega2)
        mc2 = scale * hbar * (wbar if wbar > 0 else 1.0)
        p, kind = special_case_params(case, mc2=mc2, hbar=hbar)

        sector = sector_basis(LIMIT_CUTOFF, conserved_charge(kind), charge)
        if kind is ModelKind.JC_JC:
            sector = su2_irrep(charge)
        if not 0 <= index < sector.dim:
            raise ValueError(f"index {index} outside the dim-{sector.dim} sector")

        if kind is ModelKind.JC_AJC:
            lam = _su11_sector_coupling(p, charge, index)
            offset = hbar * case.omega2
        else:
            lam = _su2_coupling_term(p, index, 0)
            offset = 0.0
        eps_model = lam / (math.sqrt(lam + mc2**2) + mc2)

        if level is None:
            bands_of = functools.partial(_nonrel_tridiagonal, case)
            floor = case.omega1 + case.omega2 if wbar > 0 else 1.0
            levels = _certified_lowest(bands_of, sector, index + 1, LIMIT_DOUBLING_TOL, floor)
            level = float(levels[index])
        reports.append(LimitReport(
            case=type(case).__name__,
            scale=scale,
            charge=charge,
            index=index,
            eps_model=eps_model,
            eps_analytic=level + offset,
            offset=offset,
        ))
    return reports


def limit_decay_exponent(case, charge: int, index: int, scales) -> float:
    """Log-log slope of the limit error across ``scales`` (expects ~ -1),
    from ``nonrelativistic_limit_checks``; see ``decay_exponent``."""
    return decay_exponent(nonrelativistic_limit_checks(case, charge, index, scales))


def decay_exponent(reports) -> float:
    """Log-log slope of the relative errors of limit ``reports`` against their
    scales (expects ~ -1).

    ValueError unless the reports hold at least two distinct scales and
    every error is positive (an exact limit has no slope).
    """
    scales = [r.scale for r in reports]
    if len(set(scales)) < 2:
        raise ValueError(f"decay exponent needs at least two distinct scales, got {scales}")
    errs = [r.rel_error for r in reports]
    if not all(e > 0 for e in errs):
        raise ValueError(f"decay exponent undefined: limit errors {errs} are not all positive")
    slope = np.polyfit(np.log(np.asarray(scales)), np.log(np.asarray(errs)), 1)[0]
    return float(slope)
