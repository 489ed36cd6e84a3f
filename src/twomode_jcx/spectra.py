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

with the su(2) inner sign selecting mu = ±m_n/2. The hyperbolic tilting
angle satisfies tanh(theta) = 2|f||g|/S (su(1,1), diverges at |f| = |g|) and
tan(theta) = 2|f||g|/(|g|² - |f|²) taken in [0, pi) (su(2)); the phase
-arg(f* g) kills the G± coefficients, which is verified numerically rather
than assumed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
# la stays bound here: the benchmark's span tests (bench/) trace its
# eigensolvers as spectra.la.
import scipy.linalg as la  # noqa: F401

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


class InnerSign(Enum):
    PLUS = 1
    MINUS = -1
    NA = 0


@dataclass(frozen=True)
class EnergyLevel:
    energy: float
    branch: Branch
    inner_sign: InnerSign
    n_l: int
    m_n: int

    @property
    def energy_sq(self) -> float:
        return self.energy**2


def su11_sector_energy_sq(p: ModelParams, d: int, n: int) -> float:
    """E² of the n-th level in the N_d = d sector of the JC_AJC model.

    hbar² [ Lam (n + (|d|+1)/2) + (Dlt/2)(d+1) ] + m²c⁴; for d = -m_n this
    is the (n_l, m_n) closed form, for d > 0 it is the mirror family.
    """
    fa2, ga2 = abs(p.f) ** 2, abs(p.g) ** 2
    lam = abs(fa2 - ga2)
    dlt = fa2 - ga2
    val = p.hbar**2 * (lam * (n + (abs(d) + 1) / 2.0) + 0.5 * dlt * (d + 1))
    return val + p.mc2**2


def su11_energy_sq(p: ModelParams, n_l: int, m_n: int) -> float:
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


def analytic_energy_su11(
    p: ModelParams, n_l: int, m_n: int, branch: Branch = Branch.PLUS
) -> EnergyLevel:
    """Closed-form JC_AJC energy; general formula is the authority."""
    if n_l < 0 or m_n < 0:
        raise DomainError("n_l and m_n must be nonnegative")
    e_sq = su11_energy_sq(p, n_l, m_n)
    if e_sq < 0:
        raise DomainError(
            f"negative radicand {e_sq} at n_l={n_l}, m_n={m_n}, f={p.f}, g={p.g}"
        )
    e = math.sqrt(e_sq)
    return EnergyLevel(
        energy=e if branch is Branch.PLUS else -e,
        branch=branch,
        inner_sign=InnerSign.NA,
        n_l=n_l,
        m_n=m_n,
    )


def su2_energy_sq(p: ModelParams, n_l: int, m_n: int, inner_sign: int = 1) -> float:
    """General closed form for E² of the JC_JC model (inner sign = sign of mu).

    The radical sqrt((|g|² - |f|²)² + 4|g|²|f|²) is S, written so it cannot cancel."""
    s = abs(p.f) ** 2 + abs(p.g) ** 2
    val = p.hbar**2 * s * (n_l + m_n / 2.0 + inner_sign * 0.5 * m_n)
    return val + p.mc2**2


def su2_energy_sq_rewritten(p: ModelParams, n_l: int, m_n: int, inner_sign: int = 1) -> float:
    """Same spectrum via E² = m²c⁴ (1 + (hbar²/2m²c⁴) S (N ± m_n)), N = 2 n_l + m_n."""
    fa2, ga2 = abs(p.f) ** 2, abs(p.g) ** 2
    s = fa2 + ga2
    n_tot = 2 * n_l + m_n
    return p.mc2**2 * (
        1.0 + (p.hbar**2 / (2.0 * p.mc2**2)) * s * (n_tot + inner_sign * m_n)
    )


def analytic_energy_su2(
    p: ModelParams,
    n_l: int,
    m_n: int,
    branch: Branch = Branch.PLUS,
    inner_sign: int = 1,
) -> EnergyLevel:
    """Closed-form JC_JC energy."""
    if n_l < 0 or m_n < 0:
        raise DomainError("n_l and m_n must be nonnegative")
    e_sq = su2_energy_sq(p, n_l, m_n, inner_sign)
    if e_sq < 0:
        raise DomainError(
            f"negative radicand {e_sq} at n_l={n_l}, m_n={m_n} (inner {inner_sign})"
        )
    e = math.sqrt(e_sq)
    return EnergyLevel(
        energy=e if branch is Branch.PLUS else -e,
        branch=branch,
        inner_sign=InnerSign.PLUS if inner_sign >= 0 else InnerSign.MINUS,
        n_l=n_l,
        m_n=m_n,
    )


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


@dataclass(frozen=True)
class TiltingReport:
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
        d = sector.charge_value
        n = np.arange(sector.dim)
        diag = h2 * (abs(fa2 - ga2) * (n + (abs(d) + 1) / 2.0) + 0.5 * (fa2 - ga2) * (d + 1))
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
    convergence_tol: float = 1e-9,
) -> np.ndarray:
    """Lowest ``count`` E² values of the sector KG operator, ascending.

    Brute-force oracle: the sector operator is built as a tridiagonal from
    the closed ladder matrix elements (``models.sector_tridiagonal``) and
    solved on (diag, |offdiag|) by ``tridiag``, the package's one LAPACK
    tridiagonal eigensolver; that phase gauge is a diagonal unitary
    similarity, so it leaves the eigenvalues and |eigenvector| entries
    unchanged.

    An N_s sector is a finite su(2) irrep whatever the cutoff of
    ``sector``: it is solved whole (``fock.su2_irrep``, N_s + 1 states, no
    truncated term), by one eigenvalue-only solve of indices
    0..count - 1, so ``count`` may reach N_s + 1. An N_d sector is a cut
    su(1,1) ladder: it keeps interior-supported eigenpairs only
    (``tridiag.interior_eigenvalues``) and is certified by rebuilding it
    at twice the cutoff, demanding relative agreement below
    ``convergence_tol`` (NotConvergedError otherwise, or when fewer than
    ``count`` interior eigenvalues exist). The doubled solve starts with
    as many indices as the cutoff needed, since the artifacts it rejected
    are invariant under doubling.
    """
    if sector.charge_kind is ChargeKind.SUM_NS:
        sector = su2_irrep(sector.charge_value)
    if not 1 <= count <= sector.dim:
        raise ValueError(f"requested {count} levels from a dim-{sector.dim} sector")
    diag, off = sector_tridiagonal(kind, component, p, sector)
    if sector.charge_kind is ChargeKind.SUM_NS:
        vals = tridiag.eigh(
            diag, np.abs(off), eigvals_only=True, select="i", select_range=(0, count - 1)
        )
        return vals + p.mc2**2

    lowest, rejected = tridiag.interior_eigenvalues(diag, off, count)
    doubled = sector_basis(2 * sector.parent_cutoff, sector.charge_kind, sector.charge_value)
    vals2, _ = tridiag.interior_eigenvalues(
        *sector_tridiagonal(kind, component, p, doubled), count, first=count + rejected
    )
    scale = np.maximum(np.abs(vals2), p.mc2**2)
    change = np.max(np.abs(lowest - vals2) / scale)
    if change > convergence_tol:
        raise NotConvergedError(
            f"cutoff doubling moved eigenvalues by {change:.3e} "
            f"(> {convergence_tol:.1e}); raise the cutoff"
        )
    return vals2 + p.mc2**2


# ---------------------------------------------------------------------------
# Special-case presets


@dataclass(frozen=True)
class Dirac1p1:
    """1+1 oscillator limit of the JC_AJC model: g = 0, f = sqrt(omega mc²/hbar)."""

    omega: float

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")


@dataclass(frozen=True)
class Dirac2p1:
    """2+1 oscillator limit of the JC_JC model: f = g = sqrt(2 mc² omega/hbar)."""

    omega: float

    def __post_init__(self):
        if self.omega < 0:
            raise ValueError("omega must be nonnegative")


@dataclass(frozen=True)
class NondegenerateParametricAmplifier:
    """g = i sqrt(2 mc² w1/hbar) e^{-i phase}, f = sqrt(2 mc² w2/hbar) e^{+i phase}."""

    omega1: float
    omega2: float
    phase: float = 0.0

    def __post_init__(self):
        if self.omega1 < 0 or self.omega2 < 0:
            raise ValueError("frequencies must be nonnegative")


@dataclass(frozen=True)
class CoupledOscillators:
    """g = sqrt(2 mc² w1/hbar) e^{-i phase}, f = sqrt(2 mc² w2/hbar) e^{+i phase}."""

    omega1: float
    omega2: float
    phase: float = 0.0

    def __post_init__(self):
        if self.omega1 < 0 or self.omega2 < 0:
            raise ValueError("frequencies must be nonnegative")


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
) -> EnergyLevel:
    """Parametric-amplifier spectrum:

        E² = m²c⁴ + hbar mc² [ 2 sqrt((w1+w2)² - 4 w1 w2)(n_l + m/2 + 1/2)
                               - (w2 - w1)(m - 1) ].

    Identical to the general su(1,1) formula at the amplifier preset (the
    two couplings have |g|² = 2 mc² w1/hbar and |f|² = 2 mc² w2/hbar, so the
    radical collapses to 2 mc² |w2 - w1| / hbar).
    """
    rad = math.sqrt((omega1 + omega2) ** 2 - 4.0 * omega1 * omega2)
    e_sq = mc2**2 + hbar * mc2 * (
        2.0 * rad * (n_l + m / 2.0 + 0.5) - (omega2 - omega1) * (m - 1)
    )
    if e_sq < 0:
        raise DomainError(f"negative radicand {e_sq} for amplifier spectrum")
    e = math.sqrt(e_sq)
    return EnergyLevel(
        energy=e if branch is Branch.PLUS else -e,
        branch=branch,
        inner_sign=InnerSign.NA,
        n_l=n_l,
        m_n=m,
    )


def coupled_osc_energy(
    omega1: float,
    omega2: float,
    j: float,
    mu: float,
    branch: Branch = Branch.PLUS,
    mc2: float = 1.0,
    hbar: float = 1.0,
) -> EnergyLevel:
    """Coupled-oscillator spectrum in group labels:

        E = ± mc² sqrt(1 + (2 hbar/mc²) (w1 + w2)(j + mu))

    using sqrt((w1-w2)² + 4 w1 w2) = w1 + w2. Equals the general su(2)
    formula at the coupled-oscillator preset.
    """
    rad = math.sqrt((omega1 - omega2) ** 2 + 4.0 * omega1 * omega2)
    e_sq = mc2**2 * (1.0 + (2.0 * hbar / mc2) * rad * (j + mu))
    if e_sq < 0:
        raise DomainError("negative radicand for coupled-oscillator spectrum")
    e = math.sqrt(e_sq)
    n_l = int(round(j - abs(mu)))
    m_n = int(round(2 * abs(mu)))
    return EnergyLevel(
        energy=e if branch is Branch.PLUS else -e,
        branch=branch,
        inner_sign=InnerSign.PLUS if mu >= 0 else InnerSign.MINUS,
        n_l=n_l,
        m_n=m_n,
    )


# ---------------------------------------------------------------------------
# Non-relativistic limits


@dataclass(frozen=True)
class LimitReport:
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


def nonrelativistic_limit_check(
    case,
    charge: int,
    index: int,
    scale: float,
    cutoff: int = 160,
) -> LimitReport:
    """Compare E - mc² against the weak-coupling spectrum at large mc²/(hbar w).

    ``eps_model`` is the exact relativistic E - mc² for the level ``index``
    (ascending) of the given charge sector; ``eps_analytic`` is the matching
    eigenvalue of the limit Hamiltonian obtained by sector diagonalization,
    shifted by the constant the second-order reduction leaves behind
    (hbar w2 for the amplifier; zero for the coupled oscillators). The
    relative error decays like 1/scale.

    ``cutoff`` decides which sectors exist (ValueError otherwise). The
    coupled oscillators' N_s sector is then solved whole, as its su(2)
    irrep (``fock.su2_irrep``), so any N_s <= 2 cutoff and index <= N_s is
    exact; the amplifier's N_d sector is the su(1,1) ladder cut at
    ``cutoff``, solved once and not certified by doubling.
    """
    hbar = 1.0
    if not isinstance(case, (NondegenerateParametricAmplifier, CoupledOscillators)):
        raise TypeError("limit check applies to the amplifier and coupled-oscillator cases")
    if not 0 < scale < math.inf:
        raise ValueError(f"limit scale must be positive and finite, got {scale}")
    wbar = 0.5 * (case.omega1 + case.omega2)
    mc2 = scale * hbar * (wbar if wbar > 0 else 1.0)
    p, kind = special_case_params(case, mc2=mc2, hbar=hbar)

    sector = sector_basis(cutoff, conserved_charge(kind), charge)
    if kind is ModelKind.JC_JC:
        sector = su2_irrep(charge)
    if not 0 <= index < sector.dim:
        raise ValueError(f"index {index} outside the dim-{sector.dim} sector")

    if kind is ModelKind.JC_AJC:
        e_sq = su11_sector_energy_sq(p, charge, index)
        offset = hbar * case.omega2
    else:
        s = abs(p.f) ** 2 + abs(p.g) ** 2
        e_sq = p.mc2**2 + p.hbar**2 * s * index
        offset = 0.0
    eps_model = math.sqrt(e_sq) - mc2

    diag, off = _nonrel_tridiagonal(case, sector)
    level = tridiag.eigh(
        diag, np.abs(off), eigvals_only=True, select="i", select_range=(index, index)
    )
    eps_analytic = float(level[0]) + offset
    return LimitReport(
        case=type(case).__name__,
        scale=scale,
        charge=charge,
        index=index,
        eps_model=eps_model,
        eps_analytic=eps_analytic,
        offset=offset,
    )


def limit_decay_exponent(case, charge: int, index: int, scales) -> float:
    """Log-log slope of the limit error across ``scales`` (expects ~ -1).

    ValueError unless ``scales`` holds at least two distinct values and
    every error is positive (an exact limit has no slope).
    """
    if len(set(scales)) < 2:
        raise ValueError(f"decay exponent needs at least two distinct scales, got {list(scales)}")
    errs = [
        nonrelativistic_limit_check(case, charge, index, s).rel_error for s in scales
    ]
    if not all(e > 0 for e in errs):
        raise ValueError(f"decay exponent undefined: limit errors {errs} are not all positive")
    slope = np.polyfit(np.log(np.asarray(scales)), np.log(np.asarray(errs)), 1)[0]
    return float(slope)
