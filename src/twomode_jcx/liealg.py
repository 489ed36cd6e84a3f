"""Jordan-Schwinger realizations of su(1,1) and su(2) on two bosonic modes.

su(1,1):  K0 = (a†a + b†b + 1)/2,  K+ = a†b†,  K- = ba, with
[K0, K±] = ±K± and [K-, K+] = 2K0. The number difference N_d = b†b - a†a
commutes with all three generators and fixes the Bargmann index
k = (|N_d| + 1)/2 of each sector; the Casimir is K² = N_d²/4 - 1/4.

su(2):  J0 = (a†a - b†b)/2,  J+ = a†b,  J- = b†a, with [J0, J±] = ±J± and
[J+, J-] = 2J0. The total number N_s = a†a + b†b commutes with everything
and each N_s sector carries the spin-j representation with j = N_s/2;
the Casimir is J² = (N_s/2)(N_s/2 + 1).

The closure checks (``verify_sector_algebra``) and the displacement
machinery work per sector from ``sector_generators``, in closed form; the
full-space generators (CSR) and ``verify_algebra`` are the reference they
are tested against. They are built by ``fock``'s full-space helpers, which
import scipy.sparse when called; this module never imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from . import fock
from .errors import NonIntegerError
from .fock import (
    ChargeKind,
    FockBasis,
    LadderKind,
    Mode,
    SectorBasis,
    commutator,
)

if TYPE_CHECKING:
    import scipy.sparse as sp


class AlgebraKind(Enum):
    SU11 = "su11"
    SU2 = "su2"


@dataclass(frozen=True)
class Su11Generators:
    k0: sp.csr_matrix
    k_plus: sp.csr_matrix
    k_minus: sp.csr_matrix
    basis: FockBasis

    @property
    def algebra(self) -> AlgebraKind:
        return AlgebraKind.SU11


@dataclass(frozen=True)
class Su2Generators:
    j0: sp.csr_matrix
    j_plus: sp.csr_matrix
    j_minus: sp.csr_matrix
    basis: FockBasis

    @property
    def algebra(self) -> AlgebraKind:
        return AlgebraKind.SU2


def su11_generators(basis: FockBasis) -> Su11Generators:
    a = fock.ladder_op(Mode.A, LadderKind.LOWER, basis)
    b = fock.ladder_op(Mode.B, LadderKind.LOWER, basis)
    a_dag = fock.ladder_op(Mode.A, LadderKind.RAISE, basis)
    b_dag = fock.ladder_op(Mode.B, LadderKind.RAISE, basis)
    na = fock.number_op(Mode.A, basis)
    nb = fock.number_op(Mode.B, basis)
    k0 = 0.5 * (na + nb + fock.identity_op(basis))
    return Su11Generators(k0=k0, k_plus=a_dag @ b_dag, k_minus=b @ a, basis=basis)


def su2_generators(basis: FockBasis) -> Su2Generators:
    a = fock.ladder_op(Mode.A, LadderKind.LOWER, basis)
    b = fock.ladder_op(Mode.B, LadderKind.LOWER, basis)
    a_dag = fock.ladder_op(Mode.A, LadderKind.RAISE, basis)
    b_dag = fock.ladder_op(Mode.B, LadderKind.RAISE, basis)
    na = fock.number_op(Mode.A, basis)
    nb = fock.number_op(Mode.B, basis)
    j0 = 0.5 * (na - nb)
    return Su2Generators(j0=j0, j_plus=a_dag @ b, j_minus=b_dag @ a, basis=basis)


def sector_algebra(sector: SectorBasis) -> AlgebraKind:
    """su(1,1) acts within N_d sectors, su(2) within N_s sectors."""
    if sector.charge_kind is ChargeKind.DIFFERENCE_ND:
        return AlgebraKind.SU11
    return AlgebraKind.SU2


def sector_generators(sector: SectorBasis) -> tuple:
    """(G0 diagonal, G+ subdiagonal) of the sector's algebra, in closed form.

    G0 is (n_a + n_b + 1)/2 on N_d sectors and (n_a - n_b)/2 on N_s
    sectors; G+ (a† b† or a† b) joins state i to i + 1 with amplitude
    ``sector.pair_amplitudes``, and G- is the transpose of G+. Equal to the
    projections of the full-space generators, boundary rows included.
    """
    na, nb = sector.occupations
    su11 = sector_algebra(sector) is AlgebraKind.SU11
    return 0.5 * (na + nb + 1 if su11 else na - nb), sector.pair_amplitudes


def generator_triple(gens):
    """(G0, G+, G-) for either algebra."""
    if isinstance(gens, Su11Generators):
        return gens.k0, gens.k_plus, gens.k_minus
    return gens.j0, gens.j_plus, gens.j_minus


def casimir(gens) -> sp.csr_matrix:
    """K² = K0² - (K+K- + K-K+)/2 for su(1,1); J² = J0² + (J+J- + J-J+)/2."""
    g0, gp, gm = generator_triple(gens)
    cross = 0.5 * (gp @ gm + gm @ gp)
    if isinstance(gens, Su11Generators):
        return g0 @ g0 - cross
    return g0 @ g0 + cross


@dataclass(frozen=True)
class AlgebraReport:
    """Max interior residual per commutation identity.

    ``residuals`` holds the closure relations, adjointness and charge
    commutation (absolute residuals; entries are O(cutoff) so these sit at
    the float epsilon). ``casimir_residuals`` are normalized by the Casimir
    magnitude, which grows like cutoff² and would otherwise dominate the
    roundoff budget.
    """

    algebra: AlgebraKind
    margin: int
    residuals: dict
    casimir_residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def max_casimir_residual(self) -> float:
        return max(self.casimir_residuals.values())


def _column_residual(mat: sp.csr_matrix, columns: np.ndarray) -> float:
    return fock._absmax(mat.tocsc()[:, columns])


def verify_algebra(gens, interior_margin: int = 1) -> AlgebraReport:
    """Check the commutation relations on interior states.

    Residual for each identity is the largest matrix element of
    (commutator - expected) over columns whose state has both occupations
    at most cutoff - margin. The raising operators push one quantum out of
    a margin-1 interior at most, so margin >= 1 suffices for exactness.
    """
    basis = gens.basis
    cols = basis.interior_indices(interior_margin)
    # The Casimir contains G+G- and G-G+, so its commutators move two quanta
    # before coming back; they need one extra unit of headroom.
    cols_cas = basis.interior_indices(interior_margin + 1)
    g0, gp, gm = generator_triple(gens)
    su11 = isinstance(gens, Su11Generators)
    cas = casimir(gens)
    nd_or_ns = fock.charge_op(
        ChargeKind.DIFFERENCE_ND if su11 else ChargeKind.SUM_NS, basis
    )

    residuals = {}
    residuals["[G0,G+] - G+"] = _column_residual(commutator(g0, gp) - gp, cols)
    residuals["[G0,G-] + G-"] = _column_residual(commutator(g0, gm) + gm, cols)
    if su11:
        residuals["[G-,G+] - 2G0"] = _column_residual(
            commutator(gm, gp) - 2.0 * g0, cols
        )
    else:
        residuals["[G+,G-] - 2G0"] = _column_residual(
            commutator(gp, gm) - 2.0 * g0, cols
        )
    residuals["G+ - (G-)†"] = fock._absmax(gp - gm.conj().T)
    for name, g in (("G0", g0), ("G+", gp), ("G-", gm)):
        residuals[f"[charge,{name}]"] = _column_residual(commutator(nd_or_ns, g), cols)
    cas_scale = max(1.0, fock._absmax(cas))
    casimir_residuals = {}
    for name, g in (("G0", g0), ("G+", gp), ("G-", gm)):
        casimir_residuals[f"[Casimir,{name}]"] = (
            _column_residual(commutator(cas, g), cols_cas) / cas_scale
        )
    return AlgebraReport(
        algebra=gens.algebra,
        margin=interior_margin,
        residuals=residuals,
        casimir_residuals=casimir_residuals,
    )


def _interior_max(band: np.ndarray, columns: np.ndarray) -> float:
    """Largest |entry| of one band over the entries that sit in ``columns``."""
    return float(np.max(np.abs(band[columns]), initial=0.0))


def verify_sector_algebra(
    cutoff: int, algebra: AlgebraKind, interior_margin: int = 1
) -> AlgebraReport:
    """``verify_algebra`` of the cutoff-``cutoff`` generators, sector by sector.

    Ordered by charge, the full space is block tridiagonal: each sector
    contributes its ``sector_generators`` (G0 diagonal, G+ subdiagonal) and
    neighbouring sectors join with zero amplitude. So every commutator and
    the Casimir are banded, and each residual is read off one band over the
    same interior columns, with the same Casimir scale, in O((cutoff + 1)²).
    The charge is read from each state's occupations. The sector form
    stores G- as the transpose of G+'s real amplitudes, so the adjointness
    residual is zero by construction; it is kept so both reports carry the
    same identities.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    su11 = algebra is AlgebraKind.SU11
    kind = ChargeKind.DIFFERENCE_ND if su11 else ChargeKind.SUM_NS
    diag, sub, occ_a, occ_b = [], [], [], []
    for q in fock.sector_charges(cutoff, kind):
        sec = fock.sector_basis(cutoff, kind, q)
        g0, amp = sector_generators(sec)
        na, nb = sec.occupations
        diag.append(g0)
        sub.append(np.append(amp, 0.0))  # zero join to the next sector
        occ_a.append(na)
        occ_b.append(nb)
    d = np.concatenate(diag)
    s = np.concatenate(sub)[:-1]
    na, nb = np.concatenate(occ_a), np.concatenate(occ_b)
    charge = (nb - na if su11 else na + nb).astype(float)

    def columns(margin):
        # diagonal, lower-band and upper-band entries in interior columns
        top = cutoff - margin
        inside = (na <= top) & (nb <= top)
        return inside, inside[:-1], inside[1:]

    def bracket(a):
        # [diag(a), G+] on its lower band; [diag(a), G-] is minus it, upper band
        return a[1:] * s - s * a[:-1]

    cols, lower, upper = columns(interior_margin)
    # G-G+ carries s_i² on the diagonal, G+G- carries s_(i-1)².
    s_next, s_prev = np.append(s, 0.0) ** 2, np.append(0.0, s) ** 2
    residuals = {}
    residuals["[G0,G+] - G+"] = _interior_max(bracket(d) - s, lower)
    residuals["[G0,G-] + G-"] = _interior_max(s - bracket(d), upper)
    if su11:
        residuals["[G-,G+] - 2G0"] = _interior_max(s_next - s_prev - 2.0 * d, cols)
    else:
        residuals["[G+,G-] - 2G0"] = _interior_max(s_prev - s_next - 2.0 * d, cols)
    residuals["G+ - (G-)†"] = 0.0
    residuals["[charge,G0]"] = _interior_max(charge * d - d * charge, cols)
    residuals["[charge,G+]"] = _interior_max(bracket(charge), lower)
    residuals["[charge,G-]"] = _interior_max(-bracket(charge), upper)

    cross = 0.5 * (s_prev + s_next)
    cas = d * d - cross if su11 else d * d + cross
    cas_scale = max(1.0, float(np.max(np.abs(cas))))
    cols, lower, upper = columns(interior_margin + 1)
    casimir_residuals = {
        "[Casimir,G0]": _interior_max(cas * d - d * cas, cols) / cas_scale,
        "[Casimir,G+]": _interior_max(bracket(cas), lower) / cas_scale,
        "[Casimir,G-]": _interior_max(-bracket(cas), upper) / cas_scale,
    }
    return AlgebraReport(
        algebra=algebra,
        margin=interior_margin,
        residuals=residuals,
        casimir_residuals=casimir_residuals,
    )


@dataclass(frozen=True)
class GroupLabels:
    """Group quantum numbers attached to a physical state (n_l, m_n).

    su(1,1): n = n_l and k = (m_n + 1)/2 (Bargmann index).
    su(2):   j = n_l + m_n/2 and mu = m_n/2.

    The physical state |n_l, m_n> is realized as the two-mode number state
    (n_a, n_b) = (n_l + m_n, n_l); this is the unique assignment under
    which K0, N_d, J0 and N_s all take their conventional eigenvalues for
    m_n >= 0.
    """

    algebra: AlgebraKind
    n_l: int
    m_n: int

    @property
    def k(self) -> float:
        if self.algebra is not AlgebraKind.SU11:
            raise ValueError("k is an su(1,1) label")
        return 0.5 * (self.m_n + 1)

    @property
    def n(self) -> int:
        if self.algebra is not AlgebraKind.SU11:
            raise ValueError("n is an su(1,1) label")
        return self.n_l

    @property
    def j(self) -> float:
        if self.algebra is not AlgebraKind.SU2:
            raise ValueError("j is an su(2) label")
        return self.n_l + 0.5 * self.m_n

    @property
    def mu(self) -> float:
        if self.algebra is not AlgebraKind.SU2:
            raise ValueError("mu is an su(2) label")
        return 0.5 * self.m_n

    def two_mode_state(self):
        """(n_a, n_b) realization of this state."""
        return (self.n_l + self.m_n, self.n_l)


def group_labels_from_physical(algebra: AlgebraKind, n_l: int, m_n: int) -> GroupLabels:
    if n_l < 0 or m_n < 0:
        raise ValueError("n_l and m_n must be nonnegative integers")
    return GroupLabels(algebra=algebra, n_l=int(n_l), m_n=int(m_n))


def _as_nonneg_int(x: float, what: str) -> int:
    rounded = round(x)
    if abs(x - rounded) > 1e-9 or rounded < 0:
        raise NonIntegerError(f"{what} = {x} is not a nonnegative integer")
    return int(rounded)


def physical_from_group_labels(algebra: AlgebraKind, **labels) -> GroupLabels:
    """Inverse mapping; raises NonIntegerError when n_l or m_n are not
    nonnegative integers."""
    if algebra is AlgebraKind.SU11:
        k, n = labels["k"], labels["n"]
        n_l = _as_nonneg_int(n, "n_l")
        m_n = _as_nonneg_int(2 * k - 1, "m_n")
    else:
        j, mu = labels["j"], labels["mu"]
        n_l = _as_nonneg_int(j - mu, "n_l")
        m_n = _as_nonneg_int(2 * mu, "m_n")
    return GroupLabels(algebra=algebra, n_l=n_l, m_n=m_n)
