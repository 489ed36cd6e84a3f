"""Two-mode spin-boson models and their spinor eigenstates.

Two Hamiltonians on (two-level system) x (two bosonic modes):

    JC_AJC:  H = hbar [sigma_- (g a† + f b) + sigma_+ (g* a + f* b†)] + mc² sigma_z
    JC_JC:   H = hbar [sigma_- (g a† + f b†) + sigma_+ (g* a + f* b)] + mc² sigma_z

Writing the coupling block X (upper-right: X = g a† + f b or g a† + f b†),
the components of an eigenspinor (psi1, psi2) with energy E satisfy

    hbar X psi2 = (E - mc²) psi1,     hbar X† psi1 = (E + mc²) psi2,

so psi1 is an eigenvector of the second-order operator hbar² X X† and psi2
of hbar² X† X, both with eigenvalue E² - m²c⁴. X X† conserves the number
difference N_d for JC_AJC and the total number N_s for JC_JC, which makes
each charge sector an independent tridiagonal eigenproblem.

On a charge sector both second-order operators are built directly as
tridiagonal arrays from the closed ladder matrix elements of the untruncated
modes (a a† = n_a + 1 and b b† = n_b + 1 on every row): the sector's rows
of the infinite operator, a principal block of it. A cut su(1,1) ladder is
then the leading block of the same ladder at any larger cutoff, so by
Cauchy interlacing its k-th eigenvalue bounds theirs from above, and no
eigenpair is pinned to the cut. The full-space products
(``build_kg_operator`` on a FockBasis), the full Hamiltonian and the
``SectorPair`` bands keep hard truncation (raising past the cutoff
gives zero), the finite-space reference they are tested against; the
full-space helpers import scipy.sparse when called, so the sector code
loads without it. An eigenspinor lives on one (upper sector, lower sector)
pair joined by a bidiagonal block of X (``SectorPair``); its upper
component is the number coherent state D(xi)|n> that ``displace``
certifies (``tilted_number_state``), on its certified ladder untrimmed, and
the pair runs past that state unless a cutoff is given.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DomainError, EdgeStateError, SectorMismatchError
# get_sector stays bound here, unused: the benchmark's span tests (bench/)
# name models.get_sector as a by-name import to trace and restore.
from .fock import (  # noqa: F401
    ChargeKind,
    FockBasis,
    LadderKind,
    Mode,
    SectorBasis,
    get_sector,
    ladder_op,
    sector_basis,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

# Edge state test: |E² - m²c⁴| <= EDGE_REL_TOL hbar² (|f|² + |g|²)(n_l + m_n + 1),
# relative to the coupling, not to the rest energy m²c⁴.
EDGE_REL_TOL = 1e-12
_TINY = np.finfo(float).tiny  # smallest normal float64


class ModelKind(Enum):
    JC_AJC = "jc-ajc"  # su(1,1) symmetry, conserves N_d
    JC_JC = "jc-jc"  # su(2) symmetry, conserves N_s


class Component(Enum):
    UPPER = "upper"
    LOWER = "lower"


class Branch(Enum):
    PLUS = 1
    MINUS = -1


def conserved_charge(kind: ModelKind) -> ChargeKind:
    return ChargeKind.DIFFERENCE_ND if kind is ModelKind.JC_AJC else ChargeKind.SUM_NS


class _ModelParamsFields(NamedTuple):
    g: complex
    f: complex
    mc2: float
    hbar: float


class ModelParams(_ModelParamsFields):
    """Complex couplings (angular-frequency units), rest energy, hbar.

    Validated on construction; ``_replace`` skips the checks.
    """

    __slots__ = ()

    def __new__(cls, g: complex, f: complex, mc2: float = 1.0, hbar: float = 1.0):
        for name, value in (("g", g), ("f", f), ("mc2", mc2), ("hbar", hbar)):
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if math.isinf(abs(value) * abs(value)):  # every model squares each parameter
                raise OverflowError(f"{name}² overflows float64")
        if mc2 <= 0:
            raise ValueError("mc2 must be positive")
        if hbar <= 0:
            raise ValueError("hbar must be positive")
        if mc2 * mc2 < _TINY:  # m²c⁴ scales every relative check
            raise ValueError(f"mc2² underflows float64 (below {_TINY:.6g})")
        return tuple.__new__(cls, (g, f, mc2, hbar))


class SpinorState(NamedTuple):
    """Normalized two-component eigenstate over a FockBasis or a ``SectorPair``.

    ``lam`` is Lam = E² - m²c⁴, the closed form's coupling term (0 at an
    edge). ``edge`` marks one-component states whose partner component vanishes
    identically (|E| = mc²); ``partner_qn`` carries the relabeling of the
    lower component when it stays inside the (n_l >= 0, m_n >= 0) domain.
    """

    upper: np.ndarray
    lower: np.ndarray
    energy: float
    lam: float
    branch: Branch
    qn: tuple
    kind: ModelKind
    edge: bool = False
    partner_qn: tuple | None = None

    @property
    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.upper) ** 2) + np.sum(np.abs(self.lower) ** 2)))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.upper, self.lower])


def coupling_block(kind: ModelKind, p: ModelParams, basis: FockBasis) -> sp.csr_matrix:
    """Upper-right block X of the full Hamiltonian (without the hbar)."""
    a_dag = ladder_op(Mode.A, LadderKind.RAISE, basis)
    if kind is ModelKind.JC_AJC:
        b_or_bdag = ladder_op(Mode.B, LadderKind.LOWER, basis)
    else:
        b_or_bdag = ladder_op(Mode.B, LadderKind.RAISE, basis)
    return p.g * a_dag + p.f * b_or_bdag


def build_full_hamiltonian(kind: ModelKind, p: ModelParams, basis: FockBasis) -> sp.csr_matrix:
    """Full 2 dim(basis) Hamiltonian in (upper, lower) block order."""
    import scipy.sparse as sp

    hx = p.hbar * coupling_block(kind, p, basis)
    eye = sp.identity(basis.dim, dtype=complex)
    return sp.bmat([[p.mc2 * eye, hx], [hx.conj().T, -p.mc2 * eye]], format="csr")


@np.errstate(over="raise")  # a band past float64: an error whatever the warning filter
def sector_tridiagonal(
    kind: ModelKind, component: Component, p: ModelParams, sector: SectorBasis
) -> tuple:
    """(diag, offdiag) of the sector KG operator, in O(sector dim).

    ``diag`` is real; ``offdiag[i]`` is the complex element between sector
    states i + 1 (row) and i (column), which are joined by a† b† (JC_AJC)
    or a† b (JC_JC). Expanding X X† and X† X, the number terms are
    a† a = n and a a† = n + 1, untruncated on every row, so this is the
    sector's principal block of the infinite operator (not the projection
    of the hard-truncated products, which zero a a† at n = cutoff); the
    pair term is, in all four cases, hbar² g f* times
    ``sector.pair_amplitudes``, both states of a pair lying in the sector.
    SectorMismatchError when the sector charge is not the model's conserved
    quantity; FloatingPointError when a band element overflows float64.
    """
    if sector.charge_kind is not conserved_charge(kind):
        raise SectorMismatchError(
            f"{kind.value} conserves {conserved_charge(kind).value}, "
            f"got a {sector.charge_kind.value} sector"
        )
    na, nb = sector.occupations
    upper = component is Component.UPPER
    a_term = na if upper else na + 1.0
    # b b† appears in X X† for JC_AJC (X holds b) and in X† X for JC_JC.
    b_raised_first = upper == (kind is ModelKind.JC_AJC)
    b_term = nb + 1.0 if b_raised_first else nb
    h2 = p.hbar**2
    diag = h2 * (abs(p.g) ** 2 * a_term + abs(p.f) ** 2 * b_term)
    offdiag = h2 * p.g * np.conj(p.f) * sector.pair_amplitudes
    return diag.astype(float), offdiag.astype(complex)


def build_kg_operator(
    kind: ModelKind,
    component: Component,
    p: ModelParams,
    basis_or_sector,
) -> sp.csr_matrix:
    """Second-order operator whose eigenvalues are E² - m²c⁴.

    Upper component: hbar² X X†; lower component: hbar² X† X. Passing a
    SectorBasis gives the sector block assembled from
    ``sector_tridiagonal``, a principal block of the untruncated operator;
    passing a FockBasis forms the full-space products of the hard-truncated
    ladder matrices, the small-cutoff reference. The two differ only where
    a a† or b b† meets the cutoff.
    """
    import scipy.sparse as sp

    if isinstance(basis_or_sector, SectorBasis):
        diag, off = sector_tridiagonal(kind, component, p, basis_or_sector)
        return sp.diags([off, diag, off.conj()], [-1, 0, 1], dtype=complex, format="csr")

    x = coupling_block(kind, p, basis_or_sector)
    xd = x.conj().T.tocsr()
    kg = x @ xd if component is Component.UPPER else xd @ x
    return (p.hbar**2) * kg


class SectorPair(NamedTuple):
    """The charge sectors of a spinor's two components and the two bands of X between them.

    X† moves one charge quantum (N_d up for JC_AJC, N_s down for JC_JC), so
    an upper component on ``upper`` has its lower component on ``lower``,
    which is empty when X† leaves the truncated space. X_s, the block of X
    (without the hbar) from ``lower`` into ``upper``, is bidiagonal: lower
    state j (n_a, n_b) reaches upper row ``offset + j`` with ``f_band[j]``,
    f sqrt(n_b) by f b (JC_AJC) or f sqrt(n_b + 1) by f b† (JC_JC), and row
    ``offset + j + 1`` with ``g_band[j]`` = g sqrt(n_a + 1) by g a†. Each is
    zero where raising passes the cutoff (or where b meets n_b = 0), and
    only there does its row fall outside ``upper``; ``offset`` is -1 when
    ``lower`` holds one state more than ``upper``, else 0. X_s is the pair's
    block of ``coupling_block``, hard truncation included, so ``residual``
    checks a spinor against the pair's block of the finite-space
    Hamiltonian, as ``eigen_residual`` does on the full basis (unlike
    ``sector_tridiagonal``, which is untruncated).
    """

    params: ModelParams
    upper: SectorBasis
    lower: SectorBasis
    offset: int
    g_band: np.ndarray
    f_band: np.ndarray

    def apply_x(self, lower: np.ndarray) -> np.ndarray:
        """X_s l over ``upper``, in O(dim)."""
        out = np.zeros(self.upper.dim + 2, dtype=complex)  # rows -1 .. upper.dim
        k, n = self.offset + 1, self.lower.dim
        out[k:k + n] += self.f_band * lower
        out[k + 1:k + 1 + n] += self.g_band * lower
        return out[1:-1]

    def apply_x_dagger(self, upper: np.ndarray) -> np.ndarray:
        """X_s† u over ``lower``, in O(dim)."""
        padded = np.zeros(self.upper.dim + 2, dtype=complex)  # rows -1 .. upper.dim
        padded[1:-1] = upper
        k, n = self.offset + 1, self.lower.dim
        return np.conj(self.f_band) * padded[k:k + n] + np.conj(self.g_band) * padded[k + 1:k + 1 + n]

    def residual(self, state: SpinorState) -> float:
        """|| H psi - E psi || for a spinor (u, l) over the pair, from the blocks
        of H = [[mc², hbar X], [hbar X†, -mc²]], with no matrix of H formed.

        The factor that cancels on the spinor's branch, mc² - E on PLUS and
        mc² + E on MINUS, is formed from ``state.lam`` as -Lam/(E + mc²) and
        Lam/(E - mc²), so no eps·mc² rounding enters at large mc²."""
        p, u, l, e = self.params, state.upper, state.lower, state.energy
        if state.branch is Branch.PLUS:
            mc2_minus_e, mc2_plus_e = -state.lam / (e + p.mc2), p.mc2 + e
        else:
            mc2_minus_e, mc2_plus_e = p.mc2 - e, state.lam / (e - p.mc2)
        top = mc2_minus_e * u + p.hbar * self.apply_x(l)
        bottom = p.hbar * self.apply_x_dagger(u) - mc2_plus_e * l
        return float(np.linalg.norm(np.concatenate([top, bottom])))


def sector_pair(kind: ModelKind, p: ModelParams, upper: SectorBasis) -> SectorPair:
    """The ``SectorPair`` whose upper component lives on ``upper``, in O(dim).

    SectorMismatchError when the sector charge is not the model's conserved
    quantity.
    """
    if upper.charge_kind is not conserved_charge(kind):
        raise SectorMismatchError(
            f"{kind.value} conserves {conserved_charge(kind).value}, "
            f"got a {upper.charge_kind.value} sector"
        )
    cutoff = upper.parent_cutoff
    q = upper.charge_value + (1 if kind is ModelKind.JC_AJC else -1)
    try:
        lower = sector_basis(cutoff, upper.charge_kind, q)
    except ValueError:  # no state carries charge q: X† leaves the space
        lower = SectorBasis(upper.charge_kind, q, cutoff, np.empty(0, dtype=int))
    na, nb = lower.occupations
    # Both sectors run over consecutive n_a, so a target state's row is its
    # n_a minus the first n_a of ``upper``.
    offset = int(na[0] - upper.occupations[0][0]) if lower.dim else 0
    g_band = p.g * np.where(na < cutoff, np.sqrt(na + 1.0), 0.0)  # g a†
    if kind is ModelKind.JC_AJC:  # f b
        f_band = p.f * np.sqrt(nb.astype(float))
    else:  # f b†
        f_band = p.f * np.where(nb < cutoff, np.sqrt(nb + 1.0), 0.0)
    return SectorPair(p, upper, lower, offset, g_band, f_band)


def tilted_number_state(
    kind: ModelKind,
    p: ModelParams,
    n_l: int,
    m_n: int,
    cutoff: int | None = None,
    inner_sign: int = 1,
) -> tuple:
    """(pair, psi1): the upper component D(xi)|n> of the (n_l, m_n) level on its ``SectorPair``.

    psi1 is the Perelomov number coherent state with zeta =
    ``spectra.tilting_parameters(kind, p).zeta``, certified by ``displace``:
    the ladder vector of ``su11_ncs_coefficients((m_n + 1)/2, n_l, zeta)``
    before its output trim (``displace._su11_ladder_state``), on the
    N_d = -m_n ladder, coefficient r on the state (r + m_n, r), or
    ``su2_ncs_coefficients(N_s/2, r0 - N_s/2, zeta)`` on the whole
    N_s = 2 n_l + m_n irrep, coefficient r on (r, N_s - r), where r0 is
    n_l + m_n (inner sign +1) or n_l. With ``cutoff`` None the pair holds
    the whole state and its images under X† and X: the cutoff is the
    certified su(1,1) ladder's length + m_n, or the su(2) irrep is whole, so
    no raising meets the cut, and no trimmed amplitude of about the ladder
    tolerance meets it either. An explicit ``cutoff`` places the state on
    that cutoff's sectors, cut at the sector's end. DomainError for a
    negative label, or when the tilted number state lies outside the
    cutoff's sector.
    """
    from . import spectra
    from .displace import _su11_ladder_state, su2_ncs_coefficients

    if n_l < 0 or m_n < 0:
        raise DomainError("n_l and m_n must be nonnegative")
    # the ladder index r of a sector state is its n_b (JC_AJC) or n_a (JC_JC)
    if kind is ModelKind.JC_AJC:
        charge, occupation, row = -m_n, 1, n_l
    else:
        charge, occupation = 2 * n_l + m_n, 0
        row = n_l + m_n if inner_sign >= 0 else n_l
    first = 0  # r of the sector's first state
    if cutoff is not None:
        upper = sector_basis(cutoff, conserved_charge(kind), charge)
        first = int(upper.occupations[occupation][0])
        if not first <= row < first + upper.dim:
            raise DomainError(
                f"state (n_l={n_l}, m_n={m_n}) exceeds the cutoff-{cutoff} sector"
            )
    zeta = spectra.tilting_parameters(kind, p).zeta
    if kind is ModelKind.JC_AJC:
        state = _su11_ladder_state((m_n + 1) / 2.0, n_l, zeta)
    else:
        state = su2_ncs_coefficients(charge / 2.0, row - charge / 2.0, zeta).coeffs
    if cutoff is None:  # the state, and a row past it that X† and X raise into
        cutoff = state.size + m_n if kind is ModelKind.JC_AJC else charge + 1
        upper = sector_basis(cutoff, conserved_charge(kind), charge)
    state = state[first:first + upper.dim]
    psi1 = np.zeros(upper.dim, dtype=complex)
    psi1[:state.size] = state
    return sector_pair(kind, p, upper), psi1


def sector_spinor(
    kind: ModelKind,
    p: ModelParams,
    n_l: int,
    m_n: int,
    branch: Branch,
    cutoff: int | None = None,
    inner_sign: int = 1,
    tilted: tuple | None = None,
) -> tuple:
    """(spinor, pair): the eigenspinor of ``build_spinor`` on its ``SectorPair``.

    The upper component is ``tilted_number_state(kind, p, n_l, m_n, cutoff,
    inner_sign)``; a caller that builds both branches of a level passes that
    (pair, psi1) once as ``tilted``, and ``cutoff`` is then not read.
    ``spinor.upper`` and ``spinor.lower`` are vectors over ``pair.upper``
    and ``pair.lower``, so ``pair.residual(spinor)`` is the full-space
    residual at a sector pair's cost. The lower component is
    hbar X_s† psi1 / (E + mc²), from the pair's bands. Lam = E² - m²c⁴ is
    the closed form's coupling term: the level is an edge state when
    |Lam| <= EDGE_REL_TOL hbar² (|f|² + |g|²)(n_l + m_n + 1), and on the
    MINUS branch, where E + mc² cancels, it is formed as Lam / (E - mc²).
    """
    from . import spectra

    # the energy raises DomainError first for a negative n_l or m_n
    if kind is ModelKind.JC_AJC:
        energy = spectra.analytic_energy_su11(p, n_l, m_n, branch)
        lam = spectra._su11_sector_coupling(p, -m_n, n_l)
        partner = (n_l + 1, m_n - 2) if m_n >= 2 else None
    else:
        energy = spectra.analytic_energy_su2(p, n_l, m_n, branch, inner_sign)
        lam = spectra._su2_coupling_term(p, n_l, m_n, inner_sign)
        partner = (n_l - 1, m_n) if n_l >= 1 else None
    if tilted is None:
        tilted = tilted_number_state(kind, p, n_l, m_n, cutoff, inner_sign)
    pair, upper = tilted

    scale = p.hbar**2 * (abs(p.f) ** 2 + abs(p.g) ** 2) * (n_l + m_n + 1)
    if abs(lam) <= EDGE_REL_TOL * scale:
        if branch is Branch.MINUS:
            raise EdgeStateError(
                f"(n_l={n_l}, m_n={m_n}) has no lower-branch eigenvector of this form"
            )
        edge = SpinorState(
            upper=upper / np.linalg.norm(upper),
            lower=np.zeros(pair.lower.dim, dtype=complex),
            energy=p.mc2,
            lam=0.0,
            branch=branch,
            qn=(n_l, m_n),
            kind=kind,
            edge=True,
            partner_qn=partner,
        )
        return edge, pair

    # psi2 = hbar X† psi1 / (E + mc²); on the MINUS branch the sum cancels,
    # and E + mc² = Lam / (E - mc²) does not.
    e_plus_mc2 = energy + p.mc2 if branch is Branch.PLUS else lam / (energy - p.mc2)
    lower = p.hbar * pair.apply_x_dagger(upper) / e_plus_mc2
    norm = np.sqrt(np.sum(np.abs(upper) ** 2) + np.sum(np.abs(lower) ** 2))
    spinor = SpinorState(
        upper=upper / norm,
        lower=lower / norm,
        energy=energy,
        lam=lam,
        branch=branch,
        qn=(n_l, m_n),
        kind=kind,
        edge=False,
        partner_qn=partner,
    )
    return spinor, pair


def build_spinor(
    kind: ModelKind,
    p: ModelParams,
    n_l: int,
    m_n: int,
    branch: Branch,
    basis: FockBasis,
    inner_sign: int = 1,
) -> SpinorState:
    """Eigenspinor with the analytic energy of the (n_l, m_n) level, over ``basis``.

    The upper component is the tilted number state mapped back by the
    displacement operator: the certified number coherent state
    (``tilted_number_state``), cut at the end of the basis's sector. The
    lower component follows exactly from the coupled first-order equation,
    which fixes its phase and gives the amplitude split |upper|² = (E + mc²)/2E, |lower|² = (E - mc²)/2E.
    Both are built on their ``SectorPair`` (``sector_spinor``) and embedded.

    The coupling moves one charge quantum, so the lower component is the
    displaced number state of the adjacent sector (one angular quantum
    down). ``partner_qn`` instead records the (n_l+1, m_n-2) / (n_l-1, m_n)
    relabeling conventionally quoted with these spinors, which reproduces
    the same energy; it is spectral bookkeeping, not the state mapping.

    At |E| = mc² the partner component vanishes identically: the PLUS
    branch returns a flagged one-component spinor, the MINUS branch has no
    eigenvector with these labels and raises EdgeStateError.
    """
    spinor, pair = sector_spinor(kind, p, n_l, m_n, branch, basis.cutoff, inner_sign)
    return spinor._replace(
        upper=pair.upper.embed(spinor.upper, basis.dim),
        lower=pair.lower.embed(spinor.lower, basis.dim),
    )


def eigen_residual(h_full: sp.csr_matrix, state: SpinorState) -> float:
    """|| H psi - E psi || for a spinor over the same basis."""
    vec = state.as_vector()
    return float(np.linalg.norm(h_full @ vec - state.energy * vec))
