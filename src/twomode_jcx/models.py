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
``SectorPair`` coupling block keep hard truncation (raising past the cutoff
gives zero), the finite-space reference they are tested against; the
full-space helpers import scipy.sparse when called, so the sector code
loads without it. An eigenspinor lives on one (upper sector, lower sector)
pair joined by a bidiagonal block of X (``SectorPair``).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    EdgeStateError,
    SectorMismatchError,
    SingularBranchError,
)
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

    ``edge`` marks one-component states whose partner component vanishes
    identically (|E| = mc²); ``partner_qn`` carries the relabeling of the
    lower component when it stays inside the (n_l >= 0, m_n >= 0) domain.
    """

    upper: np.ndarray
    lower: np.ndarray
    energy: float
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
    """The charge sectors of a spinor's two components and the coupling block between them.

    X† moves one charge quantum (N_d up for JC_AJC, N_s down for JC_JC), so
    an upper component on ``upper`` has its lower component on ``lower``,
    which is empty when X† leaves the truncated space. ``coupling`` is X_s,
    the block of X (without the hbar) from ``lower`` into ``upper``: dense,
    with g sqrt(n_a + 1) on one band and f sqrt(n_b) (JC_AJC) or
    f sqrt(n_b + 1) (JC_JC) on the other, and zero where raising passes the
    cutoff. It is the pair's block of ``coupling_block``, hard truncation
    included, so ``hamiltonian`` is the pair's block of the finite-space
    Hamiltonian that ``eigen_residual`` checks spinors against (unlike
    ``sector_tridiagonal``, which is untruncated).
    """

    params: ModelParams
    upper: SectorBasis
    lower: SectorBasis
    coupling: np.ndarray

    @property
    def hamiltonian(self) -> np.ndarray:
        """H on the pair, dense: its block of ``build_full_hamiltonian``."""
        p = self.params
        hx = p.hbar * self.coupling
        return np.block([
            [p.mc2 * np.eye(self.upper.dim), hx],
            [hx.conj().T, -p.mc2 * np.eye(self.lower.dim)],
        ])


def sector_pair(kind: ModelKind, p: ModelParams, upper: SectorBasis) -> SectorPair:
    """The ``SectorPair`` whose upper component lives on ``upper``, in O(dim²).

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
    # n_a minus the first n_a of ``upper``; every target inside the
    # truncated space lies in ``upper``.
    first = int(upper.occupations[0][0])
    col = np.arange(lower.dim)
    x = np.zeros((upper.dim, lower.dim), dtype=complex)
    raised = na < cutoff  # g a†: (n_a, n_b) -> (n_a + 1, n_b)
    x[na[raised] + 1 - first, col[raised]] = p.g * np.sqrt(na[raised] + 1.0)
    if kind is ModelKind.JC_AJC:  # f b: (n_a, n_b) -> (n_a, n_b - 1)
        moved, amp = nb > 0, np.sqrt(nb.astype(float))
    else:  # f b†: (n_a, n_b) -> (n_a, n_b + 1)
        moved, amp = nb < cutoff, np.sqrt(nb + 1.0)
    x[na[moved] - first, col[moved]] = p.f * amp[moved]
    return SectorPair(params=p, upper=upper, lower=lower, coupling=x)


def _lower_component(p: ModelParams, energy: float, x, upper: np.ndarray) -> np.ndarray:
    """psi2 = hbar X† psi1 / (E + mc²) for the coupling (block) ``x``."""
    if abs(energy + p.mc2) <= EDGE_REL_TOL * p.mc2:
        raise SingularBranchError("lower component not reconstructible at E = -mc^2")
    return p.hbar * (x.conj().T @ np.asarray(upper, dtype=complex)) / (energy + p.mc2)


def lower_from_upper(
    kind: ModelKind,
    p: ModelParams,
    energy: float,
    upper: np.ndarray,
    basis: FockBasis,
) -> np.ndarray:
    """psi2 = hbar X† psi1 / (E + mc²) over the full basis, unnormalized."""
    return _lower_component(p, energy, coupling_block(kind, p, basis), upper)


def _tilted_state_position(kind: ModelKind, n_l: int, m_n: int, inner_sign: int):
    """(sector charge, position of the tilted number state inside it)."""
    if kind is ModelKind.JC_AJC:
        # Sector N_d = -m_n holds states (n + m_n, n); position = n_l.
        return -m_n, n_l
    if inner_sign >= 0:
        # mu = +m_n/2: state (n_l + m_n, n_l), position = n_a.
        return 2 * n_l + m_n, n_l + m_n
    # mu = -m_n/2: state (n_l, n_l + m_n).
    return 2 * n_l + m_n, n_l


def sector_spinor(
    kind: ModelKind,
    p: ModelParams,
    n_l: int,
    m_n: int,
    branch: Branch,
    cutoff: int,
    inner_sign: int = 1,
) -> tuple:
    """(spinor, pair): the eigenspinor of ``build_spinor`` on its ``SectorPair``.

    ``spinor.upper`` and ``spinor.lower`` are vectors over ``pair.upper``
    and ``pair.lower``, so ``eigen_residual(pair.hamiltonian, spinor)`` is
    the full-space residual at a sector pair's cost.
    """
    from . import spectra
    from .displace import displacement_direct

    # the energy raises DomainError first for a negative n_l or m_n
    if kind is ModelKind.JC_AJC:
        energy = spectra.analytic_energy_su11(p, n_l, m_n, branch)
    else:
        energy = spectra.analytic_energy_su2(p, n_l, m_n, branch, inner_sign)

    tilt = spectra.tilting_parameters(kind, p)
    charge, pos = _tilted_state_position(kind, n_l, m_n, inner_sign)
    pair = sector_pair(kind, p, sector_basis(cutoff, conserved_charge(kind), charge))
    if pos >= pair.upper.dim:
        raise DomainError(
            f"state (n_l={n_l}, m_n={m_n}) exceeds the cutoff-{cutoff} sector"
        )
    upper = displacement_direct(tilt.xi, pair.upper, pos)

    if kind is ModelKind.JC_AJC:
        partner = (n_l + 1, m_n - 2) if m_n >= 2 else None
    else:
        partner = (n_l - 1, m_n) if n_l >= 1 else None

    if abs(energy**2 - p.mc2**2) <= EDGE_REL_TOL * p.mc2**2:
        if branch is Branch.MINUS:
            raise EdgeStateError(
                f"(n_l={n_l}, m_n={m_n}) has no lower-branch eigenvector of this form"
            )
        edge = SpinorState(
            upper=upper / np.linalg.norm(upper),
            lower=np.zeros(pair.lower.dim, dtype=complex),
            energy=p.mc2,
            branch=branch,
            qn=(n_l, m_n),
            kind=kind,
            edge=True,
            partner_qn=partner,
        )
        return edge, pair

    lower_raw = _lower_component(p, energy, pair.coupling, upper)
    amp = np.sqrt((energy + p.mc2) / (2.0 * energy))
    vec_upper = amp * upper
    vec_lower = amp * lower_raw
    norm = np.sqrt(np.sum(np.abs(vec_upper) ** 2) + np.sum(np.abs(vec_lower) ** 2))
    spinor = SpinorState(
        upper=vec_upper / norm,
        lower=vec_lower / norm,
        energy=energy,
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
    displacement operator; the lower component follows exactly from the
    coupled first-order equation, which fixes its phase and gives the
    amplitude split |upper|² = (E + mc²)/2E, |lower|² = (E - mc²)/2E.
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
