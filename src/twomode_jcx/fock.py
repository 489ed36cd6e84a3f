"""Truncated two-mode bosonic Fock space.

Basis indexing, ladder operators with hard truncation, and decomposition of
the space into sectors of a conserved charge (number difference or total
number). A total-number sector is finite, so it can be built whole
(``su2_irrep``); a number-difference sector is always cut. Bases store
only what the index formula n_a (cutoff + 1) + n_b cannot give;
full-space operators are plain ``scipy.sparse.csr_matrix``. The full-space
helpers (``ladder_op`` and the other operators, ``reassemble``) serve the
tests and the benchmark alone, and import scipy.sparse when called, so the
sector basis the commands use loads without it.
Everything here is exact apart from the square roots in the ladder matrix
elements.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import DimensionMismatchError, LeakageError

if TYPE_CHECKING:
    import scipy.sparse as sp

LEAKAGE_TOL = 1e-12


class Mode(Enum):
    A = "a"
    B = "b"


class LadderKind(Enum):
    LOWER = "lower"
    RAISE = "raise"


class ChargeKind(Enum):
    """Conserved charge labelling a sector decomposition."""

    DIFFERENCE_ND = "nd"  # n_b - n_a
    SUM_NS = "ns"  # n_a + n_b


def _absmax(mat) -> float:
    return float(abs(mat).max()) if mat.nnz else 0.0


class FockBasis(NamedTuple):
    """Two-mode number basis |n_a, n_b> with 0 <= n_a, n_b <= cutoff.

    States are ordered lexicographically in (n_a, n_b): the index of
    |n_a, n_b> is n_a (cutoff + 1) + n_b, which fixes every matrix in the
    package bit-for-bit across runs. Everything but the cutoff is computed
    from that formula.
    """

    cutoff: int

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** 2

    @property
    def occupations(self) -> tuple:
        """(n_a, n_b) integer arrays of the basis states, in order."""
        return np.divmod(np.arange(self.dim), self.cutoff + 1)

    @property
    def states(self) -> tuple:
        return tuple(zip(*(occ.tolist() for occ in self.occupations)))

    def index_of(self, n_a: int, n_b: int) -> int:
        """Position of |n_a, n_b>; KeyError for a state outside the basis."""
        if not (0 <= n_a <= self.cutoff and 0 <= n_b <= self.cutoff):
            raise KeyError((n_a, n_b))
        return n_a * (self.cutoff + 1) + n_b

    def vector(self, n_a: int, n_b: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index_of(n_a, n_b)] = 1.0
        return v

    def interior_indices(self, margin: int) -> np.ndarray:
        """Indices of states with n_a, n_b <= cutoff - margin."""
        top = self.cutoff - margin
        na, nb = self.occupations
        return np.flatnonzero((na <= top) & (nb <= top))


class SectorBasis(NamedTuple):
    """Ordered subset of a FockBasis with fixed conserved charge.

    For ``DIFFERENCE_ND`` every state satisfies n_b - n_a = charge_value;
    for ``SUM_NS`` every state satisfies n_a + n_b = charge_value. States
    keep the parent's lexicographic order, so the effective excitation
    number increases with position; they are read off the parent
    ``indices``.
    """

    charge_kind: ChargeKind
    charge_value: int
    parent_cutoff: int
    indices: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def occupations(self) -> tuple:
        """(n_a, n_b) integer arrays of the sector states, in order."""
        return np.divmod(self.indices, self.parent_cutoff + 1)

    @property
    def states(self) -> tuple:
        return tuple(zip(*(occ.tolist() for occ in self.occupations)))

    @property
    def pair_amplitudes(self) -> np.ndarray:
        """|<i + 1| a† b† |i>| (N_d) or |<i + 1| a† b |i>| (N_s), per pair.

        sqrt(n_a n_b) at each mode's larger occupation: state i + 1 has the
        larger n_a, and for N_s state i has the larger n_b.
        """
        na, nb = self.occupations
        nb_pair = nb[1:] if self.charge_kind is ChargeKind.DIFFERENCE_ND else nb[:-1]
        return np.sqrt(na[1:] * nb_pair.astype(float))

    def embed(self, vec: np.ndarray, parent_dim: int) -> np.ndarray:
        out = np.zeros(parent_dim, dtype=complex)
        out[self.indices] = vec
        return out


def build_basis(cutoff: int) -> FockBasis:
    """Build the truncated two-mode basis; dimension (cutoff + 1)^2."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return FockBasis(cutoff=cutoff)


def ladder_op(mode: Mode, kind: LadderKind, basis: FockBasis) -> sp.csr_matrix:
    """Annihilation or creation operator for one mode.

    Matrix elements <n-1|a|n> = sqrt(n) and <n+1|a†|n> = sqrt(n+1); raising
    out of the cutoff gives zero. One entry per column, so products of
    ladder operators stay sparse.
    """
    import scipy.sparse as sp

    na, nb = basis.occupations
    m_occ = na if mode is Mode.A else nb
    step = basis.cutoff + 1 if mode is Mode.A else 1
    if kind is LadderKind.LOWER:
        src = np.flatnonzero(m_occ >= 1)
        dst = src - step
        val = np.sqrt(m_occ[src].astype(float))
    else:
        # Raising past the cutoff maps to zero (hard truncation).
        src = np.flatnonzero(m_occ < basis.cutoff)
        dst = src + step
        val = np.sqrt(m_occ[src] + 1.0)
    return sp.csr_matrix((val.astype(complex), (dst, src)), shape=(basis.dim, basis.dim))


def number_op(mode: Mode, basis: FockBasis) -> sp.csr_matrix:
    """Diagonal occupation-number operator for one mode."""
    import scipy.sparse as sp

    na, nb = basis.occupations
    return sp.diags((na if mode is Mode.A else nb).astype(complex), format="csr")


def charge_op(charge_kind: ChargeKind, basis: FockBasis) -> sp.csr_matrix:
    """Diagonal conserved charge: n_b - n_a or n_a + n_b."""
    import scipy.sparse as sp

    na, nb = basis.occupations
    diag = nb - na if charge_kind is ChargeKind.DIFFERENCE_ND else na + nb
    return sp.diags(diag.astype(complex), format="csr")


def identity_op(basis: FockBasis) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.identity(basis.dim, dtype=complex, format="csr")


def commutator(x: sp.csr_matrix, y: sp.csr_matrix) -> sp.csr_matrix:
    """XY - YX."""
    if x.shape != y.shape:
        raise DimensionMismatchError(
            f"commutator of operators with shapes {x.shape} and {y.shape}"
        )
    return (x @ y - y @ x).tocsr()


def sector_basis(cutoff: int, charge_kind: ChargeKind, charge_value: int) -> SectorBasis:
    """Sector of one charge in the cutoff-``cutoff`` basis, in closed form.

    The sector holds the states with n_a running upward over the range the
    charge and the cutoff allow (n_b = n_a + charge or charge - n_a), which
    is the parent's lexicographic order; the parent index of |n_a, n_b> is
    n_a (cutoff + 1) + n_b. Raises ValueError when no state carries the
    charge. Needs no FockBasis: cost is O(sector dim).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    q = charge_value
    if charge_kind is ChargeKind.DIFFERENCE_ND:
        lo, hi = max(0, -q), min(cutoff, cutoff - q)
    else:
        lo, hi = max(0, q - cutoff), min(cutoff, q)
    if lo > hi:
        raise ValueError(f"no sector with charge {q} at cutoff {cutoff}")
    na = np.arange(lo, hi + 1)
    nb = na + q if charge_kind is ChargeKind.DIFFERENCE_ND else q - na
    return SectorBasis(
        charge_kind=charge_kind,
        charge_value=q,
        parent_cutoff=cutoff,
        indices=na * (cutoff + 1) + nb,
    )


def su2_irrep(n_s: int) -> SectorBasis:
    """The whole N_s = ``n_s`` sector: the n_s + 1 states of the spin-n_s/2
    irrep of su(2). Any cutoff >= n_s holds them all; it is built at
    n_s + 1 so that no state reaches the cutoff, and the hard-truncated
    coupling of a ``models.SectorPair`` on it raises every state."""
    if n_s < 0:
        raise ValueError(f"no sector with charge {n_s}: N_s is nonnegative")
    return sector_basis(n_s + 1, ChargeKind.SUM_NS, n_s)


def sector_charges(cutoff: int, charge_kind: ChargeKind) -> range:
    """Every charge value that some state of the cutoff-``cutoff`` basis carries, ascending."""
    return range(-cutoff, cutoff + 1) if charge_kind is ChargeKind.DIFFERENCE_ND else range(2 * cutoff + 1)


def sector_decompose(basis: FockBasis, charge_kind: ChargeKind) -> list:
    """Partition the basis into conserved-charge sectors, charges ascending."""
    return [sector_basis(basis.cutoff, charge_kind, q) for q in sector_charges(basis.cutoff, charge_kind)]


def get_sector(basis: FockBasis, charge_kind: ChargeKind, charge_value: int) -> SectorBasis:
    """Single sector of the decomposition, by charge value."""
    return sector_basis(basis.cutoff, charge_kind, charge_value)


def project_operator(op: sp.csr_matrix, sector: SectorBasis) -> sp.csr_matrix:
    """Restrict an operator to a charge sector, as a CSR block.

    The operator must commute with the sector charge: any matrix element
    connecting the sector to its complement beyond tolerance raises
    LeakageError.
    """
    idx = sector.indices
    cols = op.tocsc()[:, idx].tocsr()
    mask = np.ones(op.shape[0], dtype=bool)
    mask[idx] = False
    leak = _absmax(cols[mask, :])
    tol = LEAKAGE_TOL * max(1.0, _absmax(op))
    if leak > tol:
        raise LeakageError(
            f"operator leaks {leak:.3e} out of sector "
            f"{sector.charge_kind.value}={sector.charge_value} (tol {tol:.3e})"
        )
    return cols[idx, :].astype(complex)


def reassemble(sector_ops: list, sectors: list, parent_dim: int) -> sp.csr_matrix:
    """Inverse of project_operator over a full decomposition."""
    import scipy.sparse as sp

    parent = np.concatenate([sec.indices for sec in sectors])
    block = sp.block_diag(sector_ops, format="coo")
    return sp.csr_matrix(
        (block.data, (parent[block.row], parent[block.col])), shape=(parent_dim, parent_dim)
    )
