"""Truncated two-mode bosonic Fock space.

Basis indexing, ladder operators with hard truncation, and decomposition of
the space into sectors of a conserved charge (number difference or total
number). Everything here is exact apart from the square roots in the ladder
matrix elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, LeakageError

# Dense storage below this basis dimension, CSR at or above it.
SPARSE_THRESHOLD = 10_000

# Operators composed from sparse factors are densified below this dimension,
# where dense eigensolvers and block assembly are the convenient form.
DENSE_RESULT_DIM = 2048

HERMITICITY_TOL = 1e-12
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
    if sp.issparse(mat):
        return float(abs(mat).max()) if mat.nnz else 0.0
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(mat)))


def _dagger(mat):
    if sp.issparse(mat):
        return mat.conjugate().transpose().tocsr()
    return mat.conj().T


@dataclass(frozen=True)
class OperatorMatrix:
    """Square complex matrix acting on a fixed basis.

    Storage may be dense (ndarray) or CSR sparse; the semantic contract is
    identical. Instances are immutable and safe to share across threads.
    """

    data: object  # np.ndarray | scipy.sparse.csr_matrix
    basis_dim: int

    def __post_init__(self):
        shape = self.data.shape
        if shape != (self.basis_dim, self.basis_dim):
            raise DimensionMismatchError(
                f"matrix shape {shape} does not match basis dimension {self.basis_dim}"
            )

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self.data)

    def dense(self) -> np.ndarray:
        if self.is_sparse:
            return np.asarray(self.data.todense())
        return self.data

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(_dagger(self.data), self.basis_dim)

    def absmax(self) -> float:
        return _absmax(self.data)

    def diagonal(self) -> np.ndarray:
        if self.is_sparse:
            return self.data.diagonal()
        return np.diag(self.data)

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        scale = max(1.0, self.absmax())
        return _absmax(self.data - _dagger(self.data)) <= tol * scale

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.basis_dim != other.basis_dim:
            raise DimensionMismatchError(
                f"cannot multiply operators of dimension {self.basis_dim} and {other.basis_dim}"
            )
        out = self.data @ other.data
        if sp.issparse(out):
            out = out.tocsr()
        return OperatorMatrix(out, self.basis_dim)

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.basis_dim != other.basis_dim:
            raise DimensionMismatchError("operator dimensions differ")
        return OperatorMatrix(self.data + other.data, self.basis_dim)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if self.basis_dim != other.basis_dim:
            raise DimensionMismatchError("operator dimensions differ")
        return OperatorMatrix(self.data - other.data, self.basis_dim)

    def __rmul__(self, scalar) -> "OperatorMatrix":
        return OperatorMatrix(scalar * self.data, self.basis_dim)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.data @ vec


@dataclass(frozen=True)
class FockBasis:
    """Two-mode number basis |n_a, n_b> with 0 <= n_a, n_b <= cutoff.

    States are ordered lexicographically in (n_a, n_b), which fixes every
    matrix in the package bit-for-bit across runs.
    """

    cutoff: int
    states: tuple = field(repr=False)
    _index: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, n_a: int, n_b: int) -> int:
        return self._index[(n_a, n_b)]

    def vector(self, n_a: int, n_b: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.index_of(n_a, n_b)] = 1.0
        return v

    def interior_indices(self, margin: int) -> np.ndarray:
        """Indices of states with n_a, n_b <= cutoff - margin."""
        top = self.cutoff - margin
        return np.array(
            [i for i, (na, nb) in enumerate(self.states) if na <= top and nb <= top],
            dtype=int,
        )


@dataclass(frozen=True)
class SectorBasis:
    """Ordered subset of a FockBasis with fixed conserved charge.

    For ``DIFFERENCE_ND`` every state satisfies n_b - n_a = charge_value;
    for ``SUM_NS`` every state satisfies n_a + n_b = charge_value. States
    keep the parent's lexicographic order, so the effective excitation
    number increases with position.
    """

    charge_kind: ChargeKind
    charge_value: int
    states: tuple
    parent_cutoff: int
    indices: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def occupations(self) -> tuple:
        """(n_a, n_b) integer arrays of the sector states, in order."""
        return np.divmod(self.indices, self.parent_cutoff + 1)

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
    n = cutoff + 1
    states = tuple((na, nb) for na in range(n) for nb in range(n))
    index = {st: i for i, st in enumerate(states)}
    return FockBasis(cutoff=cutoff, states=states, _index=index)


def _want_sparse(basis_dim: int, storage: str | None) -> bool:
    if storage == "sparse":
        return True
    if storage == "dense":
        return False
    return basis_dim >= SPARSE_THRESHOLD


def _ladder_matrix(basis: FockBasis, mode: Mode, kind: LadderKind, storage: str | None):
    n = basis.cutoff + 1
    dim = basis.dim
    occ = np.arange(dim)
    na, nb = occ // n, occ % n
    m_occ = na if mode is Mode.A else nb
    step = n if mode is Mode.A else 1

    if kind is LadderKind.LOWER:
        src = occ[m_occ >= 1]
        dst = src - step
        val = np.sqrt(m_occ[m_occ >= 1].astype(float))
    else:
        # Raising past the cutoff maps to zero (hard truncation).
        src = occ[m_occ <= basis.cutoff - 1]
        dst = src + step
        val = np.sqrt(m_occ[m_occ <= basis.cutoff - 1] + 1.0)

    if _want_sparse(dim, storage):
        return sp.csr_matrix((val.astype(complex), (dst, src)), shape=(dim, dim))
    mat = np.zeros((dim, dim), dtype=complex)
    mat[dst, src] = val
    return mat


def ladder_op(
    mode: Mode, kind: LadderKind, basis: FockBasis, storage: str | None = None
) -> OperatorMatrix:
    """Annihilation or creation operator for one mode.

    Matrix elements <n-1|a|n> = sqrt(n) and <n+1|a†|n> = sqrt(n+1); raising
    out of the cutoff gives zero. ``storage`` overrides the dimension-based
    dense/sparse default; operator composition should prefer sparse, where
    products of ladder matrices stay one-entry-per-column.
    """
    return OperatorMatrix(_ladder_matrix(basis, mode, kind, storage), basis.dim)


def number_op(mode: Mode, basis: FockBasis, storage: str | None = None) -> OperatorMatrix:
    """Diagonal occupation-number operator for one mode."""
    n = basis.cutoff + 1
    occ = np.arange(basis.dim)
    diag = (occ // n if mode is Mode.A else occ % n).astype(complex)
    if _want_sparse(basis.dim, storage):
        return OperatorMatrix(sp.diags(diag, format="csr"), basis.dim)
    return OperatorMatrix(np.diag(diag), basis.dim)


def charge_op(charge_kind: ChargeKind, basis: FockBasis, storage: str | None = None) -> OperatorMatrix:
    """Diagonal conserved charge: n_b - n_a or n_a + n_b."""
    n = basis.cutoff + 1
    occ = np.arange(basis.dim)
    na, nb = occ // n, occ % n
    diag = (nb - na if charge_kind is ChargeKind.DIFFERENCE_ND else na + nb).astype(complex)
    if _want_sparse(basis.dim, storage):
        return OperatorMatrix(sp.diags(diag, format="csr"), basis.dim)
    return OperatorMatrix(np.diag(diag), basis.dim)


def identity_op(basis: FockBasis, storage: str | None = None) -> OperatorMatrix:
    if _want_sparse(basis.dim, storage):
        return OperatorMatrix(sp.identity(basis.dim, dtype=complex, format="csr"), basis.dim)
    return OperatorMatrix(np.eye(basis.dim, dtype=complex), basis.dim)


def commutator(x: OperatorMatrix, y: OperatorMatrix) -> OperatorMatrix:
    """XY - YX."""
    if x.basis_dim != y.basis_dim:
        raise DimensionMismatchError(
            f"commutator of operators with dimensions {x.basis_dim} and {y.basis_dim}"
        )
    return x @ y - y @ x


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
        states=tuple(zip(na.tolist(), nb.tolist())),
        parent_cutoff=cutoff,
        indices=na * (cutoff + 1) + nb,
    )


def sector_decompose(basis: FockBasis, charge_kind: ChargeKind) -> list:
    """Partition the basis into conserved-charge sectors, charges ascending."""
    c = basis.cutoff
    charges = range(-c, c + 1) if charge_kind is ChargeKind.DIFFERENCE_ND else range(2 * c + 1)
    return [sector_basis(c, charge_kind, q) for q in charges]


def get_sector(basis: FockBasis, charge_kind: ChargeKind, charge_value: int) -> SectorBasis:
    """Single sector of the decomposition, by charge value."""
    return sector_basis(basis.cutoff, charge_kind, charge_value)


def project_operator(op: OperatorMatrix, sector: SectorBasis) -> OperatorMatrix:
    """Restrict an operator to a charge sector.

    The operator must commute with the sector charge: any matrix element
    connecting the sector to its complement beyond tolerance raises
    LeakageError.
    """
    idx = sector.indices
    data = op.data
    if sp.issparse(data):
        cols = data.tocsc()[:, idx].tocsr()
        block = cols[idx, :]
        mask = np.ones(op.basis_dim, dtype=bool)
        mask[idx] = False
        leak = _absmax(cols[mask, :])
        block = np.asarray(block.todense())
    else:
        cols = data[:, idx]
        block = cols[idx, :]
        mask = np.ones(op.basis_dim, dtype=bool)
        mask[idx] = False
        leak = _absmax(cols[mask, :])
    tol = LEAKAGE_TOL * max(1.0, op.absmax())
    if leak > tol:
        raise LeakageError(
            f"operator leaks {leak:.3e} out of sector "
            f"{sector.charge_kind.value}={sector.charge_value} (tol {tol:.3e})"
        )
    return OperatorMatrix(np.array(block, dtype=complex), sector.dim)


def reassemble(sector_ops: list, sectors: list, parent_dim: int) -> OperatorMatrix:
    """Inverse of project_operator over a full decomposition."""
    out = np.zeros((parent_dim, parent_dim), dtype=complex)
    for op, sec in zip(sector_ops, sectors):
        out[np.ix_(sec.indices, sec.indices)] = op.dense()
    return OperatorMatrix(out, parent_dim)
