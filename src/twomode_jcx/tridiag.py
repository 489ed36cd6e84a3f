"""Every tridiagonal eigensolve of the package, and the boundary rule of
hard-truncated ladders.

``eigh`` is ``scipy.linalg.eigh_tridiagonal`` with its default tolerance and
driver, restricted to what the package asks of it: real 1-D (diag, off),
eigenpairs selected by index, by value window or all, with or without
eigenvectors. It calls LAPACK directly (``dstebz``, then ``dstein`` for the
eigenvectors of a selection; ``dstevd`` for all of them) and keeps
everything else that function does: its finiteness, shape and
``select_range`` checks, its 1x1 shortcut, its ``info`` checks and its
reorder of ``dstein``'s block-ordered eigenvectors. So it returns the same
bits, without the argument handling around that function (20-50 µs a call
at sector dims 7-561 on an Intel Xeon core).

``interior_eigenvalues`` is the certified index-order solve of a sector:
eigenpairs pinned to the cut of a hard-truncated ladder
(``boundary_free``) are rejected, the rest kept in ascending order.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dstebz, dstein, dstevd

from .errors import NotConvergedError

BOUNDARY_MASS_TOL = 1e-8
BOUNDARY_MARGIN = 3
_SELECT = {"a": 0, "v": 1, "i": 2}  # LAPACK's RANGE codes: all, value, index


def _check_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise LinAlgError(f"LAPACK {routine} did not converge (info={info})")


def eigh(diag, off, eigvals_only: bool = False, select: str = "a", select_range=None):
    """Eigenvalues ``w`` (ascending) and, unless ``eigvals_only``, orthonormal
    eigenvectors ``v`` (columns) of the real symmetric tridiagonal with
    diagonal ``diag`` and off-diagonal ``off``.

    ``select`` is "a" (all), "v" (eigenvalues in the half-open window
    (lo, hi]) or "i" (indices lo..hi), with ``select_range`` = (lo, hi).
    Bit for bit ``scipy.linalg.eigh_tridiagonal`` on these arguments.
    ValueError on non-finite input, a malformed range or a negative LAPACK
    ``info``; LinAlgError (a ValueError) when LAPACK does not converge.
    """
    d, e = np.asarray_chkfinite(diag), np.asarray_chkfinite(off)
    for a in (d, e):
        if a.ndim != 1:
            raise ValueError("expected a 1-D array")
        if a.dtype.char in "GFD":
            raise TypeError("only real tridiagonals are supported")
    if d.size != e.size + 1:
        raise ValueError(f"diag ({d.size}) must have one more element than off ({e.size})")
    mode = _SELECT[select]
    vl, vu, il, iu = 0.0, 1.0, 1, 1
    if mode:
        sr = np.asarray(select_range)
        if sr.ndim != 1 or sr.size != 2 or sr[1] < sr[0]:
            raise ValueError("select_range must be a 2-element array-like in nondecreasing order")
        if mode == 1:
            vl, vu = sr
        else:
            if sr.dtype.char.lower() not in "hilqp":
                raise ValueError(f'select="i" needs an integer select_range, got dtype {sr.dtype}')
            il, iu = sr + 1  # LAPACK counts from 1
            if il < 1 or iu > d.size:
                raise ValueError("select_range out of bounds")
    if d.size == 1:
        if mode == 1 and not vl < d[0] <= vu:
            w, v = np.array([]), np.empty((1, 0), dtype=d.dtype)
        else:
            w, v = np.array([d[0]], dtype=d.dtype), np.array([[1.0]], dtype=d.dtype)
        return w if eigvals_only else (w, v)
    if mode == 0:
        w, v, info = dstevd(d, e, compute_v=not eigvals_only)
        _check_info(info, "dstevd")
        return w if eigvals_only else (w, v)
    # abstol 0 is LAPACK's default, eps·‖T‖₁. Eigenvectors need dstebz's
    # block order ("B"); they are sorted below.
    m, w, iblock, isplit, info = dstebz(
        d, e, mode, vl, vu, il, iu, 0.0, "E" if eigvals_only else "B"
    )
    _check_info(info, "dstebz")
    w = w[:m]
    if eigvals_only:
        return w
    v, info = dstein(d, e, w, iblock, isplit)
    _check_info(info, "dstein")
    order = np.argsort(w)
    return w[order], v[:, order]


def boundary_free(v: np.ndarray) -> np.ndarray:
    """Mask of the eigenvector columns of a hard-truncated ladder that are not
    pinned to the cut: at most BOUNDARY_MASS_TOL in the top BOUNDARY_MARGIN rows."""
    margin = min(BOUNDARY_MARGIN, max(1, v.shape[0] - 1))
    return np.sum(v[-margin:, :] ** 2, axis=0) <= BOUNDARY_MASS_TOL


def interior_eigenvalues(
    diag: np.ndarray, off: np.ndarray, count: int, first: int | None = None
) -> tuple:
    """(lowest ``count`` eigenvalues whose eigenvectors carry no boundary
    mass, number of boundary-pinned eigenpairs below the last of them) of
    the tridiagonal (diag, |off|).

    Hard truncation can manufacture exact eigenpairs pinned to the top of a
    sector (e.g. a kernel vector of the coupling with |amplitude| growing up
    the ladder becomes normalizable once cut). Such artifacts are invariant
    under cutoff doubling and must be rejected by eigenvector support
    (``boundary_free``).

    Eigenpairs are computed in index order: indices [0, ``first``) (default
    ``count``), then, while fewer than ``count`` interior ones are found and
    the sector has more, only the next shortfall of indices; no index is
    solved twice. A kept eigenvalue above the computed indices lies above
    all of those below them, so the result is that of the full
    eigendecomposition. NotConvergedError when the sector holds fewer than
    ``count`` interior eigenpairs.
    """
    dim, b = diag.size, np.abs(off)
    w, keep = np.empty(0), np.empty(0, dtype=bool)
    lo, hi = 0, min(dim, count if first is None else first)
    while True:
        w_new, v_new = eigh(diag, b, select="i", select_range=(lo, hi - 1))
        w, keep = np.concatenate([w, w_new]), np.concatenate([keep, boundary_free(v_new)])
        found = int(np.count_nonzero(keep))
        if found >= count or hi == dim:
            break
        lo, hi = hi, min(dim, hi + count - found)
    if found < count:
        raise NotConvergedError(
            f"only {found} interior-supported eigenvalues available; raise the cutoff"
        )
    interior = np.flatnonzero(keep)[:count]
    return w[interior], int(interior[-1]) + 1 - count
