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

The three routines come from scipy's compiled LAPACK module,
``scipy.linalg._flapack``, loaded from its file next to scipy's sources:
importing it through ``scipy.linalg`` would first run that package's
``__init__``, whose Python layer (``scipy._lib``'s array-API shims,
``numpy.f2py``, ``numpy.testing``) costs about half of a command's
start-up, while the compiled module loads in milliseconds. It is registered
in ``sys.modules`` under its own name, so a later ``import scipy.linalg``
reuses it, and one already loaded is reused here: ``dstebz``, ``dstein`` and
``dstevd`` are the very objects ``scipy.linalg.lapack`` exports, and every
result is bit-identical either way. When no such file exists (another
scipy layout), they are imported from ``scipy.linalg.lapack``.
``LinAlgError`` is numpy's, the class scipy re-exports.

``interior_eigenvalues`` is the index-order solve of a cut su(1,1) ladder
(an N_d sector; an N_s sector is a finite su(2) irrep, solved whole):
eigenpairs pinned to the cut (``boundary_free``) are rejected, the rest
kept in ascending order.

``leading_block_seed`` and ``seeded_eigenvalues`` are a certified shortcut
in front of it, for ladders whose low eigenvectors decay up the ladder. The
seed is the lowest eigenpairs (theta_k, y_k) of a leading block that stops
BOUNDARY_MARGIN rows short of the cut, accepted once every residual of
(theta_k, [y_k; 0]) on the whole ladder is at roundoff; its tail part is
|off[m-1]|·|y_k[m-1]|. By the symmetric residual bound any ladder beginning
with that block has an eigenvalue within the residual of each theta_k.
``seeded_eigenvalues`` then makes three checks with value-range ``dstebz``
counts:

1. exactly one eigenvalue in each window theta_k ± delta_k, none between
   windows and none up to a gap G above the last;
2. every eigenpair below the first window pinned to the cut;
3. those pinned levels and the windows at least G + 2 max(delta) apart.

The windowed levels then have the indices right after the pinned ones, and
by Davis-Kahan (SIAM J. Numer. Anal. 7, 1970: sin∠ ≤ residual/gap) their
eigenvectors lie within SEED_MAX_SIN of their seeds, which vanish on the top
BOUNDARY_MARGIN rows: ``interior_eigenvalues`` would keep exactly these
levels, to roundoff. When a check fails (slow decay, clustered levels, a
level pinned between windows, a ladder too short for the block) the
shortcut returns None and the caller runs the index-order solve.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NotConvergedError


def _compiled_lapack():
    """``scipy.linalg._flapack``, without running ``scipy/linalg/__init__.py``;
    None when scipy has no such extension file."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy_spec = importlib.util.find_spec("scipy")  # locates scipy, runs none of it
    roots = scipy_spec.submodule_search_locations if scipy_spec else None
    for root in roots or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                sys.modules[name] = module
                spec.loader.exec_module(module)
                return module
    return None


_flapack = _compiled_lapack()
if _flapack is None:
    from scipy.linalg.lapack import dstebz, dstein, dstevd
else:
    dstebz, dstein, dstevd = _flapack.dstebz, _flapack.dstein, _flapack.dstevd

BOUNDARY_MASS_TOL = 1e-8
BOUNDARY_MARGIN = 3
# The leading-block shortcut (``leading_block_seed``, ``seeded_eigenvalues``):
SEED_START = 48  # rows of the first leading block tried; doubled up to the cap
SEED_RESID_EPS = 4.0  # a seed is accepted once every residual is below this many eps·‖T‖
SEED_REFINE = 1e-2  # a larger block refines the seed when residual/spacing is below this
WINDOW_EPS = 8.0  # window half-width beyond a seed pair's residual, in eps·‖T‖
SEED_MAX_SIN = 1e-6  # largest certified sin∠ between a kept level's eigenvector and its seed
SEED_NORM_MAX = 1e150  # beyond this ‖T‖ the shortcut declines, so no square in it overflows
EPS = np.finfo(float).eps
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


@dataclass(frozen=True)
class LadderSeed:
    """Approximate lowest eigenpairs (values ``theta``, ascending) of a
    ladder's leading block (``diag``, ``off[:-1]``), and ``resid``, the
    computed residual norm of each seed pair (theta_k, [y_k; 0]) on any
    tridiagonal that begins with these rows and couples the last of them
    upward by ``off[-1]``."""

    diag: np.ndarray
    off: np.ndarray
    theta: np.ndarray
    resid: np.ndarray


def _norm(d: np.ndarray, b: np.ndarray) -> float:
    """Gershgorin bound on ‖T‖; inf above SEED_NORM_MAX or when it overflows."""
    with np.errstate(over="ignore"):
        rows = np.abs(d)
        rows[:-1] += b
        rows[1:] += b
    norm = float(rows.max())
    return norm if norm <= SEED_NORM_MAX else np.inf


def leading_block_seed(diag: np.ndarray, off: np.ndarray, count: int) -> LadderSeed | None:
    """Seed of the lowest ``count`` levels of the ladder (diag, |off|) from
    its leading block, or None.

    The block has SEED_START rows, doubled up to dim - BOUNDARY_MARGIN, so it
    never holds the cut's top rows. Its lowest ``count`` eigenpairs are
    bisected (``eigh``), or, once the previous block's residuals are below
    SEED_REFINE of the spacing of its values, refined from those values by
    inverse iteration (``dstein``) and Rayleigh quotients. The seed is
    accepted once every residual |off[m-1]|·|y_k[m-1]| + ‖T_m y_k -
    theta_k y_k‖ is at roundoff (SEED_RESID_EPS·eps·‖T‖): the levels then live
    inside the block. None when no block up to the cap is, or LAPACK fails
    on one.
    """
    d, b = np.asarray(diag, dtype=float), np.abs(off)
    cap = d.size - BOUNDARY_MARGIN
    norm = _norm(d, b)
    m, w, resid = min(SEED_START, cap), None, None
    while np.isfinite(norm) and m > count:
        e = b[: m - 1]
        try:
            if w is not None and np.all(resid <= SEED_REFINE * np.diff(w).min(initial=np.inf)):
                # one unsplit block: every iblock entry 1, its last row m
                iblock, isplit = np.ones(m, dtype=np.int32), np.full(m, m, dtype=np.int32)
                v, info = dstein(d[:m], e, w, iblock, isplit)
                _check_info(info, "dstein")
            else:
                w, v = eigh(d[:m], e, select="i", select_range=(0, count - 1))
        except LinAlgError:
            return None
        tv = d[:m, None] * v
        tv[:-1] += e[:, None] * v[1:]
        tv[1:] += e[:, None] * v[:-1]
        w = np.sum(v * tv, axis=0)  # Rayleigh quotients
        resid = b[m - 1] * np.abs(v[-1]) + np.linalg.norm(tv - w * v, axis=0)
        if np.all(resid <= SEED_RESID_EPS * EPS * norm):
            return LadderSeed(d[:m], b[:m], w, resid)
        if m == cap:
            break
        m = min(2 * m, cap)
    return None


def seeded_eigenvalues(diag: np.ndarray, off: np.ndarray, seed: LadderSeed) -> tuple | None:
    """(values, half-widths) of the ladder (diag, |off|)'s lowest interior
    levels, certified from ``seed``; None when a check fails.

    The ladder must begin with the seed's rows and extend BOUNDARY_MARGIN
    rows past them. Each level is bisected only inside its window
    theta_k ± delta_k, delta_k = resid_k + WINDOW_EPS·eps·‖T‖, which holds an
    eigenvalue by the symmetric residual bound. LAPACK's value-range
    ``dstebz`` counts at the window ends and certifies:

    - exactly one eigenvalue in each window, none between windows, and none
      above the last one up to a gap G = max(delta)/SEED_MAX_SIN;
    - every eigenpair below the first window pinned to the cut
      (``boundary_free`` fails on its ``dstein`` vector);
    - those pinned levels and the windows apart by at least G + 2 max(delta).

    Then the windowed levels have indices r..r + count - 1 (r pinned
    below), and by Davis-Kahan each eigenvector is within sin ≤
    resid_k / G ≤ SEED_MAX_SIN of its seed, which is zero on the top
    BOUNDARY_MARGIN rows: its boundary mass is at most SEED_MAX_SIN², far
    below BOUNDARY_MASS_TOL. So ``interior_eigenvalues`` keeps exactly these
    levels, and any bisection of one lies within its half-width of theta_k.
    The values returned are bisected inside the windows.
    """
    d, b = np.asarray(diag, dtype=float), np.abs(off)
    m = seed.diag.size
    if d.size - m < BOUNDARY_MARGIN or not (
        np.array_equal(d[:m], seed.diag) and np.array_equal(b[:m], seed.off)
    ):
        return None
    norm = _norm(d, b)
    if not np.isfinite(norm):
        return None
    theta = seed.theta
    delta = seed.resid + WINDOW_EPS * EPS * norm
    gap = np.max(delta) / SEED_MAX_SIN
    lo, top = theta - delta, theta[-1] + gap
    # Counted only (the tolerance spans the range): the eigenvalues up to G
    # above the last window are the windowed ones and those below the first.
    found, _, _, _, info = dstebz(d, b, 1, -np.inf, top, 1, 1, 2 * (abs(top) + norm), "E")
    below = found - theta.size
    if info or below < 0:
        return None
    pinned = np.empty(0)
    if below:
        try:
            pinned, v = eigh(d, b, select="v", select_range=(-np.inf, lo[0]))
        except LinAlgError:
            return None
        if pinned.size != below or np.any(boundary_free(v)):
            return None
    if np.any(np.diff(np.append(pinned, theta)) < gap + 2 * np.max(delta)):
        return None
    values = np.empty(theta.size)
    for k in range(theta.size):
        found, w, _, _, info = dstebz(d, b, 1, lo[k], theta[k] + delta[k], 1, 1, 0.0, "E")
        if info or found != 1:
            return None
        values[k] = w[0]
    return values, delta
