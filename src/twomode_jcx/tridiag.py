"""Every tridiagonal eigensolve of the package, and the accuracy bound of
its bisections.

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

The routines come from scipy's compiled LAPACK module,
``scipy.linalg._flapack``, loaded from its file next to scipy's sources:
importing it through ``scipy.linalg`` would first run that package's
``__init__``, whose Python layer (``scipy._lib``'s array-API shims,
``numpy.f2py``, ``numpy.testing``) costs about half of a command's
start-up, while the compiled module loads in milliseconds. It is registered
in ``sys.modules`` under its own name, so a later ``import scipy.linalg``
reuses it, and one already loaded is reused here: ``dstebz``, ``dstein``,
``dsterf`` (root-free QR, eigenvalues only) and ``dstevd`` are the very
objects ``scipy.linalg.lapack`` exports, and every result is bit-identical
either way. When no such file exists (another scipy layout), they are
imported from ``scipy.linalg.lapack``. ``LinAlgError`` is numpy's, the
class scipy re-exports.

``leading_block_seed`` and ``seeded_eigenvalues`` are a certified shortcut
for the lowest levels of a ladder whose low eigenvectors decay up the
ladder, such as an su(1,1) sector of ``models.sector_tridiagonal``. The
seed is the lowest eigenpairs (theta_k, y_k) of a leading block (on a long
ladder, ``dsterf`` values of 48 rows refined by ``dstein`` on 96), accepted
once every residual of (theta_k, [y_k; 0]) on the whole ladder, tail
|off[m-1]|·|y_k[m-1]| included, is at roundoff. By the symmetric residual
bound any ladder beginning with that block has an eigenvalue within the
residual of each theta_k. ``seeded_eigenvalues`` widens each residual by
the bisection error bound (``bisection_bound``) into a window and checks,
with value-range ``dstebz`` counts that bisect nothing, that the windows
are disjoint, that the ladder holds exactly as many eigenvalues up to the
top of the last window as there are windows, and that each holds one: the
theta_k are then its lowest levels, each within its window of any bisection
of them. When a check fails (slow decay, clustered levels, a short ladder)
the shortcut returns None and the caller solves by index.

``bisection_bound`` is WINDOW_EPS·eps·‖T‖, with ‖T‖ the Gershgorin bound:
it covers both ``dstebz``'s default stopping tolerance (eps·‖T‖₁) and the
rounding of its Sturm counts (Demmel & Kahan, SIAM J. Sci. Stat. Comput.
11, 1990), so any value ``eigh`` bisects lies within it of an exact
eigenvalue.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError


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
    from scipy.linalg.lapack import dstebz, dstein, dsterf, dstevd
else:
    dstebz, dstein, dstevd = _flapack.dstebz, _flapack.dstein, _flapack.dstevd
    dsterf = _flapack.dsterf

# The leading-block shortcut (``leading_block_seed``, ``seeded_eigenvalues``):
SEED_START = 48  # rows of the first leading block tried; doubled up to the cap
SEED_RESID_EPS = 4.0  # a seed is accepted once every residual is below this many eps·‖T‖
SEED_REFINE = 1e-2  # a larger block refines the seed when residual/spacing is below this
WINDOW_EPS = 8.0  # bisection error bound, in eps·‖T‖; widens each seed window
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


class LadderSeed(NamedTuple):
    """Approximate lowest eigenpairs (values ``theta``, ascending) of a
    ladder's leading block (``diag``, ``off[:-1]``), and ``resid``, the
    computed residual norm of each seed pair (theta_k, [y_k; 0]) on any
    tridiagonal that begins with these rows and couples the last of them
    upward by ``off[-1]``."""

    diag: np.ndarray
    off: np.ndarray
    theta: np.ndarray
    resid: np.ndarray


def ladder(diag, off) -> tuple:
    """(diag, |off|, Gershgorin bound on ‖T‖ or inf) as floats, formed once per ladder."""
    d, b = np.asarray(diag, dtype=float), np.abs(off)
    with np.errstate(over="ignore"):
        rows = np.abs(d)
        rows[:-1] += b
        rows[1:] += b
    return d, b, float(rows.max())


def bisection_bound(diag: np.ndarray, off: np.ndarray, norm: float | None = None) -> float:
    """WINDOW_EPS·eps·‖T‖: how far a value ``eigh`` bisects on the
    tridiagonal (diag, |off|) may lie from its exact eigenvalue."""
    return WINDOW_EPS * EPS * (ladder(diag, off)[2] if norm is None else norm)


def leading_block_seed(diag: np.ndarray, off: np.ndarray, count: int,
                       norm: float | None = None) -> LadderSeed | None:
    """Seed of the lowest ``count`` levels of the ladder (diag, |off|) from
    its leading block, or None; with ``norm``, (diag, off, norm) is a ``ladder``.

    The block has SEED_START rows, doubled up to dim - 1, so that the
    ladder's off[m-1] exists. Its lowest ``count`` eigenpairs are bisected
    (``eigh``) or refined by inverse iteration (``dstein``) and Rayleigh
    quotients from earlier values: the first block's by root-free QR
    (``dsterf``) when the cap allows its double, or the previous block's
    once their residuals are below SEED_REFINE of their spacing. The seed is
    accepted once every residual |off[m-1]|·|y_k[m-1]| + ‖T_m y_k - theta_k
    y_k‖ is at roundoff (SEED_RESID_EPS·eps·‖T‖): the levels then live
    inside the block. None when no block up to the cap is, when ‖T‖ exceeds
    SEED_NORM_MAX, or when LAPACK fails on a block.
    """
    d, b, norm = ladder(diag, off) if norm is None else (diag, off, norm)
    cap = d.size - 1
    m, w, refine = min(SEED_START, cap), None, False
    if norm <= SEED_NORM_MAX and count < m and 2 * m <= cap:
        w, info = dsterf(d[:m], b[: m - 1])  # ascending
        if info:
            return None
        w, m, refine = w[:count], 2 * m, True
    while norm <= SEED_NORM_MAX and m > count:
        e = b[: m - 1]
        try:
            if refine:
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
        refine = np.all(resid <= SEED_REFINE * np.diff(w).min(initial=np.inf))
        m = min(2 * m, cap)
    return None


def seeded_eigenvalues(diag: np.ndarray, off: np.ndarray, seed: LadderSeed,
                       norm: float | None = None) -> tuple | None:
    """(values, half-widths) of the lowest len(seed.theta) eigenvalues of the
    ladder (diag, |off|), certified from ``seed``; None when a check fails.
    With ``norm``, (diag, off, norm) is a ``ladder``.

    The ladder must begin with the seed's rows and extend at least one row
    past them. Each level lies within resid_k of the seed value theta_k, so
    in its window theta_k ± delta_k, delta_k = resid_k + ``bisection_bound``,
    with any bisection of it. LAPACK's value-range ``dstebz`` counts, which
    bisect nothing, certify:

    - the windows are disjoint, so they hold distinct eigenvalues;
    - the ladder has exactly as many eigenvalues up to the top of the last
      window as there are windows, so those are its lowest, one per window;
    - each window holds exactly one eigenvalue, whose value returned is theta_k.
    """
    d, b, norm = ladder(diag, off) if norm is None else (diag, off, norm)
    m = seed.diag.size
    if d.size <= m or not norm <= SEED_NORM_MAX or not (
        np.array_equal(d[:m], seed.diag) and np.array_equal(b[:m], seed.off)
    ):
        return None
    theta = seed.theta
    delta = seed.resid + bisection_bound(d, b, norm)
    lo, hi = theta - delta, theta + delta
    if np.any(lo[1:] <= hi[:-1]):
        return None
    # each tolerance spans its range, so dstebz counts and bisects nothing
    for vl, vu, want in [(-np.inf, hi[-1], theta.size), *((a, z, 1) for a, z in zip(lo, hi))]:
        found, _, _, _, info = dstebz(d, b, 1, vl, vu, 1, 1, 2 * (abs(vu) + norm), "E")
        if info or found != want:
            return None
    return theta, delta
