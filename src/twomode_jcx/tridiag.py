"""Every tridiagonal eigensolve of the package, and the accuracy bound of
its bisections.

``eigh`` is ``scipy.linalg.eigh_tridiagonal`` with its default tolerance and
driver, restricted to what the package asks of it: real 1-D (diag, off),
eigenpairs selected by index or all, with or without eigenvectors. It
calls LAPACK directly (``dstebz``, then ``dstein`` for the eigenvectors of
a selection; ``dstevd`` for all of them) and keeps
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

``leading_block_eigenvalues`` is a certified shortcut for the lowest
levels of a ladder whose low eigenvectors decay up the ladder, such as an
su(1,1) sector of ``models.sector_tridiagonal``, and of the same ladder cut
to its leading rows. The seed is the lowest eigenpairs (theta_k, y_k) of a
leading block of the cut ladder (on a long ladder, ``dsterf`` values of 48
rows refined by ``dstein`` on 96), accepted once every residual resid_k of
(theta_k, [y_k; 0]) on the whole ladder, tail |off[m-1]|·|y_k[m-1]|
included, is at roundoff. By the symmetric residual bound (Parlett, The
Symmetric Eigenvalue Problem) the cut and the whole ladder, which begin
with that block, then have an eigenvalue in each window theta_k ± (resid_k
+ ``bisection_bound``), the bound covering the rounding of resid_k and of a
Sturm count. The windows must be disjoint, so they hold distinct
eigenvalues, and one value-range ``dstebz`` count, which bisects nothing,
must find exactly as many eigenvalues of the whole ladder up to the top of
the last window as there are windows: then each window holds one and none
lies below, so the theta_k are its lowest levels, each within its window
of any bisection of them. The residuals are the ones the same call
computed; when a check fails (slow decay, clustered levels, a short
ladder) the shortcut returns None and the caller solves by index.

``whole_ladder_eigenvalues`` makes the same two checks for a ladder whose
low eigenvectors sit in a band of rows that may lie anywhere on it, such
as a finite su(2) irrep, whose lowest eigenvectors are tilted number
states centred where the diagonal, less its couplings, is least. Its seed
lives on a window of rows [lo, hi) and holds one level more than it
certifies: a coarse index bisection of the window (to SEED_COARSE of the
whole ladder's mean level spacing ‖T‖/dim), ``dstein``'s vectors there and
their Rayleigh quotients theta_k. Each residual adds the two cut couplings
|off[lo-1]|·|y_k[0]| and |off[hi-1]|·|y_k[-1]|, which makes it a bound on
the residual of the zero-padded vector on the whole ladder, so the
windows, the count and the narrowing below are the same theorem on the
same ladder as for a seed spanning all of it. The residuals are far above
roundoff, so each window is then narrowed by the Kato–Temple bound (Kato,
J. Phys. Soc. Japan 4, 1949): once the disjoint windows and the count
prove the gap between the windows below and above level k eigenvalue-free,
that level lies within resid_k²/gap_k of theta_k, gap_k its distance to
the nearer of them; the extra level bounds the gap above the top one. A
window still wider than twice the bisection bound fails, so a certified
level is as accurate as a bisection of it. The first rows are sized from
the ladder: centred on its least Gershgorin lower bound, they end where a
vector at the top certified level, decaying as a harmonic fit of the
ladder there predicts, is small enough for the cut couplings to pass
Kato–Temple; rows that fail a check double about themselves, up to the
whole ladder, whose seed has no cut coupling. On 1000 random su(2) irreps
(N_s 96–4000, |g|/|f| 1e-2–1e2, 1–47 levels) the first rows certified
every time, holding 2–100% of the irrep (median 13%). The two seeds keep
their own certificates: a leading block's residuals are already at
roundoff, and a prototype that certified it by Kato–Temple windows instead
cost 1.08–1.15× the CPU time per JC+AJC solve at tilt ≤ 0.8 and up to 2.4×
at tilt 0.94 (2-CPU Intel Xeon container).

``bisection_bound`` is WINDOW_EPS·eps·‖T‖, with ‖T‖ the Gershgorin bound:
it covers both ``dstebz``'s default stopping tolerance (eps·‖T‖₁) and the
rounding of its Sturm counts (Demmel & Kahan, SIAM J. Sci. Stat. Comput.
11, 1990), so any value ``eigh`` bisects lies within it of an exact
eigenvalue.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys

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

# The seeded shortcuts (``leading_block_eigenvalues``; ``whole_ladder_eigenvalues``):
SEED_START = 48  # rows of the first leading block tried; doubled up to the cap
SEED_RESID_EPS = 4.0  # a seed is accepted once every residual is below this many eps·‖T‖
SEED_REFINE = 1e-2  # a larger block refines the seed when residual/spacing is below this
WINDOW_EPS = 8.0  # bisection error bound, in eps·‖T‖; widens each seed window
SEED_NORM_MAX = 1e150  # beyond this ‖T‖ the shortcut declines, so no square in it overflows
SEED_COARSE = 1e-3  # a whole-ladder seed's bisection tolerance, in mean level spacings ‖T‖/dim
# A whole ladder is certified only from WHOLE_MIN_ROWS rows and for fewer than
# WHOLE_COUNT_LIMIT levels: measured on su(2) irreps, a smaller ladder bisects
# faster than the seed's fixed cost, and dstein's reorthogonalization grows as count².
# A seed's window holds at least WHOLE_MIN_ROWS rows too, which covers the wells
# against an end row that its harmonic sizing undersizes.
WHOLE_MIN_ROWS = 96
WHOLE_COUNT_LIMIT = 48
EPS = np.finfo(float).eps
_SELECT = {"a": 0, "i": 2}  # LAPACK's RANGE codes: all, index


def _check_info(info: int, routine: str, error: type = LinAlgError) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")
    if info > 0:
        raise error(f"LAPACK {routine} did not converge (info={info})")


def eigh(diag, off, eigvals_only: bool = False, select: str = "a", select_range=None):
    """Eigenvalues ``w`` (ascending) and, unless ``eigvals_only``, orthonormal
    eigenvectors ``v`` (columns) of the real symmetric tridiagonal with
    diagonal ``diag`` and off-diagonal ``off``.

    ``select`` is "a" (all) or "i" (indices lo..hi, with ``select_range``
    = (lo, hi)). Bit for bit ``scipy.linalg.eigh_tridiagonal`` on these
    arguments. ValueError on non-finite input, a malformed range or a
    negative LAPACK ``info``; LinAlgError (a ValueError) when LAPACK does
    not converge.
    """
    d, e = np.asarray_chkfinite(diag), np.asarray_chkfinite(off)
    for a in (d, e):
        if a.ndim != 1:
            raise ValueError("expected a 1-D array")
        if a.dtype.char in "GFD":
            raise TypeError("only real tridiagonals are supported")
    if d.size != e.size + 1:
        raise ValueError(f"diag ({d.size}) must have one more element than off ({e.size})")
    mode = _SELECT.get(select)
    if mode is None:
        raise ValueError("invalid argument for select")
    if mode:
        sr = np.asarray(select_range)
        if sr.ndim != 1 or sr.size != 2 or sr[1] < sr[0]:
            raise ValueError("select_range must be a 2-element array-like in nondecreasing order")
        if sr.dtype.char.lower() not in "hilqp":
            raise ValueError(f'select="i" needs an integer select_range, got dtype {sr.dtype}')
        il, iu = sr + 1  # LAPACK counts from 1
        if il < 1 or iu > d.size:
            raise ValueError("select_range out of bounds")
    if d.size == 1:
        w, v = np.array([d[0]], dtype=d.dtype), np.array([[1.0]], dtype=d.dtype)
        return w if eigvals_only else (w, v)
    if mode == 0:
        w, v, info = dstevd(d, e, compute_v=not eigvals_only)
        _check_info(info, "dstevd")
        return w if eigvals_only else (w, v)
    # abstol 0 is LAPACK's default, eps·‖T‖₁. Eigenvectors need dstebz's
    # block order ("B"); they are sorted below.
    m, w, iblock, isplit, info = dstebz(
        d, e, mode, 0.0, 1.0, il, iu, 0.0, "E" if eigvals_only else "B"
    )
    _check_info(info, "dstebz")
    w = w[:m]
    if eigvals_only:
        return w
    v, info = dstein(d, e, w, iblock, isplit)
    _check_info(info, "dstein")
    order = np.argsort(w)
    return w[order], v[:, order]


def _inverse_iteration(d: np.ndarray, e: np.ndarray, w: np.ndarray, error: type = LinAlgError):
    """``dstein``'s unit vectors (columns) of the tridiagonal (d, e) at the
    ascending values ``w``, the ladder taken as one unsplit block: every
    ``iblock`` entry 1, its last row d.size. Inverse iteration at w_k finds
    the vector of the level nearest it. ``error`` (LinAlgError by default)
    when LAPACK does not converge."""
    rows = d.size
    e = e if rows > 1 else np.zeros(1)  # scipy's wrapper wants an entry, unread on one row
    v, info = dstein(d, e, w, np.ones(rows, dtype=np.int32), np.full(rows, rows, dtype=np.int32))
    _check_info(info, "dstein", error)
    return v


def _row_sums(d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gershgorin row sums |d_i| + b_i + b_(i-1) of (d, b), b ≥ 0; inf on overflow."""
    with np.errstate(over="ignore"):
        rows = np.abs(d)
        rows[:-1] += b
        rows[1:] += b
    return rows


def ladder(diag, off) -> tuple:
    """(diag, |off|, Gershgorin bound on ‖T‖ or inf) as floats, formed once per ladder."""
    d, b = np.asarray(diag, dtype=float), np.abs(off)
    return d, b, float(_row_sums(d, b).max())


def bisection_bound(diag: np.ndarray, off: np.ndarray, norm: float | None = None) -> float:
    """WINDOW_EPS·eps·‖T‖: how far a value ``eigh`` bisects on the
    tridiagonal (diag, |off|) may lie from its exact eigenvalue."""
    return WINDOW_EPS * EPS * (ladder(diag, off)[2] if norm is None else norm)


def _rayleigh(d: np.ndarray, e: np.ndarray, v: np.ndarray, tail: float) -> tuple:
    """Rayleigh quotients of the columns of ``v`` on the tridiagonal (d, e),
    and the residual norm of each pair on a ladder that continues past
    these rows through the coupling ``tail`` (0 for the whole ladder)."""
    tv = d[:, None] * v
    tv[:-1] += e[:, None] * v[1:]
    tv[1:] += e[:, None] * v[:-1]
    w = np.sum(v * tv, axis=0)
    return w, tail * np.abs(v[-1]) + np.linalg.norm(tv - w * v, axis=0)


def _windows(theta: np.ndarray, resid: np.ndarray, bound: float) -> np.ndarray | None:
    """Half-widths resid_k + ``bound`` of the windows theta_k ± that much,
    each holding an eigenvalue, or None when two of them overlap (or the
    theta_k are not ascending)."""
    delta = resid + bound
    lo, hi = theta - delta, theta + delta
    return None if np.any(lo[1:] <= hi[:-1]) else delta


def _count_up_to(d: np.ndarray, b: np.ndarray, norm: float, top: float) -> int:
    """How many eigenvalues of the ladder (d, b, norm) lie at or below
    ``top``, by one value-range ``dstebz`` whose tolerance spans the range,
    so that it counts and bisects nothing; -1 when LAPACK fails."""
    found, _, _, _, info = dstebz(d, b, 1, -np.inf, top, 1, 1, 2 * (abs(top) + norm), "E")
    return -1 if info else found


def leading_block_eigenvalues(diag: np.ndarray, off: np.ndarray, count: int, cut: int) -> tuple | None:
    """The lowest ``count`` eigenvalues of the ladder (diag, |off|) and of
    its leading ``cut`` rows, certified from a seed of a leading block of
    the cut ladder: (theta, width, width2, bound, bound2), each level within
    width_k (cut ladder) or width2_k (whole ladder) of theta_k, with bound
    and bound2 the two ladders' ``bisection_bound``, which width and width2
    add to resid_k. None when a check fails.

    The block has SEED_START rows, doubled up to cut - 1, so that its
    coupling off[m-1] exists. Its lowest ``count`` eigenpairs are bisected
    (``eigh``) or refined by inverse iteration (``dstein``) and Rayleigh
    quotients from earlier values: the first block's by root-free QR
    (``dsterf``) when the cap allows its double, or the previous block's
    once their residuals are below SEED_REFINE of their spacing. The seed is
    accepted once every resid_k = |off[m-1]|·|y_k[m-1]| + ‖T_m y_k - theta_k
    y_k‖ is at roundoff (SEED_RESID_EPS·eps·‖T‖ of the cut ladder). None when
    no block up to the cap is, when ‖T‖ exceeds SEED_NORM_MAX, when LAPACK
    fails on a block, or when the windows theta_k ± width2_k overlap or the
    count up to the last finds other than ``count`` eigenvalues.
    """
    d, b = np.asarray(diag, dtype=float), np.abs(off)
    cap = cut - 1
    m = min(SEED_START, cap)
    if m <= count:
        return None
    rows = _row_sums(d, b)
    # the cut ladder's last row lacks the coupling off[cut-1] below it
    norm = max(float(rows[: cut - 1].max()), float(abs(d[cut - 1])) + float(b[cut - 2]))
    norm2 = float(rows.max())
    if not norm2 <= SEED_NORM_MAX:
        return None
    refine = 2 * m <= cap
    if refine:
        w, info = dsterf(d[:m], b[: m - 1])  # ascending
        if info:
            return None
        w, m = w[:count], 2 * m
    while True:
        e = b[: m - 1]
        try:
            if refine:
                v = _inverse_iteration(d[:m], e, w)
            else:
                w, v = eigh(d[:m], e, select="i", select_range=(0, count - 1))
        except LinAlgError:
            return None
        w, resid = _rayleigh(d[:m], e, v, b[m - 1])
        if np.all(resid <= SEED_RESID_EPS * EPS * norm):
            break
        if m == cap:
            return None
        refine = np.all(resid <= SEED_REFINE * np.diff(w).min(initial=np.inf))
        m = min(2 * m, cap)
    bound, bound2 = WINDOW_EPS * EPS * norm, WINDOW_EPS * EPS * norm2
    width2 = _windows(w, resid, bound2)
    if width2 is None or _count_up_to(d, b, norm2, w[-1] + width2[-1]) != count:
        return None
    return w, resid + bound, width2, bound, bound2


def _seed_rows(d: np.ndarray, b: np.ndarray, norm: float, count: int) -> tuple:
    """[lo, hi): the rows of the ladder (d, b, norm), b > 0, that the seed
    of its lowest count + 1 levels is first tried on.

    They centre on the least Gershgorin lower bound d_i - b_i - b_(i-1),
    the bottom of the ladder's well. A harmonic fit there (curvature K of
    the lower bounds, couplings b_i + b_(i-1)) spaces its levels by omega =
    sqrt((b_i + b_(i-1))·K), so the top certified one lies below the bottom
    plus count·omega, lambda. Where the lower bound exceeds lambda, a
    vector at lambda decays by arccosh((d_i - lambda)/(b_i + b_(i-1))) in
    log per row, and the rows end on each side once it has decayed by
    ‖T‖/sqrt(omega·``bisection_bound``): a cut coupling, at most ‖T‖,
    times the vector's end entry then gives a residual whose square over
    the spacing, the Kato–Temple width, is below the bisection bound. At
    least WHOLE_MIN_ROWS rows; the whole ladder when the fit is not convex.
    """
    n = d.size
    pair = np.append(b, 0.0)
    pair[1:] += b  # b_i + b_(i-1)
    lower = d - pair
    c = int(np.argmin(lower))
    j = min(max(c, 1), n - 2)
    curvature = lower[j - 1] - 2 * lower[j] + lower[j + 1]
    spacing = math.sqrt(pair[j] * curvature) if curvature > 0 else 0.0
    if not spacing > 0:
        return 0, n
    with np.errstate(over="ignore"):  # an overflow only ends the rows sooner
        decay = np.arccosh(np.maximum((d - (lower[c] + count * spacing)) / pair, 1.0))
    target = 0.5 * (math.log(norm) - math.log(WINDOW_EPS * EPS * spacing))
    lo = c - int(np.searchsorted(np.cumsum(decay[c::-1]), target))
    hi = c + 1 + int(np.searchsorted(np.cumsum(decay[c:]), target))
    return _widen(max(lo, 0), min(hi, n), WHOLE_MIN_ROWS, n)


def _widen(lo: int, hi: int, rows: int, n: int) -> tuple:
    """Rows [lo', hi') of an n-row ladder holding [lo, hi), max(rows,
    hi - lo) of them (n at most), spread evenly about it where the ends
    allow."""
    rows = min(max(rows, hi - lo), n)
    lo = min(max(lo - (rows - (hi - lo)) // 2, 0), n - rows)
    return lo, lo + rows


def _window_levels(d, b, norm, count, lo, hi) -> tuple | None:
    """``whole_ladder_eigenvalues`` of the ladder (d, b, norm) from a seed
    on its rows [lo, hi); None when LAPACK fails or a check declines."""
    dw, bw = d[lo:hi], b[lo: hi - 1]
    try:
        # block order ("B") for dstein; should the rows split, unsorted
        # values give overlapping windows, and the rows are declined
        m, w, iblock, isplit, info = dstebz(
            dw, bw, 2, 0.0, 1.0, 1, count + 1, SEED_COARSE * norm / d.size, "B"
        )
        _check_info(info, "dstebz")
        v, info = dstein(dw, bw, w[:m], iblock, isplit)
        _check_info(info, "dstein")
    except LinAlgError:
        return None
    theta, resid = _rayleigh(dw, bw, v, 0.0)
    head = b[lo - 1] if lo else 0.0
    tail = b[hi - 1] if hi < d.size else 0.0
    resid = resid + (head * np.abs(v[0]) + tail * np.abs(v[-1]))
    bound = bisection_bound(d, b, norm)
    delta = _windows(theta, resid, bound)
    if delta is None:
        return None
    t, r = theta[:-1], resid[:-1]
    top = theta + delta
    gap = np.minimum(t - np.concatenate(([-np.inf], top[:-2])), theta[1:] - delta[1:] - t)
    width = np.minimum(r, r * r / gap) + bound
    if np.any(width > 2 * bound) or _count_up_to(d, b, norm, top[-1]) != count + 1:
        return None
    return t, width


def whole_ladder_eigenvalues(diag: np.ndarray, off: np.ndarray, count: int) -> tuple | None:
    """(values, half-widths) of the lowest ``count`` eigenvalues of the
    ladder (diag, |off|), certified from a seed on a window of its rows;
    None when a gate or a check declines the ladder.

    The seed is the lowest count + 1 eigenvalues of the rows [lo, hi),
    bisected by index to SEED_COARSE of the whole ladder's mean level
    spacing ‖T‖/dim (close enough for ``dstein`` to converge within its
    iterations), and the Rayleigh quotients theta_k and residuals resid_k of
    their ``dstein`` vectors, zero-padded to the whole ladder: the two cut
    couplings |off[lo-1]|·|y_k[0]| and |off[hi-1]|·|y_k[-1]| are added to
    each residual on the rows. Its windows theta_k ± (resid_k +
    ``bisection_bound``) are checked as ``leading_block_eigenvalues``
    checks a leading block's: disjoint, and holding exactly count + 1
    eigenvalues of the whole ladder up to the top of the last. Each of the
    lowest ``count`` is then narrowed by Kato–Temple to min(resid_k,
    resid_k²/gap_k) + ``bisection_bound``, gap_k the distance from theta_k
    to the nearer neighbouring window (below the lowest, none), and must
    not be wider than twice the bisection bound.

    The first rows are sized from the ladder (``_seed_rows``); when a check
    fails they double about themselves, up to the whole ladder, whose seed
    has no cut coupling. The gates come before any work, where the seed
    cannot be cheaper than bisecting the levels outright: fewer than
    WHOLE_MIN_ROWS rows, ``count`` at least WHOLE_COUNT_LIMIT, a zero
    off-diagonal (the ladder splits, and its blocks bisect quickly) and ‖T‖
    above SEED_NORM_MAX.
    """
    if not (count < WHOLE_COUNT_LIMIT and WHOLE_MIN_ROWS <= len(diag) and off.all()):
        return None
    d, b, norm = ladder(diag, off)
    if not norm <= SEED_NORM_MAX:
        return None
    lo, hi = _seed_rows(d, b, norm, count)
    while True:
        cut = _window_levels(d, b, norm, count, lo, hi)
        if cut is not None or hi - lo == d.size:
            return cut
        lo, hi = _widen(lo, hi, 2 * (hi - lo), d.size)
