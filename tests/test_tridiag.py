"""``tridiag.eigh`` returns what ``scipy.linalg.eigh_tridiagonal`` returns on
the same arguments, bit for bit, and rejects what it rejects; its bisected
values lie within ``tridiag.bisection_bound`` of the exact eigenvalues."""

import numpy as np
import pytest
import scipy.linalg as la
from click.testing import CliRunner

from twomode_jcx import tridiag
from twomode_jcx.cli import main
from twomode_jcx.fock import ChargeKind, sector_basis
from twomode_jcx.models import Component, ModelKind, ModelParams, sector_tridiagonal

P = ModelParams(g=1.0 - 0.5j, f=2.0)


def _sector(kind, cutoff, charge):
    """(diag, |off|) of a sector KG operator, as ``numeric_spectrum`` solves it."""
    charge_kind = ChargeKind.SUM_NS if kind is ModelKind.JC_JC else ChargeKind.DIFFERENCE_ND
    diag, off = sector_tridiagonal(kind, Component.UPPER, P, sector_basis(cutoff, charge_kind, charge))
    return diag, np.abs(off)


# dims 1, 2, 7 (exact su(2) sectors), 121 and 561 (su(1,1) sector 0 at
# cutoffs 120 and 560); "pinned" is the conftest ladder with three pinned
# eigenpairs (dim 40)
SECTORS = {
    "dim1": lambda: _sector(ModelKind.JC_JC, 20, 0),
    "dim2": lambda: _sector(ModelKind.JC_JC, 20, 1),
    "dim7": lambda: _sector(ModelKind.JC_JC, 20, 6),
    "dim121": lambda: _sector(ModelKind.JC_AJC, 120, 0),
    "dim561": lambda: _sector(ModelKind.JC_AJC, 560, 0),
}


def _selections(diag, off):
    """Keyword sets for every mode: all and index ranges."""
    dim = diag.size
    out = [{}]
    for lo, hi in {(0, 0), (0, min(dim, 8) - 1), (dim // 2, dim - 1), (dim - 1, dim - 1)}:
        out.append({"select": "i", "select_range": (lo, hi)})
    return out


@pytest.mark.parametrize("name", [*SECTORS, "pinned"])
@pytest.mark.parametrize("eigvals_only", [False, True], ids=["vectors", "values"])
def test_equals_scipy_bit_for_bit(name, eigvals_only, pinned_tridiagonal):
    diag, off = pinned_tridiagonal if name == "pinned" else SECTORS[name]()
    for kwargs in _selections(diag, off):
        got = tridiag.eigh(diag, off, eigvals_only=eigvals_only, **kwargs)
        want = la.eigh_tridiagonal(diag, off, eigvals_only=eigvals_only, **kwargs)
        if eigvals_only:
            got, want = (got,), (want,)
        assert len(got) == len(want)
        for g, r in zip(got, want):
            assert g.dtype == r.dtype and g.shape == r.shape, kwargs
            assert np.array_equal(g, r), kwargs


@pytest.mark.parametrize("a, b, n", [(0.0, 1.0, 200), (1e6, 3e5, 561), (-5.0, 1e-3, 40), (7.0, 2.0, 2)])
def test_bisection_bound_covers_every_bisected_value(a, b, n):
    # the Toeplitz ladder (a, b) has eigenvalues a + 2b cos(kπ/(n + 1)),
    # k = 1..n, known to a few ulps of its norm
    diag, off = np.full(n, a), np.full(n - 1, b)
    exact = np.sort(a + 2 * b * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    bound = tridiag.bisection_bound(diag, off)
    assert bound > 0
    for rng in {(0, min(n, 8) - 1), (n // 2, n - 1), (n - 1, n - 1)}:
        got = tridiag.eigh(diag, off, eigvals_only=True, select="i", select_range=rng)
        want = exact[rng[0]: rng[1] + 1]
        assert np.max(np.abs(got - want)) <= bound, rng


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["diag", "off"])
@pytest.mark.parametrize("kwargs", [
    {}, {"eigvals_only": True}, {"select": "i", "select_range": (0, 2)},
], ids=["all", "values", "index"])
def test_non_finite_input_raises_value_error(bad, where, kwargs, pinned_tridiagonal):
    diag, off = pinned_tridiagonal
    (diag if where == "diag" else off)[5] = bad
    for solve in (tridiag.eigh, la.eigh_tridiagonal):
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve(diag, off, **kwargs)


@pytest.mark.parametrize("args, kwargs, error", [
    ((np.zeros(4), np.ones(2)), {}, ValueError),  # off of the wrong length
    ((np.zeros(3, dtype=complex), np.ones(2)), {}, TypeError),
    ((np.zeros(3), np.ones(2)), {"select": "i", "select_range": (0, 3)}, ValueError),
    ((np.zeros(3), np.ones(2)), {"select": "i", "select_range": (-1, 1)}, ValueError),
    ((np.zeros(3), np.ones(2)), {"select": "i", "select_range": (2, 1)}, ValueError),
    ((np.zeros(3), np.ones(2)), {"select": "i", "select_range": (0.0, 1.0)}, ValueError),
])
def test_malformed_arguments_rejected_as_scipy_does(args, kwargs, error):
    for solve in (tridiag.eigh, la.eigh_tridiagonal):
        with pytest.raises(error):
            solve(*args, **kwargs)


@pytest.mark.parametrize("select", ["v", "x"])
def test_unknown_select_rejected_as_scipy_does(select):
    # "v" (a value range) is scipy's but not this function's; "x" is neither's
    args, kwargs = (np.zeros(3), np.ones(2)), {"select": select, "select_range": (0.0, 1.0)}
    with pytest.raises(ValueError, match="^invalid argument for select$"):
        tridiag.eigh(*args, **kwargs)
    if select == "x":
        with pytest.raises(ValueError, match="^invalid argument for select$"):
            la.eigh_tridiagonal(*args, **kwargs)


@pytest.mark.parametrize("argv", [
    ["diagonalize", "--f-re", "1e154", "--sector", "0"],
    ["diagonalize", "--hbar", "1e154"],
    ["verify", "--f-re", "1e154"],
    ["verify", "--g-re", "1e154"],
], ids=["diagonalize-f", "diagonalize-hbar", "verify-f", "verify-g"])
def test_non_finite_sector_exits_2(argv):
    # |f|² N, |g|² N or hbar² |f|² N overflows a sector band: refused where
    # it is formed, with RuntimeWarning an error (as pytest runs it)
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2, result.output
    errors = [ln for ln in result.output.splitlines() if ln.startswith("Error:")]
    assert len(errors) == 1 and "numeric overflow" in errors[0], result.output
