"""``verify`` runs at sector cost: it reaches none of the full-space paths.

The full-space basis, the thread pool and the dense matrix exponential stay
in the package as test oracles and for ``diagonalize``; a later change that
routes ``run_verification_suite`` through one of them again fails here. The
displacement is formed only in the columns a check reads, from one
generator eigenbasis per sector.
"""

import sys

import numpy as np
import pytest
import scipy.linalg

from twomode_jcx import cli, displace, fock, parallel
from twomode_jcx.models import ModelParams
from twomode_jcx.verify import run_verification_suite

FORBIDDEN = [(fock, "build_basis"), (parallel, "parallel_map"), (scipy.linalg, "expm")]


def _rebind(monkeypatch, owner, attr, replacement):
    """Replace ``owner.attr`` as bound in ``owner`` and in every package module."""
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, replacement)
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "twomode_jcx" or name.startswith("twomode_jcx.")):
            for bound, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, bound, replacement)


def _forbid(monkeypatch):
    """Make every forbidden function raise, as bound in every package module."""
    for owner, attr in FORBIDDEN:

        def refuse(*args, _name=f"{owner.__name__}.{attr}", **kwargs):
            raise AssertionError(f"verify reached {_name}")

        _rebind(monkeypatch, owner, attr, refuse)


def test_guard_reaches_by_name_imports(monkeypatch):
    _forbid(monkeypatch)
    with pytest.raises(AssertionError, match="build_basis"):
        cli.build_basis(2)
    with pytest.raises(AssertionError, match="parallel_map"):
        cli.parallel_map(abs, [1])
    with pytest.raises(AssertionError, match="expm"):
        scipy.linalg.expm(np.zeros((1, 1)))


@pytest.mark.parametrize("f, g", [(2.0, 1.0), (1.0, 2.0)])
def test_verify_reaches_no_full_space_path(monkeypatch, f, g):
    _forbid(monkeypatch)
    report = run_verification_suite(ModelParams(g=g, f=f), seed=5)
    assert report.all_passed, [r.anchor for r in report.failed]


@pytest.mark.parametrize("f, g", [(2.0, 1.0), (1.0, 2.0)])
def test_verify_forms_only_the_displacement_columns_it_reads(monkeypatch, f, g):
    calls = []
    original = displace.displacement_direct

    def recording(xi, sector, columns=slice(None)):
        out = original(xi, sector, columns)
        key = (sector.parent_cutoff, sector.charge_kind, sector.charge_value)
        calls.append((key, sector.dim, 1 if out.ndim == 1 else out.shape[1], xi != 0))
        return out

    _rebind(monkeypatch, displace, "displacement_direct", recording)
    displace._generator_eigenbasis.cache_clear()
    report = run_verification_suite(ModelParams(g=g, f=f), seed=5)
    assert report.all_passed, [r.anchor for r in report.failed]
    assert calls
    wide = [(key, dim, ncols) for key, dim, ncols, _ in calls if dim > 25 and ncols > 15]
    assert not wide, wide
    # every sector is eigendecomposed once, and nothing is evicted
    solved = {key for key, _, _, nonzero in calls if nonzero}
    info = displace._generator_eigenbasis.cache_info()
    assert info.misses == info.currsize == len(solved), (info, len(solved))
    assert info.hits > 0
