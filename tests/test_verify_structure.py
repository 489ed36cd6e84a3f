"""``verify`` runs at sector cost: it reaches none of the full-space paths.

The full-space basis, the thread pool and the dense matrix exponential stay
in the package as test oracles and for ``diagonalize``; a later change that
routes ``run_verification_suite`` through one of them again fails here.
"""

import sys

import numpy as np
import pytest
import scipy.linalg

from twomode_jcx import cli, fock, parallel
from twomode_jcx.models import ModelParams
from twomode_jcx.verify import run_verification_suite

FORBIDDEN = [(fock, "build_basis"), (parallel, "parallel_map"), (scipy.linalg, "expm")]


def _forbid(monkeypatch):
    """Make every forbidden function raise, as bound in every package module."""
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "twomode_jcx" or name.startswith("twomode_jcx."))
    ]
    for owner, attr in FORBIDDEN:
        original = getattr(owner, attr)

        def refuse(*args, _name=f"{owner.__name__}.{attr}", **kwargs):
            raise AssertionError(f"verify reached {_name}")

        monkeypatch.setattr(owner, attr, refuse)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, refuse)


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
