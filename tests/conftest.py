import numpy as np
import pytest

from twomode_jcx.fock import build_basis
from twomode_jcx.models import ModelParams


@pytest.fixture(scope="session")
def basis12():
    return build_basis(12)


@pytest.fixture(scope="session")
def basis20():
    return build_basis(20)


@pytest.fixture(scope="session")
def basis60():
    return build_basis(60)


@pytest.fixture(scope="session")
def basis100():
    return build_basis(100)


@pytest.fixture
def params_f2_g1():
    """Reference non-degenerate couplings in natural units."""
    return ModelParams(g=1.0, f=2.0)


@pytest.fixture
def polar_inner_product():
    """integr conj(f) g rho drho dphi of two callables of (rho, phi) on a polar
    grid of scipy's rules, independent of wavefunc: Gauss-Laguerre in x = rho^2
    (with e^{-x} folded back into the weights) times Gauss-Legendre in phi.
    Unlike wavefunc's radial rule it also integrates pairs of different m."""
    from scipy.special import roots_genlaguerre, roots_legendre

    def integrate(f, g, n_rho=64, n_phi=48):
        x, wx = roots_genlaguerre(n_rho, 0.0)
        t, wt = roots_legendre(n_phi)
        rho, phi = np.sqrt(x)[:, None], np.pi * (t[None, :] + 1.0)
        weights = 0.5 * wx[:, None] * np.exp(x[:, None]) * np.pi * wt[None, :]
        return complex(np.sum(weights * np.conj(f(rho, phi)) * g(rho, phi)))

    return integrate


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pinned_tridiagonal():
    """dim 40: a chain (diag 10 + i, off 0.1) on rows 0..36 and three
    decoupled top rows (diag 0, 10.5, 12.5), whose unit eigenvectors are
    pinned to the cut and interleave the chain's lowest levels."""
    diag = np.concatenate([10.0 + np.arange(37), [0.0, 10.5, 12.5]])
    off = np.concatenate([np.full(36, 0.1), np.zeros(3)])
    return diag, off
