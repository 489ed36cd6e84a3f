"""Sector-native tridiagonal operators against the full-space reference.

The production path builds each charge sector in closed form; the full
(cutoff+1)² basis with products of hard-truncated ladder matrices, projected
onto the sector, is the reference it must reproduce.
"""

import cmath
import math

import numpy as np
import pytest

from twomode_jcx.errors import NotConvergedError
from twomode_jcx.fock import (
    ChargeKind,
    LadderKind,
    Mode,
    build_basis,
    get_sector,
    ladder_op,
    number_op,
    project_operator,
    sector_basis,
    sector_decompose,
)
from twomode_jcx.models import (
    Component,
    ModelKind,
    ModelParams,
    build_kg_operator,
    conserved_charge,
    sector_tridiagonal,
)
from twomode_jcx.spectra import (
    BOUNDARY_MARGIN,
    BOUNDARY_MASS_TOL,
    CoupledOscillators,
    NondegenerateParametricAmplifier,
    nonrelativistic_limit_check,
    numeric_spectrum,
)

OPERATOR_TOL = 1e-13  # relative to the block's largest entry
SPECTRUM_TOL = 1e-12  # relative, per eigenvalue

# Complex couplings of either dominance, weakly tilted so that cutoff 30
# already certifies the lowest levels of every su(1,1) sector used here.
F_DOMINANT = ModelParams(g=0.5 * cmath.exp(0.7j), f=2.0 * cmath.exp(-1.9j), mc2=1.3, hbar=0.9)
G_DOMINANT = ModelParams(g=2.0 * cmath.exp(2.4j), f=0.5 * cmath.exp(0.3j), mc2=1.3, hbar=0.9)


def _loop_partition(basis, charge_kind):
    """charge -> parent indices, by a pass over the basis states."""
    groups = {}
    for i, (na, nb) in enumerate(basis.states):
        q = nb - na if charge_kind is ChargeKind.DIFFERENCE_ND else na + nb
        groups.setdefault(q, []).append(i)
    return dict(sorted(groups.items()))


class TestClosedFormSectors:
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 13])
    @pytest.mark.parametrize("charge_kind", list(ChargeKind))
    def test_decompose_equals_loop_partition(self, cutoff, charge_kind):
        basis = build_basis(cutoff)
        ref = _loop_partition(basis, charge_kind)
        sectors = sector_decompose(basis, charge_kind)
        assert [s.charge_value for s in sectors] == list(ref)
        for sec in sectors:
            idx = ref[sec.charge_value]
            assert sec.indices.tolist() == idx
            assert sec.states == tuple(basis.states[i] for i in idx)
            assert sec.parent_cutoff == cutoff and sec.charge_kind is charge_kind

    def test_get_sector_delegates_to_the_constructor(self, basis12):
        for charge_kind in ChargeKind:
            for q in (-12, -1, 0, 5, 12, 24):
                try:
                    direct = sector_basis(12, charge_kind, q)
                except ValueError:
                    with pytest.raises(ValueError, match="no sector with charge"):
                        get_sector(basis12, charge_kind, q)
                    continue
                via_basis = get_sector(basis12, charge_kind, q)
                assert via_basis.states == direct.states
                assert np.array_equal(via_basis.indices, direct.indices)

    @pytest.mark.parametrize(
        "charge_kind, q",
        [(ChargeKind.DIFFERENCE_ND, 13), (ChargeKind.DIFFERENCE_ND, -13),
         (ChargeKind.SUM_NS, -1), (ChargeKind.SUM_NS, 25)],
    )
    def test_absent_charge_raises(self, basis12, charge_kind, q):
        with pytest.raises(ValueError, match="no sector with charge"):
            get_sector(basis12, charge_kind, q)


class TestSectorTridiagonal:
    @pytest.mark.parametrize("cutoff", [0, 1, 3, 24])
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("p", [F_DOMINANT, G_DOMINANT], ids=["f>g", "g>f"])
    def test_equals_projected_ladder_products(self, cutoff, kind, component, p):
        basis = build_basis(cutoff)
        full = build_kg_operator(kind, component, p, basis)
        for sec in sector_decompose(basis, conserved_charge(kind)):
            ref = project_operator(full, sec).dense()
            block = build_kg_operator(kind, component, p, sec).dense()
            diag, off = sector_tridiagonal(kind, component, p, sec)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(block - ref)) <= OPERATOR_TOL * scale
            assert np.max(np.abs(diag - ref.diagonal().real)) <= OPERATOR_TOL * scale
            if sec.dim > 1:
                assert np.max(np.abs(off - np.diag(ref, -1))) <= OPERATOR_TOL * scale
                # Tridiagonal: nothing beyond the first off-diagonals.
                assert np.max(np.abs(np.triu(ref, 2))) == 0.0


def _reference_interior(kind, component, p, cutoff, charge):
    """All eigenvalues and the boundary-free ones, by dense eigh of the projection."""
    basis = build_basis(cutoff)
    sec = get_sector(basis, conserved_charge(kind), charge)
    kg = project_operator(build_kg_operator(kind, component, p, basis), sec).dense()
    w, v = np.linalg.eigh(kg)
    margin = min(BOUNDARY_MARGIN, max(1, len(w) - 1))
    keep = np.sum(np.abs(v[-margin:, :]) ** 2, axis=0) <= BOUNDARY_MASS_TOL
    return w, w[keep]


def _reference_spectrum(kind, component, p, cutoff, charge, count, tol=1e-9):
    """The numeric_spectrum contract, from full-space dense diagonalization."""
    w, kept = _reference_interior(kind, component, p, cutoff, charge)
    if kind is ModelKind.JC_JC and charge <= cutoff:
        return w[:count] + p.mc2**2
    _, kept2 = _reference_interior(kind, component, p, 2 * cutoff, charge)
    if min(len(kept), len(kept2)) < count:
        raise NotConvergedError("too few interior eigenvalues")
    scale = np.maximum(np.abs(kept2[:count]), p.mc2**2)
    if np.max(np.abs(kept[:count] - kept2[:count]) / scale) > tol:
        raise NotConvergedError("cutoff doubling moved eigenvalues")
    return kept2[:count] + p.mc2**2


class TestNumericSpectrumOracle:
    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("p", [F_DOMINANT, G_DOMINANT], ids=["f>g", "g>f"])
    @pytest.mark.parametrize("kind, charges", [
        (ModelKind.JC_AJC, (-4, 0, 3)),
        (ModelKind.JC_JC, (0, 7, 30)),
    ])
    def test_equals_dense_eigh_of_projection(self, kind, charges, component, p):
        cutoff = 30
        for q in charges:
            sec = sector_basis(cutoff, conserved_charge(kind), q)
            count = min(6, sec.dim)
            got = numeric_spectrum(kind, component, p, sec, count)
            ref = _reference_spectrum(kind, component, p, cutoff, q, count)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= SPECTRUM_TOL

    @pytest.mark.parametrize("kind, p, cutoff, charge, count, match", [
        # Doubling the cutoff still moves the levels by ~3e-9.
        (ModelKind.JC_AJC, ModelParams(g=1.0, f=2.0), 30, 0, 4, "doubling"),
        # Strong tilt: the low eigenvectors reach the top of the sector.
        (ModelKind.JC_AJC, ModelParams(g=1.6, f=2.0), 20, 0, 4, "interior"),
        # |g| > |f| leaves boundary-pinned artifacts: a full sector has
        # fewer interior eigenpairs than states.
        (ModelKind.JC_AJC, ModelParams(g=2.0, f=0.5), 6, 0, 7, "interior"),
        # su(2) sector cut by the cutoff (N_s > cutoff) is not converged.
        (ModelKind.JC_JC, ModelParams(g=1.0, f=2.0), 10, 15, 3, "interior"),
    ])
    def test_not_converged_where_the_reference_is_not(self, kind, p, cutoff, charge, count, match):
        with pytest.raises(NotConvergedError):
            _reference_spectrum(kind, Component.UPPER, p, cutoff, charge, count)
        sec = sector_basis(cutoff, conserved_charge(kind), charge)
        with pytest.raises(NotConvergedError, match=match):
            numeric_spectrum(kind, Component.UPPER, p, sec, count)

    @pytest.mark.parametrize("count", [0, -2, 32])
    def test_count_outside_sector_raises(self, count):
        sec = sector_basis(30, ChargeKind.DIFFERENCE_ND, 0)
        with pytest.raises(ValueError, match="levels from a dim-31 sector"):
            numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, F_DOMINANT, sec, count)


def _reference_limit_operator(case, basis):
    """Weak-coupling limit Hamiltonian (hbar = 1) from full-space ladder products."""
    na, nb = number_op(Mode.A, basis), number_op(Mode.B, basis)
    a, b = ladder_op(Mode.A, LadderKind.LOWER, basis), ladder_op(Mode.B, LadderKind.LOWER, basis)
    ad, bd = a.dagger(), b.dagger()
    chi = math.sqrt(case.omega1 * case.omega2)
    ph = cmath.exp(-2j * case.phase)
    if isinstance(case, NondegenerateParametricAmplifier):
        coupling = (1j * chi * ph) * (ad @ bd) + (-1j * chi * np.conj(ph)) * (a @ b)
    else:
        coupling = (chi * ph) * (ad @ b) + (chi * np.conj(ph)) * (bd @ a)
    return case.omega1 * na + case.omega2 * nb + coupling


@pytest.mark.parametrize("case, charge, charge_kind", [
    (NondegenerateParametricAmplifier(1.0, 2.0, 0.4), -2, ChargeKind.DIFFERENCE_ND),
    (CoupledOscillators(1.0, 2.0, 0.4), 5, ChargeKind.SUM_NS),
])
def test_limit_operator_equals_projected_ladder_products(case, charge, charge_kind):
    cutoff = 20
    basis = build_basis(cutoff)
    sec = get_sector(basis, charge_kind, charge)
    ref = np.linalg.eigvalsh(project_operator(_reference_limit_operator(case, basis), sec).dense())
    for index in (0, 1, 3):
        rep = nonrelativistic_limit_check(case, charge, index, 1e5, cutoff=cutoff)
        expected = ref[index] + rep.offset
        # Relative to the spectrum's scale: the lowest coupled-oscillator level is 0.
        assert abs(rep.eps_analytic - expected) <= SPECTRUM_TOL * np.max(np.abs(ref))
