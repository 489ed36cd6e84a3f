"""Sector-native tridiagonal operators against the full-space reference.

The production path builds each charge sector in closed form; the full
(cutoff+1)² basis with products of hard-truncated ladder matrices, projected
onto the sector, is the reference it must reproduce. The second-order
operators are untruncated, so their reference is taken one cutoff up, where
no product on the sector's states meets the cut.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from twomode_jcx import displace, fock, liealg, spectra, tridiag
from twomode_jcx.displace import (
    TiltingParams,
    displacement_direct,
    displacement_normal,
    zeta_to_xi,
)
from twomode_jcx.errors import DomainError, EdgeStateError, NotConvergedError, SectorMismatchError
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
from twomode_jcx.liealg import (
    AlgebraKind,
    casimir,
    generator_triple,
    sector_algebra,
    sector_generators,
    su2_generators,
    su11_generators,
    verify_algebra,
    verify_sector_algebra,
)
from twomode_jcx.models import (
    Branch,
    Component,
    ModelKind,
    ModelParams,
    build_full_hamiltonian,
    build_kg_operator,
    build_spinor,
    conserved_charge,
    coupling_block,
    eigen_residual,
    sector_pair,
    sector_spinor,
    sector_tridiagonal,
)
from twomode_jcx.spectra import (
    CoupledOscillators,
    NondegenerateParametricAmplifier,
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
        for sec in sector_decompose(build_basis(cutoff), conserved_charge(kind)):
            ref = _untruncated_block(kind, component, p, sec)
            block = build_kg_operator(kind, component, p, sec).toarray()
            diag, off = sector_tridiagonal(kind, component, p, sec)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(block - ref)) <= OPERATOR_TOL * scale
            assert np.max(np.abs(diag - ref.diagonal().real)) <= OPERATOR_TOL * scale
            if sec.dim > 1:
                assert np.max(np.abs(off - np.diag(ref, -1))) <= OPERATOR_TOL * scale
                # Tridiagonal: nothing beyond the first off-diagonals.
                assert np.max(np.abs(np.triu(ref, 2))) == 0.0


def _untruncated_block(kind, component, p, sec):
    """The KG operator on the states of ``sec``: the block, on those states,
    of the projected hard-truncated products at cutoff + 1, where a a† and
    b b† on every state of ``sec`` are n + 1."""
    above = sector_basis(sec.parent_cutoff + 1, sec.charge_kind, sec.charge_value)
    full = build_kg_operator(kind, component, p, build_basis(above.parent_cutoff))
    rows = [above.states.index(state) for state in sec.states]
    return project_operator(full, above).toarray()[np.ix_(rows, rows)]


def _reference_eigenvalues(kind, component, p, cutoff, charge):
    """All eigenvalues of the sector's KG operator, by dense eigh."""
    sec = sector_basis(cutoff, conserved_charge(kind), charge)
    return np.linalg.eigvalsh(_untruncated_block(kind, component, p, sec))


def _reference_spectrum(kind, component, p, cutoff, charge, count, tol=1e-9):
    """The numeric_spectrum contract, from full-space dense diagonalization.

    An N_s sector is a finite su(2) irrep: its reference is the whole irrep.
    """
    if kind is ModelKind.JC_JC:
        w = _reference_eigenvalues(kind, component, p, max(cutoff, charge), charge)
        return w[:count] + p.mc2**2
    w = _reference_eigenvalues(kind, component, p, cutoff, charge)[:count]
    w2 = _reference_eigenvalues(kind, component, p, 2 * cutoff, charge)[:count]
    scale = np.maximum(np.abs(w2), p.mc2**2)
    if np.max(np.abs(w - w2) / scale) > tol:
        raise NotConvergedError("cutoff doubling moved eigenvalues")
    return w2 + p.mc2**2


class TestNumericSpectrumOracle:
    @pytest.mark.parametrize("component", list(Component))
    @pytest.mark.parametrize("p", [F_DOMINANT, G_DOMINANT], ids=["f>g", "g>f"])
    @pytest.mark.parametrize("kind, charges", [
        (ModelKind.JC_AJC, (-4, 0, 3)),
        (ModelKind.JC_JC, (0, 7, 30, 45)),
    ])
    def test_equals_dense_eigh_of_projection(self, kind, charges, component, p):
        cutoff = 30
        for q in charges:
            sec = sector_basis(cutoff, conserved_charge(kind), q)
            count = min(6, sec.dim)
            got = numeric_spectrum(kind, component, p, sec, count)
            ref = _reference_spectrum(kind, component, p, cutoff, q, count)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= SPECTRUM_TOL

    def test_certifies_the_closed_form_at_a_small_cutoff(self):
        # Hard truncation pinned an eigenpair to this cut, and its neighbours
        # moved by ~3e-9 under doubling; the leading block certifies 4, 7, 10, 13.
        p = ModelParams(g=1.0, f=2.0)
        sec = sector_basis(30, ChargeKind.DIFFERENCE_ND, 0)
        got = numeric_spectrum(ModelKind.JC_AJC, Component.UPPER, p, sec, 4)
        ref = _reference_spectrum(ModelKind.JC_AJC, Component.UPPER, p, 30, 0, 4)
        np.testing.assert_allclose(got, [4.0, 7.0, 10.0, 13.0], rtol=0, atol=1e-12)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= SPECTRUM_TOL

    @pytest.mark.parametrize("kind, p, cutoff, charge, count", [
        # Strong tilt: the low eigenvectors reach the top of the sector.
        (ModelKind.JC_AJC, ModelParams(g=1.6, f=2.0), 20, 0, 4),
        # A whole small sector: its top levels are far from the ladder's.
        (ModelKind.JC_AJC, ModelParams(g=2.0, f=0.5), 6, 0, 7),
    ])
    def test_not_converged_where_the_reference_is_not(self, kind, p, cutoff, charge, count):
        with pytest.raises(NotConvergedError):
            _reference_spectrum(kind, Component.UPPER, p, cutoff, charge, count)
        sec = sector_basis(cutoff, conserved_charge(kind), charge)
        with pytest.raises(NotConvergedError, match="doubling"):
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
    ad, bd = a.conj().T, b.conj().T
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
    # The whole spectrum of the sector tridiagonal the limit check solves,
    # at a cutoff too small for the check's amplifier doubling to pass.
    cutoff = 20
    basis = build_basis(cutoff)
    sec = get_sector(basis, charge_kind, charge)
    ref = np.linalg.eigvalsh(project_operator(_reference_limit_operator(case, basis), sec).toarray())
    diag, off = spectra._nonrel_tridiagonal(case, sec)
    got = tridiag.eigh(diag, np.abs(off), eigvals_only=True)
    # Relative to the spectrum's scale: the lowest coupled-oscillator level is 0.
    assert np.max(np.abs(got - ref)) <= SPECTRUM_TOL * np.max(np.abs(ref))


GENERATOR_TOL = 1e-13  # absolute; entries are at most cutoff + 1/2
DISPLACEMENT_TOL = 1e-12
NORMAL_FORM_TOL = 1e-12  # normwise, relative
ALGEBRA_TOL = 1e-12  # relative to max(1, full-space residual)
RESIDUAL_TOL = 1e-13  # relative to max(1, full-space residual)


def _full_generators(basis, charge_kind):
    if charge_kind is ChargeKind.DIFFERENCE_ND:
        return su11_generators(basis)
    return su2_generators(basis)


class TestSectorGenerators:
    @pytest.mark.parametrize("cutoff", range(25))
    @pytest.mark.parametrize("charge_kind", list(ChargeKind))
    def test_equal_projected_full_space_generators(self, cutoff, charge_kind):
        basis = build_basis(cutoff)
        g0, gp, gm = generator_triple(_full_generators(basis, charge_kind))
        for sec in sector_decompose(basis, charge_kind):
            diag, sub = sector_generators(sec)
            plus = np.diag(sub, -1)
            for got, ref in ((np.diag(diag), g0), (plus, gp), (plus.T, gm)):
                assert np.max(np.abs(got - project_operator(ref, sec).toarray())) <= GENERATOR_TOL

    @pytest.mark.parametrize("cutoff", range(25))
    @pytest.mark.parametrize("charge_kind", list(ChargeKind))
    def test_displacement_equals_expm_of_projected_generator(self, cutoff, charge_kind):
        basis = build_basis(cutoff)
        _, gp, gm = generator_triple(_full_generators(basis, charge_kind))
        for sec in sector_decompose(basis, charge_kind):
            # Magnitudes 0.2-0.6 and a phase in every quadrant across sectors.
            q = sec.charge_value
            xi = (0.2 + 0.1 * (q % 5)) * cmath.exp(1j * (0.4 + 1.3 * q))
            gen = xi * project_operator(gp, sec).toarray() - np.conj(xi) * project_operator(gm, sec).toarray()
            assert np.max(np.abs(displacement_direct(xi, sec) - la.expm(gen))) <= DISPLACEMENT_TOL

    @pytest.mark.parametrize("cutoff", range(25))
    @pytest.mark.parametrize("charge_kind", list(ChargeKind))
    def test_normal_form_equals_expm_of_projected_generators(self, cutoff, charge_kind):
        # la.expm of the projected full-space generators is the oracle for
        # both closed-form factors and for their product; errors are taken
        # normwise, as expm's are.
        basis = build_basis(cutoff)
        g0, gp, gm = generator_triple(_full_generators(basis, charge_kind))
        for sec in sector_decompose(basis, charge_kind):
            q = sec.charge_value
            zeta = (0.3 + 0.1 * (q % 6)) * cmath.exp(1j * (0.4 + 1.3 * q))
            algebra = sector_algebra(sec)
            tp = TiltingParams.from_xi(algebra, zeta_to_xi(algebra, zeta))
            _, sub = sector_generators(sec)
            left = la.expm(tp.zeta * project_operator(gp, sec).toarray())
            right = la.expm(-np.conj(tp.zeta) * project_operator(gm, sec).toarray())
            for got, ref in (
                (displace._raising_exp(tp.zeta, sub), left),
                (displace._raising_exp(-np.conj(tp.zeta), sub).T, right),
            ):
                assert np.max(np.abs(got - ref)) <= NORMAL_FORM_TOL * np.max(np.abs(ref))
            mid = np.exp(tp.eta * project_operator(g0, sec).diagonal().real)[:, None]
            scale = np.max(np.abs(left) @ (mid * np.abs(right)))
            got = displacement_normal(tp, sec)
            assert np.max(np.abs(got - left @ (mid * right))) <= NORMAL_FORM_TOL * scale

    @pytest.mark.parametrize("algebra, charge_kind", [
        (AlgebraKind.SU2, ChargeKind.DIFFERENCE_ND),
        (AlgebraKind.SU11, ChargeKind.SUM_NS),
    ])
    def test_normal_form_rejects_the_other_algebra(self, algebra, charge_kind):
        sec = sector_basis(10, charge_kind, 2)
        with pytest.raises(SectorMismatchError):
            displacement_normal(TiltingParams.from_xi(algebra, 0.2), sec)


def test_full_space_operators_hold_csr():
    basis = build_basis(6)
    p = F_DOMINANT
    gens = [su11_generators(basis), su2_generators(basis)]
    a = ladder_op(Mode.A, LadderKind.LOWER, basis)
    sec = get_sector(basis, ChargeKind.SUM_NS, 4)
    ops = [
        ladder_op(mode, kind, basis) for mode in Mode for kind in LadderKind
    ] + [
        number_op(Mode.A, basis),
        fock.charge_op(ChargeKind.DIFFERENCE_ND, basis),
        fock.identity_op(basis),
        fock.commutator(a, a.conj().T),
        a + a,
        a - a,
        2.0 * a,
        project_operator(fock.identity_op(basis), sec),
        fock.reassemble(
            [project_operator(fock.identity_op(basis), s) for s in sector_decompose(basis, ChargeKind.SUM_NS)],
            sector_decompose(basis, ChargeKind.SUM_NS),
            basis.dim,
        ),
        build_kg_operator(ModelKind.JC_AJC, Component.UPPER, p, sector_basis(6, ChargeKind.DIFFERENCE_ND, 0)),
    ]
    ops += [g for gs in gens for g in generator_triple(gs)] + [casimir(gs) for gs in gens]
    for kind in ModelKind:
        ops.append(coupling_block(kind, p, basis))
        ops.append(build_full_hamiltonian(kind, p, basis))
        ops += [build_kg_operator(kind, c, p, basis) for c in Component]
    for op in ops:
        assert isinstance(op, sp.csr_matrix), type(op)


@pytest.mark.parametrize("cutoff", range(25))
@pytest.mark.parametrize("algebra", list(AlgebraKind))
@pytest.mark.parametrize("margin", [0, 1, 2])
def test_sector_algebra_report_equals_full_space(cutoff, algebra, margin):
    # Margin 0 takes the truncated boundary columns in, where the residuals
    # are O(cutoff), so both reports must agree on the truncation too.
    basis = build_basis(cutoff)
    gens = su11_generators(basis) if algebra is AlgebraKind.SU11 else su2_generators(basis)
    full = verify_algebra(gens, interior_margin=margin)
    sec = verify_sector_algebra(cutoff, algebra, interior_margin=margin)
    assert (sec.algebra, sec.margin) == (full.algebra, full.margin)
    for got, ref in ((sec.residuals, full.residuals), (sec.casimir_residuals, full.casimir_residuals)):
        assert list(got) == list(ref)
        for key, value in ref.items():
            assert abs(got[key] - value) <= ALGEBRA_TOL * max(1.0, value), (key, got[key], value)


@pytest.mark.parametrize("cutoff", range(25))
@pytest.mark.parametrize("algebra", list(AlgebraKind))
def test_charge_ordered_bands_are_the_sectors_in_turn(cutoff, algebra):
    # the one-sort build against the sector-by-sector concatenation, bit for bit
    kind = ChargeKind.DIFFERENCE_ND if algebra is AlgebraKind.SU11 else ChargeKind.SUM_NS
    sectors = [sector_basis(cutoff, kind, q) for q in fock.sector_charges(cutoff, kind)]
    gens = [sector_generators(sec) for sec in sectors]
    occupations = [np.concatenate(occ) for occ in zip(*(sec.occupations for sec in sectors))]
    ref = (
        np.concatenate([g0 for g0, _ in gens]),
        np.concatenate([np.append(amp, 0.0) for _, amp in gens])[:-1],
        *occupations,
        np.concatenate([np.full(sec.dim, sec.charge_value) for sec in sectors]),
    )
    got = liealg._charge_ordered_bands(cutoff, algebra)
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("cutoff", [0, 1, 2, 5, 12, 24])
@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("p", [F_DOMINANT, G_DOMINANT])
def test_sector_pair_coupling_is_the_full_coupling_block(cutoff, kind, p):
    # Every column of X on the lower sector, and every row of X on the upper
    # sector, is X_s embedded: nothing of X leaves the pair.
    basis = build_basis(cutoff)
    x = coupling_block(kind, p, basis).toarray()
    for sec in sector_decompose(basis, conserved_charge(kind)):
        pair = sector_pair(kind, p, sec)
        assert pair.coupling.shape == (sec.dim, pair.lower.dim)
        cols = np.zeros((basis.dim, pair.lower.dim), dtype=complex)
        cols[sec.indices] = pair.coupling
        assert np.array_equal(x[:, pair.lower.indices], cols)
        rows = np.zeros((sec.dim, basis.dim), dtype=complex)
        rows[:, pair.lower.indices] = pair.coupling
        assert np.array_equal(x[sec.indices], rows)


def test_sector_pair_rejects_the_other_charge():
    with pytest.raises(SectorMismatchError):
        sector_pair(ModelKind.JC_JC, F_DOMINANT, sector_basis(6, ChargeKind.DIFFERENCE_ND, 0))


@pytest.mark.parametrize("cutoff", [3, 6, 12, 24, 70])
@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("p", [F_DOMINANT, G_DOMINANT])
def test_sector_pair_residual_equals_full_space_residual(cutoff, kind, p):
    # Small cutoffs truncate the spinors, so there the residuals are O(1)
    # and the pair must reproduce the full space's hard truncation. The
    # blockwise residual forms no matrix of H; the full space is its oracle.
    h = build_full_hamiltonian(kind, p, build_basis(cutoff))
    checked = 0
    for n_l, m_n, inner in ((0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 4, 1), (0, 3, -1), (2, 2, -1)):
        if kind is ModelKind.JC_AJC and inner < 0:
            continue
        for branch in Branch:
            try:
                s, pair = sector_spinor(kind, p, n_l, m_n, branch, cutoff, inner_sign=inner)
            except (EdgeStateError, DomainError, ValueError):
                continue
            full = eigen_residual(h, build_spinor(kind, p, n_l, m_n, branch, build_basis(cutoff), inner))
            got = pair.residual(s)
            assert abs(got - full) <= RESIDUAL_TOL * max(1.0, full), (n_l, m_n, branch, got, full)
            if cutoff == 70:
                assert full <= 1e-8
            checked += 1
    assert checked >= 4
