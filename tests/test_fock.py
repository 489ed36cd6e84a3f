import numpy as np
import pytest

from twomode_jcx import fock
from twomode_jcx.errors import DimensionMismatchError, LeakageError
from twomode_jcx.fock import (
    ChargeKind,
    LadderKind,
    Mode,
    build_basis,
    commutator,
    get_sector,
    ladder_op,
    project_operator,
    sector_decompose,
)


class TestBuildBasis:
    def test_cutoff_zero(self):
        basis = build_basis(0)
        assert basis.dim == 1
        assert basis.states == ((0, 0),)

    def test_cutoff_one_dimension(self):
        assert build_basis(1).dim == 4

    def test_cutoff_seven_bijection(self):
        basis = build_basis(7)
        assert basis.dim == 64
        seen = set()
        for i, (na, nb) in enumerate(basis.states):
            assert basis.index_of(na, nb) == i
            seen.add((na, nb))
        assert len(seen) == 64
        assert seen == {(a, b) for a in range(8) for b in range(8)}

    def test_lexicographic_order(self):
        basis = build_basis(2)
        assert basis.states[:4] == ((0, 0), (0, 1), (0, 2), (1, 0))

    @pytest.mark.parametrize("state", [(-1, 0), (0, -1), (3, 0), (0, 3)])
    def test_index_of_rejects_states_outside(self, state):
        with pytest.raises(KeyError):
            build_basis(2).index_of(*state)

    @pytest.mark.parametrize("margin", [0, 1, 3, 8])
    def test_interior_indices_equal_the_loop(self, margin):
        basis = build_basis(7)
        top = basis.cutoff - margin
        ref = [i for i, (na, nb) in enumerate(basis.states) if na <= top and nb <= top]
        assert basis.interior_indices(margin).tolist() == ref

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            build_basis(-1)


class TestLadderOps:
    def test_annihilate_vacuum(self, basis12):
        a = ladder_op(Mode.A, LadderKind.LOWER, basis12)
        assert np.all(a @ basis12.vector(0, 0) == 0)

    def test_create_from_vacuum(self, basis12):
        a_dag = ladder_op(Mode.A, LadderKind.RAISE, basis12)
        out = a_dag @ basis12.vector(0, 0)
        expected = basis12.vector(1, 0)
        np.testing.assert_allclose(out, expected, atol=0)

    def test_raise_coefficient_sqrt3(self, basis12):
        # oracle: bosonic ladder coefficient sqrt(n+1) with n = 2
        a_dag = ladder_op(Mode.A, LadderKind.RAISE, basis12)
        out = a_dag @ basis12.vector(2, 0)
        np.testing.assert_allclose(out, np.sqrt(3.0) * basis12.vector(3, 0), rtol=0)

    def test_entries_are_exact_square_roots(self, basis12):
        a = ladder_op(Mode.A, LadderKind.LOWER, basis12).toarray()
        nonzero = a[np.nonzero(a)]
        roots = {np.sqrt(float(n)) for n in range(1, basis12.cutoff + 1)}
        assert set(np.real(nonzero)) <= roots

    def test_raising_past_cutoff_is_zero(self):
        basis = build_basis(3)
        b_dag = ladder_op(Mode.B, LadderKind.RAISE, basis)
        assert np.all(b_dag @ basis.vector(0, 3) == 0)

    def test_adjointness(self, basis12):
        a = ladder_op(Mode.A, LadderKind.LOWER, basis12)
        a_dag = ladder_op(Mode.A, LadderKind.RAISE, basis12)
        assert abs(a.conj().T - a_dag).max() == 0.0


class TestCommutator:
    def test_a_adag_identity_on_interior(self, basis12):
        a = ladder_op(Mode.A, LadderKind.LOWER, basis12)
        a_dag = ladder_op(Mode.A, LadderKind.RAISE, basis12)
        comm = commutator(a, a_dag).toarray()
        interior = basis12.interior_indices(1)
        dev = comm[np.ix_(interior, interior)] - np.eye(len(interior))
        assert np.max(np.abs(dev)) <= 1e-12

    def test_cross_mode_commutators_vanish(self, basis12):
        a = ladder_op(Mode.A, LadderKind.LOWER, basis12)
        b = ladder_op(Mode.B, LadderKind.LOWER, basis12)
        b_dag = ladder_op(Mode.B, LadderKind.RAISE, basis12)
        assert abs(commutator(a, b_dag)).max() == 0.0
        assert abs(commutator(a, b)).max() == 0.0

    def test_dimension_mismatch(self, basis12):
        a = ladder_op(Mode.A, LadderKind.LOWER, basis12)
        small = ladder_op(Mode.A, LadderKind.LOWER, build_basis(2))
        with pytest.raises(DimensionMismatchError):
            commutator(a, small)


class TestSectors:
    def test_sum_sectors_cutoff_one(self):
        sectors = sector_decompose(build_basis(1), ChargeKind.SUM_NS)
        assert [s.charge_value for s in sectors] == [0, 1, 2]
        assert [s.dim for s in sectors] == [1, 2, 1]

    def test_difference_sectors_cutoff_two(self):
        sectors = sector_decompose(build_basis(2), ChargeKind.DIFFERENCE_ND)
        assert [s.charge_value for s in sectors] == [-2, -1, 0, 1, 2]

    def test_sum_sector_dimension_cutoff50(self):
        # count states with n_a + n_b = 10 at cutoff 50
        basis = build_basis(50)
        sec = get_sector(basis, ChargeKind.SUM_NS, 10)
        assert sec.dim == 11
        assert all(na + nb == 10 for na, nb in sec.states)

    def test_sectors_partition_basis(self, basis12):
        for kind in ChargeKind:
            sectors = sector_decompose(basis12, kind)
            all_idx = np.concatenate([s.indices for s in sectors])
            assert sorted(all_idx) == list(range(basis12.dim))

    def test_charge_invariants(self, basis12):
        for sec in sector_decompose(basis12, ChargeKind.DIFFERENCE_ND):
            assert all(nb - na == sec.charge_value for na, nb in sec.states)
        for sec in sector_decompose(basis12, ChargeKind.SUM_NS):
            assert all(na + nb == sec.charge_value for na, nb in sec.states)


class TestProjection:
    def test_k0_projects_diagonal(self, basis12):
        from twomode_jcx.liealg import su11_generators

        gens = su11_generators(basis12)
        for d in (-2, 0, 3):
            sec = get_sector(basis12, ChargeKind.DIFFERENCE_ND, d)
            block = project_operator(gens.k0, sec).toarray()
            assert np.max(np.abs(block - np.diag(np.diag(block)))) == 0.0

    def test_identity_projects_to_identity(self, basis12):
        sec = get_sector(basis12, ChargeKind.SUM_NS, 4)
        block = project_operator(fock.identity_op(basis12), sec).toarray()
        np.testing.assert_array_equal(block, np.eye(sec.dim))

    def test_kg_sector_tridiagonal(self):
        # second-order operator of the two-raising model on N_s = 3
        from twomode_jcx.models import Component, ModelKind, ModelParams, build_kg_operator

        basis = build_basis(8)
        sec = get_sector(basis, ChargeKind.SUM_NS, 3)
        p = ModelParams(g=1.0, f=2.0)
        block = build_kg_operator(ModelKind.JC_JC, Component.UPPER, p, sec).toarray()
        assert block.shape == (4, 4)
        assert np.max(np.abs(block - block.conj().T)) <= 1e-12
        off = np.triu(np.abs(block), 2)
        assert np.max(off) == 0.0

    def test_leakage_raises(self, basis12):
        a = ladder_op(Mode.A, LadderKind.LOWER, basis12)
        sec = get_sector(basis12, ChargeKind.SUM_NS, 4)
        with pytest.raises(LeakageError):
            project_operator(a, sec)

    def test_reassembly_reproduces_operator(self, basis12):
        from twomode_jcx.liealg import su11_generators

        gens = su11_generators(basis12)
        sectors = sector_decompose(basis12, ChargeKind.DIFFERENCE_ND)
        blocks = [project_operator(gens.k_plus, s) for s in sectors]
        rebuilt = fock.reassemble(blocks, sectors, basis12.dim)
        assert abs(rebuilt - gens.k_plus).max() == 0.0

