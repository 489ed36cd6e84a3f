import numpy as np
import pytest

from twomode_jcx import liealg
from twomode_jcx.errors import NonIntegerError
from twomode_jcx.fock import ChargeKind, get_sector, project_operator
from twomode_jcx.liealg import (
    AlgebraKind,
    casimir,
    group_labels_from_physical,
    physical_from_group_labels,
    su2_generators,
    su11_generators,
    verify_algebra,
)


class TestSu11Generators:
    def test_k0_vacuum_eigenvalue(self, basis12):
        gens = su11_generators(basis12)
        out = gens.k0 @ basis12.vector(0, 0)
        np.testing.assert_allclose(out, 0.5 * basis12.vector(0, 0), atol=0)

    def test_k0_diagonal_entries(self, basis12):
        gens = su11_generators(basis12)
        diag = gens.k0.diagonal()
        for i, (na, nb) in enumerate(basis12.states):
            assert diag[i] == (na + nb + 1) / 2.0

    def test_kplus_on_vacuum(self, basis12):
        # K+|k=1/2, n=0> carries sqrt((n+1)(2k+n)) = 1
        gens = su11_generators(basis12)
        out = gens.k_plus @ basis12.vector(0, 0)
        np.testing.assert_allclose(out, basis12.vector(1, 1), atol=0)

    def test_ladder_action_in_sector(self, basis12):
        # K+|k,n> = sqrt((n+1)(2k+n)) |k,n+1> with k = (m+1)/2 on the
        # N_d = -m sector realized by states (n+m, n)
        gens = su11_generators(basis12)
        m = 3
        k = (m + 1) / 2.0
        for n in range(4):
            out = gens.k_plus @ basis12.vector(n + m, n)
            coef = np.sqrt((n + 1) * (2 * k + n))
            np.testing.assert_allclose(
                out, coef * basis12.vector(n + m + 1, n + 1), rtol=1e-15, atol=0
            )

    def test_casimir_nd0_sector(self, basis12):
        # K^2 = N_d^2/4 - 1/4 -> -(1/4) identity on the N_d = 0 sector
        gens = su11_generators(basis12)
        sec = get_sector(basis12, ChargeKind.DIFFERENCE_ND, 0)
        block = project_operator(casimir(gens), sec).toarray()
        interior = slice(0, sec.dim - 1)  # top state feels the cutoff
        np.testing.assert_allclose(
            block[interior, interior], -0.25 * np.eye(sec.dim)[interior, interior], atol=1e-12
        )


class TestSu2Generators:
    def test_j0_balanced_state(self, basis12):
        gens = su2_generators(basis12)
        assert np.all(gens.j0 @ basis12.vector(1, 1) == 0)

    def test_jplus_lowest_weight(self, basis12):
        # J+|j=1, mu=-1> = sqrt((j-mu)(j+mu+1)) |1, 0> = sqrt(2) |1, 0>
        gens = su2_generators(basis12)
        out = gens.j_plus @ basis12.vector(0, 2)
        np.testing.assert_allclose(out, np.sqrt(2.0) * basis12.vector(1, 1), rtol=1e-15)

    def test_casimir_ns4_sector(self, basis12):
        # J^2 = (N_s/2)(N_s/2 + 1) = 6 on N_s = 4
        gens = su2_generators(basis12)
        sec = get_sector(basis12, ChargeKind.SUM_NS, 4)
        block = project_operator(casimir(gens), sec).toarray()
        np.testing.assert_allclose(block, 6.0 * np.eye(sec.dim), atol=1e-12)

    def test_sector_representation_exact(self, basis20):
        # inside one N_s sector the commutators close to machine precision
        gens = su2_generators(basis20)
        sec = get_sector(basis20, ChargeKind.SUM_NS, 7)
        j0 = project_operator(gens.j0, sec).toarray()
        jp = project_operator(gens.j_plus, sec).toarray()
        jm = project_operator(gens.j_minus, sec).toarray()
        assert np.max(np.abs(j0 @ jp - jp @ j0 - jp)) <= 1e-13
        assert np.max(np.abs(jp @ jm - jm @ jp - 2 * j0)) <= 1e-13


class TestVerifyAlgebra:
    def test_su11_cutoff20(self, basis20):
        rep = verify_algebra(su11_generators(basis20), interior_margin=2)
        assert rep.max_residual <= 1e-12
        assert rep.max_casimir_residual <= 1e-12

    def test_su2_cutoff20(self, basis20):
        rep = verify_algebra(su2_generators(basis20), interior_margin=1)
        assert rep.max_residual <= 1e-12

    def test_charge_commutes_exactly(self, basis12):
        rep = verify_algebra(su11_generators(basis12), interior_margin=1)
        assert rep.residuals["[charge,G+]"] == 0.0
        assert rep.residuals["[charge,G-]"] == 0.0
        assert rep.residuals["[charge,G0]"] == 0.0


class TestStateConvention:
    """|n_l, m_n> -> (n_a, n_b) = (n_l + m_n, n_l) satisfies all four
    eigen-statements simultaneously."""

    @pytest.mark.parametrize("n_l,m_n", [(0, 0), (1, 0), (0, 3), (2, 2), (4, 1)])
    def test_k0_and_nd_eigenvalues(self, basis12, n_l, m_n):
        gens = su11_generators(basis12)
        vec = basis12.vector(n_l + m_n, n_l)
        k0_val = np.vdot(vec, gens.k0 @ vec).real
        assert k0_val == pytest.approx(n_l + m_n / 2.0 + 0.5, abs=1e-14)
        # N_d + 1 eigenvalue is -(m_n - 1); N_d itself gives -m_n
        from twomode_jcx.fock import charge_op

        nd = charge_op(ChargeKind.DIFFERENCE_ND, basis12)
        nd_val = np.vdot(vec, nd @ vec).real
        assert nd_val + 1.0 == pytest.approx(-(m_n - 1), abs=0)

    @pytest.mark.parametrize("n_l,m_n", [(0, 0), (1, 2), (3, 1)])
    def test_j0_and_ns_eigenvalues(self, basis12, n_l, m_n):
        gens = su2_generators(basis12)
        vec = basis12.vector(n_l + m_n, n_l)
        j0_val = np.vdot(vec, gens.j0 @ vec).real
        assert j0_val == pytest.approx(m_n / 2.0, abs=0)
        from twomode_jcx.fock import charge_op

        ns = charge_op(ChargeKind.SUM_NS, basis12)
        ns_val = np.vdot(vec, ns @ vec).real
        assert ns_val == pytest.approx(2 * n_l + m_n, abs=0)


class TestGroupLabels:
    def test_su11_ground_labels(self):
        lbl = group_labels_from_physical(AlgebraKind.SU11, 0, 0)
        assert lbl.k == 0.5
        assert lbl.n == 0

    def test_su2_labels(self):
        lbl = group_labels_from_physical(AlgebraKind.SU2, 1, 2)
        assert lbl.j == 2.0
        assert lbl.mu == 1.0

    def test_su2_inverse(self):
        lbl = physical_from_group_labels(AlgebraKind.SU2, j=1.5, mu=1.5)
        assert (lbl.n_l, lbl.m_n) == (0, 3)

    def test_su11_inverse_roundtrip(self):
        for n_l in range(3):
            for m_n in range(4):
                lbl = group_labels_from_physical(AlgebraKind.SU11, n_l, m_n)
                back = physical_from_group_labels(AlgebraKind.SU11, k=lbl.k, n=lbl.n)
                assert (back.n_l, back.m_n) == (n_l, m_n)

    def test_non_integer_rejected(self):
        with pytest.raises(NonIntegerError):
            physical_from_group_labels(AlgebraKind.SU2, j=1.0, mu=0.25)
        with pytest.raises(NonIntegerError):
            physical_from_group_labels(AlgebraKind.SU11, k=0.3, n=1)

    def test_two_mode_state(self):
        lbl = group_labels_from_physical(AlgebraKind.SU2, 2, 3)
        assert lbl.two_mode_state() == (5, 2)
