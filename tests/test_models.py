import numpy as np
import pytest
import scipy.linalg as la

from twomode_jcx import models, spectra
from twomode_jcx.errors import DomainError, EdgeStateError, SectorMismatchError
from twomode_jcx.fock import ChargeKind, build_basis, get_sector
from twomode_jcx.models import (
    Branch,
    Component,
    ModelKind,
    ModelParams,
    build_full_hamiltonian,
    build_kg_operator,
    build_spinor,
    eigen_residual,
)


class TestModelParams:
    @pytest.mark.parametrize("kwargs, fragment", [
        ({"g": complex(float("nan"), 0.0)}, "g must be finite"),
        ({"f": complex(0.0, float("inf"))}, "f must be finite"),
        ({"mc2": float("nan")}, "mc2 must be finite"),
        ({"hbar": float("inf")}, "hbar must be finite"),
        ({"mc2": -1.0}, "mc2 must be positive"),
        ({"hbar": 0.0}, "hbar must be positive"),
    ])
    def test_rejects_invalid_values(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ModelParams(**{"g": 1.0, "f": 2.0, **kwargs})


class TestFullHamiltonian:
    def test_decoupled_limit(self):
        basis = build_basis(3)
        p = ModelParams(g=0.0, f=0.0, mc2=1.5)
        h = build_full_hamiltonian(ModelKind.JC_AJC, p, basis).toarray()
        expected = np.diag([1.5] * basis.dim + [-1.5] * basis.dim)
        np.testing.assert_array_equal(h, expected)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_hermitian(self, kind):
        basis = build_basis(6)
        p = ModelParams(g=0.7 - 0.2j, f=1.1 + 0.4j)
        h = build_full_hamiltonian(kind, p, basis)
        assert abs(h - h.conj().T).max() <= 1e-12 * max(1.0, abs(h).max())

    def test_coupled_equations_block_structure(self):
        # row 1: hbar(g a† + f b)|psi2> = (E - mc^2)|psi1> fixes the
        # upper-right block for the mixed-interaction model
        basis = build_basis(4)
        p = ModelParams(g=0.0, f=1.0)
        h = build_full_hamiltonian(ModelKind.JC_AJC, p, basis).toarray()
        dim = basis.dim
        x = h[:dim, dim:]
        out = x @ basis.vector(0, 1)
        np.testing.assert_allclose(out, basis.vector(0, 0), atol=0)

    def test_dirac2p1_preset_spectrum(self):
        # f = g = sqrt(2 mc^2 w / hbar) reproduces E = ±mc^2 sqrt(1 + 4 xi n)
        omega = 0.1
        p, kind = spectra.special_case_params(spectra.Dirac2p1(omega))
        basis = build_basis(14)
        h = build_full_hamiltonian(kind, p, basis).toarray()
        vals = np.sort(la.eigvalsh(h))
        xi = p.hbar * omega / p.mc2
        for n in range(4):
            target = p.mc2 * np.sqrt(1 + 4 * xi * n)
            assert np.min(np.abs(vals - target)) <= 1e-9
            assert np.min(np.abs(vals + target)) <= 1e-9


class TestKgOperator:
    def test_trivial_zero(self):
        basis = build_basis(4)
        p = ModelParams(g=0.0, f=0.0)
        kg = build_kg_operator(ModelKind.JC_AJC, Component.UPPER, p, basis)
        assert abs(kg).max() == 0.0

    def test_jcjc_upper_ns1_matrix(self):
        # hand-built 2x2 on N_s = 1 in basis {(0,1), (1,0)}:
        # diag |g|^2 n_a + |f|^2 n_b, off-diagonal f g* sqrt(1)
        basis = build_basis(6)
        p = ModelParams(g=1.0, f=2.0)
        sec = get_sector(basis, ChargeKind.SUM_NS, 1)
        block = build_kg_operator(ModelKind.JC_JC, Component.UPPER, p, sec).toarray()
        assert sec.states == ((0, 1), (1, 0))
        np.testing.assert_allclose(block.real, [[4.0, 2.0], [2.0, 1.0]], atol=1e-14)

    def test_jcajc_upper_nd0_tridiagonal_entries(self):
        # diagonal n + 4n + 4 = 5n + 4; first off-diagonal 2(n+1)
        basis = build_basis(10)
        p = ModelParams(g=1.0, f=2.0)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, 0)
        block = build_kg_operator(ModelKind.JC_AJC, Component.UPPER, p, sec).toarray()
        # untruncated: the cut's row too
        for n in range(sec.dim):
            assert block[n, n].real == pytest.approx(5 * n + 4, abs=1e-13)
        for n in range(sec.dim - 1):
            assert block[n + 1, n].real == pytest.approx(2 * (n + 1), abs=1e-13)

    def test_lower_includes_reduction_constant(self):
        # uncoupling the mixed model leaves |g|^2 in the lower operator:
        # on the N_d = 0 sector the lower diagonal is the upper one
        # shifted by -(|f|^2 - |g|^2)
        basis = build_basis(10)
        p = ModelParams(g=1.0, f=2.0)
        sec = get_sector(basis, ChargeKind.DIFFERENCE_ND, 0)
        up = build_kg_operator(ModelKind.JC_AJC, Component.UPPER, p, sec).toarray()
        lo = build_kg_operator(ModelKind.JC_AJC, Component.LOWER, p, sec).toarray()
        np.testing.assert_allclose(np.diag(lo), np.diag(up) - 3.0, atol=1e-13)

    def test_sector_mismatch(self):
        basis = build_basis(6)
        p = ModelParams(g=1.0, f=2.0)
        sec = get_sector(basis, ChargeKind.SUM_NS, 2)
        with pytest.raises(SectorMismatchError):
            build_kg_operator(ModelKind.JC_AJC, Component.UPPER, p, sec)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_block_identity_squared_hamiltonian(self, kind):
        # for any eigenpair of the full Hamiltonian the upper component is
        # an eigenvector of the second-order operator with E^2 - m^2c^4
        basis = build_basis(8)
        p = ModelParams(g=0.8 + 0.1j, f=1.3 - 0.5j)
        h = build_full_hamiltonian(kind, p, basis).toarray()
        kg = build_kg_operator(kind, Component.UPPER, p, basis).toarray()
        w, v = la.eigh(h)
        dim = basis.dim
        interior = basis.interior_indices(2)
        for idx in range(0, 2 * dim, 7):
            up = v[:dim, idx]
            # skip eigenvectors touching the truncation boundary
            mass_out = np.sum(np.abs(up) ** 2) - np.sum(np.abs(up[interior]) ** 2)
            if mass_out > 1e-16 or np.linalg.norm(up) < 1e-8:
                continue
            resid = kg @ up - (w[idx] ** 2 - p.mc2**2) * up
            assert np.linalg.norm(resid) <= 1e-9

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_charge_conservation(self, kind):
        from twomode_jcx.fock import charge_op, commutator
        from twomode_jcx.models import conserved_charge

        basis = build_basis(8)
        p = ModelParams(g=0.9, f=1.7)
        kg = build_kg_operator(kind, Component.UPPER, p, basis)
        q = charge_op(conserved_charge(kind), basis)
        assert abs(commutator(kg, q)).max() == 0.0


class TestSpinors:
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize("n_l, m_n", [(-1, 0), (0, -2)])
    def test_negative_labels_rejected(self, kind, n_l, m_n):
        with pytest.raises(DomainError, match="n_l and m_n must be nonnegative"):
            models.sector_spinor(kind, ModelParams(g=1.0, f=2.0), n_l, m_n, Branch.PLUS, 10)

    def test_decoupled_plus_state(self):
        basis = build_basis(6)
        p = ModelParams(g=0.0, f=0.0)
        s = build_spinor(ModelKind.JC_AJC, p, 0, 0, Branch.PLUS, basis)
        assert s.edge
        assert s.energy == pytest.approx(p.mc2)
        assert np.linalg.norm(s.lower) == 0.0

    @pytest.mark.parametrize("n_l,m_n", [(0, 0), (1, 2), (2, 4), (0, 5)])
    def test_jcajc_eigen_residual(self, basis60, params_f2_g1, n_l, m_n):
        h = build_full_hamiltonian(ModelKind.JC_AJC, params_f2_g1, basis60)
        for branch in (Branch.PLUS, Branch.MINUS):
            s = build_spinor(ModelKind.JC_AJC, params_f2_g1, n_l, m_n, branch, basis60)
            assert eigen_residual(h, s) <= 1e-8
            assert s.norm == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("n_l,m_n,inner", [(1, 0, 1), (1, 2, 1), (3, 1, 1), (1, 2, -1)])
    def test_jcjc_eigen_residual(self, basis60, n_l, m_n, inner):
        p = ModelParams(g=1.0, f=1.0)  # 2+1 oscillator ray
        h = build_full_hamiltonian(ModelKind.JC_JC, p, basis60)
        for branch in (Branch.PLUS, Branch.MINUS):
            s = build_spinor(
                ModelKind.JC_JC, p, n_l, m_n, branch, basis60, inner_sign=inner
            )
            assert eigen_residual(h, s) <= 1e-8

    def test_amplitude_split(self, basis60, params_f2_g1):
        # |upper|^2 = (E + mc^2)/2E on the positive branch
        s = build_spinor(ModelKind.JC_AJC, params_f2_g1, 1, 2, Branch.PLUS, basis60)
        upper_mass = float(np.sum(np.abs(s.upper) ** 2))
        expected = (s.energy + 1.0) / (2 * s.energy)
        assert upper_mass == pytest.approx(expected, abs=1e-10)

    def test_jcjc_edge_state(self, basis60):
        # inner-minus n_l = 0 levels sit exactly at E = +mc^2 with a
        # vanishing lower component
        p = ModelParams(g=1.0, f=1.0)
        h = build_full_hamiltonian(ModelKind.JC_JC, p, basis60)
        s = build_spinor(ModelKind.JC_JC, p, 0, 3, Branch.PLUS, basis60, inner_sign=-1)
        assert s.edge
        assert np.linalg.norm(s.lower) == 0.0
        assert eigen_residual(h, s) <= 1e-10
        with pytest.raises(EdgeStateError):
            build_spinor(ModelKind.JC_JC, p, 0, 3, Branch.MINUS, basis60, inner_sign=-1)

    def test_partner_labels(self, basis60, params_f2_g1):
        s = build_spinor(ModelKind.JC_AJC, params_f2_g1, 1, 3, Branch.PLUS, basis60)
        assert s.partner_qn == (2, 1)
        s = build_spinor(ModelKind.JC_AJC, params_f2_g1, 1, 1, Branch.PLUS, basis60)
        assert s.partner_qn is None
        p = ModelParams(g=1.0, f=1.0)
        s = build_spinor(ModelKind.JC_JC, p, 2, 1, Branch.PLUS, basis60)
        assert s.partner_qn == (1, 1)

    def test_lower_component_is_displaced_number_state(self, basis60, params_f2_g1):
        # the coupling moves one charge quantum, so the exact lower
        # component is collinear with the displaced number state one sector
        # over: excitation n_l + 1 in the N_d = -(m_n - 1) sector when
        # |f| > |g|. (The (n_l+1, m_n-2) relabeling quoted alongside the
        # spinor holds at the level of energies; see test_spectra for the
        # multiset identities.)
        from twomode_jcx.displace import displacement_direct

        n_l, m_n = 1, 3
        s = build_spinor(ModelKind.JC_AJC, params_f2_g1, n_l, m_n, Branch.PLUS, basis60)
        tilt = spectra.tilting_parameters(ModelKind.JC_AJC, params_f2_g1)
        sec = get_sector(basis60, ChargeKind.DIFFERENCE_ND, -(m_n - 1))
        d = displacement_direct(tilt.xi, sec)
        partner = sec.embed(d[:, n_l + 1], basis60.dim)
        lower = s.lower / np.linalg.norm(s.lower)
        overlap = abs(np.vdot(partner, lower))
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_jcjc_lower_component_is_displaced_number_state(self, basis60):
        # same statement for the double-raising model: partner excitation
        # n_l in the N_s - 1 sector (labels (n_l, m_n - 1))
        from twomode_jcx.displace import displacement_direct

        p = ModelParams(g=1.0, f=2.0)
        n_l, m_n = 2, 3
        s = build_spinor(ModelKind.JC_JC, p, n_l, m_n, Branch.PLUS, basis60)
        tilt = spectra.tilting_parameters(ModelKind.JC_JC, p)
        sec = get_sector(basis60, ChargeKind.SUM_NS, 2 * n_l + m_n - 1)
        d = displacement_direct(tilt.xi, sec)
        partner = sec.embed(d[:, n_l + m_n - 1], basis60.dim)
        lower = s.lower / np.linalg.norm(s.lower)
        assert abs(np.vdot(partner, lower)) == pytest.approx(1.0, abs=1e-9)


class TestSpectrumSymmetry:
    def test_jcjc_sector_pairing(self):
        # upper sector N_s = q + 1 and lower sector N_s = q pair into
        # ±sqrt(m^2c^4 + s^2) with exactly one unpaired +mc^2 level
        basis = build_basis(16)
        p = ModelParams(g=0.8, f=1.4)
        h = build_full_hamiltonian(ModelKind.JC_JC, p, basis).toarray()
        dim = basis.dim
        q = 4
        up_idx = [basis.index_of(na, nb) for na, nb in basis.states if na + nb == q + 1]
        lo_idx = [dim + basis.index_of(na, nb) for na, nb in basis.states if na + nb == q]
        idx = np.array(up_idx + lo_idx)
        block = h[np.ix_(idx, idx)]
        vals = np.sort(la.eigvalsh(block))
        pos = np.sort(vals[vals > 0])
        neg = np.sort(-vals[vals < 0])
        # one extra positive level pinned at +mc^2
        assert len(pos) == len(neg) + 1
        assert np.min(np.abs(pos - p.mc2)) <= 1e-10
        paired = np.sort(np.concatenate([neg, []]))
        pos_wo_edge = np.delete(pos, np.argmin(np.abs(pos - p.mc2)))
        np.testing.assert_allclose(pos_wo_edge, paired, atol=1e-10)

    def test_jcajc_low_lying_pairing(self, params_f2_g1):
        # lowest converged |E| values come in ± pairs away from the ±mc^2
        # edge levels (here an unpaired -mc^2 family)
        basis = build_basis(40)
        p = params_f2_g1
        h = build_full_hamiltonian(ModelKind.JC_AJC, p, basis).toarray()
        dim = basis.dim
        up_idx = [basis.index_of(na, nb) for na, nb in basis.states if nb - na == -1]
        lo_idx = [dim + basis.index_of(na, nb) for na, nb in basis.states if nb - na == 0]
        idx = np.array(up_idx + lo_idx)
        vals = np.sort(la.eigvalsh(h[np.ix_(idx, idx)]))
        vals = vals[np.abs(np.abs(vals) - p.mc2) > 1e-6]
        pos = np.sort(vals[vals > 0])[:6]
        neg = np.sort(-vals[vals < 0])[:6]
        np.testing.assert_allclose(pos, neg, atol=1e-9)
