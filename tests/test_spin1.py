import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entfluct import (
    StateVector,
    canonical_form,
    ce_basis,
    concurrence_from_phi,
    concurrence_spherical,
    expectation_magnitude_canonical,
    fluctuation_report,
    spin_generators,
    spin_projection_operator,
    to_cartesian,
    to_spherical,
    zero_projection_axis,
)
from entfluct.spin1 import SPH_TO_CART
from util import random_orthogonal, random_orthonormal_pair, random_state, state_from_canonical

SQ2 = np.sqrt(2.0)


def sph(components):
    return StateVector(components, "spherical")


def cart(components):
    return StateVector(components, "cartesian")


amplitude_triples = st.lists(
    st.tuples(
        st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
    ),
    min_size=3,
    max_size=3,
).filter(lambda cs: sum(re * re + im * im for re, im in cs) > 1e-4)


def _to_state(cs, label):
    a = np.array([complex(re, im) for re, im in cs])
    return StateVector(a / np.linalg.norm(a), label)


class TestConversion:
    def test_m0_is_ez(self):
        assert np.allclose(to_cartesian(sph([0, 1, 0])).amplitudes, [0, 0, 1])

    def test_dictionary_example(self):
        psi = sph([-1 / SQ2, 0, 1 / SQ2])
        assert np.allclose(to_cartesian(psi).amplitudes, [1, 0, 0], atol=1e-15)

    @given(amplitude_triples)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, cs):
        psi = _to_state(cs, "spherical")
        back = to_spherical(to_cartesian(psi))
        assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12

    def test_rejects_wrong_label(self):
        with pytest.raises(ValueError):
            to_cartesian(cart([0, 0, 1]))
        with pytest.raises(ValueError):
            to_spherical(sph([0, 1, 0]))

    def test_dictionary_is_unitary(self):
        assert np.allclose(SPH_TO_CART.conj().T @ SPH_TO_CART, np.eye(3), atol=1e-15)


class TestCanonicalForm:
    def test_real_vector(self):
        form = canonical_form(cart([0, 0, 1]))
        assert form.theta == pytest.approx(0.0)
        assert form.phi == pytest.approx(0.0)
        assert np.allclose(form.mu, [0, 0, 1])
        assert form.nu is None

    def test_coherent_case(self):
        form = canonical_form(cart([1 / SQ2, 1j / SQ2, 0]))
        assert form.phi == pytest.approx(np.pi / 4)
        assert np.allclose(form.mu, [1, 0, 0], atol=1e-12)
        assert np.allclose(form.nu, [0, 1, 0], atol=1e-12)

    def test_intermediate_case(self):
        form = canonical_form(cart([2 / np.sqrt(5), 1j / np.sqrt(5), 0]))
        assert np.cos(2 * form.phi) == pytest.approx(3 / 5, abs=1e-12)
        assert np.allclose(form.mu, [1, 0, 0], atol=1e-12)
        assert np.allclose(form.nu, [0, 1, 0], atol=1e-12)

    def test_orthonormality(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            form = canonical_form(to_cartesian(random_state(rng, 3)))
            assert np.linalg.norm(form.mu) == pytest.approx(1.0, abs=1e-12)
            if form.nu is not None:
                assert np.linalg.norm(form.nu) == pytest.approx(1.0, abs=1e-12)
                assert abs(np.dot(form.mu, form.nu)) < 1e-10

    def test_reconstruction(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            psi = to_cartesian(random_state(rng, 3))
            rebuilt = canonical_form(psi).reconstruct()
            assert np.max(np.abs(rebuilt.amplitudes - psi.amplitudes)) < 1e-9

    def test_phi_rotation_invariant(self):
        rng = np.random.default_rng(14)
        psi = to_cartesian(random_state(rng, 3))
        phi0 = canonical_form(psi).phi
        for _ in range(10):
            r = random_orthogonal(rng)
            a = r @ psi.amplitudes
            rotated = StateVector(a / np.linalg.norm(a), "cartesian")
            assert canonical_form(rotated).phi == pytest.approx(phi0, abs=1e-9)

    def test_theta_in_range(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            form = canonical_form(to_cartesian(random_state(rng, 3)))
            assert 0.0 <= form.theta < np.pi
            assert 0.0 <= form.phi <= np.pi / 4


class TestSpinProjection:
    def test_matches_conjugated_sz(self):
        sz_sph = spin_generators(1).operators[2]
        expected = SPH_TO_CART @ sz_sph @ SPH_TO_CART.conj().T
        got = spin_projection_operator([0, 0, 1])
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_annihilates_own_direction(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            op = spin_projection_operator(w)
            assert np.max(np.abs(op @ w)) < 1e-12

    def test_real_states_have_zero_expectation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            nu = rng.normal(size=3)
            nu /= np.linalg.norm(nu)
            w = rng.normal(size=3)
            w /= np.linalg.norm(w)
            op = spin_projection_operator(w)
            assert abs(np.vdot(nu, op @ nu)) < 1e-12

    def test_eigenvalues(self):
        op = spin_projection_operator([1 / SQ2, 1 / SQ2, 0])
        vals = np.sort(np.linalg.eigvalsh(op))
        assert np.allclose(vals, [-1, 0, 1], atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            spin_projection_operator([1, 1, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_direction(self, bad):
        with pytest.raises(ValueError, match="unit vector"):
            spin_projection_operator([bad, 0, 0])

    def test_is_a_read_only_hermitian_matrix(self):
        op = spin_projection_operator([0, 1, 0])
        assert op.shape == (3, 3) and np.array_equal(op, op.conj().T)
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


class TestConcurrence:
    def test_spherical_examples(self):
        assert concurrence_spherical(sph([0, 1, 0])) == pytest.approx(1.0)
        assert concurrence_spherical(sph([1, 0, 0])) == pytest.approx(0.0)
        assert concurrence_spherical(sph([1 / SQ2, 0, 1 / SQ2])) == pytest.approx(1.0)
        assert concurrence_spherical(sph([1 / SQ2, 0, -1 / SQ2])) == pytest.approx(1.0)

    def test_from_phi_examples(self):
        assert concurrence_from_phi(0.0) == pytest.approx(1.0)
        assert concurrence_from_phi(np.pi / 4) == pytest.approx(0.0, abs=1e-15)
        assert concurrence_from_phi(np.pi / 8) == pytest.approx(SQ2 / 2)

    def test_from_phi_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            concurrence_from_phi(1.0)
        with pytest.raises(ValueError):
            concurrence_from_phi(-0.1)

    def test_expectation_magnitude_examples(self):
        assert expectation_magnitude_canonical(0.0) == pytest.approx(0.0)
        assert expectation_magnitude_canonical(np.pi / 4) == pytest.approx(1.0)
        assert expectation_magnitude_canonical(np.pi / 8) == pytest.approx(SQ2 / 2)

    @given(amplitude_triples)
    @settings(max_examples=50, deadline=None)
    def test_bilinear_form_identity(self, cs):
        psi = _to_state(cs, "spherical")
        w = np.sum(to_cartesian(psi).amplitudes ** 2)
        assert concurrence_spherical(psi) == pytest.approx(abs(w), abs=1e-10)

    @given(amplitude_triples)
    @settings(max_examples=50, deadline=None)
    def test_matches_cos_2phi(self, cs):
        psi = _to_state(cs, "spherical")
        phi = canonical_form(to_cartesian(psi)).phi
        assert concurrence_spherical(psi) == pytest.approx(
            concurrence_from_phi(phi), abs=1e-9
        )


class TestZeroProjectionAxis:
    def test_ez(self):
        axis = zero_projection_axis(cart([0, 0, 1]))
        assert np.allclose(axis, [0, 0, 1])
        op = spin_projection_operator(axis)
        assert np.max(np.abs(op @ np.array([0, 0, 1.0]))) < 1e-15

    def test_coherent_has_none(self):
        assert zero_projection_axis(cart([1 / SQ2, 1j / SQ2, 0])) is None

    def test_ce_basis_members(self):
        for psi in ce_basis():
            c = to_cartesian(psi)
            axis = zero_projection_axis(c)
            assert axis is not None
            op = spin_projection_operator(axis)
            assert np.linalg.norm(op @ c.amplitudes) < 1e-9

    def test_existence_matches_ce_criterion(self):
        rng = np.random.default_rng(18)
        basis = spin_generators(1)
        # CE manifold samples: e^{i theta} R e_z
        for _ in range(20):
            r = random_orthogonal(rng)
            theta = rng.uniform(0, np.pi)
            psi_c = StateVector(
                np.exp(1j * theta) * (r @ np.array([0, 0, 1.0])), "cartesian"
            )
            assert zero_projection_axis(psi_c, 1e-9) is not None
            flag = fluctuation_report(to_spherical(psi_c), basis, ce_tol=1e-9).ce_flag
            assert flag
        for _ in range(20):
            psi = random_state(rng, 3)
            psi_c = to_cartesian(psi)
            has_axis = zero_projection_axis(psi_c, 1e-9) is not None
            flag = fluctuation_report(psi, basis, ce_tol=1e-9).ce_flag
            assert has_axis == flag


class TestCEBasis:
    def test_orthonormal(self):
        states = ce_basis()
        for i, a in enumerate(states):
            for k, b in enumerate(states):
                overlap = np.vdot(a.amplitudes, b.amplitudes)
                assert abs(overlap - (1.0 if i == k else 0.0)) < 1e-14

    def test_all_members_fully_entangled(self):
        basis = spin_generators(1)
        for psi in ce_basis():
            assert concurrence_spherical(psi) == pytest.approx(1.0, abs=1e-14)
            flag = fluctuation_report(psi, basis, ce_tol=1e-10).ce_flag
            assert flag


class TestNearDegenerateCanonical:
    def test_phi_near_zero(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            mu, nu = random_orthonormal_pair(rng)
            phi = rng.uniform(0, 1e-6)
            psi = state_from_canonical(rng.uniform(0, np.pi), phi, mu, nu)
            form = canonical_form(psi)
            assert form.phi == pytest.approx(phi, abs=1e-9)
            rebuilt = form.reconstruct()
            assert np.max(np.abs(rebuilt.amplitudes - psi.amplitudes)) < 1e-9

    def test_phi_near_quarter_pi(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            mu, nu = random_orthonormal_pair(rng)
            phi = np.pi / 4 - rng.uniform(0, 1e-6)
            psi = state_from_canonical(rng.uniform(0, np.pi), phi, mu, nu)
            form = canonical_form(psi)
            assert form.phi == pytest.approx(phi, abs=1e-9)
            rebuilt = form.reconstruct()
            assert np.max(np.abs(rebuilt.amplitudes - psi.amplitudes)) < 1e-9
