import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entfluct import (
    ObservableBasis,
    StateVector,
    canonical_form,
    expectation_vector,
    fluctuation_report,
    local_two_qubit_basis,
    moments,
    rotate_basis,
    spin_projection_operator,
    spin_generators,
    to_cartesian,
    total_variance,
)
from util import casimir_sum, random_basis, random_orthogonal, random_orthonormal_pair, random_state, state_from_canonical

SQ2 = np.sqrt(2.0)
SPIN1 = spin_generators(1)


def sph(components):
    return StateVector(components, "spherical")


class TestExpectation:
    def test_sz_eigenstate(self):
        assert expectation_vector(sph([1, 0, 0]), SPIN1)[2] == pytest.approx(1.0)

    def test_sx_on_m0(self):
        assert expectation_vector(sph([0, 1, 0]), SPIN1)[0] == pytest.approx(0.0, abs=1e-14)

    def test_sz_on_symmetric_superposition(self):
        psi = sph([1 / SQ2, 0, 1 / SQ2])
        assert expectation_vector(psi, SPIN1)[2] == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation_vector(StateVector([1, 0], "spherical"), SPIN1)

    def test_vector_examples(self):
        assert np.allclose(expectation_vector(sph([0, 1, 0]), SPIN1), [0, 0, 0], atol=1e-14)
        assert np.allclose(expectation_vector(sph([1, 0, 0]), SPIN1), [0, 0, 1], atol=1e-14)

    def test_canonical_magnitude_is_sin_2phi(self):
        rng = np.random.default_rng(11)
        # {S_x, S_y, S_z} on Cartesian components, in the cross-product form
        basis = ObservableBasis([spin_projection_operator(axis) for axis in np.eye(3)], label="su2-spin-1")
        for phi in np.linspace(0.0, np.pi / 4, 9):
            mu, nu = random_orthonormal_pair(rng)
            psi = state_from_canonical(0.3, phi, mu, nu)
            mag = np.linalg.norm(expectation_vector(psi, basis))
            assert mag == pytest.approx(np.sin(2 * phi), abs=1e-10)


class TestTotalVariance:
    def test_m0(self):
        assert total_variance(sph([0, 1, 0]), SPIN1) == pytest.approx(2.0, abs=1e-12)

    def test_m_plus1(self):
        assert total_variance(sph([1, 0, 0]), SPIN1) == pytest.approx(1.0, abs=1e-12)

    def test_every_half_spin_state(self):
        rng = np.random.default_rng(3)
        half = spin_generators(0.5)
        for _ in range(25):
            psi = random_state(rng, 2)
            assert total_variance(psi, half) == pytest.approx(0.5, abs=1e-12)

    def test_basis_rotation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            psi = random_state(rng, 3)
            rotated = rotate_basis(SPIN1, random_orthogonal(rng))
            assert abs(total_variance(psi, SPIN1) - total_variance(psi, rotated)) < 1e-10

    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_irreducibility_identity(self, j):
        rng = np.random.default_rng(int(2 * j))
        basis = spin_generators(j)
        for _ in range(10):
            psi = random_state(rng, basis.dim)
            v = total_variance(psi, basis)
            mag2 = np.sum(expectation_vector(psi, basis) ** 2)
            assert abs(v - (j * (j + 1) - mag2)) < 1e-10

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        psi = random_state(rng, 3)
        shifted = StateVector(np.exp(0.7j) * psi.amplitudes, "spherical")
        assert abs(total_variance(psi, SPIN1) - total_variance(shifted, SPIN1)) < 1e-12


class TestSpinJProperties:
    """V_tot = j(j+1) - |<S>|^2 (irreducibility), so j <= V_tot <= j(j+1)."""

    @given(st.integers(1, 20), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_casimir_identity(self, two_j, seed):
        j = two_j / 2
        basis = spin_generators(j)
        psi = random_state(np.random.default_rng(seed), basis.dim)
        v = total_variance(psi, basis)
        s = expectation_vector(psi, basis)
        tol = 1e-12 * j * j
        assert j - tol <= v <= j * (j + 1) + tol
        assert abs(v - (j * (j + 1) - s @ s)) <= tol

    @pytest.mark.parametrize("two_j", range(1, 21))
    def test_extremes_at_the_poles(self, two_j):
        j = two_j / 2
        basis = spin_generators(j)
        coherent = StateVector(np.eye(basis.dim)[0], "spherical")  # |m = j>
        assert abs(total_variance(coherent, basis) - j) <= 1e-12 * j * j


class TestMoments:
    @pytest.mark.parametrize("basis", [
        spin_generators(0.5), SPIN1, spin_generators(3), spin_generators(10), local_two_qubit_basis(),
        random_basis(np.random.default_rng(5), 4),
    ])
    def test_batched_rows_equal_single_rows(self, basis):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(7, basis.dim)) + 1j * rng.normal(size=(7, basis.dim))
        oa, e = moments(a, basis)
        assert oa.shape == (7, len(basis), basis.dim)
        assert e.shape == (7, len(basis) + 1)
        for k in range(7):
            oa1, e1 = moments(a[k : k + 1], basis)
            assert np.array_equal(oa1[0], oa[k]) and np.array_equal(e1[0], e[k])

    @pytest.mark.parametrize("basis", [SPIN1, spin_generators(3), local_two_qubit_basis()])
    def test_matches_the_per_observable_loop(self, basis):
        # reference: sum_i (|O_i a|^2 - <a|O_i|a>^2), one observable at a time
        rng = np.random.default_rng(14)
        label = "qubit-pair" if basis.dim == 4 else "spherical"
        for _ in range(50):
            psi = random_state(rng, basis.dim, label)
            a = psi.amplitudes
            first = np.array([np.vdot(a, o @ a).real for o in basis.operators])
            second = np.array([np.linalg.norm(o @ a) ** 2 for o in basis.operators])
            _, e = moments(a[None], basis)
            assert np.max(np.abs(e[0, :-1] - first)) <= 1e-14
            assert abs(e[0, -1] - second.sum()) <= 1e-13
            assert abs(total_variance(psi, basis) - (second - first**2).sum()) <= 1e-13

    def test_casimir_column_of_a_basis_without_a_scalar_casimir(self):
        # <C> = sum_i |O_i a|^2 / |a|^2 against <a|C|a> / |a|^2 with C built explicitly
        rng = np.random.default_rng(15)
        for _ in range(50):
            basis = random_basis(rng, 4)
            c = casimir_sum(basis)
            a = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
            expected = np.einsum("ni,ij,nj->n", a.conj(), c, a).real / np.sum(np.abs(a) ** 2, axis=-1)
            _, e = moments(a, basis)
            assert np.max(np.abs(e[:, -1] - expected) / np.abs(expected)) <= 1e-14

    def test_expectations_of_the_normalized_state(self):
        rng = np.random.default_rng(13)
        a = random_state(rng, 3).amplitudes
        _, unit = moments(a[None], SPIN1)
        _, scaled = moments(3.0 * a[None], SPIN1)
        assert np.max(np.abs(unit - scaled)) <= 1e-15
        assert unit[0, -1] == pytest.approx(2.0, abs=1e-15)  # <C> = j(j+1)

    def test_state_within_norm_tolerance(self):
        # |a|^2 - 1 = 1e-13 is accepted; V_tot must still be that of a / |a|
        psi = StateVector([1.00000000000005, 0, 0], "spherical")
        assert total_variance(psi, SPIN1) == pytest.approx(1.0, abs=1e-15)
        assert fluctuation_report(psi, SPIN1, 1.0, 2.0).concurrence_variance <= 5e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            moments(np.ones((2, 4)), SPIN1)


class TestCompletelyEntangled:
    def test_m0_is_ce(self):
        report = fluctuation_report(sph([0, 1, 0]), SPIN1, ce_tol=1e-10)
        assert report.ce_flag and report.ce_residual < 1e-14

    def test_m_plus1_is_not(self):
        report = fluctuation_report(sph([1, 0, 0]), SPIN1, ce_tol=1e-10)
        assert not report.ce_flag
        assert report.ce_residual == pytest.approx(1.0)

    def test_symmetric_superposition_is_ce(self):
        flag = fluctuation_report(sph([1 / SQ2, 0, 1 / SQ2]), SPIN1, ce_tol=1e-10).ce_flag
        assert flag

    def test_flag_matches_vector_magnitude(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi = random_state(rng, 3)
            report = fluctuation_report(psi, SPIN1, ce_tol=1e-3)
            assert report.ce_flag == (report.ce_residual <= 1e-3)
            assert report.ce_residual == pytest.approx(
                np.max(np.abs(expectation_vector(psi, SPIN1))), abs=1e-15
            )

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            fluctuation_report(sph([0, 1, 0]), SPIN1, ce_tol=0.0)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_rejects_non_finite_or_negative_tol(self, bad):
        with pytest.raises(ValueError, match="tolerance"):
            fluctuation_report(sph([0, 1, 0]), SPIN1, ce_tol=bad)


class TestVarianceConcurrence:
    def test_m0(self):
        assert fluctuation_report(sph([0, 1, 0]), SPIN1, 1.0, 2.0).concurrence_variance == pytest.approx(1.0)

    def test_m_plus1(self):
        assert fluctuation_report(sph([1, 0, 0]), SPIN1, 1.0, 2.0).concurrence_variance == pytest.approx(0.0, abs=1e-7)

    def test_matches_cos_2phi(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            psi = random_state(rng, 3)
            c = fluctuation_report(psi, SPIN1, 1.0, 2.0).concurrence_variance
            phi = canonical_form(to_cartesian(psi)).phi
            assert c == pytest.approx(abs(np.cos(2 * phi)), abs=1e-9)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            fluctuation_report(sph([0, 1, 0]), SPIN1, 2.0, 1.0)

    @pytest.mark.parametrize("v_min,v_max", [
        (np.nan, 2.0), (1.0, np.nan), (1.0, np.inf), (-np.inf, 2.0), (1.0, None), (None, 2.0),
    ])
    def test_rejects_non_finite_or_single_bounds(self, v_min, v_max):
        with pytest.raises(ValueError, match="bounds"):
            fluctuation_report(sph([0, 1, 0]), SPIN1, v_min, v_max)

    def test_rejects_inconsistent_bounds(self):
        with pytest.raises(ValueError):
            fluctuation_report(sph([0, 1, 0]), SPIN1, 3.0, 4.0)


class TestReport:
    def test_full_report(self):
        report = fluctuation_report(sph([0, 1, 0]), SPIN1, 1.0, 2.0)
        assert report.v_tot == pytest.approx(2.0, abs=1e-12)
        assert report.ce_flag
        assert report.ce_residual < 1e-12
        assert report.concurrence_variance == pytest.approx(1.0)
        assert np.allclose(report.expectations, 0.0, atol=1e-14)

    def test_report_without_bounds(self):
        report = fluctuation_report(sph([1, 0, 0]), SPIN1)
        assert report.concurrence_variance is None

    def test_negative_total_variance_rejected(self):
        basis = rotate_basis(SPIN1, np.eye(3))
        object.__setattr__(basis, "casimir", -1.0)  # a corrupted Casimir: <C> < sum_i <O_i>^2
        with pytest.raises(ValueError, match="negative"):
            total_variance(sph([1, 0, 0]), basis)

    def test_non_hermitian_leakage_rejected(self):
        # bypass the Hermiticity check by corrupting the operators after the fact
        basis = ObservableBasis([np.eye(3)])
        object.__setattr__(basis, "operators", np.array([[[0, 1j, 0], [0, 0, 0], [0, 0, 0]]]))
        with pytest.raises(ValueError):
            expectation_vector(sph([1 / SQ2, 1 / SQ2, 0]), basis)
