import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entfluct import (
    ObservableBasis,
    StateVector,
    canonical_form,
    fluctuation_report,
    local_two_qubit_basis,
    moments,
    rotate_basis,
    spin_projection_operator,
    spin_generators,
    to_cartesian,
    total_variance,
)
from entfluct.fluctuations import _apply
from entfluct.variational import _value_and_gradient
from util import random_basis, random_orthogonal, random_orthonormal_pair, random_state, state_from_canonical

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (bench/workloads.py: the benchmark's seeded and edge states)

SQ2 = np.sqrt(2.0)
SPIN1 = spin_generators(1)


def sph(components):
    return StateVector(components, "spherical")


class TestExpectation:
    def test_sz_eigenstate(self):
        assert fluctuation_report(sph([1, 0, 0]), SPIN1).expectations[2] == pytest.approx(1.0)

    def test_sx_on_m0(self):
        assert fluctuation_report(sph([0, 1, 0]), SPIN1).expectations[0] == pytest.approx(0.0, abs=1e-14)

    def test_sz_on_symmetric_superposition(self):
        psi = sph([1 / SQ2, 0, 1 / SQ2])
        assert fluctuation_report(psi, SPIN1).expectations[2] == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fluctuation_report(StateVector([1, 0], "spherical"), SPIN1).expectations

    def test_vector_examples(self):
        assert np.allclose(fluctuation_report(sph([0, 1, 0]), SPIN1).expectations, [0, 0, 0], atol=1e-14)
        assert np.allclose(fluctuation_report(sph([1, 0, 0]), SPIN1).expectations, [0, 0, 1], atol=1e-14)

    def test_canonical_magnitude_is_sin_2phi(self):
        rng = np.random.default_rng(11)
        # {S_x, S_y, S_z} on Cartesian components, in the cross-product form
        basis = ObservableBasis([spin_projection_operator(axis) for axis in np.eye(3)], label="su2-spin-1",
                                state_label="cartesian")
        for phi in np.linspace(0.0, np.pi / 4, 9):
            mu, nu = random_orthonormal_pair(rng)
            psi = state_from_canonical(0.3, phi, mu, nu)
            mag = np.linalg.norm(fluctuation_report(psi, basis).expectations)
            assert mag == pytest.approx(np.sin(2 * phi), abs=1e-10)


class TestStateLabel:
    """A basis acts on one representation, its `state_label`: a state of another label or dimension is refused."""

    def test_cartesian_components_on_the_spherical_generators(self):
        psi = to_cartesian(sph([1, 0, 0]))  # V = 1 in its own representation; 1.25 read as spherical
        for report in (fluctuation_report, total_variance):
            with pytest.raises(ValueError, match="expected a 3-component spherical state, got a 3-component cartesian"):
                report(psi, SPIN1)

    def test_a_qubit_pair_on_the_spin_3_2_generators(self):
        with pytest.raises(ValueError, match="expected a 4-component spherical state, got a 4-component qubit-pair"):
            total_variance(StateVector([1, 0, 0, 0], "qubit-pair"), spin_generators(1.5))

    def test_a_spherical_state_on_the_pair_basis(self):
        with pytest.raises(ValueError, match="expected a 4-component qubit-pair state"):
            total_variance(sph([1, 0, 0, 0]), local_two_qubit_basis())
        assert total_variance(StateVector([1, 0, 0, 0], "qubit-pair"), local_two_qubit_basis()) == 1.0


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
            mag2 = np.sum(np.array(fluctuation_report(psi, basis).expectations) ** 2)
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
        s = np.array(fluctuation_report(psi, basis).expectations)
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
        random_basis(np.random.default_rng(5), 4), spin_generators(40), random_basis(np.random.default_rng(6), 81),
    ])
    def test_batched_rows_equal_single_rows(self, basis):
        # d from 2 to 81: the stacked matmuls must round a row alike at every size and row count
        rng = np.random.default_rng(12)
        a = rng.normal(size=(16, basis.dim)) + 1j * rng.normal(size=(16, basis.dim))
        oa, e = moments(a, basis)
        assert oa.shape == (16, len(basis), basis.dim) and e.shape == (16, len(basis))
        for k in range(16):
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
            assert np.max(np.abs(e[0] - first)) <= 1e-14
            assert abs(basis.casimir - second.sum()) <= 1e-13
            assert abs(total_variance(psi, basis) - (second - first**2).sum()) <= 1e-13

    def test_each_representation_with_its_own_basis(self):
        # the basis acts on the components as given: a spherical state on the spherical
        # generators and its cartesian components on the cartesian ones report the same
        # <S_i> within 4 eps and V within 8 eps (two roundings apart on values up to 2)
        cartesian = ObservableBasis([spin_projection_operator(e) for e in np.eye(3)], label="su2-spin-1",
                                    state_label="cartesian")
        states = [a for b in range(10) for a, basis, _ in workloads.bulk_batch(0, b) if basis == "spherical"]
        assert len(states) == 2579
        eps = np.finfo(float).eps
        for a in states:
            psi = StateVector(a, "spherical")
            sph, cart = fluctuation_report(psi, SPIN1), fluctuation_report(to_cartesian(psi), cartesian)
            assert np.max(np.abs(np.subtract(sph.expectations, cart.expectations))) <= 4 * eps, a
            assert abs(sph.v_tot - cart.v_tot) <= 8 * eps, a

    def test_expectations_of_the_normalized_state(self):
        rng = np.random.default_rng(13)
        a = random_state(rng, 3).amplitudes
        _, unit = moments(a[None], SPIN1)
        _, scaled = moments(3.0 * a[None], SPIN1)
        assert np.max(np.abs(unit - scaled)) <= 1e-15

    def test_state_within_norm_tolerance(self):
        # |a|^2 - 1 = 1e-13 is accepted; V_tot must still be that of a / |a|
        psi = StateVector([1.00000000000005, 0, 0], "spherical")
        assert total_variance(psi, SPIN1) == pytest.approx(1.0, abs=1e-15)
        assert fluctuation_report(psi, SPIN1, (1.0, 2.0)).concurrence_variance <= 5e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            moments(np.ones((2, 4)), SPIN1)
        # a single state must come as one row: the message names both shapes
        with pytest.raises(ValueError, match=r"shape \(N, 3\), got \(3,\)"):
            moments(np.array([0, 1, 0]), SPIN1)


class TestKernel:
    """_apply and moments, one stacked matmul each, against an independent loop over
    rows and observables, within 4 eps of each row's scale."""

    BASES = {"pair": local_two_qubit_basis(), "random-C4": random_basis(np.random.default_rng(5), 4),
             "random-C81": random_basis(np.random.default_rng(6), 81)}

    @staticmethod
    def rows(dim):
        rng = np.random.default_rng(dim)
        x = rng.normal(size=(16, dim)) + 1j * rng.normal(size=(16, dim))
        return x * 10.0 ** rng.uniform(-3, 3, size=(16, 1))

    def check_against_the_loop(self, basis):
        x, ops, eps = self.rows(basis.dim), basis.operators, np.finfo(float).eps
        oa, e = moments(x, basis)
        assert np.array_equal(oa, _apply(ops, x))
        for n in range(len(x)):
            ref = np.array([o @ x[n] for o in ops])
            scale = max((np.abs(o) @ np.abs(x[n])).max() for o in ops)
            assert np.abs(oa[n] - ref).max() <= 4 * eps * scale
            norm2 = np.vdot(x[n], x[n]).real
            ref = np.array([np.vdot(x[n], o @ x[n]).real for o in ops]) / norm2
            scale = max(np.abs(x[n]) @ np.abs(o) @ np.abs(x[n]) for o in ops) / norm2
            assert np.abs(e[n] - ref).max() <= 4 * eps * scale

    def test_spins_match_the_loop(self):
        for two_j in range(1, 81):
            self.check_against_the_loop(spin_generators(two_j / 2))

    @pytest.mark.parametrize("name", BASES)
    def test_bases_match_the_loop(self, name):
        self.check_against_the_loop(self.BASES[name])

    @pytest.mark.parametrize("basis", [*(spin_generators(j) for j in (1, 1.5, 3, 10, 40)), local_two_qubit_basis()],
                             ids=["j1", "j3/2", "j3", "j10", "j40", "pair"])
    def test_apply_rounds_as_the_batched_product_at_any_row_count(self, basis):
        # bit for bit the batched matmul (ops @ x[:, None, :, None])[..., 0] that _apply was before it
        # became a product with the stacked table, and each row bit for bit its own one-row call
        ops = basis.operators
        for n in (1, 3, 16):
            x = self.rows(basis.dim)[:n]
            oa = _apply(ops, x)
            assert oa.tobytes() == (ops @ x[:, None, :, None])[..., 0].tobytes()
            for k in range(n):
                assert oa[k].tobytes() == _apply(ops, x[k : k + 1])[0].tobytes()


class TestCompletelyEntangled:
    def test_m0_is_ce(self):
        report = fluctuation_report(sph([0, 1, 0]), SPIN1)
        assert report.ce_residual < 1e-14

    def test_m_plus1_is_not(self):
        report = fluctuation_report(sph([1, 0, 0]), SPIN1)
        assert not report.ce_residual <= 1e-10
        assert report.ce_residual == pytest.approx(1.0)

    def test_symmetric_superposition_is_ce(self):
        flag = fluctuation_report(sph([1 / SQ2, 0, 1 / SQ2]), SPIN1).ce_residual <= 1e-10
        assert flag

    def test_residual_matches_vector_magnitude(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            psi = random_state(rng, 3)
            report = fluctuation_report(psi, SPIN1)
            assert report.ce_residual == pytest.approx(np.max(np.abs(report.expectations)), abs=1e-15)


class TestVarianceConcurrence:
    def test_m0(self):
        assert fluctuation_report(sph([0, 1, 0]), SPIN1, (1.0, 2.0)).concurrence_variance == pytest.approx(1.0)

    def test_m_plus1(self):
        assert fluctuation_report(sph([1, 0, 0]), SPIN1, (1.0, 2.0)).concurrence_variance == pytest.approx(0.0, abs=1e-7)

    def test_matches_cos_2phi(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            psi = random_state(rng, 3)
            c = fluctuation_report(psi, SPIN1, (1.0, 2.0)).concurrence_variance
            phi = canonical_form(to_cartesian(psi)).phi
            assert c == pytest.approx(abs(np.cos(2 * phi)), abs=1e-9)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            fluctuation_report(sph([0, 1, 0]), SPIN1, (2.0, 1.0))

    @pytest.mark.parametrize("bounds", [(np.nan, 2.0), (1.0, np.nan), (1.0, np.inf), (-np.inf, 2.0)])
    def test_rejects_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="bounds"):
            fluctuation_report(sph([0, 1, 0]), SPIN1, bounds)

    @pytest.mark.parametrize("bounds", [2.0, (1.0, 1.5, 2.0)])
    def test_rejects_bounds_that_are_not_a_pair(self, bounds):
        with pytest.raises((TypeError, ValueError)):
            fluctuation_report(sph([0, 1, 0]), SPIN1, bounds)

    def test_rejects_inconsistent_bounds(self):
        with pytest.raises(ValueError):
            fluctuation_report(sph([0, 1, 0]), SPIN1, (3.0, 4.0))


class TestReport:
    def test_full_report(self):
        report = fluctuation_report(sph([0, 1, 0]), SPIN1, (1.0, 2.0))
        assert report.v_tot == pytest.approx(2.0, abs=1e-12)
        assert report.ce_residual < 1e-12
        assert report.concurrence_variance == pytest.approx(1.0)
        assert np.allclose(report.expectations, 0.0, atol=1e-14)

    def test_report_without_bounds(self):
        report = fluctuation_report(sph([1, 0, 0]), SPIN1)
        assert report.concurrence_variance is None

    def test_negative_total_variance_rejected(self):
        basis = rotate_basis(SPIN1, np.eye(3))
        object.__setattr__(basis, "casimir", -1.0)  # a corrupted Casimir: c < sum_i <O_i>^2
        with pytest.raises(ValueError, match="negative"):
            total_variance(sph([1, 0, 0]), basis)

    def test_non_hermitian_leakage_rejected(self):
        # bypass the Hermiticity check by corrupting the operators after the fact
        basis = ObservableBasis([np.eye(3)])
        object.__setattr__(basis, "operators", np.array([[[0, 1j, 0], [0, 0, 0], [0, 0, 0]]]))
        with pytest.raises(ValueError):
            fluctuation_report(sph([1 / SQ2, 1 / SQ2, 0]), basis).expectations

    def test_non_hermitian_leakage_in_the_last_row_rejected(self):
        # 3 rows of 2 expectations: a reduction over the wrong axis or the first row alone misses it
        basis = ObservableBasis([np.eye(3), np.eye(3)])
        leak = np.array([[0, 1j, 0], [0, 0, 0], [0, 0, 0]])
        object.__setattr__(basis, "operators", np.array([leak, np.eye(3)]))
        rows = np.array([[1, 0, 0], [1, 0, 0], [1 / SQ2, 1 / SQ2, 0]], dtype=complex)
        assert moments(rows[:2], basis)[1].shape == (2, 2)
        with pytest.raises(ValueError, match="imaginary"):
            moments(rows, basis)

    def test_negative_total_variance_in_the_last_row_rejected(self):
        # with c = 0.5 the CE rows give V = 0.5 and the coherent row along (1, 1, 1)/sqrt(3)
        # V = -0.5 (summed over rows instead, each <S_i>^2 = 1/3 would leave V = 1/6): only the
        # last row's V is negative
        basis = ObservableBasis(SPIN1.operators, SPIN1.label)
        object.__setattr__(basis, "casimir", 0.5)
        along = np.linalg.eigh(SPIN1.operators.sum(axis=0) / np.sqrt(3))[1][:, -1]
        rows = np.array([[0, 1, 0], [0, 1, 0], along], dtype=complex)
        assert _value_and_gradient(rows[:2], basis)[0] == pytest.approx([0.5, 0.5])
        with pytest.raises(ValueError, match="negative"):
            _value_and_gradient(rows, basis)
