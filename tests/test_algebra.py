import numpy as np
import pytest

from entfluct import (
    ObservableBasis,
    StateVector,
    canonical_form,
    concurrence_spherical,
    embed_symmetric,
    local_two_qubit_basis,
    project_spin1,
    pure_concurrence,
    rotate_basis,
    sector_split,
    spin_generators,
    swap_qubits,
    to_cartesian,
    to_spherical,
)
from util import casimir_sum, random_basis, random_orthogonal

SQ2 = np.sqrt(2.0)


class TestSpinGenerators:
    def test_half_spin_matrices(self):
        sx, sy, sz = spin_generators(0.5).operators
        assert np.allclose(sz, np.diag([0.5, -0.5]))
        assert np.allclose(sx, np.array([[0, 0.5], [0.5, 0]]))
        assert np.allclose(sy, np.array([[0, -0.5j], [0.5j, 0]]))

    def test_spin1_matrices(self):
        sx, _, sz = spin_generators(1).operators
        assert np.allclose(sz, np.diag([1.0, 0.0, -1.0]))
        expected_sx = np.array(
            [[0, 1 / SQ2, 0], [1 / SQ2, 0, 1 / SQ2], [0, 1 / SQ2, 0]]
        )
        assert np.allclose(sx, expected_sx)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 2.5])
    def test_commutation(self, j):
        sx, sy, sz = spin_generators(j).operators
        assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-12
        assert np.max(np.abs(sy @ sz - sz @ sy - 1j * sx)) < 1e-12
        assert np.max(np.abs(sz @ sx - sx @ sz - 1j * sy)) < 1e-12

    @pytest.mark.parametrize("j", [0.5, 1, 1.5, 2])
    def test_casimir_scalar(self, j):
        c = casimir_sum(spin_generators(j))
        assert np.max(np.abs(c - j * (j + 1) * np.eye(len(c)))) < 1e-10

    def test_casimir_recorded_exactly(self):
        for two_j in range(1, 81):
            j = two_j / 2
            assert spin_generators(j).casimir == j * (j + 1)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_eigenvalue_multiset(self, j):
        expected = np.arange(-j, j + 1)
        for o in spin_generators(j).operators:
            vals = np.sort(np.linalg.eigvalsh(o))
            assert np.allclose(vals, expected, atol=1e-10)

    def test_condon_shortley_ladder_real(self):
        sx, sy, _ = spin_generators(1.5).operators
        sp = sx + 1j * sy
        assert np.max(np.abs(sp.imag)) < 1e-12
        assert np.all(sp.real >= -1e-12)

    @pytest.mark.parametrize("j", [0, -1, 0.3, 1.2, np.inf, -np.inf, np.nan])
    def test_rejects_bad_j(self, j):
        with pytest.raises(ValueError):
            spin_generators(j)

    def test_label(self):
        assert spin_generators(0.5).label == "su2-spin-1/2"
        assert spin_generators(1).label == "su2-spin-1"


    def test_built_once_and_read_only(self):
        basis = spin_generators(1)
        assert spin_generators(1.0) is basis
        assert local_two_qubit_basis() is local_two_qubit_basis()
        for m in (basis.operators[0], basis.operators):
            with pytest.raises(ValueError):
                m[0, 0] = 7.0

    def test_operators_stack_elements_and_casimir(self):
        basis = spin_generators(1.5)
        assert basis.operators.shape == (3, 4, 4)
        assert np.max(np.abs(casimir_sum(basis) - 15 / 4 * np.eye(4))) < 1e-12


class TestLocalTwoQubitBasis:
    def test_element_count(self):
        assert len(local_two_qubit_basis()) == 6

    def test_sz_left_on_up_down(self):
        basis = local_two_qubit_basis()
        up_down = np.array([0, 1, 0, 0], dtype=complex)
        sz_left = basis.operators[2]
        assert np.allclose(sz_left @ up_down, 0.5 * up_down)

    def test_trace_orthogonality(self):
        elems = local_two_qubit_basis().operators
        for i, a in enumerate(elems):
            for k, b in enumerate(elems):
                if i != k:
                    assert abs(np.trace(a @ b)) < 1e-12

    def test_casimir_recorded(self):
        assert local_two_qubit_basis().casimir == 1.5


class TestRotateBasis:
    def test_identity(self):
        basis = spin_generators(1)
        rotated = rotate_basis(basis, np.eye(3))
        for orig, rot in zip(basis.operators, rotated.operators):
            assert np.allclose(orig, rot)

    def test_quarter_turn_about_z(self):
        basis = spin_generators(1)
        c, s = 0.0, 1.0
        r = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
        rotated = rotate_basis(basis, r)
        # new S_x = -old S_y, new S_y = old S_x for this R convention
        assert np.allclose(rotated.operators[0], -basis.operators[1])
        assert np.allclose(rotated.operators[1], basis.operators[0])

    def test_preserves_casimir(self):
        rng = np.random.default_rng(7)
        basis = spin_generators(1)
        c0 = casimir_sum(basis)
        for _ in range(10):
            rotated = rotate_basis(basis, random_orthogonal(rng))
            assert np.max(np.abs(casimir_sum(rotated) - c0)) < 1e-10

    def test_rotated_basis_keeps_the_scalar_casimir(self):
        rng = np.random.default_rng(9)
        for j in (1, 1.5, 3):
            for _ in range(5):
                rotated = rotate_basis(spin_generators(j), random_orthogonal(rng))
                assert rotated.casimir == pytest.approx(j * (j + 1), rel=1e-15)

    def test_random_basis_has_no_scalar_casimir(self):
        basis = random_basis(np.random.default_rng(5), 4)
        assert basis.casimir is None
        c = casimir_sum(basis)
        assert np.max(np.abs(c - np.trace(c).real / 4 * np.eye(4))) > 1e-3

    def test_rotation_preserves_commutation(self):
        rng = np.random.default_rng(8)
        basis = spin_generators(1)
        for _ in range(10):
            r = random_orthogonal(rng, special=True)
            sx, sy, sz = rotate_basis(basis, r).operators
            assert np.max(np.abs(sx @ sy - sy @ sx - 1j * sz)) < 1e-10

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            rotate_basis(spin_generators(1), np.eye(3) * 1.1)

    def test_requires_three_elements(self):
        with pytest.raises(ValueError):
            rotate_basis(local_two_qubit_basis(), np.eye(3))


class TestContainers:
    # the basis checks each observable it stacks
    def test_observable_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            ObservableBasis([np.array([[0.0, 1.0], [0.0, 0.0]])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_observable_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ObservableBasis([[[bad, 0.0], [0.0, 1.0]]])

    def test_observable_rejects_non_square(self):
        with pytest.raises(ValueError):
            ObservableBasis([np.zeros((2, 3))])

    @pytest.mark.parametrize("ops", [np.eye(2), np.zeros((0, 2, 2)), np.zeros((1, 0, 0)), 1.0])
    def test_basis_rejects_a_non_stack(self, ops):
        with pytest.raises(ValueError, match="stack of square matrices"):
            ObservableBasis(ops)

    def test_basis_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            ObservableBasis([np.eye(2), np.eye(3)])

    def test_basis_rejects_broken_su2_label(self):
        with pytest.raises(ValueError):
            ObservableBasis([np.eye(3)] * 3, label="su2-spin-1")

    def test_basis_takes_any_array_like(self):
        mats = [m.tolist() for m in spin_generators(1).operators]
        stacked = ObservableBasis(np.array(mats)).operators
        for ops in (mats, [np.array(m) for m in mats]):
            assert np.array_equal(ObservableBasis(ops).operators, stacked)
        assert stacked.dtype == complex and stacked.shape == (3, 3, 3)

    def test_basis_copies_its_input(self):
        mats = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        basis = ObservableBasis(mats)
        mats[0, 0, 0] = 5.0
        assert basis.operators[0, 0, 0] == 1.0 and basis.casimir == 2.0
        with pytest.raises(ValueError):
            basis.operators[0, 0, 0] = 5.0

    def test_basis_equality_is_identity_and_hashable(self):
        basis = spin_generators(1)
        same_numbers = rotate_basis(basis, np.eye(3))
        assert basis == basis and basis != same_numbers
        assert {basis: 1, same_numbers: 2}[basis] == 1

    def test_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0, 0.0]), "spherical")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_state_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            StateVector([bad, 1.0, 0.0], "spherical")

    @pytest.mark.parametrize("amps,label", [
        ([1, 0, 0], "qubit-pair"),
        ([1, 0, 0, 0, 0], "qubit-pair"),
        ([1, 0, 0, 0], "cartesian"),
        ([1, 0], "cartesian"),
    ])
    def test_state_rejects_wrong_dimension_for_label(self, amps, label):
        with pytest.raises(ValueError, match="amplitudes"):
            StateVector(amps, label)

    def test_spherical_state_takes_any_dimension(self):
        for dim in (2, 4, 21):
            assert StateVector(np.eye(dim)[0], "spherical").dim == dim

    def test_state_rejects_bad_label(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0, 0.0]), "cylindrical")

    def test_constructor_coerces_to_a_complex_vector(self):
        psi = StateVector([[0.6], [0.8]], "spherical")
        assert psi.amplitudes.dtype == complex and psi.amplitudes.shape == (2,)

    def test_amplitudes_are_read_only(self):
        psi = StateVector(np.array([1.0, 0.0, 0.0]), "spherical")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


def _unit(dim, label):
    return StateVector(np.eye(dim)[0], label)


_SPIN1_REFUSES = [_unit(3, "cartesian"), _unit(4, "qubit-pair"), _unit(5, "spherical")]
_CARTESIAN_REFUSES = [_unit(3, "spherical"), _unit(4, "qubit-pair")]
_PAIR_REFUSES = [_unit(4, "spherical"), _unit(3, "cartesian")]
_WRONG_STATES = [
    *((fn, _SPIN1_REFUSES) for fn in (to_cartesian, concurrence_spherical, embed_symmetric)),
    *((fn, _CARTESIAN_REFUSES) for fn in (to_spherical, canonical_form)),
    *((fn, _PAIR_REFUSES) for fn in (sector_split, project_spin1, swap_qubits, pure_concurrence)),
]


class TestRequire:
    """Every function that takes one kind of state checks it through StateVector.require."""

    def test_returns_the_amplitudes(self):
        psi = _unit(3, "spherical")
        assert psi.require("spherical") is psi.amplitudes
        assert psi.require("spherical", 3) is psi.amplitudes
        with pytest.raises(ValueError, match="expected a 4-component spherical state"):
            psi.require("spherical", 4)
        with pytest.raises(ValueError, match="expected a cartesian state"):
            psi.require("cartesian")

    # each function with states it must refuse; a 4-component spherical state
    # has a qubit pair's dimension and a 5-component one is no spin 1
    @pytest.mark.parametrize("fn,wrong", _WRONG_STATES, ids=[fn.__name__ for fn, _ in _WRONG_STATES])
    def test_wrong_state_is_refused(self, fn, wrong):
        for psi in wrong:
            with pytest.raises(ValueError, match="expected a"):
                fn(psi)
