"""Observable algebras: spin-j generators and the local two-qubit set, each
one (k, d, d) array of Hermitian matrices recording its Casimir sum C =
sum_i O_i^2 as the scalar `casimir` when C = c I.

All containers are immutable after construction and validate their defining
invariants (Hermiticity, unit norm, su(2) commutation, the dimension a state
label requires) up front, so downstream numerics never have to re-check them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Tolerances: every numeric threshold of the package, defined once (this block
# runs to the next blank line; tests/test_tolerances.py keeps it the only home
# of exponent-form float literals).
HERMITICITY_TOL = 1e-12  # max |O - O^dagger| of a basis element
NORM_TOL = 1e-12  # |<psi|psi> - 1| of a StateVector
COMMUTATOR_TOL = 1e-10  # max |[S_a, S_b] - i S_c| of an su(2) basis
ORTHOGONALITY_TOL = 1e-10  # max |R^T R - 1| of a basis rotation
UNIT_VECTOR_TOL = 1e-10  # ||omega| - 1| of a spin projection direction
HALF_INTEGER_TOL = 1e-12  # |2j - round(2j)| of a spin j
PHI_SLACK = 1e-12  # rounding allowed outside [0, pi/4] for the canonical phi
IMAG_TOL = 1e-10  # |Im <O>| accepted as rounding
VARIANCE_CLAMP = 1e-12  # a negative total variance down to -VARIANCE_CLAMP is rounding, clamped to 0
BOUND_SLACK = 1e-9  # V_tot may leave [V_min, V_max] by this much
CE_TOL_DEFAULT = 1e-9  # CE verdict on max_i |<O_i>|, and on the canonical phi (--tol)
NU_CUTOFF = 1e-9  # below this |Im| norm the canonical nu is undefined
BILINEAR_ZERO = 1e-30  # |sum_k psi_k^2| below which the canonical phase is free
PROJECT_TOL_DEFAULT = 1e-9  # largest singlet amplitude project_spin1 accepts
SINGLET_NORM = 1e-12  # triplet-part norm below which a pair is a pure singlet
STEP_TOL_DEFAULT = 1e-12  # tangent-gradient norm at which a search restart stops
CROSS_CHECK_TOL = 1e-9  # agreement of the exactly conditioned concurrences
SCALAR_CASIMIR_TOL = 1e-12  # max |C - c I| / max(1, |c|) at which C = sum_i O_i^2 is recorded as the scalar c
# sqrt((V - V_min)/(V_max - V_min)) loses half the working precision when the
# concurrence is near zero (V - V_min is then pure rounding noise ~ 1e-16, and
# the square root inflates it to ~ 1e-8), so the variance route gets a wider
# cross-check band than the exactly-conditioned formulas.
VARIANCE_CROSS_TOL = 5e-8

_SQ2 = np.sqrt(2.0)

# state basis label -> the dimension it requires (None: any, as spin j takes 2j + 1)
STATE_BASIS_LABELS = {"spherical": None, "cartesian": 3, "qubit-pair": 4}


def check_state_label(label: str, dim: int) -> None:
    """ValueError unless `label` is a state basis label that admits dim amplitudes."""
    if label not in STATE_BASIS_LABELS:
        raise ValueError(f"unknown basis label {label!r}")
    need = STATE_BASIS_LABELS[label]
    if need is not None and dim != need:
        raise ValueError(f"a {label} state needs {need} amplitudes, got {dim}")


@dataclass(frozen=True, eq=False)
class ObservableBasis:
    """Ordered basis of the algebra of essential observables: `operators` is one
    read-only (k, d, d) complex stack, copied from any array-like and checked
    once (square, finite, Hermitian; su(2) commutation for an `su2-spin-*`
    label). `casimir` is c, the mean of the diagonal of the Casimir sum C =
    sum_i O_i^2, when C = c I within SCALAR_CASIMIR_TOL (spin j: j(j+1), the
    local qubit pair: 3/2), else None; C itself is not kept. Equality is
    identity, so a basis is hashable."""

    operators: np.ndarray
    label: str = ""
    casimir: float | None = field(init=False, repr=False)

    def __post_init__(self):
        ops = np.array(self.operators, dtype=complex)  # a ragged stack raises ValueError
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or 0 in ops.shape:
            raise ValueError(f"expected a nonempty (k, d, d) stack of square matrices, got shape {ops.shape}")
        if not np.isfinite(ops).all():
            raise ValueError("basis has a non-finite entry")
        if np.max(np.abs(ops - ops.conj().transpose(0, 2, 1))) > HERMITICITY_TOL:
            raise ValueError(f"basis element is not Hermitian within {HERMITICITY_TOL:g}; refusing to symmetrize")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        if self.label.startswith("su2-spin-") and ":" not in self.label:
            self._check_su2_commutation(ops)
        c_op = np.sum(ops @ ops, axis=0)
        c = float(np.trace(c_op).real) / self.dim
        scalar = np.max(np.abs(c_op - c * np.eye(self.dim))) <= SCALAR_CASIMIR_TOL * max(1.0, abs(c))
        object.__setattr__(self, "casimir", c if scalar else None)

    @staticmethod
    def _check_su2_commutation(ops):
        if len(ops) != 3:
            raise ValueError("su(2) basis must have exactly three generators")
        sx, sy, sz = ops
        for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
            if np.max(np.abs(a @ b - b @ a - 1j * c)) > COMMUTATOR_TOL:
                raise ValueError("generators do not satisfy [S_a, S_b] = i S_c")

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def __len__(self) -> int:
        return len(self.operators)


def is_normalized(a: np.ndarray) -> bool:
    """|sum_k |a_k|^2 - 1| <= NORM_TOL, the one test of StateVector and the CLI."""
    norm2 = float(np.sum(np.abs(a) ** 2))
    if not math.isfinite(norm2):  # a NaN or infinite amplitude makes the squared norm NaN or infinite
        raise ValueError("state vector has a non-finite amplitude")
    return abs(norm2 - 1.0) <= NORM_TOL


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over a labeled basis; `cartesian` (spin 1) needs
    3 amplitudes, `qubit-pair` (order uu, ud, du, dd) 4."""

    amplitudes: np.ndarray
    basis_label: str

    def __post_init__(self):
        a = np.array(self.amplitudes, dtype=complex).reshape(-1)
        check_state_label(self.basis_label, a.size)
        if a.size == 0:
            raise ValueError("empty state vector")
        if not is_normalized(a):
            raise ValueError(f"state vector is not normalized within {NORM_TOL:g}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def require(self, label: str, dim: int | None = None) -> np.ndarray:
        """The amplitudes, if the state carries this basis label (and, when
        given, this dimension); else ValueError."""
        if self.basis_label != label or dim not in (None, self.dim):
            want = label if dim is None else f"{dim}-component {label}"
            raise ValueError(f"expected a {want} state, got a {self.dim}-component {self.basis_label} state")
        return self.amplitudes


def _spin_label(two_j: int) -> str:
    return f"su2-spin-{two_j // 2}" if two_j % 2 == 0 else f"su2-spin-{two_j}/2"


def spin_generators(j) -> ObservableBasis:
    """{S_x, S_y, S_z} for spin j, S_z diagonal with m = +j first.

    Ladder matrix elements are real non-negative (Condon-Shortley phases).
    Built once per spin: every call with the same j returns the same basis.
    """
    jj = float(j)
    two_j = round(2 * jj) if math.isfinite(jj) else 0
    if two_j <= 0 or abs(2 * jj - two_j) > HALF_INTEGER_TOL:
        raise ValueError(f"j must be a positive half-integer, got {j}")
    return _spin_generators(two_j)


@functools.lru_cache(maxsize=None)
def _spin_generators(two_j: int) -> ObservableBasis:
    jj, dim = two_j / 2, two_j + 1
    m = jj - np.arange(dim)
    # <m+1| S+ |m> = sqrt(j(j+1) - m(m+1)); superdiagonal in descending-m order
    sp = np.diag(np.sqrt(jj * (jj + 1) - m[1:] * (m[1:] + 1)), k=1).astype(complex)
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    sz = np.diag(m).astype(complex)
    return ObservableBasis([sx, sy, sz], label=_spin_label(two_j))


def local_two_qubit_basis() -> ObservableBasis:
    """{s_a (x) I, I (x) s_a} on the qubit pair, basis order uu, ud, du, dd;
    built once."""
    return _local_two_qubit_basis()


@functools.lru_cache(maxsize=None)
def _local_two_qubit_basis() -> ObservableBasis:
    half, eye = spin_generators(0.5).operators, np.eye(2)
    return ObservableBasis([np.kron(o, eye) for o in half] + [np.kron(eye, o) for o in half], label="local-2qubit")


def rotate_basis(basis: ObservableBasis, rotation) -> ObservableBasis:
    """Orthogonal recombination O'_a = sum_b R_ab O_b of a three-element basis."""
    r = np.asarray(rotation, dtype=float)
    if len(basis) != 3:
        raise ValueError("rotate_basis requires exactly three basis elements")
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHOGONALITY_TOL:
        raise ValueError(f"rotation matrix is not orthogonal within {ORTHOGONALITY_TOL:g}")
    return ObservableBasis(np.einsum("ab,bij->aij", r, basis.operators), label=f"rotated:{basis.label}")
