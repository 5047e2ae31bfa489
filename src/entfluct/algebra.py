"""Observable algebras: spin-j generators and the local two-qubit set, each
stacked with its Casimir sum C = sum_i O_i^2 as `operators[-1]`, and with
the scalar c recorded as `casimir` when C = c I.

All containers are immutable after construction and validate their defining
invariants (Hermiticity, unit norm, su(2) commutation) up front, so downstream
numerics never have to re-check them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Tolerances: every numeric threshold of the package, defined once (this block
# runs to the next blank line; tests/test_tolerances.py keeps it the only home
# of exponent-form float literals).
HERMITICITY_TOL = 1e-12  # max |O - O^dagger| of an Observable
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


def _frozen_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has a non-finite entry")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class Observable:
    """A Hermitian operator on the state space."""

    entries: np.ndarray

    def __post_init__(self):
        m = _frozen_complex_matrix(self.entries)
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian within {HERMITICITY_TOL:g}; refusing to symmetrize")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ObservableBasis:
    """Ordered basis of the algebra of essential observables. `operators` stacks
    the elements followed by their Casimir sum C = sum_i O_i^2, (k + 1, d, d).
    `casimir` is c, the mean of the diagonal of C, when C = c I within
    SCALAR_CASIMIR_TOL (spin j: j(j+1), the local qubit pair: 3/2), else None."""

    elements: tuple
    label: str = ""
    operators: np.ndarray = field(init=False, repr=False, compare=False)
    casimir: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(self.elements)
        if not elems:
            raise ValueError("observable basis must be nonempty")
        dim = elems[0].dim
        for o in elems:
            if not isinstance(o, Observable):
                raise TypeError("basis elements must be Observable instances")
            if o.dim != dim:
                raise ValueError("dimension mismatch among basis elements")
        object.__setattr__(self, "elements", elems)
        if self.label.startswith("su2-spin-") and ":" not in self.label:
            self._check_su2_commutation(elems)
        mats = np.stack([o.entries for o in elems])
        c_op = np.sum(mats @ mats, axis=0)
        c = float(np.trace(c_op).real) / dim
        scalar = np.max(np.abs(c_op - c * np.eye(dim))) <= SCALAR_CASIMIR_TOL * max(1.0, abs(c))
        ops = np.concatenate([mats, c_op[None]])
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        object.__setattr__(self, "casimir", c if scalar else None)

    @staticmethod
    def _check_su2_commutation(elems):
        if len(elems) != 3:
            raise ValueError("su(2) basis must have exactly three generators")
        sx, sy, sz = (o.entries for o in elems)
        for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
            if np.max(np.abs(a @ b - b @ a - 1j * c)) > COMMUTATOR_TOL:
                raise ValueError("generators do not satisfy [S_a, S_b] = i S_c")

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass(frozen=True)
class StateVector:
    """A normalized pure state over a labeled basis; `cartesian` (spin 1) needs
    3 amplitudes, `qubit-pair` (order uu, ud, du, dd) 4."""

    amplitudes: np.ndarray
    basis_label: str

    def __post_init__(self):
        if self.basis_label not in STATE_BASIS_LABELS:
            raise ValueError(f"unknown basis label {self.basis_label!r}")
        a = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if a.size == 0:
            raise ValueError("empty state vector")
        need = STATE_BASIS_LABELS[self.basis_label]
        if need is not None and a.size != need:
            raise ValueError(f"a {self.basis_label} state needs {need} amplitudes, got {a.size}")
        norm2 = float(np.sum(np.abs(a) ** 2))
        # a NaN or infinite amplitude makes the squared norm NaN or infinite
        if not math.isfinite(norm2):
            raise ValueError("state vector has a non-finite amplitude")
        if abs(norm2 - 1.0) > NORM_TOL:
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
    two_j = round(2 * jj)
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
    return ObservableBasis(
        (Observable(sx), Observable(sy), Observable(sz)), label=_spin_label(two_j)
    )


def local_two_qubit_basis() -> ObservableBasis:
    """{s_a (x) I, I (x) s_a} on the qubit pair, basis order uu, ud, du, dd;
    built once."""
    return _local_two_qubit_basis()


@functools.lru_cache(maxsize=None)
def _local_two_qubit_basis() -> ObservableBasis:
    half = spin_generators(0.5)
    eye = np.eye(2)
    elems = [Observable(np.kron(o.entries, eye)) for o in half]
    elems += [Observable(np.kron(eye, o.entries)) for o in half]
    return ObservableBasis(tuple(elems), label="local-2qubit")


def rotate_basis(basis: ObservableBasis, rotation) -> ObservableBasis:
    """Orthogonal recombination O'_a = sum_b R_ab O_b of a three-element basis."""
    r = np.asarray(rotation, dtype=float)
    if len(basis) != 3:
        raise ValueError("rotate_basis requires exactly three basis elements")
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHOGONALITY_TOL:
        raise ValueError(f"rotation matrix is not orthogonal within {ORTHOGONALITY_TOL:g}")
    mixed = np.einsum("ab,bij->aij", r, basis.operators[:3])
    return ObservableBasis(tuple(Observable(m) for m in mixed), label=f"rotated:{basis.label}")
