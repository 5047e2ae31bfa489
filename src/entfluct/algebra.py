"""Observable algebras: spin-j generators and the local two-qubit set, each
one (k, d, d) array of Hermitian matrices whose Casimir sum C = sum_i O_i^2
is a scalar c I, recorded as `casimir`.

A basis is a `records.Frozen` record, immutable after construction, that checks
its defining invariants (Hermiticity, a scalar Casimir, su(2) commutation) once,
where it enters, so downstream numerics never re-check them.
"""

import functools
import math

import numpy as np

from .core import (COMMUTATOR_TOL, HALF_INTEGER_TOL, HERMITICITY_TOL, ORTHOGONALITY_TOL, SCALAR_CASIMIR_TOL,
                   check_state_label)
from .records import Frozen


class ObservableBasis(Frozen):
    """Ordered basis of the algebra of essential observables: `operators` is one
    read-only (k, d, d) complex stack, copied from any array-like and checked
    once (square, finite, Hermitian; su(2) commutation for an `su2-spin-*`
    label). The Casimir sum C = sum_i O_i^2 must be c I within
    SCALAR_CASIMIR_TOL, as it is on an irreducible representation (Schur's
    lemma), else ValueError; `casimir` is c, the mean of its diagonal (spin j:
    j(j+1), the local qubit pair: 3/2). `state_label` names the state
    representation the basis acts on, checked against d by `check_state_label`.
    Equality is identity, so a basis is hashable."""

    _FIELDS = ("operators", "label", "state_label")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, operators, label: str = "", state_label: str = "spherical"):
        ops = np.array(operators, dtype=complex)  # a ragged stack raises ValueError
        if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or 0 in ops.shape:
            raise ValueError(f"expected a nonempty (k, d, d) stack of square matrices, got shape {ops.shape}")
        if not np.isfinite(ops).all():
            raise ValueError("basis has a non-finite entry")
        if np.max(np.abs(ops - ops.conj().transpose(0, 2, 1))) > HERMITICITY_TOL:
            raise ValueError(f"basis element is not Hermitian within {HERMITICITY_TOL:g}; refusing to symmetrize")
        ops.setflags(write=False)
        check_state_label(state_label, ops.shape[1])
        if label.startswith("su2-spin-"):
            self._check_su2_commutation(ops)
        dim = ops.shape[1]
        c_op = np.sum(ops @ ops, axis=0)
        c = float(np.trace(c_op).real) / dim
        if np.max(np.abs(c_op - c * np.eye(dim))) > SCALAR_CASIMIR_TOL * max(1.0, abs(c)):
            raise ValueError(f"Casimir sum C = sum_i O_i^2 is not a scalar within {SCALAR_CASIMIR_TOL:g}")
        vars(self).update(operators=ops, label=label, state_label=state_label, casimir=c)

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


@functools.lru_cache(maxsize=None)
def local_two_qubit_basis() -> ObservableBasis:
    """{s_a (x) I, I (x) s_a} on the qubit pair, basis order uu, ud, du, dd;
    built once."""
    half, eye = spin_generators(0.5).operators, np.eye(2)
    return ObservableBasis([np.kron(o, eye) for o in half] + [np.kron(eye, o) for o in half], label="local-2qubit",
                           state_label="qubit-pair")


def rotate_basis(basis: ObservableBasis, rotation) -> ObservableBasis:
    """Orthogonal recombination O'_a = sum_b R_ab O_b of a three-element basis, on the same state label."""
    r = np.asarray(rotation, dtype=float)
    if len(basis) != 3:
        raise ValueError("rotate_basis requires exactly three basis elements")
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    if np.max(np.abs(r.T @ r - np.eye(3))) > ORTHOGONALITY_TOL:
        raise ValueError(f"rotation matrix is not orthogonal within {ORTHOGONALITY_TOL:g}")
    return ObservableBasis(np.einsum("ab,bij->aij", r, basis.operators), f"rotated:{basis.label}", basis.state_label)
