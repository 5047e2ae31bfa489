"""Total variance of an observable basis, from one batched moments kernel.

The total variance sum_i (<O_i^2> - <O_i>^2) = c - sum_i <O_i>^2, with c the
scalar Casimir sum C = sum_i O_i^2 of the basis, measures how far a state sits
from classical reality; its maximizers are the completely entangled (CE) states,
characterized by all basis expectations vanishing. `core.variance_report` is the
one place a state's V_tot, CE residual and variance concurrence come from, here
from the expectations `moments` gives on any basis, in the CLI from the closed
forms. The CE verdict is that residual held against a tolerance, by the
tolerance's owner.
"""

import numpy as np

from .algebra import ObservableBasis
from .core import IMAG_TOL, variance_report
from .records import Frozen, StateVector


def _apply(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """O x, (N, len(ops), d), for the rows of x (N, d): each row times the stacked operators' (d, k d) table,
    a transposed view, which rounds each row alike for any N (a C-ordered copy would not)."""
    return (x[:, None, :] @ ops.reshape(-1, ops.shape[-1]).T).reshape(len(x), *ops.shape[:2])


def moments(a: np.ndarray, basis: ObservableBasis):
    """(O a, <O>) for the rows of a (N, d): O a is (N, k, d) and <O> the real
    expectations (N, k) of the k elements in the normalized rows a / |a|. <C>
    is `basis.casimir` in every state. The basis acts on the components as given,
    so they must be in its own representation; only their number is checked."""
    if a.ndim != 2 or a.shape[1] != basis.dim:
        raise ValueError(f"dimension mismatch: want states of shape (N, {basis.dim}), got {a.shape}")
    oa, ac = _apply(basis.operators, a), a.conj()
    e = (oa @ ac[:, :, None])[..., 0] / np.add.reduce(ac * a, axis=-1).real[:, None]  # <a|a>, one conj
    if np.maximum.reduce(np.abs(e.imag), axis=None) > IMAG_TOL:
        raise ValueError("expectation has a non-negligible imaginary part")
    return oa, e.real


class FluctuationReport(Frozen):
    """Expectations (a tuple of floats), total variance, CE residual and
    (optionally) the variance concurrence for a single state. The CE residual is
    max_i |<O_i>|, and linearity makes the basis elements suffice for the whole
    algebra; the state is CE within a tolerance tol where ce_residual <= tol."""

    _FIELDS = ("expectations", "v_tot", "ce_residual", "concurrence_variance")


def fluctuation_report(psi: StateVector, basis: ObservableBasis, bounds: tuple | None = None) -> FluctuationReport:
    """Assemble the full report. The variance concurrence sqrt((V_tot - v_min) /
    (v_max - v_min)), clamped to [0, 1], is included only when the bounds pair
    (v_min, v_max) is supplied. psi's components must be in the basis's own
    representation; its label is not checked."""
    exps = tuple(moments(psi.amplitudes[None], basis)[1][0].tolist())
    return FluctuationReport(exps, *variance_report(exps, basis.casimir, bounds))


def total_variance(psi: StateVector, basis: ObservableBasis) -> float:
    """Sum of variances of the basis observables in the state psi, the report's `v_tot`."""
    return fluctuation_report(psi, basis).v_tot
