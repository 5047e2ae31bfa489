"""Total variance of an observable basis, from one batched moments kernel.

The total variance sum_i (<O_i^2> - <O_i>^2) = <C> - sum_i <O_i>^2, with the
Casimir sum C = sum_i O_i^2, measures how far a state sits from
classical reality; its maximizers are the completely entangled (CE) states,
characterized by all basis expectations vanishing. `fluctuation_report` is the
one place a state's CE verdict and variance concurrence come from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import BOUND_SLACK, CE_TOL_DEFAULT, IMAG_TOL, VARIANCE_CLAMP, ObservableBasis, StateVector


def _apply(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """O x, (N, len(ops), d), for rows x (N, 1, d) or (N, len(ops), d), operator i
    on row i; a broadcast sum, so each row is rounded alike whatever N is."""
    return (ops[None] * x[:, :, None, :]).sum(axis=-1)


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise <x|y> over the last axis."""
    return (x.conj() * y).sum(axis=-1)


def moments(a: np.ndarray, basis: ObservableBasis):
    """(O a, <O>) for the rows of a (N, d): O a is (N, k, d); <O> holds the real
    expectations (N, k + 1) of the k elements and of C = sum_i O_i^2 in the
    normalized rows a / |a|. <C> is `basis.casimir` exactly when C = c I, else
    sum_i |O_i a|^2 / |a|^2 = <a|C|a> / |a|^2, each O_i being Hermitian."""
    if a.ndim != 2 or a.shape[1] != basis.dim:
        raise ValueError(f"dimension mismatch: state {a.shape[-1]}, basis {basis.dim}")
    oa = _apply(basis.operators, a[:, None, :])
    e = _inner(a[:, None, :], oa) / _inner(a, a).real[:, None]
    if np.abs(e.imag).max() > IMAG_TOL:
        raise ValueError("expectation has a non-negligible imaginary part")
    c = basis.casimir
    if c is None:
        c = _inner(oa, oa).real.sum(axis=-1) / _inner(a, a).real
    expectations = np.empty((len(a), len(basis) + 1))
    expectations[:, :-1], expectations[:, -1] = e.real, c
    return oa, expectations


def variance(e: np.ndarray) -> np.ndarray:
    """V_tot = <C> - sum_i <O_i>^2 for each row of moments' expectations."""
    v = e[:, -1] - (e[:, :-1] ** 2).sum(axis=-1)
    if np.min(v) < -VARIANCE_CLAMP:
        raise ValueError("total variance is negative beyond tolerance")
    return np.maximum(v, 0.0)


def expectation_vector(psi: StateVector, basis: ObservableBasis) -> np.ndarray:
    return moments(psi.amplitudes[None], basis)[1][0, :-1]


def total_variance(psi: StateVector, basis: ObservableBasis) -> float:
    """Sum of variances of the basis observables in the state psi."""
    return float(variance(moments(psi.amplitudes[None], basis)[1])[0])


@dataclass(frozen=True)
class FluctuationReport:
    """Expectations, total variance, CE residual and (optionally) the variance
    concurrence for a single state. The CE residual is max_i |<O_i>|, and
    linearity makes the basis elements suffice for the whole algebra."""

    expectations: np.ndarray
    v_tot: float
    ce_residual: float
    ce_flag: bool
    concurrence_variance: Optional[float]


def fluctuation_report(
    psi: StateVector,
    basis: ObservableBasis,
    v_min: Optional[float] = None,
    v_max: Optional[float] = None,
    ce_tol: float = CE_TOL_DEFAULT,
) -> FluctuationReport:
    """Assemble the full report. ce_flag is ce_residual <= ce_tol; the variance
    concurrence sqrt((V_tot - v_min) / (v_max - v_min)), clamped to [0, 1],
    is included only when both bounds are supplied."""
    if not 0 < ce_tol < np.inf:
        raise ValueError("tolerance must be positive and finite")
    e = moments(psi.amplitudes[None], basis)[1]
    exps, v = e[0, :-1], float(variance(e)[0])
    residual = float(np.max(np.abs(exps)))
    conc = None
    if (v_min is None) != (v_max is None):
        raise ValueError("pass both variance bounds or neither")
    if v_min is not None:
        if not -np.inf < v_min < v_max < np.inf:
            raise ValueError("variance bounds must be finite with v_max > v_min")
        if v < v_min - BOUND_SLACK or v > v_max + BOUND_SLACK:
            raise ValueError(
                f"total variance {v} lies outside [{v_min}, {v_max}]: inconsistent bounds"
            )
        conc = float(np.sqrt(min(max((v - v_min) / (v_max - v_min), 0.0), 1.0)))
    exps.setflags(write=False)
    return FluctuationReport(
        expectations=exps,
        v_tot=v,
        ce_residual=residual,
        ce_flag=residual <= ce_tol,
        concurrence_variance=conc,
    )
