"""Spin-1 canonical theory.

A spin-1 pure state, viewed as a complex 3-vector in the Cartesian picture,
can always be written e^{i theta} (cos phi |mu> + i sin phi |nu>) with mu, nu
orthonormal real unit vectors and phi in [0, pi/4]. phi is the unique
rotation-invariant parameter; the concurrence is cos(2 phi), phi = 0 marks the
completely entangled states and phi = pi/4 the coherent ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import _SQ2, CE_TOL_DEFAULT, NU_CUTOFF, PHI_SLACK, UNIT_VECTOR_TOL, StateVector

# Columns are the Cartesian images of |+1>, |0>, |-1> (Condon-Shortley):
# |+1> = -(e_x + i e_y)/sqrt(2), |0> = e_z, |-1> = (e_x - i e_y)/sqrt(2)
SPH_TO_CART = np.array(
    [
        [-1 / _SQ2, 0.0, 1 / _SQ2],
        [-1j / _SQ2, 0.0, -1j / _SQ2],
        [0.0, 1.0, 0.0],
    ]
)
CART_TO_SPH = SPH_TO_CART.conj().T  # its inverse


def _convert(a: np.ndarray, to: str) -> np.ndarray:
    """Spin-1 amplitudes a in the basis `to`, "cartesian" or "spherical" (a is in the other)."""
    return (SPH_TO_CART if to == "cartesian" else CART_TO_SPH) @ a


def to_cartesian(psi: StateVector) -> StateVector:
    """Spherical components (psi_+1, psi_0, psi_-1) to Cartesian (x, y, z)."""
    return StateVector(_convert(psi.require("spherical", 3), "cartesian"), "cartesian")


def to_spherical(psi: StateVector) -> StateVector:
    """Exact inverse of to_cartesian."""
    return StateVector(_convert(psi.require("cartesian"), "spherical"), "spherical")


@dataclass(frozen=True)
class CanonicalForm:
    """(theta, phi, mu, nu) with psi = e^{i theta}(cos phi mu + i sin phi nu);
    nu is None where phi ~ 0 leaves it undetermined."""

    theta: float
    phi: float
    mu: np.ndarray
    nu: Optional[np.ndarray]


def canonical_form(psi: StateVector) -> CanonicalForm:
    """Extract (theta, phi, mu, nu) from a Cartesian spin-1 state.

    The bilinear form w = sum_k psi_k^2 fixes the global phase: with theta =
    arg(w)/2 folded into [0, pi), the real and imaginary parts of
    e^{-i theta} psi are orthogonal and |real|^2 - |imag|^2 = |w| exactly. Any
    theta serves at w = 0; where rounding near w = 0 leaves |imag| > |real|,
    phi is capped at pi/4. atan2 gives phi stably near 0.
    """
    return CanonicalForm(*_canonical_form(psi.require("cartesian")))


def _canonical_form(a: np.ndarray) -> tuple:  # the CanonicalForm fields (theta, phi, mu, nu)
    w = np.add.reduce(a * a, axis=None)
    # arg(w) as np.angle takes it; a tiny negative angle % pi rounds to pi itself, the second % takes that to 0
    theta = 0.5 * float(np.arctan2(w.imag, w.real)) % math.pi % math.pi
    dephased = a * np.exp(-1j * theta)
    x, y = dephased.real, dephased.imag
    nx, ny = math.sqrt(x @ x), math.sqrt(y @ y)  # np.linalg.norm's dot and sqrt, bit for bit
    phi = min(float(np.arctan2(ny, nx)), np.pi / 4)
    mu = x / nx
    nu = y / ny if ny > NU_CUTOFF else None
    mu.setflags(write=False)
    if nu is not None:
        nu.setflags(write=False)
    return theta, phi, mu, nu


def spin_projection_operator(omega) -> np.ndarray:
    """Spin projection onto a direction, the read-only Hermitian 3x3 matrix
    acting on Cartesian components as the infinitesimal rotation x -> i omega x x."""
    w = np.asarray(omega, dtype=float).reshape(3)
    if not abs(np.linalg.norm(w) - 1.0) <= UNIT_VECTOR_TOL:  # also a non-finite direction
        raise ValueError(f"direction must be a unit vector within {UNIT_VECTOR_TOL:g}")
    cross = np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )
    op = 1j * cross
    op.setflags(write=False)
    return op


def _check_phi(phi: float):
    if not -PHI_SLACK <= phi <= np.pi / 4 + PHI_SLACK:
        raise ValueError("phi must lie in [0, pi/4]")


def expectation_magnitude_canonical(phi: float) -> float:
    """Maximal |<S_omega>| over directions for a state with invariant phi,
    attained at omega = mu x nu: sin(2 phi)."""
    _check_phi(phi)
    return float(np.sin(2.0 * phi))


def concurrence_spherical(psi: StateVector) -> float:
    """2 |psi_+1 psi_-1 - psi_0^2 / 2| in spherical components."""
    return _concurrence_spherical(psi.require("spherical", 3))


def _concurrence_spherical(a: np.ndarray) -> float:
    p, z, m = a.tolist()
    return min(2.0 * abs(p * m - z * z / 2.0), 1.0)


def concurrence_from_phi(phi: float) -> float:
    """cos(2 phi): 1 for CE states (phi = 0), 0 for coherent ones (phi = pi/4)."""
    _check_phi(phi)
    return float(np.cos(2.0 * phi))


def zero_projection_axis(psi: StateVector, tol: float = CE_TOL_DEFAULT) -> Optional[np.ndarray]:
    """Axis with (near-)vanishing spin projection, or None.

    CE states are exactly those with spin projection zero onto some direction;
    for canonical phi <= tol that direction is mu, with residual
    |S_mu psi| = sin(phi) <= 10 tol.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tolerance must be positive and finite")
    form = canonical_form(psi)
    return form.mu if form.phi <= tol else None


def ce_basis():
    """The completely entangled orthonormal basis |0>, (|+1> +- |-1>)/sqrt(2)."""
    return (
        StateVector(np.array([0.0, 1.0, 0.0], dtype=complex), "spherical"),
        StateVector(np.array([1.0, 0.0, 1.0]) / _SQ2, "spherical"),
        StateVector(np.array([1.0, 0.0, -1.0]) / _SQ2, "spherical"),
    )
