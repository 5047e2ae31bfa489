"""Spin-1 canonical theory.

A spin-1 pure state, viewed as a complex 3-vector in the Cartesian picture,
can always be written e^{i theta} (cos phi |mu> + i sin phi |nu>) with mu, nu
orthonormal real unit vectors and phi in [0, pi/4]. phi is the unique
rotation-invariant parameter; the concurrence is cos(2 phi), phi = 0 marks the
completely entangled states and phi = pi/4 the coherent ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import _SQ2, BILINEAR_ZERO, CE_TOL_DEFAULT, NU_CUTOFF, PHI_SLACK, UNIT_VECTOR_TOL, StateVector

# Columns are the Cartesian images of |+1>, |0>, |-1> (Condon-Shortley):
# |+1> = -(e_x + i e_y)/sqrt(2), |0> = e_z, |-1> = (e_x - i e_y)/sqrt(2)
SPH_TO_CART = np.array(
    [
        [-1 / _SQ2, 0.0, 1 / _SQ2],
        [-1j / _SQ2, 0.0, -1j / _SQ2],
        [0.0, 1.0, 0.0],
    ]
)


def to_cartesian(psi: StateVector) -> StateVector:
    """Spherical components (psi_+1, psi_0, psi_-1) to Cartesian (x, y, z)."""
    return StateVector(SPH_TO_CART @ psi.require("spherical", 3), "cartesian")


def to_spherical(psi: StateVector) -> StateVector:
    """Exact inverse of to_cartesian."""
    return StateVector(SPH_TO_CART.conj().T @ psi.require("cartesian"), "spherical")


@dataclass(frozen=True)
class CanonicalForm:
    """(theta, phi, mu, nu) with psi = e^{i theta}(cos phi mu + i sin phi nu);
    nu is None where phi ~ 0 leaves it undetermined."""

    theta: float
    phi: float
    mu: np.ndarray
    nu: Optional[np.ndarray]

    def reconstruct(self) -> StateVector:
        """Rebuild the Cartesian state; any axis orthogonal to mu stands in for
        nu when it is undetermined (phi ~ 0)."""
        nu = _any_orthogonal_unit(self.mu) if self.nu is None else self.nu
        amps = np.exp(1j * self.theta) * (
            np.cos(self.phi) * self.mu + 1j * np.sin(self.phi) * nu
        )
        return StateVector(amps / np.linalg.norm(amps), "cartesian")


def _any_orthogonal_unit(v: np.ndarray) -> np.ndarray:
    trial = np.array([1.0, 0.0, 0.0])
    if abs(v[0]) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    w = trial - np.dot(trial, v) * v
    return w / np.linalg.norm(w)


def canonical_form(psi: StateVector) -> CanonicalForm:
    """Extract (theta, phi, mu, nu) from a Cartesian spin-1 state.

    The bilinear form w = sum_k psi_k^2 fixes the global phase: theta =
    arg(w)/2 folded into [0, pi), after which the real and imaginary parts of
    e^{-i theta} psi are automatically orthogonal with |real| >= |imag|.
    atan2 gives phi stably near 0.
    """
    a = psi.require("cartesian")
    w = np.sum(a * a)
    if abs(w) < BILINEAR_ZERO:
        theta = 0.0  # w = 0 leaves the phase unconstrained
    else:
        theta = 0.5 * np.angle(w)
        if theta < 0.0:
            theta += np.pi
    dephased = a * np.exp(-1j * theta)
    x, y = dephased.real, dephased.imag  # views: x and y are only rebound below, never written
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if ny > nx:
        # only reachable through rounding at w ~ 0; restore phi <= pi/4
        x, y = y, -x
        nx, ny = ny, nx
        theta += np.pi / 2
        if theta >= np.pi:
            theta -= np.pi
            x, y = -x, -y
    phi = min(float(np.arctan2(ny, nx)), np.pi / 4)
    mu = x / nx
    nu = y / ny if ny > NU_CUTOFF else None
    mu.setflags(write=False)
    if nu is not None:
        nu.setflags(write=False)
    return CanonicalForm(theta=float(theta), phi=phi, mu=mu, nu=nu)


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
    p, z, m = psi.require("spherical", 3)
    return min(float(2.0 * abs(p * m - z * z / 2.0)), 1.0)


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
    form = canonical_form(psi)
    if form.phi <= tol:
        return form.mu
    return None


def ce_basis():
    """The completely entangled orthonormal basis |0>, (|+1> +- |-1>)/sqrt(2)."""
    return (
        StateVector(np.array([0.0, 1.0, 0.0], dtype=complex), "spherical"),
        StateVector(np.array([1.0, 0.0, 1.0]) / _SQ2, "spherical"),
        StateVector(np.array([1.0, 0.0, -1.0]) / _SQ2, "spherical"),
    )
