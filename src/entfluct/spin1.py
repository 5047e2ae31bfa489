"""Spin-1 canonical theory.

A spin-1 pure state, viewed as a complex 3-vector in the Cartesian picture,
can always be written e^{i theta} (cos phi |mu> + i sin phi |nu>) with mu, nu
orthonormal real unit vectors and phi in [0, pi/4]. phi is the unique
rotation-invariant parameter; the concurrence is cos(2 phi), phi = 0 marks the
completely entangled states and phi = pi/4 the coherent ones.
"""

import math

from .core import (CE_BASIS, CE_TOL_DEFAULT, UNIT_VECTOR_TOL, canonical, cartesian_of, check_phi, spherical_concurrence,
                   spherical_of, spin1_expectations, variance_report)
from .records import Frozen, StateVector


def to_cartesian(psi: StateVector) -> StateVector:
    """Spherical components (psi_+1, psi_0, psi_-1) to Cartesian (x, y, z), by `core.cartesian_of`."""
    return StateVector(cartesian_of(*psi.require("spherical", 3)), "cartesian")


def to_spherical(psi: StateVector) -> StateVector:
    """Exact inverse of to_cartesian, by `core.spherical_of`."""
    return StateVector(spherical_of(*psi.require("cartesian")), "spherical")


class CanonicalForm(Frozen):
    """(theta, phi, mu, nu) with psi = e^{i theta}(cos phi mu + i sin phi nu),
    mu and nu real unit 3-tuples; nu is None where phi ~ 0 leaves it undetermined."""

    _FIELDS = ("theta", "phi", "mu", "nu")


def canonical_form(psi: StateVector) -> CanonicalForm:
    """Extract (theta, phi, mu, nu) from a Cartesian spin-1 state, by `core.canonical` on its components."""
    return CanonicalForm(*canonical(*psi.require("cartesian")))


def spin_projection_operator(omega):
    """Spin projection onto a direction, the read-only Hermitian 3x3 matrix
    acting on Cartesian components as the infinitesimal rotation x -> i omega x x."""
    import numpy as np  # here, the one function that builds an array

    w = np.asarray(omega, dtype=float).reshape(3)
    if not abs(np.linalg.norm(w) - 1.0) <= UNIT_VECTOR_TOL:  # also a non-finite direction
        raise ValueError(f"direction must be a unit vector within {UNIT_VECTOR_TOL:g}")
    op = 1j * np.array([[0.0, -w[2], w[1]],
                        [w[2], 0.0, -w[0]],
                        [-w[1], w[0], 0.0]])  # i times the cross-product matrix of omega
    op.setflags(write=False)
    return op


def expectation_magnitude_canonical(phi: float) -> float:
    """Maximal |<S_omega>| over directions for a state with invariant phi,
    attained at omega = mu x nu: sin(2 phi)."""
    check_phi(phi)
    return math.sin(2.0 * phi)


def concurrence_spherical(psi: StateVector) -> float:
    """2 |psi_+1 psi_-1 - psi_0^2 / 2| in spherical components."""
    return spherical_concurrence(*psi.require("spherical", 3))


def zero_projection_axis(psi: StateVector) -> tuple | None:
    """Axis with (near-)vanishing spin projection, or None.

    CE states are exactly those with spin projection zero onto some direction,
    the canonical mu. The axis exists where `analyze` calls the state CE: its
    residual max_i |<S_i>| from `core.variance_report` (c = 2) within
    CE_TOL_DEFAULT. Then |S_mu psi| = sin(phi) <= sin(2 phi) = |<S>| <= sqrt(3) CE_TOL_DEFAULT.
    """
    residual = variance_report(spin1_expectations(*spherical_of(*psi.require("cartesian"))), 2.0)[1]
    return canonical_form(psi).mu if residual <= CE_TOL_DEFAULT else None


def ce_basis():
    """The completely entangled orthonormal basis |0>, (|+1> +- |-1>)/sqrt(2)."""
    return tuple(StateVector(a, "spherical") for a in CE_BASIS)
