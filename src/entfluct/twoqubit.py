"""Clebsch-Gordan bridge between spin-1 and a qubit pair.

The pair space splits into the symmetric triplet (spin 1) and the
antisymmetric singlet; embedding a spin-1 state into the triplet lets the
two-qubit determinant concurrence 2|det| double as a spin-1 measure. Pair
states are StateVector(amplitudes, "qubit-pair") over |uu>, |ud>, |du>, |dd>.
"""

from __future__ import annotations

import numpy as np

from .algebra import _SQ2, PROJECT_TOL_DEFAULT, SINGLET_NORM, StateVector


def embed_symmetric(psi: StateVector) -> StateVector:
    """Triplet embedding: |+1> -> |uu>, |0> -> (|ud>+|du>)/sqrt(2), |-1> -> |dd>."""
    p, z, m = psi.require("spherical", 3)
    return StateVector(np.array([p, z / _SQ2, z / _SQ2, m]), "qubit-pair")


def sector_split(chi: StateVector):
    """(symmetric 4-vector, singlet amplitude); squared norms sum to one."""
    a = chi.require("qubit-pair")
    sym_mid = (a[1] + a[2]) / 2.0
    symmetric = np.array([a[0], sym_mid, sym_mid, a[3]])
    antisymmetric = (a[1] - a[2]) / _SQ2
    return symmetric, complex(antisymmetric)


def project_spin1(chi: StateVector, tol: float = PROJECT_TOL_DEFAULT) -> StateVector:
    """Inverse of embed_symmetric on the triplet sector, renormalized.

    Rejects states with an antisymmetric component above tol: they do not lie
    in the spin-1 subspace.
    """
    if not tol >= 0:  # also NaN
        raise ValueError(f"tol must be >= 0, got {tol}")
    symmetric, anti = sector_split(chi)
    sym_norm = np.linalg.norm(symmetric)
    if sym_norm < SINGLET_NORM:
        raise ValueError("state has zero symmetric part (pure singlet)")
    if abs(anti) > tol:
        raise ValueError(
            f"antisymmetric component {abs(anti):.3e} exceeds tolerance {tol:.3e}"
        )
    spherical = np.array([symmetric[0], _SQ2 * symmetric[1], symmetric[3]]) / sym_norm
    return StateVector(spherical, "spherical")


def singlet() -> StateVector:
    """The antisymmetric scalar (|ud> - |du>)/sqrt(2)."""
    return StateVector(np.array([0.0, 1.0, -1.0, 0.0]) / _SQ2, "qubit-pair")


def swap_qubits(chi: StateVector) -> StateVector:
    return StateVector(chi.require("qubit-pair")[[0, 2, 1, 3]], "qubit-pair")


def pure_concurrence(chi: StateVector) -> float:
    """2 |det| of the amplitude matrix: 2 |a_uu a_dd - a_ud a_du|."""
    a = chi.require("qubit-pair")
    return min(float(2.0 * abs(a[0] * a[3] - a[1] * a[2])), 1.0)
