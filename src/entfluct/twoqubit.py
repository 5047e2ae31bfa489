"""Clebsch-Gordan bridge between spin-1 and a qubit pair.

The pair space splits into the symmetric triplet (spin 1) and the
antisymmetric singlet; embedding a spin-1 state into the triplet lets the
two-qubit determinant concurrence 2|det| double as a spin-1 measure. Pair
states are StateVector(amplitudes, "qubit-pair") over |uu>, |ud>, |du>, |dd>.
"""

from __future__ import annotations

from .core import PROJECT_TOL_DEFAULT, SQRT2, StateVector, pair_concurrence, pair_sectors


def embed_symmetric(psi: StateVector) -> StateVector:
    """Triplet embedding: |+1> -> |uu>, |0> -> (|ud>+|du>)/sqrt(2), |-1> -> |dd>."""
    p, z, m = psi.require("spherical", 3)
    # z / sqrt(2) as numpy divides (Smith's formula), whose rounding and signed zeros Python's z / SQRT2 misses
    r = 1.0 / SQRT2
    mid = complex((z.real + z.imag * 0.0) * r, (z.imag - z.real * 0.0) * r)
    return StateVector((p, mid, mid, m), "qubit-pair")


def sector_split(chi: StateVector):
    """(symmetric 4-tuple, singlet amplitude), by `core.pair_sectors`; squared norms sum to one."""
    uu, ud, du, dd = chi.require("qubit-pair")
    mid, singlet_amplitude, _, _, _ = pair_sectors(uu, ud, du, dd)
    return (uu, mid, mid, dd), singlet_amplitude


def project_spin1(chi: StateVector, tol: float = PROJECT_TOL_DEFAULT) -> StateVector:
    """Inverse of embed_symmetric on the triplet sector, renormalized, by `core.pair_sectors`.

    Rejects states with an antisymmetric component above tol: they do not lie
    in the spin-1 subspace.
    """
    if not tol >= 0:  # also NaN
        raise ValueError(f"tol must be >= 0, got {tol}")
    _, anti, _, _, triplet = pair_sectors(*chi.require("qubit-pair"))
    if triplet is None:
        raise ValueError("state has zero symmetric part (pure singlet)")
    if abs(anti) > tol:
        raise ValueError(f"antisymmetric component {abs(anti):.3e} exceeds tolerance {tol:.3e}")
    return StateVector(triplet, "spherical")


def singlet() -> StateVector:
    """The antisymmetric scalar (|ud> - |du>)/sqrt(2)."""
    return StateVector((0j, 1 / SQRT2 + 0j, -1 / SQRT2 + 0j, 0j), "qubit-pair")


def pure_concurrence(chi: StateVector) -> float:
    """2 |det| of the amplitude matrix: 2 |a_uu a_dd - a_ud a_du|."""
    return pair_concurrence(*chi.require("qubit-pair"))
