"""Clebsch-Gordan bridge between spin-1 and a qubit pair.

The pair space splits into the symmetric triplet (spin 1) and the antisymmetric
singlet (`pair_sectors`); embedding a spin-1 state into the triplet lets the
two-qubit determinant concurrence 2|det| double as a spin-1 measure. Pair
states are StateVector(amplitudes, "qubit-pair") over |uu>, |ud>, |du>, |dd>.
"""

import math

from .core import PROJECT_TOL, SINGLET_NORM, SQRT2, pair_concurrence
from .records import StateVector


def pair_sectors(uu: complex, ud: complex, du: complex, dd: complex) -> tuple:
    """The triplet/singlet split of a unit qubit pair, (s, a, w_s, w_a, triplet):
    the symmetric part is (uu, s, s, dd) with s = (ud + du)/2, the singlet
    amplitude a = (ud - du)/sqrt(2), their weights are w_s = |uu|^2 + 2|s|^2 +
    |dd|^2 and w_a = |a|^2, and the triplet is the spherical (uu, sqrt(2) s, dd)
    / sqrt(w_s), the inverse of the embedding, renormalized; None where
    sqrt(w_s) < SINGLET_NORM, a pure singlet."""
    mid, singlet = (ud + du) / 2.0, (ud - du) / SQRT2
    w_s = (uu.real * uu.real + uu.imag * uu.imag) + 2.0 * (mid.real * mid.real + mid.imag * mid.imag) + (
        dd.real * dd.real + dd.imag * dd.imag)
    w_a = singlet.real * singlet.real + singlet.imag * singlet.imag
    n = math.sqrt(w_s)
    if n < SINGLET_NORM:
        return mid, singlet, w_s, w_a, None
    return mid, singlet, w_s, w_a, (uu / n, SQRT2 * mid / n, dd / n)


def embed_symmetric(psi: StateVector) -> StateVector:
    """Triplet embedding: |+1> -> |uu>, |0> -> (|ud>+|du>)/sqrt(2), |-1> -> |dd>, psi_0 / sqrt(2) rounded as
    `cli.build_analysis` rounds it, so its 2|det| is the analysis's `two_qubit_det` bit for bit."""
    p, z, m = psi.require("spherical", 3)
    mid = z / SQRT2
    return StateVector((p, mid, mid, m), "qubit-pair")


def sector_split(chi: StateVector):
    """(symmetric 4-tuple, singlet amplitude), by `pair_sectors`; squared norms sum to one."""
    uu, ud, du, dd = chi.require("qubit-pair")
    mid, singlet_amplitude, _, _, _ = pair_sectors(uu, ud, du, dd)
    return (uu, mid, mid, dd), singlet_amplitude


def project_spin1(chi: StateVector) -> StateVector:
    """Inverse of embed_symmetric on the triplet sector, renormalized, by `pair_sectors`.

    Rejects states with an antisymmetric component above PROJECT_TOL: they do
    not lie in the spin-1 subspace.
    """
    _, anti, _, _, triplet = pair_sectors(*chi.require("qubit-pair"))
    if triplet is None:
        raise ValueError("state has zero symmetric part (pure singlet)")
    if abs(anti) > PROJECT_TOL:
        raise ValueError(f"antisymmetric component {abs(anti):.3e} exceeds tolerance {PROJECT_TOL:.3e}")
    return StateVector(triplet, "spherical")


def singlet() -> StateVector:
    """The antisymmetric scalar (|ud> - |du>)/sqrt(2)."""
    return StateVector((0j, 1 / SQRT2 + 0j, -1 / SQRT2 + 0j, 0j), "qubit-pair")


def pure_concurrence(chi: StateVector) -> float:
    """2 |det| of the amplitude matrix: 2 |a_uu a_dd - a_ud a_du|."""
    return pair_concurrence(*chi.require("qubit-pair"))
