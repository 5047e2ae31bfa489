"""Shared helpers for the test suite."""

import numpy as np

from entfluct import ObservableBasis, StateVector


def random_state(rng, dim, basis_label="spherical"):
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(a / np.linalg.norm(a), basis_label)


def random_basis(rng, dim, count=3):
    """`count` random Hermitian observables on C^dim: a basis whose Casimir
    sum C = sum_i O_i^2 is not a scalar."""
    mats = []
    for _ in range(count):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append((m + m.conj().T) / 2)
    return ObservableBasis(mats)


def casimir_sum(basis):
    """C = sum_i O_i^2, built explicitly from the basis elements."""
    return np.einsum("kij,kjl->il", basis.operators, basis.operators)


def random_orthogonal(rng, special=False):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if special and np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_orthonormal_pair(rng):
    q = random_orthogonal(rng)
    return q[:, 0], q[:, 1]


def state_from_canonical(theta, phi, mu, nu):
    amps = np.exp(1j * theta) * (np.cos(phi) * mu + 1j * np.sin(phi) * nu)
    return StateVector(amps / np.linalg.norm(amps), "cartesian")
