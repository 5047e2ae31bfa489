"""Shared helpers for the test suite."""

import numpy as np

from entfluct import ObservableBasis, StateVector, spin_generators


def random_state(rng, dim, basis_label="spherical"):
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(a / np.linalg.norm(a), basis_label)


def random_basis(rng, dim):
    """The spin-(dim - 1)/2 generators conjugated by a Haar-random unitary U:
    dense matrices U S_a U^dagger, whose Casimir sum is still j(j + 1)."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))  # the phase fix that makes q Haar-distributed
    return ObservableBasis(u @ spin_generators((dim - 1) / 2).operators @ u.conj().T)


def non_lie_basis(rng, dim):
    """{A1, A2, sqrt(c - A1^2 - A2^2)} for random Hermitian A1, A2, with c 1.5 times the
    top eigenvalue of A1^2 + A2^2: its Casimir sum is the scalar c, but it spans no Lie
    algebra, so the top eigenvector of sum_i <O_i> O_i is in general not stationary."""
    a = rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim))
    a = (a + a.conj().swapaxes(1, 2)) / 2
    s = a[0] @ a[0] + a[1] @ a[1]
    w, v = np.linalg.eigh(1.5 * np.linalg.eigvalsh(s)[-1] * np.eye(dim) - s)
    return ObservableBasis([*a, (v * np.sqrt(w)) @ v.conj().T])


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
    """e^{i theta}(cos phi mu + i sin phi nu), normalized; nu = None (left
    undetermined by canonical_form at phi ~ 0) drops the sin phi term."""
    amps = np.exp(1j * theta) * (np.cos(phi) * np.array(mu) + 1j * np.sin(phi) * (0.0 if nu is None else np.array(nu)))
    return StateVector(amps / np.linalg.norm(amps), "cartesian")
