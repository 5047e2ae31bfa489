"""Variational search for extremal total variance over the unit sphere of the
state space: maximizers are the completely entangled states, minimizers the
generalized coherent states.

Riemannian conjugate gradient (Polak-Ribiere+, exact parallel transport) with
an exact line search: on a great circle a cos t + d sin t each <O> is
m + u cos 2t + r sin 2t, so V = <C> - sum_i <O_i>^2 (C = sum_i O_i^2) is a
trigonometric polynomial of degree 2 in s = 2t. Restarts advance together as
the rows of one (R, d) array and every operation acts row by row, so restart k
of seed s is exactly the one-restart search with seed s ^ k, whatever the order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import STEP_TOL_DEFAULT, ObservableBasis, StateVector
from .fluctuations import _apply, _inner, moments, variance

STOP_REASONS = ("gradient", "stall", "cap")
MODES = ("maximize", "minimize")

# seeds the global extremum of V on the circle (two local maxima at most)
_GRID = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
_NEWTON_STEPS = 4


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 16
    max_iterations: int = 2000
    step_tolerance: float = STEP_TOL_DEFAULT
    seed: int = 0
    mode: str = "maximize"

    def __post_init__(self):
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be positive")
        if not 0 < self.step_tolerance < np.inf:
            raise ValueError("step_tolerance must be positive and finite")
        if self.mode not in MODES:
            raise ValueError("mode must be 'maximize' or 'minimize'")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class SearchResult:
    """`converged`: the returned restart stopped on the gradient. Per restart: final
    value, stop reason (one of STOP_REASONS), tangent-gradient norm at the end."""

    best_state: StateVector
    best_value: float
    converged: bool
    iterations_used: int
    restart_values: np.ndarray
    restart_stop: tuple
    restart_gradients: np.ndarray


def _value_and_gradient(a: np.ndarray, basis: ObservableBasis):
    """V, the gradient 2[(C - <C>) a - 2 sum_i <O_i>(O_i - <O_i>) a], O a and
    <O> (last column <C>) for every unit row of a (R, d)."""
    oa, e = moments(a, basis)
    centred = oa - e[..., None] * a[:, None, :]
    grad = 2.0 * (centred[:, -1] - 2.0 * (e[:, :-1, None] * centred[:, :-1]).sum(axis=1))
    return variance(e), grad, oa, e


def gradient_total_variance(psi: StateVector, basis: ObservableBasis) -> np.ndarray:
    """Unconstrained gradient of V_tot(psi/|psi|) with respect to the complex
    amplitudes; the directional derivative along d is Re(vdot(d, grad)).
    Callers on the sphere project out the component along psi afterwards."""
    return _value_and_gradient(psi.amplitudes[None], basis)[1][0]


def _line(coef: np.ndarray, s: np.ndarray):
    """V(s) - V(0) and its first two s-derivatives from the line coefficients
    (c1, s1, c2, s2), with cos x - 1 = -2 sin^2(x/2) so no term of size V cancels."""
    c1, s1, c2, s2 = (c[:, None] for c in coef.T)
    sn, cs, sn2, cs2 = np.sin(s), np.cos(s), np.sin(2 * s), np.cos(2 * s)
    gain = -2.0 * c1 * np.sin(s / 2) ** 2 + s1 * sn - 2.0 * c2 * sn**2 + s2 * sn2
    d1 = s1 * cs - c1 * sn + 2 * (s2 * cs2 - c2 * sn2)
    return gain, d1, -(c1 * cs + s1 * sn) - 4 * (c2 * cs2 + s2 * sn2)


def _line_coefficients(a, d, oa, e, basis: ObservableBasis) -> np.ndarray:
    """(c1, s1, c2, s2) of V(a cos t + d sin t) = c0 + c1 cos s + s1 sin s
    + c2 cos 2s + s2 sin 2s, s = 2t, for every row; (R, 4)."""
    od = _apply(basis.operators, d)
    m = (e + _inner(d[:, None, :], od).real) / 2
    u, r = e - m, _inner(oa, d[:, None, :]).real  # r = Re<a|O|d>, O Hermitian
    mo, uo, ro = m[:, :-1], u[:, :-1], r[:, :-1]
    return np.stack([u[:, -1] - 2.0 * (mo * uo).sum(axis=-1),
                     r[:, -1] - 2.0 * (mo * ro).sum(axis=-1),
                     -(uo**2 - ro**2).sum(axis=-1) / 2, -(uo * ro).sum(axis=-1)], axis=-1)


def _best_angle(coef: np.ndarray, sign: float):
    """Global maximizer s of sign * (V(s) - V(0)) on the circle and its gain."""
    grid_gain = sign * _line(coef, _GRID)[0]
    k = grid_gain.argmax(axis=-1)[:, None]
    s = _GRID[k]
    for _ in range(_NEWTON_STEPS):
        _, d1, d2 = _line(coef, s)
        step = np.divide(-d1, d2, out=np.zeros_like(d1), where=sign * d2 < 0)
        s = s + np.clip(step, -_GRID[1], _GRID[1])
    polished, grid_best = sign * _line(coef, s)[0], np.take_along_axis(grid_gain, k, -1)
    better = polished > grid_best
    return np.where(better, s, _GRID[k])[:, 0], np.where(better, polished, grid_best)[:, 0]


def _search(basis: ObservableBasis, config: SearchConfig, mode: str, state_label: str):
    config = config or SearchConfig(mode=mode)
    if config.mode != mode:
        raise ValueError(f"config.mode must be {mode!r}")
    sign, seed = (1.0 if mode == "maximize" else -1.0), int(config.seed)
    rngs = [np.random.Generator(np.random.Philox(key=seed ^ k)) for k in range(config.restarts)]
    a = np.array([rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim) for rng in rngs])
    a = a / np.sqrt(_inner(a, a).real)[:, None]
    stop = np.full(config.restarts, -1)  # index into STOP_REASONS once stopped
    iterations = np.zeros(config.restarts, dtype=int)
    # a stopped row takes steps of 0, so the last evaluation holds its final state
    for n in range(1, config.max_iterations + 2):
        v, g, oa, e = _value_and_gradient(a, basis)
        xi = sign * (g - _inner(a, g)[:, None] * a)  # tangent ascent direction of sign * V
        gnorm = np.sqrt(_inner(xi, xi).real)
        running = stop < 0
        iterations[running] = min(n, config.max_iterations)
        stop[running & (gnorm <= config.step_tolerance)] = 0
        if n > config.max_iterations or (stop >= 0).all():
            break
        direction = xi
        if n > 1:  # Polak-Ribiere+ (a moving row had norm_old > tol), reset unless ascending
            beta = _inner(xi, xi - xi_old).real / np.maximum(norm_old, config.step_tolerance) ** 2
            direction = xi + np.maximum(beta, 0.0)[:, None] * d_old
            direction = direction - _inner(a, direction)[:, None] * a
            direction = np.where((_inner(direction, xi).real > 0)[:, None], direction, xi)
        dn = np.sqrt(_inner(direction, direction).real)[:, None]
        d = np.divide(direction, dn, out=np.zeros_like(direction), where=dn > 0)
        s, gain = _best_angle(_line_coefficients(a, d, oa, e, basis), sign)
        stop[(stop < 0) & ~(gain > 0)] = 1
        t = np.where(stop < 0, s, 0.0)[:, None] / 2
        velocity = -a * np.sin(t) + d * np.cos(t)  # transport along the geodesic
        xi_old = xi + _inner(d, xi).real[:, None] * (velocity - d)
        d_old, norm_old = dn * velocity, gnorm
        a = a * np.cos(t) + d * np.sin(t)
    stop[stop < 0] = 2

    best_k = int(np.argmax(sign * v))  # first index on ties
    v.setflags(write=False)
    gnorm.setflags(write=False)
    return SearchResult(
        best_state=StateVector(a[best_k], state_label),
        best_value=float(v[best_k]),
        converged=bool(stop[best_k] == 0),
        iterations_used=int(iterations[best_k]),
        restart_values=v,
        restart_stop=tuple(STOP_REASONS[c] for c in stop),
        restart_gradients=gnorm,
    )


def maximize_total_variance(
    basis: ObservableBasis, config: SearchConfig = None, state_label: str = "spherical"
) -> SearchResult:
    """Search for the state of maximal total variance (a CE state)."""
    return _search(basis, config, "maximize", state_label)


def minimize_total_variance(
    basis: ObservableBasis, config: SearchConfig = None, state_label: str = "spherical"
) -> SearchResult:
    """Search for the state of minimal total variance (a coherent state)."""
    return _search(basis, config, "minimize", state_label)
