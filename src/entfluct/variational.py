"""Variational search for extremal total variance over the unit sphere of the
state space: maximizers are the completely entangled states, minimizers the
generalized coherent states.

Riemannian conjugate gradient (Polak-Ribiere+, exact parallel transport) with
an exact line search: on a great circle a cos t + d sin t each <O> is
m + u cos 2t + r sin 2t, so V = <C> - sum_i <O_i>^2 (C = sum_i O_i^2) is a
trigonometric polynomial of degree 2 in s = 2t; when C is the scalar c, <C> = c
all along the circle. The line search evaluates that polynomial on a 64-point
grid, one broadcast product with a module table of the grid's four line terms,
and polishes the best grid point of each of its (at most two) local maxima with
clipped Newton steps that compute the first two derivatives alone; V itself is
evaluated once more, to pick the best polished point. Restarts advance together
as the rows of one (R, d) array and every operation acts row by row, so restart
k of seed s is exactly the one-restart search with seed s ^ k, whatever the
order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .algebra import STEP_TOL_DEFAULT, ObservableBasis, StateVector, check_state_label
from .fluctuations import _apply, _inner, moments, variance

STOP_REASONS = ("gradient", "stall", "cap")
MODES = ("maximize", "minimize")


@dataclass(frozen=True)
class SearchConfig:
    restarts: int = 16
    max_iterations: int = 2000
    step_tolerance: float = STEP_TOL_DEFAULT
    seed: int = 0
    mode: str = "maximize"

    def __post_init__(self):
        for name in ("restarts", "max_iterations", "seed"):
            value = getattr(self, name)  # an int or numpy integer, not a bool, float or string
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.restarts < 1 or self.max_iterations < 1:
            raise ValueError("restarts and max_iterations must be positive")
        tol = self.step_tolerance  # a real number, not a bool or string
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < np.inf:
            raise ValueError("step_tolerance must be positive and finite")
        object.__setattr__(self, "step_tolerance", float(tol))
        if self.mode not in MODES:
            raise ValueError("mode must be 'maximize' or 'minimize'")
        if not 0 <= self.seed < 2**64:
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
    <O> (last column <C>) for every unit row of a (R, d). The (C - <C>) a term
    is zero when C is the scalar c; otherwise C a = sum_i O_i (O_i a)."""
    oa, e = moments(a, basis)
    centred = oa - e[:, :-1, None] * a[:, None, :]
    grad = -4.0 * (e[:, :-1, None] * centred).sum(axis=1)
    if basis.casimir is None:
        grad = 2.0 * (_apply(basis.operators, oa).sum(axis=1) - e[:, -1:] * a) + grad
    return variance(e), grad, oa, e


def gradient_total_variance(psi: StateVector, basis: ObservableBasis) -> np.ndarray:
    """Unconstrained gradient of V_tot(psi/|psi|) with respect to the complex
    amplitudes; the directional derivative along d is Re(vdot(d, grad)).
    Callers on the sphere project out the component along psi afterwards."""
    return _value_and_gradient(psi.amplitudes[None], basis)[1][0]


def _line_coefficients(a, d, oa, e, basis: ObservableBasis) -> np.ndarray:
    """(c1, s1, c2, s2) of V(a cos t + d sin t) = c0 + c1 cos s + s1 sin s
    + c2 cos 2s + s2 sin 2s, s = 2t, for every row; (R, 4). A scalar C has
    <C> = c all along the circle; otherwise its column comes from O a and O d:
    <d|C|d> = sum_i |O_i d|^2 and Re<a|C|d> = sum_i Re<O_i a|O_i d>."""
    od = _apply(basis.operators, d[:, None, :])
    m = (e[:, :-1] + _inner(d[:, None, :], od).real) / 2
    u, r = e[:, :-1] - m, _inner(oa, d[:, None, :]).real  # r = Re<a|O|d>, O Hermitian
    c1, s1 = -2.0 * (m * u).sum(axis=-1), -2.0 * (m * r).sum(axis=-1)
    if basis.casimir is None:
        c1, s1 = (e[:, -1] - _inner(od, od).real.sum(axis=-1)) / 2 + c1, _inner(oa, od).real.sum(axis=-1) + s1
    return np.stack([c1, s1, -(u**2 - r**2).sum(axis=-1) / 2, -(u * r).sum(axis=-1)], axis=-1)


_TERM_FREQ = np.array([0.5, 1.0, 1.0, 2.0])


def _line_terms(s: np.ndarray) -> np.ndarray:
    """cos s - 1, sin s, cos 2s - 1 and sin 2s stacked on a new first axis, with
    cos x - 1 = -2 sin^2(x/2) so that V(s) - V(0) cancels no term of size V."""
    terms = np.sin(np.multiply.outer(_TERM_FREQ, s))
    terms[::2] *= -2.0 * terms[::2]
    return terms


_GRID = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
_GRID_TERMS = _line_terms(_GRID)  # (4, 64)
_NEWTON_STEPS = 4
# sin s, cos s, sin 2s, cos 2s = sin(s * _NEWTON_FREQ + _NEWTON_PHASE)
_NEWTON_FREQ = np.array([1.0, 1.0, 2.0, 2.0])[:, None, None]
_NEWTON_PHASE = np.array([0.0, np.pi / 2, 0.0, np.pi / 2])[:, None, None]
# d1 and -d2 of c1 cos s + s1 sin s + c2 cos 2s + s2 sin 2s are sums over those
# four factors, each times a coefficient (index into c1, s1, c2, s2) and a weight
_NEWTON_COEF = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
_NEWTON_WEIGHT = np.array([[-1.0, 1.0, -2.0, 2.0], [1.0, 1.0, 4.0, 4.0]])[:, :, None, None]


def _best_angle(coef: np.ndarray, sign: float):
    """Global maximizer s of sign * (V(s) - V(0)) on the circle and its gain.
    The gain on the grid is one broadcast product with its line terms; the
    polynomial has two local maxima at most, and clipped Newton steps polish
    the best grid point of each from d1 and d2 alone. The result is the best
    of the top grid point and the two polished ones, the grid point on ties."""
    rows = np.arange(len(coef))
    grid_gain = sign * (coef.T[:, :, None] * _GRID_TERMS[:, None, :]).sum(axis=0)
    cyclic = np.concatenate([grid_gain[:, -1:], grid_gain, grid_gain[:, :1]], axis=-1)
    peaks = np.where(grid_gain >= np.maximum(cyclic[:, :-2], cyclic[:, 2:]), grid_gain, -np.inf)
    top = peaks.argmax(axis=-1)
    peaks[rows, top] = -np.inf
    s = _GRID[np.stack([top, peaks.argmax(axis=-1)])]  # (2, R): one seed per local maximum
    newton = _NEWTON_WEIGHT * (sign * coef.T)[_NEWTON_COEF][:, :, None, :]
    for _ in range(_NEWTON_STEPS):
        d1, bend = (newton * np.sin(_NEWTON_FREQ * s + _NEWTON_PHASE)).sum(axis=1)
        step = d1 / np.where(bend > 0, bend, np.inf)  # no step where the curvature is not negative
        s = s + np.minimum(np.maximum(step, -_GRID[1]), _GRID[1])
    s = np.concatenate([_GRID[top][None], s])
    gain = sign * (coef.T[:, None, :] * _line_terms(s)).sum(axis=0)
    best = gain.argmax(axis=0)
    return s[best, rows], gain[best, rows]


def _search(basis: ObservableBasis, config: SearchConfig, mode: str, state_label: str):
    config = config or SearchConfig(mode=mode)
    if config.mode != mode:
        raise ValueError(f"config.mode must be {mode!r}")
    check_state_label(state_label, basis.dim)  # before the first draw, not at the returned state
    sign = 1.0 if mode == "maximize" else -1.0
    bits, a = np.random.Philox(0), np.empty((config.restarts, basis.dim), dtype=complex)
    for k in range(config.restarts):  # re-keyed: restart k draws the stream of Philox(key=seed ^ k)
        bits.state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [config.seed ^ k, 0]},
                      "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        a[k].real, a[k].imag = np.random.Generator(bits).normal(size=(2, basis.dim))
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
        sin_t, cos_t = np.sin(t), np.cos(t)
        velocity = -a * sin_t + d * cos_t  # transport along the geodesic
        xi_old = xi + _inner(d, xi).real[:, None] * (velocity - d)
        d_old, norm_old = dn * velocity, gnorm
        a = a * cos_t + d * sin_t
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
