"""Variational search for extremal total variance over the unit sphere of the
state space: maximizers are the completely entangled states, minimizers the
generalized coherent states.

Both modes take an exact line search: on a great circle a cos t + d sin t each
<O> is m + u cos 2t + r sin 2t, so V = c - sum_i <O_i>^2 (c the scalar Casimir
sum_i O_i^2) is a trigonometric polynomial of degree 2 in s = 2t. The line
search evaluates that polynomial on a 128-point grid, one matmul with a module
table of the grid's four line terms padded by one cyclic neighbour at each end,
so a grid point's neighbours are slices, and polishes the best grid point of each
of its (at most two) local maxima with two clipped Newton steps that compute the
first two derivatives alone, the first from a table of their sines on the grid;
V itself is evaluated once more, to pick the best polished point. The gradient
is 2 (F - <F>) a with F = c - 2 sum_i <O_i> O_i.
Maximize steps along the damped Gauss-Newton direction of the CE condition
<O_i> = 0. Minimize first moves each start to the lowest eigenvector of F there,
which never raises V. On a Lie-algebra basis (spin j, its rotations and unitary
conjugates, the local qubit pair) that is a coherent state, a fixed point; on
any other basis the search then steps along the tangent gradient. Both
directions are ascents by construction. A restart stops on the gradient test,
or on stall where its tangent gradient is within the rounding floor
GRADIENT_FLOOR eps c sqrt(d) or a line search gains nothing. Restarts start
on one Philox stream keyed by the seed, handed the key directly so that it draws
no OS entropy, and advance together as the rows of one (R, d) array, every
operation (eigh and solve too) row by row: the first R' restarts of an R-restart
search are the R'-restart search with the same seed. At d <= 4 numpy's per-call
overhead is the cost: the search makes few calls, and enters no Python function
of numpy, wrapper or dispatcher, without changing the IEEE operations or their order.
"""

import math

import numpy as np
from numpy.linalg import _umath_linalg  # the gufuncs of np.linalg.solve and eigh, called without their wrappers
from numpy.random.bit_generator import ISeedSequence

from .algebra import ObservableBasis
from .core import GRADIENT_FLOOR, TIE_BAND, VARIANCE_CLAMP
from .fluctuations import _apply, moments
from .records import Frozen, SearchConfig, StateVector

STOP_REASONS = ("gradient", "stall", "cap")
_EPS = np.finfo(float).eps


class SearchResult(Frozen):
    """The restart of best V is returned as `best_state`, labelled with the basis's `state_label`, its index
    `best_restart`; among restarts within TIE_BAND eps c of the best V (rounding's ties), the first that stopped on
    the gradient, else the first. `converged`: the returned restart stopped on the gradient. Per restart, in tuples:
    final value, stop reason (one of STOP_REASONS), tangent-gradient norm at the end."""

    _FIELDS = ("best_state", "best_value", "converged", "iterations_used", "best_restart", "restart_values",
               "restart_stop", "restart_gradients")


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise <x|y> over the last axis."""
    return np.add.reduce(x.conj() * y, axis=-1)


def _value_and_gradient(a: np.ndarray, basis: ObservableBasis):
    """V = c - sum_i <O_i>^2 (clamped to 0 from -VARIANCE_CLAMP, an error below), the gradient
    -4 sum_i <O_i> h_i, O a, <O>, the centred h_i = O_i a - <O_i> a and sum_i <O_i>^2 for every unit row of a (R, d)."""
    oa, e = moments(a, basis)
    h = oa - e[:, :, None] * a[:, None, :]
    square = np.add.reduce(e**2, axis=-1)
    v = basis.casimir - square
    if np.minimum.reduce(v, axis=None) < -VARIANCE_CLAMP:
        raise ValueError("total variance is negative beyond tolerance")
    return np.maximum(v, 0.0), (e[:, None, :] @ h)[:, 0] * -4.0, oa, e, h, square


def _line_coefficients(d, oa, e, basis: ObservableBasis) -> np.ndarray:
    """(c1, s1, c2, s2) of V(a cos t + d sin t) = c0 + c1 cos s + s1 sin s
    + c2 cos 2s + s2 sin 2s, s = 2t, for every row, from O a and <O> at a; (R, 4)."""
    dc = d.conj()[:, :, None]
    m = (e + (_apply(basis.operators, d) @ dc)[..., 0].real) / 2
    u, r = e - m, (oa @ dc)[..., 0].real  # r = Re<d|O|a> = Re<a|O|d>, O Hermitian
    terms = np.empty((4, *e.shape))  # m u, m r, u^2 - r^2, u r, summed over i in one reduce
    np.multiply(m, u, out=terms[0])
    np.multiply(m, r, out=terms[1])
    np.subtract(u**2, r**2, out=terms[2])
    np.multiply(u, r, out=terms[3])
    return (_LINE_WEIGHT * np.add.reduce(terms, axis=-1)).T


_LINE_WEIGHT = np.array([-2.0, -2.0, -0.5, -1.0])[:, None]
_TERM_FREQ = np.array([0.5, 1.0, 1.0, 2.0])


def _line_terms(s: np.ndarray) -> np.ndarray:
    """cos s - 1, sin s, cos 2s - 1 and sin 2s stacked on a new first axis, with
    cos x - 1 = -2 sin^2(x/2) so that V(s) - V(0) cancels no term of size V."""
    terms = np.sin(np.multiply.outer(_TERM_FREQ, s))
    terms[::2] *= -2.0 * terms[::2]
    return terms


_GRID = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
_CLIP = float(_GRID[1])  # largest Newton step
# the grid's line terms, padded with its last point in front and its first behind,
# so the gains at a grid point's cyclic neighbours are the slices [:-2] and [2:]
_GRID_TERMS = _line_terms(_GRID[np.arange(-1, len(_GRID) + 1) % len(_GRID)])  # (4, 130)
_NEWTON_STEPS = 2
# sin s, cos s, sin 2s, cos 2s = sin(s * _NEWTON_FREQ + _NEWTON_PHASE)
_NEWTON_FREQ, _NEWTON_PHASE = np.array([[1.0, 1.0, 2.0, 2.0], [0.0, np.pi / 2, 0.0, np.pi / 2]])[:, :, None, None]
_NEWTON_SINES = np.sin(_NEWTON_FREQ[..., 0] * _GRID + _NEWTON_PHASE[..., 0])  # (4, 128): those factors on the grid
# d1 and -d2 of c1 cos s + s1 sin s + c2 cos 2s + s2 sin 2s are sums over those
# four factors, each times a coefficient (index into c1, s1, c2, s2) and a weight
_NEWTON_COEF = np.array([[0, 1, 2, 3], [1, 0, 3, 2]])
_NEWTON_WEIGHT = np.array([[-1.0, 1.0, -2.0, 2.0], [1.0, 1.0, 4.0, 4.0]])[:, :, None, None]


def _best_angle(coef: np.ndarray):
    """Global maximizer s on the circle of the gain c1 (cos s - 1) + s1 sin s + c2 (cos 2s - 1)
    + s2 sin 2s, and that gain. The gain on the grid is one matmul with its line terms; the
    polynomial has two local maxima at most, and two clipped Newton steps polish the best
    grid point of each from d1 and d2 alone. The result is the best of the top grid point and
    the two polished ones, the grid point on ties."""
    rows = np.arange(len(coef))
    padded = coef @ _GRID_TERMS
    peaks = padded[:, 1:-1]  # the grid's gains, then -inf off its local maxima
    peaks[peaks < np.maximum(padded[:, :-2], padded[:, 2:])] = -np.inf
    top = peaks.argmax(axis=-1)
    peaks[rows, top] = -np.inf
    seeds = np.array([top, top, peaks.argmax(axis=-1)])  # the top grid point, then one seed per local maximum
    s = _GRID[seeds]
    newton = _NEWTON_WEIGHT * coef.T[_NEWTON_COEF][:, :, None, :]
    for step in range(_NEWTON_STEPS):
        sines = np.sin(_NEWTON_FREQ * s[1:] + _NEWTON_PHASE) if step else _NEWTON_SINES[:, seeds[1:]]
        d1, bend = np.add.reduce(newton * sines, axis=1)
        shift = np.divide(d1, bend, out=np.zeros(d1.shape), where=bend > 0)  # no step unless d2 < 0
        s[1:] += np.minimum(np.maximum(shift, -_CLIP), _CLIP)
    gain = np.add.reduce(coef.T[:, None, :] * _line_terms(s), axis=0)
    best = gain.argmax(axis=0)
    return s[best, rows], gain[best, rows]


class _PhiloxKey(ISeedSequence):
    """A seed handed to Philox as its 128-bit key (the low word; the high word 0): the stream
    of Philox(key=seed), without the SeedSequence that Philox first fills from OS entropy."""

    def __init__(self, seed: int):
        self.seed = seed

    def generate_state(self, n_words, dtype=np.uint64):
        return np.array([self.seed, 0], dtype=np.uint64)


def _search(basis: ObservableBasis, config: SearchConfig, mode: str, state_label: str | None):
    config = config or SearchConfig(mode=mode)
    if config.mode != mode:
        raise ValueError(f"config.mode must be {mode!r}")
    if state_label not in (None, basis.state_label):  # the keyword may only repeat the basis's label
        raise ValueError(f"state_label {state_label!r} differs from the basis's {basis.state_label!r}")
    maximize = mode == "maximize"
    sign = 1.0 if maximize else -1.0
    ascent, floor = sign * (basis.dim > 1), GRADIENT_FLOOR * _EPS * basis.casimir * math.sqrt(basis.dim)
    draws = np.random.Generator(np.random.Philox(_PhiloxKey(config.seed))).standard_normal(
        (config.restarts, 2, basis.dim))
    a = draws.transpose(0, 2, 1).copy().view(complex)[..., 0]  # draws[:, 0] + 1j draws[:, 1]
    if not maximize:  # start at the lowest eigenvector of c - 2 sum_i <O_i> O_i: |<O>| there is no smaller
        f = moments(a, basis)[1] @ basis.operators.reshape(len(basis), -1)  # sum_i <O_i> O_i, flattened
        # np.linalg.eigh's gufunc: its wrapper's type checks and errstate cost more than a (16, 4, 4) stack,
        # and a finite Hermitian stack cannot fail to converge
        a = _umath_linalg.eigh_lo(f.reshape(-1, basis.dim, basis.dim), signature="D->dD")[1][..., -1]
    a = a / np.sqrt(_inner(a, a).real)[:, None]
    stop = np.zeros(config.restarts, dtype=int) - 1  # index into STOP_REASONS once stopped
    iterations = np.zeros(config.restarts, dtype=int)
    # a stopped row takes steps of 0, so the last evaluation holds its final state
    for n in range(1, config.max_iterations + 2):
        v, g, oa, e, h, square = _value_and_gradient(a, basis)
        xi = g - _inner(a, g)[:, None] * a  # tangent ascent of sign * V; CP^0 has none
        if ascent != 1.0:
            xi *= ascent
        gnorm = np.sqrt(np.add.reduce(np.square(xi.view(float)), axis=-1))  # |xi| from its real view
        running = stop < 0
        iterations += running  # the cap's last evaluation counts one over, taken off at the end
        stop[running & (gnorm <= config.step_tolerance)] = 0
        stop[(stop < 0) & (gnorm <= floor)] = 1  # rounding floor
        if n > config.max_iterations or np.minimum.reduce(stop) >= 0:
            break
        direction = xi
        if maximize:  # damped Gauss-Newton towards r = <O> = 0, an ascent: Re<xi, step> = 4 r G (G + mu)^-1 r
            mu = square + _EPS * v  # eps tr G (= V) keeps G + mu regular where G is not
            gram = h.view(float) @ h.view(float).swapaxes(1, 2)  # Re<h_i|h_j>, then + mu on the diagonal
            gram.reshape(len(gram), -1)[:, ::len(basis) + 1] += mu[:, None]  # a view: matmul's output is C-ordered
            # np.linalg.solve's gufunc, as for eigh: G + mu is positive definite, mu >= eps c > 0
            direction = -(_umath_linalg.solve1(gram, e, signature="dd->d")[:, None, :] @ h)[:, 0]
            direction = direction - _inner(a, direction)[:, None] * a  # back onto the tangent space
        dn = np.sqrt(_inner(direction, direction).real)[:, None]
        d = np.divide(direction, dn, out=np.zeros(direction.shape, complex), where=dn > 0)
        s, gain = _best_angle(sign * _line_coefficients(d, oa, e, basis))
        stop[(stop < 0) & ~(gain > 0)] = 1
        s[stop >= 0] = 0.0
        t = s[:, None] / 2
        a = a * np.cos(t) + d * np.sin(t)
    stop[stop < 0] = 2

    values, stops = v.tolist(), stop.tolist()
    # best V; on ties within the rounding band the first that stopped on the gradient, else the first
    best = max(values) if maximize else min(values)
    tied = [k for k, value in enumerate(values) if abs(value - best) <= TIE_BAND * _EPS * basis.casimir]
    best_k = next((k for k in tied if not stops[k]), tied[0])
    return SearchResult(
        best_state=StateVector(a[best_k].tolist(), basis.state_label),
        best_value=values[best_k],
        converged=stops[best_k] == 0,
        iterations_used=min(int(iterations[best_k]), config.max_iterations),
        best_restart=best_k,
        restart_values=tuple(values),
        restart_stop=tuple([STOP_REASONS[k] for k in stops]),
        restart_gradients=tuple(gnorm.tolist()),
    )


def maximize_total_variance(
    basis: ObservableBasis, config: SearchConfig = None, state_label: str | None = None
) -> SearchResult:
    """Search for the state of maximal total variance (a CE state). The maximizers
    are the zeros of r = <O>; each step searches along -sum_j x_j h_j, (G + mu) x = r,
    h_i = O_i a - r_i a, with G_ij = Re<h_i|h_j> the covariance matrix of the basis (tr G = V)."""
    return _search(basis, config, "maximize", state_label)


def minimize_total_variance(
    basis: ObservableBasis, config: SearchConfig = None, state_label: str | None = None
) -> SearchResult:
    """Search for the state of minimal total variance (a coherent state). Each restart
    starts at the lowest eigenvector of F = c - 2 sum_i <O_i> O_i:
    the coherent state along <S> (V = j) for spin j, a product of two (V = 1) for the pair."""
    return _search(basis, config, "minimize", state_label)
