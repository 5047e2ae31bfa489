"""The numpy-free core: every tolerance, the state labels and the one
normalization rule, the one record convention (`Frozen`), the one state type
(`StateVector`), the search settings, and the paper's closed forms for the two
fixed systems on Python numbers.

On spin 1 and on the local qubit pair every expectation is a short closed form
in the amplitudes, V_tot = c - sum_i <O_i>^2 with c the scalar Casimir sum, and
a state is completely entangled where every <O_i> vanishes. So `entfluct
analyze` needs no matrix: it runs on this module alone, and a cold process never
imports numpy. The array modules (algebra, fluctuations, spin1, variational)
and the numpy-free twoqubit take their constants and single-state formulas from
here; this module imports nothing of the package.
"""

from __future__ import annotations

import cmath
import functools
import math

# Tolerances: every numeric threshold of the package, defined once (this block
# runs to the next blank line; tests/test_tolerances.py keeps it the only home
# of exponent-form float literals).
HERMITICITY_TOL = 1e-12  # max |O - O^dagger| of a basis element
NORM_TOL = 1e-12  # |<psi|psi> - 1| of a StateVector
COMMUTATOR_TOL = 1e-10  # max |[S_a, S_b] - i S_c| of an su(2) basis
ORTHOGONALITY_TOL = 1e-10  # max |R^T R - 1| of a basis rotation
UNIT_VECTOR_TOL = 1e-10  # ||omega| - 1| of a spin projection direction
HALF_INTEGER_TOL = 1e-12  # |2j - round(2j)| of a spin j
PHI_SLACK = 1e-12  # rounding allowed outside [0, pi/4] for the canonical phi
IMAG_TOL = 1e-10  # |Im <O>| accepted as rounding
VARIANCE_CLAMP = 1e-12  # a negative total variance down to -VARIANCE_CLAMP is rounding, clamped to 0
BOUND_SLACK = 1e-9  # V_tot may leave [V_min, V_max] by this much
CE_TOL_DEFAULT = 1e-9  # CE verdict on max_i |<O_i>|, and on the canonical phi (--tol)
NU_CUTOFF = 1e-9  # below this |Im| norm the canonical nu is undefined
PROJECT_TOL_DEFAULT = 1e-9  # largest singlet amplitude project_spin1 accepts
SINGLET_NORM = 1e-12  # triplet-part norm below which a pair is a pure singlet
STEP_TOL_DEFAULT = 1e-12  # tangent-gradient norm at which a search restart stops
GRADIENT_FLOOR = 8  # tangent gradient, in eps c sqrt(d), at which a restart stops on stall (< 1e-12 for j <= 10)
CROSS_CHECK_TOL = 1e-9  # agreement of the exactly conditioned concurrences
SCALAR_CASIMIR_TOL = 1e-12  # max |C - c I| / max(1, |c|) of a basis: its C = sum_i O_i^2 must be the scalar c
# sqrt((V - V_min)/(V_max - V_min)) loses half the working precision when the
# concurrence is near zero (V - V_min is then pure rounding noise ~ 1e-16, and
# the square root inflates it to ~ 1e-8), so the variance route gets a wider
# cross-check band than the exactly-conditioned formulas.
VARIANCE_CROSS_TOL = 5e-8

SQRT2 = math.sqrt(2.0)
MODES = ("maximize", "minimize")
# spherical components of the completely entangled spin-1 basis |0>, (|+1> +- |-1>)/sqrt(2)
CE_BASIS = ((0j, 1 + 0j, 0j), (1 / SQRT2 + 0j, 0j, 1 / SQRT2 + 0j), (1 / SQRT2 + 0j, 0j, -1 / SQRT2 + 0j))

# state basis label -> the dimension it requires (None: any, as spin j takes 2j + 1)
STATE_BASIS_LABELS = {"spherical": None, "cartesian": 3, "qubit-pair": 4}


def check_state_label(label: str, dim: int) -> None:
    """ValueError unless `label` is a state basis label that admits dim amplitudes."""
    if label not in STATE_BASIS_LABELS:
        raise ValueError(f"unknown basis label {label!r}")
    need = STATE_BASIS_LABELS[label]
    if need is not None and dim != need:
        raise ValueError(f"a {label} state needs {need} amplitudes, got {dim}")


def is_normalized(amps) -> bool:
    """|sum_k |a_k|^2 - 1| <= NORM_TOL for a sequence of Python complexes, the
    one test of StateVector and the CLI. ValueError on a non-finite amplitude.
    The squares are summed only when every |a_k| <= 2: a unit state has no
    |a_k| > 1 + NORM_TOL, and no square of a part up to 2 overflows."""
    if not all(map(cmath.isfinite, amps)):
        raise ValueError("state vector has a non-finite amplitude")
    try:
        if max(map(abs, amps)) > 2.0:
            return False
    except OverflowError:  # abs of a Python complex past the largest float
        return False
    norm2 = 0.0
    for z in amps:
        h = abs(z)
        norm2 += h * h
    return abs(norm2 - 1.0) <= NORM_TOL


def check_state(amps, label: str) -> None:
    """ValueError unless amps, Python complexes, is a state of `label`: the
    dimension the label admits, nonempty, finite and normalized within NORM_TOL."""
    check_state_label(label, len(amps))
    if not amps:
        raise ValueError("empty state vector")
    if not is_normalized(amps):
        raise ValueError(f"state vector is not normalized within {NORM_TOL:g}")


class Frozen:
    """A record: its fields, named in order by `_FIELDS`, are set once by
    __init__ through vars(self), then read-only, and compared, hashed, shown and
    pickled by value (a copy is rebuilt by __init__). The plain constructor takes
    each field once, positional or by keyword; a record that checks its input
    has its own."""

    _FIELDS = ()

    def __init__(self, *args, **kwargs):
        values = {**dict(zip(self._FIELDS, args)), **kwargs}
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._FIELDS):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._FIELDS)}, each once")
        vars(self).update(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._FIELDS))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class StateVector(Frozen):
    """A normalized pure state over a labeled basis: `components` are Python
    complexes, checked once by `check_state`; `cartesian` (spin 1) needs 3,
    `qubit-pair` (order uu, ud, du, dd) 4. Any array-like is flattened, through
    numpy unless it is a flat list or tuple of Python numbers."""

    _FIELDS = ("components", "basis_label")

    def __init__(self, components, basis_label: str):
        if type(components) in (list, tuple) and all(type(z) in (int, float, complex) for z in components):
            amps = tuple(map(complex, components))
        else:  # an array, nested lists, numpy scalars
            import numpy as np

            amps = tuple(np.array(components, dtype=complex).reshape(-1).tolist())
        check_state(amps, basis_label)
        vars(self).update(components=amps, basis_label=basis_label)

    @functools.cached_property
    def amplitudes(self):
        """The components as a read-only complex array, built (with numpy's import) when first read."""
        import numpy as np

        a = np.array(self.components, dtype=complex)
        a.setflags(write=False)
        return a

    @property
    def dim(self) -> int:
        return len(self.components)

    def require(self, label: str, dim: int | None = None) -> tuple:
        """The components, if the state carries this basis label (and, when
        given, this dimension); else ValueError."""
        if self.basis_label != label or dim not in (None, self.dim):
            want = label if dim is None else f"{dim}-component {label}"
            raise ValueError(f"expected a {want} state, got a {self.dim}-component {self.basis_label} state")
        return self.components


class SearchConfig(Frozen):
    _FIELDS = ("restarts", "max_iterations", "step_tolerance", "seed", "mode")

    def __init__(self, restarts: int = 16, max_iterations: int = 2000, step_tolerance: float = STEP_TOL_DEFAULT,
                 seed: int = 0, mode: str = "maximize"):
        import numbers  # here, not at the top: no command but search builds a config

        for name, value in (("restarts", restarts), ("max_iterations", max_iterations), ("seed", seed)):
            # an int or numpy integer, not a bool, float or string
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        restarts, max_iterations, seed = int(restarts), int(max_iterations), int(seed)
        if restarts < 1 or max_iterations < 1:
            raise ValueError("restarts and max_iterations must be positive")
        tol = step_tolerance  # a real number, not a bool or string
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
            raise ValueError("step_tolerance must be positive and finite")
        if mode not in MODES:
            raise ValueError("mode must be 'maximize' or 'minimize'")
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        vars(self).update(restarts=restarts, max_iterations=max_iterations, step_tolerance=float(tol), seed=seed,
                          mode=mode)


# ---- closed forms on Python complexes; each divides by the squared norm n, so it
# holds for the normalized state

def spin1_expectations(p: complex, z: complex, m: complex) -> tuple:
    """(<S_x>, <S_y>, <S_z>) of the spin-1 state with spherical components
    (psi_+1, psi_0, psi_-1) = (p, z, m): <S_x> + i<S_y> = sqrt(2) (p* z + z* m) / n
    and <S_z> = (|p|^2 - |m|^2) / n, n = |p|^2 + |z|^2 + |m|^2."""
    pp, mm = p.real * p.real + p.imag * p.imag, m.real * m.real + m.imag * m.imag
    n = pp + (z.real * z.real + z.imag * z.imag) + mm
    raised = SQRT2 * (p.conjugate() * z + z.conjugate() * m) / n
    return raised.real, raised.imag, (pp - mm) / n


def pair_expectations(uu: complex, ud: complex, du: complex, dd: complex) -> tuple:
    """<s_x (x) 1>, <s_y (x) 1>, <s_z (x) 1>, then the same on the second qubit:
    <s_+ (x) 1> = (uu* du + ud* dd) / n, <1 (x) s_+> = (uu* ud + du* dd) / n,
    <s_z (x) 1> = (|uu|^2 + |ud|^2 - |du|^2 - |dd|^2) / 2n and likewise."""
    a, b = uu.real * uu.real + uu.imag * uu.imag, ud.real * ud.real + ud.imag * ud.imag
    c, d = du.real * du.real + du.imag * du.imag, dd.real * dd.real + dd.imag * dd.imag
    n = a + b + c + d
    first = (uu.conjugate() * du + ud.conjugate() * dd) / n
    second = (uu.conjugate() * ud + du.conjugate() * dd) / n
    return first.real, first.imag, (a + b - c - d) / (2 * n), second.real, second.imag, (a - b + c - d) / (2 * n)


def variance_report(exps, casimir: float, v_min=None, v_max=None) -> tuple:
    """(V_tot = c - sum_i <O_i>^2, the CE residual max_i |<O_i>|, the variance
    concurrence sqrt((V_tot - v_min) / (v_max - v_min)) clamped to [0, 1], or
    None without bounds). A V_tot below -VARIANCE_CLAMP, or outside the bounds
    by more than BOUND_SLACK, is a ValueError."""
    if (v_min is None) != (v_max is None):
        raise ValueError("pass both variance bounds or neither")
    square = 0.0
    for e in exps:
        square += e * e
    v = casimir - square
    if v < -VARIANCE_CLAMP:
        raise ValueError("total variance is negative beyond tolerance")
    v = max(v, 0.0)
    residual = max(map(abs, exps))
    if v_min is None:
        return v, residual, None
    if not -math.inf < v_min < v_max < math.inf:
        raise ValueError("variance bounds must be finite with v_max > v_min")
    if v < v_min - BOUND_SLACK or v > v_max + BOUND_SLACK:
        raise ValueError(f"total variance {v} lies outside [{v_min}, {v_max}]: inconsistent bounds")
    return v, residual, math.sqrt(min(max((v - v_min) / (v_max - v_min), 0.0), 1.0))


def cartesian_of(p: complex, z: complex, m: complex) -> tuple:
    """Cartesian (x, y, z) of spherical (psi_+1, psi_0, psi_-1), with
    |+1> = -(e_x + i e_y)/sqrt(2), |0> = e_z, |-1> = (e_x - i e_y)/sqrt(2)."""
    s = p + m
    return (m - p) / SQRT2, complex(s.imag, -s.real) / SQRT2, z


def spherical_of(x: complex, y: complex, z: complex) -> tuple:
    """The inverse of cartesian_of: psi_+-1 = (-+x + i y)/sqrt(2), psi_0 = z."""
    iy = complex(-y.imag, y.real)
    return (iy - x) / SQRT2, z, (x + iy) / SQRT2


def canonical(x: complex, y: complex, z: complex) -> tuple:
    """(theta, phi, mu, nu) with (x, y, z) = e^{i theta}(cos phi mu + i sin phi nu),
    mu and nu real unit 3-tuples, nu None where its norm is below NU_CUTOFF.

    The bilinear form w = sum_k psi_k^2 fixes the global phase: with theta =
    arg(w)/2 folded into [0, pi), the real and imaginary parts of
    e^{-i theta} psi are orthogonal and |real|^2 - |imag|^2 = |w| exactly. Any
    theta serves at w = 0; where rounding near w = 0 leaves |imag| > |real|,
    phi is capped at pi/4. atan2 gives phi stably near 0.
    """
    w = x * x + y * y + z * z
    # a tiny negative angle % pi rounds to pi itself, the second % takes that to 0
    theta = 0.5 * math.atan2(w.imag, w.real) % math.pi % math.pi
    phase = cmath.exp(-1j * theta)
    dx, dy, dz = x * phase, y * phase, z * phase
    nx = math.sqrt(dx.real * dx.real + dy.real * dy.real + dz.real * dz.real)
    ny = math.sqrt(dx.imag * dx.imag + dy.imag * dy.imag + dz.imag * dz.imag)
    mu = (dx.real / nx, dy.real / nx, dz.real / nx)
    nu = (dx.imag / ny, dy.imag / ny, dz.imag / ny) if ny > NU_CUTOFF else None
    return theta, min(math.atan2(ny, nx), math.pi / 4), mu, nu


def check_phi(phi: float) -> None:
    if not -PHI_SLACK <= phi <= math.pi / 4 + PHI_SLACK:
        raise ValueError("phi must lie in [0, pi/4]")


def concurrence_from_phi(phi: float) -> float:
    """cos(2 phi): 1 for CE states (phi = 0), 0 for coherent ones (phi = pi/4)."""
    check_phi(phi)
    return math.cos(2.0 * phi)


def spherical_concurrence(p: complex, z: complex, m: complex) -> float:
    """2 |psi_+1 psi_-1 - psi_0^2 / 2|, at most 1."""
    return min(2.0 * abs(p * m - z * z / 2.0), 1.0)


def pair_sectors(uu: complex, ud: complex, du: complex, dd: complex) -> tuple:
    """The triplet/singlet split of a unit qubit pair, (s, a, w_s, w_a, triplet):
    the symmetric part is (uu, s, s, dd) with s = (ud + du)/2, the singlet
    amplitude a = (ud - du)/sqrt(2), their weights are w_s = |(uu, s, s, dd)|^2
    and w_a = |a|^2, and the triplet is the spherical (uu, sqrt(2) s, dd) /
    sqrt(w_s), the inverse of the embedding, renormalized; None where sqrt(w_s)
    < SINGLET_NORM, a pure singlet.

    The sums and scalings round as numpy's norm and division did on these
    vectors: w_s adds the real parts' squares, then the imaginary parts', each
    as two interleaved pairs, and a division by x is a product with 1/x."""
    mid, singlet = (ud + du) / 2.0, (ud - du) * (1.0 / SQRT2)
    w_s = ((uu.real * uu.real + mid.real * mid.real) + (mid.real * mid.real + dd.real * dd.real)) + (
        (uu.imag * uu.imag + mid.imag * mid.imag) + (mid.imag * mid.imag + dd.imag * dd.imag))
    w_a = singlet.real * singlet.real + singlet.imag * singlet.imag
    n = math.sqrt(w_s)
    if n < SINGLET_NORM:
        return mid, singlet, w_s, w_a, None
    r = 1.0 / n
    return mid, singlet, w_s, w_a, (uu * r, SQRT2 * mid * r, dd * r)


def pair_concurrence(uu: complex, ud: complex, du: complex, dd: complex) -> float:
    """2 |det| of the amplitude matrix, 2 |a_uu a_dd - a_ud a_du|, at most 1."""
    return min(2.0 * abs(uu * dd - ud * du), 1.0)
