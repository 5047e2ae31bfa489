"""The numpy-free core: every tolerance, the state labels and the one
normalization rule, and the paper's closed forms that `analyze` runs for the two
fixed systems on Python numbers; the records live in `records`.

On spin 1 and on the local qubit pair every expectation is a short closed form
in the amplitudes, V_tot = c - sum_i <O_i>^2 with c the scalar Casimir sum, and
a state is completely entangled where every <O_i> vanishes. So `entfluct
analyze` needs no matrix: it runs on this module alone, and a cold process never
imports numpy. The other modules take their constants and single-state formulas
from here; this module imports nothing of the package.
"""

import cmath
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
CE_TOL_DEFAULT = 1e-9  # --tol's default CE bound on max_i |<O_i>|, and the bound zero_projection_axis puts on phi
NU_CUTOFF = 1e-9  # below this |Im| norm the canonical nu is undefined
PROJECT_TOL = 1e-9  # largest singlet amplitude project_spin1 accepts
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
    one test of StateVector and the CLI. Each |a_k| is taken once, squared while
    all are <= 2 (a unit state has none > 1 + NORM_TOL; no square of one <= 2
    overflows); a state failing that is a ValueError if any part is non-finite."""
    norm2 = 0.0
    try:
        for h in map(abs, amps):
            if not h <= 2.0:  # a NaN too
                break
            norm2 += h * h
        else:
            return abs(norm2 - 1.0) <= NORM_TOL
    except OverflowError:  # abs of a Python complex past the largest float
        pass
    if not all(map(cmath.isfinite, amps)):
        raise ValueError("state vector has a non-finite amplitude")
    return False


def check_state(amps, label: str) -> None:
    """ValueError unless amps, Python complexes, is a state of `label`: the
    dimension the label admits, nonempty, finite and normalized within NORM_TOL."""
    check_state_label(label, len(amps))
    if not amps:
        raise ValueError("empty state vector")
    if not is_normalized(amps):
        raise ValueError(f"state vector is not normalized within {NORM_TOL:g}")


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


def variance_report(exps, casimir: float, bounds=None) -> tuple:
    """(V_tot = c - sum_i <O_i>^2, the CE residual max_i |<O_i>|, the variance
    concurrence sqrt((V_tot - v_min) / (v_max - v_min)) clamped to [0, 1], or
    None without the bounds pair (v_min, v_max)). A V_tot below -VARIANCE_CLAMP,
    or outside the bounds by more than BOUND_SLACK, is a ValueError."""
    square = 0.0
    for e in exps:
        square += e * e
    v = casimir - square
    if v < -VARIANCE_CLAMP:
        raise ValueError("total variance is negative beyond tolerance")
    v = max(v, 0.0)
    residual = max(map(abs, exps))
    if bounds is None:
        return v, residual, None
    v_min, v_max = bounds
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
    phase = complex(math.cos(theta), -math.sin(theta))  # e^{-i theta}, bit-equal to cmath.exp
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


def pair_concurrence(uu: complex, ud: complex, du: complex, dd: complex) -> float:
    """2 |det| of the amplitude matrix, 2 |a_uu a_dd - a_ud a_du|, at most 1."""
    return min(2.0 * abs(uu * dd - ud * du), 1.0)
