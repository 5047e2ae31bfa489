"""Independent correctness oracle for the benchmark.

Every check recomputes the physics from the amplitudes the program returned,
with numpy code written here and no entfluct function:

- spin-j generators in the m = +j, ..., -j order (Condon-Shortley phases), so
  that V_tot = j(j+1) - |<S>|^2 on any normalized spin-j state;
- the spin-1 concurrence 2|psi_+1 psi_-1 - psi_0^2 / 2|;
- the two-qubit concurrence 2|det| and, for the local basis {s_a (x) I,
  I (x) s_a}, V_tot = 1 + C^2 / 2;
- for a search, a unit-norm state whose recomputed V lies within 1e-9 of the
  known extreme: j(j+1) (anticoherent) or j (coherent), 3/2 or 1 for a pair.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import functools

import numpy as np

VALUE_TOL = 1e-9  # expectations, V_tot and the exactly conditioned concurrences
VARIANCE_ROUTE_TOL = 5e-8  # sqrt((V - V_min)/(V_max - V_min)) near C = 0
ECHO_TOL = 1e-15
NORM_TOL = 1e-12
TARGET_TOL = 1e-9
CE_MARGIN = 1e-3  # share of the CE tolerance within which the verdict is not checked

_R2 = np.sqrt(2.0)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_LOCAL = tuple(np.kron(p / 2, np.eye(2)) for p in _PAULI) + tuple(
    np.kron(np.eye(2), p / 2) for p in _PAULI
)


@functools.lru_cache(maxsize=None)
def spin_matrices(j: float):
    """(S_x, S_y, S_z) for spin j, basis order m = +j first."""
    dim = round(2 * j) + 1
    m = j - np.arange(dim)
    raising = np.zeros((dim, dim), dtype=complex)
    for row in range(dim - 1):
        # <m + 1| S+ |m>, with m = m[row + 1]
        raising[row, row + 1] = np.sqrt(j * (j + 1) - m[row + 1] * (m[row + 1] + 1))
    lowering = raising.conj().T
    return (raising + lowering) / 2, (raising - lowering) / 2j, np.diag(m).astype(complex)


def _expect(a: np.ndarray, op: np.ndarray) -> float:
    return float(np.real(np.conj(a) @ op @ a))


def spin_variance(a: np.ndarray, j: float):
    """(<S_x>, <S_y>, <S_z>) and V_tot = j(j+1) - |<S>|^2."""
    s = np.array([_expect(a, op) for op in spin_matrices(j)])
    return s, j * (j + 1) - float(s @ s)


def local_variance(a: np.ndarray):
    """Expectations and total variance of the six local qubit-pair observables."""
    e = np.array([_expect(a, op) for op in _LOCAL])
    second = np.array([float(np.real(np.conj(a) @ op @ op @ a)) for op in _LOCAL])
    return e, float(np.sum(second - e * e))


def cartesian_to_spherical(c: np.ndarray) -> np.ndarray:
    """|+1> = -(e_x + i e_y)/sqrt(2), |0> = e_z, |-1> = (e_x - i e_y)/sqrt(2)."""
    return np.array([(-c[0] + 1j * c[1]) / _R2, c[2], (c[0] + 1j * c[1]) / _R2])


def spherical_to_cartesian(s: np.ndarray) -> np.ndarray:
    return np.array([(-s[0] + s[2]) / _R2, -1j * (s[0] + s[2]) / _R2, s[1]])


def spin1_concurrence(sph: np.ndarray) -> float:
    p, z, m = sph
    return float(2.0 * abs(p * m - z * z / 2.0))


def pair_concurrence(a: np.ndarray) -> float:
    return float(2.0 * abs(a[0] * a[3] - a[1] * a[2]))


def reference(a: np.ndarray, basis: str):
    """What an analysis of the state with amplitudes `a` must report:
    (expectations, V_tot, concurrence, cartesian amplitudes or None for a pair)."""
    if basis == "qubit-pair":
        expectations, v_tot = local_variance(a)
        return expectations, v_tot, pair_concurrence(a), None
    sph = a if basis == "spherical" else cartesian_to_spherical(a)
    expectations, v_tot = spin_variance(sph, 1.0)
    cart = a if basis == "cartesian" else spherical_to_cartesian(sph)
    return expectations, v_tot, spin1_concurrence(sph), cart


def _amps(components) -> np.ndarray:
    return np.array([complex(re, im) for re, im in components])


def _close(problems: list, label: str, got, want, tol: float):
    try:
        bad = not np.all(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)) <= tol)
    except (TypeError, ValueError):
        bad = True
    if bad:
        problems.append(f"{label}: got {got!r}, expected {want!r} within {tol:g}")


def check_analysis(doc, amps, basis: str, tol: float) -> list:
    """Check an `analyze` document against the input state it was built from."""
    problems = []
    try:
        state = _amps(doc["state"]["components"])
        if doc["state"]["basis"] != basis or state.shape != amps.shape:
            return [f"state echo {doc['state']} does not match the {basis} input"]
        _close(problems, "state", np.abs(state - amps), 0.0, ECHO_TOL)
        _close(problems, "input echo", np.abs(_amps(doc["input"]["components"]) - amps), 0.0, ECHO_TOL)
        if abs(float(np.vdot(state, state).real) - 1.0) > NORM_TOL:
            problems.append("returned state is not normalized")
        conc = doc["concurrence"]
        fl = doc["fluctuations"]
        if conc["consistent"] is not True:
            problems.append("program reports an inconsistent concurrence cross-check")
        expectations, v_tot, c, cart = reference(state, basis)
        if basis == "qubit-pair":
            _close(problems, "two_qubit_det", conc["two_qubit_det"], c, VALUE_TOL)
            _close(problems, "v_tot vs 1 + C^2/2", fl["v_tot"], 1.0 + c * c / 2.0, VALUE_TOL)
            if doc["canonical_form"] is not None:
                problems.append("two-qubit analysis carries a spin-1 canonical form")
        else:
            for name in ("spherical_formula", "canonical_phi", "two_qubit_det"):
                _close(problems, name, conc[name], c, VALUE_TOL)
            _close(problems, "variance_ratio", conc["variance_ratio"], c, VARIANCE_ROUTE_TOL)
            _close(problems, "v_tot vs 1 + C^2", fl["v_tot"], 1.0 + c * c, VALUE_TOL)
            _close(problems, "v_min / v_max", [fl["v_min"], fl["v_max"]], [1.0, 2.0], VALUE_TOL)
            problems += _check_canonical(doc["canonical_form"], cart)
        _close(problems, "expectations", fl["expectations"], expectations, VALUE_TOL)
        _close(problems, "v_tot", fl["v_tot"], v_tot, VALUE_TOL)
        residual = float(np.max(np.abs(expectations)))
        _close(problems, "ce residual", doc["ce"]["residual"], residual, VALUE_TOL)
        # the residual is good to ~1e-15, so only a residual this close to
        # tol leaves the verdict open
        if abs(residual - tol) > CE_MARGIN * tol and doc["ce"]["completely_entangled"] != (residual <= tol):
            problems.append(f"CE verdict {doc['ce']['completely_entangled']} at residual {residual:.3e}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed analysis document: {exc!r}")
    return problems


def _check_canonical(form, cart: np.ndarray) -> list:
    """psi = e^{i theta}(cos phi mu + i sin phi nu), mu and nu real orthonormal."""
    problems = []
    phi, theta = float(form["phi"]), float(form["theta"])
    mu = np.array(form["mu"], dtype=float)
    if not -1e-12 <= phi <= np.pi / 4 + 1e-12:
        problems.append(f"canonical phi {phi} outside [0, pi/4]")
    _close(problems, "|mu|", np.linalg.norm(mu), 1.0, VALUE_TOL)
    if form["nu_defined"]:
        nu = np.array(form["nu"], dtype=float)
        _close(problems, "|nu|", np.linalg.norm(nu), 1.0, VALUE_TOL)
        # nu is the direction of a part of size sin(phi), so rounding of the
        # state tilts it by about eps / sin(phi): near phi = 0 that is the
        # best double precision can give.
        _close(problems, "mu . nu", mu @ nu, 0.0, VALUE_TOL + 1e-15 / max(np.sin(phi), 1e-300))
        rebuilt = np.exp(1j * theta) * (np.cos(phi) * mu + 1j * np.sin(phi) * nu)
        _close(problems, "canonical reconstruction", np.abs(rebuilt - cart), 0.0, VALUE_TOL)
    else:
        # nu is undetermined only at phi ~ 0; mu alone must carry the state
        rebuilt = np.exp(1j * theta) * mu
        _close(problems, "canonical reconstruction (nu undefined)", np.abs(rebuilt - cart), 0.0, 1e-8)
    return problems


def search_target(j, mode: str) -> float:
    """Known extremes: j(j+1) / j for spin j, 3/2 / 1 for the local qubit pair."""
    if j is None:
        return 1.5 if mode == "maximize" else 1.0
    return j * (j + 1) if mode == "maximize" else float(j)


def search_value(amps: np.ndarray, j) -> float:
    return local_variance(amps)[1] if j is None else spin_variance(amps, j)[1]


def check_search(amps, best_value, j, mode: str) -> list:
    """The returned state must be a unit vector at the known extreme."""
    problems = []
    a = np.asarray(amps, dtype=complex)
    dim = 4 if j is None else round(2 * j) + 1
    if a.shape != (dim,):
        return [f"search returned shape {a.shape}, expected ({dim},)"]
    norm2 = float(np.vdot(a, a).real)
    if abs(norm2 - 1.0) > NORM_TOL:
        problems.append(f"search state has squared norm {norm2!r}")
    v = search_value(a / np.sqrt(norm2), j)
    target = search_target(j, mode)
    _close(problems, f"{mode} V vs target", v, target, TARGET_TOL)
    _close(problems, "reported best_value vs recomputed V", best_value, v, TARGET_TOL)
    return problems


def restart_hits(restart_values, j, mode: str) -> int:
    target = search_target(j, mode)
    return int(np.sum(np.abs(np.asarray(restart_values, dtype=float) - target) <= TARGET_TOL))
