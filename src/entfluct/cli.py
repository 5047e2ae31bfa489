"""Command-line front end.

Subcommands: analyze, search, preset (list, show, analyze), convert, decompose.
States are read from stdin or --file as JSON {"basis": "spherical"|"cartesian"|
"qubit-pair", "components": [[re, im], ...]}. Each command builds one JSON
document; --format json prints it as is, --format text prints every leaf of it
as an aligned `dotted.key value` line. Exit codes: 0 success, 1
non-convergence, a failed cross-check, a stdout closed by its reader or an
internal error, 2 usage/validation errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import traceback

import numpy as np

from .algebra import (CE_TOL_DEFAULT, CROSS_CHECK_TOL, SINGLET_NORM, STATE_BASIS_LABELS, VARIANCE_CROSS_TOL,
                      StateVector, local_two_qubit_basis, spin_generators, is_normalized)
from .fluctuations import fluctuation_report
from .presets import PRESETS
from .spin1 import canonical_form, concurrence_from_phi, concurrence_spherical, to_cartesian, to_spherical
from .twoqubit import embed_symmetric, project_spin1, pure_concurrence, sector_split
from .variational import MODES, SearchConfig, maximize_total_variance, minimize_total_variance

SCHEMA_VERSION = 1

# system -> (observable basis, state label, closed-form (V_min, V_max)). The
# basis is built at call time through this module's names, where a tracer
# that wraps them sees the call.
_SYSTEMS = {
    # irreducible su(2): V_tot = j(j+1) - |<S>|^2 runs from j (coherent,
    # |<S>| = j) to j(j+1) (CE), here from 1 to 2
    "spin1": (lambda: spin_generators(1), "spherical", (1.0, 2.0)),
    # local basis on a pure pair: V_tot = 1 + C^2 / 2, from 1 (product) to 3/2
    "two-qubit": (lambda: local_two_qubit_basis(), "qubit-pair", (1.0, 1.5)),
}


class UsageError(Exception):
    pass


def _state_json(amplitudes, basis_label: str) -> dict:
    return {"basis": basis_label, "components": [[float(c.real), float(c.imag)] for c in amplitudes]}


def _read_state(args) -> tuple:
    """(amplitudes, basis label, original norm or None) of the state JSON in
    --file or on stdin; with --normalize a state of another norm is rescaled."""
    try:
        if args.file:
            with open(args.file) as fh:
                raw = fh.read()
        else:
            raw = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {args.file or 'stdin'}: {exc}")
    try:  # a JSONDecodeError is a ValueError; an integer too large for a float, an OverflowError
        obj = json.loads(raw)
        basis_label = obj["basis"]
        if basis_label not in STATE_BASIS_LABELS:
            raise UsageError(f"unknown basis label {basis_label!r}")
        pairs = obj["components"]
        # JSON true/false load as bool, an int subclass that complex() takes
        if not isinstance(pairs, list) or not pairs or any(type(x) not in (int, float) for pair in pairs for x in pair):
            raise ValueError("components must be a non-empty list of [re, im] pairs of numbers")
        amps = np.array([complex(re, im) for re, im in pairs])
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f'malformed state JSON, want {{"basis": label, "components": [[re, im], ...]}}: {exc!r}')
    norm = float(np.linalg.norm(amps))
    if not math.isfinite(norm):
        raise UsageError("state has a non-finite component")
    if is_normalized(amps):  # StateVector's test
        return amps, basis_label, None
    if not args.normalize:
        raise UsageError(
            f"state has norm {norm!r}; pass --normalize to rescale explicitly"
        )
    if norm == 0.0:
        raise UsageError("cannot normalize the zero vector")
    return amps / norm, basis_label, norm


def _state_vector(amps, basis_label: str) -> StateVector:
    try:
        return StateVector(amps, basis_label)
    except ValueError as exc:
        raise UsageError(str(exc))


def _require_spin1(psi: StateVector, needs: str, hint: str = ""):
    if psi.dim != 3:  # a cartesian state has 3 amplitudes and a qubit pair 4
        raise UsageError(f"{needs} a 3-component spherical or cartesian state{hint}")


def _canonical_form_json(form) -> dict:
    return {
        "theta": float(form.theta),
        "phi": float(form.phi),
        "mu": [float(v) for v in form.mu],
        "nu": None if form.nu is None else [float(v) for v in form.nu],
        "nu_defined": form.nu is not None,
    }


def _fluctuations_json(report, basis_label: str, v_min: float, v_max: float) -> dict:
    return {
        "basis": basis_label,
        "expectations": [float(e) for e in report.expectations],
        "v_tot": float(report.v_tot),
        "v_min": v_min,
        "v_max": v_max,
        "ce_residual": float(report.ce_residual),
        "concurrence_variance": report.concurrence_variance,
    }


def _concurrence_json(concurrences: dict) -> dict:
    """Cross-check the exactly conditioned formulas against each other and the
    variance ratio against each of them."""
    exact = [v for name, v in concurrences.items() if name != "variance_ratio"]
    delta_exact = max(abs(a - b) for a in exact for b in exact)
    delta_variance = max(abs(concurrences["variance_ratio"] - v) for v in exact)
    return {
        **concurrences,
        "max_pairwise_delta": max(delta_exact, delta_variance),
        "cross_check_tolerance": CROSS_CHECK_TOL,
        "consistent": delta_exact <= CROSS_CHECK_TOL and delta_variance <= VARIANCE_CROSS_TOL,
    }


def build_analysis(amps, basis_label: str, system: str, tol: float, original_norm):
    echo = _state_json(amps, basis_label)
    if original_norm is not None:
        echo["original_norm"] = original_norm
    psi = _state_vector(amps, basis_label)
    make_basis, state_label, (v_min, v_max) = _SYSTEMS[system]
    basis = make_basis()
    form = None
    if system == "spin1":
        hint = "; for a qubit pair pass --system two-qubit" if basis_label == "qubit-pair" else ""
        _require_spin1(psi, "spin1 analysis needs", hint)
        sph = to_spherical(psi) if basis_label == "cartesian" else psi
        report = fluctuation_report(sph, basis, v_min, v_max, ce_tol=tol)
        form = canonical_form(psi if basis_label == "cartesian" else to_cartesian(psi))
        concurrences = {
            "spherical_formula": concurrence_spherical(sph),
            "canonical_phi": concurrence_from_phi(form.phi),
            "variance_ratio": report.concurrence_variance,
            "two_qubit_det": pure_concurrence(embed_symmetric(sph)),
        }
    else:
        if basis_label != state_label:
            raise UsageError("two-qubit analysis needs a 4-component qubit-pair state")
        report = fluctuation_report(psi, basis, v_min, v_max, ce_tol=tol)
        concurrences = {
            "variance_ratio": report.concurrence_variance,
            "two_qubit_det": pure_concurrence(psi),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "system": system,
        "input": echo,
        "state": _state_json(psi.amplitudes, basis_label),
        "fluctuations": _fluctuations_json(report, basis.label, v_min, v_max),
        "canonical_form": None if form is None else _canonical_form_json(form),
        "concurrence": _concurrence_json(concurrences),
        "ce": {
            "completely_entangled": bool(report.ce_flag),
            "residual": float(report.ce_residual),
            "tolerance": tol,
        },
    }


def _text_value(key: str, value) -> str:
    if key == "components":
        return ", ".join(f"{x:+.12g}{y:+.12g}i" for x, y in value)
    if isinstance(value, list):
        return ", ".join(_text_value(key, v) for v in value)
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _leaves(doc: dict, prefix: str = ""):
    """(dotted key path, text) of every value of doc that is not a dict, in document order."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, _text_value(key, value)


def _as_text(doc: dict) -> str:
    leaves = list(_leaves(doc))
    width = max(len(path) for path, _ in leaves)
    return "\n".join(f"{path:<{width}}  {text}" for path, text in leaves)


def _emit(doc: dict, fmt: str, failure: str | None = None) -> int:
    """Print doc; a failure is one line on stderr and makes the exit code 1."""
    print(json.dumps(doc) if fmt == "json" else _as_text(doc))
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 1


def _emit_analysis(doc, fmt: str) -> int:
    return _emit(doc, fmt, None if doc["concurrence"]["consistent"] else "inconsistency: concurrence cross-check failed")


def cmd_analyze(args) -> int:
    amps, basis_label, original_norm = _read_state(args)
    return _emit_analysis(build_analysis(amps, basis_label, args.system, args.tol, original_norm), args.format)


def cmd_search(args) -> int:
    try:  # every search flag stores into the SearchConfig field it sets
        config = SearchConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SearchConfig)})
    except ValueError as exc:
        raise UsageError(str(exc))
    run = maximize_total_variance if args.mode == "maximize" else minimize_total_variance
    make_basis, state_label, _ = _SYSTEMS[args.system]
    result = run(make_basis(), config, state_label=state_label)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": args.system,
        "mode": args.mode,
        "best_value": float(result.best_value),
        "best_state": _state_json(result.best_state.amplitudes, result.best_state.basis_label),
        "converged": bool(result.converged),
        "iterations_used": int(result.iterations_used),
        "restart_values": [float(v) for v in result.restart_values],
    }
    failure = None if result.converged else (
        f"not converged: the best restart's tangent gradient did not reach --step-tol {args.step_tolerance:g}"
        f" within --max-iter {args.max_iterations}")
    return _emit(doc, args.format, failure)


def _preset_json(preset) -> dict:
    doc = {f.name: getattr(preset, f.name) for f in dataclasses.fields(preset)}  # in declaration order
    state = preset.state
    return {**doc, "state": None if state is None else _state_json(state.amplitudes, state.basis_label)}


def cmd_preset_list(args) -> int:
    if args.format == "json":
        print(json.dumps([_preset_json(p) for p in PRESETS.values()]))
    else:
        for p in PRESETS.values():
            expected = "-" if p.expected_concurrence is None else f"{p.expected_concurrence:g}"
            print(f"{p.id:<18} {p.system:<10} C={expected:<4} {p.description}")
    return 0


def cmd_preset_show(args) -> int:
    return _emit(_preset_json(PRESETS[args.id]), args.format)


def cmd_preset_analyze(args) -> int:
    preset = PRESETS[args.id]
    if preset.state is None:
        raise UsageError(f"preset {preset.id!r} is label-only: {preset.source_note}")
    doc = build_analysis(preset.state.amplitudes, preset.state.basis_label, preset.system, args.tol, None)
    return _emit_analysis(doc, args.format)


def cmd_convert(args) -> int:
    amps, basis_label, _ = _read_state(args)
    psi = _state_vector(amps, basis_label)
    _require_spin1(psi, "convert expects")
    if args.to == basis_label:
        out = psi
    elif args.to == "cartesian":
        out = to_cartesian(psi)
    else:
        out = to_spherical(psi)
    return _emit(_state_json(out.amplitudes, out.basis_label), args.format)


def cmd_decompose(args) -> int:
    amps, basis_label, _ = _read_state(args)
    if basis_label != "qubit-pair":
        raise UsageError("decompose expects a 4-component qubit-pair state")
    chi = _state_vector(amps, basis_label)
    symmetric, anti = sector_split(chi)
    spin1_state = None
    if np.linalg.norm(symmetric) >= SINGLET_NORM:  # the normalized triplet part, whatever the singlet weight
        spin1_state = _state_json(project_spin1(chi, tol=np.inf).amplitudes, "spherical")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "symmetric_weight": float(np.sum(np.abs(symmetric) ** 2)),
        "antisymmetric_weight": float(abs(anti) ** 2),
        "singlet_amplitude": [float(anti.real), float(anti.imag)],
        "spin1_component": spin1_state,
    }
    return _emit(doc, args.format)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


# every flag and argument, declared once; each subcommand registers those its command reads
_FLAGS = {
    "id": dict(choices=tuple(PRESETS), metavar="ID"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--normalize": dict(action="store_true", help="rescale non-normalized input states"),
    "--tol": dict(type=_positive_float, default=CE_TOL_DEFAULT,
                  help="CE residual tolerance, finite and > 0 (default %(default)g)"),
    "--file": dict(help="read the state JSON from a file instead of stdin"),
    "--system": dict(choices=tuple(_SYSTEMS), default="spin1"),
}


def _subcommand(sub, name: str, func, help: str, *flags):
    p = sub.add_parser(name, help=help)
    for flag in ("--format", *flags):
        p.add_argument(flag, **_FLAGS[flag])
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entfluct",
        description="Entanglement as extremal quantum fluctuations of an observable algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _subcommand(sub, "analyze", cmd_analyze, "full fluctuation/concurrence report for a state",
                "--normalize", "--tol", "--file", "--system")

    p = _subcommand(sub, "search", cmd_search, "variational search for extremal total variance", "--system")
    defaults = SearchConfig()
    p.add_argument("--mode", choices=MODES, default=defaults.mode)
    p.add_argument("--restarts", type=int, default=defaults.restarts)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--max-iter", dest="max_iterations", type=int, default=defaults.max_iterations)
    p.add_argument("--step-tol", dest="step_tolerance", type=float, default=defaults.step_tolerance)

    actions = sub.add_parser("preset", help="catalog of physical example states").add_subparsers(
        dest="action", required=True)
    _subcommand(actions, "list", cmd_preset_list, "every preset, one line each")
    _subcommand(actions, "show", cmd_preset_show, "the fields of one preset", "id")
    _subcommand(actions, "analyze", cmd_preset_analyze, "full report for a preset's state", "id", "--tol")

    p = _subcommand(sub, "convert", cmd_convert, "spherical <-> cartesian spin-1 components", "--normalize", "--file")
    p.add_argument("--to", choices=("spherical", "cartesian"), required=True)

    _subcommand(sub, "decompose", cmd_decompose, "triplet/singlet split of a qubit-pair state", "--normalize", "--file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # nobody reads the output: exit 1, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush of what is buffered
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failure in the numerics, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
