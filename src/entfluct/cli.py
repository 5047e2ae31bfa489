"""Command-line front end.

Subcommands: analyze, search, preset, convert, decompose. States are read from
stdin or --file as JSON {"basis": "spherical"|"cartesian"|"qubit-pair",
"components": [[re, im], ...]}. Exit codes: 0 success, 1 non-convergence,
a failed cross-check or an internal error, 2 usage/validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

import numpy as np

from .algebra import NORM_TOL, STATE_BASIS_LABELS, StateVector, local_two_qubit_basis, spin_generators
from .fluctuations import fluctuation_report
from .presets import PRESETS
from .spin1 import canonical_form, concurrence_from_phi, concurrence_spherical, to_cartesian, to_spherical
from .twoqubit import embed_symmetric, project_spin1, pure_concurrence, sector_split
from .variational import SearchConfig, maximize_total_variance, minimize_total_variance

CROSS_CHECK_TOL = 1e-9
# sqrt((V - V_min)/(V_max - V_min)) loses half the working precision when the
# concurrence is near zero (V - V_min is then pure rounding noise ~ 1e-16, and
# the square root inflates it to ~ 1e-8), so the variance route gets a wider
# cross-check band than the exactly-conditioned formulas.
VARIANCE_CROSS_TOL = 5e-8
SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _state_json(amplitudes, basis_label: str) -> dict:
    return {"basis": basis_label, "components": [[float(c.real), float(c.imag)] for c in amplitudes]}


def _components_text(components, digits: int = 9) -> str:
    return ", ".join(f"{re:+.{digits}g}{im:+.{digits}g}i" for re, im in components)


def _parse_state_json(obj) -> tuple:
    if not isinstance(obj, dict):
        raise UsageError("state JSON must be an object")
    try:
        basis = obj["basis"]
        components = obj["components"]
    except (KeyError, TypeError):
        raise UsageError('state JSON needs "basis" and "components" fields')
    if basis not in STATE_BASIS_LABELS:
        raise UsageError(f"unknown basis label {basis!r}")
    try:
        amps = np.array([complex(re, im) for re, im in components])
    except (TypeError, ValueError):
        raise UsageError('"components" must be a list of [re, im] pairs')
    return amps, basis


def _read_state(args) -> tuple:
    """(amplitudes, basis label, original norm or None) of the state JSON in
    --file or on stdin; with --normalize a state of another norm is rescaled."""
    if getattr(args, "file", None):
        try:
            with open(args.file) as fh:
                raw = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.file}: {exc}")
    else:
        raw = sys.stdin.read()
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed state JSON: {exc}")
    amps, basis_label = _parse_state_json(obj)
    norm = float(np.linalg.norm(amps))
    if not math.isfinite(norm):
        raise UsageError("state has a non-finite component")
    if abs(norm * norm - 1.0) <= NORM_TOL:  # StateVector's test, on |a|^2
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


def _canonical_form_json(form) -> dict:
    return {
        "theta": float(form.theta),
        "phi": float(form.phi),
        "mu": [float(v) for v in form.mu],
        "nu": [float(v) for v in form.nu] if form.nu_defined else None,
        "nu_defined": bool(form.nu_defined),
    }


def _fluctuations_json(report, basis_label: str) -> dict:
    return {
        "basis": basis_label,
        "expectations": [float(e) for e in report.expectations],
        "v_tot": float(report.v_tot),
        "v_min": report.v_min,
        "v_max": report.v_max,
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
    form = None
    if system == "spin1":
        if basis_label == "qubit-pair" or psi.dim != 3:
            raise UsageError("spin1 analysis needs a 3-component spherical or cartesian state")
        sph = to_spherical(psi) if basis_label == "cartesian" else psi
        # irreducible su(2): V_tot = j(j+1) - |<S>|^2 runs from j (coherent,
        # |<S>| = j) to j(j+1) (CE), here from 1 to 2
        basis = spin_generators(1)
        report = fluctuation_report(sph, basis, 1.0, 2.0, ce_tol=tol)
        form = canonical_form(psi if basis_label == "cartesian" else to_cartesian(psi))
        concurrences = {
            "spherical_formula": concurrence_spherical(sph),
            "canonical_phi": concurrence_from_phi(form.phi),
            "variance_ratio": report.concurrence_variance,
            "two_qubit_det": pure_concurrence(embed_symmetric(sph)),
        }
    else:
        if basis_label != "qubit-pair":
            raise UsageError("two-qubit analysis needs a 4-component qubit-pair state")
        # local basis on a pure pair: V_tot = 1 + C^2 / 2, from 1 (product) to 3/2
        basis = local_two_qubit_basis()
        report = fluctuation_report(psi, basis, 1.0, 1.5, ce_tol=tol)
        concurrences = {
            "variance_ratio": report.concurrence_variance,
            "two_qubit_det": pure_concurrence(psi),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "system": system,
        "input": echo,
        "state": _state_json(psi.amplitudes, basis_label),
        "fluctuations": _fluctuations_json(report, basis.label),
        "canonical_form": None if form is None else _canonical_form_json(form),
        "concurrence": _concurrence_json(concurrences),
        "ce": {
            "completely_entangled": bool(report.ce_flag),
            "residual": float(report.ce_residual),
            "tolerance": tol,
        },
    }


def _fmt_float(x) -> str:
    return "None" if x is None else f"{x: .12g}"


def _render_analysis_text(doc) -> str:
    lines = [f"system            {doc['system']}"]
    st = doc["state"]
    lines.append(f"state [{st['basis']}]  ({_components_text(st['components'])})")
    fl = doc["fluctuations"]
    lines.append(f"observable basis  {fl['basis']}")
    lines.append(f"expectations      ({', '.join(f'{e: .9g}' for e in fl['expectations'])})")
    lines.append(f"V_tot             {_fmt_float(fl['v_tot'])}")
    lines.append(f"V_min / V_max     {_fmt_float(fl['v_min'])} / {_fmt_float(fl['v_max'])}")
    cf = doc["canonical_form"]
    if cf is not None:
        lines.append(f"theta             {_fmt_float(cf['theta'])}")
        lines.append(f"phi               {_fmt_float(cf['phi'])}")
        lines.append(f"mu                ({', '.join(f'{v: .9g}' for v in cf['mu'])})")
        nu = "undefined" if not cf["nu_defined"] else "(" + ", ".join(f"{v: .9g}" for v in cf["nu"]) + ")"
        lines.append(f"nu                {nu}")
    for name, val in doc["concurrence"].items():
        if name in ("consistent", "cross_check_tolerance"):
            continue
        lines.append(f"C[{name}]".ljust(18) + _fmt_float(val))
    ce = doc["ce"]
    lines.append(f"CE verdict        {ce['completely_entangled']} (residual {ce['residual']:.3e}, tol {ce['tolerance']:.1e})")
    return "\n".join(lines)


def _emit(doc, fmt: str, text_renderer):
    if fmt == "json":
        print(json.dumps(doc))
    else:
        print(text_renderer(doc))


def _emit_analysis(doc, fmt: str) -> int:
    _emit(doc, fmt, _render_analysis_text)
    if doc["concurrence"]["consistent"]:
        return 0
    print("inconsistency: concurrence cross-check failed", file=sys.stderr)
    return 1


def cmd_analyze(args) -> int:
    amps, basis_label, original_norm = _read_state(args)
    return _emit_analysis(build_analysis(amps, basis_label, args.system, args.tol, original_norm), args.format)


def _search_doc(result, extra: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        **extra,
        "best_value": float(result.best_value),
        "best_state": _state_json(result.best_state.amplitudes, result.best_state.basis_label),
        "converged": bool(result.converged),
        "iterations_used": int(result.iterations_used),
        "restart_values": [float(v) for v in result.restart_values],
    }


def _render_search_text(doc) -> str:
    st = doc["best_state"]
    return "\n".join(
        [
            f"system            {doc['system']}",
            f"mode              {doc['mode']}",
            f"best value        {doc['best_value']:.12g}",
            f"best state        [{st['basis']}] ({_components_text(st['components'])})",
            f"converged         {doc['converged']}",
            f"iterations        {doc['iterations_used']}",
            f"restart values    ({', '.join(f'{v:.9g}' for v in doc['restart_values'])})",
        ]
    )


def cmd_search(args) -> int:
    try:
        config = SearchConfig(
            restarts=args.restarts,
            max_iterations=args.max_iter,
            step_tolerance=args.step_tol,
            seed=args.seed,
            mode=args.mode,
        )
    except ValueError as exc:
        raise UsageError(str(exc))
    run = maximize_total_variance if args.mode == "maximize" else minimize_total_variance
    if args.system == "spin1":
        result = run(spin_generators(1), config, state_label="spherical")
    else:
        result = run(local_two_qubit_basis(), config, state_label="qubit-pair")
    doc = _search_doc(result, {"system": args.system, "mode": args.mode})
    _emit(doc, args.format, _render_search_text)
    return 0 if result.converged else 1


def _preset_json(preset) -> dict:
    state = preset.state
    return {
        "id": preset.id,
        "description": preset.description,
        "system": preset.system,
        "state": None if state is None else _state_json(state.amplitudes, state.basis_label),
        "expected_concurrence": preset.expected_concurrence,
        "source_note": preset.source_note,
    }


def cmd_preset(args) -> int:
    if args.action == "list":
        if args.format == "json":
            print(json.dumps([_preset_json(p) for p in PRESETS.values()]))
        else:
            for p in PRESETS.values():
                expected = "-" if p.expected_concurrence is None else f"{p.expected_concurrence:g}"
                print(f"{p.id:<18} {p.system:<10} C={expected:<4} {p.description}")
        return 0
    if not args.id:
        raise UsageError(f"preset {args.action} requires an id")
    preset = PRESETS.get(args.id)
    if preset is None:
        raise UsageError(f"unknown preset {args.id!r}")
    if args.action == "show":
        _emit(_preset_json(preset), args.format,
              lambda info: "\n".join(f"{key:<22}{val}" for key, val in info.items()))
        return 0
    # analyze
    if preset.state is None:
        raise UsageError(f"preset {preset.id!r} is label-only: {preset.source_note}")
    doc = build_analysis(preset.state.amplitudes, preset.state.basis_label, preset.system, args.tol, None)
    return _emit_analysis(doc, args.format)


def cmd_convert(args) -> int:
    amps, basis_label, _ = _read_state(args)
    psi = _state_vector(amps, basis_label)
    if basis_label == "qubit-pair" or psi.dim != 3:
        raise UsageError("convert expects a 3-component spherical or cartesian state")
    if args.to == basis_label:
        out = psi
    elif args.to == "cartesian":
        out = to_cartesian(psi)
    else:
        out = to_spherical(psi)
    doc = _state_json(out.amplitudes, out.basis_label)
    _emit(doc, args.format, lambda d: f"[{d['basis']}] ({_components_text(d['components'], 12)})")
    return 0


def cmd_decompose(args) -> int:
    amps, basis_label, _ = _read_state(args)
    if basis_label != "qubit-pair":
        raise UsageError("decompose expects a 4-component qubit-pair state")
    chi = _state_vector(amps, basis_label)
    symmetric, anti = sector_split(chi)
    sym_weight = float(np.sum(np.abs(symmetric) ** 2))
    anti_weight = float(abs(anti) ** 2)
    spin1_state = None
    if sym_weight > 1e-24:  # the normalized triplet part, whatever the singlet weight
        spin1_state = _state_json(project_spin1(chi, tol=np.inf).amplitudes, "spherical")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "symmetric_weight": sym_weight,
        "antisymmetric_weight": anti_weight,
        "singlet_amplitude": [float(anti.real), float(anti.imag)],
        "spin1_component": spin1_state,
    }
    if args.format == "json":
        print(json.dumps(doc))
    else:
        print(f"symmetric weight    {sym_weight:.12g}")
        print(f"antisymmetric weight {anti_weight:.12g}")
        print(f"singlet amplitude   {anti.real:+.12g}{anti.imag:+.12g}i")
        if spin1_state is not None:
            print(f"spin-1 component    ({_components_text(spin1_state['components'])})")
        else:
            print("spin-1 component    none (pure singlet)")
    return 0


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _add_common(parser):
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--normalize", action="store_true",
                        help="rescale non-normalized input states")
    parser.add_argument("--tol", type=_positive_float, default=1e-9,
                        help="CE residual tolerance, finite and > 0 (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entfluct",
        description="Entanglement as extremal quantum fluctuations of an observable algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full fluctuation/concurrence report for a state")
    _add_common(p)
    p.add_argument("--file", help="read the state JSON from a file instead of stdin")
    p.add_argument("--system", choices=("spin1", "two-qubit"), default="spin1")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="variational search for extremal total variance")
    _add_common(p)
    p.add_argument("--system", choices=("spin1", "two-qubit"), default="spin1")
    p.add_argument("--mode", choices=("maximize", "minimize"), default="maximize")
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=2000)
    p.add_argument("--step-tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("preset", help="catalog of physical example states")
    _add_common(p)
    p.add_argument("action", choices=("list", "show", "analyze"))
    p.add_argument("id", nargs="?")
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("convert", help="spherical <-> cartesian spin-1 components")
    _add_common(p)
    p.add_argument("--file", help="read the state JSON from a file instead of stdin")
    p.add_argument("--to", choices=("spherical", "cartesian"), required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("decompose", help="triplet/singlet split of a qubit-pair state")
    _add_common(p)
    p.add_argument("--file", help="read the state JSON from a file instead of stdin")
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a failure in the numerics, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
