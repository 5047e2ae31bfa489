"""Command-line front end.

Subcommands: analyze, search, preset (list, show, analyze), convert, decompose.
States are read from stdin or --file as JSON {"basis": "spherical"|"cartesian"|
"qubit-pair", "components": [[re, im], ...]}. Each command builds one JSON
document; --format json prints it as is, --format text prints every leaf of it
as an aligned `dotted.key value` line. Exit codes: 0 success, 1
non-convergence, a failed cross-check, a stdout closed by its reader or an
internal error, 2 usage/validation errors.

analyze, preset, convert and decompose run on the closed forms of entfluct.core
and never import numpy, nor inspect or numbers. A process builds the parser of
its command alone, so `analyze` imports `core` alone of the package: a preset
command imports the catalog, whose states are numpy-free records.StateVector;
search imports numpy, with the basis types and the search, when it runs.
"""

import argparse
import json
import math
import os
import sys

from .core import (CE_TOL_DEFAULT, CROSS_CHECK_TOL, MODES, SQRT2, STATE_BASIS_LABELS, SYSTEMS, VARIANCE_CROSS_TOL,
                   canonical, cartesian_of, check_state, concurrence_from_phi, is_normalized, pair_concurrence,
                   pair_expectations, spherical_concurrence, spherical_of, spin1_expectations, system_of,
                   variance_report)

SCHEMA_VERSION = 1

class UsageError(Exception):
    pass


def _state_json(amplitudes, basis_label: str) -> dict:
    return {"basis": basis_label, "components": [[z.real, z.imag] for z in amplitudes]}


def _read_state(args) -> tuple:
    """(amplitudes as Python complexes, basis label, original norm or None) of
    the state JSON in --file or on stdin; with --normalize a state of another
    norm is rescaled."""
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
        amps = [complex(re, im) for re, im in pairs]
        if is_normalized(amps):  # StateVector's test; a non-finite amplitude is a ValueError
            return amps, basis_label, None
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f'malformed state JSON, want {{"basis": label, "components": [[re, im], ...]}}: {exc!r}')
    e = math.frexp(max(max(abs(z.real), abs(z.imag)) for z in amps))[1]  # 2^-e takes the largest part into [1/2, 1)
    unit = [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in amps]  # exactly: no over- or underflow
    n = math.hypot(*(x for z in unit for x in (z.real, z.imag)))
    norm = n * 2.0 ** (e // 2) * 2.0 ** (e - e // 2)  # n 2^e, 2^e as two finite factors; inf past the largest float
    if norm == math.inf:
        raise UsageError("state norm overflows a float")
    if norm == 0.0:
        raise UsageError("cannot normalize the zero vector")
    if not args.normalize:
        raise UsageError(f"state has norm {norm!r}; pass --normalize to rescale explicitly")
    return [z / n for z in unit], basis_label, norm


def _checked(amps, label: str, system: str, needs: str) -> None:
    """A usage error unless amps is a state of its label (StateVector's checks) that `system` takes, with its
    amplitude count; its text, formatted only then, is `needs` with {system} filled in."""
    try:
        check_state(amps, label)
    except ValueError as exc:
        raise UsageError(str(exc))
    _, labels, n, _, _ = SYSTEMS[system]
    if label not in labels or len(amps) != n:
        raise UsageError(f"{needs.format(system=system)} a {n}-component {' or '.join(labels)} state")


def _concurrence_json(concurrences: dict, exact: tuple) -> dict:
    """Add to `concurrences` the cross-check of the exactly conditioned formulas, `exact` as they were
    computed, against each other and of the variance ratio against each of them."""
    lo, hi, ratio = min(exact), max(exact), concurrences["variance_ratio"]
    # the largest |a - b| over the pairs, as rounding is monotone
    delta_exact, delta_variance = hi - lo, max(abs(ratio - lo), abs(ratio - hi))
    finite = math.isfinite(ratio) and all(map(math.isfinite, exact))  # min and max skip a NaN
    concurrences["max_pairwise_delta"] = max(delta_exact, delta_variance) if finite else math.nan
    concurrences["cross_check_tolerance"] = CROSS_CHECK_TOL
    concurrences["consistent"] = finite and delta_exact <= CROSS_CHECK_TOL and delta_variance <= VARIANCE_CROSS_TOL
    return concurrences


def build_analysis(amps, basis_label: str, system: str | None, tol: float, original_norm):
    """The analysis document of a state, analyzed as the system its label names: amps is a sequence of
    numbers (a numpy array too), checked here; every stage is a closed form of `core` on its Python
    complexes. `system` may only repeat the label's system (None: the label decides); another is a usage error."""
    a = tuple(map(complex, amps.tolist() if hasattr(amps, "tolist") else amps))
    echo = _state_json(a, basis_label)
    if original_norm is not None:
        echo["original_norm"] = original_norm
    system = system_of(basis_label) if system is None else system
    _checked(a, basis_label, system, "{system} analysis needs")
    basis, _, _, casimir, bounds = SYSTEMS[system]
    form = None
    if system == "spin1":
        sph, cart = (spherical_of(*a), a) if basis_label == "cartesian" else (a, cartesian_of(*a))
        exps = spin1_expectations(*sph)
        v_tot, residual, ratio = variance_report(exps, casimir, bounds)
        theta, phi, mu, nu = canonical(*cart)
        form = {"theta": theta, "phi": phi, "mu": list(mu), "nu": None if nu is None else list(nu),
                "nu_defined": nu is not None}
        p, z, m = sph
        mid = z / SQRT2  # the triplet embedding |0> -> (|ud> + |du>)/sqrt(2)
        exact = spherical_concurrence(p, z, m), concurrence_from_phi(phi), pair_concurrence(p, mid, mid, m)
        concurrences = {"spherical_formula": exact[0], "canonical_phi": exact[1], "variance_ratio": ratio,
                        "two_qubit_det": exact[2]}
    else:
        exps = pair_expectations(*a)
        v_tot, residual, ratio = variance_report(exps, casimir, bounds)
        exact = (pair_concurrence(*a),)
        concurrences = {"variance_ratio": ratio, "two_qubit_det": exact[0]}
    return {
        "schema_version": SCHEMA_VERSION,
        "system": system,
        "input": echo,
        "state": {"basis": basis_label, "components": echo["components"]},  # checked, not changed
        "fluctuations": {
            "basis": basis,
            "expectations": list(exps),
            "v_tot": v_tot,
            "v_min": bounds[0],
            "v_max": bounds[1],
            "ce_residual": residual,
            "concurrence_variance": ratio,
        },
        "canonical_form": form,
        "concurrence": _concurrence_json(concurrences, exact),
        "ce": {
            "completely_entangled": bool(residual <= tol),  # a numpy tol would give a numpy bool
            "residual": residual,
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
    from .records import SearchConfig

    try:  # each search flag given stores into the SearchConfig field it sets; the record holds the defaults
        config = SearchConfig(**{name: getattr(args, name) for name in SearchConfig._FIELDS if hasattr(args, name)})
    except ValueError as exc:
        raise UsageError(str(exc))
    from .algebra import local_two_qubit_basis, spin_generators
    from .variational import maximize_total_variance, minimize_total_variance

    run = maximize_total_variance if config.mode == "maximize" else minimize_total_variance
    system = args.system or "spin1"
    result = run(spin_generators(1) if system == "spin1" else local_two_qubit_basis(), config)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "system": system,
        "mode": config.mode,
        "best_value": result.best_value,
        "best_state": _state_json(result.best_state.components, result.best_state.basis_label),
        "converged": result.converged,
        "iterations_used": result.iterations_used,
        "restart_values": list(result.restart_values),
    }
    stop = result.restart_stop[result.best_restart]
    limit = f"--max-iter {config.max_iterations}" if stop == "cap" else "no step gained, or gradient at rounding floor"
    failure = None if result.converged else (
        f"not converged: the best restart stopped on {stop} at iteration {result.iterations_used} ({limit}),"
        f" its tangent gradient above --step-tol {config.step_tolerance:g}")
    return _emit(doc, args.format, failure)


def _preset_json(p) -> dict:
    state = None if p.state is None else _state_json(p.state.components, p.state.basis_label)
    return {"id": p.id, "description": p.description, "system": p.system, "state": state,
            "expected_concurrence": p.expected_concurrence, "source_note": p.source_note}


def _presets() -> dict:
    from .presets import PRESETS  # the catalog, imported and built only for a preset command

    return PRESETS


def cmd_preset_list(args) -> int:
    if args.format == "json":
        print(json.dumps([_preset_json(p) for p in _presets().values()]))
    else:
        for p in _presets().values():
            expected = "-" if p.expected_concurrence is None else f"{p.expected_concurrence:g}"
            print(f"{p.id:<18} {p.system:<10} C={expected:<4} {p.description}")
    return 0


def cmd_preset_show(args) -> int:
    return _emit(_preset_json(_presets()[args.id]), args.format)


def cmd_preset_analyze(args) -> int:
    preset = _presets()[args.id]
    state = preset.state
    if state is None:
        raise UsageError(f"preset {preset.id!r} is label-only: {preset.source_note}")
    return _emit_analysis(build_analysis(state.components, state.basis_label, None, args.tol, None), args.format)


def cmd_convert(args) -> int:
    amps, basis_label, _ = _read_state(args)
    _checked(amps, basis_label, "spin1", "convert expects")
    out = amps if args.to == basis_label else (cartesian_of if args.to == "cartesian" else spherical_of)(*amps)
    return _emit(_state_json(out, args.to), args.format)


def cmd_decompose(args) -> int:
    amps, basis_label, _ = _read_state(args)
    _checked(amps, basis_label, "two-qubit", "decompose expects")
    from .twoqubit import pair_sectors

    _, singlet, symmetric_weight, singlet_weight, triplet = pair_sectors(*amps)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "symmetric_weight": symmetric_weight,
        "antisymmetric_weight": singlet_weight,
        "singlet_amplitude": [singlet.real, singlet.imag],
        # the normalized triplet part, whatever the singlet weight
        "spin1_component": None if triplet is None else _state_json(triplet, "spherical"),
    }
    return _emit(doc, args.format)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


# every flag and argument, declared once, by a function called as a parser that takes it is built: so the preset
# ids are read by their commands alone; a search flag left out is not set, and SearchConfig supplies its default
_FLAGS = {
    "id": lambda: dict(choices=tuple(_presets()), metavar="ID"),
    "--format": lambda: dict(choices=("text", "json"), default="text"),
    "--normalize": lambda: dict(action="store_true", help="rescale non-normalized input states"),
    "--tol": lambda: dict(type=_positive_float, default=CE_TOL_DEFAULT,
                          help="CE residual tolerance, finite and > 0 (default %(default)g)"),
    "--file": lambda: dict(help="read the state JSON from a file instead of stdin"),
    "--system": lambda: dict(choices=tuple(SYSTEMS)),
    "--mode": lambda: dict(choices=MODES, default=argparse.SUPPRESS),
    "--restarts": lambda: dict(type=int, default=argparse.SUPPRESS),
    "--seed": lambda: dict(type=int, default=argparse.SUPPRESS),
    "--max-iter": lambda: dict(dest="max_iterations", type=int, default=argparse.SUPPRESS),
    "--step-tol": lambda: dict(dest="step_tolerance", type=float, default=argparse.SUPPRESS),
    "--to": lambda: dict(choices=("spherical", "cartesian"), required=True),
}

# command -> (help, handler, the flags after --format that it reads); a command of actions has their table as handler
_COMMANDS = {
    "analyze": ("full fluctuation/concurrence report for a state", cmd_analyze, "--normalize", "--tol", "--file",
                "--system"),
    "search": ("variational search for extremal total variance", cmd_search, "--system", "--mode", "--restarts",
               "--seed", "--max-iter", "--step-tol"),
    "preset": ("catalog of physical example states", {
        "list": ("every preset, one line each", cmd_preset_list),
        "show": ("the fields of one preset", cmd_preset_show, "id"),
        "analyze": ("full report for a preset's state", cmd_preset_analyze, "id", "--tol"),
    }),
    "convert": ("spherical <-> cartesian spin-1 components", cmd_convert, "--normalize", "--file", "--to"),
    "decompose": ("triplet/singlet split of a qubit-pair state", cmd_decompose, "--normalize", "--file"),
}


def _add_commands(sub, commands: dict, argv) -> None:
    """Add to `sub` the parser of argv[0]'s command alone if it names one (the usage line names all), else of all."""
    if argv and argv[0] in commands:
        sub.metavar = "{" + ",".join(commands) + "}"
        commands = {argv[0]: commands[argv[0]]}
    for name, (help, handler, *flags) in commands.items():
        p = sub.add_parser(name, help=help)
        if isinstance(handler, dict):
            _add_commands(p.add_subparsers(dest="action", required=True), handler, argv[1:])
            continue
        for flag in ("--format", *flags):
            p.add_argument(flag, **_FLAGS[flag]())
        p.set_defaults(func=handler)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of `entfluct argv`, of argv[0]'s command alone if it names one; it parses argv as build_parser()."""
    parser = argparse.ArgumentParser(
        prog="entfluct", description="Entanglement as extremal quantum fluctuations of an observable algebra")
    _add_commands(parser.add_subparsers(dest="command", required=True), _COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    parser = build_parser(sys.argv[1:] if argv is None else argv)
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
        import traceback  # only a failing process pays for it

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
