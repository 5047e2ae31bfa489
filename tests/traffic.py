"""One sha256 per part of what the program prints and returns, and one over
all of it, to show that a change leaves its output byte-identical, or which
part moved. Run it on two trees and compare the lines:

    PYTHONPATH=src python tests/traffic.py

It prints `<part> <sha256>` for each part, then the overall sha256 alone on
the last line; with `--record` it also writes them, with the Python and numpy
versions that made them, to `tests/traffic_digests.json`, which
`tests/test_traffic.py` holds every part against. The parts, in this order:
- `cli`: the stdout and exit code of a fixed set of CLI runs, in-process through
  `cli.main`: `preset list`, `preset show` and `preset analyze` of every
  preset, seeded `analyze` in both formats with and without `--normalize` on
  unit and norm-2.5 states of both systems and on the zero vector, `analyze`
  with and without `--normalize` on states at the edges of the float range
  (parts of 1e300, 1.5e308 + 1.5e308i, 1e-200, 1e-160 and 5e-324) and on one
  with a NaN part, `convert` both ways, `decompose`, four states that the
  command's system does not take (a qubit pair to `convert`, a spherical state
  to `decompose`, four spherical amplitudes to spin-1 `analyze`, a cartesian
  state to two-qubit `analyze`; each exits 2 with an empty stdout) in both
  formats, `search` in both modes on both systems, seeds 0 and 16, and the
  parser's own output: `--help` of the top parser and of every command and
  preset action, and the usage errors of no arguments, a bad command, a bad
  `--system`, an unknown and a missing preset id, a missing `--to` and an
  unrecognized argument (`analyze --bogus`, which prints the top-level usage);
  all with COLUMNS=80, so that argparse wraps as on no particular terminal;
- `cli-stderr`: the stderr of the same runs, apart from their stdout, so that
  a changed error or failure message moves this part alone;
- `bulk`: the `analyze --format json` stdout and exit code of every state of the
  benchmark's `bulk_batch(0, b)`, b = 0..3;
- one part per search problem and mode, `j=1/2-max`, `j=1/2-min`, ...,
  `pair-max`, `pair-min`: `maximize_total_variance` or
  `minimize_total_variance` (16 restarts) at j in {1/2, 1, 3/2, 2, 3, 10, 40}
  and on the qubit pair, seeds 0, 16, ..., 64: the best state, value, flag and
  iterations, and every restart's value, stop reason and tangent-gradient
  norm. Each seed draws its own start set from one Philox stream.

It calls nothing but `cli.main` and the public search functions. pytest does
not collect it; a change that moves an output records the file again and names
each part that moved.
"""

import contextlib
import fractions
import functools
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import sys
from unittest import mock

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402  (bench/workloads.py)
from entfluct import (SearchConfig, local_two_qubit_basis, maximize_total_variance,  # noqa: E402
                      minimize_total_variance, spin_generators)
from entfluct.cli import main  # noqa: E402

RECORD = pathlib.Path(__file__).with_name("traffic_digests.json")


def _unit(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return a / np.linalg.norm(a)


def _state(amps, label: str) -> str:
    return json.dumps({"basis": label, "components": [[float(c.real), float(c.imag)] for c in amps]})


def _run(digest, argv: list, stdin: str = "", stream: str = "stdout") -> str:
    """Feed stdin to `entfluct argv`; hash argv, stdin, and the exit code and
    stdout, or with stream="stderr" the stderr alone; return stdout."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              mock.patch.dict(os.environ, COLUMNS="80")):
            code = main(argv)
    finally:
        sys.stdin = saved
    seen = [code, out.getvalue()] if stream == "stdout" else [err.getvalue()]
    digest.update(json.dumps([argv, stdin, *seen]).encode())
    return out.getvalue()


def cli_traffic(digest, stream: str = "stdout"):
    run = functools.partial(_run, digest, stream=stream)
    presets = json.loads(run(["preset", "list", "--format", "json"]))
    for preset in presets:
        for action in ("show", "analyze"):
            run(["preset", action, preset["id"], "--format", "json"])
    rng = np.random.default_rng(20040917)
    states = [("spin1", "spherical", 3), ("spin1", "cartesian", 3), ("two-qubit", "qubit-pair", 4)]
    for system, label, dim in states:
        unit = _unit(rng, dim)
        for amps in (unit, 2.5 * unit, np.zeros(dim)):
            for fmt in ("json", "text"):
                for extra in ([], ["--normalize"]):
                    run(["analyze", "--system", system, "--format", fmt, *extra], _state(amps, label))
    edges = [("spin1", "spherical", [1e300, 1e300, 0]), ("spin1", "spherical", [1.5e308 + 1.5e308j, 0, 0]),
             ("two-qubit", "qubit-pair", [1e-200, 0, 0, 1e-200]), ("spin1", "spherical", [1e-160, 3e-161, 0]),
             ("spin1", "spherical", [5e-324, 5e-324, 0]), ("spin1", "spherical", [0.6, complex(0.0, math.nan), 0.8])]
    for system, label, amps in edges:
        for extra in ([], ["--normalize"]):
            run(["analyze", "--system", system, "--format", "json", *extra], _state(np.array(amps), label))
    for label, to in (("spherical", "cartesian"), ("cartesian", "spherical")):
        run(["convert", "--to", to, "--format", "json"], _state(_unit(rng, 3), label))
    for amps in (_unit(rng, 4), np.array([0, 1, -1, 0]) / np.sqrt(2.0), np.array([1, 0, 0, 0])):
        run(["decompose", "--format", "json"], _state(amps, "qubit-pair"))
    mismatched = [(["convert", "--to", "cartesian"], [1, 0, 0, 0], "qubit-pair"), (["decompose"], [0, 1, 0], "spherical"),
                  (["analyze"], [1, 0, 0, 0], "spherical"), (["analyze", "--system", "two-qubit"], [1, 0, 0], "cartesian")]
    for argv, amps, label in mismatched:
        for fmt in ("json", "text"):
            run([*argv, "--format", fmt], _state(np.array(amps), label))
    for system in ("spin1", "two-qubit"):
        for mode in ("maximize", "minimize"):
            for seed in ("0", "16"):
                run(["search", "--system", system, "--mode", mode, "--seed", seed, "--format", "json"])
    commands = [[], ["analyze"], ["search"], ["preset"], ["preset", "list"], ["preset", "show"],
                ["preset", "analyze"], ["convert"], ["decompose"]]
    usage_errors = [[], ["bogus"], ["analyze", "--system", "spin2"], ["preset", "analyze", "nope"],
                    ["preset", "show"], ["convert"], ["analyze", "--bogus"]]
    for argv in [*([*command, "--help"] for command in commands), *usage_errors]:
        run(argv)


def bulk_traffic(digest):
    for b in range(4):
        for amps, label, system in workloads.bulk_batch(0, b):
            _run(digest, ["analyze", "--system", system, "--format", "json"], _state(amps, label))


def search_traffic(digest, basis, mode: str):
    run = maximize_total_variance if mode == "maximize" else minimize_total_variance
    for seed in range(0, 80, 16):
        r = run(basis, SearchConfig(restarts=16, seed=seed, mode=mode))
        digest.update(r.best_state.amplitudes.tobytes() + np.array(r.restart_values).tobytes()
                      + np.array(r.restart_gradients).tobytes())
        digest.update(repr((r.best_value, r.converged, r.iterations_used, r.restart_stop)).encode())


def parts():
    """(name, traffic) in hashing order: cli, cli-stderr, bulk, then j=1/2-max ... pair-min."""
    yield "cli", cli_traffic
    yield "cli-stderr", functools.partial(cli_traffic, stream="stderr")
    yield "bulk", bulk_traffic
    problems = [(f"j={fractions.Fraction(j)}", spin_generators(j)) for j in (0.5, 1, 1.5, 2, 3, 10, 40)]
    for name, basis in problems + [("pair", local_two_qubit_basis())]:
        for mode in ("maximize", "minimize"):
            yield f"{name}-{mode[:3]}", functools.partial(search_traffic, basis=basis, mode=mode)


class _Tee:
    """Feeds the same bytes to the overall digest and to one part's."""

    def __init__(self, total):
        self.total, self.part = total, hashlib.sha256()

    def update(self, data: bytes):
        self.total.update(data)
        self.part.update(data)


if __name__ == "__main__":
    total, digests = hashlib.sha256(), {}
    for name, traffic in parts():
        tee = _Tee(total)
        traffic(tee)
        digests[name] = tee.part.hexdigest()
        print(name, digests[name])
    print(total.hexdigest())
    if sys.argv[1:] == ["--record"]:
        record = {"python": platform.python_version(), "numpy": np.__version__, "parts": digests,
                  "overall": total.hexdigest()}
        RECORD.write_text(json.dumps(record, indent=2) + "\n")
