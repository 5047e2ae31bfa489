"""The three benchmark workloads: seeded inputs and their closed-loop runs.

All load comes from one client in one process that sends the next operation
only after the previous one has finished; `analyze-cold` adds one child
process at a time. Every output is checked by `oracle`, and a mismatch, an
exception or a non-zero exit counts as a failed operation.

Which layer each per-layer metric belongs to, and which end-to-end metric it
should move on which workload, is listed in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from array import array
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracle
from tracing import Tracer, traced_module

CE_TOL = 1e-9  # the CLI's default --tol
PROBLEM_LOG = 5  # failure messages kept per run


# ---------------------------------------------------------------- yardstick
#
# Shared machines change speed by up to a factor of 1.8, in phases of seconds
# to minutes, and CPU time tracks wall time through it, so a raw median
# mostly measures the neighbours. A fixed in-process kernel of small numpy
# products in a Python loop, much like the work measured, is timed around
# every operation (analyze-bulk has a yardstick of its own, below); each time
# is then scaled to a machine on which that kernel takes YARDSTICK_NOMINAL_S.
# A child process is scaled instead by child processes timed next to it, to a
# machine on which a bare interpreter start (`python -c pass`) takes
# INTERPRETER_NOMINAL_S and `python -c "import numpy"` takes
# IMPORT_NUMPY_NOMINAL_S: process starts follow the machine's speed more
# closely than the kernel does.

YARDSTICK_NOMINAL_S = 1.5e-3  # about their typical times on a shared 2-CPU x86 VM
INTERPRETER_NOMINAL_S = 0.05
IMPORT_NUMPY_NOMINAL_S = 0.135  # 2.7 interpreter starts, their median ratio on that VM
_YARD_RNG = np.random.default_rng(20040917)
_YARD_MATRIX = _YARD_RNG.normal(size=(3, 3)) + 1j * _YARD_RNG.normal(size=(3, 3))
_YARD_VECTOR = _YARD_RNG.normal(size=3) + 0j


def yardstick() -> float:
    """Median of three timings of the fixed kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        v = _YARD_VECTOR
        for _ in range(400):
            w = _YARD_MATRIX @ v
            v = w / np.sqrt(np.vdot(w, w).real)
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def scaled(seconds, yards) -> np.ndarray:
    """Times scaled to the nominal machine speed."""
    return np.asarray(seconds, dtype=float) * (YARDSTICK_NOMINAL_S / np.asarray(yards, dtype=float))


def child_yard(interpreter_s: float, import_numpy_s: float) -> float:
    """The yardstick time that makes `scaled` scale by the mean of the
    slowdowns a bare interpreter start and a numpy import show."""
    slowdown = (interpreter_s / INTERPRETER_NOMINAL_S + import_numpy_s / IMPORT_NUMPY_NOMINAL_S) / 2
    return slowdown * YARDSTICK_NOMINAL_S


@dataclass
class Outcome:
    """What one measured run saw. `latencies` holds untraced operations, and
    each latency has the yardstick time measured around it in `yards`."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    latencies: array = field(default_factory=lambda: array("d"))
    yards: array = field(default_factory=lambda: array("d"))
    traced_latencies: array = field(default_factory=lambda: array("d"))
    traced_yards: array = field(default_factory=lambda: array("d"))
    # nominal / yardstick for each traced operation, by operation id
    op_scale: array = field(default_factory=lambda: array("d"))
    layer: dict = field(default_factory=dict)  # per-layer metric -> (value, samples)

    def fail(self, message: str):
        self.failed += 1
        if len(self.problems) < PROBLEM_LOG:
            self.problems.append(message)

    def check(self, problems: list, what: str):
        if problems:
            self.fail(f"{what}: {'; '.join(problems[:3])}")

    def record(self, in_trace: bool, latency: float, yard: float):
        (self.traced_latencies if in_trace else self.latencies).append(latency)
        (self.traced_yards if in_trace else self.yards).append(yard)

    def scale_new_ops(self, tracer: Tracer, yard: float):
        """Give every traced operation opened since the last call this yardstick."""
        self.op_scale.extend([YARDSTICK_NOMINAL_S / yard] * (tracer.ops - len(self.op_scale)))

    def layer_median(self, tracer: Tracer, name: str, unit: float, column: str = "duration"):
        """(median scaled `column` of the spans called `name`, in `unit`s; count)."""
        return _median(tracer.durations(name, column, self.op_scale), 1.0 / unit)


def _median(values, scale: float = 1.0):
    values = np.asarray(values, dtype=float)
    return (float(np.median(values)) * scale if values.size else 0.0), int(values.size)


def _unit(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return a / np.linalg.norm(a)


def _near(base, rng) -> np.ndarray:
    a = np.asarray(base, dtype=complex) + 1e-6 * _unit(rng, len(base))
    return a / np.linalg.norm(a)


def _unit_real(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- analyze-bulk
#
# In-process analyses through cli.build_analysis + json.dumps; every state is
# distinct. Shares of the mix: random spin-1 states in the spherical basis,
# in the cartesian basis, random qubit pairs, and edge states.

BULK_BATCH = 512
# The yardstick of analyze-bulk is the oracle's own reference computation for
# each state (oracle.reference, numpy on the input amplitudes, no entfluct
# code), timed right before the state is analyzed: the same kind of small
# numpy work at the same moment. Its mean over a batch of this mix takes
# REFERENCE_NOMINAL_S where the kernel above takes YARDSTICK_NOMINAL_S.
REFERENCE_NOMINAL_S = 37.5e-6
BULK_MIX = (0.45, 0.25, 0.20, 0.10)
_R2 = np.sqrt(2.0)
EDGE_STATES = (
    # (name, basis, system, amplitudes or a function of the rng giving them)
    ("ce-0", "spherical", "spin1", [0, 1, 0]),
    ("ce-plus", "spherical", "spin1", [1 / _R2, 0, 1 / _R2]),
    ("ce-minus", "spherical", "spin1", [1 / _R2, 0, -1 / _R2]),
    ("ce-cartesian", "cartesian", "spin1",
     lambda rng: np.exp(1j * rng.uniform(0, 2 * np.pi)) * _unit_real(rng)),
    ("coherent-plus", "spherical", "spin1", [1, 0, 0]),
    ("coherent-minus", "spherical", "spin1", [0, 0, 1]),
    ("near-ce", "spherical", "spin1", lambda rng: _near([0, 1, 0], rng)),
    ("near-coherent", "spherical", "spin1", lambda rng: _near([1, 0, 0], rng)),
    ("singlet", "qubit-pair", "two-qubit", [0, 1 / _R2, -1 / _R2, 0]),
    ("product", "qubit-pair", "two-qubit", lambda rng: np.kron(_unit(rng, 2), _unit(rng, 2))),
)


def bulk_batch(seed: int, index: int) -> list:
    """Batch `index` of the endless analyze-bulk stream: (amps, basis, system)."""
    rng = np.random.default_rng([seed, 0, index])
    states = []
    for kind in rng.choice(len(BULK_MIX), size=BULK_BATCH, p=BULK_MIX):
        if kind == 0:
            states.append((_unit(rng, 3), "spherical", "spin1"))
        elif kind == 1:
            states.append((_unit(rng, 3), "cartesian", "spin1"))
        elif kind == 2:
            states.append((_unit(rng, 4), "qubit-pair", "two-qubit"))
        else:
            _, basis, system, amps = EDGE_STATES[rng.integers(len(EDGE_STATES))]
            amps = amps(rng) if callable(amps) else amps
            states.append((np.asarray(amps, dtype=complex), basis, system))
    return states


def bulk_inputs(seed: int, count: int = 4):
    for b in range(count):
        for amps, basis, system in bulk_batch(seed, b):
            yield basis, system, amps.tobytes()


def bulk_prepare(seed: int, cli) -> dict:
    batch = bulk_batch(seed, 0)
    for amps, basis, system in batch[:32]:  # first calls fill lazy state
        json.dumps(cli.build_analysis(amps, basis, system, CE_TOL, None))
    return {"seed": seed, "cli": cli}


def bulk_measure(prep: dict, seconds: float, tracer: Tracer | None) -> Outcome:
    """Each state, and each span, is scaled by the mean reference time of its
    batch. Untraced: every batch untraced. Traced: odd batches traced, so the
    tracing overhead is measured against interleaved untraced batches."""
    cli, seed = prep["cli"], prep["seed"]

    def analyze(build, encode):
        def op(amps, basis, system):
            return encode(build(amps, basis, system, CE_TOL, None))
        return op

    plain = analyze(cli.build_analysis, json.dumps)
    traced = None
    if tracer is not None:
        traced = tracer.wrap("bulk.analyze", analyze(
            tracer.wrap("cli.build_analysis", cli.build_analysis),
            tracer.wrap("cli.json_encode", json.dumps),
        ))
    out = Outcome()
    deadline = perf_counter() + seconds
    batch = 0
    while perf_counter() < deadline:
        states = bulk_batch(seed, batch)
        in_trace = traced is not None and batch % 2 == 1
        op = traced if in_trace else plain
        latencies, references = [], []
        with traced_module(tracer, cli) if in_trace else nullcontext():
            for amps, basis, system in states:
                out.attempted += 1
                t0 = perf_counter()
                oracle.reference(amps, basis)
                references.append(perf_counter() - t0)
                t0 = perf_counter()
                try:
                    text = op(amps, basis, system)
                except Exception as exc:  # a failed operation, counted and reported
                    out.fail(f"{basis} state raised {exc!r}")
                    continue
                latencies.append(perf_counter() - t0)
                out.check(oracle.check_analysis(json.loads(text), amps, basis, CE_TOL), f"{basis} analysis")
                if perf_counter() >= deadline:
                    break
        yard = YARDSTICK_NOMINAL_S * float(np.mean(references)) / REFERENCE_NOMINAL_S
        for latency in latencies:
            out.record(in_trace, latency, yard)
        if in_trace:
            out.scale_new_ops(tracer, yard)
        batch += 1
    if tracer is not None:
        _analysis_layers(out, tracer)
    return out


def _analysis_layers(out: Outcome, tracer: Tracer):
    for name in tracer.names:
        if name != "bulk.analyze" and tracer.durations(name).size:
            out.layer[f"{name}_us"] = out.layer_median(tracer, name, 1e-6)
    out.layer["cli.build_analysis_self_us"] = out.layer_median(tracer, "cli.build_analysis", 1e-6, "self")
    calls = tracer.durations("algebra.spin_generators").size
    out.layer["algebra.spin_generators_calls"] = (calls / max(tracer.ops, 1), tracer.ops)


# ---------------------------------------------------------------- analyze-cold
#
# One `python -m entfluct.cli` process per operation. Each round runs three
# `analyze --format json` on seeded stdin states (all three basis labels) and
# one `preset analyze <id> --format json`, in seeded order, then probe
# children (`-c pass` and `-c "import numpy"`, and in odd rounds
# `-c "import entfluct.cli"`) that split a cold start into interpreter, numpy
# import, package import and work under the same machine state.

COLD_PROBES = (
    ("cold.python_pass", "pass"),
    ("cold.python_import_numpy", "import numpy"),
    ("cold.python_import_entfluct", "import entfluct.cli"),
)
CHILD_TIMEOUT_S = 60


def child_env(src) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH", "")) if p)
    return env


def cold_round(seed: int, index: int, presets: dict) -> list:
    """Round `index`: [(span name, argv after the interpreter, stdin, expected)]."""
    rng = np.random.default_rng([seed, 1, index])
    ops = []
    for basis in rng.choice(("spherical", "cartesian", "qubit-pair"), size=3):
        basis = str(basis)
        amps = _unit(rng, 4 if basis == "qubit-pair" else 3)
        system = "two-qubit" if basis == "qubit-pair" else "spin1"
        payload = json.dumps({"basis": basis, "components": [[a.real, a.imag] for a in amps]})
        argv = ["-m", "entfluct.cli", "analyze", "--format", "json", "--system", system]
        ops.append(("cold.analyze", argv, payload.encode(), (amps, basis)))
    pid = str(rng.choice(sorted(presets)))
    argv = ["-m", "entfluct.cli", "preset", "analyze", pid, "--format", "json"]
    ops.append(("cold.preset_analyze", argv, b"", presets[pid]))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    # `-c pass` and `import numpy` every round, as the yardstick; the package
    # import only in odd rounds, since only the cold split needs it
    probes = COLD_PROBES if index % 2 else COLD_PROBES[:2]
    return ops + [(name, ["-c", code], b"", None) for name, code in probes]


def preset_states(presets_module) -> dict:
    """id -> (amplitudes, basis label) for every preset that carries a state."""
    out = {}
    for pid, p in presets_module.PRESETS.items():
        if p.state is not None:
            basis = "qubit-pair" if p.system == "two-qubit" else p.state.basis_label
            out[pid] = (np.asarray(p.state.amplitudes, dtype=complex), basis)
    return out


def cold_inputs(seed: int, presets: dict, count: int = 8):
    for r in range(count):
        for name, argv, payload, _ in cold_round(seed, r, presets):
            yield name, argv, payload


def cold_prepare(seed: int, src, presets_module) -> dict:
    presets = preset_states(presets_module)
    cold_round(seed, 0, presets)
    return {"seed": seed, "presets": presets, "env": child_env(src), "cwd": str(src.parent)}


def _run_child(prep: dict, argv: list, payload: bytes):
    return subprocess.run(
        [sys.executable, *argv], input=payload, capture_output=True,
        env=prep["env"], cwd=prep["cwd"], timeout=CHILD_TIMEOUT_S,
    )


def cold_measure(prep: dict, seconds: float, tracer: Tracer | None) -> Outcome:
    """Whole rounds until `seconds` have passed. Each analyze process is
    scaled by the median `-c pass` and `import numpy` probes of its round and
    the two rounds on either side; spans by the in-process yardstick.
    Untraced: every round untraced. Traced: one span per probe child, and per
    analyze child in odd rounds, so overhead is measured against the even
    rounds."""
    out = Outcome()
    rounds = []  # (traced, analyze latencies, {probe name: time}) per round
    deadline = perf_counter() + seconds
    index = 0
    before = yardstick()
    while perf_counter() < deadline:
        in_trace = tracer is not None and index % 2 == 1
        timed, probes = [], {}
        for name, argv, payload, expected in cold_round(prep["seed"], index, prep["presets"]):
            spanned = tracer is not None and (in_trace or expected is None)
            run = tracer.wrap(name, _run_child) if spanned else _run_child
            out.attempted += 1
            t0 = perf_counter()
            try:
                proc = run(prep, argv, payload)
            except (OSError, subprocess.SubprocessError) as exc:
                proc = exc
            elapsed = perf_counter() - t0
            after = yardstick()
            yard, before = (before + after) / 2, after
            if spanned:
                out.scale_new_ops(tracer, yard)
            if isinstance(proc, Exception):
                out.fail(f"{name} child failed to run: {proc!r}")
            elif proc.returncode != 0:
                out.fail(f"{name} exited {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}")
            elif expected is not None:
                timed.append(elapsed)
                amps, basis = expected
                try:
                    found = oracle.check_analysis(json.loads(proc.stdout), amps, basis, CE_TOL)
                except ValueError as exc:
                    found = [f"invalid JSON: {exc}"]
                out.check(found, f"{name} {' '.join(argv[2:])}")
            else:
                probes[name] = elapsed
        rounds.append((in_trace, timed, probes))
        index += 1
    for k, (in_trace, timed, _) in enumerate(rounds):
        near = [[r[2][name] for r in rounds[max(0, k - 2):k + 3] if name in r[2]]
                for name, _ in COLD_PROBES[:2]]
        if not all(near):  # no probe nearby: the run has failed
            continue
        yard = child_yard(*(float(np.median(times)) for times in near))
        for elapsed in timed:
            out.record(in_trace, elapsed, yard)
    if tracer is not None:
        _cold_layers(out, tracer)
    return out


def _cold_layers(out: Outcome, tracer: Tracer):
    """Split a cold start by differences of the probe medians (ms)."""
    med = {name: out.layer_median(tracer, name, 1e-3) for name in tracer.names}
    interp, numpy_, package = (med.get(n, (0.0, 0))[0] for n, _ in COLD_PROBES)
    work, n_work = med.get("cold.analyze", (0.0, 0))
    n_probe = min(med.get(n, (0.0, 0))[1] for n, _ in COLD_PROBES)
    out.layer["cold.interpreter_ms"] = (interp, n_probe)
    out.layer["cold.numpy_import_ms"] = (numpy_ - interp, n_probe)
    out.layer["cold.entfluct_import_ms"] = (package - numpy_, n_probe)
    out.layer["cold.work_ms"] = (work - package, n_work)
    out.layer["presets.preset_analyze_ms"] = med.get("cold.preset_analyze", (0.0, 0))


# ---------------------------------------------------------------- search
#
# A fixed suite of variational problems; one pass solves every case in both
# modes. SearchConfig.seed of each problem is derived from the workload seed
# and the pass index, so passes do not repeat each other's restarts.
#
# Spins 3 and 10 are not in the suite: 50-75% of their restarts run to the
# 2000-iteration cap and the rest stop after 50 to 600 iterations, so a
# restart's cost varies by about half its mean (spins 2 and 5/2 do the same
# when maximizing). A run holds only some 35 such restarts, and its total
# then moves by 7-8% with the seed alone, too much for the bound of 0.25 on
# the ten-seed spread. Spin 3/2 never reaches the cap (35-350 iterations,
# about 40 ms a restart), so a run averages some 700 restarts.

SEARCH_CASES = (  # (name, j or None for the local qubit pair, restarts)
    ("j1", 1, 16),
    ("j3h", 1.5, 16),
    ("qubits", None, 16),
)
SEARCH_MODES = (("max", "maximize"), ("min", "minimize"))


def search_problems(seed: int, pass_index: int) -> list:
    """[(case-mode label, j, restarts, mode, SearchConfig seed)] for one pass."""
    problems = []
    for ci, (case, j, restarts) in enumerate(SEARCH_CASES):
        for mi, (short, mode) in enumerate(SEARCH_MODES):
            ss = np.random.SeedSequence([seed, 2, pass_index, ci, mi])
            cfg_seed = int(ss.generate_state(1, dtype=np.uint64)[0])
            problems.append((f"{case}-{short}", j, restarts, mode, cfg_seed))
    return problems


def search_inputs(seed: int, count: int = 4):
    for p in range(count):
        yield from search_problems(seed, p)


def search_prepare(seed: int, entfluct) -> dict:
    for _, j, _, _, _ in search_problems(seed, 0):
        entfluct.local_two_qubit_basis() if j is None else entfluct.spin_generators(j)
    return {"seed": seed, "entfluct": entfluct}


def _solver(ef, wrap):
    spin = wrap("algebra.spin_generators", ef.spin_generators)
    pair = wrap("algebra.local_two_qubit_basis", ef.local_two_qubit_basis)
    runs = {mode: wrap(f"variational.{fn.__name__}", fn) for mode, fn in (
        ("maximize", ef.maximize_total_variance), ("minimize", ef.minimize_total_variance))}

    def solve(j, restarts, mode, cfg_seed):
        basis = pair() if j is None else spin(j)
        config = ef.SearchConfig(restarts=restarts, seed=cfg_seed, mode=mode)
        return runs[mode](basis, config, state_label="qubit-pair" if j is None else "spherical")

    return wrap("search.problem", solve)


def search_measure(prep: dict, seconds: float, tracer: Tracer | None) -> Outcome:
    """Whole passes until `seconds` have passed. Traced: each untraced pass
    is followed by a traced pass of the same problems, so the overhead
    compares like with like. Each problem is scaled by the yardstick timed
    before and after it."""
    ef, seed = prep["entfluct"], prep["seed"]
    plain = _solver(ef, lambda name, fn: fn)
    traced = _solver(ef, tracer.wrap) if tracer is not None else None
    out = Outcome()
    records = []  # one per traced problem: (op id, label, result, oracle ok, j, mode)
    deadline = perf_counter() + seconds
    pass_index = 0
    before = yardstick()
    while perf_counter() < deadline:
        problems = search_problems(seed, pass_index)
        for solve in (plain, traced):
            if solve is None:
                continue
            raw = nominal = 0.0
            for label, j, restarts, mode, cfg_seed in problems:
                out.attempted += 1
                op_id = tracer.ops if solve is traced else None
                t0 = perf_counter()
                try:
                    result = solve(j, restarts, mode, cfg_seed)
                except Exception as exc:  # a failed operation, counted and reported
                    result = exc
                elapsed = perf_counter() - t0
                after = yardstick()
                yard, before = (before + after) / 2, after
                if op_id is not None:
                    out.scale_new_ops(tracer, yard)
                if isinstance(result, Exception):
                    out.fail(f"{label} seed {cfg_seed} raised {result!r}")
                    continue
                raw += elapsed
                nominal += float(scaled(elapsed, yard))
                found = oracle.check_search(result.best_state.amplitudes, result.best_value, j, mode)
                out.check(found, f"{label} seed {cfg_seed}")
                if op_id is not None:
                    records.append((op_id, label, result, not found, j, mode))
            # one pass is one operation; its yardstick is the one that scales
            # the sum of the raw problem times to the sum of the scaled ones
            out.record(solve is traced, raw, YARDSTICK_NOMINAL_S * raw / max(nominal, 1e-300))
        pass_index += 1
    if tracer is not None:
        _search_layers(out, tracer, records)
    return out


def _search_layers(out: Outcome, tracer: Tracer, records: list):
    scale = np.asarray(out.op_scale)
    s = tracer.spans()
    solver_ids = [i for i, n in enumerate(tracer.names) if n.startswith("variational.")]
    picked = np.isin(s["name"], solver_ids)
    ops = s["op"][picked]
    solve_s = dict(zip(ops.tolist(), (s["duration"][picked] * scale[ops]).tolist()))
    for label in dict.fromkeys(r[1] for r in records):
        mine = [r for r in records if r[1] == label]
        out.layer[f"variational.{label}_s"] = _median([solve_s[r[0]] for r in mine])
        out.layer[f"variational.{label}_iterations"] = _median([r[2].iterations_used for r in mine])
    passes = max(len(out.traced_latencies), 1)
    # the flag is judged against the oracle's verdict on the returned state
    mismatch = sum(1 for r in records if bool(r[2].converged) != r[3])
    out.layer["variational.converged_flag_mismatch"] = (mismatch / passes, len(records))
    hits = sum(oracle.restart_hits(r[2].restart_values, r[4], r[5]) for r in records)
    tries = sum(len(r[2].restart_values) for r in records)
    out.layer["variational.restart_hit_ratio"] = (hits / max(tries, 1), tries)
    for name in ("algebra.spin_generators", "algebra.local_two_qubit_basis"):
        out.layer[f"{name}_us"] = out.layer_median(tracer, name, 1e-6)
    calls = tracer.durations("algebra.spin_generators").size
    out.layer["algebra.spin_generators_calls"] = (calls / max(len(records), 1), len(records))


WORKLOADS = ("analyze-bulk", "analyze-cold", "search")


def input_hash(workload: str, seed: int, presets: dict) -> str:
    """sha256 over a fixed prefix of the workload's generated inputs."""
    h = hashlib.sha256()
    if workload == "analyze-bulk":
        items = bulk_inputs(seed)
    elif workload == "analyze-cold":
        items = cold_inputs(seed, presets)
    else:
        items = search_inputs(seed)
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()
