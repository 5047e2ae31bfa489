"""entfluct benchmark: bulk analysis, cold CLI starts and variational search.

One run:

    python3 bench/run.py --workload analyze-bulk --seed 0 --seconds 36 --trace 0

prints a readable report, a `detail {...}` line (metadata, sample counts,
failures) and, last, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json, measured untraced; with `--trace 1` they are its per-layer
metrics, taken from spans, with the tracing overhead.

Without `--workload` it runs every workload untraced and traced, each in its
own process, and prints every metric with its unit and sample count.

The package is imported from `src/` next to this directory; nothing is
installed. BLAS/OpenMP threads are pinned to one here and in every child.
"""

from __future__ import annotations

import os

THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)  # before numpy is imported, here and in children

import argparse
import copy
import json
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

import oracle
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SPANS_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
# Tail percentiles; a run has ~35000 states, ~100 processes, ~25 passes.
# analyze-bulk stops at p90: its p99 over p50 varies by 7% (coefficient of
# variation) from run to run of the same inputs on a shared machine, its p90
# over p50 by 1.5%.
TAIL = {"analyze-bulk": 90, "analyze-cold": 90, "search": 90}


def import_package():
    """Import entfluct from src/ and nowhere else."""
    if not (SRC / "entfluct" / "__init__.py").is_file():
        raise SystemExit(f"error: no entfluct package under {SRC}")
    sys.path.insert(0, str(SRC))
    import entfluct
    import entfluct.cli
    import entfluct.presets

    if Path(entfluct.__file__).resolve().parent != SRC / "entfluct":
        raise SystemExit(f"error: imported entfluct from {entfluct.__file__}, not {SRC}")
    return entfluct


def _git(*args):
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata() -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "loadavg_start": list(os.getloadavg()),
    }


def fresh_input_hash(workload: str, seed: int) -> str | None:
    """The input hash as a fresh interpreter, with its own hash seed, computes it."""
    env = workloads.child_env(SRC)
    env.pop("PYTHONHASHSEED", None)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads, entfluct.presets; "
            "print(workloads.input_hash(sys.argv[2], int(sys.argv[3]), "
            "workloads.preset_states(entfluct.presets)))")
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).resolve().parent), workload, str(seed)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=workloads.CHILD_TIMEOUT_S)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _analysis(ef, amps: np.ndarray) -> dict:
    return json.loads(json.dumps(ef.cli.build_analysis(amps, "spherical", "spin1", workloads.CE_TOL, None)))


def self_check(workload: str, seed: int, ef, input_hash: str) -> list:
    """Problems with the benchmark itself; an empty list means it checks out."""
    problems = []
    if fresh_input_hash(workload, seed) != input_hash:
        problems.append("the same seed gave other inputs in a fresh interpreter")
    for state in (np.array([0, 1, 0], dtype=complex), np.array([0.6, 0.48j, 0.64])):  # CE, then not CE
        doc = _analysis(ef, state)
        if oracle.check_analysis(doc, state, "spherical", workloads.CE_TOL):
            problems.append(f"the oracle rejects a correct analysis of {state}")
        flipped = copy.deepcopy(doc)
        flipped["ce"]["completely_entangled"] = not doc["ce"]["completely_entangled"]
        if not oracle.check_analysis(flipped, state, "spherical", workloads.CE_TOL):
            problems.append(f"the oracle accepts a flipped CE verdict on {state}")
    for path, delta in ((("fluctuations", "v_tot"), 1e-6), (("concurrence", "two_qubit_det"), 1e-6),
                        (("canonical_form", "phi"), 1e-6), (("ce", "residual"), 1e-6)):
        bad = copy.deepcopy(doc)
        bad[path[0]][path[1]] += delta
        if not oracle.check_analysis(bad, state, "spherical", workloads.CE_TOL):
            problems.append(f"the oracle accepts a corrupted {'.'.join(path)}")
    result = ef.maximize_total_variance(ef.spin_generators(1), ef.SearchConfig(restarts=2, seed=seed))
    state = result.best_state.amplitudes
    if oracle.check_search(state, result.best_value, 1, "maximize"):
        problems.append("the oracle rejects a correct search result")
    if not oracle.check_search(state, result.best_value + 1e-6, 1, "maximize"):
        problems.append("the oracle accepts a wrong search value")
    if not oracle.check_search(np.array([1, 0, 0], dtype=complex), 1.0, 1, "maximize"):
        problems.append("the oracle accepts a coherent state as a maximum")
    return problems


def _prepare(workload: str, seed: int, ef):
    if workload == "analyze-bulk":
        return workloads.bulk_prepare(seed, ef.cli)
    if workload == "analyze-cold":
        return workloads.cold_prepare(seed, SRC, ef.presets)
    return workloads.search_prepare(seed, ef)


def _child_seconds(env, code: str) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                   capture_output=True, timeout=workloads.CHILD_TIMEOUT_S)
    return perf_counter() - t0


def setup(workload: str, seed: int, ef):
    """Set up SETUP_REPEATS times: a fresh interpreter importing the package,
    plus this workload's input preparation and warm-up in-process. The import
    is scaled by a bare interpreter start and a numpy import timed just
    before it, the preparation by the in-process yardstick. Returns the last
    preparation and the median set-up time, scaled and raw."""
    env = workloads.child_env(SRC)
    raw, nominal = [], []
    for _ in range(SETUP_REPEATS):
        probes = [_child_seconds(env, code) for code in ("pass", "import numpy")]
        imported = _child_seconds(env, "import entfluct.cli")
        before = workloads.yardstick()
        t0 = perf_counter()
        prep = _prepare(workload, seed, ef)
        prepared = perf_counter() - t0
        yard = (before + workloads.yardstick()) / 2
        raw.append(imported + prepared)
        nominal.append(float(workloads.scaled(imported, workloads.child_yard(*probes))
                             + workloads.scaled(prepared, yard)))
    return prep, (median(nominal), median(raw))


MEASURE = {
    "analyze-bulk": workloads.bulk_measure,
    "analyze-cold": workloads.cold_measure,
    "search": workloads.search_measure,
}
MEANING = {
    "analyze-bulk": ("states analyzed per second (analyze_states_per_s)",
                     "median per-state latency (analyze_p50_us / 1000)",
                     "p90 per-state latency"),
    "analyze-cold": ("CLI processes completed per second",
                     "median per-process wall time (cold_analyze_p50_ms)",
                     "p90 per-process wall time (cold_analyze_p90_ms)"),
    "search": ("suite passes per second",
               "median suite pass wall time (search_suite_s * 1000)",
               "p90 suite pass wall time"),
}
RUSAGE_OF = {
    "analyze-bulk": resource.RUSAGE_SELF,
    "analyze-cold": resource.RUSAGE_CHILDREN,
    "search": resource.RUSAGE_SELF,
}


def end_to_end(workload: str, out, setup: tuple) -> dict:
    """name -> (value, unit, samples, meaning), from untraced operations,
    scaled to the nominal machine speed; the meaning quotes the raw value."""
    raw = np.asarray(out.latencies, dtype=float)
    lat = workloads.scaled(raw, out.yards)
    n = int(lat.size)
    if not n:
        raise SystemExit("error: no operation completed")
    q = TAIL[workload]
    who = RUSAGE_OF[workload]
    rss = resource.getrusage(who).ru_maxrss / 1024.0
    rate, p50, slow = MEANING[workload]
    setup_s, setup_raw = setup
    metrics = {
        "setup_s": (setup_s, "s", SETUP_REPEATS,
                    f"median set-up: package import in a fresh interpreter + input preparation (raw {setup_raw:.4g} s)"),
        "throughput_per_s": (n / float(lat.sum()), "1/s", n, f"{rate} (raw {n / raw.sum():.4g})"),
        "latency_p50_ms": (float(np.median(lat)) * 1e3, "ms", n, f"{p50} (raw {np.median(raw) * 1e3:.4g})"),
        "latency_tail_ms": (float(np.percentile(lat, q)) * 1e3, "ms", n,
                            f"{slow} (raw {np.percentile(raw, q) * 1e3:.4g})"),
        "peak_rss_mb": (rss, "MB", 1, "peak resident memory of the " +
                        ("largest child process" if who == resource.RUSAGE_CHILDREN else "benchmark process")),
    }
    if workload == "analyze-bulk":  # reported, but too noisy to bound (bench/README.md)
        metrics["latency_p99_ms"] = (float(np.percentile(lat, 99)) * 1e3, "ms", n,
                                     f"p99 per-state latency (raw {np.percentile(raw, 99) * 1e3:.4g})")
    return metrics


def per_layer(out, spec: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json; a layer this workload does
    not reach reads 0 with 0 samples."""
    traced = workloads.scaled(out.traced_latencies, out.traced_yards)
    plain = workloads.scaled(out.latencies, out.yards)
    overhead = (float(np.median(traced)) - float(np.median(plain))) * 1e3 if traced.size and plain.size else 0.0
    layer = dict(out.layer)
    layer["trace.overhead_ms_per_op"] = (overhead, min(traced.size, plain.size))
    metrics = {}
    for m in spec["per_layer"]:
        value, samples = layer.pop(m["name"], (0.0, 0))
        metrics[m["name"]] = (value, m["unit"], samples, "" if samples else "not reached by this workload")
    for name, (value, samples) in layer.items():  # measured, but not in BENCHMARK.json
        metrics[name] = (value, "", samples, "extra")
    return metrics


def run_one(args, spec: dict) -> int:
    ef = import_package()
    presets = workloads.preset_states(ef.presets)
    meta = metadata()
    meta.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                input_hash=workloads.input_hash(args.workload, args.seed, presets))
    problems = self_check(args.workload, args.seed, ef, meta["input_hash"])
    prep, setup_times = setup(args.workload, args.seed, ef)
    tracer = Tracer() if args.trace else None
    out = MEASURE[args.workload](prep, args.seconds, tracer)
    if tracer is not None:
        orphans = tracer.orphan_spans()
        if orphans:
            problems.append(f"{orphans} traced spans have no parent in their operation")
        tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = per_layer(out, spec)
    else:
        metrics = end_to_end(args.workload, out, setup_times)
    meta["loadavg_end"] = list(os.getloadavg())
    correct = out.failed == 0 and not problems
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    detail = {
        "meta": meta,
        "failed_fraction": out.failed / max(out.attempted, 1),
        "failures": out.problems,
        "self_check": problems,
        "metrics": {k: {"value": v, "unit": u, "samples": n, "meaning": w} for k, (v, u, n, w) in metrics.items()},
    }
    print(f"entfluct benchmark: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit, samples, meaning) in metrics.items():
        print(f"  {name:<40} {value:>16.6f} {unit:<9} n={samples:<8} {meaning}")
    print(f"  {'failed_fraction':<40} {detail['failed_fraction']:>16.6f} {'ratio':<9} "
          f"n={out.attempted:<8} {out.failed} of {out.attempted} operations failed")
    for p in out.problems + problems:
        print(f"  problem: {p}")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _, _) in metrics.items() if k in wanted},
    }))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            sys.stdout.write(proc.stdout.split("\ndetail ", 1)[0].rstrip("\n") + "\n")
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                ok = False
                continue
            ok = ok and json.loads(lines[-1])["correct"]
    print("all workloads correct" if ok else "FAILED: see problems above")
    return 0 if ok else 1


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload; without it, run them all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
