"""The benchmark harness in bench/ drives the package through its public
names; this runs a small slice of each workload so a change that breaks the
harness shows here and not only in a full benchmark run. bench/ is read, not
changed."""

import json
import sys
from pathlib import Path

import pytest

import entfluct
import entfluct.cli
import entfluct.core
import entfluct.presets

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, traced_module  # noqa: E402


def test_bulk_batch_and_presets_pass_the_oracle():
    states = workloads.bulk_batch(0, 0)
    for pid, (amps, basis) in workloads.preset_states(entfluct.presets).items():
        states.append((amps, basis, entfluct.presets.PRESETS[pid].system))
    tracer = Tracer()
    build = tracer.wrap("cli.build_analysis", entfluct.cli.build_analysis)  # as the traced analyze-bulk run does
    with traced_module(tracer, entfluct.cli):
        for amps, basis, system in states:
            doc = json.loads(json.dumps(build(amps, basis, system, workloads.CE_TOL, None)))
            assert oracle.check_analysis(doc, amps, basis, workloads.CE_TOL) == [], (basis, amps)
    # the closed-form layer shows as spans inside build_analysis
    spans, build_id = tracer.spans(), tracer.names.index("cli.build_analysis")
    for name in ("core.spin1_expectations", "core.pair_expectations", "core.variance_report", "core.canonical"):
        picked = spans["name"] == tracer.names.index(name)
        assert picked.any(), name
        assert (spans["name"][spans["parent"][picked]] == build_id).all(), name
    assert tracer.orphan_spans() == 0
    assert entfluct.cli.variance_report is entfluct.core.variance_report  # unwrapped again


_PROBLEMS = workloads.search_problems(0, 0)


@pytest.mark.parametrize("label,j,restarts,mode,seed", _PROBLEMS, ids=[p[0] for p in _PROBLEMS])
def test_search_problems_pass_the_oracle(label, j, restarts, mode, seed):
    solve = workloads._solver(entfluct, lambda name, fn: fn)
    result = solve(j, restarts, mode, seed)
    assert oracle.check_search(result.best_state.amplitudes, result.best_value, j, mode) == []
    assert oracle.restart_hits(result.restart_values, j, mode) >= 1
