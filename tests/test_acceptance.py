"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import io
import json

import numpy as np
import pytest

from entfluct import (
    SearchConfig,
    StateVector,
    canonical_form,
    ce_basis,
    concurrence_from_phi,
    concurrence_spherical,
    embed_symmetric,
    fluctuation_report,
    local_two_qubit_basis,
    maximize_total_variance,
    minimize_total_variance,
    project_spin1,
    pure_concurrence,
    rotate_basis,
    sector_split,
    singlet,
    spin_generators,
    spin_projection_operator,
    to_cartesian,
    total_variance,
)
from entfluct.cli import main as cli_main
from entfluct.presets import PRESETS
from entfluct.variational import _value_and_gradient
from util import random_orthogonal, random_orthonormal_pair, random_state, state_from_canonical

SPIN1 = spin_generators(1)
LOCAL = local_two_qubit_basis()


def report(n, name, ok):
    print(f"ACCEPTANCE {n} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({name}) failed"


def test_criterion_1_four_oracle_concurrence_agreement():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        psi = random_state(rng, 3)
        values = [
            concurrence_spherical(psi),
            concurrence_from_phi(canonical_form(to_cartesian(psi)).phi),
            fluctuation_report(psi, SPIN1, (1.0, 2.0)).concurrence_variance,
            pure_concurrence(embed_symmetric(psi)),
        ]
        worst = max(worst, max(abs(a - b) for a in values for b in values))
    report(1, "four-oracle concurrence agreement", worst <= 1e-9)


def test_criterion_2_variational_extremality():
    ok = True
    for seed in (0, 1, 2):
        rmax = maximize_total_variance(SPIN1, SearchConfig(seed=seed, restarts=16))
        ok &= abs(rmax.best_value - 2.0) <= 1e-8
        flag = fluctuation_report(rmax.best_state, SPIN1).ce_residual <= 1e-8
        ok &= flag
        rmin = minimize_total_variance(
            SPIN1, SearchConfig(seed=seed, restarts=16, mode="minimize")
        )
        ok &= abs(rmin.best_value - 1.0) <= 1e-8
        phi = canonical_form(to_cartesian(rmin.best_state)).phi
        ok &= abs(phi - np.pi / 4) <= 1e-6
    report(2, "variational reproduction of the extremality principle", ok)


def test_criterion_3_ce_basis_certification():
    ok = True
    for psi in ce_basis():
        residual = fluctuation_report(psi, SPIN1).ce_residual
        ok &= residual <= 1e-12
        ok &= abs(concurrence_spherical(psi) - 1.0) <= 1e-12
        cart = to_cartesian(psi)
        form = canonical_form(cart)
        ok &= form.phi <= 1e-12
        op = spin_projection_operator(form.mu)
        ok &= np.linalg.norm(op @ cart.amplitudes) <= 1e-9
    report(3, "CE basis certification", ok)


def test_criterion_4_basis_independence():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(200):
        psi = random_state(rng, 3)
        rotated = rotate_basis(SPIN1, random_orthogonal(rng))
        worst = max(
            worst, abs(total_variance(psi, SPIN1) - total_variance(psi, rotated))
        )
    report(4, "basis-independence of the total variance", worst <= 1e-10)


def test_criterion_5_gradient_correctness():
    rng = np.random.default_rng(1005)
    h = 1e-6
    ok = True
    for basis, dim, label in ((SPIN1, 3, "spherical"), (LOCAL, 4, "qubit-pair")):
        for _ in range(100):
            psi = random_state(rng, dim, label)
            delta = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            g = _value_and_gradient(psi.amplitudes[None], basis)[1][0]
            analytic = np.vdot(delta, g).real

            def value(vec):
                vec = vec / np.linalg.norm(vec)
                return total_variance(StateVector(vec, label), basis)

            fd = (value(psi.amplitudes + h * delta) - value(psi.amplitudes - h * delta)) / (2 * h)
            ok &= abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))
    report(5, "gradient matches central finite differences", ok)


def test_criterion_6_clebsch_gordan_integrity():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(100):
        psi = random_state(rng, 3)
        back = project_spin1(embed_symmetric(psi))
        ok &= np.max(np.abs(back.amplitudes - psi.amplitudes)) <= 1e-12
    try:
        project_spin1(singlet())
        ok = False
    except ValueError:
        pass
    for _ in range(500):
        chi = random_state(rng, 4, "qubit-pair")
        symmetric, anti = sector_split(chi)
        total = np.sum(np.abs(symmetric) ** 2) + abs(anti) ** 2
        ok &= abs(total - 1.0) <= 1e-12
    report(6, "Clebsch-Gordan integrity", ok)


def test_criterion_7_degenerate_landscape():
    rng = np.random.default_rng(1007)
    half = spin_generators(0.5)
    ok = True
    for _ in range(200):
        psi = random_state(rng, 2)
        ok &= abs(total_variance(psi, half) - 0.5) <= 1e-12
    result = maximize_total_variance(half)
    ok &= result.converged
    ok &= abs(result.best_value - 0.5) <= 1e-12
    report(7, "degenerate spin-1/2 landscape", ok)


def _cli_json(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_8_preset_regression(capsys, monkeypatch):
    ok = True
    for preset in PRESETS.values():
        if preset.state is None:
            code, _ = _cli_json(capsys, monkeypatch, ["preset", "analyze", preset.id])
            ok &= code == 2
            continue
        code, out = _cli_json(
            capsys, monkeypatch, ["preset", "analyze", preset.id, "--format", "json"]
        )
        ok &= code == 0
        doc = json.loads(out)
        if preset.system == "spin1":
            measured = doc["concurrence"]["spherical_formula"]
        else:
            measured = doc["concurrence"]["two_qubit_det"]
        ok &= abs(measured - preset.expected_concurrence) <= 1e-9
        # CE label: expected concurrence 1 marks CE presets, 0 coherent ones
        ok &= doc["ce"]["completely_entangled"] == (preset.expected_concurrence == 1.0)
        # bit-stable JSON round trip through re-analysis
        code, out2 = _cli_json(
            capsys, monkeypatch,
            ["analyze", "--system", preset.system, "--format", "json"],
            json.dumps(doc["state"]),
        )
        ok &= code == 0
        doc2 = json.loads(out2)
        doc2["input"] = doc["input"]  # echo differs by construction, nothing else may
        ok &= json.dumps(doc2) == json.dumps(doc)
    report(8, "preset regression and CLI round trip", ok)


def test_criterion_9_canonical_form_robustness():
    rng = np.random.default_rng(1009)
    states = [to_cartesian(random_state(rng, 3)) for _ in range(800)]
    for _ in range(100):
        mu, nu = random_orthonormal_pair(rng)
        states.append(
            state_from_canonical(rng.uniform(0, np.pi), rng.uniform(0, 1e-6), mu, nu)
        )
    for _ in range(100):
        mu, nu = random_orthonormal_pair(rng)
        states.append(
            state_from_canonical(
                rng.uniform(0, np.pi), np.pi / 4 - rng.uniform(0, 1e-6), mu, nu
            )
        )
    ok = True
    for psi in states:
        form = canonical_form(psi)
        rebuilt = state_from_canonical(form.theta, form.phi, form.mu, form.nu)
        ok &= np.max(np.abs(rebuilt.amplitudes - psi.amplitudes)) <= 1e-9
        r = random_orthogonal(rng)
        a = r @ psi.amplitudes
        rotated = StateVector(a / np.linalg.norm(a), "cartesian")
        ok &= abs(canonical_form(rotated).phi - form.phi) <= 1e-9
    report(9, "canonical form reconstruction and rotation invariance", ok)
