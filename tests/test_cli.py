import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entfluct.cli
from entfluct import (StateVector, embed_symmetric, local_two_qubit_basis, pure_concurrence, spin_generators,
                      to_spherical)
from entfluct.cli import build_analysis, build_parser, main
from entfluct.core import CE_TOL_DEFAULT, SQRT2, cartesian_of, spherical_of
from entfluct.presets import PRESETS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (bench/workloads.py: the benchmark's seeded and edge states)

SQ2 = np.sqrt(2.0)


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def state_json(components, basis):
    return json.dumps(
        {"basis": basis, "components": [[c.real, c.imag] for c in map(complex, components)]}
    )


class TestAnalyze:
    def test_ce_state(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["analyze", "--format", "json"],
            state_json([0, 1, 0], "spherical"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ce"]["completely_entangled"] is True
        for value in (
            doc["concurrence"]["spherical_formula"],
            doc["concurrence"]["canonical_phi"],
            doc["concurrence"]["variance_ratio"],
            doc["concurrence"]["two_qubit_det"],
        ):
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_coherent_state(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["analyze", "--format", "json"],
            state_json([1, 0, 0], "spherical"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ce"]["completely_entangled"] is False
        assert doc["ce"]["residual"] == pytest.approx(1.0)
        assert doc["concurrence"]["spherical_formula"] == pytest.approx(0.0, abs=1e-9)

    def test_cartesian_input(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["analyze", "--format", "json"],
            state_json([0, 0, 1], "cartesian"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["canonical_form"]["phi"] == pytest.approx(0.0)

    def test_near_real_theta_stays_below_pi(self, capsys, monkeypatch):
        # theta = -1e-17 folds to 0, not to pi - 1e-17, which rounds to pi
        stdin = json.dumps({"basis": "cartesian", "components": [[1, -1e-17], [0, 0], [0, 0]]})
        code, out, _ = run(capsys, monkeypatch, ["analyze", "--format", "json"], stdin)
        assert code == 0
        assert 0.0 <= json.loads(out)["canonical_form"]["theta"] < np.pi

    def test_two_qubit(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["analyze", "--system", "two-qubit", "--format", "json"],
            state_json([0, 1 / SQ2, -1 / SQ2, 0], "qubit-pair"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["concurrence"]["two_qubit_det"] == pytest.approx(1.0)
        assert doc["ce"]["completely_entangled"] is True

    def test_malformed_json_exits_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["analyze"], "{not json")
        assert code == 2
        assert "error" in err

    def test_unnormalized_rejected_without_flag(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["analyze"], state_json([1, 1, 0], "spherical")
        )
        assert code == 2
        assert "--normalize" in err

    @pytest.mark.parametrize("argv", [["analyze"], ["convert", "--to", "cartesian"]], ids=["analyze", "convert"])
    def test_zero_vector_does_not_suggest_normalize(self, capsys, monkeypatch, argv):
        # --normalize cannot rescue the zero vector, so the message must not offer it
        code, out, err = run(capsys, monkeypatch, argv, state_json([0, 0, 0], "spherical"))
        assert (code, out) == (2, "")
        assert "cannot normalize the zero vector" in err and "--normalize" not in err

    def test_normalize_flag_records_norm(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["analyze", "--normalize", "--format", "json"],
            state_json([2, 0, 0], "spherical"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["input"]["original_norm"] == pytest.approx(2.0)

    def test_normalize_rescues_a_norm_just_outside_tolerance(self, capsys, monkeypatch):
        # |a| - 1 = 8e-13 but |a|^2 - 1 = 1.6e-12, outside StateVector's 1e-12
        stdin = '{"basis": "spherical", "components": [[1.0000000000008, 0], [0, 0], [0, 0]]}'
        code, _, err = run(capsys, monkeypatch, ["analyze"], stdin)
        assert code == 2
        assert "--normalize" in err
        code, out, _ = run(capsys, monkeypatch, ["analyze", "--normalize", "--format", "json"], stdin)
        assert code == 0
        assert json.loads(out)["input"]["original_norm"] == pytest.approx(1.0000000000008, abs=1e-15)

    @pytest.mark.parametrize("argv", [["analyze"], ["convert", "--to", "cartesian"]], ids=["analyze", "convert"])
    def test_normalize_rescues_a_state_at_the_norm_boundary(self, capsys, monkeypatch, argv):
        # |a|^2 - 1 lies within 1e-12 as np.linalg.norm(a)**2 but not as sum_k |a_k|^2,
        # StateVector's test: the reader must give the same verdict as StateVector
        stdin = ('{"basis":"spherical","components":[[0.38859108966327255,-0.5692417688590531],'
                 '[-0.26632203233035384,0.4856867323458623],[0.4669348954697582,-0.01065599037168521]]}')
        code, _, err = run(capsys, monkeypatch, argv, stdin)
        assert code == 2
        assert "--normalize" in err
        code, out, _ = run(capsys, monkeypatch, [*argv, "--normalize", "--format", "json"], stdin)
        assert code == 0
        if argv == ["analyze"]:
            assert json.loads(out)["input"]["original_norm"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("flags", [[], ["--normalize"]])
    def test_non_finite_component_exits_2(self, capsys, monkeypatch, flags):
        stdin = '{"basis": "spherical", "components": [[NaN, 0], [1, 0], [0, 0]]}'
        code, out, err = run(capsys, monkeypatch, ["analyze", *flags], stdin)
        assert code == 2
        assert out == ""
        assert "non-finite" in err

    @pytest.mark.parametrize("components,basis,system", [
        ([1e300, 1e300, 0], "spherical", "spin1"),
        ([1e-200, 0, 0, 1e-200], "qubit-pair", "two-qubit"),
        ([1e-160, 3e-161, 0], "spherical", "spin1"),
    ], ids=["overflowing-square", "underflowing-square", "subnormal-square"])
    def test_finite_nonzero_state_of_extreme_norm(self, capsys, monkeypatch, components, basis, system):
        # sum_k |a_k|^2 overflows or underflows a float, the norm itself does not
        stdin, norm = state_json(components, basis), math.hypot(*components)
        code, out, err = run(capsys, monkeypatch, ["analyze", "--system", system], stdin)
        assert (code, out) == (2, "")
        assert "--normalize" in err and "non-finite" not in err and "norm 0.0" not in err
        code, out, err = run(capsys, monkeypatch, ["analyze", "--system", system, "--normalize", "--format", "json"],
                             stdin)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["input"]["original_norm"] == pytest.approx(norm, rel=1e-15)
        state = np.array(doc["state"]["components"]) @ [1, 1j]
        assert np.max(np.abs(state - np.array(components) / norm)) <= 1e-15

    def test_decompose_rescales_a_pair_whose_squared_norm_underflows(self, capsys, monkeypatch):
        stdin = state_json([1e-200, 0, 0, 1e-200], "qubit-pair")
        code, out, err = run(capsys, monkeypatch, ["decompose", "--normalize", "--format", "json"], stdin)
        assert code == 0, err
        assert json.loads(out)["symmetric_weight"] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("flags", [[], ["--normalize"]])
    def test_norm_beyond_the_largest_float_exits_2(self, capsys, monkeypatch, flags):
        # every amplitude is finite, but the norm, the original_norm of the JSON, is not
        stdin = state_json([1.5e308, 1.5e308, 0], "spherical")
        code, out, err = run(capsys, monkeypatch, ["analyze", *flags], stdin)
        assert (code, out) == (2, "")
        assert "norm overflows a float" in err

    def test_wrong_dimension_exits_2(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, monkeypatch, ["analyze"], state_json([1, 0, 0, 0], "qubit-pair")
        )
        assert code == 2

    def test_state_within_norm_tolerance_is_consistent(self, capsys, monkeypatch):
        # |a|^2 - 1 = 1e-13 is accepted; the variance route must see a / |a|
        stdin = '{"basis": "spherical", "components": [[1.00000000000005, 0], [0, 0], [0, 0]]}'
        code, out, _ = run(capsys, monkeypatch, ["analyze", "--format", "json"], stdin)
        assert code == 0
        doc = json.loads(out)
        assert doc["concurrence"]["consistent"] is True
        assert doc["concurrence"]["variance_ratio"] <= 5e-8
        assert doc["fluctuations"]["v_tot"] == pytest.approx(1.0, abs=1e-15)

    def test_pair_within_norm_tolerance_stays_below_v_max(self, capsys, monkeypatch):
        stdin = state_json([0.70710678118658, 0, 0, 0.70710678118658], "qubit-pair")
        code, out, _ = run(capsys, monkeypatch, ["analyze", "--system", "two-qubit", "--format", "json"], stdin)
        assert code == 0
        fl = json.loads(out)["fluctuations"]
        assert fl["v_tot"] <= fl["v_max"]
        assert fl["v_tot"] == pytest.approx(1.5, abs=1e-15)

    def test_two_qubit_variance_route_cross_checks_det(self, capsys, monkeypatch):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            a /= np.linalg.norm(a)
            code, out, _ = run(
                capsys, monkeypatch,
                ["analyze", "--system", "two-qubit", "--format", "json"],
                state_json(a, "qubit-pair"),
            )
            assert code == 0
            doc = json.loads(out)
            fl, conc = doc["fluctuations"], doc["concurrence"]
            assert (fl["v_min"], fl["v_max"]) == (1.0, 1.5)
            det = 2 * abs(a[0] * a[3] - a[1] * a[2])
            assert fl["v_tot"] == pytest.approx(1 + det**2 / 2, abs=1e-12)
            assert conc["variance_ratio"] == pytest.approx(det, abs=5e-8)
            assert conc["max_pairwise_delta"] == abs(conc["variance_ratio"] - conc["two_qubit_det"])
            assert conc["consistent"] is True

    def test_two_qubit_variance_route_margin(self, capsys, monkeypatch):
        # a product pair whose <C>, rounded from the operator sum, put the
        # variance route 4.21e-8 from the determinant, near the 5e-8 band;
        # with the exact Casimir 3/2 it is within 3e-8
        pair = [(0.41191320682624416+0.01234871925283476j), (-0.053281088491878056-0.054399925755126984j),
                (0.15734670377192356+0.8788639742338683j), (0.09160228840626346-0.13720766460583955j)]
        code, out, _ = run(
            capsys, monkeypatch, ["analyze", "--system", "two-qubit", "--format", "json"], state_json(pair, "qubit-pair")
        )
        assert code == 0
        conc = json.loads(out)["concurrence"]
        assert conc["consistent"] is True
        assert conc["max_pairwise_delta"] <= 3e-8

    def test_two_qubit_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr("entfluct.cli.pair_concurrence", lambda *args: 0.5)
        code, out, err = run(
            capsys, monkeypatch,
            ["analyze", "--system", "two-qubit", "--format", "json"],
            state_json([1 / SQ2, 0, 0, 1 / SQ2], "qubit-pair"),
        )
        assert code == 1
        assert "inconsistency" in err
        conc = json.loads(out)["concurrence"]
        assert conc["consistent"] is False
        assert conc["max_pairwise_delta"] == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("system,oracle", [
        ("spin1", "spherical_formula"), ("spin1", "canonical_phi"), ("spin1", "variance_ratio"),
        ("spin1", "two_qubit_det"), ("two-qubit", "variance_ratio"), ("two-qubit", "two_qubit_det"),
    ])
    def test_non_finite_concurrence_fails_the_cross_check(self, capsys, monkeypatch, system, oracle, bad):
        # max() drops a NaN unless it comes first, and an infinity in one oracle would read as a
        # delta: whichever oracle of either system yields one, the cross-check must not pass
        report = entfluct.cli.variance_report
        patch = {
            "spherical_formula": ("spherical_concurrence", lambda *args: bad),
            "canonical_phi": ("concurrence_from_phi", lambda phi: bad),
            "variance_ratio": ("variance_report", lambda *args: (*report(*args)[:2], bad)),
            "two_qubit_det": ("pair_concurrence", lambda *args: bad),
        }
        monkeypatch.setattr(entfluct.cli, *patch[oracle])
        state = {"spin1": state_json([0.6, 0.48j, 0.64], "spherical"),
                 "two-qubit": state_json([0.6, 0.48j, 0, 0.64], "qubit-pair")}[system]
        code, out, err = run(capsys, monkeypatch, ["analyze", "--system", system, "--format", "json"], state)
        assert code == 1
        assert "inconsistency" in err
        conc = json.loads(out)["concurrence"]
        assert repr(conc[oracle]) == repr(bad)
        assert math.isnan(conc["max_pairwise_delta"])
        assert conc["consistent"] is False

    @pytest.mark.parametrize("bad", ["-1", "0", "nan", "inf"])
    def test_bad_tol_exits_2(self, capsys, monkeypatch, bad):
        code, out, err = run(
            capsys, monkeypatch, ["analyze", f"--tol={bad}"], state_json([1, 0, 0], "spherical")
        )
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_internal_error_exits_1(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("total variance is negative beyond tolerance")

        monkeypatch.setattr("entfluct.cli.variance_report", broken)
        code, out, err = run(capsys, monkeypatch, ["analyze"], state_json([0, 1, 0], "spherical"))
        assert code == 1
        assert out == ""
        assert err.startswith("internal error:")

    def test_text_format(self, capsys, monkeypatch):
        """Text output states the JSON document: each leaf key path on one line, in
        document order, the float leaves to 12 digits, with the same exit code."""
        def leaves(doc, prefix=""):
            for key, value in doc.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{key}.")
                else:
                    yield prefix + key, value

        singlet = state_json([0, 1 / SQ2, -1 / SQ2, 0], "qubit-pair")
        cases = [
            (["analyze", "--normalize"], state_json([1.2, 1.6j, 0], "spherical")),  # norm 2
            (["analyze", "--system", "two-qubit"], singlet),
            (["search", "--restarts", "2"], ""),
            (["convert", "--to", "cartesian"], state_json([0.6, 0, 0.8j], "spherical")),
            (["decompose"], singlet),  # spin1_component is None
            (["decompose"], state_json([0, 1, 0, 0], "qubit-pair")),
            (["preset", "show", "pion-zero"], ""),
            (["preset", "show", "he3-B"], ""),  # label-only: state is None
        ]
        for argv, stdin in cases:
            code, out, _ = run(capsys, monkeypatch, [*argv, "--format", "json"], stdin)
            text_code, text, _ = run(capsys, monkeypatch, argv, stdin)
            assert text_code == code, argv
            expected = list(leaves(json.loads(out)))
            lines = [line.split(maxsplit=1) for line in text.splitlines()]
            assert [path for path, _ in lines] == [path for path, _ in expected], argv
            for (_, shown), (path, value) in zip(lines, expected):
                if isinstance(value, float):
                    assert float(shown) == pytest.approx(value, rel=1e-11), (argv, path)

    def test_qubit_pair_as_spin1_names_the_two_qubit_system(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["analyze"], state_json([1, 0, 0, 0], "qubit-pair"))
        assert (code, out) == (2, "")
        assert "--system two-qubit" in err
        code, _, err = run(capsys, monkeypatch, ["analyze"], state_json([1, 0, 0, 0], "spherical"))
        assert code == 2
        assert "--system" not in err

    @pytest.mark.parametrize("stdin", [
        '{"basis": ["spherical"], "components": [[1, 0], [0, 0], [0, 0]]}',
        '{"basis": "spherical", "components": [[1' + "0" * 400 + ', 0], [0, 0], [0, 0]]}',
        '{"basis": "spherical", "components": [[true, false], [0, 0], [0, 0]]}',
        '{"basis": "spherical", "components": [[0, 0], [1, null], [0, 0]]}',
        '{"basis": "spherical", "components": []}',
        '{"basis": "spherical", "components": {"re": 1, "im": 0}}',
    ], ids=["unhashable-label", "integer-beyond-float", "boolean-components", "null-component",
            "empty-components", "components-not-a-list"])
    def test_malformed_state_exits_2_not_1(self, capsys, monkeypatch, stdin):
        code, out, err = run(capsys, monkeypatch, ["analyze", "--normalize"], stdin)
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed state JSON")

    @pytest.mark.parametrize("argv,stdin,message", [
        (["analyze"], state_json([1, 0, 0], "polar"), "unknown basis label 'polar'"),
        (["analyze", "--normalize"], state_json([0, 0, 0], "spherical"), "cannot normalize the zero vector"),
        (["analyze"], state_json([1, 0], "cartesian"), "a cartesian state needs 3 amplitudes, got 2"),
        (["analyze", "--system", "two-qubit"], state_json([1, 0, 0, 0], "spherical"),
         "two-qubit analysis needs a 4-component qubit-pair state"),
        (["convert", "--to", "cartesian"], state_json([1, 0, 0, 0], "qubit-pair"),
         "convert expects a 3-component spherical or cartesian state"),
        (["decompose"], state_json([1, 0, 0], "spherical"), "decompose expects a 4-component qubit-pair state"),
        (["analyze"], state_json([1, 0, 0, 0], "spherical"),
         "spin1 analysis needs a 3-component spherical or cartesian state"),
        (["analyze", "--system", "two-qubit"], state_json([1, 0, 0], "cartesian"),
         "two-qubit analysis needs a 4-component qubit-pair state"),
    ], ids=["unknown-basis", "zero-vector", "cartesian-dimension", "two-qubit-label", "convert-qubit-pair",
            "decompose-spherical", "spin1-four-spherical", "two-qubit-cartesian"])
    def test_usage_error_names_the_fault(self, capsys, monkeypatch, argv, stdin, message):
        code, out, err = run(capsys, monkeypatch, argv, stdin)
        assert (code, out) == (2, "")
        assert message in err
        assert "--system" not in err  # the hint is for a qubit pair given to spin-1 analysis alone

    def test_json_round_trip(self, capsys, monkeypatch):
        code, out1, _ = run(
            capsys, monkeypatch,
            ["analyze", "--format", "json"],
            state_json([1 / SQ2, 0, -1 / SQ2], "spherical"),
        )
        assert code == 0
        doc1 = json.loads(out1)
        code, out2, _ = run(
            capsys, monkeypatch,
            ["analyze", "--format", "json"],
            json.dumps(doc1["state"]),
        )
        assert code == 0
        assert out1 == out2


class TestSearch:
    def test_spin1_maximize(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["search", "--system", "spin1", "--mode", "maximize", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["best_value"] == pytest.approx(2.0, abs=1e-8)
        assert doc["converged"] is True

    def test_spin1_minimize(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["search", "--mode", "minimize", "--format", "json", "--restarts", "8"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["best_value"] == pytest.approx(1.0, abs=1e-8)

    def test_two_qubit_maximize(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["search", "--system", "two-qubit", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        # local su(2)+su(2) algebra: Casimir 3/4 per qubit, zero Bloch vectors
        assert doc["best_value"] == pytest.approx(1.5, abs=1e-7)

    def test_seed_reproducibility(self, capsys, monkeypatch):
        argv = ["search", "--seed", "99", "--format", "json"]
        _, out1, _ = run(capsys, monkeypatch, argv)
        _, out2, _ = run(capsys, monkeypatch, argv)
        assert out1 == out2

    def test_invalid_flags_exit_2(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["search", "--restarts", "0"])
        assert code == 2
        code, _, _ = run(capsys, monkeypatch, ["search", "--mode", "sideways"])
        assert code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_non_finite_step_tol_exit_2(self, capsys, monkeypatch, bad):
        code, out, err = run(capsys, monkeypatch, ["search", f"--step-tol={bad}"])
        assert code == 2
        assert out == ""
        assert "step_tolerance" in err

    def test_not_converged_says_why(self, capsys, monkeypatch):
        # one Gauss-Newton step takes nearly every spin-1 restart to the rounding floor
        # of its gradient (a stall); from this seed's start it leaves ~2.5e-12
        argv = ["search", "--step-tol", "1e-300", "--max-iter", "1", "--restarts", "1", "--seed", "5889",
                "--format", "json"]
        code, out, err = run(capsys, monkeypatch, argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["converged"] is False
        _, converged, _ = run(capsys, monkeypatch, ["search", "--format", "json"])
        assert list(doc) == list(json.loads(converged))
        assert err.startswith("not converged:")
        assert len(err.splitlines()) == 1
        assert "--step-tol 1e-300" in err and "--max-iter 1" in err
        assert "the best restart stopped on cap at iteration 1 " in err

    def test_stalled_search_names_the_stall(self, capsys, monkeypatch):
        # the float rounding of V stops a pair minimization short of 1e-17
        argv = ["search", "--system", "two-qubit", "--mode", "minimize", "--step-tol", "1e-17", "--format", "json"]
        code, out, err = run(capsys, monkeypatch, argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["converged"] is False
        assert err == (f"not converged: the best restart stopped on stall at iteration {doc['iterations_used']}"
                       " (no step gained, or gradient at rounding floor), its tangent gradient above"
                       " --step-tol 1e-17\n")
        assert doc["iterations_used"] < 2000 and "--max-iter" not in err

    def test_value_tol_removed(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["search", "--value-tol", "1e-11"])
        assert code == 2


class TestPreset:
    def test_list_contains_catalog(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["preset", "list", "--format", "json"])
        assert code == 0
        ids = {p["id"] for p in json.loads(out)}
        required = {
            "ce-psi0", "ce-psi-plus", "ce-psi-minus",
            "coherent-plus1", "coherent-minus1",
            "pion-plus", "pion-minus", "pion-zero",
            "he3-A-spin", "he3-A-orbital", "he3-beta-spin", "he3-beta-orbital",
            "he3-polar-spin", "he3-polar-orbital", "he3-A1-spin", "he3-A1-orbital",
            "he3-B",
        }
        assert required <= ids

    def test_list_text(self, capsys, monkeypatch):
        # one line per preset in catalog order: id, system, C=<expected concurrence or ->, description
        code, out, _ = run(capsys, monkeypatch, ["preset", "list"])
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == list(PRESETS)
        for line, preset in zip(lines, PRESETS.values()):
            _, system, expected, description = line.split(maxsplit=3)
            assert (system, description) == (preset.system, preset.description)
            if preset.expected_concurrence is None:
                assert expected == "C=-"
            else:
                assert expected.startswith("C=") and float(expected[2:]) == preset.expected_concurrence
        assert lines[-1].split()[:3] == ["he3-B", "spin1", "C=-"]

    def test_show(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["preset", "show", "pion-zero", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["expected_concurrence"] == 1.0

    def test_analyze_pion_zero(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["preset", "analyze", "pion-zero", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["concurrence"]["two_qubit_det"] == pytest.approx(1.0, abs=1e-9)

    def test_analyze_pion_plus(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["preset", "analyze", "pion-plus", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["concurrence"]["two_qubit_det"] == pytest.approx(0.0, abs=1e-9)

    def test_analyze_he3_a_spin_is_ce(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["preset", "analyze", "he3-A-spin", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["ce"]["completely_entangled"] is True

    def test_unknown_id_exits_2(self, capsys, monkeypatch):
        code, _, _ = run(capsys, monkeypatch, ["preset", "analyze", "no-such-preset"])
        assert code == 2

    @pytest.mark.parametrize("action", ["show", "analyze"])
    def test_action_without_id_exits_2(self, capsys, monkeypatch, action):
        code, out, _ = run(capsys, monkeypatch, ["preset", action, "--format", "json"])
        assert (code, out) == (2, "")

    def test_label_only_preset_exits_2(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["preset", "analyze", "he3-B"])
        assert code == 2
        assert "label-only" in err


class TestConvert:
    def test_spherical_to_cartesian(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["convert", "--to", "cartesian", "--format", "json"],
            state_json([0, 1, 0], "spherical"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == "cartesian"
        assert np.allclose(doc["components"], [[0, 0], [0, 0], [1, 0]], atol=1e-15)

    def test_cartesian_to_spherical(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["convert", "--to", "spherical", "--format", "json"],
            state_json([1, 0, 0], "cartesian"),
        )
        assert code == 0
        comps = json.loads(out)["components"]
        assert np.allclose(comps, [[-1 / SQ2, 0], [0, 0], [1 / SQ2, 0]], atol=1e-15)

    def test_round_trip(self, capsys, monkeypatch):
        rng = np.random.default_rng(31)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        a /= np.linalg.norm(a)
        src = state_json(a, "spherical")
        _, out, _ = run(
            capsys, monkeypatch, ["convert", "--to", "cartesian", "--format", "json"], src
        )
        _, out2, _ = run(
            capsys, monkeypatch, ["convert", "--to", "spherical", "--format", "json"], out
        )
        back = [complex(re, im) for re, im in json.loads(out2)["components"]]
        assert np.max(np.abs(np.array(back) - a)) < 1e-12

    def test_to_its_own_basis_echoes_the_state(self, capsys, monkeypatch):
        a = np.array([0.6, 0.0, 0.8j])
        code, out, _ = run(
            capsys, monkeypatch,
            ["convert", "--to", "spherical", "--format", "json"],
            state_json(a, "spherical"),
        )
        assert code == 0
        assert json.loads(out) == json.loads(state_json(a, "spherical"))

    def test_invalid_input_exits_2(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, monkeypatch,
            ["convert", "--to", "cartesian"],
            state_json([1, 0, 0, 0], "qubit-pair"),
        )
        assert code == 2


class TestDecompose:
    def test_singlet_fully_antisymmetric(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["decompose", "--format", "json"],
            state_json([0, 1 / SQ2, -1 / SQ2, 0], "qubit-pair"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["antisymmetric_weight"] == pytest.approx(1.0)
        assert doc["spin1_component"] is None

    def test_up_down_even_split(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["decompose", "--format", "json"],
            state_json([0, 1, 0, 0], "qubit-pair"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["symmetric_weight"] == pytest.approx(0.5)
        assert doc["antisymmetric_weight"] == pytest.approx(0.5)

    def test_up_up_fully_symmetric(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch,
            ["decompose", "--format", "json"],
            state_json([1, 0, 0, 0], "qubit-pair"),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["symmetric_weight"] == pytest.approx(1.0)
        assert np.allclose(doc["spin1_component"]["components"], [[1, 0], [0, 0], [0, 0]])

    def test_invalid_input_exits_2(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, monkeypatch, ["decompose"], state_json([0, 1, 0], "spherical")
        )
        assert code == 2

    @pytest.mark.parametrize("triplet,has_spin1", [(1e-13, False), (1e-11, True)])
    def test_pure_singlet_cutoff_on_the_triplet_norm(self, capsys, monkeypatch, triplet, has_spin1):
        # a singlet with a |uu> admixture of norm `triplet`; the cutoff is 1e-12
        code, out, _ = run(
            capsys, monkeypatch, ["decompose", "--format", "json"],
            state_json([triplet, 1 / SQ2, -1 / SQ2, 0], "qubit-pair"),
        )
        assert code == 0
        spin1 = json.loads(out)["spin1_component"]
        if has_spin1:
            assert np.allclose(spin1["components"], [[1, 0], [0, 0], [0, 0]], rtol=0, atol=1e-15)
        else:
            assert spin1 is None


class TestFlags:
    """Each subcommand takes only the flags its command reads."""

    @pytest.mark.parametrize("argv", [
        ["search", "--normalize"],
        ["search", "--tol", "1e-3"],
        ["preset", "list", "--normalize"],
        ["convert", "--to", "cartesian", "--tol", "1e-3"],
        ["decompose", "--tol", "1e-3"],
        ["preset", "list", "no-such-id"],
        ["preset", "list", "--tol", "1e-3"],
        ["preset", "show", "pion-zero", "--tol", "1e-3"],
    ], ids=["search-normalize", "search-tol", "preset-normalize", "convert-tol", "decompose-tol",
            "preset-list-id", "preset-list-tol", "preset-show-tol"])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, monkeypatch, argv):
        stdin = state_json([0, 1, 0], "spherical") if argv[0] == "convert" else state_json([1, 0, 0, 0], "qubit-pair")
        code, out, err = run(capsys, monkeypatch, argv, stdin)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_preset_analyze_reads_tol(self, capsys, monkeypatch):
        # |m=+1> has CE residual 1: CE only under a tolerance above it
        for tol, verdict in (("0.5", False), ("2", True)):
            code, out, _ = run(
                capsys, monkeypatch, ["preset", "analyze", "coherent-plus1", "--tol", tol, "--format", "json"]
            )
            assert code == 0
            ce = json.loads(out)["ce"]
            assert (ce["tolerance"], ce["completely_entangled"]) == (float(tol), verdict)

    @pytest.mark.parametrize("argv,stdin,key", [
        (["analyze"], state_json([2, 0, 0], "spherical"), "input"),
        (["convert", "--to", "spherical"], state_json([2, 0, 0], "cartesian"), "components"),
        (["decompose"], state_json([2, 0, 0, 0], "qubit-pair"), "symmetric_weight"),
    ], ids=["analyze", "convert", "decompose"])
    def test_state_readers_take_normalize_and_file(self, capsys, monkeypatch, tmp_path, argv, stdin, key):
        code, _, err = run(capsys, monkeypatch, [*argv, "--format", "json"], stdin)
        assert code == 2
        assert "--normalize" in err
        path = tmp_path / "state.json"
        path.write_text(stdin)
        code, out, _ = run(capsys, monkeypatch, [*argv, "--normalize", "--file", str(path), "--format", "json"])
        assert code == 0
        assert key in json.loads(out)
        code, _, err = run(capsys, monkeypatch, [*argv, "--file", str(tmp_path / "missing.json")])
        assert code == 2
        assert "cannot read" in err

    def test_undecodable_file_exits_2(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, monkeypatch, ["analyze", "--file", str(path)])
        assert code == 2
        assert "cannot read" in err and "internal error" not in err

    def test_defaults_come_from_the_code_that_reads_them(self, capsys, monkeypatch):
        # a search flag left out is not in the namespace: the search gets SearchConfig's own defaults
        import entfluct.variational as variational
        from entfluct.records import SearchConfig

        searched = []
        for name in ("maximize_total_variance", "minimize_total_variance"):
            search = getattr(variational, name)
            monkeypatch.setattr(variational, name, lambda basis, config, search=search, **kw: (
                searched.append((search.__name__, config)) or search(basis, config, **kw)))
        for argv, want in ((["search"], ("maximize_total_variance", SearchConfig())),
                           (["search", "--mode", "minimize"],
                            ("minimize_total_variance", SearchConfig(mode="minimize")))):
            searched.clear()
            code, out, _ = run(capsys, monkeypatch, [*argv, "--format", "json"])
            assert code == 0 and json.loads(out)["mode"] == want[1].mode
            assert searched == [want]
        parser = build_parser()
        assert parser.parse_args(["analyze"]).tol == CE_TOL_DEFAULT
        assert parser.parse_args(["preset", "analyze", "ce-psi0"]).tol == CE_TOL_DEFAULT


def _cli_env(**extra):
    src = str(Path(__file__).resolve().parent.parent / "src")
    # a numpy RuntimeWarning fails a child process as pyproject.toml makes it fail an in-process test
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
            "PYTHONWARNINGS": "error::RuntimeWarning", **extra}


def test_closed_stdout_exits_1_without_a_traceback():
    proc = subprocess.Popen([sys.executable, "-m", "entfluct.cli", "preset", "list", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env())
    proc.stdout.close()  # the reader goes away before the first write
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    for text in ("internal error", "Traceback", "Exception ignored"):
        assert text not in err.decode()


def test_undecodable_stdin_exits_2():
    proc = subprocess.run([sys.executable, "-m", "entfluct.cli", "analyze"], input=b"\xff\xfe{",
                          capture_output=True, env=_cli_env(PYTHONIOENCODING="utf-8"), timeout=60)
    assert proc.returncode == 2
    assert b"cannot read stdin" in proc.stderr and b"internal error" not in proc.stderr


def _child(argv, stdin=b""):
    """(exit code, stdout, the set of modules) of `python -X importtime argv`:
    importtime names on stderr each module the child imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv], input=stdin, capture_output=True,
                          env=_cli_env(), timeout=60)
    modules = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.decode().splitlines()
               if line.startswith("import time:")}
    return proc.returncode, proc.stdout, modules


# what a cold command that needs no arrays must not import: numpy, and dataclasses
# with the inspect it imports, the largest imports left after numpy, and numbers,
# which only SearchConfig's checks read
COLD_EXCLUDED = ("numpy", "dataclasses", "inspect", "numbers")


def _excluded(modules) -> set:
    return {m for m in modules for name in COLD_EXCLUDED if m == name or m.startswith(name + ".")}


# what an `analyze` child does not compile: the preset catalog, the records
# (StateVector, SearchConfig) and `__future__`
ANALYZE_EXCLUDED = {"entfluct.presets", "entfluct.records", "__future__"}


def _parse(parser, argv):
    """(the namespace's fields or the exit code, stdout, stderr) of parser.parse_args(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestColdPath:
    """analyze, preset, convert and decompose run on entfluct.core and never
    import numpy, dataclasses, inspect or numbers; search imports numpy, and
    what else it needs, when it runs. A `-m entfluct.cli` child compiles the
    cli once, as __main__: no module it imports imports `entfluct.cli` again."""

    def test_importing_the_cli_imports_none_of_the_excluded(self):
        code, _, modules = _child(["-c", "import entfluct.cli, entfluct.twoqubit, entfluct.spin1, sys; "
                                         "assert not {'numpy', 'dataclasses', 'inspect', 'numbers', "
                                         "'entfluct.presets'} & {*sys.modules}"])
        assert code == 0
        assert "entfluct.core" in modules and not _excluded(modules) and "entfluct.presets" not in modules

    def test_a_state_is_built_and_compared_without_numpy(self):
        code, _, modules = _child(["-c", "from entfluct.records import StateVector; import sys; "
                                         "psi = StateVector((0.6, 0.8j, 0), 'spherical'); "
                                         "assert psi == StateVector([0.6, 0.8j, 0], 'spherical') and hash(psi); "
                                         "assert 'numpy' not in sys.modules"])
        assert code == 0
        assert "entfluct.records" in modules and "numpy" not in modules

    def test_the_pair_bridge_runs_without_numpy(self):
        code, _, modules = _child(["-c", "from entfluct.twoqubit import *; from entfluct.records import StateVector; "
                                         "import sys; psi = StateVector((0.6, 0.8j, 0), 'spherical'); "
                                         "chi = embed_symmetric(psi); assert project_spin1(chi) == psi; "
                                         "sector_split(chi); pure_concurrence(singlet()); "
                                         "assert 'numpy' not in sys.modules"])
        assert code == 0
        assert "entfluct.twoqubit" in modules and "numpy" not in modules

    def test_the_spin1_closed_forms_run_without_numpy(self):
        # spin1 imports numpy only in spin_projection_operator, the one function that builds an array
        code, _, modules = _child(["-c", "from entfluct.spin1 import *; from entfluct.records import StateVector; "
                                         "import sys; psi = to_cartesian(StateVector((0.6, 0.8j, 0), 'spherical')); "
                                         "form = canonical_form(psi); concurrence_spherical(to_spherical(psi)); "
                                         "zero_projection_axis(psi); expectation_magnitude_canonical(form.phi); "
                                         "ce_basis(); assert 'numpy' not in sys.modules"])
        assert code == 0
        assert "entfluct.spin1" in modules and "numpy" not in modules

    def test_the_array_modules_import_no_dataclasses(self):
        # numpy itself imports inspect, typing and numbers, but not dataclasses
        code, _, modules = _child(["-c", "import entfluct.variational, entfluct.spin1, entfluct.twoqubit, "
                                         "entfluct.presets, sys; assert 'dataclasses' not in sys.modules"])
        assert code == 0
        assert "entfluct.variational" in modules and "dataclasses" not in modules

    @pytest.mark.parametrize("basis,system,amps", [
        ("spherical", "spin1", [0.6, 0.48j, 0.64]),
        ("cartesian", "spin1", [0.6, 0.8j, 0]),
        ("qubit-pair", "two-qubit", [0.6, 0, 0, -0.8j]),
    ])
    def test_analyze_imports_none_of_the_excluded(self, basis, system, amps):
        code, out, modules = _child(["-m", "entfluct.cli", "analyze", "--system", system, "--format", "json"],
                                    state_json(amps, basis).encode())
        assert code == 0
        assert not _excluded(modules)
        assert "entfluct.core" in modules and not (ANALYZE_EXCLUDED | {"entfluct.cli"}) & modules
        assert json.loads(out) == json.loads(json.dumps(build_analysis(np.array(amps), basis, system,
                                                                       CE_TOL_DEFAULT, None)))

    @pytest.mark.parametrize("argv,stdin,key", [
        (["preset", "list"], "", "source_note"),
        (["preset", "show", "he3-A-spin"], "", "source_note"),
        (["preset", "analyze", "pion-zero"], "", "ce"),
        (["convert", "--to", "cartesian"], state_json([0.6, 0, 0.8j], "spherical"), "components"),
        (["decompose"], state_json([0, 0.6, 0.8, 0], "qubit-pair"), "spin1_component"),
    ], ids=["preset-list", "preset-show", "preset-analyze", "convert", "decompose"])
    def test_closed_form_commands_import_none_of_the_excluded(self, argv, stdin, key):
        code, out, modules = _child(["-m", "entfluct.cli", *argv, "--format", "json"], stdin.encode())
        assert code == 0
        doc = json.loads(out)
        assert key in (doc[0] if isinstance(doc, list) else doc)
        assert not _excluded(modules) and "entfluct.cli" not in modules

    def test_search_imports_numpy_when_it_runs(self):
        code, out, modules = _child(["-m", "entfluct.cli", "search", "--restarts", "2", "--format", "json"])
        assert code == 0
        assert "best_state" in json.loads(out)
        assert "numpy" in modules and "entfluct.cli" not in modules

    def test_the_invoked_commands_parser_parses_as_the_full_one(self, monkeypatch):
        # every argv of tests/traffic.py, help and usage errors too: the same namespace, or
        # the same exit code and output, where the usage line names every command
        import traffic

        seen, run = [], traffic.main
        monkeypatch.setattr(traffic, "main", lambda argv: seen.append(argv) or run(argv))
        traffic.cli_traffic(hashlib.sha256())
        assert ["analyze", "--bogus"] in seen and [] in seen
        for argv in seen:
            assert _parse(build_parser(argv), argv) == _parse(build_parser(), argv), argv
        # the parser of one command parses no other
        assert _parse(build_parser(["analyze"]), ["search"])[0] == 2 and _parse(build_parser(), ["search"])[0] != 2


class TestValidatedOnce:
    """The state is checked once, as it enters; the analysis stages run on its
    amplitudes and are not re-checked, since they keep the norm to rounding."""

    @pytest.mark.parametrize("basis,system", [
        ("spherical", "spin1"), ("cartesian", "spin1"), ("qubit-pair", "two-qubit")])
    def test_build_analysis_checks_the_state_once(self, monkeypatch, basis, system):
        # by StateVector's own rule, core.check_state, and without building a StateVector
        calls, built = [], []
        check, init = entfluct.cli.check_state, StateVector.__init__
        monkeypatch.setattr(entfluct.cli, "check_state", lambda *args: calls.append(args) or check(*args))
        monkeypatch.setattr(StateVector, "__init__", lambda psi, *args: built.append(psi) or init(psi, *args))
        rng = np.random.default_rng(3)
        for _ in range(8):
            a = [1, 1j] @ rng.normal(size=(2, 4 if system == "two-qubit" else 3))
            calls.clear()
            build_analysis(a / np.linalg.norm(a), basis, system, CE_TOL_DEFAULT, None)
            assert len(calls) == 1
        assert built == []

    def test_build_analysis_enters_no_numpy_python_frame(self):
        # a numpy input's values are taken with one tolist(), a C method, and every stage runs on
        # Python numbers: on 3- and 4-vectors numpy's Python-level wrappers (ndarray.sum, np.angle,
        # the errstate decorator, ...) would cost more than the arithmetic
        numpy_dir = os.path.join(os.path.dirname(np.__file__), "")
        states = workloads.bulk_batch(0, 0) + [
            (p.state.amplitudes, p.state.basis_label, p.system) for p in PRESETS.values() if p.state is not None]
        spin_generators(1), local_two_qubit_basis()  # each built once, on its first call
        entered = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
                entered.append(f"{frame.f_code.co_filename}:{frame.f_code.co_name}")

        sys.setprofile(profile)
        try:
            for amps, basis, system in states:
                build_analysis(amps, basis, system, CE_TOL_DEFAULT, None)
        finally:
            sys.setprofile(None)
        assert entered == []

    def test_basis_change_and_embedding_keep_the_norm(self):
        eps = np.finfo(float).eps
        rng = np.random.default_rng(0)
        states = [(amps, basis) for seed in range(2) for index in range(4)
                  for amps, basis, system in workloads.bulk_batch(seed, index) if system == "spin1"]
        states += [(np.asarray(amps(rng) if callable(amps) else amps, dtype=complex), basis)
                   for _, basis, system, amps in workloads.EDGE_STATES if system == "spin1"]
        for a, basis in states:
            assert abs(np.sum(np.abs(a) ** 2) - 1) <= 8 * eps
            sph = tuple(a.tolist()) if basis == "spherical" else spherical_of(*a.tolist())
            p, z, m = sph
            for out in (cartesian_of(*sph), sph, (p, z / SQRT2, z / SQRT2, m)):
                assert abs(np.sum(np.abs(out) ** 2) - 1) <= 8 * eps, (basis, a)

    @pytest.mark.parametrize("states", ["signed_zeros", "bulk"])
    def test_embedding_divides_as_the_analysis_does(self, states):
        # embed_symmetric embeds |0> by Python's z / SQRT2, as build_analysis does: the same
        # components, signed zeros too, and so the same 2|det| bit for bit
        if states == "signed_zeros":
            parts = (0.0, -0.0, 0.6, -0.6)
            states = [((complex(pr, pi), complex(zr, zi), complex(math.sqrt(1 - zr * zr - zi * zi), -0.0)),
                       "spherical") for pr in (0.0, -0.0) for pi in (0.0, -0.0) for zr in parts for zi in parts]
        else:
            states = [(tuple(a.tolist()), basis)
                      for a, basis, system in workloads.bulk_batch(0, 0) if system == "spin1"]
        assert states

        def bits(values):
            return np.array(values, dtype=complex).view(np.uint64).tolist()

        for amps, basis in states:
            psi = StateVector(amps, basis)
            sph = psi if basis == "spherical" else to_spherical(psi)
            p, z, m = sph.components
            chi = embed_symmetric(sph)
            assert bits(chi.components) == bits((p, z / SQRT2, z / SQRT2, m)), amps
            det = build_analysis(amps, basis, "spin1", CE_TOL_DEFAULT, None)["concurrence"]["two_qubit_det"]
            assert bits([pure_concurrence(chi)]) == bits([det]), amps


def _leaves_of(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _leaves_of(v)
    elif isinstance(value, list):
        for v in value:
            yield from _leaves_of(v)
    else:
        yield value


class TestDocumentBoundary:
    """build_analysis hands json.dumps plain Python values only, and echoes the
    validated state with the input's very values."""

    CASES = [*workloads.bulk_batch(0, 0),
             *[(p.state.amplitudes, p.state.basis_label, p.system) for p in PRESETS.values() if p.state is not None]]

    def test_every_leaf_is_a_plain_python_value(self):
        for amps, basis, system in self.CASES:
            doc = build_analysis(amps, basis, system, CE_TOL_DEFAULT, None)
            leaf_types = {type(v) for v in _leaves_of(doc)}
            assert leaf_types <= {float, int, bool, str, type(None)}, (basis, system, leaf_types)

    @pytest.mark.parametrize("tol", [CE_TOL_DEFAULT, 0.5])
    def test_ce_verdict_is_the_residual_against_the_tolerance(self, tol):
        for amps, basis, system in self.CASES:
            doc = build_analysis(amps, basis, system, tol, None)
            ce = doc["ce"]
            assert ce["completely_entangled"] is (ce["residual"] <= ce["tolerance"]), (basis, system, amps)
            assert doc["fluctuations"]["ce_residual"] == ce["residual"]

    def test_numpy_tolerance_gives_a_plain_verdict(self):
        # a library caller may pass a numpy tolerance; the verdict must still be a JSON bool
        for amps, basis, system in self.CASES:
            for tol in (np.float64(CE_TOL_DEFAULT), np.float64(0.5)):
                ce = build_analysis(amps, basis, system, tol, None)["ce"]
                assert type(ce["completely_entangled"]) is bool, (basis, system, tol)
                assert ce["completely_entangled"] == (ce["residual"] <= float(tol)), (basis, system, tol)

    def test_state_echo_is_the_input_echo(self):
        for amps, basis, system in self.CASES:
            doc = build_analysis(amps, basis, system, CE_TOL_DEFAULT, None)
            components = [[float(z.real), float(z.imag)] for z in amps]
            # json.dumps tells -0.0 from 0.0, which == does not
            assert json.dumps(doc["state"]["components"]) == json.dumps(doc["input"]["components"])
            assert json.dumps(doc["input"]["components"]) == json.dumps(components)

    @pytest.mark.parametrize("basis,system,amps", [
        ("spherical", "spin1", [complex(-0.0, -0.0), complex(-1.0, 0.0), complex(0.0, -0.0)]),
        ("cartesian", "spin1", [complex(0.6, -0.0), complex(-0.0, 0.8), complex(-0.0, 0.0)]),
        ("qubit-pair", "two-qubit", [complex(-0.0, 0.0), complex(0.6, -0.0), complex(-0.0, -0.8), 0j]),
    ])
    def test_negative_zero_echoes_as_negative_zero(self, capsys, monkeypatch, basis, system, amps):
        def signs(pairs):
            return [math.copysign(1.0, x) for pair in pairs for x in pair]

        pairs = [[z.real, z.imag] for z in amps]
        in_process = build_analysis(np.array(amps), basis, system, CE_TOL_DEFAULT, None)
        code, out, _ = run(capsys, monkeypatch, ["analyze", "--format", "json", "--system", system],
                           json.dumps({"basis": basis, "components": pairs}))
        assert code == 0
        for doc in (in_process, json.loads(out)):
            for echo in ("input", "state"):
                assert signs(doc[echo]["components"]) == signs(pairs)
