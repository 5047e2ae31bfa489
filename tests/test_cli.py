import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entfluct.cli import main

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
        monkeypatch.setattr("entfluct.cli.pure_concurrence", lambda chi: 0.5)
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

        monkeypatch.setattr("entfluct.cli.fluctuation_report", broken)
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
        argv = ["search", "--step-tol", "1e-300", "--max-iter", "5", "--format", "json"]
        code, out, err = run(capsys, monkeypatch, argv)
        assert code == 1
        doc = json.loads(out)
        assert doc["converged"] is False
        _, converged, _ = run(capsys, monkeypatch, ["search", "--format", "json"])
        assert list(doc) == list(json.loads(converged))
        assert err.startswith("not converged:")
        assert len(err.splitlines()) == 1
        assert "--step-tol 1e-300" in err and "--max-iter 5" in err

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

    def test_defaults_come_from_the_code_that_reads_them(self):
        from entfluct.algebra import CE_TOL_DEFAULT
        from entfluct.cli import build_parser
        from entfluct.variational import SearchConfig

        parser = build_parser()
        search = vars(parser.parse_args(["search"]))
        assert {k: search[k] for k in vars(SearchConfig())} == vars(SearchConfig())
        assert parser.parse_args(["analyze"]).tol == CE_TOL_DEFAULT
        assert parser.parse_args(["preset", "analyze", "ce-psi0"]).tol == CE_TOL_DEFAULT


def _cli_env(**extra):
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""), **extra}


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
