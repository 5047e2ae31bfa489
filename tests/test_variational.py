import os
import sys
import threading

import numpy as np
import pytest
from numpy.random import bit_generator

from entfluct import (
    ObservableBasis,
    SearchConfig,
    StateVector,
    canonical_form,
    fluctuation_report,
    local_two_qubit_basis,
    maximize_total_variance,
    minimize_total_variance,
    spin_generators,
    to_cartesian,
    total_variance,
)
from entfluct import variational
from entfluct.core import GRADIENT_FLOOR, STEP_TOL_DEFAULT
from entfluct.variational import _best_angle, _inner, _line_coefficients, _line_terms, _value_and_gradient
from util import non_lie_basis, random_basis, random_state

SPIN1 = spin_generators(1)


def capture_starts(monkeypatch) -> list:
    """Make the search raise StopIteration at its first evaluation; the returned list
    collects the (R, d) start states it was evaluated at."""
    starts = []

    def first_call(a, basis):
        starts.append(a.copy())
        raise StopIteration

    monkeypatch.setattr("entfluct.variational._value_and_gradient", first_call)
    return starts


def directional_derivative(psi, basis, delta, h=1e-6):
    a = psi.amplitudes

    def value(vec):
        vec = vec / np.linalg.norm(vec)
        return total_variance(StateVector(vec, psi.basis_label), basis)

    return (value(a + h * delta) - value(a - h * delta)) / (2 * h)


class TestGradient:
    def test_stationary_at_m0(self):
        psi = StateVector([0, 1, 0], "spherical")
        g = _value_and_gradient(psi.amplitudes[None], SPIN1)[1][0]
        gt = g - np.vdot(psi.amplitudes, g) * psi.amplitudes
        assert np.linalg.norm(gt) < 1e-10

    def test_stationary_at_m_plus1(self):
        psi = StateVector([1, 0, 0], "spherical")
        g = _value_and_gradient(psi.amplitudes[None], SPIN1)[1][0]
        gt = g - np.vdot(psi.amplitudes, g) * psi.amplitudes
        assert np.linalg.norm(gt) < 1e-10

    @pytest.mark.parametrize("basis,dim,label", [
        (SPIN1, 3, "spherical"),
        (local_two_qubit_basis(), 4, "qubit-pair"),
        (spin_generators(1.5), 4, "spherical"),
        (spin_generators(3), 7, "spherical"),
        (spin_generators(10), 21, "spherical"),
        (random_basis(np.random.default_rng(5), 4), 4, "qubit-pair"),
    ])
    def test_matches_finite_differences(self, basis, dim, label):
        rng = np.random.default_rng(42)
        for _ in range(100):
            psi = random_state(rng, dim, label)
            delta = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            g = _value_and_gradient(psi.amplitudes[None], basis)[1][0]
            analytic = np.vdot(delta, g).real
            fd = directional_derivative(psi, basis, delta)
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


class TestLineCoefficients:
    @pytest.mark.parametrize("basis,label", [
        (SPIN1, "spherical"),
        (spin_generators(1.5), "spherical"),
        (spin_generators(3), "spherical"),
        (spin_generators(10), "spherical"),
        (local_two_qubit_basis(), "qubit-pair"),
        (random_basis(np.random.default_rng(5), 4), "qubit-pair"),
    ])
    def test_reproduce_v_on_the_great_circle(self, basis, label):
        rng = np.random.default_rng(77)
        for _ in range(50):
            a = random_state(rng, basis.dim, label).amplitudes
            d = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
            d = d - np.vdot(a, d) * a
            d = d / np.linalg.norm(d)
            v0, _, oa, e, _, _ = _value_and_gradient(a[None], basis)
            coef = _line_coefficients(d[None], oa, e, basis)
            t = rng.uniform(0, 2 * np.pi, size=8)
            line = v0[0] + (coef[0][:, None] * _line_terms(2 * t)).sum(axis=0)
            direct = [total_variance(StateVector(a * np.cos(x) + d * np.sin(x), label), basis)
                      for x in t]
            assert np.max(np.abs(line - direct)) <= 1e-12


class TestLineSearch:
    """_best_angle against a dense circle: the gain it returns is the global one."""

    DENSE = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)

    def check_global(self, coef, sign):
        s, gain = _best_angle(sign * coef)
        dense = sign * sum(c[:, None] * term for c, term in zip(coef.T, _line_terms(self.DENSE)))
        row_scale = np.abs(coef).max(axis=1)
        assert np.all(gain >= dense.max(axis=1) - 1e-15 * row_scale)
        assert np.all(gain >= 0)
        assert np.array_equal(gain, sign * (coef.T * _line_terms(s)).sum(axis=0))

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e-1, 1.0, 10.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gain_reaches_the_dense_maximum(self, scale, sign):
        rng = np.random.default_rng(round(-np.log10(scale)) + 10)
        coef = scale * rng.normal(size=(1000, 4))
        coef[::4, 2:] = 0.0  # c2 = s2 = 0: a single sinusoid, one maximum
        self.check_global(coef, sign)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nearly_tied_maxima(self, sign):
        # cos 2(s - phi) has two equal maxima; a small eps cos(s - psi) lifts
        # one of them by about 2 eps, less than the grid's sampling error
        rng = np.random.default_rng(20)
        phi, psi = rng.uniform(0.0, 2 * np.pi, size=(2, 1000))
        eps = 10.0 ** rng.uniform(-6.0, -2.0, size=1000)
        coef = np.stack([eps * np.cos(psi), eps * np.sin(psi), np.cos(2 * phi), np.sin(2 * phi)], axis=-1)
        self.check_global(sign * coef, sign)

    def test_newton_table_holds_the_sines_at_every_grid_point(self):
        # the first Newton step reads its factors from the table at the seeds' grid indexes:
        # bit for bit what np.sin gives at those points, at any row count
        table, grid = variational._NEWTON_SINES, variational._GRID
        freq, phase = variational._NEWTON_FREQ, variational._NEWTON_PHASE
        assert table.shape == (4, len(grid))
        assert table.tobytes() == np.sin(freq * grid + phase)[:, 0].tobytes()
        for n, point in enumerate(grid):
            for rows in (1, 16):
                at_seeds = np.sin(freq * np.full((2, rows), point) + phase)
                assert at_seeds.tobytes() == table[:, np.full((2, rows), n)].tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_row_has_no_gain(self, sign):
        # a flat line gains nothing, so the restart stops on "stall"
        s, gain = _best_angle(sign * np.zeros((2, 4)))
        assert np.all(gain == 0) and not np.any(gain > 0)
        assert np.all(s == 0)


class TestMaximize:
    def test_spin1_reaches_ce(self):
        result = maximize_total_variance(SPIN1)
        assert result.best_value == pytest.approx(2.0, abs=1e-8)
        flag = fluctuation_report(result.best_state, SPIN1).ce_residual <= 1e-8
        assert flag
        assert result.converged

    def test_spin_half_constant_objective(self):
        result = maximize_total_variance(spin_generators(0.5))
        assert result.best_value == pytest.approx(0.5, abs=1e-10)
        assert result.converged
        assert result.iterations_used == 1

    def test_spin_three_half(self):
        basis = spin_generators(1.5)
        result = maximize_total_variance(basis)
        assert result.best_value == pytest.approx(15 / 4, abs=1e-8)
        candidate = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), "spherical")
        assert total_variance(candidate, basis) == pytest.approx(15 / 4, abs=1e-12)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maximize_total_variance(SPIN1, SearchConfig(mode="minimize"))

    @pytest.mark.parametrize("label,match", [("qubit-pair", "needs 4 amplitudes, got 21"),
                                             ("cartesian", "needs 3 amplitudes"), ("cylindrical", "unknown")])
    def test_state_label_checked_before_searching(self, monkeypatch, label, match):
        def no_search(*args):
            raise AssertionError("the search ran before the state label was checked")

        monkeypatch.setattr("entfluct.variational._value_and_gradient", no_search)
        with pytest.raises(ValueError, match=match):
            minimize_total_variance(spin_generators(10), SearchConfig(mode="minimize"), state_label=label)


class TestMinimize:
    def test_spin1_reaches_coherent(self):
        result = minimize_total_variance(SPIN1)
        assert result.best_value == pytest.approx(1.0, abs=1e-8)
        phi = canonical_form(to_cartesian(result.best_state)).phi
        assert phi == pytest.approx(np.pi / 4, abs=1e-6)

    def test_spin_half(self):
        result = minimize_total_variance(spin_generators(0.5))
        assert result.best_value == pytest.approx(0.5, abs=1e-10)

    def test_two_qubit_product_states(self):
        basis = local_two_qubit_basis()
        result = minimize_total_variance(basis, state_label="qubit-pair")
        assert result.best_value == pytest.approx(1.0, abs=1e-7)
        up_up = StateVector([1, 0, 0, 0], "qubit-pair")
        assert total_variance(up_up, basis) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("j", [0.5, 1, 1.5])
    def test_minimum_is_casimir_minus_j_squared(self, j):
        result = minimize_total_variance(spin_generators(j))
        assert result.best_value == pytest.approx(j * (j + 1) - j * j, abs=1e-7)


class TestExtremes:
    """Maxima are anticoherent states, V = j(j+1); minima spin coherent
    states, V = j; every restart reaches its target on the gradient test."""

    @pytest.mark.parametrize("j", [2, 2.5, 3, 10])
    @pytest.mark.parametrize("mode", ["maximize", "minimize"])
    def test_every_restart_reaches_target(self, j, mode):
        config = SearchConfig(restarts=16, seed=3, mode=mode)
        run = maximize_total_variance if mode == "maximize" else minimize_total_variance
        result = run(spin_generators(j), config)
        target = j * (j + 1) if mode == "maximize" else j
        assert np.max(np.abs(np.array(result.restart_values) - target)) <= 1e-9
        assert result.restart_stop == ("gradient",) * 16
        assert np.all(np.array(result.restart_gradients) <= config.step_tolerance)
        assert result.converged

    @pytest.mark.parametrize("j", [None, 1, 1.5, 3])
    def test_restarts_never_exceed_the_maximum(self, j):
        # V = c - sum_i <O_i>^2 with the exact Casimir c is at most c
        basis = local_two_qubit_basis() if j is None else spin_generators(j)
        v_max = 1.5 if j is None else j * (j + 1)
        for seed in range(20):
            result = maximize_total_variance(basis, SearchConfig(seed=seed))
            assert np.all(np.array(result.restart_values) <= v_max)

    def test_spin3_maximize_reaches_anticoherent_value(self):
        result = maximize_total_variance(spin_generators(3))
        assert result.best_value == pytest.approx(12.0, abs=1e-9)
        assert np.all(np.array(result.restart_gradients) <= SearchConfig().step_tolerance)


class TestConvergedFlag:
    def test_capped_best_restart_is_not_converged(self):
        # at j = 10 with this seed the cap stops both restarts, restart 0 strictly
        # the higher (V = 110 - 1.4e-10 against 110 - 4.2e-8); it is returned
        config = SearchConfig(restarts=2, seed=6, max_iterations=2)
        result = maximize_total_variance(spin_generators(10), config)
        assert result.restart_stop == ("cap", "cap")
        assert result.best_value == result.restart_values[0] > result.restart_values[1]
        assert result.iterations_used == 2 and result.best_restart == 0
        assert not result.converged
        g = _value_and_gradient(result.best_state.amplitudes[None], spin_generators(10))[1][0]
        a = result.best_state.amplitudes
        assert np.linalg.norm(g - np.vdot(a, g) * a) > config.step_tolerance

    def test_tie_prefers_a_converged_restart(self):
        # at j = 10 with this seed both restarts reach V = 110 to the last bit
        # within the cap, but only restart 1 passes the gradient test: it is returned.
        # Seed 3 is the first of seeds 0-399 that draws such a pair (61 of them do)
        config = SearchConfig(restarts=2, seed=3, max_iterations=3)
        result = maximize_total_variance(spin_generators(10), config)
        assert result.restart_stop == ("cap", "gradient")
        assert result.best_value == result.restart_values[0] == result.restart_values[1]
        assert result.converged and result.best_restart == 1
        g = _value_and_gradient(result.best_state.amplitudes[None], spin_generators(10))[1][0]
        a = result.best_state.amplitudes
        assert np.linalg.norm(g - np.vdot(a, g) * a) <= config.step_tolerance

    def test_flag_follows_returned_restart(self):
        # the returned restart: among exact ties of the best V, the first that
        # stopped on the gradient, else the first
        config = SearchConfig(restarts=4, seed=0, max_iterations=300)
        result = maximize_total_variance(spin_generators(3), config)
        tied = np.flatnonzero(np.array(result.restart_values) == result.best_value)
        best = next((k for k in tied if result.restart_stop[k] == "gradient"), tied[0])
        assert result.best_restart == best
        assert result.converged == (result.restart_stop[best] == "gradient")
        assert result.restart_gradients[best] <= config.step_tolerance


class TestIterationBudget:
    """Every restart stops on the gradient test within a budget, over the ten
    start sets of seeds 0, 16, ..., 144."""

    @pytest.mark.parametrize("basis,label,mode,budget", [
        (spin_generators(1.5), "spherical", "maximize", 12),
        (spin_generators(1.5), "spherical", "minimize", 10),
        (random_basis(np.random.default_rng(5), 4), "qubit-pair", "maximize", 12),
    ], ids=["maximize-spin-3/2", "minimize-spin-3/2", "maximize-random-C4"])
    def test_every_restart_stops_on_gradient(self, basis, label, mode, budget):
        run = maximize_total_variance if mode == "maximize" else minimize_total_variance
        for seed in range(0, 160, 16):
            config = SearchConfig(restarts=16, seed=seed, max_iterations=budget, mode=mode)
            assert run(basis, config, state_label=label).restart_stop == ("gradient",) * 16

    @pytest.mark.parametrize("j", [1.5, 2, 3, 10])
    def test_gauss_newton_maximize_within_six_line_searches(self, monkeypatch, j):
        # the damped Gauss-Newton step of <O_i> = 0 over the 640 one-restart searches of
        # seeds 0-639: the slowest takes 5, 6, 5 and 4 line searches at j = 3/2, 2, 3 and 10.
        # A search evaluates once per line search and once more for the last stop test.
        # The 16-restart searches of seeds 0, 16, ..., 624 take a median of 5, 5, 5 and 4
        # for their slowest restart, and at most 5, 7 (spin 2, seed 224), 5 and 4
        calls, basis = [], spin_generators(j)
        monkeypatch.setattr("entfluct.variational._value_and_gradient",
                            lambda a, b: calls.append(1) or _value_and_gradient(a, b))
        for seed in range(640):
            calls.clear()
            result = maximize_total_variance(basis, SearchConfig(restarts=1, seed=seed))
            assert result.restart_stop == ("gradient",)
            assert len(calls) - 1 <= 6

    @pytest.mark.parametrize("mode", ["maximize", "minimize"])
    def test_tolerance_below_the_square_root_of_the_smallest_float(self, mode):
        # no gradient meets this tolerance: every restart stops on stall,
        # and a zero direction is never divided by its norm (0 / 0, a RuntimeWarning)
        run = maximize_total_variance if mode == "maximize" else minimize_total_variance
        config = SearchConfig(step_tolerance=1e-300, max_iterations=40, mode=mode)
        result = run(SPIN1, config)
        assert result.best_value == pytest.approx(2.0 if mode == "maximize" else 1.0, abs=1e-12)
        assert np.all(np.isfinite(result.restart_gradients))


class TestRoundingFloor:
    """A step tolerance below the rounding floor of the tangent gradient (a few
    eps c sqrt(d)) is never met: such a restart stops on stall, not at the cap."""

    @pytest.mark.parametrize("basis,label,mode", [
        (local_two_qubit_basis(), "qubit-pair", "maximize"),
        (spin_generators(1.5), "spherical", "maximize"),
        (spin_generators(3), "spherical", "maximize"),
        (random_basis(np.random.default_rng(0), 4), "qubit-pair", "minimize"),
    ], ids=["qubit-pair-max", "spin-3/2-max", "spin-3-max", "random-C4-min"])
    def test_no_restart_reaches_the_cap(self, basis, label, mode):
        run = maximize_total_variance if mode == "maximize" else minimize_total_variance
        result = run(basis, SearchConfig(step_tolerance=1e-17, mode=mode), state_label=label)
        assert set(result.restart_stop) <= {"gradient", "stall"}

    @staticmethod
    def floor(basis):
        return GRADIENT_FLOOR * np.finfo(float).eps * basis.casimir * np.sqrt(basis.dim)

    def test_floor_lies_below_the_default_tolerance(self):
        # so that with the default tolerance every spin up to j = 10 stops on the gradient
        # test; at j = 40 the floor is above it, and a restart at the floor stops on stall
        assert all(self.floor(spin_generators(j)) < STEP_TOL_DEFAULT for j in np.arange(0.5, 10.5, 0.5))
        assert self.floor(spin_generators(40)) > STEP_TOL_DEFAULT

    @pytest.mark.parametrize("basis", [spin_generators(40), random_basis(np.random.default_rng(6), 81)],
                             ids=["spin-40", "haar-spin-40"])
    def test_spin_40_minimize_stops_at_its_start(self, basis):
        # the eigenvector start is the coherent state, stationary to within the floor:
        # every restart stops at iteration 1, at V = 40 (158 and 160 of these 160 on stall;
        # with the floor at 64 eps sqrt(c) the Haar rows walked in rounding noise, 6 of
        # 16 to the cap at seed 0)
        for seed in range(0, 160, 16):
            config = SearchConfig(restarts=16, seed=seed, max_iterations=1, mode="minimize")
            result = minimize_total_variance(basis, config)
            assert set(result.restart_stop) <= {"gradient", "stall"}  # a row still running would cap
            assert np.all(np.array(result.restart_gradients) <= self.floor(basis))
            assert np.max(np.abs(np.array(result.restart_values) - 40)) <= 8 * np.finfo(float).eps * basis.casimir


class TestGaussNewtonDirection:
    """Maximize searches along -sum_j x_j h_j with (G + mu I) x = r: r = <O>,
    h_i = O_i a - r_i a, G_ij = Re<h_i|h_j> and mu = |r|^2 + eps V."""

    @pytest.mark.parametrize("basis,label", [(spin_generators(1.5), "spherical"),
                                             (local_two_qubit_basis(), "qubit-pair")], ids=["spin-3/2", "qubit-pair"])
    def test_direction_solves_the_damped_normal_equations(self, monkeypatch, basis, label):
        starts, seen = [], []  # the states of each evaluation, and the unit search directions
        monkeypatch.setattr("entfluct.variational._value_and_gradient",
                            lambda a, b: starts.append(a) or _value_and_gradient(a, b))
        monkeypatch.setattr("entfluct.variational._line_coefficients",
                            lambda d, oa, e, b: seen.append(d) or _line_coefficients(d, oa, e, b))
        maximize_total_variance(basis, SearchConfig(restarts=64, seed=7, max_iterations=1), state_label=label)
        a, (d,) = starts[0], seen  # for the pair G r = (V - 1) r, so there d is also the gradient's direction
        v, g, oa, r, h, _ = _value_and_gradient(a, basis)
        assert np.array_equal(h, oa - r[:, :, None] * a[:, None, :])
        gram = (h.conj()[:, :, None, :] * h[:, None, :, :]).sum(axis=-1).real
        mu = (r**2).sum(axis=-1) + np.finfo(float).eps * v
        xi = g - (a.conj() * g).sum(axis=-1)[:, None] * a
        for row in range(len(a)):
            # d = -sum_j y_j h_j, y = x / |sum_j x_j h_j|: y from real least squares over the h_j
            span = np.concatenate([h[row].real, h[row].imag], axis=-1).T
            y = np.linalg.lstsq(span, -np.concatenate([d[row].real, d[row].imag]), rcond=None)[0]
            lhs = (gram[row] + mu[row] * np.eye(len(basis))) @ y
            scale = lhs @ r[row] / (r[row] @ r[row])  # 1 / |sum_j x_j h_j| > 0
            assert scale > 0
            assert np.linalg.norm(lhs / scale - r[row]) <= 1e-12 * np.linalg.norm(r[row])
            assert np.linalg.norm(xi[row]) > 0 and np.vdot(xi[row], d[row]).real > 0


ASCENT_BASES = [
    *[(spin_generators(j), "spherical") for j in (0.5, 1, 1.5, 10, 40)],
    (local_two_qubit_basis(), "qubit-pair"),
    (random_basis(np.random.default_rng(5), 4), "qubit-pair"),
    (random_basis(np.random.default_rng(5), 41), "spherical"),
    (non_lie_basis(np.random.default_rng(7), 4), "qubit-pair"),
]
ASCENT_IDS = ["j1/2", "j1", "j3/2", "j10", "j40", "qubit-pair", "random-C4", "random-C41", "non-lie-C4"]
# every restart stops at iteration 1, so no line search runs: V is constant at spin 1/2,
# and minimize starts at a coherent state on every basis here but the non-Lie one
AT_START = {"j1/2-maximize", *(f"{name}-minimize" for name in ASCENT_IDS[:-1])}
ASCENT_CASES = [pytest.param(basis, label, mode, f"{name}-{mode}" not in AT_START, id=f"{name}-{mode}")
                for mode in ("maximize", "minimize") for (basis, label), name in zip(ASCENT_BASES, ASCENT_IDS)]


class TestAscentByConstruction:
    """The search keeps no guard on its start or its directions (Gauss-Newton for maximize,
    the tangent gradient for minimize), because neither can lose V."""

    @pytest.mark.parametrize("basis,label", ASCENT_BASES, ids=ASCENT_IDS)
    def test_top_eigenvector_never_raises_v(self, basis, label):
        # b, the top eigenvector of sum_i <O_i>_a O_i, has <O>_a . <O>_b >= |<O>_a|^2,
        # so |<O>_b| >= |<O>_a| (Cauchy-Schwarz) and V = c - |<O>|^2 is no larger at b
        rng = np.random.default_rng(31)
        a = np.stack([random_state(rng, basis.dim, label).amplitudes for _ in range(16)])
        v, _, _, e, _, _ = _value_and_gradient(a, basis)
        top = np.linalg.eigh((e[:, :, None, None] * basis.operators).sum(axis=1))[1][..., -1]
        assert np.all(_value_and_gradient(top, basis)[0] <= v + 8 * np.finfo(float).eps * basis.casimir)

    @pytest.mark.parametrize("basis,label,mode,searches", ASCENT_CASES)
    def test_every_running_row_searches_uphill(self, monkeypatch, basis, label, mode, searches):
        # Gauss-Newton has Re<xi, d> = 4 r G (G + mu)^-1 r > 0 and the tangent gradient
        # Re<xi, d> = |xi|^2: sign * V rises along d at t = 0. Seeds 0-3 are four start sets
        states, lines = [], []
        monkeypatch.setattr("entfluct.variational._value_and_gradient",
                            lambda a, b: states.append(a) or _value_and_gradient(a, b))
        monkeypatch.setattr("entfluct.variational._line_coefficients",
                            lambda d, oa, e, b: lines.append(_line_coefficients(d, oa, e, b)) or lines[-1])
        run = maximize_total_variance if mode == "maximize" else minimize_total_variance
        sign = 1.0 if mode == "maximize" else -1.0
        for seed in range(4):
            states.clear()
            lines.clear()
            config = SearchConfig(restarts=16, seed=seed, mode=mode)
            run(basis, config, state_label=label)
            assert len(states) == len(lines) + 1  # the last evaluation only tests the gradient
            assert bool(lines) == searches
            for a, coef in zip(states, lines):
                g = _value_and_gradient(a, basis)[1]
                xi = g - (a.conj() * g).sum(axis=-1)[:, None] * a
                running = np.linalg.norm(xi, axis=-1) > config.step_tolerance
                slope = sign * 2 * (coef[:, 1] + 2 * coef[:, 3])  # d(sign * V)/dt at t = 0
                assert np.all(slope[running] > 0)


class TestFixedPoints:
    """Restarts that start at a stationary point stop on the gradient at iteration 1."""

    @pytest.mark.parametrize("basis,label,v_min", [
        *[(spin_generators(j), "spherical", j) for j in (0.5, 1, 1.5, 3, 10)],
        (local_two_qubit_basis(), "qubit-pair", 1.0),
    ], ids=["j1/2", "j1", "j3/2", "j3", "j10", "qubit-pair"])
    def test_minimize_starts_at_the_coherent_state(self, monkeypatch, basis, label, v_min):
        # the lowest eigenvector of c - 2 sum_i <O_i> O_i is the coherent state
        # along <S> (a product of two for the pair), a fixed point of the search;
        # the batch evaluates once per iteration until its slowest restart stops
        calls = []
        monkeypatch.setattr("entfluct.variational._value_and_gradient",
                            lambda a, b: calls.append(1) or _value_and_gradient(a, b))
        for seed in range(0, 160, 16):
            calls.clear()
            config = SearchConfig(restarts=16, seed=seed, mode="minimize")
            result = minimize_total_variance(basis, config, state_label=label)
            assert result.restart_stop == ("gradient",) * 16
            assert result.iterations_used == 1 and len(calls) == 1
            assert np.max(np.abs(np.array(result.restart_values) - v_min)) <= 1e-9

    def test_minimize_leaves_a_start_that_is_not_coherent(self, monkeypatch):
        # with a scalar Casimir but no Lie algebra the eigenvector start is not
        # stationary: each restart steps along the tangent gradient, and V only falls
        starts, basis = [], non_lie_basis(np.random.default_rng(7), 4)
        monkeypatch.setattr("entfluct.variational._value_and_gradient",
                            lambda a, b: starts.append(a) or _value_and_gradient(a, b))
        result = minimize_total_variance(basis, SearchConfig(mode="minimize"))
        assert result.iterations_used > 1
        assert result.restart_stop == ("gradient",) * 16
        assert np.all(np.array(result.restart_values) <= _value_and_gradient(starts[0], basis)[0])

    @pytest.mark.parametrize("mode", ["maximize", "minimize"])
    def test_one_dimensional_state_space(self, mode):
        # CP^0 is a point: its tangent space is {0}, so every restart stops at once
        run = maximize_total_variance if mode == "maximize" else minimize_total_variance
        config = SearchConfig(step_tolerance=1e-300, mode=mode)
        result = run(ObservableBasis([[[0.7]], [[1.3]]]), config)
        assert result.restart_stop == ("gradient",) * 16
        assert result.iterations_used == 1
        assert np.all(np.array(result.restart_gradients) == 0)


class TestDeterminismAndConsistency:
    # d from 4 to 81: the stacked matmuls must round a row alike at every size and row count
    @pytest.mark.parametrize("basis,label", [
        *[(spin_generators(j), "spherical") for j in (1.5, 3, 10, 40)], (local_two_qubit_basis(), "qubit-pair"),
    ], ids=["1.5", "3", "10", "40", "qubit-pair"])
    @pytest.mark.parametrize("mode", ["maximize", "minimize"])
    def test_first_restarts_are_the_shorter_search(self, basis, label, mode):
        run = maximize_total_variance if mode == "maximize" else minimize_total_variance
        batch = run(basis, SearchConfig(restarts=8, seed=2024, mode=mode), state_label=label)
        for restarts in (1, 3, 8):
            head = run(basis, SearchConfig(restarts=restarts, seed=2024, mode=mode), state_label=label)
            assert np.array(head.restart_values).tobytes() == np.array(batch.restart_values[:restarts]).tobytes()
            assert head.restart_stop == batch.restart_stop[:restarts]
            assert np.array(head.restart_gradients).tobytes() == np.array(batch.restart_gradients[:restarts]).tobytes()
            if batch.best_restart < restarts:
                assert head.best_restart == batch.best_restart
                assert head.best_state.amplitudes.tobytes() == batch.best_state.amplitudes.tobytes()
                assert head.iterations_used == batch.iterations_used

    def test_identical_config_identical_restart_values(self):
        c = SearchConfig(seed=123, restarts=8)
        r1 = maximize_total_variance(SPIN1, c)
        r2 = maximize_total_variance(SPIN1, c)
        assert np.array_equal(r1.restart_values, r2.restart_values)
        assert np.array_equal(r1.best_state.amplitudes, r2.best_state.amplitudes)

    def test_best_value_self_consistent(self):
        for seed in (0, 1):
            result = maximize_total_variance(SPIN1, SearchConfig(seed=seed))
            assert abs(
                result.best_value - total_variance(result.best_state, SPIN1)
            ) <= 1e-10

    def test_best_value_is_extreme_of_restarts(self):
        r = maximize_total_variance(SPIN1, SearchConfig(seed=5, restarts=6))
        assert r.best_value == np.max(r.restart_values)
        r = minimize_total_variance(SPIN1, SearchConfig(seed=5, restarts=6, mode="minimize"))
        assert r.best_value == np.min(r.restart_values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(step_tolerance=0.0)
        for mode in ("wander", True):  # True is rejected by every field, here and in the type tests below
            with pytest.raises(ValueError, match="mode"):
                SearchConfig(mode=mode)
        for seed in (2**64, -1):
            with pytest.raises(ValueError, match="64 unsigned bits"):
                SearchConfig(seed=seed)

    @pytest.mark.parametrize("field", ["restarts", "max_iterations", "seed"])
    @pytest.mark.parametrize("bad", [2.5, 1.7, 3.0, True, "4"])
    def test_config_rejects_non_integral_counts(self, field, bad):
        with pytest.raises(ValueError, match=field):
            SearchConfig(**{field: bad})

    def test_config_accepts_numpy_integers(self):
        config = SearchConfig(restarts=np.int64(2), max_iterations=np.uint8(5), seed=np.uint64(2**64 - 1))
        assert (config.restarts, config.max_iterations, config.seed) == (2, 5, 2**64 - 1)
        assert type(config.seed) is int

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "1e-9", None, True, 1e-9j])
    def test_config_rejects_non_finite_tolerance(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SearchConfig(step_tolerance=bad)

    def test_config_stores_the_tolerance_as_float(self):
        for tol in (np.float32(0.5), np.float64(0.25), np.int64(1), 2):
            config = SearchConfig(step_tolerance=tol)
            assert type(config.step_tolerance) is float and config.step_tolerance == tol

    def test_config_stores_an_int_subclass_as_int(self):
        # plain ints take a fast path; any other integral type takes the full check and is stored as int
        class Count(int):
            pass

        config = SearchConfig(restarts=Count(3), max_iterations=Count(7), seed=Count(9))
        assert (config.restarts, config.max_iterations, config.seed) == (3, 7, 9)
        assert {type(config.restarts), type(config.max_iterations), type(config.seed)} == {int}

    def test_config_is_immutable(self):
        config = SearchConfig()
        for name, value in vars(SearchConfig(restarts=3, seed=9, mode="minimize")).items():
            with pytest.raises(AttributeError, match=name):
                setattr(config, name, value)
            with pytest.raises(AttributeError, match=name):
                delattr(config, name)
        with pytest.raises(AttributeError):
            config.extra = 1
        assert config == SearchConfig()

    def test_config_compares_and_hashes_by_value(self):
        c = SearchConfig(restarts=np.int64(4), step_tolerance=np.float32(0.5), seed=7, mode="minimize")
        same = SearchConfig(restarts=4, step_tolerance=0.5, seed=7, mode="minimize")
        assert c == same and hash(c) == hash(same) and len({c, same}) == 1
        assert SearchConfig(**vars(c)) == c
        assert list(vars(c)) == ["restarts", "max_iterations", "step_tolerance", "seed", "mode"]
        for field, other in (("restarts", 5), ("max_iterations", 3), ("step_tolerance", 0.25), ("seed", 8),
                             ("mode", "maximize")):
            assert SearchConfig(**{**vars(c), field: other}) != c
        assert c != vars(c) and c != tuple(vars(c).values())
        assert repr(c) == "SearchConfig(restarts=4, max_iterations=2000, step_tolerance=0.5, seed=7, mode='minimize')"

    def test_golden_start_states(self, monkeypatch):
        # pins the normalized rows of Philox(key=seed), which no direction rule touches;
        # rows 1-3 were re-recorded when the restarts moved from the keys seed ^ k to one stream
        starts = capture_starts(monkeypatch)
        with pytest.raises(StopIteration):
            maximize_total_variance(spin_generators(1.5), SearchConfig(restarts=4, seed=3))
        assert starts[0].tolist() == [
            [0.5509693206259108 + 0.05336371594742053j, 0.4102206715600821 - 0.5849376787198527j,
             0.030398727009343884 + 0.12433767922497617j, -0.36610454394867814 + 0.18092969908011192j],
            [-0.24251918831467237 - 0.31957679569722086j, 0.19459301292745032 + 0.2986644045121624j,
             -0.13969199889486308 - 0.5004112426497974j, -0.3074861035935761 - 0.5895042642081441j],
            [0.327473931868647 - 0.08037344172847292j, 0.405071457128864 - 0.4371772390148583j,
             0.2617149893013801 + 0.298728861308707j, -0.5683092872869283 + 0.22446602392713766j],
            [0.35777853575751534 - 0.6109258669645682j, 0.06466681629199826 - 0.21588152790070064j,
             -0.32292174572108134 + 0.005499859416908301j, -0.3099522484527716 - 0.4975925788962592j]]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("j", [1.5, 10])
    def test_starts_are_one_stream(self, monkeypatch, seed, j):
        # the starts are the normalized rows of Philox(key=seed).standard_normal((R, 2, d))
        starts, basis = capture_starts(monkeypatch), spin_generators(j)
        with pytest.raises(StopIteration):
            maximize_total_variance(basis, SearchConfig(restarts=16, seed=seed))
        x = np.random.Generator(np.random.Philox(key=seed)).standard_normal((16, 2, basis.dim))
        z = x[:, 0] + 1j * x[:, 1]
        assert np.array_equal(starts[0], z / np.sqrt(_inner(z, z).real)[:, None])

    def test_search_enters_no_numpy_python_function(self):
        # at d <= 4 numpy's Python-level wrappers cost more than the arithmetic: the search calls
        # C entry points alone (the linalg gufuncs, ufuncs, array methods), not even a dispatcher
        numpy_dir = os.path.join(os.path.dirname(np.__file__), "")
        entered = set()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
                entered.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            for basis, label in ((spin_generators(1.5), "spherical"), (local_two_qubit_basis(), "qubit-pair")):
                maximize_total_variance(basis, SearchConfig(seed=1), state_label=label)
                minimize_total_variance(basis, SearchConfig(seed=1, mode="minimize"), state_label=label)
        finally:
            sys.setprofile(None)
        assert entered == set()

    @pytest.mark.parametrize("seed", [0, 5, 123456789, 2**63 + 5, 2**64 - 1])
    def test_keyed_stream_is_philox_keyed_by_the_seed(self, seed):
        keyed = np.random.Philox(variational._PhiloxKey(seed))
        assert np.array_equal(keyed.random_raw(12), np.random.Philox(key=seed).random_raw(12))

    def test_stream_draws_no_os_entropy(self, monkeypatch):
        # Philox(key=seed) first fills a SeedSequence from OS entropy, then discards it;
        # the search hands Philox the key as a seed sequence of its own, which draws nothing
        made, philox = [], np.random.Philox

        def recorded(*args, **kwargs):
            made.append(philox(*args, **kwargs))
            return made[-1]

        def no_entropy(bits):
            raise AssertionError("the search drew OS entropy")

        monkeypatch.setattr(np.random, "Philox", recorded)
        monkeypatch.setattr(bit_generator, "randbits", no_entropy)
        maximize_total_variance(SPIN1, SearchConfig(restarts=3, seed=5))
        (made,) = made
        assert isinstance(made.seed_seq, bit_generator.ISeedSequence)
        assert not isinstance(made.seed_seq, np.random.SeedSequence)

    def test_seeds_share_no_start(self, monkeypatch):
        # at 16 restarts seeds 0-15 draw 16 disjoint start sets: no block of seeds shares one
        starts = capture_starts(monkeypatch)
        for seed in range(16):
            with pytest.raises(StopIteration):
                maximize_total_variance(spin_generators(1.5), SearchConfig(restarts=16, seed=seed))
        assert len({row.tobytes() for rows in starts for row in rows}) == 16 * 16

    def test_no_random_state_at_module_level(self, monkeypatch):
        # each search builds its own Philox stream, so concurrent searches share none
        for name, value in vars(variational).items():
            assert not isinstance(value, (np.random.Generator, np.random.BitGenerator, dict)) or name.startswith("__")
        made, philox = [], np.random.Philox

        def recorded(*args, **kwargs):
            made.append(philox(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(np.random, "Philox", recorded)
        for _ in range(2):
            maximize_total_variance(SPIN1, SearchConfig(restarts=3))
        assert len(made) == 2 and made[0] is not made[1]

    def test_concurrent_searches_match_serial_ones(self):
        basis, seeds = spin_generators(1.5), range(6)
        serial = [maximize_total_variance(basis, SearchConfig(seed=seed)) for seed in seeds]
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda s=seed: results.__setitem__(
                s, maximize_total_variance(basis, SearchConfig(seed=s)))) for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for seed, one in zip(seeds, serial):
            assert np.array_equal(results[seed].restart_values, one.restart_values)
            assert np.array_equal(results[seed].best_state.amplitudes, one.best_state.amplitudes)

    def test_golden_restarts(self):
        # pins the scalar-Casimir search path from those starts; the spin-3/2
        # amplitudes were re-recorded when the search gained Powell's restarts,
        # when maximize moved to the Gauss-Newton direction and when the kernels
        # moved to stacked matmuls (by 1.8e-12, along the CE manifold), the
        # qubit-pair minimum when minimize began at the eigenvector start and
        # when the kernels moved (its values by 1 ulp, so another restart wins);
        # the qubit-pair values of restarts 1-3 when they moved from the keys seed ^ k to one stream;
        # and four spin-3/2 parts, each by 1 ulp, when the gradient and the line coefficients
        # became batched matvecs and the gradient norm a sum over the real view
        r = maximize_total_variance(spin_generators(1.5), SearchConfig(restarts=4, seed=3))
        assert list(r.restart_values) == [3.75, 3.75, 3.75, 3.75]
        assert r.best_state.amplitudes.tolist() == [
            0.40341949467079313 + 0.07689579643802591j, 0.3643402094960415 - 0.5810752633234001j,
            0.06359758548071699 + 0.22178839182030632j, -0.503234077661606 + 0.2333842697411365j]
        config = SearchConfig(restarts=4, seed=3, mode="minimize")
        r = minimize_total_variance(local_two_qubit_basis(), config, state_label="qubit-pair")
        assert list(r.restart_values) == [0.9999999999999999, 0.9999999999999999, 1.0, 1.0]
        assert r.best_state.amplitudes.tolist() == [
            -0.49950858116502905 + 0j, -0.46263177778769227 + 0.6578100153391059j,
            0.16214474637079526 + 0.05091109428141193j, 0.2172197717396056 - 0.16637821886255974j]
