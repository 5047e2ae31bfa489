import numpy as np
import pytest

from entfluct import (
    SearchConfig,
    StateVector,
    canonical_form,
    fluctuation_report,
    gradient_total_variance,
    local_two_qubit_basis,
    maximize_total_variance,
    minimize_total_variance,
    spin_generators,
    to_cartesian,
    total_variance,
)
from entfluct.variational import _best_angle, _line_coefficients, _line_terms, _value_and_gradient
from util import random_basis, random_state

SPIN1 = spin_generators(1)


def directional_derivative(psi, basis, delta, h=1e-6):
    a = psi.amplitudes

    def value(vec):
        vec = vec / np.linalg.norm(vec)
        return total_variance(StateVector(vec, psi.basis_label), basis)

    return (value(a + h * delta) - value(a - h * delta)) / (2 * h)


class TestGradient:
    def test_stationary_at_m0(self):
        psi = StateVector([0, 1, 0], "spherical")
        g = gradient_total_variance(psi, SPIN1)
        gt = g - np.vdot(psi.amplitudes, g) * psi.amplitudes
        assert np.linalg.norm(gt) < 1e-10

    def test_stationary_at_m_plus1(self):
        psi = StateVector([1, 0, 0], "spherical")
        g = gradient_total_variance(psi, SPIN1)
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
            g = gradient_total_variance(psi, basis)
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
            v0, _, oa, e = _value_and_gradient(a[None], basis)
            coef = _line_coefficients(a[None], d[None], oa, e, basis)
            t = rng.uniform(0, 2 * np.pi, size=8)
            line = v0[0] + (coef[0][:, None] * _line_terms(2 * t)).sum(axis=0)
            direct = [total_variance(StateVector(a * np.cos(x) + d * np.sin(x), label), basis)
                      for x in t]
            assert np.max(np.abs(line - direct)) <= 1e-12


class TestLineSearch:
    """_best_angle against a dense circle: the gain it returns is the global one."""

    DENSE = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)

    def check_global(self, coef, sign):
        s, gain = _best_angle(coef, sign)
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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_zero_row_has_no_gain(self, sign):
        # a flat line gains nothing, so the restart stops on "stall"
        s, gain = _best_angle(np.zeros((2, 4)), sign)
        assert np.all(gain == 0) and not np.any(gain > 0)
        assert np.all(s == 0)


class TestMaximize:
    def test_spin1_reaches_ce(self):
        result = maximize_total_variance(SPIN1)
        assert result.best_value == pytest.approx(2.0, abs=1e-8)
        flag = fluctuation_report(result.best_state, SPIN1, ce_tol=1e-8).ce_flag
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
        assert np.max(np.abs(result.restart_values - target)) <= 1e-9
        assert result.restart_stop == ("gradient",) * 16
        assert np.all(result.restart_gradients <= config.step_tolerance)
        assert result.converged

    @pytest.mark.parametrize("j", [None, 1, 1.5, 3])
    def test_restarts_never_exceed_the_maximum(self, j):
        # V = c - sum_i <O_i>^2 with the exact Casimir c is at most c
        basis = local_two_qubit_basis() if j is None else spin_generators(j)
        v_max = 1.5 if j is None else j * (j + 1)
        for seed in range(20):
            result = maximize_total_variance(basis, SearchConfig(seed=seed))
            assert np.all(result.restart_values <= v_max)

    def test_spin3_maximize_reaches_anticoherent_value(self):
        result = maximize_total_variance(spin_generators(3))
        assert result.best_value == pytest.approx(12.0, abs=1e-9)
        assert np.all(result.restart_gradients <= SearchConfig().step_tolerance)


class TestConvergedFlag:
    # a random three-observable basis on C^4 with two local maxima of V: with
    # this seed restart 0 settles on the lower one within the cap, while
    # restart 1 is still climbing towards the higher one when the cap stops it
    @staticmethod
    def _basis():
        return random_basis(np.random.default_rng(11), 4)

    def test_capped_best_restart_is_not_converged(self):
        config = SearchConfig(restarts=2, seed=8, max_iterations=22)
        result = maximize_total_variance(self._basis(), config, state_label="qubit-pair")
        assert result.restart_stop == ("gradient", "cap")
        assert result.best_value == result.restart_values[1] > result.restart_values[0] + 1
        assert result.iterations_used == 22
        assert not result.converged
        g = gradient_total_variance(result.best_state, self._basis())
        a = result.best_state.amplitudes
        assert np.linalg.norm(g - np.vdot(a, g) * a) > config.step_tolerance

    def test_flag_follows_returned_restart(self):
        config = SearchConfig(restarts=4, seed=0, max_iterations=300)
        result = maximize_total_variance(spin_generators(3), config)
        best = int(np.argmax(result.restart_values))
        assert result.converged == (result.restart_stop[best] == "gradient")
        assert result.restart_gradients[best] <= config.step_tolerance


class TestDeterminismAndConsistency:
    @pytest.mark.parametrize("j", [1.5, 3])
    @pytest.mark.parametrize("mode", ["maximize", "minimize"])
    def test_batched_restart_equals_single_restart(self, j, mode):
        basis = spin_generators(j)
        run = maximize_total_variance if mode == "maximize" else minimize_total_variance
        seed = 2024
        batch = run(basis, SearchConfig(restarts=8, seed=seed, mode=mode))
        best = int(np.argmax(batch.restart_values if mode == "maximize" else -batch.restart_values))
        for k in range(8):
            one = run(basis, SearchConfig(restarts=1, seed=seed ^ k, mode=mode))
            assert one.best_value == batch.restart_values[k]
            assert one.restart_stop[0] == batch.restart_stop[k]
            assert one.restart_gradients[0] == batch.restart_gradients[k]
            if k == best:
                assert np.array_equal(one.best_state.amplitudes, batch.best_state.amplitudes)
                assert one.iterations_used == batch.iterations_used


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
        with pytest.raises(ValueError):
            SearchConfig(mode="wander")

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
        for tol in (np.float32(0.5), np.int64(1), 2):
            config = SearchConfig(step_tolerance=tol)
            assert type(config.step_tolerance) is float and config.step_tolerance == tol

    def test_golden_restarts(self):
        # recorded before the restart streams moved to one re-keyed Philox; pins
        # the streams of Philox(key=seed ^ k) and the scalar-Casimir search path
        r = maximize_total_variance(spin_generators(1.5), SearchConfig(restarts=4, seed=3))
        assert r.restart_values.tolist() == [3.75, 3.75, 3.75, 3.75]
        assert r.best_state.amplitudes.tolist() == [
            0.40784852976094405 + 0.07697408039257159j, 0.3608144396133914 - 0.5785995014450888j,
            0.06651298718292976 + 0.22102226105665562j, -0.5062043260119335 + 0.23076500556569363j]
        config = SearchConfig(restarts=4, seed=3, mode="minimize")
        r = minimize_total_variance(local_two_qubit_basis(), config, state_label="qubit-pair")
        assert r.restart_values.tolist() == [0.9999999999999998, 0.9999999999999998, 1.0, 1.0]
        assert r.best_state.amplitudes.tolist() == [
            0.4992768732258031 + 0.015212709139574856j, 0.482451010829719 - 0.643415262679413j,
            -0.16051901675384972 - 0.055825653215682516j, -0.22218611666057136 + 0.15968553631991547j]
