"""Integrator behavior on problems with closed-form answers."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ksreg.bench import seed_state
from ksreg.kepler_dynamics import kepler_vector_field, preregularized_vector_field
from ksreg.ks_map import ks_batch
from ksreg.ode import integrate_ode


def _decay(t, y):
    return -y


def _rotor(t, y):
    return np.array([y[1], -y[0]])


class TestAccuracy:
    def test_exponential_decay(self):
        res = integrate_ode(_decay, np.array([1.0]), (0.0, 1.0))
        assert res.status == "completed"
        assert abs(res.times[-1] - 1.0) < 1e-12
        assert abs(res.states[-1, 0] - np.exp(-1.0)) < 1e-9

    def test_harmonic_loop_returns_home(self):
        res = integrate_ode(_rotor, np.array([1.0, 0.0]), (0.0, 2 * np.pi))
        assert res.status == "completed"
        assert np.max(np.abs(res.states[-1] - [1.0, 0.0])) < 1e-8

    def test_energy_drift_stays_small(self):
        res = integrate_ode(_rotor, np.array([1.0, 0.0]), (0.0, 20 * np.pi))
        energy = np.sum(res.states**2, axis=1)
        assert np.max(np.abs(energy - 1.0)) < 1e-7

    def test_tolerance_actually_controls_error(self):
        loose = integrate_ode(_decay, np.array([1.0]), (0.0, 1.0),
                              rtol=1e-5, atol=1e-5)
        tight = integrate_ode(_decay, np.array([1.0]), (0.0, 1.0),
                              rtol=1e-12, atol=1e-12)
        err_loose = abs(loose.states[-1, 0] - np.exp(-1.0))
        err_tight = abs(tight.states[-1, 0] - np.exp(-1.0))
        assert err_tight < err_loose
        assert tight.stats.steps > loose.stats.steps


class TestSampling:
    def test_t_eval_matches_closed_form(self):
        grid = np.linspace(0.1, 6.0, 37)
        res = integrate_ode(_rotor, np.array([1.0, 0.0]), (0.0, 6.5),
                            t_eval=grid)
        assert res.eval_times.shape == grid.shape
        assert not np.shares_memory(res.eval_times, grid)
        assert np.max(np.abs(res.eval_states[:, 0] - np.cos(grid))) < 1e-8
        assert np.max(np.abs(res.eval_states[:, 1] + np.sin(grid))) < 1e-8

    def test_t_eval_must_increase(self):
        with pytest.raises(ValueError):
            integrate_ode(_decay, np.array([1.0]), (0.0, 1.0),
                          t_eval=[0.5, 0.5])

    def test_t_eval_must_stay_inside_span(self):
        with pytest.raises(ValueError):
            integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), t_eval=[2.0])

    def test_span_must_increase(self):
        with pytest.raises(ValueError):
            integrate_ode(_decay, np.array([1.0]), (1.0, 0.0))
        for span in [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)]:
            with pytest.raises(ValueError):
                integrate_ode(_decay, np.array([1.0]), span)
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), rtol=tol)
            with pytest.raises(ValueError):
                integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), atol=tol)


class TestEvents:
    def test_linear_crossing_found(self):
        res = integrate_ode(lambda t, y: np.array([1.0]), np.array([-1.0]),
                            (0.0, 5.0), event=lambda t, y: y[0])
        assert res.status == "event"
        assert abs(res.event_time - 1.0) < 1e-9
        assert abs(res.event_state[0]) < 1e-9
        assert abs(res.times[-1] - res.event_time) < 1e-15

    def test_tiny_event_values_still_change_sign(self):
        # g_prev * g_new underflows to -0.0 here; the crossing must still fire.
        res = integrate_ode(lambda t, y: np.array([1.0]), np.array([-1.0]),
                            (0.0, 5.0), event=lambda t, y: 1e-200 * y[0])
        assert res.status == "event"
        assert abs(res.event_time - 1.0) < 1e-9

    def test_rotor_zero_crossing_at_quarter_period(self):
        res = integrate_ode(_rotor, np.array([1.0, 0.0]), (0.0, 10.0),
                            event=lambda t, y: y[0])
        assert res.status == "event"
        assert abs(res.event_time - np.pi / 2) < 1e-9

    def test_no_crossing_runs_to_completion(self):
        res = integrate_ode(_rotor, np.array([1.0, 0.0]), (0.0, 1.0),
                            event=lambda t, y: y[0] - 5.0)
        assert res.status == "completed"
        assert res.event_time is None

    def test_zero_at_the_start_is_an_event_at_the_start(self):
        res = integrate_ode(lambda t, y: np.array([1.0]), np.array([0.0]),
                            (0.0, 1.0), event=lambda t, y: y[0],
                            t_eval=np.linspace(0.0, 1.0, 5))
        assert res.status == "event"
        assert res.event_time == 0.0
        assert np.array_equal(res.event_state, [0.0])
        assert res.stats.steps == 0
        assert np.array_equal(res.times, [0.0])
        assert np.array_equal(res.eval_times, [0.0])
        assert np.array_equal(res.eval_states, [[0.0]])

    def test_samples_before_event_are_kept(self):
        res = integrate_ode(lambda t, y: np.array([1.0]), np.array([-1.0]),
                            (0.0, 5.0), event=lambda t, y: y[0],
                            t_eval=np.linspace(0.0, 5.0, 51))
        assert res.status == "event"
        assert res.eval_times[-1] <= res.event_time + 1e-12
        assert res.eval_times.size == 11


class TestAccounting:
    def test_budget_exhaustion_reported(self):
        res = integrate_ode(_rotor, np.array([1.0, 0.0]), (0.0, 100.0),
                            max_steps=5)
        assert res.status == "step_budget_exhausted"
        assert res.stats.steps == 5

    def test_nonfinite_rhs_ends_the_run(self):
        def blows_up(t, y):
            return np.array([np.inf]) if t > 0.5 else np.array([1.0])

        res = integrate_ode(blows_up, np.array([0.0]), (0.0, 1.0))
        assert res.status == "nonfinite"
        assert res.times[-1] <= 0.5
        assert np.all(np.isfinite(res.states))

    def test_rhs_evaluation_count_is_exact(self):
        res = integrate_ode(_rotor, np.array([1.0, 0.0]), (0.0, 7.0))
        attempts = res.stats.steps + res.stats.rejected_steps
        assert res.stats.rhs_evaluations == 1 + 6 * attempts

    def test_step_points_bracket_the_span(self):
        res = integrate_ode(_decay, np.array([1.0]), (0.0, 2.0))
        assert res.times[0] == 0.0
        assert abs(res.times[-1] - 2.0) < 1e-12
        assert np.all(np.diff(res.times) > 0)
        assert res.states.shape == (res.times.size, 1)

    def test_stats_json_shape(self):
        res = integrate_ode(_decay, np.array([1.0]), (0.0, 1.0))
        d = res.stats.to_json_dict()
        assert set(d) == {"steps", "rejected_steps", "rhs_evaluations"}


def _kepler_field(t, w):
    return kepler_vector_field(w)


def _doubled_field(t, w):
    return 2 * preregularized_vector_field(w)


def _dop853(f, w0, t_end, grid):
    ref = solve_ivp(f, (0.0, t_end), w0, method="DOP853", rtol=1e-12, atol=1e-12,
                    t_eval=grid)
    assert ref.success
    return ref.y.T


class TestAgainstDop853:
    """scipy's DOP853 at rtol = atol = 1e-12 as an independent reference."""

    @pytest.mark.parametrize(
        "f, z0, samples",
        [(_kepler_field, seed_state(1e-2), 63),
         (_doubled_field, [1.0, 0, 0, 0, 0, 0, 1, 0], 256)],
        ids=["raw_bench_seed", "harness_circular_seed"],
    )
    def test_final_state_and_samples_agree(self, f, z0, samples):
        # One period of each orbit; the raw seed at |L| = 1e-2 passes the
        # center at distance 5e-5 at t = pi, which no sample hits.
        w0 = ks_batch(z0)[0]
        grid = np.linspace(0.0, 2 * math.pi, samples + 1)[1:]
        res = integrate_ode(f, w0, (0.0, 2 * math.pi), rtol=1e-12, atol=1e-12, t_eval=grid)
        ref = _dop853(f, w0, 2 * math.pi, grid)
        assert res.status == "completed"
        assert np.max(np.abs(res.states[-1] - ref[-1])) <= 1e-7
        assert np.max(np.abs(res.eval_states - ref)) <= 1e-7

    def test_retried_step_restarts_from_the_step_start(self):
        # At the bench tolerance the raw seed has a rejected step after an
        # accepted one; the retry must reuse f at the start of the step,
        # not the last stage of the rejected attempt (which left the final
        # state 1.2e-3 away from the reference).
        w0 = ks_batch(seed_state(1e-2))[0]
        res = integrate_ode(_kepler_field, w0, (0.0, 2 * math.pi))
        ref = _dop853(_kepler_field, w0, 2 * math.pi, [2 * math.pi])
        assert res.stats.rejected_steps > 0
        assert np.max(np.abs(res.states[-1] - ref[-1])) <= 1e-5
