"""Integrator behavior on problems with closed-form answers."""
import numpy as np
import pytest

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


class TestEvents:
    def test_linear_crossing_found(self):
        res = integrate_ode(lambda t, y: np.array([1.0]), np.array([-1.0]),
                            (0.0, 5.0), event=lambda t, y: y[0])
        assert res.status == "event"
        assert abs(res.event_time - 1.0) < 1e-9
        assert abs(res.event_state[0]) < 1e-9
        assert abs(res.times[-1] - res.event_time) < 1e-15

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

        with np.errstate(invalid="ignore"):
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
