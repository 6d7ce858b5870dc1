"""Integrator behavior on problems with closed-form answers."""
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ksreg import ode
from ksreg.bench import seed_state
from ksreg.flows import _guard_event
from ksreg.kepler_dynamics import (COLLISION_GUARD, dot3, kepler_vector_field,
                                   preregularized_vector_field, radial_ode_rhs)
from ksreg.ks_map import ks_batch
from ksreg.ode import OdeResult, OdeResults, integrate_ode
from ksreg.verify import FALL_GRID


def _decay(t, y):
    return -y


def _rotor(t, y):
    return np.array([y[1], -y[0]])


def _overflow(t, y):
    """Finite everywhere, but a step from y = 1e308 overflows to inf."""
    return np.full_like(y, 1e308)


def _overflow_or_decay(t, y):
    """y = (x, kind): x runs at the speed 1e308 for kind 1, as in _overflow,
    and decays for any other kind; one state or (2, m) columns."""
    x, kind = y
    return np.array([np.where(kind == 1, 1e308, -x), np.zeros_like(x)])


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
        loose = integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), tol=1e-5)
        tight = integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), tol=1e-12)
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

    # A t_eval that is not 1-D is rejected by its own test, not by whatever
    # numpy raises on it: [[0.5, 0.7]] has no truth value.
    def test_t_eval_must_increase(self):
        for t_eval in ([0.5, 0.5], [0.25, math.nan, 0.75], [[0.5]], [[0.5, 0.7]], 0.5):
            with pytest.raises(ValueError, match="t_eval must"):
                integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), t_eval=t_eval)

    @pytest.mark.parametrize("t_eval", [[math.inf, math.inf], [math.nan, 0.5], [0.5, math.nan]])
    def test_bad_t_eval_raises_without_a_warning(self, t_eval):
        """Validation compares sample times without subtracting them, so
        that inf - inf cannot warn ahead of the ValueError."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t_eval must"):
                integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), t_eval=t_eval)

    def test_t_eval_must_stay_inside_span(self):
        for t_eval in ([2.0], [math.nan], [[0.5]], [[0.5, 0.7]]):
            with pytest.raises(ValueError, match="t_eval must"):
                integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), t_eval=t_eval)

    def test_span_must_increase(self):
        with pytest.raises(ValueError):
            integrate_ode(_decay, np.array([1.0]), (1.0, 0.0))
        for span in [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)]:
            with pytest.raises(ValueError):
                integrate_ode(_decay, np.array([1.0]), span)
        for tol in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                integrate_ode(_decay, np.array([1.0]), (0.0, 1.0), tol=tol)


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

    def test_nan_at_the_start_ends_the_run_there(self):
        calls = []

        def decay(t, y):
            calls.append(t)
            return -y

        # A NaN with its sign bit set, then y[0] ~ 1, which never crosses 0:
        # read as a sign, that NaN gave an event at t ~ 4.1e-27.
        signed_nan = -math.nan
        assert math.copysign(1.0, signed_nan) == -1.0
        for event in (lambda t, y: y[0] * math.nan,
                      lambda t, y: np.where(t == 0.0, signed_nan, y[0])):
            calls.clear()
            res = integrate_ode(decay, [1.0], (0.0, 1.0), event=event,
                                t_eval=np.linspace(0.0, 1.0, 5))
            assert res.status == "nonfinite"
            assert res.event_time is None and res.event_state is None
            assert np.array_equal(res.times, [0.0])
            assert np.array_equal(res.states, [[1.0]])
            assert res.eval_times.size == 0
            assert (res.stats.steps, res.stats.rejected_steps) == (0, 0)
            assert res.stats.rhs_evaluations == len(calls) == 1

    def test_nan_inside_the_run_ends_it_at_the_last_number(self):
        calls = []

        def decay(t, y):
            calls.append(t)
            return -y

        grid = np.linspace(0.05, 1.0, 20)
        res = integrate_ode(decay, [1.0], (0.0, 1.0), t_eval=grid,
                            event=lambda t, y: np.where(t < 0.5, y[0], math.nan))
        plain = integrate_ode(_decay, [1.0], (0.0, 1.0), t_eval=grid,
                              event=lambda t, y: y[0])
        assert res.status == "nonfinite" and res.event_time is None
        # Every state kept is one the run without the NaN takes, and none
        # lies past the last point where the event was a number.
        k = res.times.size
        assert res.times[-1] < 0.5 <= plain.times[k]
        assert np.array_equal(res.times, plain.times[:k])
        assert np.array_equal(res.states, plain.states[:k])
        assert res.eval_times[-1] <= res.times[-1]
        assert np.array_equal(res.eval_states, plain.eval_states[:res.eval_times.size])
        assert res.stats.steps == k - 1
        assert res.stats.rhs_evaluations == len(calls)
        attempts = res.stats.steps + res.stats.rejected_steps + 1
        assert res.stats.rhs_evaluations == 1 + 6 * attempts

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

    def test_overflowing_end_point_ends_the_run(self):
        """The scaled error divides by the inf end point and reads 0; the
        step must still not be accepted."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_ode(_overflow, [1e308], (0.0, 1.0))
        assert res.status == "nonfinite"
        assert np.all(np.isfinite(res.states))
        assert res.stats.rhs_evaluations == 1 + 6 * (res.stats.steps + 1)

    def test_overflowing_block_row_ends_alone(self):
        y0 = np.array([[1e308, 1.0], [0.5, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = integrate_ode(_overflow_or_decay, y0, (0.0, 1.0))
            alone = integrate_ode(_overflow_or_decay, y0[1], (0.0, 1.0))
        assert [r.status for r in runs] == ["nonfinite", "completed"]
        assert np.all(np.isfinite(runs[0].states))
        _assert_same_run(runs[1], alone)
        assert np.array_equal(runs[1].states, alone.states)

    def test_infinite_slope_at_a_finite_end_point_rejects_the_row_alone(self):
        """f is inf for row 0 at its first end point only: that row's step is
        rejected, and the interpolants the other row's samples need stay
        free of its inf."""
        calls = []

        def spike_at_first_end_point(t, y):
            calls.append(t)
            dy = -y
            if len(calls) == 7:  # f at t0, then stages 1-6 of the first attempt
                dy[0, 0] = np.inf
            return dy

        y0 = np.array([[1.0], [1.0]])
        grid = np.linspace(0.0, 1.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = integrate_ode(spike_at_first_end_point, y0, (0.0, 1.0), t_eval=grid)
            alone = integrate_ode(_decay, y0[1], (0.0, 1.0), t_eval=grid)
        assert [r.status for r in runs] == ["completed", "completed"]
        assert runs[0].stats.rejected_steps == alone.stats.rejected_steps + 1
        assert np.all(np.isfinite(runs[0].eval_states))
        _assert_same_run(runs[1], alone)
        assert np.array_equal(runs[1].eval_states, alone.eval_states)

    @pytest.mark.parametrize("tol", [1e-200, 1e-300])
    def test_overflowing_error_norm_rejects_the_step(self, tol):
        """A finite field under a tolerance the error norm overflows on."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_ode(_decay, [1.0], (0.0, 1.0), tol=tol)
        assert res.status == "step_size_underflow"
        assert (res.stats.steps, res.stats.rejected_steps) == (0, 12)
        assert np.array_equal(res.states, [[1.0]])

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
        res = integrate_ode(f, w0, (0.0, 2 * math.pi), tol=1e-12, t_eval=grid)
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


def _fall_block():
    """The five fall-time seeds of ksreg verify as one (5, 2) block."""
    r0 = np.array(FALL_GRID)
    return np.column_stack([r0, -np.sqrt(2 / r0 - 1)])


def _fall_event(t, u):
    return u[0] - COLLISION_GUARD


def _raw_event(t, w):
    return dot3(w, w) - COLLISION_GUARD**2


def _mixed_field(t, y):
    """y = (x, kind): kind 1 blows up after t = 0.5, kind 2 decays fast,
    any other kind drifts at unit speed; one state or (2, m) columns."""
    x, kind = y
    dx = np.where(kind == 1, np.where(t > 0.5, np.inf, 1.0), np.where(kind == 2, -30 * x, 1.0))
    return np.array([dx, np.zeros_like(x)])


def _mixed_event(t, y):
    """x for kind 0, which crosses 0 at t = 1 from x0 = -1; -1 otherwise."""
    x, kind = y
    return np.where(kind == 0, x, -1.0)


def _clocked_field(t, y):
    """A field that reads t in every stage; one state or (2, m) columns."""
    return np.array([np.cos(3 * t) * y[1] + t, -y[0] * (1 + 0.1 * t)])


def _clocked_event(t, y):
    return y[0] - 1.5


def _assert_same_run(row, alone):
    """A block row is its lone run, bit for bit."""
    assert row.status == alone.status
    assert row.stats == alone.stats
    assert row.event_time == alone.event_time
    assert np.array_equal(row.times, alone.times)
    assert np.array_equal(row.states, alone.states)
    if alone.eval_times is None:
        assert row.eval_times is None
    else:
        assert np.array_equal(row.eval_times, alone.eval_times)
        assert np.array_equal(row.eval_states, alone.eval_states)


class TestBlock:
    """An (n, d) y0 steps n rows in lockstep, each as it would run alone."""

    def test_fall_rows_match_their_lone_runs(self):
        y0 = _fall_block()
        runs = integrate_ode(radial_ode_rhs, y0, (0.0, 4.0), event=_fall_event)
        assert isinstance(runs, OdeResults) and len(runs) == len(FALL_GRID)
        for row, start in zip(runs, y0):
            alone = integrate_ode(radial_ode_rhs, start, (0.0, 4.0), event=_fall_event)
            assert row.status == "event"
            _assert_same_run(row, alone)
        # The fall block's integrator fingerprint, as ksreg verify runs it.
        assert [r.stats.steps for r in runs] == [377, 398, 420, 436, 458]
        assert [r.stats.rejected_steps for r in runs] == [0] * 5
        assert [r.stats.rhs_evaluations for r in runs] == [2263, 2389, 2521, 2617, 2749]
        assert [r.event_time.hex() for r in runs] == [
            "0x1.f623e8ae0cd4ap-5", "0x1.730a61f06c9a0p-3", "0x1.243f6a84727e4p-1",
            "0x1.3a766fc0dbb02p+0", "0x1.921fb543092e0p+1"]

    def test_stage_times_match_the_lone_runs(self):
        # The field reads t at every stage, so each row's stage times must
        # be its lone run's, t + h * c; rows reject, cross and complete.
        y0 = np.array([[1.0, 1.0], [0.0, 0.5], [-2.0, -1.0]])
        grid = np.linspace(0.25, 1.75, 7)
        runs = integrate_ode(_clocked_field, y0, (0.0, 2.0), t_eval=grid, event=_clocked_event)
        assert [r.status for r in runs] == ["event", "event", "completed"]
        assert runs.stats.rejected_steps > 0
        for row, start in zip(runs, y0):
            alone = integrate_ode(_clocked_field, start, (0.0, 2.0), t_eval=grid,
                                  event=_clocked_event)
            _assert_same_run(row, alone)
            if alone.event_state is not None:
                assert np.array_equal(row.event_state, alone.event_state)

    def test_raw_bench_row_matches_its_lone_run(self):
        # |L| = 0.1 runs the whole period next to a colliding |L| = 1e-3 row.
        w0 = ks_batch(np.array([seed_state(1e-1), seed_state(1e-3)]))
        grid = np.linspace(0.0, 2 * math.pi, 2001)[1:-1]
        runs = integrate_ode(_kepler_field, w0, (0.0, 2 * math.pi), t_eval=grid,
                             event=_raw_event)
        alone = integrate_ode(_kepler_field, w0[0], (0.0, 2 * math.pi), t_eval=grid,
                              event=_raw_event)
        assert [r.status for r in runs] == ["completed", "event"]
        _assert_same_run(runs[0], alone)

    def test_rows_that_end_early_drop_out(self):
        calls = []

        def field(t, y):
            calls.append(y.shape[1])
            return _mixed_field(t, y)

        y0 = np.array([[-1.0, 0.0], [0.0, 1.0], [1.0, 2.0], [0.0, 3.0]])
        runs = integrate_ode(field, y0, (0.0, 2.0), max_steps=40, event=_mixed_event)
        assert [r.status for r in runs] == ["event", "nonfinite", "step_budget_exhausted",
                                            "completed"]
        assert calls[0] == 4 and calls[-1] < 4
        for row, start in zip(runs, y0):
            alone = integrate_ode(_mixed_field, start, (0.0, 2.0), max_steps=40,
                                  event=_mixed_event)
            _assert_same_run(row, alone)
        assert runs[2].stats.steps == 40
        assert abs(runs[0].event_time - 1.0) < 1e-9

    def test_block_stats_sum_the_rows_as_ints(self):
        runs = integrate_ode(radial_ode_rhs, _fall_block(), (0.0, 4.0), event=_fall_event)
        for field in ("steps", "rejected_steps", "rhs_evaluations"):
            total = getattr(runs.stats, field)
            assert type(total) is int
            assert total == sum(getattr(r.stats, field) for r in runs)
        assert runs.eval_times is None

    def test_event_at_t0_and_t_eval_hold_per_row(self):
        grid = np.linspace(0.0, 2.0, 9)
        y0 = np.array([[0.0, 0.0], [-1.0, 0.0], [0.0, 3.0]])
        runs = integrate_ode(_mixed_field, y0, (0.0, 2.0), t_eval=grid, event=_mixed_event)
        first, crossing, plain = runs
        assert first.status == "event" and first.event_time == 0.0
        assert first.stats.steps == 0 and first.stats.rhs_evaluations == 1
        assert np.array_equal(first.eval_times, [0.0])
        assert np.array_equal(first.event_state, [0.0, 0.0])
        assert crossing.status == "event"
        assert crossing.eval_times[-1] <= crossing.event_time + 1e-12
        assert crossing.eval_times.size == 5
        assert plain.status == "completed" and np.array_equal(plain.eval_times, grid)
        assert runs.eval_times.size == 1 + 5 + grid.size
        for row, start in zip(runs, y0):
            _assert_same_run(row, integrate_ode(_mixed_field, start, (0.0, 2.0),
                                                t_eval=grid, event=_mixed_event))

    def test_a_lone_row_calls_f_and_event_on_one_column(self):
        """A (d,) y0 is a one-row block: f, event and the event search get an
        (m,) time array and (d, m) columns with m = 1, like any block."""
        seen = []

        def field(t, y):
            seen.append(("f", type(t), t.shape, y.shape))
            return _rotor(t, y)

        def crossing(t, y):
            seen.append(("event", type(t), t.shape, y.shape))
            return y[0]

        res = integrate_ode(field, [1.0, 0.0], (0.0, 4.0), t_eval=[1.0, 2.0], event=crossing)
        assert isinstance(res, OdeResult) and res.status == "event"
        assert res.states.shape == (res.times.size, 2) and res.event_state.shape == (2,)
        assert all(call[1:] == (np.ndarray, (1,), (2, 1)) for call in seen)
        kinds = [call[0] for call in seen]
        assert kinds.count("f") == res.stats.rhs_evaluations
        # One event call at t0 and one per step; the rest are the search's.
        assert kinds.count("event") > 1 + res.stats.steps
        block = integrate_ode(_rotor, [[1.0, 0.0]], (0.0, 4.0), t_eval=[1.0, 2.0],
                              event=lambda t, y: y[0])
        assert isinstance(block, OdeResults) and len(block) == 1
        _assert_same_run(block[0], res)

    def test_a_nan_event_ends_its_row_alone(self):
        def event(t, y):
            return np.where((t > 0.5) & (y[0] < 0.9), math.nan, 1.0)

        y0 = np.array([[1.0], [3.0]])
        runs = integrate_ode(_decay, y0, (0.0, 1.0), event=event)
        alone = integrate_ode(_decay, y0[1], (0.0, 1.0), event=event)
        assert [r.status for r in runs] == ["nonfinite", "completed"]
        assert runs[0].times[-1] <= 0.5 and runs[0].event_time is None
        _assert_same_run(runs[1], alone)

    def test_y0_must_be_a_state_or_a_block(self):
        for bad in (np.zeros((2, 2, 2)), np.zeros((0, 2)), np.zeros(0)):
            with pytest.raises(ValueError):
                integrate_ode(_decay, bad, (0.0, 1.0))


def _full_bisection(event, side, t, h, y, Q):
    """The event search without its early stop: all 80 halvings."""
    lo, hi = t, t + h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if side * event(mid, ode._dense((mid - t) / h, y, Q)) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _counted(event, calls):
    def wrapped(t, y):
        calls.append(t)
        return event(t, y)
    return wrapped


_EVENT_RUNS = {
    "linear": (lambda t, y: np.array([1.0]), [-1.0], 5.0, lambda t, y: y[0]),
    "tiny": (lambda t, y: np.array([1.0]), [-1.0], 5.0, lambda t, y: 1e-200 * y[0]),
    "rotor": (_rotor, [1.0, 0.0], 10.0, lambda t, y: y[0]),
    "orbit_collision": (_doubled_field, None, 3.0,
                        lambda t, w: _guard_event(t, w, COLLISION_GUARD)),
}


class TestEventSearchStopsEarly:
    """The bisection stops once its midpoint rounds onto an end of the
    bracket; it returns the time the full 80 halvings return."""

    @pytest.mark.parametrize("name", sorted(_EVENT_RUNS))
    def test_event_time_is_the_full_bisection_time(self, monkeypatch, name):
        f, y0, t1, event = _EVENT_RUNS[name]
        if y0 is None:
            y0 = ks_batch([1.0, 0, 0, 0, 1.0, 0, 0, 0])[0]
        grid = np.linspace(0.0, t1, 17)[1:]
        early_calls, full_calls = [], []
        early = integrate_ode(f, y0, (0.0, t1), t_eval=grid, event=_counted(event, early_calls))
        monkeypatch.setattr(ode, "_locate", _full_bisection)
        full = integrate_ode(f, y0, (0.0, t1), t_eval=grid, event=_counted(event, full_calls))
        assert early.status == full.status == "event"
        assert early.event_time == full.event_time
        assert np.array_equal(early.event_state, full.event_state)
        assert np.array_equal(early.eval_states, full.eval_states)
        assert len(early_calls) < len(full_calls)

    def test_fall_rows_match_the_full_bisection(self, monkeypatch):
        early = integrate_ode(radial_ode_rhs, _fall_block(), (0.0, 4.0), event=_fall_event)
        monkeypatch.setattr(ode, "_locate", _full_bisection)
        full = integrate_ode(radial_ode_rhs, _fall_block(), (0.0, 4.0), event=_fall_event)
        assert [r.event_time for r in early] == [r.event_time for r in full]


def _noisy_decay(t, y):
    np.log(np.zeros(1))  # a RuntimeWarning under numpy's default settings
    return -y


def _noisy_crossing(t, y):
    np.log(np.zeros(1))
    return _crossing_half(t, y)


def _crossing_half(t, y):
    return y[0] - 0.5


def _infinite_past_half(t, y):
    """-y until t = 0.5, inf after it: a row's step across 0.5 ends it nonfinite."""
    return np.where(t > 0.5, np.inf, -y)


def _fails_past_half(t, y):
    if np.any(t > 0.5):
        raise ValueError("f failed")
    return -y


_LONE_AND_BLOCK = pytest.mark.parametrize("y0", [[1.0], [[1.0], [2.0]]], ids=["lone", "block"])
# Settings no default has, so that a reset or a leak shows.
_CALLER_SETTINGS = {"divide": "raise", "over": "ignore", "under": "warn", "invalid": "print"}


class TestCallerWarnings:
    """The integrator's own arithmetic runs under one errstate that ignores
    every floating-point error; f and event run in the caller's context, so
    the caller's numpy error settings hold inside them: their warnings reach
    the caller, and under a raise setting their errors leave integrate_ode
    as FloatingPointError.  The caller's settings are the same after the
    call, whether it returns or raises."""

    @_LONE_AND_BLOCK
    def test_a_warning_in_f_reaches_the_caller(self, y0):
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            integrate_ode(_noisy_decay, y0, (0.0, 1.0))

    @_LONE_AND_BLOCK
    def test_a_warning_in_event_reaches_the_caller(self, y0):
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            integrate_ode(_decay, y0, (0.0, 1.0), event=_noisy_crossing)

    @_LONE_AND_BLOCK
    def test_a_raise_setting_holds_in_f_and_event(self, y0):
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError, match="divide by zero"):
                integrate_ode(_noisy_decay, y0, (0.0, 1.0))
            with pytest.raises(FloatingPointError, match="divide by zero"):
                integrate_ode(_decay, y0, (0.0, 1.0), event=_noisy_crossing)

    @_LONE_AND_BLOCK
    def test_the_integrators_arithmetic_never_raises(self, y0):
        """An inf from f runs through the stage sums and the error norm,
        which would raise under the caller's settings."""
        with np.errstate(all="raise"):
            runs = integrate_ode(_infinite_past_half, y0, (0.0, 1.0))
        for res in [runs] if isinstance(runs, OdeResult) else runs:
            assert res.status == "nonfinite"
            assert res.times[-1] <= 0.5
            assert np.all(np.isfinite(res.states))

    @_LONE_AND_BLOCK
    def test_the_callers_settings_are_kept(self, y0):
        with np.errstate(**_CALLER_SETTINGS):
            integrate_ode(_decay, y0, (0.0, 1.0), event=_crossing_half)
            assert np.geterr() == _CALLER_SETTINGS
            with pytest.raises(ValueError, match="f failed"):
                integrate_ode(_fails_past_half, y0, (0.0, 1.0))
            assert np.geterr() == _CALLER_SETTINGS
