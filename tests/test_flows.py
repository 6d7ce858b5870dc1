"""Torus flows, collision detection, and the relatedness harness."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksreg.flows import (
    HarnessResult,
    Trajectory,
    collision_set_membership,
    collision_triple_batch,
    first_collision_time,
    induced_flow_on_orbit_space,
    ks_relatedness_harness,
    oscillator_flow,
    oscillator_flow_batch,
    oscillator_rotation,
    oscillator_trajectory,
    physical_time_of_flight,
)
from ksreg.invariants import H2, K, L, U, V, XI, eval_generators
from ksreg.kepler_dynamics import radial_collision_time
from ksreg.ks_map import ks
from ksreg.sampling import sample_collision_slice, sample_level_set

CIRCULAR = (1, 0, 0, 0, 0, 0, 1, 0)
APOAPSIS = (math.sqrt(2), 0, 0, 0, 0, 0, 0, 0)

coords = st.integers(min_value=-6, max_value=6)
points = st.tuples(*[coords] * 8)
legs = st.integers(min_value=1, max_value=5)


def _pythagorean(m, n):
    den = Fraction(m * m + n * n)
    return Fraction(m * m - n * n) / den, Fraction(2 * m * n) / den


class TestOscillatorFlow:
    def test_zero_time_is_identity(self):
        assert oscillator_flow(CIRCULAR, 0.0) == CIRCULAR

    def test_quarter_period_swaps_legs(self):
        moved = oscillator_flow(CIRCULAR, math.pi / 2)
        assert np.allclose(moved[:4], CIRCULAR[4:], atol=1e-15)
        assert np.allclose(moved[4:], np.negative(CIRCULAR[:4]), atol=1e-15)

    def test_full_period_returns(self):
        moved = oscillator_flow(CIRCULAR, 2 * math.pi)
        assert np.allclose(moved, CIRCULAR, atol=1e-15)

    def test_flow_composes(self):
        a = oscillator_flow(oscillator_flow(CIRCULAR, 0.7), 1.9)
        b = oscillator_flow(CIRCULAR, 2.6)
        assert np.allclose(a, b, atol=1e-12)

    @given(points, legs, legs)
    def test_rational_rotation_preserves_invariants_exactly(self, zvals, m, n):
        z = tuple(Fraction(v) for v in zvals)
        c, s = _pythagorean(m, n)
        assert c * c + s * s == 1
        g0 = eval_generators(z)
        g1 = eval_generators(oscillator_rotation(z, c, s))
        assert g1[H2] == g0[H2]
        assert g1[XI] == g0[XI]
        assert g1[K] == g0[K]
        assert g1[L] == g0[L]

    @given(points, legs, legs)
    def test_rational_rotation_turns_uv_at_double_speed(self, zvals, m, n):
        z = tuple(Fraction(v) for v in zvals)
        c, s = _pythagorean(m, n)
        g0 = eval_generators(z)
        g1 = eval_generators(oscillator_rotation(z, c, s))
        c2, s2 = c * c - s * s, 2 * c * s
        assert g1[U] == tuple(u * c2 + v * s2 for u, v in zip(g0[U], g0[V]))
        assert g1[V] == tuple(-u * s2 + v * c2 for u, v in zip(g0[U], g0[V]))

    def test_float_drift_over_one_period(self):
        rng = np.random.default_rng(31)
        z0 = tuple(rng.standard_normal(8))
        g0 = eval_generators(z0)
        grid = np.linspace(0.0, 2 * math.pi, 64)
        batch = oscillator_flow_batch(z0, grid)
        for t, row in zip(grid, batch):
            moved = oscillator_flow(z0, float(t))
            assert np.allclose(row, moved, rtol=0, atol=1e-15)
            g = eval_generators(moved)
            assert abs(g[H2] - g0[H2]) <= 1e-13
            assert abs(g[XI] - g0[XI]) <= 1e-13


class TestTrajectoryType:
    def test_valid_build(self):
        traj = oscillator_trajectory(CIRCULAR, np.linspace(0, 1, 5))
        assert traj.states.shape == (5, 8)
        assert np.max(np.abs(traj.conserved_log["H2"] - 1)) == 0

    def test_nonincreasing_times_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 8)), {})

    def test_nonfinite_states_rejected(self):
        states = np.zeros((2, 8))
        states[1, 3] = np.inf
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), states, {})

    def test_mismatched_conserved_column_rejected(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((2, 8)),
                       {"H2": np.zeros(3)})


class TestInducedFlow:
    def test_zero_parameter_is_identity(self):
        g = eval_generators(CIRCULAR)
        assert induced_flow_on_orbit_space(g, 0.0) == g

    def test_half_turn_negates_uv(self):
        g = eval_generators(CIRCULAR)
        moved = induced_flow_on_orbit_space(g, math.pi)
        assert np.allclose(moved[U], np.negative(g[U]), atol=1e-15)
        assert np.allclose(moved[V], np.negative(g[V]), atol=1e-15)
        assert moved[K] == g[K]
        assert moved[L] == g[L]

    def test_off_space_input_rejected(self):
        g = eval_generators(CIRCULAR)
        bad = list(g)
        bad[H2] *= 1.5
        with pytest.raises(ValueError):
            induced_flow_on_orbit_space(bad, 1.0)

    def test_conjugate_to_upstairs_flow_at_double_parameter(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            z = rng.standard_normal(8)
            t = rng.uniform(0.0, 2 * math.pi)
            upstairs = eval_generators(oscillator_flow(z, t))
            downstairs = induced_flow_on_orbit_space(eval_generators(z), 2 * t)
            gap = np.max(np.abs(np.subtract(upstairs, downstairs)))
            assert gap <= 1e-12

    def test_flow_stays_on_orbit_space(self):
        from ksreg.orbit_space import relation_residuals

        g = eval_generators((1, 2, 0, 1, 0, 1, 1, -1))
        for u in np.linspace(0.0, 2 * math.pi, 17):
            moved = induced_flow_on_orbit_space(g, float(u))
            assert relation_residuals(moved).max_abs_residual() <= 1e-12


class TestCollisionSet:
    def test_collinear_point_is_member(self):
        assert collision_set_membership((1, 0, 0, 0, 1, 0, 0, 0))

    def test_circular_point_is_not(self):
        assert not collision_set_membership(CIRCULAR)

    def test_rest_point_is_member(self):
        assert collision_set_membership(APOAPSIS)

    def test_off_level_input_rejected(self):
        with pytest.raises(ValueError):
            collision_set_membership((2, 0, 0, 0, 0, 0, 0, 0))
        batch = sample_level_set(np.random.default_rng(40), 4)
        batch[1] = (2, 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="point 1"):
            collision_triple_batch(batch)

    def test_membership_matches_zero_crossing_and_image_momentum(self):
        rng = np.random.default_rng(41)
        half = 100
        batch = np.vstack([
            sample_level_set(rng, half),
            sample_collision_slice(rng, half),
        ])
        triple = collision_triple_batch(batch)
        for k, row in enumerate(batch):
            member = collision_set_membership(row)
            tau = first_collision_time(row)
            assert member == (tau is not None)
            image = np.array(ks(tuple(row)))
            j_norm = float(np.linalg.norm(np.cross(image[:3], image[3:])))
            assert member == (j_norm <= 1e-9)
            assert tuple(side[k] for side in triple) == (member, tau is not None, member)


class TestFirstCollisionTime:
    def test_rest_seed_quarter_turn(self):
        assert abs(first_collision_time(APOAPSIS) - math.pi / 2) < 1e-12

    def test_circular_seed_never_collides(self):
        assert first_collision_time(CIRCULAR) is None

    def test_equal_legs_collide_at_three_quarters(self):
        z = (1, 0, 0, 0, 1, 0, 0, 0)
        assert abs(first_collision_time(z) - 3 * math.pi / 4) < 1e-12

    def test_pure_momentum_seed_half_turn(self):
        z = (0, 0, 0, 0, math.sqrt(2), 0, 0, 0)
        assert abs(first_collision_time(z) - math.pi) < 1e-12

    def test_flow_equivariance(self):
        tau0 = first_collision_time(APOAPSIS)
        for a in (0.3, 1.0, 2.5):
            shifted = first_collision_time(oscillator_flow(APOAPSIS, a))
            expected = (tau0 - a) % math.pi
            if expected == 0.0:
                expected = math.pi
            assert abs(shifted - expected) < 1e-9

    def test_off_level_input_rejected(self):
        with pytest.raises(ValueError):
            first_collision_time((2, 0, 0, 0, 0, 0, 0, 0))


class TestPhysicalTimeOfFlight:
    def test_rest_seed_reaches_center_at_pi(self):
        value = physical_time_of_flight(APOAPSIS, math.pi / 2)
        assert abs(value - math.pi) < 1e-12
        assert abs(value - radial_collision_time(2.0)) < 1e-12

    def test_circular_period(self):
        assert abs(physical_time_of_flight(CIRCULAR, math.pi) - 2 * math.pi) < 1e-12

    def test_zero_parameter(self):
        assert physical_time_of_flight(CIRCULAR, 0.0) == 0.0


class TestHarness:
    def test_circular_seed_agrees(self):
        res = ks_relatedness_harness(CIRCULAR, 2 * math.pi)
        assert res.status == "completed"
        assert res.max_deviation <= 1e-6

    def test_zero_horizon(self):
        res = ks_relatedness_harness(CIRCULAR, 0.0)
        assert res.max_deviation == 0.0
        assert res.status == "completed"

    def test_collision_seed_reports_fall_time(self):
        res = ks_relatedness_harness(APOAPSIS, 2 * math.pi)
        assert res.status == "event"
        assert res.collision_time is not None
        assert abs(res.collision_time - math.pi) < 1e-6
        assert res.times[-1] < math.pi / 2
        assert res.max_deviation <= 1e-5
        assert np.array_equal(res.chart, oscillator_flow_batch(APOAPSIS, res.times))

    def test_near_collision_seed_stays_accurate(self):
        # |L| = 1e-3 passes within 5e-7 of the center; the guard is
        # lowered below that periapsis so the full period is covered
        lam = 1e-3
        a = math.sqrt(1 + math.sqrt(1 - lam * lam))
        z = (a, 0, 0, 0, 0, 0, lam / a, 0)
        res = ks_relatedness_harness(z, math.pi, guard=1e-8)
        assert res.status == "completed"
        assert res.max_deviation <= 1e-5

    def test_off_level_seed_rejected(self):
        with pytest.raises(ValueError):
            ks_relatedness_harness((2, 0, 0, 0, 0, 0, 0, 0), 1.0)

    def test_chartless_start_rejected(self):
        z = (0, 0, 0, 0, math.sqrt(2), 0, 0, 0)
        with pytest.raises(ValueError):
            ks_relatedness_harness(z, 1.0)

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            ks_relatedness_harness(CIRCULAR, -1.0)

    def test_step_budget_status_passes_through(self):
        res = ks_relatedness_harness(CIRCULAR, 2 * math.pi, max_steps=3)
        assert res.status == "step_budget_exhausted"
        assert res.stats.steps == 3
        assert res.collision_time is None
        assert "collision_time" not in res.to_json_dict()

    def test_report_shape(self):
        res = ks_relatedness_harness(APOAPSIS, 2 * math.pi)
        report = res.to_json_dict()
        assert set(report) == {"t_max", "max_deviation", "integrator_stats",
                               "status", "collision_time"}
        assert set(report["integrator_stats"]) == {"steps", "rejected_steps", "rhs_evaluations"}
        clean = ks_relatedness_harness(CIRCULAR, 1.0).to_json_dict()
        assert "collision_time" not in clean
