"""Torus flows, collision detection, and the relatedness harness."""
import functools
import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksreg import flows
from ksreg.flows import (
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
from ksreg.kepler_dynamics import COLLISION_GUARD, preregularized_vector_field, radial_collision_time
from ksreg.ks_map import ks, ks_batch
from ksreg.ode import integrate_ode
from ksreg.sampling import sample_collision_slice, sample_level_set

CIRCULAR = (1, 0, 0, 0, 0, 0, 1, 0)
APOAPSIS = (math.sqrt(2), 0, 0, 0, 0, 0, 0, 0)
# sample_collision_slice(np.random.default_rng(0), 1)[0]: it falls off the
# axes, so all three x entries of its event state are nonzero.
OFF_AXIS_FALL = (0.12801146096234145, -0.13450176419866774, 0.65204243183286104,
                 0.10680341715065199, 0.23062991181226061, -0.24232306843883103,
                 1.1747423818223885, 0.19242076055947235)

# sample_level_set(np.random.default_rng(0), 1)[0]: an orbit that misses the
# collision guard and runs to t_max.
LEVEL_SET_START = (0.10206834185519, -0.10724330419441429, 0.5198979008292428,
                   0.08515837262604284, -0.539750511117119, 0.1937141558184782,
                   1.141884026951941, 0.26034636958826557)

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
        assert np.allclose(moved[U], np.negative(np.array(g[U], dtype=float)), atol=1e-15)
        assert np.allclose(moved[V], np.negative(np.array(g[V], dtype=float)), atol=1e-15)
        assert moved[K] == g[K]
        assert moved[L] == g[L]

    def test_off_space_input_rejected(self):
        g = eval_generators(CIRCULAR)
        bad = list(g)
        bad[H2] *= 1.5
        with pytest.raises(ValueError):
            induced_flow_on_orbit_space(bad, 1.0)
        nan_k1 = list(g)
        nan_k1[0] = math.nan
        with pytest.raises(ValueError):
            induced_flow_on_orbit_space(nan_k1, 1.0)

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
            assert all(abs(v) <= 1e-12 for v in relation_residuals(moved).residuals.values())


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

    def test_collision_clock_is_the_radial_fall_time(self):
        # An inward start on the collision slice falls straight into the
        # center, so the KS clock at its first collision is Kepler's closed
        # form for the fall from r0 = |x|: no integration on either side.
        Z = sample_collision_slice(np.random.default_rng(3), 2000)
        W = ks_batch(Z)
        r0 = np.linalg.norm(W[:, :3], axis=1)
        inward = (r0 > 0) & (r0 <= 2) & (np.sum(W[:, :3] * W[:, 3:], axis=1) < 0)
        assert np.count_nonzero(inward) == 1008
        for z, r in zip(Z[inward], r0[inward].tolist()):
            clock = physical_time_of_flight(z, first_collision_time(z))
            assert abs(clock - radial_collision_time(r)) <= 1e-11


def _harness_in_t(z0, t_max, samples):
    """The harness's outputs as it formed them when it integrated twice the
    preregularized field in t over (0, t_max), on the grid of the t_i."""
    w0 = ks_batch(z0)[0]
    res = integrate_ode(
        lambda t, w: 2 * preregularized_vector_field(w),
        w0,
        (0.0, t_max),
        tol=1e-10,
        t_eval=np.linspace(0.0, t_max, samples + 1)[1:],
        event=lambda t, w: flows._guard_event(t, w, COLLISION_GUARD),
    )
    times = np.concatenate([[0.0], res.eval_times])
    integrated = np.vstack([w0, res.eval_states])
    chart = oscillator_flow_batch(z0, times)
    pushed = ks_batch(chart)
    collision_time = None
    if res.status == "event":
        collision_time = physical_time_of_flight(z0, first_collision_time(z0))
    return {"times": times, "chart": chart, "ks_image": pushed, "integrated": integrated,
            "stats": res.stats, "status": res.status, "collision_time": collision_time,
            "max_deviation": float(np.max(np.linalg.norm(pushed - integrated, axis=1)))}


class TestHarness:
    def test_circular_seed_agrees(self):
        res = ks_relatedness_harness(CIRCULAR, 2 * math.pi)
        assert res.status == "completed"
        assert res.max_deviation <= 1e-6
        assert res.chart.dtype == res.ks_image.dtype == np.float64

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

    def test_near_collision_seed_stays_accurate(self, monkeypatch):
        # |L| = 1e-3 passes within 5e-7 of the center; the guard is
        # lowered below that periapsis so the full period is covered
        monkeypatch.setattr(flows, "COLLISION_GUARD", 1e-8)
        lam = 1e-3
        a = math.sqrt(1 + math.sqrt(1 - lam * lam))
        z = (a, 0, 0, 0, 0, 0, lam / a, 0)
        res = ks_relatedness_harness(z, math.pi)
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

    @pytest.mark.parametrize("t_max", [math.nan, math.inf, 0.75 * sys.float_info.max])
    def test_horizon_whose_double_is_not_finite_rejected(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            ks_relatedness_harness(CIRCULAR, t_max)

    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_fewer_than_two_samples_rejected(self, samples):
        with pytest.raises(ValueError):
            ks_relatedness_harness(CIRCULAR, 1.0, samples=samples)

    @pytest.mark.parametrize("z0, t_max, status", [
        (CIRCULAR, 2 * math.pi, "completed"),
        ((1, 0, 0, 0, 1, 0, 0, 0), 3.0, "event"),
    ])
    def test_sundman_clock_matches_the_time_of_flight(self, z0, t_max, status):
        # The harness integrates the preregularized field in s = 2t, whose
        # physical clock runs at |x| per unit s, so at 2|x| per unit t:
        # scipy's cumulative Simpson rule integrates it as the oracle.
        from scipy import integrate

        res = ks_relatedness_harness(z0, t_max)
        assert res.status == status
        radii = np.linalg.norm(res.integrated[:, :3], axis=1)
        t = 2 * integrate.cumulative_simpson(radii, x=res.times, initial=0)
        flight = [physical_time_of_flight(z0, s) for s in res.times]
        assert np.max(np.abs(t - flight)) <= 1e-6

    @pytest.mark.parametrize("z0, t_max, samples, fingerprint", [
        (CIRCULAR, 3.0, 16, (173, 0, 1039, "completed", None,
                             "7d1dedd87286e9a0f563fd144e7bac862638622b1dc947dcec10db8ebb87e644")),
        (CIRCULAR, 2 * math.pi, 256, (361, 0, 2167, "completed", None,
                                      "500bdb4a929f5e49759cd805cbb7c8216389c68b4c2e53616ba1861057b4ad0a")),
        ((1, 0, 0, 0, 1, 0, 0, 0), 3.0, 256, (297, 1, 1789, "event", "0x1.2d809c4ed3f02p+1",
                                              "c22309e72fc1297d8da5076cb9c8c78755e47fbfc1c4f5f1c14b300d1499e06f")),
        (OFF_AXIS_FALL, 3.0, 256, (341, 1, 2053, "event", "0x1.512c8f4f9bfaap+1",
                                   "24a2aa90e90cf6094feabcbe89159c6e904c378626f9b5e1316b1a8eefdb3019")),
    ], ids=["ci_orbit", "ci_default", "ci_collision", "off_axis_fall"])
    def test_integrator_fingerprint(self, monkeypatch, z0, t_max, samples, fingerprint):
        """Steps, rejections, RHS calls, status, event time and the SHA-256
        of the sampled states of the harness's integration, for the CI's
        three orbit runs and an off-axis fall.  The integration runs in
        s = 2t, so its event time is halved, exactly, back to t."""
        runs = []

        def spy(*args, **kwargs):
            runs.append(integrate_ode(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(flows, "integrate_ode", spy)
        ks_relatedness_harness(z0, t_max, samples=samples)
        (res,) = runs
        event_time = None if res.event_time is None else (res.event_time / 2).hex()
        digest = hashlib.sha256(res.eval_states.tobytes()).hexdigest()
        assert (res.stats.steps, res.stats.rejected_steps, res.stats.rhs_evaluations,
                res.status, event_time, digest) == fingerprint
        if z0 == OFF_AXIS_FALL:
            assert np.all(res.event_state[:3] != 0)

    @pytest.mark.parametrize("z0", [LEVEL_SET_START, OFF_AXIS_FALL], ids=["level_set", "collision_slice"])
    @pytest.mark.parametrize("samples", [2, 16, 256])
    @pytest.mark.parametrize("t_max", [0.01, 0.5, 1.0, 3.0, 2 * math.pi, 40.0, 100.0, 1000.0])
    def test_the_run_in_s_is_the_doubled_field_run_in_t(self, z0, t_max, samples):
        """The harness against its former form, which integrated twice the
        field in t over (0, t_max): the same bytes in every output."""
        want = _harness_in_t(z0, t_max, samples)
        got = ks_relatedness_harness(z0, t_max, samples=samples)
        for name in ("times", "chart", "ks_image", "integrated"):
            assert getattr(got, name).tobytes() == want[name].tobytes(), name
        assert (got.stats, got.status) == (want["stats"], want["status"])
        assert got.collision_time == want["collision_time"]
        assert got.max_deviation.hex() == want["max_deviation"].hex()

    def test_guard_event_is_the_blas_dot_in_every_column(self):
        """The guard event gives each column the bits of the 1-D BLAS dot
        the harness's event used on a lone state, whatever the layout of
        the columns: C-ordered, the integrator's transposed rows, or one
        column at a time as in the event search."""
        rng = np.random.default_rng(11)
        n = 12_000
        W = rng.standard_normal((6, n)) * 10.0 ** rng.uniform(-4, 2, (6, n))
        for guard in (COLLISION_GUARD, 1e-3, 0.7):
            # x @ x on a contiguous 3-vector, as on a lone (6,) state.
            want = np.array([x @ x - guard * guard for x in np.ascontiguousarray(W[:3].T)])
            for columns in (W, np.ascontiguousarray(W.T).T):
                got = flows._guard_event(np.zeros(n), columns, guard)
                assert got.shape == (n,)
                assert got.tobytes() == want.tobytes()
            for j in range(0, n, 40):
                lone = flows._guard_event(np.zeros(1), W[:, j].copy()[:, None], guard)
                assert lone.tobytes() == want[j:j + 1].tobytes()

    def test_step_budget_status_passes_through(self, monkeypatch):
        monkeypatch.setattr(flows, "integrate_ode", functools.partial(integrate_ode, max_steps=3))
        res = ks_relatedness_harness(CIRCULAR, 2 * math.pi)
        assert res.status == "step_budget_exhausted"
        assert res.stats.steps == 3
        assert res.collision_time is None
