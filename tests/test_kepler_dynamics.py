"""Kepler-side energies, fields, conserved quantities, and time changes."""
import csv
import math

import numpy as np
import pytest

from ksreg.kepler_dynamics import (
    angular_momentum,
    eccentricity,
    kepler_energy,
    kepler_vector_field,
    preregularized_hamiltonian,
    preregularized_vector_field,
    radial_collision_time,
    radial_collision_time_quadrature,
    radial_ode_rhs,
    rescaled_kepler_vector_field,
    sundman_reparametrize,
    sundman_time,
    symplectic_scaling,
    write_trajectory_csv,
)
from ksreg.ode import integrate_ode

CIRCULAR = (0, 0, 1, 1, 0, 0)
APOAPSIS = (0, 0, 2, 0, 0, 0)


def _on_shell_state(rng):
    # energy -1/2 forces |y|^2 = 2/|x| - 1, so |x| < 2
    r = rng.uniform(0.3, 1.9)
    x = rng.standard_normal(3)
    x *= r / np.linalg.norm(x)
    y = rng.standard_normal(3)
    y *= math.sqrt(2 / r - 1) / np.linalg.norm(y)
    return np.concatenate([x, y])


class TestEnergies:
    def test_circular_energy(self):
        assert kepler_energy(CIRCULAR) == -0.5

    def test_apoapsis_energy(self):
        assert kepler_energy(APOAPSIS) == -0.5

    def test_energy_vanishes_far_away(self):
        value = kepler_energy((1e6, 0, 0, 0, 0, 0))
        assert value < 0
        assert abs(value) <= 1e-6

    def test_collision_point_rejected(self):
        bad = (0, 0, 0, 1, 0, 0)
        for fn in (kepler_energy, preregularized_vector_field,
                   kepler_vector_field, angular_momentum, eccentricity):
            with pytest.raises(ValueError):
                fn(bad)

    def test_underflowing_radius_rejected(self):
        """|x|^2 underflows to 0 at |x| = 1e-170: rejected, not divided by."""
        bad = (1e-170, 0, 0, 1, 0, 0)
        for fn in (kepler_energy, preregularized_vector_field,
                   rescaled_kepler_vector_field, kepler_vector_field):
            with pytest.raises(ValueError):
                fn(bad)

    def test_flat_input_of_the_wrong_length_rejected(self):
        for fn in (kepler_energy, preregularized_hamiltonian, preregularized_vector_field,
                   rescaled_kepler_vector_field, kepler_vector_field, angular_momentum,
                   eccentricity):
            for w in ([0.0, 0, 1, 1, 0], np.array([0.0, 0, 1, 1, 0, 0, 0])):
                with pytest.raises(ValueError):
                    fn(w)
        with pytest.raises(ValueError):
            symplectic_scaling([0.0, 0, 1, 1, 0], 2.0)

    def test_regularized_energy_examples(self):
        assert preregularized_hamiltonian(CIRCULAR) == 1
        assert preregularized_hamiltonian(APOAPSIS) == 1
        assert preregularized_hamiltonian((0, 0, 0, 3, 1, 2)) == 0

    def test_regularized_energy_accepts_arrays(self):
        assert preregularized_hamiltonian(np.array([0.0, 0, 1, 1, 0, 0])) == 1


class TestVectorFields:
    def test_circular_field(self):
        field = preregularized_vector_field(CIRCULAR)
        assert np.allclose(field[:3], [1, 0, 0], atol=1e-15)
        assert abs(np.dot([0, 0, 1], field[:3])) == 0

    def test_radial_field_points_inward(self):
        field = preregularized_vector_field(APOAPSIS)
        assert np.all(field[:3] == 0)
        assert np.allclose(field[3:], [0, 0, -0.5], atol=1e-15)

    def test_zero_velocity_field_is_antiparallel_to_x(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(3)
            field = preregularized_vector_field(np.concatenate([x, np.zeros(3)]))
            dy = field[3:]
            assert np.linalg.norm(np.cross(dy, x)) < 1e-12
            assert np.dot(dy, x) < 0

    def test_gradient_and_rescaled_forms_agree_on_shell(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = _on_shell_state(rng)
            a = preregularized_vector_field(w)
            b = rescaled_kepler_vector_field(w)
            assert np.max(np.abs(a - b)) < 1e-12

    def test_rescaled_form_is_radius_times_raw_field_on_shell(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            w = _on_shell_state(rng)
            r = np.linalg.norm(w[:3])
            a = preregularized_vector_field(w)
            raw = kepler_vector_field(w)
            assert np.max(np.abs(a - r * raw)) < 1e-12

    def test_raw_field_example(self):
        field = kepler_vector_field(CIRCULAR)
        assert np.allclose(field, [1, 0, 0, 0, 0, -1], atol=1e-15)


class TestConservedQuantities:
    def test_circular_invariants(self):
        assert angular_momentum(CIRCULAR) == (0, 1, 0)
        assert eccentricity(CIRCULAR) == (0, 0, 0)

    def test_radial_invariants(self):
        assert angular_momentum(APOAPSIS) == (0, 0, 0)
        assert eccentricity(APOAPSIS) == (0, 0, -1)

    def test_parallel_velocity_kills_angular_momentum(self):
        w = (1, 2, 3, 2, 4, 6)
        assert angular_momentum(w) == (0, 0, 0)

    def test_eccentricity_angular_momentum_relations(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = np.concatenate([rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 3)])
            if np.linalg.norm(w[:3]) < 0.1:
                continue
            j = np.array(angular_momentum(w))
            e = np.array(eccentricity(w))
            k = kepler_energy(w)
            assert abs(np.dot(e, j)) < 1e-10
            assert abs(np.dot(e, e) - (1 + 2 * k * np.dot(j, j))) < 1e-10

    def test_on_shell_relation_ties_both_norms(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            w = _on_shell_state(rng)
            j = np.array(angular_momentum(w))
            e = np.array(eccentricity(w))
            assert abs(np.dot(e, e) - (1 - np.dot(j, j))) < 1e-8

    def test_drift_along_regularized_flow(self):
        # eccentric orbit on the -1/2 shell: apoapsis 1.5, |e| = 0.5
        w0 = np.array([1.5, 0, 0, 0, math.sqrt(1 / 3), 0])
        j0 = np.array(angular_momentum(w0))
        e0 = np.array(eccentricity(w0))
        res = integrate_ode(
            lambda s, w: preregularized_vector_field(w), w0, (0.0, 4 * math.pi)
        )
        assert res.status == "completed"
        for w in res.states:
            assert abs(preregularized_hamiltonian(w) - 1) <= 1e-8
            assert np.max(np.abs(np.array(angular_momentum(w)) - j0)) <= 1e-8
            assert np.max(np.abs(np.array(eccentricity(w)) - e0)) <= 1e-8


class TestRadialFall:
    def test_rhs_example(self):
        assert np.array_equal(radial_ode_rhs(0.0, np.array([2.0, 0.0])), [0.0, -0.25])

    def test_on_shell_speed_at_unit_radius(self):
        """(r, rdot) = (1, -1) is on the energy -1/2 shell of the fall."""
        assert kepler_energy((1.0, 0, 0, -1.0, 0, 0)) == -0.5

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_ode_rhs(0.0, np.array([0.0, 1.0]))

    def test_energy_relation_preserved_during_fall(self):
        res = integrate_ode(
            radial_ode_rhs,
            np.array([2.0, 0.0]),
            (0.0, 4.0),
            rtol=1e-13,
            atol=1e-13,
            event=lambda t, u: u[0] - 1e-3,
        )
        assert res.status == "event"
        for r, rdot in res.states:
            assert abs(rdot**2 - 2 / r + 1) <= 1e-9

    def test_fall_time_examples(self):
        assert radial_collision_time(2.0) == math.pi
        assert abs(radial_collision_time(1.0) - (math.pi / 2 - 1)) < 1e-15
        assert radial_collision_time(1e-8) < 1e-3

    def test_domain_rejected(self):
        for r0 in (0.0, -1.0, 2.0 + 1e-9, 3.0):
            with pytest.raises(ValueError):
                radial_collision_time(r0)
            with pytest.raises(ValueError):
                radial_collision_time_quadrature(r0)

    def test_closed_form_matches_quadrature(self):
        for r0 in (0.25, 0.5, 1.0, 1.5, 2.0):
            gap = radial_collision_time(r0) - radial_collision_time_quadrature(r0)
            assert abs(gap) < 1e-9

    def test_closed_form_matches_integrated_fall(self):
        # start on the shell, moving inward through r0
        for r0 in (0.25, 0.5, 1.0, 1.5, 2.0):
            rdot0 = -math.sqrt(2 / r0 - 1)
            res = integrate_ode(
                radial_ode_rhs,
                np.array([r0, rdot0]),
                (0.0, 4.0),
                event=lambda t, u: u[0] - 1e-6,
            )
            assert res.status == "event"
            assert abs(res.event_time - radial_collision_time(r0)) <= 1e-5

    def test_fall_time_bound(self):
        for r0 in (0.25, 0.5, 1.0, 1.5):
            assert radial_collision_time(r0) < math.pi
        assert radial_collision_time(2.0) == math.pi


def _circle_path(radius, s_grid):
    states = np.zeros((s_grid.size, 6))
    states[:, 0] = radius * np.cos(s_grid)
    states[:, 1] = radius * np.sin(s_grid)
    return states


class TestSundmanTime:
    def test_unit_radius_keeps_time(self):
        s = np.linspace(0.0, 2 * math.pi, 201)
        t = sundman_time(s, _circle_path(1.0, s))
        assert np.max(np.abs(t - s)) < 1e-12

    def test_radius_two_doubles_time(self):
        s = np.linspace(0.0, 1.0, 101)
        t = sundman_time(s, _circle_path(2.0, s))
        assert np.max(np.abs(t - 2 * s)) < 1e-12

    def test_circular_period_is_preserved(self):
        s = np.linspace(0.0, 2 * math.pi, 201)
        t = sundman_time(s, _circle_path(1.0, s))
        assert abs(t[-1] - 2 * math.pi) < 1e-12

    def test_radial_fall_follows_the_cycloid(self):
        # the rest-to-fall solution from radius 2 traces r = 1 + cos s,
        # t = s + sin s in the rescaled parameter; collision lands at
        # s = pi, t = pi, matching the closed-form fall time
        s_grid = np.linspace(0.0, 3.0, 301)
        res = integrate_ode(
            lambda s, w: preregularized_vector_field(w),
            np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0]),
            (0.0, 3.0),
            t_eval=s_grid,
        )
        radii = np.linalg.norm(res.eval_states[:, :3], axis=1)
        assert np.max(np.abs(radii - (1 + np.cos(s_grid)))) < 1e-8
        t = sundman_time(s_grid, res.eval_states)
        assert np.max(np.abs(t - (s_grid + np.sin(s_grid)))) < 1e-6

    def test_scale_parameter_divides_time(self):
        s = np.linspace(0.0, 1.0, 51)
        t = sundman_time(s, _circle_path(1.0, s), k=2.0)
        assert np.max(np.abs(t - s / 2)) < 1e-12

    def test_collision_touching_path_rejected(self):
        s = np.linspace(0.0, 1.0, 11)
        states = _circle_path(1.0, s)
        states[5, :3] = 0
        with pytest.raises(ValueError):
            sundman_time(s, states)

    def test_nonpositive_scale_rejected(self):
        s = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            sundman_time(s, _circle_path(1.0, s), k=0.0)

    def test_single_point_path(self):
        t = sundman_time(np.array([0.0]), _circle_path(1.0, np.array([0.0])))
        assert t.shape == (1,)
        assert t[0] == 0.0


class TestSundmanResampling:
    def test_unit_circle_resamples_exactly(self):
        s = np.linspace(0.0, 2 * math.pi, 4001)
        states = _circle_path(1.0, s)
        out = sundman_reparametrize(np.array([0.5, 1.0, 2.0]), s, states)
        for t_req, row in zip([0.5, 1.0, 2.0], out):
            assert abs(row[0] - math.cos(t_req)) < 1e-6
            assert abs(row[1] - math.sin(t_req)) < 1e-6

    def test_cycloid_resample_hits_known_radius(self):
        s = np.linspace(0.0, 2.5, 2501)
        states = np.zeros((s.size, 6))
        states[:, 2] = 1 + np.cos(s)
        # t = pi/2 + 1 corresponds to s = pi/2, where the radius is 1
        out = sundman_reparametrize(np.array([math.pi / 2 + 1]), s, states)
        assert abs(out[0, 2] - 1.0) < 1e-6

    def test_out_of_span_times_rejected(self):
        s = np.linspace(0.0, 1.0, 51)
        states = _circle_path(1.0, s)
        with pytest.raises(ValueError):
            sundman_reparametrize(np.array([5.0]), s, states)


class TestScaling:
    def test_scaled_energy_composes_to_unit_form(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            w = rng.uniform(-2, 2, 6)
            if np.linalg.norm(w[:3]) < 0.1:
                continue
            k = rng.uniform(0.2, 5.0)
            scaled = np.array(symplectic_scaling(w, k))
            x, y = scaled[:3], scaled[3:]
            lifted = np.linalg.norm(x) * (y @ y + k * k) / (2 * k)
            assert abs(lifted - preregularized_hamiltonian(w)) < 1e-12

    def test_unit_scale_is_identity(self):
        w = (1, 2, 3, 4, 5, 6)
        assert symplectic_scaling(w, 1.0) == w

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            symplectic_scaling(CIRCULAR, 0.0)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "path.csv"
        times = np.array([0.0, 0.25])
        states = np.array([
            [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
            [0.1, 0.0, 1.0, 1.0, 0.05, 0.0],
        ])
        write_trajectory_csv(path, times, states)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "x2", "x3", "y1", "y2", "y3",
                           "energy", "J1", "J2", "J3", "e1", "e2", "e3"]
        assert len(rows) == 3
        first = [float(v) for v in rows[1]]
        assert first[0] == 0.0
        assert first[1:7] == list(states[0])
        assert first[7] == kepler_energy(states[0])
        assert tuple(first[8:11]) == angular_momentum(states[0])
        assert tuple(first[11:14]) == eccentricity(states[0])
