"""Kepler-side energies, fields, conserved quantities, and time changes."""
import csv
import math
import warnings

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
    write_csv,
    write_trajectory_csv,
)
from ksreg import verify
from ksreg.ode import integrate_ode
from ksreg.verify import fall_time_rows

CIRCULAR = (0, 0, 1, 1, 0, 0)
APOAPSIS = (0, 0, 2, 0, 0, 0)
# A point whose radius r has r**2 != r * r in Python floats: column 176 of
# default_rng(7)'s standard_normal((6, N)) * 10.0 ** integers(-6, 7, (6, N)).
R_SQUARED_POINT = (0.13355318553000226, -2.3291527642928636e-06, 2.574955460528721e-05,
                   7.944456273423317, -0.0007984744992246956, 0.5144000803197023)
# Fall-quadrature radii: verify's grid, a log-spaced sweep, and the apex approach.
FALL_GRID = verify.FALL_GRID
LOG_SPACED_R0 = tuple(np.logspace(-8, math.log10(2), 200).tolist())
NEAR_APEX_R0 = tuple(2 - 10.0**-k for k in range(1, 13))


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
        for bad in ((0, 0, 0, 1, 0, 0), np.array([0.0, 0, 0, 1, 0, 0])):
            for fn in (kepler_energy, preregularized_vector_field,
                       kepler_vector_field, angular_momentum, eccentricity):
                with pytest.raises(ValueError):
                    fn(bad)

    def test_underflowing_radius_rejected(self):
        """|x|^2 underflows to 0 at |x| = 1e-170: rejected, not divided by."""
        for bad in ((1e-170, 0, 0, 1, 0, 0), np.array([1e-170, 0, 0, 1, 0, 0])):
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

    def test_regularized_energy_examples(self):
        assert preregularized_hamiltonian(CIRCULAR) == 1
        assert preregularized_hamiltonian(APOAPSIS) == 1
        assert preregularized_hamiltonian((0, 0, 0, 3, 1, 2)) == 0

    def test_regularized_energy_accepts_arrays(self):
        assert preregularized_hamiltonian(np.array([0.0, 0, 1, 1, 0, 0])) == 1


PHASE_FIELDS = [kepler_vector_field, preregularized_vector_field, rescaled_kepler_vector_field]


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

    def test_single_point_field_is_the_array_formula_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            w = rng.standard_normal(6) * 10.0 ** rng.integers(-4, 5)
            x, y = w[:3], w[3:]
            r = math.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
            yy = y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
            former = np.concatenate([r * y, -(yy + 1) / 2 * x / r])
            assert preregularized_vector_field(w).tobytes() == former.tobytes()
            assert preregularized_vector_field(tuple(w)).tobytes() == former.tobytes()

    def test_raw_field_example(self):
        field = kepler_vector_field(CIRCULAR)
        assert np.allclose(field, [1, 0, 0, 0, 0, -1], atol=1e-15)

    @pytest.mark.parametrize("field", PHASE_FIELDS, ids=["kepler", "preregularized", "rescaled"])
    def test_columns_give_the_lone_point_bytes(self, field):
        rng = np.random.default_rng(5)
        w = rng.uniform(-1.0, 1.0, (6, 50)) * 10.0 ** rng.integers(-4, 5, 50)
        w = np.column_stack([w, R_SQUARED_POINT])
        cols = field(w)
        per_point = np.stack([field(c) for c in w.T], axis=1)
        assert cols.tobytes() == per_point.tobytes()

    def test_rescaled_field_divides_by_r_times_r_alone_and_in_a_column(self):
        # Python's r**2 rounds off r * r at this radius; the field divides by r * r.
        w = np.array(R_SQUARED_POINT)
        for got in (rescaled_kepler_vector_field(w), rescaled_kepler_vector_field(w[:, None])[:, 0]):
            assert got[3] == -32.1894961770749

    def test_stacks_of_columns_rejected(self):
        for field in PHASE_FIELDS:
            with pytest.raises(ValueError):
                field(np.ones((6, 2, 2)))


def _former_point(w):
    """The former numpy preamble of the fields: float x and y, and r = |x|.

    On (6, m) columns, a lone point as one column.
    """
    c = np.asarray(w, dtype=float).reshape(6, -1)
    x, y = c[:3], c[3:]
    rr = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    if np.any(rr == 0):
        raise ValueError("x = 0")
    return x, y, np.sqrt(rr)


def _former_kepler(w):
    x, y, r = _former_point(w)
    return np.concatenate([y, -x / (r * r * r)]).reshape(np.shape(w))


def _former_preregularized(w):
    # Entry by entry, as the former body ran.
    x, y, r = _former_point(w)
    c = -(y[0] * y[0] + y[1] * y[1] + y[2] * y[2] + 1) / 2
    return np.array([r * y[0], r * y[1], r * y[2], c * x[0] / r, c * x[1] / r,
                     c * x[2] / r]).reshape(np.shape(w))


def _former_rescaled(w):
    x, y, r = _former_point(w)
    energy = (y[0] * y[0] + y[1] * y[1] + y[2] * y[2]) / 2 - 1 / r
    dy = -x / r**2 - (energy + 0.5) * x / r
    return np.concatenate([r * y, dy]).reshape(np.shape(w))


def _former_radial(u):
    u = np.asarray(u)
    r = u[0]
    if not r.min() > 0:
        raise ValueError("r must be positive")
    return np.array([u[1], -1 / (r * r)])


def _radial(u):
    return radial_ode_rhs(0.0, u)


# (field, its former numpy formula, the length of a point).
FORMER = [
    (kepler_vector_field, _former_kepler, 6),
    (preregularized_vector_field, _former_preregularized, 6),
    (rescaled_kepler_vector_field, _former_rescaled, 6),
    (_radial, _former_radial, 2),
]
FIELD_IDS = ["kepler", "preregularized", "rescaled", "radial"]


def _outcome(f, arg):
    """The shape, dtype and bytes f returns, or ValueError, and the warnings it gave.

    numpy names an operation on numpy scalars "scalar divide" and on
    arrays "divide"; the word is dropped so that the two compare equal.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = f(arg)
            result = (out.shape, out.dtype, out.tobytes())
        except ValueError:
            result = ValueError
    return result, {str(w.message).replace("scalar ", "") for w in caught}


def _warns_as_former(field, former, arg, *messages):
    """field(arg) warns with each message, and gives the former value and warnings."""
    with pytest.warns(RuntimeWarning) as caught:
        field(arg)
    got = {str(w.message).replace("scalar ", "") for w in caught}
    assert set(messages) <= got
    assert _outcome(field, arg) == _outcome(former, np.asarray(arg, dtype=float))


class TestFieldsInPythonFloats:
    """The phase fields and radial_ode_rhs run in Python floats; they must
    give the former numpy formulas' values, warnings and exceptions at every
    input."""

    @pytest.mark.parametrize("field, former, d", FORMER, ids=FIELD_IDS)
    def test_points_columns_and_tuples_give_the_former_bytes(self, field, former, d):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = rng.uniform(0.01, 2.0, d) * rng.choice([-1.0, 1.0], d) * 10.0 ** rng.integers(-6, 7, d)
            p[0] = abs(p[0])
            for arg in (p, tuple(p.tolist())):
                assert _outcome(field, arg) == (_outcome(former, p)[0], set())
        for m in (1, 2, 3, 4, 5, 50):
            cols = rng.uniform(0.01, 2.0, (d, m)) * 10.0 ** rng.integers(-6, 7, (d, m))
            for arg in (cols, cols.T.copy().T):
                assert _outcome(field, arg) == (_outcome(former, cols)[0], set())

    @pytest.mark.parametrize("field, former, d", FORMER, ids=FIELD_IDS)
    def test_edge_values_give_the_former_values_warnings_and_errors(self, field, former, d):
        edges = [0.0, -0.0, 1.0, -2.5, 1e-110, 1e-160, 1e-170, 5e-324, 1e103, 1e155, 1e200,
                 1e308, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(31)
        for _ in range(400):
            m = int(rng.integers(0, 4))
            values = rng.choice(edges, d * max(m, 1))
            arg = values if m == 0 else values.reshape(d, m)
            assert _outcome(field, arg) == _outcome(former, arg), arg.tolist()
            if m == 0:
                # A lone point gives the bytes, warnings or error of its column.
                column = _outcome(lambda c: field(c)[:, 0], arg[:, None])
                assert _outcome(field, arg) == column, arg.tolist()

    def test_r_cubed_underflow_divides_as_numpy_does(self):
        # |x|^2 = 1e-220 passes the collision test, r^3 = 1e-330 rounds to 0.
        w = (1e-110, 0, 0, 1, 0, 0)
        for arg in (w, np.array(w), np.column_stack([w, [1, 0, 0, 0, 1, 0]])):
            _warns_as_former(kepler_vector_field, _former_kepler, arg,
                             "divide by zero encountered in divide",
                             "invalid value encountered in divide")
        # The preregularized field divides by r = 1e-110 only, which is fine.
        assert _outcome(preregularized_vector_field, w) == (
            _outcome(_former_preregularized, np.array(w))[0], set())

    def test_underflowing_squared_radius_is_rejected_in_every_layout(self):
        w = (1e-170, 0, 0, 1, 0, 0)
        for field in (kepler_vector_field, preregularized_vector_field):
            for arg in (w, np.array(w), np.column_stack([[1, 0, 0, 0, 1, 0], w])):
                assert _outcome(field, arg) == (ValueError, set())

    def test_nan_and_infinite_entries(self):
        nan, inf = math.nan, math.inf
        # NaN propagates without a warning.
        for field, former in ((kepler_vector_field, _former_kepler),
                              (preregularized_vector_field, _former_preregularized)):
            for p in ((nan, 0, 0, 0, 1, 0), (1, 0, 0, inf, nan, 0)):
                got, caught = _outcome(field, p)
                assert (got, caught) == (_outcome(former, np.array(p))[0], set())
        # inf/inf and inf*0 are invalid, as in numpy; |y|^2 and r^3 overflow.
        for field, former, p, message in (
            (kepler_vector_field, _former_kepler, (inf, 0, 0, 0, 1, 0), "invalid value"),
            (kepler_vector_field, _former_kepler, (1e110, 0, 0, 0, 1, 0),
             "overflow encountered in multiply"),
            (preregularized_vector_field, _former_preregularized, (inf, 0, 0, 0, 1, 0),
             "invalid value encountered in multiply"),
            (preregularized_vector_field, _former_preregularized, (1, 0, 0, 1e200, 0, 0),
             "overflow encountered in multiply"),
        ):
            for arg in (p, np.array(p)[:, None]):
                with pytest.warns(RuntimeWarning) as caught:
                    field(arg)
                assert any(str(w.message).replace("scalar ", "").startswith(message)
                           for w in caught)
                assert _outcome(field, arg) == _outcome(former, np.asarray(arg, dtype=float))

    def test_radial_nan_radius_and_radius_edges(self):
        for u in ((math.nan, -1.0), np.array([[1.0, math.nan], [-1.0, -1.0]]),
                  np.array([[math.nan, 1.0], [-1.0, -1.0]])):
            assert _outcome(_radial, u) == (ValueError, set())
        # r * r underflows to 0, is so small that -1/r^2 overflows, or overflows.
        for r, message in ((1e-170, "divide by zero encountered in divide"),
                           (1e-160, "overflow encountered in divide"),
                           (1e200, "overflow encountered in multiply")):
            for u in (np.array([r, 1.0]), np.array([[1.0, r], [0.0, 1.0]])):
                _warns_as_former(_radial, _former_radial, u, message)
        # A NaN velocity passes through, without a warning.
        got, caught = _outcome(_radial, (1.0, math.nan))
        assert (got, caught) == (_outcome(_former_radial, (1.0, math.nan))[0], set())

    def test_radial_radii_at_the_ends_of_the_python_float_range(self):
        """Inside (1e-150, 1e150) no operation of the field can raise a
        floating-point error, so the Python-float values hold even under a
        caller's raise setting; at and past each end numpy's body runs."""
        radii = [1e-150, math.nextafter(1e-150, 1.0), 1e-149, 1e149,
                 math.nextafter(1e150, 0.0), 1e150]
        for r in radii:
            for u in (np.array([r, -1.0]), np.array([[1.0, r], [0.5, -1.0]])):
                with np.errstate(all="raise"):
                    assert _outcome(_radial, u) == _outcome(_former_radial, u)


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
        assert np.array_equal(radial_ode_rhs(0.0, (2.0, 0.0)), [0.0, -0.25])

    def test_on_shell_speed_at_unit_radius(self):
        """(r, rdot) = (1, -1) is on the energy -1/2 shell of the fall."""
        assert kepler_energy((1.0, 0, 0, -1.0, 0, 0)) == -0.5

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            radial_ode_rhs(0.0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            radial_ode_rhs(np.zeros(2), np.array([[1.0, 0.0], [1.0, 1.0]]))
        # A NaN radius is not positive either, alone or in one column.
        with pytest.raises(ValueError):
            radial_ode_rhs(0.0, np.array([np.nan, -1.0]))
        with pytest.raises(ValueError):
            radial_ode_rhs(np.zeros(3), np.array([[1.0, np.nan, 0.5], [-1.0, -1.0, -1.0]]))

    def test_integer_state_runs_in_floats(self):
        # In int64, r * r = 2**64 would wrap to 0.
        assert _outcome(_radial, (2**32, 1)) == (_outcome(np.array, [1.0, -2.0**-64])[0], set())

    def test_state_of_the_wrong_length_rejected(self):
        for u in (np.array([3.0, 1.0, 2.0]), np.ones((3, 2)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError):
                radial_ode_rhs(0.0, u)

    def test_columns_give_the_single_state_values(self):
        u = np.random.default_rng(7).uniform(1e-6, 2.0, (2, 50))
        cols = radial_ode_rhs(np.zeros(50), u)
        assert cols.tobytes() == np.stack([radial_ode_rhs(0.0, c) for c in u.T], axis=1).tobytes()

    def test_energy_relation_preserved_during_fall(self):
        res = integrate_ode(
            radial_ode_rhs,
            np.array([2.0, 0.0]),
            (0.0, 4.0),
            tol=1e-13,
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

    def test_quadrature_matches_the_closed_form(self):
        # Near the apex this also holds the closed form to its exact 2 - r0:
        # with 2/r0 - 1 it was 7e-13 off at r0 = 2 - 1e-8.
        for r0 in FALL_GRID + LOG_SPACED_R0 + NEAR_APEX_R0:
            assert abs(radial_collision_time_quadrature(r0) - radial_collision_time(r0)) <= 1e-13

    def test_quadrature_matches_scipy(self):
        # scipy's quad is the independent oracle only where it is accurate
        # itself: at r0 = 2 - 10^-k it misses the closed form by up to 3e-4.
        from scipy import integrate

        for r0 in FALL_GRID + LOG_SPACED_R0:
            oracle, _ = integrate.quad(lambda r: 1 / math.sqrt(2 / r - 1), 0, r0, points=[r0])
            assert abs(radial_collision_time_quadrature(r0) - oracle) <= 1e-10

    def test_quadrature_rejects_nan_and_infinite_radii(self):
        for r0 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                radial_collision_time_quadrature(r0)

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

    def test_verify_fall_rows_keep_the_serial_step_counts(self, monkeypatch):
        # ksreg verify integrates the five falls as one block; each row must
        # take the steps it takes alone.
        runs = []

        def spy(*args, **kwargs):
            runs.append(integrate_ode(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(verify, "integrate_ode", spy)
        fall_time_rows()
        assert len(runs) == 1
        assert [r.stats.steps for r in runs[0]] == [377, 398, 420, 436, 458]
        assert [r.stats.rejected_steps for r in runs[0]] == [0] * 5

    def test_fall_time_bound(self):
        for r0 in (0.25, 0.5, 1.0, 1.5):
            assert radial_collision_time(r0) < math.pi
        assert radial_collision_time(2.0) == math.pi


class TestSundmanTime:
    def test_radial_fall_follows_the_cycloid(self):
        # the rest-to-fall solution from radius 2 traces r = 1 + cos s,
        # t = s + sin s in the rescaled parameter; collision lands at
        # s = pi, t = pi, matching the closed-form fall time.  The clock
        # t(s) = int |x| ds is scipy's cumulative Simpson rule.
        from scipy import integrate

        s_grid = np.linspace(0.0, 3.0, 301)
        res = integrate_ode(
            lambda s, w: preregularized_vector_field(w),
            np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0]),
            (0.0, 3.0),
            t_eval=s_grid,
        )
        radii = np.linalg.norm(res.eval_states[:, :3], axis=1)
        assert np.max(np.abs(radii - (1 + np.cos(s_grid)))) < 1e-8
        t = integrate.cumulative_simpson(radii, x=s_grid, initial=0)
        assert np.max(np.abs(t - (s_grid + np.sin(s_grid)))) < 1e-6


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

    def test_fixed_table_bytes(self, tmp_path):
        path = tmp_path / "path.csv"
        times = np.array([0.0, 0.25])
        states = np.array([
            [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
            [0.1, 0.0, 1.0, 1.0, 0.05, 0.0],
        ])
        write_trajectory_csv(path, times, states)
        assert path.read_text() == (
            "t,x1,x2,x3,y1,y2,y3,energy,J1,J2,J3,e1,e2,e3\n"
            "0,0,0,1,1,0,0,-0.5,0,1,0,0,0,0\n"
            "0.25,0.10000000000000001,0,1,1,0.050000000000000003,0,-0.49378719020998929,"
            "-0.050000000000000003,1,0.005000000000000001,-0.099253719020998929,"
            "-0.005000000000000001,0.0074628097900106827\n"
        )


class TestWriteCsv:
    EDGES = [-0.0, 5e-324, 1e308, 0.1, 1 / 3, float(2**60), math.inf, -math.inf, math.nan]

    def test_each_value_is_format_17g(self, tmp_path):
        path = tmp_path / "edges.csv"
        table = [self.EDGES, self.EDGES[::-1]]
        write_csv(path, "a,b", table)
        lines = [",".join(format(v, ".17g") for v in row) for row in table]
        assert path.read_text() == "a,b\n" + "".join(line + "\n" for line in lines)
