"""Kepler-side Hamiltonians, vector fields, and collision-time formulas.

The raw Kepler field is singular at x = 0; the preregularized field is
its time-and-space rescaling by |x| at the energy scale k = 1, with the
new curve parameter s related to physical time by dt/ds = |x|.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: Radius |x| at which a Kepler-side integration is stopped as a collision.
COLLISION_GUARD = 1e-6


def dot3(a, b):
    """Inner product in whatever arithmetic the entries carry."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    """Cross product in whatever arithmetic the entries carry."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm3(v):
    """Euclidean norm, exact for rational input with a square norm.

    The three entries are numbers or matching (n,) arrays.
    """
    s = dot3(v, v)
    if isinstance(s, np.ndarray):
        return np.sqrt(s)
    if isinstance(s, (int, Fraction)):
        f = Fraction(s)
        rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return Fraction(rn, rd)
    return math.sqrt(s)


def _columns(w) -> tuple:
    """(x, y) of a Kepler phase point: a flat 6-sequence of numbers or columns."""
    if len(w) != 6:
        raise ValueError("a Kepler phase point has 6 components (x, y)")
    return w[:3], w[3:]


def _require_noncollision(x):
    """|x|^2 = dot3(x, x), after checking that it is not 0.

    x holds three numbers or three matching (n,) arrays.  The test is on
    the quantity the formulas divide by: for int and Fraction entries
    that is x = 0, for floats it also rejects an |x|^2 that underflows.
    """
    rr = dot3(x, x)
    at_center = rr == 0
    if at_center.any() if isinstance(at_center, np.ndarray) else at_center:
        raise ValueError("x = 0 is the collision point, outside the domain")
    return rr


def _field_point(w) -> tuple:
    """Float x and y off the collision set, and r = |x|.

    w is one point or (6, m) columns, for which r is an (m,) array.
    """
    x, y = _columns(w)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        # One point: the test and r in Python floats, which round as numpy's
        # float64 scalars do at a fraction of their cost.
        return x, y, math.sqrt(_require_noncollision(x.tolist()))
    return x, y, np.sqrt(_require_noncollision(x))


def kepler_energy(w) -> float:
    """K(x, y) = |y|^2/2 - 1/|x|."""
    x, y = _columns(w)
    _require_noncollision(x)
    return dot3(y, y) / 2 - 1 / norm3(x)


def preregularized_hamiltonian(w):
    """The regularized energy |x|(|y|^2 + 1)/2, smooth through x = 0."""
    x, y = _columns(w)
    return norm3(x) * (dot3(y, y) + 1) / 2


def preregularized_vector_field(w) -> np.ndarray:
    """Symplectic gradient of the preregularized energy.

    dx/ds = |x| y, dy/ds = -(|y|^2 + 1) x / (2|x|).
    """
    x, y, r = _field_point(w)
    c = -(dot3(y, y) + 1) / 2
    # Entry by entry: at one point these are scalar operations, which cost
    # far less than array operations on 3-vectors.
    return np.array([r * y[0], r * y[1], r * y[2], c * x[0] / r, c * x[1] / r, c * x[2] / r])


def rescaled_kepler_vector_field(w) -> np.ndarray:
    """The |x|-rescaled Kepler field with its level-set correction term.

    dx/ds = |x| y, dy/ds = -x/|x|^2 - (K + 1/2) x/|x| at k = 1.  This is
    an independent construction that agrees with the symplectic
    gradient; the cross-validation lives in the tests.
    """
    x, y, r = _field_point(w)
    energy = dot3(y, y) / 2 - 1 / r
    dy = -x / r**2 - (energy + 0.5) * x / r
    return np.concatenate([r * y, dy])


def kepler_vector_field(w) -> np.ndarray:
    """The raw field dx/dt = y, dy/dt = -x/|x|^3, singular at x = 0."""
    x, y, r = _field_point(w)
    # Products, not r**3: numpy's power of an array and Python's of a float
    # can round differently, and a column must give its point's value.
    return np.concatenate([y, -x / (r * r * r)])


def angular_momentum(w):
    """J = x cross y."""
    x, y = _columns(w)
    _require_noncollision(x)
    return cross3(x, y)


def eccentricity(w):
    """e = -x/|x| + y cross (x cross y), conserved along the flow."""
    x, y = _columns(w)
    _require_noncollision(x)
    yxj = cross3(y, cross3(x, y))
    r = norm3(x)
    return tuple(-xi / r + w_ for xi, w_ in zip(x, yxj))


def radial_ode_rhs(t, u) -> np.ndarray:
    """Collinear Kepler motion u = (r, rdot): d(r)/dt = rdot, d(rdot)/dt = -1/r^2.

    Takes integrate_ode's arguments, one state or (2, m) columns; t is
    unused.
    """
    u = np.asarray(u)
    r = u[0]
    # One reduction; a NaN radius makes the minimum NaN and fails the test.
    if not r.min() > 0:
        raise ValueError("r must be positive")
    return np.array([u[1], -1 / (r * r)])  # r * r, not r**2: see kepler_vector_field


def radial_collision_time(r0: float) -> float:
    """Time to reach the center from radius r0 on the energy -1/2 line.

    The inward branch of the collinear orbit with rdot^2 - 2/r = -1 is
    followed from r = r0 down to r = 0; the orbit is at rest only at
    the turning radius r0 = 2.  Closed form
    pi - 2*arctan(s0) - 2*s0/(1 + s0^2) with s0 = sqrt(2/r0 - 1).
    Strictly below pi for r0 < 2; equal to pi at the turning radius.
    """
    if not 0 < r0 <= 2:
        raise ValueError("r0 must lie in (0, 2] at energy -1/2")
    s0 = math.sqrt(2 / r0 - 1)
    return math.pi - 2 * math.atan(s0) - 2 * s0 / (1 + s0**2)


def radial_collision_time_quadrature(r0: float) -> float:
    """The same fall time by direct quadrature of dr / sqrt(2/r - 1)."""
    from scipy import integrate

    if not 0 < r0 <= 2:
        raise ValueError("r0 must lie in (0, 2] at energy -1/2")
    value, _ = integrate.quad(
        lambda r: 1 / math.sqrt(2 / r - 1), 0, r0, points=[r0]
    )
    return value


def sundman_time(s_grid: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Physical time along an s-parametrized path: t(s) = int |x| ds.

    The integrand is dt/ds = |x|, so time runs slower than s near the
    center; a path reaching x = 0 is rejected because the relation
    degenerates there.
    """
    from scipy import integrate

    s_grid = np.asarray(s_grid, dtype=float)
    states = np.asarray(states, dtype=float)
    radii = np.linalg.norm(states[:, :3], axis=1)
    if np.any(radii == 0):
        raise ValueError("path touches x = 0; the reparametrization degenerates")
    if s_grid.size == 1:
        return np.zeros(1)
    return np.concatenate([
        [0.0], integrate.cumulative_simpson(radii, x=s_grid)
    ])


def write_trajectory_csv(path, times: np.ndarray, states: np.ndarray) -> None:
    """Write a Kepler-side path as CSV with conserved-quantity columns.

    Columns: t, x1..x3, y1..y3, energy, J1..J3, e1..e3.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    header = "t,x1,x2,x3,y1,y2,y3,energy,J1,J2,J3,e1,e2,e3"
    table = np.column_stack([
        times, states, kepler_energy(states.T),
        *angular_momentum(states.T), *eccentricity(states.T),
    ])
    write_csv(path, header, table)


def write_csv(path, header: str, table) -> None:
    """Write a header line, then one CSV line per row of a 2-D float table.

    Each value is written as format(v, ".17g"), which reads back as the
    same float; the whole table is one %-format call.
    """
    table = np.asarray(table, dtype=float)
    rows, cols = table.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(line * rows % tuple(table.ravel().tolist()))
