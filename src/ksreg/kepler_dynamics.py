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


def collision_event(t, w) -> list:
    """|x|^2 - COLLISION_GUARD^2 per (6, m) column, an integrate_ode event.

    x1*x1 + x2*x2 + x3*x3 - guard*guard in Python floats, in that order on any BLAS kernel.
    """
    guard2 = COLLISION_GUARD * COLLISION_GUARD
    return [x1 * x1 + x2 * x2 + x3 * x3 - guard2 for x1, x2, x3 in zip(*w[:3].tolist())]


def radial_collision_event(t, u):
    """r - COLLISION_GUARD per (2, m) radial column (r, rdot), an integrate_ode event."""
    return u[0] - COLLISION_GUARD


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


def kepler_energy(w) -> float:
    """K(x, y) = |y|^2/2 - 1/|x|."""
    x, y = _columns(w)
    _require_noncollision(x)
    return dot3(y, y) / 2 - 1 / norm3(x)


def preregularized_hamiltonian(w):
    """The regularized energy |x|(|y|^2 + 1)/2, smooth through x = 0."""
    x, y = _columns(w)
    return norm3(x) * (dot3(y, y) + 1) / 2


def _state(w, d: int) -> np.ndarray:
    """w as a float (d,) point or (d, m) columns, or ValueError."""
    w = np.asarray(w, dtype=float)
    if w.ndim not in (1, 2) or len(w) != d:
        raise ValueError(f"a state is a ({d},) point or ({d}, m) columns")
    return w


def _phase_field(body, w) -> np.ndarray:
    """A field at one point w or on (6, m) columns, as a (6,) or (6, m) array.

    body(x1, x2, x3, y1, y2, y3, r) returns its divisor and the six values.
    It runs point by point in Python floats, which round as numpy's float64
    arithmetic does without its call overhead, but raise ZeroDivisionError
    where numpy returns inf or NaN, and never warn.  So where a divisor is 0
    or not finite, or a value is not finite (every case in which numpy
    warns, bar the underflow it ignores by default), body runs on the numpy
    rows of w as (6, m) columns instead, a lone point as one column: numpy's
    values and warnings, and the ValueError at x = 0, the same for a point
    and its column.  The loop costs per point, so past about 20 columns it
    is slower than numpy (BENCH_18.json, wide_grid).
    """
    w = _state(w, 6)
    one = w.ndim == 1
    values = []
    try:
        for x1, x2, x3, y1, y2, y3 in [w.tolist()] if one else w.T.tolist():
            divisor, v = body(x1, x2, x3, y1, y2, y3, math.sqrt(x1 * x1 + x2 * x2 + x3 * x3))
            if not 0 < divisor < math.inf:
                break
            values += v
        else:
            if math.isfinite(sum(values)):
                out = np.array(values)
                return out if one else out.reshape(-1, 6).T
    except ZeroDivisionError:
        pass
    c = w.reshape(6, -1)
    out = np.array(body(*c, np.sqrt(_require_noncollision(c[:3])))[1])
    return out[:, 0] if one else out


def _preregularized(x1, x2, x3, y1, y2, y3, r):
    c = -(y1 * y1 + y2 * y2 + y3 * y3 + 1) / 2
    return r, (r * y1, r * y2, r * y3, c * x1 / r, c * x2 / r, c * x3 / r)


def preregularized_vector_field(w) -> np.ndarray:
    """Symplectic gradient of the preregularized energy.

    dx/ds = |x| y, dy/ds = -(|y|^2 + 1) x / (2|x|), in Python floats
    point by point (see _phase_field).
    """
    return _phase_field(_preregularized, w)


def _rescaled(x1, x2, x3, y1, y2, y3, r):
    # r * r, not r**2: Python's power of a float can round differently.
    rr = r * r
    c = (y1 * y1 + y2 * y2 + y3 * y3) / 2 - 1 / r + 0.5
    dy = (-x1 / rr - c * x1 / r, -x2 / rr - c * x2 / r, -x3 / rr - c * x3 / r)
    return rr, (r * y1, r * y2, r * y3, *dy)


def rescaled_kepler_vector_field(w) -> np.ndarray:
    """The |x|-rescaled Kepler field with its level-set correction term.

    dx/ds = |x| y, dy/ds = -x/|x|^2 - (K + 1/2) x/|x| at k = 1.  This is
    an independent construction that agrees with the symplectic
    gradient; the cross-validation lives in the tests.
    """
    return _phase_field(_rescaled, w)


def _kepler(x1, x2, x3, y1, y2, y3, r):
    # Products, not r**3: numpy's power of an array and Python's of a float
    # can round differently, and both evaluations must give the same value.
    r3 = r * r * r
    return r3, (y1, y2, y3, -x1 / r3, -x2 / r3, -x3 / r3)


def kepler_vector_field(w) -> np.ndarray:
    """The raw field dx/dt = y, dy/dt = -x/|x|^3, singular at x = 0.

    In Python floats point by point (see _phase_field).
    """
    return _phase_field(_kepler, w)


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

    Takes integrate_ode's arguments, (2, m) columns, or one (2,) state;
    t is unused.  It runs in Python floats, which round as numpy's float64
    arithmetic does, without its call overhead.  For 1e-150 < r < 1e150,
    r * r and -1/(r * r) are normal floats, so no operation can overflow,
    underflow or divide by zero; where any r lies outside that range
    (r not positive or NaN included), the numpy body below runs instead:
    numpy's values, warnings and ValueError.
    """
    u = _state(u, 2)
    radii, speeds = u.reshape(2, -1).tolist()
    accelerations = [-1 / (r * r) for r in radii if 1e-150 < r < 1e150]
    if len(accelerations) == len(radii):
        return np.array(speeds + accelerations).reshape(u.shape)
    r = u[0]
    # One reduction; a NaN radius makes the minimum NaN and fails the test.
    if not r.min() > 0:
        raise ValueError("r must be positive")
    return np.array([u[1], -1 / (r * r)])  # r * r, not r**2: see _kepler


def radial_collision_time(r0: float) -> float:
    """Time to reach the center from radius r0 on the energy -1/2 line.

    The inward branch of the collinear orbit with rdot^2 - 2/r = -1 is
    followed from r = r0 down to r = 0; the orbit is at rest only at
    the turning radius r0 = 2.  Closed form
    pi - 2*arctan(s0) - 2*s0/(1 + s0^2) with s0 = sqrt(2/r0 - 1), taken
    as sqrt((2 - r0)/r0): 2 - r0 is exact for r0 in [1, 2], where 2/r0 - 1
    cancels (7e-13 off at r0 = 2 - 1e-8).
    Strictly below pi for r0 < 2; equal to pi at the turning radius.
    """
    if not 0 < r0 <= 2:
        raise ValueError("r0 must lie in (0, 2] at energy -1/2")
    s0 = math.sqrt((2 - r0) / r0)
    return math.pi - 2 * math.atan(s0) - 2 * s0 / (1 + s0**2)


def _tanh_sinh_nodes(h: float, u_max: float) -> tuple:
    """(t, t_bar = 1 - t, weight) of the tanh-sinh rule on [0, 1], nodes u = k h, |u| <= u_max.

    t = (1 + tanh s)/2 with s = (pi/2) sinh u; the complement 1 - t =
    e^(-s) / (2 cosh s) is formed directly, so a node near 1 keeps its
    distance to the end.
    """
    n = round(u_max / h)
    nodes = []
    for k in range(-n, n + 1):
        s = math.pi / 2 * math.sinh(k * h)
        c = 2 * math.cosh(s)
        nodes.append((math.exp(s) / c, math.exp(-s) / c, h * math.pi * math.cosh(k * h) / (c * c)))
    return tuple(nodes)


# Double-exponential rule of Takahasi & Mori (Publ. RIMS 9, 1974), step
# 1/32 on |u| <= 4 (257 nodes).  Measured against the closed form in
# 40-digit arithmetic, the fall quadrature is within 2.7e-15 on FALL_GRID,
# 200 log-spaced r0 in [1e-8, 2] and r0 = 2 - 10^-k for k = 1..12.  Step
# 1/8 leaves 1e-7 near r0 = 2, where the integrand's singularity at r = 2
# sits just past the end; |u| <= 3.5 leaves 1e-11 at r0 = 2.
_TANH_SINH = _tanh_sinh_nodes(1 / 32, 4)


def radial_collision_time_quadrature(r0: float) -> float:
    """The same fall time by direct quadrature of dr / sqrt(2/r - 1) over [0, r0].

    A stdlib double-exponential (tanh-sinh) rule, _TANH_SINH: at the node
    r = r0 t the integrand is sqrt(r / ((2 - r0) + r0 (1 - t))), so the
    inverse square root at the end r0 = 2 loses no digits to 2 - r.  The
    tests hold it to an adaptive quadrature wherever that is accurate itself.
    """
    if not 0 < r0 <= 2:
        raise ValueError("r0 must lie in (0, 2] at energy -1/2")
    gap = 2 - r0
    return r0 * sum([w * math.sqrt(r0 * t / (gap + r0 * t_bar)) for t, t_bar, w in _TANH_SINH])


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
