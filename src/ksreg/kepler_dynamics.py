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


def collision_event(t, W) -> list:
    """|x|^2 - COLLISION_GUARD^2 per row (x, y) of W, an integrate_ode event.

    x1*x1 + x2*x2 + x3*x3 - guard*guard in Python floats, in that order.
    """
    guard2 = COLLISION_GUARD * COLLISION_GUARD
    return [x1 * x1 + x2 * x2 + x3 * x3 - guard2 for x1, x2, x3, _, _, _ in W]


def radial_collision_event(t, U) -> list:
    """r - COLLISION_GUARD per radial row (r, rdot) of U, an integrate_ode event."""
    return [r - COLLISION_GUARD for r, _ in U]


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


def _on_rows(field, w, d: int) -> np.ndarray:
    """A row field that does not read t, at one point w or on (d, m) columns.

    Returns a (d,) or (d, m) array.  A lone point is a one-row call, so it
    gets the bytes, warnings and errors of its column.
    """
    w = _state(w, d)
    if w.ndim == 1:
        return np.array(field(None, [w.tolist()])[0])
    return np.array(field(None, w.T.tolist())).reshape(-1, d).T


def _phase_rows(body, W) -> list:
    """A field at each row (x, y) of W, a list of rows of six floats.

    body(x1, x2, x3, y1, y2, y3, r) returns its divisor and the six values.
    It runs row by row in Python floats, which round as numpy's float64
    arithmetic does without its call overhead, but raise ZeroDivisionError
    where numpy returns inf or NaN, and never warn.  So where a divisor is 0
    or not finite, or a value is not finite (every case in which numpy
    warns, bar the underflow it ignores by default), body runs on the rows
    as numpy (6, m) columns instead: numpy's values and warnings, and the
    ValueError at x = 0.
    """
    values = []
    try:
        for x1, x2, x3, y1, y2, y3 in W:
            divisor, v = body(x1, x2, x3, y1, y2, y3, math.sqrt(x1 * x1 + x2 * x2 + x3 * x3))
            if not 0 < divisor < math.inf:
                break
            values.append(v)
        else:
            if math.isfinite(sum(map(sum, values))):
                return values
    except ZeroDivisionError:
        pass
    c = np.array(W, dtype=float).T
    return np.array(body(*c, np.sqrt(_require_noncollision(c[:3])))[1]).T.tolist()


def _preregularized(x1, x2, x3, y1, y2, y3, r):
    c = -(y1 * y1 + y2 * y2 + y3 * y3 + 1) / 2
    return r, (r * y1, r * y2, r * y3, c * x1 / r, c * x2 / r, c * x3 / r)


def preregularized_rows(t, W) -> list:
    """The preregularized field at each row of W, an integrate_ode field; t is unused."""
    return _phase_rows(_preregularized, W)


def preregularized_vector_field(w) -> np.ndarray:
    """Symplectic gradient of the preregularized energy.

    dx/ds = |x| y, dy/ds = -(|y|^2 + 1) x / (2|x|), at a (6,) point or on
    (6, m) columns, in Python floats row by row (see _phase_rows).
    """
    return _on_rows(preregularized_rows, w, 6)


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
    return _on_rows(lambda t, W: _phase_rows(_rescaled, W), w, 6)


def _kepler(x1, x2, x3, y1, y2, y3, r):
    # Products, not r**3: numpy's power of an array and Python's of a float
    # can round differently, and both evaluations must give the same value.
    r3 = r * r * r
    return r3, (y1, y2, y3, -x1 / r3, -x2 / r3, -x3 / r3)


def kepler_rows(t, W) -> list:
    """The raw Kepler field at each row of W, an integrate_ode field; t is unused."""
    return _phase_rows(_kepler, W)


def kepler_vector_field(w) -> np.ndarray:
    """The raw field dx/dt = y, dy/dt = -x/|x|^3, singular at x = 0.

    At a (6,) point or on (6, m) columns, in Python floats row by row (see
    _phase_rows).
    """
    return _on_rows(kepler_rows, w, 6)


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


def radial_rows(t, U) -> list:
    """Collinear Kepler motion at each row (r, rdot) of U, an integrate_ode field.

    d(r)/dt = rdot, d(rdot)/dt = -1/r^2; t is unused.  It runs in Python
    floats, which round as numpy's float64 arithmetic does, without its
    call overhead.  For 1e-150 < r < 1e150, r * r and -1/(r * r) are
    normal floats, so no operation can overflow, underflow or divide by
    zero; where any r lies outside that range (r not positive or NaN
    included), the numpy body below runs instead: numpy's values,
    warnings and ValueError.
    """
    values = []
    for r, v in U:
        if not 1e-150 < r < 1e150:
            break
        values.append((v, -1 / (r * r)))
    else:
        return values
    r, v = np.array(U, dtype=float).T
    # One reduction; a NaN radius makes the minimum NaN and fails the test.
    if not r.min() > 0:
        raise ValueError("r must be positive")
    return np.array([v, -1 / (r * r)]).T.tolist()  # r * r, not r**2: see _kepler


def radial_ode_rhs(t, u) -> np.ndarray:
    """radial_rows at one (2,) state u or on (2, m) columns; t is unused."""
    return _on_rows(radial_rows, u, 2)


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


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return format(v, ".17g") if isinstance(v, float) else str(v)


def write_csv(path, header: str, rows) -> None:
    """Write a header line, then one CSV line per row.

    rows is a 2-D float array or a sequence of equal-length rows.  A
    float is written as format(v, ".17g"), which reads back as the same
    float, a bool as true or false, and anything else as str(v).  A
    float array is one %-format call, since "%.17g" % v is that format.
    """
    if isinstance(rows, np.ndarray):
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        body = line * len(rows) % tuple(rows.ravel().tolist())
    else:
        body = "".join(",".join(map(_cell, row)) + "\n" for row in rows)
    with open(path, "w") as fh:
        fh.write(header + "\n" + body)
