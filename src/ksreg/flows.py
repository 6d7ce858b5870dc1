"""Exact torus flows, collision detection, and the relatedness harness.

The oscillator flow is evaluated in closed form, never stepped, so the
harness comparison isolates Kepler-side integration error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .invariants import (H2, L, TOL, U1, XI, eval_generator_columns, eval_generators,
                         eval_generators_batch, point8)
from .kepler_dynamics import COLLISION_GUARD, cross3, dot3, norm3, preregularized_vector_field
from .ks_map import ks_batch, require_level_set
from .ode import IntegratorStats, integrate_ode
from .orbit_space import relation_residuals


@dataclass(frozen=True)
class Trajectory:
    """A sampled path with per-sample values of declared invariants."""

    times: np.ndarray
    states: np.ndarray
    conserved_log: dict

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or states.shape[:1] != times.shape:
            raise ValueError("times and states must have matching lengths")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(states)):
            raise ValueError("states must be finite")
        for name, column in self.conserved_log.items():
            if np.asarray(column).shape != times.shape:
                raise ValueError(f"conserved column {name} has the wrong length")


def oscillator_rotation(z, c, s) -> tuple:
    """Rotate (q, p) by an explicit cosine/sine pair, returning an 8-tuple.

    Runs in whatever arithmetic the inputs carry; an exact point on the
    unit circle (c, s) keeps rational inputs rational, which is how the
    exact conservation of the quadratic invariants is exercised.
    """
    z = point8(z)
    q, p = z[:4], z[4:]
    return (tuple(qi * c + pi * s for qi, pi in zip(q, p))
            + tuple(-qi * s + pi * c for qi, pi in zip(q, p)))


def oscillator_flow(z, t: float) -> tuple:
    """(q, p) -> (q cos t + p sin t, -q sin t + p cos t)."""
    return oscillator_rotation(z, math.cos(t), math.sin(t))


def oscillator_flow_batch(z0, t_grid) -> np.ndarray:
    """The closed-form flow from one start over a time grid, (n, 8) floats."""
    t = np.asarray(t_grid, dtype=float)
    return np.column_stack(oscillator_rotation(np.asarray(z0, dtype=float), np.cos(t), np.sin(t)))


def oscillator_trajectory(z0, t_grid) -> Trajectory:
    """Sample the closed-form flow, logging both conserved quantities."""
    states = oscillator_flow_batch(z0, t_grid)
    G = eval_generators_batch(states)
    return Trajectory(t_grid, states, {"H2": G[:, H2], "Xi": G[:, XI]})


def induced_flow_on_orbit_space(g, u: float) -> tuple:
    """Rotate the (U, V) block by u, keeping K, L, H2, Xi fixed.

    Conjugate to the upstairs flow at parameter u = 2t: the upstairs
    derivative of U is 2V.  The coefficients are a plain rotation so
    that u = 0 is the identity.
    """
    if not relation_residuals(g).on_orbit_space():
        raise ValueError("input is not on the orbit space within tolerance")
    return tuple(g[:U1]) + oscillator_rotation(g[U1:], math.cos(u), math.sin(u))


def _collision_columns(z):
    """(member, tau) at eight columns z, numbers or (n,) arrays.

    member is |L|^2 <= TOL^2; tau is the first zero of the closed-form
    flow, NaN where it never meets {q = 0}.  Raises ValueError off the
    (1, 0) momentum level.
    """
    g = eval_generator_columns(z)
    require_level_set(g[H2], g[XI])
    member = dot3(g[L], g[L]) <= TOL * TOL
    q = np.asarray(z[:4], dtype=float)
    p = np.asarray(z[4:], dtype=float)
    qq = np.sum(q * q, axis=0)
    at_origin = qq <= TOL * TOL
    mu = np.sum(p * q, axis=0) / np.where(at_origin, 1.0, qq)
    spread = np.max(np.abs(p - mu * q), axis=0)
    falls = at_origin | (spread <= TOL * np.maximum(1.0, np.max(np.abs(p), axis=0)))
    tau = np.where(at_origin, math.pi, math.pi / 2 + np.arctan(mu))
    return member, np.where(falls, tau, np.nan)


def collision_set_membership(z) -> bool:
    """Whether the oscillator orbit through z meets {q = 0}.

    On the (1, 0) momentum level this is equivalent to the vanishing of
    the angular-momentum block, tested as |L|^2 <= TOL^2.
    """
    return bool(_collision_columns(point8(z))[0])


def first_collision_time(z):
    """Smallest tau > 0 with q cos(tau) + p sin(tau) = 0, or None.

    A zero requires p collinear with q; then tau = pi/2 + arctan(mu)
    for p = mu*q, and tau = pi when q itself vanishes.  Zeros recur
    with period pi.
    """
    tau = _collision_columns(point8(z))[1]
    return None if np.isnan(tau) else float(tau)


def collision_triple_batch(Z):
    """The three sides of the collision theorem over an (n, 8) array.

    Returns boolean (n,) arrays (member, falls, collinear_image): the
    test of collision_set_membership, whether first_collision_time finds
    a zero, and whether x cross y vanishes at ks(z), all within TOL.
    Raises ValueError when any row is off the level.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    member, tau = _collision_columns(Z.T)
    W = ks_batch(Z).T
    collinear_image = norm3(cross3(W[:3], W[3:])) <= TOL
    return member, ~np.isnan(tau), collinear_image


def physical_time_of_flight(z, tau: float) -> float:
    """Physical time accumulated by the regularized flow over s = 2 tau.

    The physical clock advances at |x| per unit s, 2|x| per unit tau, and
    |x| composed with the oscillator flow integrates in closed form.
    """
    z = np.asarray(point8(z), dtype=float)
    q, p = z[:4], z[4:]
    qq, qp, pp = q @ q, q @ p, p @ p
    return float(
        2 * (qq * (tau / 2 + math.sin(2 * tau) / 4)
             + qp * math.sin(tau) ** 2
             + pp * (tau / 2 - math.sin(2 * tau) / 4))
    )


@dataclass
class HarnessResult:
    """Outcome of the flow-relatedness comparison.

    times are the shared curve-parameter samples actually compared;
    chart holds the closed-form oscillator flow at those times, ks_image
    its push to the Kepler side, integrated the stepped curve.
    collision_time is the physical fall time when the Kepler-side curve
    collapses before t_max; status is the integrator's: completed,
    event, step_budget_exhausted, step_size_underflow or nonfinite.
    """

    times: np.ndarray
    chart: np.ndarray
    ks_image: np.ndarray
    integrated: np.ndarray
    max_deviation: float
    collision_time: float | None
    stats: IntegratorStats
    status: str
    t_max: float


def _guard_event(t, w, guard):
    """|x|^2 - guard^2 per (6, m) column, |x|^2 by np.vecdot: the bits of
    the BLAS dot on a lone state, which a Python-float sum (dot3) or
    np.einsum misses in the last bit for about one 3-vector in five, so
    that event times and the orbit CSVs could move."""
    x = w[:3].T
    return np.vecdot(x, x) - guard * guard


def ks_relatedness_harness(z0, t_max: float, samples: int = 256) -> HarnessResult:
    """Compare the pushed oscillator flow with the integrated field.

    Curve A is ks composed with the closed-form flow at t; curve B solves
    dw/ds = (regularized field) from the shared start, sampled at s = 2t,
    the parameter KS carries t to.  Returns the sup over sampled
    parameters of the euclidean gap.  Seeds whose orbit meets {q = 0}
    yield a partial result truncated at |x| = COLLISION_GUARD, carrying
    the closed-form physical collision time.  The start must lie on the
    (1, 0) level within TOL, and 2 * t_max must be finite.  The
    comparison grid holds samples + 1 times, with samples at least 2,
    and ks_batch rejects a start at q = 0.  The integrator runs at
    tol = 1e-10 with its default step budget.
    """
    z0 = point8(z0)
    g = eval_generators(z0)
    require_level_set(g[H2], g[XI])
    if not 0 <= 2 * t_max < math.inf:
        raise ValueError("t_max must be nonnegative, and 2 * t_max finite")
    if samples < 2:
        raise ValueError("samples must be at least 2")

    w0_flat = ks_batch(z0)[0]
    if t_max == 0:
        times, integrated = np.zeros(1), w0_flat[None, :]
        stats, status = IntegratorStats(), "completed"
    else:
        # In s = 2t, doubling is exact: every step, sample and event keeps the
        # bits of the doubled field's run in t, bar the 1e-14 end-of-span slack.
        res = integrate_ode(
            lambda s, w: preregularized_vector_field(w),
            w0_flat,
            (0.0, 2 * t_max),
            tol=1e-10,
            t_eval=np.linspace(0.0, 2 * t_max, samples + 1)[1:],
            event=lambda s, w: _guard_event(s, w, COLLISION_GUARD),
        )
        times = np.concatenate([[0.0], res.eval_times / 2])
        integrated = np.vstack([w0_flat, res.eval_states])
        stats, status = res.stats, res.status
    chart = oscillator_flow_batch(z0, times)
    pushed = ks_batch(chart)
    gaps = np.linalg.norm(pushed - integrated, axis=1)

    collision_time = None
    if status == "event":
        tau = first_collision_time(z0)
        if tau is not None:
            collision_time = physical_time_of_flight(z0, tau)
    return HarnessResult(
        times=times,
        chart=chart,
        ks_image=pushed,
        integrated=integrated,
        max_deviation=float(np.max(gaps)),
        collision_time=collision_time,
        stats=stats,
        status=status,
        t_max=float(t_max),
    )
