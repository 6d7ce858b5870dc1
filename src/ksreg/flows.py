"""Exact torus flows, collision detection, and the relatedness harness.

The oscillator flow is evaluated in closed form, never stepped, so the
harness comparison isolates Kepler-side integration error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .invariants import GeneratorVector, PhasePoint8, eval_generators, eval_generators_batch
from .kepler_dynamics import preregularized_vector_field
from .ks_map import ks_batch, require_level_set
from .ode import IntegratorStats, integrate_ode
from .orbit_space import relation_residuals


def _as_point8(z) -> PhasePoint8:
    if isinstance(z, PhasePoint8):
        return z
    return PhasePoint8.from_z(tuple(z))


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


def oscillator_rotation(z, c, s) -> PhasePoint8:
    """Rotate (q, p) by an explicit cosine/sine pair.

    Runs in whatever arithmetic the inputs carry; an exact point on the
    unit circle (c, s) keeps rational inputs rational, which is how the
    exact conservation of the quadratic invariants is exercised.
    """
    pt = _as_point8(z)
    q2 = tuple(qi * c + pi * s for qi, pi in zip(pt.q, pt.p))
    p2 = tuple(-qi * s + pi * c for qi, pi in zip(pt.q, pt.p))
    return PhasePoint8(q2, p2)


def oscillator_flow(z, t: float) -> PhasePoint8:
    """(q, p) -> (q cos t + p sin t, -q sin t + p cos t)."""
    return oscillator_rotation(z, math.cos(t), math.sin(t))


def oscillator_flow_batch(z0, t_grid) -> np.ndarray:
    """The closed-form flow from one start over a time grid, (n, 8) floats."""
    t = np.asarray(t_grid, dtype=float)
    return np.column_stack(oscillator_rotation(z0, np.cos(t), np.sin(t)).z)


def oscillator_trajectory(z0, t_grid) -> Trajectory:
    """Sample the closed-form flow, logging both conserved quantities."""
    states = oscillator_flow_batch(z0, t_grid)
    G = eval_generators_batch(states)
    return Trajectory(t_grid, states, {"H2": G[:, 6], "Xi": G[:, 7]})


def induced_flow_on_orbit_space(g: GeneratorVector, u: float,
                                tol: float = 1e-9) -> GeneratorVector:
    """Rotate the (U, V) block by u, keeping K, L, H2, Xi fixed.

    Conjugate to the upstairs flow at parameter u = 2t: the upstairs
    derivative of U is 2V.  The coefficients are a plain rotation so
    that u = 0 is the identity.
    """
    if not relation_residuals(g).on_orbit_space(tol):
        raise ValueError("input is not on the orbit space within tolerance")
    c, s = math.cos(u), math.sin(u)
    u_new = tuple(ui * c + vi * s for ui, vi in zip(g.U, g.V))
    v_new = tuple(-ui * s + vi * c for ui, vi in zip(g.U, g.V))
    return GeneratorVector(K=g.K, L=g.L, H2=g.H2, Xi=g.Xi, U=u_new, V=v_new)


def collision_set_membership(z, tol: float = 1e-9) -> bool:
    """Whether the oscillator orbit through z meets {q = 0}.

    On the (1, 0) momentum level this is equivalent to the vanishing of
    the angular-momentum block, tested as |L|^2 <= tol^2.
    """
    g = eval_generators(_as_point8(z))
    require_level_set(g.H2, g.Xi, tol)
    return float(sum(v * v for v in g.L)) <= tol * tol


def first_collision_time(z, tol: float = 1e-9):
    """Smallest tau > 0 with q cos(tau) + p sin(tau) = 0, or None.

    A zero requires p collinear with q; then tau = pi/2 + arctan(mu)
    for p = mu*q, and tau = pi when q itself vanishes.  Zeros recur
    with period pi.
    """
    pt = _as_point8(z)
    g = eval_generators(pt)
    require_level_set(g.H2, g.Xi, tol)
    q = np.asarray(pt.q, dtype=float)
    p = np.asarray(pt.p, dtype=float)
    qq = q @ q
    if qq <= tol * tol:
        return math.pi
    mu = (p @ q) / qq
    if np.max(np.abs(p - mu * q)) > tol * max(1.0, float(np.max(np.abs(p)))):
        return None
    return math.pi / 2 + math.atan(mu)


def collision_triple_batch(Z):
    """The three sides of the collision theorem over an (n, 8) array.

    Returns boolean (n,) arrays (member, falls, collinear_image): the
    test of collision_set_membership, whether first_collision_time finds
    a zero, and whether x cross y vanishes at ks(z), all at the scalar
    default tol.  Raises ValueError when any row is off the level.
    """
    tol = 1e-9
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    G = eval_generators_batch(Z)
    require_level_set(G[:, 6], G[:, 7], tol)
    member = np.sum(G[:, 3:6] ** 2, axis=1) <= tol * tol
    q, p = Z[:, :4], Z[:, 4:]
    qq = np.sum(q * q, axis=1)
    at_origin = qq <= tol * tol
    mu = np.sum(p * q, axis=1) / np.where(at_origin, 1.0, qq)
    spread = np.max(np.abs(p - mu[:, None] * q), axis=1)
    falls = at_origin | (spread <= tol * np.maximum(1.0, np.max(np.abs(p), axis=1)))
    W = ks_batch(Z)
    collinear_image = np.linalg.norm(np.cross(W[:, :3], W[:, 3:]), axis=1) <= tol
    return member, falls, collinear_image


def physical_time_of_flight(z, tau: float) -> float:
    """Physical time accumulated by the doubled regularized flow.

    Along the matched curves the physical clock advances at 2|x|, and
    |x| composed with the oscillator flow integrates in closed form.
    """
    pt = _as_point8(z)
    q = np.asarray(pt.q, dtype=float)
    p = np.asarray(pt.p, dtype=float)
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
    ks_image holds the pushed exact flow, integrated the stepped one.
    collision_time is the physical fall time when the Kepler-side curve
    collapses before t_max; status is completed or event.
    """

    times: np.ndarray
    ks_image: np.ndarray
    integrated: np.ndarray
    max_deviation: float
    collision_time: float | None
    stats: IntegratorStats
    status: str
    t_max: float

    def to_json_dict(self) -> dict:
        out = {
            "t_max": self.t_max,
            "max_deviation": self.max_deviation,
            "integrator_stats": self.stats.to_json_dict(),
            "status": self.status,
        }
        if self.collision_time is not None:
            out["collision_time"] = self.collision_time
        return out


def _doubled_field(t, w):
    return 2 * preregularized_vector_field(w)


def ks_relatedness_harness(
    z0,
    t_max: float,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    samples: int = 256,
    guard: float = 1e-6,
    max_steps: int = 100_000,
    tol: float = 1e-9,
) -> HarnessResult:
    """Compare the pushed oscillator flow with the integrated field.

    Curve A is ks composed with the closed-form flow; curve B solves
    dw/dt = 2 * (regularized field) from the shared start.  Returns the
    sup over sampled parameters of the euclidean gap.  Seeds whose
    orbit meets {q = 0} yield a partial result truncated at the |x|
    guard, carrying the closed-form physical collision time.
    """
    pt = _as_point8(z0)
    g = eval_generators(pt)
    require_level_set(g.H2, g.Xi, tol)
    if all(v == 0 for v in pt.q):
        raise ValueError("the start itself sits at q = 0, outside the chart")
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")

    w0_flat = ks_batch(pt.z)[0]
    if t_max == 0:
        return HarnessResult(
            times=np.zeros(1),
            ks_image=w0_flat[None, :],
            integrated=w0_flat[None, :],
            max_deviation=0.0,
            collision_time=None,
            stats=IntegratorStats(),
            status="completed",
            t_max=0.0,
        )

    t_grid = np.linspace(0.0, t_max, samples + 1)
    res = integrate_ode(
        _doubled_field,
        w0_flat,
        (0.0, t_max),
        rtol=rtol,
        atol=atol,
        max_steps=max_steps,
        t_eval=t_grid[1:],
        event=lambda t, w: w[:3] @ w[:3] - guard * guard,
    )
    times = np.concatenate([[0.0], res.eval_times])
    integrated = np.vstack([w0_flat, res.eval_states])
    pushed = ks_batch(oscillator_flow_batch(pt, times))
    gaps = np.linalg.norm(pushed - integrated, axis=1)

    collision_time = None
    if res.status == "event":
        tau = first_collision_time(pt, tol=tol)
        if tau is not None:
            collision_time = physical_time_of_flight(pt, tau)
    return HarnessResult(
        times=times,
        ks_image=pushed,
        integrated=integrated,
        max_deviation=float(np.max(gaps)),
        collision_time=collision_time,
        stats=res.stats,
        status="completed" if res.status == "completed" else "event",
        t_max=t_max,
    )
