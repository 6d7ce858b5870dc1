"""The identity suites behind ``ksreg verify``.

Each suite returns {"name", "passed", "details"}.  The sampling suites
draw from one shared generator in a fixed order, so a report is a pure
function of the seed, the sample count and the tolerance.  The float
suites push all their points through the batch bodies in one call each.
"""
from __future__ import annotations

import math

import numpy as np

from .flows import collision_triple_batch
from .invariants import eval_generators_batch
from .kepler_dynamics import (RadialState, radial_collision_time,
                              radial_collision_time_quadrature, radial_ode_rhs)
from .ks_map import (ks_batch, ks_from_generators_batch, poisson_residual_batch,
                     poisson_residual_xi_sweep, pullback_gaps_batch)
from .ode import integrate_ode
from .orbit_space import lagrange_identity_batch, relation_residuals_batch
from .quadratic_poisson import verify_so4_relations
from .sampling import (sample_collision_slice, sample_level_set, sample_phase_points,
                       sample_xi_zero)

FALL_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)

#: Relative bound on the gap between the two evaluation paths of ks:
#: the monomial table and the generator form.
GENERATOR_FORM_TOL = 1e-9


def _suite(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": passed, "details": details}


def _suite_so4():
    table = verify_so4_relations()
    return _suite(
        "so4_relations",
        all(row["match"] for row in table["so4"]),
        brackets_checked=len(table["so4"]),
        split_basis_factors=table["xi_eta"],
    )


def _suite_orbit_relations(rng, samples, tol):
    points = sample_phase_points(rng, samples)
    G = eval_generators_batch(points)
    residuals, h2, gap = relation_residuals_batch(G)
    worst = max(float(np.abs(v).max()) for v in residuals.values())
    h2_min, gap_min = float(h2.min()), float(gap.min())
    return _suite(
        "orbit_relations",
        worst <= tol and h2_min >= 0.0 and gap_min >= -tol,
        max_residual=worst,
        min_h2=h2_min,
        min_wedge_gap=gap_min,
    )


def _suite_lagrange(rng, samples, tol):
    points = sample_phase_points(rng, samples)
    checks = lagrange_identity_batch(eval_generators_batch(points))
    worst = max(float(np.abs(lhs - rhs).max()) for lhs, rhs in checks.values())
    return _suite("lagrange_identities", worst <= tol, max_residual=worst)


def _suite_pullbacks(rng, samples, tol):
    points = sample_level_set(rng, samples)
    worst = {k: float(v.max()) for k, v in pullback_gaps_batch(points).items()}
    direct = ks_batch(points)
    by_generators = ks_from_generators_batch(eval_generators_batch(points))
    form_gap = float(
        (np.abs(direct - by_generators) / (1 + np.abs(direct) + np.abs(by_generators))).max()
    )
    return _suite(
        "pullbacks",
        max(worst.values()) <= tol and form_gap <= GENERATOR_FORM_TOL,
        max_gaps=worst,
        generator_form_gap=form_gap,
    )


def _suite_poisson(rng, samples, tol):
    n = min(samples, 200)
    points = sample_xi_zero(rng, n)
    res = np.abs(poisson_residual_batch(points))
    worst = float(res.max())
    worst_xx = float(res[:, :3, :3].max())
    sweep = poisson_residual_xi_sweep(points[0], np.linspace(-0.5, 0.5, 9))
    return _suite(
        "poisson_matrix",
        worst <= tol and worst_xx <= 1e-12,
        points=n,
        max_residual=worst,
        max_position_block_residual=worst_xx,
        off_level_sweep=[[xi, r] for xi, r in sweep],
    )


def _suite_collision(rng, samples, tol):
    half = max(samples // 2, 1)
    points = np.concatenate(
        [sample_collision_slice(rng, half), sample_level_set(rng, half)]
    )
    member, falls, collinear_image = collision_triple_batch(points)
    disagreements = int(np.count_nonzero((member != falls) | (member != collinear_image)))
    return _suite(
        "collision_theorem",
        disagreements == 0,
        points=int(points.shape[0]),
        disagreements=disagreements,
    )


def _suite_fall_times(tol):
    worst_quadrature = 0.0
    worst_event = 0.0
    below_apex = True
    for r0 in FALL_GRID:
        closed = radial_collision_time(r0)
        quad = radial_collision_time_quadrature(r0)
        worst_quadrature = max(worst_quadrature, abs(closed - quad))
        res = integrate_ode(
            lambda t, u: np.array(
                radial_ode_rhs(RadialState(u[0], u[1]))
            ),
            np.array([r0, -math.sqrt(2 / r0 - 1)]),
            (0.0, 4.0),
            event=lambda t, u: u[0] - 1e-6,
        )
        event_gap = abs(res.event_time - closed) if res.status == "event" else math.inf
        worst_event = max(worst_event, event_gap)
        if r0 < 2:
            below_apex = below_apex and closed < math.pi
    apex_exact = radial_collision_time(2.0) == math.pi
    passed = worst_quadrature <= max(tol, 1e-9) and worst_event <= 1e-5
    return _suite(
        "fall_times",
        passed and below_apex and apex_exact,
        grid=list(FALL_GRID),
        max_quadrature_gap=worst_quadrature,
        max_event_gap=worst_event,
        below_apex_bound=below_apex,
        apex_value_exact=apex_exact,
    )


def run_suites(rng: np.random.Generator, samples: int, tol: float) -> list:
    """All seven suites in report order, drawing from rng in that order."""
    return [
        _suite_so4(),
        _suite_orbit_relations(rng, samples, tol),
        _suite_lagrange(rng, samples, tol),
        _suite_pullbacks(rng, samples, tol),
        _suite_poisson(rng, samples, tol),
        _suite_collision(rng, samples, tol),
        _suite_fall_times(tol),
    ]
