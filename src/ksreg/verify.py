"""The identity suites behind ``ksreg verify``.

Each suite returns {"name", "passed", "details"}.  The sampling suites
draw from one shared generator in a fixed order, so a report is a pure
function of the seed and the sample count.  Each float check is one body
that takes the points its caller drew and returns the raw worst values;
each suite's gate applies the named bounds below to them, and the
acceptance tests apply their own.
"""
from __future__ import annotations

import math

import numpy as np

from .flows import collision_triple_batch
from .invariants import eval_generators_batch
from .kepler_dynamics import (COLLISION_GUARD, radial_collision_time,
                              radial_collision_time_quadrature, radial_ode_rhs)
from .ks_map import (ks_batch, ks_from_generators_batch, poisson_residual_batch,
                     poisson_residual_xi_sweep, pullback_gaps_batch)
from .ode import integrate_ode
from .orbit_space import lagrange_identity_batch, relation_residuals_batch
from .quadratic_poisson import verify_so4_relations
from .sampling import (sample_collision_slice, sample_level_set, sample_phase_points,
                       sample_xi_zero)

FALL_GRID = (0.25, 0.5, 1.0, 1.5, 2.0)

#: Bound on the worst relation residual and wedge gap, the worst pullback
#: gap and the worst Poisson residual.
RESIDUAL_BOUND = 1e-10

#: Bound on the worst Lagrange gap |lhs - rhs| / max(1, |rhs|): the
#: identities are quartic, so their absolute gap scales with the terms.
LAGRANGE_RELATIVE_BOUND = 1e-12

#: Relative bound on the gap between the two evaluation paths of ks:
#: the monomial table and the generator form.
GENERATOR_FORM_TOL = 1e-9

#: Bound on the position block of the Poisson residual, which vanishes
#: identically, on or off the zero level of Xi.
POSITION_BLOCK_BOUND = 1e-12

#: Bound on the gap between the integrated fall time and the closed form.
FALL_EVENT_BOUND = 1e-5

#: Bound on the gap between the fall-time quadrature and the closed form.
QUADRATURE_BOUND = 1e-9


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


def worst_relations(points) -> tuple:
    """Largest |relation residual|, smallest H2 and smallest wedge gap over (n, 8) points."""
    residuals, h2, gap = relation_residuals_batch(eval_generators_batch(points))
    worst = max(float(np.abs(v).max()) for v in residuals.values())
    return worst, float(h2.min()), float(gap.min())


def worst_lagrange(points) -> tuple:
    """Largest |lhs - rhs| of the Lagrange identities, and largest |lhs - rhs| / max(1, |rhs|)."""
    pairs = lagrange_identity_batch(eval_generators_batch(points)).values()
    gaps = [(np.abs(lhs - rhs), np.maximum(1.0, np.abs(rhs))) for lhs, rhs in pairs]
    return max(float(g.max()) for g, _ in gaps), max(float((g / s).max()) for g, s in gaps)


def worst_pullbacks(points) -> tuple:
    """Worst gap per pullback identity, and the relative gap between the two ks paths."""
    worst = {k: float(v.max()) for k, v in pullback_gaps_batch(points).items()}
    direct = ks_batch(points)
    by_generators = ks_from_generators_batch(eval_generators_batch(points))
    form_gap = np.abs(direct - by_generators) / (1 + np.abs(direct) + np.abs(by_generators))
    return worst, float(form_gap.max())


def worst_poisson(points) -> tuple:
    """Largest |Poisson residual| over (n, 8) points, and its largest in the position block."""
    res = np.abs(poisson_residual_batch(points))
    return float(res.max()), float(res[:, :3, :3].max())


def collision_points(rng, half: int) -> np.ndarray:
    """half collision-slice points, then half level-set points."""
    return np.concatenate([sample_collision_slice(rng, half), sample_level_set(rng, half)])


def relations_passed(worst: float, h2_min: float, gap_min: float) -> bool:
    """The relations gate on the worst residual, the smallest H2 and the smallest wedge gap."""
    return worst <= RESIDUAL_BOUND and h2_min >= 0.0 and gap_min >= -RESIDUAL_BOUND


def _suite_orbit_relations(rng, samples):
    worst, h2_min, gap_min = worst_relations(sample_phase_points(rng, samples))
    return _suite(
        "orbit_relations",
        relations_passed(worst, h2_min, gap_min),
        max_residual=worst,
        min_h2=h2_min,
        min_wedge_gap=gap_min,
    )


def lagrange_passed(worst_relative: float) -> bool:
    """The Lagrange gate on the worst relative gap |lhs - rhs| / max(1, |rhs|)."""
    return worst_relative <= LAGRANGE_RELATIVE_BOUND


def _suite_lagrange(rng, samples):
    worst, worst_relative = worst_lagrange(sample_phase_points(rng, samples))
    return _suite(
        "lagrange_identities",
        lagrange_passed(worst_relative),
        max_residual=worst,
        max_relative_gap=worst_relative,
    )


def pullbacks_passed(worst_gap: float, form_gap: float) -> bool:
    """The pullback gate on the worst identity gap and the gap between the two ks paths."""
    return worst_gap <= RESIDUAL_BOUND and form_gap <= GENERATOR_FORM_TOL


def _suite_pullbacks(rng, samples):
    worst, form_gap = worst_pullbacks(sample_level_set(rng, samples))
    return _suite(
        "pullbacks",
        pullbacks_passed(max(worst.values()), form_gap),
        max_gaps=worst,
        generator_form_gap=form_gap,
    )


def poisson_passed(worst: float, worst_xx: float) -> bool:
    """The Poisson gate on the worst residual and the worst in the position block."""
    return worst <= RESIDUAL_BOUND and worst_xx <= POSITION_BLOCK_BOUND


def _suite_poisson(rng, samples):
    n = min(samples, 200)
    points = sample_xi_zero(rng, n)
    worst, worst_xx = worst_poisson(points)
    sweep = poisson_residual_xi_sweep(points[0], np.linspace(-0.5, 0.5, 9))
    return _suite(
        "poisson_matrix",
        poisson_passed(worst, worst_xx),
        points=n,
        max_residual=worst,
        max_position_block_residual=worst_xx,
        off_level_sweep=[[xi, r] for xi, r in sweep],
    )


def collision_theorem_passed(disagreements: int) -> bool:
    """The collision gate: the theorem's three sides agree on every point."""
    return disagreements == 0


def _suite_collision(rng, samples):
    points = collision_points(rng, max(samples // 2, 1))
    member, falls, collinear_image = collision_triple_batch(points)
    disagreements = int(np.count_nonzero((member != falls) | (member != collinear_image)))
    return _suite(
        "collision_theorem",
        collision_theorem_passed(disagreements),
        points=int(points.shape[0]),
        disagreements=disagreements,
    )


def fall_time_rows() -> list:
    """(r0, closed form, quadrature, integrated time to COLLISION_GUARD or inf) per FALL_GRID r0.

    The five falls are integrated as one block of rows.
    """
    starts = np.array(FALL_GRID)
    runs = integrate_ode(
        radial_ode_rhs,
        np.column_stack([starts, -np.sqrt(2 / starts - 1)]),
        (0.0, 4.0),
        event=lambda t, u: u[0] - COLLISION_GUARD,
    )
    return [
        (r0, radial_collision_time(r0), radial_collision_time_quadrature(r0),
         res.event_time if res.status == "event" else math.inf)
        for r0, res in zip(FALL_GRID, runs)
    ]


def fall_times_passed(worst_quadrature: float, worst_event: float) -> bool:
    """The fall-time gate on the worst quadrature and event gaps to the closed form."""
    return worst_quadrature <= QUADRATURE_BOUND and worst_event <= FALL_EVENT_BOUND


def _suite_fall_times():
    rows = fall_time_rows()
    worst_quadrature = max(abs(closed - quad) for _, closed, quad, _ in rows)
    worst_event = max(abs(event - closed) for _, closed, _, event in rows)
    below_apex = all(closed < math.pi for r0, closed, _, _ in rows if r0 < 2)
    apex_exact = radial_collision_time(2.0) == math.pi
    return _suite(
        "fall_times",
        fall_times_passed(worst_quadrature, worst_event) and below_apex and apex_exact,
        grid=list(FALL_GRID),
        max_quadrature_gap=worst_quadrature,
        max_event_gap=worst_event,
        below_apex_bound=below_apex,
        apex_value_exact=apex_exact,
    )


#: The suites that draw from the shared generator, (rng, samples) -> suite,
#: in report order: that order fixes which draw each suite sees.
SAMPLING_SUITES = (_suite_orbit_relations, _suite_lagrange, _suite_pullbacks,
                   _suite_poisson, _suite_collision)


def run_suites(rng: np.random.Generator, samples: int) -> list:
    """All seven suites in report order, drawing from rng in that order."""
    return [
        _suite_so4(),
        *(suite(rng, samples) for suite in SAMPLING_SUITES),
        _suite_fall_times(),
    ]
