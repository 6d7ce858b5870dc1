"""The identity suites behind ``ksreg verify``.

Each suite returns {"name", "passed", "details"}.  The sampling suites
draw from one shared generator in a fixed order, so a report is a pure
function of the seed and the sample count.  Each float check is one body
that takes the points its caller drew and returns the raw worst values.
GATES declares, once, each quantity a suite's details are gated on and
its named bound below: every suite's verdict, the seed sweep's margins
and the threshold tests read it.  The acceptance tests apply their own
bounds.
"""
from __future__ import annotations

import math
from operator import itemgetter

import numpy as np

from .flows import collision_triple_batch
from .invariants import eval_generators_batch
from .kepler_dynamics import (radial_collision_event, radial_collision_time,
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


def _nan_max(values) -> float:
    """The largest of values, or NaN if any is NaN (Python's max drops a NaN after the first)."""
    return float(np.max(list(values)))


#: Per suite with a bound, each gated quantity as (quantity, reader of the
#: suite's details, sense, bound): sense "<=" holds value <= bound, ">="
#: value >= bound, and a NaN holds neither.  A bound is a number or the
#: name of a bound above, negated by a leading "-" and read on each call.
GATES = {
    "orbit_relations": (
        ("max_residual", itemgetter("max_residual"), "<=", "RESIDUAL_BOUND"),
        ("min_h2", itemgetter("min_h2"), ">=", 0.0),
        ("min_wedge_gap", itemgetter("min_wedge_gap"), ">=", "-RESIDUAL_BOUND"),
    ),
    "lagrange_identities": (
        ("max_relative_gap", itemgetter("max_relative_gap"), "<=", "LAGRANGE_RELATIVE_BOUND"),
    ),
    "pullbacks": (
        ("max_gap", lambda d: _nan_max(d["max_gaps"].values()), "<=", "RESIDUAL_BOUND"),
        ("generator_form_gap", itemgetter("generator_form_gap"), "<=", "GENERATOR_FORM_TOL"),
    ),
    "poisson_matrix": (
        ("max_residual", itemgetter("max_residual"), "<=", "RESIDUAL_BOUND"),
        ("max_position_block_residual", itemgetter("max_position_block_residual"), "<=",
         "POSITION_BLOCK_BOUND"),
    ),
    "collision_theorem": (
        ("disagreements", itemgetter("disagreements"), "<=", 0),
    ),
    "fall_times": (
        ("max_quadrature_gap", itemgetter("max_quadrature_gap"), "<=", "QUADRATURE_BOUND"),
        ("max_event_gap", itemgetter("max_event_gap"), "<=", "FALL_EVENT_BOUND"),
        ("below_apex_bound", itemgetter("below_apex_bound"), ">=", True),
        ("apex_value_exact", itemgetter("apex_value_exact"), ">=", True),
    ),
}


def _bound(ref):
    """A bound of GATES as a number; a name is read from this module on each call."""
    if not isinstance(ref, str):
        return ref
    return -globals()[ref[1:]] if ref.startswith("-") else globals()[ref]


def margins(name: str, details: dict):
    """Yields (quantity, value, sense, bound, margin) per gate of suite name on its details.

    A negative margin is a value past its bound; a NaN value has a NaN margin.
    """
    for quantity, read, sense, ref in GATES[name]:
        value, bound = read(details), _bound(ref)
        yield quantity, value, sense, bound, bound - value if sense == "<=" else value - bound


def passed(name: str, details: dict) -> bool:
    """Whether details hold every gate of suite name; a NaN fails its gate."""
    return all(value <= bound if sense == "<=" else value >= bound
               for _, value, sense, bound, _ in margins(name, details))


def _suite(name: str, **details) -> dict:
    return {"name": name, "passed": passed(name, details), "details": details}


def _suite_so4():
    table = verify_so4_relations()
    return {
        "name": "so4_relations",
        "passed": all(row["match"] for row in table["so4"]),
        "details": {"brackets_checked": len(table["so4"]),
                    "split_basis_factors": table["xi_eta"]},
    }


def worst_relations(points) -> tuple:
    """Largest |relation residual|, smallest H2 and smallest wedge gap over (n, 8) points."""
    residuals, h2, gap = relation_residuals_batch(eval_generators_batch(points))
    worst = _nan_max(float(np.abs(v).max()) for v in residuals.values())
    return worst, float(h2.min()), float(gap.min())


def worst_lagrange(points) -> tuple:
    """Largest |lhs - rhs| of the Lagrange identities, and largest |lhs - rhs| / max(1, |rhs|)."""
    pairs = lagrange_identity_batch(eval_generators_batch(points)).values()
    gaps = [(np.abs(lhs - rhs), np.maximum(1.0, np.abs(rhs))) for lhs, rhs in pairs]
    return _nan_max(float(g.max()) for g, _ in gaps), _nan_max(float((g / s).max()) for g, s in gaps)


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


def _suite_orbit_relations(rng, samples):
    worst, h2_min, gap_min = worst_relations(sample_phase_points(rng, samples))
    return _suite("orbit_relations", max_residual=worst, min_h2=h2_min, min_wedge_gap=gap_min)


def _suite_lagrange(rng, samples):
    worst, worst_relative = worst_lagrange(sample_phase_points(rng, samples))
    return _suite("lagrange_identities", max_residual=worst, max_relative_gap=worst_relative)


def _suite_pullbacks(rng, samples):
    worst, form_gap = worst_pullbacks(sample_level_set(rng, samples))
    return _suite("pullbacks", max_gaps=worst, generator_form_gap=form_gap)


def _suite_poisson(rng, samples):
    n = min(samples, 200)
    points = sample_xi_zero(rng, n)
    worst, worst_xx = worst_poisson(points)
    sweep = poisson_residual_xi_sweep(points[0], np.linspace(-0.5, 0.5, 9))
    return _suite(
        "poisson_matrix",
        points=n,
        max_residual=worst,
        max_position_block_residual=worst_xx,
        off_level_sweep=[[xi, r] for xi, r in sweep],
    )


def _suite_collision(rng, samples):
    points = collision_points(rng, max(samples // 2, 1))
    member, falls, collinear_image = collision_triple_batch(points)
    disagreements = int(np.count_nonzero((member != falls) | (member != collinear_image)))
    return _suite("collision_theorem", points=int(points.shape[0]), disagreements=disagreements)


def fall_time_rows() -> list:
    """(r0, closed form, quadrature, integrated time to COLLISION_GUARD or inf) per FALL_GRID r0.

    The five falls are integrated as one block of rows.
    """
    starts = np.array(FALL_GRID)
    runs = integrate_ode(
        radial_ode_rhs,
        np.column_stack([starts, -np.sqrt(2 / starts - 1)]),
        (0.0, 4.0),
        event=radial_collision_event,
    )
    return [
        (r0, radial_collision_time(r0), radial_collision_time_quadrature(r0),
         res.event_time if res.status == "event" else math.inf)
        for r0, res in zip(FALL_GRID, runs)
    ]


def _suite_fall_times():
    rows = fall_time_rows()
    worst_quadrature = _nan_max(abs(closed - quad) for _, closed, quad, _ in rows)
    worst_event = _nan_max(abs(event - closed) for _, closed, _, event in rows)
    below_apex = all(closed < math.pi for r0, closed, _, _ in rows if r0 < 2)
    apex_exact = radial_collision_time(2.0) == math.pi
    return _suite(
        "fall_times",
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
