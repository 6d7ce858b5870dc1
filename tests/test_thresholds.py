"""The one membership slack TOL, the one collision guard COLLISION_GUARD,
and the bounds of verify's gates.

Every float membership test reads invariants.TOL.  Each case below puts
an exact Fraction input a distance delta off the function's set: delta =
TOL/2 is accepted and delta = 2 TOL rejected, so every function applies
the same slack.  Each verify bound is asserted by value and fed, through
verify's GATES table, a gap on it and one ulp past it; a NaN fails every
gate.
"""
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from ksreg import bench, flows, quadratic_poisson, verify
from ksreg.flows import (collision_set_membership, first_collision_time,
                         induced_flow_on_orbit_space, ks_relatedness_harness)
from ksreg.invariants import H2, TOL, V1, XI, eval_generators
from ksreg.kepler_dynamics import collision_event, radial_collision_event
from ksreg.ks_map import (KS, pullback_angular_momentum, pullback_eccentricity,
                          pullback_inner_product, require_level_set)
from ksreg.ode import integrate_ode
from ksreg.orbit_space import (classify_reduced_space, reconstruct_fiber_boundary,
                               reconstruct_fiber_interior, reduced_momentum,
                               relation_residuals)
from ksreg.verify import (FALL_EVENT_BOUND, GATES, GENERATOR_FORM_TOL,
                          LAGRANGE_RELATIVE_BOUND, POSITION_BLOCK_BOUND, QUADRATURE_BOUND,
                          RESIDUAL_BOUND, margins, passed, run_suites)


def _accepts(f, *args) -> bool:
    try:
        f(*args)
    except ValueError:
        return False
    return True


def _xi(d):
    """On the H2 = 1 level within d^2/2, with Xi = d."""
    return (1, 0, 0, 0, 1, d, 0, 0)


def _off_orbit_space(d):
    """An image point with V1 moved by d: the UV residual is -d, VV is d^2."""
    g = list(eval_generators((1, 0, 0, 0, 1, 0, 0, 0)))
    g[V1] += d
    return tuple(g)


def _near_collision(d):
    """H2 = 1 + d^2/2 and Xi = 0; |L| = d, and p is d off collinear with q."""
    return (1, 0, 0, 0, 1, 0, d, 0)


MEMBERSHIP = {
    "on_orbit_space": lambda d: relation_residuals(_off_orbit_space(d)).on_orbit_space(),
    "induced_flow_on_orbit_space":
        lambda d: _accepts(induced_flow_on_orbit_space, _off_orbit_space(d), 0.3),
    "reduced_momentum": lambda d: _accepts(reduced_momentum, (0,) * 6 + (1, 1 + d) + (0,) * 8),
    "classify_reduced_space": lambda d: _accepts(classify_reduced_space, (1, 1 + d)),
    "reconstruct_fiber_interior":
        lambda d: _accepts(reconstruct_fiber_interior, (1, 0, 0, 0), (d, 1, 0, 0), 1),
    "reconstruct_fiber_boundary":
        lambda d: _accepts(reconstruct_fiber_boundary, (1, 0, 0, 0), (d, 1, 0, 0), 1, 1),
    "KS": lambda d: _accepts(KS, _xi(d)),
    "require_level_set": lambda d: _accepts(require_level_set, 1 + d, 0),
    "pullback_angular_momentum": lambda d: _accepts(pullback_angular_momentum, _xi(d)),
    "pullback_eccentricity": lambda d: _accepts(pullback_eccentricity, _xi(d)),
    "pullback_inner_product": lambda d: _accepts(pullback_inner_product, _xi(d)),
    "collision_set_membership": lambda d: collision_set_membership(_near_collision(d)),
    "first_collision_time": lambda d: first_collision_time(_near_collision(d)) is not None,
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP))
def test_one_slack(name):
    accepts = MEMBERSHIP[name]
    assert accepts(Fraction(TOL) / 2)
    assert not accepts(2 * Fraction(TOL))


@pytest.mark.parametrize("xi, inside", [(1e6 + 1e-4, True), (1e6 - 1e-4, True),
                                        (-1e6 - 1e-4, True), (1e6 + 1e-2, False)])
def test_one_wedge_rule_far_from_the_vertex(xi, inside):
    """At h = 1e6 the slack is TOL * h = 1e-3: both halves of the reduction agree."""
    g = [0.0] * 16
    g[H2], g[XI] = 1e6, xi
    assert _accepts(reduced_momentum, g) is inside
    assert _accepts(classify_reduced_space, (1e6, xi)) is inside


def _events(monkeypatch, module, run) -> list:
    """The event of each integrate_ode call that module makes in run()."""
    events = []

    def spy(*args, event=None, **kwargs):
        events.append(event)
        return integrate_ode(*args, event=event, **kwargs)

    monkeypatch.setattr(module, "integrate_ode", spy)
    run()
    return events


def test_one_collision_guard(monkeypatch):
    """The raw bench rows, the harness and the fall block stop at
    kepler_dynamics' events, the only readers of COLLISION_GUARD."""
    assert _events(monkeypatch, bench, lambda: bench.run_benchmark((1e-1, 1e-3))) == [
        collision_event, None]
    assert _events(monkeypatch, flows, lambda: ks_relatedness_harness(
        (1, 0, 0, 0, 1, 0, 0, 0), 1.0)) == [collision_event]
    assert _events(monkeypatch, verify, verify.fall_time_rows) == [radial_collision_event]
    for module in (bench, flows, verify):
        assert not hasattr(module, "COLLISION_GUARD")
    assert "guard" not in inspect.signature(ks_relatedness_harness).parameters


def _past(bound):
    return math.nextafter(bound, math.inf)


# Each suite's gate, as the GATES table judges it, on the values the suite
# would put in its details.
def _gate_fall_times(worst_quadrature, worst_event, below_apex=True, apex_exact=True):
    return passed("fall_times", {"max_quadrature_gap": worst_quadrature,
                                 "max_event_gap": worst_event,
                                 "below_apex_bound": below_apex,
                                 "apex_value_exact": apex_exact})


def _gate_pullbacks(worst_gap, form_gap):
    return passed("pullbacks", {"max_gaps": {"hamiltonian": 0.0, "angular_momentum": worst_gap},
                                "generator_form_gap": form_gap})


def _gate_poisson(worst, worst_xx):
    return passed("poisson_matrix", {"max_residual": worst,
                                     "max_position_block_residual": worst_xx})


def _gate_relations(worst, h2_min, gap_min):
    return passed("orbit_relations", {"max_residual": worst, "min_h2": h2_min,
                                      "min_wedge_gap": gap_min})


def _gate_lagrange(worst_relative):
    return passed("lagrange_identities", {"max_relative_gap": worst_relative})


def _gate_collision_theorem(disagreements):
    return passed("collision_theorem", {"disagreements": disagreements})


# The values the --tolerance option took before it was removed: a worst gap of
# that size is judged by the gate's named bound alone, never loosened to it.
FORMER_TOLERANCES = [1e-10, 1e-9, 1e-6]


@pytest.mark.parametrize("gap", [0.0, 1e-10, 1e-9])
def test_fall_time_gate(gap):
    assert (QUADRATURE_BOUND, FALL_EVENT_BOUND) == (1e-9, 1e-5)
    assert _gate_fall_times(QUADRATURE_BOUND, FALL_EVENT_BOUND)
    assert not _gate_fall_times(_past(QUADRATURE_BOUND), 0.0)
    assert not _gate_fall_times(0.0, _past(FALL_EVENT_BOUND))
    assert _gate_fall_times(gap, 0.0) == (gap <= QUADRATURE_BOUND)
    assert not _gate_fall_times(0.0, 0.0, below_apex=False)
    assert not _gate_fall_times(0.0, 0.0, apex_exact=False)
    assert not _gate_fall_times(math.nan, 0.0)
    assert not _gate_fall_times(0.0, math.nan)


@pytest.mark.parametrize("gap", FORMER_TOLERANCES)
def test_pullback_gate(gap):
    assert (RESIDUAL_BOUND, GENERATOR_FORM_TOL) == (1e-10, 1e-9)
    assert _gate_pullbacks(RESIDUAL_BOUND, GENERATOR_FORM_TOL)
    assert not _gate_pullbacks(_past(RESIDUAL_BOUND), 0.0)
    assert not _gate_pullbacks(0.0, _past(GENERATOR_FORM_TOL))
    assert _gate_pullbacks(gap, 0.0) == (gap <= RESIDUAL_BOUND)
    assert not _gate_pullbacks(math.nan, 0.0)
    assert not _gate_pullbacks(0.0, math.nan)


@pytest.mark.parametrize("gap", FORMER_TOLERANCES)
def test_poisson_gate(gap):
    assert (RESIDUAL_BOUND, POSITION_BLOCK_BOUND) == (1e-10, 1e-12)
    assert _gate_poisson(RESIDUAL_BOUND, POSITION_BLOCK_BOUND)
    assert not _gate_poisson(_past(RESIDUAL_BOUND), 0.0)
    assert not _gate_poisson(0.0, _past(POSITION_BLOCK_BOUND))
    assert _gate_poisson(gap, 0.0) == (gap <= RESIDUAL_BOUND)
    assert not _gate_poisson(math.nan, 0.0)
    assert not _gate_poisson(0.0, math.nan)


@pytest.mark.parametrize("gap", FORMER_TOLERANCES)
def test_relations_gate(gap):
    assert RESIDUAL_BOUND == 1e-10
    assert _gate_relations(RESIDUAL_BOUND, 0.0, -RESIDUAL_BOUND)
    assert not _gate_relations(_past(RESIDUAL_BOUND), 0.0, 0.0)
    assert not _gate_relations(0.0, math.nextafter(0.0, -math.inf), 0.0)
    assert not _gate_relations(0.0, 0.0, math.nextafter(-RESIDUAL_BOUND, -math.inf))
    assert _gate_relations(gap, 0.0, -gap) == (gap <= RESIDUAL_BOUND)
    assert not _gate_relations(math.nan, 0.0, 0.0)
    assert not _gate_relations(0.0, math.nan, 0.0)
    assert not _gate_relations(0.0, 0.0, math.nan)


@pytest.mark.parametrize("gap", FORMER_TOLERANCES)
def test_lagrange_gate(gap):
    assert LAGRANGE_RELATIVE_BOUND == 1e-12
    assert _gate_lagrange(LAGRANGE_RELATIVE_BOUND)
    assert not _gate_lagrange(_past(LAGRANGE_RELATIVE_BOUND))
    assert not _gate_lagrange(gap)
    assert not _gate_lagrange(math.nan)


def test_collision_gate():
    assert _gate_collision_theorem(0)
    assert not _gate_collision_theorem(1)


def test_so4_gate(monkeypatch):
    """A bracket whose expected target is wrong is one mismatch, which fails
    so4_relations through its GATES row."""
    assert verify._suite_so4()["passed"]
    table = quadratic_poisson._SO4_EXPECTED
    monkeypatch.setattr(quadratic_poisson, "_SO4_EXPECTED",
                        (table[0][:2] + ({"L3": -2},),) + table[1:])
    suite = verify._suite_so4()
    assert suite["details"]["mismatched_brackets"] == 1
    assert suite["passed"] is False
    assert suite["passed"] == passed("so4_relations", suite["details"])


def test_lagrange_gate_at_seed_285800082():
    """ksreg verify --seed 285800082 --samples 1000 draws a point whose
    Lagrange gap is 1.164e-10 absolute, past RESIDUAL_BOUND, and 7.8e-15
    relative, inside the gate's LAGRANGE_RELATIVE_BOUND."""
    suites = run_suites(np.random.default_rng(285800082), 1000)
    (lagrange,) = [s for s in suites if s["name"] == "lagrange_identities"]
    assert lagrange["details"]["max_residual"] > RESIDUAL_BOUND
    assert lagrange["passed"], lagrange["details"]


@pytest.mark.parametrize("seed", [0, 7])
def test_every_gate_reads_its_suite(seed):
    """Each reader finds its keys in its suite's details, each bound name is
    a number in verify, and each suite's verdict is the table's."""
    suites = {s["name"]: s for s in run_suites(np.random.default_rng(seed), 30)}
    assert set(GATES) == set(suites)
    for name, gates in GATES.items():
        details = suites[name]["details"]
        for _, _, sense, ref in gates:
            assert sense in ("<=", ">=")
            if isinstance(ref, str):
                assert isinstance(getattr(verify, ref.lstrip("-")), float), ref
        for quantity, value, _, bound, margin in margins(name, details):
            assert not math.isnan(margin), (name, quantity, value, bound)
        assert suites[name]["passed"] == passed(name, details)


def test_a_nan_relation_residual_fails_its_gate(monkeypatch):
    """A NaN in the second relation's column reaches max_residual: Python's
    max would drop it behind the first column's finite worst."""
    real = verify.relation_residuals_batch

    def spoiled(G):
        residuals, h2, gap = real(G)
        residuals[list(residuals)[1]][1] = math.nan
        return residuals, h2, gap

    monkeypatch.setattr(verify, "relation_residuals_batch", spoiled)
    suite = verify._suite_orbit_relations(np.random.default_rng(0), 100)
    assert math.isnan(suite["details"]["max_residual"])
    assert not suite["passed"]


def test_a_nan_pullback_gap_fails_its_gate(monkeypatch):
    """A NaN angular_momentum gap, behind a finite hamiltonian gap, fails the gate."""
    real = verify.pullback_gaps_batch

    def spoiled(points):
        gaps = real(points)
        gaps["angular_momentum"][1] = math.nan
        return gaps

    monkeypatch.setattr(verify, "pullback_gaps_batch", spoiled)
    suite = verify._suite_pullbacks(np.random.default_rng(0), 100)
    assert math.isnan(suite["details"]["max_gaps"]["angular_momentum"])
    assert not suite["passed"]
