"""The one membership slack TOL, the one collision guard COLLISION_GUARD,
and the bounds of verify's gates.

Every float membership test reads invariants.TOL.  Each case below puts
an exact Fraction input a distance delta off the function's set: delta =
TOL/2 is accepted and delta = 2 TOL rejected, so every function applies
the same slack.  Each verify bound is asserted by value and fed a gap on
it and one ulp past it.
"""
import inspect
import math
from fractions import Fraction

import numpy as np
import pytest

from ksreg import bench, flows, verify
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
from ksreg.verify import (FALL_EVENT_BOUND, GENERATOR_FORM_TOL, LAGRANGE_RELATIVE_BOUND,
                          POSITION_BLOCK_BOUND, QUADRATURE_BOUND, RESIDUAL_BOUND,
                          collision_theorem_passed, fall_times_passed, lagrange_passed,
                          poisson_passed, pullbacks_passed, relations_passed, run_suites)


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


# The values the --tolerance option took before it was removed: a worst gap of
# that size is judged by the gate's named bound alone, never loosened to it.
FORMER_TOLERANCES = [1e-10, 1e-9, 1e-6]


@pytest.mark.parametrize("gap", [0.0, 1e-10, 1e-9])
def test_fall_time_gate(gap):
    assert (QUADRATURE_BOUND, FALL_EVENT_BOUND) == (1e-9, 1e-5)
    assert fall_times_passed(QUADRATURE_BOUND, FALL_EVENT_BOUND)
    assert not fall_times_passed(_past(QUADRATURE_BOUND), 0.0)
    assert not fall_times_passed(0.0, _past(FALL_EVENT_BOUND))
    assert fall_times_passed(gap, 0.0) == (gap <= QUADRATURE_BOUND)


@pytest.mark.parametrize("gap", FORMER_TOLERANCES)
def test_pullback_gate(gap):
    assert (RESIDUAL_BOUND, GENERATOR_FORM_TOL) == (1e-10, 1e-9)
    assert pullbacks_passed(RESIDUAL_BOUND, GENERATOR_FORM_TOL)
    assert not pullbacks_passed(_past(RESIDUAL_BOUND), 0.0)
    assert not pullbacks_passed(0.0, _past(GENERATOR_FORM_TOL))
    assert pullbacks_passed(gap, 0.0) == (gap <= RESIDUAL_BOUND)


@pytest.mark.parametrize("gap", FORMER_TOLERANCES)
def test_poisson_gate(gap):
    assert (RESIDUAL_BOUND, POSITION_BLOCK_BOUND) == (1e-10, 1e-12)
    assert poisson_passed(RESIDUAL_BOUND, POSITION_BLOCK_BOUND)
    assert not poisson_passed(_past(RESIDUAL_BOUND), 0.0)
    assert not poisson_passed(0.0, _past(POSITION_BLOCK_BOUND))
    assert poisson_passed(gap, 0.0) == (gap <= RESIDUAL_BOUND)


@pytest.mark.parametrize("gap", FORMER_TOLERANCES)
def test_relations_gate(gap):
    assert RESIDUAL_BOUND == 1e-10
    assert relations_passed(RESIDUAL_BOUND, 0.0, -RESIDUAL_BOUND)
    assert not relations_passed(_past(RESIDUAL_BOUND), 0.0, 0.0)
    assert not relations_passed(0.0, math.nextafter(0.0, -math.inf), 0.0)
    assert not relations_passed(0.0, 0.0, math.nextafter(-RESIDUAL_BOUND, -math.inf))
    assert relations_passed(gap, 0.0, -gap) == (gap <= RESIDUAL_BOUND)


@pytest.mark.parametrize("gap", FORMER_TOLERANCES)
def test_lagrange_gate(gap):
    assert LAGRANGE_RELATIVE_BOUND == 1e-12
    assert lagrange_passed(LAGRANGE_RELATIVE_BOUND)
    assert not lagrange_passed(_past(LAGRANGE_RELATIVE_BOUND))
    assert not lagrange_passed(gap)


def test_collision_gate():
    assert collision_theorem_passed(0)
    assert not collision_theorem_passed(1)


def test_lagrange_gate_at_seed_285800082():
    """ksreg verify --seed 285800082 --samples 1000 draws a point whose
    Lagrange gap is 1.164e-10 absolute, past RESIDUAL_BOUND, and 7.8e-15
    relative, inside the gate's LAGRANGE_RELATIVE_BOUND."""
    suites = run_suites(np.random.default_rng(285800082), 1000)
    (lagrange,) = [s for s in suites if s["name"] == "lagrange_identities"]
    assert lagrange["details"]["max_residual"] > RESIDUAL_BOUND
    assert lagrange["passed"], lagrange["details"]
