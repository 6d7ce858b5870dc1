"""The one membership slack TOL and the one collision guard COLLISION_GUARD.

Every float membership test reads invariants.TOL.  Each case below puts
an exact Fraction input a distance delta off the function's set: delta =
TOL/2 is accepted and delta = 2 TOL rejected, so every function applies
the same slack.
"""
import inspect
from fractions import Fraction

import pytest

from ksreg import bench
from ksreg.flows import (collision_set_membership, first_collision_time,
                         induced_flow_on_orbit_space, ks_relatedness_harness)
from ksreg.invariants import TOL, V1, eval_generators
from ksreg.kepler_dynamics import COLLISION_GUARD
from ksreg.ks_map import (KS, pullback_angular_momentum, pullback_eccentricity,
                          pullback_inner_product, require_level_set)
from ksreg.orbit_space import (classify_reduced_space, reconstruct_fiber_boundary,
                               reconstruct_fiber_interior, reduced_momentum,
                               relation_residuals)


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


def test_one_collision_guard():
    assert bench.COLLISION_GUARD is COLLISION_GUARD
    assert inspect.signature(ks_relatedness_harness).parameters["guard"].default \
        is COLLISION_GUARD
