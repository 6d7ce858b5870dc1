"""Semialgebraic geometry of the orbit space.

Every point of the image of the invariant evaluation map in R^16
satisfies nine polynomial relations and two inequalities.  These are
necessary conditions, not sufficient ones: on the boundary of the wedge
they also pass vectors outside the image.  This module evaluates
membership residuals, the reduced momentum map onto the closed wedge
0 <= |xi| <= h, the classification of reduced spaces over the wedge,
and the fiber reconstructions that realize level sets as graphs.

All formulas are polymorphic over floats and Fractions; the batch
functions run the same formulas on the columns of an (n, 16) array.
A vector of Fractions runs the relations and identities on its
common-denominator integers and divides each output once at the end.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import H2, K, L, TOL, U, V, XI, common_denominator, exact_ints, int_quotient

RELATION_NAMES = (
    "UU", "VV", "UV",
    "U2V1_U1V2", "U3V1_U1V3", "U4V1_U1V4",
    "U4V3_U3V4", "U2V4_U4V2", "U3V2_U2V3",
)


def _dot(a, b):
    total = 0
    for x, y in zip(a, b):
        total = total + x * y
    return total


@dataclass(frozen=True)
class RelationResidual:
    """Membership residuals for one point of R^16.

    residuals maps each relation name to lhs - rhs; h2 and wedge_gap
    carry the two inequality values H2 and H2^2 - Xi^2.
    """

    residuals: dict
    h2: object
    wedge_gap: object

    def on_orbit_space(self) -> bool:
        """Residuals and inequalities within TOL: necessary for membership.

        Not sufficient: K = L = (5, 0, 0), H2 = Xi = 1, U = V = 0 passes
        but is not in the image.  Each test is written so that a NaN
        value fails it.
        """
        return (
            all(abs(v) <= TOL for v in self.residuals.values())
            and self.h2 >= -TOL
            and self.wedge_gap >= -TOL * max(1, abs(self.h2)) ** 2
        )


def _wedge_bilinears(U, V):
    """The six bilinears U_i V_j - U_j V_i as two 3-vectors (B, B').

    They enter the relations, the Lagrange identity and the fiber
    reconstructions.
    """
    B = (
        U[1] * V[0] - U[0] * V[1],
        U[2] * V[0] - U[0] * V[2],
        U[3] * V[0] - U[0] * V[3],
    )
    B_prime = (
        U[3] * V[2] - U[2] * V[3],
        U[1] * V[3] - U[3] * V[1],
        U[2] * V[1] - U[1] * V[2],
    )
    return B, B_prime


def relation_residuals(g) -> RelationResidual:
    """Evaluate the nine relations and the two inequalities.

    g is a generator 16-vector in GENERATOR_NAMES order.  Each residual
    is lhs - rhs of its relation; every one vanishes exactly on
    generator vectors coming from an actual phase point.  A vector of
    Fractions runs in ints n = D g over the lcm D of its denominators:
    h2 is of degree 1, the residuals and the wedge gap of degree 2.
    """
    scaled = common_denominator(g)
    if scaled is None:
        return _relations(g)
    den, n = scaled
    res = _relations(n)
    d2 = den * den
    return RelationResidual(
        residuals={name: int_quotient(r, d2) for name, r in res.residuals.items()},
        h2=int_quotient(res.h2, den), wedge_gap=int_quotient(res.wedge_gap, d2),
    )


def _relations(g) -> RelationResidual:
    h2, xi, u, v = g[H2], g[XI], g[U], g[V]
    gap = h2 * h2 - xi * xi
    B, B_prime = _wedge_bilinears(u, v)
    values = [_dot(u, u) - gap, _dot(v, v) - gap, _dot(u, v)]
    values += [b - (l * xi - k * h2) for b, k, l in zip(B, g[K], g[L])]
    values += [b - (k * xi - l * h2) for b, k, l in zip(B_prime, g[K], g[L])]
    return RelationResidual(
        residuals=dict(zip(RELATION_NAMES, values)), h2=h2, wedge_gap=gap
    )


def _columns(G, bound: int) -> tuple:
    # The scalar formulas are polymorphic, so they run unchanged on the
    # sixteen columns of an (n, 16) generator array, in Python ints when
    # an integer entry exceeds the bound that keeps int64 from wrapping.
    return tuple(exact_ints(G, bound).T)


def relation_residuals_batch(G: np.ndarray):
    """Vectorized residuals over an (n, 16) generator array.

    Columns follow GENERATOR_NAMES order.  Returns (residuals dict of
    (n,) arrays, h2 column, wedge gap column).  The relations are of
    degree 2, with partial sums at most 6 g^2 in the largest entry g, so
    int64 stays exact up to g = 2^29.
    """
    res = _relations(_columns(G, 2**29))
    return res.residuals, res.h2, res.wedge_gap


_LAGRANGE_DEGREES = {"wedge_sum": 4, "norm_sum": 2, "cross_dot": 2}


def lagrange_identity_check(g) -> dict:
    """Both sides of the three quadratic identities tying (U,V) to (K,L).

    Returns {"wedge_sum": (lhs, rhs), "norm_sum": (lhs, rhs),
    "cross_dot": (lhs, rhs)}: the two-vector Lagrange identity, then
    |K|^2 + |L|^2 = H2^2 + Xi^2 and <K,L> = Xi*H2.  A vector of Fractions
    runs in ints n = D g, as relation_residuals does: both sides of
    wedge_sum are of degree 4, the others of degree 2.
    """
    scaled = common_denominator(g)
    if scaled is None:
        return _lagrange_pairs(g)
    den, n = scaled
    pairs = {}
    for name, (lhs, rhs) in _lagrange_pairs(n).items():
        scale = den ** _LAGRANGE_DEGREES[name]
        q = int_quotient(lhs, scale)
        pairs[name] = (q, q if rhs == lhs else int_quotient(rhs, scale))
    return pairs


def _lagrange_pairs(g) -> dict:
    k, l, h2, xi, u, v = g[K], g[L], g[H2], g[XI], g[U], g[V]
    B, B_prime = _wedge_bilinears(u, v)
    wedge = _dot(B, B) + _dot(B_prime, B_prime)
    uv = _dot(u, v)
    return {
        "wedge_sum": (wedge + uv * uv, _dot(u, u) * _dot(v, v)),
        "norm_sum": (_dot(k, k) + _dot(l, l), h2 * h2 + xi * xi),
        "cross_dot": (_dot(k, l), xi * h2),
    }


def lagrange_identity_batch(G: np.ndarray) -> dict:
    """lagrange_identity_check over an (n, 16) array: pairs of (n,) arrays.

    The identities are of degree 4.  In the largest entry g, each wedge
    bilinear is at most 2 g^2 and <u, v> at most 4 g^2, so the wedge_sum
    side reaches 6 * 4 g^4 + 16 g^4 = 40 g^4: below 2^63 up to g = 2^14.
    """
    return _lagrange_pairs(_columns(G, 2**14))


@dataclass(frozen=True)
class ProductOfSpheres:
    r_plus: object
    r_minus: object


@dataclass(frozen=True)
class SingleSphere:
    radius: object


@dataclass(frozen=True)
class Point:
    pass


def _in_wedge(h, xi) -> bool:
    """|xi| <= h within TOL relative to max(1, |h|), the slack of every wedge test.

    It implies h >= -TOL, and it is written so that NaN fails it.
    """
    return abs(xi) <= h + TOL * max(1, abs(h))


def reduced_momentum(g) -> tuple:
    """Project a generator 16-vector to the wedge point (h, xi) = (H2, Xi).

    Raises ValueError when |Xi| exceeds H2 beyond tolerance, which
    cannot happen for points of the orbit space.
    """
    h2, xi = g[H2], g[XI]
    if not _in_wedge(h2, xi):
        raise ValueError(f"wedge violation: |Xi| = {abs(xi)} exceeds H2 = {h2}")
    return h2, xi


def classify_reduced_space(w):
    """Classify the doubly reduced space over a wedge point w = (h, xi).

    Interior points give a product of spheres with radii (h+xi)/2 and
    (h-xi)/2, boundary points away from the vertex a single sphere of
    radius h, and the vertex a point.
    """
    h, xi = w
    if not _in_wedge(h, xi):
        raise ValueError(f"({h}, {xi}) lies outside the wedge")
    if abs(h) <= TOL:
        return Point()
    if h - abs(xi) <= TOL * max(1, h):
        return SingleSphere(radius=h)
    return ProductOfSpheres(r_plus=(h + xi) / 2, r_minus=(h - xi) / 2)


def _check_sphere_preconditions(U, V, h):
    if len(U) != 4 or len(V) != 4:
        raise ValueError("U and V must have 4 components")
    if not h > 0:
        raise ValueError("h must be positive")
    # Each test is written so that a NaN entry of U or V fails it.
    scale = max(1, abs(h)) ** 2
    if not abs(_dot(U, U) - h * h) <= TOL * scale:
        raise ValueError("<U,U> != h^2 beyond tolerance")
    if not abs(_dot(V, V) - h * h) <= TOL * scale:
        raise ValueError("<V,V> != h^2 beyond tolerance")
    if not abs(_dot(U, V)) <= TOL * scale:
        raise ValueError("<U,V> != 0 beyond tolerance")


def reconstruct_fiber_interior(U, V, h):
    """Recover (K, L) over an interior wedge point with xi = 0.

    K = -B/h and L = -B'/h with the wedge bilinears of (U, V); the
    assembled vector (K, L, h, 0; U, V) satisfies every relation, so
    the level set is a graph over the (U, V) sphere bundle.
    """
    _check_sphere_preconditions(U, V, h)
    B, B_prime = _wedge_bilinears(U, V)
    K = tuple(-b / h for b in B)
    L = tuple(-b / h for b in B_prime)
    return K, L


def reconstruct_fiber_boundary(U, V, h, sign: int) -> tuple:
    """Evaluate the boundary formula eta = -sign * B/h on sphere-bundle data.

    Preconditions are those of the interior case; sign is +1 or -1.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_sphere_preconditions(U, V, h)
    B, _ = _wedge_bilinears(U, V)
    return tuple(-sign * b / h for b in B)
