"""Semialgebraic geometry of the orbit space.

The image of the invariant evaluation map is cut out of R^16 by nine
polynomial relations and two inequalities.  This module evaluates
membership residuals, the reduced momentum map onto the closed wedge
0 <= |xi| <= h, the classification of reduced spaces over the wedge,
and the fiber reconstructions that realize level sets as graphs.

All formulas are polymorphic over floats and Fractions; a separate
vectorized path handles large numpy batches.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import GeneratorVector

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

    @property
    def ineq_flags(self) -> tuple:
        return (self.h2 >= 0, self.wedge_gap >= 0)

    def max_abs_residual(self):
        return max(abs(v) for v in self.residuals.values())

    def on_orbit_space(self, tol: float = 1e-9) -> bool:
        """Membership test: residuals within tol, inequalities within slack."""
        return (
            self.max_abs_residual() <= tol
            and self.h2 >= -tol
            and self.wedge_gap >= -tol * max(1, abs(self.h2)) ** 2
        )

    def to_json_list(self) -> list:
        return [
            {"relation_name": name, "residual": float(value)}
            for name, value in self.residuals.items()
        ]


def relation_residuals(g: GeneratorVector) -> RelationResidual:
    """Evaluate all nine defining relations and the two inequalities.

    Each residual is lhs - rhs of its relation; every one vanishes
    exactly on generator vectors coming from an actual phase point.
    """
    K, L, H2, Xi, U, V = g.K, g.L, g.H2, g.Xi, g.U, g.V
    gap = H2 * H2 - Xi * Xi
    residuals = {
        "UU": _dot(U, U) - gap,
        "VV": _dot(V, V) - gap,
        "UV": _dot(U, V),
        "U2V1_U1V2": U[1] * V[0] - U[0] * V[1] - (L[0] * Xi - K[0] * H2),
        "U3V1_U1V3": U[2] * V[0] - U[0] * V[2] - (L[1] * Xi - K[1] * H2),
        "U4V1_U1V4": U[3] * V[0] - U[0] * V[3] - (L[2] * Xi - K[2] * H2),
        "U4V3_U3V4": U[3] * V[2] - U[2] * V[3] - (K[0] * Xi - L[0] * H2),
        "U2V4_U4V2": U[1] * V[3] - U[3] * V[1] - (K[1] * Xi - L[1] * H2),
        "U3V2_U2V3": U[2] * V[1] - U[1] * V[2] - (K[2] * Xi - L[2] * H2),
    }
    return RelationResidual(residuals=residuals, h2=H2, wedge_gap=gap)


def _columns(G) -> GeneratorVector:
    # The scalar formulas are polymorphic, so they run unchanged on the
    # sixteen columns of an (n, 16) generator array.
    return GeneratorVector.from_flat(np.asarray(G).T)


def relation_residuals_batch(G: np.ndarray):
    """Vectorized residuals over an (n, 16) generator array.

    Columns follow GENERATOR_NAMES order.  Returns (residuals dict of
    (n,) arrays, h2 column, wedge gap column).
    """
    res = relation_residuals(_columns(G))
    return res.residuals, res.h2, res.wedge_gap


def lagrange_identity_check(g: GeneratorVector) -> dict:
    """Both sides of the three quadratic identities tying (U,V) to (K,L).

    Returns {"wedge_sum": (lhs, rhs), "norm_sum": (lhs, rhs),
    "cross_dot": (lhs, rhs)}: the two-vector Lagrange identity, then
    |K|^2 + |L|^2 = H2^2 + Xi^2 and <K,L> = Xi*H2.
    """
    K, L, H2, Xi, U, V = g.K, g.L, g.H2, g.Xi, g.U, g.V
    wedge = 0
    for i in range(4):
        for j in range(i + 1, 4):
            w = U[i] * V[j] - U[j] * V[i]
            wedge = wedge + w * w
    uv = _dot(U, V)
    return {
        "wedge_sum": (wedge + uv * uv, _dot(U, U) * _dot(V, V)),
        "norm_sum": (_dot(K, K) + _dot(L, L), H2 * H2 + Xi * Xi),
        "cross_dot": (_dot(K, L), Xi * H2),
    }


def lagrange_identity_batch(G: np.ndarray) -> dict:
    """lagrange_identity_check over an (n, 16) array: pairs of (n,) arrays."""
    return lagrange_identity_check(_columns(G))


@dataclass(frozen=True)
class WedgePoint:
    """A value (h, xi) of the reduced momentum map."""

    h: object
    xi: object


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


def reduced_momentum(g: GeneratorVector, tol: float = 1e-9) -> WedgePoint:
    """Project a generator vector to (H2, Xi).

    Raises ValueError when |Xi| exceeds H2 beyond tolerance, which
    cannot happen for points of the orbit space.
    """
    if abs(g.Xi) > g.H2 + tol:
        raise ValueError(f"wedge violation: |Xi| = {abs(g.Xi)} exceeds H2 = {g.H2}")
    return WedgePoint(h=g.H2, xi=g.Xi)


def classify_reduced_space(w: WedgePoint, tol: float = 1e-9):
    """Classify the doubly reduced space over a wedge point.

    Interior points give a product of spheres with radii (h+xi)/2 and
    (h-xi)/2, boundary points away from the vertex a single sphere of
    radius h, and the vertex a point.
    """
    h, xi = w.h, w.xi
    if h < -tol or abs(xi) > h + tol * max(1, abs(h)):
        raise ValueError(f"({h}, {xi}) lies outside the wedge")
    if abs(h) <= tol:
        return Point()
    if h - abs(xi) <= tol * max(1, h):
        return SingleSphere(radius=h)
    return ProductOfSpheres(r_plus=(h + xi) / 2, r_minus=(h - xi) / 2)


def _wedge_bilinears(U, V):
    """The two bilinear 3-vectors entering the fiber reconstructions."""
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


def _check_sphere_preconditions(U, V, h, tol):
    if len(U) != 4 or len(V) != 4:
        raise ValueError("U and V must have 4 components")
    if not h > 0:
        raise ValueError("h must be positive")
    scale = max(1, abs(h)) ** 2
    if abs(_dot(U, U) - h * h) > tol * scale:
        raise ValueError("<U,U> != h^2 beyond tolerance")
    if abs(_dot(V, V) - h * h) > tol * scale:
        raise ValueError("<V,V> != h^2 beyond tolerance")
    if abs(_dot(U, V)) > tol * scale:
        raise ValueError("<U,V> != 0 beyond tolerance")


def reconstruct_fiber_interior(U, V, h, tol: float = 1e-9):
    """Recover (K, L) over an interior wedge point with xi = 0.

    K = -B/h and L = -B'/h with the wedge bilinears of (U, V); the
    assembled vector (K, L, h, 0; U, V) satisfies every relation, so
    the level set is a graph over the (U, V) sphere bundle.
    """
    _check_sphere_preconditions(U, V, h, tol)
    B, B_prime = _wedge_bilinears(U, V)
    K = tuple(-b / h for b in B)
    L = tuple(-b / h for b in B_prime)
    return K, L


@dataclass(frozen=True)
class BoundaryFiber:
    """Result of the boundary reconstruction formulas.

    eta comes from the primary expression -sign * B/h, eta_paired from
    the sign-independent B'/h.  The two agree only on a locus that is
    empty for h > 0, so the mismatch is reported as a diagnostic and
    never raised.
    """

    eta: tuple
    eta_paired: tuple
    sign: int
    mismatch: object

    def consistent(self, tol: float = 1e-9) -> bool:
        return self.mismatch <= tol


def reconstruct_fiber_boundary(U, V, h, sign: int, tol: float = 1e-9) -> BoundaryFiber:
    """Evaluate the boundary formulas for eta on sphere-bundle data.

    Preconditions are those of the interior case.  The primary value is
    eta = -sign * B/h; the paired expression B'/h is returned alongside
    with their maximum componentwise difference as a diagnostic.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_sphere_preconditions(U, V, h, tol)
    B, B_prime = _wedge_bilinears(U, V)
    eta = tuple(-sign * b / h for b in B)
    eta_paired = tuple(b / h for b in B_prime)
    mismatch = max(abs(a - b) for a, b in zip(eta, eta_paired))
    return BoundaryFiber(eta=eta, eta_paired=eta_paired, sign=sign, mismatch=mismatch)


def tangent_sphere_chart(U, V, h, tol: float = 1e-9):
    """Normalize sphere-bundle data to a unit base point: (U/h, V)."""
    _check_sphere_preconditions(U, V, h, tol)
    return tuple(u / h for u in U), tuple(V)
