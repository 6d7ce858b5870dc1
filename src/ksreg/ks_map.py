"""The dimension-halving map to the Kepler side and its pullback identities.

ks sends (q, p) in R^8 with q != 0 to (x, y) with x != 0, collapsing
each circle orbit to a point.  Restricted to the zero level of the
circle momentum it pulls the angular momentum, eccentricity, and inner
product on the Kepler side back to the generators L, K, and -U1, and it
is a Poisson map up to a factor 2 in the target structure matrix.

The map is written once, as a bilinear table derived from the generator
monomials; the scalar, batch and Jacobian entry points all evaluate it.
"""
from __future__ import annotations

import math

import numpy as np

from .invariants import (
    GEN_MONOMIALS,
    GENERATOR_NAMES,
    H2,
    K,
    L,
    TOL,
    U1,
    V1,
    XI,
    _integer_terms,
    as_batch,
    combine_monomials,
    compile_monomials,
    eval_generator_columns,
    eval_generators,
    eval_generators_batch,
    grad_p_xi,
    hessian_entries,
    point8,
)
from .kepler_dynamics import angular_momentum, dot3, eccentricity, preregularized_hamiltonian


#: The map in generator form, one {generator: coefficient} row per table
#: entry: x = (U2-K1, U3-K2, U4-K3), n = (V2, V3, V4), rho = H2+V1, and
#: y = n/rho.
KS_GENERATOR_FORM = (
    {"U2": 1, "K1": -1}, {"U3": 1, "K2": -1}, {"U4": 1, "K3": -1},
    {"V2": 1}, {"V3": 1}, {"V4": 1},
    {"H2": 1, "V1": 1},
)


# Each row as (d, d times its monomials); a row with d != 1 has no integer table.
_KS_SCALED = tuple(
    _integer_terms(combine_monomials(row, GEN_MONOMIALS)) for row in KS_GENERATOR_FORM
)
if any(d != 1 for d, _ in _KS_SCALED):
    raise ValueError(f"non-integral coefficient in {_KS_SCALED}")

#: Bilinear table of (x1, x2, x3, n1, n2, n3, rho) as integer monomial
#: lists (coeff, i, j) over z = (q, p), expanded from KS_GENERATOR_FORM.
KS_MONOMIALS = tuple(terms for _, terms in _KS_SCALED)
(_ks_sums,) = compile_monomials((KS_MONOMIALS,))


# Row k holds the matrix a_k with grad(table entry k) = a_k z.
_KS_GRADIENTS = np.zeros((len(KS_MONOMIALS), 8, 8))
for _k, _monomials in enumerate(KS_MONOMIALS):
    for _i, _j, _a in hessian_entries(_monomials):
        _KS_GRADIENTS[_k, _i, _j] = _a
_KS_FROM_GENERATORS = np.array(
    [[row.get(n, 0) for n in GENERATOR_NAMES] for row in KS_GENERATOR_FORM], dtype=float)


def _require_chart(rho):
    if np.any(rho == 0):
        raise ValueError("q = 0 is outside the domain of the map")


def _table(z) -> tuple:
    """KS_MONOMIALS at eight columns z: (x1, x2, x3, n1, n2, n3, rho)."""
    T = _ks_sums(z)
    _require_chart(T[6])
    return T


def _image(T) -> tuple:
    """(x1, x2, x3, y1, y2, y3) from the seven table columns."""
    return (*T[:3], *(n / T[6] for n in T[3:6]))


def ks(z) -> tuple:
    """Map (q, p) to (x, y).

    x is quadratic in q, y is bilinear over <q,q>; both come from
    KS_MONOMIALS, whose integer coefficients keep int and Fraction
    input exact.

    Args:
      z: flat 8-sequence (q1..q4, p1..p4) with q != 0.

    Returns:
      The 6-tuple (x1, x2, x3, y1, y2, y3), with |x| = <q,q>.

    Raises:
      ValueError: q = 0 (the collision set, outside the domain).
    """
    return _image(_table(point8(z)))


def ks_batch(Z) -> np.ndarray:
    """ks over an (n, 8) float array or one (8,) row, returning the (n, 6) rows (x, y)."""
    return np.column_stack(_image(_table(as_batch(np.asarray(Z, dtype=float), 8).T)))


def ks_from_generators_batch(G) -> np.ndarray:
    """The generator form of ks over an (n, 16) generator array or one (16,) row, (n, 6).

    A second evaluation path: ks_batch expands the same GEN_MONOMIALS,
    so comparing the two checks the expansion and its arithmetic, not
    the monomials themselves.
    """
    T = (as_batch(np.asarray(G, dtype=float), 16) @ _KS_FROM_GENERATORS.T).T
    _require_chart(T[6])
    return np.column_stack(_image(T))


def ks_jacobian_batch(Z) -> np.ndarray:
    """Analytic Jacobians of ks over an (n, 8) array or one (8,) row, shape (n, 6, 8).

    Rows are (x1, x2, x3, y1, y2, y3), columns (q1..q4, p1..p4).  The x
    rows have zero p-derivatives; the y rows carry the quotient rule
    for the division by <q,q>.
    """
    Z = as_batch(np.asarray(Z, dtype=float), 8)
    T = np.stack(_table(Z.T), axis=1)
    D = np.einsum("kab,nb->nka", _KS_GRADIENTS, Z)
    rho = T[:, 6, None, None]
    J = np.empty((Z.shape[0], 6, 8))
    J[:, :3] = D[:, :3]
    J[:, 3:] = D[:, 3:6] / rho - T[:, 3:6, None] * D[:, 6:7] / rho**2
    return J


def KS(z) -> tuple:
    """ks restricted to the zero level of the circle momentum.

    Same formula, smaller domain: inputs with |Xi| > TOL, or Xi NaN, are
    rejected.
    """
    xi = eval_generators(z)[XI]
    if not abs(xi) <= TOL:  # written so that NaN fails it
        raise ValueError(f"Xi = {xi} is off the zero level beyond tol = {TOL}")
    return ks(z)


def ks_fiber_action(z, s: float) -> tuple:
    """Flow of the circle action: rotation by s in the four 2-planes.

    Orientation: d/ds q1 = -q2, d/ds q2 = q1, and the same pattern in
    (q3,q4), (p1,p2), (p3,p4).  ks is constant along this flow.
    """
    flat = np.asarray(point8(z))
    turned = np.concatenate([grad_p_xi(flat[:4]), grad_p_xi(flat[4:])])
    return tuple((flat * math.cos(s) + turned * math.sin(s)).tolist())


def require_level_set(h2, xi) -> None:
    """Raise ValueError unless (H2, Xi) = (1, 0) within TOL.

    h2 and xi are scalars, exact or float, or matching (n,) arrays.  The
    test is written so that NaN fails it.
    """
    on_level = np.logical_and(abs(h2 - 1) <= TOL, abs(xi) <= TOL)
    off = np.flatnonzero(~on_level)
    if off.size:
        i = off[0]
        raise ValueError(
            f"point {i} is off the (H2, Xi) = (1, 0) level set beyond tol = {TOL}: "
            f"H2 = {float(np.ravel(h2)[i])}, Xi = {float(np.ravel(xi)[i])}"
        )


def pulled_back_hamiltonian(g):
    """H2 - Xi^2 / (2 (H2 + V1)) from the generators g: the preregularized
    energy at ks(z), with H2 + V1 = |x|, in whatever arithmetic g carries."""
    return g[H2] - g[XI] * g[XI] / 2 / (g[H2] + g[V1])


def _pullback_pairs(z, on_level: bool) -> dict:
    """(Kepler side at ks(z), generator side) of the four pullback identities.

    z holds eight columns, numbers or (n,) arrays.  With on_level the
    point must lie on the (1, 0) level set; the Hamiltonian identity
    holds on the whole domain and is checked without that restriction.
    """
    g = eval_generator_columns(z)
    if on_level:
        require_level_set(g[H2], g[XI])
    w = _image(_table(z))
    return {
        "hamiltonian": (preregularized_hamiltonian(w), pulled_back_hamiltonian(g)),
        "angular_momentum": (angular_momentum(w), g[L]),
        "eccentricity": (eccentricity(w), g[K]),
        "inner_product": (dot3(w[:3], w[3:]), -g[U1]),
    }


def pullback_kepler_hamiltonian(z):
    """Both sides of the Hamiltonian pullback identity.

    lhs = (1/2)|x|(|y|^2 + 1) at ks(z); rhs = H2 - (1/2)Xi^2/(H2+V1).
    The identity holds on the whole domain, not only on the zero level.
    """
    return _pullback_pairs(point8(z), False)["hamiltonian"]


def pullback_angular_momentum(z):
    """(x cross y at ks(z), L(z)) on the (1, 0) level set."""
    return _pullback_pairs(point8(z), True)["angular_momentum"]


def pullback_eccentricity(z):
    """(-x/|x| + y cross (x cross y) at ks(z), K(z)) on the level set."""
    return _pullback_pairs(point8(z), True)["eccentricity"]


def pullback_inner_product(z):
    """(<x, y> at ks(z), -U1(z)) on the level set."""
    return _pullback_pairs(point8(z), True)["inner_product"]


def pullback_gaps_batch(Z) -> dict:
    """Per-row gaps of the four pullback identities over an (n, 8) array or one (8,) row.

    Keys hamiltonian, angular_momentum, eccentricity and inner_product
    map to (n,) arrays: the largest absolute componentwise difference
    between the Kepler-side value at ks(z) and its generator.  Raises
    ValueError when any row is off the (1, 0) level set beyond TOL.
    """
    pairs = _pullback_pairs(as_batch(np.asarray(Z, dtype=float), 8).T, True)
    return {
        key: np.abs(np.atleast_2d(np.subtract(lhs, rhs))).max(axis=0)
        for key, (lhs, rhs) in pairs.items()
    }


# The target structure matrix [[0, 2I], [-2I, 0]].
_POISSON_TARGET = np.kron([[0.0, 2.0], [-2.0, 0.0]], np.eye(3))


def poisson_residual_batch(Z) -> np.ndarray:
    """poisson_property_residual over an (n, 8) array or one (8,) row, shape (n, 6, 6)."""
    J = ks_jacobian_batch(Z)
    gq, gp = J[:, :, 0:4], J[:, :, 4:8]
    brackets = gq @ gp.transpose(0, 2, 1) - gp @ gq.transpose(0, 2, 1)
    return brackets - _POISSON_TARGET


def poisson_property_residual(z) -> np.ndarray:
    """Deviation of the pulled-back bracket table from [[0, 2I], [-2I, 0]].

    Entry (a, b) is {f_a, f_b}(z) minus the target, for f running over
    the six components of ks, evaluated with the analytic gradients.
    The x-x block vanishes identically; the rest vanishes on the zero
    level of Xi.
    """
    return poisson_residual_batch(point8(z))[0]


def poisson_residual_xi_sweep(z, offsets) -> list:
    """Largest y-y bracket residual as the circle momentum varies.

    Each offset t shifts p by t times the rotated q, moving Xi by
    t<q,q> while keeping q fixed.  Returns [(Xi, residual), ...] rows
    measured at each shifted point; no claim is asserted about them.
    """
    flat = np.asarray(point8(z), dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    shifted = np.tile(flat, (offsets.size, 1))
    shifted[:, 4:] += offsets[:, None] * grad_p_xi(flat)
    xi = eval_generators_batch(shifted)[:, XI]
    res = np.abs(poisson_residual_batch(shifted)[:, 3:, 3:]).max(axis=(1, 2))
    return [(float(a), float(b)) for a, b in zip(xi, res)]
