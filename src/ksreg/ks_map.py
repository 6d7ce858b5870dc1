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
from fractions import Fraction

import numpy as np

from .invariants import (
    GEN_MONOMIALS,
    GENERATOR_NAMES,
    PhasePoint8,
    combine_monomials,
    eval_generators,
    eval_generators_batch,
    eval_monomials,
    eval_monomials_batch,
)
from .kepler_dynamics import (
    PhasePoint6,
    angular_momentum,
    dot3,
    eccentricity,
    preregularized_hamiltonian,
)


def _flat(z) -> tuple:
    return z.z if isinstance(z, PhasePoint8) else tuple(z)


#: The map in generator form, one {generator: coefficient} row per table
#: entry: x = (U2-K1, U3-K2, U4-K3), n = (V2, V3, V4), rho = H2+V1, and
#: y = n/rho.
KS_GENERATOR_FORM = (
    {"U2": 1, "K1": -1}, {"U3": 1, "K2": -1}, {"U4": 1, "K3": -1},
    {"V2": 1}, {"V3": 1}, {"V4": 1},
    {"H2": 1, "V1": 1},
)


def _integral(monomials) -> tuple:
    if any(c.denominator != 1 for c, _, _ in monomials):
        raise ValueError(f"non-integral coefficient in {monomials}")
    return tuple((int(c), i, j) for c, i, j in monomials)


#: Bilinear table of (x1, x2, x3, n1, n2, n3, rho) as integer monomial
#: lists (coeff, i, j) over z = (q, p), expanded from KS_GENERATOR_FORM.
KS_MONOMIALS = tuple(
    _integral(combine_monomials(row, GEN_MONOMIALS)) for row in KS_GENERATOR_FORM
)


def _gradient_matrix(monomials) -> np.ndarray:
    # The gradient of z^T M z is (M + M^T) z.
    m = np.zeros((8, 8))
    for c, i, j in monomials:
        m[i, j] += c
        m[j, i] += c
    return m


_KS_GRADIENTS = np.stack([_gradient_matrix(m) for m in KS_MONOMIALS])
_KS_FROM_GENERATORS = np.array(
    [[row.get(n, 0) for n in GENERATOR_NAMES] for row in KS_GENERATOR_FORM], dtype=float)


def _require_chart(rho):
    if np.any(rho == 0):
        raise ValueError("q = 0 is outside the domain of the map")


def _as_rows(Z) -> np.ndarray:
    return np.atleast_2d(np.asarray(Z, dtype=float))


def _table_batch(Z: np.ndarray) -> np.ndarray:
    T = np.stack([eval_monomials_batch(m, Z) for m in KS_MONOMIALS], axis=1)
    _require_chart(T[:, 6])
    return T


def _image_from_table(T: np.ndarray) -> np.ndarray:
    return np.concatenate([T[:, :3], T[:, 3:6] / T[:, 6:7]], axis=1)


def ks(z) -> PhasePoint6:
    """Map (q, p) to (x, y).

    x is quadratic in q, y is bilinear over <q,q>; both come from
    KS_MONOMIALS, whose integer coefficients keep int and Fraction
    input exact.

    Args:
      z: PhasePoint8 or flat 8-sequence with q != 0.

    Returns:
      PhasePoint6 with |x| = <q,q>.

    Raises:
      ValueError: q = 0 (the collision set, outside the domain).
    """
    flat = _flat(z)
    x1, x2, x3, n1, n2, n3, rho = (eval_monomials(m, flat) for m in KS_MONOMIALS)
    _require_chart(rho)
    return PhasePoint6(x=(x1, x2, x3), y=(n1 / rho, n2 / rho, n3 / rho))


def ks_batch(Z) -> np.ndarray:
    """ks over an (n, 8) float array, returning the (n, 6) rows (x, y)."""
    return _image_from_table(_table_batch(_as_rows(Z)))


def ks_from_generators_batch(G) -> np.ndarray:
    """The generator form of ks over an (n, 16) generator array, (n, 6).

    A second evaluation path: ks_batch expands the same GEN_MONOMIALS,
    so comparing the two checks the expansion and its arithmetic, not
    the monomials themselves.
    """
    T = np.asarray(G, dtype=float) @ _KS_FROM_GENERATORS.T
    _require_chart(T[:, 6])
    return _image_from_table(T)


def ks_jacobian_batch(Z) -> np.ndarray:
    """Analytic Jacobians of ks over an (n, 8) array, shape (n, 6, 8).

    Rows are (x1, x2, x3, y1, y2, y3), columns (q1..q4, p1..p4).  The x
    rows have zero p-derivatives; the y rows carry the quotient rule
    for the division by <q,q>.
    """
    Z = _as_rows(Z)
    T = _table_batch(Z)
    D = np.einsum("kab,nb->nka", _KS_GRADIENTS, Z)
    rho = T[:, 6, None, None]
    J = np.empty((Z.shape[0], 6, 8))
    J[:, :3] = D[:, :3]
    J[:, 3:] = D[:, 3:6] / rho - T[:, 3:6, None] * D[:, 6:7] / rho**2
    return J


def KS(z, tol: float = 1e-9) -> PhasePoint6:
    """ks restricted to the zero level of the circle momentum.

    Same formula, smaller domain: inputs with |Xi| > tol are rejected.
    """
    g = eval_generators(_flat(z))
    if abs(g.Xi) > tol:
        raise ValueError(f"Xi = {g.Xi} is off the zero level beyond tol = {tol}")
    return ks(z)


def ks_fiber_action(z, s: float) -> PhasePoint8:
    """Flow of the circle action: rotation by s in the four 2-planes.

    Orientation: d/ds q1 = -q2, d/ds q2 = q1, and the same pattern in
    (q3,q4), (p1,p2), (p3,p4).  ks is constant along this flow.
    """
    flat = _flat(z)
    c, sn = math.cos(s), math.sin(s)
    out = [0.0] * 8
    for i in (0, 2, 4, 6):
        out[i] = flat[i] * c - flat[i + 1] * sn
        out[i + 1] = flat[i] * sn + flat[i + 1] * c
    return PhasePoint8(tuple(out[:4]), tuple(out[4:]))


def pullback_kepler_hamiltonian(z):
    """Both sides of the Hamiltonian pullback identity.

    lhs = (1/2)|x|(|y|^2 + 1) at ks(z); rhs = H2 - (1/2)Xi^2/(H2+V1).
    The identity holds on the whole domain, not only on the zero level.
    """
    g = eval_generators(_flat(z))
    rhs = g.H2 - Fraction(1, 2) * g.Xi * g.Xi / (g.H2 + g.V[0])
    return preregularized_hamiltonian(ks(z)), rhs


def require_level_set(h2, xi, tol: float = 1e-9) -> None:
    """Raise ValueError unless (H2, Xi) = (1, 0) within tol.

    h2 and xi are scalars, exact or float, or matching (n,) arrays.
    """
    off = np.flatnonzero((abs(h2 - 1) > tol) | (abs(xi) > tol))
    if off.size:
        i = off[0]
        raise ValueError(
            f"point {i} is off the (H2, Xi) = (1, 0) level set beyond tol = {tol}: "
            f"H2 = {float(np.ravel(h2)[i])}, Xi = {float(np.ravel(xi)[i])}"
        )


def _on_level_set(z, tol):
    g = eval_generators(_flat(z))
    require_level_set(g.H2, g.Xi, tol)
    return ks(z), g


def pullback_angular_momentum(z, tol: float = 1e-9):
    """(x cross y at ks(z), L(z)) on the (1, 0) level set."""
    pt, g = _on_level_set(z, tol)
    return angular_momentum(pt), g.L


def pullback_eccentricity(z, tol: float = 1e-9):
    """(-x/|x| + y cross (x cross y) at ks(z), K(z)) on the level set."""
    pt, g = _on_level_set(z, tol)
    return eccentricity(pt), g.K


def pullback_inner_product(z, tol: float = 1e-9):
    """(<x, y> at ks(z), -U1(z)) on the level set."""
    pt, g = _on_level_set(z, tol)
    return dot3(pt.x, pt.y), -g.U[0]


def pullback_gaps_batch(Z) -> dict:
    """Per-row gaps of the four pullback identities over an (n, 8) array.

    Keys hamiltonian, angular_momentum, eccentricity and inner_product
    map to (n,) arrays: the largest absolute componentwise difference
    between the Kepler-side value at ks(z) and its generator.  Raises
    ValueError when any row is off the (1, 0) level set (tol 1e-9).
    """
    Z = _as_rows(Z)
    G = eval_generators_batch(Z)
    require_level_set(G[:, 6], G[:, 7])
    W = ks_batch(Z)
    x, y = W[:, :3], W[:, 3:]
    K, L, H2, Xi, U1, V1 = G[:, 0:3], G[:, 3:6], G[:, 6], G[:, 7], G[:, 8], G[:, 12]
    r = np.sqrt(np.sum(x * x, axis=1))
    j = np.cross(x, y)
    e = -x / r[:, None] + np.cross(y, j)
    energy = r * (np.sum(y * y, axis=1) + 1) / 2
    return {
        "hamiltonian": np.abs(energy - (H2 - 0.5 * Xi * Xi / (H2 + V1))),
        "angular_momentum": np.abs(j - L).max(axis=1),
        "eccentricity": np.abs(e - K).max(axis=1),
        "inner_product": np.abs(np.sum(x * y, axis=1) + U1),
    }


def ks_gradients(z) -> np.ndarray:
    """Analytic gradients of the six components of ks, shape (6, 8)."""
    return ks_jacobian_batch(_flat(z))[0]


# The target structure matrix [[0, 2I], [-2I, 0]].
_POISSON_TARGET = np.kron([[0.0, 2.0], [-2.0, 0.0]], np.eye(3))


def poisson_residual_batch(Z) -> np.ndarray:
    """poisson_property_residual over an (n, 8) array, shape (n, 6, 6)."""
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
    return poisson_residual_batch(_flat(z))[0]


def poisson_residual_xi_sweep(z, offsets) -> list:
    """Largest y-y bracket residual as the circle momentum varies.

    Each offset t shifts p by t times the rotated q, moving Xi by
    t<q,q> while keeping q fixed.  Returns [(Xi, residual), ...] rows
    measured at each shifted point; no claim is asserted about them.
    """
    flat = np.asarray(_flat(z), dtype=float)
    rotated_q = np.array([0, 0, 0, 0, -flat[1], flat[0], -flat[3], flat[2]])
    shifted = flat + np.asarray(offsets, dtype=float)[:, None] * rotated_q
    xi = eval_generators_batch(shifted)[:, 7]
    res = np.abs(poisson_residual_batch(shifted)[:, 3:, 3:]).max(axis=(1, 2))
    return [(float(a), float(b)) for a, b in zip(xi, res)]
