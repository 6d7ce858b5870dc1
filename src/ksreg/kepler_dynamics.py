"""Kepler-side Hamiltonians, vector fields, and collision-time formulas.

The raw Kepler field is singular at x = 0; the preregularized field is
its time-and-space rescaling by |x|, with the new curve parameter s
related to physical time by dt/ds = |x|/k.  The energy scale k is fixed
to 1 internally; other values are reached through the symplectic
scaling (x, y) -> (x/k, k*y).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import integrate


@dataclass(frozen=True)
class PhasePoint6:
    """A point (x, y) of the Kepler-side phase space, x != 0 on the image."""

    x: tuple
    y: tuple

    def __post_init__(self):
        if len(self.x) != 3 or len(self.y) != 3:
            raise ValueError("x and y must each have 3 components")
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "y", tuple(self.y))

    def as_arrays(self):
        return np.asarray(self.x, dtype=float), np.asarray(self.y, dtype=float)


def dot3(a, b):
    """Inner product in whatever arithmetic the entries carry."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a, b):
    """Cross product in whatever arithmetic the entries carry."""
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm3(v):
    """Euclidean norm, exact for rational input with a square norm."""
    s = dot3(v, v)
    if isinstance(s, (int, Fraction)):
        f = Fraction(s)
        rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            root = Fraction(rn, rd)
            return int(root) if root.denominator == 1 else root
    return math.sqrt(s)


def _as_point(w) -> PhasePoint6:
    if isinstance(w, PhasePoint6):
        return w
    w = np.asarray(w, dtype=float)
    return PhasePoint6(tuple(w[:3]), tuple(w[3:]))


def _require_noncollision(x):
    if all(v == 0 for v in x):
        raise ValueError("x = 0 is the collision point, outside the domain")


def kepler_energy(w) -> float:
    """K(x, y) = |y|^2/2 - 1/|x|."""
    pt = _as_point(w)
    _require_noncollision(pt.x)
    return sum(v * v for v in pt.y) / 2 - 1 / norm3(pt.x)


def preregularized_hamiltonian(w):
    """The regularized energy |x|(|y|^2 + 1)/2, smooth through x = 0."""
    pt = _as_point(w)
    return norm3(pt.x) * (sum(v * v for v in pt.y) + 1) / 2


def preregularized_vector_field(w) -> np.ndarray:
    """Symplectic gradient of the preregularized energy.

    dx/ds = |x| y, dy/ds = -(|y|^2 + 1) x / (2|x|).
    """
    pt = _as_point(w)
    _require_noncollision(pt.x)
    x = np.asarray(pt.x, dtype=float)
    y = np.asarray(pt.y, dtype=float)
    r = float(np.linalg.norm(x))
    return np.concatenate([r * y, -(y @ y + 1) / 2 * x / r])


def rescaled_kepler_vector_field(w) -> np.ndarray:
    """The |x|-rescaled Kepler field with its level-set correction term.

    dx/ds = |x| y, dy/ds = -x/|x|^2 - (K + 1/2) x/|x| at k = 1.  This is
    an independent construction that agrees with the symplectic
    gradient; the cross-validation lives in the tests.
    """
    pt = _as_point(w)
    _require_noncollision(pt.x)
    x = np.asarray(pt.x, dtype=float)
    y = np.asarray(pt.y, dtype=float)
    r = float(np.linalg.norm(x))
    energy = (y @ y) / 2 - 1 / r
    dy = -x / r**2 - (energy + 0.5) * x / r
    return np.concatenate([r * y, dy])


def kepler_vector_field(w) -> np.ndarray:
    """The raw field dx/dt = y, dy/dt = -x/|x|^3, singular at x = 0."""
    pt = _as_point(w)
    _require_noncollision(pt.x)
    x = np.asarray(pt.x, dtype=float)
    y = np.asarray(pt.y, dtype=float)
    r = float(np.linalg.norm(x))
    return np.concatenate([y, -x / r**3])


def angular_momentum(w):
    """J = x cross y."""
    pt = _as_point(w)
    _require_noncollision(pt.x)
    return cross3(pt.x, pt.y)


def eccentricity(w):
    """e = -x/|x| + y cross (x cross y), conserved along the flow."""
    pt = _as_point(w)
    _require_noncollision(pt.x)
    yxj = cross3(pt.y, cross3(pt.x, pt.y))
    r = norm3(pt.x)
    return tuple(-xi / r + w_ for xi, w_ in zip(pt.x, yxj))


@dataclass(frozen=True)
class KeplerParams:
    """Energy scale of the negative-energy Kepler flow.

    The flow under study lives on the level K = -k^2/2; all internal
    formulas use k = 1 and reach other scales through
    symplectic_scaling.
    """

    k: float = 1.0

    def __post_init__(self):
        if not self.k > 0:
            raise ValueError("k must be positive")

    @property
    def energy_level(self) -> float:
        return -self.k**2 / 2


def symplectic_scaling(w, k: float) -> PhasePoint6:
    """The coordinate change (x, y) -> (x/k, k*y).

    Composing the energy-k regularized Hamiltonian |x|(|y|^2 + k^2)/(2k)
    with this change yields the k = 1 form |x|(|y|^2 + 1)/2 exactly.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    pt = _as_point(w)
    return PhasePoint6(tuple(v / k for v in pt.x), tuple(k * v for v in pt.y))


@dataclass(frozen=True)
class RadialState:
    """Collinear Kepler state (r, rdot) at energy -1/2."""

    r: float
    rdot: float

    def energy_residual(self) -> float:
        """rdot^2 - 2/r + 1; zero on the energy shell."""
        return self.rdot**2 - 2 / self.r + 1


def radial_ode_rhs(state: RadialState):
    """d(r)/dt = rdot, d(rdot)/dt = -1/r^2."""
    if not state.r > 0:
        raise ValueError("r must be positive")
    return (state.rdot, -1 / state.r**2)


def radial_collision_time(r0: float) -> float:
    """Time to reach the center from radius r0 on the energy -1/2 line.

    The inward branch of the collinear orbit with rdot^2 - 2/r = -1 is
    followed from r = r0 down to r = 0; the orbit is at rest only at
    the turning radius r0 = 2.  Closed form
    pi - 2*arctan(s0) - 2*s0/(1 + s0^2) with s0 = sqrt(2/r0 - 1).
    Strictly below pi for r0 < 2; equal to pi at the turning radius.
    """
    if not 0 < r0 <= 2:
        raise ValueError("r0 must lie in (0, 2] at energy -1/2")
    s0 = math.sqrt(2 / r0 - 1)
    return math.pi - 2 * math.atan(s0) - 2 * s0 / (1 + s0**2)


def radial_collision_time_quadrature(r0: float) -> float:
    """The same fall time by direct quadrature of dr / sqrt(2/r - 1)."""
    if not 0 < r0 <= 2:
        raise ValueError("r0 must lie in (0, 2] at energy -1/2")
    value, _ = integrate.quad(
        lambda r: 1 / math.sqrt(2 / r - 1), 0, r0, points=[r0]
    )
    return value


def sundman_time(s_grid: np.ndarray, states: np.ndarray, k: float = 1.0) -> np.ndarray:
    """Physical time along an s-parametrized path: t(s) = int |x|/k ds.

    The integrand is dt/ds = |x|/k, so time runs slower than s near the
    center; a path reaching x = 0 is rejected because the relation
    degenerates there.
    """
    if not k > 0:
        raise ValueError("k must be positive")
    s_grid = np.asarray(s_grid, dtype=float)
    states = np.asarray(states, dtype=float)
    radii = np.linalg.norm(states[:, :3], axis=1)
    if np.any(radii == 0):
        raise ValueError("path touches x = 0; the reparametrization degenerates")
    if s_grid.size == 1:
        return np.zeros(1)
    return np.concatenate([
        [0.0], integrate.cumulative_simpson(radii / k, x=s_grid)
    ])


def sundman_reparametrize(
    t_grid: np.ndarray,
    s_grid: np.ndarray,
    states: np.ndarray,
    k: float = 1.0,
) -> np.ndarray:
    """Resample an s-parametrized path at requested physical times.

    t(s) is accumulated from dt/ds = |x|/k and inverted monotonically;
    requested times outside [t(s0), t(s_end)] are rejected.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    s_grid = np.asarray(s_grid, dtype=float)
    states = np.asarray(states, dtype=float)
    t_of_s = sundman_time(s_grid, states, k=k)
    if np.any(t_grid < t_of_s[0] - 1e-12) or np.any(t_grid > t_of_s[-1] + 1e-12):
        raise ValueError("requested times fall outside the covered span")
    s_of_t = np.interp(t_grid, t_of_s, s_grid)
    resampled = np.empty((t_grid.size, states.shape[1]))
    for col in range(states.shape[1]):
        resampled[:, col] = np.interp(s_of_t, s_grid, states[:, col])
    return resampled


def write_trajectory_csv(path, times: np.ndarray, states: np.ndarray) -> None:
    """Write a Kepler-side path as CSV with conserved-quantity columns.

    Columns: t, x1..x3, y1..y3, energy, J1..J3, e1..e3.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    header = "t,x1,x2,x3,y1,y2,y3,energy,J1,J2,J3,e1,e2,e3"
    rows = []
    for t, w in zip(times, states):
        j = angular_momentum(w)
        e = eccentricity(w)
        values = [t, *w, kepler_energy(w), *j, *e]
        rows.append(",".join(format(v, ".17g") for v in values))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(rows) + "\n")
