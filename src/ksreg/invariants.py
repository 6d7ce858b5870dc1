"""Quadratic invariants of the circle action on phase space R^8.

Sixteen basic invariants pi_1..pi_16 and the generator set
(K, L, H2, Xi; U, V) related to them by an invertible linear map.
Every evaluator here is generated from a single monomial table, so the
scalar (exact rational) and batched (float or integer numpy) paths
cannot drift apart.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

HALF = Fraction(1, 2)

PI_NAMES = tuple(f"pi{i}" for i in range(1, 17))

#: Generator order used for every 16-vector in this package.
GENERATOR_NAMES = (
    "K1", "K2", "K3", "L1", "L2", "L3", "H2", "Xi",
    "U1", "U2", "U3", "U4", "V1", "V2", "V3", "V4",
)

# Each invariant is a sum of monomials (coeff, i, j) standing for
# coeff * z[i] * z[j].  This table is the single formula source.
PI_MONOMIALS: tuple[tuple[tuple[int, int, int], ...], ...] = (
    ((1, 0, 0), (1, 1, 1)),      # pi1  = q1^2 + q2^2
    ((1, 2, 2), (1, 3, 3)),      # pi2  = q3^2 + q4^2
    ((1, 4, 4), (1, 5, 5)),      # pi3  = p1^2 + p2^2
    ((1, 6, 6), (1, 7, 7)),      # pi4  = p3^2 + p4^2
    ((1, 0, 4), (1, 1, 5)),      # pi5  = q1 p1 + q2 p2
    ((1, 2, 6), (1, 3, 7)),      # pi6  = q3 p3 + q4 p4
    ((1, 0, 5), (-1, 1, 4)),     # pi7  = q1 p2 - q2 p1
    ((1, 2, 7), (-1, 3, 6)),     # pi8  = q3 p4 - q4 p3
    ((1, 0, 3), (-1, 1, 2)),     # pi9  = q1 q4 - q2 q3
    ((1, 0, 2), (1, 1, 3)),      # pi10 = q1 q3 + q2 q4
    ((1, 4, 7), (-1, 5, 6)),     # pi11 = p1 p4 - p2 p3
    ((1, 4, 6), (1, 5, 7)),      # pi12 = p1 p3 + p2 p4
    ((1, 0, 7), (-1, 1, 6)),     # pi13 = q1 p4 - q2 p3
    ((1, 0, 6), (1, 1, 7)),      # pi14 = q1 p3 + q2 p4
    ((1, 3, 4), (-1, 2, 5)),     # pi15 = q4 p1 - q3 p2
    ((1, 2, 4), (1, 3, 5)),      # pi16 = q3 p1 + q4 p2
)

# Generators as exact linear combinations of the pi invariants.
GEN_FROM_PI_TABLE: dict[str, dict[str, Fraction]] = {
    "K1": {"pi10": Fraction(-1), "pi12": Fraction(-1)},
    "K2": {"pi9": Fraction(-1), "pi11": Fraction(-1)},
    "K3": {"pi2": HALF, "pi4": HALF, "pi1": -HALF, "pi3": -HALF},
    "L1": {"pi15": Fraction(1), "pi13": Fraction(-1)},
    "L2": {"pi14": Fraction(1), "pi16": Fraction(-1)},
    "L3": {"pi8": Fraction(1), "pi7": Fraction(-1)},
    "H2": {"pi1": HALF, "pi2": HALF, "pi3": HALF, "pi4": HALF},
    "Xi": {"pi7": Fraction(1), "pi8": Fraction(1)},
    "U1": {"pi5": Fraction(-1), "pi6": Fraction(-1)},
    "U2": {"pi10": Fraction(1), "pi12": Fraction(-1)},
    "U3": {"pi9": Fraction(1), "pi11": Fraction(-1)},
    "U4": {"pi1": HALF, "pi4": HALF, "pi2": -HALF, "pi3": -HALF},
    "V1": {"pi1": HALF, "pi2": HALF, "pi3": -HALF, "pi4": -HALF},
    "V2": {"pi14": Fraction(1), "pi16": Fraction(1)},
    "V3": {"pi13": Fraction(1), "pi15": Fraction(1)},
    "V4": {"pi5": Fraction(1), "pi6": Fraction(-1)},
}

# The inverse map.  The pi11 row is the true inverse entry; a naive
# transcription of the published list gets its sign pattern wrong, and
# the exactness test against a computed matrix inverse pins it down.
PI_FROM_GEN_TABLE: dict[str, dict[str, Fraction]] = {
    "pi1": {"H2": HALF, "K3": -HALF, "U4": HALF, "V1": HALF},
    "pi2": {"H2": HALF, "K3": HALF, "U4": -HALF, "V1": HALF},
    "pi3": {"H2": HALF, "K3": -HALF, "U4": -HALF, "V1": -HALF},
    "pi4": {"H2": HALF, "K3": HALF, "U4": HALF, "V1": -HALF},
    "pi5": {"V4": HALF, "U1": -HALF},
    "pi6": {"U1": -HALF, "V4": -HALF},
    "pi7": {"Xi": HALF, "L3": -HALF},
    "pi8": {"Xi": HALF, "L3": HALF},
    "pi9": {"U3": HALF, "K2": -HALF},
    "pi10": {"U2": HALF, "K1": -HALF},
    "pi11": {"U3": -HALF, "K2": -HALF},
    "pi12": {"U2": -HALF, "K1": -HALF},
    "pi13": {"V3": HALF, "L1": -HALF},
    "pi14": {"V2": HALF, "L2": HALF},
    "pi15": {"V3": HALF, "L1": HALF},
    "pi16": {"V2": HALF, "L2": -HALF},
}


def _table_to_matrix(table, row_names, col_names):
    m = [[Fraction(0)] * len(col_names) for _ in row_names]
    for i, rname in enumerate(row_names):
        for cname, coeff in table[rname].items():
            m[i][col_names.index(cname)] = coeff
    return tuple(tuple(row) for row in m)


#: 16x16 exact matrices for the two directions of the linear change of basis.
GEN_FROM_PI_MATRIX = _table_to_matrix(GEN_FROM_PI_TABLE, GENERATOR_NAMES, PI_NAMES)
PI_FROM_GEN_MATRIX = _table_to_matrix(PI_FROM_GEN_TABLE, PI_NAMES, GENERATOR_NAMES)


def combine_monomials(coeffs: dict, table: dict) -> tuple:
    """Expand a {name: coeff} combination of the monomial lists table[name]."""
    acc: dict[tuple[int, int], Fraction] = {}
    for name, coeff in coeffs.items():
        for c, i, j in table[name]:
            key = (i, j) if i <= j else (j, i)
            acc[key] = acc.get(key, Fraction(0)) + coeff * c
    return tuple(
        (c, i, j) for (i, j), c in sorted(acc.items()) if c != 0
    )


#: Direct (q,p)-monomial form of each generator, derived from the same table.
GEN_MONOMIALS: dict[str, tuple[tuple[Fraction, int, int], ...]] = {
    name: combine_monomials(GEN_FROM_PI_TABLE[name], dict(zip(PI_NAMES, PI_MONOMIALS)))
    for name in GENERATOR_NAMES
}


def eval_monomials(monomials, z: Sequence) -> object:
    """Evaluate a monomial list at a flat 8-vector (any numeric type)."""
    total = 0
    for c, i, j in monomials:
        total = total + c * z[i] * z[j]
    return total


def eval_monomials_batch(monomials, Z: np.ndarray) -> np.ndarray:
    """Evaluate a monomial list over an (n, 8) array, one value per row."""
    total = np.zeros(Z.shape[0], dtype=Z.dtype)
    for c, i, j in monomials:
        # Fraction coefficients with denominator 1 stay exact in integers.
        cc = int(c) if Fraction(c).denominator == 1 else float(c)
        total = total + cc * Z[:, i] * Z[:, j]
    return total


@dataclass(frozen=True)
class PhasePoint8:
    """A point (q, p) of the oscillator-side phase space R^8.

    Entries may be floats or Fractions; all formulas in this package are
    polymorphic over both.
    """
    q: tuple
    p: tuple

    def __post_init__(self):
        if len(self.q) != 4 or len(self.p) != 4:
            raise ValueError("q and p must each have 4 components")
        object.__setattr__(self, "q", tuple(self.q))
        object.__setattr__(self, "p", tuple(self.p))

    @property
    def z(self) -> tuple:
        """The flat coordinate 8-tuple (q1..q4, p1..p4)."""
        return self.q + self.p

    @classmethod
    def from_z(cls, z: Sequence) -> "PhasePoint8":
        z = tuple(z)
        if len(z) != 8:
            raise ValueError("expected 8 components")
        return cls(z[:4], z[4:])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.z, dtype=float)


@dataclass(frozen=True)
class PiVector:
    """The 16 basic invariants evaluated at a phase point."""
    pi: tuple

    def __post_init__(self):
        if len(self.pi) != 16:
            raise ValueError("expected 16 components")
        object.__setattr__(self, "pi", tuple(self.pi))

    def __getitem__(self, index_1based: int):
        """Component by the conventional 1-based index."""
        if not 1 <= index_1based <= 16:
            raise IndexError("pi index runs from 1 to 16")
        return self.pi[index_1based - 1]


@dataclass(frozen=True)
class GeneratorVector:
    """The generator 16-tuple (K, L, H2, Xi; U, V)."""
    K: tuple
    L: tuple
    H2: object
    Xi: object
    U: tuple
    V: tuple

    def __post_init__(self):
        if len(self.K) != 3 or len(self.L) != 3:
            raise ValueError("K and L must have 3 components")
        if len(self.U) != 4 or len(self.V) != 4:
            raise ValueError("U and V must have 4 components")
        object.__setattr__(self, "K", tuple(self.K))
        object.__setattr__(self, "L", tuple(self.L))
        object.__setattr__(self, "U", tuple(self.U))
        object.__setattr__(self, "V", tuple(self.V))

    @property
    def flat(self) -> tuple:
        """Components in GENERATOR_NAMES order."""
        return self.K + self.L + (self.H2, self.Xi) + self.U + self.V

    @classmethod
    def from_flat(cls, values: Sequence) -> "GeneratorVector":
        values = tuple(values)
        if len(values) != 16:
            raise ValueError("expected 16 components")
        return cls(
            K=values[0:3], L=values[3:6], H2=values[6], Xi=values[7],
            U=values[8:12], V=values[12:16],
        )

    def as_array(self) -> np.ndarray:
        return np.asarray(self.flat, dtype=float)

    def to_json_dict(self) -> dict:
        """Flat JSON object with keys K, L, H2, Xi, U, V."""
        return {
            "K": [float(v) for v in self.K],
            "L": [float(v) for v in self.L],
            "H2": float(self.H2),
            "Xi": float(self.Xi),
            "U": [float(v) for v in self.U],
            "V": [float(v) for v in self.V],
        }


@dataclass(frozen=True)
class ReducedPoint:
    """Image of a generator vector on the doubly reduced space."""
    xi: tuple
    eta: tuple
    H2: object
    Xi: object


def eval_pi(z: PhasePoint8 | Sequence) -> PiVector:
    """Evaluate the 16 basic invariants at a phase point.

    Works for float and Fraction entries alike; the result entries have
    the arithmetic type of the inputs.
    """
    flat = z.z if isinstance(z, PhasePoint8) else tuple(z)
    return PiVector(tuple(eval_monomials(m, flat) for m in PI_MONOMIALS))


def eval_pi_batch(Z: np.ndarray) -> np.ndarray:
    """Evaluate the invariants over an (n, 8) array, returning (n, 16)."""
    Z = np.asarray(Z)
    return np.stack([eval_monomials_batch(m, Z) for m in PI_MONOMIALS], axis=1)


def eval_generators(z: PhasePoint8 | Sequence) -> GeneratorVector:
    """Evaluate (K, L, H2, Xi; U, V) at a phase point.

    Uses the direct (q,p)-monomial form; generators_from_pi(eval_pi(z))
    must agree exactly and the test suite holds the two paths together.
    """
    flat = z.z if isinstance(z, PhasePoint8) else tuple(z)
    values = []
    for name in GENERATOR_NAMES:
        v = eval_monomials(GEN_MONOMIALS[name], flat)
        values.append(_demote(v))
    return GeneratorVector.from_flat(values)


def eval_generators_batch(Z: np.ndarray) -> np.ndarray:
    """Evaluate the generators over an (n, 8) array, returning (n, 16).

    For exact integer input use an even-integer array: the four
    generators with half-integer coefficients then stay integral.
    """
    Z = np.asarray(Z)
    if np.issubdtype(Z.dtype, np.integer):
        # Work with doubled generators to stay in exact integers.
        cols = []
        for name in GENERATOR_NAMES:
            doubled = tuple((int(2 * c), i, j) for c, i, j in GEN_MONOMIALS[name])
            twice = eval_monomials_batch(doubled, Z)
            if np.any(twice % 2 != 0):
                raise ValueError(
                    "integer batch requires even entries so that "
                    "half-integer coefficients stay exact"
                )
            cols.append(twice // 2)
        return np.stack(cols, axis=1)
    return np.stack(
        [eval_monomials_batch(GEN_MONOMIALS[n], Z) for n in GENERATOR_NAMES], axis=1
    )


def _demote(v):
    """Collapse integral Fractions to int so exact paths stay fast."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _apply_linear(matrix, values):
    out = []
    for row in matrix:
        acc = 0
        for c, v in zip(row, values):
            if c:
                acc = acc + c * v
        out.append(_demote(acc))
    return tuple(out)


def generators_from_pi(pv: PiVector) -> GeneratorVector:
    """Apply the linear change of basis pi -> (K, L, H2, Xi; U, V)."""
    return GeneratorVector.from_flat(_apply_linear(GEN_FROM_PI_MATRIX, pv.pi))


def pi_from_generators(g: GeneratorVector) -> PiVector:
    """Apply the inverse change of basis (K, L, H2, Xi; U, V) -> pi."""
    return PiVector(_apply_linear(PI_FROM_GEN_MATRIX, g.flat))


def reduce(g: GeneratorVector) -> ReducedPoint:
    """Project to the doubly reduced coordinates xi = (K+L)/2, eta = (K-L)/2."""
    xi = tuple(_demote(_half(k + l)) for k, l in zip(g.K, g.L))
    eta = tuple(_demote(_half(k - l)) for k, l in zip(g.K, g.L))
    return ReducedPoint(xi=xi, eta=eta, H2=g.H2, Xi=g.Xi)


def _half(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v) / 2
    return v / 2
