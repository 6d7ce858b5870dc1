"""Quadratic invariants of the circle action on phase space R^8.

Sixteen basic invariants pi_1..pi_16 and the generator set
(K, L, H2, Xi; U, V) related to them by an invertible linear map.
Every evaluator here is generated from a single monomial table, so the
scalar (exact rational) and batched (float or integer numpy) paths
cannot drift apart.
"""
from __future__ import annotations

import math
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

#: Positions in a generator 16-vector g, or its columns G[:, i]: the
#: blocks g[K], g[L], g[U], g[V] and the single entries g[H2], g[XI].
K, L, U, V = slice(0, 3), slice(3, 6), slice(8, 12), slice(12, 16)
H2, XI, U1, V1 = 6, 7, 8, 12


def grad_p_xi(z: np.ndarray) -> np.ndarray:
    """(-q2, q1, -q4, q3): the gradient in p of the circle momentum Xi.

    z is one point (8,) or rows (n, 8); Xi = <grad_p_xi(z), p>.
    """
    q = z[..., :4]
    return np.stack([-q[..., 1], q[..., 0], -q[..., 3], q[..., 2]], axis=-1)


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
    """Expand a {key: coeff} combination of the monomial lists table[key].

    The result is canonical: (c, i, j) with i <= j, sorted by (i, j), one
    term per pair and no zero coefficient, so equal combinations give
    equal tuples.  table is any mapping or sequence indexed by the keys.
    """
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


def _integer_terms(monomials) -> tuple:
    """(d, terms): d times the monomial list, as integer (coeff, i, j) terms."""
    d = math.lcm(*(Fraction(c).denominator for c, _, _ in monomials))
    return d, tuple((int(c * d), i, j) for c, i, j in monomials)


#: GEN_MONOMIALS in GENERATOR_NAMES order, scaled to integer coefficients:
#: generator = (integer terms) / d, with d = 2 for K3, H2, U4 and V1.
_GEN_TERMS = tuple(_integer_terms(GEN_MONOMIALS[name]) for name in GENERATOR_NAMES)


def eval_monomials(monomials, z: Sequence) -> object:
    """Evaluate an integer-coefficient monomial list at eight columns z.

    A column is one number (int, Fraction or float) or an (n,) array,
    and the result has the arithmetic of the columns.  The coefficients
    must be integers: a Fraction times a float array is an object array.
    Tables with rational coefficients are scaled to integers and divided
    afterwards, with divide(); for floats that halving is exact.
    """
    total = 0
    for c, i, j in monomials:
        term = z[i] * z[j]
        if c == 1:
            total = total + term
        elif c == -1:
            total = total - term
        else:
            total = total + term * c
    return total


def divide(v, d: int):
    """v / d, exact on int and Fraction numbers and on integer arrays.

    Raises ValueError when an integer array is not divisible by d.
    """
    if d == 1:
        return v
    if isinstance(v, np.ndarray) and v.dtype.kind in "iu":
        if np.any(v % d):
            raise ValueError(f"integer batch is not divisible by {d}: use even entries "
                             "so that half-integer coefficients stay exact")
        return v // d
    if isinstance(v, Fraction):
        return v / d
    if isinstance(v, (int, np.integer)):
        return Fraction(v, d)
    return v / d


def point8(z) -> tuple:
    """A phase point (q1..q4, p1..p4) as an 8-tuple of its entries.

    Raises ValueError unless z has exactly 8 components.
    """
    z = tuple(z)
    if len(z) != 8:
        raise ValueError(f"a phase point has 8 components (q, p), got {len(z)}")
    return z


def _pi_columns(z) -> tuple:
    return tuple(eval_monomials(m, z) for m in PI_MONOMIALS)


def eval_pi(z: Sequence) -> tuple:
    """Evaluate the 16 basic invariants pi1..pi16 at a phase point.

    Works for float and Fraction entries alike; the result entries have
    the arithmetic type of the inputs.
    """
    return _pi_columns(point8(z))


def eval_pi_batch(Z: np.ndarray) -> np.ndarray:
    """Evaluate the invariants over an (n, 8) array, returning (n, 16)."""
    return np.stack(_pi_columns(np.asarray(Z).T), axis=1)


def eval_generator_columns(z) -> tuple:
    """The generators at eight columns (numbers or (n,) arrays).

    The one body behind eval_generators and eval_generators_batch;
    integral Fractions come back as int, integer arrays must be even.
    """
    return tuple(_demote(divide(eval_monomials(terms, z), d)) for d, terms in _GEN_TERMS)


def eval_generators(z: Sequence) -> tuple:
    """Evaluate (K, L, H2, Xi; U, V) at a phase point, in GENERATOR_NAMES order.

    Uses the direct (q,p)-monomial form; generators_from_pi(eval_pi(z))
    must agree exactly and the test suite holds the two paths together.
    """
    return eval_generator_columns(point8(z))


def eval_generators_batch(Z: np.ndarray) -> np.ndarray:
    """Evaluate the generators over an (n, 8) array, returning (n, 16).

    For exact integer input use an even-integer array: the four
    generators with half-integer coefficients then stay integral.
    """
    return np.stack(eval_generator_columns(np.asarray(Z).T), axis=1)


def _demote(v):
    """Collapse integral Fractions to int so exact paths stay fast."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _apply_linear(matrix, values) -> tuple:
    values = tuple(values)
    if len(values) != 16:
        raise ValueError(f"expected 16 components, got {len(values)}")
    out = []
    for row in matrix:
        acc = 0
        for c, v in zip(row, values):
            if c:
                acc = acc + c * v
        out.append(_demote(acc))
    return tuple(out)


def generators_from_pi(pi: Sequence) -> tuple:
    """Apply the linear change of basis pi -> (K, L, H2, Xi; U, V)."""
    return _apply_linear(GEN_FROM_PI_MATRIX, pi)


def pi_from_generators(g: Sequence) -> tuple:
    """Apply the inverse change of basis (K, L, H2, Xi; U, V) -> pi."""
    return _apply_linear(PI_FROM_GEN_MATRIX, g)


def reduce(g: Sequence) -> tuple:
    """The doubly reduced coordinates (xi, eta) = ((K+L)/2, (K-L)/2)."""
    pairs = tuple(zip(g[K], g[L]))
    xi = tuple(_demote(divide(k + l, 2)) for k, l in pairs)
    eta = tuple(_demote(divide(k - l, 2)) for k, l in pairs)
    return xi, eta
