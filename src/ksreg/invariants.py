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
_ZERO = Fraction(0)

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

#: The one slack of every float membership test: the (H2, Xi) = (1, 0)
#: level, the orbit space, the wedge, the collision set and the spheres.
TOL = 1e-9


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

#: The Hessians of the generators have the Gram matrix GENERATOR_GRAM times I.
GENERATOR_GRAM = 8


def _hessian_square_norm(monomials) -> int:
    """<A, A> for the Hessian A of sum c z_i z_j: 4c^2 per square, 2c^2 per cross term."""
    return sum((4 if i == j else 2) * c * c for c, i, j in monomials)


#: 16x16 exact matrices for the two directions of the linear change of basis.
#: The pi Hessians have disjoint supports, so their Gram matrix is a diagonal
#: D; with M = GEN_FROM_PI_MATRIX, M D M^T = 8 I, and the inverse is D M^T / 8.
GEN_FROM_PI_MATRIX = tuple(
    tuple(Fraction(GEN_FROM_PI_TABLE[g].get(p, 0)) for p in PI_NAMES) for g in GENERATOR_NAMES
)
PI_FROM_GEN_MATRIX = tuple(
    tuple(m * _hessian_square_norm(monomials) / GENERATOR_GRAM for m in column)
    for monomials, column in zip(PI_MONOMIALS, zip(*GEN_FROM_PI_MATRIX))
)


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


def int_quotient(n: int, d: int) -> Fraction:
    """n / d as a Fraction for ints n and d > 0; a zero n is one shared Fraction(0), no gcd."""
    return Fraction(n, d) if n else _ZERO


def divide(v, d: int):
    """v / d, exact on int and Fraction numbers and on integer arrays.

    An int gives a Fraction, also for d = 1.  An object array is divided
    entry by entry by the same rule, so Python-int entries give Fractions.
    Raises ValueError when an integer array is not divisible by d.
    """
    if isinstance(v, np.ndarray) and v.dtype == object:
        return np.frompyfunc(lambda x: divide(x, d), 1, 1)(v)
    if isinstance(v, (int, np.integer)):
        return int_quotient(v, d)
    if d == 1:
        return v
    if isinstance(v, np.ndarray) and v.dtype.kind in "iu":
        if np.any(v % d):
            raise ValueError(f"integer batch is not divisible by {d}: use even entries "
                             "so that half-integer coefficients stay exact")
        return v // d
    return v / d


def exact_ints(A, bound: int) -> np.ndarray:
    """A as an array, turned to Python ints if an integer entry exceeds +-bound.

    numpy integers wrap silently.  A batch body that multiplies passes the
    largest entry for which its int64 partial sums stay below 2^63; past it
    the same body runs on Python ints, which divide keeps exact.
    """
    A = np.asarray(A)
    if A.dtype.kind in "iu" and A.size and (A.max() > bound or A.min() < -bound):
        return A.astype(object)
    return A


def common_denominator(values) -> tuple | None:
    """(D, ints): the lcm D of a sequence's denominators and each value times D.

    None unless every value is a Fraction.  A polynomial that is
    homogeneous of degree k, run on the ints, equals D^k times its value
    at the Fractions, so an exact path divides each output once at the end.
    """
    dens = []
    for v in values:
        if not isinstance(v, Fraction):
            return None
        dens.append(v.denominator)
    den = math.lcm(*dens)
    return den, tuple(v.numerator * (den // b) for v, b in zip(values, dens))


def point8(z) -> tuple:
    """A phase point (q1..q4, p1..p4) as an 8-tuple of its entries.

    int and numpy integer entries become Fractions, so every exact
    result is a Fraction.  Raises ValueError unless z has exactly 8
    components.
    """
    z = tuple(Fraction(v) if isinstance(v, (int, np.integer)) else v for v in z)
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

    The body behind eval_generators_batch, and behind eval_generators
    for a point that is not all Fractions.
    Fraction columns give Fractions, float columns floats, integer
    arrays, which must be even, integer arrays, and object arrays of
    Python ints or Fractions arrays of Fractions.
    """
    return tuple(divide(eval_monomials(terms, z), d) for d, terms in _GEN_TERMS)


def eval_generators(z: Sequence) -> tuple:
    """Evaluate (K, L, H2, Xi; U, V) at a phase point, in GENERATOR_NAMES order.

    Fractions for a point of ints and Fractions, floats for a float
    point.  Uses the direct (q,p)-monomial form; generators_from_pi(eval_pi(z))
    must agree exactly and the test suite holds the two paths together.
    A point of Fractions runs in ints: its entries times the lcm D of
    their denominators, each generator divided once by d D^2 at the end,
    which gives the Fractions eval_generator_columns gives.  Any other
    point runs eval_generator_columns.
    """
    z = point8(z)
    scaled = common_denominator(z)
    if scaled is None:
        return eval_generator_columns(z)
    den, n = scaled
    return tuple(int_quotient(eval_monomials(terms, n), d * den * den) for d, terms in _GEN_TERMS)


def eval_generators_batch(Z: np.ndarray) -> np.ndarray:
    """Evaluate the generators over an (n, 8) array, returning (n, 16).

    For exact integer input use an even-integer array: the four
    generators with half-integer coefficients then stay integral.  An
    integer array with an entry beyond 2^29 runs in Python ints and gives
    Fractions: each generator sums at most 8 products of two entries with
    coefficient +-1, and 8 * (2^29)^2 = 2^61 stays below the int64 limit.
    """
    return np.stack(eval_generator_columns(exact_ints(Z, 2**29).T), axis=1)


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
        out.append(acc)
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
    xi = tuple(divide(k + l, 2) for k, l in pairs)
    eta = tuple(divide(k - l, 2) for k, l in pairs)
    return xi, eta
