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


def hessian_entries(monomials):
    """(i, j, a_ij) for each nonzero entry of the symmetric A with sum c z_i z_j = z^T A z / 2.

    The one Hessian rule: a term c z_i z_j gives a_ij = a_ji = c off the
    diagonal and a_ii = 2c on it, so grad f = A z.  Each unordered pair
    must appear once, with a nonzero c, as in a canonical list from
    combine_monomials and in PI_MONOMIALS.
    """
    for c, i, j in monomials:
        if i == j:
            yield i, i, 2 * c
        else:
            yield i, j, c
            yield j, i, c


#: 16x16 exact matrices for the two directions of the linear change of basis.
#: The pi Hessians have disjoint supports, so their Gram matrix is a diagonal
#: D; with M = GEN_FROM_PI_MATRIX, M D M^T = 8 I, and the inverse is D M^T / 8.
GEN_FROM_PI_MATRIX = tuple(
    tuple(Fraction(GEN_FROM_PI_TABLE[g].get(p, 0)) for p in PI_NAMES) for g in GENERATOR_NAMES
)
PI_FROM_GEN_MATRIX = tuple(
    tuple(m * sum(a * a for _, _, a in hessian_entries(monomials)) / GENERATOR_GRAM
          for m in column)
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


def compile_monomials(tables) -> tuple:
    """One straight-line function per table, a sequence of monomial lists.

    Function k maps eight columns z (numbers or (n,) arrays) to the tuple
    of the sums of tables[k]'s lists, each written out once, in the
    list's order, as 0, then "- z[i] * z[j]" for a coefficient -1 and
    "+ z[i] * z[j] * c" otherwise ("* c" left out for c = 1).  The leading
    0 keeps a sum's sign of zero fixed, and the result has the arithmetic
    of the columns.  The coefficients must be ints: a Fraction times a
    float array is an object array.  Tables with rational coefficients
    are scaled to integers and divided afterwards, with divide(); for
    floats that halving is exact.  Raises TypeError on another coefficient.
    """
    source = []
    for k, table in enumerate(tables):
        sums, used = [], set()
        for monomials in table:
            expr = "0"
            for c, i, j in monomials:
                if type(c) is not int:
                    raise TypeError(f"monomial coefficient {c!r} is not an int")
                used.update((i, j))
                term = f"z{i} * z{j}"
                expr += f" - {term}" if c == -1 else f" + {term}" if c == 1 else f" + {term} * {c}"
            sums.append(expr)
        loads = "".join(f"    z{i} = z[{i}]\n" for i in sorted(used))
        returns = "".join(f"{e}, " for e in sums)
        source.append(f"def sums{k}(z):\n{loads}    return ({returns})\n")
    namespace = {}
    exec(compile("".join(source), "<compile_monomials>", "exec"), namespace)
    return tuple(namespace[f"sums{k}"] for k in range(len(tables)))


#: The divisors d of _GEN_TERMS, their lcm (2) and the factors lcm / d; and
#: the integer sums of _GEN_TERMS and of PI_MONOMIALS as straight-line
#: functions of eight columns.
_GEN_DIVISORS = tuple(d for d, _ in _GEN_TERMS)
_GEN_LCM = math.lcm(*_GEN_DIVISORS)
_GEN_SCALES = tuple(_GEN_LCM // d for d in _GEN_DIVISORS)
_gen_sums, _pi_sums = compile_monomials((tuple(terms for _, terms in _GEN_TERMS), PI_MONOMIALS))


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
        return int_quotient(int(v), d)
    if d == 1:
        return v
    if isinstance(v, np.ndarray) and v.dtype.kind in "iu":
        if np.any(v % d):
            raise ValueError(f"integer batch is not divisible by {d}: use even entries "
                             "so that half-integer coefficients stay exact")
        return v // d
    return v / d


def as_batch(A, width: int) -> np.ndarray:
    """A as an (n, width) batch: the one shape rule of every batch body.

    An (n, width) array comes back as it is, with no copy, and a lone
    (width,) row as the one-row batch, a view.  Raises ValueError naming
    the expected and the given shape for any other shape: another width,
    a 0-d array, three or more dimensions.
    """
    A = np.asarray(A)
    rows = A[None] if A.ndim == 1 else A
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"a batch is (n, {width}) or one ({width},) row, got shape {A.shape}")
    return rows


def exact_columns(A, width: int, bound: int) -> tuple:
    """The columns of a batch A of the given width, in an integer type that cannot wrap.

    A is read by as_batch.  A float or object batch passes through.  numpy
    integers wrap in their own width, so an integer batch of any dtype runs
    in int64 within +-bound, the body's largest entry with int64 sums below
    2^63, else in Python ints.
    """
    A = as_batch(A, width)
    if A.dtype.kind in "iu":
        inside = not A.size or -bound <= int(A.min()) and int(A.max()) <= bound
        A = A.astype(np.int64 if inside else object, copy=False)
    return tuple(A.T)


class _ExactGenerators(tuple):
    """eval_generators' tuple g for a point of Fractions, carrying integer_form =
    (D, D g) for common_denominator; tuple(g), g[:] and list(g) are plain."""


def common_denominator(values) -> tuple | None:
    """(D, ints): a common denominator D of a sequence's values and each value times D.

    None unless every value is a Fraction.  D is the lcm of the
    denominators, except for a tuple that eval_generators returned for a
    point of Fractions: it carries its integer form, which is returned
    as it is.  A polynomial that is homogeneous of degree k, run on the
    ints, equals D^k times its value at the Fractions, so an exact path
    divides each output once at the end; a normalized Fraction does not
    depend on which common denominator it came from.
    """
    if type(values) is _ExactGenerators:
        return values.integer_form
    dens = []
    for v in values:
        if not isinstance(v, Fraction):
            return None
        dens.append(v.denominator)
    den = math.lcm(*dens)
    return den, tuple(v.numerator * (den // b) for v, b in zip(values, dens))


def point8(z) -> tuple:
    """A phase point (q1..q4, p1..p4) as an 8-tuple of its entries.

    int and numpy integer entries become Fractions of Python ints, so
    every exact result is a Fraction and no int64 part can wrap.  Raises
    ValueError unless z has exactly 8 components.
    """
    z = tuple(Fraction(int(v)) if isinstance(v, (int, np.integer)) else v for v in z)
    if len(z) != 8:
        raise ValueError(f"a phase point has 8 components (q, p), got {len(z)}")
    return z


def eval_pi(z: Sequence) -> tuple:
    """Evaluate the 16 basic invariants pi1..pi16 at a phase point.

    Works for float and Fraction entries alike; the result entries have
    the arithmetic type of the inputs.
    """
    return _pi_sums(point8(z))


def eval_pi_batch(Z: np.ndarray) -> np.ndarray:
    """Evaluate the invariants over an (n, 8) array or one (8,) row, returning (n, 16).

    Each pi sums 2 products with coefficient +-1: 2 * (2^30)^2 = 2^61 keeps
    int64 exact up to entries of 2^30, where 2^31 would reach 2^63.
    """
    return np.stack(_pi_sums(exact_columns(Z, 8, 2**30)), axis=1)


def eval_generator_columns(z) -> tuple:
    """The generators at eight columns (numbers or (n,) arrays).

    The body behind eval_generators_batch, and behind eval_generators
    for a point that is not all Fractions.
    Fraction columns give Fractions, float columns floats, integer
    arrays, which must be even, integer arrays, and object arrays of
    Python ints or Fractions arrays of Fractions.
    """
    return tuple(divide(s, d) for s, d in zip(_gen_sums(z), _GEN_DIVISORS))


def eval_generators(z: Sequence) -> tuple:
    """Evaluate (K, L, H2, Xi; U, V) at a phase point, in GENERATOR_NAMES order.

    Fractions for a point of ints and Fractions, floats for a float
    point.  Uses the direct (q,p)-monomial form; generators_from_pi(eval_pi(z))
    must agree exactly and the test suite holds the two paths together.
    A point of Fractions runs in ints: its entries times the lcm D of
    their denominators, each generator's sum divided once by d D^2 at the
    end, which gives the Fractions eval_generator_columns gives.  The
    result carries the same sums as its integer form over 2 D^2, which
    common_denominator hands to the relations and identities run on
    it.  Any other point runs eval_generator_columns.
    """
    z = point8(z)
    scaled = common_denominator(z)
    if scaled is None:
        return eval_generator_columns(z)
    den, n = scaled
    d2 = den * den
    sums = _gen_sums(n)
    g = _ExactGenerators([int_quotient(s, d * d2) for s, d in zip(sums, _GEN_DIVISORS)])
    g.integer_form = _GEN_LCM * d2, tuple(s * m for s, m in zip(sums, _GEN_SCALES))
    return g


def eval_generators_batch(Z: np.ndarray) -> np.ndarray:
    """Evaluate the generators over an (n, 8) array or one (8,) row, returning (n, 16).

    For exact integer input use an even-integer array: the four
    generators with half-integer coefficients then stay integral.  An
    integer array with an entry beyond 2^29 runs in Python ints and gives
    Fractions: each generator sums at most 8 products of two entries with
    coefficient +-1, and 8 * (2^29)^2 = 2^61 stays below the int64 limit.
    """
    return np.stack(eval_generator_columns(exact_columns(Z, 8, 2**29)), axis=1)


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
