"""Invariant evaluation and the generator change of basis.

Oracles: hand-expanded polynomial forms of all 16 generators, frozen
here independently of the tables in the package, plus an exact matrix
inverse computed in-test by Fraction Gaussian elimination.
"""
import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksreg import invariants, ks_map
from ksreg.flows import collision_triple_batch
from ksreg.ks_map import KS_MONOMIALS, ks
from ksreg.orbit_space import lagrange_identity_batch, relation_residuals_batch
from ksreg.sampling import sample_fractions, sample_level_set
from ksreg.invariants import (
    GEN_FROM_PI_MATRIX,
    GENERATOR_NAMES,
    H2,
    K,
    L,
    PI_FROM_GEN_MATRIX,
    PI_MONOMIALS,
    U,
    U1,
    V,
    V1,
    XI,
    common_denominator,
    compile_monomials,
    eval_generator_columns,
    eval_generators,
    eval_generators_batch,
    eval_pi,
    eval_pi_batch,
    generators_from_pi,
    pi_from_generators,
    point8,
    reduce,
)

# Hand-expanded generator polynomials in (q1..q4, p1..p4).  These were
# written out longhand, not generated from the package tables.
def _oracle_generators(q1, q2, q3, q4, p1, p2, p3, p4):
    return {
        "K1": -(q1 * q3 + q2 * q4 + p1 * p3 + p2 * p4),
        "K2": -(q1 * q4 - q2 * q3 + p1 * p4 - p2 * p3),
        "K3": Fraction(1, 2)
        * (q3 ** 2 + q4 ** 2 + p3 ** 2 + p4 ** 2 - q1 ** 2 - q2 ** 2 - p1 ** 2 - p2 ** 2),
        "L1": q4 * p1 - q3 * p2 + q2 * p3 - q1 * p4,
        "L2": q1 * p3 + q2 * p4 - q3 * p1 - q4 * p2,
        "L3": q3 * p4 - q4 * p3 + q2 * p1 - q1 * p2,
        "H2": Fraction(1, 2)
        * (q1 ** 2 + q2 ** 2 + q3 ** 2 + q4 ** 2 + p1 ** 2 + p2 ** 2 + p3 ** 2 + p4 ** 2),
        "Xi": q1 * p2 - q2 * p1 + q3 * p4 - q4 * p3,
        "U1": -(q1 * p1 + q2 * p2 + q3 * p3 + q4 * p4),
        "U2": q1 * q3 + q2 * q4 - p1 * p3 - p2 * p4,
        "U3": q1 * q4 - q2 * q3 - p1 * p4 + p2 * p3,
        "U4": Fraction(1, 2)
        * (q1 ** 2 + q2 ** 2 - q3 ** 2 - q4 ** 2 - p1 ** 2 - p2 ** 2 + p3 ** 2 + p4 ** 2),
        "V1": Fraction(1, 2)
        * (q1 ** 2 + q2 ** 2 + q3 ** 2 + q4 ** 2 - p1 ** 2 - p2 ** 2 - p3 ** 2 - p4 ** 2),
        "V2": q1 * p3 + q2 * p4 + q3 * p1 + q4 * p2,
        "V3": q1 * p4 - q2 * p3 + q4 * p1 - q3 * p2,
        "V4": q1 * p1 + q2 * p2 - q3 * p3 - q4 * p4,
    }


def _invert_exact(matrix):
    """Invert a square Fraction matrix by Gaussian elimination."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = Fraction(1) / aug[col][col]
        aug[col] = [v * inv_p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


fraction_st = st.fractions(min_value=-8, max_value=8, max_denominator=16)
point_st = st.tuples(*([fraction_st] * 8))

#: common_denominator on tuples that are not a generator result: the lcm form.
LCM_CASES = [
    ((Fraction(0),) * 16, (1, (0,) * 16)),
    ((Fraction(-1, 4), Fraction(5, 6), Fraction(-3)), (12, (-3, 10, -36))),
    ((Fraction(1, 2), 0.5), None),
    ((Fraction(1, 2), 1), None),
]


def eval_monomials(monomials, z):
    """The loop the compiled sums replace: the reference for their operation order."""
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


def _same_number(a, b) -> bool:
    """The same type and value; for floats the same bits, the sign of 0.0 included.

    A NaN only has to be a NaN: when both operands of a float addition
    are NaNs, which one CPython returns depends on the interpreter's code
    path for that addition, so not even one body fixes the sign of a NaN.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return float.hex(a) == float.hex(b) and (
            math.isnan(a) or math.copysign(1, a) == math.copysign(1, b))
    return a == b and (not isinstance(a, Fraction) or
                       (type(a.numerator), type(a.denominator)) == (int, int))


def _same_column(a, b) -> bool:
    """The same dtype and entries; float columns as _same_number compares floats."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == object:
        return all(_same_number(x, y) for x, y in zip(a, b))
    if a.dtype.kind != "f":
        return np.array_equal(a, b)
    nan = np.isnan(a)
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


#: Each compiled table with the monomial lists it was compiled from.
COMPILED_TABLES = {
    "generators": (invariants._gen_sums, tuple(terms for _, terms in invariants._GEN_TERMS)),
    "pi": (invariants._pi_sums, PI_MONOMIALS),
    "ks": (ks_map._ks_sums, KS_MONOMIALS),
}

float_entry_st = st.floats(allow_nan=True, allow_infinity=True)
number_st = st.one_of(st.integers(-2**70, 2**70), fraction_st, float_entry_st)


class TestGeneratorValues:
    def test_circular_seed_point(self):
        """q=(1,0,0,0), p=(0,1,0,0) maps to the known generator vector."""
        g = eval_generators((1, 0, 0, 0, 0, 1, 0, 0))
        assert g[H2] == 1
        assert g[XI] == 1
        assert g[K] == (0, 0, -1)
        assert g[L] == (0, 0, -1)
        assert g[U] == (0, 0, 0, 0)
        assert g[V] == (0, 0, 0, 0)

    @given(point_st)
    @settings(max_examples=120, deadline=None)
    def test_matches_hand_expansion(self, z):
        """Table-driven evaluation agrees exactly with the longhand forms."""
        oracle = _oracle_generators(*z)
        g = eval_generators(z)
        for name, value in zip(GENERATOR_NAMES, g, strict=True):
            assert value == oracle[name], name

    @given(point_st)
    @settings(max_examples=100, deadline=None)
    def test_two_evaluation_paths_agree(self, z):
        """Direct monomials and the pi-then-linear-map route coincide."""
        direct = eval_generators(z)
        via_pi = generators_from_pi(eval_pi(z))
        assert direct == via_pi

    @given(point_st)
    @example((1, -2, 0, 3, 4, -5, 6, 7))
    @example((Fraction(1, 3), 0, Fraction(-2, 5), Fraction(7, 4), Fraction(1, 6),
              Fraction(-3, 8), Fraction(5, 2), Fraction(-1, 9)))
    @example((Fraction(1, 3), Fraction(4), Fraction(-2, 5), Fraction(7, 4), Fraction(1, 6),
              Fraction(-3, 8), Fraction(5, 2), Fraction(-1, 9)))
    @settings(max_examples=100, deadline=None)
    def test_common_denominator_path_is_the_column_body(self, z):
        """A Fraction point runs in ints over one denominator, with the same Fractions."""
        g = eval_generators(z)
        assert g == eval_generator_columns(point8(z))
        assert all(type(v) is Fraction for v in g)

    @pytest.mark.parametrize("values, expected", LCM_CASES)
    def test_common_denominator(self, values, expected):
        assert common_denominator(values) == expected

    @pytest.mark.parametrize("values, expected", LCM_CASES)
    def test_lcm_cases_hold_on_fresh_tuples_after_a_generator_evaluation(self, values, expected):
        g = eval_generators((Fraction(1, 3), 0, Fraction(-2, 5), 1, Fraction(1, 6), 2, 0, 1))
        assert common_denominator(g) is g.integer_form
        assert common_denominator(tuple(list(values))) == expected

    @given(point_st)
    @example((1, -2, 0, 3, 4, -5, 6, 7))
    @example((0,) * 8)
    @example((Fraction(1, 3), 0, Fraction(-2, 5), Fraction(7, 4), Fraction(1, 6),
              Fraction(-3, 8), Fraction(5, 2), Fraction(-1, 9)))
    @example((Fraction(1, 2**32 + 15),) * 8)
    @settings(max_examples=100, deadline=None)
    def test_a_fraction_points_generators_keep_their_integer_form(self, z):
        """common_denominator hands back the ints g carries: D g, over a D of its own."""
        g = eval_generators(z)
        den, ints = common_denominator(g)
        assert (den, ints) == g.integer_form and ints is g.integer_form[1]
        assert all(type(n) is int and n == v * den for n, v in zip(ints, g, strict=True))
        assert den % math.lcm(*(v.denominator for v in g)) == 0
        # Evaluating another point leaves g's form alone.
        eval_generators((Fraction(1, 7),) * 8)
        assert common_denominator(g) == (den, ints)
        # A plain tuple of the same values, a slice or a list gets the lcm form.
        lcm = math.lcm(*(v.denominator for v in g))
        lcm_form = (lcm, tuple(v.numerator * (lcm // v.denominator) for v in g))
        for plain in (tuple(g), g[:], list(g), tuple(list(g))):
            assert type(plain) in (tuple, list)
            assert plain == list(g) if type(plain) is list else plain == g
            assert common_denominator(plain) == lcm_form
        assert repr(g) == repr(tuple(g)) and hash(g) == hash(tuple(g))

    @pytest.mark.parametrize("z", [
        (1, -2, 0, 3, 4, -5, 6, 7),
        (Fraction(1, 3), 0, Fraction(-2, 5), Fraction(7, 4), Fraction(1, 6),
         Fraction(-3, 8), Fraction(5, 2), Fraction(-1, 9)),
    ])
    def test_copy_and_pickle_keep_a_consistent_integer_form(self, z):
        g = eval_generators(z)
        for clone in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert type(clone) is type(g) and clone == g
            den, ints = common_denominator(clone)
            assert (den, ints) == g.integer_form
            assert all(n == v * den for n, v in zip(ints, clone, strict=True))

    @pytest.mark.parametrize("z", [
        (0.5, 1.0, -2.0, 0.0, 3.0, 0.25, -1.0, 2.0),
        (Fraction(1, 3), 0, Fraction(-2, 5), 1, 0.5, Fraction(7, 4), 0, 2),
    ], ids=["float", "mixed"])
    def test_float_and_mixed_points_carry_no_integer_form(self, z):
        g = eval_generators(z)
        assert type(g) is tuple
        assert common_denominator(g) is None

    def test_one_float_entry_gives_floats(self):
        z = (Fraction(1, 3), 0, Fraction(-2, 5), 1, 0.5, Fraction(7, 4), 0, 2)
        g = eval_generators(z)
        assert all(type(v) is float for v in g)
        assert g == eval_generator_columns(point8(z))


class TestCompiledSums:
    """Each table's straight-line function is the monomial loop, bit for bit."""

    @pytest.mark.parametrize("table", COMPILED_TABLES)
    @given(z=st.tuples(*([number_st] * 8)))
    @example(z=(0.0, -0.0, 1.0, -0.0, -1.0, 0.0, -0.0, 2.5))
    @example(z=(-0.0,) * 8)
    @example(z=(float("inf"), 1.0, -0.0, float("nan"), 0.0, -2.0, float("-inf"), 3.0))
    @example(z=(1, Fraction(-1, 3), 0.5, 0, -0.0, Fraction(7, 2), 2**65, -1.0))
    @settings(max_examples=150, deadline=None)
    def test_scalars_are_the_loop(self, table, z):
        fn, lists = COMPILED_TABLES[table]
        got = fn(z)
        assert type(got) is tuple and len(got) == len(lists)
        for value, monomials in zip(got, lists, strict=True):
            assert _same_number(value, eval_monomials(monomials, z)), (value, monomials)

    @pytest.mark.parametrize("table", COMPILED_TABLES)
    @pytest.mark.parametrize("kind", ["float64", "int64", "object"])
    def test_columns_are_the_loop(self, table, kind):
        rng = np.random.default_rng(29)
        if kind == "float64":
            Z = rng.standard_normal((40, 8))
            Z[:8] = 0.0
            Z[1, ::2] = -0.0
            Z[2, 3], Z[3, 0], Z[4, 5], Z[5, :4] = np.inf, -np.inf, np.nan, -0.0
        elif kind == "int64":
            Z = rng.integers(-2**29, 2**29, size=(40, 8))
        else:
            Z = np.array([[int(v) * 2**40 for v in row]
                          for row in rng.integers(-50, 50, size=(40, 8))], dtype=object)
        fn, lists = COMPILED_TABLES[table]
        with np.errstate(invalid="ignore"):
            got = fn(Z.T)
            want = [eval_monomials(m, Z.T) for m in lists]
        assert len(got) == len(want)
        for col, ref in zip(got, want):
            assert col.dtype == np.dtype(kind)
            assert _same_column(col, ref)

    @pytest.mark.parametrize("coeff", [Fraction(1), 1.0, np.int64(1), True])
    def test_a_coefficient_that_is_not_an_int_raises(self, coeff):
        with pytest.raises(TypeError, match="not an int"):
            compile_monomials(((((1, 0, 0), (coeff, 1, 2)),),))

    def test_empty_lists_and_tables(self):
        assert compile_monomials(((), ((),)))[1]((1.5,) * 8) == (0,)
        assert compile_monomials(((),))[0]((1,) * 8) == ()
        (fn,) = compile_monomials((([(-1, 0, 1), (3, 1, 1), (-2, 0, 0)],),))
        assert fn((-0.0, 2.0)) == (0 - (-0.0 * 2.0) + 2.0 * 2.0 * 3 + -0.0 * -0.0 * -2,)


class TestChangeOfBasis:
    def test_matrices_are_exact_inverses(self):
        """The two coefficient tables invert each other, entry by entry."""
        computed = _invert_exact(GEN_FROM_PI_MATRIX)
        assert computed == PI_FROM_GEN_MATRIX

    @given(point_st)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_is_identity(self, z):
        pv = eval_pi(z)
        back = pi_from_generators(generators_from_pi(pv))
        assert back == pv

    def test_pi11_entry(self):
        """pi11 reconstructs as -(U3 + K2)/2, pinned by exact inversion."""
        g = [0] * 16
        g[GENERATOR_NAMES.index("K2")] = Fraction(3)
        g[GENERATOR_NAMES.index("U3")] = Fraction(5)
        pv = pi_from_generators(g)
        assert pv[10] == Fraction(-4)  # pi11 = -(5 + 3)/2


class TestBatchEvaluation:
    def test_float_batch_matches_scalar(self):
        rng = np.random.default_rng(7)
        Z = rng.standard_normal((40, 8))
        batch = eval_generators_batch(Z)
        for row, zrow in zip(batch, Z):
            scalar = np.array(eval_generators(tuple(zrow)), dtype=float)
            assert np.allclose(row, scalar, rtol=0, atol=1e-12)
        # Fraction rows: the scalar wrapper stays exact, an object array of
        # the same Fractions gives the same values entry by entry, and the
        # float batch agrees to rounding.
        F = sample_fractions(rng, 30)
        exact = np.array(F, dtype=object)
        by_objects = eval_generators_batch(exact)
        by_floats = eval_generators_batch(exact.astype(float))
        for z, row, frow in zip(F, by_objects, by_floats):
            scalar = eval_generators(z)
            assert all(type(v) in (int, Fraction) for v in scalar)
            assert tuple(row) == scalar
            assert np.allclose(frow, np.array(scalar, dtype=float), rtol=0, atol=1e-12)

    def test_even_integer_batch_is_exact(self):
        rng = np.random.default_rng(11)
        Z = 2 * rng.integers(-40, 41, size=(60, 8), dtype=np.int64)
        batch = eval_generators_batch(Z)
        assert batch.dtype == np.int64
        for row, zrow in zip(batch, Z):
            exact = eval_generators(tuple(int(v) for v in zrow))
            assert tuple(int(v) for v in row) == exact

    def test_integer_batch_past_the_bound_does_not_wrap(self):
        """q1 = 2^32 squares to 2^64, which int64 wraps to 0; the batch runs in Python ints."""
        Z = np.zeros((1, 8), np.int64)
        Z[0, 0] = 2**32
        batch = eval_generators_batch(Z)
        assert batch[0, H2] == 2**63
        assert batch.tolist() == [list(eval_generators(Z[0].tolist()))]

    def test_python_int_batch_gives_fractions(self):
        """An object array of Python ints stays exact, as a Python-int point does."""
        Z = np.array([[2, 4, 6, 8, 10, 12, 14, 16], [1, 0, -3, 5, 0, 7, 2, -1]], dtype=object)
        batch = eval_generators_batch(Z)
        assert all(type(v) is Fraction for v in batch.ravel())
        assert batch.tolist() == [list(eval_generators(row)) for row in Z]

    def test_non_integral_integer_batch_is_rejected(self):
        # H2 = 1/2 here, which has no exact int64 representation.
        Z = np.array([[1, 0, 0, 0, 0, 0, 0, 0]], dtype=np.int64)
        with pytest.raises(ValueError):
            eval_generators_batch(Z)

    def test_pi_batch_matches_scalar(self):
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((25, 8))
        batch = eval_pi_batch(Z)
        for row, zrow in zip(batch, Z):
            scalar = eval_pi(tuple(zrow))
            assert np.allclose(row, np.array(scalar, dtype=float), atol=1e-12)


#: The four exact batch bodies: (body, columns, int64 bound, entry step).
#: The generators take even entries, so their half-integer sums stay integral.
EXACT_BODIES = {
    "eval_pi_batch": (eval_pi_batch, 8, 2**30, 1),
    "eval_generators_batch": (eval_generators_batch, 8, 2**29, 2),
    "relation_residuals_batch": (relation_residuals_batch, 16, 2**29, 1),
    "lagrange_identity_batch": (lagrange_identity_batch, 16, 2**14, 1),
}


def _outputs(result) -> list:
    """The arrays a batch body returns, from its arrays, tuples and dicts, in order."""
    if isinstance(result, dict):
        return [a for key in sorted(result) for a in _outputs(result[key])]
    if isinstance(result, tuple):
        return [a for part in result for a in _outputs(part)]
    return [result]


def _same_outputs(a, b) -> bool:
    """Equal values and equal dtypes, output by output."""
    a, b = _outputs(a), _outputs(b)
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.tolist() == y.tolist() for x, y in zip(a, b))


#: Every batch body of the package with the width of its rows: (n, 8) phase
#: points or (n, 16) generator vectors.
BATCH_BODIES = {
    "eval_pi_batch": (eval_pi_batch, 8),
    "eval_generators_batch": (eval_generators_batch, 8),
    "relation_residuals_batch": (relation_residuals_batch, 16),
    "lagrange_identity_batch": (lagrange_identity_batch, 16),
    "ks_batch": (ks_map.ks_batch, 8),
    "ks_jacobian_batch": (ks_map.ks_jacobian_batch, 8),
    "poisson_residual_batch": (ks_map.poisson_residual_batch, 8),
    "pullback_gaps_batch": (ks_map.pullback_gaps_batch, 8),
    "ks_from_generators_batch": (ks_map.ks_from_generators_batch, 16),
    "collision_triple_batch": (collision_triple_batch, 8),
}


def _level_rows(width):
    """Two rows on the (1, 0) level set, as phase points or as their generators."""
    Z = sample_level_set(np.random.default_rng(0), 2)
    return Z if width == 8 else eval_generators_batch(Z)


class TestShapeRule:
    """One shape rule, invariants.as_batch, for every batch body: an (n, k)
    array, or one (k,) row read as the one-row batch; any other shape is a
    ValueError that names the expected and the given shape."""

    @pytest.mark.parametrize("name", BATCH_BODIES)
    def test_a_lone_row_is_the_one_row_batch(self, name):
        body, width = BATCH_BODIES[name]
        row = _level_rows(width)[0]
        lone = body(row)
        assert all(a.shape[0] == 1 for a in _outputs(lone))
        assert _same_outputs(lone, body(row[None]))

    @pytest.mark.parametrize("name", BATCH_BODIES)
    @pytest.mark.parametrize("malformed", ["narrow", "wide", "scalar", "stacked"])
    def test_any_other_shape_is_a_value_error(self, name, malformed):
        body, width = BATCH_BODIES[name]
        rows = _level_rows(width)
        bad = {
            "narrow": rows[:, :-1],
            "wide": np.hstack([rows, rows[:, :1]]),
            "scalar": rows[0, 0],
            "stacked": np.stack([rows, rows]),
        }[malformed]
        with pytest.raises(ValueError) as raised:
            body(bad)
        assert f"(n, {width})" in str(raised.value)
        assert f"got shape {np.shape(bad)}" in str(raised.value)


class TestIntegerWidths:
    # numpy integers wrap in their own width, and an identity that holds in
    # the integers also holds mod 2^k, so a narrow batch must run as int64.
    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "uint8", "uint16",
                                       "uint32", "uint64"])
    @pytest.mark.parametrize("name", EXACT_BODIES)
    def test_every_width_gives_the_int64_run(self, name, dtype):
        """Entries whose products overflow the width run in int64; past the bound, Python ints."""
        body, width, bound, step = EXACT_BODIES[name]
        info = np.iinfo(dtype)
        lo, hi = max(info.min, -bound) // step, min(info.max, bound) // step
        Z = step * np.random.default_rng(0).integers(lo, hi + 1, size=(50, width))
        batches = [Z]
        if info.max > bound:
            beyond = Z.copy()
            beyond[0, 0] = min(info.max, 2**40) // step * step
            batches.append(beyond)
        for A in batches:
            expected = body(A)
            wanted = np.dtype(np.int64 if A is Z else object)
            assert {a.dtype for a in _outputs(expected)} == {wanted}
            assert _same_outputs(body(A.astype(dtype)), expected)

    @pytest.mark.parametrize("name", EXACT_BODIES)
    def test_uint64_past_int64_runs_in_python_ints(self, name):
        body, width, _, step = EXACT_BODIES[name]
        A = np.zeros((2, width), np.uint64)
        A[0, 0] = 2**63 + step
        A[1, 1] = step
        assert _same_outputs(body(A), body(A.astype(object)))

    @pytest.mark.parametrize("dtype", [np.int64, float])
    def test_int64_and_float_batches_are_not_copied(self, dtype):
        A = np.arange(16, dtype=dtype).reshape(2, 8)
        assert invariants.as_batch(A, 8) is A
        for batch in (A, A[0]):
            columns = invariants.exact_columns(batch, 8, 2**29)
            assert all(np.shares_memory(column, batch) for column in columns)

    def test_pi_batch_bound(self):
        """2 (2^30)^2 = 2^61 stays int64; at 2^32, pi1 = 2^64 needs Python ints."""
        Z = np.zeros((1, 8), np.int64)
        Z[0, :2] = 2**30
        pi = eval_pi_batch(Z)
        assert pi.dtype == np.int64 and pi[0, 0] == 2**61
        Z = np.zeros((1, 8), np.int64)
        Z[0, 0] = 2**32
        pi = eval_pi_batch(Z)
        assert pi.dtype == object and pi[0, 0] == 2**64
        assert type(pi[0, 0]) is int


class TestReduction:
    @given(point_st)
    @settings(max_examples=60, deadline=None)
    def test_xi_eta_split(self, z):
        """xi + eta recovers K and xi - eta recovers L, exactly."""
        g = eval_generators(z)
        xi, eta = reduce(g)
        for xi_i, eta_i, k_i, l_i in zip(xi, eta, g[K], g[L], strict=True):
            assert xi_i + eta_i == k_i
            assert xi_i - eta_i == l_i

    def test_circular_seed_reduction(self):
        g = eval_generators((1, 0, 0, 0, 0, 1, 0, 0))
        assert reduce(g) == ((0, 0, -1), (0, 0, 0))


class TestDataShapes:
    def test_phase_point_validates_length(self):
        assert point8([1, 0, 0, 0, 0, 0, 1, 0]) == (1, 0, 0, 0, 0, 0, 1, 0)
        for bad in [(1, 0, 0, 0, 0, 0, 0), (0,) * 9]:
            with pytest.raises(ValueError):
                point8(bad)
            with pytest.raises(ValueError):
                eval_generators(bad)

    def test_int_entries_become_fractions(self):
        """Exact values have one type: a later `/` keeps them exact."""
        z = point8([1, np.int64(2), Fraction(1, 2), 0.5, 0, 0, 1, 0])
        assert [type(v) for v in z] == [Fraction] * 3 + [float] + [Fraction] * 4
        for point in [(1, 2, 0, 0, 3, 0, 1, 0), np.array([1, 2, 0, 0, 3, 0, 1, 0])]:
            g = eval_generators(point)
            xi, eta = reduce(g)
            assert all(type(v) is Fraction for v in g + xi + eta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("point", [(2**40, 3, 0, 0, 2**40, 0, 0, 0),
                                       (2**62, 1, 0, 0, 2**62, 0, 0, 0)])
    def test_numpy_integer_points_are_their_python_int_twins(self, point):
        """A Fraction built from an np.int64 keeps int64 parts, which wrap."""
        for f in (eval_generators, ks):
            got = f(np.array(point))
            assert got == f(point)
            assert all(type(v.numerator) is int for v in got)

    def test_column_constants_name_the_generators(self):
        assert GENERATOR_NAMES[K] == ("K1", "K2", "K3")
        assert GENERATOR_NAMES[L] == ("L1", "L2", "L3")
        assert GENERATOR_NAMES[U] == ("U1", "U2", "U3", "U4")
        assert GENERATOR_NAMES[V] == ("V1", "V2", "V3", "V4")
        assert (GENERATOR_NAMES[H2], GENERATOR_NAMES[XI]) == ("H2", "Xi")
        assert (GENERATOR_NAMES[U1], GENERATOR_NAMES[V1]) == ("U1", "V1")
