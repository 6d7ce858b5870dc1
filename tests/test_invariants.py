"""Invariant evaluation and the generator change of basis.

Oracles: hand-expanded polynomial forms of all 16 generators, frozen
here independently of the tables in the package, plus an exact matrix
inverse computed in-test by Fraction Gaussian elimination.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksreg.sampling import sample_fractions
from ksreg.invariants import (
    GEN_FROM_PI_MATRIX,
    GENERATOR_NAMES,
    H2,
    K,
    L,
    PI_FROM_GEN_MATRIX,
    U,
    U1,
    V,
    V1,
    XI,
    common_denominator,
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

    @pytest.mark.parametrize("values, expected", [
        ((Fraction(0),) * 16, (1, (0,) * 16)),
        ((Fraction(-1, 4), Fraction(5, 6), Fraction(-3)), (12, (-3, 10, -36))),
        ((Fraction(1, 2), 0.5), None),
        ((Fraction(1, 2), 1), None),
    ])
    def test_common_denominator(self, values, expected):
        assert common_denominator(values) == expected

    def test_one_float_entry_gives_floats(self):
        z = (Fraction(1, 3), 0, Fraction(-2, 5), 1, 0.5, Fraction(7, 4), 0, 2)
        g = eval_generators(z)
        assert all(type(v) is float for v in g)
        assert g == eval_generator_columns(point8(z))


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

    def test_column_constants_name_the_generators(self):
        assert GENERATOR_NAMES[K] == ("K1", "K2", "K3")
        assert GENERATOR_NAMES[L] == ("L1", "L2", "L3")
        assert GENERATOR_NAMES[U] == ("U1", "U2", "U3", "U4")
        assert GENERATOR_NAMES[V] == ("V1", "V2", "V3", "V4")
        assert (GENERATOR_NAMES[H2], GENERATOR_NAMES[XI]) == ("H2", "Xi")
        assert (GENERATOR_NAMES[U1], GENERATOR_NAMES[V1]) == ("U1", "V1")
