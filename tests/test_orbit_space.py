"""Relations, reduced momentum, classification, and fiber reconstruction.

Oracles: exact substitution at hand-picked rational points, brute-force
evaluation of the bilinear formulas, and the exact fiber graph property
over rational points projected onto the zero level of the circle
momentum.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ksreg.flows import induced_flow_on_orbit_space
from ksreg.invariants import H2, K, L, U, V, XI, eval_generators, eval_generators_batch
from ksreg.orbit_space import (
    Point,
    ProductOfSpheres,
    SingleSphere,
    _lagrange_pairs,
    _relations,
    classify_reduced_space,
    lagrange_identity_batch,
    lagrange_identity_check,
    reconstruct_fiber_boundary,
    reconstruct_fiber_interior,
    reduced_momentum,
    relation_residuals,
    relation_residuals_batch,
)
from ksreg.sampling import sample_even_integers, sample_fractions

fraction_st = st.fractions(min_value=-6, max_value=6, max_denominator=12)
point_st = st.tuples(*([fraction_st] * 8))

# Generator vectors that pass the nine relations and the two inequalities,
# all residuals 0, yet lie outside the image: |K|^2 + |L|^2 is 50 against
# H2^2 + Xi^2 = 2 on the wedge edge, and 79 against 0 at the vertex.
OFF_IMAGE = {
    "wedge_edge": tuple(map(Fraction, (5, 0, 0, 5, 0, 0, 1, 1) + (0,) * 8)),
    "vertex": tuple(map(Fraction, (3, 4, 0, -2, 1, 7, 0, 0) + (0,) * 8)),
}


def _assert_sphere_bundle(u, v, h):
    """The reconstructions' preconditions, exactly: <U,U> = <V,V> = h^2, <U,V> = 0."""
    uu, vv, uv = (sum(x * y for x, y in zip(a, b)) for a, b in ((u, u), (v, v), (u, v)))
    assert (uu, vv, uv) == (h * h, h * h, 0)


def _project_to_zero_xi(z):
    """Exact rational projection of p onto the zero level of Xi."""
    q, p = z[:4], z[4:]
    rq = (-q[1], q[0], -q[3], q[2])
    qq = sum(x * x for x in q)
    xi = sum(pi * ri for pi, ri in zip(p, rq))
    p_new = tuple(pi - xi * ri / qq for pi, ri in zip(p, rq))
    return q + p_new


def _generator_vector(z, i, bump):
    """eval_generators(z), off the orbit space when bump moves entry i."""
    g = list(eval_generators(z))
    g[i] += bump
    return g


class TestIntegerPath:
    """A vector of Fractions runs on its common-denominator ints.

    The reference is the same body run in Fraction arithmetic.
    """

    @given(point_st, st.integers(0, 15), st.one_of(st.just(Fraction(0)), fraction_st))
    @example((Fraction(0),) * 8, 0, Fraction(0))
    @example(tuple(map(Fraction, (2, -4, 0, 2, 6, 0, -2, 4))), 3, Fraction(5))
    @example((Fraction(1),) * 8, 0, Fraction(1, 2**32 + 15))  # D^2 > 2^64
    @settings(max_examples=100, deadline=None)
    def test_integer_path_is_the_fraction_body(self, z, i, bump):
        g = _generator_vector(z, i, bump)
        res, ref = relation_residuals(g), _relations(g)
        assert (res.residuals, res.h2, res.wedge_gap) == (ref.residuals, ref.h2, ref.wedge_gap)
        assert all(type(v) is Fraction
                   for v in (*res.residuals.values(), res.h2, res.wedge_gap))
        pairs = lagrange_identity_check(g)
        assert pairs == _lagrange_pairs(g)
        assert all(type(v) is Fraction for pair in pairs.values() for v in pair)

    @given(point_st, point_st)
    @example((Fraction(0),) * 8, (Fraction(1),) * 8)
    @example(tuple(map(Fraction, (2, -4, 0, 2, 6, 0, -2, 4))), (Fraction(1, 3),) * 8)
    @example((Fraction(1, 2**32 + 15),) * 8, (Fraction(0),) * 8)  # D^2 > 2^64
    @settings(max_examples=100, deadline=None)
    def test_the_generators_integer_form_gives_the_fresh_results(self, z, other):
        """On eval_generators' own tuple, the checks equal those on a plain copy.

        The tuple carries its integer form, also after another point is
        evaluated; the plain copy runs the lcm form.
        """
        g = eval_generators(z)
        copy = tuple(list(g))
        assert copy is not g

        def results(v):
            res = relation_residuals(v)
            return ((*res.residuals.values(), res.h2, res.wedge_gap),
                    tuple(x for pair in lagrange_identity_check(v).values() for x in pair))

        fresh = results(copy)
        assert all(type(v) is Fraction for part in fresh for v in part)
        for got in (results(g), results(g)):
            assert got == fresh
            assert all(type(v) is Fraction for part in got for v in part)
        eval_generators(other)
        assert results(g) == fresh
        ref = _relations(g)
        assert fresh[0] == (*ref.residuals.values(), ref.h2, ref.wedge_gap)
        assert fresh[1] == tuple(x for pair in _lagrange_pairs(g).values() for x in pair)

    @pytest.mark.parametrize("i", range(16))
    def test_one_float_entry_runs_the_body(self, i):
        g = list(eval_generators((Fraction(1, 3), 1, Fraction(-2, 5), 0, Fraction(1, 2),
                                  Fraction(7, 4), 2, Fraction(-1, 6))))
        g[i] = float(g[i])
        res, ref = relation_residuals(g), _relations(g)
        got = (*res.residuals.values(), res.h2, res.wedge_gap)
        want = (*ref.residuals.values(), ref.h2, ref.wedge_gap)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]
        assert float in {type(v) for v in got}
        pairs, ref_pairs = lagrange_identity_check(g), _lagrange_pairs(g)
        assert pairs == ref_pairs
        assert ([type(v) for pair in pairs.values() for v in pair]
                == [type(v) for pair in ref_pairs.values() for v in pair])

    def test_int_vector_stays_int(self):
        g = (0, 0, 0) + (0, 0, 0) + (1, 0) + (1, 0, 0, 0) + (1, 0, 0, 0)
        res = relation_residuals(g)
        assert all(type(v) is int for v in (*res.residuals.values(), res.h2, res.wedge_gap))
        assert all(type(v) is int for pair in lagrange_identity_check(g).values() for v in pair)

    def test_fraction_batch_matches_scalar_row_by_row(self):
        rng = np.random.default_rng(23)
        rows = [_generator_vector(z, k % 16, Fraction(k % 3, 7))
                for k, z in enumerate(sample_fractions(rng, 60))]
        G = np.array(rows, dtype=object)
        residuals, h2, gap = relation_residuals_batch(G)
        pairs = lagrange_identity_batch(G)
        assert any(col.any() for col in residuals.values())
        for k, g in enumerate(rows):
            res = relation_residuals(g)
            assert {name: col[k] for name, col in residuals.items()} == res.residuals
            assert (h2[k], gap[k]) == (res.h2, res.wedge_gap)
            assert {name: (lhs[k], rhs[k]) for name, (lhs, rhs) in pairs.items()} \
                == lagrange_identity_check(g)


class TestRelationResiduals:
    @given(point_st)
    @settings(max_examples=80, deadline=None)
    def test_image_points_satisfy_all_relations_exactly(self, z):
        res = relation_residuals(eval_generators(z))
        assert all(v == 0 for v in res.residuals.values())
        assert res.h2 >= 0 and res.wedge_gap >= 0
        assert res.on_orbit_space()

    def test_origin(self):
        res = relation_residuals((0,) * 16)
        assert all(v == 0 for v in res.residuals.values())
        assert res.h2 == 0 and res.wedge_gap == 0

    def test_off_space_point_is_detected(self):
        # K = L = 0, H2 = 1, Xi = 0, U = V = (1, 0, 0, 0)
        g = (0, 0, 0) + (0, 0, 0) + (1, 0) + (1, 0, 0, 0) + (1, 0, 0, 0)
        res = relation_residuals(g)
        assert res.residuals["UV"] == 1
        assert res.residuals["UU"] == 0
        assert not res.on_orbit_space()
        # A NaN residual after a finite one, which Python's max would drop.
        nan_k1 = list(eval_generators((1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0)))
        nan_k1[0] = math.nan
        assert not relation_residuals(nan_k1).on_orbit_space()

    @pytest.mark.parametrize("g", OFF_IMAGE.values(), ids=OFF_IMAGE.keys())
    def test_off_image_vectors_break_a_degree_two_identity(self, g):
        assert all(v == 0 for v in relation_residuals(g).residuals.values())
        lhs, rhs = lagrange_identity_check(g)["norm_sum"]
        assert lhs != rhs

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the nine relations are necessary, not sufficient")
    @pytest.mark.parametrize("g", OFF_IMAGE.values(), ids=OFF_IMAGE.keys())
    def test_off_image_vectors_are_rejected(self, g):
        assert not relation_residuals(g).on_orbit_space()
        with pytest.raises(ValueError):
            induced_flow_on_orbit_space(g, 0.3)

    def test_batch_matches_scalar_and_is_tiny_on_image(self):
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((200, 8))
        G = eval_generators_batch(Z)
        residuals, h2, gap = relation_residuals_batch(G)
        assert max(np.abs(col).max() for col in residuals.values()) <= 1e-12
        assert np.all(h2 >= 0)
        assert np.all(gap >= -1e-12)
        scalar = relation_residuals(eval_generators(tuple(Z[0])))
        for name, col in residuals.items():
            assert abs(col[0] - float(scalar.residuals[name])) <= 1e-12

    def test_int64_batch_past_the_bound_does_not_wrap(self):
        """U1 = 2^32 squares to 2^64, which int64 wraps to 0."""
        G = np.zeros((1, 16), np.int64)
        G[0, U.start] = 2**32
        residuals, _, _ = relation_residuals_batch(G)
        assert residuals["UU"][0] == 2**64


class TestLagrangeIdentity:
    def test_orthogonal_seed(self):
        g = eval_generators((1, 0, 0, 0, 0, 0, 1, 0))
        pairs = lagrange_identity_check(g)
        assert pairs["norm_sum"] == (1, 1)
        assert pairs["cross_dot"] == (0, 0)

    def test_circular_seed(self):
        g = eval_generators((1, 0, 0, 0, 0, 1, 0, 0))
        pairs = lagrange_identity_check(g)
        assert pairs["norm_sum"] == (2, 2)
        assert pairs["cross_dot"] == (1, 1)

    def test_origin(self):
        pairs = lagrange_identity_check((0,) * 16)
        assert all(lhs == rhs == 0 for lhs, rhs in pairs.values())

    @given(point_st)
    @settings(max_examples=60, deadline=None)
    def test_identities_hold_exactly_on_image(self, z):
        pairs = lagrange_identity_check(eval_generators(z))
        for name, (lhs, rhs) in pairs.items():
            assert lhs == rhs, name

    def test_batch_matches_scalar_exactly(self):
        Z = sample_even_integers(np.random.default_rng(19), 200)
        batch = lagrange_identity_batch(eval_generators_batch(Z))
        for k, z in enumerate(Z):
            scalar = lagrange_identity_check(eval_generators(tuple(int(v) for v in z)))
            for name, (lhs, rhs) in scalar.items():
                assert (batch[name][0][k], batch[name][1][k]) == (lhs, rhs), name

    def test_int64_batch_past_the_bound_does_not_wrap(self):
        """K1 = L1 = 2^32: |K|^2 + |L|^2 = 2^65 and <K, L> = 2^64 wrap to 0 in int64."""
        G = np.zeros((1, 16), np.int64)
        G[0, [K.start, L.start]] = 2**32
        gaps = {name: lhs[0] - rhs[0] for name, (lhs, rhs) in lagrange_identity_batch(G).items()}
        assert (gaps["norm_sum"], gaps["cross_dot"]) == (2**65, 2**64)
        assert gaps == {name: lhs - rhs for name, (lhs, rhs)
                        in lagrange_identity_check(tuple(G[0].tolist())).items()}

    def test_substituted_identity_floats(self):
        """(H2^2-Xi^2)^2 = (|K|^2+|L|^2)(H2^2+Xi^2) - 4<K,L>XiH2 on image."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = eval_generators(tuple(rng.standard_normal(8)))
            h2, xi = g[H2], g[XI]
            lhs = (h2 ** 2 - xi ** 2) ** 2
            kk = sum(k * k for k in g[K]) + sum(l * l for l in g[L])
            kl = sum(k * l for k, l in zip(g[K], g[L]))
            rhs = kk * (h2 ** 2 + xi ** 2) - 4 * kl * xi * h2
            assert abs(lhs - rhs) <= 1e-10 * max(1, abs(lhs))


class TestReducedMomentum:
    def test_interior_point(self):
        g = eval_generators((1, 0, 0, 0, 0, 0, 1, 0))
        assert reduced_momentum(g) == (1, 0)

    def test_boundary_point(self):
        g = eval_generators((1, 0, 0, 0, 0, 1, 0, 0))
        assert reduced_momentum(g) == (1, 1)

    def test_vertex(self):
        assert reduced_momentum((0,) * 16) == (0, 0)

    def test_wedge_violation_raises(self):
        g = [0] * 16
        g[H2], g[XI] = 1, 2
        with pytest.raises(ValueError):
            reduced_momentum(g)

    def test_nan_momentum_raises(self):
        # A NaN comparison is False, so the guards must be written to fail on it.
        g = [0] * 16
        g[H2], g[XI] = math.nan, math.nan
        with pytest.raises(ValueError):
            reduced_momentum(g)
        with pytest.raises(ValueError):
            classify_reduced_space((math.nan, math.nan))


class TestClassification:
    def test_interior(self):
        kind = classify_reduced_space((1, 0))
        assert kind == ProductOfSpheres(r_plus=0.5, r_minus=0.5)

    def test_boundary(self):
        assert classify_reduced_space((1, 1)) == SingleSphere(radius=1)
        assert classify_reduced_space((2, -2)) == SingleSphere(radius=2)

    def test_vertex(self):
        assert classify_reduced_space((0, 0)) == Point()

    def test_outside_wedge_rejected(self):
        with pytest.raises(ValueError):
            classify_reduced_space((1, 1.5))
        with pytest.raises(ValueError):
            classify_reduced_space((-1, 0))

    @given(st.floats(0.01, 100), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_radii_identities(self, h, frac):
        xi = frac * h
        kind = classify_reduced_space((h, xi))
        if isinstance(kind, ProductOfSpheres):
            assert kind.r_plus + kind.r_minus == pytest.approx(h)
            assert kind.r_plus - kind.r_minus == pytest.approx(xi)


class TestFiberInterior:
    def test_recorded_example_axis(self):
        K, L = reconstruct_fiber_interior((0, 0, 0, 1), (0, 1, 0, 0), 1)
        assert K == (0, 0, 0)
        assert L == (0, 1, 0)

    def test_recorded_example_plane(self):
        K, L = reconstruct_fiber_interior((1, 0, 0, 0), (0, 1, 0, 0), 1)
        assert K == (1, 0, 0)
        assert L == (0, 0, 0)

    def test_zero_pattern_for_v1_zero(self):
        """With U on the first axis and V1 = 0, K = (V2, V3, V4)/h and L = 0."""
        V = (0, Fraction(3, 5), Fraction(4, 5), 0)
        _assert_sphere_bundle((1, 0, 0, 0), V, 1)
        K, L = reconstruct_fiber_interior((1, 0, 0, 0), V, 1)
        assert K == (Fraction(3, 5), Fraction(4, 5), 0)
        assert L == (0, 0, 0)

    def test_assembled_vector_is_on_space(self):
        u = (1, 0, 0, 0)
        v = (0, Fraction(3, 5), Fraction(4, 5), 0)
        _assert_sphere_bundle(u, v, 1)
        k, l = reconstruct_fiber_interior(u, v, 1)
        g = k + l + (1, 0) + u + v
        assert all(v == 0 for v in relation_residuals(g).residuals.values())

    @given(point_st)
    @example((Fraction(-4, 5), Fraction(3, 5), Fraction(3), Fraction(-2),
              Fraction(0), Fraction(5), Fraction(3), Fraction(4)))
    @settings(max_examples=60, deadline=None)
    def test_fiber_graph_property(self, z):
        """Reconstruction over the zero level recovers (K, L) exactly."""
        assume(any(z[:4]))
        g = eval_generators(_project_to_zero_xi(z))
        assume(g[H2] > 0)
        assert g[XI] == 0
        _assert_sphere_bundle(g[U], g[V], g[H2])
        k, l = reconstruct_fiber_interior(g[U], g[V], g[H2])
        assert k == g[K]
        assert l == g[L]

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            reconstruct_fiber_interior((2, 0, 0, 0), (0, 1, 0, 0), 1)
        with pytest.raises(ValueError):
            reconstruct_fiber_interior((1, 0, 0, 0), (0, 1, 0, 0), 0)
        with pytest.raises(ValueError):
            reconstruct_fiber_interior((1, 0, 0), (0, 1, 0, 0), 1)


class TestFiberBoundary:
    def test_recorded_example(self):
        out = reconstruct_fiber_boundary((0, 0, 0, 1), (0, 1, 0, 0), 1, sign=1)
        assert out == (0, 0, 0)

    def test_sign_symmetry(self):
        plus = reconstruct_fiber_boundary((1, 0, 0, 0), (0, 1, 0, 0), 1, sign=1)
        minus = reconstruct_fiber_boundary((1, 0, 0, 0), (0, 1, 0, 0), 1, sign=-1)
        assert plus == tuple(-v for v in minus)
        assert plus == (1, 0, 0)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_fiber_boundary((1, 0, 0, 0), (1, 0, 0, 0), 1, sign=1)
        with pytest.raises(ValueError):
            reconstruct_fiber_boundary((1, 0, 0, 0), (0, 1, 0, 0), 1, sign=2)


class TestSpherePreconditions:
    @pytest.mark.parametrize("U, V", [((math.nan, 0, 0, 0), (0, 1, 0, 0)),
                                      ((1, 0, 0, 0), (0, math.nan, 0, 0))])
    def test_nan_entry_rejected(self, U, V):
        with pytest.raises(ValueError):
            reconstruct_fiber_interior(U, V, 1)
        with pytest.raises(ValueError):
            reconstruct_fiber_boundary(U, V, 1, sign=1)
