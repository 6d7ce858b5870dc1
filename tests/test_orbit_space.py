"""Relations, reduced momentum, classification, and fiber reconstruction.

Oracles: exact substitution at hand-picked rational points, brute-force
evaluation of the bilinear formulas, and the exact fiber graph property
over rational points projected onto the zero level of the circle
momentum.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ksreg.invariants import (
    GeneratorVector,
    PhasePoint8,
    eval_generators,
    eval_generators_batch,
)
from ksreg.orbit_space import (
    BoundaryFiber,
    Point,
    ProductOfSpheres,
    SingleSphere,
    WedgePoint,
    classify_reduced_space,
    lagrange_identity_batch,
    lagrange_identity_check,
    reconstruct_fiber_boundary,
    reconstruct_fiber_interior,
    reduced_momentum,
    relation_residuals,
    relation_residuals_batch,
    tangent_sphere_chart,
)
from ksreg.sampling import sample_even_integers

fraction_st = st.fractions(min_value=-6, max_value=6, max_denominator=12)
point_st = st.tuples(*([fraction_st] * 8))


def _project_to_zero_xi(z):
    """Exact rational projection of p onto the zero level of Xi."""
    q, p = z[:4], z[4:]
    rq = (-q[1], q[0], -q[3], q[2])
    qq = sum(x * x for x in q)
    xi = sum(pi * ri for pi, ri in zip(p, rq))
    p_new = tuple(pi - xi * ri / qq for pi, ri in zip(p, rq))
    return q + p_new


class TestRelationResiduals:
    @given(point_st)
    @settings(max_examples=80, deadline=None)
    def test_image_points_satisfy_all_relations_exactly(self, z):
        res = relation_residuals(eval_generators(z))
        assert res.max_abs_residual() == 0
        assert res.ineq_flags == (True, True)
        assert res.on_orbit_space(tol=0)

    def test_origin(self):
        res = relation_residuals(GeneratorVector.from_flat([0] * 16))
        assert res.max_abs_residual() == 0
        assert res.ineq_flags == (True, True)

    def test_off_space_point_is_detected(self):
        g = GeneratorVector(
            K=(0, 0, 0), L=(0, 0, 0), H2=1, Xi=0,
            U=(1, 0, 0, 0), V=(1, 0, 0, 0),
        )
        res = relation_residuals(g)
        assert res.residuals["UV"] == 1
        assert res.residuals["UU"] == 0
        assert not res.on_orbit_space()

    def test_json_shape(self):
        res = relation_residuals(eval_generators((1, 0, 0, 0, 0, 1, 0, 0)))
        rows = res.to_json_list()
        assert len(rows) == 9
        assert all(set(r) == {"relation_name", "residual"} for r in rows)
        assert all(r["residual"] == 0.0 for r in rows)

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


class TestLagrangeIdentity:
    def test_orthogonal_seed(self):
        g = eval_generators(PhasePoint8((1, 0, 0, 0), (0, 0, 1, 0)))
        pairs = lagrange_identity_check(g)
        assert pairs["norm_sum"] == (1, 1)
        assert pairs["cross_dot"] == (0, 0)

    def test_circular_seed(self):
        g = eval_generators(PhasePoint8((1, 0, 0, 0), (0, 1, 0, 0)))
        pairs = lagrange_identity_check(g)
        assert pairs["norm_sum"] == (2, 2)
        assert pairs["cross_dot"] == (1, 1)

    def test_origin(self):
        pairs = lagrange_identity_check(GeneratorVector.from_flat([0] * 16))
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

    def test_substituted_identity_floats(self):
        """(H2^2-Xi^2)^2 = (|K|^2+|L|^2)(H2^2+Xi^2) - 4<K,L>XiH2 on image."""
        rng = np.random.default_rng(17)
        for _ in range(50):
            g = eval_generators(tuple(rng.standard_normal(8)))
            lhs = (g.H2 ** 2 - g.Xi ** 2) ** 2
            kk = sum(k * k for k in g.K) + sum(l * l for l in g.L)
            kl = sum(k * l for k, l in zip(g.K, g.L))
            rhs = kk * (g.H2 ** 2 + g.Xi ** 2) - 4 * kl * g.Xi * g.H2
            assert abs(lhs - rhs) <= 1e-10 * max(1, abs(lhs))


class TestReducedMomentum:
    def test_interior_point(self):
        g = eval_generators(PhasePoint8((1, 0, 0, 0), (0, 0, 1, 0)))
        w = reduced_momentum(g)
        assert (w.h, w.xi) == (1, 0)

    def test_boundary_point(self):
        g = eval_generators(PhasePoint8((1, 0, 0, 0), (0, 1, 0, 0)))
        w = reduced_momentum(g)
        assert (w.h, w.xi) == (1, 1)

    def test_vertex(self):
        w = reduced_momentum(GeneratorVector.from_flat([0] * 16))
        assert (w.h, w.xi) == (0, 0)

    def test_wedge_violation_raises(self):
        g = GeneratorVector(K=(0,) * 3, L=(0,) * 3, H2=1, Xi=2,
                            U=(0,) * 4, V=(0,) * 4)
        with pytest.raises(ValueError):
            reduced_momentum(g)


class TestClassification:
    def test_interior(self):
        kind = classify_reduced_space(WedgePoint(1, 0))
        assert kind == ProductOfSpheres(r_plus=0.5, r_minus=0.5)

    def test_boundary(self):
        assert classify_reduced_space(WedgePoint(1, 1)) == SingleSphere(radius=1)
        assert classify_reduced_space(WedgePoint(2, -2)) == SingleSphere(radius=2)

    def test_vertex(self):
        assert classify_reduced_space(WedgePoint(0, 0)) == Point()

    def test_outside_wedge_rejected(self):
        with pytest.raises(ValueError):
            classify_reduced_space(WedgePoint(1, 1.5))
        with pytest.raises(ValueError):
            classify_reduced_space(WedgePoint(-1, 0))

    @given(st.floats(0.01, 100), st.floats(-1, 1))
    @settings(max_examples=60, deadline=None)
    def test_radii_identities(self, h, frac):
        xi = frac * h
        kind = classify_reduced_space(WedgePoint(h, xi))
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
        K, L = reconstruct_fiber_interior((1, 0, 0, 0), V, 1, tol=0)
        assert K == (Fraction(3, 5), Fraction(4, 5), 0)
        assert L == (0, 0, 0)

    def test_assembled_vector_is_on_space(self):
        U = (1, 0, 0, 0)
        V = (0, Fraction(3, 5), Fraction(4, 5), 0)
        K, L = reconstruct_fiber_interior(U, V, 1, tol=0)
        g = GeneratorVector(K=K, L=L, H2=1, Xi=0, U=U, V=V)
        assert relation_residuals(g).max_abs_residual() == 0

    @given(point_st)
    @settings(max_examples=60, deadline=None)
    def test_fiber_graph_property(self, z):
        """Reconstruction over the zero level recovers (K, L) exactly."""
        assume(any(z[:4]))
        g = eval_generators(_project_to_zero_xi(z))
        assume(g.H2 > 0)
        assert g.Xi == 0
        K, L = reconstruct_fiber_interior(g.U, g.V, g.H2, tol=0)
        assert K == g.K
        assert L == g.L

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
        assert isinstance(out, BoundaryFiber)
        assert out.eta == (0, 0, 0)
        assert out.eta_paired == (0, -1, 0)
        assert out.mismatch == 1
        assert not out.consistent()

    def test_sign_symmetry(self):
        plus = reconstruct_fiber_boundary((1, 0, 0, 0), (0, 1, 0, 0), 1, sign=1)
        minus = reconstruct_fiber_boundary((1, 0, 0, 0), (0, 1, 0, 0), 1, sign=-1)
        assert plus.eta == tuple(-v for v in minus.eta)
        assert plus.eta == (1, 0, 0)
        # The paired expression does not depend on the sign choice.
        assert plus.eta_paired == minus.eta_paired

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_fiber_boundary((1, 0, 0, 0), (1, 0, 0, 0), 1, sign=1)
        with pytest.raises(ValueError):
            reconstruct_fiber_boundary((1, 0, 0, 0), (0, 1, 0, 0), 1, sign=2)


class TestNormalization:
    def test_tangent_sphere_chart(self):
        u, v = tangent_sphere_chart((0, 0, 2, 0), (0, 2, 0, 0), 2)
        assert u == (0, 0, 1, 0)
        assert v == (0, 2, 0, 0)
