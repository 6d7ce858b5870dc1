"""The dimension-halving map, its fiber action, and pullback identities.

Oracles: exact substitution at rational points (the norm identity makes
the exact square root available), central finite differences for the
analytic gradients, and seeded float sampling on the (1, 0) level set.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ksreg.invariants import (H2, V1, XI, eval_generators, eval_generators_batch, eval_pi,
                              eval_pi_batch)
from ksreg.kepler_dynamics import kepler_energy, norm3
from ksreg.ks_map import (
    KS,
    KS_MONOMIALS,
    ks,
    ks_batch,
    ks_fiber_action,
    ks_from_generators_batch,
    ks_jacobian_batch,
    poisson_property_residual,
    poisson_residual_batch,
    poisson_residual_xi_sweep,
    pullback_angular_momentum,
    pullback_eccentricity,
    pullback_gaps_batch,
    pullback_inner_product,
    pullback_kepler_hamiltonian,
    require_level_set,
)
from ksreg.flows import collision_triple_batch
from ksreg.sampling import sample_fractions, sample_level_set, sample_xi_zero

fraction_st = st.fractions(min_value=-5, max_value=5, max_denominator=10)
point_st = st.tuples(*([fraction_st] * 8))


def _sample_level_set(rng):
    """Float point with H2 = 1 and Xi = 0 up to rounding."""
    z = rng.standard_normal(8)
    q, p = z[:4], z[4:]
    rq = np.array([-q[1], q[0], -q[3], q[2]])
    p = p - (p @ rq) / (q @ q) * rq
    z = np.concatenate([q, p])
    z = z / math.sqrt(float(eval_generators(tuple(z))[H2]))
    return tuple(z)


# The map written out by hand, one {(i, j): coeff} dict per table row
# (x1, x2, x3, n1, n2, n3, rho) over z = (q1..q4, p1..p4).
WRITTEN_OUT = (
    {(0, 2): 2, (1, 3): 2},
    {(0, 3): 2, (1, 2): -2},
    {(0, 0): 1, (1, 1): 1, (2, 2): -1, (3, 3): -1},
    {(2, 4): 1, (3, 5): 1, (0, 6): 1, (1, 7): 1},
    {(3, 4): 1, (2, 5): -1, (1, 6): -1, (0, 7): 1},
    {(0, 4): 1, (1, 5): 1, (2, 6): -1, (3, 7): -1},
    {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1},
)


class TestKsMap:
    def test_derived_table_is_the_written_out_formula(self):
        assert len(KS_MONOMIALS) == len(WRITTEN_OUT)
        for row, expected in zip(KS_MONOMIALS, WRITTEN_OUT):
            assert all(type(c) is int for c, _, _ in row)
            assert {(i, j): c for c, i, j in row} == expected
            assert len(row) == len(expected)

    def test_batch_matches_scalar_rows(self):
        Z = np.random.default_rng(29).standard_normal((200, 8))
        W = ks_batch(Z)
        assert W.shape == (200, 6)
        for z, w in zip(Z, W):
            pt = ks(tuple(z))
            assert np.allclose(w, pt, rtol=1e-14, atol=1e-14)
        by_generators = ks_from_generators_batch(eval_generators_batch(Z))
        assert np.allclose(by_generators, W, rtol=1e-12, atol=1e-12)
        # Fraction rows: the scalar wrapper is exact and the batch agrees.
        F = [z for z in sample_fractions(np.random.default_rng(28), 60) if any(z[:4])]
        W = ks_batch(np.array(F, dtype=float))
        for z, w in zip(F, W):
            pt = ks(z)
            assert all(type(v) is Fraction for v in pt)
            assert np.allclose(w, np.array(pt, dtype=float), rtol=1e-14, atol=1e-14)
        # Int rows, Python or numpy: the same Fractions as the row as Fractions.
        for z in np.random.default_rng(27).integers(-5, 6, (40, 8)):
            if any(z[:4]):
                pt = ks(z)
                assert pt == ks(tuple(int(v) for v in z)) == ks(tuple(map(Fraction, z)))
                assert all(type(v) is Fraction for v in pt)

    def test_batch_rejects_a_collision_row(self):
        Z = np.random.default_rng(30).standard_normal((4, 8))
        Z[2, :4] = 0.0
        with pytest.raises(ValueError):
            ks_batch(Z)
        with pytest.raises(ValueError):
            ks_jacobian_batch(Z)

    def test_rest_point(self):
        assert ks((1, 0, 0, 0, 0, 0, 0, 0)) == (0, 0, 1, 0, 0, 0)

    def test_circular_image(self):
        assert ks((1, 0, 0, 0, 0, 0, 1, 0)) == (0, 0, 1, 1, 0, 0)

    def test_collinear_image(self):
        assert ks((1, 0, 0, 0, 1, 0, 0, 0)) == (0, 0, 1, 0, 0, 1)

    def test_collision_input_rejected(self):
        with pytest.raises(ValueError):
            ks((0, 0, 0, 0, 1, 0, 0, 0))

    @given(point_st)
    @settings(max_examples=80, deadline=None)
    def test_norm_identity_exact(self, z):
        assume(any(z[:4]))
        pt = ks(z)
        rho = sum(v * v for v in z[:4])
        g = eval_generators(z)
        assert sum(v * v for v in pt[:3]) == rho * rho
        assert norm3(pt[:3]) == rho == g[H2] + g[V1]

    @given(point_st)
    @example(tuple(Fraction(v) for v in (0, 0, 0, 5, 0, 0, 0, 1)))
    @settings(max_examples=80, deadline=None)
    def test_y_norm_identity_exact(self, z):
        assume(any(z[:4]))
        pt = ks(z)
        g = eval_generators(z)
        denom = g[H2] + g[V1]
        lhs = sum(v * v for v in pt[3:])
        assert lhs == (g[H2] * g[H2] - g[XI] * g[XI] - g[V1] * g[V1]) / denom**2

    def test_y_norm_identity_floats(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            z = tuple(rng.standard_normal(8))
            pt = ks(z)
            g = eval_generators(z)
            denom = g[H2] + g[V1]
            rhs = (g[H2]**2 - g[XI]**2 - g[V1] ** 2) / denom**2
            assert abs(sum(v * v for v in pt[3:]) - rhs) <= 1e-12 * max(1, abs(rhs))


class TestFiberAction:
    def test_identity_at_zero(self):
        z = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        out = ks_fiber_action(z, 0.0)
        assert np.allclose(out, z, atol=0)

    def test_periodicity(self):
        z = tuple(np.random.default_rng(1).standard_normal(8))
        out = ks_fiber_action(z, 2 * math.pi)
        assert np.allclose(out, z, atol=1e-12)

    def test_composition(self):
        z = tuple(np.random.default_rng(2).standard_normal(8))
        ab = ks_fiber_action(ks_fiber_action(z, 0.4), 0.9)
        direct = ks_fiber_action(z, 1.3)
        assert np.allclose(ab, direct, atol=1e-12)

    def test_ks_is_fiber_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            z = tuple(rng.standard_normal(8))
            s = float(rng.uniform(-6, 6))
            base = ks(z)
            moved = ks(ks_fiber_action(z, s))
            assert np.allclose(moved, base, atol=1e-12)

    def test_invariants_are_constant_along_fibers(self):
        rng = np.random.default_rng(4)
        z = tuple(rng.standard_normal(8))
        before = np.array(eval_pi(z), dtype=float)
        after = np.array(eval_pi(ks_fiber_action(z, 0.7)), dtype=float)
        assert np.allclose(before, after, atol=1e-12)

    def test_restricted_map_guards_the_level(self):
        ok = (1, 0, 0, 0, 0, 0, 1, 0)  # Xi = 0
        assert KS(ok) == (0, 0, 1, 1, 0, 0)
        bad = (1, 0, 0, 0, 0, 1, 0, 0)  # Xi = 1
        with pytest.raises(ValueError):
            KS(bad)
        with pytest.raises(ValueError):
            KS((math.nan, 0, 0, 0, 0, 0, 1, 0))  # Xi = NaN


class TestHamiltonianPullback:
    def test_circular_point(self):
        lhs, rhs = pullback_kepler_hamiltonian((1, 0, 0, 0, 0, 0, 1, 0))
        assert lhs == 1
        assert rhs == 1

    def test_rest_point(self):
        lhs, rhs = pullback_kepler_hamiltonian((1, 0, 0, 0, 0, 0, 0, 0))
        assert lhs == Fraction(1, 2)
        assert rhs == Fraction(1, 2)

    def test_rotating_point(self):
        lhs, rhs = pullback_kepler_hamiltonian((1, 0, 0, 0, 0, 1, 0, 0))
        assert lhs == Fraction(1, 2)
        assert rhs == Fraction(1, 2)

    @given(point_st)
    @example((1, 2, 0, 0, 3, 0, 1, 0))
    @settings(max_examples=80, deadline=None)
    def test_identity_holds_everywhere_exactly(self, z):
        """The pullback identity needs no level-set restriction."""
        assume(any(z[:4]))
        lhs, rhs = pullback_kepler_hamiltonian(z)
        assert lhs == rhs


class TestLevelSetPullbacks:
    def test_int_points_give_fractions(self):
        for z in [(1, 0, 0, 0, 0, 0, 1, 0), (0, 1, 0, 0, 0, 0, 0, 1)]:
            for pullback in (pullback_kepler_hamiltonian, pullback_angular_momentum,
                             pullback_eccentricity, pullback_inner_product):
                lhs, rhs = pullback(z)
                assert lhs == rhs
                assert all(type(v) is Fraction for v in np.ravel([lhs, rhs]))

    def test_angular_momentum_circular(self):
        J, L = pullback_angular_momentum((1, 0, 0, 0, 0, 0, 1, 0))
        assert J == (0, 1, 0)
        assert L == (0, 1, 0)

    def test_angular_momentum_collinear(self):
        J, L = pullback_angular_momentum((1, 0, 0, 0, 1, 0, 0, 0))
        assert J == (0, 0, 0)
        assert L == (0, 0, 0)

    def test_angular_momentum_momentumless(self):
        J, L = pullback_angular_momentum((1, 1, 0, 0, 0, 0, 0, 0))
        assert J == (0, 0, 0)
        assert L == (0, 0, 0)

    def test_eccentricity_circular(self):
        e, K = pullback_eccentricity((1, 0, 0, 0, 0, 0, 1, 0))
        assert e == (0, 0, 0)
        assert K == (0, 0, 0)

    def test_eccentricity_momentumless(self):
        e, K = pullback_eccentricity((1, 1, 0, 0, 0, 0, 0, 0))
        assert e == (0, 0, -1)
        assert K == (0, 0, -1)

    def test_inner_product_circular(self):
        lhs, rhs = pullback_inner_product((1, 0, 0, 0, 0, 0, 1, 0))
        assert lhs == 0
        assert rhs == 0

    def test_inner_product_collinear(self):
        lhs, rhs = pullback_inner_product((1, 0, 0, 0, 1, 0, 0, 0))
        assert lhs == 1
        assert rhs == 1

    def test_off_level_set_rejected(self):
        rotating = (1, 0, 0, 0, 0, 1, 0, 0)  # Xi = 1
        with pytest.raises(ValueError):
            pullback_angular_momentum(rotating)
        heavy = (2, 0, 0, 0, 0, 0, 0, 0)  # H2 = 2
        with pytest.raises(ValueError):
            pullback_eccentricity(heavy)
        with pytest.raises(ValueError):
            pullback_inner_product(heavy)
        undefined = (math.nan, 0, 0, 0, 0, 0, 1, 0)  # H2 = NaN
        with pytest.raises(ValueError):
            pullback_inner_product(undefined)
        with pytest.raises(ValueError):
            require_level_set(math.nan, 0)
        batch = sample_level_set(np.random.default_rng(32), 5)
        pullback_gaps_batch(batch)
        for bad in (rotating, heavy, undefined):
            mixed = batch.copy()
            mixed[3] = bad
            with pytest.raises(ValueError, match="point 3"):
                pullback_gaps_batch(mixed)

    def test_batch_gaps_match_the_scalar_pullbacks(self):
        Z = sample_level_set(np.random.default_rng(33), 250)
        gaps = pullback_gaps_batch(Z)
        for k, z in enumerate(Z):
            lhs, rhs = pullback_kepler_hamiltonian(z)
            scalar = {"hamiltonian": abs(lhs - rhs)}
            for key, pullback in (("angular_momentum", pullback_angular_momentum),
                                  ("eccentricity", pullback_eccentricity)):
                img, gen = pullback(z)
                scalar[key] = max(abs(a - b) for a, b in zip(img, gen))
            lhs, rhs = pullback_inner_product(z)
            scalar["inner_product"] = abs(lhs - rhs)
            for key, value in scalar.items():
                assert abs(gaps[key][k] - value) <= 1e-14, key
                assert gaps[key][k] <= 1e-10, key

    def test_agreement_on_sampled_level_set(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            z = _sample_level_set(rng)
            J, L = pullback_angular_momentum(z)
            e, K = pullback_eccentricity(z)
            ip_lhs, ip_rhs = pullback_inner_product(z)
            assert np.allclose(J, np.array(L, dtype=float), atol=1e-10)
            assert np.allclose(e, np.array(K, dtype=float), atol=1e-10)
            assert abs(ip_lhs - ip_rhs) <= 1e-10

    def test_eccentricity_is_fiber_invariant(self):
        rng = np.random.default_rng(37)
        z = _sample_level_set(rng)
        e0, _ = pullback_eccentricity(z)
        for s in (0.3, 1.1, 4.0):
            es, _ = pullback_eccentricity(ks_fiber_action(z, s))
            assert np.allclose(es, e0, atol=1e-10)


class TestPoissonProperty:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(41)
        step = 1e-6
        Z = rng.standard_normal((10, 8))
        batch = ks_jacobian_batch(Z)
        for z, jac in zip(Z, batch):
            for i in range(8):
                zp, zm = z.copy(), z.copy()
                zp[i] += step
                zm[i] -= step
                fp, fm = ks(tuple(zp)), ks(tuple(zm))
                fd = (np.array(fp) - np.array(fm)) / (2 * step)
                assert np.allclose(jac[:, i], fd, atol=1e-6)

    def test_residual_vanishes_on_zero_level(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            z = _sample_level_set(rng)
            assert np.abs(poisson_property_residual(z)).max() <= 1e-10

    def test_batch_matches_scalar_rows(self):
        rng = np.random.default_rng(45)
        Z = np.vstack([sample_xi_zero(rng, 150), rng.standard_normal((100, 8))])
        batch = poisson_residual_batch(Z)
        assert batch.shape == (250, 6, 6)
        for z, res in zip(Z, batch):
            assert np.allclose(res, poisson_property_residual(tuple(z)), rtol=0, atol=1e-14)
        assert np.abs(batch[:150]).max() <= 1e-10

    def test_position_block_is_exactly_zero_everywhere(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            z = tuple(rng.standard_normal(8))
            res = poisson_property_residual(z)
            assert np.all(res[:3, :3] == 0.0)

    def test_diagonal_cross_entries_hold_everywhere(self):
        """{x_i, y_i} = 2 even off the zero level."""
        rng = np.random.default_rng(53)
        for _ in range(20):
            z = tuple(rng.standard_normal(8))
            res = poisson_property_residual(z)
            assert np.allclose(np.diag(res[:3, 3:]), 0.0, atol=1e-12)

    def test_momentum_block_residual_tracks_xi(self):
        """y-y residuals vanish with Xi and grow away from it; recorded,
        not modeled."""
        base = _sample_level_set(np.random.default_rng(59))
        rows = poisson_residual_xi_sweep(base, offsets=np.linspace(-0.5, 0.5, 9))
        xis = np.array([r[0] for r in rows])
        res = np.array([r[1] for r in rows])
        assert np.all(np.isfinite(res))
        near_zero = res[np.abs(xis) < 1e-9]
        far = res[np.abs(xis) > 0.2]
        assert near_zero.size > 0
        assert np.all(near_zero <= 1e-10)
        assert far.size > 0
        assert np.all(far > 1e-3)


class TestPointShapes:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ks((1, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            kepler_energy((1, 0, 0, 0, 0))


class TestBatchDtypes:
    """Float batches come back as float64 (bool for the collision sides).

    A Fraction coefficient times a float array gives an object array, so
    these pins catch an exact coefficient leaking into a float path.
    """

    Z = sample_level_set(np.random.default_rng(47), 20)

    @pytest.mark.parametrize("fn", [eval_generators_batch, eval_pi_batch, ks_batch])
    def test_array_outputs(self, fn):
        assert fn(self.Z).dtype == np.float64

    def test_pullback_gaps(self):
        assert {v.dtype for v in pullback_gaps_batch(self.Z).values()} == {np.dtype(np.float64)}

    def test_collision_triple(self):
        assert [side.dtype for side in collision_triple_batch(self.Z)] == [np.dtype(bool)] * 3
