"""Samplers land on their target sets and reproduce from a seed."""
from fractions import Fraction

import numpy as np

from ksreg.invariants import eval_generators_batch
from ksreg.sampling import (
    RNG_ALGORITHM,
    sample_collision_slice,
    sample_even_integers,
    sample_fractions,
    sample_level_set,
    sample_phase_points,
    sample_xi_zero,
)


class TestTargets:
    def test_xi_zero_projection(self):
        z = sample_xi_zero(np.random.default_rng(3), 50)
        gens = eval_generators_batch(z)
        assert np.max(np.abs(gens[:, 7])) <= 1e-12

    def test_level_set_rescale(self):
        z = sample_level_set(np.random.default_rng(5), 50)
        gens = eval_generators_batch(z)
        assert np.max(np.abs(gens[:, 6] - 1)) <= 1e-12
        assert np.max(np.abs(gens[:, 7])) <= 1e-12

    def test_collision_slice(self):
        z = sample_collision_slice(np.random.default_rng(7), 50)
        gens = eval_generators_batch(z)
        assert np.max(np.abs(gens[:, 6] - 1)) <= 1e-12
        assert np.max(np.abs(gens[:, 7])) <= 1e-12
        assert np.max(np.abs(gens[:, 3:6])) <= 1e-12


class TestExactSamplers:
    def test_even_integers(self):
        z = sample_even_integers(np.random.default_rng(11), 40)
        assert z.dtype == np.int64
        assert np.all(z % 2 == 0)
        assert z.shape == (40, 8)

    def test_fractions(self):
        pts = sample_fractions(np.random.default_rng(13), 10)
        assert len(pts) == 10
        for pt in pts:
            assert len(pt) == 8
            assert all(isinstance(v, Fraction) for v in pt)
            assert all(v.denominator <= 6 for v in pt)
        # The draws are pinned: the two integer draws, in this order, as
        # Fractions of Python ints.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            nums = rng.integers(-12, 13, size=(64, 8))
            dens = rng.integers(1, 7, size=(64, 8))
            expected = [tuple(Fraction(int(a), int(b)) for a, b in zip(row_n, row_d))
                        for row_n, row_d in zip(nums, dens)]
            pts = sample_fractions(np.random.default_rng(seed), 64)
            assert pts == expected
            assert all(type(v.numerator) is int and type(v.denominator) is int
                       for pt in pts for v in pt)


class TestReproducibility:
    def test_same_seed_same_points(self):
        a = sample_phase_points(np.random.default_rng(99), 20)
        b = sample_phase_points(np.random.default_rng(99), 20)
        assert np.array_equal(a, b)

    def test_algorithm_tag(self):
        assert RNG_ALGORITHM == "numpy-PCG64"
