"""Seeded samplers for phase points on the level sets under study.

All sampling goes through numpy's default generator so runs are
reproducible from a single integer seed; reports name the algorithm as
RNG_ALGORITHM.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .invariants import grad_p_xi

RNG_ALGORITHM = "numpy-PCG64"


def _rescale_to_level(z: np.ndarray) -> np.ndarray:
    """Scale each row of z jointly onto the unit oscillator level H2 = 1.

    A joint rescale of (q, p) multiplies every quadratic invariant by
    the squared factor, so it keeps the zero-momentum slice and the
    collision set.
    """
    h2 = np.sum(z * z, axis=1) / 2
    # sqrt(1 / h2), not 1 / sqrt(h2): the two round differently.
    return z * np.sqrt(1 / h2)[:, None]


def sample_phase_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unconstrained (n, 8) standard-normal phase points."""
    return rng.standard_normal((n, 8))


def sample_xi_zero(rng: np.random.Generator, n: int) -> np.ndarray:
    """Points with the circle-action momentum projected to zero.

    The momentum is linear in p with gradient (-q2, q1, -q4, q3), whose
    squared norm is <q, q>; subtracting the right multiple zeroes it
    exactly up to rounding.
    """
    z = sample_phase_points(rng, n)
    q = z[:, :4]
    rq = grad_p_xi(z)
    xi = np.sum(rq * z[:, 4:], axis=1)
    z[:, 4:] -= (xi / np.sum(q * q, axis=1))[:, None] * rq
    return z


def sample_level_set(rng: np.random.Generator, n: int) -> np.ndarray:
    """Points on the (1, 0) level set: unit oscillator energy, zero momentum."""
    return _rescale_to_level(sample_xi_zero(rng, n))


def sample_collision_slice(rng: np.random.Generator, n: int) -> np.ndarray:
    """Collinear pairs p = mu*q rescaled to unit energy.

    Collinearity kills both the angular-momentum block and the circle
    momentum, so these land on the collision set of the unit level.
    """
    q = rng.standard_normal((n, 4))
    mu = rng.standard_normal(n)
    return _rescale_to_level(np.concatenate([q, mu[:, None] * q], axis=1))


def sample_even_integers(rng: np.random.Generator, n: int, limit: int = 50) -> np.ndarray:
    """(n, 8) even-integer points; exact in int64 arithmetic."""
    return 2 * rng.integers(-limit, limit + 1, size=(n, 8), dtype=np.int64)


def sample_fractions(rng: np.random.Generator, n: int) -> list:
    """n exact rational 8-tuples of Fraction, numerators in [-12, 12], denominators in [1, 6]."""
    nums = rng.integers(-12, 13, size=(n, 8)).tolist()
    dens = rng.integers(1, 7, size=(n, 8)).tolist()
    return [
        tuple(Fraction(a, b) for a, b in zip(row_n, row_d))
        for row_n, row_d in zip(nums, dens)
    ]
