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


def _rescale_to_level(z: np.ndarray, h: float) -> np.ndarray:
    """Scale each row of z jointly onto the oscillator level H2 = h.

    A joint rescale of (q, p) multiplies every quadratic invariant by
    the squared factor, so it keeps the zero-momentum slice and the
    collision set.
    """
    h2 = np.sum(z * z, axis=1) / 2
    return z * np.sqrt(h / h2)[:, None]


def sample_phase_points(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Unconstrained (n, 8) standard-normal phase points."""
    return scale * rng.standard_normal((n, 8))


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


def sample_level_set(rng: np.random.Generator, n: int, h: float = 1.0) -> np.ndarray:
    """Points on the h-level of the oscillator energy with zero momentum."""
    if not h > 0:
        raise ValueError("h must be positive")
    return _rescale_to_level(sample_xi_zero(rng, n), h)


def sample_collision_slice(rng: np.random.Generator, n: int) -> np.ndarray:
    """Collinear pairs p = mu*q rescaled to unit energy.

    Collinearity kills both the angular-momentum block and the circle
    momentum, so these land on the collision set of the unit level.
    """
    q = rng.standard_normal((n, 4))
    mu = rng.standard_normal(n)
    return _rescale_to_level(np.concatenate([q, mu[:, None] * q], axis=1), 1)


def sample_even_integers(rng: np.random.Generator, n: int, limit: int = 50) -> np.ndarray:
    """(n, 8) even-integer points; exact in int64 arithmetic."""
    return 2 * rng.integers(-limit, limit + 1, size=(n, 8), dtype=np.int64)


def sample_fractions(rng: np.random.Generator, n: int, max_numerator: int = 12,
                     max_denominator: int = 6) -> list:
    """n exact rational phase points as 8-tuples of Fraction."""
    nums = rng.integers(-max_numerator, max_numerator + 1, size=(n, 8))
    dens = rng.integers(1, max_denominator + 1, size=(n, 8))
    return [
        tuple(Fraction(int(a), int(b)) for a, b in zip(row_n, row_d))
        for row_n, row_d in zip(nums, dens)
    ]
