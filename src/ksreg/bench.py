"""Near-collision benchmark: raw Kepler stepping vs regularized stepping.

Seeds are drawn on the unit oscillator level with angular momentum
|L| = lambda: q = (a,0,0,0), p = (0,0,c,0) with a^2 + c^2 = 2 and
ac = lambda.  The image orbit starts at apoapsis r0 = 1 + sqrt(1-l^2)
and dips to the analytic periapsis 1 - sqrt(1-l^2), which drops below
the collision guard once lambda <= 1e-3.

The raw method integrates the singular Cartesian field over one period
with the |x| < COLLISION_GUARD guard; the regularized method integrates the
linear oscillator over the matching parameter span and measures energy
through the image identities, where no cancellation occurs.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .invariants import H2, V1, eval_generator_columns
from .kepler_dynamics import collision_event, kepler_energy, kepler_rows, norm3, write_csv
from .ks_map import ks_batch, pulled_back_hamiltonian
from .ode import integrate_ode

DEFAULT_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
BENCH_CSV_HEADER = "|L|,method,steps,max_energy_drift,periapsis_error,failed"


@dataclass(frozen=True)
class BenchRow:
    l_norm: float
    method: str
    steps: int
    max_energy_drift: float
    periapsis_error: float
    failed: bool


def seed_state(l_norm: float) -> np.ndarray:
    """Oscillator-side seed with unit energy and |L| = l_norm."""
    if not 0 < l_norm <= 1:
        raise ValueError("l_norm must lie in (0, 1]")
    a = math.sqrt(1 + math.sqrt(1 - l_norm * l_norm))
    c = l_norm / a
    return np.array([a, 0, 0, 0, 0, 0, c, 0])


def analytic_periapsis(l_norm: float) -> float:
    return 1 - math.sqrt(1 - l_norm * l_norm)


def _oscillator_field(t, Z) -> list:
    """dq/dt = p, dp/dt = -q at each row (q, p) of Z, an integrate_ode field."""
    return [[p1, p2, p3, p4, -q1, -q2, -q3, -q4] for q1, q2, q3, q4, p1, p2, p3, p4 in Z]


def _raw_measure(S):
    """Energy drift and radius along (6, m) Kepler-side columns."""
    return kepler_energy(S) + 0.5, norm3(S[:3])


def _regularized_measure(S):
    """Energy drift and radius along (8, m) oscillator columns, through the image identities."""
    g = eval_generator_columns(S)
    return pulled_back_hamiltonian(g) - 1, g[H2] + g[V1]


def _block_rows(method, field, starts, t_end, event, measure, l_values) -> list:
    """One row per |L| value: its start integrated over (0, t_end) in one block of rows."""
    grid = np.linspace(0.0, t_end, 2001)
    runs = integrate_ode(field, starts, (0.0, t_end), t_eval=grid[1:-1], event=event)
    rows = []
    for l_norm, res in zip(l_values, runs):
        # A radius that underflows to 0 makes the drift NaN, which fails the row.
        with np.errstate(all="ignore"):
            drift, radii = measure(np.vstack([res.states, res.eval_states]).T)
        max_drift = float(np.max(np.abs(drift)))
        rows.append(BenchRow(
            l_norm=l_norm,
            method=method,
            steps=res.stats.steps,
            max_energy_drift=max_drift,
            periapsis_error=float(abs(np.min(radii) - analytic_periapsis(l_norm))),
            failed=res.status != "completed" or not math.isfinite(max_drift),
        ))
    return rows


def run_benchmark(l_values=DEFAULT_GRID) -> list:
    """One raw and one regularized row per |L| value, raw first.

    Each method integrates all its seeds as one block of rows, at
    integrate_ode's default tol and step budget.
    """
    if not l_values:
        return []
    seeds = np.array([seed_state(l) for l in l_values])
    raw = _block_rows(
        "raw_kepler", kepler_rows, ks_batch(seeds), 2 * math.pi,
        collision_event, _raw_measure, l_values,
    )
    regularized = _block_rows(
        "ks_regularized", _oscillator_field, seeds, math.pi, None, _regularized_measure, l_values,
    )
    return [row for pair in zip(raw, regularized) for row in pair]


def write_bench_csv(path, rows) -> None:
    """One line per BenchRow under BENCH_CSV_HEADER, each cell as write_csv writes it."""
    write_csv(path, BENCH_CSV_HEADER, [astuple(r) for r in rows])
