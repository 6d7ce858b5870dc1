"""Near-collision benchmark: raw Kepler stepping vs regularized stepping.

Seeds are drawn on the unit oscillator level with angular momentum
|L| = lambda: q = (a,0,0,0), p = (0,0,c,0) with a^2 + c^2 = 2 and
ac = lambda.  The image orbit starts at apoapsis r0 = 1 + sqrt(1-l^2)
and dips to the analytic periapsis 1 - sqrt(1-l^2), which drops below
the collision guard once lambda <= 1e-3.

The raw method integrates the singular Cartesian field over one period
with the |x| < 1e-6 guard; the regularized method integrates the
linear oscillator over the matching parameter span and measures energy
through the image identities, where no cancellation occurs.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .invariants import eval_generators_batch
from .kepler_dynamics import kepler_vector_field
from .ks_map import ks_batch
from .ode import integrate_ode

DEFAULT_GRID = (1e-1, 1e-2, 1e-3, 1e-4)
COLLISION_GUARD = 1e-6
BENCH_CSV_HEADER = "|L|,method,steps,max_energy_drift,periapsis_error,failed"


@dataclass(frozen=True)
class BenchRow:
    l_norm: float
    method: str
    steps: int
    max_energy_drift: float
    periapsis_error: float
    failed: bool

    def to_csv_row(self) -> str:
        return ",".join([
            format(self.l_norm, ".17g"),
            self.method,
            str(self.steps),
            format(self.max_energy_drift, ".17g"),
            format(self.periapsis_error, ".17g"),
            "true" if self.failed else "false",
        ])

    def to_json_dict(self) -> dict:
        return asdict(self)


def seed_state(l_norm: float) -> np.ndarray:
    """Oscillator-side seed with unit energy and |L| = l_norm."""
    if not 0 < l_norm <= 1:
        raise ValueError("l_norm must lie in (0, 1]")
    a = math.sqrt(1 + math.sqrt(1 - l_norm * l_norm))
    c = l_norm / a
    return np.array([a, 0, 0, 0, 0, 0, c, 0])


def analytic_periapsis(l_norm: float) -> float:
    return 1 - math.sqrt(1 - l_norm * l_norm)


def _oscillator_field(t, z):
    return np.concatenate([z[4:], -z[:4]])


def _collect_states(res) -> np.ndarray:
    parts = [res.states]
    if res.eval_states is not None and res.eval_states.size:
        parts.append(res.eval_states)
    return np.vstack(parts)


def _run_regularized(l_norm, rtol, atol, max_steps) -> BenchRow:
    z0 = seed_state(l_norm)
    grid = np.linspace(0.0, math.pi, 2001)
    res = integrate_ode(
        _oscillator_field, z0, (0.0, math.pi),
        rtol=rtol, atol=atol, max_steps=max_steps, t_eval=grid[1:-1],
    )
    states = _collect_states(res)
    gens = eval_generators_batch(states)
    h2, xi, v1 = gens[:, 6], gens[:, 7], gens[:, 12]
    radii = h2 + v1
    energy = h2 - xi * xi / (2 * radii)
    return BenchRow(
        l_norm=l_norm,
        method="ks_regularized",
        steps=res.stats.steps,
        max_energy_drift=float(np.max(np.abs(energy - 1))),
        periapsis_error=float(abs(np.min(radii) - analytic_periapsis(l_norm))),
        failed=res.status != "completed",
    )


def _run_raw(l_norm, rtol, atol, max_steps) -> BenchRow:
    w0 = ks_batch(seed_state(l_norm))[0]
    grid = np.linspace(0.0, 2 * math.pi, 2001)
    res = integrate_ode(
        lambda t, w: kepler_vector_field(w), w0, (0.0, 2 * math.pi),
        rtol=rtol, atol=atol, max_steps=max_steps, t_eval=grid[1:-1],
        event=lambda t, w: w[:3] @ w[:3] - COLLISION_GUARD**2,
    )
    states = _collect_states(res)
    radii = np.linalg.norm(states[:, :3], axis=1)
    energy = np.sum(states[:, 3:] ** 2, axis=1) / 2 - 1 / radii
    return BenchRow(
        l_norm=l_norm,
        method="raw_kepler",
        steps=res.stats.steps,
        max_energy_drift=float(np.max(np.abs(energy + 0.5))),
        periapsis_error=float(abs(np.min(radii) - analytic_periapsis(l_norm))),
        failed=res.status != "completed",
    )


def run_benchmark(
    l_values=DEFAULT_GRID,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    max_steps: int = 50_000,
) -> list:
    """One raw and one regularized row per |L| value, raw first."""
    rows = []
    for l_norm in l_values:
        rows.append(_run_raw(l_norm, rtol, atol, max_steps))
        rows.append(_run_regularized(l_norm, rtol, atol, max_steps))
    return rows


def write_bench_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(BENCH_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv_row() + "\n")
