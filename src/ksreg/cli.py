"""Command line entry points: verify, orbit, bench, and table.

Every command writes a machine-readable file and prints a short human
summary.  Reports are deterministic for a fixed seed: keys are sorted
and numpy scalars are converted before serialization.
"""

import json
import math
import os
import sys

import click
import numpy as np

from .bench import DEFAULT_GRID, run_benchmark, write_bench_csv
from .flows import ks_relatedness_harness, oscillator_trajectory
from .kepler_dynamics import write_trajectory_csv
from .quadratic_poisson import reference_table_diff
from .sampling import RNG_ALGORITHM
from .verify import run_suites


def _write_oscillator_csv(path, traj) -> None:
    with open(path, "w") as fh:
        fh.write("t,q1,q2,q3,q4,p1,p2,p3,p4,H2,Xi\n")
        for i, t in enumerate(traj.times):
            row = [
                t,
                *traj.states[i],
                traj.conserved_log["H2"][i],
                traj.conserved_log["Xi"][i],
            ]
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


@click.group()
def main():
    """Verification and integration tools for the regularized Kepler flow."""


@main.command()
@click.option("--seed", type=int, default=0, show_default=True, help="RNG seed.")
@click.option(
    "--tolerance",
    type=float,
    default=1e-10,
    show_default=True,
    help="Largest residual accepted by the floating-point suites.",
)
@click.option(
    "--samples",
    type=int,
    default=1000,
    show_default=True,
    help="Random phase points per suite.",
)
@click.option(
    "--out",
    type=click.Path(dir_okay=False, writable=True),
    default="verify_report.json",
    show_default=True,
)
def verify(seed, tolerance, samples, out):
    """Run the identity suites and write a JSON report.

    Exits 0 when every suite passes and 1 otherwise; the report is
    written either way.
    """
    if samples <= 0:
        raise click.UsageError("--samples must be positive")
    if tolerance < 0:
        raise click.UsageError("--tolerance must be nonnegative")
    suites = run_suites(np.random.default_rng(seed), samples, tolerance)
    report = {
        "rng": RNG_ALGORITHM,
        "seed": seed,
        "samples": samples,
        "tolerance": tolerance,
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for s in suites:
        click.echo(f"{s['name']}: {'pass' if s['passed'] else 'FAIL'}")
    click.echo(f"report written to {out}")
    if not report["passed"]:
        sys.exit(1)


@main.command()
@click.option(
    "--state",
    default="1,0,0,0,0,0,1,0",
    show_default=True,
    help="Start point as eight comma-separated numbers q1..q4,p1..p4.",
)
@click.option(
    "--t-max",
    type=float,
    default=2 * math.pi,
    show_default=True,
    help="Flow parameter to integrate up to.",
)
@click.option(
    "--samples",
    type=int,
    default=256,
    show_default=True,
    help="Comparison points along the curve.",
)
@click.option(
    "--out-dir",
    type=click.Path(file_okay=False),
    default=".",
    show_default=True,
)
def orbit(state, t_max, samples, out_dir):
    """Push one seed through both flows and write the curves.

    Writes the closed-form chart curve, its image, and the curve the
    integrator produces from the shared start, plus a JSON report with
    the sup gap between the last two.
    """
    try:
        values = tuple(float(s) for s in state.split(","))
    except ValueError:
        raise click.UsageError("--state must be a comma-separated list of numbers")
    if len(values) != 8:
        raise click.UsageError("--state needs exactly eight entries")
    if samples < 2:
        raise click.UsageError("--samples must be at least 2")
    try:
        result = ks_relatedness_harness(values, t_max, samples=samples)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    os.makedirs(out_dir, exist_ok=True)
    grid = np.linspace(0.0, t_max, samples) if t_max > 0 else np.zeros(1)
    paths = {
        "oscillator": os.path.join(out_dir, "oscillator.csv"),
        "ks_image": os.path.join(out_dir, "ks_image.csv"),
        "kepler_integrated": os.path.join(out_dir, "kepler_integrated.csv"),
        "report": os.path.join(out_dir, "orbit_report.json"),
    }
    _write_oscillator_csv(paths["oscillator"], oscillator_trajectory(values, grid))
    write_trajectory_csv(paths["ks_image"], result.times, result.ks_image)
    write_trajectory_csv(paths["kepler_integrated"], result.times, result.integrated)

    report = result.to_json_dict()
    report["state"] = [float(v) for v in values]
    report["files"] = {k: v for k, v in paths.items() if k != "report"}
    with open(paths["report"], "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    click.echo(
        f"status {result.status}: max deviation {result.max_deviation:.3e} "
        f"over [0, {result.t_max:g}]"
    )
    if result.collision_time is not None:
        click.echo(
            f"orbit collapses onto the center: physical collision time "
            f"{result.collision_time:.12g}"
        )
    click.echo(f"report written to {paths['report']}")


@main.command()
@click.option(
    "--grid",
    default=",".join(format(v, "g") for v in DEFAULT_GRID),
    show_default=True,
    help="Angular momentum norms to sweep, comma separated.",
)
@click.option(
    "--tolerance",
    type=float,
    default=1e-10,
    show_default=True,
    help="Integrator rtol and atol.",
)
@click.option("--out", default="bench.csv", show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
def bench(grid, tolerance, out, fmt):
    """Race the raw and regularized integrations toward collision."""
    try:
        values = tuple(float(s) for s in grid.split(",") if s.strip())
    except ValueError:
        raise click.UsageError("--grid must be a comma-separated list of numbers")
    if not values:
        raise click.UsageError("--grid needs at least one value")
    if any(not 0 < v <= 1 for v in values):
        raise click.UsageError("--grid values must lie in (0, 1]")
    rows = run_benchmark(l_values=values, rtol=tolerance, atol=tolerance)
    if fmt == "csv":
        write_bench_csv(out, rows)
    else:
        with open(out, "w") as fh:
            json.dump([r.to_json_dict() for r in rows], fh, indent=2, sort_keys=True)
            fh.write("\n")
    for r in rows:
        flag = "FAILED" if r.failed else "ok"
        click.echo(
            f"|L| = {r.l_norm:<8g} {r.method:<15s} steps {r.steps:>6d}  "
            f"drift {r.max_energy_drift:.3e}  {flag}"
        )
    click.echo(f"table written to {out}")


@main.command()
@click.option("--out", default="table_audit.json", show_default=True)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "csv"]),
    default="json",
    show_default=True,
)
def table(out, fmt):
    """Audit the transcribed induced-field table against the brackets.

    Mismatching rows record where the transcription disagrees with the
    regenerated expressions; they are reported, not failed.
    """
    diff = reference_table_diff()
    mismatches = sum(1 for r in diff if not r["match"])
    if fmt == "json":
        payload = {
            "rows": diff,
            "row_count": len(diff),
            "mismatch_count": mismatches,
        }
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write("field,component,transcribed,regenerated,match\n")
            for r in diff:
                flag = "true" if r["match"] else "false"
                fh.write(
                    f"{r['field']},{r['component']},{r['transcribed']},"
                    f"{r['regenerated']},{flag}\n"
                )
    click.echo(f"{len(diff)} nonzero components, {mismatches} transcription mismatches")
    click.echo(f"audit written to {out}")
