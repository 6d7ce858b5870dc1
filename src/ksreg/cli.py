"""Command line entry points: verify, orbit, bench, and table.

Every command writes a machine-readable file and prints a short human
summary.  It creates the missing directories of its output (--out's
parent, or orbit's --out-dir) before it runs.  Reports are
deterministic for a fixed seed: keys are sorted and numpy scalars are
converted before serialization.
"""

import json
import math
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from .bench import DEFAULT_GRID, run_benchmark, write_bench_csv
from .flows import ks_relatedness_harness
from .invariants import H2, XI, eval_generator_columns
from .kepler_dynamics import write_csv, write_trajectory_csv
from .quadratic_poisson import reference_table_diff
from .sampling import RNG_ALGORITHM
from .verify import run_suites


def _make_dir(path, option: str) -> None:
    """Create the missing directories of path, before the run writes into it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise click.UsageError(f"cannot create the directory of {option}: {exc}")


def _out_option(default: str):
    """--out, a file: an existing directory is a usage error, raised before the run."""
    return click.option("--out", type=click.Path(dir_okay=False, writable=True),
                        default=default, show_default=True)


def _make_parent(out) -> None:
    """Create the missing directories above an --out file."""
    _make_dir(os.path.dirname(os.path.abspath(out)), "--out")


def _write_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _write_oscillator_csv(path, times, chart) -> None:
    g = eval_generator_columns(chart.T)
    table = np.column_stack([times, chart, g[H2], g[XI]])
    write_csv(path, "t,q1,q2,q3,q4,p1,p2,p3,p4,H2,Xi", table)


@click.group()
def main():
    """Verification and integration tools for the regularized Kepler flow."""


@main.command()
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True, help="RNG seed.")
@click.option(
    "--samples",
    type=int,
    default=1000,
    show_default=True,
    help="Random phase points per suite.",
)
@_out_option("verify_report.json")
def verify(seed, samples, out):
    """Run the identity suites and write a JSON report.

    Exits 0 when every suite passes and 1 otherwise; the report is
    written either way.
    """
    if samples <= 0:
        raise click.UsageError("--samples must be positive")
    _make_parent(out)
    suites = run_suites(np.random.default_rng(seed), samples)
    report = {
        "rng": RNG_ALGORITHM,
        "seed": seed,
        "samples": samples,
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
    _write_json(out, report)
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
    the sup gap between the last two.  The three curves share one grid
    of samples + 1 times, cut at the collision guard when the orbit
    falls onto the center.
    """
    try:
        values = tuple(float(s) for s in state.split(","))
    except ValueError:
        raise click.UsageError("--state must be a comma-separated list of numbers")
    _make_dir(out_dir, "--out-dir")
    try:
        result = ks_relatedness_harness(values, t_max, samples=samples)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    paths = {
        "oscillator": os.path.join(out_dir, "oscillator.csv"),
        "ks_image": os.path.join(out_dir, "ks_image.csv"),
        "kepler_integrated": os.path.join(out_dir, "kepler_integrated.csv"),
        "report": os.path.join(out_dir, "orbit_report.json"),
    }
    _write_oscillator_csv(paths["oscillator"], result.times, result.chart)
    write_trajectory_csv(paths["ks_image"], result.times, result.ks_image)
    write_trajectory_csv(paths["kepler_integrated"], result.times, result.integrated)

    report = {
        "state": list(values),
        "t_max": result.t_max,
        "max_deviation": result.max_deviation,
        "integrator_stats": asdict(result.stats),
        "status": result.status,
        "files": {k: v for k, v in paths.items() if k != "report"},
    }
    if result.collision_time is not None:
        report["collision_time"] = result.collision_time
    _write_json(paths["report"], report)

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
@_out_option("bench.csv")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
)
def bench(grid, out, fmt):
    """Race the raw and regularized integrations toward collision."""
    try:
        values = tuple(float(s) for s in grid.split(",") if s.strip())
    except ValueError:
        raise click.UsageError("--grid must be a comma-separated list of numbers")
    if not values:
        raise click.UsageError("--grid needs at least one value")
    _make_parent(out)
    try:
        rows = run_benchmark(l_values=values)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "csv":
        write_bench_csv(out, rows)
    else:
        _write_json(out, [asdict(r) for r in rows])
    for r in rows:
        flag = "FAILED" if r.failed else "ok"
        click.echo(
            f"|L| = {r.l_norm:<8g} {r.method:<15s} steps {r.steps:>6d}  "
            f"drift {r.max_energy_drift:.3e}  {flag}"
        )
    click.echo(f"table written to {out}")


@main.command()
@_out_option("table_audit.json")
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
    _make_parent(out)
    diff = reference_table_diff()
    mismatches = sum(1 for r in diff if not r["match"])
    if fmt == "json":
        _write_json(out, {"rows": diff, "row_count": len(diff), "mismatch_count": mismatches})
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
