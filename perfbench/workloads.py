"""The four workloads: how each draws an op's input, runs the op, checks it.

An op is one in-process ``ksreg.cli.main([...], standalone_mode=False)``
call, or for ``exact`` a CLI call followed by calls into the public exact
functions.  Inputs are drawn from the workload's seeded generator before
the op starts; the program sees only those inputs.  Each check reads the
files the op wrote and returns a list of problems, empty when the op is
correct, and folds the accuracy fields it reads into ``acc``.  After a
traced op, ``result["traced_steps"]`` holds the accepted steps that
integrate_ode returned, and the check compares them with the steps the
files report.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from ksreg import cli, invariants, orbit_space, sampling

ORBIT_FILES = ("oscillator", "ks_image", "kepler_integrated")


def _bump_max(acc, key, value):
    acc[key] = max(acc.get(key, 0.0), float(value))


def run_cli(args, out_dir, rec):
    """One CLI call with stdout captured; returns its exit code.

    Under tracing the call is a ``cli`` span whose work count is the
    bytes the command wrote: its files in out_dir plus its stdout.
    """
    os.makedirs(out_dir, exist_ok=True)
    buf = io.StringIO()
    span = rec.span("cli") if rec is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(buf), span as i:
        try:
            cli.main(args, standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    if rec is not None:
        rec.work[i] = len(buf.getvalue()) + sum(
            e.stat().st_size for e in os.scandir(out_dir) if e.is_file()
        )
    return code


class Verify:
    name = "verify"
    samples = 1000
    tiny = {"samples": 50}  # sizes for the self-check

    def draw(self, rng, i):
        return {"seed": int(rng.integers(0, 2**31))}

    def run(self, inp, wd, rec):
        out = os.path.join(wd, "verify", "verify_report.json")
        code = run_cli(["verify", "--samples", str(self.samples), "--seed", str(inp["seed"]),
                        "--out", out], os.path.dirname(out), rec)
        return self.samples, {"code": code, "path": out}

    def check(self, inp, result, acc):
        with open(result["path"]) as fh:
            report = json.load(fh)
        suites = {s["name"]: s["details"] for s in report["suites"]}
        residuals = [
            suites["orbit_relations"]["max_residual"],
            suites["lagrange_identities"]["max_residual"],
            suites["poisson_matrix"]["max_residual"],
            *suites["pullbacks"]["max_gaps"].values(),
        ]
        _bump_max(acc, "accuracy.verify.max_residual", max(residuals))
        problems = []
        if result["code"] != 0:
            problems.append(f"exit code {result['code']}")
        if report["passed"] is not True:
            failed = [s["name"] for s in report["suites"] if not s["passed"]]
            problems.append(f"suites failed: {failed}")
        return problems


class Race:
    name = "race"
    tiny = {}  # sizes for the self-check

    def draw(self, rng, i):
        # Four |L| values, log-uniform over [1e-5, 1e-1], stratified one
        # per decade: every op spans the whole range, which keeps the work
        # per op, and so the run-to-run spread, small.  Raw steps run from
        # ~430 (below |L| = 1.4e-3, where the periapsis dips under the
        # collision guard) to ~1000 (just above it).
        return {"grid": [float(10.0 ** rng.uniform(lo, lo + 1.0)) for lo in (-5.0, -4.0, -3.0, -2.0)]}

    def run(self, inp, wd, rec):
        out = os.path.join(wd, "race", "bench.json")
        grid = ",".join(format(v, ".17g") for v in inp["grid"])
        code = run_cli(["bench", "--format", "json", "--grid", grid, "--out", out],
                       os.path.dirname(out), rec)
        return 2 * len(inp["grid"]), {"code": code, "path": out}

    def check(self, inp, result, acc):
        if result["code"] != 0:
            return [f"exit code {result['code']}"]
        with open(result["path"]) as fh:
            rows = json.load(fh)
        problems = []
        if len(rows) != 2 * len(inp["grid"]):
            problems.append(f"{len(rows)} rows for a grid of {len(inp['grid'])}")
        steps = sum(r["steps"] for r in rows)
        if result.get("traced_steps", steps) != steps:
            problems.append(f"rows report {steps} steps, the integrator {result['traced_steps']}")
        raw = {r["l_norm"]: r for r in rows if r["method"] == "raw_kepler"}
        for r in rows:
            if r["method"] == "ks_regularized":
                _bump_max(acc, "accuracy.race.reg_drift_max", r["max_energy_drift"])
                if r["failed"] or not r["max_energy_drift"] <= 1e-8:
                    problems.append(f"regularized row |L|={r['l_norm']!r} failed or drifted")
                if r["l_norm"] <= 1e-3:
                    raw_row = raw[r["l_norm"]]
                    if not (raw_row["failed"] or raw_row["periapsis_error"] > 1e-2):
                        problems.append(f"raw row |L|={r['l_norm']!r} resolved the periapsis")
            else:
                _bump_max(acc, "accuracy.race.raw_periapsis_err_max", r["periapsis_error"])
        return problems


class Orbit:
    name = "orbit"
    tiny = {}  # sizes for the self-check

    def draw(self, rng, i):
        sampler = sampling.sample_collision_slice if i % 4 == 0 else sampling.sample_level_set
        state = sampler(rng, 1)[0]
        return {"state": [float(v) for v in state],
                "t_max": float(rng.uniform(math.pi, 2 * math.pi))}

    def run(self, inp, wd, rec):
        out_dir = os.path.join(wd, "orbit")
        state = ",".join(format(v, ".17g") for v in inp["state"])
        code = run_cli(["orbit", "--state", state, "--t-max", format(inp["t_max"], ".17g"),
                        "--out-dir", out_dir], out_dir, rec)
        return 1, {"code": code, "dir": out_dir}

    def check(self, inp, result, acc):
        if result["code"] != 0:
            return [f"exit code {result['code']}"]
        with open(os.path.join(result["dir"], "orbit_report.json")) as fh:
            report = json.load(fh)
        tables = [np.loadtxt(os.path.join(result["dir"], f"{f}.csv"), delimiter=",",
                             skiprows=1, ndmin=2) for f in ORBIT_FILES]
        problems = []
        if report["status"] not in ("completed", "event"):
            problems.append(f"status {report['status']}")
        numbers = [report["max_deviation"], report["t_max"], report.get("collision_time", 0.0)]
        if not all(math.isfinite(v) for v in numbers) or not all(
                np.all(np.isfinite(t)) for t in tables):
            problems.append("non-finite numbers in the report or CSVs")
        if report["status"] == "event" and not report.get("collision_time", 0.0) > 0:
            problems.append("event without a positive collision time")
        steps = report["integrator_stats"]["steps"]
        if result.get("traced_steps", steps) != steps:
            problems.append(f"report gives {steps} steps, the integrator {result['traced_steps']}")
        _bump_max(acc, "accuracy.orbit.max_deviation", report["max_deviation"])
        t_cols = [t[:, 0] for t in tables]
        if not all(np.array_equal(t_cols[0], t) for t in t_cols[1:]):
            acc["defects.orbit.grid_mismatch"] = acc.get("defects.orbit.grid_mismatch", 0) + 1
        return problems


class Exact:
    name = "exact"
    fractions = 128
    integer_rows = 256
    tiny = {"fractions": 8, "integer_rows": 16}  # sizes for the self-check

    def __init__(self):
        self.table_counts = None

    def draw(self, rng, i):
        return {"seed": int(rng.integers(0, 2**31))}

    def run(self, inp, wd, rec):
        out = os.path.join(wd, "exact", "table_audit.json")
        code = run_cli(["table", "--out", out], os.path.dirname(out), rec)
        rng = np.random.default_rng(inp["seed"])
        scalar = []
        for z in sampling.sample_fractions(rng, self.fractions):
            g = invariants.eval_generators(z)
            scalar.extend(orbit_space.relation_residuals(g).residuals.values())
            scalar.extend(lhs - rhs for lhs, rhs in
                          orbit_space.lagrange_identity_check(g).values())
        G = invariants.eval_generators_batch(sampling.sample_even_integers(rng, self.integer_rows))
        batch, _, _ = orbit_space.relation_residuals_batch(G)
        return self.fractions + self.integer_rows, {
            "code": code, "path": out, "scalar": scalar, "batch": list(batch.values()),
        }

    def check(self, inp, result, acc):
        if result["code"] != 0:
            return [f"exit code {result['code']}"]
        with open(result["path"]) as fh:
            audit = json.load(fh)
        counts = (audit["row_count"], audit["mismatch_count"])
        if self.table_counts is None:
            self.table_counts = counts
        nonzero = sum(1 for v in result["scalar"] if v != 0) + sum(
            int(np.count_nonzero(col)) for col in result["batch"])
        acc["accuracy.exact.nonzero"] = acc.get("accuracy.exact.nonzero", 0) + nonzero
        problems = []
        if nonzero:
            problems.append(f"{nonzero} nonzero exact residuals")
        if counts != self.table_counts:
            problems.append(f"table counts {counts} differ from the first op's {self.table_counts}")
        return problems


WORKLOADS = {w.name: w for w in (Verify, Race, Orbit, Exact)}
