"""Tiny-mode self-check of the benchmark: names, units and result schema.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

It checks BENCHMARK.json against the names and units pinned below, runs
every workload in tiny mode with and without tracing and checks each
result line against the same pins, and checks that the benchmark refuses
to run where the ksreg source is missing.  No timing is checked.  Exits
nonzero on the first mismatch.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["verify", "race", "orbit", "exact"]
END_TO_END = {
    "items_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s", "peak_rss_mb": "MB", "setup_s": "s",
}
_BY_UNIT = {
    "calls/op": """invariants.scalar.calls invariants.exact.calls ks_map.ks.calls
        ks_map.pullback.calls ks_map.poisson.calls orbit_space.scalar.calls
        quadratic_poisson.bracket.calls quadratic_poisson.decompose.calls
        kepler_dynamics.rhs.calls ode.calls ode.rhs_evals ode.event_evals
        flows.collision.calls""",
    "s/op": """invariants.scalar.self_s invariants.exact.self_s invariants.batch.self_s
        ks_map.ks.self_s ks_map.pullback.self_s ks_map.poisson.self_s
        orbit_space.scalar.self_s orbit_space.batch.self_s
        quadratic_poisson.bracket.self_s quadratic_poisson.decompose.self_s
        kepler_dynamics.rhs.self_s kepler_dynamics.csv.self_s ode.self_s ode.rhs_s
        ode.event_s flows.harness.self_s flows.trajectory.self_s flows.collision.self_s
        sampling.self_s bench.self_s cli.self_s trace.unattributed_s""",
    "rows/op": "invariants.batch.rows orbit_space.batch.rows kepler_dynamics.csv.rows",
    "B/op": "kepler_dynamics.csv.bytes cli.out_bytes",
    "points/op": "ode.dense_points sampling.points",
    "steps/op": "ode.steps ode.rejected",
    "us/step": "ode.us_per_step",
    "ratio": "ode.accept_ratio trace.overhead_frac",
    "abs": """accuracy.verify.max_residual accuracy.race.reg_drift_max
        accuracy.race.raw_periapsis_err_max accuracy.orbit.max_deviation""",
    "count": "accuracy.exact.nonzero defects.orbit.grid_mismatch",
}
PER_LAYER = {name: unit for unit, names in _BY_UNIT.items() for name in names.split()}


def fail(message):
    raise SystemExit(f"selfcheck: {message}")


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        fail(f"workloads {[w['name'] for w in spec['workloads']]} != {WORKLOADS}")
    for key, pinned in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != pinned:
            fail(f"BENCHMARK.json {key} differs from the pins: "
                 f"{sorted(set(declared.items()) ^ set(pinned.items()))}")


def check_result(where, result, pinned):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{where}: {result['failed']} failed ops")
    if not (type(result["attempted"]) is int and result["attempted"] >= 1):
        fail(f"{where}: attempted {result['attempted']!r}")
    if set(result["metrics"]) != set(pinned):
        fail(f"{where}: metric names differ: {sorted(set(result['metrics']) ^ set(pinned))}")
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != pinned[name]:
            fail(f"{where}: metric {name} is {m}")
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            fail(f"{where}: metric {name} has value {m['value']!r}")


def check_runs():
    for trace, pinned in ((0, END_TO_END), (1, PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all", "--tiny",
             "--seed", "0", "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"trace {trace} run exited {proc.returncode}: {proc.stderr[-2000:]}")
        combined = json.loads(proc.stdout.splitlines()[-1])
        if list(combined["workloads"]) != WORKLOADS:
            fail(f"trace {trace}: workloads {list(combined['workloads'])}")
        for name, result in combined["workloads"].items():
            check_result(f"{name} trace {trace}", result, pinned)


def check_refuses_without_source():
    bare = os.path.join(HERE, "out", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload",
             "race", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("the benchmark ran without the ksreg source")


def main():
    check_spec()
    check_runs()
    check_refuses_without_source()
    print(f"selfcheck: ok ({len(END_TO_END)} end-to-end and {len(PER_LAYER)} per-layer "
          f"metrics on {len(WORKLOADS)} workloads)")


if __name__ == "__main__":
    main()
