"""The ksreg benchmark: four CLI workloads in fresh single-process closed loops.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client sends ops back to back, each after the previous one returned,
with no threads and BLAS/OpenMP pinned to one thread.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` alternates untraced and
traced runs of the same inputs and reports per-layer metrics from the
spans (see spans.py).  ``--workload all`` runs every workload in its own
fresh process.  The last line of stdout is one JSON result object.

README.md in this directory explains each workload and which layer metric
should move which end-to-end metric.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tomllib  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOAD_ORDER = ("verify", "race", "orbit", "exact")
# op_s.tail is the highest percentile with ten ops beyond it, so a timed
# loop runs on past --seconds until it holds MIN_OPS ops; with 21 the
# tail is never below the median.
MIN_OPS = 21
SETUP_RUNS = 3
# Median time of one calibrate() between ops on the VM the bounds were
# set on (2 vCPUs, Intel Xeon at 2.1 GHz).  Reported times are scaled to
# that machine speed; see calibrate().
CALIBRATION_S = 0.0095
SETUP_CODE = ("import time; t = time.perf_counter(); import ksreg.cli; "
              "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_ORDER + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every op, for the self-check; timings mean nothing")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def calibrate():
    """Seconds taken by a fixed mix of work that does not touch ksreg.

    The VM this benchmark was tuned on ran the same code 15-25% faster or
    slower from one minute to the next, in wall and in CPU time alike.  A
    calibration just before and just after each timed interval measures
    the machine's speed at that moment; scaling the interval by
    CALIBRATION_S over their mean removes most of that drift.  The mix
    resembles ksreg's own: scalar float loops, dict updates, calls on
    small numpy arrays and Fraction arithmetic.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        x = 0.0
        for i in range(6000):
            x += (i * 0.5) ** 0.5
        d = {}
        for i in range(2000):
            d[i % 17] = d.get(i % 17, 0) + i
        a = np.arange(8.0)
        for _ in range(300):
            a = np.sqrt(a + 1.0)
        f = Fraction(1, 3)
        for i in range(300):
            f = f * Fraction(i + 1, i + 2) + 1
    return time.perf_counter() - t0


class Scaled:
    """Wall intervals and the same intervals at the reference speed."""

    def __init__(self):
        self.wall, self.scaled = [], []
        self._before = calibrate()
        self.calibrations = [self._before]

    def add(self, seconds):
        after = calibrate()
        self.calibrations.append(after)
        self.wall.append(seconds)
        self.scaled.append(seconds * CALIBRATION_S / ((self._before + after) / 2))
        self._before = after


def measure_setup(runs):
    """``import ksreg.cli`` in each of `runs` fresh processes, as Scaled.

    Byte-compiling the package first keeps the one-time .pyc build of a
    fresh checkout out of the figures; a CLI user pays only the import.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "ksreg")],
                   cwd=ROOT, capture_output=True, timeout=120, check=True)
    times = Scaled()
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        times.add(float(proc.stdout.split()[-1]))
    return times


def run_record(args, wall_s):
    import scipy

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        ksreg_version = tomllib.load(fh)["project"]["version"]
    return {
        "versions": {
            "ksreg": ksreg_version,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "click": importlib.metadata.version("click"),
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "argv": sys.argv,
        "wall_s": wall_s,
    }


def attempt(workload, inp, wd, rec, acc):
    """Run and check one op; returns (seconds, items, problems)."""
    t0 = time.perf_counter()
    try:
        if rec is None:
            items, result = workload.run(inp, wd, None)
        else:
            steps_before = rec.counts.get("ode.steps", 0)
            with rec.tracing():
                items, result = workload.run(inp, wd, rec)
            # Accepted steps the integrator returned, for the check to
            # compare with the steps the op's files report.
            result["traced_steps"] = rec.counts.get("ode.steps", 0) - steps_before
        problems = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        problems = [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - t0
    if problems is None:
        try:
            problems = workload.check(inp, result, acc)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    return elapsed, (0 if problems else items), problems


def report_failure(name, seed, i, inp, problems):
    print(f"  FAILED {name} op {i} (seed {seed}) input {json.dumps(inp)}: {'; '.join(problems)}")


def run_untraced(args, workload, rng, wd):
    durations, items, failed = Scaled(), 0, 0
    acc = {}
    i = 0
    while sum(durations.wall) < args.seconds or len(durations.wall) < MIN_OPS:
        inp = workload.draw(rng, i)
        dt, n, problems = attempt(workload, inp, wd, None, acc)
        durations.add(dt)
        items += n
        if problems:
            failed += 1
            report_failure(workload.name, args.seed, i, inp, problems)
        i += 1
    return durations, items, failed


def run_traced(args, workload, rng, wd):
    """Untraced and traced runs of the same input, alternating which goes first."""
    from spans import Recorder

    rec = Recorder()
    acc = {}
    spent = {False: 0.0, True: 0.0}
    attempted = failed = 0
    i = 0
    while spent[False] + spent[True] < args.seconds or i == 0:
        inp = workload.draw(rng, i)
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            dt, _, problems = attempt(workload, inp, wd, rec if traced else None,
                                      acc if traced else {})
            spent[traced] += dt
            attempted += 1
            if problems:
                failed += 1
                report_failure(workload.name, args.seed, i, inp, problems)
        i += 1
    return rec, acc, spent, attempted, failed


def run_one(args):
    import metrics
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload]()
    if args.tiny:
        vars(workload).update(workload.tiny)
    rng = np.random.default_rng([args.seed, WORKLOAD_ORDER.index(args.workload)])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wd = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    t0 = time.perf_counter()
    try:
        if args.trace == 0:
            setup = measure_setup(1 if args.tiny else SETUP_RUNS)
            durations, items, failed = run_untraced(args, workload, rng, wd)
            attempted = len(durations.wall)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            values = metrics.end_to_end(durations.scaled, items, setup.scaled, rss_mb)
            wall = metrics.end_to_end(durations.wall, items, setup.wall, rss_mb)
            declared = spec["end_to_end"]
            _, pct = metrics.tail(durations.wall)
            notes = {name: f"wall {wall[name]:.6g}" for name in values if name != "peak_rss_mb"}
            notes["setup_s"] += f", median of {len(setup.wall)} fresh imports of ksreg.cli"
            notes["op_s.tail"] += f", p{pct:.1f} of {attempted} ops"
            calibration_s = statistics.median(durations.calibrations)
            extra = [f"  {'fail_frac':<40s} {failed / attempted:.6g} ({failed} of {attempted} ops)",
                     f"  times are scaled by {CALIBRATION_S} s over calibrations of median "
                     f"{calibration_s:.6g} s"]
        else:
            rec, acc, spent, attempted, failed = run_traced(args, workload, rng, wd)
            values = metrics.per_layer(rec.layer_totals(), rec.counts, acc, rec.ops,
                                       spent[True], spent[False])
            declared = spec["per_layer"]
            notes = {"defects.orbit.grid_mismatch": f"of {rec.ops} traced ops"}
            extra = []
            # One spans file per workload, overwritten by the next traced run,
            # keeps the disk use of repeated runs bounded.
            rec.write(os.path.join(OUT, f"spans-{args.workload}.npz"))
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    wall_s = time.perf_counter() - t0

    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = dict(run_record(args, wall_s), workload=args.workload, trace=args.trace,
                  result=result)
    if args.trace == 0:
        record.update(wall_metrics=wall, calibration_s=calibration_s)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"ksreg benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {failed} failed, {wall_s:.1f} s wall")
    for m in declared:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:<40s} {values[m['name']]:.6g} {m['unit']}{note}")
    for line in extra:
        print(line)
    print(json.dumps(result))


def run_all(args):
    """Every workload in its own fresh process, one after another."""
    results, walls = {}, {}
    for name in WORKLOAD_ORDER:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        walls[name] = time.perf_counter() - t0
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    record = dict(run_record(args, walls), workload="all", trace=args.trace)
    with open(os.path.join(OUT, f"run-all-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ksreg", "__init__.py")):
        raise SystemExit(f"no ksreg source under {SRC}: run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import ksreg

    if not os.path.abspath(ksreg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"ksreg imported from {ksreg.__file__}, not from {SRC}")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
