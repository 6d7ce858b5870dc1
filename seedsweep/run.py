"""Sweep the gates of ksreg verify's sampling suites over a range of seeds.

Each seed S is drawn as ``ksreg verify --seed S --samples N`` draws it:
one ``numpy.random.default_rng(S)``, then ``verify.SAMPLING_SUITES`` in
report order.  Each suite passes or fails on its gates in
``ksreg.verify.GATES``, and the sweep reads every margin from there, so a
suite added to ``SAMPLING_SUITES`` and to ``GATES`` is swept as it is.
The sweep prints, for every gated value, the seed that comes closest to
its bound, or the first seed where it is NaN, and the margin left there,
then each failing seed.  It exits 1 if any seed fails a gate; such a
seed becomes a pinned test, never a skipped seed.  Needs only the
standard library, numpy and ksreg.

Run from the root of a source checkout, with a RuntimeWarning an error as
in the tests:

    python3 -W error::RuntimeWarning seedsweep/run.py --first 0 --last 999
"""
import argparse
import math
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from ksreg import verify  # noqa: E402


def sweep_seed(seed: int, samples: int) -> list:
    """The sampling suites of ksreg verify --seed seed --samples samples."""
    rng = np.random.default_rng(seed)
    return [suite(rng, samples) for suite in verify.SAMPLING_SUITES]


def _rank(margin) -> tuple:
    """Orders margins from worst: a NaN first, then the least."""
    return (not math.isnan(margin), margin)


def sweep(seeds, samples: int):
    """The worst margin of each gated value, and the failing (seed, suite name) pairs.

    The first is {(suite name, quantity): (margin, seed, value, sense, bound)};
    a negative margin is a value past its bound, and a NaN margin ranks below all.
    """
    worst, failures = {}, []
    for seed in seeds:
        for suite in sweep_seed(seed, samples):
            if not suite["passed"]:
                failures.append((seed, suite["name"]))
            for quantity, value, sense, bound, margin in verify.margins(suite["name"],
                                                                        suite["details"]):
                key = (suite["name"], quantity)
                if key not in worst or _rank(margin) < _rank(worst[key][0]):
                    worst[key] = (margin, seed, value, sense, bound)
    return worst, failures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first", type=int, default=0, help="first seed")
    p.add_argument("--last", type=int, default=999, help="last seed, included")
    p.add_argument("--samples", type=int, default=1000,
                   help="points per suite, as ksreg verify --samples")
    args = p.parse_args(argv)
    if args.first < 0 or args.last < args.first or args.samples <= 0:
        p.error("needs 0 <= --first <= --last and --samples > 0")

    start = time.perf_counter()
    worst, failures = sweep(range(args.first, args.last + 1), args.samples)
    elapsed = time.perf_counter() - start
    print(f"seeds {args.first}-{args.last}, {args.samples} samples: "
          f"{len(failures)} failing suite runs, {elapsed:.2f} s")
    print(f"{'suite':<20s} {'quantity':<28s} {'worst seed':>10s} {'value':>12s} "
          f"{'gate':>14s} {'margin':>11s}")
    for (name, quantity), (margin, seed, value, sense, bound) in worst.items():
        print(f"{name:<20s} {quantity:<28s} {seed:>10d} {value:>12.4g} "
              f"{sense + ' ' + format(bound, '.4g'):>14s} {margin:>11.4g}")
    for seed, name in failures:
        print(f"FAIL seed {seed}: {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
