"""End-to-end and per-layer metric values, keyed by their BENCHMARK.json names.

Units, bounds and directions live only in BENCHMARK.json; run.py joins
them to the values computed here and refuses to print a result whose
names differ from the declared ones.
"""
from __future__ import annotations

import statistics

# (span name, which is also the metric prefix; work count name; has calls)
SPAN_METRICS = (
    ("invariants.scalar", None, True),
    ("invariants.exact", None, True),
    ("invariants.batch", "rows", False),
    ("ks_map.ks", None, True),
    ("ks_map.pullback", None, True),
    ("ks_map.poisson", None, True),
    ("orbit_space.scalar", None, True),
    ("orbit_space.batch", "rows", False),
    ("quadratic_poisson.bracket", None, True),
    ("quadratic_poisson.decompose", None, True),
    ("kepler_dynamics.rhs", None, True),
    ("kepler_dynamics.csv", "rows", False),
    ("ode", None, True),
    ("flows.harness", None, False),
    ("flows.trajectory", None, False),
    ("flows.collision", None, True),
    ("sampling", "points", False),
    ("bench", None, False),
    ("cli", "out_bytes", False),
)

ACCURACY = (
    "accuracy.verify.max_residual",
    "accuracy.race.reg_drift_max",
    "accuracy.race.raw_periapsis_err_max",
    "accuracy.orbit.max_deviation",
    "accuracy.exact.nonzero",
    "defects.orbit.grid_mismatch",
)

_NO_SPANS = {"calls": 0, "work": 0, "self_s": 0.0, "total_s": 0.0}


def tail(durations: list):
    """(value, percentile) of the highest percentile with >= 10 ops beyond it.

    Needs more than 10 ops; run.py's MIN_OPS guarantees that.
    """
    n = len(durations)
    k = n - 10
    return sorted(durations)[k - 1], 100.0 * k / n


def end_to_end(durations, items, setup_runs, peak_rss_mb) -> dict:
    """The timed loop's metrics; items counts only ops that passed."""
    value, _ = tail(durations)
    return {
        "setup_s": statistics.median(setup_runs),
        "items_per_s": items / sum(durations),
        "op_s.p50": statistics.median(durations),
        "op_s.tail": value,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(totals: dict, counts: dict, accuracy: dict, n_ops: int,
              traced_s: float, untraced_s: float) -> dict:
    """Per-op layer metrics from span totals, plus accuracy and trace cost.

    Every metric is present on every workload; a layer the workload
    does not reach reads 0.
    """
    out = {}
    for span, work, has_calls in SPAN_METRICS:
        t = totals.get(span, _NO_SPANS)
        if has_calls:
            out[f"{span}.calls"] = t["calls"] / n_ops
        if work:
            out[f"{span}.{work}"] = t["work"] / n_ops
        out[f"{span}.self_s"] = t["self_s"] / n_ops
        if span == "kepler_dynamics.csv":
            out["kepler_dynamics.csv.bytes"] = counts.get("kepler_dynamics.csv.bytes", 0) / n_ops

    steps = counts.get("ode.steps", 0)
    rejected = counts.get("ode.rejected", 0)
    rhs = totals.get("ode.rhs", _NO_SPANS)
    event = totals.get("ode.event", _NO_SPANS)
    out.update({
        "ode.steps": steps / n_ops,
        "ode.rejected": rejected / n_ops,
        "ode.accept_ratio": steps / (steps + rejected) if steps + rejected else 0.0,
        "ode.rhs_evals": counts.get("ode.rhs_evals", 0) / n_ops,
        "ode.rhs_s": rhs["total_s"] / n_ops,
        "ode.event_evals": event["calls"] / n_ops,
        "ode.event_s": event["total_s"] / n_ops,
        "ode.dense_points": counts.get("ode.dense_points", 0) / n_ops,
        "ode.us_per_step": (totals.get("ode", _NO_SPANS)["self_s"] / steps * 1e6
                            if steps else 0.0),
    })
    out.update({name: accuracy.get(name, 0.0) for name in ACCURACY})
    out["trace.overhead_frac"] = traced_s / untraced_s - 1
    reported = {span for span, _, _ in SPAN_METRICS}
    # Time inside ops that no reported self time covers: the op span's
    # own glue and the closures integrate_ode calls as f and event.
    out["trace.unattributed_s"] = sum(
        t["self_s"] for name, t in totals.items() if name not in reported
    ) / n_ops
    return out
