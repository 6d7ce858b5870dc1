"""Span recording around ksreg's layers, driven from outside the package.

While a traced op runs, every public layer function listed in LAYERS is
rebound, in its defining module and at every ksreg import site, to a
wrapper that records one span: name, parent, op, start, end and a work
count (rows, points, bytes).  Spans live in flat arrays in memory and are
written out once, at the end of the run.  Outside a traced op the
original functions are bound again, so untraced ops run unmodified code.

A layer's self time is its spans' duration minus the time their direct
child spans cover; a span nested directly in one of the same name (for
example a sampler calling another sampler) is folded into its parent, so
it adds no call and no work.
"""
from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

KSREG_MODULES = (
    "bench", "cli", "flows", "invariants", "kepler_dynamics", "ks_map",
    "ode", "orbit_space", "quadratic_poisson", "sampling",
)


def _rows(rec, args, out):
    return len(out)


def _batch_rows(rec, args, out):
    return len(out[1])


def _csv_rows(rec, args, out):
    rec.count("kepler_dynamics.csv.bytes", os.path.getsize(args[0]))
    return len(args[1])


def _exact_or_scalar(args):
    """Split generator evaluation by the arithmetic of the point."""
    z = args[0]
    first = z.z[0] if hasattr(z, "z") else z[0]
    return "exact" if isinstance(first, (int, np.integer, Fraction)) else "scalar"


# (module, function) -> (span name, work count or None).  A span name
# ending in "*" gets "exact" or "scalar" per call, from _exact_or_scalar.
LAYERS = {
    ("invariants", "eval_generators"): ("invariants.*", None),
    ("invariants", "eval_pi"): ("invariants.*", None),
    ("invariants", "eval_generators_batch"): ("invariants.batch", _rows),
    ("invariants", "eval_pi_batch"): ("invariants.batch", _rows),
    ("ks_map", "ks"): ("ks_map.ks", None),
    ("ks_map", "KS"): ("ks_map.ks", None),
    ("ks_map", "pullback_kepler_hamiltonian"): ("ks_map.pullback", None),
    ("ks_map", "pullback_angular_momentum"): ("ks_map.pullback", None),
    ("ks_map", "pullback_eccentricity"): ("ks_map.pullback", None),
    ("ks_map", "pullback_inner_product"): ("ks_map.pullback", None),
    ("ks_map", "poisson_property_residual"): ("ks_map.poisson", None),
    ("orbit_space", "relation_residuals"): ("orbit_space.scalar", None),
    ("orbit_space", "lagrange_identity_check"): ("orbit_space.scalar", None),
    ("orbit_space", "relation_residuals_batch"): ("orbit_space.batch", _batch_rows),
    ("quadratic_poisson", "poisson_bracket"): ("quadratic_poisson.bracket", None),
    ("quadratic_poisson", "decompose"): ("quadratic_poisson.decompose", None),
    ("kepler_dynamics", "kepler_vector_field"): ("kepler_dynamics.rhs", None),
    ("kepler_dynamics", "preregularized_vector_field"): ("kepler_dynamics.rhs", None),
    ("kepler_dynamics", "radial_ode_rhs"): ("kepler_dynamics.rhs", None),
    ("kepler_dynamics", "write_trajectory_csv"): ("kepler_dynamics.csv", _csv_rows),
    ("ode", "integrate_ode"): ("ode", None),
    ("flows", "ks_relatedness_harness"): ("flows.harness", None),
    ("flows", "oscillator_trajectory"): ("flows.trajectory", None),
    ("flows", "collision_set_membership"): ("flows.collision", None),
    ("flows", "first_collision_time"): ("flows.collision", None),
    ("sampling", "sample_phase_points"): ("sampling", _rows),
    ("sampling", "sample_xi_zero"): ("sampling", _rows),
    ("sampling", "sample_level_set"): ("sampling", _rows),
    ("sampling", "sample_collision_slice"): ("sampling", _rows),
    ("sampling", "sample_even_integers"): ("sampling", _rows),
    ("sampling", "sample_fractions"): ("sampling", _rows),
    ("bench", "run_benchmark"): ("bench", None),
    ("bench", "write_bench_csv"): ("bench", None),
    ("bench", "seed_state"): ("bench", None),
    ("bench", "analytic_periapsis"): ("bench", None),
}


class Recorder:
    """In-memory spans plus the wrappers that produce them."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.op = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.stack: list[int] = []
        self.ops = 0
        self.current_op = -1
        self.counts: dict[str, int] = {}
        self._bindings = self._build_bindings()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.op.append(self.current_op)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.work.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int, work: int = 0) -> None:
        self.end[i] = time.perf_counter_ns()
        self.work[i] = work
        self.stack.pop()

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block; yields its index."""
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)

    def _wrap(self, fn, name, work):
        rec = self
        if name.endswith("*"):
            ids = {k: self.name_id(name[:-1] + k) for k in ("exact", "scalar")}

            def traced(*args, **kwargs):
                i = rec.open(ids[_exact_or_scalar(args)])
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close(i)
        else:
            nid = self.name_id(name)

            def traced(*args, **kwargs):
                i = rec.open(nid)
                n = 0
                try:
                    out = fn(*args, **kwargs)
                    if work is not None:
                        n = work(rec, args, out)
                    return out
                finally:
                    rec.close(i, n)
        return traced

    def _wrap_ode(self, fn):
        """integrate_ode with f and event wrapped, plus step accounting."""
        rec = self
        sig = inspect.signature(fn)
        ode_id, rhs_id, event_id = (self.name_id(n) for n in ("ode", "ode.rhs", "ode.event"))

        def timed(g, nid):
            def inner(t, y):
                i = rec.open(nid)
                try:
                    return g(t, y)
                finally:
                    rec.close(i)
            return inner

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["f"] = timed(bound.arguments["f"], rhs_id)
            if bound.arguments.get("event") is not None:
                bound.arguments["event"] = timed(bound.arguments["event"], event_id)
            i = rec.open(ode_id)
            try:
                res = fn(*bound.args, **bound.kwargs)
            finally:
                rec.close(i)
            rec.count("ode.steps", res.stats.steps)
            rec.count("ode.rejected", res.stats.rejected_steps)
            rec.count("ode.rhs_evals", res.stats.rhs_evaluations)
            rec.count("ode.dense_points", 0 if res.eval_times is None else res.eval_times.size)
            return res
        return traced

    def _build_bindings(self):
        """(module, attribute, original, wrapper) for every import site."""
        import ksreg

        modules = [ksreg] + [importlib.import_module(f"ksreg.{m}") for m in KSREG_MODULES]
        bindings = []
        for (mod_name, fn_name), (name, work) in LAYERS.items():
            orig = getattr(sys.modules[f"ksreg.{mod_name}"], fn_name)
            wrapper = (self._wrap_ode(orig) if name == "ode"
                       else self._wrap(orig, name, work))
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is orig:
                        bindings.append((mod, attr, orig, wrapper))
        return bindings

    @contextmanager
    def tracing(self):
        """Bind the wrappers for the duration of one op, under an op span."""
        self.current_op = self.ops
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        try:
            with self.span("op") as i:
                yield i
        finally:
            for mod, attr, orig, _ in self._bindings:
                setattr(mod, attr, orig)
            self.current_op = -1
            self.ops += 1

    def arrays(self) -> dict:
        return {
            "op": np.frombuffer(self.op, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "work": np.frombuffer(self.work, dtype=np.int64),
        }

    def write(self, path: str) -> None:
        """Write every span, with the name table, as one .npz file."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self) -> dict:
        """{span name: {"calls", "work", "self_s", "total_s"}} over all spans."""
        a = self.arrays()
        n = a["name"].size
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.zeros(n)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        parent_name = np.full(n, -1)
        parent_name[has_parent] = a["name"][a["parent"][has_parent]]
        outer = parent_name != a["name"]
        totals = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            totals[name] = {
                "calls": int(np.count_nonzero(sel & outer)),
                "work": int(a["work"][sel & outer].sum()),
                "self_s": float(self_s[sel].sum()),
                "total_s": float(dur[sel & outer].sum()),
            }
        return totals
