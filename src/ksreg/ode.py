"""Adaptive Runge-Kutta 5(4) integration with step accounting.

A small embedded-pair integrator is used instead of an off-the-shelf
one because the pipeline reports accepted and rejected step counts as
first-class outputs and stops on sign-change events with a controlled
localization scheme.

One step loop advances an (n, d) block of rows in lockstep; a lone
(d,) state is a one-row block.  Each row keeps its own step size, error
norm, accept/reject decision, event and sample grid (the step size
control of Hairer, Norsett & Wanner, Solving ODEs I, II.4, applied per
row), so a row takes the steps it takes alone, while the loop's fixed
cost per step is paid once for all rows.  f and event always see the
running rows as a list of m times and a list of m rows, each a list of
d floats, m = 1 included.

A row's state, stage slopes and step control are Python floats.  The
stage inputs, the error norm and the interpolant coefficients are
straight-line code generated from the tableau, each sum in one written
order with the tableau's zeros left out (Dormand & Prince 1980; Hairer,
Norsett & Wanner, II.5-6): the interpolant's at import, the stage inputs'
and error norm's once per state width d, with one line of arithmetic per
component.  No product reaches BLAS, so the bits of a row do not depend
on the CPU's BLAS kernel or on the rows beside it.  The sample grid is
filled once, when the run ends, by one elementwise numpy pass over the
steps that cover samples, in the operation order of the Python
interpolant that the event search uses.

The integrator's own numpy arithmetic runs with numpy's warnings off, under
one errstate entered once per call, and its Python-float arithmetic never
raises.  f and event run in the caller's context, captured on entry.
Since numpy 2.0, errstate is a context variable, so f and event keep the
caller's numpy error settings: their warnings and floating-point errors
reach the caller.
"""
from __future__ import annotations

import contextvars
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# Dormand-Prince 5(4) tableau.
_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
# First same as last: the fifth-order weights are the last stage's row,
# so that stage's input is the step's end point and its slope the next
# step's first.
_B5 = _A[6]
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = _B5 - _B4
# Fourth-order continuous extension of the pair: the interpolant over an
# accepted step is y0 + sum over c of theta^c q_c, with the coefficient
# vectors q_c = h * sum over j of P[j, c - 1] k_j.
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
#: The slopes the interpolant reads: those with a nonzero row of _P.
_DENSE = tuple(j for j in range(7) if _P[j].any())


def _weighted(weights, slope: str) -> str:
    """The source of the sum of w_j * slope_j over the nonzero weights, in slope order.

    slope is a format string of the slope index j, such as "k{}".
    """
    return " + ".join(f"{w!r} * {slope.format(j)}" for j, w in enumerate(weights) if w)


def _compile(source: str, *names) -> tuple:
    namespace = {}
    exec(compile(source, "<ode tableau>", "exec"), namespace)
    return tuple(namespace[name] for name in names)


# The interpolant coefficients (q_1, ..., q_4), q_c = h * (P[0, c] k_0 + ...
# + P[6, c] k_6), elementwise: on the floats of one component in the event
# search, and on numpy arrays in the sample fill.
(_coefficients,) = _compile(
    "def coefficients(h, " + ", ".join(f"k{j}" for j in _DENSE) + "):\n"
    "    return (" + ", ".join(f"h * ({_weighted(_P[:, c].tolist(), 'k{}')})" for c in range(4)) + ")\n",
    "coefficients")


# Compiled once per width: compiling takes milliseconds, a lone-row step microseconds.
@functools.cache
def _tableau(d: int) -> tuple:
    """The step's arithmetic for rows of d floats, as straight-line Python code.

    Y holds the running rows' states, H their step sizes and K[j] their
    stage-j slopes, one entry per row; a state or slope is d floats, which
    the code unpacks into names, one line of arithmetic per component.
    Returns (stages, squared_errors):
      - stages holds (c_i, stage_i) for the stages i = 1..6 that call f;
        stage_i(Y, H, K) is the list of stage i's inputs,
        y + h * (A[i, 0] k_0 + ... + A[i, i-1] k_(i-1)) per row;
      - squared_errors(Y, S, H, K, tol) is the list, per row with end point
        s, of e_0 * e_0 + ... + e_(d-1) * e_(d-1), where e_c is
        h * (ERR[0] k_0 + ... + ERR[6] k_6) / (tol + tol * max(|y|, |s|))
        in component c.
    Every sum is written once, in index order, without the tableau's zeros.
    """
    def unpack(name: str) -> str:
        return "(" + ", ".join(f"{name}{c}" for c in range(d)) + ",)"

    def loop(weights, *rows) -> str:
        """The for clause over the rows and the slopes of nonzero weight."""
        used = [j for j, w in enumerate(weights) if w]
        targets = [unpack(r.lower()) if r != "H" else "h" for r in rows]
        targets += [unpack(f"k{j}_") for j in used]
        return f"for {', '.join(targets)} in zip({', '.join([*rows, *(f'K[{j}]' for j in used)])})"

    source = []
    for i in range(1, 7):
        a = _A[i, :i].tolist()
        values = ", ".join(f"y{c} + h * ({_weighted(a, f'k{{}}_{c}')})" for c in range(d))
        source.append(f"def stage{i}(Y, H, K):\n    return [[{values}] {loop(a, 'Y', 'H')}]\n")
    e = _ERR.tolist()
    # max(|y|, |s|) as conditionals: calls to abs and max take three times as long.
    errors = "".join(f"        a = y{c} if y{c} >= 0.0 else -y{c}\n"
                     f"        b = s{c} if s{c} >= 0.0 else -s{c}\n"
                     f"        e{c} = h * ({_weighted(e, f'k{{}}_{c}')}) / (tol + tol * (a if a >= b else b))\n"
                     for c in range(d))
    source.append(
        "def squared_errors(Y, S, H, K, tol):\n"
        "    out = []\n"
        f"    {loop(e, 'Y', 'S', 'H')}:\n"
        f"{errors}"
        f"        out.append({' + '.join(f'e{c} * e{c}' for c in range(d))})\n"
        "    return out\n")
    *stages, squared_errors = _compile("".join(source), *(f"stage{i}" for i in range(1, 7)),
                                       "squared_errors")
    return tuple(zip(_C[1:], stages)), squared_errors


def _horner(theta, y, q1, q2, q3, q4):
    """y + theta q1 + theta^2 q2 + theta^3 q3 + theta^4 q4, in Horner's order.

    Elementwise: on floats for the event search, on arrays for the samples.
    """
    return y + theta * (q1 + theta * (q2 + theta * (q3 + theta * q4)))


def _dense_coefficients(h, k) -> list:
    """A step's interpolant coefficients, one (q_1, ..., q_4) per component."""
    return [_coefficients(h, *c) for c in zip(*[k[j] for j in _DENSE])]


def _dense(theta, y, Q) -> list:
    """The step's interpolant at theta = (tau - t)/h, as a list of floats."""
    return [_horner(theta, y_, *q) for y_, q in zip(y, Q)]


def _samples(tau, B, step, d) -> np.ndarray:
    """The interpolant at the sample times tau, B[step[i]] the step holding tau[i].

    A row of B is (t, h, y, k_j for j in _DENSE) of one accepted step.  The
    pass runs the operations of _dense_coefficients and _dense elementwise,
    so each sample has the bits the Python interpolant gives it.
    """
    t, h, y = B[:, :1], B[:, 1:2], B[:, 2:2 + d]
    Q = _coefficients(h, *[B[:, s:s + d] for s in range(2 + d, B.shape[1], d)])
    return _horner((tau[:, None] - t[step]) / h[step], y[step], *[q[step] for q in Q])


@dataclass
class IntegratorStats:
    steps: int = 0
    rejected_steps: int = 0
    rhs_evaluations: int = 0


@dataclass
class OdeResult:
    """Integration outcome.

    times/states hold every accepted step point; eval_times (a copy) and
    eval_states hold the given sample grid up to where the run ended.
    status is one of completed, event, step_budget_exhausted,
    step_size_underflow, nonfinite (a step's end point was not finite, its
    error estimate was NaN, or the event was NaN there or at t0; the last
    accepted state is the one before it).
    """

    times: np.ndarray
    states: np.ndarray
    stats: IntegratorStats
    status: str
    event_time: float | None = None
    event_state: np.ndarray | None = None
    eval_times: np.ndarray | None = None
    eval_states: np.ndarray | None = None


class OdeResults(tuple):
    """The OdeResult of every row of a block run, in row order.

    stats sums the rows' counts; eval_times is None without a sample
    grid, else the rows' filled sample times end to end.
    """

    @property
    def stats(self) -> IntegratorStats:
        return IntegratorStats(
            steps=sum(r.stats.steps for r in self),
            rejected_steps=sum(r.stats.rejected_steps for r in self),
            rhs_evaluations=sum(r.stats.rhs_evaluations for r in self),
        )

    @property
    def eval_times(self) -> np.ndarray | None:
        if self[0].eval_times is None:
            return None
        return np.concatenate([r.eval_times for r in self])


class _Row:
    """One row's state, slope and control, in Python floats, and its output so far.

    The accepted states fill a preallocated array that doubles when full;
    so do the steps that cover samples, one (t, h, y, k_j for j in _DENSE)
    row each, with stops[i] the end of the samples step i covers.
    """

    __slots__ = ("t", "y", "k0", "h", "g", "steps", "rejected", "lost", "status",
                 "event_time", "event_state", "times", "states", "filled", "stops", "fills")

    def __init__(self, t0, y0, k0, h, sampled):
        d = len(y0)
        self.t, self.y, self.k0, self.h, self.g = t0, y0, k0, h, None
        self.steps = self.rejected = self.lost = 0
        self.status = "completed"
        self.event_time = self.event_state = None
        self.times = [t0]
        self.states = np.empty((64, d))
        self.states[0] = y0
        self.filled = 0
        self.stops = []
        self.fills = np.empty((16, 2 + d * (1 + len(_DENSE)))) if sampled else None

    def record(self, t, y) -> None:
        """Append an accepted step point, or the event point."""
        n = len(self.times)
        if n == len(self.states):
            self.states = np.concatenate([self.states, np.empty_like(self.states)])
        self.states[n] = y
        self.times.append(t)

    def cover(self, stop, h, K, p) -> None:
        """Keep the current step, from (t, y) over h with the slopes K[j][p], for the samples up to stop."""
        n = len(self.stops)
        if n == len(self.fills):
            self.fills = np.concatenate([self.fills, np.empty_like(self.fills)])
        row = [self.t, h, *self.y]
        for j in _DENSE:
            row += K[j][p]
        self.fills[n] = row
        self.stops.append(stop)
        self.filled = stop

    def result(self, t_eval) -> OdeResult:
        eval_times = eval_states = None
        if t_eval is not None:
            eval_times = t_eval[:self.filled].copy()
            if self.stops:
                n = len(self.stops)
                step = np.repeat(np.arange(n), np.diff(self.stops, prepend=0))
                eval_states = _samples(eval_times, self.fills[:n], step, self.states.shape[1])
            else:
                # No step covers a sample: any filled ones precede an event at t0.
                eval_states = np.repeat(self.states[:1], self.filled, axis=0)
        # f runs once at t0 and six times per attempt: accepted, rejected,
        # or lost, the one that ends the row at a non-finite end point or a
        # NaN event value there.
        attempts = self.steps + self.rejected + self.lost
        return OdeResult(
            times=np.array(self.times),
            states=self.states[:len(self.times)],
            stats=IntegratorStats(self.steps, self.rejected, 1 + 6 * attempts),
            status=self.status,
            event_time=self.event_time,
            event_state=None if self.event_state is None else np.array(self.event_state),
            eval_times=eval_times,
            eval_states=eval_states,
        )


# Under a tiny tol the norms overflow and leave h infinite or NaN, silently
# under integrate_ode's errstate.
def _initial_step(t0, y0, f0, t1, tol):
    scale = tol + tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = float(0.01 * d0 / d1) if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    return min(h if math.isfinite(h) else 1e-6, (t1 - t0) / 10)


def _locate(sign, side, t, h, y, Q):
    """The time of the sign change of the event inside one step, by bisection.

    sign evaluates the event on a block of rows, here the one-row block
    of the continuous extension at the midpoint.  Once the midpoint
    rounds onto lo or hi the bracket cannot move its midpoint any more,
    so the search stops there with that midpoint.
    """
    lo, hi = t, t + h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if side * sign([mid], [_dense((mid - t) / h, y, Q)])[0] <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def integrate_ode(
    f,
    y0,
    t_span,
    tol: float = 1e-10,
    max_steps: int = 100_000,
    t_eval=None,
    event=None,
) -> OdeResult | OdeResults:
    """Integrate dy/dt = f(t, y) forward over t_span.

    Args:
      f: right-hand side f(T, Y) of a list of m times and a list of m
        rows, each a list of d floats, returning m rows of d floats.
      y0: initial state of shape (d,), run as a one-row block; or an
        (n, d) block of n rows stepped in lockstep (see below).
      t_span: finite (t0, t1) with t1 > t0.
      tol: finite positive error control per component, relative and
        absolute alike (scale tol + tol * |y|), RMS-combined.
      max_steps: accepted-step budget; exceeding it ends the run with
        status step_budget_exhausted.
      t_eval: 1-D increasing sample times inside t_span, filled from the
        fourth-order continuous extension of each accepted step.
      event: function of (T, Y), called like f, returning m numbers;
        a row stops where its value changes sign across a step or is
        exactly 0, localized by bisection on the same continuous
        extension.  A value exactly 0 at t0 is an event at t0: the row
        ends there with status event, event_state y0 and no step taken.
        A NaN value ends the row nonfinite at its last point where the
        event was a number, with no event_time.

    Returns:
      For a (d,) y0, its row's OdeResult; for an (n, d) y0, an
      OdeResults: the n rows' OdeResult objects in order, whose stats
      sum the rows' counts.  times/states always include the initial
      point and the last accepted one (or the event point).

    Every row runs as it would alone, with its own step size, error
    norm, accept/reject decision, event, t_eval fill, stats and status;
    a row that ends drops out of the rows f and event get.
    """
    t0, t1 = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    y0 = np.array(y0, dtype=float)
    if y0.ndim not in (1, 2) or y0.size == 0:
        raise ValueError("y0 must be a (d,) state or an (n, d) block of rows")
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1:
            raise ValueError("t_eval must be 1-D")
        # A NaN sample time fails both tests; unlike np.diff, neither warns on inf.
        if not np.all(t_eval[1:] > t_eval[:-1]):
            raise ValueError("t_eval must be strictly increasing")
        if t_eval.size and not (t0 - 1e-12 <= t_eval[0] and t_eval[-1] <= t1 + 1e-12):
            raise ValueError("t_eval must lie inside t_span")
        eval_times = t_eval.tolist()

    # f and event run in the caller's context, captured here, under its numpy
    # error settings; everything else runs with numpy's warnings off.  One
    # errstate entry per call: a decorated function enters it in about 1 us,
    # Context.run costs about 0.05 us.
    caller = contextvars.copy_context()
    with np.errstate(all="ignore"):
        starts = np.atleast_2d(y0).tolist()
        n, d = len(starts), len(starts[0])
        stages, squared_errors = _tableau(d)

        def sign(T, Y):
            return caller.run(event, T, Y)

        T0 = [t0] * n
        rows = []
        for start, f0 in zip(starts, caller.run(f, T0, starts)):
            h = _initial_step(t0, np.array(start), np.array(f0, dtype=float), t1, tol)
            rows.append(_Row(t0, start, f0, min(h, t1 - t0), t_eval is not None))
        if event is not None:
            for r, g in zip(rows, sign(T0, starts)):
                r.g = g
                if g == 0.0:
                    r.status, r.event_time, r.event_state = "event", t0, r.y
                    if t_eval is not None:
                        r.filled = bisect_right(eval_times, t0 + 1e-14)
                elif math.isnan(g):
                    r.status = "nonfinite"

        t_end = t1 - 1e-14 * max(1.0, abs(t1))
        run = rows
        while True:
            # A row that is done or cannot take another step leaves the run.
            live = []
            for r in run:
                t = r.t
                if r.status != "completed" or t >= t_end:
                    continue
                if r.steps >= max_steps:
                    r.status = "step_budget_exhausted"
                elif r.h < 1e-14 * max(1.0, abs(t)):
                    r.status = "step_size_underflow"
                else:
                    r.h = min(r.h, t1 - t)
                    live.append(r)
            if not live:
                break
            run = live
            # Y, H and T hold the running rows' states, step sizes and times, and
            # K[j] their stage-j slopes; stage i of a row starts at t + c_i * h.
            Y, H, T = [r.y for r in run], [r.h for r in run], [r.t for r in run]
            K = [[r.k0 for r in run]]
            for c, stage in stages:
                S = stage(Y, H, K)
                K.append(caller.run(f, [t + c * h for t, h in zip(T, H)], S))
            # S, the last stage's inputs, are the fifth-order end points.

            accepted = []
            for p, (r, s, squares) in enumerate(zip(run, S, squared_errors(Y, S, H, K, tol))):
                err = math.sqrt(squares / d)
                # A non-finite end point ends the row, whatever its error norm
                # reads; an error norm that overflows at a finite end point (tiny
                # tol, or f infinite there) rejects the step.  A NaN or infinite
                # entry makes the sum NaN or infinite, so a finite sum clears s.
                if not (math.isfinite(sum(s)) or all(map(math.isfinite, s))) or math.isnan(err):
                    r.status, r.lost = "nonfinite", 1
                elif err > 1.0:
                    r.rejected += 1
                    r.h *= max(0.2, 0.9 * err ** -0.2)
                else:
                    r.steps += 1
                    accepted.append((p, err))
            if not accepted:
                continue
            ends = [S[p] for p, _ in accepted]
            values = ends if event is None else sign([T[p] + H[p] for p, _ in accepted], ends)
            for (p, err), s, g in zip(accepted, ends, values):
                r, t, h = run[p], T[p], H[p]
                horizon = t + h
                if event is not None:
                    if math.isnan(g):
                        # The row ends at its last point where the event was a number.
                        r.status, r.steps, r.lost = "nonfinite", r.steps - 1, 1
                        continue
                    # Signs, not the product g_prev * g_new, which can underflow to 0.
                    side = math.copysign(1.0, r.g)
                    r.g = g
                    if side * g <= 0:
                        Q = _dense_coefficients(h, [k[p] for k in K])
                        horizon = r.event_time = _locate(sign, side, t, h, r.y, Q)
                        r.event_state = _dense((horizon - t) / h, r.y, Q)
                        r.status = "event"
                if t_eval is not None:
                    stop = bisect_right(eval_times, horizon + 1e-14)
                    if stop > r.filled:
                        r.cover(stop, h, K, p)
                if r.status == "event":
                    r.record(r.event_time, r.event_state)
                else:
                    r.t, r.y, r.k0 = horizon, s, K[6][p]
                    r.record(horizon, s)
                    # err <= 1 here, so the factor 0.9 * err^-0.2 is at least 0.9.
                    r.h *= min(5.0, 0.9 * err ** -0.2) if err > 0 else 5.0

        results = [r.result(t_eval) for r in rows]
    return results[0] if y0.ndim == 1 else OdeResults(results)
