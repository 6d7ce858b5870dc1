"""Adaptive Runge-Kutta 5(4) integration with step accounting.

A small embedded-pair integrator is used instead of an off-the-shelf
one because the pipeline reports accepted and rejected step counts as
first-class outputs and stops on sign-change events with a controlled
localization scheme.  Its bits hold for one BLAS kernel: the stage sums,
error norms and interpolants are BLAS products, whose last bit can change
with the kernel OpenBLAS picks for the CPU.

One step loop advances an (n, d) block of rows in lockstep; a lone
(d,) state is a one-row block.  Each row keeps its own step size, error
norm, accept/reject decision, event and sample grid (the step size
control of Hairer, Norsett & Wanner, Solving ODEs I, II.4, applied per
row), so a row takes the steps it takes alone, while the loop's fixed
cost per step is paid once for all rows.  f and event always see the
running rows as (d, m) columns with an (m,) array of times, m = 1
included.

The integrator's own arithmetic runs with numpy's warnings off, under one
errstate entered once per call, not once per step.  f and event run in the
caller's context, captured on entry.  Since numpy 2.0, errstate is a context
variable, so f and event keep the caller's numpy error settings: their
warnings and floating-point errors reach the caller.
"""
from __future__ import annotations

import contextvars
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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
_STAGES = [(i, _A[i, :i]) for i in range(1, 7)]
_C_COLUMN = _C[:, None]
# Fourth-order continuous extension of the pair: the interpolant over an
# accepted step is y0 + h * k^T P (theta, theta^2, theta^3, theta^4).
# Float exponents give the powers integer ones do, without a cast per call.
_POWERS = np.arange(1.0, 5.0)
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
    """One row's control state, in Python floats, and its output so far.

    The accepted states fill a preallocated array that doubles when full.
    """

    __slots__ = ("t", "h", "g", "steps", "rejected", "lost", "status", "event_time",
                 "event_state", "times", "states", "filled", "eval_states")

    def __init__(self, t0, y0, h, eval_size):
        self.t, self.h, self.g = t0, h, None
        self.steps = self.rejected = self.lost = 0
        self.status = "completed"
        self.event_time = self.event_state = None
        self.times = [t0]
        self.states = np.empty((64, y0.size))
        self.states[0] = y0
        self.filled = 0
        self.eval_states = None if eval_size is None else np.empty((eval_size, y0.size))

    def record(self, t, y) -> None:
        """Append an accepted step point, or the event point."""
        n = len(self.times)
        if n == len(self.states):
            self.states = np.concatenate([self.states, np.empty_like(self.states)])
        self.states[n] = y
        self.times.append(t)

    def result(self, t_eval) -> OdeResult:
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
            event_state=self.event_state,
            eval_times=t_eval[:self.filled].copy() if t_eval is not None else None,
            eval_states=self.eval_states[:self.filled] if t_eval is not None else None,
        )


# Under a tiny tol the norms overflow and leave h infinite or NaN, silently
# under integrate_ode's errstate.
def _initial_step(t0, y0, f0, t1, tol):
    scale = tol + tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    return min(h if math.isfinite(h) else 1e-6, (t1 - t0) / 10)


def _dense(theta, y, Q):
    """The step's interpolant at theta = (tau - t)/h, a number or a sequence."""
    return y + (np.asarray(theta)[..., None] ** _POWERS) @ Q


# A non-finite stage makes the stage sums non-finite: the row ends, or, if
# only the last stage is, the error norm is inf and the step rejected.
def _squared_errors(Y, S, H, K, tol):
    """Each row's sum of squares of the scaled error, and whether its end point S is finite."""
    # The scale tol + tol * max(|y|, |s|), formed in place.
    scale = np.maximum(np.abs(Y), np.abs(S))
    scale *= tol
    scale += tol
    scaled = H * (_ERR @ K)
    scaled /= scale
    # Each row's dot product scaled @ scaled, the BLAS dot per row.
    squares = np.vecdot(scaled, scaled).tolist()
    # A NaN or infinite entry makes the sum of S NaN or infinite, so a finite
    # sum clears every row in one reduction.
    if math.isfinite(S.sum()):
        return squares, [True] * len(squares)
    return squares, np.isfinite(S).all(axis=1).tolist()


def _interpolants(H, K):
    """Each row's interpolant coefficients h * P^T k, indexed by row."""
    return H[:, :1, None] * (_P.T @ K)


def _locate(event, side, t, h, y, Q):
    """The time of the sign change of event(t, y) inside one step, by bisection.

    Once the midpoint rounds onto lo or hi the bracket cannot move its
    midpoint any more, so the search stops there with that midpoint.
    """
    lo, hi = t, t + h
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if side * event(mid, _dense((mid - t) / h, y, Q)) <= 0:
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
      f: right-hand side f(t, y) of (m,) times and (d, m) columns,
        returning a (d, m) array.
      y0: initial state of shape (d,), run as a one-row block; or an
        (n, d) block of n rows stepped in lockstep (see below).
      t_span: finite (t0, t1) with t1 > t0.
      tol: finite positive error control per component, relative and
        absolute alike (scale tol + tol * |y|), RMS-combined.
      max_steps: accepted-step budget; exceeding it ends the run with
        status step_budget_exhausted.
      t_eval: 1-D increasing sample times inside t_span, filled from the
        fourth-order continuous extension of each accepted step.
      event: function of (t, y), called like f, returning (m,) values;
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
    a row that ends drops out of the columns f and event get.
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
        # The running rows' states are the rows of Y, shape (m, d); a (d,) y0 is
        # a one-row block.  H holds each row's step size across its row, also
        # (m, d), so that the stage sums and the error norm multiply arrays of one
        # shape.  f and event get the columns Y.T and an (m,) array of times.  The
        # stage sums are stacked matmuls, one (d,)-wide product per row, so a
        # row's arithmetic does not depend on the rows beside it.
        Y = np.atleast_2d(y0)
        n, d = Y.shape

        def sign(T, Y):
            return np.asarray(caller.run(event, T, Y.T), dtype=float).tolist()

        def point(t, y):
            return caller.run(event, np.array([t]), y[:, None])[0]

        T0 = np.full(n, t0)
        F0 = np.asarray(caller.run(f, T0, Y.T), dtype=float).T.reshape(n, d)
        rows = []
        for start, f0 in zip(Y, F0):
            h = _initial_step(t0, start, f0, t1, tol)
            rows.append(_Row(t0, start, min(h, t1 - t0), None if t_eval is None else t_eval.size))
        if event is not None:
            for r, g in zip(rows, sign(T0, Y)):
                r.g = g
                if g == 0.0:
                    r.status, r.event_time, r.event_state = "event", t0, r.states[0].copy()
                    if t_eval is not None:
                        r.filled = bisect_right(eval_times, t0 + 1e-14)
                        r.eval_states[:r.filled] = r.event_state
                elif math.isnan(g):
                    r.status = "nonfinite"

        t_end = t1 - 1e-14 * max(1.0, abs(t1))
        run = rows
        while True:
            # A row that is done or cannot take another step leaves the run.
            keep, ts, hs = [], [], []
            for p, r in enumerate(run):
                t = r.t
                if r.status != "completed" or t >= t_end:
                    continue
                if r.steps >= max_steps:
                    r.status = "step_budget_exhausted"
                elif r.h < 1e-14 * max(1.0, abs(t)):
                    r.status = "step_size_underflow"
                else:
                    r.h = h = min(r.h, t1 - t)
                    keep.append(p)
                    ts.append(t)
                    hs.append(h)
            if len(keep) < len(run):
                if not keep:
                    break
                run = [run[p] for p in keep]
                Y, F0 = Y[keep], F0[keep]
            m = len(run)
            # Stage i of row p starts at t + h * c_i: TS holds the (7, m) stage times.
            h = np.array(hs)
            H, TS = h[:, None].repeat(d, 1), np.array(ts) + _C_COLUMN * h
            K = np.empty((m, 7, d))
            K[:, 0] = F0
            # f's (d, m) columns go into K through its transposed view.
            KT = K.transpose(1, 2, 0)
            for i, a in _STAGES:
                # The next stage's input, Y + h * (a @ k) per row.
                S = Y + H * (a @ K[:, :i])
                KT[i] = caller.run(f, TS[i], S.T)
            # S, the last stage's input, is the fifth-order end point.
            squares, finite = _squared_errors(Y, S, H, K, tol)

            accepted, errs = [], []
            for p, r, s, ok in zip(range(m), run, squares, finite):
                err = math.sqrt(s / d)
                if not (ok and math.isfinite(err)):
                    # Its stages may not be finite (at a finite end point only
                    # the last can be), so they leave the arithmetic the rows
                    # share below.
                    K[p] = 0.0
                # A non-finite end point ends the row, whatever its error norm
                # reads; an error norm that overflows at a finite end point (tiny
                # tol, or f infinite there) rejects the step.
                if not ok or math.isnan(err):
                    r.status, r.lost = "nonfinite", 1
                elif err > 1.0:
                    r.rejected += 1
                    r.h *= max(0.2, 0.9 * err ** -0.2)
                else:
                    r.steps += 1
                    accepted.append(p)
                    errs.append(err)
            if not accepted:
                continue
            every = len(accepted) == m
            if event is not None:
                g_new = sign(TS[6], S) if every else sign(TS[6][accepted], S[accepted])
            else:
                g_new = [None] * len(accepted)
            Q = None
            for p, err, g in zip(accepted, errs, g_new):
                r = run[p]
                horizon = r.t + r.h
                if event is not None:
                    if math.isnan(g):
                        # The row ends at its last point where the event was a number.
                        r.status, r.steps, r.lost = "nonfinite", r.steps - 1, 1
                        continue
                    # Signs, not the product g_prev * g_new, which can underflow to 0.
                    side = math.copysign(1.0, r.g)
                    r.g = g
                    if side * g <= 0:
                        Q = _interpolants(H, K) if Q is None else Q
                        horizon = r.event_time = _locate(point, side, r.t, r.h, Y[p], Q[p])
                        r.event_state = _dense((horizon - r.t) / r.h, Y[p], Q[p])
                        r.status = "event"
                if t_eval is not None:
                    stop = bisect_right(eval_times, horizon + 1e-14)
                    if stop > r.filled:
                        Q = _interpolants(H, K) if Q is None else Q
                        theta = (t_eval[r.filled:stop] - r.t) / r.h
                        r.eval_states[r.filled:stop] = _dense(theta, Y[p], Q[p])
                        r.filled = stop
                if r.status == "event":
                    r.record(r.event_time, r.event_state)
                else:
                    r.t = horizon
                    r.record(horizon, S[p])
                    # err <= 1 here, so the factor 0.9 * err^-0.2 is at least 0.9.
                    r.h *= min(5.0, 0.9 * err ** -0.2) if err > 0 else 5.0
            if every:
                Y, F0 = S, K[:, 6]
            else:
                took = np.zeros((m, 1), dtype=bool)
                took[accepted] = True
                Y, F0 = np.where(took, S, Y), np.where(took, K[:, 6], F0)

    results = [r.result(t_eval) for r in rows]
    return results[0] if y0.ndim == 1 else OdeResults(results)
