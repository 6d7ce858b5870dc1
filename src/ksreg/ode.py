"""Adaptive Runge-Kutta 5(4) integration with step accounting.

A small embedded-pair integrator is used instead of an off-the-shelf
one because the pipeline reports accepted and rejected step counts as
first-class outputs, stops on sign-change events with a controlled
localization scheme, and must behave identically across platforms.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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
_B5 = _A[6]  # first same as last: the last stage sits at the step's end
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = _B5 - _B4
# Fourth-order continuous extension of the pair: the interpolant over an
# accepted step is y0 + h * k^T P (theta, theta^2, theta^3, theta^4).
_POWERS = np.arange(1, 5)
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

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class OdeResult:
    """Integration outcome.

    times/states hold every accepted step point; eval_times (a copy) and
    eval_states hold the given sample grid up to where the run ended.
    status is one of completed, event, step_budget_exhausted,
    step_size_underflow, nonfinite (a step produced a non-finite error
    estimate; the last accepted state is the one before it).
    """

    times: np.ndarray
    states: np.ndarray
    stats: IntegratorStats
    status: str
    event_time: float | None = None
    event_state: np.ndarray | None = None
    eval_times: np.ndarray | None = None
    eval_states: np.ndarray | None = None


def _initial_step(t0, y0, f0, t1, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    return min(h, (t1 - t0) / 10)


def _dense(theta, y, Q):
    """The step's interpolant at theta = (tau - t)/h, a number or an (m,) array."""
    return y + (np.asarray(theta)[..., None] ** _POWERS) @ Q


def integrate_ode(
    f,
    y0,
    t_span,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    max_steps: int = 100_000,
    t_eval=None,
    event=None,
    first_step: float | None = None,
) -> OdeResult:
    """Integrate dy/dt = f(t, y) forward over t_span.

    Args:
      f: right-hand side returning an array like y.
      y0: initial state.
      t_span: finite (t0, t1) with t1 > t0.
      rtol, atol: finite positive error control per component, RMS-combined.
      max_steps: accepted-step budget; exceeding it ends the run with
        status step_budget_exhausted.
      t_eval: increasing sample times inside t_span, filled from the
        fourth-order continuous extension of each accepted step.
      event: scalar function of (t, y); integration stops where its
        sign changes across a step or where it is exactly 0, localized
        by bisection on the same continuous extension.  A function that
        is exactly 0 at t0 is an event at t0: the run ends there with
        status event, event_state y0 and no step taken.
      first_step: optional initial step size.

    Returns:
      OdeResult; times/states always include the initial point and the
      last accepted one (or the event point).
    """
    t0, t1 = map(float, t_span)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span must be finite")
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if not (0 < rtol < math.inf and 0 < atol < math.inf):
        raise ValueError("rtol and atol must be finite and positive")
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    f0 = np.asarray(f(t, y), dtype=float)
    stats = IntegratorStats(rhs_evaluations=1)
    if first_step is None:
        first_step = _initial_step(t0, y, f0, t1, rtol, atol)
    h = min(first_step, t1 - t0)

    times = [t0]
    states = [y]
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if np.any(np.diff(t_eval) <= 0):
            raise ValueError("t_eval must be strictly increasing")
        if t_eval.size and (t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12):
            raise ValueError("t_eval must lie inside t_span")
        eval_states = np.empty((t_eval.size, y.size))
    filled = 0
    status = "completed"
    event_time = None
    event_state = None
    g_prev = event(t, y) if event is not None else None
    if g_prev == 0.0:
        status, event_time, event_state = "event", t0, y
        if t_eval is not None:
            filled = int(np.searchsorted(t_eval, t0 + 1e-14, side="right"))
            eval_states[:filled] = y

    k = np.empty((7, y.size))
    while status == "completed" and t < t1 - 1e-14 * max(1.0, abs(t1)):
        if stats.steps >= max_steps:
            status = "step_budget_exhausted"
            break
        if h < 1e-14 * max(1.0, abs(t)):
            status = "step_size_underflow"
            break
        h = min(h, t1 - t)
        # A non-finite stage makes the sums below non-finite and the error
        # norm ends the run: only f runs under the caller's numpy settings.
        k[0] = f0
        for i in range(1, 7):
            with np.errstate(all="ignore"):
                yi = y + h * (_A[i, :i] @ k[:i])
            k[i] = f(t + _C[i] * h, yi)
        stats.rhs_evaluations += 6
        with np.errstate(all="ignore"):
            y_new = y + h * (_B5 @ k)
            scaled = h * (_ERR @ k) / (atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
            err = math.sqrt(scaled @ scaled / scaled.size)

        if not math.isfinite(err):
            status = "nonfinite"
            break
        if err > 1.0:
            stats.rejected_steps += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        stats.steps += 1
        t_new = t + h
        Q = h * (_P.T @ k)

        if event is not None:
            g_new = event(t_new, y_new)
            # Signs, not the product g_prev * g_new, which can underflow to 0.
            side = math.copysign(1.0, g_prev)
            if side * g_new <= 0:
                lo, hi = t, t_new
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if side * event(mid, _dense((mid - t) / h, y, Q)) <= 0:
                        hi = mid
                    else:
                        lo = mid
                event_time = 0.5 * (lo + hi)
                event_state = _dense((event_time - t) / h, y, Q)
                status = "event"
            g_prev = g_new

        horizon = t_new if event_time is None else event_time
        if t_eval is not None:
            stop = int(np.searchsorted(t_eval, horizon + 1e-14, side="right"))
            if stop > filled:
                eval_states[filled:stop] = _dense((t_eval[filled:stop] - t) / h, y, Q)
                filled = stop

        if status == "event":
            times.append(event_time)
            states.append(event_state)
            break

        times.append(t_new)
        states.append(y_new)
        # A rejected next attempt overwrites k[6] before its retry reads f0.
        t, y, f0 = t_new, y_new, k[6].copy()
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))

    return OdeResult(
        times=np.array(times),
        states=np.array(states),
        stats=stats,
        status=status,
        event_time=event_time,
        event_state=event_state,
        eval_times=t_eval[:filled].copy() if t_eval is not None else None,
        eval_states=eval_states[:filled] if t_eval is not None else None,
    )
