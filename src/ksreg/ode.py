"""Adaptive Runge-Kutta 5(4) integration with step accounting.

A small embedded-pair integrator is used instead of an off-the-shelf
one because the pipeline reports accepted and rejected step counts as
first-class outputs, stops on sign-change events with a controlled
localization scheme, and must behave identically across platforms.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_ERR = _B5 - _B4
# Fourth-order continuous extension of the pair: the interpolant over an
# accepted step is y0 + h * k^T P (theta, theta^2, theta^3, theta^4).
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

    times/states hold every accepted step point; eval_times/eval_states
    hold the requested sample grid when one was given.  status is one
    of completed, event, step_budget_exhausted, step_size_underflow.
    """

    times: np.ndarray
    states: np.ndarray
    stats: IntegratorStats
    status: str
    event_time: float | None = None
    event_state: np.ndarray | None = None
    eval_times: np.ndarray | None = None
    eval_states: np.ndarray | None = None


def _initial_step(f, t0, y0, f0, t1, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    return min(h, (t1 - t0) / 10)


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
      t_span: (t0, t1) with t1 > t0.
      rtol, atol: error control per component, RMS-combined.
      max_steps: accepted-step budget; exceeding it ends the run with
        status step_budget_exhausted.
      t_eval: increasing sample times inside t_span, filled from the
        cubic interpolant of each accepted step.
      event: scalar function of (t, y); integration stops where its
        sign changes across a step, localized by bisection on the
        interpolant.
      first_step: optional initial step size.

    Returns:
      OdeResult; times/states always include the initial point and the
      last accepted one (or the event point).
    """
    t0, t1 = map(float, t_span)
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    stats = IntegratorStats()
    f0 = np.asarray(f(t, y), dtype=float)
    stats.rhs_evaluations += 1
    h = first_step if first_step is not None else _initial_step(
        f, t0, y, f0, t1, rtol, atol
    )
    h = min(h, t1 - t0)

    times = [t0]
    states = [y.copy()]
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if np.any(np.diff(t_eval) <= 0):
            raise ValueError("t_eval must be strictly increasing")
        if t_eval.size and (t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12):
            raise ValueError("t_eval must lie inside t_span")
    eval_times: list = []
    eval_states: list = []
    eval_idx = 0
    g_prev = event(t, y) if event is not None else None
    status = "completed"
    event_time = None
    event_state = None

    k = np.empty((7, y.size))
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if stats.steps >= max_steps:
            status = "step_budget_exhausted"
            break
        if h < 1e-14 * max(1.0, abs(t)):
            status = "step_size_underflow"
            break
        h = min(h, t1 - t)
        k[0] = f0
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]))
            k[i] = f(t + _C[i] * h, yi)
        stats.rhs_evaluations += 6
        y_new = y + h * (_B5 @ k)
        err_vec = h * (_ERR @ k)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))

        if err > 1.0:
            stats.rejected_steps += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        stats.steps += 1
        t_new = t + h
        f_new = k[6]  # the last stage sits at (t_new, y_new)
        coeffs = h * (k.T @ _P)

        def interp(tau):
            theta = (tau - t) / h
            powers = np.array([theta, theta**2, theta**3, theta**4])
            return y + coeffs @ powers

        hit = False
        if event is not None:
            g_new = event(t_new, y_new)
            if g_new == 0.0 or (g_prev is not None and g_prev * g_new < 0):
                lo, hi = t, t_new
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if g_prev * event(mid, interp(mid)) <= 0:
                        hi = mid
                    else:
                        lo = mid
                event_time = 0.5 * (lo + hi)
                event_state = interp(event_time)
                hit = True
            g_prev = g_new

        horizon = event_time if hit else t_new
        if t_eval is not None:
            while eval_idx < t_eval.size and t_eval[eval_idx] <= horizon + 1e-14:
                eval_times.append(t_eval[eval_idx])
                eval_states.append(interp(t_eval[eval_idx]))
                eval_idx += 1

        if hit:
            times.append(event_time)
            states.append(event_state.copy())
            status = "event"
            break

        times.append(t_new)
        states.append(y_new.copy())
        t, y, f0 = t_new, y_new, f_new
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))

    return OdeResult(
        times=np.array(times),
        states=np.array(states),
        stats=stats,
        status=status,
        event_time=event_time,
        event_state=event_state,
        eval_times=np.array(eval_times) if t_eval is not None else None,
        eval_states=np.array(eval_states) if t_eval is not None else None,
    )
