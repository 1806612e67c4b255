"""Explicit Runge-Kutta integration with sign-change event location.

One driver owns the loop: the step cap, the step-size floor, event
detection and location, and the recorded path. It takes one of two
steppers: an adaptive Dormand-Prince 5(4) pair for accuracy-controlled
work, or classical RK4 on a fixed grid for budgeted-step-count runs.
Events are scalar functions of (t, y); the driver stops at the first sign
change and refines the crossing time by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

RhsFn = Callable[[float, np.ndarray], np.ndarray]
EventFn = Callable[[float, np.ndarray], float]

# Dormand-Prince 5(4) tableau. c nodes, a coefficients, 5th-order weights b,
# and the embedded 4th-order weights bh used for the error estimate.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_BH = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

T_TOL = 1e-10  # absolute tolerance for event crossing times
MAX_STEPS = 5_000_000  # default cap on attempted steps per solve


@dataclass
class Event:
    """Scalar event g(t, y); fires when g changes sign across a step.

    direction: +1 fires only on rising crossings (g < 0 before, >= 0 after),
    -1 only on falling ones, 0 on both. The driver never fires an event at
    the initial point of a leg; callers that need entry checks do them
    before integrating.
    """

    fn: EventFn
    direction: int = 0
    name: str = ""

    def __call__(self, t: float, y: np.ndarray) -> float:
        return self.fn(t, y)

    def fired(self, g0: float, g1: float) -> bool:
        rising = g0 < 0.0 and g1 >= 0.0
        falling = g0 > 0.0 and g1 <= 0.0
        if self.direction > 0:
            return rising
        if self.direction < 0:
            return falling
        return rising or falling


@dataclass
class IntResult:
    t: float
    y: np.ndarray
    status: str  # "event" | "t_end" | "max_steps" | "h_underflow"
    event: str | None = None
    n_steps: int = 0
    n_rejected: int = 0
    path: list[tuple[float, np.ndarray]] = field(default_factory=list)


def _dp54_step(f: RhsFn, t: float, y: np.ndarray, h: float, k1: np.ndarray | None):
    """One DP54 step: returns (y5, error_estimate, k1, k7).

    FSAL pair: k7 is f at y5 and serves as the next step's k1; the returned
    k1 lets a rejected step's caller retry without re-evaluating f(t, y).
    """
    k = np.empty((7, y.size))
    k[0] = f(t, y) if k1 is None else k1
    for i in range(1, 7):
        k[i] = f(t + _DP_C[i] * h, y + h * (_DP_A[i] @ k[:i]))
    y5 = y + h * (_DP_B @ k)
    err = h * ((_DP_B - _DP_BH) @ k)
    return y5, err, k[0].copy(), k[6]


def _rk4_step(f: RhsFn, t: float, y: np.ndarray, h: float) -> np.ndarray:
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


# A stepper is a pair (step, trial). step(t, y, h) returns (y at t + h, or
# None if the step is rejected, and the next step size); trial(t, y, h)
# integrates by exactly h, for event location.


def _dp54(f: RhsFn, rtol: float, atol: float):
    """Adaptive DP54 stepper: error control, rejection, and FSAL reuse of
    f at the last accepted point. The error norm is the max over entries,
    so entries that never move (as z_0..z_{d-1} in stage two) leave the
    tolerance alone."""
    k1 = None

    def step(t: float, y: np.ndarray, h: float):
        nonlocal k1
        y_new, err, k1, k7 = _dp54_step(f, t, y, h, k1)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.abs(err / scale).max())
        if err_norm > 1.0:
            return None, h * max(0.2, 0.9 * err_norm ** -0.2)
        k1 = k7
        return y_new, h * (min(5.0, 0.9 * err_norm ** -0.2) if err_norm > 0 else 5.0)

    return step, lambda t, y, h: _dp54_step(f, t, y, h, None)[0]


def _rk4(f: RhsFn):
    """Fixed-grid RK4 stepper: every step is accepted at the same size."""
    trial = lambda t, y, h: _rk4_step(f, t, y, h)
    return (lambda t, y, h: (trial(t, y, h), h)), trial


def _locate(trial, t0: float, y0: np.ndarray, h: float, fired, g0):
    """Bisect the step of length h from (t0, y0) on "some fired event has
    crossed" until the bracket is within T_TOL.

    fired holds the (index, event) pairs that fired over the whole step, g0
    the event values at its start. Returns (t, y, event) at the right end
    of the final bracket, event being the first fired one that has crossed
    there; one has, since trial(t0, y0, h) reproduces the accepted step.
    """

    def crossed(dt: float, y: np.ndarray) -> list[Event]:
        return [ev for i, ev in fired if ev.fired(g0[i], ev(t0 + dt, y))]

    lo, hi = 0.0, h
    y_hi = trial(t0, y0, hi)
    while hi - lo > T_TOL:
        mid = 0.5 * (lo + hi)
        y_mid = trial(t0, y0, mid)
        if crossed(mid, y_mid):
            hi, y_hi = mid, y_mid
        else:
            lo = mid
    return t0 + hi, y_hi, crossed(hi, y_hi)[0]


def _drive(stepper, t0, y0, t_end, h, events, max_steps) -> IntResult:
    """Step from (t0, y0) with initial step h to t_end or the first event.

    max_steps caps attempted steps, rejected ones included. The last step
    is shortened to land on t_end. result.path records the start and every
    accepted state, the located event point last when one fires.
    """
    step, trial = stepper
    t = float(t0)
    y = np.asarray(y0, dtype=float).copy()
    res = IntResult(t=t, y=y, status="t_end")
    res.path.append((t, y.copy()))
    if t_end <= t:
        return res

    g = [ev(t, y) for ev in events]
    while t < t_end:
        if res.n_steps + res.n_rejected >= max_steps:
            res.status = "max_steps"
            break
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if h < t_end - t:  # not just a rounding remainder of the span
                res.status = "h_underflow"
            break
        y_new, h_next = step(t, y, h)
        if y_new is None:
            res.n_rejected += 1
            h = h_next
            continue

        t_new = t + h
        g_new = [ev(t_new, y_new) for ev in events]
        fired = [(i, ev) for i, ev in enumerate(events) if ev.fired(g[i], g_new[i])]
        if fired:
            res.t, res.y, ev = _locate(trial, t, y, h, fired, g)
            res.status, res.event = "event", ev.name
            res.n_steps += 1
            res.path.append((res.t, res.y.copy()))
            return res

        t, y, g, h = t_new, y_new, g_new, h_next
        res.n_steps += 1
        res.path.append((t, y.copy()))

    res.t, res.y = t, y
    return res


def solve_adaptive(
    f: RhsFn,
    t0: float,
    y0: np.ndarray,
    t_end: float,
    events: Sequence[Event] = (),
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_steps: int = MAX_STEPS,
) -> IntResult:
    """Integrate y' = f(t, y) with DP54, stopping at t_end or the first
    event; see `_drive` for max_steps and the recorded path."""
    stepper = _dp54(f, rtol, atol)
    return _drive(stepper, t0, y0, t_end, 1e-6, events, max_steps)


def solve_fixed(
    f: RhsFn,
    t0: float,
    y0: np.ndarray,
    t_end: float,
    h: float,
    events: Sequence[Event] = (),
    *,
    max_steps: int = MAX_STEPS,
) -> IntResult:
    """As `solve_adaptive`, with classical RK4 at constant step h."""
    if h <= 0:
        raise ValueError("step must be positive")
    return _drive(_rk4(f), t0, y0, t_end, h, events, max_steps)
