"""Explicit Runge-Kutta integration with sign-change event location.

One loop, `_drive`, owns the step cap, the step-size floor, and event
detection and location. It takes one of two steppers: an adaptive
Dormand-Prince 5(4) pair for accuracy-controlled work, or classical RK4
on a fixed grid for budgeted-step-count runs. Events are scalar functions
of (t, y); the loop stops at the first sign change and locates the
crossing time with a safeguarded bracketing root finder, to within T_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

RhsFn = Callable[[float, np.ndarray], np.ndarray]
EventFn = Callable[[float, np.ndarray], float]

# Dormand-Prince 5(4) tableau: c nodes, a coefficients as one lower-triangular
# array (row i gives stage i), 5th-order weights b, and the difference e of b
# and the embedded 4th-order weights, which is the error estimate's.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = _DP_B - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

T_TOL = 1e-10  # absolute tolerance for event crossing times
LOCATE_SLACK = 2  # trials event location may spend beyond bisection's halvings
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


def _dp54_step(f: RhsFn, t: float, y: np.ndarray, h: float, k1: np.ndarray | None):
    """One DP54 step: returns (y5, error_estimate, k1, k7).

    FSAL pair: k7 is f at y5 and serves as the next step's k1; the returned
    k1 lets a rejected step's caller retry without re-evaluating f(t, y).
    """
    k = np.zeros((7, y.size))  # rows not yet formed are 0, as are their a's
    k[0] = f(t, y) if k1 is None else k1
    for i in range(1, 7):
        k[i] = f(t + _DP_C[i] * h, y + h * _DP_A[i].dot(k))
    return y + h * _DP_B.dot(k), h * _DP_E.dot(k), k[0], k[6]


def _rk4_step(f: RhsFn, t: float, y: np.ndarray, h: float,
              k1: np.ndarray | None = None) -> np.ndarray:
    k1 = f(t, y) if k1 is None else k1
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


# A stepper is a pair (step, trial). step(t, y, h) returns (y at t + h, or
# None if the step is rejected, and the next step size); trial(t, y) returns
# the function that integrates from (t, y) by exactly dt in one step, for
# event location. It evaluates f(t, y) once, for all of its calls.


def _dp54(f: RhsFn, rtol: float, atol: float, k1: np.ndarray | None):
    """Adaptive DP54 stepper: error control, rejection, and FSAL reuse of
    f at the last accepted point; k1 is f at the first step's start, or
    None to evaluate it there. The error norm is the max over entries, so entries that never
    move (as z_0..z_{d-1} in stage two) leave the tolerance alone."""

    def step(t: float, y: np.ndarray, h: float):
        nonlocal k1
        y_new, err, k1, k7 = _dp54_step(f, t, y, h, k1)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.abs(err / scale).max())
        if err_norm > 1.0:
            return None, h * max(0.2, 0.9 * err_norm ** -0.2)
        k1 = k7
        return y_new, h * (min(5.0, 0.9 * err_norm ** -0.2) if err_norm > 0 else 5.0)

    def trial(t: float, y: np.ndarray):
        k = f(t, y)
        return lambda dt: _dp54_step(f, t, y, dt, k)[0]

    return step, trial


def _rk4(f: RhsFn):
    """Fixed-grid RK4 stepper: every step is accepted at the same size."""

    def trial(t: float, y: np.ndarray):
        k = f(t, y)
        return lambda dt: _rk4_step(f, t, y, dt, k)

    return (lambda t, y, h: (_rk4_step(f, t, y, h), h)), trial


def _scaling(new: float, old: float) -> float:
    """Anderson-Bjorck factor for an event's value at the end of the
    bracket a trial kept, from its values before and after the trial at the
    end it moved: 1 - new/old, or 1/2 (Illinois) where that is not in
    (0, 1)."""
    m = 1.0 - new / old if old else 0.0
    return m if 0.0 < m < 1.0 else 0.5


def _locate(trial, t0: float, h: float, y1: np.ndarray, fired, g0, g1):
    """Locate the first crossing in the step of length h from t0, ending at
    y1. fired holds the (index, event) pairs that fired over the whole step,
    g0 and g1 the event values at its ends, and trial(dt) integrates from
    t0 by exactly dt.

    The bracket [lo, hi] starts as [0, h] and shrinks on "some fired event
    has crossed". Each fired event is tracked by phi = +-g, positive before
    its crossing. The next trial point is the earliest regula falsi
    estimate over the events that have crossed at hi, kept T_TOL/2 clear of
    both ends, so a sharp estimate closes the bracket on the next trial.
    When a trial moves the same end as the trial before it, or is the
    first, the values at the end it kept are scaled down as in Anderson
    and Bjorck (BIT 13, 1973), so a one-sided approach, as on a strongly
    curved event, crosses over within a trial or two. As
    in ITP (Oliveira and Takahashi, ACM TOMS 47, 2021), it is then projected
    into a radius about the midpoint that still lets the bracket reach
    T_TOL within LOCATE_SLACK trials of bisection's count, whatever the
    events' shape. Returns (t, y, event) at the right end of the final
    bracket, at most T_TOL wide: no fired event has crossed at its left
    end, and event is the first fired one that has crossed at its right.
    """
    sign = [1.0 if g0[i] > 0.0 else -1.0 for i, _ in fired]

    def phi(dt: float, y: np.ndarray) -> list[float]:
        return [s * ev(t0 + dt, y) for s, (_, ev) in zip(sign, fired)]

    lo, hi, y_hi = 0.0, h, y1
    p_lo = [s * g0[i] for s, (i, _) in zip(sign, fired)]
    p_hi = [s * g1[i] for s, (i, _) in zip(sign, fired)]
    # trials left: keeping x within r of the midpoint keeps w under
    # 0.99 T_TOL 2^budget, the 1% being headroom for rounding
    budget = math.ceil(math.log2(h / T_TOL)) + LOCATE_SLACK if h > T_TOL else 0
    kept = 0  # +1 after a trial moved hi, -1 after one moved lo
    while hi - lo > T_TOL:
        w = hi - lo
        mid = lo + 0.5 * w
        x = min(lo + w * a / (a - b) for a, b in zip(p_lo, p_hi) if b <= 0.0)
        x = min(hi - 0.5 * T_TOL, max(lo + 0.5 * T_TOL, x))
        r = max(0.495 * T_TOL * 2.0**budget - 0.5 * w, 0.0)
        budget -= 1
        x = min(mid + r, max(mid - r, x))
        y = trial(x)
        p = phi(x, y)
        if any(v <= 0.0 for v in p):
            if kept >= 0:  # lo kept twice, the step's ends counting as kept once
                p_lo = [_scaling(a, b) * v for a, b, v in zip(p, p_hi, p_lo)]
            hi, y_hi, p_hi = x, y, p
            kept = 1
        else:
            if kept <= 0:
                p_hi = [_scaling(a, b) * v for a, b, v in zip(p, p_lo, p_hi)]
            lo, p_lo = x, p
            kept = -1
    ev = next(ev for (_, ev), v in zip(fired, p_hi) if v <= 0.0)
    return t0 + hi, y_hi, ev


def _drive(stepper, t0, y0, t_end, h, events, max_steps) -> IntResult:
    """Step from (t0, y0) with initial step h to t_end or the first event.

    max_steps caps attempted steps, rejected ones included. The last step
    is shortened to land on t_end.
    """
    step, trial = stepper
    t = float(t0)
    y = np.asarray(y0, dtype=float).copy()
    res = IntResult(t=t, y=y, status="t_end")
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
            res.t, res.y, ev = _locate(trial(t, y), t, h, y_new, fired, g, g_new)
            res.status, res.event = "event", ev.name
            res.n_steps += 1
            return res

        t, y, g, h = t_new, y_new, g_new, h_next
        res.n_steps += 1

    res.t, res.y = t, y
    return res


def _first_step(f: RhsFn, t0: float, y0: np.ndarray, span: float,
                rtol: float, atol: float) -> tuple[float, np.ndarray]:
    """Starting step of a DP54 solve, by the rule of Hairer, Norsett and
    Wanner (Solving ODEs I, II.4), and f0 = f(t0, y0), which the first
    DP54 attempt reuses as its k1. With norms scaled as the error norm's,
    a trial h0 = 0.01 |y0| / |f0| makes one Euler step, and h is the size
    at which a 5th-power error estimate from |f0| and the change in f over
    h0 would be 0.01, at most 100 h0 and at most span. h0 falls back to
    1e-6 when y0 or f0 is zero (scaled norm under 1e-5). Costs two calls
    of f."""
    y0 = np.asarray(y0, dtype=float)
    scale = atol + rtol * np.abs(y0)
    f0 = f(t0, y0)
    d0, d1 = np.abs(y0 / scale).max(), np.abs(f0 / scale).max()
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = np.abs((f(t0 + h0, y0 + h0 * f0) - f0) / scale).max() / h0
    rate = max(d1, d2)
    h1 = (0.01 / rate) ** 0.2 if rate > 1e-15 else max(1e-6, 1e-3 * h0)
    return float(min(100.0 * h0, h1, span)), f0


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
    event; see `_drive` for max_steps."""
    h, f0 = (_first_step(f, t0, y0, t_end - t0, rtol, atol) if t_end > t0
             else (0.0, None))
    return _drive(_dp54(f, rtol, atol, f0), t0, y0, t_end, h, events, max_steps)


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
