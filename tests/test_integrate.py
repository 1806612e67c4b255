"""Driver-level checks against problems with known closed-form answers."""

import math

import numpy as np
import pytest

from vbisect import integrate
from vbisect.integrate import T_TOL, Event, solve_adaptive, solve_fixed


SOLVERS = ("adaptive", "fixed")


def _harmonic(t, y):
    return np.array([y[1], -y[0]])


def _solve(solver, f, t0, y0, t_end, events=(), h=0.01, **kw):
    """One entry point of the driver: DP54, or RK4 at step h."""
    if solver == "adaptive":
        return solve_adaptive(f, t0, y0, t_end, events, **kw)
    return solve_fixed(f, t0, y0, t_end, h, events, **kw)


def test_adaptive_exponential_decay():
    res = solve_adaptive(lambda t, y: -y, 0.0, np.array([1.0]), 2.0)
    assert res.status == "t_end"
    assert res.t == 2.0
    assert abs(res.y[0] - math.exp(-2)) < 1e-9


def test_constant_entries_leave_the_step_count_alone():
    # the error norm is over the entries that move: padding the harmonic
    # oscillator with entries that never change takes the same steps
    def padded(t, y):
        return np.concatenate([_harmonic(t, y[:2]), np.zeros(y.size - 2)])

    base = solve_adaptive(_harmonic, 0.0, np.array([0.0, 1.0]), math.pi)
    pad = solve_adaptive(padded, 0.0, np.array([0.0, 1.0] + [0.5] * 6), math.pi)
    assert (pad.n_steps, pad.n_rejected) == (base.n_steps, base.n_rejected)
    assert np.abs(pad.y[:2] - base.y).max() <= 1e-14


def test_adaptive_harmonic_half_period():
    res = solve_adaptive(_harmonic, 0.0, np.array([0.0, 1.0]), math.pi)
    assert abs(res.y[0]) < 1e-8
    assert abs(res.y[1] + 1.0) < 1e-8


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_adaptive_exponential_meets_tolerance(sign):
    res = solve_adaptive(lambda t, y: sign * y, 0.0, np.array([1.0]), 1.0, rtol=1e-10)
    assert res.status == "t_end"
    assert abs(res.y[0] - math.exp(sign)) <= 1e-9 * math.exp(sign)


def _first_step_probe(f, y0, span, rtol=1e-10, atol=1e-12):
    """The starting step for y' = f from t = 0 over span, and the times at
    which it evaluated f (`_first_step` also returns f0, dropped here)."""
    seen = []

    def spy(t, y):
        seen.append(t)
        return f(t, y)

    y0 = np.asarray(y0, dtype=float)
    return integrate._first_step(spy, 0.0, y0, span, rtol, atol)[0], seen


def test_first_step_is_capped_at_the_span():
    for f in (lambda t, y: -y, _harmonic, lambda t, y: 1e-9 * y):
        for span in (1e-20, 1e-9, 1e-3, 1.0, 1e3):
            h, seen = _first_step_probe(f, [1.0, 0.5], span)
            assert 0.0 < h <= span and len(seen) == 2
            assert seen[1] <= span
    # a solve over a span shorter than the estimate takes one step
    res = solve_adaptive(lambda t, y: -y, 0.0, np.array([1.0]), 1e-4)
    assert (res.n_steps, res.n_rejected, res.t) == (1, 0, 1e-4)


def test_first_step_falls_back_on_a_zero_state_or_derivative():
    # the trial Euler step is 1e-6 when y0 or f0 is zero; with nothing
    # moving, the step stays there
    for f, y0 in ((lambda t, y: np.ones(2), [0.0, 0.0]),
                  (lambda t, y: np.zeros(2), [1.0, 2.0]),
                  (lambda t, y: np.zeros(2), [0.0, 0.0])):
        h, seen = _first_step_probe(f, y0, 1.0)
        assert seen == [0.0, 1e-6]
        assert 1e-6 <= h <= 1e-4
    assert _first_step_probe(lambda t, y: np.zeros(1), [1.0], 1.0)[0] == 1e-6
    h, seen = _first_step_probe(lambda t, y: -y, [1.0], 1.0)
    assert seen[1] > 1e-6 and h > 1e-3


def test_fixed_grid_is_fourth_order():
    # halving h on the logistic problem should cut the error ~16x
    exact = 1.0 / (1.0 + 4.0 * math.exp(-2.0))
    f = lambda t, y: y * (1 - y)
    errs = []
    for h in (0.1, 0.05):
        res = solve_fixed(f, 0.0, np.array([0.2]), 2.0, h)
        errs.append(abs(res.y[0] - exact))
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_fixed_final_step_lands_on_t_end():
    res = solve_fixed(lambda t, y: y * (1 - y), 0.0, np.array([0.2]), 1.0, 0.3)
    assert res.t == 1.0
    assert res.status == "t_end"
    assert res.n_steps == 4


def test_event_location_exponential_doubling():
    ev = Event(lambda t, y: y[0] - 2.0, direction=1, name="doubled")
    res = solve_adaptive(lambda t, y: y, 0.0, np.array([1.0]), 5.0, [ev])
    assert res.status == "event"
    assert res.event == "doubled"
    assert abs(res.t - math.log(2)) < 1e-8


@pytest.mark.parametrize(
    "direction,expected_t",
    [(-1, math.pi), (1, 2 * math.pi)],
)
def test_event_direction_filter(direction, expected_t):
    """sin(t) from t=0.5: the falling zero is at pi, the rising one at 2*pi."""
    y0 = np.array([math.sin(0.5), math.cos(0.5)])
    ev = Event(lambda t, y: y[0], direction=direction, name="zero")
    for solver in SOLVERS:
        res = _solve(solver, _harmonic, 0.5, y0, 10.0, [ev])
        assert res.status == "event", solver
        assert abs(res.t - expected_t) < 1e-7, solver


def test_earlier_event_wins():
    evs = [
        Event(lambda t, y: t - 0.7, name="late"),
        Event(lambda t, y: t - 0.5, name="early"),
    ]
    one = lambda t, y: np.array([1.0])
    for solver in SOLVERS:  # the fixed grid's first step crosses both
        res = _solve(solver, one, 0.0, np.array([0.0]), 2.0, evs, h=1.0)
        assert res.event == "early", solver
        assert abs(res.t - 0.5) < 1e-8, solver


def test_no_event_fires_at_leg_start():
    # g == 0 exactly at t0 and decreasing afterwards; a falling crossing
    # needs g > 0 strictly before the step, so the leg runs to t_end
    ev = Event(lambda t, y: y[0] - 1.0, direction=-1, name="at_start")
    for solver in SOLVERS:
        res = _solve(solver, lambda t, y: -y, 0.0, np.array([1.0]), 1.0, [ev])
        assert res.status == "t_end", solver
        assert res.event is None, solver


def test_max_steps_reported():
    # the cap counts attempted steps; the rate jump at t = 0.01 makes the
    # adaptive stepper reject some before it is reached
    f = lambda t, y: -y if t < 0.01 else -1e3 * y
    for solver in SOLVERS:
        res = _solve(solver, f, 0.0, np.array([1.0]), 100.0, max_steps=10)
        assert res.status == "max_steps", solver
        assert res.n_steps + res.n_rejected == 10, solver


def test_fixed_event_and_path():
    ev = Event(lambda t, y: y[0] - 0.5, direction=1, name="half")
    res = solve_fixed(lambda t, y: y * (1 - y), 0.0, np.array([0.2]), 5.0, 0.01, [ev])
    assert res.status == "event"
    # logistic from 0.2 reaches 0.5 at t = ln 4
    assert abs(res.t - math.log(4)) < 1e-6


def test_rounding_remainder_of_the_span_counts_as_arrival():
    # a span below the step-size floor is arrival at t_end, not an underflow
    for solver in SOLVERS:
        res = _solve(solver, lambda t, y: -y, 0.0, np.array([1.0]), 1e-20)
        assert res.status == "t_end", solver
        assert res.y[0] == 1.0, solver


# -- event location ---------------------------------------------------------

# rhs calls a trial costs plain bisection, which integrates each trial from
# the step's start with f evaluated there afresh
BISECTION_CALLS_PER_TRIAL = {"adaptive": 7, "fixed": 4}


def _locating(monkeypatch, solver, f, y0, t_end, events, **kw):
    """Solve from t = 0 with a counting rhs and a spy on `_locate`.

    Returns the result, the rhs calls spent locating (the total less the
    calls its steps account for: DP54 makes 2 for its starting step, 6 on
    the first attempt, which reuses the first of those as its k1, and 6 on
    each later one; RK4 makes 4 a step), and
    the searched step as (trial, t0, h, fired)."""
    calls = [0]

    def counted(t, y):
        calls[0] += 1
        return f(t, y)

    seen = []
    real = integrate._locate

    def spy(trial, t0, h, y1, fired, g0, g1):
        seen.append((trial, t0, h, fired))
        return real(trial, t0, h, y1, fired, g0, g1)

    monkeypatch.setattr(integrate, "_locate", spy)
    res = _solve(solver, counted, 0.0, np.asarray(y0, dtype=float), t_end, events, **kw)
    assert res.status == "event" and len(seen) == 1, solver
    if solver == "adaptive":
        stepping = 2 + 6 + 6 * (res.n_steps + res.n_rejected - 1)
    else:
        stepping = 4 * res.n_steps
    return res, calls[0] - stepping, seen[0]


def _crossing(trial, t0, h, ev):
    """The first time in the step at which ev has changed sign, bisected on
    the step's own trial integration to float resolution."""
    side = math.copysign(1.0, ev(t0, trial(0.0)))
    lo, hi = 0.0, h
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if side * ev(t0 + mid, trial(mid)) <= 0.0:
            hi = mid
        else:
            lo = mid
    return t0 + hi


LOCATE_CASES = {
    # name: (rhs, y0, events, the event that ends the run, solver options)
    "rising": (lambda t, y: y, [1.0],
               [Event(lambda t, y: y[0] - 2.0, direction=1, name="two")],
               "two", {"fixed": {"h": 0.01}}),
    "falling": (lambda t, y: -y, [1.0],
                [Event(lambda t, y: y[0] - 0.5, direction=-1, name="half")],
                "half", {"fixed": {"h": 0.01}}),
    "triple_root": (lambda t, y: np.ones(1), [0.0],
                    [Event(lambda t, y: (y[0] - 0.3) ** 3, name="cube")],
                    "cube", {"fixed": {"h": 0.07}}),
    # loose tolerances make the adaptive steps long enough to cross both
    "two_in_one_step": (lambda t, y: y, [1.0],
                        [Event(lambda t, y: y[0] - 2.05, direction=1, name="late"),
                         Event(lambda t, y: y[0] - 2.0, direction=1, name="early")],
                        "early", {"fixed": {"h": 0.5},
                                  "adaptive": {"rtol": 1e-3, "atol": 1e-6}}),
}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("case", sorted(LOCATE_CASES))
def test_event_location_contract(monkeypatch, solver, case):
    f, y0, events, name, options = LOCATE_CASES[case]
    res, locating, (trial, t0, h, fired) = _locating(
        monkeypatch, solver, f, y0, 5.0, events, **options.get(solver, {}))
    assert len(fired) == (2 if case == "two_in_one_step" else 1)
    assert res.event == name
    first = next(ev for ev in events if ev.name == name)
    assert abs(res.t - _crossing(trial, t0, h, first)) <= T_TOL
    # within plain bisection's trials on this step (one to the step's end,
    # then one per halving) plus 2, and at most 8 on a smooth crossing
    per_trial = BISECTION_CALLS_PER_TRIAL[solver]
    bisection = 1 + math.ceil(math.log2(h / T_TOL))
    assert locating <= (bisection + 2) * per_trial
    if case != "triple_root":
        assert locating <= 8 * per_trial
