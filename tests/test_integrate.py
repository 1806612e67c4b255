"""Driver-level checks against problems with known closed-form answers."""

import math

import numpy as np
import pytest

from vbisect.integrate import Event, solve_adaptive, solve_fixed


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


def test_every_accepted_step_is_recorded():
    for solver in SOLVERS:
        res = _solve(solver, lambda t, y: -y, 0.0, np.array([1.0]), 1.0, h=0.3)
        ts = [t for t, _ in res.path]
        assert len(ts) == res.n_steps + 1, solver
        assert ts[0] == 0.0, solver
        assert ts[-1] == res.t == 1.0, solver
        assert all(a < b for a, b in zip(ts, ts[1:])), solver


def test_fixed_event_and_path():
    ev = Event(lambda t, y: y[0] - 0.5, direction=1, name="half")
    res = solve_fixed(lambda t, y: y * (1 - y), 0.0, np.array([0.2]), 5.0, 0.01, [ev])
    assert res.status == "event"
    # logistic from 0.2 reaches 0.5 at t = ln 4
    assert abs(res.t - math.log(4)) < 1e-6
    assert len(res.path) == res.n_steps + 1
    assert res.path[-1][0] == res.t


def test_rounding_remainder_of_the_span_counts_as_arrival():
    # a span below the step-size floor is arrival at t_end, not an underflow
    for solver in SOLVERS:
        res = _solve(solver, lambda t, y: -y, 0.0, np.array([1.0]), 1e-20)
        assert res.status == "t_end", solver
        assert res.y[0] == 1.0, solver
