"""Fluid-limit integration: construction, conservation, closed forms the
right-hand sides must obey, and frozen end-to-end values.

The closed forms (linear drain of the point pools, the power law for the
untouched class) were derived by hand and cross-checked with a separate
single-file integrator before being asserted here.
"""

import itertools
import math

import numpy as np
import pytest

from vbisect import dem
from vbisect.integrate import Event, solve_adaptive

NEVER = [Event(lambda t, y: 1.0, direction=0, name="never")]

# Adaptive-mode end values at default settings, frozen from the build in
# which stage one stops mid-round, the hand-off carries all of the mass and
# the readout is the boundary of the balanced partition. Tight pins so
# numerical drift in any refactor shows up.
ALPHA_PINNED = {
    3: 0.5593919943441676,
    4: 0.7519176836009062,
    5: 0.8695523938590625,
    6: 0.9069932613548599,
    7: 0.8220098768048919,
    8: 0.9587038154404097,
    9: 0.8863319698046255,
    10: 0.8576948202135218,
}
PHASES_PINNED = {3: 16, 4: 10, 5: 8, 6: 7, 7: 7, 8: 6, 9: 5, 10: 6}
FLAGS_PINNED = {d: [] for d in range(3, 11)}


# -- construction -----------------------------------------------------------


def test_init_state_profile_d4():
    s = dem.init_state(4, 1e-5)
    assert s.r.tolist() == [1e-5 / 3, 0.0, 0.0, 1e-5]
    assert s.z[:4].tolist() == [0.0] * 4
    assert s.z[4] == 1.0 - 1e-5 - 1e-5 / 3
    assert s.mass == pytest.approx(1.0, abs=1e-15)


def test_init_state_profile_d9():
    s = dem.init_state(9, 1e-4)
    assert s.r[0] == 1e-4 / 8
    assert s.r[8] == 1e-4
    assert s.points_red == pytest.approx(8e-4, rel=1e-12)


def test_init_state_rejects_bad_eps():
    with pytest.raises(ValueError):
        dem.init_state(4, 0.0)
    with pytest.raises(ValueError):
        dem.init_state(4, 0.75)
    with pytest.raises(ValueError):
        dem.init_state(4, -1e-6)


def test_state_point_accounting():
    s = dem.DemState(4, np.array([0.1, 0.2, 0.0, 0.1]),
                     np.array([0.0, 0.1, 0.0, 0.2, 0.3]))
    assert s.points_red == pytest.approx(0.2 + 0.3)
    assert s.points_white == pytest.approx(0.1 + 0.6 + 1.2)
    assert s.red_mass == pytest.approx(0.4)


# -- right-hand sides -------------------------------------------------------


@pytest.mark.parametrize("d", range(3, 11))
def test_rhs_sums_vanish_on_random_states(d):
    rng = np.random.default_rng(d)
    f1 = dem.rhs_phase1(d)
    f2 = dem.rhs_phase2(d)
    f2b = dem.rhs_phase2_fallback(d)
    for _ in range(200):
        y = rng.uniform(0.01, 1.0, 2 * d + 1)
        assert abs(float(f1(0.0, y).sum())) <= 1e-12
        assert abs(float(f2(0.0, y).sum())) <= 1e-12
        assert abs(float(f2b(0.0, y).sum())) <= 1e-12


def test_untouched_class_drains_at_unit_rate_initially():
    # with almost all points in the untouched class, its loss rate is ~1
    s = dem.init_state(4, 1e-5)
    dy = dem.rhs_phase1(4)(0.0, np.concatenate([s.r, s.z]))
    assert dy[4 + 4] == pytest.approx(-1.0, abs=1e-3)
    assert abs(float(dy.sum())) <= 1e-12


def test_stage_one_pools_drain_linearly():
    r0 = np.array([0.05, 0.1, 0.05, 0.02])
    z0 = np.array([0.01, 0.02, 0.03, 0.04, 0.6])
    s0 = dem.DemState(4, r0, z0)
    A = s0.points_all
    T = 0.4 * s0.points_red
    rnd = dem.ExactRound(s0)
    assert T < rnd.t_at(rnd.u_end)
    end = rnd.state(rnd.u_at(T))
    assert end.points_all == pytest.approx(A - 2 * T, abs=1e-12)
    # the untouched class sees only the all-points draw, d times per vertex
    assert end.z[4] == pytest.approx(z0[4] * ((A - 2 * T) / A) ** 2, abs=1e-12)
    # and the red points follow p_red = s (c + s), s = sqrt(A - 2t)
    s, c = math.sqrt(A - 2 * T), s0.points_red / math.sqrt(A) - math.sqrt(A)
    assert end.points_red == pytest.approx(s * (c + s), abs=1e-12)


def _random_stage_one_state(d, rng):
    s = dem.DemState(d, rng.uniform(0.01, 1.0, d), rng.uniform(0.01, 1.0, d + 1))
    total = s.mass
    return dem.DemState(d, s.r / total, s.z / total)


@pytest.mark.parametrize("d", range(3, 11))
def test_exact_round_matches_integrated_rhs(d):
    # the oracle: rhs_phase1 integrated by the adaptive solver, at mid-round
    # and at the end of the round, from the seed and from a random state
    rng = np.random.default_rng(40 + d)
    for s0 in (dem.init_state(d, 1e-5), _random_stage_one_state(d, rng)):
        rnd = dem.ExactRound(s0)
        y0 = np.concatenate([s0.r, s0.z])
        t_end = rnd.t_at(rnd.u_end)
        for t in (0.5 * t_end, t_end):
            oracle = solve_adaptive(dem.rhs_phase1(d), 0.0, y0, t, rtol=1e-10)
            assert oracle.status == "t_end"
            assert np.abs(rnd.vector(t) - oracle.y).max() <= 1e-9
        end = rnd.state(rnd.u_end)
        assert end.points_red == pytest.approx(dem.DELTA_STOP, rel=1e-6)
        assert end.r.min() >= 0.0 and end.z.min() >= 0.0


@pytest.mark.parametrize("d", range(3, 11))
@pytest.mark.parametrize("promote_fully_paired", [True, False])
def test_exact_round_pull_back_matches_backward_solve(
    monkeypatch, d, promote_fully_paired
):
    # the oracle: the backward equations solved along the exact round's
    # path, from the seed, from a promoted random state (the start of a
    # later round) and from a random state with every white class filled.
    # At the readout's own tolerance the solve is off by up to 2.5e-8, so
    # the oracle runs at the stage-one oracle's rtol
    monkeypatch.setattr(dem, "READOUT_RTOL", 1e-10)
    monkeypatch.setattr(dem, "READOUT_ATOL", 1e-12)
    rng = np.random.default_rng([60 + d, promote_fully_paired])
    rand = _random_stage_one_state(d, rng)
    starts = (dem.init_state(d, 1e-5), dem.rollover(rand, promote_fully_paired), rand)
    for s0 in starts:
        rnd = dem.ExactRound(s0)
        for u in (0.5 * rnd.u_end, rnd.u_end):
            x = rng.uniform(0.0, 1.0, 2 * (2 * d + 1))
            leg = dem.Leg("one", rnd.t_at(u), rnd.vector)
            oracle, status = dem._pull_back_leg(d, leg, x)
            assert status == "t_end"
            got = rnd.pull_back(u, x)
            assert np.abs(got - oracle).max() <= 1e-9
            # h is a martingale along a vertex's chain, exactly
            h_start, h_end = got[: 2 * d + 1], x[: 2 * d + 1]
            assert s0.vector @ h_start == pytest.approx(
                rnd.state(u).vector @ h_end, abs=1e-12
            )


@pytest.mark.parametrize("promote_fully_paired", [True, False])
def test_stop_is_the_first_crossing_of_the_target(promote_fully_paired):
    # a round of the default d = 4 run, with a target halfway through its
    # promotion: just before the stop the promotion falls short
    res = dem.run_dem(4, promote_fully_paired=promote_fully_paired)
    rnd = dem.ExactRound(res.post_roll_states[3])
    frac = rnd.s0.red_mass + 0.5 * (
        dem.rollover(rnd.state(rnd.u_end), promote_fully_paired).red_mass
        - rnd.s0.red_mass
    )
    u = rnd.stop_u(frac, promote_fully_paired)
    assert 0.0 < u < rnd.u_end
    for v, short in ((u, False), (u * (1 - 1e-12), True)):
        red = dem.rollover(rnd.state(v), promote_fully_paired).red_mass
        assert (red < frac) is short
    assert rnd.stop_u(1.0, promote_fully_paired) is None


def _stop_u_on_the_state(rnd, frac, promote_fully_paired):
    """Reference for `ExactRound.stop_u`: bisection that builds the
    promoted state at every halving."""

    def short(u):
        return dem.rollover(rnd.state(u), promote_fully_paired).red_mass < frac

    lo, hi = 0.0, min(rnd.u_end, 0.5)
    if short(hi):
        return None
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if short(mid) else (lo, mid)
    return hi


@pytest.mark.parametrize("promote_fully_paired", [True, False])
@pytest.mark.parametrize("d", range(3, 11))
def test_stop_u_matches_bisection_on_the_state(d, promote_fully_paired):
    # every round of a run, including the one it stops in: the closed form
    # only picks each halving's side, so the stop is the same float
    for frac in (0.5, 0.05):
        res = dem.run_dem(d, stop_fraction=frac,
                          promote_fully_paired=promote_fully_paired)
        starts = [dem.init_state(d, res.eps)] + res.post_roll_states[:-1]
        for s0 in starts:
            rnd = dem.ExactRound(s0)
            assert rnd.stop_u(frac, promote_fully_paired) == _stop_u_on_the_state(
                rnd, frac, promote_fully_paired
            )


@pytest.mark.parametrize("family", ["draw_low", "draw_any"])
def test_stage_two_red_pool_drains_at_rate_two(family):
    s0 = dem.DemState(4, np.array([0.05, 0.1, 0.05, 0.02]),
                      np.array([0.0, 0.0, 0.0, 0.0, 0.3]))
    f = dem.rhs_phase2(4) if family == "draw_low" else dem.rhs_phase2_fallback(4)
    T = 0.05
    end, fired, raw = dem.integrate_phase(f, s0, NEVER, t_max=T)
    assert raw.status == "t_end"
    assert end.points_all == pytest.approx(s0.points_all - 2 * T, abs=1e-12)


@pytest.mark.parametrize("kind", ["one", "two", "fallback"])
def test_leg_rates_follow_the_pairing_model(kind):
    # the simulation's rules on a d = 4 hand state [r_0..r_3, z_0..z_4]: a
    # first point uniform over the drawn pool, a second uniform over every
    # unpaired point, and the owner of each point moves one point down.
    # Stage one draws from every red class and a hit white keeps its
    # colour; stage two draws from red classes 1..top (1..ceil(d/2), or
    # every red class in the fallback) and a hit white turns red.
    d = 4
    cls = [("red", i) for i in range(d)] + [("white", j) for j in range(d + 1)]
    y = np.array([0.05, 0.1, 0.05, 0.02, 0.01, 0.02, 0.03, 0.04, 0.6])
    top = {"one": 3, "two": 2, "fallback": 3}[kind]
    drawn = lambda c, i: c == "red" and i <= top
    p_first = sum(i * v for (c, i), v in zip(cls, y) if drawn(c, i))
    p_all = sum(i * v for (c, i), v in zip(cls, y))
    want = np.zeros(y.size)
    for a, ((c, i), v) in enumerate(zip(cls, y)):
        if i == 0:
            continue
        flow = i * v * ((1 / p_first if drawn(c, i) else 0.0) + 1 / p_all)
        want[a] -= flow
        want[cls.index((c if kind == "one" else "red", i - 1))] += flow
    rhs = {"one": dem.rhs_phase1, "two": dem.rhs_phase2,
           "fallback": dem.rhs_phase2_fallback}[kind]
    assert rhs(d)(0.0, y) == pytest.approx(want.tolist(), abs=1e-14)
    # the readout's backward pass draws first points from the same pool
    _, _, first = dem._leg_layout(d, kind)
    assert [f for f, (c, i) in zip(first, cls) if i > 0] == [
        float(drawn(c, i)) for c, i in cls if i > 0
    ]


# -- transitions ------------------------------------------------------------


# dyadic values so the sums below are exact in binary floats
def test_rollover_moves_shells_to_red():
    s = dem.DemState(4, np.full(4, 0.125), np.array([0.0625] * 4 + [0.25]))
    rolled = dem.rollover(s)
    assert rolled.r.tolist() == [0.1875] * 4
    assert rolled.z.tolist() == [0.0, 0.0, 0.0, 0.0, 0.25]


def test_rollover_literal_variant_keeps_class_zero():
    s = dem.DemState(4, np.full(4, 0.125), np.array([0.0625] * 4 + [0.25]))
    rolled = dem.rollover(s, promote_fully_paired=False)
    assert rolled.r.tolist() == [0.125, 0.1875, 0.1875, 0.1875]
    assert rolled.z[0] == 0.0625


def test_stage_two_relabel_drops_open_shells():
    # named for the defect it pinned: the relabel now promotes the hit
    # whites (shells) into the red classes instead of dropping them. Both
    # stages share one layout, so the hand-off is the promotion itself.
    s = dem.DemState(4, np.array([0.25, 0.125, 0.0, 0.0625]),
                     np.array([0.015625, 0.03125, 0.0, 0.0, 0.5]))
    s2 = dem.phase2_init(s)
    assert s2.r.tolist() == [0.265625, 0.15625, 0.0, 0.0625]
    assert s2.z.tolist() == [0.0, 0.0, 0.0, 0.0, 0.5]
    assert s2.mass == s.mass
    # the literal variant keeps the fully paired whites white, in z_0
    s3 = dem.phase2_init(s, promote_fully_paired=False)
    assert s3.r.tolist() == [0.25, 0.15625, 0.0, 0.0625]
    assert s3.z.tolist() == [0.015625, 0.0, 0.0, 0.0, 0.5]
    assert s3.mass == s.mass
    for promote, seed in ((True, s2), (False, s3)):
        rolled = dem.rollover(s, promote)
        assert (seed.r.tolist(), seed.z.tolist()) == (rolled.r.tolist(), rolled.z.tolist())


# -- single legs ------------------------------------------------------------


def test_first_round_ends_when_red_points_run_out():
    rnd = dem.ExactRound(dem.init_state(4, 1e-5))
    # the seed holds 3e-5 red points and they drain at rate just above 1
    assert 2.9e-5 < rnd.t_at(rnd.u_end) < 3.01e-5
    assert rnd.state(rnd.u_end).points_red == pytest.approx(dem.DELTA_STOP, rel=1e-9)
    assert rnd.u_at(rnd.t_at(rnd.u_end)) == pytest.approx(rnd.u_end, rel=1e-12)


def test_fixed_leg_grid_spans_the_drain_time():
    h, t_cap = dem._fixed_leg_grid(1000, 0.4)
    assert t_cap == pytest.approx((17 / 16) * 0.4 / 2.0)
    assert h == pytest.approx(t_cap / 1000)
    # dead pool: the span falls back to the guard width, not zero
    h0, t0 = dem._fixed_leg_grid(1000, 0.0)
    assert t0 == pytest.approx((17 / 16) * dem.DELTA_STOP / 2.0)
    assert h0 > 0
    # huge pool: capped by the hard ceiling
    _, t_big = dem._fixed_leg_grid(1000, 1e9)
    assert t_big == dem.MAX_LEG_TIME


def test_integrate_phase_validation():
    s0 = dem.DemState(4, np.array([0.05, 0.1, 0.05, 0.02]),
                      np.array([0.0, 0.0, 0.0, 0.0, 0.3]))
    f = dem.rhs_phase2(4)
    with pytest.raises(ValueError):
        dem.integrate_phase(f, s0, [])
    with pytest.raises(ValueError):
        dem.integrate_phase(f, s0, NEVER, mode="fixed")
    with pytest.raises(ValueError):
        dem.integrate_phase(f, s0, NEVER, mode="bogus")


# -- full runs --------------------------------------------------------------


@pytest.mark.parametrize("d", range(3, 11))
def test_full_run_end_values_are_stable(d, dem_adaptive):
    res = dem_adaptive[d]
    assert res.alpha_upper == pytest.approx(ALPHA_PINNED[d], abs=1e-6)
    assert res.phase_count == PHASES_PINNED[d]
    assert res.flags == FLAGS_PINNED[d]


@pytest.mark.parametrize("d", [7, 8, 9, 10])
def test_high_degrees_fail_to_balance(d, dem_adaptive):
    # named for the defect it pinned: stage two started with a fraction of
    # the mass, so these degrees drained to alpha ~ 0; now they balance
    res = dem_adaptive[d]
    assert "no_balance" not in res.flags
    assert res.alpha_upper > 0.5


def test_round_capped_stage_one_hands_nothing_to_stage_two(monkeypatch):
    # three rounds leave d = 4 far short of the target, so no stage two
    # can balance: the run reads off where stage one stopped
    monkeypatch.setattr(dem, "MAX_ROUNDS", 3)
    res = dem.run_dem(4)
    assert res.flags == ["round_cap", "no_balance"]
    assert res.n_steps == 0
    assert res.final_state is res.post_roll_states[-1]


def test_stage_two_leg_ending_off_balance_is_flagged():
    # a coarse fixed grid steps a class of this run below zero before
    # the half balances; the run stops there and says so
    res = dem.run_dem(8, 8e-5, 0.2, mode="fixed", steps=125_000)
    assert res.flags == ["stage2_negativity", "no_balance"]
    assert res.n_steps > 0


def test_handoff_precedes_the_crossing_promotion(dem_adaptive):
    res = dem_adaptive[4]
    assert res.handoff_state.red_mass < res.stop_fraction
    assert dem.rollover(res.handoff_state).red_mass >= res.stop_fraction


def test_run_rejects_bad_params():
    with pytest.raises(ValueError):
        dem.run_dem(2)
    with pytest.raises(ValueError):
        dem.run_dem(4, stop_fraction=0.0)
    with pytest.raises(ValueError):
        dem.run_dem(4, stop_fraction=0.6)


def test_default_seed_mass_is_degree_aware():
    assert dem.run_dem(4).eps == 1e-5
    assert dem.run_dem(9).eps == 1e-4


def test_literal_promotion_variant_completes():
    res = dem.run_dem(4, promote_fully_paired=False)
    assert math.isfinite(res.alpha_upper)
    assert 0.0 < res.alpha_upper <= 1.0


@pytest.mark.parametrize("d", range(3, 11))
def test_literal_variant_carries_paired_whites_into_stage_two(d):
    res = dem.run_dem(d, promote_fully_paired=False)
    # every promotion keeps the mass, the last one (the hand-off) included
    for end, rolled in zip(res.round_end_states, res.post_roll_states):
        assert abs(rolled.mass - end.mass) <= dem.CLAMP_TOL
    handoff = res.handoff_state
    assert handoff.z[0] > 0.0
    # stage two never touches them, and the hit-white classes stay empty
    assert res.final_state.z[:d].tolist() == [handoff.z[0]] + [0.0] * (d - 1)
    assert "no_balance" not in res.flags


def test_stop_event_lands_the_promotion_on_the_target(dem_adaptive):
    for res in dem_adaptive.values():
        red = dem.rollover(res.handoff_state).red_mass
        assert res.stop_fraction <= red < res.stop_fraction + 1e-8


def test_mass_losing_hand_off_raises(monkeypatch):
    # the hand-off is the last promotion, so the promotion check covers it
    def dropping_rollover(s, promote_fully_paired=True):
        z = np.zeros(s.d + 1)
        z[s.d] = s.z[s.d]  # the hit whites are left out
        return dem.DemState(s.d, s.r, z)

    monkeypatch.setattr(dem, "rollover", dropping_rollover)
    with pytest.raises(RuntimeError, match="promotion"):
        dem.run_dem(4)


# -- readout ----------------------------------------------------------------


def _run_with_legs(monkeypatch, d, **kw):
    seen = {}
    real = dem.interior_mass

    def spy(d, eps, legs, promote_fully_paired=True):
        seen["legs"] = legs
        return real(d, eps, legs, promote_fully_paired)

    monkeypatch.setattr(dem, "interior_mass", spy)
    return dem.run_dem(d, **kw), seen["legs"]


@pytest.mark.parametrize("d", [3, 5, 8])
@pytest.mark.parametrize("promote_fully_paired", [True, False])
def test_half_membership_pulls_back_to_the_half(monkeypatch, d, promote_fully_paired):
    # h is a martingale along each vertex's chain, so the seed's mass
    # weighted by h must equal the mass of the half at the end
    res, legs = _run_with_legs(
        monkeypatch, d, promote_fully_paired=promote_fully_paired
    )
    h = np.zeros(2 * d + 1)
    h[:d] = 1.0  # red classes 0 and 2..d-1; no white is in the half
    h[1] = 0.0
    x, flags = dem.pull_back(
        d, legs, np.concatenate([h, np.zeros(2 * d + 1)]), promote_fully_paired
    )
    assert flags == []
    seed = dem.init_state(d, res.eps)
    end = res.final_state
    half = end.red_mass - end.r[1]
    assert np.concatenate([seed.r, seed.z]) @ x[: 2 * d + 1] == pytest.approx(
        half, abs=1e-7
    )


@pytest.mark.parametrize("d", [3, 6, 10])
def test_fully_paired_pulls_back_to_class_zero(monkeypatch, d):
    # with every neighbour counted in (h = 1), k is the chance of ending
    # fully paired, so the seed's k-weighted mass is r_0 at the end
    res, legs = _run_with_legs(monkeypatch, d)
    k = np.zeros(2 * d + 1)
    k[0] = 1.0
    x, _ = dem.pull_back(d, legs, np.concatenate([np.ones(2 * d + 1), k]))
    seed = dem.init_state(d, res.eps)
    mass = np.concatenate([seed.r, seed.z]) @ x[2 * d + 1 :]
    assert mass == pytest.approx(res.final_state.r[0], abs=1e-7)


@pytest.mark.parametrize("promote_fully_paired", [True, False])
def test_readout_within_class_bounds(promote_fully_paired):
    # the interior is at most the fully paired red mass, and loses at most
    # d - 1 vertices per class-1 vertex and d per white left white; 1e-7
    # covers the backward solve and the path interpolant. Over the config
    # grid, fixed mode at 125 000 steps included, every backward solve
    # finishes and every run balances in one stage-two leg.
    grid = itertools.product(range(3, 11), (0.5, 0.3), (None, "d/n"), ("adaptive",))
    fixed = ((d, 0.5, None, "fixed") for d in range(3, 11))
    for d, sf, eps, mode in itertools.chain(grid, fixed):
        eps = d / 1e5 if eps == "d/n" else eps
        res = dem.run_dem(
            d, eps, sf, mode=mode, steps=125_000,
            promote_fully_paired=promote_fully_paired,
        )
        assert not [f for f in res.flags if f.startswith(("readout_", "no_balance"))]
        assert res.n_steps > 0
        end = res.final_state
        lost = (d - 1) * end.r[1] + d * end.z[0]
        assert 1.0 - end.r[0] / sf - 1e-7 <= res.alpha_upper
        assert res.alpha_upper <= 1.0 - (end.r[0] - lost) / sf + 1e-7


def test_partial_stop_fraction_run():
    res = dem.run_dem(4, 1e-3, stop_fraction=0.25)
    assert res.final_state.red_mass - res.final_state.r[1] >= 0.25 - 1e-8

