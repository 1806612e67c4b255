"""Exposure-process simulation: state bookkeeping, both stages, and the
agreement of stage-one round profiles and of the built partition's width
with the fluid limit."""

import random

import numpy as np
import pytest

from vbisect import dem
from vbisect.pairing import PairingState, run_alg2, run_alg3


def _signature(st: PairingState):
    return (
        list(st.free),
        bytes(st.is_red),
        st.points_red,
        st.points_white,
        st.size_red,
        st.edge_count,
        st.steps,
        [sorted(c) for c in st.red_cls],
        [sorted(c) for c in st.white_cls],
        [list(p) for p in st.partners],
    )


def _drained_half_red_state(n: int, d: int, rng_seed: int) -> PairingState:
    """Fully paired state with vertices 0..n/2-1 red: stage two has nothing
    left to expose."""
    st = PairingState(n, d)
    for u in range(n // 2):
        st._move(u, 1, st.free[u])
    rng = random.Random(rng_seed)
    while st.points_red + st.points_white > 0:
        u = next(v for v in range(n) if st.free[v] > 0)
        st._expose_from(rng, u, color_on_hit=False)
    st.check_invariants()
    return st


# -- state mechanics --------------------------------------------------------


def test_fresh_state_counts():
    st = PairingState(10, 3)
    st.check_invariants()
    assert st.points_white == 30
    assert st.points_red == 0
    assert len(st.white_cls[3]) == 10


def test_every_step_pairs_two_points():
    st, _ = run_alg2(1000, 4, seed=1, stop_after_steps=500)
    st.check_invariants()
    assert st.points_red + st.points_white == 1000 * 4 - 2 * st.steps


def test_undo_restores_state_exactly():
    st, _ = run_alg2(600, 4, seed=2, stop_after_steps=300)
    rng = random.Random(5)
    before = _signature(st)
    for _ in range(50):
        undo = st.expose_step(rng)
        st.undo_step(undo)
    assert _signature(st) == before
    st.check_invariants()


def test_color_on_hit_grows_red_by_at_most_one():
    st, _ = run_alg2(600, 4, seed=3, stop_after_steps=200)
    rng = random.Random(6)
    for _ in range(100):
        if st.points_red == 0:
            break
        before = st.size_red
        st.expose_step(rng, color_on_hit=True)
        assert st.size_red - before in (0, 1)


def test_plain_step_never_recolors():
    st, _ = run_alg2(600, 4, seed=4, stop_after_steps=200)
    rng = random.Random(7)
    reds = bytes(st.is_red)
    for _ in range(100):
        if st.points_red == 0:
            break
        st.expose_step(rng)
    assert bytes(st.is_red) == reds


def test_rollover_promotes_hit_whites():
    st, _ = run_alg2(800, 4, seed=5, stop_after_steps=350)
    st.rollover()
    assert all(len(st.white_cls[i]) == 0 for i in range(st.d))


def test_rollover_literal_variant_keeps_paired_whites():
    st, _ = run_alg2(800, 4, seed=5, stop_after_steps=350)
    paired_whites = len(st.white_cls[0])
    st.rollover(promote_fully_paired=False)
    assert len(st.white_cls[0]) == paired_whites
    assert all(len(st.white_cls[i]) == 0 for i in range(1, st.d))


def test_class_fractions_sum_to_one():
    st, _ = run_alg2(500, 4, seed=6, stop_after_steps=400)
    r, z = st.class_fractions()
    assert sum(r) + sum(z) == pytest.approx(1.0, abs=1e-12)


# -- stage one --------------------------------------------------------------

def test_first_round_profile_is_start_vertex_and_leaves():
    n, d = 2000, 4
    _, trace = run_alg2(n, d, seed=0)
    r, z = trace.round_end_fractions[0]
    assert r[0] == 1 / n
    assert r[1:] == [0.0] * d
    assert z[d - 1] == d / n
    assert z[d] == (n - d - 1) / n


def test_growth_stops_at_target_fraction():
    st, trace = run_alg2(2000, 4, seed=8)
    assert st.size_red >= 1000
    assert trace.phase_ends == sorted(trace.phase_ends)
    assert len(trace.round_end_fractions) == len(trace.post_roll_fractions)
    assert st.phase_count == len(trace.phase_ends)


def test_partial_target_fraction():
    st, _ = run_alg2(2000, 4, seed=9, stop_fraction=0.25)
    assert st.size_red >= 500
    # stage one stops mid-round, so the promotion lands on the target
    assert st.size_red < 2000


@pytest.mark.parametrize("d", [4, 8])
@pytest.mark.parametrize("promote_fully_paired", [True, False])
def test_mid_round_stop_leaves_stage_two_work(d, promote_fully_paired):
    n = 20_000
    st, trace = run_alg2(n, d, seed=16, promote_fully_paired=promote_fully_paired)
    assert st.size_red == n // 2
    steps0 = st.steps
    run_alg3(st, seed=17)
    assert st.steps > steps0


def test_validation():
    with pytest.raises(ValueError):
        run_alg2(999, 3, seed=0)  # odd point total
    with pytest.raises(ValueError):
        run_alg2(100, 2, seed=0)
    with pytest.raises(ValueError):
        run_alg2(4, 4, seed=0)
    for stop_fraction in (0.0, 0.7, -0.5):
        with pytest.raises(ValueError, match="stop_fraction"):
            run_alg2(1000, 4, seed=0, stop_fraction=stop_fraction)
    # a target half under one vertex
    with pytest.raises(ValueError, match="at least 1"):
        run_alg2(200, 4, seed=0, stop_fraction=0.004)


def test_snapshot_rows_and_csv(tmp_path):
    _, trace = run_alg2(400, 3, seed=10, snapshot_every=100)
    assert trace.rows
    step, phase, cls, kind, frac = trace.rows[0]
    assert kind in ("R", "Z")
    # a step count can repeat across phases; sum one (step, phase) snapshot
    full = [r for r in trace.rows if r[0] == step and r[1] == phase]
    assert sum(r[4] for r in full) == pytest.approx(1.0, abs=1e-9)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,phase,class,kind,fraction"
    assert len(lines) == len(trace.rows) + 1


# -- stage two --------------------------------------------------------------


def test_balance_stage_on_drained_state_counts_cross_edges():
    n = 40
    st = _drained_half_red_state(n, 4, rng_seed=7)
    steps_before = st.steps
    alpha, trace = run_alg3(st, seed=11)
    assert st.steps == steps_before  # nothing left to expose
    assert trace.flags == []
    manual = sum(
        1
        for u in range(n)
        if st.is_red[u] and any(not st.is_red[p] for p in st.partners[u])
    ) / (n / 2)
    assert alpha == manual


def test_balance_stage_after_growth():
    st, _ = run_alg2(4000, 5, seed=12)
    alpha, trace = run_alg3(st, seed=13)
    assert 0.0 < alpha <= 1.0
    assert "red_exhausted" not in trace.flags


def test_short_component_fills_the_half_arbitrarily():
    # the start vertex's component is smaller than the target, so stage two
    # has no red point to expose and the half is topped up from outside it
    st, trace2 = run_alg2(8, 3, seed=34)
    assert trace2.flags == ["component_exhausted"]
    steps0 = st.steps
    alpha, trace3 = run_alg3(st, seed=35)
    assert st.steps == steps0
    assert trace3.flags == ["red_exhausted", "fill_arbitrary"]
    assert alpha == 0.5


def test_stage_two_stops_on_stage_one_target():
    # stage two balances on the fraction stage one stopped on, not on 0.5
    st, _ = run_alg2(4000, 4, seed=0, stop_fraction=0.3)
    steps0 = st.steps
    alpha, trace = run_alg3(st, seed=100)
    assert st.steps > steps0
    assert trace.flags == []
    assert st.size_red - len(st.red_cls[1]) == 1200
    assert alpha == 0.705


def test_half_size_is_exact_after_balancing():
    st, _ = run_alg2(3000, 4, seed=14)
    run_alg3(st, seed=15)
    # the returned partition is implicit; re-derive the half from the state
    # by rerunning is overkill, so only the balance arithmetic is checked
    assert st.size_red - len(st.red_cls[1]) >= 1500


# -- fluid-limit agreement --------------------------------------------------


def test_round_profiles_track_fluid_limit():
    """Mean stage-one round-end profiles, 5 seeds at n=1e5, stay within
    0.01 per class of the integrated system.

    The integration is seeded with eps = d/n because the simulation's
    first promotion turns the start vertex's d leaf partners red, and its
    round k corresponds to round k-1 of the integrated system (the
    simulation spends round zero exposing the start vertex itself).
    """
    n, d = 100_000, 4
    res = dem.run_dem(d, d / n)
    sims = [
        run_alg2(n, d, seed=1000 + i)[1].round_end_fractions for i in range(5)
    ]
    rounds = min(len(s) for s in sims)
    assert rounds >= 8
    worst = 0.0
    for k in range(1, rounds):
        if k - 1 >= len(res.round_end_states):
            break
        ref = res.round_end_states[k - 1]
        mean_r = np.mean([s[k][0] for s in sims], axis=0)
        mean_z = np.mean([s[k][1] for s in sims], axis=0)
        worst = max(
            worst,
            float(np.abs(mean_r[:d] - ref.r).max()),
            float(np.abs(mean_z - ref.z).max()),
            float(mean_r[d]),
        )
    assert worst <= 0.01


@pytest.mark.parametrize("d", [4, 6])
def test_stage_two_profiles_track_fluid_limit(d):
    """Mean class fractions after stage two, 3 seeds at n=2e4, stay within
    0.01 per class of the fluid limit's final state, seeded at eps = d/n.
    Both stages share one layout, so the comparison is slot for slot; a
    red vertex never has d unpaired points. One seed alone can be off by
    more (0.014 at d = 4 with both seeds 0), hence the mean."""
    n = 20_000
    ref = dem.run_dem(d, d / n).final_state
    fractions = []
    for i in range(3):
        st, _ = run_alg2(n, d, seed=70 + i)
        run_alg3(st, seed=80 + i)
        fractions.append(st.class_fractions())
    mean_r, mean_z = np.mean(fractions, axis=0)
    assert mean_r[d] == 0.0
    assert np.abs(mean_r[:d] - ref.r).max() <= 0.01
    assert np.abs(mean_z - ref.z).max() <= 0.01


@pytest.mark.parametrize(
    "d, promote_fully_paired", [(3, True), (5, True), (5, False)]
)
def test_built_partition_tracks_fluid_readout(d, promote_fully_paired):
    """The width of the partition the simulation builds stays within 0.01
    of the fluid-limit readout seeded at eps = d/n, at degrees and in the
    variant that criterion 8 leaves out. The open red classes alone
    (classes 1..d-1 over n/2) read 0.06 higher at d = 3 and 0.03 higher
    at d = 5, so this also tells the two readouts apart."""
    n = 20_000
    ode = dem.run_dem(d, d / n, promote_fully_paired=promote_fully_paired)
    alphas = []
    for i in range(3):
        st, _ = run_alg2(
            n, d, seed=70 + i, promote_fully_paired=promote_fully_paired
        )
        alphas.append(run_alg3(st, seed=80 + i)[0])
    assert abs(float(np.mean(alphas)) - ode.alpha_upper) <= 0.01
