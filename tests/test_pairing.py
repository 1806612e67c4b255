"""Exposure-process simulation: state bookkeeping, both stages, and the
agreement of stage-one round profiles and of the built partition's width
with the fluid limit."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from vbisect import dem
from vbisect.pairing import (
    PairingState,
    _boundary_reader,
    run_alg2,
    run_alg3,
    stage_two_low_max,
)


def _signature(st: PairingState):
    return (
        list(st.free),
        bytes(st.is_red),
        st.points_red,
        st.points_white,
        st.size_red,
        st.steps,
        [sorted(c) for c in st.red_cls],
        [sorted(c) for c in st.white_cls],
        list(st.edges),
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


# -- golden pin -------------------------------------------------------------

# (n, d, seed_alg2, seed_alg3) ->
# (alpha, steps, phase_count, flags of both stages, sha256 prefixes of
# bytes(is_red) and of bytes(free)). Any change to the draw order, the
# point numbering or the promotion order shows here. Each degree runs
# six seeds, d = 4 seven. The last row is a start vertex whose component is
# smaller than the target.
GOLDEN = [
    ((2000, 3, 1, 101), (0.579, 1620, 9, [], '41b6554e9b84661c', 'd164d52cf9f4db06')),
    ((2000, 3, 2, 102), (0.569, 1645, 9, [], 'fdd392e07267c9b1', '0bd0e980f677bc8f')),
    ((2000, 3, 3, 103), (0.585, 1627, 9, [], 'efc6f40f2975c407', '1b51a22d4fd478eb')),
    ((2000, 3, 4, 104), (0.564, 1594, 9, [], '0856e17bb832c325', 'd1c0279e6948ff6f')),
    ((2000, 3, 5, 105), (0.563, 1498, 10, [], '08f6257f02dd40d8', '80fa7c9f48b6bd89')),
    ((2000, 3, 6, 106), (0.566, 1627, 9, [], 'bd0661de37b64d45', 'b6d7a637b0ae6918')),
    ((2000, 4, 1, 101), (0.699, 1307, 6, ['balance_trim'], '3aaeb09b51dc9be9', '0a2db98dfcaf9ba5')),
    ((2000, 4, 2, 102), (0.702, 1331, 6, ['balance_trim'], 'a56ef3d8eb204892', 'ca8d03942568cc46')),
    ((2000, 4, 3, 103), (0.73, 1316, 6, [], '7fd937f2ebfdf009', '4e7b04bf8b9646b3')),
    ((2000, 4, 4, 104), (0.697, 1305, 6, [], '2481a1062b5a75a6', 'e99011332bfabcf5')),
    ((2000, 4, 5, 105), (0.679, 1278, 7, ['balance_trim'], '9ac6624edead6cb8', 'f1e9618e8ce1e3b4')),
    ((2000, 4, 6, 106), (0.688, 1330, 6, ['balance_trim'], '28bec9ff61a565f6', '8302d28a8821348d')),
    ((2000, 4, 7, 107), (0.657, 1241, 6, ['balance_trim'], 'b2170116b81428aa', 'ea39dc2c15513f4a')),
    ((2000, 8, 1, 101), (0.939, 1259, 4, [], 'a1f0a7a77c926371', 'd2252ebe5d39b593')),
    ((2000, 8, 2, 102), (0.949, 1298, 4, [], '7f85b5ca3cf69aea', '1d19bf7e9d154ab2')),
    ((2000, 8, 3, 103), (0.943, 1290, 4, [], '1357a1d01f097015', '0b6ccd437fdcc07f')),
    ((2000, 8, 4, 104), (0.942, 1249, 4, [], '479d02abd0fc9376', 'f6e435771a21e6a6')),
    ((2000, 8, 5, 105), (0.955, 1317, 4, [], '71989aa0d5dc9a93', 'd97d9787c389ab20')),
    ((2000, 8, 6, 106), (0.964, 1342, 4, [], '44f962b5149f5318', 'a4a9af865b702959')),
    ((8, 3, 34, 35), (0.5, 3, 2, ['component_exhausted', 'red_exhausted', 'fill_arbitrary'], '9d834baed97defca', '91d6cb2f2c0d4374')),
]


def _digest(values) -> str:
    return hashlib.sha256(bytes(values)).hexdigest()[:16]


@pytest.mark.parametrize("config, expected", GOLDEN)
def test_golden_pin(config, expected):
    n, d, seed2, seed3 = config
    st, trace2 = run_alg2(n, d, seed=seed2)
    alpha, trace3 = run_alg3(st, seed=seed3)
    st.check_invariants()
    got = (alpha, st.steps, st.phase_count, trace2.flags + trace3.flags,
           _digest(st.is_red), _digest(st.free))
    assert got == expected


# -- state mechanics --------------------------------------------------------


def test_fresh_state_counts():
    st = PairingState(10, 3)
    st.check_invariants()
    assert st.points_white == 30
    assert st.points_red == 0
    assert len(st.white_cls[3]) == 10


def test_degree_above_a_byte_simulates():
    """The unpaired-point counts are as wide as d needs: a degree past 255
    runs both stages without wrapping them."""
    st, _ = run_alg2(302, 300, seed=3)
    alpha, _ = run_alg3(st, seed=4)
    st.check_invariants()
    assert 0.0 < alpha <= 1.0
    assert max(st.free) <= 300 and sum(st.free) == 302 * 300 - 2 * st.steps


def test_state_memory_stays_small():
    """Positions, unpaired-point counts and the edge log are typed buffers:
    a stage-one state holds about 55 bytes a vertex, where lists of Python
    ints held about 97. The bound is 7 MiB per 1e5 vertices; n is kept
    small because tracemalloc slows the run some thirtyfold."""
    n = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        st, trace = run_alg2(n, 4, seed=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert st.size_red >= n // 2 and trace.flags == []
    assert held < 7 * 2**20 * n / 100_000


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


def test_class_fractions_sum_to_one():
    st, _ = run_alg2(500, 4, seed=6, stop_after_steps=400)
    r, z = st.class_fractions()
    assert sum(r) + sum(z) == pytest.approx(1.0, abs=1e-12)


def test_rollover_keeps_one_by_one_member_order():
    """The bulk promotion leaves every class list as moving the hit whites
    over one at a time, in list order, would."""
    st, _ = run_alg2(800, 4, seed=5, stop_after_steps=350)
    ref, _ = run_alg2(800, 4, seed=5, stop_after_steps=350)
    moved = st.rollover()
    ref_moved = 0
    for i in range(ref.d):
        for u in list(ref.white_cls[i]):
            ref._move(u, 1, i)
            ref_moved += 1
    assert moved == ref_moved
    assert _signature(st) == _signature(ref)
    assert st.red_cls == ref.red_cls and st.pos == ref.pos
    st.check_invariants()


def _wrong_pos(st):
    st.pos[st.white_cls[st.d][0]] = 1


def _moved_edge_end(st):
    st.edges[0] = (st.edges[0] + 1) % st.n


def _extra_edge_entries(st):
    st.edges += st.edges[:2]


@pytest.mark.parametrize(
    "corrupt", [_wrong_pos, _moved_edge_end, _extra_edge_entries]
)
def test_check_invariants_catches_corruption(corrupt):
    st, _ = run_alg2(600, 4, seed=2, stop_after_steps=300)
    st.check_invariants()
    corrupt(st)
    with pytest.raises(AssertionError):
        st.check_invariants()


# -- stage loop ---------------------------------------------------------------


def _exact_state(st: PairingState):
    """Everything an exposure writes, in order: class lists, positions,
    counters and the edge log."""
    return (
        list(st.free),
        bytes(st.is_red),
        list(st.pos),
        [list(c) for c in st.red_cls],
        [list(c) for c in st.white_cls],
        st.points_red,
        st.points_white,
        st.size_red,
        st.steps,
        list(st.edges),
    )


def _stage_by_single_steps(st, rng, step_bound, low_max, color_on_hit):
    """expose_stage written as repeated expose_step calls."""
    target = st.n / 2
    while True:
        if color_on_hit:
            half = st.size_red - len(st.red_cls[1])
        else:
            half = st.n - len(st.white_cls[st.d])
        if half >= target:
            return "target"
        if st.expose_step(rng, low_max=low_max,
                          color_on_hit=color_on_hit) is None:
            return "dry"
        if step_bound is not None and st.steps >= step_bound:
            return None


# (d, run_alg2 options, stage two, steps to the bound past the frozen state,
# exposures before stage one's end to freeze the run at, expected stop)
STAGE_CASES = [
    case
    for d in (3, 4, 8)
    for case in (
        # a stage-one round drains its red points
        (d, dict(stop_after_steps=120), False, None, None, "dry"),
        # the bound cuts the round
        (d, dict(stop_after_steps=120), False, 20, None, None),
        # a bound already reached still exposes once
        (d, dict(stop_after_steps=120), False, 0, None, None),
        # the last stage-one round stops on the target
        (d, {}, False, None, 5, "target"),
        # stage two ends on balance
        (d, {}, True, None, None, "target"),
        (d, {}, True, 10, None, None),
    )
] + [
    # the start vertex's component is smaller than the target: the low red
    # pool is dry before stage two exposes anything
    (3, dict(n=8, seed=34), True, None, None, "dry"),
]


@pytest.mark.parametrize(
    "d, alg2_options, stage_two, bound_after, before_end, expected",
    STAGE_CASES,
)
def test_stage_loop_matches_single_steps(
    d, alg2_options, stage_two, bound_after, before_end, expected
):
    """The stage loop leaves the state, the random stream and the stop
    reason exactly as repeated expose_step calls do."""
    low_max = stage_two_low_max(d) if stage_two else None
    options = dict(n=2000, d=d, seed=d) | alg2_options
    if before_end is not None:
        _, trace = run_alg2(**options)
        options["stop_after_steps"] = trace.phase_ends[-1] - before_end
    runs = []
    for _ in range(2):
        st, _ = run_alg2(**options)
        runs.append((st, random.Random(40 + d)))
    (st, rng), (ref, ref_rng) = runs
    steps0 = st.steps
    bound = None if bound_after is None else steps0 + bound_after
    got = st.expose_stage(rng, bound, low_max=low_max, color_on_hit=stage_two)
    want = _stage_by_single_steps(ref, ref_rng, bound, low_max, stage_two)
    assert got == want == expected
    # a stage exposes at least once unless its pool starts dry, as stage
    # two's does after the exhausted start
    exhausted = stage_two and expected == "dry"
    assert st.steps == steps0 if exhausted else st.steps > steps0
    assert _exact_state(st) == _exact_state(ref)
    assert rng.getstate() == ref_rng.getstate()
    st.check_invariants()


# -- draws ------------------------------------------------------------------


def _owner(t: int, classes) -> int:
    """Vertex owning point t when the points of classes 1..d are numbered
    class by class, members in list order."""
    for i, members in enumerate(classes):
        if t < i * len(members):
            return members[t // i]
        t -= i * len(members)
    raise AssertionError("t beyond the point total")


@pytest.mark.parametrize(
    "k",
    [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 256, 257],
)
def test_step_draws_match_randrange(k):
    """An exposure consumes the stream that randrange(k) for the first
    point, then randrange(k) for the second, would, and pairs the points
    those integers name. The state is hand-built so that both totals are
    k: red points k, one white vertex with one point. Fails if the
    interpreter's randrange changes."""
    n, d = 40, 8
    frees = [d] * (k // d) + ([k % d] if k % d else [])
    for seed in range(20):
        st = PairingState(n, d)
        for u in range(n):
            if u < len(frees):
                st._move(u, 1, frees[u])
            else:
                st._move(u, 0, 1 if u == len(frees) else 0)
        assert (st.points_red, st.points_white) == (k, 1)
        ref = random.Random(seed)
        u = _owner(ref.randrange(k), st.red_cls)
        # u's move: swap-remove from its class, append to the one below
        ref_red = [list(c) for c in st.red_cls]
        members = ref_red[st.free[u]]
        members[members.index(u)] = members[-1]
        members.pop()
        ref_red[st.free[u] - 1].append(u)
        t = ref.randrange(k)
        v = _owner(t, ref_red) if t < k - 1 else len(frees)

        rng = random.Random(seed)
        (got_u, _, _), (got_v, _, _) = st.expose_step(rng)
        assert (got_u, got_v) == (u, v)
        assert rng.getstate() == ref.getstate()


# -- boundary readout -------------------------------------------------------


def _oracle_boundary(st: PairingState, in_half, forced) -> list:
    """The per-vertex readout the boundary mask replaced: partner lists
    rebuilt from the edge log, then every vertex of the half that was
    forced in, has an unpaired point or has a partner outside the half."""
    partners = [[] for _ in range(st.n)]
    for u, v in zip(st.edges[::2], st.edges[1::2]):
        partners[u].append(v)
        partners[v].append(u)
    return [
        u
        for u in range(st.n)
        if in_half[u]
        and (
            u in forced
            or st.free[u] > 0
            or any(not in_half[p] for p in partners[u])
        )
    ]


@settings(max_examples=60, deadline=None)
@given(
    d=hst.integers(3, 5),
    half_n=hst.integers(2, 8),
    seed=hst.integers(0, 10**6),
    share=hst.floats(0.0, 1.0),
)
# n = 6, d = 3, seed 1: a self-loop (5, 5), the pair 2-3 twice, open points
@example(d=3, half_n=1, seed=1, share=7 / 9)
def test_boundary_mask_matches_per_vertex_readout(d, half_n, seed, share):
    n = 2 * half_n + 2 * ((d + 1) // 2)  # n > d and n*d even
    st = PairingState(n, d)
    rng = random.Random(seed)
    for _ in range(round(share * n * d / 2)):
        open_points = [u for u in range(n) if st.free[u] > 0]
        st._expose_from(rng, rng.choice(open_points), rng.random() < 0.5)
    st.check_invariants()
    in_half = bytearray(rng.getrandbits(1) for _ in range(n))
    forced = {u for u in range(n) if in_half[u] and rng.random() < 0.2}

    # the balance_trim candidates: the ascending list, nothing forced
    mask = _boundary_reader(st)(in_half)
    assert np.flatnonzero(mask).tolist() == _oracle_boundary(st, in_half, set())
    # the count alpha is read from, with forced vertices
    mask[list(forced)] = True
    assert int(np.count_nonzero(mask)) == len(
        _oracle_boundary(st, in_half, forced)
    )


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


@pytest.mark.parametrize("d", [4, 8])
def test_mid_round_stop_leaves_stage_two_work(d):
    n = 20_000
    st, trace = run_alg2(n, d, seed=16)
    assert st.size_red == n // 2
    steps0 = st.steps
    run_alg3(st, seed=17)
    assert st.steps > steps0
    # stage two turns a white red on its first hit, so no hit white is left
    assert [len(st.white_cls[i]) for i in range(d)] == [0] * d


def test_validation():
    with pytest.raises(ValueError):
        run_alg2(999, 3, seed=0)  # odd point total
    with pytest.raises(ValueError):
        run_alg2(100, 2, seed=0)
    with pytest.raises(ValueError):
        run_alg2(4, 4, seed=0)


# -- stage two --------------------------------------------------------------


def test_balance_stage_on_drained_state_counts_cross_edges():
    n = 40
    st = _drained_half_red_state(n, 4, rng_seed=7)
    steps_before = st.steps
    alpha, trace = run_alg3(st, seed=11)
    assert st.steps == steps_before  # nothing left to expose
    assert trace.flags == []
    edges = st.edges
    cut = {
        w
        for a, b in zip(edges[::2], edges[1::2])
        if st.is_red[a] != st.is_red[b]
        for w in (a, b)
    }
    manual = sum(1 for u in cut if st.is_red[u]) / (n / 2)
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
    # stage two balances on n/2, where stage one stopped; its last exposure
    # overshoots by one, so the surplus is trimmed
    st, _ = run_alg2(4000, 4, seed=0)
    steps0 = st.steps
    alpha, trace = run_alg3(st, seed=100)
    assert st.steps > steps0
    assert trace.flags == ["balance_trim"]
    assert st.size_red - len(st.red_cls[1]) == 2001
    assert alpha == 0.7925


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


@pytest.mark.parametrize("d", [3, 5])
def test_built_partition_tracks_fluid_readout(d):
    """The width of the partition the simulation builds stays within 0.01
    of the fluid-limit readout seeded at eps = d/n, at degrees that
    criterion 8 leaves out. The open red classes alone
    (classes 1..d-1 over n/2) read 0.06 higher at d = 3 and 0.03 higher
    at d = 5, so this also tells the two readouts apart."""
    n = 20_000
    ode = dem.run_dem(d, d / n)
    alphas = []
    for i in range(3):
        st, _ = run_alg2(n, d, seed=70 + i)
        alphas.append(run_alg3(st, seed=80 + i)[0])
    assert abs(float(np.mean(alphas)) - ode.alpha_upper) <= 0.01
