"""Greedy partitioner behavior on graphs small enough to check by hand."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbisect.graph import (RegularGraph, ball_layers, brute_force_vbw, critical_balls,
                           gen_regular, vertex_width)
from vbisect.greedy import GreedyConfig, GreedyTrace, alpha_of, run_alg1

from test_graph import complete_graph, two_k4s


def test_alpha_of_keeps_real_denominator():
    assert alpha_of(0, 10) == 0.0
    assert alpha_of(5, 10) == 1.0
    assert alpha_of(3, 7) == 3 / 3.5


def test_k4_partition_is_fully_exposed():
    bis, trace = run_alg1(complete_graph(4), GreedyConfig(seed=0))
    assert int(bis.red.sum()) == 2
    assert bis.width == 2
    assert bis.alpha == 1.0
    # backing off two radii from radius 1 leaves x0 alone, and phase two
    # colours one of its neighbours; the random fill never runs
    assert bis.red[trace.x0] and trace.phase2_steps == 1
    assert not trace.exhaustion_fallback


def test_red_half_size_is_floor_of_half():
    g = gen_regular(101, 4, seed=5)
    bis, _ = run_alg1(g, GreedyConfig(seed=1))
    assert int(bis.red.sum()) == 50


def test_same_seed_same_partition():
    g = gen_regular(500, 4, seed=11)
    a, _ = run_alg1(g, GreedyConfig(seed=7))
    b, _ = run_alg1(g, GreedyConfig(seed=7))
    c, _ = run_alg1(g, GreedyConfig(seed=8))
    assert np.array_equal(a.red, b.red)
    assert a.width == b.width
    # a different run seed picks a different start ball almost surely
    assert a.width != c.width or not np.array_equal(a.red, c.red)


def test_start_vertex_override():
    g = gen_regular(200, 3, seed=4)
    _, trace = run_alg1(g, GreedyConfig(seed=0, x0=37))
    assert trace.x0 == 37


def test_trace_ball_sizes_bracket_the_target():
    g = gen_regular(2000, 3, seed=6)
    _, tr = run_alg1(g, GreedyConfig(seed=9))
    assert tr.b0 <= tr.b1 <= tr.b2
    assert not tr.exhaustion_fallback
    assert tr.b1 <= g.n / 2 < tr.b2


def three_k4s() -> RegularGraph:
    adj = np.array([[b + j for j in range(4) if j != i]
                    for b in (0, 4, 8) for i in range(4)], dtype=np.int32)
    return RegularGraph(12, 3, adj, True)


def test_small_component_triggers_fallback():
    # K4 glued next to K3,3: any start inside the K4 runs out of room
    adj = np.zeros((10, 3), dtype=np.int32)
    adj[0], adj[1], adj[2], adj[3] = [1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]
    for u in (4, 5, 6):
        adj[u] = [7, 8, 9]
    for u in (7, 8, 9):
        adj[u] = [4, 5, 6]
    g = RegularGraph(10, 3, adj, True)
    bis, trace = run_alg1(g, GreedyConfig(seed=1, x0=0))
    assert trace.exhaustion_fallback
    assert int(bis.red.sum()) == 5
    assert bis.width >= brute_force_vbw(g)


def test_disconnected_graph_fallback_still_balances():
    # three K4s: x0's K4 is smaller than the half, so the fallback
    # colours the rest
    g = three_k4s()
    bis, trace = run_alg1(g, GreedyConfig(seed=0, x0=0))
    assert trace.exhaustion_fallback
    assert int(bis.red.sum()) == 6
    assert bis.width >= brute_force_vbw(g)
    # two K4s: x0's K4 is the half, and phase two fills it
    bis, trace = run_alg1(two_k4s(), GreedyConfig(seed=0, x0=0))
    assert not trace.exhaustion_fallback
    assert bis.red.nonzero()[0].tolist() == [0, 1, 2, 3]
    assert bis.width == 0


def test_width_never_beats_brute_force():
    for seed in range(8):
        g = gen_regular(12, 3, seed=seed)
        bis, _ = run_alg1(g, GreedyConfig(seed=seed))
        assert bis.width >= brute_force_vbw(g)


def test_config_validation():
    g = complete_graph(4)
    with pytest.raises(ValueError):
        run_alg1(g, GreedyConfig(r0_offset=3))
    # a start vertex outside the graph
    g = gen_regular(100, 3, seed=0)
    for x0 in (-1, 100):
        with pytest.raises(ValueError, match="x0"):
            run_alg1(g, GreedyConfig(x0=x0))


def test_offset_one_uses_larger_seed_ball():
    g = gen_regular(4000, 4, seed=13)
    _, t1 = run_alg1(g, GreedyConfig(seed=2, x0=5, r0_offset=1))
    _, t2 = run_alg1(g, GreedyConfig(seed=2, x0=5, r0_offset=2))
    assert t1.r_crit == t2.r_crit
    # same critical radius, one fewer step of back-off for offset 1
    assert t1.phase2_steps <= t2.phase2_steps


# (x0, width, phase2_steps, sha256 prefix of the mask's bytes) per degree,
# for run seeds and back-offs (0, 2), (1, 2), (2, 1) on gen_regular(2000, d,
# seed=21). Every step of a run, BFS layer order and bucket order included,
# feeds these, so a change to either loop must reproduce them exactly.
GOLDEN_RUNS = {
    3: [(1729, 315, 635, "4adaf6171217"), (275, 330, 638, "ffb3c74cd234"),
        (1957, 318, 309, "08753ad06ebc")],
    4: [(1729, 472, 848, "49a735473073"), (275, 459, 841, "d6cb8395492b"),
        (1957, 472, 555, "5c5b77fbd478")],
    # at d=6 the lowest drawn class falls, rises and falls again
    6: [(1729, 627, 823, "857809027787"), (275, 623, 818, "f737ef84b1fc"),
        (1957, 664, 290, "0777f5a4647f")],
    10: [(1729, 777, 902, "5d5d786c0dff"), (275, 782, 900, "ddf27907c0c3"),
         (1957, 814, 245, "03390e535cc5")],
}


@pytest.mark.parametrize("d", sorted(GOLDEN_RUNS))
def test_runs_reproduce_the_golden_outputs(d):
    g = gen_regular(2000, d, seed=21)
    got = []
    for seed, offset in ((0, 2), (1, 2), (2, 1)):
        bis, trace = run_alg1(g, GreedyConfig(seed=seed, r0_offset=offset))
        digest = hashlib.sha256(bis.red.tobytes()).hexdigest()[:12]
        got.append((trace.x0, bis.width, trace.phase2_steps, digest))
    assert got == GOLDEN_RUNS[d]


# A gen_regular graph past 2**16 vertices, so both sorts of the sampler
# take two or more radix digits: sha256 prefixes of its adjacency and of
# one greedy mask on it, with that run's trace.
BIG_N = 70_000
BIG_PIN = ("a27dc6d35a3a8c5c", "db0d0bb025eb6d84",
           GreedyTrace(x0=27391, r_crit=14, b0=11394, b1=20956, b2=35759,
                       phase2_steps=23606, exhaustion_fallback=False))


def test_large_graph_and_run_reproduce_the_pin():
    g = gen_regular(BIG_N, 3, seed=15)
    bis, trace = run_alg1(g, GreedyConfig(seed=15))
    got = (hashlib.sha256(g.adjacency.tobytes()).hexdigest()[:16],
           hashlib.sha256(bis.red.tobytes()).hexdigest()[:16], trace)
    assert got == BIG_PIN


def _alg1_with_choice(g, cfg):
    """Reference: run_alg1 with phase two drawing by rng.choice, the bucket
    vertex first and then one of a list of its uncovered neighbors."""
    n, d = g.n, g.d
    rng = random.Random(cfg.seed)
    x0 = cfg.x0 if cfg.x0 is not None else rng.randrange(n)
    target = n // 2
    layers = ball_layers(g, x0)
    r_crit, b0, b1, b2 = critical_balls(
        np.cumsum([len(layer) for layer in layers]), n / 2)
    ball = np.concatenate(layers[: max(r_crit - cfg.r0_offset, 0) + 1]).tolist()
    adj = g.adjacency.tolist()
    color = [0] * n
    for u in ball:
        color[u] = 1
    cnt, pos = [0] * n, [0] * n
    buckets = [[] for _ in range(d + 1)]

    def push(u, c):
        cnt[u] = c
        if c:
            pos[u] = len(buckets[c])
            buckets[c].append(u)

    for u in ball:
        push(u, sum(not color[w] for w in adj[u]))  # once per point
    size_red = seeded = len(ball)
    fallback = False
    while size_red < target:
        bj = next((b for b in buckets[1:] if b), None)
        if bj is None:
            fallback = True
            break
        w = rng.choice([w for w in adj[rng.choice(bj)] if not color[w]])
        color[w] = 1
        size_red += 1
        for u in adj[w]:
            if color[u] and u != w:  # a loop at w is in no bucket
                b = buckets[cnt[u]]
                last = b.pop()
                if last != u:
                    b[pos[u]] = last
                    pos[last] = pos[u]
                push(u, cnt[u] - 1)
        push(w, sum(not color[u] for u in adj[w]))
    steps = size_red - seeded
    if fallback and size_red < target:
        for u in rng.sample([u for u in range(n) if not color[u]], target - size_red):
            color[u] = 1
    trace = GreedyTrace(x0, r_crit, b0, b1, b2, steps, fallback)
    return np.array(color, dtype=bool), trace


@settings(max_examples=60, deadline=None)
@given(d=st.integers(3, 10), half_n=st.integers(3, 80), graph_seed=st.integers(0, 10**6),
       seed=st.integers(0, 10**6), offset=st.sampled_from([1, 2]),
       x0_share=st.none() | st.floats(0.0, 1.0, exclude_max=True))
def test_phase_two_draws_what_choice_draws(d, half_n, graph_seed, seed, offset, x0_share):
    n = 2 * half_n + (d + 1) // 2 * 2  # n > d and n*d even
    x0 = None if x0_share is None else int(x0_share * n)
    cfg = GreedyConfig(seed=seed, r0_offset=offset, x0=x0)
    g = gen_regular(n, d, seed=graph_seed)
    bis, trace = run_alg1(g, cfg)
    mask, want = _alg1_with_choice(g, cfg)
    assert trace == want
    assert np.array_equal(bis.red, mask)
    _check_width(g, bis)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_runs_on_the_raw_pairing(d):
    # multigraphs with loops and parallel edges: every run keeps n // 2 red
    # vertices, reads the recounted width off its buckets, and draws from
    # the lowest bucket at every step, as the reference's full scan does
    n, loops, parallels = 200, 0, 0
    for gi in range(50):
        g = gen_regular(n, d, seed=1000 * d + gi, strategy="pairing")
        rows = g.adjacency.tolist()
        loops += sum(u in row for u, row in enumerate(rows))
        parallels += sum(len(set(row) - {u}) < len(row) - row.count(u)
                         for u, row in enumerate(rows))
        for seed in range(3):
            cfg = GreedyConfig(seed=seed)
            bis, trace = run_alg1(g, cfg)
            assert int(bis.red.sum()) == n // 2
            _check_width(g, bis)
            mask, want = _alg1_with_choice(g, cfg)
            assert trace == want
            assert np.array_equal(bis.red, mask)
    assert loops and parallels


def test_a_loop_covers_no_neighbor():
    # two components, each an edge with a loop at both ends; from x0,
    # phase two colours its partner, whose loop leaves it no uncovered
    # neighbor, so the width is 0
    adj = np.array([[0, 0, 1], [1, 1, 0], [2, 2, 3], [3, 3, 2]], dtype=np.int32)
    g = RegularGraph(4, 3, adj, False)
    for x0 in range(4):
        bis, trace = run_alg1(g, GreedyConfig(seed=0, x0=x0))
        assert bis.red.nonzero()[0].tolist() == sorted({x0, int(adj[x0, 2])})
        assert (bis.width, trace.phase2_steps, trace.exhaustion_fallback) == (0, 1, False)


def _check_width(g, bis):
    """The width run_alg1 reads off its buckets is the recounted width."""
    assert bis.width == vertex_width(g, bis.red)
    assert bis.alpha == bis.width / (g.n / 2)


def test_phase_two_draws_what_choice_draws_on_three_k4s():
    g = three_k4s()
    fallbacks = 0
    for seed in range(12):
        for x0 in (None, 0, 7):
            for offset in (1, 2):
                cfg = GreedyConfig(seed=seed, r0_offset=offset, x0=x0)
                bis, trace = run_alg1(g, cfg)
                mask, want = _alg1_with_choice(g, cfg)
                assert trace == want
                assert np.array_equal(bis.red, mask)
                _check_width(g, bis)
                fallbacks += trace.exhaustion_fallback
    assert fallbacks == 72


def test_inlined_draw_is_the_draw_of_choice():
    # the loop run_alg1's phase two writes out, against the stdlib's choice,
    # for lengths 1, 2**k and 2**k +- 1; both must leave the same state
    for m in sorted({2**k + e for k in range(21) for e in (-1, 0, 1)} - {0}):
        seq = range(m)
        for s in range(5):
            rng, ref = random.Random(s), random.Random(s)
            for _ in range(20):
                k = m.bit_length()
                r = rng.getrandbits(k)
                while r >= m:
                    r = rng.getrandbits(k)
                assert seq[r] == ref.choice(seq), (m, s)
            assert rng.getstate() == ref.getstate(), (m, s)
