"""Greedy partitioner behavior on graphs small enough to check by hand."""

import numpy as np
import pytest

from vbisect.graph import RegularGraph, brute_force_vbw, gen_regular
from vbisect.greedy import GreedyConfig, alpha_of, run_alg1

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


def test_stop_fraction_sets_red_size():
    g = gen_regular(1000, 3, seed=2)
    bis, _ = run_alg1(g, GreedyConfig(seed=3, stop_fraction=0.3))
    assert int(bis.red.sum()) == 300


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
    adj = np.array([[b + j for j in range(4) if j != i]
                    for b in (0, 4, 8) for i in range(4)], dtype=np.int32)
    g = RegularGraph(12, 3, adj, True)
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
    with pytest.raises(ValueError):
        run_alg1(g, GreedyConfig(stop_fraction=0.0))
    with pytest.raises(ValueError):
        run_alg1(g, GreedyConfig(stop_fraction=0.6))
    with pytest.raises(ValueError):  # the greedy needs a simple graph
        run_alg1(gen_regular(10, 3, seed=0, simple=False))
    # a target half under one vertex
    g = gen_regular(100, 3, seed=0)
    for stop_fraction in (0.005, 0.0099):
        with pytest.raises(ValueError, match="at least 1"):
            run_alg1(g, GreedyConfig(stop_fraction=stop_fraction))
    # backing off two radii from radius 1 leaves the ball of x0 alone
    bis, trace = run_alg1(g, GreedyConfig(stop_fraction=0.01))
    assert bis.red.nonzero()[0].tolist() == [trace.x0]
    assert not trace.exhaustion_fallback
    # a start vertex outside the graph
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
