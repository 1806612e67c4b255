"""Graph sampling, ball profiles, width measures, and the exhaustive baselines.

The named-graph answers here were computed by hand and by an independent
subset-enumeration script before being frozen.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbisect import graph
from vbisect.graph import (
    RegularGraph,
    _adjacency_from_pairs,
    _pairing_pass,
    _pairs_simple,
    _stable_order,
    _try_rematch,
    ball_layers,
    ball_sizes,
    bisection_of,
    brute_force_bw,
    brute_force_vbw,
    critical_balls,
    gen_regular,
    load_edge_list,
    save_edge_list,
    vertex_width,
)


def complete_graph(n: int) -> RegularGraph:
    adj = np.array(
        [[v for v in range(n) if v != u] for u in range(n)], dtype=np.int32
    )
    return RegularGraph(n, n - 1, adj, True)


def k33() -> RegularGraph:
    adj = np.zeros((6, 3), dtype=np.int32)
    for u in (0, 1, 2):
        adj[u] = [3, 4, 5]
    for u in (3, 4, 5):
        adj[u] = [0, 1, 2]
    return RegularGraph(6, 3, adj, True)


def cube() -> RegularGraph:
    # vertices are 3-bit strings, neighbors differ in one bit
    adj = np.array(
        [[u ^ 1, u ^ 2, u ^ 4] for u in range(8)], dtype=np.int32
    )
    return RegularGraph(8, 3, adj, True)


def two_k4s() -> RegularGraph:
    adj = np.zeros((8, 3), dtype=np.int32)
    for base in (0, 4):
        for i in range(4):
            adj[base + i] = [base + j for j in range(4) if j != i]
    return RegularGraph(8, 3, adj, True)


# -- exhaustive baselines ---------------------------------------------------


def test_vertex_bisection_width_named_graphs():
    assert brute_force_vbw(complete_graph(4)) == 2
    assert brute_force_vbw(k33()) == 3
    assert brute_force_vbw(cube()) == 3


def test_edge_bisection_width_named_graphs():
    assert brute_force_bw(complete_graph(4)) == 4
    assert brute_force_bw(k33()) == 5
    assert brute_force_bw(cube()) == 4


def test_disconnected_graph_has_zero_width():
    assert brute_force_vbw(two_k4s()) == 0


def test_brute_force_size_cap():
    g = gen_regular(22, 3, seed=0)
    with pytest.raises(ValueError, match="capped"):
        brute_force_vbw(g)
    with pytest.raises(ValueError, match="capped"):
        brute_force_bw(g)


# -- boundary measurement ---------------------------------------------------


def test_vertex_width_k4_pair():
    g = complete_graph(4)
    assert vertex_width(g, [0, 1]) == 2


def test_vertex_width_cube_star():
    # vertex 0 plus its three neighbors: only the neighbors touch outside
    assert vertex_width(cube(), {0, 1, 2, 4}) == 3


def test_vertex_width_whole_component_is_interior():
    assert vertex_width(two_k4s(), [0, 1, 2, 3]) == 0


def test_vertex_width_accepts_mask_or_ids():
    g = cube()
    mask = np.zeros(8, dtype=bool)
    mask[[0, 1, 2, 4]] = True
    assert vertex_width(g, mask) == vertex_width(g, [0, 1, 2, 4])


def test_parallel_edges_count_one_boundary_vertex():
    # 0-1 doubled, 2-3 doubled; crossing multiplicity must not inflate the
    # vertex count
    adj = np.array(
        [[1, 1, 2], [0, 0, 3], [3, 3, 0], [2, 2, 1]], dtype=np.int32
    )
    g = RegularGraph(4, 3, adj, False)
    assert g.degree_check()
    assert vertex_width(g, [0, 1]) == 2
    assert vertex_width(g, [0, 2]) == 2


def test_bisection_of_normalizes_by_half_n():
    g = cube()
    bis = bisection_of(g, [0, 1, 2, 4])
    assert bis.width == 3
    assert bis.alpha == 3 / 4.0
    assert bis.red.sum() == 4


# -- ball profiles ----------------------------------------------------------


def test_cube_ball_sizes():
    assert ball_sizes(cube(), 0).tolist() == [1, 4, 7, 8]


def test_ball_layers_partition_component():
    layers = ball_layers(cube(), 3)
    assert sorted(v for layer in layers for v in layer) == list(range(8))
    assert [len(layer) for layer in layers] == [1, 3, 3, 1]


def test_ball_stops_at_component_edge():
    assert ball_sizes(two_k4s(), 5).tolist() == [1, 4]


def _set_bfs_layers(g: RegularGraph, x0: int) -> list[list[int]]:
    """Reference BFS on Python sets: each layer sorted."""
    rows = g.adjacency.tolist()
    seen, layers = {x0}, [[x0]]
    while True:
        nxt = sorted({v for u in layers[-1] for v in rows[u]} - seen)
        if not nxt:
            return layers
        seen.update(nxt)
        layers.append(nxt)


def _check_ball_layers(g: RegularGraph, x0: int) -> None:
    layers = ball_layers(g, x0)
    assert [layer.tolist() for layer in layers] == _set_bfs_layers(g, x0)
    for layer in layers:
        assert layer.dtype == np.int64
        assert np.all(np.diff(layer) > 0)  # strictly ascending
    flat = np.concatenate(layers)
    assert np.unique(flat).size == flat.size  # the layers are disjoint


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([3, 10]), half_n=st.integers(6, 150),
       seed=st.integers(0, 10**6), x0_share=st.floats(0.0, 1.0, exclude_max=True))
def test_ball_layers_match_a_set_bfs(d, half_n, seed, x0_share):
    n = 2 * half_n
    _check_ball_layers(gen_regular(n, d, seed=seed), int(x0_share * n))


@settings(max_examples=40, deadline=None)
@given(d=st.sampled_from([3, 4, 10]), half_n=st.integers(6, 150), seed=st.integers(0, 10**6),
       x0_share=st.floats(0.0, 1.0, exclude_max=True), cap_share=st.floats(0.0, 1.2))
def test_capped_ball_layers_end_at_the_first_crossing(d, half_n, seed, x0_share, cap_share):
    n = 2 * half_n
    g = gen_regular(n, d, seed=seed)
    x0, cap = int(x0_share * n), cap_share * n
    full = ball_layers(g, x0)
    sizes = np.cumsum([len(layer) for layer in full])
    over = np.flatnonzero(sizes > cap)
    end = int(over[0]) + 1 if over.size else len(full)  # the whole list when none crosses
    capped = ball_layers(g, x0, cap)
    assert [layer.tolist() for layer in capped] == [layer.tolist() for layer in full[:end]]
    assert np.array_equal(ball_sizes(g, x0, cap), sizes[:end])
    assert critical_balls(ball_sizes(g, x0, cap), cap) == critical_balls(sizes, cap)


def test_capped_ball_sizes():
    # a component no larger than the cap is exhausted
    assert ball_sizes(two_k4s(), 5, 4).tolist() == [1, 4]
    assert ball_sizes(two_k4s(), 5, 3.5).tolist() == [1, 4]
    assert ball_sizes(two_k4s(), 5, 0.5).tolist() == [1]
    assert ball_sizes(cube(), 0, 4).tolist() == [1, 4, 7]


def test_ball_rejects_a_start_outside_the_graph():
    g = cube()
    for x0 in (-1, 8, 100):
        for call in (ball_layers, ball_sizes):
            with pytest.raises(ValueError, match=r"x0 must be a vertex in \[0, 8\)"):
                call(g, x0)


def test_ball_layers_on_a_multigraph_and_two_components():
    g = gen_regular(10, 4, seed=0, strategy="pairing")
    rows = g.adjacency.tolist()
    assert any(u in row for u, row in enumerate(rows))  # a loop
    assert any(len(set(row)) < len(row) for u, row in enumerate(rows)
               if u not in row)  # a parallel edge
    for x0 in range(g.n):
        _check_ball_layers(g, x0)
    for x0 in range(8):
        _check_ball_layers(two_k4s(), x0)


# -- sampling ---------------------------------------------------------------


def test_gen_regular_is_deterministic_per_seed():
    a = gen_regular(60, 3, seed=17)
    b = gen_regular(60, 3, seed=17)
    c = gen_regular(60, 3, seed=18)
    assert np.array_equal(a.adjacency, b.adjacency)
    assert not np.array_equal(a.adjacency, c.adjacency)


@pytest.mark.parametrize("strategy", ["rematch", "restart"])
def test_gen_regular_simple_output(strategy):
    g = gen_regular(40, 4, seed=3, strategy=strategy)
    assert g.simple
    assert g.degree_check()
    for u in range(g.n):
        row = g.adjacency[u]
        assert u not in row
        assert len(set(row.tolist())) == g.d


def test_restart_sampler_is_uniform():
    # K_{3,3} is 10 of the 70 labelled cubic graphs on 6 vertices; the
    # other 60 are prisms, the only ones with triangles
    draws, share = 20_000, 1 / 7
    hits = 0
    for seed in range(draws):
        g = gen_regular(6, 3, seed=seed, strategy="restart")
        a = np.zeros((6, 6), dtype=np.int64)
        a[np.repeat(np.arange(6), 3), g.adjacency.ravel()] = 1
        hits += np.trace(a @ a @ a) == 0
    z = (hits / draws - share) / math.sqrt(share * (1 - share) / draws)
    assert abs(z) < 4, (hits / draws, z)


def test_gen_regular_multigraph_pass():
    g = gen_regular(10, 3, seed=0, strategy="pairing")
    assert not g.simple
    assert g.degree_check()
    # one stub pairing, as drawn: the table of a single pairing pass
    for n, d, seed in ((10, 3, 0), (200, 4, 7), (31, 4, 2), (5000, 10, 3)):
        pairs = _pairing_pass(n, d, np.random.default_rng(seed))
        g = gen_regular(n, d, seed=seed, strategy="pairing")
        assert np.array_equal(g.adjacency, _adjacency_from_pairs(n, d, pairs))


def test_gen_regular_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_regular(10, 2, seed=0)
    with pytest.raises(ValueError):
        gen_regular(7, 3, seed=0)  # odd point total
    with pytest.raises(ValueError):
        gen_regular(3, 3, seed=0)  # fewer than d+1 vertices
    with pytest.raises(ValueError, match="bogus"):
        gen_regular(10, 3, seed=0, strategy="bogus")


def test_gen_regular_restart_budget_exhausted(monkeypatch):
    monkeypatch.setattr(graph, "MAX_RESTARTS", 0)
    with pytest.raises(RuntimeError):
        gen_regular(20, 3, seed=0, strategy="restart")


def test_gen_regular_rematch_budget_exhausted(monkeypatch):
    monkeypatch.setattr(graph, "MAX_RESTARTS", 0)
    with pytest.raises(RuntimeError):
        gen_regular(20, 3, seed=0, strategy="rematch")


def test_rows_list_neighbors_in_pair_order():
    # a loop (2, 2) fills two slots of row 2; 0-1 is a triple edge
    pairs = np.array([[0, 1], [2, 2], [1, 0], [0, 2], [1, 2], [0, 1]])
    adj = _adjacency_from_pairs(3, 4, pairs)
    assert adj.dtype == np.int32
    assert adj.tolist() == [[1, 1, 2, 1], [0, 0, 2, 0], [2, 2, 0, 1]]
    with pytest.raises(ValueError, match="slots"):
        _adjacency_from_pairs(3, 4, pairs[:-1])


@pytest.mark.parametrize("bound", [1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32, 2**32 + 1,
                                   100_000 * 100_000])
def test_stable_order_is_the_stable_argsort(bound):
    rng = np.random.default_rng(bound % 1000)
    # few distinct keys, so most keys tie, spread over the whole range
    # (both ends included) and so over every radix digit
    pool = np.unique(np.concatenate([[0, bound - 1], rng.integers(0, bound, 40)]))
    for size in (0, 1, 5000):
        keys = rng.choice(pool, size).astype(np.int64)
        assert np.array_equal(_stable_order(keys, bound), np.argsort(keys, kind="stable"))


def _rematch_loop(n, d, rng):
    """Reference: the rematch sampler one pair at a time."""
    kept, edges = [], set()
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    while stubs.size:
        rng.shuffle(stubs)
        leftover = []
        for u, v in stubs.reshape(-1, 2).tolist():
            u, v = min(u, v), max(u, v)
            if u == v or (u, v) in edges:
                leftover += [u, v]
            else:
                edges.add((u, v))
                kept.append((u, v))
        nodes = sorted(set(leftover))
        if leftover and all(pair in edges for pair in itertools.combinations(nodes, 2)):
            return None
        stubs = np.array(leftover, dtype=np.int64)
    return kept


@settings(max_examples=40, deadline=None)
@given(d=st.integers(3, 6), half_n=st.integers(2, 40), seed=st.integers(0, 10**6))
def test_rematch_matches_the_pair_loop(d, half_n, seed):
    n = 2 * half_n + (d + 1) // 2 * 2  # n > d and n*d even
    pairs = _try_rematch(n, d, np.random.default_rng(seed))
    want = _rematch_loop(n, d, np.random.default_rng(seed))
    assert (pairs is None and want is None) or pairs.tolist() == [list(p) for p in want]


# sha256 prefix of gen_regular(5000, 10, seed=7).adjacency. The draw takes
# three rematch attempts, the last of them six passes, so the pass that
# merges new keys into the kept ones runs on a large table many times.
REMATCH_PIN = "ba34558e48dfeae0"


def test_many_pass_rematch_reproduces_the_pin():
    g = gen_regular(5000, 10, seed=7)
    assert hashlib.sha256(g.adjacency.tobytes()).hexdigest()[:16] == REMATCH_PIN


@settings(max_examples=20, deadline=None)
@given(d=st.integers(3, 6), half_n=st.integers(2, 40), seed=st.integers(0, 10**6))
def test_table_matches_the_pair_loop(d, half_n, seed):
    n = 2 * half_n + (d + 1) // 2 * 2
    pairs = _pairing_pass(n, d, np.random.default_rng(seed))
    want = [[] for _ in range(n)]
    for u, v in pairs.tolist():
        want[u].append(v)
        want[v].append(u)
    assert _adjacency_from_pairs(n, d, pairs).tolist() == want


def test_pairs_simple_catches_loops_and_parallel_edges():
    assert _pairs_simple(np.array([[0, 1], [2, 3], [1, 2], [3, 0]]), 4)
    assert not _pairs_simple(np.array([[0, 1], [2, 2], [1, 3]]), 4)
    assert not _pairs_simple(np.array([[0, 1], [2, 3], [1, 0]]), 4)


@settings(max_examples=20, deadline=None)
@given(half_n=st.integers(4, 30), seed=st.integers(0, 10**6))
def test_gen_regular_always_three_regular(half_n, seed):
    g = gen_regular(2 * half_n, 3, seed=seed)
    assert g.degree_check()
    assert all(u not in g.adjacency[u] for u in range(g.n))


# -- persistence ------------------------------------------------------------


def _rows_sorted(g: RegularGraph):
    return [sorted(row.tolist()) for row in g.adjacency]


def test_edge_list_round_trip(tmp_path):
    g = gen_regular(30, 4, seed=9)
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    h = load_edge_list(path)
    assert (h.n, h.d, h.simple) == (g.n, g.d, g.simple)
    assert _rows_sorted(h) == _rows_sorted(g)


def test_edge_list_round_trip_parallel_edges(tmp_path):
    adj = np.array(
        [[1, 1, 2], [0, 0, 3], [3, 3, 0], [2, 2, 1]], dtype=np.int32
    )
    g = RegularGraph(4, 3, adj, False)
    path = tmp_path / "multi.txt"
    save_edge_list(g, path)
    h = load_edge_list(path)
    assert not h.simple
    assert _rows_sorted(h) == _rows_sorted(g)


def test_edge_list_round_trip_loops(tmp_path):
    # vertex 0 carries a loop, which occupies two of its slots
    adj = np.array(
        [[0, 0, 1], [0, 2, 3], [1, 3, 3], [2, 2, 1]], dtype=np.int32
    )
    g = RegularGraph(4, 3, adj, False)
    assert g.degree_check()
    path = tmp_path / "loops.txt"
    save_edge_list(g, path)
    h = load_edge_list(path)
    assert _rows_sorted(h) == _rows_sorted(g)


def test_load_edge_list_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n0 1\n")
    with pytest.raises(ValueError):
        load_edge_list(path)


def test_load_edge_list_rejects_bad_pairs(tmp_path):
    path = tmp_path / "bad.txt"
    k4 = "4 3 1\n0 1\n0 2\n0 3\n1 2\n1 3\n"
    path.write_text(k4 + "2 3\n")
    assert load_edge_list(path).degree_check()
    for tail in ("2 3 1\n", "2\n3\n", "2 4\n", "2 x\n", ""):
        path.write_text(k4 + tail)
        with pytest.raises(ValueError):
            load_edge_list(path)


def test_load_edge_list_checks_the_simple_flag(tmp_path):
    # a loop and a parallel edge: a multigraph, whatever the header says
    path = tmp_path / "multi.txt"
    pairs = "0 0\n0 1\n1 2\n1 3\n2 3\n2 3\n"
    path.write_text("4 3 1\n" + pairs)
    with pytest.raises(ValueError, match="simple"):
        load_edge_list(path)
    path.write_text("4 3 0\n" + pairs)
    g = load_edge_list(path)
    assert not g.simple and g.degree_check()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_save_load_identity_random_graphs(tmp_path_factory, seed):
    g = gen_regular(24, 3, seed=seed)
    path = tmp_path_factory.mktemp("el") / "g.txt"
    save_edge_list(g, path)
    assert _rows_sorted(load_edge_list(path)) == _rows_sorted(g)
