"""Greedy vertex bisection search on a concrete graph.

Stage one grows a breadth-first ball around a start vertex until it would
exceed the target half, then backs off a configurable number of radii.
Stage two repeatedly picks a red vertex with the fewest uncovered
neighbors (at least one) and colors one of those neighbors, until the red
set reaches the target size. A bucket queue keyed by uncovered-neighbor
count keeps the whole run at O(d*n). Bucket 0 is not kept: a red vertex
with no uncovered neighbor is never drawn or moved again.

A run costs its BFS ball and its phase-two loop. The BFS stops at the
critical ball, the first ball over the target, since no later layer is
read. The loop reads the graph's cached `rows`, so the neighbor lists are
built once per graph, not once per run; `RegularGraph.drop_rows` frees them
once a graph's runs are done. The width is read off the buckets, whose
members are exactly the red vertices with an uncovered neighbor; only the
exhaustion fallback, whose random fill bypasses the buckets, recounts it.
Each phase-two step makes the two draws `random.Random.choice` would, the
bucket vertex and then one of its uncovered neighbors, with the getrandbits
rejection loop `choice` runs, written out in the loop: the neighbor is the
r-th uncovered entry of its row, so no list of candidates is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .graph import Bisection, RegularGraph, ball_layers, bisection_of
from .graph import check_stop_fraction, critical_balls


@dataclass
class GreedyConfig:
    r0_offset: int = 2  # radii to back off from the first too-large ball
    seed: int | None = None
    stop_fraction: float = 0.5
    x0: int | None = None  # fixed start vertex; default uniform random


@dataclass
class GreedyTrace:
    x0: int
    r_crit: int  # smallest radius whose ball exceeds the target fraction
    b0: int  # |ball(r_crit - 2)|, 0 when the radius is negative
    b1: int  # |ball(r_crit - 1)|
    b2: int  # |ball(r_crit)|
    phase2_steps: int
    exhaustion_fallback: bool


def alpha_of(width: int, n: int) -> float:
    """Normalized width; the denominator stays n/2 exactly even for odd n."""
    return width / (n / 2)


def run_alg1(
    g: RegularGraph, config: GreedyConfig | None = None
) -> tuple[Bisection, GreedyTrace]:
    cfg = config or GreedyConfig()
    if not g.simple:
        raise ValueError("the greedy search needs a simple graph")
    if cfg.r0_offset not in (1, 2):
        raise ValueError("r0_offset must be 1 or 2")
    check_stop_fraction(g.n, cfg.stop_fraction)
    n, d = g.n, g.d
    rng = random.Random(cfg.seed)
    x0 = cfg.x0 if cfg.x0 is not None else rng.randrange(n)

    limit = n * cfg.stop_fraction
    target = int(limit)
    # the BFS ends at the critical ball, and rejects an x0 outside the
    # graph; in a component no larger than the target, the fallback fills
    # the rest
    layers = ball_layers(g, x0, limit)
    r_crit, b0, b1, b2 = critical_balls(np.cumsum([len(layer) for layer in layers]), limit)
    r0 = max(r_crit - cfg.r0_offset, 0)  # at least x0 itself
    ball = np.concatenate(layers[: r0 + 1])
    red = np.zeros(n, dtype=bool)
    red[ball] = True
    color = bytearray(red.tobytes())
    size_red = seeded = len(ball)

    adj = g.rows
    getrandbits = rng.getrandbits

    # bucket queue over red vertices, keyed by uncovered neighbors; a red
    # vertex with none left is never drawn or moved again, so it is not kept
    cnt = [0] * n
    pos = [0] * n
    buckets: list[list[int]] = [[] for _ in range(d + 1)]
    uncovered = np.count_nonzero(~red[g.adjacency[ball]], axis=1)
    for u, c in zip(ball.tolist(), uncovered.tolist()):
        cnt[u] = c
        if c:
            pos[u] = len(buckets[c])
            buckets[c].append(u)
    drawn = buckets[1:]  # the same lists, lowest key first

    fallback = False
    while size_red < target:
        for bj in drawn:
            if bj:
                break
        else:
            fallback = True
            break
        # rng.choice(bj), then rng.choice of u's uncovered neighbors, written
        # out: choice(seq) is seq[r], r = getrandbits(m.bit_length()) until
        # r < m = len(seq); u has cnt[u] of them, and the r-th in row order
        # is drawn
        m = len(bj)
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        u = bj[r]
        m = cnt[u]
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        for w in adj[u]:
            if not color[w]:
                if not r:
                    break
                r -= 1
        else:
            raise AssertionError("uncovered-neighbor counts out of sync")

        color[w] = 1
        size_red += 1
        c_w = 0
        for u in adj[w]:
            if color[u]:
                # u loses an uncovered neighbor: the last vertex of its
                # bucket fills its slot, then u joins the bucket below
                c = cnt[u]
                b = buckets[c]
                last = b.pop()
                if last != u:
                    b[pos[u]] = last
                    pos[last] = pos[u]
                c -= 1
                cnt[u] = c
                if c:
                    b = buckets[c]
                    pos[u] = len(b)
                    b.append(u)
            else:
                c_w += 1
        if c_w:
            cnt[w] = c_w
            b = buckets[c_w]
            pos[w] = len(b)
            b.append(w)
    steps = size_red - seeded

    mask = np.frombuffer(color, dtype=np.uint8).astype(bool)
    if fallback:
        # the random fill bypasses the buckets, so the width is recounted
        uncolored = np.flatnonzero(~mask).tolist()
        mask[rng.sample(uncolored, target - size_red)] = True
        bis = bisection_of(g, mask)
    else:
        # the red vertices with an uncovered neighbor are buckets[1..d]
        width = sum(map(len, drawn))
        bis = Bisection(red=mask, width=width, alpha=alpha_of(width, n))
    trace = GreedyTrace(
        x0=x0,
        r_crit=r_crit,
        b0=b0,
        b1=b1,
        b2=b2,
        phase2_steps=steps,
        exhaustion_fallback=fallback,
    )
    return bis, trace
