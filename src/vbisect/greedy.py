"""Greedy vertex bisection search on a concrete graph.

Stage one grows a breadth-first ball around a start vertex until it would
exceed the target half, then backs off a configurable number of radii.
Stage two repeatedly picks a red vertex with the fewest uncovered
neighbors (at least one) and colors one of those neighbors, until the red
set reaches the target size. A bucket queue keyed by uncovered-neighbor
count keeps the whole run at O(d*n). Any graph `gen_regular` draws will
do, the raw pairing's loops and parallel edges included: neighbors count
once per point, so a parallel edge to a white vertex counts as two
uncovered neighbors and a loop as none.

Phase two keeps one key list: key[v] is 0 for a white vertex and 1 + its
uncovered-neighbor count for a red one, so a neighbor's color and count are
one read. The buckets are indexed by key, 2..d+1; a red vertex with no
uncovered neighbor (key 1) is never drawn or moved again, so it is not kept.
A cursor lo stays at or below the lowest non-empty bucket: a vertex that
joins a bucket below lo lowers it, and the scan for the lowest non-empty
bucket starts there, not at the bottom. A red vertex joined to w by a
parallel edge drops once per slot, two or more buckets in one step, which
is why the cursor follows each join rather than falling one per step.
Only the ball's outer layer can have an uncovered neighbor, so the seeding
counts and buckets that layer alone; the interior is marked red in bulk.
The red set is also kept as a bytearray, written once per step and never
read in the loop, for the returned mask.

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

from .graph import Bisection, RegularGraph, ball_layers, bisection_of, critical_balls


@dataclass
class GreedyConfig:
    r0_offset: int = 2  # radii to back off from the first too-large ball
    seed: int | None = None
    x0: int | None = None  # fixed start vertex; default uniform random


@dataclass
class GreedyTrace:
    x0: int
    r_crit: int  # smallest radius whose ball exceeds n/2
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
    if cfg.r0_offset not in (1, 2):
        raise ValueError("r0_offset must be 1 or 2")
    n, d = g.n, g.d
    rng = random.Random(cfg.seed)
    x0 = cfg.x0 if cfg.x0 is not None else rng.randrange(n)

    target = n // 2
    # the BFS ends at the critical ball, and rejects an x0 outside the
    # graph; in a component no larger than the target, the fallback fills
    # the rest
    layers = ball_layers(g, x0, n / 2)
    r_crit, b0, b1, b2 = critical_balls(np.cumsum([len(layer) for layer in layers]), n / 2)
    r0 = max(r_crit - cfg.r0_offset, 0)  # at least x0 itself
    ball = np.concatenate(layers[: r0 + 1])
    size_red = seeded = len(ball)

    # key[v] is 0 for a white vertex and 1 + its uncovered-neighbor count
    # for a red one. Only the ball's outer layer can have an uncovered
    # neighbor, so the interior is marked red (key 1) and never counted.
    red = np.zeros(n, dtype=bool)
    red[ball] = True
    color = bytearray(red.tobytes())  # the red set, only written, for the output
    keys = red.astype(np.intp)
    outer = layers[r0]
    keys[outer] += d - keys[g.adjacency[outer]].sum(axis=1)
    key = keys.tolist()

    adj = g.rows
    getrandbits = rng.getrandbits

    # bucket queue over red vertices, indexed by key; a red vertex with no
    # uncovered neighbor (key 1) is never drawn or moved again, so it is not
    # kept, and buckets 0 and 1 stay empty. Bucket d + 2 is a non-empty
    # sentinel that ends the scan for the lowest non-empty bucket.
    top = d + 1
    pos = [0] * n
    buckets: list[list[int]] = [[] for _ in range(top + 1)] + [[-1]]
    for u in outer.tolist():
        k = key[u]
        if k > 1:
            pos[u] = len(buckets[k])
            buckets[k].append(u)

    fallback = False
    lo = 2  # no non-empty bucket is below lo
    while size_red < target:
        while not buckets[lo]:
            lo += 1
        if lo > top:
            fallback = True
            break
        # rng.choice(bj), then rng.choice of u's uncovered neighbors, written
        # out: choice(seq) is seq[r], r = getrandbits(m.bit_length()) until
        # r < m = len(seq); u has key[u] - 1 of them, and the r-th in row
        # order is drawn
        bj = buckets[lo]
        m = len(bj)
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        u = bj[r]
        m = key[u] - 1
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        for w in adj[u]:
            if not key[w]:
                if not r:
                    break
                r -= 1
        else:
            raise AssertionError("uncovered-neighbor counts out of sync")

        color[w] = 1
        size_red += 1
        k_w = 1
        for u in adj[w]:
            k = key[u]
            if k:
                # u loses an uncovered neighbor: the last vertex of its
                # bucket fills its slot, then u joins the bucket below
                b = buckets[k]
                last = b.pop()
                if last != u:
                    b[pos[u]] = last
                    pos[last] = pos[u]
                k -= 1
                key[u] = k
                if k > 1:
                    b = buckets[k]
                    pos[u] = len(b)
                    b.append(u)
                    if k < lo:
                        lo = k
            elif u != w:  # a loop at w covers no neighbor
                k_w += 1
        key[w] = k_w
        if k_w > 1:
            b = buckets[k_w]
            pos[w] = len(b)
            b.append(w)
            if k_w < lo:
                lo = k_w
    steps = size_red - seeded

    mask = np.frombuffer(color, dtype=np.uint8).astype(bool)
    if fallback:
        # the random fill bypasses the buckets, so the width is recounted
        uncolored = np.flatnonzero(~mask).tolist()
        mask[rng.sample(uncolored, target - size_red)] = True
        bis = bisection_of(g, mask)
    else:
        # the red vertices with an uncovered neighbor are buckets[2..d+1]
        width = sum(map(len, buckets[2:-1]))
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
