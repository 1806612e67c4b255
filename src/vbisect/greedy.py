"""Greedy vertex bisection search on a concrete graph.

Stage one grows a breadth-first ball around a start vertex until it would
exceed the target half, then backs off a configurable number of radii.
Stage two repeatedly picks a red vertex with the fewest uncovered
neighbors (at least one) and colors one of those neighbors, until the red
set reaches the target size. A bucket queue keyed by uncovered-neighbor
count keeps the whole run at O(d*n).
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
    if cfg.x0 is not None and not 0 <= cfg.x0 < n:
        raise ValueError(f"x0 must be a vertex in [0, {n}), got {cfg.x0}")
    rng = random.Random(cfg.seed)
    x0 = cfg.x0 if cfg.x0 is not None else rng.randrange(n)

    target = int(n * cfg.stop_fraction)
    layers = ball_layers(g, x0)
    # in a component no larger than the target, the fallback fills the rest
    r_crit, b0, b1, b2 = critical_balls(
        np.cumsum([len(layer) for layer in layers]), n * cfg.stop_fraction
    )
    r0 = max(r_crit - cfg.r0_offset, 0)  # at least x0 itself
    color = bytearray(n)
    size_red = 0
    for layer in layers[: r0 + 1]:
        for u in layer:
            color[u] = 1
        size_red += len(layer)

    adj = g.adjacency.tolist()

    # bucket queue over red vertices, keyed by uncovered neighbors
    cnt = [0] * n
    pos = [0] * n
    buckets: list[list[int]] = [[] for _ in range(d + 1)]
    for layer in layers[: r0 + 1]:
        for u in layer:
            c = sum(1 for v in adj[u] if not color[v])
            cnt[u] = c
            pos[u] = len(buckets[c])
            buckets[c].append(u)

    def bucket_move(u: int, c_new: int) -> None:
        b = buckets[cnt[u]]
        i = pos[u]
        last = b[-1]
        b[i] = last
        pos[last] = i
        b.pop()
        cnt[u] = c_new
        pos[u] = len(buckets[c_new])
        buckets[c_new].append(u)

    steps = 0
    fallback = False
    while size_red < target:
        j = 1
        while j <= d and not buckets[j]:
            j += 1
        if j > d:
            fallback = True
            break
        bj = buckets[j]
        v = bj[rng.randrange(len(bj))]
        choices = [w for w in adj[v] if not color[w]]
        w = choices[rng.randrange(len(choices))]

        color[w] = 1
        size_red += 1
        steps += 1
        c_w = 0
        for u in adj[w]:
            if color[u]:
                bucket_move(u, cnt[u] - 1)
            else:
                c_w += 1
        cnt[w] = c_w
        pos[w] = len(buckets[c_w])
        buckets[c_w].append(w)

    if fallback and size_red < target:
        uncolored = [u for u in range(n) if not color[u]]
        for u in rng.sample(uncolored, target - size_red):
            color[u] = 1
        size_red = target

    mask = np.frombuffer(bytes(color), dtype=np.uint8).astype(bool)
    trace = GreedyTrace(
        x0=x0,
        r_crit=r_crit,
        b0=b0,
        b1=b1,
        b2=b2,
        phase2_steps=steps,
        exhaustion_fallback=fallback,
    )
    return bisection_of(g, mask), trace
