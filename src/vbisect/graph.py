"""Random regular graphs and vertex bisection measurements.

Graphs are stored as a dense (n, d) neighbor table, which keeps the
downstream search loops allocation-free. Multigraphs are allowed when
simple=False: a repeated neighbor entry is a parallel edge and a vertex
listed in its own row is a self-loop (each loop fills two slots).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

BRUTE_FORCE_MAX_N = 20


@dataclass(eq=False)
class RegularGraph:
    n: int
    d: int
    adjacency: np.ndarray  # shape (n, d), int32
    simple: bool

    def degree_check(self) -> bool:
        """Every row lists exactly d endpoints and the table is symmetric."""
        counts = np.zeros(self.n, dtype=np.int64)
        for u in range(self.n):
            for v in self.adjacency[u]:
                counts[v] += 1
        return bool(np.all(counts == self.d))


@dataclass(eq=False)
class Bisection:
    """A red half (size floor(n/2)) and its measured cost.

    width counts red vertices with at least one neighbor outside the red
    set; alpha normalizes by n/2 (kept real-valued for odd n).
    """

    red: np.ndarray  # bool mask, length n
    width: int
    alpha: float


def _check_params(n: int, d: int) -> None:
    if d < 3:
        raise ValueError(f"degree must be at least 3, got {d}")
    if n < d + 1:
        raise ValueError(f"need at least d+1={d + 1} vertices, got {n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")


def _adjacency_from_pairs(n: int, d: int, pairs) -> np.ndarray:
    adj = np.empty((n, d), dtype=np.int32)
    fill = np.zeros(n, dtype=np.int32)
    for u, v in pairs:
        adj[u, fill[u]] = v
        fill[u] += 1
        adj[v, fill[v]] = u
        fill[v] += 1
    if not np.all(fill == d):
        raise AssertionError("pairing did not fill every stub")
    return adj


def _pairing_pass(n: int, d: int, rng: np.random.Generator):
    """One full stub pairing, loops and parallels included."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    return list(zip(stubs[0::2], stubs[1::2]))


def _pairs_simple(pairs) -> bool:
    seen = set()
    for u, v in pairs:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def _rematch_feasible(edges: set, leftover) -> bool:
    # some valid pair must exist among the leftover stubs, else dead end
    nodes = sorted(set(leftover))
    if not nodes:
        return True
    for a, b in itertools.combinations(nodes, 2):
        if (a, b) not in edges:
            return True
    return False


def _try_rematch(n: int, d: int, rng: np.random.Generator):
    """Pair stubs, keep the valid edges, reshuffle the defective stubs.

    Returns the edge set, or None when no valid completion exists and the
    whole attempt must restart.
    """
    edges: set = set()
    stubs = list(np.repeat(np.arange(n, dtype=np.int64), d))
    while stubs:
        rng.shuffle(stubs)
        leftover = []
        for u, v in zip(stubs[0::2], stubs[1::2]):
            if u > v:
                u, v = v, u
            if u == v or (u, v) in edges:
                leftover.append(u)
                leftover.append(v)
            else:
                edges.add((u, v))
        if leftover and not _rematch_feasible(edges, leftover):
            return None
        stubs = leftover
    return edges


def gen_regular(
    n: int,
    d: int,
    seed=None,
    *,
    simple: bool = True,
    strategy: str = "rematch",
    max_restarts: int = 2000,
) -> RegularGraph:
    """Sample a d-regular graph on n vertices from the uniform pairing.

    simple=True asks for no loops or parallel edges. "restart" redraws the
    entire pairing until a simple one appears: exact rejection sampling, so
    uniform, but only practical for small d. "rematch" re-pairs only the
    defective stubs and restarts on the rare dead end (fast at any scale)
    but is biased: K_{3,3} makes 0.152 of 6-vertex cubic graphs against
    1/7. Both raise RuntimeError at max_restarts.
    """
    _check_params(n, d)
    rng = np.random.default_rng(seed)

    if not simple:
        pairs = _pairing_pass(n, d, rng)
        return RegularGraph(n, d, _adjacency_from_pairs(n, d, pairs), False)

    if strategy == "restart":
        for _ in range(max_restarts):
            pairs = _pairing_pass(n, d, rng)
            if _pairs_simple(pairs):
                return RegularGraph(n, d, _adjacency_from_pairs(n, d, pairs), True)
        raise RuntimeError(
            f"no simple pairing in {max_restarts} restarts (n={n}, d={d}); "
            "use strategy='rematch'"
        )
    if strategy == "rematch":
        for _ in range(max_restarts):
            edges = _try_rematch(n, d, rng)
            if edges is not None:
                return RegularGraph(n, d, _adjacency_from_pairs(n, d, edges), True)
        raise RuntimeError(f"rematch failed {max_restarts} times (n={n}, d={d})")
    raise ValueError(f"unknown strategy {strategy!r}")


def ball_layers(g: RegularGraph, x0: int) -> list[np.ndarray]:
    """BFS layers from x0: [ [x0], N(x0), ... ] until the graph is exhausted.

    Vertices outside the component of x0 are absent.
    """
    visited = np.zeros(g.n, dtype=bool)
    visited[x0] = True
    frontier = np.array([x0], dtype=np.int64)
    layers = [frontier]
    while frontier.size:
        cand = np.unique(g.adjacency[frontier].ravel())
        nxt = cand[~visited[cand]]
        if nxt.size == 0:
            break
        visited[nxt] = True
        frontier = nxt.astype(np.int64)
        layers.append(frontier)
    return layers


def ball_sizes(g: RegularGraph, x0: int) -> np.ndarray:
    """Cumulative ball sizes |B(x0, r)| for r = 0, 1, ... up to the
    eccentricity of x0."""
    return np.cumsum([len(layer) for layer in ball_layers(g, x0)])


def critical_balls(sizes: np.ndarray, target: float) -> tuple[int, int, int, int]:
    """(r, |B(r-2)|, |B(r-1)|, |B(r)|) for the cumulative ball sizes of
    `ball_sizes`, r being the smallest radius whose ball exceeds target;
    a ball of negative radius is empty. A connected component no larger
    than the target never crosses, so its full radius counts as critical.
    """
    over = np.flatnonzero(sizes > target)
    r = int(over[0]) if over.size else len(sizes) - 1
    ball = np.concatenate([[0, 0], sizes])  # ball[k] = |B(k - 2)|
    return r, int(ball[r]), int(ball[r + 1]), int(ball[r + 2])


def _red_mask(n: int, red) -> np.ndarray:
    if isinstance(red, np.ndarray) and red.dtype == bool:
        if red.shape != (n,):
            raise ValueError("mask length must equal n")
        return red
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(red, dtype=np.int64)] = True
    return mask


def vertex_width(g: RegularGraph, red) -> int:
    """Number of red vertices with a neighbor outside the red set.

    red is a bool mask or an iterable of vertex ids. Parallel edges do not
    double-count: a vertex is on the boundary once.
    """
    mask = _red_mask(g.n, red)
    red_ids = np.flatnonzero(mask)
    if red_ids.size == 0:
        return 0
    outside = ~mask[g.adjacency[red_ids]]  # (k, d): neighbor slots leaving red
    return int(np.count_nonzero(outside.any(axis=1)))


def bisection_of(g: RegularGraph, red) -> Bisection:
    mask = _red_mask(g.n, red)
    w = vertex_width(g, mask)
    return Bisection(red=mask, width=w, alpha=w / (g.n / 2))


def brute_force_vbw(g: RegularGraph) -> int:
    """Exact vertex bisection width by exhaustion over all balanced
    partitions: the minimum over partitions of the smaller per-side count
    of vertices with a neighbor across. Only for n <= 20."""
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n={BRUTE_FORCE_MAX_N}")
    adj_sets = [set(map(int, row)) for row in g.adjacency]
    best = g.n
    for combo in itertools.combinations(range(g.n), g.n // 2):
        red = set(combo)
        w_in = sum(1 for u in combo if adj_sets[u] - red)
        w_out = sum(1 for u in range(g.n) if u not in red and adj_sets[u] & red)
        w = min(w_in, w_out)
        if w < best:
            best = w
    return best


def brute_force_bw(g: RegularGraph) -> int:
    """Exact edge bisection width (crossing edges, counted with
    multiplicity) by exhaustion. Only for n <= 20."""
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n={BRUTE_FORCE_MAX_N}")
    best = g.n * g.d
    rows = [list(map(int, row)) for row in g.adjacency]
    for combo in itertools.combinations(range(g.n), g.n // 2):
        red = set(combo)
        crossing = sum(1 for u in combo for v in rows[u] if v not in red)
        if crossing < best:
            best = crossing
    return best


def save_edge_list(g: RegularGraph, path) -> None:
    """Plain text: header "n d simple", then one 0-indexed pair per line.

    Each edge appears once (self-loop as "u u"); parallel edges repeat."""
    lines = [f"{g.n} {g.d} {int(g.simple)}"]
    for u in range(g.n):
        loops = 0
        for v in map(int, g.adjacency[u]):
            if v > u:
                lines.append(f"{u} {v}")  # parallels repeat naturally
            elif v == u:
                loops += 1
        for _ in range(loops // 2):  # a loop fills two slots, one line
            lines.append(f"{u} {u}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_edge_list(path) -> RegularGraph:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError("expected header 'n d simple'")
        n, d, simple = int(header[0]), int(header[1]), bool(int(header[2]))
        pairs = []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            u, v = map(int, line.split())
            pairs.append((u, v))
    return RegularGraph(n, d, _adjacency_from_pairs(n, d, pairs), simple)
