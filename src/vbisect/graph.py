"""Random regular graphs and vertex bisection measurements.

Graphs are stored as a dense (n, d) neighbor table, which keeps the
downstream search loops allocation-free. The "pairing" strategy keeps
multigraphs: a repeated neighbor entry is a parallel edge and a vertex
listed in its own row is a self-loop (each loop fills two slots).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BRUTE_FORCE_MAX_N = 20
STRATEGIES = ("rematch", "restart", "pairing")  # `gen_regular`'s samplers
MAX_RESTARTS = 2000  # attempts restart and rematch make before giving up


@dataclass(eq=False)
class RegularGraph:
    n: int
    d: int
    adjacency: np.ndarray  # shape (n, d), int32
    simple: bool

    @cached_property
    def rows(self) -> list[list[int]]:
        """adjacency.tolist(): the neighbor table as Python ints, built on
        first access and kept on the graph. The greedy's loops read it;
        `experiment.cmd_alg1` calls `drop_rows` after a graph's runs, so a
        caller that keeps the graph does not keep its rows."""
        return self.adjacency.tolist()

    def drop_rows(self) -> None:
        """Free the cached `rows`, if built; the next access rebuilds them."""
        self.__dict__.pop("rows", None)

    def degree_check(self) -> bool:
        """Every vertex fills exactly d slots of the table."""
        return _fills(self.adjacency.ravel(), self.n, self.d)


@dataclass(eq=False)
class Bisection:
    """A red half (size floor(n/2)) and its measured cost.

    width counts red vertices with at least one neighbor outside the red
    set; alpha normalizes by n/2 (kept real-valued for odd n).
    """

    red: np.ndarray  # bool mask, length n
    width: int
    alpha: float


def check_degree(d: int) -> None:
    """Every route's degree: d at least 3."""
    if d < 3:
        raise ValueError(f"degree must be at least 3, got {d}")


def check_params(n: int, d: int) -> None:
    """The parameters of a d-regular pairing on n vertices: d at least 3,
    n above d and an even point total n * d."""
    check_degree(d)
    if n < d + 1:
        raise ValueError(f"need at least d+1={d + 1} vertices, got {n}")
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")


def _fills(ends: np.ndarray, n: int, d: int) -> bool:
    return np.array_equal(np.bincount(ends, minlength=n), np.full(n, d))


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for integer keys in [0, bound).

    A least-significant-digit radix order: one stable argsort of uint16
    digits, which numpy radix-sorts, per 16 bits of bound, lowest first.
    The cast to uint16 keeps a key's low 16 bits.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while (bound - 1) >> shift:
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _adjacency_from_pairs(n: int, d: int, pairs: np.ndarray) -> np.ndarray:
    """The (n, d) table of an (m, 2) pair array. Each row lists its
    neighbors in pair order; a loop (u, u) fills two slots of row u.

    The rows are the interleaved ends u0, v0, u1, v1, ... in stable
    vertex order (`_stable_order`), each end replaced by its partner."""
    ends = pairs.ravel()  # u0, v0, u1, v1, ...
    if not _fills(ends, n, d):
        raise ValueError("pairs do not fill every vertex's d slots")
    order = _stable_order(ends, n)
    other_end = pairs[:, ::-1].ravel()
    return other_end[order].reshape(n, d).astype(np.int32)


def _pairing_pass(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """One full stub pairing, loops and parallels included."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    return stubs.reshape(-1, 2)


def _ordered(pairs: np.ndarray) -> np.ndarray:
    """Each pair of an (m, 2) array as (min, max), in a new array."""
    out = np.empty_like(pairs)
    np.minimum(pairs[:, 0], pairs[:, 1], out=out[:, 0])
    np.maximum(pairs[:, 0], pairs[:, 1], out=out[:, 1])
    return out


def _pairs_simple(pairs: np.ndarray, n: int) -> bool:
    u, v = _ordered(pairs).T
    return not np.any(u == v) and np.unique(u * n + v).size == u.size


def _contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    return np.searchsorted(sorted_keys, keys, "right") > np.searchsorted(sorted_keys, keys)


def _try_restart(n: int, d: int, rng: np.random.Generator):
    """One full stub pairing if it is simple, else None."""
    pairs = _pairing_pass(n, d, rng)
    return pairs if _pairs_simple(pairs, n) else None


def _try_rematch(n: int, d: int, rng: np.random.Generator):
    """Pair stubs, keep the valid edges, reshuffle the defective stubs.

    A pass keeps a pair unless it is a loop, an edge kept before, or a
    repeat of an earlier pair of the same pass. Returns the kept pairs in
    the order they were kept, or None when the leftover stubs cannot form
    a new edge and the whole attempt must restart.

    The first pair of each key min * n + max is found as np.unique's
    return_index finds it: sort the keys stably (`_stable_order`, bound
    n * n) and mark the first of each run of equal keys. The new keys are
    sorted and none is kept already, so one stable sort of the two sorted
    runs merges them into the kept keys.
    """
    kept = []
    edges = np.empty(0, dtype=np.int64)  # sorted keys of the kept pairs
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    while stubs.size:
        rng.shuffle(stubs)
        pairs = _ordered(stubs.reshape(-1, 2))
        # min * n + max: one key per unordered vertex pair
        keys = pairs[:, 0] * n + pairs[:, 1]
        order = _stable_order(keys, n * n)
        keys = keys[order]
        head = np.empty(keys.size, dtype=bool)
        head[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        keys, first = keys[head], order[head]
        new = (pairs[first, 0] != pairs[first, 1]) & ~_contains(edges, keys)
        keep = np.zeros(len(pairs), dtype=bool)
        keep[first[new]] = True
        kept.append(pairs.compress(keep, axis=0))
        edges = np.sort(np.concatenate([edges, keys[new]]), kind="stable")
        stubs = pairs.compress(~keep, axis=0).ravel()
        # a dead end: every two distinct leftover nodes are already an edge
        nodes = np.unique(stubs)
        a, b = np.triu_indices(nodes.size, 1)
        if stubs.size and np.all(_contains(edges, nodes[a] * n + nodes[b])):
            return None
    return np.concatenate(kept)


def gen_regular(n: int, d: int, seed=None, *, strategy: str = "rematch") -> RegularGraph:
    """Sample a d-regular graph on n vertices from the uniform pairing.

    "pairing" returns one stub pairing as drawn, loops and parallel edges
    kept: the configuration model's own output. The other two ask for a
    simple graph. "restart" redraws the entire pairing until a simple one
    appears: exact rejection sampling, so uniform, but only practical for
    small d. "rematch" re-pairs only the defective stubs and restarts on
    the rare dead end (fast at any scale) but is biased: K_{3,3} makes
    0.152 of 6-vertex cubic graphs against 1/7. Both raise RuntimeError
    after MAX_RESTARTS attempts. A row lists its neighbors in the order of
    their pairs: as drawn for pairing and restart, as kept for rematch.
    """
    check_params(n, d)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    rng = np.random.default_rng(seed)

    if strategy == "pairing":
        pairs = _pairing_pass(n, d, rng)
        return RegularGraph(n, d, _adjacency_from_pairs(n, d, pairs), False)
    attempt = _try_restart if strategy == "restart" else _try_rematch
    for _ in range(MAX_RESTARTS):
        pairs = attempt(n, d, rng)
        if pairs is not None:
            return RegularGraph(n, d, _adjacency_from_pairs(n, d, pairs), True)
    raise RuntimeError(
        f"{strategy} found no simple graph in {MAX_RESTARTS} attempts (n={n}, d={d})")


def ball_layers(g: RegularGraph, x0: int, cap: float | None = None) -> list[np.ndarray]:
    """BFS layers from x0: [ [x0], N(x0), ... ] until the component of x0
    is exhausted; vertices outside that component are absent. With a cap,
    the BFS stops after the first layer whose ball holds more than cap
    vertices, the last layer `critical_balls` reads at target cap; a
    component that never crosses the cap is still exhausted.

    Each layer is an int64 array in strictly ascending order, and no vertex
    is in two layers. The greedy seeds its buckets in this order, so every
    greedy result depends on it.
    """
    if not 0 <= x0 < g.n:
        raise ValueError(f"x0 must be a vertex in [0, {g.n}), got {x0}")
    visited = np.zeros(g.n, dtype=bool)
    fresh = np.zeros(g.n, dtype=bool)  # the next layer; cleared after each
    visited[x0] = True
    layers = [np.array([x0], dtype=np.int64)]
    size = 1
    while cap is None or size <= cap:
        cand = g.adjacency[layers[-1]].ravel()
        fresh[cand[~visited[cand]]] = True
        nxt = np.flatnonzero(fresh).astype(np.int64, copy=False)
        if nxt.size == 0:
            break
        fresh[nxt] = False
        visited[nxt] = True
        layers.append(nxt)
        size += nxt.size
    return layers


def ball_sizes(g: RegularGraph, x0: int, cap: float | None = None) -> np.ndarray:
    """Cumulative ball sizes |B(x0, r)| for r = 0, 1, ... up to the
    eccentricity of x0, or with a cap up to the first ball over cap
    (`ball_layers`)."""
    return np.cumsum([len(layer) for layer in ball_layers(g, x0, cap)])


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
        rows = [line.split() for line in fh if line.strip()]
    if any(len(row) != 2 for row in rows):
        raise ValueError("expected one pair 'u v' per line")
    pairs = np.array(rows, dtype=np.int64).reshape(-1, 2)
    adjacency = _adjacency_from_pairs(n, d, pairs)
    if simple and not _pairs_simple(pairs, n):
        raise ValueError("header says simple, but a pair is a loop or a parallel edge")
    return RegularGraph(n, d, adjacency, simple)
