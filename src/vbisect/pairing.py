"""Monte Carlo simulation of the two-stage coloring process on the pairing model.

The graph is never generated up front. Edges are exposed one at a time: a
first point is drawn from the active red pool, a second uniformly from all
remaining unpaired points, and the pair becomes an edge. Stage one grows
the red set in rounds (drain the red unpaired points, then promote the
white vertices that were hit) and stops mid-round once the promotion
would make half of the vertices red; stage two drains the low-degree red
classes until the red set less class 1 balances at n/2, builds the
balanced partition and reads off its boundary. Both stages follow the
process that `vbisect.dem` integrates, stage two ends on balance in both,
and the fluid limit reads off the same boundary. A start vertex whose
component is smaller than the target leaves stage two nothing to expose:
that run is flagged "red_exhausted" and its half is topped up with
arbitrary vertices ("fill_arbitrary").

Vertices are bucketed by (color, unpaired-point count). Sampling a uniform
unpaired point over a vertex subset is class-weighted: one uniform integer
below the subset's point total names a point, numbering the points class
by class, O(d) per draw. An exposure draws the first point, then the
second, each with the getrandbits loop `randrange` runs, and moves both
vertices down a class in place; the two stages differ only in its two
parameters (low_max, color_on_hit): (d, False) in stage one and
(`stage_two_low_max(d)`, True) in stage two, the pair the fluid limit's
legs are keyed by. `PairingState.expose_step` is the plain reference, one
undoable exposure written with `_draw` and `_move`; the drift regression
tests resample single steps from a frozen state with it.
`PairingState.expose_stage` is the fast loop the runs use: the same
exposures, bit for bit, over local copies of the state until the stage
ends or a step bound (`run_alg2`'s early stop) is reached. Stage one is
one such call per round, stage two a single call, and `SimTrace` records
the runs round by round: the class fractions at each round end and after
each promotion, which the fluid limit's round states are compared with.
The exposed edges are one flat log, and the partition's boundary is read
off it with numpy. A promotion moves each hit white class into its red
class as one block.

The per-vertex state the loop only writes (positions, unpaired-point
counts) and the edge log are typed `array.array` buffers, not lists: a
list store drops a reference to the int it replaces, a cold object
somewhere in a heap of n of them, so each store would pay a cache miss
for that decref. The buffers also hand numpy their memory without a copy.
Positions and edge ends are 32-bit, so n must stay below 2**31.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field

import numpy as np

from .graph import check_params

__all__ = ["PairingState", "SimTrace", "run_alg2", "run_alg3", "stage_two_low_max"]


def stage_two_low_max(d: int) -> int:
    """Stage two draws first points from red classes 1..ceil(d/2), stage
    one from every red class (low_max d); the fluid limit reads this too."""
    return (d + 1) // 2


def _draw(rng: random.Random, total: int, classes) -> int:
    """The owner of a uniform point of classes, (points, members) pairs
    holding total points: `randrange`'s getrandbits loop draws t < total,
    then the walk from the first class, which holds the top points."""
    getrandbits = rng.getrandbits
    k = total.bit_length()
    t = getrandbits(k)
    while t >= total:
        t = getrandbits(k)
    for i, members in classes:
        total -= i * len(members)
        if t >= total:
            return members[(t - total) // i]
    raise AssertionError("point totals out of sync")


@dataclass
class SimTrace:
    """Round bookkeeping of one stage run.

    phase_ends holds the step count at each round end, and
    round_end_fractions / post_roll_fractions hold ([r_0..r_d], [z_0..z_d])
    size fractions just before and just after each promotion; flags lists
    what the run reported.
    """

    phase_ends: list = field(default_factory=list)
    round_end_fractions: list = field(default_factory=list)
    post_roll_fractions: list = field(default_factory=list)
    flags: list = field(default_factory=list)


class PairingState:
    """Partially exposed pairing of n vertices with d points each.

    red_cls[i] / white_cls[i] list the vertices of each color with exactly
    i unpaired points, and pos[u] is u's index in its list; free[u] is u's
    unpaired-point count; points_red / points_white are the matching point
    totals. edges is the exposed-edge log, flat u0, v0, u1, v1, ... in
    exposure order (a self-loop is u, u), one pair per step. The invariant
    steps + (points_red + points_white)/2 == n*d/2 holds throughout.

    pos and edges are 32-bit `array("i")` buffers (n < 2**31), free the
    narrowest unsigned array that holds d (bytes for any d up to 255); the
    class lists stay lists, since the loop reads them.

    Each exposure draws its integers with a getrandbits rejection loop,
    the one `random.Random.randrange` runs, so a seed gives the stream
    randrange would: first the first point, then the second. A draw t
    below a color's point total names the point t when the points are
    numbered class 1..d, members in list order; the lookup walks the
    classes from the top, where most of the points sit, and meets the same
    point. `expose_step` and `undo_step` are the single-step reference;
    `expose_stage` runs a stage's exposures in one loop. A promotion
    (`rollover`) appends each hit white class to the red class of the same
    index as one block, in list order, where moving its members one at a
    time would put them.
    """

    __slots__ = (
        "n",
        "d",
        "free",
        "is_red",
        "red_cls",
        "white_cls",
        "pos",
        "points_red",
        "points_white",
        "size_red",
        "edges",
        "steps",
        "phase_count",
        "_red",
        "_white",
        "_all",
        "_low",
    )

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        width = next(c for c in "BHIL" if d < 1 << 8 * array(c).itemsize)
        self.free = array(width, [d]) * n
        self.is_red = bytearray(n)
        self.red_cls: list[list[int]] = [[] for _ in range(d + 1)]
        self.white_cls: list[list[int]] = [[] for _ in range(d + 1)]
        self.white_cls[d] = list(range(n))
        self.pos = array("i", np.arange(n, dtype=np.int32).tobytes())
        self.points_red = 0
        self.points_white = n * d
        self.size_red = 0
        self.edges = array("i")
        self.steps = 0
        self.phase_count = 0
        # (points per vertex, class list) for classes d..1, top first; the
        # class lists are only ever mutated in place, so these stay valid.
        # _all walks the whites above the reds; _low[m] is the red tail for
        # classes m..1.
        self._red = [(i, self.red_cls[i]) for i in range(d, 0, -1)]
        self._white = [(i, self.white_cls[i]) for i in range(d, 0, -1)]
        self._all = self._white + self._red
        self._low = [self._red[d - m:] for m in range(d + 1)]

    # -- class bookkeeping -------------------------------------------------

    def _move(self, u: int, new_red: int, new_free: int) -> None:
        old_red = self.is_red[u]
        old_free = self.free[u]
        lst = (self.red_cls if old_red else self.white_cls)[old_free]
        i = self.pos[u]
        last = lst[-1]
        lst[i] = last
        self.pos[last] = i
        lst.pop()
        if old_red:
            self.points_red -= old_free
            self.size_red -= 1
        else:
            self.points_white -= old_free
        dest = (self.red_cls if new_red else self.white_cls)[new_free]
        self.pos[u] = len(dest)
        dest.append(u)
        self.free[u] = new_free
        self.is_red[u] = new_red
        if new_red:
            self.points_red += new_free
            self.size_red += 1
        else:
            self.points_white += new_free

    # -- exposure ----------------------------------------------------------

    def _expose_from(self, rng: random.Random, u: int, color_on_hit: bool):
        """Pair one point of u with a uniform unpaired point elsewhere.

        The partner keeps its color unless color_on_hit is set and it was
        white. Returns the undo record ((u, red, free), (v, red, free)) for
        undo_step."""
        u_red, u_free = self.is_red[u], self.free[u]
        self._move(u, u_red, u_free - 1)
        # white points above red ones, as expose_stage numbers them
        v = _draw(rng, self.points_red + self.points_white, self._all)
        v_red, v_free = self.is_red[v], self.free[v]
        self._move(v, v_red or color_on_hit, v_free - 1)
        self.edges.extend((u, v))
        self.steps += 1
        return (u, u_red, u_free), (v, v_red, v_free)

    def expose_step(self, rng: random.Random, *, low_max: int | None = None,
                    color_on_hit: bool = False):
        """One process step: first point from the red classes (all of them,
        or only 1..low_max), second from everything unpaired. Returns None,
        exposing nothing, when those red classes have no unpaired point."""
        if low_max is None:
            first, pool = self._red, self.points_red
        else:
            first = self._low[low_max]
            pool = sum([i * len(members) for i, members in first])
        if pool == 0:
            return None
        return self._expose_from(rng, _draw(rng, pool, first), color_on_hit)

    def expose_stage(self, rng: random.Random, step_bound: int | None = None,
                     *, low_max: int | None = None,
                     color_on_hit: bool = False) -> str | None:
        """Run a stage's exposures in one loop over local state: each one is
        expose_step(rng, low_max=low_max, color_on_hit=color_on_hit), with
        the same draws, class moves and counters, bit for bit.

        Before each exposure the loop returns "target" once the stage's
        half reaches n/2, then "dry" once the first-point pool is empty.
        After an exposure it returns None once steps reaches step_bound
        (run_alg2's stop_after_steps), so it exposes at least once when
        both allow it. With
        color_on_hit off (stage one) the half is every vertex the next
        promotion would make red, all but the untouched whites; with it on
        (stage two) it is the red set less red class 1, which goes to the
        complement. The counters are written back once, on return.
        """
        n, d = self.n, self.d
        free, is_red, pos = self.free, self.is_red, self.pos
        red_cls, white_cls = self.red_cls, self.white_cls
        reds, whites = self._red, self._white
        low = d if low_max is None else low_max
        first = self._low[low]
        pool = sum(i * len(members) for i, members in first)
        points_red, points_white = self.points_red, self.points_white
        size_red = self.size_red
        steps = self.steps
        bound = n * d if step_bound is None else step_bound
        push = self.edges.append
        getrandbits = rng.getrandbits
        target = n / 2
        if color_on_hit:
            lift, out = 0, red_cls[1]
        else:
            # nothing turns red, so size_red + lift stays n
            lift, out = n - size_red, white_cls[d]

        while True:
            if size_red + lift - len(out) >= target:
                stop = "target"
                break
            if pool == 0:
                stop = "dry"
                break
            # first point: u leaves red class i for red class i - 1
            k = pool.bit_length()
            t = getrandbits(k)
            while t >= pool:
                t = getrandbits(k)
            end = pool
            for i, members in first:
                end -= i * len(members)
                if t >= end:
                    break
            else:
                raise AssertionError("point totals out of sync")
            j = (t - end) // i
            u = members[j]
            last = members.pop()
            if last != u:
                members[j] = last
                pos[last] = j
            dest = red_cls[i - 1]
            pos[u] = len(dest)
            dest.append(u)
            free[u] = i - 1
            points_red -= 1
            pool -= 1

            # second point: v leaves class i of its color
            total = points_red + points_white
            k = total.bit_length()
            t = getrandbits(k)
            while t >= total:
                t = getrandbits(k)
            v_red = t < points_red
            end = points_red if v_red else total
            for i, members in reds if v_red else whites:
                end -= i * len(members)
                if t >= end:
                    break
            else:
                raise AssertionError("point totals out of sync")
            j = (t - end) // i
            v = members[j]
            last = members.pop()
            if last != v:
                members[j] = last
                pos[last] = j
            if v_red:
                points_red -= 1
                dest = red_cls[i - 1]
                if i <= low:
                    pool -= 1
                elif i == low + 1:
                    pool += low
            elif color_on_hit:
                is_red[v] = 1
                points_white -= i
                points_red += i - 1
                size_red += 1
                dest = red_cls[i - 1]
                if i <= low + 1:
                    pool += i - 1
            else:
                points_white -= 1
                dest = white_cls[i - 1]
            pos[v] = len(dest)
            dest.append(v)
            free[v] = i - 1
            push(u)
            push(v)
            steps += 1
            if steps >= bound:
                stop = None
                break

        self.points_red, self.points_white = points_red, points_white
        self.size_red = size_red
        self.steps = steps
        return stop

    def undo_step(self, undo) -> None:
        (u, u_red, u_free), (v, v_red, v_free) = undo
        self._move(v, v_red, v_free)
        self._move(u, u_red, u_free)
        del self.edges[-2:]
        self.steps -= 1

    def rollover(self) -> int:
        """Recolor the white vertices hit so far (classes 0..d-1, the
        fully paired ones included) red.

        Each white class i joins red class i in one block, in list order,
        which is where one-by-one moves would put its members.
        Returns the number of vertices recolored."""
        pos, is_red = self.pos, self.is_red
        moved = 0
        for i in range(self.d):
            whites, reds = self.white_cls[i], self.red_cls[i]
            for j, u in enumerate(whites, len(reds)):
                pos[u] = j
                is_red[u] = 1
            reds.extend(whites)
            self.points_white -= i * len(whites)
            self.points_red += i * len(whites)
            moved += len(whites)
            whites.clear()
        self.size_red += moved
        return moved

    def class_fractions(self):
        n = self.n
        r = [len(self.red_cls[i]) / n for i in range(self.d + 1)]
        z = [len(self.white_cls[i]) / n for i in range(self.d + 1)]
        return r, z

    def check_invariants(self) -> None:
        assert sum(len(c) for c in self.red_cls) + sum(
            len(c) for c in self.white_cls
        ) == self.n
        assert self.points_red == sum(
            i * len(self.red_cls[i]) for i in range(self.d + 1)
        )
        assert self.points_white == sum(
            i * len(self.white_cls[i]) for i in range(self.d + 1)
        )
        assert self.steps * 2 + self.points_red + self.points_white == (
            self.n * self.d
        )
        pos = self.pos
        for i in range(self.d + 1):
            for j, u in enumerate(self.red_cls[i]):
                assert self.is_red[u] and self.free[u] == i and pos[u] == j
            for j, u in enumerate(self.white_cls[i]):
                assert not self.is_red[u] and self.free[u] == i and pos[u] == j
        assert len(self.edges) == 2 * self.steps
        degree = np.bincount(_view(self.edges), minlength=self.n)
        assert np.array_equal(degree, self.d - _view(self.free))


def run_alg2(n: int, d: int, seed=None, *, stop_after_steps: int | None = None
             ) -> tuple[PairingState, SimTrace]:
    """First stage: grow the red set in rounds until it reaches half of
    the vertices.

    Each round drains the red unpaired points, then the promotion recolors
    every white vertex that has been hit, fully paired or not. The last
    round stops mid-round, after the exposure that brings the number of
    vertices the promotion would make red (every vertex but the untouched
    whites) to n/2; that state is the last entry of
    trace.round_end_fractions, and promoting it lands the red set on n/2.
    stop_after_steps returns mid-round after that many exposures, flagged
    "stopped_early" (used to freeze states for drift tests). The trace
    gets one entry per round; st.phase_count is the number of promotions.
    """
    check_params(n, d)
    rng = random.Random(seed)
    st = PairingState(n, d)
    trace = SimTrace()

    x0 = rng.randrange(n)
    while st.free[x0] > 0:
        st._expose_from(rng, x0, color_on_hit=False)
    st._move(x0, 1, 0)

    target = n / 2
    while True:
        if st.expose_stage(rng, stop_after_steps) is None:
            trace.flags.append("stopped_early")
            break
        trace.phase_ends.append(st.steps)
        trace.round_end_fractions.append(st.class_fractions())
        moved = st.rollover()
        trace.post_roll_fractions.append(st.class_fractions())
        if st.size_red >= target:
            break
        if moved == 0 and st.points_red == 0:
            # start vertex sat in a component smaller than the target
            trace.flags.append("component_exhausted")
            break
    st.phase_count = len(trace.phase_ends)
    return st, trace


def _view(buf: array) -> np.ndarray:
    """A numpy view of a typed buffer, sharing its memory."""
    return np.frombuffer(buf, dtype=buf.typecode)


def _boundary_reader(st: PairingState):
    """The boundary of a half of st as it stands: a function from in_half
    (in_half[u] == 1 for the half's vertices) to the mask of the half's
    vertices that have an unpaired point or an exposed edge to a vertex
    outside it. The edge log is read in place, and the free counts are
    compared once, however many halves are read; while the reader lives
    the edge log cannot grow (numpy holds its buffer)."""
    pairs = _view(st.edges).reshape(-1, 2)
    has_open = _view(st.free) > 0

    def boundary(in_half: bytearray) -> np.ndarray:
        half = np.frombuffer(in_half, dtype=np.uint8).astype(bool)
        cross = pairs[half[pairs[:, 0]] != half[pairs[:, 1]]]
        mask = has_open.copy()
        mask[cross.ravel()] = True
        return mask & half

    return boundary


def run_alg3(state: PairingState, seed=None) -> tuple[float, SimTrace]:
    """Second stage: drain the low red classes while the hit rule recolors
    white vertices, stop at balance, and price the bisection.

    The loop runs while |red| - |class-1 red| is below the target, n/2;
    the first point comes from red classes 1..ceil(d/2), the second from
    all unpaired points, and a white partner turns red on its first hit.
    It ends on balance, as the fluid limit's stage two does: the red set
    starts on the target and never shrinks, so while the loop runs class 1
    is non-empty. Only a stage one that
    ended short ("component_exhausted") has no red point left: the run is
    flagged "red_exhausted" and the half is topped up with uniformly
    chosen outside vertices, each counted as boundary ("fill_arbitrary").
    The class-1 red vertices go to the complement; a surplus removes
    uniformly chosen boundary vertices first (flag "balance_trim"). The
    returned alpha counts every vertex of the half that has an unpaired
    point, an exposed neighbor outside the half, or was force-added,
    divided by the target. This is the width whose fluid limit
    `dem.run_dem` reads off.

    Mutates state in place.
    """
    st = state
    n, d = st.n, st.d
    rng = random.Random(seed)
    trace = SimTrace()
    target = n / 2

    end = st.expose_stage(rng, low_max=stage_two_low_max(d), color_on_hit=True)
    if end == "dry":
        trace.flags.append("red_exhausted")

    # move the class-1 red vertices across and rebalance to exactly
    # floor(target)
    half_count = int(target)
    in_half = bytearray(st.is_red)
    for u in st.red_cls[1]:
        in_half[u] = 0
    size_half = st.size_red - len(st.red_cls[1])
    forced: set = set()
    boundary_of = _boundary_reader(st)

    if size_half < half_count:
        # only after "red_exhausted", when class 1 is empty
        trace.flags.append("fill_arbitrary")
        rest = [u for u in range(n) if not in_half[u]]
        forced = set(rng.sample(rest, half_count - size_half))
        for u in forced:
            in_half[u] = 1
    elif size_half > half_count:
        trace.flags.append("balance_trim")
        surplus = size_half - half_count
        exposed_boundary = np.flatnonzero(boundary_of(in_half)).tolist()
        rng.shuffle(exposed_boundary)
        drop = exposed_boundary[:surplus]
        if len(drop) < surplus:
            drop_set = set(drop)
            interior = [
                u for u in range(n) if in_half[u] and u not in drop_set
            ]
            rng.shuffle(interior)
            drop += interior[: surplus - len(drop)]
        for u in drop:
            in_half[u] = 0

    boundary = boundary_of(in_half)
    boundary[list(forced)] = True
    alpha = int(np.count_nonzero(boundary)) / target
    return alpha, trace
