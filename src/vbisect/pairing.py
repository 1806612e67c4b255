"""Monte Carlo simulation of the two-stage coloring process on the pairing model.

The graph is never generated up front. Edges are exposed one at a time: a
first point is drawn from the active red pool, a second uniformly from all
remaining unpaired points, and the pair becomes an edge. Stage one grows
the red set in rounds (drain the red unpaired points, then promote the
white vertices that were hit) and stops mid-round once the promotion
would make stop_fraction of the vertices red; stage two rebalances while
draining the low-degree red classes, builds the balanced partition and
reads off its boundary. Both stages follow the process that `vbisect.dem`
integrates, and the fluid limit reads off the same boundary.

Vertices are bucketed by (color, unpaired-point count). Sampling a uniform
unpaired point over a vertex subset is class-weighted: pick a class with
probability proportional to count * size, then a uniform member, O(d) per
draw. Every exposure is undoable, which the drift regression tests use to
resample single steps from a frozen state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .graph import check_stop_fraction

__all__ = ["PairingState", "SimTrace", "run_alg2", "run_alg3"]


@dataclass
class SimTrace:
    """Step-indexed class-size snapshots plus round bookkeeping.

    rows hold (step, phase, class_index, kind, fraction) with kind "R" for
    red and "Z" for non-red; a full snapshot sums to 1 across its rows.
    round_end_fractions / post_roll_fractions hold ([r_0..r_d], [z_0..z_d])
    size fractions just before and just after each promotion.
    """

    n: int
    d: int
    rows: list = field(default_factory=list)
    phase_ends: list = field(default_factory=list)  # step count at each round end
    round_end_fractions: list = field(default_factory=list)
    post_roll_fractions: list = field(default_factory=list)
    alpha: float | None = None
    flags: list = field(default_factory=list)

    def snapshot(self, state: "PairingState", phase: int) -> None:
        n = self.n
        for i in range(self.d + 1):
            self.rows.append(
                (state.steps, phase, i, "R", len(state.red_cls[i]) / n)
            )
            self.rows.append(
                (state.steps, phase, i, "Z", len(state.white_cls[i]) / n)
            )

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("step,phase,class,kind,fraction\n")
            for step, phase, cls, kind, frac in self.rows:
                fh.write(f"{step},{phase},{cls},{kind},{frac:.10g}\n")


class PairingState:
    """Partially exposed pairing of n vertices with d points each.

    red_cls[i] / white_cls[i] list the vertices of each color with exactly
    i unpaired points; points_red / points_white are the matching point
    totals. partners is the exposed-edge log in per-vertex form (a
    self-loop appears twice in its own list). The invariant
    edge_count + (points_red + points_white)/2 == n*d/2 holds throughout.
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
        "partners",
        "edge_count",
        "steps",
        "phase_count",
        "_red",
        "_white",
    )

    def __init__(self, n: int, d: int):
        self.n = n
        self.d = d
        self.free = [d] * n
        self.is_red = bytearray(n)
        self.red_cls: list[list[int]] = [[] for _ in range(d + 1)]
        self.white_cls: list[list[int]] = [[] for _ in range(d + 1)]
        self.white_cls[d] = list(range(n))
        self.pos = list(range(n))
        self.points_red = 0
        self.points_white = n * d
        self.size_red = 0
        self.partners: list[list[int]] = [[] for _ in range(n)]
        self.edge_count = 0
        self.steps = 0
        self.phase_count = 0
        # (points per vertex, class list) for classes 1..d, in sampling order;
        # the class lists are only ever mutated in place, so these stay valid
        self._red = [(i, self.red_cls[i]) for i in range(1, d + 1)]
        self._white = [(i, self.white_cls[i]) for i in range(1, d + 1)]

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

    @staticmethod
    def _owner(t: int, classes) -> int:
        """Vertex owning unpaired point t of classes, numbering the points
        class by class; a uniform t gives a uniform point."""
        for i, members in classes:
            w = i * len(members)
            if t < w:
                return members[t // i]
            t -= w
        raise AssertionError("point totals out of sync")

    # -- exposure ----------------------------------------------------------

    def _expose_from(self, rng: random.Random, u: int, color_on_hit: bool):
        """Pair one point of u with a uniform unpaired point elsewhere.

        The partner keeps its color unless color_on_hit is set and it was
        white. Returns an undo record for undo_step.
        """
        undo = [(u, self.is_red[u], self.free[u])]
        self._move(u, self.is_red[u], self.free[u] - 1)
        t = rng.randrange(self.points_red + self.points_white)
        if t < self.points_red:
            v = self._owner(t, self._red)
        else:
            v = self._owner(t - self.points_red, self._white)
        v_red = self.is_red[v]
        undo.append((v, v_red, self.free[v]))
        self._move(v, 1 if (v_red or color_on_hit) else 0, self.free[v] - 1)
        self.partners[u].append(v)
        self.partners[v].append(u)
        self.edge_count += 1
        self.steps += 1
        return undo

    def expose_step(self, rng: random.Random, *, low_max: int | None = None,
                    color_on_hit: bool = False):
        """One process step: first point from the red classes (all of them,
        or only 1..low_max), second from everything unpaired. Returns None,
        exposing nothing, when those red classes have no unpaired point."""
        if low_max is None:
            classes, total = self._red, self.points_red
        else:
            classes = self._red[:low_max]
            total = sum(i * len(members) for i, members in classes)
        if total == 0:
            return None
        u = self._owner(rng.randrange(total), classes)
        return self._expose_from(rng, u, color_on_hit)

    def undo_step(self, undo) -> None:
        (u, u_red, u_free), (v, v_red, v_free) = undo
        self._move(v, v_red, v_free)
        self._move(u, u_red, u_free)
        self.partners[v].pop()
        self.partners[u].pop()
        self.edge_count -= 1
        self.steps -= 1

    def rollover(self, promote_fully_paired: bool = True) -> int:
        """Recolor the white vertices hit so far (classes below d) red.

        promote_fully_paired=False leaves the fully paired white vertices
        white, matching the narrower reading of the promotion step.
        Returns the number of vertices recolored."""
        start = 0 if promote_fully_paired else 1
        moved = 0
        for i in range(start, self.d):
            for u in list(self.white_cls[i]):
                self._move(u, 1, i)
                moved += 1
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
        assert self.edge_count * 2 + self.points_red + self.points_white == (
            self.n * self.d
        )
        for i in range(self.d + 1):
            for u in self.red_cls[i]:
                assert self.is_red[u] and self.free[u] == i
            for u in self.white_cls[i]:
                assert not self.is_red[u] and self.free[u] == i


def run_alg2(
    n: int,
    d: int,
    seed=None,
    *,
    promote_fully_paired: bool = True,
    stop_fraction: float = 0.5,
    snapshot_every: int = 0,
    stop_after_steps: int | None = None,
) -> tuple[PairingState, SimTrace]:
    """First stage: grow the red set in rounds until it reaches
    stop_fraction of the vertices.

    Each round drains the red unpaired points, then the promotion recolors
    every white vertex that has been hit. The last round stops mid-round,
    after the exposure that brings the number of vertices the promotion
    would make red (every vertex but the untouched whites, less the fully
    paired whites when promote_fully_paired is False) to n * stop_fraction;
    that state is the last entry of trace.round_end_fractions, and
    promoting it lands the red set on the target. stop_after_steps returns
    mid-round after that many exposures (used to freeze states for drift
    tests).
    """
    if (n * d) % 2 != 0:
        raise ValueError("n*d must be even")
    if d < 3 or n <= d:
        raise ValueError("need d >= 3 and n > d")
    check_stop_fraction(n, stop_fraction)
    rng = random.Random(seed)
    st = PairingState(n, d)
    trace = SimTrace(n=n, d=d)

    x0 = rng.randrange(n)
    while st.free[x0] > 0:
        st._expose_from(rng, x0, color_on_hit=False)
    st._move(x0, 1, 0)

    target = n * stop_fraction
    untouched, paired_whites = st.white_cls[d], st.white_cls[0]

    def promotable() -> int:
        kept = 0 if promote_fully_paired else len(paired_whites)
        return n - len(untouched) - kept

    phase = 0
    if snapshot_every:
        trace.snapshot(st, phase)
    while True:
        while st.points_red > 0 and promotable() < target:
            st.expose_step(rng)
            if snapshot_every and st.steps % snapshot_every == 0:
                trace.snapshot(st, phase)
            if stop_after_steps is not None and st.steps >= stop_after_steps:
                trace.flags.append("stopped_early")
                st.phase_count = phase
                return st, trace
        trace.phase_ends.append(st.steps)
        trace.round_end_fractions.append(st.class_fractions())
        moved = st.rollover(promote_fully_paired)
        phase += 1
        trace.post_roll_fractions.append(st.class_fractions())
        if snapshot_every:
            trace.snapshot(st, phase)
        if st.size_red >= target:
            break
        if moved == 0 and st.points_red == 0:
            # start vertex sat in a component smaller than the target
            trace.flags.append("component_exhausted")
            break
    st.phase_count = phase
    return st, trace


def _final_alpha(st: PairingState, in_half: bytearray, forced, half_target: float):
    boundary = 0
    for u in range(st.n):
        if not in_half[u]:
            continue
        if u in forced or st.free[u] > 0:
            boundary += 1
            continue
        for p in st.partners[u]:
            if not in_half[p]:
                boundary += 1
                break
    return boundary / half_target


def run_alg3(
    state: PairingState,
    seed=None,
    *,
    stop_fraction: float = 0.5,
    snapshot_every: int = 0,
) -> tuple[float, SimTrace]:
    """Second stage: drain the low red classes while the hit rule recolors
    white vertices, stop at balance, and price the bisection.

    The loop runs while |red| - |class-1 red| is below the target; the
    first point comes from red classes 1..ceil(d/2) (falling back to any
    red unpaired point, flagged "l_exhausted", when those are empty), the
    second from all unpaired points, and a white partner turns red on its
    first hit. The class-1 red vertices are then moved to the complement
    and replaced by at most as many of their non-red exposed neighbors.
    A surplus instead removes uniformly chosen boundary vertices first
    (flag "balance_trim"; see the module notes). The returned alpha counts
    every vertex of the red half that has an unpaired point, an exposed
    neighbor outside the half, or was force-added, divided by n/2. This is
    the width whose fluid limit `dem.run_dem` reads off.

    Mutates state in place.
    """
    check_stop_fraction(state.n, stop_fraction)
    st = state
    n, d = st.n, st.d
    m = (d + 1) // 2
    rng = random.Random(seed)
    trace = SimTrace(n=n, d=d)
    phase = st.phase_count
    target = n * stop_fraction

    if snapshot_every:
        trace.snapshot(st, phase)
    while st.size_red - len(st.red_cls[1]) < target:
        if st.expose_step(rng, low_max=m, color_on_hit=True) is None:
            if st.expose_step(rng, color_on_hit=True) is None:
                trace.flags.append("red_exhausted")
                break
            if "l_exhausted" not in trace.flags:
                trace.flags.append("l_exhausted")
        if snapshot_every and st.steps % snapshot_every == 0:
            trace.snapshot(st, phase)

    # move the class-1 red vertices across and rebalance to exactly
    # floor(n * stop_fraction)
    half_count = int(n * stop_fraction)
    moved_across = list(st.red_cls[1])
    in_half = bytearray(st.is_red)
    for u in moved_across:
        in_half[u] = 0
    size_half = st.size_red - len(moved_across)
    forced: set = set()

    if size_half < half_count:
        need = half_count - size_half
        cand = []
        seen = bytearray(n)
        for u in moved_across:
            for p in st.partners[u]:
                if not in_half[p] and not st.is_red[p] and not seen[p]:
                    seen[p] = 1
                    cand.append(p)
        rng.shuffle(cand)
        take = cand[:need]
        if len(take) < need:
            trace.flags.append("fill_arbitrary")
            rest = [u for u in range(n) if not in_half[u] and not seen[u]]
            take += rng.sample(rest, need - len(take))
        for u in take:
            in_half[u] = 1
            forced.add(u)
    elif size_half > half_count:
        trace.flags.append("balance_trim")
        surplus = size_half - half_count
        half = [u for u in range(n) if in_half[u]]
        exposed_boundary = [
            u
            for u in half
            if st.free[u] > 0 or any(not in_half[p] for p in st.partners[u])
        ]
        rng.shuffle(exposed_boundary)
        drop = exposed_boundary[:surplus]
        if len(drop) < surplus:
            drop_set = set(drop)
            interior = [u for u in half if u not in drop_set]
            rng.shuffle(interior)
            drop += interior[: surplus - len(drop)]
        for u in drop:
            in_half[u] = 0

    alpha = _final_alpha(st, in_half, forced, n * stop_fraction)
    trace.alpha = alpha
    if snapshot_every:
        trace.snapshot(st, phase)
    return alpha, trace
