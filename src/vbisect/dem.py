"""Deterministic fluid-limit version of the two-stage coloring process.

The scaled class sizes of the simulation concentrate, as n grows, on the
solution of two ODE systems, provided both start from the same scaled
state. Both stages use one layout: red classes r_0..r_{d-1} and white
classes z_0..z_d, indexed by unpaired points (a red vertex never has d;
z_d is the untouched pool). Stage one runs in rounds, each solved exactly
(`ExactRound`) until the red unpaired points fall to DELTA_STOP; then the
hit whites z_0..z_{d-1} are promoted into the red block and the next
round starts. Stage one stops mid-round, at the moment the mass a
promotion would make red (1 - z_d) reaches 1/2. The promotion of that
state is the hand-off: it seeds stage two with all of the mass, and stage
two is one numerically integrated leg, draining the low red classes until
the balance event, when the red set less class 1 reaches 1/2. The bound is the width of the
balanced partition the simulation builds (the red set less class 1), read
off in the fluid limit by a backward pass from the end of the run (see the
readout section).

The process is defined once: `_leg_layout` keys a leg by the simulation's
exposure parameters (low_max, color_on_hit), (d, False) in stage one and
(`pairing.stage_two_low_max(d)`, True) in stage two, and gives its point
counts, moves and first-point pool, from which the right-hand sides and
the readout's backward pass are built. `_transition` maps each class
through a promotion, forward for the run and backward for the readout.
The right-hand sides are conservative: component sums vanish up to
rounding. The promotions only move mass between classes; `run_dem`
raises if one changes the total by more than CLAMP_TOL.

Everything that depends only on small ints is built once per process and
shared: the binomial and exponent tables of a round's thinning (per class
count), the transition map (per degree), and each leg's forward and
backward right-hand sides (per leg key). Their arrays are read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .graph import check_degree
from .integrate import Event, IntResult, solve_adaptive, solve_fixed
from .pairing import stage_two_low_max

DELTA_STOP = 1e-9  # point-count guard, in fractions of n
EPS_NEG = 1e-12  # negativity tolerance
CLAMP_TOL = 1e-9  # the most a promotion may change the total mass by
STOP_TOL = 1e-13  # stop_u: closed form and promoted state differ by under 1e-15
EPS_DEFAULT = 1e-5
FIXED_LEG_SHARE = 32  # fixed mode: stage two's grid gets steps/FIXED_LEG_SHARE
FIXED_MIN_LEG_STEPS = 256
MAX_LEG_TIME = 64.0
MAX_ROUNDS = 400
RTOL, ATOL = 1e-10, 1e-12  # adaptive stage two


@dataclass
class DemState:
    """Scaled class sizes in the layout of both stages: r_0..r_{d-1} and
    z_0..z_d by unpaired points, z_d the untouched pool. In stage two
    z_0..z_{d-1} are 0: the hand-off promotes every hit white, and stage
    two turns a white red on its first hit."""

    d: int
    r: np.ndarray
    z: np.ndarray

    @classmethod
    def from_vector(cls, d: int, y: np.ndarray) -> DemState:
        return cls(d, y[:d], y[d:])

    @property
    def vector(self) -> np.ndarray:
        """[r_0..r_{d-1}, z_0..z_d], the vector every leg evolves."""
        return np.concatenate([self.r, self.z])

    @property
    def points_red(self) -> float:
        return float(np.arange(self.r.size) @ self.r)

    @property
    def points_white(self) -> float:
        return float(np.arange(self.z.size) @ self.z)

    @property
    def points_all(self) -> float:
        return self.points_red + self.points_white

    @property
    def red_mass(self) -> float:
        return float(self.r.sum())

    @property
    def mass(self) -> float:
        return float(self.r.sum()) + float(self.z.sum())


@dataclass
class DemRunResult:
    d: int
    eps: float
    mode: str
    alpha_upper: float
    round_end_states: list = field(default_factory=list)  # stage 1, pre-promotion
    post_roll_states: list = field(default_factory=list)  # the last seeds stage 2
    final_state: DemState | None = None  # stage two's end, or its seed if not run
    flags: list = field(default_factory=list)
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def phase_count(self) -> int:
        return len(self.round_end_states)

    @property
    def handoff_state(self) -> DemState:
        """Stage one at its stop, before the promotion that seeds stage two."""
        return self.round_end_states[-1]


# -- right-hand sides ------------------------------------------------------


def _read_only(*arrays: np.ndarray) -> None:
    """Freeze arrays that a cached table or closure shares with every caller."""
    for a in arrays:
        a.flags.writeable = False


def _leg_layout(d: int, low_max: int, color_on_hit: bool):
    """(unpaired points, index of the state one point down, mask of the
    states that give first points) over [r_0..r_{d-1}, z_0..z_d] for a leg
    of the simulation's `expose_step(low_max, color_on_hit)`, with the pair
    its stages use: (d, False) in a stage-one round and
    (`stage_two_low_max(d)`, True) in stage two. First points come from red
    classes 1..min(low_max, d-1), as a red vertex never has d. A hit white
    z_j turns red (to r_{j-1}) when color_on_hit is set and keeps its colour
    (to z_{j-1}) otherwise."""
    pts = np.concatenate([np.arange(d), np.arange(d + 1)]).astype(float)
    hit = np.arange(d) if color_on_hit else np.arange(d, 2 * d)
    down = np.concatenate([[0], np.arange(d - 1), [d], hit])
    first = (np.arange(2 * d + 1) <= min(low_max, d - 1)).astype(float)
    return pts, down, first


@functools.lru_cache(maxsize=None)
def _leg_rhs(d: int, low_max: int, color_on_hit: bool):
    """Derivative of a leg's state vector under `_leg_layout`.

    Each exposure pairs a first point, uniform over the first-point pool,
    with a second point, uniform over all unpaired points, so each state
    loses points at its combined per-point rate and that mass moves to the
    state one point down. The layout gives one matrix, built once per leg:
    the point moves scaled by pts, the same scaled by the pool's pts, the
    all-points row and the pool row, so f is one product and two divisions;
    a pool with no points adds no first-point term. The component sum
    vanishes up to rounding. Built once per leg key and shared, so the
    matrix is read-only.
    """
    pts, down, first = _leg_layout(d, low_max, color_on_hit)
    n = pts.size
    move = np.zeros((n, n))
    move[down, np.arange(n)] = 1.0
    move -= np.eye(n)
    mat = np.vstack([move * pts, move * (pts * first), pts, pts * first])
    _read_only(mat)

    def f(t: float, y: np.ndarray) -> np.ndarray:
        v = mat.dot(y)
        out = v[:n] / v[-2]
        if v[-1]:
            out += v[n:-2] / v[-1]
        return out

    return f


def rhs_phase1(d: int):
    """Stage-one derivative of [r_0..r_{d-1}, z_0..z_d]: first points are
    red, hit whites keep their colour. `run_dem` never integrates it:
    `ExactRound` is its exact solution, and the tests compare the two."""
    return _leg_rhs(d, d, False)


def rhs_phase2(d: int):
    """Stage-two derivative of [r_0..r_{d-1}, z_0..z_d]: first points come
    from the low red classes 1..ceil(d/2), second points from every class,
    and a hit white turns red, so the untouched pool z_d drains into
    r_{d-1} and z_0..z_{d-1} stay empty."""
    return _leg_rhs(d, stage_two_low_max(d), True)


def rhs_phase2_fallback(d: int):
    """Stage-two derivative with first points from every red class 1..d-1.
    No route runs it: from a hand-off on target, stage two balances before
    the low classes run dry (see `run_dem`), and the simulation's stage two
    ends on balance too. It stays for the conservation tests and for the
    benchmark's tracer, which binds its name."""
    return _leg_rhs(d, d, True)


# -- the exact stage-one round ---------------------------------------------


@functools.lru_cache(maxsize=None)
def _thinning_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tables of `_thinning` over n classes, built once per size and
    read-only: C(j, i), the exponent index max(j - i, 0) and 0..n-1."""
    binom = np.array([[math.comb(b, a) for b in range(n)] for a in range(n)], dtype=float)
    k = np.arange(n)
    expo = np.maximum(k - k[:, None], 0)
    _read_only(binom, expo, k)
    return binom, expo, k


def _thinning(n: int, keep: float, weight: float) -> np.ndarray:
    """M[i, j] = C(j, i) keep^i weight^(j-i) over n classes. With weight
    = 1 - keep, M @ x is the class sizes once each point is kept with
    probability keep, and M.T @ h pulls a function of the class back.
    The powers are taken once per exponent and gathered into place."""
    binom, expo, k = _thinning_tables(n)
    return binom * keep ** k[:, None] * (weight**k)[expo]


class ExactRound:
    """Exact solution of `rhs_phase1` over one stage-one round from s0.

    With A = points_all and p0 = points_red at the start, points_all falls
    at rate 2, each red point is paired at rate 1/p_red + 1/p_all and each
    white point at rate 1/p_all, so p_red = s (c + s) with s = sqrt(A - 2t)
    and c = p0/sqrt(A) - sqrt(A). A vertex's points are paired
    independently, so each class block thins binomially: a white point is
    lost with probability u = 1 - s/sqrt(A), a red one with 1 - p_red/p0
    = u (1 + A (1 - u) / p0). The map is parametrised by u; t = A u (2-u)/2.
    The binomial and exponent tables of `_thinning` are built once per
    class count, not per round, and are read-only.
    """

    def __init__(self, s0: DemState):
        self.s0, self.A, self.p0 = s0, s0.points_all, s0.points_red
        # p_red = DELTA_STOP at the smaller root of
        # A u^2 - (A + p0) u + p0 - DELTA_STOP, in cancellation-free form
        root = math.sqrt((self.A - self.p0) ** 2 + 4.0 * self.A * DELTA_STOP)
        self.u_end = max(2.0 * (self.p0 - DELTA_STOP) / (self.A + self.p0 + root), 0.0)

    def _lost(self, u: float) -> tuple[float, float]:
        """The chance that a red and that a white point is paired by u."""
        red = u * (1.0 + self.A * (1.0 - u) / self.p0) if u > 0.0 else 0.0
        return min(max(red, 0.0), 1.0), min(max(u, 0.0), 1.0)

    def t_at(self, u: float) -> float:
        return 0.5 * self.A * u * (2.0 - u)

    def u_at(self, t: float) -> float:
        return 2.0 * t / (self.A + math.sqrt(self.A * max(self.A - 2.0 * t, 0.0)))

    def state(self, u: float) -> DemState:
        s0, (red, white) = self.s0, self._lost(u)
        r = _thinning(s0.d, 1.0 - red, red) @ s0.r
        return DemState(s0.d, r, _thinning(s0.d + 1, 1.0 - white, white) @ s0.z)

    def pull_back(self, u: float, x: np.ndarray) -> np.ndarray:
        """[h, k] at the start of the round from [h, k] at u: the exact
        solution of the readout's backward equations (see that section).

        h pulls back through the transposed thinning of `state`, and so
        does k, with a lost point weighted by g, the chance that it is
        lost and its partner ends in the half. At time t the partner's
        expected h is (C_r + C_w) / p_all for a red point paired as a first
        point and C_r / p_red for any point paired as a second, where
        C_r = (p_red / p0) c_r and C_w = (s / sqrt(A)) c_w; g_r and g_w
        integrate the loss rate times that over the round."""
        s0, d, (red, white) = self.s0, self.s0.d, self._lost(u)
        size = 2 * d + 1
        h_r = _thinning(d, 1.0 - red, red).T @ x[:d]
        h_w = _thinning(d + 1, 1.0 - white, white).T @ x[d:size]
        c_r = float(np.arange(1, d) @ (s0.r[1:] * h_r[:-1]))
        c_w = float(np.arange(1, d + 1) @ (s0.z[1:] * h_w[:-1]))
        g_r = (2.0 * c_r * (u - self.A * u * u / (2.0 * self.p0)) + c_w * u) / self.p0
        g_w = c_r * u / self.p0
        k_r = _thinning(d, 1.0 - red, g_r).T @ x[size : size + d]
        k_w = _thinning(d + 1, 1.0 - white, g_w).T @ x[size + d :]
        return np.concatenate([h_r, h_w, k_r, k_w])

    def vector(self, t: float) -> np.ndarray:
        """[r, z] at time t into the round."""
        return self.state(self.u_at(t)).vector

    def stop_u(self, frac: float) -> float | None:
        """The first u at which a promotion would make a red mass of at
        least frac, or None if the round ends first.

        That mass is the total less the untouched pool, z_d (1-u)^d. It
        rises with u, and at u = 1/2 it is at least 1 - 2^-d, so with
        frac <= 1/2 bisection on [0, min(u_end, 1/2)] finds the first
        crossing. A halving takes its side from that closed form unless it
        is within STOP_TOL of frac, where the promoted state decides, so
        the float found is the same.
        """
        d, mass, zd = self.s0.d, self.s0.mass, float(self.s0.z[-1])

        def short(u: float) -> bool:
            gap = mass - zd * (1.0 - u) ** d - frac
            if abs(gap) > STOP_TOL:
                return gap < 0.0
            return rollover(self.state(u)).red_mass < frac

        lo, hi = 0.0, min(self.u_end, 0.5)
        if short(hi):
            return None
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if short(mid) else (lo, mid)
        return hi


# -- construction and round transitions ------------------------------------


def init_state(d: int, eps: float) -> DemState:
    """Seed profile of a small red tree: eps/(d-1) saturated roots, eps
    leaves with d-1 open points each, everything else untouched."""
    if not 0.0 < eps < (d - 1) / d:
        raise ValueError(f"eps must be in (0, {(d - 1) / d}), got {eps}")
    r = np.zeros(d)
    r[0] = eps / (d - 1)
    r[d - 1] = eps
    z = np.zeros(d + 1)
    z[d] = 1.0 - eps - eps / (d - 1)
    return DemState(d, r, z)


@functools.lru_cache(maxsize=None)
def _transition(d: int) -> np.ndarray:
    """Index of each entry of [r_0..r_{d-1}, z_0..z_d] after a promotion.
    Red classes stay, the hit whites z_j (fully paired ones included) join
    r_j, and the untouched pool stays. Built once per degree; read-only."""
    m = np.concatenate([np.arange(d), np.arange(d), [2 * d]])
    _read_only(m)
    return m


def rollover(s: DemState) -> DemState:
    """End-of-round promotion of the hit whites (see `_transition`)."""
    m = _transition(s.d)
    return DemState.from_vector(s.d, np.bincount(m, s.vector, m.size))


def phase2_init(s: DemState) -> DemState:
    """Seed of stage two from the stage-one state at its stop. Both stages
    share one layout, so the hand-off is that round's promotion."""
    return rollover(s)


# -- readout: the boundary of the balanced partition -------------------------
#
# The half is the red set less class 1, topped up or trimmed to exactly
# 1/2. Its boundary is every vertex of it with an unpaired point, plus
# every fully paired one with a neighbour outside it (in class 1: every
# white a red vertex hits turns red), so width = 1/2 - interior,
# where the interior is the fully paired red vertices with every neighbour
# in the half. That is not a function of the class sizes, but it has a
# fluid limit: a vertex's unpaired-point count runs as a Markov chain whose
# rates depend on the class sizes alone, and a vertex's neighbours run
# theirs independently (the exposed graph is locally a tree). For a vertex
# in state s (colour and unpaired-point count) at time t let
#
#   h_s(t) = P(it ends in the half),
#   k_s(t) = P(it ends fully paired and red, and every neighbour it gains
#            after t ends in the half).
#
# If s loses a point at rate a_s as the first point of an exposure and b_s
# as the second, moving to s-, and the new neighbour's expected h is H1 or
# H2 in the two cases, then backward in time
#
#   h_s' = -(a_s + b_s) (h_{s-} - h_s)
#   k_s' = -a_s (H1 k_{s-} - k_s) - b_s (H2 k_{s-} - k_s)
#
# from h = 1 on the half's classes (red 0 and 2..d-1) and k = 1 on red 0 at
# the end. The interior is then the sum over the seed's vertices of k times
# the product of h over their neighbours.
#
# The stage-two leg solves these equations numerically, together with its
# own state equations run backward from the leg's end state, so the state
# they read is the ODE's own. A stage-one round solves them exactly
# (`ExactRound.pull_back`):
# there a vertex loses each point independently, a white one by u with
# probability u and a red one with probability l = u (1 + A (1 - u) / p0),
# so per block (red r_0..r_{d-1}, white z_0..z_d)
#
#   h_start[j] = sum_i C(j, i) (1 - l)^i l^(j-i) h_end[i]
#   k_start[j] = sum_i C(j, i) (1 - l)^i g^(j-i) k_end[i]
#
# with g_r = (2 c_r (u - A u^2 / (2 p0)) + c_w u) / p0, g_w = c_r u / p0,
# c_r = sum_j j r_j h^r_{j-1} and c_w = sum_j j z_j h^w_{j-1} at the
# round's start (A, p0: points_all and points_red there).

READOUT_RTOL = 1e-7
READOUT_ATOL = 1e-9


@functools.lru_cache(maxsize=None)
def _backward_rhs(d: int, low_max: int, color_on_hit: bool):
    """g(y, x): the backward derivative of x = [h, k] at the state vector
    y, for a leg of `_leg_layout(d, low_max, color_on_hit)`, in time
    running backward from the leg's end.

    A state is paired as a first point at rate a = pts first / p_first and
    as a second at rate b = pts / p_all; its partner's expected h is then
    H1 = s_all / p_all or H2 = s_first / p_first, where s sums pts h over
    the states one point down, over all points or over the pool. With u
    = [h, k] gathered one point down, x' = c0 u - c1 x, with c1 = a + b in
    both halves and c0 = a + b for h and a H1 + b H2 for k. [c0, c1] is
    one product of the per-call factors with a block-diagonal matrix, built
    once per leg, whose blocks place pts and pts first in each half: a
    vector-matrix product, as a matrix-matrix one would have BLAS allocate
    a work buffer on first use and raise a run's peak memory by 0.25 MB.
    Built once per leg key and shared, so its arrays are read-only.
    """
    pts, down, first = _leg_layout(d, low_max, color_on_hit)
    n = pts.size
    q = np.vstack([pts, pts * first])  # all points, first-point pool
    gather = np.concatenate([down, down + n])
    place = np.zeros((8, 4 * n))
    for j in range(4):
        place[2 * j : 2 * j + 2, j * n : (j + 1) * n] = q
    _read_only(q, gather, place)

    def g(y: np.ndarray, x: np.ndarray) -> np.ndarray:
        # the backward solve of y carries its own error and may dip below
        # 0 where a class is near empty; the balance event ends stage two
        # before the low pool runs dry
        y = np.maximum(y, 0.0)
        p_all, p_first = q.dot(y).tolist()
        ra, rf = 1.0 / max(p_all, DELTA_STOP), 1.0 / max(p_first, DELTA_STOP)
        u = x[gather]
        s_all, s_first = q.dot(y * u[:n]).tolist()
        c = np.array([ra, rf, s_first * ra * rf, s_all * ra * rf,
                      ra, rf, ra, rf]).dot(place)
        return c[: 2 * n] * u - c[2 * n :] * x

    return g


def pull_back(d: int, rounds: list, leg, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Carry [h, k] from the end of a run back to its seed: over stage two,
    given as its (span, end state), if it ran, by one backward solve of
    [y, h, k] from that end state, then through each stage-one round, given
    as (ExactRound, the u it stops at), and the promotion that ends it (the
    last one is the hand-off), exactly. Returns it with the flags of a
    backward solve that did not finish."""
    flags = []
    if leg is not None:
        span, y_end = leg
        low_max, n = stage_two_low_max(d), 2 * d + 1
        f, g = _leg_rhs(d, low_max, True), _backward_rhs(d, low_max, True)

        def joint(s: float, v: np.ndarray) -> np.ndarray:  # s runs back from span
            y = v[:n]
            return np.concatenate([-f(span - s, y), g(y, v[n:])])

        out = solve_adaptive(joint, 0.0, np.concatenate([y_end, x]), span, (),
                             rtol=READOUT_RTOL, atol=READOUT_ATOL)
        x = out.y[n:]
        if out.status != "t_end":
            flags.append(f"readout_{out.status}")
    m = _transition(d)
    before = np.concatenate([m, m + m.size])  # [h, k] gathered backward
    for rnd, u in reversed(rounds):
        x = rnd.pull_back(u, x[before])
    return x, flags


def interior_mass(d: int, eps: float, rounds: list, leg) -> tuple[float, list]:
    """Fluid limit of the interior of the balanced half, as a fraction of
    n, for the run seeded at eps with these rounds and stage-two leg (see
    `pull_back`); returns it with the flags of `pull_back`."""
    h = np.zeros(2 * d + 1)
    h[:d] = 1.0  # the half: every red class but class 1, and no white
    h[1] = 0.0
    k = np.zeros(2 * d + 1)
    k[0] = 1.0
    x, flags = pull_back(d, rounds, leg, np.concatenate([h, k]))
    h, k = x[: 2 * d + 1], x[2 * d + 1 :]
    seed = init_state(d, eps)
    # the seed tree: roots (red 0) with d leaf neighbours, leaves (red d-1)
    # with one root neighbour, and the untouched pool with none
    interior = (
        seed.z[d] * k[2 * d]
        + seed.r[d - 1] * k[d - 1] * h[0]
        + seed.r[0] * k[0] * h[d - 1] ** d
    )
    return float(interior), flags


# -- events ----------------------------------------------------------------


def _ev_negativity() -> Event:
    return Event(lambda t, y: float(y.min()) + EPS_NEG, direction=-1, name="negativity")


def _ev_balance(d: int) -> Event:
    def g(t: float, y: np.ndarray) -> float:
        return float(y[:d].sum()) - float(y[1]) - 0.5

    return Event(g, direction=1, name="balance")


# -- drivers ---------------------------------------------------------------


def integrate_phase(
    rhs,
    s0: DemState,
    events: list[Event],
    *,
    mode: str = "adaptive",
    h_fixed: float | None = None,
    t_max: float = MAX_LEG_TIME,
) -> tuple[DemState, str | None, IntResult]:
    """One integration leg of the vector [r, z] from s0 to its earliest
    event; `run_dem` integrates stage two only (see `ExactRound`).

    Returns (end state, fired event name or None, raw solver result). The
    caller supplies the events."""
    if not events:
        raise ValueError("events must be nonempty")
    y0 = s0.vector
    if mode == "adaptive":
        res = solve_adaptive(rhs, 0.0, y0, t_max, events, rtol=RTOL, atol=ATOL)
    elif mode == "fixed":
        if h_fixed is None:
            raise ValueError("fixed mode needs h_fixed")
        res = solve_fixed(rhs, 0.0, y0, t_max, h_fixed, events)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not np.all(np.isfinite(res.y)):
        raise FloatingPointError(f"non-finite state at t={res.t}: {res.y}")
    return DemState.from_vector(s0.d, res.y), res.event, res


def _fixed_leg_grid(leg_steps: int, p_all: float):
    """Uniform RK4 grid for stage two in the fixed mode.

    Every exposure removes two unpaired points, so all of them are gone
    by p_all/2 and every stopping event lands before it; a 1/16 margin
    keeps the crossing interior to the grid.
    """
    t_cap = min(MAX_LEG_TIME, (17.0 / 16.0) * max(p_all, DELTA_STOP) / 2.0)
    return t_cap / leg_steps, t_cap


def run_dem(
    d: int,
    eps: float | None = None,
    *,
    mode: str = "adaptive",
    steps: int = 10**6,
) -> DemRunResult:
    """Full two-stage run for one degree; returns the bound and the full
    phase history.

    Stage one is solved exactly, round by round (`ExactRound`), in both
    modes; it ends mid-round where a promotion would first make a red mass
    of 1/2. That state is handoff_state, and its promotion, the last of
    stage one, seeds stage two in the same layout. Stage two is one leg of
    `rhs_phase2` to the balance event, skipped (flag "balance_at_entry")
    when the seed already balances. mode and steps act on stage two only:
    mode "adaptive" uses the embedded 5(4) pair at tight tolerance; mode
    "fixed" uses classical RK4 on a uniform grid of steps / FIXED_LEG_SHARE
    steps over a span sized from the point-pool drain. alpha_upper is the
    boundary of the balanced half over 1/2, 1 - 2 * interior_mass, read
    back over stage two from its end state and then through the rounds. A
    run that does not balance reads off at the state where it stopped and
    is flagged "no_balance": stage one capped at MAX_ROUNDS ("round_cap",
    and no stage two), or a stage-two leg that ends on anything but
    balance ("stage2_<event or solver status>"). Raises ValueError for an
    unknown mode or for fixed mode with steps under 1 (adaptive mode
    ignores steps), and RuntimeError if a promotion changes the total mass
    by more than CLAMP_TOL.
    """
    check_degree(d)
    if mode not in ("adaptive", "fixed"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "fixed" and steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if eps is None:
        eps = EPS_DEFAULT
    leg_steps = max(FIXED_MIN_LEG_STEPS, steps // FIXED_LEG_SHARE)

    res = DemRunResult(d=d, eps=eps, mode=mode, alpha_upper=math.nan)
    rounds = []  # (ExactRound, the u it stops at)
    leg = None  # stage two's (span, end state)
    state = init_state(d, eps)
    while True:
        rnd = ExactRound(state)
        u = rnd.stop_u(0.5)
        u = rnd.u_end if u is None else u
        end = rnd.state(u)
        rounds.append((rnd, u))
        res.round_end_states.append(end)
        rolled = rollover(end)
        gap = rolled.mass - end.mass
        if abs(gap) > CLAMP_TOL:
            raise RuntimeError(
                f"promotion {len(res.round_end_states)} changed the total mass by {gap:.3e}"
            )
        res.post_roll_states.append(rolled)
        state = rolled  # after the last promotion, the seed of stage two
        if rolled.red_mass >= 0.5:
            break
        if len(res.round_end_states) >= MAX_ROUNDS:
            res.flags.append("round_cap")
            break

    balance = _ev_balance(d)
    if "round_cap" in res.flags:  # short of the target: nothing to balance
        res.flags.append("no_balance")
    elif balance(0.0, state.vector) >= 0.0:
        res.flags.append("balance_at_entry")
    else:
        # one leg to the balance event, red mass less r_1 reaching 1/2.
        # The red mass never falls and starts at least 1/2, and each
        # class-1 vertex holds a low-pool point, so the event fires no
        # later than the low pool runs dry
        h_fixed, t_cap = (
            _fixed_leg_grid(leg_steps, state.points_all)
            if mode == "fixed"
            else (None, MAX_LEG_TIME)
        )
        end, fired, raw = integrate_phase(
            rhs_phase2(d),
            state,
            [balance, _ev_negativity()],
            mode=mode,
            h_fixed=h_fixed,
            t_max=t_cap,
        )
        res.n_steps, res.n_rejected = raw.n_steps, raw.n_rejected
        leg = raw.t, raw.y
        state = end
        if fired != "balance":
            res.flags += [f"stage2_{fired or raw.status}", "no_balance"]

    res.final_state = state
    interior, readout_flags = interior_mass(d, eps, rounds, leg)
    res.flags += readout_flags
    res.alpha_upper = 1.0 - 2.0 * interior
    if not 0.0 < res.alpha_upper <= 1.0:
        res.flags.append("alpha_out_of_range")
    return res

