"""End-to-end acceptance: one test and one summary line per shipped claim.

A FAIL line here is a measured shortfall kept visible on purpose. The
tolerances are frozen; they are never widened to turn a line green.
"""

import math
import random
import time

import numpy as np

from vbisect import dem, experiment, reference
from vbisect.graph import ball_layers, brute_force_bw, brute_force_vbw, gen_regular
from vbisect.greedy import GreedyConfig, run_alg1
from vbisect.pairing import run_alg2

from test_graph import complete_graph, cube, k33


def test_criterion_1_fixed_budget_table(dem_fixed, criterion_log):
    fails = []
    for d in range(4, 11):
        res, secs = dem_fixed[d]
        ref = reference.FLUID_ALPHA[d]
        if abs(res.alpha_upper - ref) > 0.01:
            fails.append(f"d={d} got {res.alpha_upper:.5f} want {ref:.5f}")
        if secs > 60.0:
            fails.append(f"d={d} took {secs:.0f}s")
    detail = "; ".join(fails) or "d=4..10 within 0.01 of the table, under 60s each"
    criterion_log(1, "fixed-budget integration matches the table", not fails, detail)
    assert not fails, detail


def test_criterion_2_degree_three_bound(dem_adaptive, criterion_log):
    got = dem_adaptive[3].alpha_upper
    want = reference.FLUID_ALPHA_D3
    ok = abs(got - want) <= 0.01
    detail = f"got {got:.5f} want {want:.5f}"
    criterion_log(2, "degree-3 integration bound", ok, detail)
    assert ok, detail


def test_criterion_3_greedy_batch_means(alg1_batches, criterion_log):
    fails = []
    for d in range(3, 11):
        _, summary, secs, _ = alg1_batches[d]
        ref = reference.GREEDY_MEAN_ALPHA_N1E5[d]
        if abs(summary["grand_mean"] - ref) > 0.01:
            fails.append(f"d={d} mean {summary['grand_mean']:.5f} want {ref}")
        if secs > 30.0:
            fails.append(f"d={d} batch took {secs:.0f}s")
    detail = "; ".join(fails) or "8 batch means within 0.01, each under 30s"
    criterion_log(3, "greedy sweep means", not fails, detail)
    assert not fails, detail


def test_criterion_4_two_radius_backoff_wins(alg1_batches, criterion_log):
    records_2, summary_2, _, _ = alg1_batches[4]
    records_1, summary_1 = experiment.cmd_alg1(
        4, n=100_000, runs=5, graphs=5, seed=0, r0_offset=1
    )
    assert [r.seed for r in records_1] == [r.seed for r in records_2]
    m1, m2 = summary_1["grand_mean"], summary_2["grand_mean"]
    ok = m2 < m1
    detail = f"back-off 2 mean {m2:.5f} vs back-off 1 mean {m1:.5f} on matched seeds"
    criterion_log(4, "larger back-off gives the smaller mean", ok, detail)
    assert ok, detail


def test_criterion_5_exhaustive_baselines(criterion_log):
    fails = []
    if brute_force_vbw(complete_graph(4)) != 2:
        fails.append("K4 width")
    if brute_force_vbw(k33()) != 3:
        fails.append("K33 width")
    if brute_force_vbw(cube()) != 3:
        fails.append("cube width")
    checked = 0
    for d, sizes in ((3, (8, 10, 12)), (4, (8, 9, 10, 11, 12))):
        for i in range(50):
            n = sizes[i % len(sizes)]
            g = gen_regular(n, d, seed=500 + checked)
            vbw = brute_force_vbw(g)
            bw = brute_force_bw(g)
            bis, _ = run_alg1(g, GreedyConfig(seed=checked))
            if bis.width < vbw:
                fails.append(f"greedy beat exhaustion on graph {checked}")
            if not bw / d <= vbw <= bw:
                fails.append(f"edge sandwich broken on graph {checked}")
            checked += 1
    detail = "; ".join(fails) or f"named widths exact; {checked} graphs sandwiched"
    criterion_log(5, "exhaustive baselines bound the greedy", not fails, detail)
    assert not fails, detail


def test_criterion_6_conservation(dem_adaptive, dem_fixed, criterion_log):
    fails = []

    # (a) every rhs family sums to zero on random positive states
    worst_sum = 0.0
    for d in range(3, 11):
        rng = np.random.default_rng(100 + d)
        families = [
            (dem.rhs_phase1(d), 2 * d + 1),
            (dem.rhs_phase2(d), 2 * d + 1),
            (dem.rhs_phase2_fallback(d), 2 * d + 1),
        ]
        for f, size in families:
            for _ in range(1000):
                y = rng.uniform(0.01, 1.0, size)
                worst_sum = max(worst_sum, abs(float(f(0.0, y).sum())))
    if worst_sum > 1e-12:
        fails.append(f"rhs component sum up to {worst_sum:.2e}")

    # (b) total mass is kept through every integration leg and every
    # transition: each promotion and the hand-off
    worst_drift = 0.0
    for d, res in dem_adaptive.items():
        chain = [dem.init_state(d, res.eps)]
        for end, rolled in zip(res.round_end_states, res.post_roll_states):
            chain += [end, rolled]
        chain.append(dem.phase2_init(res.handoff_state))
        chain.append(res.final_state)
        drift = sum(abs(s1.mass - s0.mass) for s0, s1 in zip(chain, chain[1:]))
        worst_drift = max(worst_drift, drift)
        if drift >= 1e-8:
            fails.append(f"d={d} run drifted {drift:.2e}")

    # (c) the two integration modes agree on the final answer
    worst_gap = 0.0
    for d in range(3, 11):
        gap = abs(dem_adaptive[d].alpha_upper - dem_fixed[d][0].alpha_upper)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-4:
            fails.append(f"d={d} modes differ by {gap:.2e}")

    detail = "; ".join(fails) or (
        f"rhs sums <= {worst_sum:.1e}; worst run drift {worst_drift:.1e}; "
        f"worst mode gap {worst_gap:.1e}"
    )
    criterion_log(6, "conservation and mode agreement", not fails, detail)
    assert not fails, detail


def test_criterion_7_one_step_drift(criterion_log):
    """Frozen mid-round states; the empirical mean one-step class change
    must match the rhs expressions within three standard errors.

    Per class the tolerance uses the larger of the sample standard error
    and the model-implied one: a class with under one expected transition
    per hundred thousand draws can see zero events, which zeroes the
    sample estimate without meaning a drift mismatch.
    """
    fails = []
    T = 100_000
    for k in range(10):
        st, _ = run_alg2(100_000, 4, seed=k, stop_after_steps=20_000 + 3_000 * k)
        assert st.points_red > 0
        d = st.d
        R = [len(c) for c in st.red_cls] + [0]
        Z = [len(c) for c in st.white_cls] + [0]
        rate_red = 1.0 / st.points_red + 1.0 / (st.points_red + st.points_white)
        rate_any = 1.0 / (st.points_red + st.points_white)
        exp_r = np.array(
            [((i + 1) * R[i + 1] - i * R[i]) * rate_red for i in range(d + 1)]
        )
        exp_z = np.array(
            [((i + 1) * Z[i + 1] - i * Z[i]) * rate_any for i in range(d + 1)]
        )
        var_r = np.array(
            [((i + 1) * R[i + 1] + i * R[i]) * rate_red for i in range(d + 1)]
        )
        var_z = np.array(
            [((i + 1) * Z[i + 1] + i * Z[i]) * rate_any for i in range(d + 1)]
        )
        rng = random.Random(777 + k)
        sum_r = np.zeros(d + 1)
        ss_r = np.zeros(d + 1)
        sum_z = np.zeros(d + 1)
        ss_z = np.zeros(d + 1)
        for _ in range(T):
            undo = st.expose_step(rng)
            vr: dict = {}
            vz: dict = {}
            for w, was_red, f in undo:
                tgt = vr if was_red else vz
                tgt[f] = tgt.get(f, 0) - 1
                tgt[f - 1] = tgt.get(f - 1, 0) + 1
            for i, v in vr.items():
                sum_r[i] += v
                ss_r[i] += v * v
            for i, v in vz.items():
                sum_z[i] += v
                ss_z[i] += v * v
            st.undo_step(undo)
        for name, sums, sq, exp, var in (
            ("R", sum_r, ss_r, exp_r, var_r),
            ("Z", sum_z, ss_z, exp_z, var_z),
        ):
            mean = sums / T
            se_sample = np.sqrt(np.maximum(sq / T - mean**2, 0.0) / T)
            se_model = np.sqrt(var / T)
            tol = 3.0 * np.maximum(se_sample, se_model) + 1e-9
            bad = np.flatnonzero(np.abs(mean - exp) > tol)
            for i in bad:
                fails.append(
                    f"state {k} {name}{i}: mean {mean[i]:.3e} want {exp[i]:.3e}"
                )
    detail = "; ".join(fails) or "10 states, every class within 3 standard errors"
    criterion_log(7, "one-step drift matches the rhs", not fails, detail)
    assert not fails, detail


def test_criterion_8_simulation_tracks_fluid_limit(criterion_log):
    """A simulation at n starts from the seed of the integration at
    eps = d/n (see test_round_profiles_track_fluid_limit); the answer is
    periodic in log(eps), so the two must be compared from that seed."""
    fails = []
    gaps = []
    n = 100_000
    for d in (4, 6, 8):
        _, stats = experiment.cmd_simulate(d, n=n, seeds=5, seed=0)
        ode = dem.run_dem(d, d / n).alpha_upper
        gap = abs(stats["mean"] - ode)
        gaps.append(f"d={d} gap {gap:.3f}")
        if gap > 0.02:
            fails.append(
                f"d={d} sim mean {stats['mean']:.5f} vs integrated {ode:.5f}"
            )
    detail = "; ".join(fails) or "; ".join(gaps)
    criterion_log(8, "simulation means match the integration", not fails, detail)
    assert not fails, detail


def test_criterion_9_ball_profile_ordering(criterion_log):
    t0 = time.perf_counter()
    fails = []
    for d in (3, 4, 10):
        rows = experiment.cmd_balls(d, [1000, 3162, 10000, 100000], seed=0)
        for n, b0, b1, b2 in rows:
            if not b0 <= b1 <= n / 2 < b2:
                fails.append(f"d={d} n={n}: {b0},{b1},{b2}")
    detail = "; ".join(fails) or (
        f"12 profiles ordered around n/2 ({time.perf_counter() - t0:.0f}s)"
    )
    criterion_log(9, "critical ball sizes bracket half the graph", not fails, detail)
    assert not fails, detail


def _white_profile(d, W0, x0, W):
    """Alg 1's white side in closed form: after the BFS hand-off at white
    fraction W0, with x0 the share of white points that face red, the
    white vertices with i red neighbors make up W * Bin(d, x)(i) of the
    graph at white fraction W, where 1 - x = (1 - x0) (W / W0)^((d-2)/d).
    Phase two colours a uniform end of the red-white matching whichever
    red vertex it picks, so the profile is the same for any priority."""
    x = 1 - (1 - x0) * (W / W0) ** ((d - 2) / d)
    return np.array([W * math.comb(d, i) * x**i * (1 - x) ** (d - i) for i in range(d + 1)])


def test_criterion_10_white_profile_is_priority_free(alg1_batches, criterion_log):
    """The greedy's final white profile on real graphs against the closed
    form, each run read from its own seeded ball; 3 graphs x 3 runs of
    the criterion 3 sweep per degree, as its fixture kept them. Single
    runs stray up to about 3e-3, so the gate is on the 9-run means."""
    t0 = time.perf_counter()
    n, tol = 100_000, 2e-3
    fails, gaps = [], []
    for d in (3, 4, 6, 10):
        observed, predicted = [], []
        kept = alg1_batches[d][3]
        assert len(kept) == 9
        for g, bis, trace in kept:
            layers = ball_layers(g, trace.x0, n / 2)
            ball = np.concatenate(layers[: max(trace.r_crit - 2, 0) + 1])
            in_ball = np.zeros(n, dtype=bool)
            in_ball[ball] = True
            W0 = 1 - len(ball) / n
            E0 = np.count_nonzero(~in_ball[g.adjacency[ball]]) / n
            white = ~bis.red
            W = np.count_nonzero(white) / n
            reds = np.count_nonzero(bis.red[g.adjacency[white]], axis=1)
            observed.append(np.bincount(reds, minlength=d + 1) / n)
            predicted.append(_white_profile(d, W0, E0 / (d * W0), W))
        gap = float(np.max(np.abs(np.mean(observed, axis=0) - np.mean(predicted, axis=0))))
        gaps.append(f"d={d} gap {gap:.1e}")
        if gap > tol:
            fails.append(f"d={d} mean white profile off the closed form by {gap:.1e}")
    detail = "; ".join(fails) or "; ".join(gaps) + f" ({time.perf_counter() - t0:.1f}s)"
    criterion_log(10, "white profile matches the priority-free closed form", not fails, detail)
    assert not fails, detail


def test_criterion_11_greedy_on_the_raw_pairing(alg1_batches, criterion_log):
    """Alg 1's pairing-model route: the greedy on the raw pairing, loops
    and parallel edges kept, 3 graphs x 3 runs per degree. Its mean must
    sit within 3e-3 of the simple-graph sweep of criterion 3 (same base
    seed) and of the frozen reference."""
    fails, gaps = [], []
    tol = 3e-3
    for d in range(3, 11):
        t0 = time.perf_counter()
        _, summary = experiment.cmd_alg1(
            d, n=100_000, runs=3, graphs=3, seed=0, strategy="pairing")
        secs = time.perf_counter() - t0
        mean = summary["grand_mean"]
        simple = alg1_batches[d][1]["grand_mean"]
        ref = reference.GREEDY_MEAN_ALPHA_N1E5[d]
        gaps.append(f"d={d} {mean - simple:+.1e}")
        if abs(mean - simple) > tol or abs(mean - ref) > tol:
            fails.append(f"d={d} mean {mean:.5f} vs simple {simple:.5f}, reference {ref}")
        if secs > 30.0:
            fails.append(f"d={d} took {secs:.0f}s")
    detail = "; ".join(fails) or "gaps to the simple-graph means: " + ", ".join(gaps)
    criterion_log(11, "the greedy on the raw pairing matches simple graphs", not fails, detail)
    assert not fails, detail
