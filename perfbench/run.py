#!/usr/bin/env python3
"""The vbisect benchmark: one workload per route to the bisection bound.

    python3 perfbench/run.py --workload fluid|greedy|sim --seed N \
        --seconds S --trace 0|1

Each workload is a closed loop in one single-threaded process: one public
`vbisect.experiment` call after another, repeated in passes until the
measuring time is used. Every operation's output is checked outside the
timed region, and one record per pass is replayed through
`experiment.replay_record`, which must give a bit-identical alpha.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, from untraced
passes. --trace 1 alternates untraced and traced passes and prints the
per-layer metrics; the traced passes record spans around each module's
public functions (see spans.py). The last stdout line is the result JSON;
the full report (environment, every metric, spans) goes to
perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so BLAS never starts its own threads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

if not (SRC / "vbisect" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no vbisect sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import vbisect  # noqa: E402
from vbisect import dem, experiment, reference  # noqa: E402
from vbisect.graph import vertex_width  # noqa: E402

WORKLOADS = ("fluid", "greedy", "sim")
D_LO_MAX = 6  # d <= 6 is the low-degree half, d >= 7 the high one
SETUP_PROBES = 11
SIM_SEEDS = 3  # sim: simulations per degree per pass


@dataclass(frozen=True)
class Sizes:
    dem_fixed_steps: int  # fluid: fixed-grid RK4 budget per degree
    greedy_n: int
    greedy_graphs: int  # greedy: graphs per degree per pass, 5 runs each
    sim_n: int


# greedy uses many small graphs rather than one at n=1e5: the rematch
# sampler restarts a whole graph on a dead end (a third to a half of graphs
# at d=3 and d=10 need a restart), so a graph's cost is about geometric, and
# only many graphs per run keep that from swamping the run-to-run spread.
FULL = Sizes(dem_fixed_steps=125_000, greedy_n=5_000, greedy_graphs=10, sim_n=100_000)
TOY = Sizes(dem_fixed_steps=4_000, greedy_n=2_000, greedy_graphs=2, sim_n=2_000)


def derive_seed(*key: int) -> int:
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


# -- workloads ----------------------------------------------------------------


@dataclass
class Call:
    d: int
    group: tuple  # alpha_gap compares the mean alpha of a group with its reference
    ops: int  # operations (records) the call produces
    fn: object  # fn(out_dir) -> (records, summary)


def plan(workload: str, sizes: Sizes, seed: int, k: int) -> list[Call]:
    """The calls of pass k. Inputs depend only on (seed, k)."""
    pass_seed = derive_seed(seed, k)
    if workload == "fluid":
        calls = [
            Call(d, (d, "adaptive"), 1,
                 lambda out, d=d: experiment.cmd_dem([d], mode="adaptive", out=out))
            for d in range(3, 11)
        ]
        calls += [
            Call(d, (d, "fixed"), 1,
                 lambda out, d=d: experiment.cmd_dem(
                     [d], mode="fixed", steps=sizes.dem_fixed_steps, out=out))
            for d in (4, 8)
        ]
        return calls
    if workload == "greedy":
        return [
            Call(d, (d,), 5 * sizes.greedy_graphs,
                 lambda out, d=d: experiment.cmd_alg1(
                     d, n=sizes.greedy_n, runs=5, graphs=sizes.greedy_graphs,
                     seed=pass_seed, out=out))
            for d in (3, 10)
        ]
    if workload == "sim":
        return [
            Call(d, (d,), 1,
                 lambda out, d=d, si=si: experiment.cmd_simulate(
                     d, n=sizes.sim_n, seeds=1, seed=derive_seed(pass_seed, d, si),
                     out=out))
            for d in (4, 8)
            for si in range(SIM_SEEDS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def reference_alpha(workload: str, d: int) -> float:
    if workload == "greedy":
        return reference.GREEDY_MEAN_ALPHA_N1E5[d]
    return reference.FLUID_ALPHA_D3 if d == 3 else reference.FLUID_ALPHA[d]


class Capture:
    """Keeps what the output checks need from inside each call: the graph
    and bisection of every greedy run, the pairing state of every
    simulation, the full result of every fluid-limit run."""

    def __init__(self):
        self.items: list = []

    def patches(self):
        run_alg1, run_alg3, run_dem = (
            experiment.run_alg1, experiment.run_alg3, dem.run_dem)
        items = self.items

        def alg1(g, *args, **kwargs):
            bis, trace = run_alg1(g, *args, **kwargs)
            items.append((g, bis, trace))
            return bis, trace

        def alg3(state, *args, **kwargs):
            stage1, rounds = state.steps, state.phase_count
            alpha, trace = run_alg3(state, *args, **kwargs)
            items.append((state, stage1, rounds, alpha, trace))
            return alpha, trace

        def run(*args, **kwargs):
            result = run_dem(*args, **kwargs)
            items.append(result)
            return result

        yield experiment, "run_alg1", alg1
        yield experiment, "run_alg3", alg3
        yield dem, "run_dem", run


# -- output checks ------------------------------------------------------------


@dataclass
class Op:
    """One record's outcome. failed: the call raised or the program flagged
    the run as unfinished; wrong: a check found an incorrect output."""

    call: Call
    record: object = None
    alpha: float = math.nan
    failed: bool = False
    wrong: bool = False
    why: str = ""


def _alpha_ok(alpha: float) -> bool:
    return math.isfinite(alpha) and 0.0 < alpha <= 1.0


def check_call(workload: str, call: Call, records, items, counts) -> list[Op]:
    ops = [Op(call, rec, rec.alpha) for rec in records]
    if len(ops) != call.ops or len(items) != call.ops:
        for op in ops:
            op.wrong, op.why = True, f"{len(records)} records, {len(items)} runs"
        return ops
    if workload == "fluid":
        for op, res in zip(ops, items):
            counts["dem.handoff_mass"] = min(
                counts.get("dem.handoff_mass", math.inf),
                dem.phase2_init(res.handoff_state).mass,
            )
            flagged = [f for f in ("no_balance", "alpha_out_of_range") if f in res.flags]
            if res.alpha_upper != op.alpha or not (_alpha_ok(op.alpha) or flagged):
                op.wrong, op.why = True, f"alpha {res.alpha_upper!r}"
            elif flagged:
                op.failed, op.why = True, ",".join(flagged)
    elif workload == "greedy":
        got = sorted(bis.alpha for _, bis, _ in items)
        if got != sorted(op.alpha for op in ops):
            for op in ops:
                op.wrong, op.why = True, "records differ from the runs"
        for op, (g, bis, trace) in zip(ops, items):
            counts["greedy.phase2_steps"] += trace.phase2_steps
            counts["greedy.fallback_runs"] += trace.exhaustion_fallback
            half = int(np.count_nonzero(bis.red))
            width = vertex_width(g, bis.red)
            if half != g.n // 2 or width != bis.width or bis.alpha != width / (g.n / 2):
                op.wrong = True
                op.why = f"half {half}, width {bis.width} vs {width}, alpha {bis.alpha}"
    else:
        for op, (state, stage1, rounds, alpha, trace) in zip(ops, items):
            counts["pairing.stage1_exposures"] += stage1
            counts["pairing.stage2_exposures"] += state.steps - stage1
            counts["pairing.rounds"] += rounds
            counts["pairing.trim_runs"] += "balance_trim" in trace.flags
            counts["exposures.all"] += state.steps
            counts["exposures.d_lo" if call.d <= D_LO_MAX else "exposures.d_hi"] += (
                state.steps)
            try:
                state.check_invariants()
            except AssertionError:
                op.wrong, op.why = True, "PairingState invariants broken"
            if not _alpha_ok(alpha) or alpha != op.alpha:
                op.wrong, op.why = True, f"alpha {alpha!r}"
    return ops


# -- host speed ---------------------------------------------------------------

# The shared host's speed drifts by tens of percent within a minute: the same
# fluid-limit calls took 0.84 s and 1.58 s less than a minute apart. So every
# call is timed between two runs of a fixed reference kernel (interpreter loop
# plus small-array numpy, the mix the workloads run) and its wall time is
# scaled by REF_NOMINAL_S over the kernel's mean time around it. Over five
# fluid runs that cut the spread of solve_s from 35% to 13%. The kernel is
# part of the benchmark, so it is identical on every commit compared; raw wall
# times are reported too.
REF_NOMINAL_S = 0.08  # the kernel's time on a quiet 2-vCPU x86-64 host
_REF_W = np.arange(17.0)
_REF_Y = np.linspace(0.0, 1.0, 17)


def reference_seconds() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(450_000):
        s += i * i % 7
    for _ in range(5_000):
        w = _REF_W * _REF_Y
        np.diff(np.append(w, 0.0)) / w.sum()
    return time.perf_counter() - t0


# -- one pass -----------------------------------------------------------------


@dataclass
class PassResult:
    traced: bool
    k: int  # plan index: the pass's inputs
    seconds: dict = field(default_factory=lambda: defaultdict(float))  # scaled
    wall_seconds: list = field(default_factory=list)  # per call, unscaled
    ref_seconds: list = field(default_factory=list)  # reference kernel runs
    ops: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    modules: set = field(default_factory=set)


def run_pass(workload: str, sizes: Sizes, seed: int, k: int, traced: bool,
             origin: float) -> PassResult:
    out_dir = OUT_DIR / "records"
    shutil.rmtree(out_dir, ignore_errors=True)
    result = PassResult(traced, k)
    tracer = spans.Tracer() if traced else None
    result.ref_seconds.append(reference_seconds())
    for call in plan(workload, sizes, seed, k):
        capture = Capture()
        patches = capture.patches()
        if tracer is not None:
            patches = itertools.chain(patches, tracer.patches())
        records = []
        t0 = time.perf_counter()
        try:
            with spans.installed(patches):
                records, _ = call.fn(out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        result.ref_seconds.append(reference_seconds())
        secs = wall * REF_NOMINAL_S / statistics.fmean(result.ref_seconds[-2:])
        result.wall_seconds.append(wall)
        result.seconds["all"] += secs
        result.seconds["d_lo" if call.d <= D_LO_MAX else "d_hi"] += secs
        if records:
            result.ops += check_call(workload, call, records, capture.items,
                                     result.counts)
        else:
            result.ops += [Op(call, failed=True, why="raised") for _ in range(call.ops)]
    result.counts["experiment.bytes_written"] = sum(
        p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    replay(result.ops, derive_seed(seed, k, 1))
    if tracer is not None:
        runs = sum(1 for op in result.ops if op.record is not None)
        result.layers = spans.layer_metrics(tracer, result.counts, runs)
        result.spans = spans.span_rows(tracer, origin)
        result.modules = spans.modules_seen(tracer)
    return result


def replay(ops: list[Op], seed: int) -> None:
    """Re-run one record of the pass from its stored seed; its alpha must
    come back bit for bit."""
    candidates = [op for op in ops if op.record is not None]
    if not candidates:
        return
    op = candidates[np.random.default_rng(seed).integers(len(candidates))]
    try:
        again = experiment.replay_record(op.record)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        again = math.nan
    if again != op.alpha:
        op.wrong, op.why = True, f"replay gave {again!r}, record {op.alpha!r}"


# -- metrics ------------------------------------------------------------------


def alpha_gap(workload: str, ops: list[Op]) -> float:
    groups = defaultdict(list)
    for op in ops:
        if math.isfinite(op.alpha):
            groups[op.call.group].append(op.alpha)
    return max(
        abs(statistics.fmean(alphas) - reference_alpha(workload, key[0]))
        for key, alphas in groups.items()
    )


def summarize(workload: str, passes: list[PassResult], setup_s: float | None):
    """Every metric the run measured: end-to-end ones from untraced passes,
    the traced passes' per-layer ones (spans.layer_metrics), and the
    run-wide ones: alpha_gap, fail_share, exposure rates, tracing overhead."""
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    ops = [op for p in passes for op in p.ops]
    m: dict[str, float] = {}
    if setup_s is not None:
        m["setup_s"] = setup_s
    m["solve_s"] = statistics.median(p.seconds["all"] for p in plain)
    m["solve_s.d_lo"] = statistics.median(p.seconds["d_lo"] for p in plain)
    m["solve_s.d_hi"] = statistics.median(p.seconds["d_hi"] for p in plain)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["alpha_gap"] = statistics.median(alpha_gap(workload, p.ops) for p in passes)
    m["fail_share"] = sum(op.failed or op.wrong for op in ops) / len(ops)
    # every call of a sim pass is a simulation, so its seconds are theirs
    for part, key in (("all", ""), ("d_lo", ".d_lo"), ("d_hi", ".d_hi")):
        m["exposures_per_s" + key] = statistics.median(
            spans.ratio(p.counts["exposures." + part], p.seconds[part])
            for p in plain)
    if traced:
        for name in traced[0].layers:
            m[name] = statistics.median(p.layers[name] for p in traced)
        # a traced pass reruns the inputs of the untraced pass before it
        m["trace.overhead_s"] = statistics.median(
            t.seconds["all"] - u.seconds["all"] for u, t in zip(plain, traced))
    return m


# -- set-up time and environment ----------------------------------------------


def setup_seconds(workload: str, seed: int) -> float:
    """Median, over fresh processes, of the time from process start until
    vbisect is imported and the first pass's inputs are built. Each probe
    is scaled by the reference kernel runs around it, as solve_s is."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    ref = [reference_seconds()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with {proc.returncode}")
        ref.append(reference_seconds())
        times.append(wall * REF_NOMINAL_S / statistics.fmean(ref[-2:]))
    return statistics.median(times)


def git_describe() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "vbisect": vbisect.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_describe": git_describe(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# -- entry point --------------------------------------------------------------


def catalogue() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = FULL) -> dict:
    """Measure one workload; returns the report (result line, every metric,
    the environment and, when traced, the spans)."""
    end_to_end, per_layer = catalogue()
    origin = time.perf_counter()
    setup_s = None if trace else setup_seconds(workload, seed)
    passes: list[PassResult] = []
    # A traced run goes in pairs: untraced pass k, then traced pass k on the
    # same inputs. A new round starts only if one as long as the longest so
    # far still fits.
    longest = 0.0
    for k in itertools.count():
        t0 = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            passes.append(run_pass(workload, sizes, seed, k, traced, origin))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - origin + longest > seconds:
            break
    shutil.rmtree(OUT_DIR / "records", ignore_errors=True)

    measured = summarize(workload, passes, setup_s)
    wanted = per_layer if trace else end_to_end
    for name in wanted:
        if not math.isfinite(measured[name]):
            raise ValueError(f"metric {name} is {measured[name]}")
    ops = [op for p in passes for op in p.ops]
    line = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed or op.wrong for op in ops),
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in wanted.items()},
    }
    units = {**end_to_end, **per_layer}
    return {
        "result": line,
        "environment": environment(workload, seed, seconds, int(trace)),
        "passes": [{"k": p.k, "traced": p.traced, "solve_s": p.seconds["all"],
                    "wall_s": sum(p.wall_seconds), "call_wall_s": p.wall_seconds,
                    "ref_s": p.ref_seconds} for p in passes],
        "metrics": {name: {"value": v, "unit": units.get(name)}
                    for name, v in measured.items()},
        "failures": sorted({f"d={op.call.d} {op.call.group}: {op.why}"
                            for op in ops if op.failed or op.wrong}),
        "modules_traced": sorted(set().union(*(p.modules for p in passes))),
        "spans": [p.spans for p in passes if p.traced],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=42.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: build the first pass's inputs, print 'ready', exit")
    args = ap.parse_args(argv)
    if args.setup_probe:
        plan(args.workload, FULL, args.seed, 0)
        print("ready", flush=True)
        return 0

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"environment": report["environment"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
