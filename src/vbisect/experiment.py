"""Sweep drivers, result persistence, and report rendering.

Every stochastic run gets a composite seed string "base:...:indices" from
which its generator chain is rederived, so any record replays bit-exact.
Records append to CSV; each command invocation can also drop a JSON
manifest (command, config, seeds, code version) next to them.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import statistics
import time
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import dem as dem_mod
from . import reference
from .graph import RegularGraph, ball_sizes, gen_regular
from .greedy import GreedyConfig, run_alg1
from .pairing import run_alg2, run_alg3


@dataclass
class RunRecord:
    method: str  # "alg1" | "sim" | "dem"
    d: int
    n: int  # 0 for dem
    seed: str  # composite "base:...:indices"; empty for deterministic runs
    r0_offset: int  # 0 when not applicable
    eps: float  # 0 when not applicable
    alpha: float
    width: int
    wall_time_ms: float
    flags: str = ""
    stop_fraction: float = 0.5


# CSV columns in file order; floats are written with repr, so they read
# back exactly
RECORD_FIELDS = [f.name for f in fields(RunRecord)]
_PARSE = {"int": int, "float": float, "str": str}


def _child_seed(base: int, *key: int) -> int:
    """Deterministic per-job seed derived from the base and an index path."""
    ss = np.random.SeedSequence([int(base), *map(int, key)])
    return int(ss.generate_state(1, np.uint64)[0])


def _code_version() -> str:
    try:
        from importlib.metadata import version

        return version("vbisect")
    except Exception:
        return "unknown"


# -- persistence -----------------------------------------------------------


def records_to_csv(records, path, append: bool = True) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    new_file = not (append and path.exists() and path.stat().st_size > 0)
    if not new_file:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != RECORD_FIELDS:
            raise ValueError(f"cannot append to {path}: columns {header}")
    mode = "a" if append else "w"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if new_file or not append:
            writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow(
                [repr(v) if isinstance(v, float) else v for v in astuple(rec)]
            )


def records_from_csv(path) -> list[RunRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RECORD_FIELDS:
            raise ValueError(f"unexpected columns in {path}: {reader.fieldnames}")
        cols = [(f.name, _PARSE[f.type]) for f in fields(RunRecord)]
        return [RunRecord(**{k: parse(row[k]) for k, parse in cols}) for row in reader]


def write_manifest(out_dir, command: str, config: dict) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "version": _code_version(),
    }
    path = out_dir / f"manifest_{command}.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- greedy sweeps ---------------------------------------------------------


def _alg1_job(g: RegularGraph, base: int, gi: int, ri: int, r0_offset: int,
              stop_fraction: float) -> RunRecord:
    run_seed = _child_seed(base, 2, gi, ri)
    t0 = time.perf_counter()
    bis, trace = run_alg1(
        g,
        GreedyConfig(
            r0_offset=r0_offset, seed=run_seed, stop_fraction=stop_fraction
        ),
    )
    ms = (time.perf_counter() - t0) * 1000.0
    flags = "exhaustion_fallback" if trace.exhaustion_fallback else ""
    return RunRecord(
        method="alg1",
        d=g.d,
        n=g.n,
        seed=f"{base}:{gi}:{ri}",
        r0_offset=r0_offset,
        eps=0.0,
        alpha=bis.alpha,
        width=bis.width,
        wall_time_ms=ms,
        flags=flags,
        stop_fraction=stop_fraction,
    )


def cmd_alg1(
    d: int,
    n: int = 100_000,
    runs: int = 5,
    graphs: int = 5,
    seed: int = 0,
    r0_offset: int = 2,
    *,
    stop_fraction: float = 0.5,
    strategy: str = "rematch",
    workers: int = 1,
    out=None,
):
    """graphs fresh graphs x runs greedy executions; per-graph avg/max/min
    plus the grand mean, deterministically ordered."""
    gs = [
        gen_regular(n, d, seed=_child_seed(seed, 1, gi), strategy=strategy)
        for gi in range(graphs)
    ]
    jobs = [(gi, ri) for gi in range(graphs) for ri in range(runs)]
    if workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futs = {
                pool.submit(
                    _alg1_job, gs[gi], seed, gi, ri, r0_offset, stop_fraction
                ): (gi, ri)
                for gi, ri in jobs
            }
            records = [f.result() for f in concurrent.futures.as_completed(futs)]
    else:
        records = [
            _alg1_job(gs[gi], seed, gi, ri, r0_offset, stop_fraction)
            for gi, ri in jobs
        ]
    records.sort(key=lambda r: (r.d, r.n, r.seed))

    per_graph = []
    for gi in range(graphs):
        alphas = [r.alpha for r in records if r.seed.split(":")[1] == str(gi)]
        if alphas:
            per_graph.append(
                {
                    "graph": gi,
                    "avg": statistics.fmean(alphas),
                    "max": max(alphas),
                    "min": min(alphas),
                }
            )
    all_alphas = [r.alpha for r in records]
    summary = {
        "per_graph": per_graph,
        "grand_mean": statistics.fmean(all_alphas) if all_alphas else float("nan"),
        "grand_max": max(all_alphas, default=float("nan")),
        "grand_min": min(all_alphas, default=float("nan")),
        "count": len(all_alphas),
    }
    if out is not None:
        records_to_csv(records, Path(out) / "records.csv")
    return records, summary


# -- ball profiles ---------------------------------------------------------


def cmd_balls(d: int, n_list, seed: int = 0, *, strategy: str = "rematch", out=None):
    """Critical-radius ball sizes per n: (n, B0, B1, B2) with B2 the first
    ball over n/2 and B0, B1 the two before it."""
    rows = []
    for i, n in enumerate(n_list):
        g = gen_regular(n, d, seed=_child_seed(seed, 5, i), strategy=strategy)
        rng = np.random.default_rng(_child_seed(seed, 6, i))
        x0 = int(rng.integers(n))
        sizes = ball_sizes(g, x0)
        over = np.flatnonzero(sizes > n / 2)
        r_crit = int(over[0]) if over.size else len(sizes) - 1

        def at(r):
            return 0 if r < 0 else int(sizes[min(r, len(sizes) - 1)])

        rows.append((n, at(r_crit - 2), at(r_crit - 1), at(r_crit)))
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / f"balls_d{d}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "B0", "B1", "B2"])
            writer.writerows(rows)
    return rows


# -- fluid-limit sweeps ----------------------------------------------------


def _dem_reference(d: int) -> float | None:
    if d == 3:
        return reference.FLUID_ALPHA_D3
    return reference.FLUID_ALPHA.get(d)


def cmd_dem(
    d_list,
    eps: float | None = None,
    steps: int = 10**6,
    mode: str = "adaptive",
    *,
    stop_fraction: float = 0.5,
    out=None,
):
    """run_dem per degree plus deviation from the frozen reference value."""
    records, rows = [], []
    for d in d_list:
        t0 = time.perf_counter()
        result = dem_mod.run_dem(
            d, eps, stop_fraction, mode=mode, steps=steps
        )
        ms = (time.perf_counter() - t0) * 1000.0
        ref = _dem_reference(d)
        dev = None if ref is None else result.alpha_upper - ref
        flags = ";".join(result.flags + [f"mode={mode}", f"steps={steps}"])
        records.append(
            RunRecord(
                method="dem",
                d=d,
                n=0,
                seed="",
                r0_offset=0,
                eps=result.eps,
                alpha=result.alpha_upper,
                width=0,
                wall_time_ms=ms,
                flags=flags,
                stop_fraction=stop_fraction,
            )
        )
        rows.append(
            {
                "d": d,
                "alpha": result.alpha_upper,
                "reference": ref,
                "deviation": dev,
                "phases": result.phase_count,
                "flags": result.flags,
            }
        )
    if out is not None:
        records_to_csv(records, Path(out) / "records.csv")
    return records, rows


# -- Monte Carlo sweeps ----------------------------------------------------


def cmd_simulate(
    d: int,
    n: int = 100_000,
    seeds: int = 5,
    seed: int = 0,
    *,
    stop_fraction: float = 0.5,
    promote_fully_paired: bool = True,
    snapshot_every: int = 0,
    out=None,
):
    """Both simulation stages per seed; emits mean/stddev and optional
    trace CSVs."""
    records = []
    alphas = []
    for si in range(seeds):
        t0 = time.perf_counter()
        state, trace2 = run_alg2(
            n,
            d,
            seed=_child_seed(seed, 3, si),
            promote_fully_paired=promote_fully_paired,
            stop_fraction=stop_fraction,
            snapshot_every=snapshot_every,
        )
        alpha, trace3 = run_alg3(
            state,
            seed=_child_seed(seed, 4, si),
            stop_fraction=stop_fraction,
            snapshot_every=snapshot_every,
        )
        ms = (time.perf_counter() - t0) * 1000.0
        width = round(alpha * n * stop_fraction)
        flags = trace2.flags + trace3.flags
        if not promote_fully_paired:
            flags.append("literal_promotion")
        records.append(
            RunRecord(
                method="sim",
                d=d,
                n=n,
                seed=f"{seed}:{si}",
                r0_offset=0,
                eps=0.0,
                alpha=alpha,
                width=width,
                wall_time_ms=ms,
                flags=";".join(flags),
                stop_fraction=stop_fraction,
            )
        )
        alphas.append(alpha)
        if out is not None and snapshot_every:
            out_dir = Path(out)
            out_dir.mkdir(parents=True, exist_ok=True)
            trace2.to_csv(out_dir / f"trace_growth_d{d}_s{si}.csv")
            trace3.to_csv(out_dir / f"trace_balance_d{d}_s{si}.csv")
    stats = {
        "mean": statistics.fmean(alphas) if alphas else float("nan"),
        "std": statistics.stdev(alphas) if len(alphas) > 1 else 0.0,
        "alphas": alphas,
    }
    if out is not None:
        records_to_csv(records, Path(out) / "records.csv")
    return records, stats


# -- replay and report -----------------------------------------------------


def replay_record(rec: RunRecord, *, strategy: str = "rematch") -> float:
    """Re-execute a record from its stored seed; returns the fresh alpha
    (equal to rec.alpha for an intact record)."""
    if rec.method == "alg1":
        base, gi, ri = map(int, rec.seed.split(":"))
        g = gen_regular(rec.n, rec.d, seed=_child_seed(base, 1, gi), strategy=strategy)
        bis, _ = run_alg1(
            g,
            GreedyConfig(
                r0_offset=rec.r0_offset,
                seed=_child_seed(base, 2, gi, ri),
                stop_fraction=rec.stop_fraction,
            ),
        )
        return bis.alpha
    if rec.method == "sim":
        base, si = map(int, rec.seed.split(":"))
        promote = "literal_promotion" not in rec.flags
        state, _ = run_alg2(
            rec.n, rec.d, seed=_child_seed(base, 3, si),
            promote_fully_paired=promote, stop_fraction=rec.stop_fraction,
        )
        alpha, _ = run_alg3(
            state, seed=_child_seed(base, 4, si), stop_fraction=rec.stop_fraction
        )
        return alpha
    if rec.method == "dem":
        mode = "fixed" if "mode=fixed" in rec.flags else "adaptive"
        steps = 10**6
        for part in rec.flags.split(";"):
            if part.startswith("steps="):
                steps = int(part.split("=", 1)[1])
        result = dem_mod.run_dem(
            rec.d, rec.eps, rec.stop_fraction, mode=mode, steps=steps
        )
        return result.alpha_upper
    raise ValueError(f"unknown method {rec.method!r}")


def cmd_report(records) -> tuple[str, list[dict]]:
    """Per-degree comparison of the frozen reference columns with measured
    record means. Degrees come from the records; reference rows flag the
    (never expected) case of the empirical column under the lower bound,
    and measured means below the lower bound are flagged, not failed."""
    degrees = sorted({rec.d for rec in records})
    rows = []
    for d in degrees:
        upper = reference.table_alpha(d)
        exper = reference.EXPERIMENTAL_ALPHA.get(d)
        lb = reference.LOWER_BOUND_ALPHA.get(d)
        measured = {}
        for method in ("alg1", "sim", "dem"):
            vals = [r.alpha for r in records if r.d == d and r.method == method]
            if vals:
                measured[method] = statistics.fmean(vals)
        flags = []
        if exper is not None and lb is not None and exper < lb:
            flags.append("EXPER<LB")
        for method, val in measured.items():
            if lb is not None and val < lb:
                flags.append(f"{method}<LB")
        rows.append(
            {
                "d": d,
                "upper": upper,
                "exper": exper,
                "lower": lb,
                "measured": measured,
                "flags": flags,
            }
        )

    def fmt(x):
        return "   -   " if x is None else f"{x:.5f}"

    lines = [
        "  d |  upper  |  exper  |  lower  | measured (method: mean)   | flags",
        "----+---------+---------+---------+---------------------------+------",
    ]
    for row in rows:
        meas = ", ".join(f"{k}: {v:.5f}" for k, v in row["measured"].items())
        note = " d=3 upper is an edge-cut bound (external)" if row["d"] == 3 else ""
        lines.append(
            f"  {row['d']} | {fmt(row['upper'])} | {fmt(row['exper'])} |"
            f" {fmt(row['lower'])} | {meas:<25} | {' '.join(row['flags'])}{note}"
        )
    return "\n".join(lines), rows
