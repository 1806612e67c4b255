"""Sweep drivers, result persistence, and report rendering.

A record holds the whole config of one run in its own columns, with a
composite seed string "base:...:indices" from which the run's generator
chain is rederived. Every sweep runs its records through `run_record`, and
replay runs a stored record through it again, so any record replays
bit-exact. Records append to CSV; each command invocation can also drop a
JSON manifest (command, config, code version, Python and numpy versions,
platform, CPU count) next to them.
"""

from __future__ import annotations

import csv
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, reference
from . import dem as dem_mod
from .graph import RegularGraph, ball_sizes, critical_balls, gen_regular
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
    # outcome of the run, filled in by run_record
    alpha: float = 0.0
    width: int = 0
    wall_time_ms: float = 0.0
    flags: str = ""  # what the run reported, ";"-joined
    strategy: str = ""  # alg1: `gen_regular`'s sampler, "pairing" for multigraphs
    mode: str = ""  # dem: stage-two integrator mode
    steps: int = 0  # dem: fixed-mode step budget


# CSV columns in file order; the header is the schema. Floats are written
# with repr, so they read back exactly
RECORD_FIELDS = [f.name for f in fields(RunRecord)]
_PARSE = {"int": int, "float": float, "str": str}


def _child_seed(base: int, *key: int) -> int:
    """Deterministic per-job seed derived from the base and an index path."""
    ss = np.random.SeedSequence([int(base), *map(int, key)])
    return int(ss.generate_state(1, np.uint64)[0])


# -- persistence -----------------------------------------------------------


def records_to_csv(records, path) -> None:
    """Append records to the CSV at path, writing the header first if the
    file is new or empty; a file with another header is an error."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    new_file = not (path.exists() and path.stat().st_size > 0)
    if not new_file:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != RECORD_FIELDS:
            raise ValueError(f"cannot append to {path}: {_layout_error(header)}")
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(RECORD_FIELDS)
        for rec in records:
            values = (getattr(rec, name) for name in RECORD_FIELDS)
            writer.writerow([repr(v) if isinstance(v, float) else v for v in values])


def _layout_error(header) -> str:
    """What sets a file's header apart from RECORD_FIELDS."""
    header = header or []
    diff = [(what, cols) for what, cols in (
        ("missing", [c for c in RECORD_FIELDS if c not in header]),
        ("extra", [c for c in header if c not in RECORD_FIELDS])) if cols]
    if not diff:
        return "written with the expected columns, reordered or repeated"
    return "written with another column layout: " + "; ".join(
        f"{what} columns {', '.join(cols)}" for what, cols in diff)


def records_from_csv(path) -> list[RunRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RECORD_FIELDS:
            raise ValueError(f"{path}: {_layout_error(reader.fieldnames)}")
        cols = [(f.name, _PARSE[f.type]) for f in fields(RunRecord)]
        records = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if None in row or None in row.values():  # extra or missing cells
                raise ValueError(f"{where}: expected {len(cols)} cells")
            try:
                records.append(RunRecord(**{k: parse(row[k]) for k, parse in cols}))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        return records


def write_manifest(out_dir, command: str, config: dict) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    path = out_dir / f"manifest_{command}.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# -- running records -------------------------------------------------------


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _graph(n: int, d: int, base: int, gi: int, strategy: str) -> RegularGraph:
    """Graph gi of an alg1 sweep with base seed base, drawn by strategy:
    a simple graph for "rematch" and "restart", the raw pairing for
    "pairing"."""
    return gen_regular(n, d, seed=_child_seed(base, 1, gi), strategy=strategy)


def run_record(rec: RunRecord, g: RegularGraph | None = None):
    """Run the config in a record's columns; return the record with its
    outcome (alpha, width, wall_time_ms, flags; for dem also the resolved
    eps) filled in, and the run's trace: the GreedyTrace (alg1), both
    SimTraces (sim) or the DemRunResult (dem). alg1 runs on g when given,
    else on the graph drawn from the record's seed and strategy."""
    t0 = time.perf_counter()
    if rec.method == "alg1":
        base, gi, ri = map(int, rec.seed.split(":"))
        if g is None:
            g = _graph(rec.n, rec.d, base, gi, rec.strategy)
        bis, trace = run_alg1(
            g, GreedyConfig(r0_offset=rec.r0_offset, seed=_child_seed(base, 2, gi, ri))
        )
        alpha, width = bis.alpha, bis.width
        flags = ["exhaustion_fallback"] if trace.exhaustion_fallback else []
    elif rec.method == "sim":
        base, si = map(int, rec.seed.split(":"))
        state, trace2 = run_alg2(rec.n, rec.d, seed=_child_seed(base, 3, si))
        alpha, trace3 = run_alg3(state, seed=_child_seed(base, 4, si))
        width = round(alpha * rec.n / 2)
        trace = (trace2, trace3)
        flags = trace2.flags + trace3.flags
    elif rec.method == "dem":
        trace = dem_mod.run_dem(rec.d, rec.eps, mode=rec.mode, steps=rec.steps)
        rec = replace(rec, eps=trace.eps)
        alpha, width, flags = trace.alpha_upper, 0, trace.flags
    else:
        raise ValueError(f"unknown method {rec.method!r}")
    ms = (time.perf_counter() - t0) * 1000.0
    rec = replace(rec, alpha=alpha, width=width, wall_time_ms=ms,
                  flags=";".join(flags))
    return rec, trace


def replay_record(rec: RunRecord) -> float:
    """Re-execute a record from its columns; returns the fresh alpha
    (equal to rec.alpha for an intact record)."""
    return run_record(rec)[0].alpha


# -- greedy sweeps ---------------------------------------------------------


def cmd_alg1(
    d: int,
    n: int = 100_000,
    runs: int = 5,
    graphs: int = 5,
    seed: int = 0,
    r0_offset: int = 2,
    *,
    strategy: str = "rematch",
    out=None,
):
    """graphs fresh graphs x runs greedy executions, in order (graph, then
    run); per-graph avg/max/min plus the grand mean. strategy is
    `gen_regular`'s: "pairing" runs the greedy on the raw pairing, loops
    and parallel edges kept, which is Alg 1's pairing-model route. Each
    graph's rows are dropped after its runs, so the sweep holds one graph's
    rows at a time."""
    _check_count("runs", runs)
    _check_count("graphs", graphs)
    config = RunRecord("alg1", d, n, "", r0_offset, 0.0, strategy=strategy)
    records, per_graph = [], []
    for gi in range(graphs):
        g = _graph(n, d, seed, gi, strategy)
        recs = [run_record(replace(config, seed=f"{seed}:{gi}:{ri}"), g)[0]
                for ri in range(runs)]
        g.drop_rows()
        records += recs
        alphas = [r.alpha for r in recs]
        per_graph.append({"graph": gi, "avg": statistics.fmean(alphas),
                          "max": max(alphas), "min": min(alphas)})
    all_alphas = [r.alpha for r in records]
    summary = {
        "per_graph": per_graph,
        "grand_mean": statistics.fmean(all_alphas),
        "grand_max": max(all_alphas),
        "grand_min": min(all_alphas),
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
        rows.append((n, *critical_balls(ball_sizes(g, x0, n / 2), n / 2)[1:]))
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
    out=None,
):
    """run_dem per degree plus deviation from the frozen reference value."""
    records, rows = [], []
    for d in d_list:
        rec, result = run_record(
            RunRecord("dem", d, 0, "", 0, eps, mode=mode, steps=steps)
        )
        ref = _dem_reference(d)
        records.append(rec)
        rows.append(
            {
                "d": d,
                "alpha": rec.alpha,
                "reference": ref,
                "deviation": None if ref is None else rec.alpha - ref,
                "phases": result.phase_count,
                "flags": result.flags,
            }
        )
    if out is not None:
        records_to_csv(records, Path(out) / "records.csv")
    return records, rows


# -- Monte Carlo sweeps ----------------------------------------------------


def cmd_simulate(d: int, n: int = 100_000, seeds: int = 5, seed: int = 0, *,
                 out=None):
    """Both simulation stages per seed; returns the records and their
    alpha mean/stddev, and writes the records to out/records.csv when out
    is given."""
    _check_count("seeds", seeds)
    records = [run_record(RunRecord("sim", d, n, f"{seed}:{si}", 0, 0.0))[0]
               for si in range(seeds)]
    alphas = [r.alpha for r in records]
    stats = {
        "mean": statistics.fmean(alphas),
        "std": statistics.stdev(alphas) if len(alphas) > 1 else 0.0,
        "alphas": alphas,
    }
    if out is not None:
        records_to_csv(records, Path(out) / "records.csv")
    return records, stats


# -- report ----------------------------------------------------------------


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
