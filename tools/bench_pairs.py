#!/usr/bin/env python3
"""Paired benchmark of a change against a parent revision.

    python3 tools/bench_pairs.py --parent REV --tag N [--note TEXT] [--workload NAME]

Both sides run from fresh extractions, `git archive REV | tar -x` into a
temporary directory each, so neither starts with a warm `__pycache__`: the
parent from REV, the change from `git stash create` (the working tree's
tracked files; an untracked file must be added first), or from HEAD when
no tracked file has changed. The output names the commit each side was
extracted from. First the tier-1 tests run once per side, for their
collected count, wall time, pass and fail counts and slowest phases; the
same row holds the side's src_lines, the line counts of src/vbisect/*.py
as `wc -l` gives them, in total and per module.
Then, for each workload of BENCHMARK.json (or each one named by a
repeatable --workload), pair k = 1..PAIRS runs
`perfbench/run.py --workload W --trace 0 --seconds <run_seconds> --seed k`
once on each side, one process at a time, the parent first in odd pairs and
the change first in even ones. BENCH_<N>.json at the repository root gets,
per side, the medians and quartiles of every end-to-end metric and the
operation counts; per metric, `change_wins` counts the pairs in which the
change reads better, and `change_ratio` is the median over pairs of
change / parent. Host drift moves both runs of a pair together, so the
paired ratio is the figure to quote for a gain. Each --note is copied into
its "notes" list. The file is rewritten after every pair, so a cut run keeps
what it measured. A
tier-1 or perfbench subprocess that exits non-zero has its exit code and
the tail of its stderr printed; a failed perfbench run stops the script.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating pairs per workload, seeds 1..PAIRS
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=3"]
STDERR_TAIL = 20  # lines of a failed subprocess's stderr to print


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def snapshot() -> str:
    """A commit of the working tree's tracked files, or HEAD if they are clean."""
    return git("stash", "create") or "HEAD"


def run(cmd: list[str], side: Path, env=None) -> subprocess.CompletedProcess:
    """Run cmd in a side's extraction; on a non-zero exit, print the exit
    code and the last STDERR_TAIL lines of its stderr."""
    proc = subprocess.run(cmd, cwd=side, env=env, capture_output=True, text=True)
    if proc.returncode:
        tail = "\n".join(proc.stderr.strip().splitlines()[-STDERR_TAIL:])
        print(f"{side.name}: {' '.join(cmd[1:])} exited {proc.returncode}"
              + (f"; stderr ends:\n{tail}" if tail else ", nothing on stderr"),
              file=sys.stderr, flush=True)
    return proc


def bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = run([sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
               side)
    if proc.returncode:
        raise SystemExit(f"perfbench/run.py failed on the {side.name} side")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines(side: Path) -> dict:
    lines = {p.name: p.read_bytes().count(b"\n")
             for p in sorted((side / "src" / "vbisect").glob("*.py"))}
    return {"total": sum(lines.values()), **lines}


def tier1(side: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    listing = run(TIER1 + ["--collect-only"], side, env).stdout
    collected = re.findall(r"(\d+) tests? collected", listing)
    t0 = time.perf_counter()
    proc = run(TIER1, side, env)  # exit code 1 when a test fails
    wall = time.perf_counter() - t0
    out = proc.stdout

    def count(word):
        found = re.findall(rf"(\d+) {word}", out.strip().splitlines()[-1])
        return int(found[0]) if found else 0

    slowest = [[float(s), phase, test] for s, phase, test in
               re.findall(r"^(\d+\.\d+)s (setup|call|teardown)\s+(\S+)", out, re.M)]
    return {"collected": int(collected[-1]) if collected else 0,
            "wall_s": round(wall, 1), "passed": count("passed"),
            "failed": count("failed"), "slowest": slowest,
            "src_lines": src_lines(side)}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], spec: dict) -> dict:
    return {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "metrics": {
            m["name"]: {**quartiles([r["metrics"][m["name"]]["value"] for r in runs]),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]
        },
    }


def wins(parent: list[dict], change: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        sign = 1 if m["better"] == "lower" else -1
        out[m["name"]] = sum(
            sign * c["metrics"][m["name"]]["value"] < sign * p["metrics"][m["name"]]["value"]
            for p, c in zip(parent, change))
    return out


def ratios(parent: list[dict], change: list[dict], spec: dict) -> dict:
    """Per metric, the median over pairs of change / parent."""
    return {m["name"]: round(statistics.median(
        c["metrics"][m["name"]]["value"] / p["metrics"][m["name"]]["value"]
        for p, c in zip(parent, change)), 4) for m in spec["end_to_end"]}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpus": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    ap.add_argument("--note", action="append", default=[],
                    help="a line for the output's notes; may be repeated")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workload", action="append", choices=names,
                    help="bench only this workload; may be repeated (default: all)")
    args = ap.parse_args(argv)
    workloads = [w for w in names if w in (args.workload or names)]

    seconds = spec["run_seconds"]
    path = ROOT / f"BENCH_{args.tag}.json"
    report = {
        "what": (f"Medians and quartiles of perfbench/run.py --trace 0 --seconds "
                 f"{seconds:g} end-to-end metrics, parent {args.parent} vs this "
                 "change, alternating which side runs first in each pair; pair k "
                 "uses --seed k. change_wins counts pairs where the change reads "
                 "better; change_ratio is the median over pairs of change / "
                 "parent. tier1 is the ROADMAP tier-1 command, each run alone. "
                 "commits names the commit each side was extracted from."),
        "notes": args.note,
        "machine": machine(),
        "workloads": {},
    }

    def save():
        path.write_text(json.dumps(report, indent=1) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        revs = {"parent": args.parent, "change": snapshot()}
        report["commits"] = {name: git("rev-parse", "--verify", rev + "^{commit}")
                             for name, rev in revs.items()}
        for name, side in sides.items():
            side.mkdir()
            extract(report["commits"][name], side)
        report["tier1"] = {name: tier1(root) for name, root in sides.items()}
        save()
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for k in range(1, PAIRS + 1):
                order = ("parent", "change") if k % 2 else ("change", "parent")
                for name in order:
                    runs[name].append(bench(sides[name], workload, k, seconds))
                report["workloads"][workload] = {
                    "pairs": k,
                    "seeds": list(range(1, k + 1)),
                    **{name: summarize(runs[name], spec) for name in sides},
                    "change_wins": wins(runs["parent"], runs["change"], spec),
                    "change_ratio": ratios(runs["parent"], runs["change"], spec),
                }
                save()
                print(f"{workload} pair {k}: " + json.dumps(
                    {name: runs[name][-1]["metrics"]["solve_s"]["value"] for name in sides}),
                    flush=True)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
