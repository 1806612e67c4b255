"""Self-test of the benchmark at toy size (n = 2000, a 4000-step budget).

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import vbisect.graph


@pytest.fixture(scope="module")
def reports():
    return {
        (workload, trace): run.run(workload, 0, 0, bool(trace), sizes=run.TOY)
        for workload in run.WORKLOADS
        for trace in (0, 1)
    }


def test_every_metric_is_emitted_with_its_unit(reports):
    end_to_end, per_layer = run.catalogue()
    for (workload, trace), report in reports.items():
        wanted = per_layer if trace else end_to_end
        metrics = report["result"]["metrics"]
        assert list(metrics) == list(wanted), workload
        for name, unit in wanted.items():
            assert metrics[name]["unit"] == unit
            assert isinstance(metrics[name]["value"], (int, float))


def test_fail_share_is_computed(reports):
    for report in reports.values():
        line = report["result"]
        assert line["attempted"] >= 1
        share = report["metrics"]["fail_share"]["value"]
        assert share == line["failed"] / line["attempted"]


def test_traced_runs_cover_the_six_modules(reports):
    seen = set()
    for (workload, trace), report in reports.items():
        assert bool(report["spans"]) == bool(trace), workload
        seen |= set(report["modules_traced"])
    assert seen == set(spans.MODULES)


def test_traced_passes_rerun_the_untraced_inputs(reports):
    for (workload, trace), report in reports.items():
        passes = [(p["k"], p["traced"]) for p in report["passes"]]
        if trace:
            assert passes[:2] == [(0, False), (0, True)], workload
        else:
            assert passes[0] == (0, False), workload


def test_output_check_catches_a_wrong_width(monkeypatch):
    true_width = vbisect.graph.vertex_width
    monkeypatch.setattr(vbisect.graph, "vertex_width",
                        lambda g, red: true_width(g, red) + 1)
    line = run.run("greedy", 0, 0, False, sizes=run.TOY)["result"]
    assert not line["correct"]
    assert line["failed"] == line["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), "--workload", "sim",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
