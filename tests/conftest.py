"""Shared fixtures. The expensive sweeps run once per session and feed both
the regression tests and the acceptance suite."""

import time

import pytest

from vbisect import dem as dem_mod
from vbisect import experiment

_CRITERIA: list[tuple[int, str, bool, str]] = []


def note_criterion(num: int, label: str, ok: bool, detail: str) -> None:
    _CRITERIA.append((num, label, bool(ok), detail))


@pytest.fixture(scope="session")
def criterion_log():
    return note_criterion


@pytest.fixture(scope="session")
def dem_adaptive():
    """Adaptive-mode integration at default settings for every tabulated degree."""
    return {d: dem_mod.run_dem(d) for d in range(3, 11)}


@pytest.fixture(scope="session")
def dem_fixed():
    """Fixed-grid runs at the 1e6 step budget, with wall seconds per degree."""
    out = {}
    for d in range(3, 11):
        t0 = time.perf_counter()
        res = dem_mod.run_dem(d, mode="fixed", steps=10**6)
        out[d] = (res, time.perf_counter() - t0)
    return out


# the degrees and the first graphs x runs of each sweep that criterion 10 reads
KEPT_DEGREES, KEPT = (3, 4, 6, 10), 3


@pytest.fixture(scope="session")
def alg1_batches():
    """Greedy sweeps at n=1e5, 5 graphs x 5 runs each, base seed 0: per
    degree (records, summary, seconds, kept). kept holds (graph,
    bisection, trace) of graphs 0..KEPT-1 x runs 0..KEPT-1 at KEPT_DEGREES,
    caught on their way out of `experiment.run_alg1`, in job order."""
    run_alg1 = experiment.run_alg1
    seeds = {experiment._child_seed(0, 2, gi, ri) for gi in range(KEPT) for ri in range(KEPT)}
    out = {}
    for d in range(3, 11):
        kept = []

        def keep(g, config):
            bis, trace = run_alg1(g, config)
            if d in KEPT_DEGREES and config.seed in seeds:
                kept.append((g, bis, trace))
            return bis, trace

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "run_alg1", keep)
            t0 = time.perf_counter()
            records, summary = experiment.cmd_alg1(
                d, n=100_000, runs=5, graphs=5, seed=0
            )
            out[d] = (records, summary, time.perf_counter() - t0, kept)
    return out


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, ok, detail in sorted(_CRITERIA):
        word = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({label}): {word}  {detail}")
