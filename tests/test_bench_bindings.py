"""The names the benchmark in perfbench/ looks up in the package.

The benchmark rebinds module attributes to trace them and calls a few
more directly, so renaming or deleting one breaks it; its own self-test
runs outside this suite.
"""

import dataclasses
from pathlib import Path

from vbisect import dem, experiment, graph
from vbisect.pairing import PairingState, SimTrace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_tracer_binds_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # patches() looks up every traced attribute with getattr
    bound = list(spans.Tracer().patches())
    assert len(bound) == len(spans.SPAN_POINTS) + len(spans.RHS_FACTORIES)


def test_names_the_runner_calls_exist():
    # the tracer and the output checks wrap the run_* functions
    for module, name in (
        (dem, "phase2_init"),
        (dem, "run_dem"),
        (experiment, "replay_record"),
        (experiment, "run_alg1"),
        (experiment, "run_alg2"),
        (experiment, "run_alg3"),
        (graph, "vertex_width"),
    ):
        assert callable(getattr(module, name, None)), name
    # and read the final pairing state and the stage-two trace
    assert callable(getattr(PairingState, "check_invariants", None))
    assert {"steps", "phase_count"} <= set(PairingState.__slots__)
    assert "flags" in {f.name for f in dataclasses.fields(SimTrace)}
