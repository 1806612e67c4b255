"""The names the benchmark in perfbench/ looks up in the package.

The benchmark rebinds module attributes to trace them and calls a few
more directly, so renaming or deleting one breaks it; its own self-test
runs outside this suite.
"""

from pathlib import Path

from vbisect import dem, experiment, graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_name_the_tracer_binds_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # patches() looks up every traced attribute with getattr
    bound = list(spans.Tracer().patches())
    assert len(bound) == len(spans.SPAN_POINTS) + len(spans.RHS_FACTORIES)


def test_names_the_runner_calls_exist():
    for module, name in (
        (dem, "phase2_init"),
        (experiment, "replay_record"),
        (graph, "vertex_width"),
    ):
        assert callable(getattr(module, name, None)), name
