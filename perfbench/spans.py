"""In-memory spans and counters recorded around vbisect's public functions.

Nothing here edits the package. A `Tracer` rebinds module attributes (the
names the package itself looks up at call time) to wrappers that record a
span per call, and puts the originals back when the `installed` block ends.
The right-hand sides of the fluid limit run about half a million times per
fixed-grid degree, so they get aggregate counters instead of one span each.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from vbisect import dem, experiment, graph, greedy

MODULES = ("graph", "greedy", "pairing", "integrate", "dem", "experiment")

# (module object, attribute, span name). The attribute is the one the caller
# resolves at call time, which is not always the defining module: run_alg1
# reaches ball_layers through vbisect.greedy, cmd_alg1 reaches gen_regular
# through vbisect.experiment, integrate_phase reaches the solvers through
# vbisect.dem.
SPAN_POINTS = (
    (experiment, "cmd_dem", "experiment.cmd_dem"),
    (experiment, "cmd_alg1", "experiment.cmd_alg1"),
    (experiment, "cmd_simulate", "experiment.cmd_simulate"),
    (experiment, "records_to_csv", "experiment.records_to_csv"),
    (experiment, "gen_regular", "graph.gen_regular"),
    (experiment, "run_alg1", "greedy.run_alg1"),
    (greedy, "ball_layers", "graph.ball_layers"),
    (greedy, "bisection_of", "graph.bisection_of"),
    (graph, "vertex_width", "graph.vertex_width"),
    (experiment, "run_alg2", "pairing.run_alg2"),
    (experiment, "run_alg3", "pairing.run_alg3"),
    (dem, "run_dem", "dem.run_dem"),
    (dem, "integrate_phase", "dem.integrate_phase"),
    (dem, "solve_fixed", "integrate.solve_fixed"),
    (dem, "solve_adaptive", "integrate.solve_adaptive"),
)

RHS_FACTORIES = (
    ("rhs_phase1", "phase1"),
    ("rhs_phase2", "phase2"),
    ("rhs_phase2_fallback", "fallback"),
)


def _span_attrs(name: str, args, out) -> dict:
    """Per-call facts read off arguments and results (cheap, no copies)."""
    if name == "graph.gen_regular":
        return {"d": args[1]}
    if name == "dem.integrate_phase":
        return {"stage": 1 if args[1].z is not None else 2}
    if name.startswith("integrate.solve_"):
        return {"steps": out.n_steps, "rejected": out.n_rejected}
    return {}


class Tracer:
    """Spans as [name, start, end, parent index, attrs], plus rhs counters.

    rhs[family] holds [calls, seconds]; every solver span also records the
    rhs calls made inside it, which is what the event-location share needs.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.rhs: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._stack: list[int] = []
        self._rhs_total = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            rhs0 = self._rhs_total
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            attrs = _span_attrs(name, args, out)
            if name.startswith("integrate.solve_"):
                attrs["rhs_calls"] = self._rhs_total - rhs0
            span[4] = attrs
            return out

        return traced

    def _wrap_rhs_factory(self, family: str, factory):
        counter = self.rhs[family]
        clock = time.perf_counter

        def make(*args, **kwargs):
            f = factory(*args, **kwargs)

            def counted(t, y):
                t0 = clock()
                out = f(t, y)
                counter[1] += clock() - t0
                counter[0] += 1
                self._rhs_total += 1
                return out

            return counted

        return make

    def patches(self):
        for module, attr, name in SPAN_POINTS:
            yield module, attr, self._wrap(name, getattr(module, attr))
        for attr, family in RHS_FACTORIES:
            yield dem, attr, self._wrap_rhs_factory(family, getattr(dem, attr))


@contextlib.contextmanager
def installed(patches):
    """Rebind (module, attribute, replacement) triples for the block's
    duration and restore the originals afterwards, in reverse order."""
    saved = []
    try:
        for module, attr, repl in patches:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, repl)
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


# -- derived per-layer numbers ----------------------------------------------


def ratio(num: float, den: float) -> float:
    """num/den, reading 0 when the base is 0 (the layer did not run)."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counts: dict, runs: int) -> dict[str, float]:
    """Every per-layer number of one traced pass, keyed by the benchmark's
    names: span totals from the tracer, plus the counts the output checks
    read off the pass's results, over its `runs` checked runs."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0

    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, t0, t1, _, _) in enumerate(spans):
        total[name] += t1 - t0
        self_s[name] += t1 - t0 - child_s[i]
        calls[name] += 1

    def durations(name, **match):
        return [
            s[2] - s[1]
            for s in spans
            if s[0] == name and all(s[4].get(k) == v for k, v in match.items())
        ]

    m: dict[str, float] = {}

    gen_d3 = durations("graph.gen_regular", d=3)
    gen_d10 = durations("graph.gen_regular", d=10)
    m["graph.gen_regular.s"] = total["graph.gen_regular"]
    m["graph.gen_regular.ms.d3"] = 1e3 * ratio(sum(gen_d3), len(gen_d3))
    m["graph.gen_regular.ms.d10"] = 1e3 * ratio(sum(gen_d10), len(gen_d10))
    m["graph.ball_layers.calls"] = calls["graph.ball_layers"]
    m["graph.ball_layers.s"] = total["graph.ball_layers"]
    m["graph.vertex_width.s"] = total["graph.vertex_width"]

    m["greedy.run_alg1.s"] = total["greedy.run_alg1"]
    m["greedy.run_alg1.self_s"] = self_s["greedy.run_alg1"]
    m["greedy.phase2_steps"] = counts["greedy.phase2_steps"]
    m["greedy.phase2_us_per_step"] = 1e6 * ratio(
        m["greedy.run_alg1.self_s"], counts["greedy.phase2_steps"])
    m["greedy.fallback_share"] = ratio(counts["greedy.fallback_runs"], runs)

    m["pairing.run_alg2.s"] = total["pairing.run_alg2"]
    m["pairing.run_alg3.s"] = total["pairing.run_alg3"]
    m["pairing.stage1_exposures"] = counts["pairing.stage1_exposures"]
    m["pairing.stage2_exposures"] = counts["pairing.stage2_exposures"]
    m["pairing.stage1_us_per_exposure"] = 1e6 * ratio(
        m["pairing.run_alg2.s"], counts["pairing.stage1_exposures"])
    m["pairing.stage2_us_per_exposure"] = 1e6 * ratio(
        m["pairing.run_alg3.s"], counts["pairing.stage2_exposures"])
    m["pairing.rounds"] = counts["pairing.rounds"]
    m["pairing.trim_share"] = ratio(counts["pairing.trim_runs"], runs)

    for mode in ("fixed", "adaptive"):
        name = f"integrate.solve_{mode}"
        solves = [s[4] for s in spans if s[0] == name]
        steps = sum(a["steps"] for a in solves)
        rejected = sum(a["rejected"] for a in solves)
        rhs = sum(a["rhs_calls"] for a in solves)
        # rhs calls the step counts account for: RK4 makes 4 per step; DP54
        # makes 7 on a leg's first attempt and 6 on every later one (FSAL)
        if mode == "fixed":
            expected = 4 * steps
        else:
            expected = sum(
                7 + 6 * (a["steps"] + a["rejected"] - 1)
                for a in solves
                if a["steps"] + a["rejected"]
            )
        m[f"{name}.s"] = total[name]
        m[f"integrate.steps.{mode}"] = steps
        m[f"integrate.us_per_step.{mode}"] = 1e6 * ratio(total[name], steps)
        m[f"integrate.event_rhs_share.{mode}"] = ratio(rhs - expected, rhs)
        if mode == "adaptive":
            m["integrate.rejected"] = rejected
            m["integrate.accept_ratio"] = ratio(steps, steps + rejected)

    legs = [s for s in spans if s[0] == "dem.integrate_phase"]
    m["dem.run_dem.s"] = total["dem.run_dem"]
    m["dem.stage1_s"] = sum(s[2] - s[1] for s in legs if s[4]["stage"] == 1)
    m["dem.stage2_s"] = sum(s[2] - s[1] for s in legs if s[4]["stage"] == 2)
    m["dem.self_s"] = self_s["dem.run_dem"]
    m["dem.rounds"] = sum(1 for s in legs if s[4]["stage"] == 1)
    m["dem.stage2_legs"] = sum(1 for s in legs if s[4]["stage"] == 2)
    for _, family in RHS_FACTORIES:
        n_calls, secs = tracer.rhs[family]
        m[f"dem.rhs_calls.{family}"] = n_calls
        m[f"dem.rhs_us.{family}"] = 1e6 * ratio(secs, n_calls)
    m["dem.handoff_mass"] = counts.get("dem.handoff_mass", 0.0)

    m["experiment.self_s"] = sum(
        self_s[name] for name in self_s if name.startswith("experiment.cmd_")
    )
    m["experiment.records_to_csv.s"] = total["experiment.records_to_csv"]
    m["experiment.bytes_written"] = counts["experiment.bytes_written"]
    return m


def modules_seen(tracer: Tracer) -> set[str]:
    return {name.split(".", 1)[0] for name, *_ in tracer.spans}


def span_rows(tracer: Tracer, origin: float) -> list[dict]:
    """Spans as JSON-ready rows, times in seconds from origin."""
    return [
        {
            "name": name,
            "start": t0 - origin,
            "end": t1 - origin,
            "parent": parent,
            **(attrs or {}),
        }
        for name, t0, t1, parent, attrs in tracer.spans
    ]
