"""Sweep drivers: persistence, seeding, replay, and report rendering."""

import io
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbisect import dem, experiment, reference
from vbisect.experiment import (
    RECORD_FIELDS,
    RunRecord,
    _child_seed,
    cmd_alg1,
    cmd_balls,
    cmd_dem,
    cmd_report,
    cmd_simulate,
    records_from_csv,
    records_to_csv,
    replay_record,
    write_manifest,
)
from vbisect.graph import RegularGraph


def _sample_records():
    return [
        RunRecord("alg1", 4, 100, "0:1:2", 2, 0.0, 0.5, 25, 12.5, ""),
        RunRecord("sim", 4, 200, "7:0", 0, 0.0, 0.625, 62, 80.0,
                  "red_exhausted;fill_arbitrary"),
        RunRecord("dem", 5, 0, "", 0, 1e-5, 0.61680, 0, 950.0, "",
                  mode="adaptive", steps=10**6),
    ]


# -- persistence ------------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    path = tmp_path / "records.csv"
    recs = _sample_records()
    records_to_csv(recs, path)
    assert records_from_csv(path) == recs


def test_csv_append_keeps_single_header(tmp_path):
    path = tmp_path / "records.csv"
    recs = _sample_records()
    records_to_csv(recs[:1], path)
    records_to_csv(recs[1:], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert sum(1 for ln in lines if ln.startswith("method")) == 1
    assert records_from_csv(path) == recs


def test_csv_overwrite_mode(tmp_path):
    path = tmp_path / "records.csv"
    records_to_csv(_sample_records(), path)
    records_to_csv(_sample_records()[:1], path, append=False)
    assert len(records_from_csv(path)) == 1


def test_csv_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "down" / "records.csv"
    records_to_csv(_sample_records(), path)
    assert path.exists()


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="columns"):
        records_from_csv(path)
    # appending rows under another header would make the file unreadable
    with pytest.raises(ValueError, match="columns"):
        records_to_csv(_sample_records(), path)


def test_csv_rejects_a_bool_cell_other_than_true_or_false(tmp_path):
    path = tmp_path / "records.csv"
    records_to_csv(_sample_records()[:1], path)
    path.write_text(path.read_text().replace(",True,", ",yes,"))
    with pytest.raises(ValueError, match="bool"):
        records_from_csv(path)


def test_csv_rejects_a_row_with_missing_or_extra_cells(tmp_path):
    path = tmp_path / "records.csv"
    records_to_csv(_sample_records(), path)
    lines = path.read_text().splitlines()
    for row in (lines[2].rsplit(",", 3)[0], lines[2] + ",extra"):
        path.write_text("\n".join([*lines[:2], row, lines[3]]) + "\n")
        with pytest.raises(ValueError, match=f"{path}, line 3: expected"):
            records_from_csv(path)


def test_manifest_contents(tmp_path):
    p = write_manifest(tmp_path, "alg1", {"d": 4, "n": 100})
    data = json.loads(p.read_text())
    assert data["command"] == "alg1"
    assert data["config"] == {"d": 4, "n": 100}
    assert "version" in data


# -- seed derivation --------------------------------------------------------


def test_child_seeds_are_stable_and_distinct():
    assert _child_seed(0, 1, 2) == _child_seed(0, 1, 2)
    seen = {_child_seed(0, tag, idx) for tag in range(1, 7) for idx in range(20)}
    assert len(seen) == 120


# -- sweep drivers ----------------------------------------------------------


def test_alg1_sweep_structure(tmp_path):
    records, summary = cmd_alg1(3, n=400, runs=2, graphs=2, seed=5,
                                out=tmp_path)
    assert len(records) == 4
    assert [r.seed for r in records] == sorted(r.seed for r in records)
    assert all(r.method == "alg1" and r.n == 400 for r in records)
    assert summary["count"] == 4
    assert len(summary["per_graph"]) == 2
    assert summary["grand_min"] <= summary["grand_mean"] <= summary["grand_max"]
    assert (tmp_path / "records.csv").exists()


def test_alg1_records_keep_job_order():
    # graph 10 comes after graph 9, not after graph 1
    records, _ = cmd_alg1(3, n=40, runs=1, graphs=11, seed=0)
    assert [r.seed for r in records] == [f"0:{gi}:0" for gi in range(11)]


def test_alg1_sweep_workers_match_serial():
    serial, serial_summary = cmd_alg1(3, n=200, runs=2, graphs=2, seed=1)
    parallel, parallel_summary = cmd_alg1(3, n=200, runs=2, graphs=2, seed=1,
                                          workers=2)

    def key(recs):
        return [(r.seed, r.alpha, r.width, r.flags) for r in recs]

    assert key(serial) == key(parallel)
    assert serial_summary == parallel_summary


def test_alg1_pool_keeps_job_order():
    # graph 10 comes after graph 9 from the pool too, in records and summary
    serial, serial_summary = cmd_alg1(3, n=40, runs=1, graphs=11, seed=0)
    records, summary = cmd_alg1(3, n=40, runs=1, graphs=11, seed=0, workers=2)
    assert [r.seed for r in records] == [f"0:{gi}:0" for gi in range(11)]
    assert [r.alpha for r in records] == [r.alpha for r in serial]
    assert summary == serial_summary


def test_alg1_pool_jobs_carry_no_graph(monkeypatch):
    # workers draw their own graphs: neither a graph nor an adjacency array
    # crosses to the pool
    sent = []

    class InProcessPool:
        """Pickles what map receives, as a process pool would send it,
        noting the type of every object in it, and runs it in-process."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            buf = io.BytesIO()
            pickler = pickle.Pickler(buf)
            pickler.persistent_id = lambda obj: sent.append(type(obj))
            pickler.dump((fn, [list(it) for it in iterables]))
            fn, args = pickle.loads(buf.getvalue())
            return map(fn, *args)

    monkeypatch.setattr(experiment.concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    records, _ = cmd_alg1(3, n=200, runs=2, graphs=3, seed=2, workers=2)
    serial, _ = cmd_alg1(3, n=200, runs=2, graphs=3, seed=2)
    assert [(r.seed, r.alpha) for r in records] == [(r.seed, r.alpha) for r in serial]
    assert sent and RegularGraph not in sent and np.ndarray not in sent


def test_alg1_sweep_keeps_one_graph_of_rows_at_a_time(monkeypatch):
    # a caller that keeps every graph, as the benchmark's capture does, must
    # not keep every graph's rows: cmd_alg1 drops them after the graph's runs
    true_run = experiment.run_alg1
    seen = []

    def keep(g, *args, **kwargs):
        out = true_run(g, *args, **kwargs)
        seen.append((g, "rows" in vars(g)))
        return out

    monkeypatch.setattr(experiment, "run_alg1", keep)
    cmd_alg1(3, n=200, runs=2, graphs=3, seed=4)
    assert len(seen) == 6 and all(cached for _, cached in seen)
    graphs = {id(g): g for g, _ in seen}.values()
    assert len(graphs) == 3
    for g in graphs:
        assert "rows" not in vars(g)
        rows = g.rows
        assert rows == g.adjacency.tolist()
        assert g.rows is rows


def test_balls_rows_and_csv(tmp_path):
    rows = cmd_balls(3, [200, 400], seed=2, out=tmp_path)
    assert [n for n, *_ in rows] == [200, 400]
    for n, b0, b1, b2 in rows:
        assert b0 <= b1 <= b2
    lines = (tmp_path / "balls_d3.csv").read_text().splitlines()
    assert lines[0] == "n,B0,B1,B2"
    assert len(lines) == 3


def test_dem_sweep_records(tmp_path):
    records, rows = cmd_dem([4], out=tmp_path)
    rec, row = records[0], rows[0]
    assert rec.method == "dem" and rec.n == 0 and rec.eps == 1e-5
    assert row["reference"] == reference.FLUID_ALPHA[4]
    assert row["deviation"] == pytest.approx(rec.alpha - reference.FLUID_ALPHA[4])
    assert rec.mode == "adaptive" and rec.steps == 10**6
    assert (tmp_path / "records.csv").exists()


def test_simulate_sweep_records_and_traces(tmp_path):
    records, stats = cmd_simulate(4, n=400, seeds=2, seed=3,
                                  snapshot_every=100, out=tmp_path)
    assert len(records) == 2
    for rec in records:
        assert rec.method == "sim"
        assert rec.width == round(rec.alpha * 400 * 0.5)
    assert stats["alphas"] == [r.alpha for r in records]
    assert (tmp_path / "trace_growth_d4_s0.csv").exists()
    assert (tmp_path / "trace_balance_d4_s1.csv").exists()


# -- replay -----------------------------------------------------------------


def test_alg1_records_replay_bit_exact():
    records, _ = cmd_alg1(3, n=300, runs=2, graphs=1, seed=9)
    for rec in records:
        assert replay_record(rec) == rec.alpha


def test_sim_records_replay_bit_exact():
    records, _ = cmd_simulate(4, n=300, seeds=2, seed=9)
    for rec in records:
        assert replay_record(rec) == rec.alpha


def test_dem_records_replay_bit_exact():
    records, _ = cmd_dem([4], steps=20_000, mode="fixed")
    assert replay_record(records[0]) == records[0].alpha


def test_dem_record_runs_its_promotion_variant():
    rec = RunRecord("dem", 4, 0, "", 0, None, promote_fully_paired=False,
                    mode="adaptive", steps=10**6)
    literal = dem.run_dem(4, promote_fully_paired=False).alpha_upper
    assert literal != dem.run_dem(4).alpha_upper
    assert experiment.run_record(rec)[0].alpha == literal


def test_non_default_configs_replay_bit_exact(tmp_path):
    # each of these alphas differs from the one the default config gives;
    # replay reads the config from the columns a CSV round trip gives back
    records = [
        cmd_alg1(3, n=300, runs=1, graphs=1, seed=9, stop_fraction=0.3)[0][0],
        cmd_alg1(3, n=60, runs=2, graphs=2, seed=4, strategy="restart")[0][1],
        cmd_alg1(3, n=300, runs=1, graphs=1, seed=9, r0_offset=1)[0][0],
        cmd_simulate(4, n=300, seeds=1, seed=9, stop_fraction=0.3)[0][0],
        cmd_simulate(3, n=2000, seeds=1, seed=9, promote_fully_paired=False)[0][0],
        cmd_dem([4], stop_fraction=0.3)[0][0],
        cmd_dem([4], mode="fixed", steps=20_000)[0][0],
    ]
    path = tmp_path / "records.csv"
    records_to_csv(records, path)
    stored = records_from_csv(path)
    assert stored == records
    assert [r.stop_fraction for r in stored] == [0.3, 0.5, 0.5, 0.3, 0.5, 0.3, 0.5]
    assert stored[1].strategy == "restart" and stored[2].r0_offset == 1
    assert stored[4].promote_fully_paired is False
    assert (stored[6].mode, stored[6].steps) == ("fixed", 20_000)
    for rec in stored:
        assert replay_record(rec) == rec.alpha


@st.composite
def _run_configs(draw):
    """An unrun record of any method with a random config and seed."""
    method = draw(st.sampled_from(["alg1", "sim", "dem"]))
    d = draw(st.integers(3, 6))
    if method == "dem":
        return RunRecord("dem", d, 0, "", 0, None,
                         stop_fraction=draw(st.floats(0.0, 0.5, exclude_min=True)),
                         promote_fully_paired=draw(st.booleans()),
                         mode=draw(st.sampled_from(["adaptive", "fixed"])),
                         steps=draw(st.sampled_from([2_000, 20_000])))
    n = 2 * draw(st.integers(d + 1, 150))  # n*d even
    # the red half must hold at least one vertex
    stop_fraction = draw(st.floats(1 / n, 0.5).filter(lambda f: n * f >= 1))
    base = draw(st.integers(0, 2**32 - 1))
    if method == "sim":
        return RunRecord("sim", d, n, f"{base}:{draw(st.integers(0, 9))}", 0, 0.0,
                         stop_fraction=stop_fraction,
                         promote_fully_paired=draw(st.booleans()))
    # restart can run out of max_restarts above d = 4
    strategy = draw(st.sampled_from(["rematch", "restart"] if d <= 4 else ["rematch"]))
    gi, ri = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    return RunRecord("alg1", d, n, f"{base}:{gi}:{ri}", draw(st.integers(1, 2)), 0.0,
                     stop_fraction=stop_fraction, strategy=strategy)


@settings(max_examples=40, deadline=None)
@given(config=_run_configs())
def test_any_record_replays_bit_exact_after_a_csv_round_trip(tmp_path_factory, config):
    rec, _ = experiment.run_record(config)
    path = tmp_path_factory.mktemp("replay") / "records.csv"
    records_to_csv([rec], path)
    stored = records_from_csv(path)
    assert stored == [rec]
    assert replay_record(stored[0]) == rec.alpha


def test_replay_rejects_unknown_method():
    rec = RunRecord("bogus", 3, 10, "", 0, 0.0, 0.1, 1, 1.0, "")
    with pytest.raises(ValueError):
        replay_record(rec)


# -- report -----------------------------------------------------------------


def test_report_with_no_records_is_header_only():
    text, rows = cmd_report([])
    assert rows == []
    assert len(text.splitlines()) == 2


def test_report_columns_and_flags():
    recs = [
        RunRecord("alg1", 4, 100, "0:0:0", 2, 0.0, 0.46, 23, 1.0, ""),
        RunRecord("alg1", 4, 100, "0:0:1", 2, 0.0, 0.48, 24, 1.0, ""),
        # a mean below the proven lower bound must be flagged, not dropped
        RunRecord("sim", 4, 100, "0:0", 0, 0.0, 0.10, 5, 1.0, ""),
        RunRecord("dem", 3, 0, "", 0, 1e-5, 0.0374, 0, 1.0, ""),
    ]
    text, rows = cmd_report(recs)
    by_d = {row["d"]: row for row in rows}
    assert by_d[4]["measured"]["alg1"] == pytest.approx(0.47)
    assert by_d[4]["upper"] == reference.FLUID_ALPHA[4]
    assert "sim<LB" in by_d[4]["flags"]
    assert by_d[3]["upper"] == reference.EDGE_BOUND_ALPHA_D3
    assert "dem<LB" in by_d[3]["flags"]
    assert "edge-cut bound" in text


def test_reference_table_lookup():
    assert reference.table_alpha(3) == reference.EDGE_BOUND_ALPHA_D3
    assert reference.table_alpha(4) == reference.FLUID_ALPHA[4]
    assert reference.table_alpha(11) is None
