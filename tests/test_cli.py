"""Command-line behavior: exit codes, config merging, artifact layout."""

import json
import subprocess
import sys

import pytest

from vbisect.cli import main
from vbisect.graph import load_edge_list


def test_gen_writes_loadable_edge_list(tmp_path, capsys):
    rc = main(["gen", "--d", "3", "--n", "40", "--seed", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    g = load_edge_list(printed)
    assert (g.n, g.d) == (40, 3)
    assert g.degree_check()


def test_gen_multigraph_flag(tmp_path, capsys):
    rc = main(["gen", "--d", "3", "--n", "10", "--seed", "0", "--strategy", "pairing",
               "--out", str(tmp_path)])
    assert rc == 0
    g = load_edge_list(capsys.readouterr().out.strip())
    assert not g.simple


def test_invalid_parameters_exit_two(tmp_path, capsys):
    simulate = ["simulate", "--d", "4", "--n", "1000", "--runs", "1"]
    for argv in (["gen", "--d", "3", "--n", "7"],
                 simulate + ["--snapshot-every", "-5"],
                 ["alg1", "--d", "3", "--n", "100", "--runs", "0"],
                 ["alg1", "--d", "3", "--n", "100", "--graphs", "0"],
                 simulate[:-1] + ["0"],
                 ["dem", "--d", "4", "--mode", "fixed", "--steps", "0"]):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err
    # a config key that is no subcommand's option, a typo or one the tool
    # no longer has, is named
    cfg = tmp_path / "cfg.json"
    for config, key in (({"stop_fracton": 0.3, "degree": 7}, "stop_fracton"),
                        ({"stop_fraction": 0.3}, "stop_fraction"),
                        ({"workers": 2}, "workers")):
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg), "dem", "--d", "4"]) == 2, config
        assert key in capsys.readouterr().err


def test_missing_records_file_exits_two(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "absent.csv")])
    assert rc == 2


def test_truncated_records_file_exits_two(tmp_path, capsys):
    path = tmp_path / "records.csv"
    assert main(["dem", "--d", "3", "--out", str(tmp_path)]) == 0
    path.write_text(path.read_text().rsplit(",", 2)[0] + "\n")
    capsys.readouterr()
    assert main(["report", str(path)]) == 2
    assert "line 2: expected" in capsys.readouterr().err


def test_records_file_in_an_older_layout_names_the_column_difference(
    tmp_path, capsys
):
    # the 15-column layout that still stored a promotion variant per
    # record, and the 14-column one that still stored the red half's
    # fraction of n
    path = tmp_path / "records.csv"
    head = "method,d,n,seed,r0_offset,eps,alpha,width,wall_time_ms,flags,"
    row = "dem,4,0,,0,1e-05,0.75,0,10.0,,"
    for tail, values, extra in (
        ("stop_fraction,strategy,promote_fully_paired,mode,steps",
         "0.5,,True,adaptive,1000000", "stop_fraction, promote_fully_paired"),
        ("stop_fraction,strategy,mode,steps", "0.5,,adaptive,1000000",
         "stop_fraction"),
    ):
        path.write_text(f"{head}{tail}\n{row}{values}\n")
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"extra columns {extra}" in err
        assert "missing" not in err


def test_alg1_snapshot_artifacts(tmp_path, capsys):
    rc = main(["alg1", "--d", "3", "--n", "200", "--runs", "2", "--graphs", "2",
               "--seed", "4", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "grand mean alpha" in out
    assert (tmp_path / "records.csv").exists()
    manifest = json.loads((tmp_path / "manifest_alg1.json").read_text())
    assert manifest["config"]["d"] == 3


def test_balls_prints_rows(capsys):
    rc = main(["balls", "--d", "3", "--n", "100", "200", "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,B0,B1,B2"
    assert len(lines) == 3


def test_simulate_prints_mean(capsys):
    rc = main(["simulate", "--d", "4", "--n", "200", "--runs", "2",
               "--seed", "3"])
    assert rc == 0
    assert "mean" in capsys.readouterr().out


def test_dem_fixed_mode_row(capsys):
    rc = main(["dem", "--d", "4", "--mode", "fixed", "--steps", "20000"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d,alpha,reference,deviation,flags"
    assert out[1].startswith("4,")


def test_report_round_trip(tmp_path, capsys):
    assert main(["alg1", "--d", "3", "--n", "200", "--runs", "2",
                 "--graphs", "1", "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(["report", str(tmp_path / "records.csv"),
               "--out", str(tmp_path / "rep")])
    assert rc == 0
    text = (tmp_path / "rep" / "report.txt").read_text()
    assert "upper" in text and " 3 |" in text


def test_report_merges_multiple_csvs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["alg1", "--d", "3", "--n", "200", "--runs", "1",
                 "--graphs", "1", "--seed", "1", "--out", str(a)]) == 0
    assert main(["alg1", "--d", "4", "--n", "200", "--runs", "1",
                 "--graphs", "1", "--seed", "1", "--out", str(b)]) == 0
    capsys.readouterr()
    rc = main(["report", str(a / "records.csv"), str(b / "records.csv")])
    out = capsys.readouterr().out
    assert rc == 0
    assert " 3 |" in out and " 4 |" in out


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # graphs is an option of alg1, not of gen
    cfg.write_text(json.dumps({"n": 60, "seed": 9, "graphs": 2}))
    rc = main(["--config", str(cfg), "gen", "--d", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert "n60" in printed and "s9" in printed


def test_explicit_flag_beats_config(tmp_path, capsys):
    # --d on dem and --n on balls store to d_list and n_list; --se is an
    # abbreviation of --seed
    cases = [
        ({"n": 60}, ["gen", "--d", "3", "--n", "40", "--seed", "0",
                     "--out", str(tmp_path)], "n40", "n60"),
        ({"d_list": [5]}, ["dem", "--d", "4"], "\n4,", "\n5,"),
        ({"n_list": [500]}, ["balls", "--d", "3", "--n", "1000"], "\n1000,", "\n500,"),
        ({"seed": 5}, ["gen", "--d", "3", "--n", "20", "--se", "1",
                       "--out", str(tmp_path)], "s1.txt", "s5.txt"),
    ]
    cfg = tmp_path / "cfg.json"
    for config, argv, shown, hidden in cases:
        cfg.write_text(json.dumps(config))
        rc = main(["--config", str(cfg)] + argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert shown in out and hidden not in out, argv[0]
    # the subcommand cannot be switched from a config: "command" is no
    # option, so the run stops before it starts
    cfg.write_text(json.dumps({"command": "balls"}))
    assert main(["--config", str(cfg), "gen", "--d", "3", "--n", "20",
                 "--out", str(tmp_path)]) == 2
    assert "command" in capsys.readouterr().err


def test_config_must_be_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc = main(["--config", str(cfg), "gen", "--d", "3", "--n", "10",
               "--out", str(tmp_path)])
    assert rc == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "vbisect.cli", "gen", "--d", "3", "--n", "20",
         "--seed", "0", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "regular_d3_n20_s0.txt").exists()


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
