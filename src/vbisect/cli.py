"""Command-line front end.

Subcommands: gen, alg1, balls, simulate, dem, report. A JSON config file
(--config) sets the defaults of the chosen subcommand's options, so
explicit flags win; it may supply a required option. Each value is parsed
as its flag's text would be, and a key that is no subcommand's option is
an error.
Exit status 0 on success, 2 on a validation problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import experiment
from .graph import STRATEGIES, gen_regular, save_edge_list


def _add(parser: argparse.ArgumentParser, *names: str) -> None:
    opts = {
        "d": dict(type=int, required=True, help="degree (>= 3)"),
        "d_list": dict(type=int, nargs="+", required=True, help="degrees (>= 3)"),
        "n": dict(type=int, default=100_000, help="vertex count"),
        "n_list": dict(type=int, nargs="+", required=True, help="vertex counts"),
        "seed": dict(type=int, default=0, help="base seed"),
        "runs": dict(type=int, default=5, help="runs per graph / seeds"),
        "graphs": dict(type=int, default=5, help="fresh graphs to draw"),
        "eps": dict(type=float, default=None, help="initial red seeding mass"),
        "steps": dict(type=int, default=10**6, help="fixed-mode stage-two steps"),
        "r0_offset": dict(type=int, default=2, choices=(1, 2),
                          help="radius back-off for the initial ball"),
        "out": dict(type=str, default=None, help="output directory"),
        "strategy": dict(type=str, default="rematch", choices=STRATEGIES,
                         help="graph sampler: restart is a uniform simple"
                              " graph, rematch a faster but not uniform one,"
                              " pairing the raw pairing with its loops and"
                              " parallel edges"),
        "mode": dict(type=str, default="adaptive",
                     choices=("adaptive", "fixed"), help="stage-two integrator mode"),
    }
    for name in names:
        flag = "--" + name.replace("_", "-").replace("-list", "")
        parser.add_argument(flag, dest=name, **opts[name])


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="vbisect",
        description="Vertex bisection width upper bounds for random regular graphs.",
    )
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a random regular graph to an edge list")
    _add(p, "d", "n", "seed", "strategy", "out")

    p = sub.add_parser("alg1", help="greedy partition sweep on fresh graphs")
    _add(p, "d", "n", "runs", "graphs", "seed", "r0_offset", "strategy", "out")

    p = sub.add_parser("balls", help="ball sizes around the half-n radius")
    _add(p, "d", "n_list", "seed", "strategy", "out")

    p = sub.add_parser("simulate", help="matching-exposure simulation sweep")
    _add(p, "d", "n", "runs", "seed", "out")

    p = sub.add_parser("dem", help="fluid-limit integration per degree")
    _add(p, "d_list", "eps", "steps", "mode", "out")

    p = sub.add_parser("report", help="compare stored records with references")
    p.add_argument("records", type=str, nargs="+",
                   help="records CSVs from other commands")
    _add(p, "out")

    return parser, sub.choices


def _config_value(action: argparse.Action, value):
    """A config value parsed as its flag's text would be: each item through
    the option's type and choices. Only a nargs="+" option takes a list;
    null, objects and booleans are no flag's text."""
    many = action.nargs == "+"
    items = value if many and isinstance(value, list) else [value]
    try:
        if not items or any(item is None or isinstance(item, (bool, dict, list))
                            for item in items):
            raise ValueError
        parsed = [action.type(str(item)) for item in items]
        if action.choices and not set(parsed) <= set(action.choices):
            raise ValueError
    except ValueError:
        want = ("a list of " if many else "one ") + action.type.__name__
        if action.choices:
            want += " in " + ", ".join(map(str, action.choices))
        raise ValueError(f"config option {action.dest}: expected {want},"
                         f" got {json.dumps(value)}") from None
    return parsed if many else parsed[0]


def _config_defaults(path: str, command: str, subparsers: dict) -> dict:
    """The config file's values for the options of the chosen subcommand,
    each parsed as its flag's text would be. A key may set another
    subcommand's option, which is dropped, but not one that no subcommand
    has."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    cfg = {key.replace("-", "_"): value for key, value in cfg.items()}
    known = {a.dest for p in subparsers.values() for a in p._actions} - {"help"}
    unknown = [key for key in cfg if key not in known]
    if unknown:
        raise ValueError(f"config file sets unknown options: {', '.join(unknown)}")
    actions = {a.dest: a for a in subparsers[command]._actions}
    return {key: _config_value(actions[key], value)
            for key, value in cfg.items() if key in actions}


def _apply_config(argv: list, parser: argparse.ArgumentParser,
                  subparsers: dict) -> None:
    """Set the config file's values as the chosen subcommand's defaults, so
    any flag given wins, and let them satisfy its required options. The
    file and the subcommand come from a pre-parse; a bad command line is
    left for the full parse to report."""
    pre = argparse.ArgumentParser(prog=parser.prog, add_help=False)
    pre.add_argument("--config")
    pre.add_argument("command", nargs="?")
    known, _ = pre.parse_known_args(argv)
    if not known.config or known.command not in subparsers:
        return
    sub = subparsers[known.command]
    values = _config_defaults(known.config, known.command, subparsers)
    for action in sub._actions:
        if action.dest in values:
            action.required = False
    sub.set_defaults(**values)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        _apply_config(argv, parser, subparsers)
        args = parser.parse_args(argv)
        return _dispatch(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "gen":
        g = gen_regular(args.n, args.d, seed=args.seed, strategy=args.strategy)
        out_dir = Path(args.out) if args.out else Path(".")
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"regular_d{args.d}_n{args.n}_s{args.seed}.txt"
        save_edge_list(g, path)
        print(path)
        return 0

    if args.command == "alg1":
        records, summary = experiment.cmd_alg1(
            args.d, args.n, args.runs, args.graphs, args.seed, args.r0_offset,
            strategy=args.strategy, out=args.out,
        )
        for row in summary["per_graph"]:
            print(f"graph {row['graph']}: avg {row['avg']:.5f}"
                  f"  max {row['max']:.5f}  min {row['min']:.5f}")
        print(f"grand mean alpha {summary['grand_mean']:.5f}"
              f" over {summary['count']} runs")
        if args.out:
            experiment.write_manifest(args.out, "alg1", _config_dict(args))
        return 0

    if args.command == "balls":
        rows = experiment.cmd_balls(args.d, args.n_list, args.seed,
                                    strategy=args.strategy, out=args.out)
        print("n,B0,B1,B2")
        for n, b0, b1, b2 in rows:
            print(f"{n},{b0},{b1},{b2}")
        if args.out:
            experiment.write_manifest(args.out, "balls", _config_dict(args))
        return 0

    if args.command == "simulate":
        records, stats = experiment.cmd_simulate(
            args.d, args.n, args.runs, args.seed, out=args.out)
        for rec in records:
            line = f"seed {rec.seed}: alpha {rec.alpha:.5f}"
            print(line + f"  [{rec.flags}]" if rec.flags else line)
        print(f"mean {stats['mean']:.5f}  std {stats['std']:.5f}")
        if args.out:
            experiment.write_manifest(args.out, "simulate", _config_dict(args))
        return 0

    if args.command == "dem":
        records, rows = experiment.cmd_dem(
            args.d_list, args.eps, args.steps, args.mode, out=args.out,
        )
        print("d,alpha,reference,deviation,flags")
        for row in rows:
            ref = "-" if row["reference"] is None else f"{row['reference']:.5f}"
            dev = "-" if row["deviation"] is None else f"{row['deviation']:+.5f}"
            print(f"{row['d']},{row['alpha']:.5f},{ref},{dev},"
                  f"{';'.join(row['flags'])}")
        if args.out:
            experiment.write_manifest(args.out, "dem", _config_dict(args))
        return 0

    if args.command == "report":
        records = [r for path in args.records
                   for r in experiment.records_from_csv(path)]
        text, _rows = experiment.cmd_report(records)
        print(text)
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "report.txt").write_text(text + "\n")
        return 0

    raise ValueError(f"unknown command {args.command!r}")


def _config_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("command", "config")}


if __name__ == "__main__":
    raise SystemExit(main())
