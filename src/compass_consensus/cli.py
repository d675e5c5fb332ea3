"""Command-line front end.

Subcommands:

* ``run``          simulate a scenario config, write trajectory CSV and
                   metrics JSON; ``--strict`` turns violations into exit codes
* ``check-graphs`` uniform joint connectivity of a graphs + signal file
* ``rate-bound``   closed-form contraction bound from scalar flags
* ``dump-config``  echo a normalized config (defaults resolved, sampled
                   initial states made explicit)

Exit codes: 0 clean; 1 not connected (check-graphs); 2 config or usage
errors; 3 feasibility violations under --strict; 4 monitor violations under
--strict; 5 divergence. ``COMPASS_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path

from . import _json
from .errors import (
    CompassError,
    ConfigError,
    DivergenceError,
    DomainError,
    InsufficientHorizonError,
)
from .graphs import (
    ConnectivityMode,
    check_uniform_joint_connectivity,
    graph_from_json,
    signal_from_json,
)

EXIT_OK = 0
EXIT_NOT_CONNECTED = 1
EXIT_CONFIG = 2
EXIT_FEASIBILITY = 3
EXIT_MONITOR = 4
EXIT_DIVERGENCE = 5


def _setup_logging():
    if "COMPASS_LOG" not in os.environ:  # importing logging alone costs milliseconds
        return
    import logging

    level = logging.getLevelName(os.environ["COMPASS_LOG"].upper())  # an int for a level name
    logging.basicConfig(
        level=level if isinstance(level, int) else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


# numpy and the run layers load on a command's first call to them, so that
# check-graphs never imports them. The benchmark wraps these module attributes
# to time each layer. `run` streams its states and calls only the first; the
# other two stay importable here for the stored-trajectory path.
def scenario_from_dict(*args, **kwargs):
    from .scenario import scenario_from_dict
    return scenario_from_dict(*args, **kwargs)


def simulate(*args, **kwargs):
    from .dynamics import simulate
    return simulate(*args, **kwargs)


def write_trajectory_csv(*args, **kwargs):
    from .artifacts import write_trajectory_csv
    return write_trajectory_csv(*args, **kwargs)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigError(exc.strerror or str(exc), field=path)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text ({exc.reason})", field=path)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}", field=path)


_SLICE = 2048  # list items per repr/join call; the memory peak grows with it, not with the list


def write_metrics_json(path: Path, report_dict: dict) -> None:
    """Write the bytes of ``json.dump(report_dict, fh, sort_keys=True, indent=2,
    ensure_ascii=False)`` and a newline, streamed value by value.

    A list of floats (or of non-empty float rows), or a float array as its
    ``.tolist()`` a slice at a time, is formatted by one ``repr`` per slice
    of ``_SLICE`` items, the C loop over the same ``float.__repr__`` json
    calls, and a list of strings by joining the C string encoder over each
    slice; anything else goes through ``json.dumps``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_json(fh.write, report_dict, "\n")
        fh.write("\n")


def _write_json(write, v, nl: str) -> None:
    """Write ``v`` at the current position; ``nl`` is a newline and ``v``'s indent."""
    inner = nl + "  "
    if type(v) is dict and v and set(map(type, v)) == {str}:
        sep = "{" + inner
        for k in sorted(v):
            write(sep + encode_basestring(k) + ": ")
            _write_json(write, v[k], inner)
            sep = "," + inner
        write(nl + "}")
        return
    array = getattr(v, "ndim", 0) and v.dtype.kind == "f" and v.size
    head = v[:_SLICE].tolist() if array else v
    kinds = set(map(type, head)) if type(head) is list else None
    if kinds == {float}:
        fmt = lambda s: _repr_floats(s)[1:-1].replace(", ", "," + inner)
    elif kinds == {list} and all(head) and set(map(type, chain.from_iterable(head))) == {float}:
        row = inner + "  "
        fmt = lambda s: "[" + row + _repr_floats(s)[2:-2].replace(
            "], [", inner + "]," + inner + "[" + row).replace(", ", "," + row) + inner + "]"
    elif kinds == {str}:
        fmt = lambda s: ("," + inner).join(map(encode_basestring, s))
    else:
        text = json.dumps(v.tolist() if hasattr(v, "tolist") else v,
                          sort_keys=True, indent=2, ensure_ascii=False)
        write(text.replace("\n", nl))
        return
    sep = "[" + inner
    for k in range(0, len(v), _SLICE):
        write(sep + fmt(v[k:k + _SLICE].tolist() if array else v[k:k + _SLICE]))
        sep = "," + inner
    write(nl + "]")


def _repr_floats(items: list) -> str:
    """``repr`` of a list of floats, with json's spelling of the non-finite ones
    (no finite float's repr has an ``n``)."""
    text = repr(items)
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


def run_scenario(
    config_path: str,
    out_dir: str = ".",
    strict: bool = False,
    seed: int | None = None,
) -> int:
    """Simulate one config and write its artifacts; returns the exit code.

    The states go from the integrator to the validator, the report's series
    and the CSV rows one sample chunk at a time. Both artifacts are renamed
    into place only once both are complete, so a failed run leaves neither.
    """
    import logging

    from . import artifacts, metrics

    try:
        sc = scenario_from_dict(_load_json(config_path), seed_override=seed)
        paths = [Path(out_dir) / sc.trajectory_csv, Path(out_dir) / sc.metrics_json]
        for path in paths:  # before integrating, which a missing directory would waste
            path.parent.mkdir(parents=True, exist_ok=True)
        with artifacts.staged(paths) as (csv_path, json_path):
            with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
                rows = artifacts.TrajectoryRows(fh, sc.d, sc.downsample)
                report = metrics.run_report(sc, rows)
            write_metrics_json(json_path, report._json_fields())
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:  # an artifact or its directory cannot be made, written or renamed
        at = exc.filename2 or exc.filename  # a failed rename names its target second
        print(f"config error: {ConfigError(exc.strerror or str(exc), at)}", file=sys.stderr)
        return EXIT_CONFIG
    except CompassError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    logging.getLogger("compass").info(
        "wrote %s (%d rows) and %s", sc.trajectory_csv, rows.count, sc.metrics_json
    )

    n_feas = len(report.feasibility_violations)
    n_mono = len(report.monitor_violations)
    print(
        f"{config_path}: samples={report.times.size} V_end="
        f"{report.agreement.final_value:.3e} feasibility_violations={n_feas} "
        f"monitor_violations={n_mono}"
    )
    if strict and n_feas:
        for v in report.feasibility_violations[:10]:
            print(f"  feasibility: {v}", file=sys.stderr)
        return EXIT_FEASIBILITY
    if strict and n_mono:
        for v in report.monitor_violations[:10]:
            print(f"  monitor: {v}", file=sys.stderr)
        return EXIT_MONITOR
    return EXIT_OK


def _run_one(args: tuple[str, str, bool, int | None]) -> int:
    path, out_dir, strict, seed = args
    sub = Path(out_dir) / Path(path).stem
    return run_scenario(path, out_dir=str(sub), strict=strict, seed=seed)


def cmd_run(args) -> int:
    configs = args.config
    if args.batch:
        # Each config writes to a subdirectory named after its file stem.
        stems = [Path(c).stem for c in configs]
        for k, stem in enumerate(stems):
            if stem in stems[:k]:
                print(f"{configs[stems.index(stem)]} and {configs[k]} would both write to "
                      f"{Path(args.out_dir) / stem}", file=sys.stderr)
                return EXIT_CONFIG
        jobs = [(c, args.out_dir, args.strict, args.seed) for c in configs]
        if len(jobs) == 1:  # same layout, no worker process to start
            return _run_one(jobs[0])
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor() as pool:
            codes = list(pool.map(_run_one, jobs))
        return max(codes, default=EXIT_OK)
    if len(configs) != 1:
        print("run expects exactly one config unless --batch is given", file=sys.stderr)
        return EXIT_CONFIG
    return run_scenario(
        configs[0], out_dir=args.out_dir, strict=args.strict, seed=args.seed
    )


def cmd_dump_config(args) -> int:
    from .scenario import scenario_to_dict

    try:
        sc = scenario_from_dict(_load_json(args.config[0]), seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(scenario_to_dict(sc), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_check_graphs(args) -> int:
    mode = (
        ConnectivityMode.STRONG
        if args.mode == "strong"
        else ConnectivityMode.QUASI_STRONG
    )
    try:
        doc = _json.obj(_load_json(args.file), "$", required=("graphs", "signal"), allowed=())
        graphs = _json.obj(doc["graphs"], "$.graphs")
        family = {k: graph_from_json(g, _json.path("$.graphs", k)) for k, g in graphs.items()}
        signal = signal_from_json(doc["signal"], "$.signal")
        verdict = check_uniform_joint_connectivity(signal, family, args.window, mode)
    except InsufficientHorizonError as exc:
        print(f"insufficient horizon: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    sys.stdout.write("".join([
        "window [%g, %g): %s\n" % (start, end, "connected" if ok else "NOT connected")
        for start, end, ok in verdict.checked_windows
    ]))
    scope = verdict.scope
    if verdict.ok:
        print(f"uniformly jointly {args.mode} connected over {scope} (T={args.window:g})")
        return EXIT_OK
    w = verdict.witness
    print(
        f"NOT uniformly jointly {args.mode} connected: witness window "
        f"[{w[0]:g}, {w[1]:g})"
    )
    return EXIT_NOT_CONNECTED


def cmd_rate_bound(args) -> int:
    from . import metrics

    try:
        t1 = args.T + 2.0 * args.tau_d
        t_bar = metrics.t_bar_from_window(args.n, args.T, args.tau_d)
        bound = metrics.rate_bound(
            args.n, args.d, t_bar, args.gamma, args.tau_d, args.L_star, args.L_plus
        )
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"T1 = {t1!r}")
    print(f"T_bar = {t_bar!r}")
    print(f"beta = {bound.beta!r}")
    print(f"beta_star = {bound.beta_star!r}")
    return EXIT_OK


def _run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", nargs="+", help="scenario config JSON path(s)")
    p.add_argument("--strict", action="store_true", help="violations set the exit code")
    p.add_argument("--batch", action="store_true", help="run configs in parallel")
    p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    p.add_argument("--out-dir", default=".", help="directory for artifacts")


def _check_graphs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help="JSON file with {graphs, signal}")
    p.add_argument("--window", type=float, required=True, help="window length T")
    p.add_argument("--mode", choices=["quasi-strong", "strong"], default="quasi-strong")


def _rate_bound_args(p: argparse.ArgumentParser) -> None:
    for flag, typ in [("--n", int), ("--d", int), ("--T", float), ("--tau-d", float),
                      ("--gamma", float), ("--L-star", float), ("--L-plus", float)]:
        p.add_argument(flag, type=typ, required=True)


def _dump_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("config", nargs=1, help="scenario config JSON path")
    p.add_argument("--seed", type=int, default=None)


# name -> (help, handler, adds the subcommand's arguments to its parser)
_COMMANDS = {
    "run": ("simulate a scenario config", cmd_run, _run_args),
    "check-graphs": ("uniform joint connectivity check", cmd_check_graphs, _check_graphs_args),
    "rate-bound": ("closed-form contraction bound", cmd_rate_bound, _rate_bound_args),
    "dump-config": ("echo a normalized config", cmd_dump_config, _dump_config_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compass",
        description="Simulate and analyze compass-based multi-agent agreement protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _func, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=text))
    return parser


def main(argv: list[str] | None = None) -> int:
    # A call that names a subcommand builds only the parser add_parser makes for it; a leftover
    # argument, or no subcommand first, goes to the full parser, which prints help and errors.
    _setup_logging()
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        _text, func, add_arguments = _COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"compass {argv[0]}")
        add_arguments(parser)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return func(args)
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command][1](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
