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
import concurrent.futures
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import _json, metrics
from .dynamics import Trajectory, simulate
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
from .scenario import ScenarioConfig, scenario_from_dict, scenario_to_dict

EXIT_OK = 0
EXIT_NOT_CONNECTED = 1
EXIT_CONFIG = 2
EXIT_FEASIBILITY = 3
EXIT_MONITOR = 4
EXIT_DIVERGENCE = 5

log = logging.getLogger("compass")


def _setup_logging():
    level = os.environ.get("COMPASS_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno} column {exc.colno}: {exc.msg}", field=path)


def _format_float(x: float) -> str:
    return repr(float(x))


def write_trajectory_csv(path: Path, traj: Trajectory, downsample: int = 1) -> int:
    """One row per (sample, agent): t, agent, x_1..x_d, active_p. Returns rows written."""
    if downsample < 1:
        raise DomainError("downsample must be >= 1")
    idx = list(range(0, traj.num_samples, downsample))
    if idx[-1] != traj.num_samples - 1:
        idx.append(traj.num_samples - 1)
    blocks = traj.blocks()
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,agent," + ",".join(f"x_{k}" for k in range(1, traj.d + 1)) + ",active_p\n")
        for s in idx:
            t_str = _format_float(traj.times[s])
            p = traj.active_index[s]
            for i in range(traj.n):
                coords = ",".join(_format_float(c) for c in blocks[s, i])
                fh.write(f"{t_str},{i + 1},{coords},{p}\n")
                rows += 1
    return rows


def write_metrics_json(path: Path, report_dict: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_dict, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def run_scenario(
    config_path: str,
    out_dir: str = ".",
    strict: bool = False,
    seed: int | None = None,
) -> int:
    """Simulate one config and write its artifacts; returns the exit code."""
    try:
        sc = scenario_from_dict(_load_json(config_path), seed_override=seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        traj = simulate(sc)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (DomainError, CompassError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    report = metrics.build_report(
        traj,
        eps_agreement=sc.eps_agreement,
        monitor_mode=sc.monitor_mode,
        tol_monotone=sc.tol_monotone,
    )
    rows = write_trajectory_csv(out / sc.trajectory_csv, traj, sc.downsample)
    write_metrics_json(out / sc.metrics_json, report.to_json_dict())
    log.info(
        "wrote %s (%d rows) and %s", sc.trajectory_csv, rows, sc.metrics_json
    )

    n_feas = len(report.feasibility_violations)
    n_mono = len(report.monitor_violations)
    print(
        f"{config_path}: samples={traj.num_samples} V_end="
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
        jobs = [(c, args.out_dir, args.strict, args.seed) for c in configs]
        if len(jobs) == 1:  # same layout, no worker process to start
            return _run_one(jobs[0])
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
    try:
        sc = scenario_from_dict(_load_json(args.config[0]), seed_override=args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(scenario_to_dict(sc), sort_keys=True, indent=2))
    return EXIT_OK


def cmd_check_graphs(args) -> int:
    try:
        doc = _json.obj(_load_json(args.file), "$", required=("graphs", "signal"), allowed=())
        graphs = _json.obj(doc["graphs"], "$.graphs")
        family = {k: graph_from_json(g, _json.path("$.graphs", k)) for k, g in graphs.items()}
        signal = signal_from_json(doc["signal"], "$.signal")
    except DomainError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    mode = (
        ConnectivityMode.STRONG
        if args.mode == "strong"
        else ConnectivityMode.QUASI_STRONG
    )
    try:
        verdict = check_uniform_joint_connectivity(signal, family, args.window, mode)
    except InsufficientHorizonError as exc:
        print(f"insufficient horizon: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for start, end, ok in verdict.checked_windows:
        print(f"window [{start:g}, {end:g}): {'connected' if ok else 'NOT connected'}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compass",
        description="Simulate and analyze compass-based multi-agent agreement protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario config")
    p_run.add_argument("config", nargs="+", help="scenario config JSON path(s)")
    p_run.add_argument("--strict", action="store_true", help="violations set the exit code")
    p_run.add_argument("--batch", action="store_true", help="run configs in parallel")
    p_run.add_argument("--seed", type=int, default=None, help="override the sampling seed")
    p_run.add_argument("--out-dir", default=".", help="directory for artifacts")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check-graphs", help="uniform joint connectivity check")
    p_check.add_argument("file", help="JSON file with {graphs, signal}")
    p_check.add_argument("--window", type=float, required=True, help="window length T")
    p_check.add_argument(
        "--mode", choices=["quasi-strong", "strong"], default="quasi-strong"
    )
    p_check.set_defaults(func=cmd_check_graphs)

    p_rate = sub.add_parser("rate-bound", help="closed-form contraction bound")
    for flag, typ in [
        ("--n", int),
        ("--d", int),
        ("--T", float),
        ("--tau-d", float),
        ("--gamma", float),
        ("--L-star", float),
        ("--L-plus", float),
    ]:
        p_rate.add_argument(flag, type=typ, required=True)
    p_rate.set_defaults(func=cmd_rate_bound)

    p_dump = sub.add_parser("dump-config", help="echo a normalized config")
    p_dump.add_argument("config", nargs=1, help="scenario config JSON path")
    p_dump.add_argument("--seed", type=int, default=None)
    p_dump.set_defaults(func=cmd_dump_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
