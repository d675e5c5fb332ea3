"""Benchmark of the ``compass`` CLI on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``. The
seed generates the workload's input files (see ``inputs.py``); the program
receives only those files, through the same ``cli.main`` a user's
``compass`` call runs, in this one process (no ``--batch``). One warm-up
call and the timed calls after it fit in ``--seconds`` seconds (at least
three timed calls are made). Every call is checked against the oracles in
``oracle.py`` and against the first call's artifacts, byte for byte.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold
set-up over fresh processes), ``run_s`` (median warm call) and
``peak_rss_mb``. ``--trace 1`` reports per-layer metrics from calls whose
public functions are wrapped at the module attributes the CLI reaches them
through, alternated with untraced calls, plus one more call that runs the
validator under ``tracemalloc``; the spans of the last traced call are
written to ``.perfbench_work/spans-<workload>.json``. The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the provenance of the result.
"""

import os
import sys

# Pin BLAS/OpenMP threads to the CPUs this process may use, before numpy loads.
THREADS = len(os.sched_getaffinity(0))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)
os.environ.pop("COMPASS_LOG", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_CALLS = 3  # timed calls per run, however short --seconds is
SETUP_PROBES = {0: 5, 1: 3}  # fresh processes per run, after one warm-up process


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _fits(start: float, last: float, seconds: float) -> bool:
    """Another round as long as the last one still ends within ``seconds``."""
    return time.perf_counter() - start + last <= seconds


class Bench:
    def __init__(self, workload: inputs.Workload, work: Path):
        from compass_consensus import cli, dynamics, graphs, metrics

        self.modules = {"cli": cli, "dynamics": dynamics, "graphs": graphs, "metrics": metrics}
        self.workload = workload
        self.work = work
        self.out = work / "out"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first: dict[int, tuple] = {}  # call index -> (exit code, digest, problems)
        if workload.kind == "run":
            self.calls = [
                ["run", str(work / f), "--strict", "--out-dir", str(self.out)]
                for f in workload.runs
            ]
            self.oracles = [oracle.RunOracle(workload.files[f]) for f in workload.runs]
        else:
            self.calls = [
                ["check-graphs", str(work / c.file), "--window", repr(c.window), "--mode", c.mode]
                for c in workload.checks
            ]

    # One pass over the workload's CLI calls -----------------------------------

    def call_once(self) -> float:
        """Run and check every CLI call of the workload; return their wall seconds."""
        cli = self.modules["cli"]
        elapsed = 0.0
        for k, argv in enumerate(self.calls):
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            code, raised = None, None
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed operation, not a benchmark error
                    raised = f"{type(exc).__name__}: {exc}"
                elapsed += time.perf_counter() - start
            self.attempted += 1
            problems = [f"raised {raised}"] if raised else self._check(k, code, out.getvalue())
            if problems:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{argv[0]} {Path(argv[1]).name}: {'; '.join(problems)}")
        return elapsed

    def _check(self, k: int, code, stdout: str) -> list[str]:
        """Full oracle check on the first call; later calls must match it byte for byte."""
        if self.workload.kind == "run":
            digest = tuple(
                oracle.file_digest(self.out / name) if (self.out / name).is_file() else None
                for name in ("trajectory.csv", "metrics.json")
            )
        else:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
        if k in self._first:
            first_code, first_digest, first_problems = self._first[k]
            if (code, digest) == (first_code, first_digest):
                return first_problems
            return ["output differs from the first identical call"]
        if self.workload.kind == "run":
            problems = self.oracles[k].check(code, self.out)
        else:
            call = self.workload.checks[k]
            problems = oracle.check_graphs_call(call, self.workload.files, code, stdout)
        self._first[k] = (code, digest, problems)
        return problems

    # Set-up in fresh processes -----------------------------------------------

    def setup(self, trace: int) -> dict[str, float]:
        cmd = [
            sys.executable, str(HERE / "setup_probe.py"), self.workload.kind,
            str(self.work / self.workload.first_file), str(trace), str(SRC),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        results = []
        for k in range(SETUP_PROBES[trace] + 1):
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            if k:  # the first process only warms the bytecode and file caches
                results.append(json.loads(proc.stdout.splitlines()[-1]))
        return {key: _median([r[key] for r in results]) for key in results[0]}

    # Runs ----------------------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        setup = self.setup(0)
        start = time.perf_counter()
        self.call_once()  # warm-up, inside the measured seconds
        samples = []
        while len(samples) < MIN_CALLS or _fits(start, samples[-1], seconds):
            samples.append(self.call_once())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "run_s": {"value": _median(samples), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        return metrics, {"run_s_samples": samples, "setup_samples": SETUP_PROBES[0]}

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        setup = self.setup(1)
        start = time.perf_counter()
        self.call_once()  # warm-up, inside the measured seconds
        plain, traced, layers = [], [], []
        while len(traced) < 2 or _fits(start, plain[-1] + traced[-1], seconds):
            plain.append(self.call_once())
            tracer, counts, unions = self._traced_tracer()
            try:
                traced.append(self.call_once())
            finally:
                tracer.restore()
            layers.append(self._layer_values(tracer, counts, unions))
        spans_file = WORK / f"spans-{self.workload.name}.json"
        spans_file.write_text(json.dumps([vars(span) for span in tracer.spans]))
        peak_mb = self._validate_peak_alloc_mb()
        values = {key: _median([layer[key] for layer in layers]) for key in layers[0]}
        values.update({
            "init.import_s": setup["import_s"],
            "scenario.load_s": setup["load_s"],
            "scenario.config_bytes": (self.work / self.workload.first_file).stat().st_size,
            "protocols.spec_build_s": setup["spec_build_s"],
            "dynamics.validate_peak_alloc_mb": peak_mb,
            "trace.overhead_s": _median(traced) - _median(plain),
            "failed_share": self.failed / self.attempted,
        })
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        return metrics, {"traced_samples": len(traced), "untraced_samples": len(plain)}

    def _traced_tracer(self) -> tuple[Tracer, Counter, set]:
        """A tracer patched into the program, the counts its hooks fill, and
        the distinct union arc sets seen."""
        m = self.modules
        tracer, counts, unions = Tracer(), Counter(), set()
        if self.workload.kind == "run":
            # Useful validator work per sample: |N_i| + 1 hull members per agent
            # and axis, for the graph the schedule makes active at the sample.
            cfg = self.workload.files[self.workload.runs[0]]
            segs = self.oracles[0].segs
            seg_starts = np.array([a for a, _, _ in segs])
            hull_per_sample = np.array(
                [(cfg["agents"]["n"] + len(cfg["graphs"][g]["arcs"])) * cfg["agents"]["d"]
                 for _, _, g in segs]
            )
        else:
            counts["pieces"] = sum(
                len(self.workload.files[c.file]["signal"]["pieces"]) for c in self.workload.checks
            )

        def on_simulate(args, kwargs, traj):
            counts["steps"] += traj.num_samples - 1

        def on_validate(args, kwargs, violations):
            traj = args[0]
            m_, n, d = traj.num_samples, traj.n, traj.d
            counts["agent_samples"] += m_ * n
            seg = np.searchsorted(seg_starts, traj.times, side="right") - 1
            counts["hull_entries"] += int(hull_per_sample[seg].sum())
            counts["dense_entries"] += m_ * n * n * d
            counts["violations"] += len(violations)

        def on_report(args, kwargs, report):
            counts["monitor_violations"] += len(report.monitor_violations)

        def on_csv(args, kwargs, rows):
            counts["csv_rows"] += rows
            counts["csv_bytes"] += os.path.getsize(args[0])

        def on_json(args, kwargs, result):
            counts["json_bytes"] += os.path.getsize(args[0])

        def on_connectivity(args, kwargs, verdict):
            counts["windows"] += verdict.windows_checked

        def on_union(args, kwargs, graph):
            unions.add(graph.arcs)

        for owner, attr, name, hook in [
            (m["cli"], "main", "cli.main", None),
            (m["cli"], "scenario_from_dict", "scenario.scenario_from_dict", None),
            (m["cli"], "simulate", "dynamics.simulate", on_simulate),
            (m["dynamics"], "validate_feasibility", "dynamics.validate_feasibility", on_validate),
            (m["metrics"], "build_report", "metrics.build_report", on_report),
            (m["cli"], "write_trajectory_csv", "cli.write_trajectory_csv", on_csv),
            (m["cli"], "write_metrics_json", "cli.write_metrics_json", on_json),
            (m["cli"], "check_uniform_joint_connectivity", "graphs.connectivity", on_connectivity),
            (m["graphs"], "union_graph", "graphs.union_graph", on_union),
        ]:
            tracer.patch(owner, attr, name, hook)
        return tracer, counts, unions

    @staticmethod
    def _layer_values(tracer: Tracer, counts: Counter, unions: set) -> dict[str, float]:
        total, self_s, calls = tracer.totals()
        steps = counts["steps"]
        hull = counts["hull_entries"]
        csv_s = total["cli.write_trajectory_csv"]
        union_calls = calls["graphs.union_graph"]
        return {
            "dynamics.simulate_self_s": self_s["dynamics.simulate"],
            "dynamics.steps": steps,
            "dynamics.us_per_step": 1e6 * self_s["dynamics.simulate"] / steps if steps else 0.0,
            "dynamics.field_evals": 4 * steps,
            "dynamics.validate_s": total["dynamics.validate_feasibility"],
            "dynamics.agent_samples": counts["agent_samples"],
            "dynamics.hull_entries": hull,
            "dynamics.validate_ns_per_hull_entry": (
                1e9 * total["dynamics.validate_feasibility"] / hull if hull else 0.0
            ),
            "dynamics.dense_to_hull_ratio": counts["dense_entries"] / hull if hull else 0.0,
            "dynamics.violations": counts["violations"],
            "metrics.report_s": total["metrics.build_report"],
            "metrics.monitor_violations": counts["monitor_violations"],
            "cli.csv_s": csv_s,
            "cli.csv_rows": counts["csv_rows"],
            "cli.csv_bytes": counts["csv_bytes"],
            "cli.csv_mb_per_s": counts["csv_bytes"] / 1e6 / csv_s if csv_s else 0.0,
            "cli.json_s": total["cli.write_metrics_json"],
            "cli.json_bytes": counts["json_bytes"],
            "cli.self_s": self_s["cli.main"],
            "graphs.connectivity_s": total["graphs.connectivity"],
            "graphs.union_s": total["graphs.union_graph"],
            "graphs.union_calls": union_calls,
            "graphs.windows_checked": counts["windows"],
            "graphs.pieces": counts["pieces"],
            "graphs.distinct_union_ratio": (
                len(unions) / union_calls if union_calls else 0.0
            ),
        }

    def _validate_peak_alloc_mb(self) -> float:
        """Peak bytes allocated inside the validator, from one more call."""
        if self.workload.kind != "run":
            return 0.0
        dynamics = self.modules["dynamics"]
        validate = dynamics.validate_feasibility
        peaks = [0]

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return validate(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        dynamics.validate_feasibility = measured
        try:
            self.call_once()
        finally:
            dynamics.validate_feasibility = validate
        return max(peaks) / 1e6


# Per-layer metrics, each with the end-to-end metric and workload it should
# move. Times are medians over traced calls; counts are per call.
PER_LAYER = [
    ("init.import_s", "s"),  # setup_s, every workload
    ("scenario.load_s", "s"),  # setup_s, mostly validate_wide (largest config)
    ("scenario.config_bytes", "B"),
    ("protocols.spec_build_s", "s"),  # setup_s on validate_wide (dense n x n per graph)
    ("dynamics.simulate_self_s", "s"),  # run_s on write_full (~15%), validate_wide (~4%)
    ("dynamics.steps", "count"),
    ("dynamics.us_per_step", "us"),
    ("dynamics.field_evals", "count"),  # 4 per RK4 step
    ("dynamics.validate_s", "s"),  # run_s and peak_rss_mb on validate_wide; none elsewhere
    ("dynamics.agent_samples", "count"),
    ("dynamics.hull_entries", "count"),  # useful work: sum of (|N_i| + 1) * d
    ("dynamics.validate_ns_per_hull_entry", "ns"),
    ("dynamics.dense_to_hull_ratio", "ratio"),  # m * n^2 * d over hull_entries
    ("dynamics.validate_peak_alloc_mb", "MB"),  # peak_rss_mb on validate_wide
    ("dynamics.violations", "count"),
    ("metrics.report_s", "s"),  # run_s on write_full
    ("metrics.monitor_violations", "count"),
    ("cli.csv_s", "s"),  # run_s on write_full
    ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "B"),
    ("cli.csv_mb_per_s", "MB/s"),
    ("cli.json_s", "s"),  # run_s on write_full and validate_wide
    ("cli.json_bytes", "B"),
    ("cli.self_s", "s"),  # run_s on connectivity_long (parsing, per-window printing)
    ("graphs.connectivity_s", "s"),  # run_s on connectivity_long
    ("graphs.union_s", "s"),
    ("graphs.union_calls", "count"),
    ("graphs.windows_checked", "count"),
    ("graphs.pieces", "count"),
    ("graphs.distinct_union_ratio", "ratio"),  # rises when redundant unions are skipped
    ("trace.overhead_s", "s"),  # traced minus untraced median call
    ("failed_share", "ratio"),  # failed over attempted calls in this run
]


def provenance() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        sha = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": THREADS,
        "blas_threads": THREADS,
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "compass_consensus" / "__init__.py").is_file():
        print(f"perfbench: no program sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import compass_consensus

    if not compass_consensus.__file__.startswith(str(SRC)):
        print(f"perfbench: imported {compass_consensus.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = inputs.GENERATORS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        for name, obj in workload.files.items():
            (work / name).write_bytes(inputs.dump(obj))
        bench = Bench(workload, work)
        if args.trace:
            metrics, samples = bench.per_layer(args.seconds)
        else:
            metrics, samples = bench.end_to_end(args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **samples}
    record.update(provenance())
    record["problems"] = bench.problems
    print("perfbench provenance: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
