"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/selftest.py -q

They check that inputs are reproducible, that the oracles reject wrong
outputs, that every metric is emitted, and that the held-out seed
``HELD_OUT_SEED`` runs clean; later claims can be re-checked on that seed.
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from compass_consensus import cli  # noqa: E402

HELD_OUT_SEED = 7919

# Per-layer metrics the benchmark promises, grouped by layer.
LAYER_METRICS = {
    "init.import_s", "scenario.load_s", "scenario.config_bytes", "protocols.spec_build_s",
    "dynamics.simulate_self_s", "dynamics.steps", "dynamics.us_per_step",
    "dynamics.field_evals", "dynamics.validate_s", "dynamics.agent_samples",
    "dynamics.hull_entries", "dynamics.validate_ns_per_hull_entry",
    "dynamics.dense_to_hull_ratio", "dynamics.validate_peak_alloc_mb", "dynamics.violations",
    "metrics.report_s", "metrics.monitor_violations",
    "cli.csv_s", "cli.csv_rows", "cli.csv_bytes", "cli.csv_mb_per_s",
    "cli.json_s", "cli.json_bytes", "cli.self_s",
    "graphs.connectivity_s", "graphs.union_s", "graphs.union_calls",
    "graphs.windows_checked", "graphs.pieces", "graphs.distinct_union_ratio",
    "trace.overhead_s", "failed_share",
}
END_TO_END = {"setup_s", "run_s", "peak_rss_mb"}


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_same_seed_same_input_bytes(name):
    build = inputs.GENERATORS[name]
    first, again, other = build(3), build(3), build(4)
    for file in first.files:
        assert inputs.dump(first.files[file]) == inputs.dump(again.files[file])
    assert any(inputs.dump(first.files[f]) != inputs.dump(other.files[f]) for f in first.files)


@pytest.fixture(scope="module")
def validate_wide_run(tmp_path_factory):
    """One real ``compass run`` on validate_wide: (config, out dir, exit code)."""
    work = tmp_path_factory.mktemp("vw")
    workload = inputs.validate_wide(5)
    (work / "scenario.json").write_bytes(inputs.dump(workload.files["scenario.json"]))
    code = cli.main(["run", str(work / "scenario.json"), "--strict", "--out-dir", str(work)])
    return workload.files["scenario.json"], work, code


def test_run_oracle_accepts_the_program(validate_wide_run):
    cfg, out, code = validate_wide_run
    assert oracle.RunOracle(cfg).check(code, out) == []


def test_run_oracle_tolerates_rounding_level_change(validate_wide_run, monkeypatch):
    cfg, out, code = validate_wide_run
    exact_at = oracle.ExactTrajectory.at
    monkeypatch.setattr(oracle.ExactTrajectory, "at", lambda self, t: exact_at(self, t) + 1e-12)
    assert oracle.RunOracle(cfg).check(code, out) == []


def test_run_oracle_catches_a_mislabelled_segment(validate_wide_run):
    cfg, out, code = validate_wide_run
    segs = oracle.segments(cfg["signal"], cfg["integrator"]["t_end"])
    k = len(segs) // 2
    a, b, name = segs[k]
    segs[k] = (a, b, next(g for g in cfg["graphs"] if g not in (name, segs[k - 1][2])))
    problems = oracle.RunOracle(cfg, segs).check(code, out)
    assert any("expm oracle" in p for p in problems), problems


def test_segments_tile_periods_exactly():
    signal = {"pieces": [[0.0, "a"], [0.1, "b"], [0.2, "c"]], "horizon_end": 0.3, "periodic": True}
    segs = oracle.segments(signal, 300.0)
    assert len(segs) == 3000
    assert [s[2] for s in segs[:6]] == ["a", "b", "c", "a", "b", "c"]
    assert segs[2997][0] == 999 * 0.3 and segs[2998][0] == 999 * 0.3 + 0.1


def _connectivity_stdout(call, files) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / call.file
        path.write_bytes(inputs.dump(files[call.file]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check-graphs", str(path), "--window", repr(call.window),
                             "--mode", call.mode])
    return code, out.getvalue()


def test_connectivity_check_accepts_real_witness_and_rejects_forged_one():
    workload = inputs.connectivity_long(5)
    call = workload.checks[2]
    assert not call.connected
    code, stdout = _connectivity_stdout(call, workload.files)
    assert oracle.check_graphs_call(call, workload.files, code, stdout) == []

    obj = workload.files[call.file]
    assert oracle.window_connected(obj["graphs"], obj["signal"], 0.0, call.window, call.mode)
    forged = f"NOT uniformly jointly strong connected: witness window [0, {call.window:g})"
    problems = oracle.check_graphs_call(call, workload.files, 1, forged)
    assert any("not a disconnected window" in p for p in problems), problems


def test_connectivity_family_needs_every_graph():
    workload = inputs.connectivity_long(5)
    family = workload.files["aperiodic.json"]["graphs"]
    for name in family:
        alone = {"pieces": [[0.0, name]], "horizon_end": 1.0, "periodic": False}
        assert not oracle.window_connected(family, alone, 0.0, 1.0, "quasi-strong")
    everything = {
        "pieces": [[float(k), name] for k, name in enumerate(family)],
        "horizon_end": float(len(family)),
        "periodic": False,
    }
    assert oracle.window_connected(family, everything, 0.0, len(family), "strong")


def test_every_metric_is_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == LAYER_METRICS
    assert set(_bench("connectivity_long", 1, 0)["metrics"]) == END_TO_END
    assert set(_bench("connectivity_long", 1, 1)["metrics"]) == LAYER_METRICS


@pytest.mark.parametrize("name", ["validate_wide", "write_full", "connectivity_long"])
def test_held_out_seed_runs_clean(name):
    result = _bench(name, HELD_OUT_SEED, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
