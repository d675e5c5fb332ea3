import collections
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compass_consensus
from compass_consensus import cli
from compass_consensus.artifacts import write_trajectory_csv
from compass_consensus.cli import build_parser, main, run_scenario
from compass_consensus.dynamics import Trajectory
from compass_consensus.errors import DomainError
from helpers import label_runs
from test_scenario import rotated_config

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")

SRC = Path(compass_consensus.__file__).parents[1]


def fresh_python(code: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package from
    ``SRC``; ``COMPASS_LOG`` is set only if ``env`` sets it."""
    environ = {k: v for k, v in os.environ.items() if k != "COMPASS_LOG"}
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**environ, "PYTHONPATH": str(SRC), **env},
    )


def write_json(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def consensus_config(t_end=10.0, h=1e-3, gamma=1.0, strictish=True):
    return {
        "agents": {"n": 2, "d": 1, "initial_states": [[0.0], [2.0]]},
        "protocol": {"kind": "WeightedConsensus", "gamma": gamma, "weights": 1.0},
        "graphs": {"g": {"n": 2, "arcs": [[1, 2, 1], [2, 1, 1]]}},
        "signal": {
            "tau_d": 1.0,
            "pieces": [[0.0, "g"]],
            "horizon_end": t_end,
            "periodic": False,
        },
        "integrator": {"h": h, "t_end": t_end},
        "validation": {"assumption": "GammaStrict" if strictish else None},
        "monitors": {"mode": "CooperativeBox", "eps_agreement": 1e-6},
        "outputs": {"trajectory_csv": "traj.csv", "metrics_json": "metrics.json"},
    }


class TestRun:
    def test_clean_run_row_count(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", consensus_config())
        code = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "traj.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,agent,x_1,active_p"
        assert len(lines) == 1 + 2 * 10001
        metrics = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
        assert metrics["verdicts"]["agreement"] is True
        assert metrics["violations"]["feasibility"] == []

    def test_negative_gamma_exit_2(self, tmp_path, capsys):
        cfg = consensus_config()
        cfg["protocol"]["gamma"] = -0.5
        path = write_json(tmp_path / "c.json", cfg)
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 2

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("where", ["out-dir is a file", "out-dir below a file",
                                       "csv is a directory"])
    def test_unusable_out_dir_exit_2_with_one_line(self, tmp_path, capsys, where):
        # Exit 1 is check-graphs' "not connected": an output path that cannot
        # be made or written is a config error, reported in one line.
        cfg = write_json(tmp_path / "c.json", consensus_config(t_end=1.0, h=0.1))
        blocker = tmp_path / "taken"
        blocker.write_text("", encoding="utf-8")
        out = {"out-dir is a file": blocker, "out-dir below a file": blocker / "sub",
               "csv is a directory": tmp_path / "out"}[where]
        (tmp_path / "out" / "traj.csv").mkdir(parents=True)
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's address-space cap")
    @pytest.mark.parametrize("h", [1e-300, 1e-16, 5e-324])
    def test_step_count_past_memory_exit_2_with_one_line(self, tmp_path, h):
        # 2e300, 2e16 and inf steps. The sample times were once appended one
        # float at a time until memory ran out: a MemoryError traceback and
        # exit 1, or no end at all. The child may map 1 GiB and run 10 s.
        import resource

        cfg = write_json(tmp_path / "c.json", consensus_config(t_end=2.0, h=h))
        cap = 1 << 30
        environ = {k: v for k, v in os.environ.items() if k != "COMPASS_LOG"}
        done = subprocess.run(
            [sys.executable, "-m", "compass_consensus.cli", "run", cfg,
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=10,
            env={**environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error: h=") and done.stderr.count("\n") == 1
        assert done.stdout == "" and not (tmp_path / "out").exists()

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's address-space cap")
    def test_periodic_tiling_past_memory_exit_2_with_one_line(self, tmp_path):
        # Two pieces a period to t_end = 1e9: tiling the signal's segments ran
        # out of memory before any step was counted, a MemoryError traceback
        # and exit 1. The child may map 512 MiB and run 60 s.
        import resource

        config = consensus_config(t_end=1e9, h=0.5)
        config["graphs"]["f"] = {"n": 2, "arcs": [[1, 2, 1]]}
        config["signal"] = {"tau_d": 0.5, "pieces": [[0.0, "g"], [0.5, "f"]],
                            "horizon_end": 1.0, "periodic": True}
        cfg = write_json(tmp_path / "c.json", config)
        cap = 1 << 29
        environ = {k: v for k, v in os.environ.items() if k != "COMPASS_LOG"}
        done = subprocess.run(
            [sys.executable, "-m", "compass_consensus.cli", "run", cfg,
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60,
            env={**environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("config error: h=0.5 to t_end=1000000000.0 needs more ")
        assert done.stderr.count("\n") == 1
        assert done.stdout == "" and not (tmp_path / "out").exists()

    def test_strict_feasibility_exit_3(self, tmp_path, capsys):
        # quarter-turn rotation on a flat two-agent box: field leaves the
        # carrier subspace at once
        cfg = {
            "agents": {"n": 2, "d": 2, "initial_states": [[0.0, 0.0], [1.0, 0.0]]},
            "protocol": {"kind": "RotatedConsensus", "gamma": 0.1,
                         "rotation": math.pi / 2},
            "graphs": {"g": {"n": 2, "arcs": [[2, 1, 1]]}},
            "signal": {"tau_d": 1.0, "pieces": [[0.0, "g"]], "horizon_end": 1.0},
            "integrator": {"h": 0.01, "t_end": 1.0},
            "validation": {"assumption": "GammaStrict"},
        }
        path = write_json(tmp_path / "rot.json", cfg)
        assert main(["run", path, "--strict", "--out-dir", str(tmp_path)]) == 3
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 0

    def test_strict_monitor_exit_4(self, tmp_path, capsys):
        # same orbiting protocol with validation off: only the box monitor fires
        cfg = {
            "agents": {"n": 2, "d": 2, "initial_states": [[0.0, 0.0], [1.0, 0.0]]},
            "protocol": {"kind": "RotatedConsensus", "gamma": 0.1,
                         "rotation": math.pi / 2},
            "graphs": {"g": {"n": 2, "arcs": [[2, 1, 1]]}},
            "signal": {"tau_d": 1.0, "pieces": [[0.0, "g"]], "horizon_end": 8.0},
            "integrator": {"h": 0.01, "t_end": 8.0},
            "monitors": {"mode": "CooperativeBox"},
        }
        path = write_json(tmp_path / "orbit.json", cfg)
        assert main(["run", path, "--strict", "--out-dir", str(tmp_path)]) == 4

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_exit_5(self, tmp_path, capsys):
        # weight far beyond the RK4 stability bound 2.785/(2h): the
        # disagreement mode amplifies every step until it overflows
        cfg = consensus_config(t_end=5.0, h=0.01)
        cfg["protocol"]["weights"] = 1000.0
        cfg["protocol"]["gamma"] = 0.1
        cfg["validation"]["assumption"] = None
        path = write_json(tmp_path / "stiff.json", cfg)
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 5
        assert [p.name for p in tmp_path.iterdir()] == ["stiff.json"]  # no artifact, no temporary

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_removes_the_directories_it_made(self, tmp_path, capsys):
        # The artifact directories are made before integrating; a run that
        # diverges takes them away again, deepest first.
        cfg = consensus_config(t_end=5.0, h=0.01)
        cfg["protocol"]["weights"] = 1000.0
        cfg["validation"]["assumption"] = None
        cfg["outputs"] = {"trajectory_csv": "a/b/traj.csv", "metrics_json": "c/metrics.json"}
        path = write_json(tmp_path / "stiff.json", cfg)
        assert main(["run", path, "--out-dir", str(tmp_path / "out" / "deep")]) == 5
        assert [p.name for p in tmp_path.iterdir()] == ["stiff.json"]

    def test_refused_run_keeps_an_existing_out_dir_and_its_files(self, tmp_path, capsys):
        # Only what the run made goes: the artifact's new subdirectory, not
        # --out-dir, which held a file before the run.
        cfg = consensus_config(t_end=2.0, h=1e-300)
        cfg["outputs"]["trajectory_csv"] = "sub/traj.csv"
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept", encoding="utf-8")
        assert main(["run", write_json(tmp_path / "c.json", cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: h=")
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text(encoding="utf-8") == "kept"

    def test_metrics_path_a_directory_leaves_no_artifact(self, tmp_path, capsys):
        # The CSV is complete when the metrics file fails to land: it must not
        # be left beside no metrics.
        cfg = write_json(tmp_path / "c.json", consensus_config(t_end=1.0, h=0.1))
        out = tmp_path / "out"
        (out / "metrics.json").mkdir(parents=True)
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert str(out / "metrics.json") in err
        assert [p.name for p in out.iterdir()] == ["metrics.json"]
        assert list((out / "metrics.json").iterdir()) == []

    def test_artifact_paths_with_a_directory_part(self, tmp_path, capsys):
        cfg = consensus_config(t_end=1.0, h=0.1)
        cfg["outputs"] = {"trajectory_csv": "sub/traj.csv", "metrics_json": "a/b/metrics.json"}
        out = tmp_path / "out"
        assert main(["run", write_json(tmp_path / "c.json", cfg), "--out-dir", str(out)]) == 0
        assert (out / "sub" / "traj.csv").read_text(encoding="utf-8").count("\n") == 1 + 2 * 11
        metrics = json.loads((out / "a" / "b" / "metrics.json").read_text(encoding="utf-8"))
        assert len(metrics["V"]) == 11

    def test_determinism_byte_identical(self, tmp_path):
        cfg = consensus_config(t_end=2.0)
        cfg["agents"] = {
            "n": 2, "d": 1, "sample": {"seed": 42, "lo": [0.0], "hi": [2.0]}
        }
        path = write_json(tmp_path / "c.json", cfg)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", path, "--out-dir", str(out1)]) == 0
        assert main(["run", path, "--out-dir", str(out2)]) == 0
        assert (out1 / "traj.csv").read_bytes() == (out2 / "traj.csv").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_downsample_keeps_last_sample(self, tmp_path):
        cfg = consensus_config(t_end=1.0)
        cfg["outputs"]["downsample"] = 100
        path = write_json(tmp_path / "c.json", cfg)
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "traj.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 11
        assert lines[-1].startswith("1.0,2,")

    def test_batch_mode(self, tmp_path):
        p1 = write_json(tmp_path / "a.json", consensus_config(t_end=1.0))
        p2 = write_json(tmp_path / "b.json", consensus_config(t_end=1.0))
        code = main(["run", p1, p2, "--batch", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "a" / "traj.csv").exists()
        assert (tmp_path / "b" / "traj.csv").exists()

    def test_batch_rejects_two_configs_of_one_stem(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        p1 = write_json(tmp_path / "a" / "scen.json", consensus_config(t_end=1.0))
        p2 = write_json(tmp_path / "b" / "scen.json", consensus_config(t_end=1.0))
        out = tmp_path / "out"
        assert main(["run", p1, p2, "--batch", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert p1 in err and p2 in err
        assert not out.exists()  # rejected before anything ran

    def test_batch_of_one_runs_in_process(self, tmp_path, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a single config must not start a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        p1 = write_json(tmp_path / "a.json", consensus_config(t_end=1.0))
        code = main(["run", p1, "--batch", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "a" / "traj.csv").exists()
        assert (tmp_path / "out" / "a" / "metrics.json").exists()

    def test_seed_flag_changes_sampled_states(self, tmp_path):
        cfg = consensus_config(t_end=1.0)
        cfg["agents"] = {
            "n": 2, "d": 1, "sample": {"seed": 1, "lo": [0.0], "hi": [2.0]}
        }
        path = write_json(tmp_path / "c.json", cfg)
        o1, o2 = tmp_path / "s1", tmp_path / "s2"
        main(["run", path, "--out-dir", str(o1)])
        main(["run", path, "--seed", "999", "--out-dir", str(o2)])
        assert (o1 / "traj.csv").read_bytes() != (o2 / "traj.csv").read_bytes()


    def test_labels_with_csv_specials_read_back(self, tmp_path):
        labels = ["a,b", 'say "hi"', "two\nlines", "g"]
        traj = Trajectory(times=np.arange(4.0), states=np.arange(4.0)[:, None], n=1, d=1,
                          runs=label_runs(labels))
        path = tmp_path / "traj.csv"
        assert write_trajectory_csv(path, traj) == 4
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "agent", "x_1", "active_p"]
        assert [row[3] for row in rows[1:]] == labels
        assert all(len(row) == 4 for row in rows)
        assert path.read_bytes().endswith(b"3.0,1,3.0,g\n")  # plain labels as before

    @pytest.mark.parametrize("downsample", [True, 2.5, "2", 0, -1])
    def test_writer_refuses_non_count_downsample(self, tmp_path, downsample):
        # The writer is public: it must not read True as 1 or leak range()'s TypeError.
        traj = Trajectory(times=np.arange(4.0), states=np.arange(4.0)[:, None], n=1, d=1,
                          runs=label_runs(["g"] * 4))
        with pytest.raises(DomainError, match="downsample"):
            write_trajectory_csv(tmp_path / "traj.csv", traj, downsample)

    def test_writer_takes_numpy_integer_downsample(self, tmp_path):
        traj = Trajectory(times=np.arange(4.0), states=np.arange(4.0)[:, None], n=1, d=1,
                          runs=label_runs(["a", "a", "b", "b"]))
        assert write_trajectory_csv(tmp_path / "traj.csv", traj, np.int64(2)) == 3
        rows = (tmp_path / "traj.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert rows == ["0.0,1,0.0,a", "2.0,1,2.0,b", "3.0,1,3.0,b"]


@st.composite
def streamed_configs(draw):
    """(config, _CHUNK_ELEMENTS or None) for a `compass run` over 1-24 graphs.

    Past 16 graphs some step matrices are rebuilt per run, and past 4 the
    validator's label buffers pass their bound. Dwells off the h grid end
    their segments in a short step; a gamma of 50 gives violations.
    """
    kind = draw(st.sampled_from(["WeightedConsensus", "RotatedConsensus", "SignedConsensus"]))
    n, d = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 2, 3]))
    labels = [f"g{k}" for k in range(draw(st.sampled_from([1, 2, 3, 5, 9, 17, 24])))]
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
    sign = st.sampled_from([1, -1] if kind == "SignedConsensus" else [1])
    graphs = {p: {"n": n, "arcs": [[j, i, draw(sign)] for j, i in sorted(
        draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=n)))]} for p in labels}
    order = draw(st.permutations(labels)) + draw(st.lists(st.sampled_from(labels), max_size=6))
    grid = draw(st.sampled_from([True, False]))  # dwells on the h grid, or off it
    dwells = [draw(st.sampled_from([0.03, 0.05, 0.08] if grid else [0.037, 0.0555, 0.081]))
              for _ in order]
    starts = np.cumsum([0.0, *dwells]).round(10).tolist()
    periodic = draw(st.sampled_from([True, False]))
    end = starts[-1] * (draw(st.sampled_from([1.5, 2.25, 3.0])) if periodic else 1.0)
    protocol = {"kind": kind, "gamma": draw(st.sampled_from([0.01, 1.0, 50.0])),
                "weights": draw(st.sampled_from([0.5, 1.0, 2.0]))}
    if kind == "RotatedConsensus":
        protocol["rotation"] = [draw(st.sampled_from([-0.4, 0.3, 0.7]))
                                for _ in range(d * (d - 1) // 2)]
    assumptions = ["GammaStrict", "RelativeInterior", "SignedGammaStrict", None]
    config = {
        "agents": {"n": n, "d": d, "sample": {"seed": draw(st.integers(0, 99)),
                                              "lo": [-1.0] * d, "hi": [1.0] * d}},
        "protocol": protocol,
        "graphs": graphs,
        "signal": {"tau_d": min(dwells), "pieces": [list(pt) for pt in zip(starts, order)],
                   "horizon_end": starts[-1], "periodic": periodic},
        "integrator": {"h": 0.01, "t_end": round(end - draw(st.sampled_from([0.0, 0.004])), 10)},
        "validation": {"assumption": draw(st.sampled_from(assumptions))},
        "monitors": {"mode": draw(st.sampled_from(["CooperativeBox", "SignedSquare", None]))},
        "outputs": {"downsample": draw(st.sampled_from([1, 2, 3]))},
    }
    return config, draw(st.sampled_from([None, 7, 64]))


class TestStreamedRun:
    """`compass run` integrates, validates, reduces and writes a chunk at a
    time; its artifacts are those of the library path on the whole trajectory."""

    def test_artifacts_match_the_library_path(self, tmp_path):
        from compass_consensus import dynamics
        from compass_consensus.cli import write_metrics_json
        from compass_consensus.metrics import build_report
        from compass_consensus.scenario import scenario_from_dict

        seen = collections.Counter()

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(streamed_configs())
        def check(case):
            cfg, elements = case
            sc = scenario_from_dict(cfg)
            traj = dynamics.simulate(sc)
            report = build_report(traj, sc.eps_agreement, sc.monitor_mode, sc.tol_monotone)
            with tempfile.TemporaryDirectory(dir=tmp_path) as work:
                ref, out = Path(work, "ref"), Path(work, "out")
                ref.mkdir()
                rows = write_trajectory_csv(ref / "trajectory.csv", traj, sc.downsample)
                write_metrics_json(ref / "metrics.json", report.to_json_dict())
                with pytest.MonkeyPatch.context() as mp, redirect_stdout(io.StringIO()) as text:
                    if elements:
                        mp.setattr(dynamics, "_CHUNK_ELEMENTS", elements)
                    assert main(["run", write_json(Path(work, "c.json"), cfg),
                                 "--out-dir", str(out)]) == 0
                for name in ("trajectory.csv", "metrics.json"):
                    assert (out / name).read_bytes() == (ref / name).read_bytes()
            m = traj.num_samples
            assert rows == sc.n * len({*range(0, m, sc.downsample), m - 1})  # the last one too
            assert f"samples={m} " in text.getvalue()
            labels = len(cfg["graphs"])
            seen.update([cfg["protocol"]["kind"], f"periodic {cfg['signal']['periodic']}",
                         f"elements {elements}"])
            seen.update({"violations": bool(report.feasibility_violations),
                         "over 4 graphs": labels > 4, "over 16 graphs": labels > 16})

        check()
        assert len(seen) == 11 and min(seen.values()) >= 3, seen

    def test_memory_does_not_grow_with_the_states(self, tmp_path, capsys):
        # n * d = 400, so each sample's states take 3200 bytes. Doubling t_end
        # may grow the traced peak only by the O(samples * d) series and their
        # JSON text: 400 bytes per sample and axis is over twice what they need.
        n, d = 100, 4
        cfg = {
            "agents": {"n": n, "d": d, "sample": {"seed": 0, "lo": [-1.0] * d, "hi": [1.0] * d}},
            "protocol": {"kind": "WeightedConsensus", "gamma": 0.5, "weights": 1.0},
            "graphs": {"g": {"n": n, "arcs": [[i % n + 1, i, 1] for i in range(1, n + 1)]}},
            "signal": {"tau_d": 1.0, "pieces": [[0.0, "g"]], "horizon_end": 1.0, "periodic": True},
            "integrator": {"h": 0.01, "t_end": 1.0},
            "validation": {"assumption": "GammaStrict"},
            "monitors": {"mode": "CooperativeBox"},
            "outputs": {"downsample": 100},
        }

        def peak(t_end):
            cfg["integrator"]["t_end"] = t_end
            path = write_json(tmp_path / "c.json", cfg)
            tracemalloc.start()
            try:
                assert run_scenario(path, str(tmp_path)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1.0)  # warm-up: imports and caches
        growth = peak(10.0) - peak(5.0)  # 500 samples more
        assert "feasibility_violations=0" in capsys.readouterr().out
        assert growth < 500 * 400 * d

    def test_memory_does_not_grow_with_the_number_of_graphs(self):
        # 400 pieces of 10 steps cycle over L random in-degree-3 graphs, with
        # no violation. Held for the whole run, one validator buffer and one
        # step matrix per graph would take 400 * 125 KB at L = 400, 8x the
        # 6.4 MB trajectory.
        from compass_consensus.metrics import run_report
        from compass_consensus.scenario import scenario_from_dict

        n, d = 50, 4
        rng = np.random.default_rng(0)
        arcs = lambda: [[int(j), i, 1] for i in range(1, n + 1)
                        for j in rng.choice([k for k in range(1, n + 1) if k != i], 3, False)]

        def peak(graphs):
            sc = scenario_from_dict({
                "agents": {"n": n, "d": d, "sample": {"seed": 0, "lo": [-1.0] * d, "hi": [1.0] * d}},
                "protocol": {"kind": "WeightedConsensus", "gamma": 1e-9, "weights": 1.0},
                "graphs": {f"g{k}": {"n": n, "arcs": arcs()} for k in range(graphs)},
                "signal": {"tau_d": 0.05, "horizon_end": 20.0,
                           "pieces": [[k * 0.05, f"g{k % graphs}"] for k in range(400)]},
                "integrator": {"h": 0.005, "t_end": 20.0},
                "validation": {"assumption": "GammaStrict"},
            })
            tracemalloc.start()
            try:
                assert run_report(sc, lambda *chunk: None).feasibility_violations == []
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # warm-up: imports and caches
        assert peak(400) < 2 * peak(1)


@pytest.mark.parametrize("argv, prefix", [
    (["run", "{}", "--out-dir", "{out}"], "config error: "),
    (["check-graphs", "{}", "--window", "1.0"], "parse error: "),
    (["dump-config", "{}"], "config error: "),
], ids=["run", "check-graphs", "dump-config"])
@pytest.mark.parametrize("kind", ["directory", "not utf-8"])
def test_unreadable_input_exit_2_with_one_line(tmp_path, capsys, argv, prefix, kind):
    # Exit 1 is check-graphs' "not connected": an input that cannot be read
    # is a config error, reported in one line.
    if kind == "directory":
        path, reason = tmp_path / "in.json", "Is a directory"
        path.mkdir()
    else:
        path, reason = tmp_path / "in.json", "not UTF-8 text"
        path.write_bytes(b'{"graphs": "\xff"}')
    argv = [a.format(path, out=tmp_path / "out") for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{prefix}{path}: ") and reason in captured.err
    assert captured.err.count("\n") == 1


class TestLogging:
    def test_compass_log_env_sets_level(self, tmp_path, monkeypatch):
        import logging

        monkeypatch.setenv("COMPASS_LOG", "DEBUG")
        path = write_json(tmp_path / "c.json", consensus_config(t_end=1.0))
        root_level_before = logging.getLogger().level
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
        # basicConfig only applies once per process; accept either state but
        # the run must succeed with the env var present
        assert logging.getLogger().level in (root_level_before, logging.DEBUG)

    def test_info_line_in_a_fresh_process(self, tmp_path):
        argv = ["run", write_json(tmp_path / "c.json", consensus_config(t_end=1.0)),
                "--out-dir", str(tmp_path)]
        done = fresh_python(f"from compass_consensus.cli import main; assert main({argv!r}) == 0",
                            COMPASS_LOG="INFO")
        assert done.returncode == 0, done.stderr
        assert done.stderr == "INFO compass: wrote traj.csv (2002 rows) and metrics.json\n"

    def test_no_handler_and_no_output_without_compass_log(self, tmp_path):
        argv = ["run", write_json(tmp_path / "c.json", consensus_config(t_end=1.0)),
                "--out-dir", str(tmp_path)]
        done = fresh_python(
            "import logging; from compass_consensus.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "assert logging.getLogger().handlers == []")
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    @pytest.mark.parametrize("name, level", [
        ("basic_format", "WARNING"), ("bogus", "WARNING"), ("debug", "DEBUG"),
    ])
    def test_level_names(self, tmp_path, name, level):
        # Only a level name sets the level: logging.BASIC_FORMAT is a string.
        argv = ["check-graphs", graphs_file(tmp_path), "--window", "2.0"]
        done = fresh_python(
            "import logging; from compass_consensus.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"assert logging.getLogger().level == logging.{level}",
            COMPASS_LOG=name)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


class TestDumpConfig:
    def test_round_trip(self, tmp_path, capsys):
        path = write_json(tmp_path / "c.json", consensus_config(t_end=1.0))
        assert main(["dump-config", path]) == 0
        dumped = json.loads(capsys.readouterr().out)
        path2 = write_json(tmp_path / "c2.json", dumped)
        assert main(["dump-config", path2]) == 0
        dumped2 = json.loads(capsys.readouterr().out)
        assert dumped == dumped2

    @pytest.mark.parametrize("mutate, where", [
        (lambda c: c["agents"].update(initial_states=[[0.0, 1.0], [2.0]]),
         "$.agents.initial_states"),
        (lambda c: c["signal"].update(horizon_end=math.nan), "$.signal.horizon_end"),
        (lambda c: c["integrator"].update(h=math.inf), "$.integrator.h"),
    ], ids=["ragged-states", "nan-horizon", "infinite-h"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, mutate, where):
        cfg = consensus_config()
        mutate(cfg)
        path = write_json(tmp_path / "c.json", cfg)  # json writes NaN and Infinity
        for argv in (["dump-config", path], ["run", path, "--out-dir", str(tmp_path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"config error: {where}: ")
            assert captured.out == ""


    @pytest.mark.parametrize("mutate, where", [
        (lambda c: c.update(agents={"n": 2**63, "d": 1,
                                    "sample": {"seed": 0, "lo": [0.0], "hi": [1.0]}}),
         "$.agents.n"),
        (lambda c: c["graphs"]["g"].update(n=2**63), "$.protocol"),
    ], ids=["sampled-agents", "graph-nodes"])
    def test_count_numpy_refuses_exit_2(self, tmp_path, capsys, mutate, where):
        # numpy refuses a 2**63-row shape without allocating anything.
        cfg = consensus_config(t_end=1.0)
        mutate(cfg)
        path = write_json(tmp_path / "c.json", cfg)
        for argv in (["dump-config", path], ["run", path, "--out-dir", str(tmp_path)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"config error: {where}: ")
            assert captured.out == ""


def graphs_file(tmp_path, periodic=False, horizon=4.0):
    obj = {
        "graphs": {
            "a": {"n": 2, "arcs": [[1, 2, 1]]},
            "b": {"n": 2, "arcs": [[2, 1, 1]]},
        },
        "signal": {
            "tau_d": 1.0,
            "pieces": [[float(k), "a" if k % 2 == 0 else "b"] for k in range(int(horizon))],
            "horizon_end": horizon,
            "periodic": periodic,
        },
    }
    return write_json(tmp_path / "graphs.json", obj)


class TestCheckGraphs:
    def test_window_lines_spell_bounds_as_format_g(self, tmp_path, capsys):
        # Starts in g's exponent and rounding forms, and a window of 1e+16.
        from compass_consensus.graphs import (
            ConnectivityMode, check_uniform_joint_connectivity, graph_from_json, signal_from_json)

        obj = {
            "graphs": {"a": {"n": 2, "arcs": [[1, 2, 1]]}, "b": {"n": 2, "arcs": [[2, 1, 1]]}},
            "signal": {"tau_d": 1e-05, "horizon_end": 5e16,
                       "pieces": [[1e-05, "a"], [123456.7, "b"], [2.5e16, "a"]]},
        }
        f = write_json(tmp_path / "g.json", obj)
        assert main(["check-graphs", f, "--window", "1e16", "--mode", "strong"]) == 1
        lines = capsys.readouterr().out.splitlines()[:-1]
        family = {k: graph_from_json(g) for k, g in obj["graphs"].items()}
        verdict = check_uniform_joint_connectivity(
            signal_from_json(obj["signal"]), family, 1e16, ConnectivityMode.STRONG)
        assert lines == [f"window [{a:g}, {b:g}): {'connected' if ok else 'NOT connected'}"
                         for a, b, ok in verdict.checked_windows]
        assert lines[:2] == ["window [1e-05, 1e+16): connected",
                             "window [123457, 1e+16): NOT connected"]

    def test_connected_exit_0(self, tmp_path, capsys):
        f = graphs_file(tmp_path)
        assert main(["check-graphs", f, "--window", "2.0", "--mode", "strong"]) == 0
        out = capsys.readouterr().out
        assert "uniformly jointly strong connected" in out

    def test_not_connected_exit_1_with_witness(self, tmp_path, capsys):
        obj = {
            "graphs": {"a": {"n": 3, "arcs": [[1, 2, 1], [2, 1, 1]]}},
            "signal": {"tau_d": 1.0, "pieces": [[0.0, "a"]], "horizon_end": 5.0},
        }
        f = write_json(tmp_path / "g.json", obj)
        assert main(["check-graphs", f, "--window", "1.0"]) == 1
        assert "witness" in capsys.readouterr().out

    @pytest.mark.parametrize("window", ["1e-16", "5e-324"])
    def test_window_below_the_spacing_of_the_times_exit_2(self, tmp_path, capsys, window):
        # Unrefused, the empty window [1, 1) read "NOT connected", exit 1.
        f = graphs_file(tmp_path, horizon=2.0)
        assert main(["check-graphs", f, "--window", window]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ") and captured.err.count("\n") == 1

    def test_window_beyond_horizon_exit_2(self, tmp_path, capsys):
        f = graphs_file(tmp_path, horizon=4.0)
        assert main(["check-graphs", f, "--window", "9.0"]) == 2

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = write_json(tmp_path / "bad.json", {"graphs": {}})
        assert main(["check-graphs", f, "--window", "1.0"]) == 2

    def test_label_missing_from_graphs_exit_2(self, tmp_path, capsys):
        obj = json.loads(open(graphs_file(tmp_path), encoding="utf-8").read())
        obj["signal"]["pieces"][1][1] = "zz"
        f = write_json(tmp_path / "g.json", obj)
        assert main(["check-graphs", f, "--window", "2.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "'zz'" in err

    def test_graphs_of_different_sizes_exit_2(self, tmp_path, capsys):
        # no window of length 1 starting at a candidate mixes the two graphs
        obj = {
            "graphs": {
                "a": {"n": 2, "arcs": [[1, 2, 1], [2, 1, 1]]},
                "b": {"n": 3, "arcs": [[1, 2, 1], [2, 3, 1], [3, 1, 1]]},
            },
            "signal": {
                "tau_d": 1.0, "pieces": [[0.0, "a"], [5.0, "b"]], "horizon_end": 10.0
            },
        }
        f = write_json(tmp_path / "g.json", obj)
        assert main(["check-graphs", f, "--window", "1.0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and "node count" in err

    @pytest.mark.parametrize("where, key", [("signal", "periodic"), ("graph", "allow_self_loops")])
    def test_non_boolean_flag_exit_2(self, tmp_path, capsys, where, key):
        obj = json.loads(open(graphs_file(tmp_path), encoding="utf-8").read())
        (obj["signal"] if where == "signal" else obj["graphs"]["a"])[key] = "false"
        f = write_json(tmp_path / "g.json", obj)
        assert main(["check-graphs", f, "--window", "2.0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error:") and key in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mutate, where", [
        (lambda o: o["graphs"]["a"].update(n=2.9), "$.graphs.a.n"),
        (lambda o: o["graphs"]["a"]["arcs"].append([1.7, 2, True]), "$.graphs.a.arcs[1][0]"),
        (lambda o: o["graphs"]["a"].update(weight=1.0), "$.graphs.a"),
        (lambda o: o["signal"].update(dwell=1.0), "$.signal"),
        (lambda o: o.update(notes="x"), "$"),
    ], ids=["fractional-n", "fractional-arc", "graph-key", "signal-key", "top-level-key"])
    def test_malformed_entry_exit_2(self, tmp_path, capsys, mutate, where):
        obj = json.loads(open(graphs_file(tmp_path), encoding="utf-8").read())
        mutate(obj)
        f = write_json(tmp_path / "g.json", obj)
        assert main(["check-graphs", f, "--window", "2.0"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"parse error: {where}: ")
        assert captured.out == ""


def test_pieces_out_of_order_exit_2_at_signal(tmp_path, capsys):
    # The signal constructor owns the order rule, so every reader reports it
    # at $.signal.
    cfg = consensus_config(t_end=4.0)
    cfg["signal"]["pieces"] = [[0.0, "g"], [2.0, "g"], [1.0, "g"]]
    message = "$.signal: piece start times must be finite and nondecreasing\n"
    path = write_json(tmp_path / "c.json", cfg)
    for argv in (["dump-config", path], ["run", path, "--out-dir", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: " + message
    path = write_json(tmp_path / "g.json", {"graphs": cfg["graphs"], "signal": cfg["signal"]})
    assert main(["check-graphs", path, "--window", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "parse error: " + message and captured.out == ""


@pytest.mark.parametrize("periodic", [False, True])
def test_signal_span_past_the_float_range_exit_2_at_signal(tmp_path, capsys, periodic):
    # horizon_end - t0 was inf: dump-config echoed the signal, and run read
    # NaN segment bounds and exited 1 with a ValueError traceback.
    cfg = consensus_config(t_end=1.0)
    cfg["graphs"]["f"] = {"n": 2, "arcs": [[1, 2, 1]]}
    cfg["signal"] = {"tau_d": 1.0, "pieces": [[-1e308, "f"], [0.0, "g"]],
                     "horizon_end": 1e308, "periodic": periodic}
    message = ("$.signal: span horizon_end - t0 must be finite (numbers, not booleans or "
               "strings), got inf\n")
    path = write_json(tmp_path / "c.json", cfg)
    out = tmp_path / "out"
    for argv in (["dump-config", path], ["run", path, "--out-dir", str(out)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: " + message and captured.out == ""
    assert not out.exists()
    path = write_json(tmp_path / "g.json", {"graphs": cfg["graphs"], "signal": cfg["signal"]})
    assert main(["check-graphs", path, "--window", "1.0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "parse error: " + message and captured.out == ""


class TestRotationConfig:
    def test_shared_angle_set_when_n_equals_plane_count(self, tmp_path, capsys):
        path = write_json(tmp_path / "rot.json", rotated_config(3, 3, [0.1, 0.2, 0.3]))
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 0

    def test_rotation_of_another_dimension_exit_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "rot.json", rotated_config(3, 3, 0.4))
        assert main(["dump-config", path]) == 2
        assert "$.protocol.rotation" in capsys.readouterr().err
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 2


def test_readme_cli_lines_parse():
    # Every `compass ...` line of the README's CLI block must parse, so a
    # removed flag or subcommand cannot linger in the docs. Nothing is run.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("compass ")]
    assert {argv[1] for argv in commands} == {"run", "check-graphs", "rate-bound", "dump-config"}
    for argv in commands:
        try:
            build_parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {' '.join(argv)}")


def exit_text(call, argv, capsys) -> tuple[str, str, int]:
    """(stdout, stderr, exit code) of ``call(argv)``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        call(argv)
    out, err = capsys.readouterr()
    return out, err, exc.value.code


class TestParserText:
    # main builds only the invoked subcommand's parser, and hands a leftover
    # argument to the full parser: every help and usage error must read as
    # the full parser prints it.
    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["bogus"], ["-h", "run"],
        ["run", "-h"], ["check-graphs", "-h"], ["rate-bound", "-h"], ["dump-config", "-h"],
        ["rate-bound", "--n", "2"],
        ["check-graphs", "f", "--window", "x"],
        ["check-graphs", "f", "--window", "1", "--mode", "weak"],
        ["check-graphs", "f", "--window", "1", "extra"],
        ["check-graphs", "f", "--win", "1", "extra"],
        ["check-graphs", "f", "--he"],
        ["check-graphs", "--", "f"],
        ["run", "a.json", "--out-dir"],
        ["dump-config", "a", "b"],
    ])
    def test_same_text_as_the_full_parser(self, argv, capsys):
        assert exit_text(main, argv, capsys) == exit_text(build_parser().parse_args, argv, capsys)

    def test_accepted_call_builds_no_full_parser(self, tmp_path, monkeypatch, capsys):
        def refuse():
            raise AssertionError("the full parser was built")

        monkeypatch.setattr(cli, "build_parser", refuse)
        config = write_json(tmp_path / "c.json", consensus_config(t_end=0.5))
        assert main(["check-graphs", graphs_file(tmp_path), "--win", "2.0"]) == 0
        assert main(["dump-config", config, "--seed", "1"]) == 0
        assert main(["run", config, "--out-dir", str(tmp_path), "--strict"]) == 0
        assert main(["rate-bound", "--n", "2", "--d", "1", "--T", "0.5", "--tau-d", "0.25",
                     "--gamma", "1", "--L-star", "1", "--L-plus", "1"]) == 0


def test_readme_python_example_runs():
    # The README's library example runs as written and prints [] first.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "[]"


class TestRateBound:
    def test_prints_chain(self, capsys):
        code = main([
            "rate-bound", "--n", "2", "--d", "1", "--T", "0.5", "--tau-d", "0.25",
            "--gamma", "1.0", "--L-star", "1.0", "--L-plus", "1.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        values = dict(
            line.split(" = ") for line in out.strip().splitlines()
        )
        assert float(values["T1"]) == pytest.approx(1.0)
        assert float(values["T_bar"]) == pytest.approx(4.0)
        # frozen: beta = exp(-8) * min(0.25/2.5, 0.5) = exp(-8)/10
        assert float(values["beta"]) == pytest.approx(math.exp(-8) / 10, abs=1e-15)
        assert float(values["beta_star"]) == pytest.approx(
            -math.log1p(-math.exp(-8) / 10) / 4.0, abs=1e-15
        )

    def test_n_below_two_exit_2(self, capsys):
        code = main([
            "rate-bound", "--n", "1", "--d", "1", "--T", "0.5", "--tau-d", "0.25",
            "--gamma", "1.0", "--L-star", "1.0", "--L-plus", "1.0",
        ])
        assert code == 2

    def test_missing_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate-bound", "--n", "2"])
        assert exc.value.code == 2

    def test_nonpositive_flag_exit_2(self, capsys):
        code = main([
            "rate-bound", "--n", "2", "--d", "1", "--T", "-0.5", "--tau-d", "0.25",
            "--gamma", "1.0", "--L-star", "1.0", "--L-plus", "1.0",
        ])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--T", "--gamma"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exit_2(self, capsys, flag, value):
        args = {"--n": "5", "--d": "2", "--T": "1", "--tau-d": "1",
                "--gamma": "1", "--L-star": "1", "--L-plus": "1", flag: value}
        code = main(["rate-bound", *(s for kv in args.items() for s in kv)])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_agent_count_squared_too_long_to_print_exit_2(self, capsys):
        # n has 2201 digits, so argparse reads it, but n^2 has more than str()
        # prints by default: its refusal still ends in one error line.
        code = main([
            "rate-bound", "--n", "1" + "0" * 2200, "--d", "1", "--T", "1", "--tau-d", "1",
            "--gamma", "1", "--L-star", "1", "--L-plus", "1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_many_agents_exit_0(self, capsys):
        code = main([
            "rate-bound", "--n", "2000", "--d", "2", "--T", "1", "--tau-d", "10",
            "--gamma", "1", "--L-star", "1", "--L-plus", "1",
        ])
        assert code == 0
        assert "beta = 0.0" in capsys.readouterr().out

    def test_agent_count_beyond_float_range_exit_2(self, capsys):
        code = main([
            "rate-bound", "--n", "1" + "0" * 200, "--d", "1", "--T", "1", "--tau-d", "1",
            "--gamma", "1", "--L-star", "1", "--L-plus", "1",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_benchmark_trace_points_are_called(tmp_path, monkeypatch, capsys):
    # perfbench/run.py times each layer by wrapping module attributes, and
    # skips a name that no longer exists: a rename would zero its metric
    # silently. Each of these must still be called by one `run`, one
    # `check-graphs` or the stored-trajectory path that `run` streamed until
    # `metrics.run_report` (which the benchmark does not wrap yet) took its
    # place; that path is called through the modules that own its functions.
    from compass_consensus import artifacts, cli, dynamics, graphs, metrics, scenario

    called, json_sizes = [], []
    for owner, attr in [
        (cli, "scenario_from_dict"), (dynamics, "simulate"), (artifacts, "write_trajectory_csv"),
        (cli, "write_metrics_json"), (cli, "check_uniform_joint_connectivity"),
        (dynamics, "validate_feasibility"), (metrics, "build_report"), (metrics, "run_report"),
    ]:
        def counted(*args, _fn=getattr(owner, attr), _name=f"{owner.__name__}.{attr}", **kwargs):
            called.append(_name.removeprefix("compass_consensus."))
            result = _fn(*args, **kwargs)
            if _name.endswith(".write_metrics_json"):
                # `cli.json_bytes` reads the file at the first argument when the
                # writer returns, before the run renames it into place: the CLI
                # must hand it (path, dict) and nothing else.
                assert kwargs == {} and len(args) == 2 and type(args[1]) is dict
                json_sizes.append(os.path.getsize(args[0]))
            return result

        monkeypatch.setattr(owner, attr, counted)
    cfg = consensus_config(t_end=2.0, h=0.01)
    assert main(["run", write_json(tmp_path / "c.json", cfg), "--out-dir", str(tmp_path)]) == 0
    assert main(["check-graphs", graphs_file(tmp_path), "--window", "2.0"]) == 0
    assert called == ["cli.scenario_from_dict", "metrics.run_report", "cli.write_metrics_json",
                      "cli.check_uniform_joint_connectivity"]
    assert json_sizes == [len((tmp_path / "metrics.json").read_bytes())]
    # The stored-trajectory path, through the names the benchmark wraps, with
    # the results its hooks read: the trajectory, the violations, the report
    # and the rows of a file at the first argument.
    sc = cli.scenario_from_dict(cfg)
    traj = dynamics.simulate(sc)
    assert dynamics.validate_feasibility(traj, sc.protocol, sc.assumption) == []
    report = metrics.build_report(traj, sc.eps_agreement, sc.monitor_mode, sc.tol_monotone)
    assert artifacts.write_trajectory_csv(tmp_path / "t.csv", traj, sc.downsample) == 2 * 201
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "traj.csv").read_bytes()
    assert report.monitor_violations == [] and traj.num_samples == 201
    assert called[4:] == ["cli.scenario_from_dict", "dynamics.simulate",
                          "dynamics.validate_feasibility", "dynamics.validate_feasibility",
                          "metrics.build_report", "artifacts.write_trajectory_csv"]
    # The benchmark also wraps these two (setup_probe.py the spec): they must resolve.
    assert callable(graphs.union_graph) and callable(scenario.ProtocolSpec)


def modules_added_by(code: str) -> tuple[set[str], set[str], set[str]]:
    """Run ``code`` in a fresh interpreter; return the third-party top-level
    packages, the package's own modules and the standard-library modules it
    adds to ``sys.modules`` (site hooks may preload some before it)."""
    script = f"import sys; base = set(sys.modules)\n{code}\nprint(*set(sys.modules) - base)"
    done = fresh_python(script)
    assert done.returncode == 0, done.stderr
    added = done.stdout.splitlines()[-1].split()
    stdlib = {m for m in added if m.split(".")[0] in sys.stdlib_module_names}
    third_party = {m.split(".")[0] for m in added} - set(sys.stdlib_module_names)
    ours = {m.split(".")[1] for m in added if m.startswith("compass_consensus.")}
    return third_party - {"compass_consensus"}, ours, stdlib


class TestCommandImports:
    # Each command imports only the layers it runs. check-graphs needs only
    # graphs, _json and errors; run loads the runtime dependencies in
    # pyproject.toml and no more: no scipy, and no test-only jsonschema.
    # Neither the import nor check-graphs loads the standard library's slow
    # starters: dataclasses (which brings inspect) and logging.
    RUN_LAYERS = {"dynamics", "metrics", "scenario", "protocols", "geometry", "vicsek"}
    SLOW_STDLIB = {"dataclasses", "inspect", "logging"}

    @pytest.mark.parametrize("module", ["compass_consensus", "compass_consensus.cli"])
    def test_import_loads_no_run_layer(self, module):
        third_party, ours, stdlib = modules_added_by(f"import {module}")
        assert third_party == set()
        assert not ours & self.RUN_LAYERS
        assert not stdlib & self.SLOW_STDLIB

    def test_check_graphs_loads_no_third_party_module(self, tmp_path):
        argv = ["check-graphs", graphs_file(tmp_path), "--window", "2.0"]
        third_party, ours, stdlib = modules_added_by(
            f"from compass_consensus.cli import main; assert main({argv!r}) == 0")
        assert third_party == set()
        assert ours == {"cli", "graphs", "_json", "errors"}
        assert not stdlib & self.SLOW_STDLIB

    def test_run_loads_only_runtime_dependencies(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as f:
            deps = tomllib.load(f)["project"]["dependencies"]
        argv = ["run", write_json(tmp_path / "c.json", consensus_config(t_end=1.0)),
                "--out-dir", str(tmp_path)]
        third_party, ours, _stdlib = modules_added_by(
            f"from compass_consensus.cli import main; assert main({argv!r}) == 0")
        assert third_party == {re.match(r"[\w.-]+", dep)[0] for dep in deps}
        assert ours >= {"dynamics", "metrics", "scenario"}
