import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compass_consensus
from compass_consensus.cli import build_parser, main, write_trajectory_csv
from compass_consensus.dynamics import Trajectory
from compass_consensus.errors import DomainError
from helpers import label_runs
from test_scenario import rotated_config

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


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
    # perfbench/run.py times each layer by wrapping these module attributes,
    # and skips a name that no longer exists: a rename would zero its metric
    # silently. Each must still be called by one `run` and one `check-graphs`.
    from compass_consensus import cli, dynamics, graphs, metrics, scenario

    called, json_calls = set(), []
    for owner, attr in [
        (cli, "scenario_from_dict"), (cli, "simulate"), (cli, "write_trajectory_csv"),
        (cli, "write_metrics_json"), (cli, "check_uniform_joint_connectivity"),
        (dynamics, "validate_feasibility"), (metrics, "build_report"),
    ]:
        def counted(*args, _fn=getattr(owner, attr), _name=f"{owner.__name__}.{attr}", **kwargs):
            called.add(_name)
            if _name.endswith(".write_metrics_json"):
                json_calls.append((args, kwargs))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    cfg = write_json(tmp_path / "c.json", consensus_config(t_end=2.0, h=0.01))
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
    assert main(["check-graphs", graphs_file(tmp_path), "--window", "2.0"]) == 0
    assert called == {
        f"compass_consensus.{name}" for name in [
            "cli.scenario_from_dict", "cli.simulate", "cli.write_trajectory_csv",
            "cli.write_metrics_json", "cli.check_uniform_joint_connectivity",
            "dynamics.validate_feasibility", "metrics.build_report",
        ]
    }
    # `cli.json_s` times the whole writer, and `cli.json_bytes` reads the file
    # at its first argument: the CLI must hand it (path, dict) and nothing else.
    [(args, kwargs)] = json_calls
    assert kwargs == {} and len(args) == 2 and type(args[1]) is dict
    assert os.path.getsize(args[0]) == len((tmp_path / "metrics.json").read_bytes()) > 0
    # The benchmark also wraps these two (setup_probe.py the spec): they must resolve.
    assert callable(graphs.union_graph) and callable(scenario.ProtocolSpec)


SRC = Path(compass_consensus.__file__).parents[1]


def modules_added_by(code: str) -> tuple[set[str], set[str]]:
    """Run ``code`` in a fresh interpreter; return the third-party top-level
    packages and the package's own modules it adds to ``sys.modules`` (site
    hooks may preload some before it)."""
    script = f"import sys; base = set(sys.modules)\n{code}\nprint(*set(sys.modules) - base)"
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    ).stdout
    added = out.splitlines()[-1].split()
    third_party = {m.split(".")[0] for m in added} - set(sys.stdlib_module_names)
    ours = {m.split(".")[1] for m in added if m.startswith("compass_consensus.")}
    return third_party - {"compass_consensus"}, ours


class TestCommandImports:
    # Each command imports only the layers it runs. check-graphs needs only
    # graphs, _json and errors; run loads the runtime dependencies in
    # pyproject.toml and no more: no scipy, and no test-only jsonschema.
    RUN_LAYERS = {"dynamics", "metrics", "scenario", "protocols", "geometry", "vicsek"}

    @pytest.mark.parametrize("module", ["compass_consensus", "compass_consensus.cli"])
    def test_import_loads_no_run_layer(self, module):
        third_party, ours = modules_added_by(f"import {module}")
        assert third_party == set()
        assert not ours & self.RUN_LAYERS

    def test_check_graphs_loads_no_third_party_module(self, tmp_path):
        argv = ["check-graphs", graphs_file(tmp_path), "--window", "2.0"]
        third_party, ours = modules_added_by(
            f"from compass_consensus.cli import main; assert main({argv!r}) == 0")
        assert third_party == set()
        assert ours == {"cli", "graphs", "_json", "errors"}

    def test_run_loads_only_runtime_dependencies(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as f:
            deps = tomllib.load(f)["project"]["dependencies"]
        argv = ["run", write_json(tmp_path / "c.json", consensus_config(t_end=1.0)),
                "--out-dir", str(tmp_path)]
        third_party, ours = modules_added_by(
            f"from compass_consensus.cli import main; assert main({argv!r}) == 0")
        assert third_party == {re.match(r"[\w.-]+", dep)[0] for dep in deps}
        assert ours >= {"dynamics", "metrics", "scenario"}
