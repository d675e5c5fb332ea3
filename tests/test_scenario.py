from dataclasses import replace

import numpy as np
import pytest

from compass_consensus.dynamics import Assumption, fields_along, simulate
from compass_consensus.errors import ConfigError, DomainError
from compass_consensus.graphs import SwitchingSignal, complete_graph
from compass_consensus.metrics import MonitorMode
from compass_consensus.protocols import ProtocolSpec, rotation_matrix
from compass_consensus.scenario import ScenarioConfig, scenario_from_dict, scenario_to_dict


def base_config():
    return {
        "agents": {"n": 2, "d": 1, "initial_states": [[0.0], [2.0]]},
        "protocol": {"kind": "WeightedConsensus", "gamma": 1.0, "weights": 1.0},
        "graphs": {"g": {"n": 2, "arcs": [[1, 2, 1], [2, 1, 1]]}},
        "signal": {
            "tau_d": 1.0,
            "pieces": [[0.0, "g"]],
            "horizon_end": 10.0,
            "periodic": False,
        },
        "integrator": {"h": 0.001, "t_end": 10.0},
        "validation": {"assumption": "GammaStrict"},
        "monitors": {"mode": "CooperativeBox", "eps_agreement": 1e-6},
        "outputs": {"trajectory_csv": "t.csv", "metrics_json": "m.json"},
    }


class TestScenarioLoading:
    def test_valid_config(self):
        sc = scenario_from_dict(base_config())
        assert sc.n == 2 and sc.d == 1
        assert sc.assumption is Assumption.GAMMA_STRICT
        assert sc.monitor_mode is MonitorMode.COOPERATIVE_BOX
        assert sc.face_tolerance == 0.0
        assert sc.downsample == 1

    def test_negative_gamma_rejected(self):
        cfg = base_config()
        cfg["protocol"]["gamma"] = -1.0
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(cfg)
        assert "gamma" in str(err.value)

    def test_unknown_key_rejected(self):
        cfg = base_config()
        cfg["extra"] = 1
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)

    def test_missing_section_rejected(self):
        cfg = base_config()
        del cfg["integrator"]
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)

    def test_shape_mismatch_rejected(self):
        cfg = base_config()
        cfg["agents"]["initial_states"] = [[0.0, 1.0], [2.0, 3.0]]
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(cfg)
        assert "initial_states" in str(err.value)

    def test_unknown_graph_reference_rejected(self):
        cfg = base_config()
        cfg["signal"]["pieces"] = [[0.0, "nope"]]
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)

    def test_graph_node_count_mismatch_rejected(self):
        cfg = base_config()
        cfg["graphs"]["g"]["n"] = 3
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)

    def test_dwell_violation_rejected(self):
        cfg = base_config()
        cfg["signal"]["pieces"] = [[0.0, "g"], [0.2, "g"]]
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)

    def test_t_end_beyond_horizon_rejected(self):
        cfg = base_config()
        cfg["integrator"]["t_end"] = 11.0
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)

    def test_t_end_beyond_horizon_ok_when_periodic(self):
        cfg = base_config()
        cfg["signal"]["periodic"] = True
        cfg["integrator"]["t_end"] = 11.0
        sc = scenario_from_dict(cfg)
        assert sc.t_end == 11.0

    def test_exactly_one_initial_state_source(self):
        cfg = base_config()
        del cfg["agents"]["initial_states"]
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)
        cfg["agents"]["sample"] = {"seed": 3, "lo": [0.0], "hi": [1.0]}
        cfg["agents"]["initial_states"] = [[0.0], [2.0]]
        with pytest.raises(ConfigError):
            scenario_from_dict(cfg)

    def test_sampled_states_deterministic(self):
        cfg = base_config()
        del cfg["agents"]["initial_states"]
        cfg["agents"]["sample"] = {"seed": 11, "lo": [0.0], "hi": [1.0]}
        a = scenario_from_dict(cfg).initial_states
        b = scenario_from_dict(cfg).initial_states
        assert np.array_equal(a, b)
        assert np.all(a >= 0.0) and np.all(a <= 1.0)

    def test_seed_override(self):
        cfg = base_config()
        del cfg["agents"]["initial_states"]
        cfg["agents"]["sample"] = {"seed": 11, "lo": [0.0], "hi": [1.0]}
        a = scenario_from_dict(cfg).initial_states
        b = scenario_from_dict(cfg, seed_override=12).initial_states
        assert not np.array_equal(a, b)

    def test_weight_triples(self):
        cfg = base_config()
        cfg["protocol"]["weights"] = [[1, 2, 3.0], [2, 1, 0.5]]
        sc = scenario_from_dict(cfg)
        assert sc.protocol.weight(1, 2) == 3.0
        assert sc.protocol.weight(2, 1) == 0.5


def rotated_config(n, d, rotation):
    arcs = [[j, i, 1] for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
    return {
        "agents": {"n": n, "d": d, "initial_states": np.eye(n, d).tolist()},
        "protocol": {"kind": "RotatedConsensus", "gamma": 1e-3, "rotation": rotation},
        "graphs": {"g": {"n": n, "arcs": arcs}},
        "signal": {"tau_d": 1.0, "pieces": [[0.0, "g"]], "horizon_end": 1.0},
        "integrator": {"h": 0.01, "t_end": 1.0},
    }


class TestRotation:
    @pytest.mark.parametrize("n, d, rotation, per_agent", [
        # one shared angle set, also when n = d(d-1)/2
        (3, 3, [0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]] * 3),
        (4, 3, [0.1, 0.2, 0.3], [[0.1, 0.2, 0.3]] * 4),
        (3, 2, 0.4, [0.4] * 3),
        (1, 2, [0.4], [0.4]),
        # per-agent angles (d = 2) and per-agent angle sets
        (3, 2, [0.1, 0.2, 0.3], [0.1, 0.2, 0.3]),
        (3, 3, [[0.1, 0.2, 0.3], [-0.3, 0.0, 0.5], [0.0, 0.0, 0.2]],
         [[0.1, 0.2, 0.3], [-0.3, 0.0, 0.5], [0.0, 0.0, 0.2]]),
    ])
    def test_rotation_forms(self, n, d, rotation, per_agent):
        sc = scenario_from_dict(rotated_config(n, d, rotation))
        x = np.random.default_rng(0).normal(size=(n, d))
        F = sc.protocol.operator("g") @ x
        want = np.stack([rotation_matrix(a, d) @ F[i] for i, a in enumerate(per_agent)])
        assert np.allclose(sc.protocol.field("g", x.ravel()), want.ravel())
        # the normalized echo loads to the same rotations
        sc2 = scenario_from_dict(scenario_to_dict(sc))
        assert np.array_equal(sc2.protocol.field("g", x.ravel()), sc.protocol.field("g", x.ravel()))

    @pytest.mark.parametrize("n, d, rotation", [
        (2, 3, 0.4), (2, 1, 0.4), (2, 2, [0.1, 0.2, 0.3]), (3, 3, [[0.1], [0.2], [0.3]]),
    ])
    def test_rotation_of_another_dimension_rejected(self, n, d, rotation):
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(rotated_config(n, d, rotation))
        assert err.value.field == "$.protocol.rotation"

    def test_library_spec_reads_a_flat_angle_set_as_shared(self):
        # n = d(d-1)/2 = 3: the list is one d = 3 angle set, not three d = 2 angles
        spec = ProtocolSpec(
            kind="RotatedConsensus", family={"g": complete_graph(3)}, gamma=1e-3,
            rotation=[0.1, 0.2, 0.3],
        )
        sc = ScenarioConfig(
            n=3, d=3, initial_states=np.eye(3), protocol=spec,
            signal=SwitchingSignal([(0.0, "g")], tau_d=1.0, horizon_end=1.0),
            h=0.01, t_end=1.0,
        )
        traj = simulate(sc)
        R = rotation_matrix([0.1, 0.2, 0.3], 3)
        F = spec.operator("g") @ traj.blocks()
        assert np.allclose(fields_along(traj, spec), F @ R.T, rtol=0, atol=1e-12)


class TestCrossFieldChecks:
    """ScenarioConfig owns every cross-field check and names the config path."""

    @pytest.mark.parametrize("make, path", [
        (lambda c: c["agents"].update(initial_states=[[0.0, 1.0], [2.0, 3.0]]),
         "$.agents.initial_states"),
        (lambda c: c["graphs"]["g"].update(n=3), "$.graphs.g"),
        (lambda c: c["signal"].update(pieces=[[0.0, "zz"]]), "$.signal.pieces"),
        (lambda c: c["signal"].update(pieces=[[0.0, "g"], [0.2, "g"]]), "$.signal"),
        (lambda c: c["integrator"].update(t_end=0.0), "$.integrator.t_end"),
        (lambda c: c["integrator"].update(t_end=11.0), "$.integrator.t_end"),
        (lambda c: c.update(rotated_config(3, 2, [0.1, 0.2, 0.3, 0.4, 0.5])),
         "$.protocol.rotation"),
        (lambda c: c.update(rotated_config(3, 3, [[0.1, 0.2, 0.3]] * 2 + [[0.1]])),
         "$.protocol.rotation"),
        (lambda c: c["graphs"]["g"]["arcs"].append([1, 3, 1]), "$.graphs.g"),
        (lambda c: c["signal"].update(horizon_end=0.0), "$.signal"),
    ], ids=["state-shape", "graph-nodes", "unknown-label", "dwell", "t_end-before-start",
            "t_end-past-horizon", "rotation-count", "rotation-shape", "arc-node", "horizon"])
    def test_config_path_of_each_failure(self, make, path):
        cfg = base_config()
        make(cfg)
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(cfg)
        assert err.value.field == path

    @pytest.mark.parametrize("changes, path", [
        ({"signal": SwitchingSignal([(0.0, "zz")], tau_d=1.0, horizon_end=10.0)},
         "$.signal.pieces"),
        ({"n": 4, "initial_states": np.zeros((4, 1))}, "$.graphs.g"),
        ({"h": 0.0}, "$.integrator.h"),
    ], ids=["unknown-label", "agents-over-graph", "h"])
    def test_library_config_rejected_when_built(self, changes, path):
        sc = scenario_from_dict(base_config())
        with pytest.raises(DomainError) as err:
            replace(sc, **changes)
        assert err.value.field == path


class TestRoundTrip:
    def test_dump_reparses_equivalent(self):
        sc = scenario_from_dict(base_config())
        dumped = scenario_to_dict(sc)
        sc2 = scenario_from_dict(dumped)
        assert np.array_equal(sc.initial_states, sc2.initial_states)
        assert sc.protocol.kind == sc2.protocol.kind
        assert sc.protocol.family == sc2.protocol.family
        assert sc.signal == sc2.signal
        assert (sc.h, sc.t_end) == (sc2.h, sc2.t_end)
        assert sc.assumption == sc2.assumption
        assert sc.monitor_mode == sc2.monitor_mode

    def test_sampled_states_become_explicit(self):
        cfg = base_config()
        del cfg["agents"]["initial_states"]
        cfg["agents"]["sample"] = {"seed": 5, "lo": [0.0], "hi": [1.0]}
        sc = scenario_from_dict(cfg)
        dumped = scenario_to_dict(sc)
        assert "sample" not in dumped["agents"]
        sc2 = scenario_from_dict(dumped)
        assert np.array_equal(sc.initial_states, sc2.initial_states)

    def test_simulation_equivalence_after_round_trip(self):
        cfg = base_config()
        cfg["integrator"]["t_end"] = 1.0
        sc = scenario_from_dict(cfg)
        sc2 = scenario_from_dict(scenario_to_dict(sc))
        t1, t2 = simulate(sc), simulate(sc2)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.times, t2.times)
