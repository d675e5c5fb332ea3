import numpy as np
import pytest

from compass_consensus.dynamics import Assumption, simulate
from compass_consensus.errors import ConfigError
from compass_consensus.metrics import MonitorMode
from compass_consensus.protocols import rotation_matrix
from compass_consensus.scenario import (
    SCENARIO_SCHEMA,
    scenario_from_dict,
    scenario_to_dict,
)


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

    def test_schema_is_draft_2020(self):
        assert SCENARIO_SCHEMA["$schema"].endswith("2020-12/schema")
