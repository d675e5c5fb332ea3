"""The package's public namespace: which names it exports and what they are."""

import importlib
import sys

import pytest

import compass_consensus

EXPORTED = [
    "AgreementReport", "AgreementVerdict", "Assumption", "CompassError", "ConeQuery",
    "ConfigError", "ConnectivityMode", "ConnectivityVerdict", "DivergenceError", "DomainError",
    "DwellViolation", "FeasibilityViolation", "Hyperrectangle", "InsufficientHorizonError",
    "MonitorMode", "MonitorViolation", "OutsideBoxError", "PointClassification", "ProtocolKind",
    "ProtocolSpec", "RateBound", "RateFit", "Region", "ScenarioConfig", "SignedDigraph",
    "SwitchingSignal", "Trajectory", "VicsekState", "abs_spread_series",
    "absolute_value_agreement", "agreement_verdict", "build_report", "chain_graph",
    "check_uniform_joint_connectivity", "classify_point", "complete_graph",
    "complete_neighbors", "cone_membership_probe", "diameters_series", "empirical_gamma_margin",
    "fields_along", "fit_exponential_rate", "gamma_cone_contains", "graph_from_json",
    "graph_to_json", "heading_spread", "is_quasi_strongly_connected", "is_strongly_connected",
    "lyapunov_series", "monotonicity_monitor", "radius_neighbors", "rate_bound",
    "relative_interior_cone_contains", "rho", "ring_graph", "rotation_matrix",
    "scenario_from_dict", "scenario_to_dict", "side_lengths", "signal_from_json",
    "signal_to_json", "simulate", "simulate_vicsek", "square_max_series", "star_graph",
    "supporting_hyperrectangle", "t_bar_from_window", "tangent_cone_contains", "union_graph",
    "validate_feasibility", "validate_switching_signal", "vicsek_step",
]
MODULES = ["errors", "geometry", "graphs", "protocols", "vicsek", "dynamics", "metrics",
           "scenario"]


def test_all_lists_the_exported_names():
    assert sorted(compass_consensus.__all__) == EXPORTED
    assert set(EXPORTED) <= set(dir(compass_consensus))
    assert compass_consensus.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTED)
def test_name_is_the_object_its_module_defines(name):
    value = getattr(compass_consensus, name)
    module = value.__module__
    assert module.split(".")[:1] == ["compass_consensus"] and module.count(".") == 1
    assert getattr(sys.modules[module], name) is value


@pytest.mark.parametrize("module", MODULES)
def test_submodules_resolve_as_attributes(module):
    assert getattr(compass_consensus, module) is importlib.import_module(f"compass_consensus.{module}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        compass_consensus.no_such_name  # noqa: B018


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from compass_consensus import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(EXPORTED)
    assert all(namespace[name] is getattr(compass_consensus, name) for name in EXPORTED)
