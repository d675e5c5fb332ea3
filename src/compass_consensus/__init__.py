"""Compass-based multi-agent agreement protocols.

Geometry of supporting hyperrectangles and strict tangent cones, switched
consensus dynamics over time-varying signed digraphs, feasibility validation,
agreement metrics, and a scenario-driven CLI.

The namespace is lazy (PEP 562): each exported name, and each module below,
is imported on first access, so a caller loads only the layers it uses.
"""

import importlib

_EXPORTS = {
    "errors": """CompassError ConfigError DivergenceError DomainError
        InsufficientHorizonError OutsideBoxError""",
    "geometry": """ConeQuery Hyperrectangle PointClassification Region classify_point
        cone_membership_probe gamma_cone_contains relative_interior_cone_contains rho
        side_lengths supporting_hyperrectangle tangent_cone_contains""",
    "graphs": """ConnectivityMode ConnectivityVerdict DwellViolation SignedDigraph
        SwitchingSignal chain_graph check_uniform_joint_connectivity complete_graph
        graph_from_json graph_to_json is_quasi_strongly_connected is_strongly_connected
        ring_graph signal_from_json signal_to_json star_graph union_graph
        validate_switching_signal""",
    "protocols": "ProtocolKind ProtocolSpec rotation_matrix",
    "vicsek": """VicsekState complete_neighbors heading_spread radius_neighbors
        simulate_vicsek vicsek_step""",
    "dynamics": """Assumption FeasibilityViolation Trajectory empirical_gamma_margin
        fields_along simulate validate_feasibility""",
    "metrics": """AgreementReport AgreementVerdict MonitorMode MonitorViolation RateBound
        RateFit absolute_value_agreement abs_spread_series agreement_verdict build_report
        diameters_series fit_exponential_rate lyapunov_series monotonicity_monitor
        rate_bound square_max_series t_bar_from_window""",
    "scenario": "ScenarioConfig scenario_from_dict scenario_to_dict",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
