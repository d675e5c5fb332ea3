"""Compass-based multi-agent agreement protocols.

Geometry of supporting hyperrectangles and strict tangent cones, switched
consensus dynamics over time-varying signed digraphs, feasibility validation,
agreement metrics, and a scenario-driven CLI.
"""

from .errors import (
    CompassError,
    ConfigError,
    DivergenceError,
    DomainError,
    InsufficientHorizonError,
    OutsideBoxError,
)
from .geometry import (
    ConeQuery,
    Hyperrectangle,
    PointClassification,
    Region,
    classify_point,
    cone_membership_probe,
    gamma_cone_contains,
    relative_interior_cone_contains,
    rho,
    side_lengths,
    supporting_hyperrectangle,
    tangent_cone_contains,
)
from .graphs import (
    ConnectivityMode,
    ConnectivityVerdict,
    DwellViolation,
    SignedDigraph,
    SwitchingSignal,
    chain_graph,
    check_uniform_joint_connectivity,
    complete_graph,
    graph_from_json,
    graph_to_json,
    is_quasi_strongly_connected,
    is_strongly_connected,
    ring_graph,
    signal_from_json,
    signal_to_json,
    star_graph,
    union_graph,
    validate_switching_signal,
)
from .protocols import (
    ProtocolKind,
    ProtocolSpec,
    rotation_matrix,
)
from .vicsek import (
    VicsekState,
    complete_neighbors,
    heading_spread,
    radius_neighbors,
    simulate_vicsek,
    vicsek_step,
)
from .dynamics import (
    Assumption,
    FeasibilityViolation,
    Trajectory,
    empirical_gamma_margin,
    fields_along,
    simulate,
    validate_feasibility,
)
from .metrics import (
    AgreementReport,
    AgreementVerdict,
    MonitorMode,
    MonitorViolation,
    RateBound,
    RateFit,
    absolute_value_agreement,
    abs_spread_series,
    agreement_verdict,
    build_report,
    diameters_series,
    fit_exponential_rate,
    lyapunov_series,
    monotonicity_monitor,
    rate_bound,
    square_max_series,
    t_bar_from_window,
)
from .scenario import ScenarioConfig, scenario_from_dict, scenario_to_dict

__version__ = "0.1.0"
