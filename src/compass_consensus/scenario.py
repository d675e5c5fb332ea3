"""Scenario configuration: JSON schema, loading, and normalization.

A scenario bundles everything one simulation run needs: agent count and
dimension, initial states (explicit or sampled from a seeded box), the
protocol, the graph family, the switching signal, integrator settings, and
the validation/monitor/output options. Configs are JSON objects validated
against ``SCENARIO_SCHEMA``; loading resolves defaults and sampled initial
states so a normalized config echoes back to an equivalent scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np
from jsonschema import Draft202012Validator

from .dynamics import Assumption
from .errors import ConfigError, DomainError
from .graphs import (
    SignedDigraph,
    SwitchingSignal,
    graph_from_json,
    graph_to_json,
    signal_from_json,
    signal_to_json,
    validate_switching_signal,
)
from .metrics import MonitorMode
from .protocols import ProtocolKind, ProtocolSpec

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 1}

GRAPH_SCHEMA = {
    "type": "object",
    "required": ["n", "arcs"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "arcs": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [
                    {"type": "integer", "minimum": 1},
                    {"type": "integer", "minimum": 1},
                    {"enum": [1, -1]},
                ],
                "minItems": 2,
                "maxItems": 3,
            },
        },
        "allow_self_loops": {"type": "boolean"},
    },
}

SIGNAL_SCHEMA = {
    "type": "object",
    "required": ["tau_d", "pieces", "horizon_end"],
    "additionalProperties": False,
    "properties": {
        "tau_d": {"type": "number", "exclusiveMinimum": 0},
        "pieces": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "prefixItems": [{"type": "number"}, {"type": "string"}],
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "horizon_end": {"type": "number"},
        "periodic": {"type": "boolean"},
    },
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "compass-consensus scenario",
    "type": "object",
    "required": ["agents", "protocol", "graphs", "signal", "integrator"],
    "additionalProperties": False,
    "properties": {
        "agents": {
            "type": "object",
            "required": ["n", "d"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "d": {"type": "integer", "minimum": 1},
                "initial_states": {
                    "type": "array",
                    "minItems": 1,
                    "items": _NUMBER_ARRAY,
                },
                "sample": {
                    "type": "object",
                    "required": ["seed", "lo", "hi"],
                    "additionalProperties": False,
                    "properties": {
                        "seed": {"type": "integer", "minimum": 0},
                        "lo": _NUMBER_ARRAY,
                        "hi": _NUMBER_ARRAY,
                    },
                },
            },
        },
        "protocol": {
            "type": "object",
            "required": ["kind", "gamma"],
            "additionalProperties": False,
            "properties": {
                "kind": {
                    "enum": [
                        "WeightedConsensus",
                        "RotatedConsensus",
                        "SignedConsensus",
                    ]
                },
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "weights": {
                    "anyOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "prefixItems": [
                                    {"type": "integer", "minimum": 1},
                                    {"type": "integer", "minimum": 1},
                                    {"type": "number", "exclusiveMinimum": 0},
                                ],
                                "minItems": 3,
                                "maxItems": 3,
                            },
                        },
                    ]
                },
                "rotation": {
                    "anyOf": [
                        {"type": "number"},
                        {"type": "array", "items": {"type": "number"}},
                        {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "number"}},
                        },
                    ]
                },
            },
        },
        "graphs": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": GRAPH_SCHEMA,
        },
        "signal": SIGNAL_SCHEMA,
        "integrator": {
            "type": "object",
            "required": ["h", "t_end"],
            "additionalProperties": False,
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "t_end": {"type": "number"},
            },
        },
        "validation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "assumption": {
                    "enum": [
                        "GammaStrict",
                        "RelativeInterior",
                        "SignedGammaStrict",
                        None,
                    ]
                },
                "face_tolerance": {"type": "number", "minimum": 0},
                "strictness_tolerance": {"type": "number", "minimum": 0},
            },
        },
        "monitors": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["CooperativeBox", "SignedSquare", None]},
                "tol_monotone": {
                    "anyOf": [{"type": "number", "exclusiveMinimum": 0}, {"type": "null"}]
                },
                "eps_agreement": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trajectory_csv": {"type": "string", "minLength": 1},
                "metrics_json": {"type": "string", "minLength": 1},
                "downsample": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_VALIDATOR = Draft202012Validator(SCENARIO_SCHEMA)


@dataclass(eq=False)
class ScenarioConfig:
    """A fully resolved experiment description; building one checks that its
    inputs agree with each other."""

    n: int
    d: int
    initial_states: np.ndarray
    protocol: ProtocolSpec
    signal: SwitchingSignal
    h: float
    t_end: float
    assumption: Assumption | None = None
    face_tolerance: float = 0.0
    strictness_tolerance: float = 1e-12
    monitor_mode: MonitorMode | None = None
    tol_monotone: float | None = None
    eps_agreement: float = 1e-6
    trajectory_csv: str = "trajectory.csv"
    metrics_json: str = "metrics.json"
    downsample: int = 1

    def __post_init__(self):
        """Reject inputs that disagree with each other, with ConfigError at
        the config path of the offending entry."""
        n, d, family, signal = self.n, self.d, self.protocol.family, self.signal
        shape = np.shape(self.initial_states)
        if shape != (n, d):
            raise _fail(
                f"initial_states must be shaped ({n}, {d}), got {shape}",
                "$.agents.initial_states",
            )
        for name, g in family.items():
            if g.n != n:
                raise _fail(
                    f"graph {name!r} has n={g.n}, agents declare n={n}",
                    f"$.graphs.{name}",
                )
        for t, idx in signal.pieces:
            if idx not in family:
                raise _fail(f"piece at t={t} references unknown graph {idx!r}", "$.signal.pieces")
        dwell = validate_switching_signal(signal)
        if dwell:
            raise _fail(f"dwell violations: {'; '.join(map(str, dwell))}", "$.signal")
        try:
            self.protocol.rotations(d)
        except DomainError as exc:
            raise _fail(str(exc), "$.protocol.rotation") from exc
        if not self.h > 0:
            raise _fail("step size h must be positive", "$.integrator.h")
        if self.t_end <= signal.t0:
            raise _fail("t_end must exceed the signal start", "$.integrator.t_end")
        if self.t_end > signal.horizon_end and not signal.periodic:
            raise _fail(
                "t_end exceeds horizon_end of an aperiodic signal",
                "$.integrator.t_end",
            )


def _fail(message: str, fieldpath: str) -> ConfigError:
    return ConfigError(message, field=fieldpath)


def scenario_from_dict(cfg: Mapping, seed_override: int | None = None) -> ScenarioConfig:
    """Validate a config dict against the schema and build a ScenarioConfig.

    ``seed_override`` replaces the sampling seed of sampled initial states
    (it has no effect on explicit initial states).
    """
    errors = sorted(_VALIDATOR.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        e = errors[0]
        raise ConfigError(e.message, field=e.json_path)

    agents = cfg["agents"]
    n, d = int(agents["n"]), int(agents["d"])
    has_explicit = "initial_states" in agents
    has_sample = "sample" in agents
    if has_explicit == has_sample:
        raise _fail(
            "agents needs exactly one of initial_states and sample",
            "$.agents",
        )
    if has_explicit:
        x0 = np.asarray(agents["initial_states"], dtype=float)
    else:
        sample = agents["sample"]
        lo = np.asarray(sample["lo"], dtype=float)
        hi = np.asarray(sample["hi"], dtype=float)
        if lo.shape != (d,) or hi.shape != (d,):
            raise _fail(f"sample box must have {d} entries", "$.agents.sample")
        if np.any(hi < lo):
            raise _fail("sample box needs lo <= hi per axis", "$.agents.sample")
        rng = np.random.default_rng(int(sample["seed"] if seed_override is None else seed_override))
        x0 = lo + rng.random((n, d)) * (hi - lo)

    try:
        family = {name: graph_from_json(g) for name, g in cfg["graphs"].items()}
    except DomainError as exc:
        raise _fail(str(exc), "$.graphs") from exc
    try:
        signal = signal_from_json(cfg["signal"])
    except DomainError as exc:
        raise _fail(str(exc), "$.signal") from exc

    proto_cfg = cfg["protocol"]
    weights: float | dict = proto_cfg.get("weights", 1.0)
    if isinstance(weights, list):
        weights = {(int(j), int(i)): float(w) for j, i, w in weights}
    try:
        protocol = ProtocolSpec(
            kind=ProtocolKind(proto_cfg["kind"]),
            family=family,
            gamma=float(proto_cfg["gamma"]),
            weights=weights,
            rotation=proto_cfg.get("rotation"),
        )
    except DomainError as exc:
        raise _fail(str(exc), "$.protocol") from exc

    integ = cfg["integrator"]
    val = cfg.get("validation", {})
    assumption = val.get("assumption")
    monitors = cfg.get("monitors", {})
    mode = monitors.get("mode")
    outputs = cfg.get("outputs", {})
    return ScenarioConfig(
        n=n,
        d=d,
        initial_states=x0,
        protocol=protocol,
        signal=signal,
        h=float(integ["h"]),
        t_end=float(integ["t_end"]),
        assumption=Assumption(assumption) if assumption else None,
        face_tolerance=float(val.get("face_tolerance", 0.0)),
        strictness_tolerance=float(val.get("strictness_tolerance", 1e-12)),
        monitor_mode=MonitorMode(mode) if mode else None,
        tol_monotone=monitors.get("tol_monotone"),
        eps_agreement=float(monitors.get("eps_agreement", 1e-6)),
        trajectory_csv=outputs.get("trajectory_csv", "trajectory.csv"),
        metrics_json=outputs.get("metrics_json", "metrics.json"),
        downsample=int(outputs.get("downsample", 1)),
    )


def scenario_to_dict(sc: ScenarioConfig) -> dict:
    """Normalized config dict; initial states are always explicit."""
    if isinstance(sc.protocol.weights, Mapping):
        weights: Any = sorted(
            [j, i, float(w)] for (j, i), w in sc.protocol.weights.items()
        )
    else:
        weights = float(sc.protocol.weights)
    proto: dict[str, Any] = {
        "kind": sc.protocol.kind.value,
        "gamma": sc.protocol.gamma,
        "weights": weights,
    }
    if sc.protocol.rotation is not None:
        rot = sc.protocol.rotation
        proto["rotation"] = rot if np.isscalar(rot) else np.asarray(rot).tolist()
    return {
        "agents": {
            "n": sc.n,
            "d": sc.d,
            "initial_states": np.asarray(sc.initial_states).tolist(),
        },
        "protocol": proto,
        "graphs": {name: graph_to_json(g) for name, g in sc.protocol.family.items()},
        "signal": signal_to_json(sc.signal),
        "integrator": {"h": sc.h, "t_end": sc.t_end},
        "validation": {
            "assumption": sc.assumption.value if sc.assumption else None,
            "face_tolerance": sc.face_tolerance,
            "strictness_tolerance": sc.strictness_tolerance,
        },
        "monitors": {
            "mode": sc.monitor_mode.value if sc.monitor_mode else None,
            "tol_monotone": sc.tol_monotone,
            "eps_agreement": sc.eps_agreement,
        },
        "outputs": {
            "trajectory_csv": sc.trajectory_csv,
            "metrics_json": sc.metrics_json,
            "downsample": sc.downsample,
        },
    }
