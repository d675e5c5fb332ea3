"""Scenario configuration: loading, checking, and normalization.

A scenario bundles everything one simulation run needs: agent count and
dimension, initial states (explicit or sampled from a seeded box), the
protocol, the graph family, the switching signal, integrator settings, and
the validation/monitor/output options. Configs are JSON objects checked entry
by entry: a malformed entry, a non-finite number among them, raises
``ConfigError`` at its ``$.…`` path. Loading resolves defaults and sampled
initial states so a normalized config echoes back to an equivalent scenario.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import Any, Mapping

import numpy as np

from . import _json
from .dynamics import Assumption
from .errors import DomainError, integer, member, real, reals
from .graphs import (
    SignedDigraph,
    SwitchingSignal,
    graph_args,
    graph_to_json,
    signal_args,
    signal_to_json,
    validate_switching_signal,
)
from .metrics import MonitorMode
from .protocols import ProtocolSpec


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
        self.initial_states = _json.build(
            reals, "$.agents.initial_states", "initial_states", self.initial_states, (n, d)
        )
        for name, g in family.items():
            if g.n != n:
                raise _json.fail(
                    f"graph {name!r} has n={g.n}, agents declare n={n}",
                    _json.path("$.graphs", str(name)),
                )
        for t, idx in signal.pieces:
            if idx not in family:
                raise _json.fail(
                    f"piece at t={t} references unknown graph {idx!r}", "$.signal.pieces"
                )
        dwell = validate_switching_signal(signal)
        if dwell:
            raise _json.fail(f"dwell violations: {'; '.join(map(str, dwell))}", "$.signal")
        try:
            self.protocol.rotations(d)
        except DomainError as exc:
            raise _json.fail(str(exc), "$.protocol.rotation") from exc
        for section, key, name, rule in _SETTINGS:
            at, value = f"$.{section}.{key}", getattr(self, name)
            if rule is int:
                value = _json.build(integer, at, name, value)
                if value < 1:
                    raise _json.fail(f"must be at least 1, got {value}", at)
            elif isinstance(rule, dict) and (value is not None or _DEFAULTS[name] is not None):
                checked = _json.build(real, at, name, value, rule.get("above"), rule.get("minimum"))
                if _DEFAULTS[name] is not None:  # a null-default number is kept as given
                    value = checked
            elif rule is str:
                _json.string(value, at, min_len=1)
            elif value is not None:  # an Enum: a member or its value, stored as the member
                value = _json.build(member, at, name, value, rule)
            setattr(self, name, value)
        at = "$.integrator.t_end"
        if not signal.t0 < self.t_end:
            raise _json.fail(f"t_end must exceed the signal start {signal.t0}", at)
        if self.t_end > signal.horizon_end and not signal.periodic:
            raise _json.fail("t_end exceeds horizon_end of an aperiodic signal", at)


_DEFAULTS = {f.name: f.default for f in fields(ScenarioConfig)}  # MISSING: a required setting

# Each setting once, as (section, key, ScenarioConfig field, rule). A rule is
# the bounds of a real number, int for a count of at least 1, str for a
# non-empty name, or an Enum read from its value or null. A number whose
# default is None may be null, and is kept as written: dump-config echoes it.
_SETTINGS = (
    ("integrator", "h", "h", {"above": 0}),
    ("integrator", "t_end", "t_end", {}),
    ("validation", "assumption", "assumption", Assumption),
    ("validation", "face_tolerance", "face_tolerance", {"minimum": 0}),
    ("validation", "strictness_tolerance", "strictness_tolerance", {"minimum": 0}),
    ("monitors", "mode", "monitor_mode", MonitorMode),
    ("monitors", "tol_monotone", "tol_monotone", {"above": 0}),
    ("monitors", "eps_agreement", "eps_agreement", {"above": 0}),
    ("outputs", "trajectory_csv", "trajectory_csv", str),
    ("outputs", "metrics_json", "metrics_json", str),
    ("outputs", "downsample", "downsample", int),
)
_KINDS = ("WeightedConsensus", "RotatedConsensus", "SignedConsensus")


def scenario_from_dict(cfg: Mapping, seed_override: int | None = None) -> ScenarioConfig:
    """Check a config dict entry by entry and build a ScenarioConfig.

    Every entry is checked before anything is built, so a malformed entry is
    reported before any disagreement between entries. ``seed_override``
    replaces the sampling seed of sampled initial states (it has no effect on
    explicit initial states).
    """
    sections = ("agents", "protocol", "graphs", "signal", "integrator")
    _json.obj(cfg, "$", required=sections, allowed=("validation", "monitors", "outputs"))
    agents = _json.obj(
        cfg["agents"], "$.agents", required=("n", "d"), allowed=("initial_states", "sample")
    )
    n = _json.integer(agents["n"], "$.agents", "n", minimum=1)
    d = _json.integer(agents["d"], "$.agents", "d", minimum=1)
    if "initial_states" in agents:
        rows = _json.array(agents["initial_states"], "$.agents", "initial_states", min_len=1)
        rows = [_json.numbers(row, "$.agents.initial_states", k) for k, row in enumerate(rows)]
    if "sample" in agents:
        at = "$.agents.sample"
        sample = _json.obj(agents["sample"], at, required=("seed", "lo", "hi"), allowed=())
        seed = _json.integer(sample["seed"], at, "seed", minimum=0)
        lo, hi = (np.array(_json.numbers(sample[k], at, k)) for k in ("lo", "hi"))

    proto = _json.obj(
        cfg["protocol"], "$.protocol", required=("kind", "gamma"), allowed=("weights", "rotation")
    )
    kind = _json.enum(proto["kind"], _KINDS, "$.protocol", "kind")
    gamma = _json.number(proto["gamma"], "$.protocol", "gamma", above=0)
    weights = _weights(proto.get("weights", 1.0))
    if "rotation" in proto:
        _check_rotation(proto["rotation"])
    if not _json.obj(cfg["graphs"], "$.graphs"):
        raise _json.fail("needs at least one graph", "$.graphs")
    at = {name: _json.path("$.graphs", str(name)) for name in cfg["graphs"]}
    graph_fields = {name: graph_args(g, at[name]) for name, g in cfg["graphs"].items()}
    signal_fields = signal_args(cfg["signal"], "$.signal")
    settings = _settings(cfg)

    if ("initial_states" in agents) == ("sample" in agents):
        raise _json.fail("agents needs exactly one of initial_states and sample", "$.agents")
    if "initial_states" in agents:
        x0 = rows  # ScenarioConfig checks their shape
    else:
        if lo.shape != (d,) or hi.shape != (d,):
            raise _json.fail(f"sample box must have {d} entries", "$.agents.sample")
        if np.any(hi < lo):
            raise _json.fail("sample box needs lo <= hi per axis", "$.agents.sample")
        rng = np.random.default_rng(seed if seed_override is None else int(seed_override))
        try:
            x0 = lo + rng.random((n, d)) * (hi - lo)
        except ValueError as exc:  # numpy refuses the shape without allocating
            raise _json.fail(f"too many agents to sample: {exc}", "$.agents", "n") from exc
    family = {name: _json.build(SignedDigraph, at[name], *f) for name, f in graph_fields.items()}
    signal = _json.build(SwitchingSignal, "$.signal", *signal_fields)
    rotation = proto.get("rotation")
    protocol = _json.build(ProtocolSpec, "$.protocol", kind, family, gamma, weights, rotation)
    return ScenarioConfig(n, d, x0, protocol, signal, **settings)


def _weights(value: Any) -> float | dict:
    """One positive weight, or a map (j, i) -> weight from [j, i, w] triples."""
    if not isinstance(value, list):
        return _json.number(value, "$.protocol", "weights", above=0)
    at, weights = "$.protocol.weights", {}
    for k, triple in enumerate(value):
        j, i, w = _json.array(triple, at, k, min_len=3, max_len=3)
        j, i = _json.integer(j, at, k, 0, minimum=1), _json.integer(i, at, k, 1, minimum=1)
        weights[j, i] = _json.number(w, at, k, 2, above=0)
    return weights


def _check_rotation(value: Any) -> None:
    """A number, an array of numbers, or an array of arrays of numbers."""
    if not isinstance(value, list):
        _json.number(value, "$.protocol", "rotation")
    elif all(isinstance(entry, list) for entry in value):
        for k, entry in enumerate(value):
            _json.numbers(entry, "$.protocol.rotation", k, min_len=0)
    else:
        _json.numbers(value, "$.protocol", "rotation", min_len=0)


def _settings(cfg: Mapping) -> dict:
    """ScenarioConfig keywords from the settings sections: every section's keys
    are checked, then each entry by its row's rule; an absent one is left to
    its field's default."""
    for section in dict.fromkeys([row[0] for row in _SETTINGS]):
        keys = [(key, _DEFAULTS[name]) for s, key, name, _rule in _SETTINGS if s == section]
        _json.obj(cfg.get(section, {}), f"$.{section}", allowed=[k for k, _d in keys],
                  required=[k for k, default in keys if default is MISSING])
    settings = {}
    for section, key, name, rule in _SETTINGS:
        at, entries = f"$.{section}", cfg.get(section, {})
        if key not in entries:
            continue
        value = entries[key]
        if isinstance(rule, dict):
            if value is not None or _DEFAULTS[name] is not None:
                _json.number(value, at, key, **rule)  # ScenarioConfig makes it a float
        elif rule is int:
            value = _json.integer(value, at, key, minimum=1)
        elif rule is str:
            _json.string(value, at, key, min_len=1)
        else:
            value = _json.enum(value, (*(m.value for m in rule), None), at, key)
            value = rule(value) if value else None
        settings[name] = value
    return settings


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
    cfg = {
        "agents": {
            "n": sc.n,
            "d": sc.d,
            "initial_states": sc.initial_states.tolist(),
        },
        "protocol": proto,
        "graphs": {name: graph_to_json(g) for name, g in sc.protocol.family.items()},
        "signal": signal_to_json(sc.signal),
    }
    for section, key, name, _rule in _SETTINGS:
        value = getattr(sc, name)
        cfg.setdefault(section, {})[key] = value.value if isinstance(value, Enum) else value
    return cfg
