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

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from . import _json
from .dynamics import Assumption
from .errors import DomainError
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
        shape = np.shape(self.initial_states)
        if shape != (n, d):
            raise _json.fail(
                f"initial_states must be shaped ({n}, {d}), got {shape}",
                "$.agents.initial_states",
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
        if not self.h > 0:
            raise _json.fail("step size h must be positive", "$.integrator.h")
        if self.t_end <= signal.t0:
            raise _json.fail("t_end must exceed the signal start", "$.integrator.t_end")
        if self.t_end > signal.horizon_end and not signal.periodic:
            raise _json.fail(
                "t_end exceeds horizon_end of an aperiodic signal",
                "$.integrator.t_end",
            )


_KINDS = ("WeightedConsensus", "RotatedConsensus", "SignedConsensus")
_ASSUMPTIONS = (*(a.value for a in Assumption), None)
_MONITOR_MODES = (*(m.value for m in MonitorMode), None)


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
        if len({len(row) for row in rows}) > 1:
            raise _json.fail("rows must all have the same length", "$.agents.initial_states")
        x0 = np.array(rows)
    else:
        if lo.shape != (d,) or hi.shape != (d,):
            raise _json.fail(f"sample box must have {d} entries", "$.agents.sample")
        if np.any(hi < lo):
            raise _json.fail("sample box needs lo <= hi per axis", "$.agents.sample")
        rng = np.random.default_rng(seed if seed_override is None else int(seed_override))
        x0 = lo + rng.random((n, d)) * (hi - lo)
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
    """ScenarioConfig keywords from the integrator, validation, monitors and
    outputs sections."""
    integ = _json.obj(cfg["integrator"], "$.integrator", required=("h", "t_end"), allowed=())
    val = _section(cfg, "validation", assumption=None, face_tolerance=0.0,
                   strictness_tolerance=1e-12)
    mon = _section(cfg, "monitors", mode=None, tol_monotone=None, eps_agreement=1e-6)
    out = _section(cfg, "outputs", trajectory_csv="trajectory.csv",
                   metrics_json="metrics.json", downsample=1)
    assumption = _json.enum(val["assumption"], _ASSUMPTIONS, "$.validation", "assumption")
    mode = _json.enum(mon["mode"], _MONITOR_MODES, "$.monitors", "mode")
    if mon["tol_monotone"] is not None:  # kept as written: dump-config echoes it
        _json.number(mon["tol_monotone"], "$.monitors", "tol_monotone", above=0)
    return dict(
        h=_json.number(integ["h"], "$.integrator", "h", above=0),
        t_end=_json.number(integ["t_end"], "$.integrator", "t_end"),
        assumption=Assumption(assumption) if assumption else None,
        face_tolerance=_json.number(val["face_tolerance"], "$.validation", "face_tolerance",
                                    minimum=0),
        strictness_tolerance=_json.number(val["strictness_tolerance"], "$.validation",
                                          "strictness_tolerance", minimum=0),
        monitor_mode=MonitorMode(mode) if mode else None,
        tol_monotone=mon["tol_monotone"],
        eps_agreement=_json.number(mon["eps_agreement"], "$.monitors", "eps_agreement", above=0),
        trajectory_csv=_json.string(out["trajectory_csv"], "$.outputs", "trajectory_csv",
                                    min_len=1),
        metrics_json=_json.string(out["metrics_json"], "$.outputs", "metrics_json", min_len=1),
        downsample=_json.integer(out["downsample"], "$.outputs", "downsample", minimum=1),
    )


def _section(cfg: Mapping, name: str, **defaults: Any) -> dict:
    """Optional section ``name`` over its defaults; keys outside them are rejected."""
    return {**defaults, **_json.obj(cfg.get(name, {}), f"$.{name}", allowed=tuple(defaults))}


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
