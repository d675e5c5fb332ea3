"""The JSON readers against the jsonschema loader they replaced.

Valid configs, graph objects and signal objects are mutated at random (values
replaced, keys deleted or added, array entries appended) and read by both the
readers and the v0 loader in ``helpers``. The readers must reject whatever v0
rejects, accept what v0 accepts unless it holds a non-finite number, build the
same result when both accept, and name a path at or below jsonschema's when
the schema reports exactly one error.
"""

import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compass_consensus
from compass_consensus.errors import ConfigError
from compass_consensus.graphs import graph_from_json, signal_from_json
from compass_consensus.scenario import scenario_from_dict, scenario_to_dict
from helpers import (
    GRAPH_SCHEMA,
    SCENARIO_SCHEMA,
    SIGNAL_SCHEMA,
    v0_graph_from_json,
    v0_scenario_from_dict,
    v0_schema_errors,
    v0_signal_from_json,
)

# v0 accepts NaN rotation angles and builds NaN rotation matrices from them.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")

GRAPHS = [
    {"n": 3, "arcs": [[1, 2, 1], [2, 3, -1], [3, 1]], "allow_self_loops": False},
    {"n": 2, "arcs": [[1, 1, 1], [1, 2], [2, 1, 1]], "allow_self_loops": True},
    {"n": 1, "arcs": []},
]

SIGNALS = [
    {"tau_d": 0.5, "pieces": [[0.0, "a"], [1.0, "b"]], "horizon_end": 3.0, "periodic": True},
    {"tau_d": 1, "pieces": [[0, "g"]], "horizon_end": 2},
]

SCENARIOS = [
    {
        "agents": {"n": 2, "d": 1, "initial_states": [[0.0], [2.0]]},
        "protocol": {"kind": "WeightedConsensus", "gamma": 1.0, "weights": 1.0},
        "graphs": {"g": {"n": 2, "arcs": [[1, 2, 1], [2, 1, 1]]}},
        "signal": {"tau_d": 1.0, "pieces": [[0.0, "g"]], "horizon_end": 10.0, "periodic": False},
        "integrator": {"h": 0.001, "t_end": 10.0},
        "validation": {"assumption": "GammaStrict"},
        "monitors": {"mode": "CooperativeBox", "eps_agreement": 1e-6},
        "outputs": {"trajectory_csv": "t.csv", "metrics_json": "m.json"},
    },
    {
        "agents": {"n": 3, "d": 2, "sample": {"seed": 4, "lo": [0, -1.0], "hi": [1.0, 2]}},
        "protocol": {
            "kind": "SignedConsensus", "gamma": 0.5,
            "weights": [[1, 2, 2.0], [2, 3, 1], [3, 1, 0.5], [2, 1, 1.0]],
        },
        "graphs": {
            "a": {"n": 3, "arcs": [[1, 2, -1], [2, 3, 1]]},
            "b c": {"n": 3, "arcs": [[3, 1, -1], [2, 1]], "allow_self_loops": False},
        },
        "signal": {
            "tau_d": 0.5, "pieces": [[0.0, "a"], [1, "b c"]], "horizon_end": 2.0,
            "periodic": True,
        },
        "integrator": {"h": 0.01, "t_end": 5},
        "validation": {
            "assumption": "SignedGammaStrict", "face_tolerance": 0, "strictness_tolerance": 1e-9,
        },
        "monitors": {"mode": "SignedSquare", "tol_monotone": 1, "eps_agreement": 0.001},
        "outputs": {"trajectory_csv": "x.csv", "metrics_json": "y.json", "downsample": 2},
    },
    {
        "agents": {"n": 3, "d": 2, "initial_states": [[0.0, 1], [2.0, 0.5], [1, 1]]},
        "protocol": {"kind": "RotatedConsensus", "gamma": 0.001, "rotation": [0.1, 0, 0.3]},
        "graphs": {"g": {"n": 3, "arcs": [[1, 2], [2, 3], [3, 1]]}},
        "signal": {"tau_d": 1.0, "pieces": [[0.0, "g"]], "horizon_end": 1.0},
        "integrator": {"h": 0.01, "t_end": 1.0},
        "monitors": {"mode": None, "tol_monotone": None},
    },
    {
        "agents": {"n": 2, "d": 3, "initial_states": [[0.0, 1.0, 2.0], [1.0, 0.0, 0.0]]},
        "protocol": {
            "kind": "RotatedConsensus", "gamma": 0.01,
            "rotation": [[0.1, 0.2, 0.3], [0, 0, 1]], "weights": 2,
        },
        "graphs": {"g": {"n": 2, "arcs": [[1, 2, 1], [2, 1, 1], [1, 1, 1]],
                         "allow_self_loops": True}},
        "signal": {"tau_d": 0.25, "pieces": [[0.0, "g"], [0.5, "g"]], "horizon_end": 1.0},
        "integrator": {"h": 0.01, "t_end": 1.0},
        "validation": {"assumption": None},
        "outputs": {"downsample": 1.0},
    },
]

# Small values only: node counts stay small enough for dense (n, n) arrays.
LEAVES = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0]),
    st.sampled_from([0.5, 1.7, -0.25, 1e-3]),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "g", "a", "x", "GammaStrict", "SignedSquare", "RotatedConsensus"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
VALUES = st.one_of(
    LEAVES,
    LEAVES,
    st.lists(LEAVES, max_size=3),
    st.lists(st.lists(LEAVES, max_size=3), max_size=2),
    st.dictionaries(st.sampled_from(["n", "arcs", "seed", "zz"]), LEAVES, max_size=2),
)
KEYS = st.sampled_from(["zz", "sample", "periodic", "allow_self_loops", "rotation", "weights"])


def _entries(node):
    """(container, key) of every entry below ``node``."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, child in items:
        out.append((node, key))
        out.extend(_entries(child))
    return out


def _containers(node, kind):
    """``node`` and every value below it that is a ``kind``."""
    below = [parent[key] for parent, key in _entries(node)]
    return [c for c in [node] + below if isinstance(c, kind)]


@st.composite
def mutated(draw, bases):
    """A deep copy of one of ``bases`` with one to three random edits."""
    obj = copy.deepcopy(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["retype", "retype", "replace", "delete", "add", "append"]))
        if op == "retype":  # 2 <-> 2.0, 0.5 -> 0 and 1 -> true: the same number or nearly
            numbers = [(parent, key) for parent, key in _entries(obj)
                       if type(parent[key]) in (int, float)]
            if numbers:
                parent, key = draw(st.sampled_from(numbers))
                x = parent[key]
                if type(x) is float:
                    parent[key] = int(x) if math.isfinite(x) else x
                else:
                    retyped = [float(x), bool(x)] if x in (0, 1) else [float(x)]
                    parent[key] = draw(st.sampled_from(retyped))
        elif op in ("replace", "delete"):
            entries = _entries(obj)
            if not entries:
                continue
            parent, key = draw(st.sampled_from(entries))
            if op == "replace":
                parent[key] = draw(VALUES)
            else:
                del parent[key]
        elif op == "add":
            draw(st.sampled_from(_containers(obj, dict)))[draw(KEYS)] = draw(VALUES)
        else:
            lists = _containers(obj, list)
            if lists:
                target = draw(st.sampled_from(lists))
                extra = st.sampled_from(target) if target else VALUES
                target.append(copy.deepcopy(draw(st.one_of(VALUES, extra))))
    return obj


def _has_nonfinite(node):
    if isinstance(node, float):
        return not math.isfinite(node)
    if isinstance(node, dict):
        return any(_has_nonfinite(v) for v in node.values())
    if isinstance(node, list):
        return any(_has_nonfinite(v) for v in node)
    return False


def _outcome(read, obj):
    """("ok", result) or ("rejected", exception) of ``read`` on a copy of ``obj``."""
    try:
        return "ok", read(copy.deepcopy(obj))
    except Exception as exc:  # v0 also crashed on some inputs; that is a rejection
        return "rejected", exc


def _at_or_below(field, path):
    return field == path or field.startswith(path + ".") or field.startswith(path + "[")


def check_against_v0(obj, schema, read, v0_read, same):
    errors = v0_schema_errors(schema, obj)
    old, old_value = _outcome(v0_read, obj)
    new, new_value = _outcome(read, obj)
    if new == "rejected":
        assert isinstance(new_value, ConfigError), repr(new_value)
    if old == "rejected":  # (a)
        assert new == "rejected", f"v0 rejected with {old_value!r}, the readers accepted"
    elif new == "rejected":  # (b)
        assert _has_nonfinite(obj), f"v0 accepted, the readers raised {new_value}"
    else:  # (c)
        assert same(old_value, new_value)
    if len(errors) == 1 and not _has_nonfinite(obj):  # (d)
        assert _at_or_below(new_value.field, errors[0].json_path), (
            f"{new_value.field!r} is not at or below {errors[0].json_path!r}"
        )


def _same_dump(a, b):
    def dump(sc):
        return json.dumps(scenario_to_dict(sc), sort_keys=True, indent=2)

    return dump(a) == dump(b) and a.protocol.family == b.protocol.family and a.signal == b.signal


@given(mutated(SCENARIOS))
@settings(max_examples=300, deadline=None)
def test_scenario_reader_matches_v0(cfg):
    check_against_v0(cfg, SCENARIO_SCHEMA, scenario_from_dict, v0_scenario_from_dict, _same_dump)


def _v0_checked(schema, v0_read):
    def read(obj):
        errors = v0_schema_errors(schema, obj)
        if errors:
            raise ConfigError(errors[0].message, field=errors[0].json_path)
        return v0_read(obj)

    return read


@given(mutated(GRAPHS))
@settings(max_examples=300, deadline=None)
def test_graph_reader_matches_v0(obj):
    v0_read = _v0_checked(GRAPH_SCHEMA, v0_graph_from_json)
    check_against_v0(obj, GRAPH_SCHEMA, graph_from_json, v0_read, lambda a, b: a == b)


@given(mutated(SIGNALS))
@settings(max_examples=300, deadline=None)
def test_signal_reader_matches_v0(obj):
    v0_read = _v0_checked(SIGNAL_SCHEMA, v0_signal_from_json)
    check_against_v0(obj, SIGNAL_SCHEMA, signal_from_json, v0_read, lambda a, b: a == b)


def test_base_objects_load():
    for cfg in SCENARIOS:
        assert _same_dump(scenario_from_dict(cfg), v0_scenario_from_dict(cfg))
    for obj in GRAPHS:
        assert graph_from_json(obj) == v0_graph_from_json(obj)
    for obj in SIGNALS:
        assert signal_from_json(obj) == v0_signal_from_json(obj)


def test_cli_import_loads_only_runtime_dependencies():
    # Third-party top-level packages that the import adds to a bare
    # interpreter's modules (site hooks may preload some before it) must be
    # the runtime dependencies: no scipy, and no test-only jsonschema.
    tomllib = pytest.importorskip("tomllib")
    code = (
        "import sys; base = set(sys.modules); import compass_consensus.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - base}))"
    )
    src = Path(compass_consensus.__file__).parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    loaded = set(out.split()) - set(sys.stdlib_module_names) - {"compass_consensus"}
    with open(src.parent / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    assert loaded == {re.match(r"[\w.-]+", dep)[0] for dep in deps}
