"""The argument rules: ``errors.real``, ``errors.integer``, ``errors.reals``
and ``errors.member``, and every entry point that checks a number, an array
or an Enum choice through them.

Each entry point refuses a boolean, a string, NaN, an infinity and an int no
float can hold with ``DomainError`` (``ConfigError`` at its ``$.…`` path for
``ScenarioConfig`` and the JSON readers), and gives the same result for a
numpy scalar or a ``Fraction`` as for the equal float. Each array argument
refuses a NaN or infinite entry, a boolean or string array, ragged nesting
and a wrong shape the same way, and gives the same result for a list of ints
as for the equal float array. Each Enum argument takes a member or its
value alike and refuses anything else, None included where it means nothing.
"""

import math
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from compass_consensus import metrics
from compass_consensus.dynamics import (
    Assumption,
    Trajectory,
    empirical_gamma_margin,
    simulate,
    validate_feasibility,
)
from compass_consensus.errors import ConfigError, DomainError, integer, member, real, reals
from compass_consensus.geometry import (
    ConeQuery,
    Hyperrectangle,
    classify_point,
    cone_membership_probe,
    gamma_cone_contains,
    relative_interior_cone_contains,
    supporting_hyperrectangle,
    tangent_cone_contains,
)
from compass_consensus.graphs import (
    SignedDigraph,
    SwitchingSignal,
    check_uniform_joint_connectivity,
    complete_graph,
    signal_from_json,
    union_graph,
)
from compass_consensus.metrics import MonitorMode
from compass_consensus.protocols import ProtocolKind, ProtocolSpec
from compass_consensus.scenario import scenario_from_dict
from compass_consensus.vicsek import VicsekState, complete_neighbors, vicsek_step

BAD = [True, np.True_, "1", math.nan, math.inf, -math.inf, 10**400]
BAD_IDS = ["bool", "numpy-bool", "string", "nan", "inf", "-inf", "huge-int"]


def config():
    return {
        "agents": {"n": 2, "d": 1, "initial_states": [[0.0], [2.0]]},
        "protocol": {"kind": "WeightedConsensus", "gamma": 1.0, "weights": 1.0},
        "graphs": {"g": {"n": 2, "arcs": [[1, 2, 1], [2, 1, 1]]}},
        "signal": {"tau_d": 1.0, "pieces": [[0.0, "g"]], "horizon_end": 4.0},
        "integrator": {"h": 0.25, "t_end": 2.0},
        "validation": {"assumption": "GammaStrict"},
        "monitors": {"mode": "CooperativeBox", "tol_monotone": 1.0},
    }


SCENARIO = scenario_from_dict(config())
TRAJ = simulate(SCENARIO)
SPEC = SCENARIO.protocol
PAIR = {"g": complete_graph(2)}
ALT = {"a": SignedDigraph(2, [(1, 2)]), "b": SignedDigraph(2, [(2, 1)])}
SIGNAL = SwitchingSignal([(0.0, "a"), (2.0, "b")], tau_d=1.0, horizon_end=4.0, periodic=True)
BOX = Hyperrectangle([0.0, 0.0], [1.0, 2.0])


def cone(**kwargs):
    q = ConeQuery([0.0, 1.0], BOX, [0.5, -1.0], **{"gamma": 0.5, **kwargs})
    return gamma_cone_contains(q), relative_interior_cone_contains(q)


def scenario_result(**changes):
    sc = replace(SCENARIO, **changes)
    traj = simulate(sc)
    report = metrics.build_report(traj, sc.eps_agreement, sc.monitor_mode, sc.tol_monotone)
    violations = validate_feasibility(traj, sc.protocol, "GammaStrict",
                                      face_tolerance=sc.face_tolerance,
                                      strictness_tolerance=sc.strictness_tolerance)
    return traj.states.tolist(), report.to_json_dict(), [str(v) for v in violations]


def rate(name, x):
    args = dict(n=3, d=2, T_bar=2.0, gamma=1.0, tau_d=1.0, L_star=0.5, L_plus=1.0)
    return metrics.rate_bound(**{**args, name: x})


def vicsek(**kwargs):
    state = VicsekState(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.1, 0.3]),
                        **{"speed": 1.0, "radius": 1.0, **kwargs})
    return vicsek_step(state, complete_neighbors).positions.tolist()


# Entry point: (call with the value, a good integral value, ConfigError path or None).
ENTRIES = {
    "signal-start": (lambda x: SwitchingSignal([(0.0, "a"), (x, "b")], 1.0, 4.0), 2, None),
    "signal-tau_d": (lambda x: SwitchingSignal([(0.0, "a"), (2.0, "b")], x, 4.0), 1, None),
    "signal-horizon_end": (lambda x: SwitchingSignal([(0.0, "a")], 1.0, x), 4, None),
    "active_index-t": (lambda x: SIGNAL.active_index(x), 3, None),
    "segments-t_end": (lambda x: SIGNAL.segments(x), 5, None),
    "checker-T": (lambda x: check_uniform_joint_connectivity(SIGNAL, ALT, x), 4, None),
    "union-t1": (lambda x: sorted(union_graph(SIGNAL, ALT, x, 5.0).arcs), 1, None),
    "union-t2": (lambda x: sorted(union_graph(SIGNAL, ALT, 0.5, x).arcs), 3, None),
    "spec-gamma": (lambda x: ProtocolSpec("WeightedConsensus", PAIR, x).gamma, 2, None),
    "spec-weights": (lambda x: ProtocolSpec("WeightedConsensus", PAIR, 1.0, x)
                     .operator("g").tolist(), 2, None),
    "spec-weight-map": (lambda x: ProtocolSpec("WeightedConsensus", PAIR, 1.0,
                                               {(1, 2): x, (2, 1): 1.0})
                        .operator("g").tolist(), 2, None),
    "rotation-angle": (lambda x: ProtocolSpec("RotatedConsensus", PAIR, 1.0, rotation=x)
                       .rotations(2).tolist(), 1, None),
    "config-h": (lambda x: scenario_result(h=x), 1, "$.integrator.h"),
    "config-t_end": (lambda x: scenario_result(t_end=x), 3, "$.integrator.t_end"),
    "config-face_tolerance": (lambda x: scenario_result(face_tolerance=x), 1,
                              "$.validation.face_tolerance"),
    "config-strictness_tolerance": (lambda x: scenario_result(strictness_tolerance=x), 1,
                                    "$.validation.strictness_tolerance"),
    "config-eps_agreement": (lambda x: scenario_result(eps_agreement=x), 1,
                             "$.monitors.eps_agreement"),
    "config-tol_monotone": (lambda x: scenario_result(tol_monotone=x), 1,
                            "$.monitors.tol_monotone"),
    "validate-gamma": (lambda x: [str(v) for v in validate_feasibility(
        TRAJ, SPEC, "GammaStrict", gamma=x)], 2, None),
    "validate-face_tolerance": (lambda x: [str(v) for v in validate_feasibility(
        TRAJ, SPEC, "GammaStrict", gamma=2.0, face_tolerance=x)], 1, None),
    "validate-strictness_tolerance": (lambda x: [str(v) for v in validate_feasibility(
        TRAJ, SPEC, "GammaStrict", gamma=2.0, strictness_tolerance=x)], 1, None),
    "margin-face_tolerance": (lambda x: empirical_gamma_margin(TRAJ, SPEC, face_tolerance=x),
                              1, None),
    "cone-gamma": (lambda x: cone(gamma=x), 1, None),
    "cone-face_tolerance": (lambda x: cone(face_tolerance=x), 1, None),
    "cone-strictness_tolerance": (lambda x: cone(strictness_tolerance=x), 1, None),
    "classify-face_tolerance": (lambda x: classify_point([0.0, 1.0], BOX, x), 1, None),
    "probe-step": (lambda x: cone_membership_probe([0.0, 1.0], BOX, [-1.0, 0.5], [x]), 1, None),
    "monitor-tol_monotone": (lambda x: [str(v) for v in metrics.monotonicity_monitor(
        TRAJ, "CooperativeBox", x)], 1, None),
    "verdict-eps": (lambda x: metrics.agreement_verdict(TRAJ, x), 1, None),
    "abs-agreement-tol": (lambda x: metrics.absolute_value_agreement(TRAJ, x).tolist(), 1,
                          None),
    "abs-agreement-tail_fraction": (lambda x: metrics.absolute_value_agreement(
        TRAJ, 1.0, tail_fraction=x).tolist(), 1, None),
    "fit-tail_fraction": (lambda x: metrics.fit_exponential_rate(
        (TRAJ.times, metrics.lyapunov_series(TRAJ)), x), 1, None),
    "report-tail_fraction": (lambda x: metrics.build_report(TRAJ, tail_fraction=x)
                             .to_json_dict(), 1, None),
    "t_bar-T": (lambda x: metrics.t_bar_from_window(3, x, 1.0), 2, None),
    "t_bar-tau_d": (lambda x: metrics.t_bar_from_window(3, 1.0, x), 2, None),
    **{f"rate_bound-{name}": (lambda x, name=name: rate(name, x), 2, None)
       for name in ("T_bar", "gamma", "tau_d", "L_star", "L_plus")},
    "vicsek-speed": (lambda x: vicsek(speed=x), 2, None),
    "vicsek-radius": (lambda x: vicsek(radius=x), 2, None),
}


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("call, good, path", ENTRIES.values(), ids=ENTRIES)
def test_entry_points_refuse_what_is_not_a_finite_number(call, good, path, bad):
    with pytest.raises(DomainError) as err:
        call(bad)
    if path is not None:
        assert isinstance(err.value, ConfigError) and err.value.field == path
    assert repr(bad)[:20] in str(err.value)


@pytest.mark.parametrize("call, good, path", ENTRIES.values(), ids=ENTRIES)
def test_numpy_scalars_and_fractions_give_the_float_result(call, good, path):
    expected = call(float(good))
    for x in (np.float64(good), np.int64(good), Fraction(good), np.float32(good)):
        assert call(x) == expected, type(x)


def bounds(box):
    return box.lo.tolist(), box.hi.tolist()


def query(point=(0, 1), direction=(1, -1)):
    q = ConeQuery(point, BOX, direction, gamma=0.5)
    return gamma_cone_contains(q), relative_interior_cone_contains(q)


def fit(times=(0, 1, 2, 3), values=(8, 4, 2, 1)):
    return metrics.fit_exponential_rate((times, values))


def trajectory(times=(0, 1, 2), states=((0, 2), (1, 1), (1, 1))):
    traj = Trajectory(times, states, n=2, d=1, runs=[("g", 0, 3)])
    return traj.times.tolist(), traj.states.tolist(), metrics.agreement_verdict(traj, 1e-6)


def flock(positions=((0, 0), (1, 0)), headings=(0, 1)):
    state = vicsek_step(VicsekState(positions, headings, 1.0, 1.0), complete_neighbors)
    return state.positions.tolist(), state.headings.tolist()


# Array argument: (call with the value, a good value of ints, its name, ConfigError path or None).
ARRAYS = {
    "box-lo": (lambda x: bounds(Hyperrectangle(x, [1, 2])), [0, 0], "lo", None),
    "box-hi": (lambda x: bounds(Hyperrectangle([0, 0], x)), [1, 2], "hi", None),
    "contains-x": (lambda x: BOX.contains(x), [0, 1], "x", None),
    "project-x": (lambda x: BOX.project(x).tolist(), [3, 1], "x", None),
    "distance-x": (lambda x: BOX.distance(x), [3, 1], "x", None),
    "cone-point": (lambda x: query(point=x), [0, 1], "point", None),
    "cone-direction": (lambda x: query(direction=x), [1, -1], "direction", None),
    "supporting-points": (lambda x: bounds(supporting_hyperrectangle(x)), [[0, 0], [1, 2]],
                          "points", None),
    "classify-x": (lambda x: classify_point(x, BOX), [0, 1], "x", None),
    "tangent-v": (lambda x: tangent_cone_contains([0, 1], BOX, x), [1, -1], "v", None),
    "probe-x": (lambda x: cone_membership_probe(x, BOX, [-1, 0]), [0, 1], "x", None),
    "probe-v": (lambda x: cone_membership_probe([0, 1], BOX, x), [-1, 0], "v", None),
    "fit-times": (lambda x: fit(times=x), [0, 1, 2, 3], "times", None),
    "fit-values": (lambda x: fit(values=x), [8, 4, 2, 1], "values", None),
    "trajectory-times": (lambda x: trajectory(times=x), [0, 1, 2], "times", None),
    "trajectory-states": (lambda x: trajectory(states=x), [[0, 2], [1, 1], [1, 1]], "states",
                          None),
    "config-initial_states": (lambda x: scenario_result(initial_states=x), [[0], [2]],
                              "initial_states", "$.agents.initial_states"),
    "vicsek-positions": (lambda x: flock(positions=x), [[0, 0], [1, 0]], "positions", None),
    "vicsek-headings": (lambda x: flock(headings=x), [0, 1], "headings", None),
}


def with_entry(good, k, value):
    x = np.array(good, dtype=float)
    x.flat[k] = value
    return x.tolist()


# Bad array from a good one: what each is, and how it is made.
BAD_ARRAYS = {
    "nan": lambda good: with_entry(good, 0, math.nan),
    "inf": lambda good: with_entry(good, -1, -math.inf),
    "bool": lambda good: np.array(good) > 0,
    "string": lambda good: np.array(good).astype(str),
    "ragged": lambda good: [good[0], [good[0]]],
    "shape": lambda good: [good],
}


@pytest.mark.parametrize("bad", BAD_ARRAYS.values(), ids=BAD_ARRAYS)
@pytest.mark.parametrize("call, good, name, path", ARRAYS.values(), ids=ARRAYS)
def test_array_arguments_refuse_what_is_not_a_finite_array(call, good, name, path, bad):
    with pytest.raises(DomainError) as err:
        call(bad(good))
    if path is not None:
        assert isinstance(err.value, ConfigError) and err.value.field == path
    assert f"{name} must be an array of shape " in str(err.value)


@pytest.mark.parametrize("call, good, name, path", ARRAYS.values(), ids=ARRAYS)
def test_lists_of_ints_give_the_float_array_result(call, good, name, path):
    assert call(good) == call(np.array(good, dtype=float))


# Config entries the JSON readers check as numbers, each reported at its path.
READ = [
    (("protocol", "gamma"), "$.protocol.gamma"),
    (("protocol", "weights"), "$.protocol.weights"),
    (("integrator", "h"), "$.integrator.h"),
    (("integrator", "t_end"), "$.integrator.t_end"),
    (("validation", "face_tolerance"), "$.validation.face_tolerance"),
    (("validation", "strictness_tolerance"), "$.validation.strictness_tolerance"),
    (("monitors", "eps_agreement"), "$.monitors.eps_agreement"),
    (("monitors", "tol_monotone"), "$.monitors.tol_monotone"),
    (("agents", "initial_states", 1, 0), "$.agents.initial_states[1][0]"),
    (("signal", "tau_d"), "$.signal.tau_d"),
    (("signal", "horizon_end"), "$.signal.horizon_end"),
    (("signal", "pieces", 0, 0), "$.signal.pieces[0][0]"),
]


@pytest.mark.parametrize("bad", [x for x in BAD if x is not np.True_],
                         ids=[i for i in BAD_IDS if i != "numpy-bool"])
@pytest.mark.parametrize("keys, path", READ, ids=[path for _keys, path in READ])
def test_json_readers_refuse_at_the_entry_path(keys, path, bad):
    cfg = config()
    entry = cfg
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = bad
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(cfg)
    assert err.value.field == path
    if keys[0] == "signal":
        with pytest.raises(ConfigError) as err:
            signal_from_json(cfg["signal"], "$.signal")
        assert err.value.field == path


class TestReal:
    @pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.int64(2), np.float32(2.0),
                                       np.uint8(2), Fraction(2)])
    def test_accepts_real_numbers_as_floats(self, value):
        x = real("x", value)
        assert type(x) is float and x == 2.0

    @pytest.mark.parametrize("value", [
        True, False, np.True_, "2", None, [2.0], np.array(2.0), np.array([2.0]), 2j,
        math.nan, np.float64("nan"), math.inf, -math.inf, 10**400, -(10**400),
        Fraction(10**400),
    ])
    def test_refuses_with_the_name_and_value(self, value):
        with pytest.raises(DomainError, match=r"^width must be finite \(numbers, not "
                                              r"booleans or strings\), got "):
            real("width", value)

    @pytest.mark.parametrize("value", [10**5000, -(10**5000), Fraction(10**5000, 3)],
                             ids=["int", "negative-int", "fraction"])
    def test_refuses_a_number_too_long_to_print(self, value):
        # repr() raises ValueError past the interpreter's limit on int digits.
        with pytest.raises(DomainError, match="^width must be finite .* got a number too long"):
            real("width", value)

    def test_bounds(self):
        assert real("x", 0, minimum=0) == 0.0 and real("x", 1e-300, above=0) == 1e-300
        with pytest.raises(DomainError, match="^x must be positive and finite"):
            real("x", 0, above=0)
        with pytest.raises(DomainError, match="^x must be nonnegative and finite"):
            real("x", -1e-300, minimum=0)
        with pytest.raises(DomainError, match="^x must be greater than 1 and at least 2 and "):
            real("x", 1.5, above=1, minimum=2)
        # A positive value that rounds to 0.0 is not positive as a float.
        with pytest.raises(DomainError):
            real("x", Fraction(1, 10**400), above=0)


class TestInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint16(3)])
    def test_accepts_integers(self, value):
        n = integer("n", value)
        assert type(n) is int and n == 3

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, 2.5, "3", None, Fraction(3),
                                       np.array([3])])
    def test_refuses_with_the_name_and_value(self, value):
        with pytest.raises(DomainError, match=r"^n must be an integer \(not booleans\), got "):
            integer("n", value)


class TestReals:
    @pytest.mark.parametrize("value", [[[1, 2], [3, 4]], np.array([[1, 2], [3, 4]], np.uint8),
                                       np.array([[1, 2], [3, 4]], np.float32),
                                       ((1.0, 2.0), (3.0, 4.0))])
    def test_accepts_int_and_float_arrays_as_float(self, value):
        x = reals("x", value, (2, None))
        assert x.dtype == float and x.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_a_float_array_is_returned_as_it_is(self):
        value = np.zeros((3, 2))
        assert reals("x", value, (None, 2)) is value

    @pytest.mark.parametrize("value, got", [
        ([[1, 2]], "shape (1, 2)"),
        ([1, 2, 3], "shape (3,)"),
        (5.0, "shape ()"),
        ([[1, 2], [3]], "ragged nesting"),
        ([True, False], "elements of type bool"),
        (["1", "2"], "elements of type <U1"),
        ([1j, 2], "elements of type complex128"),
        ([None, 2], "elements of type object"),
        ([10**400, 2], "elements of type object"),
        ([1, math.nan], "nan at index (1,)"),
        (np.array([-math.inf, math.inf]), "-inf at index (0,)"),
    ], ids=["axes", "length", "scalar", "ragged", "bool", "string", "complex", "none",
            "huge-int", "nan", "inf"])
    def test_refuses_with_the_name_shape_and_what_failed(self, value, got):
        with pytest.raises(DomainError) as err:
            reals("width", value, (2,))
        assert str(err.value) == (
            "width must be an array of shape (2,) of finite numbers (not booleans or strings), "
            f"got {got}")

    def test_any_length_axes(self):
        assert reals("x", np.zeros((0, 3)), (None, 3)).shape == (0, 3)
        with pytest.raises(DomainError, match=r"shape \(any, 3\) .* got shape \(2, 2\)$"):
            reals("x", np.zeros((2, 2)), (None, 3))


class TestMember:
    @pytest.mark.parametrize("value", [Assumption.GAMMA_STRICT, "GammaStrict"])
    def test_accepts_a_member_or_its_value(self, value):
        assert member("assumption", value, Assumption) is Assumption.GAMMA_STRICT

    @pytest.mark.parametrize("value", [None, True, 5, "gammastrict", ["GammaStrict"],
                                       MonitorMode.COOPERATIVE_BOX])
    def test_refuses_with_the_name_choices_and_value(self, value):
        with pytest.raises(DomainError) as err:
            member("assumption", value, Assumption)
        assert str(err.value) == ("assumption must be one of ['GammaStrict', "
                                  f"'RelativeInterior', 'SignedGammaStrict'], got {value!r}")


# Enum argument: (call with the value, a member it takes, the name its error
# gives, ConfigError path or None, whether None turns it off).
SIGNED_PAIR = {"g": SignedDigraph(2, [(1, 2, -1), (2, 1, 1)])}
CHOICES = {
    "validate-assumption": (lambda x: [str(v) for v in validate_feasibility(
        TRAJ, SPEC, x, gamma=2.0)], Assumption.GAMMA_STRICT, "assumption", None, False),
    "report-monitor_mode": (lambda x: (lambda r: (r.monitor_mode, r.to_json_dict()))(
        metrics.build_report(TRAJ, monitor_mode=x)), MonitorMode.SIGNED_SQUARE,
        "monitor_mode", None, True),
    "monitor-mode": (lambda x: [str(v) for v in metrics.monotonicity_monitor(TRAJ, x, 1e-3)],
                     MonitorMode.COOPERATIVE_BOX, "mode", None, False),
    "spec-kind": (lambda x: ProtocolSpec(x, SIGNED_PAIR, 1.0).operator("g").tolist(),
                  ProtocolKind.SIGNED_CONSENSUS, "kind", None, False),
    "config-assumption": (lambda x: scenario_result(assumption=x), Assumption.RELATIVE_INTERIOR,
                          "assumption", "$.validation.assumption", True),
    "config-monitor_mode": (lambda x: scenario_result(monitor_mode=x), MonitorMode.SIGNED_SQUARE,
                            "monitor_mode", "$.monitors.mode", True),
}

BAD_CHOICES = [None, True, 5, "gammastrict", "signed_square"]
REFUSALS = [(key, bad) for key, (*_, off) in CHOICES.items() for bad in BAD_CHOICES
            if not (off and bad is None)]


@pytest.mark.parametrize("key, bad", REFUSALS, ids=[f"{key}-{bad!r}" for key, bad in REFUSALS])
def test_enum_arguments_refuse_what_is_not_a_choice(key, bad):
    call, good, name, path, off = CHOICES[key]
    # None is listed among the choices where it turns the choice off.
    values = [m.value for m in type(good)] + ([None] if off else [])
    with pytest.raises(DomainError) as err:
        call(bad)
    assert str(err.value).endswith(f"{name} must be one of {values}, got {bad!r}")
    assert getattr(err.value, "field", None) == path


@pytest.mark.parametrize("call, good, name, path, off", CHOICES.values(), ids=list(CHOICES))
def test_enum_arguments_take_a_member_or_its_value(call, good, name, path, off):
    assert call(good.value) == call(good)
    if off:  # None: no check or monitor, not an error
        call(None)


SRC = Path(__file__).resolve().parent.parent / "src" / "compass_consensus"
HAND_WRITTEN_RANGE = re.compile(
    r"<\s*(np\.inf|math\.inf|float\(\s*['\"]inf['\"]\s*\))|float_info\.max")


def test_range_checks_are_written_once():
    # Every numeric argument is checked by errors.real; a comparison with
    # infinity elsewhere is a second copy of the rule.
    found = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(SRC.glob("*.py")) if path.name != "errors.py"
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if HAND_WRITTEN_RANGE.search(line)
    ]
    assert not found, "\n".join(found)
