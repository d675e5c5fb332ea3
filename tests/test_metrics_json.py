"""``cli.write_metrics_json`` writes the bytes of the ``json.dump`` writer it
replaced (``helpers.reference_metrics_json``), in memory that does not grow
with the series length."""

import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compass_consensus import cli, metrics
from compass_consensus.cli import main, write_metrics_json
from helpers import reference_metrics_json
from test_cli import write_json

S = cli._SLICE
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-5, 1e22, 2.5e-308]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))
TEXT = st.text(st.one_of(st.sampled_from('"\\\n\r\t\x00\x1féü€😀 '), st.characters(codec="utf-8")), max_size=6)
ROWS = st.lists(FLOATS, max_size=4)  # unequal and zero lengths


@st.composite
def long_lists(draw, items):
    """A list of about one slice's length, cycling a few drawn items."""
    pool = draw(st.lists(items, min_size=1, max_size=3))
    size = draw(st.sampled_from([S - 1, S, S + 1, 2 * S + 1]))
    return [pool[k % len(pool)] for k in range(size)]


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, st.builds(np.float64, FLOATS), TEXT,
    st.lists(FLOATS), st.lists(ROWS), st.lists(TEXT),
    st.lists(st.one_of(FLOATS, st.integers(), st.booleans(), st.builds(np.float64, FLOATS))),
    long_lists(FLOATS), long_lists(st.lists(FLOATS, min_size=1, max_size=3)), long_lists(TEXT),
)
VALUES = st.recursive(
    LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=6,
)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def assert_same_bytes(folder: Path, value) -> None:
    write_metrics_json(folder / "new.json", value)
    reference_metrics_json(folder / "ref.json", value)
    assert (folder / "new.json").read_bytes() == (folder / "ref.json").read_bytes()


@settings(max_examples=150, deadline=None)
@given(value=VALUES)
@example(value={"V": SPECIAL, "s": ["é\"\\\n", "", " "], "e": [], "o": {}, "m": [1, 1.5, True]})
@example(value={"rows": [[1.0, -0.0], [], [math.nan, math.inf, -math.inf]], "f": [np.float64(0.1)]})
@example(value=[[0.5] * 3 for _ in range(S + 1)])
@example(value=[[5e-324]] * (S - 1) + [[1.0, 2.0]])
@example(value={"a": {"b": {"c": [1e16] * (S + 1), "d": ["x"] * S}}})
@example(value=[1.0] * S + [np.float64(1.0)])
@example(value=[[1.0] * (S - 1), [True]])
@example(value=-0.0)
def test_writer_matches_json_dump(tmp_path_factory, value):
    assert_same_bytes(tmp_path_factory.mktemp("json"), value)


ARRAYS = st.one_of(
    st.builds(np.array, st.lists(FLOATS, max_size=5)),
    st.integers(0, 3).flatmap(lambda d: st.builds(
        np.array, st.lists(st.lists(FLOATS, min_size=d, max_size=d), max_size=4))),
    long_lists(FLOATS).map(np.array),
    long_lists(st.lists(FLOATS, min_size=3, max_size=3)).map(np.array),
    st.builds(np.array, st.lists(st.integers(-5, 5), max_size=3)),
    st.builds(np.float64, FLOATS),
)


@settings(max_examples=100, deadline=None)
@given(value=st.dictionaries(TEXT, ARRAYS, min_size=1, max_size=3))
@example(value={"V": np.array(SPECIAL), "e": np.zeros((0, 3)), "z": np.zeros((2, 0)),
                "c": np.ones((2, 2, 2)), "f": np.float32([0.1, 1e-40])})
@example(value={"d": np.arange(3 * S + 3, dtype=float).reshape(S + 1, 3)})
def test_writer_takes_an_array_as_its_tolist(tmp_path_factory, value):
    folder = tmp_path_factory.mktemp("json")
    write_metrics_json(folder / "new.json", value)
    reference_metrics_json(folder / "ref.json", {k: v.tolist() for k, v in value.items()})
    assert (folder / "new.json").read_bytes() == (folder / "ref.json").read_bytes()


def shaped_config(seed, kind, n, d, h, steps, assumption, monitor, labels=("g0", "g1", "g2")):
    """A random scenario of the given size: in-degree 3 graphs, twelve pieces
    cycling through ``labels``, one CSV row per run (the CSV is not under test)."""
    rng = np.random.default_rng(seed)
    signed = kind == "SignedConsensus"
    graphs = {}
    for p in labels:
        arcs = [[int(j), i, int(rng.choice([1, -1])) if signed else 1]
                for i in range(1, n + 1)
                for j in rng.choice([j for j in range(1, n + 1) if j != i], 3, replace=False)]
        graphs[p] = {"n": n, "arcs": arcs}
    protocol = {"kind": kind, "gamma": 0.5, "weights": 1.0}
    if kind == "RotatedConsensus":
        protocol.update(gamma=1e-3, weights=0.02,
                        rotation=rng.uniform(-0.004, 0.004, size=(n, 3)).tolist())
    if kind == "WeightedConsensus":
        arcs = sorted({(j, i) for g in graphs.values() for j, i, _s in g["arcs"]})
        protocol["weights"] = [[j, i, float(rng.uniform(0.5, 1.5))] for j, i in arcs]
    dwell = h * steps / 12
    return {
        "agents": {"n": n, "d": d, "initial_states": rng.uniform(-1, 1, size=(n, d)).tolist()},
        "protocol": protocol,
        "graphs": graphs,
        "signal": {"tau_d": 0.9 * dwell, "pieces": [[k * dwell, labels[k % len(labels)]]
                                                   for k in range(12)],
                   "horizon_end": h * steps, "periodic": False},
        "integrator": {"h": h, "t_end": h * steps},
        "validation": {"assumption": assumption},
        "monitors": {"mode": monitor},
        "outputs": {"downsample": steps},
    }


SHAPES = {
    "validate_wide": ("SignedConsensus", 100, 3, 0.005, 2000, "SignedGammaStrict", "SignedSquare"),
    "integrate_long": ("RotatedConsensus", 8, 3, 0.002, 40000, "GammaStrict", "CooperativeBox"),
    "write_full": ("WeightedConsensus", 50, 2, 0.001, 10000, None, "CooperativeBox"),
}


def run_against_reference(tmp_path, monkeypatch, cfg) -> dict:
    """Run ``cfg`` and write its report with both writers; returns the report."""
    reports = []

    def both(path, report_dict, _write=write_metrics_json):
        # `run` hands the writer the report's series as arrays; json.dump takes lists.
        _write(path, report_dict)
        report_dict = {k: v.tolist() if isinstance(v, np.ndarray) else v
                       for k, v in report_dict.items()}
        reference_metrics_json(tmp_path / "reference.json", report_dict)
        reports.append(report_dict)

    monkeypatch.setattr(cli, "write_metrics_json", both)
    assert main(["run", write_json(tmp_path / "c.json", cfg), "--out-dir", str(tmp_path)]) == 0
    assert sha256(tmp_path / "metrics.json") == sha256(tmp_path / "reference.json")
    [report] = reports
    return report


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_run_artifact_matches_reference(tmp_path, monkeypatch, capsys, shape):
    kind, n, d, h, steps, assumption, monitor = SHAPES[shape]
    cfg = shaped_config(3, kind, n, d, h, steps, assumption, monitor)
    report = run_against_reference(tmp_path, monkeypatch, cfg)
    assert len(report["V"]) > steps and len(report["diameters"][0]) == d


def test_violation_strings_match_reference(tmp_path, monkeypatch, capsys):
    # Signed arcs under GammaStrict: every antagonistic facet is a violation,
    # and the labels put a quote and a non-ASCII letter into each string.
    cfg = shaped_config(5, "SignedConsensus", 100, 3, 0.005, 500, "GammaStrict", "SignedSquare",
                        labels=("g0", 'gé"1', "g2"))
    report = run_against_reference(tmp_path, monkeypatch, cfg)
    assert len(report["violations"]["feasibility"]) > 4 * S


def synthetic_report(samples: int, d: int = 3) -> dict:
    rng = np.random.default_rng(samples)
    return {
        "V": rng.random(samples).tolist(),
        "diameters": rng.random((samples, d)).tolist(),
        "abs_spread": rng.random((samples, d)).tolist(),
        "lambda_hat": 0.25, "r2": 0.5, "fit_truncated": False,
        "verdicts": {"agreement": True, "abs_agreement_per_axis": [True] * d},
        "violations": {"monitor": [], "feasibility": [f"t={k} agent 1 axis 1 (p='g'): outward"
                                                      for k in range(samples // 10)]},
    }


def writer_peak(path, report) -> int:
    tracemalloc.start()
    try:
        write_metrics_json(path, report)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_is_flat_in_the_sample_count(tmp_path):
    # A writer that built the whole document as one string would peak at
    # ~17 MB at 40,000 samples, and eight times lower at 5,000.
    small = writer_peak(tmp_path / "small.json", synthetic_report(5_000))
    large = writer_peak(tmp_path / "large.json", synthetic_report(40_000))
    assert large < 2 * 2**20
    assert large <= 1.5 * small


def test_run_writes_its_series_in_flat_memory(tmp_path, monkeypatch, capsys):
    # The report's three series (over 40,000 samples, d = 3) go to the writer as
    # arrays, converted one slice at a time. As nested lists they took the
    # traced peak ~11 MB over the one that run_report reached.
    cfg = shaped_config(3, "WeightedConsensus", 8, 3, 0.002, 40000, None, "CooperativeBox")
    path = write_json(tmp_path / "c.json", cfg)
    report_peaks = []

    def traced(*args, _run_report=metrics.run_report, **kwargs):
        report = _run_report(*args, **kwargs)
        report_peaks.append(tracemalloc.get_traced_memory()[1])
        return report

    monkeypatch.setattr(metrics, "run_report", traced)
    tracemalloc.start()
    try:
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    [report_peak] = report_peaks
    assert len(json.loads((tmp_path / "metrics.json").read_text())["V"]) > 40_000
    assert peak <= report_peak + 2**20
