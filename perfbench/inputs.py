"""Seeded inputs for the benchmark workloads.

Each generator turns a seed into a ``Workload``: the JSON files the program
receives and the CLI calls a user makes on them. The same seed always gives
byte-identical files. Sizes are fixed per workload, so a seed changes the
graphs, weights, states and dwell times but not the amount of work.

Each generator's docstring says which layer dominates its workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class GraphsCall:
    """One ``compass check-graphs`` call and the verdict the generator built."""

    file: str
    window: float
    mode: str  # "quasi-strong" or "strong"
    connected: bool


@dataclass
class Workload:
    name: str
    kind: str  # "run" or "graphs"
    files: dict[str, dict]
    runs: list[str] = field(default_factory=list)  # config files for `compass run`
    checks: list[GraphsCall] = field(default_factory=list)

    @property
    def first_file(self) -> str:
        return self.runs[0] if self.runs else self.checks[0].file


def dump(obj: dict) -> bytes:
    """Canonical file bytes for a generated input."""
    return (json.dumps(obj, sort_keys=True, indent=1) + "\n").encode("utf-8")


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _random_digraph(rng, n: int, in_degree: int, signed: bool) -> dict:
    """Every node gets ``in_degree`` distinct in-neighbours, chosen uniformly."""
    arcs = []
    for i in range(1, n + 1):
        others = np.array([j for j in range(1, n + 1) if j != i])
        for j in rng.choice(others, size=in_degree, replace=False):
            s = int(rng.choice([1, -1])) if signed else 1
            arcs.append([int(j), i, s])
    return {"n": n, "arcs": sorted(arcs)}


def _pieces(rng, names: list[str], durations: list[float]) -> list[list]:
    """Pieces starting at 0 with the given durations; no graph follows itself."""
    pieces, t, prev = [], 0.0, None
    for dur in durations:
        name = str(rng.choice([g for g in names if g != prev]))
        pieces.append([t, name])
        t += dur
        prev = name
    return pieces


def _aperiodic_signal(rng, names: list[str], t_end: float) -> dict:
    """Random dwell times, yet every graph is active for the same total time.

    Each of 4 blocks draws one dwell time per graph and plays them in rounds of a
    Latin square, so every graph takes every dwell time once. Durations are
    then scaled to end at t_end, which is the horizon. Equal shares keep the
    samples per graph, and with them the validator's memory, the same
    across seeds.
    """
    g = len(names)
    order, durations = [], []
    for _ in range(4):
        dwell = rng.uniform(1.0, 2.0, g)
        perm = rng.permutation(g)
        while order and names[perm[0]] == order[-1]:
            perm = rng.permutation(g)
        for r in range(g):
            for k in range(g):
                order.append(names[perm[(k + r) % g]])
                durations.append(float(dwell[k]))
    scale = t_end / sum(durations)
    starts = [0.0]
    for dur in durations[:-1]:
        starts.append(starts[-1] + dur * scale)
    return {
        "tau_d": math.floor(900 * min(durations) * scale) / 1000,
        "pieces": [[t, name] for t, name in zip(starts, order)],
        "horizon_end": t_end,
        "periodic": False,
    }


def _scenario(n, d, x0, protocol, graphs, signal, h, steps, assumption, monitor, downsample):
    return {
        "agents": {"n": n, "d": d, "initial_states": x0.tolist()},
        "protocol": protocol,
        "graphs": graphs,
        "signal": signal,
        "integrator": {"h": h, "t_end": h * steps},
        "validation": {"assumption": assumption},
        "monitors": {"mode": monitor},
        "outputs": {"downsample": downsample},
    }


def validate_wide(seed: int) -> Workload:
    """Signed n=100, d=3, 2000 steps: the dense feasibility validator dominates."""
    rng = _rng(seed, 1)
    n, d = 100, 3
    graphs = {f"g{k}": _random_digraph(rng, n, 3, signed=True) for k in range(4)}
    h, steps = 0.005, 2000
    cfg = _scenario(
        n, d, rng.uniform(-1.0, 1.0, size=(n, d)),
        {"kind": "SignedConsensus", "gamma": 0.5, "weights": 1.0},
        graphs, _aperiodic_signal(rng, list(graphs), h * steps),
        h, steps, "SignedGammaStrict", "SignedSquare", 50,
    )
    return Workload("validate_wide", "run", {"scenario.json": cfg}, runs=["scenario.json"])


def integrate_long(seed: int) -> Workload:
    """Rotated n=8, d=3, 40k steps on a periodic schedule: per-step RK4
    overhead and the large metrics.json dominate; the validator sees many
    samples at tiny n."""
    rng = _rng(seed, 2)
    n, d = 8, 3
    graphs = {f"g{k}": _random_digraph(rng, n, 6, signed=False) for k in range(3)}
    durations = [float(rng.uniform(0.3, 0.6)) for _ in range(6)]
    pieces = _pieces(rng, list(graphs), durations)
    # A periodic signal must not repeat its graph across the wrap either.
    while pieces[-1][1] == pieces[0][1]:
        pieces = _pieces(rng, list(graphs), durations)
    signal = {
        "tau_d": 0.25,
        "pieces": pieces,
        "horizon_end": pieces[-1][0] + durations[-1],
        "periodic": True,
    }
    rotation = rng.uniform(-0.004, 0.004, size=(n, 3)).tolist()
    cfg = _scenario(
        n, d, rng.uniform(-1.0, 1.0, size=(n, d)),
        {"kind": "RotatedConsensus", "gamma": 1e-3, "weights": 0.02, "rotation": rotation},
        graphs, signal, 0.002, 40000, "GammaStrict", "CooperativeBox", 100,
    )
    return Workload("integrate_long", "run", {"scenario.json": cfg}, runs=["scenario.json"])


def write_full(seed: int) -> Workload:
    """Weighted n=50, d=2, 10k steps, validation off, every sample written:
    the CSV writer dominates and the validator is bypassed."""
    rng = _rng(seed, 3)
    n, d = 50, 2
    graphs = {f"g{k}": _random_digraph(rng, n, 4, signed=False) for k in range(3)}
    arcs = sorted({(j, i) for g in graphs.values() for j, i, _s in g["arcs"]})
    weights = [[j, i, float(w)] for (j, i), w in zip(arcs, rng.uniform(0.5, 1.5, len(arcs)))]
    h, steps = 0.001, 10000
    cfg = _scenario(
        n, d, rng.uniform(-1.0, 1.0, size=(n, d)),
        {"kind": "WeightedConsensus", "gamma": 0.5, "weights": weights},
        graphs, _aperiodic_signal(rng, list(graphs), h * steps),
        h, steps, None, "CooperativeBox", 1,
    )
    return Workload("write_full", "run", {"scenario.json": cfg}, runs=["scenario.json"])


# connectivity_long ------------------------------------------------------------
#
# Nodes are split into 8 groups of 5; graph g holds every in-arc of the nodes
# in group g (one arc of a random Hamiltonian cycle plus one random extra arc
# per node). So a window's union graph is connected (strongly, hence also
# quasi-strongly) iff the window touches all 8 graphs: without graph g, the 5
# nodes of group g have no in-arcs. Each graph alone leaves 35 nodes without
# in-arcs. The signal repeats one pattern of 10 pieces that holds every graph,
# so any 10 consecutive pieces touch all 8 graphs.

N_CONN, N_GRAPHS, PATTERN = 40, 8, 10
DWELL = (0.31, 0.43)  # 9 * 0.43 < 4: every window of length 4 touches 10 pieces
SLOW = (0.45, 0.6)  # 9 * 0.45 > 4: a length-4 window misses a graph; 9 * 0.6 < 6


def _connectivity_family(rng) -> dict[str, dict]:
    cycle = rng.permutation(N_CONN) + 1
    pred = {int(cycle[k]): int(cycle[k - 1]) for k in range(N_CONN)}
    groups = rng.permutation(N_CONN).reshape(N_GRAPHS, -1) + 1
    family = {}
    for g, members in enumerate(groups):
        arcs = []
        for i in sorted(int(v) for v in members):
            extra = int(rng.choice([j for j in range(1, N_CONN + 1) if j not in (i, pred[i])]))
            arcs += [[pred[i], i, 1], [extra, i, 1]]
        family[f"h{g}"] = {"n": N_CONN, "arcs": sorted(arcs)}
    return family


def _pattern(rng) -> list[str]:
    """10 graph names holding all 8, with no name next to itself cyclically."""
    while True:
        names = list(range(N_GRAPHS)) + [int(v) for v in rng.integers(0, N_GRAPHS, 2)]
        rng.shuffle(names)
        if all(names[k] != names[k - 1] for k in range(PATTERN)):
            return [f"h{v}" for v in names]


def _pattern_signal(pattern, durations, periodic: bool) -> dict:
    starts = np.concatenate([[0.0], np.cumsum(durations)])
    return {
        "tau_d": 0.3,
        "pieces": [[float(t), pattern[k % PATTERN]] for k, t in enumerate(starts[:-1])],
        "horizon_end": float(starts[-1]),
        "periodic": periodic,
    }


def connectivity_long(seed: int) -> Workload:
    """Three check-graphs calls: only the connectivity checker runs."""
    rng = _rng(seed, 4)
    family = _connectivity_family(rng)
    pattern = _pattern(rng)
    long_signal = _pattern_signal(pattern, rng.uniform(*DWELL, 1500), periodic=False)

    durations = rng.uniform(*DWELL, 300)
    # A slow stretch deep in the period: the 9 pieces after one occurrence of
    # a graph that appears once per pattern last more than 4 in total, so a
    # window of length 4 there misses that graph.
    once = [k for k, g in enumerate(pattern) if pattern.count(g) == 1]
    rep = int(rng.integers(21, 27))
    first = rep * PATTERN + int(rng.choice(once)) + 1
    durations[first : first + PATTERN - 1] = rng.uniform(*SLOW, PATTERN - 1)
    periodic_signal = _pattern_signal(pattern, durations, periodic=True)

    files = {
        "aperiodic.json": {"graphs": family, "signal": long_signal},
        "periodic.json": {"graphs": family, "signal": periodic_signal},
    }
    checks = [
        GraphsCall("aperiodic.json", 4.0, "quasi-strong", connected=True),
        GraphsCall("periodic.json", 6.0, "strong", connected=True),
        GraphsCall("periodic.json", 4.0, "strong", connected=False),
    ]
    return Workload("connectivity_long", "graphs", files, checks=checks)


GENERATORS = {
    "validate_wide": validate_wide,
    "integrate_long": integrate_long,
    "write_full": write_full,
    "connectivity_long": connectivity_long,
}
