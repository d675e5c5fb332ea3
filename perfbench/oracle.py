"""Independent checks of the program's outputs.

``compass run``: the switched system is linear on every segment, so its
exact state at any time is a product of ``expm(A_p * dt)`` factors. The
operators are built here from the generated graphs, weights and rotations,
and the schedule is tiled exactly as ``t0 + k*period + offset``; nothing is
taken from the program. Every sample written to ``trajectory.csv`` is
compared with that exact state, not only the last one: a consensus run
forgets a wrong graph once it has converged. Matrix exponentials of these
small, well-scaled operators are accurate to rounding (Moler & Van Loan,
SIAM Review 2003), RK4 at the step sizes used stays far closer to them than
``STATE_TOL``, and integrating one segment with a wrong graph moves the
states by about 1e-3.

``compass check-graphs``: a window's union graph is rebuilt here from the
tiled schedule and searched breadth-first.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from collections import deque
from pathlib import Path

import numpy as np
from scipy.linalg import expm

# Passes a rounding-level integrator change (~1e-12), fails a wrong graph (~1e-3).
STATE_TOL = 1e-8


# Schedule ---------------------------------------------------------------------


def segments(signal: dict, t_end: float) -> list[tuple[float, float, str]]:
    """(a, b, graph) segments covering [t0, t_end), tiled by integer period counts."""
    pieces = [(float(t), name) for t, name in signal["pieces"]]
    t0 = pieces[0][0]
    period = float(signal["horizon_end"]) - t0
    offsets = [t - t0 for t, _ in pieces]
    starts: list[tuple[float, str]] = []
    k = 0
    while True:
        for off, (_, name) in zip(offsets, pieces):
            a = t0 + k * period + off
            if a >= t_end:
                break
            starts.append((a, name))
        else:
            if signal.get("periodic", False):
                k += 1
                continue
        break
    ends = [a for a, _ in starts[1:]] + [t_end]
    return [(a, b, name) for (a, name), b in zip(starts, ends)]


# Linear operators --------------------------------------------------------------


def _rotation(angles: list[float], d: int) -> np.ndarray:
    """Givens rotations over lexicographic planes (k, l), composed left to right."""
    R = np.eye(d)
    planes = [(k, l) for k in range(d) for l in range(k + 1, d)]
    for (k, l), theta in zip(planes, angles):
        G = np.eye(d)
        G[k, k] = G[l, l] = math.cos(theta)
        G[k, l], G[l, k] = -math.sin(theta), math.sin(theta)
        R = G @ R
    return R


def operators(cfg: dict) -> dict[str, np.ndarray]:
    """Per graph: the (n, n) matrix acting on X (n x d), or (nd, nd) if rotated."""
    n, d = cfg["agents"]["n"], cfg["agents"]["d"]
    proto = cfg["protocol"]
    kind = proto["kind"]
    weights = proto.get("weights", 1.0)
    table = None if isinstance(weights, (int, float)) else {(j, i): w for j, i, w in weights}
    ops = {}
    for name, g in cfg["graphs"].items():
        L = np.zeros((n, n))
        for j, i, s in g["arcs"]:
            w = float(weights) if table is None else table[(j, i)]
            L[i - 1, j - 1] += w * (s if kind == "SignedConsensus" else 1.0)
            L[i - 1, i - 1] -= w
        if kind == "RotatedConsensus":
            A = np.kron(L, np.eye(d))
            for i, angles in enumerate(proto["rotation"]):
                A[i * d : (i + 1) * d] = _rotation(angles, d) @ A[i * d : (i + 1) * d]
            L = A
        ops[name] = L
    return ops


class ExactTrajectory:
    """Exact states of the generated switched linear system, queried at
    nondecreasing times.

    Segment start states come from one ``expm`` per segment. Within a
    segment each query moves on from the previous one by ``expm(A * dt)``,
    cached per graph and ``dt`` to 12 significant digits (an error of about
    1e-15 * |A x| per query).
    """

    def __init__(self, cfg: dict, segs: list[tuple[float, float, str]]):
        self.n, self.d = cfg["agents"]["n"], cfg["agents"]["d"]
        self.ops = operators(cfg)
        self.segs = segs
        self.starts = [a for a, _, _ in segs]
        x = np.array(cfg["agents"]["initial_states"], dtype=float)
        self.seg_states = []
        for a, b, name in segs:
            self.seg_states.append(x)
            x = self._apply(expm(self.ops[name] * (b - a)), x)
        self._k, self._t, self._x = 0, self.starts[0], self.seg_states[0]
        self._cache: dict[tuple[str, float], np.ndarray] = {}

    def _apply(self, P: np.ndarray, x: np.ndarray) -> np.ndarray:
        if P.shape[0] == self.n:
            return P @ x
        return (P @ x.reshape(-1)).reshape(self.n, self.d)

    def at(self, t: float) -> np.ndarray:
        while self._k + 1 < len(self.segs) and t >= self.starts[self._k + 1]:
            self._k += 1
            self._t, self._x = self.starts[self._k], self.seg_states[self._k]
        name = self.segs[self._k][2]
        key = (name, float(f"{t - self._t:.12g}"))
        if key not in self._cache:
            self._cache[key] = expm(self.ops[name] * key[1])
        self._t, self._x = t, self._apply(self._cache[key], self._x)
        return self._x


def expected_samples(segs, h: float) -> int:
    """Samples of a run whose steps are h long, split at switches, ending on them."""
    m = 1
    for a, b, _ in segs:
        full = int(math.floor((b - a) / h + 1e-9))
        m += max(full, 1) + (1 if full and (b - a) - full * h > 1e-6 * h else 0)
    return m


def expected_rows(cfg: dict, samples: int) -> int:
    step = cfg.get("outputs", {}).get("downsample", 1)
    written = len(range(0, samples, step)) + (1 if (samples - 1) % step else 0)
    return written * cfg["agents"]["n"]


# Artifacts -------------------------------------------------------------------


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def csv_blocks(path: Path, n: int, d: int, block: int = 20000):
    """(rows, samples x n x (2 + d)) blocks of t, agent, x_1..x_d, in bounded memory."""
    per_block = max(1, block // n) * n
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        while lines := list(itertools.islice(fh, per_block)):
            if len(lines) % n:
                raise ValueError(f"{len(lines)} rows do not make whole samples of {n} agents")
            data = np.loadtxt(lines, delimiter=",", usecols=range(2 + d), ndmin=2)
            yield len(lines), data.reshape(-1, n, 2 + d)


class RunOracle:
    """Expected outputs of ``compass run --strict`` on one generated config."""

    def __init__(self, cfg: dict, segs: list[tuple[float, float, str]] | None = None):
        self.cfg = cfg
        self.t_end = float(cfg["integrator"]["t_end"])
        self.segs = segments(cfg["signal"], self.t_end) if segs is None else segs
        self.rows = expected_rows(cfg, expected_samples(self.segs, float(cfg["integrator"]["h"])))

    def check(self, exit_code, out_dir: Path) -> list[str]:
        """Problems with one call's exit code and artifacts (empty when correct)."""
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}, expected 0")
        csv_path, json_path = out_dir / "trajectory.csv", out_dir / "metrics.json"
        if not csv_path.is_file() or not json_path.is_file():
            return problems + ["artifacts missing"]
        problems += self.check_csv(csv_path)
        with open(json_path, encoding="utf-8") as fh:
            violations = json.load(fh)["violations"]
        for kind in ("feasibility", "monitor"):
            if violations[kind]:
                problems.append(f"{len(violations[kind])} {kind} violations, expected 0")
        return problems

    def check_csv(self, path: Path) -> list[str]:
        """Every written sample against the exact trajectory, plus row count and end time."""
        n, d = self.cfg["agents"]["n"], self.cfg["agents"]["d"]
        exact = ExactTrajectory(self.cfg, self.segs)
        rows, worst, last_t = 0, 0.0, -math.inf
        try:
            for count, block in csv_blocks(path, n, d):
                rows += count
                times = block[:, 0, 0]
                if (block[:, :, 0] != times[:, None]).any() or (
                    block[:, :, 1] != np.arange(1, n + 1)
                ).any():
                    return ["csv samples are not one row per agent 1..n at one time"]
                if times[0] <= last_t or (np.diff(times) <= 0).any():
                    return ["csv sample times do not increase"]
                for t, x in zip(times, block[:, :, 2:]):
                    worst = max(worst, float(np.max(np.abs(x - exact.at(t)))))
                last_t = times[-1]
        except ValueError as exc:
            return [f"csv unreadable: {exc}"]
        problems = []
        if rows != self.rows:
            problems.append(f"csv has {rows} rows, expected {self.rows}")
        if last_t != self.t_end:
            problems.append(f"last csv sample at t={last_t}, expected {self.t_end}")
        if not worst <= STATE_TOL:
            problems.append(f"states off the expm oracle by up to {worst:.3g} > {STATE_TOL:g}")
        return problems


# Connectivity ------------------------------------------------------------------


def _pieces_touching(signal: dict, t1: float, t2: float) -> set[str]:
    """Graphs active somewhere in [t1, t2)."""
    return {name for _a, b, name in segments(signal, t2) if b > t1}


def _reach(adj: list[list[int]], root: int) -> int:
    seen = {root}
    queue = deque([root])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


def window_connected(family: dict, signal: dict, t1: float, t2: float, mode: str) -> bool:
    """Union graph over [t1, t2) is strongly / quasi-strongly connected."""
    n = next(iter(family.values()))["n"]
    adj: list[list[int]] = [[] for _ in range(n)]
    radj: list[list[int]] = [[] for _ in range(n)]
    for name in _pieces_touching(signal, t1, t2):
        for j, i, _s in family[name]["arcs"]:
            adj[j - 1].append(i - 1)
            radj[i - 1].append(j - 1)
    if mode == "strong":
        return _reach(adj, 0) == n and _reach(radj, 0) == n
    return any(_reach(adj, r) == n for r in range(n))


_WITNESS = re.compile(r"witness window \[([^,]+), ([^)]+)\)")


def _printed_slack(v: float) -> float:
    """Half a unit in the last digit of a value printed with ``:g``."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(v))) - 5) if v else 1e-300


def witness_disconnected(stdout: str, family: dict, signal: dict, T: float, mode: str) -> bool:
    """True iff the printed witness, read at its printed precision, is a
    disconnected window.

    The union over [t, t+T) only changes where t or t+T crosses a piece
    boundary, so checking those crossings and the points between them covers
    every start the printed digits allow.
    """
    found = _WITNESS.search(stdout)
    if not found:
        return False
    a, b = float(found.group(1)), float(found.group(2))
    ea, eb = _printed_slack(a), _printed_slack(b)
    if abs((b - a) - T) > ea + eb:
        return False
    lo, hi = a - ea, a + ea
    bounds = [s for s, _b, _name in segments(signal, hi + T)]
    cuts = sorted({lo, hi} | {c for s in bounds for c in (s, s - T) if lo <= c <= hi})
    starts = cuts + [(x + y) / 2 for x, y in zip(cuts, cuts[1:])]
    return any(
        t >= bounds[0] and not window_connected(family, signal, t, t + T, mode) for t in starts
    )


def check_graphs_call(call, files: dict, exit_code, stdout: str) -> list[str]:
    """Problems with one ``check-graphs`` call (empty when correct)."""
    obj = files[call.file]
    expect = 0 if call.connected else 1
    problems = []
    if exit_code != expect:
        problems.append(f"exit code {exit_code}, expected {expect}")
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if call.connected:
        if not last.startswith(f"uniformly jointly {call.mode} connected"):
            problems.append(f"verdict line {last!r}, expected connected")
    elif not witness_disconnected(last, obj["graphs"], obj["signal"], call.window, call.mode):
        problems.append(f"witness in {last!r} is not a disconnected window")
    return problems
