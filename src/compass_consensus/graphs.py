"""Signed directed graphs, switching signals, and joint-connectivity checks.

Nodes are numbered 1..n. An arc (j, i, sign) means node j influences node i;
sign -1 marks an antagonistic interaction. A switching signal is a
piecewise-constant map from time to an index of a finite graph family,
tiled into segments (a, b, label) that the simulator, the union graph and
the connectivity checker all read. Uniform joint connectivity over windows
of a given length is decided exactly by one sweep over the segments that
tests the union graph at the window starts where it can lose arcs.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Mapping

from . import _json
from .errors import DomainError, InsufficientHorizonError


@dataclass(frozen=True)
class SignedDigraph:
    """Directed graph on nodes 1..n with +/-1 signed arcs."""

    n: int
    arcs: frozenset[tuple[int, int, int]]
    allow_self_loops: bool = False

    def __init__(
        self,
        n: int,
        arcs: Iterable[tuple[int, int] | tuple[int, int, int]] = (),
        allow_self_loops: bool = False,
    ):
        if n < 1:
            raise DomainError("graph needs at least one node")
        norm: dict[tuple[int, int], int] = {}
        for arc in arcs:
            if len(arc) == 2:
                j, i, s = arc[0], arc[1], 1
            else:
                j, i, s = arc
            j, i, s = int(j), int(i), int(s)
            if s not in (1, -1):
                raise DomainError(f"arc ({j},{i}) sign must be +1 or -1, got {s}")
            if not (1 <= j <= n and 1 <= i <= n):
                raise DomainError(f"arc ({j},{i}) has node outside 1..{n}")
            if j == i and not allow_self_loops:
                raise DomainError(f"self-loop ({j},{i}) not allowed for this graph")
            if norm.get((j, i), s) != s:
                raise DomainError(f"arc ({j},{i}) appears with conflicting signs")
            norm[(j, i)] = s
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "allow_self_loops", allow_self_loops)
        object.__setattr__(
            self, "arcs", frozenset((j, i, s) for (j, i), s in norm.items())
        )

    def neighbors(self, i: int) -> list[int]:
        """In-neighbors of node i: all j with an arc (j, i)."""
        return sorted(j for (j, tgt, _s) in self.arcs if tgt == i)

    def sign(self, j: int, i: int) -> int:
        for (src, tgt, s) in self.arcs:
            if src == j and tgt == i:
                return s
        raise DomainError(f"no arc ({j},{i})")

    def has_arc(self, j: int, i: int) -> bool:
        return any(src == j and tgt == i for (src, tgt, _s) in self.arcs)

    def out_adjacency(self) -> list[list[int]]:
        """Successor lists indexed 0..n-1 (self-loops dropped)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (j, i, _s) in self.arcs:
            if j != i:
                adj[j - 1].append(i - 1)
        return adj


def _reachable_from(adj: list[list[int]], root: int) -> int:
    """Count of nodes reachable from root (root included) by BFS."""
    seen = [False] * len(adj)
    seen[root] = True
    queue = deque([root])
    count = 1
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                queue.append(w)
    return count


def _quasi_strong(adj: list[list[int]]) -> bool:
    return any(_reachable_from(adj, r) == len(adj) for r in range(len(adj)))


def _strong(adj: list[list[int]]) -> bool:
    n = len(adj)
    if _reachable_from(adj, 0) != n:
        return False
    radj: list[list[int]] = [[] for _ in range(n)]
    for u, outs in enumerate(adj):
        for w in outs:
            radj[w].append(u)
    return _reachable_from(radj, 0) == n


def is_quasi_strongly_connected(g: SignedDigraph) -> bool:
    """True iff some node has a directed path to every other node."""
    return _quasi_strong(g.out_adjacency())


def is_strongly_connected(g: SignedDigraph) -> bool:
    """True iff every node is reachable from every other node."""
    return _strong(g.out_adjacency())


# Simple presets. Ring and chain are directed; star and complete use mutual arcs.


def ring_graph(n: int, sign: int = 1) -> SignedDigraph:
    return SignedDigraph(n, ((i, i % n + 1, sign) for i in range(1, n + 1)))


def chain_graph(n: int, sign: int = 1) -> SignedDigraph:
    return SignedDigraph(n, ((i, i + 1, sign) for i in range(1, n)))


def star_graph(n: int, center: int = 1, sign: int = 1) -> SignedDigraph:
    arcs = []
    for i in range(1, n + 1):
        if i != center:
            arcs.append((center, i, sign))
            arcs.append((i, center, sign))
    return SignedDigraph(n, arcs)


def complete_graph(n: int, sign: int = 1) -> SignedDigraph:
    return SignedDigraph(
        n, ((j, i, sign) for j in range(1, n + 1) for i in range(1, n + 1) if j != i)
    )


class ConnectivityMode(Enum):
    QUASI_STRONG = "QuasiStrong"
    STRONG = "Strong"

    def test(self, g: SignedDigraph) -> bool:
        return self.holds(g.out_adjacency())

    def holds(self, adj: list[list[int]]) -> bool:
        """The test on 0-based successor lists (self-loops ignored)."""
        if self is ConnectivityMode.QUASI_STRONG:
            return _quasi_strong(adj)
        return _strong(adj)


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant family index over time.

    ``pieces`` is a list of (start_time, index); piece l is active on
    [start_l, start_{l+1}) and the last piece runs to ``horizon_end``. A
    periodic signal repeats with period ``horizon_end - pieces[0].start``.
    """

    pieces: tuple[tuple[float, Any], ...]
    tau_d: float
    horizon_end: float
    periodic: bool = False

    def __init__(
        self,
        pieces: Iterable[tuple[float, Any]],
        tau_d: float,
        horizon_end: float,
        periodic: bool = False,
    ):
        pieces = tuple((float(t), idx) for t, idx in pieces)
        if not pieces:
            raise DomainError("signal needs at least one piece")
        if tau_d <= 0:
            raise DomainError("dwell time tau_d must be positive")
        if horizon_end <= pieces[-1][0]:
            raise DomainError("horizon_end must exceed the last piece start")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "tau_d", float(tau_d))
        object.__setattr__(self, "horizon_end", float(horizon_end))
        object.__setattr__(self, "periodic", bool(periodic))

    @property
    def t0(self) -> float:
        return self.pieces[0][0]

    @property
    def period(self) -> float:
        return self.horizon_end - self.t0

    def start_times(self) -> list[float]:
        return [t for t, _ in self.pieces]

    def _copy_starts(self, k: int) -> list[float]:
        """Piece starts of periodic copy k: ``start_l + k * period``."""
        return [t + k * self.period for t, _ in self.pieces]

    def active_index(self, t: float) -> Any:
        """Family index active at time t (right-continuous), in O(pieces): the
        label of the segment of ``segments`` holding t, bounded by the same
        float expressions, so the two agree at every switch instant."""
        if not self.t0 <= t < float("inf"):
            raise DomainError(f"t={t} is not a finite time from the signal start {self.t0}")
        k = int((t - self.t0) // self.period) if self.periodic else 0
        # The quotient can round to either neighbouring copy; step to the right one.
        while k > 0 and self.t0 + k * self.period > t:
            k -= 1
        while self.periodic and self.t0 + (k + 1) * self.period <= t:
            k += 1
        return self.pieces[bisect.bisect_right(self._copy_starts(k), t) - 1][1]

    def segments(self, t_end: float) -> list[tuple[float, float, Any]]:
        """Constant pieces (a, b, label) in time order, through the one active at t_end.

        ``b`` is the next segment's start (``horizon_end`` for the last piece
        of an aperiodic signal), so a segment starting exactly at t_end is
        included. Periodic copy k starts at ``start_l + k * period``: integer
        period counts, so no rounding accumulates over periods.
        """
        if not t_end < float("inf"):
            raise DomainError(f"t_end must be finite, got {t_end}")
        if t_end > self.horizon_end and not self.periodic:
            raise DomainError("t_end exceeds the horizon of an aperiodic signal")
        times = self.start_times()
        if any(b < a for a, b in zip(times, times[1:])):
            raise DomainError("piece start times must be nondecreasing")
        labels = [p for _, p in self.pieces]
        segs: list[tuple[float, float, Any]] = []
        k = 0
        while not segs or (self.periodic and segs[-1][1] <= t_end):
            tiled = self._copy_starts(k)
            end = self.t0 + (k + 1) * self.period if self.periodic else self.horizon_end
            segs.extend(zip(tiled, tiled[1:] + [end], labels))
            k += 1
        return segs[: bisect.bisect_right(segs, t_end, key=lambda seg: seg[0])]


@dataclass(frozen=True)
class DwellViolation:
    """A switching-signal defect: pieces out of order or switched too fast."""

    index: int
    gap: float
    required: float

    def __str__(self) -> str:
        return (
            f"piece {self.index}: gap {self.gap:g} below dwell time {self.required:g}"
        )


# Relative slack of the dwell check. A gap is a difference of two rounded
# times, so a schedule that is exact in decimal (starts 0.2 and 0.3 with
# tau_d = 0.1) can come out an ulp short; 1e-9 * tau_d absorbs that for times
# up to about 1e6 * tau_d and still rejects any gap shorter by a real amount.
_DWELL_RTOL = 1e-9


def validate_switching_signal(signal: SwitchingSignal) -> list[DwellViolation]:
    """Empty list iff piece times are strictly increasing with gaps >= tau_d.

    Gaps are compared with a relative slack of ``_DWELL_RTOL`` (1e-9). For
    periodic signals the wrap-around gap (horizon_end back to the first
    piece) is checked as well.
    """
    required = signal.tau_d * (1.0 - _DWELL_RTOL)
    starts = signal.start_times()
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    if signal.periodic:
        gaps.append(signal.horizon_end - starts[-1])
    return [
        DwellViolation(idx, gap, signal.tau_d)
        for idx, gap in enumerate(gaps, start=1)
        if gap < required
    ]


def _node_count(signal: SwitchingSignal, family: Mapping[Any, SignedDigraph]) -> int:
    """Node count of the graphs the signal uses; DomainError if a label is
    missing or two sizes differ, whether or not some window mixes them."""
    ns = set()
    for _t, p in signal.pieces:
        if p not in family:
            raise DomainError(f"signal label {p!r} is not in the graph family")
        ns.add(family[p].n)
    if len(ns) > 1:
        raise DomainError(f"family graphs disagree on node count: {sorted(ns)}")
    return ns.pop()


def union_graph(
    signal: SwitchingSignal,
    family: Mapping[Any, SignedDigraph],
    t1: float,
    t2: float,
) -> SignedDigraph:
    """Union of the arc sets of all graphs active on [t1, t2), signs dropped.

    Connectivity of the joint graph does not depend on arc signs, so an arc
    present under either sign is present (with sign +1) in the union. The
    segments with start < t2 and end > t1 are found by bisection.
    """
    if not t1 < t2:
        raise DomainError("need t1 < t2")
    if t1 < signal.t0 or (not signal.periodic and t2 > signal.horizon_end):
        raise DomainError(
            f"[{t1}, {t2}) outside signal horizon [{signal.t0}, {signal.horizon_end}]"
        )
    n = _node_count(signal, family)
    segs = signal.segments(t2)
    first = bisect.bisect_right(segs, t1, key=lambda seg: seg[1])
    last = bisect.bisect_left(segs, t2, key=lambda seg: seg[0])
    labels = {p for _a, _b, p in segs[first:last]}
    arcs = {(j, i, 1) for p in labels for (j, i, _s) in family[p].arcs}
    loops = any(family[p].allow_self_loops for p in labels)
    return SignedDigraph(n, arcs, allow_self_loops=loops)


@dataclass(frozen=True)
class ConnectivityVerdict:
    """Outcome of a uniform joint connectivity check."""

    ok: bool
    mode: ConnectivityMode
    window: float
    scope: str
    windows_checked: int
    witness: tuple[float, float] | None = None
    checked_windows: tuple[tuple[float, float, bool], ...] = field(default=())

    def __bool__(self) -> bool:
        return self.ok


def check_uniform_joint_connectivity(
    signal: SwitchingSignal,
    family: Mapping[Any, SignedDigraph],
    T: float,
    mode: ConnectivityMode = ConnectivityMode.QUASI_STRONG,
) -> ConnectivityVerdict:
    """Decide whether every length-T window's union graph is connected.

    The union over [t, t+T) loses segments only where t crosses a segment
    end, which is the next segment's start, and otherwise only gains them as
    t + T passes segment starts. So between consecutive candidates
    {t0, last start} and {s : s a segment start} the union never shrinks
    and contains the union at the left candidate. Connectivity only grows
    with the arc set, so the candidates decide every window and the first
    failing one is the earliest failing start. One two-pointer sweep keeps
    per-arc multiplicities and re-runs the BFS test only when an arc enters
    or leaves the union: O(segments * arcs), plus O(n * (n + arcs)) per
    change.
    A periodic signal needs one period of starts and its verdict extends to
    all times; an aperiodic verdict is scoped to the supplied horizon. A
    label missing from the family, or graphs of different sizes, raise
    DomainError before the sweep.
    """
    if not 0 < T < float("inf"):
        raise DomainError(f"window length T must be positive and finite, got {T}")
    n = _node_count(signal, family)
    t0 = signal.t0
    if signal.periodic:
        last_start = t0 + signal.period
        scope = "global (periodic extension)"
    else:
        if signal.horizon_end - t0 < T:
            raise InsufficientHorizonError(
                f"window T={T} exceeds horizon {signal.horizon_end - t0}"
            )
        last_start = signal.horizon_end - T
        scope = f"horizon [{t0}, {signal.horizon_end})"

    # last_start + T can round past an aperiodic horizon_end.
    segs = signal.segments(last_start + T if signal.periodic else signal.horizon_end)
    candidates = {t0, last_start}
    candidates.update(a for a, _b, _p in segs if t0 <= a <= last_start)
    arcs = {p: [(j - 1, i - 1) for j, i, _s in g.arcs if j != i] for p, g in family.items()}

    count: dict[tuple[int, int], int] = {}
    lo = hi = 0
    ok = None
    checked = []
    for start in sorted(candidates):
        end = start + T
        changed = ok is None
        while hi < len(segs) and segs[hi][0] < end:
            for arc in arcs[segs[hi][2]]:
                count[arc] = count.get(arc, 0) + 1
                changed |= count[arc] == 1
            hi += 1
        while lo < hi and segs[lo][1] <= start:
            for arc in arcs[segs[lo][2]]:
                count[arc] -= 1
                changed |= count[arc] == 0
            lo += 1
        if changed:
            adj: list[list[int]] = [[] for _ in range(n)]
            for (j, i), c in count.items():
                if c:
                    adj[j].append(i)
            ok = mode.holds(adj)
        checked.append((start, end, ok))
    witness = next(((a, b) for a, b, good in checked if not good), None)
    return ConnectivityVerdict(
        ok=witness is None, mode=mode, window=T, scope=scope,
        windows_checked=len(checked), witness=witness, checked_windows=tuple(checked),
    )


# JSON exchange format: graph {n, arcs: [[j, i, sign], ...], allow_self_loops},
# signal {tau_d, pieces: [[t, index], ...], horizon_end, periodic}. ``*_args``
# check every entry without building, so a scenario can check all of its
# sections first; ``*_from_json`` also build.


def graph_to_json(g: SignedDigraph) -> dict:
    return {
        "n": g.n,
        "arcs": sorted([j, i, s] for (j, i, s) in g.arcs),
        "allow_self_loops": g.allow_self_loops,
    }


def graph_args(obj: Any, at: str = "$") -> tuple[int, list[tuple], bool]:
    """``SignedDigraph`` arguments (n, arcs, allow_self_loops) of the JSON
    graph object at path ``at``."""
    _json.obj(obj, at, required=("n", "arcs"), allowed=("allow_self_loops",))
    n = _json.integer(obj["n"], at, "n", minimum=1)
    base = at + ".arcs"
    arcs = []
    for k, arc in enumerate(_json.array(obj["arcs"], at, "arcs")):
        _json.array(arc, base, k, min_len=2, max_len=3)
        arcs.append((
            _json.integer(arc[0], base, k, 0, minimum=1),
            _json.integer(arc[1], base, k, 1, minimum=1),
            _json.enum(arc[2], (1, -1), base, k, 2) if len(arc) == 3 else 1,
        ))
    return n, arcs, _json.flag(obj, "allow_self_loops", at)


def graph_from_json(obj: Any, at: str = "$") -> SignedDigraph:
    """The graph of a JSON graph object; ConfigError at or below ``at``."""
    return _json.build(SignedDigraph, at, *graph_args(obj, at))


def signal_to_json(signal: SwitchingSignal) -> dict:
    return {
        "tau_d": signal.tau_d,
        "pieces": [[t, p] for t, p in signal.pieces],
        "horizon_end": signal.horizon_end,
        "periodic": signal.periodic,
    }


def signal_args(obj: Any, at: str = "$") -> tuple[list[tuple], float, float, bool]:
    """``SwitchingSignal`` arguments (pieces, tau_d, horizon_end, periodic)
    of the JSON signal object at path ``at``."""
    _json.obj(obj, at, required=("tau_d", "pieces", "horizon_end"), allowed=("periodic",))
    base = at + ".pieces"
    pieces = []
    for k, piece in enumerate(_json.array(obj["pieces"], at, "pieces", min_len=1)):
        _json.array(piece, base, k, min_len=2, max_len=2)
        pieces.append((_json.number(piece[0], base, k, 0), _json.string(piece[1], base, k, 1)))
    tau_d = _json.number(obj["tau_d"], at, "tau_d", above=0)
    horizon_end = _json.number(obj["horizon_end"], at, "horizon_end")
    return pieces, tau_d, horizon_end, _json.flag(obj, "periodic", at)


def signal_from_json(obj: Any, at: str = "$") -> SwitchingSignal:
    """The signal of a JSON signal object; ConfigError at or below ``at``."""
    return _json.build(SwitchingSignal, at, *signal_args(obj, at))
