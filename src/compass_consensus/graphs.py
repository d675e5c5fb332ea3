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
from enum import Enum
from itertools import count, groupby
from typing import Any, Iterable, Iterator, Mapping

from . import _json
from .errors import DomainError, InsufficientHorizonError, integer, real


class _Record:
    """The value semantics of ``@dataclass(frozen=True)`` over the fields
    annotated in the class body, without importing dataclasses. Constructors
    fill ``__dict__``; no ``__slots__``, so pickle and copy can too."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in type(self).__annotations__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in type(self).__annotations__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SignedDigraph(_Record):
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
        n = integer("node count", n)
        if n < 1:
            raise DomainError("graph needs at least one node")
        if not isinstance(allow_self_loops, bool):
            raise DomainError(f"allow_self_loops must be True or False, got {allow_self_loops!r}")
        norm: dict[tuple[int, int], int] = {}
        for arc in arcs:
            if len(arc) == 2:
                j, i, s = arc[0], arc[1], 1
            else:
                j, i, s = arc
            try:
                j, i, s = integer("node", j), integer("node", i), integer("sign", s)
            except DomainError as exc:
                raise DomainError(f"arc {tuple(arc)!r} needs integer nodes and sign") from exc
            if s not in (1, -1):
                raise DomainError(f"arc ({j},{i}) sign must be +1 or -1, got {s}")
            if not (1 <= j <= n and 1 <= i <= n):
                raise DomainError(f"arc ({j},{i}) has node outside 1..{n}")
            if j == i and not allow_self_loops:
                raise DomainError(f"self-loop ({j},{i}) not allowed for this graph")
            if norm.get((j, i), s) != s:
                raise DomainError(f"arc ({j},{i}) appears with conflicting signs")
            norm[(j, i)] = s
        arcs = frozenset((j, i, s) for (j, i), s in norm.items())
        self.__dict__.update(n=n, arcs=arcs, allow_self_loops=allow_self_loops)

    def in_arcs(self) -> list[tuple[int, int, int]]:
        """Every node's in-neighbours N_i without i, built on each call: arcs
        (head i, tail j, sign) on nodes 0..n-1, sorted by head then tail."""
        return sorted([(i - 1, j - 1, s) for j, i, s in self.arcs if j != i])

    def out_adjacency(self) -> list[list[int]]:
        """Successor lists indexed 0..n-1 (self-loops dropped)."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j, _s in self.in_arcs():
            adj[j].append(i)
        return adj


def _search(adj: list[list[int]], root: int, seen: list[bool]) -> int:
    """Mark in ``seen`` every node reachable from the unseen ``root`` through
    unseen nodes (root included), depth first; returns the count marked."""
    seen[root] = True
    stack = [root]
    marked = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                marked += 1
                stack.append(w)
    return marked


def _quasi_strong(adj: list[list[int]]) -> bool:
    """True iff some node reaches every node, in O(n + arcs).

    One search over all nodes that never resets ``seen`` leaves the seen set
    closed under successors after each tree. So the tree holding a node that
    reaches everything is the last one started, and its root reaches that
    node: one search from the last root decides the test (none is needed when
    the first tree holds every node).
    """
    n = len(adj)
    seen = [False] * n
    last = 0
    for root in range(n):
        if not seen[root]:
            last = root
            _search(adj, root, seen)
    return last == 0 or _search(adj, last, [False] * n) == n


def _strong(adj: list[list[int]]) -> bool:
    n = len(adj)
    if _search(adj, 0, [False] * n) != n:
        return False
    radj: list[list[int]] = [[] for _ in range(n)]
    for u, outs in enumerate(adj):
        for w in outs:
            radj[w].append(u)
    return _search(radj, 0, [False] * n) == n


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


class SwitchingSignal(_Record):
    """Piecewise-constant family index over time.

    ``pieces`` is a list of (start_time, index); piece l is active on
    [start_l, start_{l+1}) and the last piece runs to ``horizon_end``. A
    periodic signal repeats with period ``horizon_end - pieces[0].start``.
    The constructor raises DomainError unless start times are finite and
    nondecreasing, ``tau_d`` is positive and finite, and ``horizon_end`` is
    finite and past the last start.
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
        pieces = tuple([(real("piece start", t), idx) for t, idx in pieces])
        if not isinstance(periodic, bool):
            raise DomainError(f"periodic must be True or False, got {periodic!r}")
        if not pieces:
            raise DomainError("signal needs at least one piece")
        times = [t for t, _ in pieces]
        if times != sorted(times):
            raise DomainError("piece start times must be finite and nondecreasing")
        tau_d = real("dwell time tau_d", tau_d, above=0)
        horizon_end = real("horizon_end", horizon_end)
        if not times[-1] < horizon_end:
            raise DomainError("horizon_end must be finite and exceed the last piece start")
        self.__dict__.update(pieces=pieces, tau_d=tau_d, horizon_end=horizon_end, periodic=periodic)

    @property
    def t0(self) -> float:
        return self.pieces[0][0]

    @property
    def period(self) -> float:
        return self.horizon_end - self.t0

    def start_times(self) -> list[float]:
        return [t for t, _ in self.pieces]

    def _copies(self, t: float) -> Iterator[list[tuple[float, float, Any]]]:
        """Segments (a, b, label) of each periodic copy in turn, from the one
        holding t >= t0: copy k's pieces start at ``start_l + k * period``
        (integer period counts, so no rounding accumulates over periods) and
        its last ends at ``t0 + (k + 1) * period``, the next copy's start. An
        aperiodic signal is one copy, ending at ``horizon_end``."""
        starts, labels = self.start_times(), [p for _, p in self.pieces]
        # The quotient can round to either neighbour: start below it, skip copies ending by t.
        first = max(0, int((t - self.t0) // self.period) - 1) if self.periodic else 0
        for k in count(first) if self.periodic else [0]:
            end = self.t0 + (k + 1) * self.period if self.periodic else self.horizon_end
            if end > t or not self.periodic:
                tiled = list(map((k * self.period).__add__, starts))
                yield list(zip(tiled, tiled[1:] + [end], labels))

    def active_index(self, t: float) -> Any:
        """Family index active at time t (right-continuous), in O(pieces): the
        label of the segment of ``segments`` holding t, read from the same
        periodic copy, so the two agree at every switch instant."""
        t = real("t", t)
        if t < self.t0:
            raise DomainError(f"t={t} is before the signal start {self.t0}")
        if t > self.horizon_end and not self.periodic:
            raise DomainError(f"t={t} is past the horizon_end {self.horizon_end} of the signal")
        segs = next(self._copies(t))
        return segs[bisect.bisect_right(segs, t, key=lambda seg: seg[0]) - 1][2]

    def segments(self, t_end: float) -> list[tuple[float, float, Any]]:
        """Constant pieces (a, b, label) in time order, through the one active at t_end.

        ``b`` is the next segment's start (``horizon_end`` for the last piece
        of an aperiodic signal), so a segment starting exactly at t_end is
        included. The periodic copies are tiled from t0 until one ends past
        t_end; ``active_index`` and ``union_graph`` read the same copies.
        """
        t_end = real("t_end", t_end)
        if t_end > self.horizon_end and not self.periodic:
            raise DomainError("t_end exceeds the horizon of an aperiodic signal")
        segs: list[tuple[float, float, Any]] = []
        for copy in self._copies(self.t0):
            segs += copy
            if copy[-1][1] > t_end:
                break
        return segs[: bisect.bisect_right(segs, t_end, key=lambda seg: seg[0])]


class DwellViolation(_Record):
    """A switching-signal defect: two piece starts closer than the dwell time."""

    index: int
    gap: float
    required: float

    def __init__(self, index, gap, required):
        self.__dict__.update(index=index, gap=gap, required=required)

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
    labels = dict.fromkeys([p for _t, p in signal.pieces])  # in order of first use
    for p in labels:
        if p not in family:
            raise DomainError(f"signal label {p!r} is not in the graph family")
    ns = {family[p].n for p in labels}
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
    present under either sign is present (with sign +1) in the union. Only
    the periodic copies from the one holding t1 until one ends at or after t2
    are read, from ``_copies`` as ``segments`` reads them, and the segments
    with start < t2 and end > t1 are kept; it stops early once every label is in.
    """
    t1, t2 = real("t1", t1), real("t2", t2)
    if not t1 < t2:
        raise DomainError("need t1 < t2")
    if t1 < signal.t0 or (not signal.periodic and t2 > signal.horizon_end):
        raise DomainError(
            f"[{t1}, {t2}) outside signal horizon [{signal.t0}, {signal.horizon_end}]"
        )
    n = _node_count(signal, family)
    every = {p for _t, p in signal.pieces}
    labels: set = set()
    for copy in signal._copies(t1):
        labels.update(p for a, b, p in copy if a < t2 and b > t1)
        if copy[-1][1] >= t2 or labels == every:
            break
    arcs = {(j, i, 1) for p in labels for (j, i, _s) in family[p].arcs}
    loops = any(family[p].allow_self_loops for p in labels)
    return SignedDigraph(n, arcs, allow_self_loops=loops)


class ConnectivityVerdict(_Record):
    """Outcome of a uniform joint connectivity check."""

    ok: bool
    mode: ConnectivityMode
    window: float
    scope: str
    windows_checked: int
    witness: tuple[float, float] | None
    checked_windows: tuple[tuple[float, float, bool], ...]

    def __init__(self, ok, mode, window, scope, windows_checked, witness=None, checked_windows=()):
        self.__dict__.update(ok=ok, mode=mode, window=window, scope=scope,
                             windows_checked=windows_checked, witness=witness,
                             checked_windows=checked_windows)

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
    failing one is the earliest failing start. One two-pointer sweep counts
    the segments of each label in the window and, per arc, the labels in the
    window that hold it. A graph's arcs are touched only when its label
    enters or leaves the window, and the connectivity test re-runs only when
    an arc enters or leaves the union: O(segments + label crossings * arcs),
    plus one O(n + arcs) test per change in the union's arc set.
    A periodic signal needs one period of starts and its verdict extends to
    all times. Its schedule is tiled only to last_start + min(T, period): a
    window at least one period long holds a whole period of segments, and so
    does the tiled part of it. An aperiodic verdict is scoped to the supplied
    horizon. A label missing from the family, graphs of different sizes, or
    a T that leaves t + T == t at a first or last start raise DomainError
    before the sweep.
    """
    T = real("window length T", T, above=0)
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
    if not (t0 + T > t0 and last_start + T > last_start):  # the spacing is widest at an end
        raise DomainError(f"window T={T} is below the float spacing of the signal's times")

    # last_start + T can round past an aperiodic horizon_end.
    segs = signal.segments(
        last_start + min(T, signal.period) if signal.periodic else signal.horizon_end
    )
    # The tiled starts come in order, so the sort is linear; groupby drops repeats.
    candidates = sorted([t0, last_start, *[a for a, _b, _p in segs if t0 <= a <= last_start]])
    arcs = {p: [(i, j) for i, j, _s in g.in_arcs()] for p, g in family.items()}

    held = dict.fromkeys(arcs, 0)  # segments of each label in the window
    count: dict[tuple[int, int], int] = {}  # labels in the window holding each arc
    lo = hi = 0
    ok = None
    checked = []
    for start, _same in groupby(candidates):
        end = start + T
        changed = ok is None
        while hi < len(segs) and segs[hi][0] < end:
            p = segs[hi][2]
            held[p] += 1
            if held[p] == 1:
                for arc in arcs[p]:
                    count[arc] = count.get(arc, 0) + 1
                    changed |= count[arc] == 1
            hi += 1
        while lo < hi and segs[lo][1] <= start:
            p = segs[lo][2]
            held[p] -= 1
            if not held[p]:
                for arc in arcs[p]:
                    count[arc] -= 1
                    changed |= count[arc] == 0
            lo += 1
        if changed:
            adj: list[list[int]] = [[] for _ in range(n)]
            for (i, j), c in count.items():
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
            int(_json.enum(arc[2], (1, -1), base, k, 2)) if len(arc) == 3 else 1,  # JSON -1.0 as an int
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
