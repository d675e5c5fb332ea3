import bisect
import copy
import math
import os
import pickle
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import compass_consensus
from compass_consensus.errors import DomainError, InsufficientHorizonError
from compass_consensus.graphs import (
    ConnectivityMode,
    ConnectivityVerdict,
    DwellViolation,
    SignedDigraph,
    SwitchingSignal,
    chain_graph,
    check_uniform_joint_connectivity,
    complete_graph,
    graph_from_json,
    graph_to_json,
    is_quasi_strongly_connected,
    is_strongly_connected,
    ring_graph,
    signal_from_json,
    signal_to_json,
    star_graph,
    union_graph,
    validate_switching_signal,
)
from helpers import (
    in_arcs_cases,
    v0_check_uniform_joint_connectivity,
    v0_quasi_strong,
    v0_union_graph,
    v1_union_graph,
)

SRC = Path(compass_consensus.__file__).parents[1]


def closure_oracle(g: SignedDigraph) -> np.ndarray:
    """Boolean transitive closure by repeated matrix squaring (independent path)."""
    n = g.n
    reach = np.eye(n, dtype=bool)
    for (j, i, _s) in g.arcs:
        if j != i:
            reach[j - 1, i - 1] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


def oracle_qsc(g):
    return bool(closure_oracle(g).all(axis=1).any())


def oracle_sc(g):
    return bool(closure_oracle(g).all())


class TestSignedDigraph:
    def test_neighbors_and_signs(self):
        g = SignedDigraph(3, [(1, 2), (3, 2, -1)])
        assert g.arcs == {(1, 2, 1), (3, 2, -1)}

    def test_conflicting_signs_rejected(self):
        with pytest.raises(DomainError):
            SignedDigraph(2, [(1, 2, 1), (1, 2, -1)])

    def test_self_loop_needs_flag(self):
        with pytest.raises(DomainError):
            SignedDigraph(2, [(1, 1)])
        g = SignedDigraph(2, [(1, 1)], allow_self_loops=True)
        assert g.arcs == {(1, 1, 1)}

    def test_node_range_checked(self):
        with pytest.raises(DomainError):
            SignedDigraph(2, [(1, 3)])

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None, True, False])
    def test_node_count_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="node count"):
            SignedDigraph(n, [(1, 2)])

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_flags_must_be_booleans(self, flag):
        # A flag that is not a bool would be written back to JSON as is,
        # where the reader refuses it.
        with pytest.raises(DomainError, match="allow_self_loops must be True or False"):
            SignedDigraph(2, [(1, 2)], allow_self_loops=flag)
        with pytest.raises(DomainError, match="periodic must be True or False"):
            SwitchingSignal([(0.0, "a")], tau_d=1.0, horizon_end=2.0, periodic=flag)

    def test_numpy_integer_node_count_accepted(self):
        g = SignedDigraph(np.int64(2), [(1, 2)])
        assert g.n == 2 and type(g.n) is int
        assert is_quasi_strongly_connected(g)

    @pytest.mark.parametrize("arc", [(1.5, 2), (1, 2.0), ("1", 2), (2, 3, -1.7), (2, 3, -1.0),
                                     (None, 2), (1, 2, "+"), (True, 2), (1, True),
                                     (2, 3, True), (2, 3, False)])
    def test_arc_endpoints_and_signs_must_be_integers(self, arc):
        # int() would truncate these to (1, 2, +1) or (2, 3, -1) without a word,
        # and operator.index reads True as 1.
        with pytest.raises(DomainError, match="integer"):
            SignedDigraph(3, [arc])

    def test_numpy_integer_arcs_accepted(self):
        g = SignedDigraph(3, [tuple(np.array([1, 2, -1])), (np.int32(2), np.uint8(3))])
        assert g.arcs == {(1, 2, -1), (2, 3, 1)}
        assert all(type(x) is int for arc in g.arcs for x in arc)


@pytest.mark.parametrize("case", in_arcs_cases())
class TestInArcs:
    def test_table_is_sorted_zero_based_loop_free_and_signed(self, case):
        g = in_arcs_cases()[case]
        table = g.in_arcs()
        assert table == sorted(table) and len({(i, j) for i, j, _s in table}) == len(table)
        assert all(0 <= i < g.n and 0 <= j < g.n and i != j for i, j, _s in table)
        assert {(j + 1, i + 1, s) for i, j, s in table} == {a for a in g.arcs if a[0] != a[1]}

    def test_out_adjacency_matches_the_arcs(self, case):
        g = in_arcs_cases()[case]
        want = [sorted(i - 1 for j, i, _s in g.arcs if j == u + 1 and i != j) for u in range(g.n)]
        assert [sorted(succ) for succ in g.out_adjacency()] == want

    def test_table_is_stored_once_outside_the_fields(self, case):
        # Sorted when the graph is built, not on each call. Each call returns
        # its own list, and equality, hash and repr read the fields only.
        g = in_arcs_cases()[case]
        table = g.in_arcs()
        table.append(None)
        assert g.in_arcs() == table[:-1]
        assert set(vars(g)) == {"n", "arcs", "allow_self_loops", "_in_arcs"}
        twin = SignedDigraph(g.n, sorted(g.arcs, reverse=True), g.allow_self_loops)
        assert twin == g and hash(twin) == hash(g) and "_in_arcs" not in repr(g)


class TestConnectivity:
    def test_chain_is_quasi_strong_only(self):
        g = chain_graph(3)
        assert is_quasi_strongly_connected(g)
        assert not is_strongly_connected(g)

    def test_isolated_nodes(self):
        g = SignedDigraph(2, [])
        assert not is_quasi_strongly_connected(g)

    def test_ring_strong(self):
        g = ring_graph(4)
        assert is_strongly_connected(g)
        assert is_quasi_strongly_connected(g)

    def test_single_node_vacuous(self):
        g = SignedDigraph(1, [])
        assert is_strongly_connected(g)
        assert is_quasi_strongly_connected(g)

    def test_presets_connected(self):
        assert is_strongly_connected(complete_graph(5))
        assert is_strongly_connected(star_graph(5))

    def test_strong_implies_quasi_strong_random(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            arcs = [
                (j, i)
                for j in range(1, n + 1)
                for i in range(1, n + 1)
                if j != i and rng.random() < 0.3
            ]
            g = SignedDigraph(n, arcs)
            if is_strongly_connected(g):
                assert is_quasi_strongly_connected(g)

    def test_against_closure_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            arcs = [
                (j, i)
                for j in range(1, n + 1)
                for i in range(1, n + 1)
                if j != i and rng.random() < 0.35
            ]
            g = SignedDigraph(n, arcs)
            assert is_quasi_strongly_connected(g) == oracle_qsc(g)
            assert is_strongly_connected(g) == oracle_sc(g)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_quasi_strong_matches_bfs_from_every_root(self, data):
        n = data.draw(st.integers(1, 6))
        isolated = data.draw(st.sets(st.integers(1, n), max_size=n - 1))
        arcs = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                                  max_size=3 * n))
        g = SignedDigraph(n, [(j, i) for j, i in arcs if not {j, i} & isolated],
                          allow_self_loops=True)
        assert is_quasi_strongly_connected(g) == v0_quasi_strong(g.out_adjacency())


def alternating_signal(horizon=4.0, dwell=1.0):
    pieces = []
    t, k = 0.0, 0
    while t < horizon - 1e-12:
        pieces.append((t, "a" if k % 2 == 0 else "b"))
        t += dwell
        k += 1
    return SwitchingSignal(pieces, tau_d=dwell, horizon_end=horizon)


ALT_FAMILY = {
    "a": SignedDigraph(2, [(1, 2)]),
    "b": SignedDigraph(2, [(2, 1)]),
}


class TestUnionGraph:
    def test_union_of_alternation(self):
        sig = alternating_signal()
        g = union_graph(sig, ALT_FAMILY, 0.0, 2.0)
        assert g.arcs == {(1, 2, 1), (2, 1, 1)}

    def test_window_inside_one_piece(self):
        sig = alternating_signal()
        g = union_graph(sig, ALT_FAMILY, 0.1, 0.9)
        assert g.arcs == {(1, 2, 1)}

    def test_empty_family_union(self):
        sig = SwitchingSignal([(0.0, "e")], tau_d=1.0, horizon_end=2.0)
        g = union_graph(sig, {"e": SignedDigraph(3, [])}, 0.0, 2.0)
        assert len(g.arcs) == 0

    def test_signs_dropped(self):
        fam = {"a": SignedDigraph(2, [(1, 2, -1)]), "b": SignedDigraph(2, [(1, 2, 1)])}
        sig = alternating_signal()
        g = union_graph(sig, fam, 0.0, 4.0)
        assert g.arcs == frozenset({(1, 2, 1)})

    def test_outside_horizon(self):
        sig = alternating_signal()
        with pytest.raises(DomainError):
            union_graph(sig, ALT_FAMILY, 0.0, 5.0)

    def test_monotone_in_window(self):
        sig = alternating_signal(horizon=8.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.uniform(0, 7)
            b = rng.uniform(a + 0.01, 8)
            inner = union_graph(sig, ALT_FAMILY, a, b)
            a2 = rng.uniform(0, a)
            b2 = rng.uniform(b, 8)
            outer = union_graph(sig, ALT_FAMILY, a2, b2)
            assert inner.arcs <= outer.arcs


UNION_FAMILY = {
    "a": SignedDigraph(3, [(1, 2)]),
    "b": SignedDigraph(3, [(2, 3, -1)]),
    "c": SignedDigraph(3, [(3, 1), (2, 2)], allow_self_loops=True),
}
UNION_SIGNALS = {
    "two-piece": SwitchingSignal([(0.0, "a"), (0.5, "b")], 0.5, 1.0, periodic=True),
    "inexact-period": SwitchingSignal([(0.3, "a"), (0.4, "b"), (0.7, "c")], 0.1, 1.2,
                                      periodic=True),
    "zero-length-piece": SwitchingSignal([(0.0, "a"), (0.25, "b"), (0.25, "c"), (0.6, "a")],
                                         0.1, 1.1, periodic=True),
    "aperiodic": SwitchingSignal([(0.3, "a"), (0.4, "b"), (0.7, "c"), (0.9, "b")], 0.1,
                                 45.0),
}


class TestUnionGraphCopies:
    """``union_graph`` reads only the periodic copies over its window."""

    @pytest.mark.parametrize("name", UNION_SIGNALS)
    def test_matches_union_over_all_segments(self, name):
        # Windows in the first ~50 periods; most ends sit exactly on a piece or
        # copy boundary or one ulp off it, the rest anywhere.
        sig = UNION_SIGNALS[name]
        horizon = sig.horizon_end if not sig.periodic else sig.t0 + 50 * sig.period
        bounds = sorted({x for a, b, _p in sig.segments(horizon) for x in (a, b)
                         if x <= horizon})
        points = np.array(bounds + list(np.nextafter(bounds, np.inf))
                          + list(np.nextafter(bounds, -np.inf)))
        points = points[(points >= sig.t0) & (points <= horizon)]
        rng = np.random.default_rng(3)
        for _ in range(1500):
            t1, t2 = sorted(float(x) for x in (
                rng.choice(points) if rng.random() < 0.8 else rng.uniform(sig.t0, horizon)
                for _ in range(2)))
            if t1 == t2:
                continue
            assert union_graph(sig, UNION_FAMILY, t1, t2) == v1_union_graph(
                sig, UNION_FAMILY, t1, t2), (t1, t2)

    def test_window_far_from_start_reads_only_its_copies(self):
        # Tiling from t0 took ~3 s and ~23 MB for this window at t1 = 1e5.
        sig = UNION_SIGNALS["two-piece"]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            g = union_graph(sig, UNION_FAMILY, 1e5, 1e5 + 0.25)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.arcs == {(1, 2, 1)}
        assert peak < 100_000 and elapsed < 0.5
        assert union_graph(sig, UNION_FAMILY, 0.25, 1e4).arcs == {(1, 2, 1), (2, 3, 1)}

    @pytest.mark.parametrize("name", ["inexact-period", "zero-length-piece"])
    def test_far_copy_lookup_union_and_tiling_agree(self, name):
        # At every piece start of copy k = 10**6 and one ulp either side, the
        # lookup, a one-ulp union window and start_l + k * period name one label.
        sig, k = UNION_SIGNALS[name], 10**6
        tiled = [(s + j * sig.period, p) for j in (k - 1, k, k + 1) for s, p in sig.pieces]
        arcs = {p: {(j, i, 1) for j, i, _s in g.arcs} for p, g in UNION_FAMILY.items()}
        for s, _p in sig.pieces:
            a = s + k * sig.period
            for t in (math.nextafter(a, -math.inf), a, math.nextafter(a, math.inf)):
                expect = [p for start, p in tiled if start <= t][-1]
                union = union_graph(sig, UNION_FAMILY, t, math.nextafter(t, math.inf))
                assert sig.active_index(t) == expect, t
                assert [p for p in arcs if arcs[p] == union.arcs] == [expect], t


class TestSwitchingSignalValidation:
    def test_clean_signal(self):
        sig = SwitchingSignal([(0, "a"), (1, "b"), (2, "a")], tau_d=0.5, horizon_end=3)
        assert validate_switching_signal(sig) == []

    def test_dwell_violation(self):
        sig = SwitchingSignal([(0, "a"), (0.3, "b")], tau_d=0.5, horizon_end=1)
        bad = validate_switching_signal(sig)
        assert len(bad) == 1 and bad[0].index == 1

    def test_single_piece(self):
        sig = SwitchingSignal([(0, "a")], tau_d=0.5, horizon_end=1)
        assert validate_switching_signal(sig) == []

    def test_periodic_wrap_gap(self):
        sig = SwitchingSignal(
            [(0, "a"), (1, "b")], tau_d=0.5, horizon_end=1.2, periodic=True
        )
        bad = validate_switching_signal(sig)
        assert len(bad) == 1 and bad[0].index == 2

    def test_decimal_schedule_meets_its_dwell(self):
        # 0.3 - 0.2 is 0.09999999999999998 in binary floating point
        sig = SwitchingSignal(
            [(0.0, "a"), (0.1, "b"), (0.2, "c")], tau_d=0.1, horizon_end=0.3,
            periodic=True,
        )
        assert validate_switching_signal(sig) == []

    def test_really_short_gap_still_rejected(self):
        sig = SwitchingSignal(
            [(0.0, "a"), (0.1, "b"), (0.199, "c")], tau_d=0.1, horizon_end=0.3,
            periodic=True,
        )
        bad = validate_switching_signal(sig)
        assert [v.index for v in bad] == [2]

    def test_active_index_lookup(self):
        sig = alternating_signal()
        assert sig.active_index(0.0) == "a"
        assert sig.active_index(0.999) == "a"
        assert sig.active_index(1.0) == "b"
        assert sig.active_index(3.5) == "b"


class TestCompiledSchedule:
    def test_aperiodic_segments_are_the_pieces(self):
        sig = alternating_signal()
        assert sig.segments(4.0) == [
            (0.0, 1.0, "a"), (1.0, 2.0, "b"), (2.0, 3.0, "a"), (3.0, 4.0, "b")
        ]
        # through the segment active at t_end, right-continuously
        assert sig.segments(2.0) == [(0.0, 1.0, "a"), (1.0, 2.0, "b"), (2.0, 3.0, "a")]

    def test_periodic_copies_use_integer_period_counts(self):
        sig = SwitchingSignal(
            [(0.0, "a"), (0.1, "b"), (0.2, "c")], tau_d=0.1, horizon_end=0.3,
            periodic=True,
        )
        segs = sig.segments(1000.0)
        for k, (a, b, p) in enumerate(segs):
            assert a == [0.0, 0.1, 0.2][k % 3] + (k // 3) * 0.3
            assert p == sig.active_index(0.5 * (a + b))
        assert all(b == a2 for (_a, b, _p), (a2, _b, _p2) in zip(segs, segs[1:]))
        assert segs[-1][0] <= 1000.0 < segs[-1][1]

    def test_segment_starts_and_horizon_checks(self):
        sig = SwitchingSignal(
            [(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0, periodic=True
        )
        assert [a for a, _b, _p in sig.segments(5.0)] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(DomainError):
            alternating_signal().segments(5.0)
        with pytest.raises(DomainError, match="finite"):
            sig.segments(float("inf"))

    def test_pieces_out_of_order_rejected(self):
        with pytest.raises(DomainError, match="nondecreasing"):
            SwitchingSignal([(0.0, "a"), (2.0, "b"), (1.0, "a")], tau_d=1.0,
                            horizon_end=3.0)

    @pytest.mark.parametrize("pieces, tau_d, horizon_end, match", [
        ([(0.0, "a"), (float("nan"), "b")], 0.1, 2.0, "finite"),
        ([(-float("inf"), "a"), (0.0, "b")], 0.1, 2.0, "finite"),
        ([(0, "a"), (1.5, "b"), (1.0, "a")], 0.1, 2.0, "nondecreasing"),
        ([(0.0, "a")], float("nan"), 2.0, "tau_d"),
        ([(0.0, "a")], float("inf"), 2.0, "tau_d"),
        ([(0.0, "a")], 0.1, float("inf"), "horizon_end"),
        ([(0.0, "a")], 0.1, float("nan"), "horizon_end"),
        ([(False, "a"), (True, "b")], 0.1, 2.0, "not booleans"),
        ([(0.0, "a")], True, 2.0, "not booleans"),
        ([(0.0, "a")], 0.1, True, "not booleans"),
        ([(-1e308, "a"), (0.0, "b")], 1.0, 1e308, "span horizon_end - t0 must be finite"),
    ], ids=["nan-start", "infinite-start", "out-of-order", "nan-dwell", "infinite-dwell",
            "infinite-horizon", "nan-horizon", "bool-start", "bool-dwell", "bool-horizon",
            "infinite-span"])
    def test_schedules_its_readers_cannot_handle_rejected(
        self, pieces, tau_d, horizon_end, match
    ):
        # Readers assume these invariants: without them segments() returns NaN
        # bounds, and active_index() and the checker answer for no schedule.
        # An infinite span made segments() return NaN starts, active_index()
        # the wrong label and union_graph() a graph with no arcs.
        for periodic in (False, True):
            with pytest.raises(DomainError, match=match):
                SwitchingSignal(pieces, tau_d=tau_d, horizon_end=horizon_end, periodic=periodic)

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is Linux's address-space cap")
    @pytest.mark.parametrize("call", [
        "sig.active_index(1e22)",
        "sig.active_index(1e300)",
        "sig.segments(1e300)",
        "union_graph(sig, ALT, 1e300, math.nextafter(1e300, math.inf))",
        "wide.active_index(1.7e308)",
    ])
    def test_periodic_copies_that_cannot_be_told_apart_refused(self, call):
        # Where t + period rounds to t, _copies advanced one copy at a time:
        # 0.3 s at 1e22 (and the answer read from collapsed pieces), no end at
        # 1e300. Where t - t0 overflows, the copy count was int(nan). The
        # child may map 1 GiB and run 10 s.
        import resource

        code = f"""if True:
            import math
            from compass_consensus.errors import DomainError
            from compass_consensus.graphs import SignedDigraph, SwitchingSignal, union_graph
            ALT = {{"a": SignedDigraph(2, [(1, 2)]), "b": SignedDigraph(2, [(2, 1)])}}
            sig = SwitchingSignal([(0.0, "a"), (0.5, "b")], 0.5, 1.0, periodic=True)
            wide = SwitchingSignal([(-1e308, "a"), (-1e308 + 5e299, "b")], 1e299,
                                   -1e308 + 1e300, periodic=True)
            try:
                {call}
            except DomainError as exc:
                print(exc)
        """
        cap = 1 << 30
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert done.returncode == 0, done.stderr
        assert re.fullmatch(r"t(1|_end)?=\S+ is too far from t0=\S+ to tell apart the periodic "
                            r"copies of period \S+\n", done.stdout), done.stdout

    def test_active_index_at_every_decimal_switch(self):
        # 0.1 and 0.3 are inexact in binary, so t0 + (t - t0) % period puts
        # thousands of these starts an ulp into the neighbouring piece.
        sig = SwitchingSignal(
            [(0.0, "a"), (0.1, "b"), (0.2, "c")], tau_d=0.1, horizon_end=0.3,
            periodic=True,
        )
        segs = sig.segments(1000.0)
        assert len(segs) == 10001
        for a, _b, p in segs:
            assert sig.active_index(a) == p, a

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_active_index_labels_every_segment(self, data):
        # Random periodic schedules over long horizons: at every segment start
        # and midpoint, the lookup names the piece the integrator uses.
        gaps = data.draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=6))
        t0 = data.draw(st.floats(-100.0, 100.0))
        starts = [t0]
        for gap in gaps[:-1]:
            starts.append(starts[-1] + gap)
        sig = SwitchingSignal(
            [(s, f"p{l}") for l, s in enumerate(starts)], tau_d=min(gaps),
            horizon_end=starts[-1] + gaps[-1], periodic=True,
        )
        t_end = t0 + data.draw(st.floats(1.0, 500.0))
        for a, b, p in sig.segments(t_end):
            assert sig.active_index(a) == p, a
            assert sig.active_index(0.5 * (a + b)) == p, (a, b)

    def test_active_index_domain(self):
        sig = alternating_signal()
        for t in (-1.0, -0.5, float("inf"), float("nan")):
            with pytest.raises(DomainError):
                sig.active_index(t)
            with pytest.raises(DomainError):  # segments() returned [] before t0
                sig.segments(t)
        # Past the horizon of an aperiodic signal, as segments() refuses it too.
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0)
        assert sig.active_index(2.0) == "b"
        for t in (2.0 + 1e-12, 50.0):
            with pytest.raises(DomainError, match="horizon_end"):
                sig.active_index(t)
            with pytest.raises(DomainError):
                sig.segments(t)


class TestUniformJointConnectivity:
    def test_alternation_strong_at_t2(self):
        sig = alternating_signal(horizon=6.0)
        v = check_uniform_joint_connectivity(sig, ALT_FAMILY, 2.0, ConnectivityMode.STRONG)
        assert v.ok and v.witness is None

    def test_alternation_fails_inside_one_piece(self):
        sig = alternating_signal(horizon=6.0)
        v = check_uniform_joint_connectivity(sig, ALT_FAMILY, 0.5, ConnectivityMode.STRONG)
        assert not v.ok
        start, end = v.witness
        g = union_graph(sig, ALT_FAMILY, start, end)
        assert not is_strongly_connected(g)

    def test_static_quasi_strong(self):
        fam = {"c": chain_graph(3)}
        sig = SwitchingSignal([(0.0, "c")], tau_d=1.0, horizon_end=10.0)
        for T in (0.5, 2.0, 9.0):
            v = check_uniform_joint_connectivity(sig, fam, T, ConnectivityMode.QUASI_STRONG)
            assert v.ok

    def test_bigger_window_implied(self):
        sig = alternating_signal(horizon=8.0)
        vT = check_uniform_joint_connectivity(sig, ALT_FAMILY, 2.0, ConnectivityMode.STRONG)
        vT2 = check_uniform_joint_connectivity(sig, ALT_FAMILY, 3.0, ConnectivityMode.STRONG)
        assert vT.ok and vT2.ok

    def test_insufficient_horizon(self):
        sig = alternating_signal(horizon=4.0)
        with pytest.raises(InsufficientHorizonError):
            check_uniform_joint_connectivity(sig, ALT_FAMILY, 5.0, ConnectivityMode.STRONG)

    def test_periodic_extends_globally(self):
        sig = SwitchingSignal(
            [(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0, periodic=True
        )
        v = check_uniform_joint_connectivity(sig, ALT_FAMILY, 2.0, ConnectivityMode.STRONG)
        assert v.ok and "periodic" in v.scope

    def test_periodic_window_longer_than_period(self):
        fam = {
            "a": SignedDigraph(3, [(1, 2)]),
            "b": SignedDigraph(3, [(2, 3)]),
            "c": SignedDigraph(3, [(3, 1)]),
        }
        sig = SwitchingSignal(
            [(0.0, "a"), (1.0, "b"), (2.0, "c")],
            tau_d=1.0,
            horizon_end=3.0,
            periodic=True,
        )
        ok3 = check_uniform_joint_connectivity(sig, fam, 3.0, ConnectivityMode.STRONG)
        assert ok3.ok
        bad2 = check_uniform_joint_connectivity(sig, fam, 1.5, ConnectivityMode.STRONG)
        assert not bad2.ok

    @pytest.mark.parametrize("fam, witness_start", [
        (ALT_FAMILY, None),
        ({"a": SignedDigraph(3, [(1, 2)]), "b": SignedDigraph(3, [(2, 3)])}, 0.0),
    ])
    def test_long_periodic_window_tiles_one_period(self, fam, witness_start, monkeypatch):
        # A window of 10^4 periods holds the same arcs as one period, so the
        # schedule is tiled through at most two periods, not T / period copies.
        sig = SwitchingSignal([(0.0, "a"), (0.5, "b")], tau_d=0.5, horizon_end=1.0,
                              periodic=True)
        ends = []
        segments = SwitchingSignal.segments

        def recording(self, t_end):
            ends.append(t_end)
            return segments(self, t_end)

        monkeypatch.setattr(SwitchingSignal, "segments", recording)
        long = check_uniform_joint_connectivity(sig, fam, 1e4, ConnectivityMode.STRONG)
        assert ends and max(ends) <= sig.t0 + 2 * sig.period
        one = check_uniform_joint_connectivity(sig, fam, sig.period, ConnectivityMode.STRONG)
        for v in (long, one):
            assert v.ok == (witness_start is None)
            assert (v.witness[0] if v.witness else None) == witness_start


    @pytest.mark.parametrize("T", [0.0, -1.0, float("inf"), float("nan")])
    def test_window_must_be_positive_and_finite(self, T):
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0,
                              periodic=True)
        with pytest.raises(DomainError, match="positive and finite"):
            check_uniform_joint_connectivity(sig, ALT_FAMILY, T)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("T", [1e-16, 1e-300, 5e-324])
    def test_window_below_the_spacing_of_the_times_refused(self, T, periodic):
        # 2 + T == 2, so the last window [2, 2) would be empty, and with it
        # [1, 1), whose union failed the test though every window of positive
        # length at 1 holds b. At 1e-15 the windows are not empty.
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0,
                              periodic=periodic)
        with pytest.raises(DomainError, match="spacing"):
            check_uniform_joint_connectivity(sig, ALT_FAMILY, T)
        assert check_uniform_joint_connectivity(sig, ALT_FAMILY, 1e-15).ok

    def test_label_missing_from_family(self):
        sig = SwitchingSignal([(0.0, "a"), (1.0, "zz")], tau_d=1.0, horizon_end=2.0)
        with pytest.raises(DomainError, match="'zz'"):
            check_uniform_joint_connectivity(sig, ALT_FAMILY, 1.0)

    def test_node_counts_checked_even_when_no_window_mixes_them(self):
        fam = {"a": complete_graph(2), "b": complete_graph(3)}
        sig = SwitchingSignal([(0.0, "a"), (5.0, "b")], tau_d=1.0, horizon_end=10.0)
        with pytest.raises(DomainError, match="node count"):
            check_uniform_joint_connectivity(sig, fam, 1.0)

    def test_last_window_end_rounding_past_horizon(self):
        # (86.099 - 20.067) + 20.067 rounds above 86.099
        fam = {"a": complete_graph(2), "b": complete_graph(2)}
        sig = SwitchingSignal([(0.0, "a"), (40.0, "b")], tau_d=1.0, horizon_end=86.099)
        v = check_uniform_joint_connectivity(sig, fam, 20.067)
        assert v.ok and v.checked_windows[-1][0] == 86.099 - 20.067

    def test_candidates_are_segment_starts(self):
        # No grid of the shortest piece (0.5) and no start s - T (here 1.0).
        # The window [0.5, 2.5) ends where the next "a" starts, so holds only "b".
        sig = SwitchingSignal([(0.0, "a"), (0.5, "b"), (2.5, "a"), (3.0, "b")],
                              tau_d=0.5, horizon_end=6.0)
        v = check_uniform_joint_connectivity(sig, ALT_FAMILY, 2.0, ConnectivityMode.STRONG)
        assert [w[0] for w in v.checked_windows] == [0.0, 0.5, 2.5, 3.0, 4.0]
        assert [w[2] for w in v.checked_windows] == [True, False, True, False, False]
        assert v.witness == (0.5, 2.5)

    def test_label_still_in_window_keeps_its_arcs(self):
        # [1, 3.5) loses the first "a" segment but still holds the second one,
        # so the union keeps a's arc and stays strongly connected.
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b"), (2.0, "a")], tau_d=1.0,
                              horizon_end=4.0)
        v = check_uniform_joint_connectivity(sig, ALT_FAMILY, 2.5, ConnectivityMode.STRONG)
        assert v.checked_windows == ((0.0, 2.5, True), (1.0, 3.5, True), (1.5, 4.0, True))
        assert v.ok and v.witness is None


EIGHTHS = st.integers(1, 16).map(lambda k: k / 8)


@st.composite
def signed_families(draw):
    n = draw(st.integers(1, 4))
    names = ["a", "b", "c"][: draw(st.integers(1, 3))]
    family = {}
    for name in names:
        arcs = draw(st.lists(
            st.tuples(st.integers(1, n), st.integers(1, n), st.sampled_from([1, -1])),
            max_size=2 * n,
            unique_by=lambda arc: arc[:2],
        ))
        family[name] = SignedDigraph(n, arcs, allow_self_loops=True)
    return family


@st.composite
def dyadic_signals(draw, names):
    t0 = draw(st.integers(0, 16)) / 8
    durations = draw(st.lists(EIGHTHS, min_size=1, max_size=6))
    starts = np.cumsum([t0] + durations).tolist()
    labels = draw(st.lists(st.sampled_from(names), min_size=len(durations),
                           max_size=len(durations)))
    return SwitchingSignal(
        list(zip(starts[:-1], labels)), tau_d=1 / 8, horizon_end=starts[-1],
        periodic=draw(st.booleans()),
    )


@st.composite
def sweep_cases(draw):
    family = draw(signed_families())
    sig = draw(dyadic_signals(list(family)))
    span = 3 * sig.period if sig.periodic else sig.period
    T = draw(st.integers(1, int(span * 8))) / 8
    return family, sig, T, draw(st.sampled_from(list(ConnectivityMode)))


class TestSweepMatchesPerWindowChecker:
    @given(case=sweep_cases())
    @example(case=(  # a label's earlier segment leaves while its later one stays
        ALT_FAMILY,
        SwitchingSignal([(0.0, "a"), (1.0, "b"), (2.0, "a")], tau_d=1.0, horizon_end=4.0),
        2.5,
        ConnectivityMode.STRONG,
    ))
    @settings(max_examples=150, deadline=None)
    def test_same_verdict_witness_and_windows(self, case):
        """Dyadic times keep both tilings exact, so every comparison must agree."""
        family, sig, T, mode = case
        v = check_uniform_joint_connectivity(sig, family, T, mode)
        ok, witness, verdicts = v0_check_uniform_joint_connectivity(sig, family, T, mode)
        assert (v.ok, v.witness) == (ok, witness)
        for start, end, good in v.checked_windows:
            assert good == mode.test(v0_union_graph(sig, family, start, end))
            assert union_graph(sig, family, start, end) == v0_union_graph(
                sig, family, start, end
            )
        # Exactness: every start the v0 checker tried (grid and s - T included)
        # has a union containing the union at the nearest checked start before it.
        starts = [w[0] for w in v.checked_windows]
        for c in verdicts:
            s = starts[bisect.bisect_right(starts, c) - 1]
            assert (v0_union_graph(sig, family, s, s + T).arcs
                    <= v0_union_graph(sig, family, c, c + T).arcs)

    # The candidate starts: equal starts are checked once, in order.
    STRONG = ConnectivityMode.STRONG

    def test_zero_length_pieces_give_one_window_per_start(self):
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b"), (1.0, "a"), (1.0, "b"), (2.0, "a"),
                               (3.0, "b")], tau_d=0.5, horizon_end=4.0)
        assert check_uniform_joint_connectivity(sig, ALT_FAMILY, 1.5, self.STRONG) == (
            ConnectivityVerdict(True, self.STRONG, 1.5, "horizon [0.0, 4.0)", 4, None, (
                (0.0, 1.5, True), (1.0, 2.5, True), (2.0, 3.5, True), (2.5, 4.0, True))))

    def test_segment_start_at_the_last_start(self):
        # horizon_end - T = 2.0 is also the third piece's start.
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b"), (2.0, "a")], tau_d=0.5, horizon_end=4.0)
        assert check_uniform_joint_connectivity(sig, ALT_FAMILY, 2.0, self.STRONG) == (
            ConnectivityVerdict(False, self.STRONG, 2.0, "horizon [0.0, 4.0)", 3, (2.0, 4.0), (
                (0.0, 2.0, True), (1.0, 3.0, True), (2.0, 4.0, False))))

    @pytest.mark.parametrize("T", [0.5, 1.0, 2.0])
    def test_far_periodic_copy_is_the_near_one_shifted(self, T):
        # A dyadic schedule keeps every start exact at 1.5 * 2**20 (~10**6 periods).
        def check(t0):
            sig = SwitchingSignal([(t0, "a"), (t0 + 0.5, "b"), (t0 + 1.25, "a")], tau_d=0.25,
                                  horizon_end=t0 + 1.5, periodic=True)
            return check_uniform_joint_connectivity(sig, ALT_FAMILY, T, self.STRONG)

        offset = 1.5 * 2**20
        near, far = check(0.0), check(offset)
        shift = lambda w: None if w is None else (w[0] + offset, w[1] + offset)
        assert far == ConnectivityVerdict(
            near.ok, near.mode, near.window, near.scope, near.windows_checked,
            shift(near.witness), tuple((*shift(w[:2]), w[2]) for w in near.checked_windows))
        assert near.windows_checked == 4 and near.checked_windows[-1][0] == 1.5

    def test_far_copy_in_decimal_checks_each_start_once(self):
        t0 = 0.7 * 10**6  # where the 10**6-th copy of a 0.7-long period starts
        sig = SwitchingSignal([(t0, "a"), (t0 + 0.1, "b"), (t0 + 0.3, "a")], tau_d=0.05,
                              horizon_end=t0 + 0.7, periodic=True)
        v = check_uniform_joint_connectivity(sig, ALT_FAMILY, 0.35, self.STRONG)
        starts = [w[0] for w in v.checked_windows]
        assert starts == sorted(set(starts)) and starts[0] == t0 and starts[-1] == t0 + 0.7
        assert (v.ok, v.witness) == v0_check_uniform_joint_connectivity(
            sig, ALT_FAMILY, 0.35, self.STRONG)[:2]


class TestJsonRoundTrip:
    def test_graph(self):
        g = SignedDigraph(3, [(1, 2, -1), (2, 3, 1)])
        assert graph_from_json(graph_to_json(g)) == g

    def test_signal(self):
        sig = alternating_signal()
        back = signal_from_json(signal_to_json(sig))
        assert back == sig

    def test_bad_graph_object(self):
        with pytest.raises(DomainError):
            graph_from_json({"n": 2})

    def test_integral_floats_in_a_graph_file_still_read(self):
        # JSON 2.0 and -1.0 are integers to the reader, which hands the
        # constructor ints; the constructor itself refuses floats.
        g = graph_from_json({"n": 3, "arcs": [[1, 2.0, -1.0], [2.0, 3]]})
        assert g.arcs == {(1, 2, -1), (2, 3, 1)}
        assert all(type(x) is int for arc in g.arcs for x in arc)


# (build, build a record that differs in one field, field names, repr). The
# reprs are what @dataclass(frozen=True) printed for these records.
RECORDS = [
    (lambda: SignedDigraph(2, [(1, 2, -1)]),
     lambda: SignedDigraph(2, [(1, 2, 1)]),
     ("n", "arcs", "allow_self_loops"),
     "SignedDigraph(n=2, arcs=frozenset({(1, 2, -1)}), allow_self_loops=False)"),
    (lambda: SwitchingSignal([(0.0, "a"), (1.5, "b")], 0.5, 3.0, periodic=True),
     lambda: SwitchingSignal([(0.0, "a"), (1.5, "b")], 0.5, 3.0),
     ("pieces", "tau_d", "horizon_end", "periodic"),
     "SwitchingSignal(pieces=((0.0, 'a'), (1.5, 'b')), tau_d=0.5, horizon_end=3.0, "
     "periodic=True)"),
    (lambda: validate_switching_signal(SwitchingSignal([(0.0, "a"), (0.25, "b")], 0.5, 3.0))[0],
     lambda: DwellViolation(1, 0.25, 0.75),
     ("index", "gap", "required"),
     "DwellViolation(index=1, gap=0.25, required=0.5)"),
    (lambda: check_uniform_joint_connectivity(
        SwitchingSignal([(0.0, "a")], 1.0, 2.0), {"a": SignedDigraph(2, [(1, 2)])}, 1.0,
        ConnectivityMode.STRONG),
     lambda: ConnectivityVerdict(False, ConnectivityMode.STRONG, 1.0, "horizon [0.0, 2.0)", 2,
                                 (0.0, 1.0)),
     ("ok", "mode", "window", "scope", "windows_checked", "witness", "checked_windows"),
     "ConnectivityVerdict(ok=False, mode=<ConnectivityMode.STRONG: 'Strong'>, window=1.0, "
     "scope='horizon [0.0, 2.0)', windows_checked=2, witness=(0.0, 1.0), "
     "checked_windows=((0.0, 1.0, False), (1.0, 2.0, False)))"),
]
RECORD_IDS = ["SignedDigraph", "SwitchingSignal", "DwellViolation", "ConnectivityVerdict"]


@pytest.mark.parametrize("build, other, fields, text", RECORDS, ids=RECORD_IDS)
class TestRecordValueSemantics:
    # The graph records keep the value semantics of frozen dataclasses.

    def test_repr(self, build, other, fields, text):
        assert repr(build()) == text

    def test_equality_and_hash_over_the_fields(self, build, other, fields, text):
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in fields))
        assert a != other() and a != tuple(getattr(a, f) for f in fields)
        assert a.__eq__(object()) is NotImplemented

    def test_pickle_and_copy_round_trips(self, build, other, fields, text):
        a = build()
        copies = [pickle.loads(pickle.dumps(a, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(a), copy.deepcopy(a)]
        for back in copies:
            assert type(back) is type(a) and back == a and hash(back) == hash(a)
            assert repr(back) == text

    def test_assignment_and_deletion_raise(self, build, other, fields, text):
        a = build()
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, 1)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(a, name)
        assert repr(a) == text
