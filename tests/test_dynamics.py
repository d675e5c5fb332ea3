import tracemalloc

import numpy as np
import pytest

from compass_consensus import dynamics
from compass_consensus.dynamics import (
    Assumption,
    Trajectory,
    empirical_gamma_margin,
    fields_along,
    simulate,
    validate_feasibility,
)
from compass_consensus.errors import (
    DivergenceError,
    DomainError,
)
from compass_consensus.geometry import (
    ConeQuery,
    gamma_cone_contains,
    relative_interior_cone_contains,
    supporting_hyperrectangle,
)
from compass_consensus.graphs import (
    SignedDigraph,
    SwitchingSignal,
    complete_graph,
    is_quasi_strongly_connected,
    is_strongly_connected,
    union_graph,
)
from compass_consensus.metrics import (
    MonitorMode,
    absolute_value_agreement,
    agreement_verdict,
    lyapunov_series,
    monotonicity_monitor,
    square_max_series,
)
from compass_consensus.protocols import ProtocolKind, ProtocolSpec
from compass_consensus.scenario import ScenarioConfig
from helpers import (
    OracleScopeError,
    cyclic_signal,
    dense_gamma_margin,
    dense_local_hull_bounds,
    dense_validate_feasibility,
    in_arcs_cases,
    label_runs,
    linear_oracle_solution,
    linear_system_matrix,
    random_schedule,
    v0_schedule,
    v0_simulate,
)


def static_signal(index="g", horizon=10.0):
    return SwitchingSignal([(0.0, index)], tau_d=1.0, horizon_end=horizon)


def scenario(spec, x0, h=1e-3, t_end=10.0, signal=None, **kw):
    x0 = np.asarray(x0, dtype=float)
    n = spec.n
    d = x0.size // n
    return ScenarioConfig(
        n=n,
        d=d,
        initial_states=x0.reshape(n, d),
        protocol=spec,
        signal=signal or static_signal(horizon=max(t_end, 10.0)),
        h=h,
        t_end=t_end,
        **kw,
    )


MUTUAL = {"g": SignedDigraph(2, [(1, 2), (2, 1)])}
SPIRAL = {"g": SignedDigraph(2, [(2, 1, 1), (1, 2, -1)])}


def mutual_consensus(gamma=1.0, weights=1.0):
    return ProtocolSpec(kind="WeightedConsensus", family=MUTUAL, gamma=gamma, weights=weights)


def spiral_protocol(weights=1.0):
    return ProtocolSpec(kind="SignedConsensus", family=SPIRAL, gamma=1.0, weights=weights)


class TestSimulateAgainstClosedForms:
    def test_two_agent_consensus(self):
        traj = simulate(scenario(mutual_consensus(), [0.0, 2.0]))
        # eigenvalues {0, -2}: x(t) = 1 -+ e^{-2t}
        assert traj.states[-1] == pytest.approx([1.0, 1.0], abs=1e-6)
        dev = np.abs(traj.states[:, 0] - 1.0)
        expect = np.exp(-2.0 * traj.times)
        sel = expect > 1e-12
        assert np.all(np.abs(dev[sel] - expect[sel]) <= 0.01 * expect[sel])

    def test_disconnected_agents_frozen(self):
        spec = ProtocolSpec(
            kind="WeightedConsensus", family={"g": SignedDigraph(2, [])}, gamma=1.0
        )
        traj = simulate(scenario(spec, [0.0, 2.0], t_end=5.0))
        assert np.array_equal(traj.states[-1], [0.0, 2.0])
        assert np.array_equal(traj.states[0], traj.states[-1])

    def test_antagonistic_spiral(self):
        # A = [[-1, 1], [-1, -1]]: x(t) = e^{-t} (cos t, -sin t) from (1, 0).
        traj = simulate(scenario(spiral_protocol(), [1.0, 0.0]))
        t = traj.times
        expect = np.stack([np.exp(-t) * np.cos(t), -np.exp(-t) * np.sin(t)], axis=1)
        assert np.abs(traj.states - expect).max() < 1e-9
        assert np.abs(traj.states[-1]).max() < 1e-4


class TestLinearOracle:
    def test_symmetric_consensus_at_t1(self):
        A = np.array([[-1.0, 1.0], [1.0, -1.0]])
        x = linear_oracle_solution(A, [0.0, 2.0], 1.0)
        assert x == pytest.approx([1 - np.exp(-2), 1 + np.exp(-2)], abs=1e-12)

    def test_zero_matrix(self):
        x = linear_oracle_solution(np.zeros((3, 3)), [1.0, 2.0, 3.0], 7.0)
        assert np.array_equal(x, [1.0, 2.0, 3.0])

    def test_spiral_at_pi(self):
        A = np.array([[-1.0, 1.0], [-1.0, -1.0]])
        x = linear_oracle_solution(A, [1.0, 0.0], np.pi)
        assert x == pytest.approx([-np.exp(-np.pi), 0.0], abs=1e-12)

    def test_scope_error_on_switch_inside_interval(self):
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=3.0)
        with pytest.raises(OracleScopeError):
            linear_oracle_solution(np.zeros((2, 2)), [0.0, 0.0], 2.0, signal=sig)
        # Interval inside one piece is fine.
        linear_oracle_solution(np.zeros((2, 2)), [0.0, 0.0], 0.5, signal=sig)

    def test_system_matrix_matches_field(self):
        rng = np.random.default_rng(0)
        specs = [
            mutual_consensus(weights=1.7),
            spiral_protocol(weights=0.6),
            ProtocolSpec(
                kind="RotatedConsensus",
                family={"g": complete_graph(3)},
                gamma=1.0,
                rotation=0.4,
            ),
        ]
        dims = [1, 1, 2]
        for spec, d in zip(specs, dims):
            A = linear_system_matrix(spec, "g", d)
            for _ in range(10):
                x = rng.normal(size=spec.n * d)
                assert np.allclose(A @ x, spec.field("g", x), atol=1e-12)

    def test_oracle_equivalence_order_four(self):
        # Criterion-6 style check at module scale: halving h cuts error ~16x.
        # Both runs are compared to the oracle on the same physical grid.
        spec = mutual_consensus(weights=4.0, gamma=4.0)
        A = linear_system_matrix(spec, "g", 1)
        grid = np.arange(0.05, 2.0001, 0.05)
        errs = []
        for h in (1e-3, 5e-4):
            traj = simulate(scenario(spec, [0.0, 2.0], h=h, t_end=2.0))
            idx = np.rint(grid / h).astype(int)
            ref = np.stack(
                [linear_oracle_solution(A, [0.0, 2.0], t) for t in traj.times[idx]]
            )
            errs.append(np.abs(traj.states[idx] - ref).max())
        assert errs[0] < 1e-8
        assert errs[0] / errs[1] > 15.0


class TestSwitchingIntegration:
    def test_steps_split_at_switch_instants(self):
        sig = SwitchingSignal(
            [(0.0, "g"), (0.0105, "g")], tau_d=0.01, horizon_end=0.03
        )
        spec = mutual_consensus()
        sc = scenario(spec, [0.0, 2.0], h=1e-3, t_end=0.03, signal=sig)
        traj = simulate(sc)
        # the switch instant is a sample even though it is off the h-grid
        assert np.any(np.isclose(traj.times, 0.0105, atol=1e-15))
        diffs = np.diff(traj.times)
        assert diffs.min() > 0
        assert np.isclose(diffs.max(), 1e-3, atol=1e-12)

    def test_uniform_grid_when_divisible(self):
        traj = simulate(scenario(mutual_consensus(), [0.0, 2.0], h=1e-3, t_end=10.0))
        assert traj.num_samples == 10001
        assert traj.times[0] == 0.0 and traj.times[-1] == 10.0

    def test_active_index_recorded(self):
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0)
        fam = {"a": SignedDigraph(2, [(1, 2)]), "b": SignedDigraph(2, [(2, 1)])}
        spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.0)
        sc = ScenarioConfig(
            n=2, d=1, initial_states=np.array([[0.0], [2.0]]),
            protocol=spec, signal=sig, h=0.25, t_end=2.0,
        )
        traj = simulate(sc)
        for t, p in zip(traj.times, traj.active_index):
            assert p == ("a" if t < 1.0 else "b")

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_detected(self):
        spec = ProtocolSpec(
            kind="Custom",
            family=MUTUAL,
            gamma=1.0,
            field_fn=lambda p, x: x ** 2,  # finite-time blowup
        )
        with pytest.raises(DivergenceError) as err:
            simulate(scenario(spec, [5.0, 5.0], h=0.01, t_end=10.0))
        assert 0.0 < err.value.time <= 10.0

    def test_dwell_violation_rejected(self):
        sig = SwitchingSignal([(0.0, "g"), (0.1, "g")], tau_d=1.0, horizon_end=2.0)
        with pytest.raises(DomainError):
            simulate(scenario(mutual_consensus(), [0.0, 2.0], signal=sig, t_end=2.0))

    def test_periodic_signal_extends_past_horizon(self):
        fam = {"a": SignedDigraph(2, [(1, 2)]), "b": SignedDigraph(2, [(2, 1)])}
        spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.0)
        sig = SwitchingSignal(
            [(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0, periodic=True
        )
        sc = ScenarioConfig(
            n=2, d=1, initial_states=np.array([[0.0], [2.0]]),
            protocol=spec, signal=sig, h=0.25, t_end=5.0,
        )
        traj = simulate(sc)
        assert traj.times[-1] == 5.0
        for t, p in zip(traj.times, traj.active_index):
            assert p == ("a" if (t % 2.0) < 1.0 else "b")

    def test_periodic_tiling_integrates_the_active_graph(self):
        # Boundaries k * 0.3 + {0, 0.1, 0.2} land an ulp either side of
        # where a modulo wrap of t would put them; each step must still use, and
        # each sample be labelled with, the graph active inside the step.
        fam = {name: SignedDigraph(2, [(1, 2), (2, 1)]) for name in "abc"}
        used = []

        def field(p, x):
            used.append(p)
            return -x

        spec = ProtocolSpec(kind="Custom", family=fam, gamma=1.0, field_fn=field)
        sig = SwitchingSignal(
            [(0.0, "a"), (0.1, "b"), (0.2, "c")], tau_d=0.05, horizon_end=0.3,
            periodic=True,
        )
        traj = simulate(scenario(spec, [1.0, 2.0], h=0.1, t_end=60.0, signal=sig))
        steps = traj.num_samples - 1
        assert steps >= 600 and len(used) == 4 * steps
        for k in range(steps):
            expect = sig.active_index(0.5 * (traj.times[k] + traj.times[k + 1]))
            assert used[4 * k : 4 * k + 4] == [expect] * 4, traj.times[k]
            assert traj.active_index[k] == expect

    def test_aperiodic_t_end_beyond_horizon_rejected(self):
        sig = SwitchingSignal([(0.0, "g")], tau_d=1.0, horizon_end=2.0)
        with pytest.raises(DomainError):
            simulate(scenario(mutual_consensus(), [0.0, 2.0], signal=sig, t_end=3.0))


class TestSchedule:
    """``_schedule`` computes the sample times in arrays; the segment loop of
    ``helpers.v0_schedule`` is the oracle."""

    def test_times_and_runs_match_the_loop(self):
        rng = np.random.default_rng(2813)
        kinds = set()
        for _ in range(2000):
            sc = random_schedule(rng)
            times, runs = dynamics._schedule(sc)
            ref_times, ref_runs = v0_schedule(sc)
            assert times.tobytes() == ref_times.tobytes(), sc
            assert runs == ref_runs, sc
            segs = sc.signal.segments(sc.t_end)
            kinds.add("periodic" if sc.signal.periodic else "aperiodic")
            at_switch = sc.t_end in {a for a, _b, _p in segs} | {segs[-1][1]}
            kinds.add("t_end at a switch" if at_switch else "t_end mid-segment")
            if any(a == b for a, b, _p in segs):
                kinds.add("zero-length piece")
            if any(0 < min(b, sc.t_end) - a < sc.h for a, b, _p in segs):
                kinds.add("h beyond a segment")
        assert kinds == {"periodic", "aperiodic", "t_end at a switch", "t_end mid-segment",
                         "zero-length piece", "h beyond a segment"}

    def test_a_step_count_no_array_holds_is_refused(self):
        # 2 / 5e-324 overflows to inf steps: refused before any cast or allocation.
        with pytest.raises(DomainError, match="steps"):
            simulate(scenario(mutual_consensus(), [0.0, 2.0], h=5e-324, t_end=2.0,
                              signal=static_signal(horizon=2.0)))


class TestValidateFeasibility:
    def test_unit_weight_unit_gamma_clean(self):
        rng = np.random.default_rng(8)
        fam = {"g": complete_graph(4)}
        spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.0)
        sc = ScenarioConfig(
            n=4, d=2, initial_states=rng.normal(size=(4, 2)),
            protocol=spec, signal=static_signal(horizon=2.0), h=0.01, t_end=2.0,
            assumption=Assumption.GAMMA_STRICT,
        )
        traj = simulate(sc)
        assert traj.feasibility_violations == []

    def test_overdeclared_gamma_flagged(self):
        fam = {"g": SignedDigraph(2, [(2, 1)])}
        spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.5)
        sc = ScenarioConfig(
            n=2, d=1, initial_states=np.array([[0.0], [1.0]]),
            protocol=spec, signal=static_signal(horizon=0.1), h=0.1, t_end=0.1,
        )
        traj = simulate(sc)
        violations = validate_feasibility(traj, spec, Assumption.GAMMA_STRICT)
        assert violations
        first = violations[0]
        assert first.agent == 1 and "margin" in first.reason

    def test_interior_agent_unconstrained(self):
        # Agent 1 strictly inside its local box: any field block passes.
        fam = {"g": SignedDigraph(3, [(2, 1), (3, 1)])}
        wild = lambda p, x: np.array([97.0, -55.0, 0.0])
        spec = ProtocolSpec(kind="Custom", family=fam, gamma=1.0, field_fn=wild)
        sc = ScenarioConfig(
            n=3, d=1, initial_states=np.array([[0.5], [0.0], [1.0]]),
            protocol=spec, signal=static_signal(horizon=0.01), h=1e-3, t_end=1e-3,
        )
        traj = simulate(sc)
        violations = validate_feasibility(traj, spec, Assumption.GAMMA_STRICT)
        assert [v for v in violations if v.agent == 1] == []
        # agents 2 and 3 have empty neighbor sets but nonzero fields: flagged
        assert any(v.agent in (2, 3) for v in violations)

    def test_relative_interior_assumption(self):
        fam = {"g": SignedDigraph(2, [(2, 1)])}
        spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.0)
        sc = ScenarioConfig(
            n=2, d=1, initial_states=np.array([[0.0], [1.0]]),
            protocol=spec, signal=static_signal(horizon=0.5), h=0.1, t_end=0.5,
        )
        traj = simulate(sc)
        assert validate_feasibility(traj, spec, Assumption.RELATIVE_INTERIOR) == []

    def test_signed_hull_uses_flipped_neighbors(self):
        # x = (1, -1) with mutual negative arcs: flipped hulls are singletons
        # and the field is exactly zero, so the signed check passes...
        fam = {"g": SignedDigraph(2, [(1, 2, -1), (2, 1, -1)])}
        spec = ProtocolSpec(kind="SignedConsensus", family=fam, gamma=1.0)
        sc = ScenarioConfig(
            n=2, d=1, initial_states=np.array([[1.0], [-1.0]]),
            protocol=spec, signal=static_signal(horizon=0.2), h=0.1, t_end=0.2,
        )
        traj = simulate(sc)
        assert validate_feasibility(traj, spec, Assumption.SIGNED_GAMMA_STRICT) == []
        # ...while the unsigned hull [-1, 1] sees a zero field on active facets.
        assert validate_feasibility(traj, spec, Assumption.GAMMA_STRICT)

    def test_matches_scalar_predicates(self):
        # Vectorized validator agrees with the scalar cone predicates.
        rng = np.random.default_rng(21)
        fam = {
            "a": SignedDigraph(3, [(1, 2, -1), (2, 3, 1), (3, 1, 1)]),
            "b": SignedDigraph(3, [(2, 1, 1), (3, 2, -1)]),
        }
        spec = ProtocolSpec(kind="SignedConsensus", family=fam, gamma=0.4)
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0)
        sc = ScenarioConfig(
            n=3, d=2, initial_states=rng.normal(size=(3, 2)),
            protocol=spec, signal=sig, h=0.05, t_end=2.0,
        )
        traj = simulate(sc)
        for assumption in (Assumption.SIGNED_GAMMA_STRICT, Assumption.GAMMA_STRICT,
                           Assumption.RELATIVE_INTERIOR):
            violations = validate_feasibility(traj, spec, assumption)
            flagged = {(v.time, v.agent) for v in violations}
            F = fields_along(traj, spec)
            X = traj.blocks()
            signed = assumption is Assumption.SIGNED_GAMMA_STRICT
            for s in range(0, traj.num_samples, 7):
                p = traj.active_index[s]
                g = spec.family[p]
                for i in range(1, 4):
                    pts = [X[s, i - 1]]
                    for j, tgt, sgn in g.arcs:
                        if tgt == i:
                            pts.append((sgn if signed else 1) * X[s, j - 1])
                    box = supporting_hyperrectangle(pts)
                    q = ConeQuery(
                        X[s, i - 1], box, F[s, i - 1], gamma=spec.gamma,
                        face_tolerance=0.0,
                    )
                    if assumption is Assumption.RELATIVE_INTERIOR:
                        ok = relative_interior_cone_contains(q)
                    else:
                        ok = gamma_cone_contains(q)
                    assert ok == ((float(traj.times[s]), i) not in flagged)


# A power of two, so every boundary case below is exact in floating point.
STOL = 2.0**-20


class TestFacetBoundariesMatchScalarOracle:
    """Field components exactly at the edges of every facet inequality.

    A Custom field on the chain 1 -> 2 -> 3 with axis-1 states 0, 1 and -1:
    agent 1's hull is itself, so both its axes are flat; agent 2 is on the
    upper facet of [0, 1] and agent 3 on the lower facet of [-1, 1]. Axis 2
    holds the sample number for every agent, so it is flat as well and tells
    the field which case to return.
    """

    CHAIN = {"g": SignedDigraph(3, [(1, 2), (2, 3)])}
    SIDE = {2: "upper", 3: "lower"}
    WIDTH = {2: 1.0, 3: 2.0}
    EDGES = [STOL, -STOL, 0.0, -0.0]
    FLAT = EDGES + [2 * STOL, -2 * STOL]

    @classmethod
    def facet_values(cls, gamma, width):
        return cls.EDGES + [s * (gamma * width + e) for s in (1, -1) for e in (STOL, -STOL)]

    def expected_word(self, assumption, gamma, i, k, f):
        """The reason a violation at agent i, axis k with component f must give."""
        if i == 1 or k == 2:
            return "carrier" if abs(f) > STOL else None
        relint = assumption is Assumption.RELATIVE_INTERIOR
        if self.SIDE[i] == "lower":
            outward = f < STOL if relint else f < -STOL
        else:
            outward = f > -STOL if relint else f > STOL
        if outward:
            return "strict-sign" if relint else "sign"
        if not relint and abs(f) < gamma * self.WIDTH[i] - STOL:
            return "margin"
        return None

    # gamma * D <= 2 * STOL at STOL / 2: there a component of -STOL at a lower
    # facet passes the sign test and, by magnitude, the margin test too.
    @pytest.mark.parametrize("gamma", [0.5, STOL / 2])
    @pytest.mark.parametrize("assumption", list(Assumption))
    def test_verdict_reason_and_side(self, assumption, gamma):
        cases = [(a, b) for a in range(8) for b in range(len(self.FLAT))]

        def field(p, x):
            a, b = cases[int(x[1])]
            F = np.full((3, 2), self.FLAT[b])
            F[0, 0] = self.FLAT[(b + 1) % len(self.FLAT)]
            F[1, 0] = self.facet_values(gamma, self.WIDTH[2])[a]
            F[2, 0] = self.facet_values(gamma, self.WIDTH[3])[a]
            return F.ravel()

        spec = ProtocolSpec(kind="Custom", family=self.CHAIN, gamma=gamma, field_fn=field)
        X = np.array([[[0.0, s], [1.0, s], [-1.0, s]] for s in range(len(cases))])
        traj = sampled_trajectory(X, ["g"] * len(cases))
        F = fields_along(traj, spec)
        found = {
            (v.time, v.agent, v.axis): v.reason
            for v in validate_feasibility(traj, spec, assumption, strictness_tolerance=STOL)
        }
        oracle = (relative_interior_cone_contains if assumption is Assumption.RELATIVE_INTERIOR
                  else gamma_cone_contains)
        words = set()
        for s in range(traj.num_samples):
            t = float(traj.times[s])
            for i in (1, 2, 3):
                pts = [X[s, i - 1]] + [X[s, j - 1] for j, tgt, _ in self.CHAIN["g"].arcs
                                       if tgt == i]
                q = ConeQuery(X[s, i - 1], supporting_hyperrectangle(pts), F[s, i - 1],
                              gamma=gamma, face_tolerance=0.0, strictness_tolerance=STOL)
                reasons = [found.get((t, i, k)) for k in (1, 2)]
                assert oracle(q) == (reasons == [None, None]), (s, i)
                for k, reason in zip((1, 2), reasons):
                    want = self.expected_word(assumption, gamma, i, k, F[s, i - 1, k - 1])
                    got = None if reason is None else reason.split(":")[0].split()[0]
                    assert got == want, (s, i, k, reason)
                    if want in ("sign", "strict-sign"):
                        assert f"at the {self.SIDE[i]} facet" in reason
                    words.add(got)
        relint = assumption is Assumption.RELATIVE_INTERIOR
        cover = {None, "carrier", "strict-sign" if relint else "sign"}
        if not relint and gamma > 2 * STOL:
            cover.add("margin")
        assert words == cover


class TestInvariantSets:
    def test_cooperative_box_invariant(self):
        # Validated cooperative runs never leave the initial box (Lyapunov-side
        # effect of the tangent-cone condition), up to integration error.
        rng = np.random.default_rng(31)
        for trial in range(5):
            n, d = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            fam = {}
            for nm in ("a", "b"):
                arcs = [
                    (j, i)
                    for j in range(1, n + 1)
                    for i in range(1, n + 1)
                    if j != i and rng.random() < 0.5
                ]
                fam[nm] = SignedDigraph(n, arcs)
            spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.0)
            sig = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0)
            x0 = rng.normal(size=(n, d)) * 3
            sc = ScenarioConfig(
                n=n, d=d, initial_states=x0, protocol=spec, signal=sig,
                h=0.01, t_end=2.0, assumption=Assumption.GAMMA_STRICT,
            )
            traj = simulate(sc)
            assert traj.feasibility_violations == []
            tol = 10 * sc.h ** 2 * max(lyapunov_series(traj)[0], 1e-16)
            X = traj.blocks()
            assert np.all(X >= x0.min(axis=0)[None, None, :] - tol)
            assert np.all(X <= x0.max(axis=0)[None, None, :] + tol)

    def test_signed_square_invariant(self):
        traj = simulate(scenario(spiral_protocol(), [1.0, 0.0], h=1e-3, t_end=10.0))
        y = square_max_series(traj)
        tol = 1e-10
        assert np.all(np.abs(traj.blocks()) <= np.abs([1.0, 0.0]).max() + tol)
        assert np.all(np.diff(y, axis=0) <= tol)


def tanh_field(n, arcs):
    """``field_fn`` of f_i = sum_j a_ij tanh(s_ij x_j - x_i) with unit weights,
    over arcs {label: [(j, i) or (j, i, s), ...]}."""
    S = {p: np.zeros((n, n)) for p in arcs}
    for p, pairs in arcs.items():
        for j, i, *sign in pairs:
            S[p][i - 1, j - 1] = sign[0] if sign else 1.0

    def field(p, x):
        X, s = x.reshape(n, -1), S[p][:, :, None]
        return (np.abs(s) * np.tanh(s * X[None, :, :] - X[:, None, :])).sum(axis=1).ravel()

    return field


class TestNonlinearJointConnectivity:
    """The paper's nonlinear claim on a field f_i = sum_j a_ij tanh(x_j - x_i)
    over {1->2, 2->3} and {3->4, 4->5, 5->1}, neither quasi-strongly connected.

    The box never grows, so every difference stays within the initial width
    D0, where tanh(u) >= (tanh(D0)/D0) u on [0, D0]: the field meets the cone
    with margin gamma = a_min tanh(D0)/D0, and agents reach agreement.
    """

    ARCS = {"a": [(1, 2), (2, 3)], "b": [(3, 4), (4, 5), (5, 1)]}
    FAMILY = {p: SignedDigraph(5, arcs) for p, arcs in ARCS.items()}
    X0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 2))

    def run(self, gamma, t_end):
        field = tanh_field(5, self.ARCS)
        spec = ProtocolSpec(kind="Custom", family=self.FAMILY, gamma=gamma, field_fn=field)
        sig = SwitchingSignal([(0.0, "a"), (0.5, "b")], tau_d=0.5, horizon_end=1.0, periodic=True)
        traj = simulate(ScenarioConfig(n=5, d=2, initial_states=self.X0, protocol=spec,
                                       signal=sig, h=0.01, t_end=t_end))
        return traj, validate_feasibility(traj, spec, Assumption.GAMMA_STRICT)

    def test_declared_margin_holds_and_agents_agree(self):
        assert not any(map(is_quasi_strongly_connected, self.FAMILY.values()))
        d0 = float(np.ptp(self.X0, axis=0).max())
        traj, violations = self.run(np.tanh(d0) / d0, t_end=60.0)
        assert violations == []
        assert agreement_verdict(traj, 1e-6)

    def test_overdeclared_margin_is_flagged(self):
        _traj, violations = self.run(0.99, t_end=40.0)
        assert violations

    def test_field_leaves_the_hull_cone_but_stays_in_the_box_cone(self):
        # The paper's point: at the first sample agents 2 and 3 each have one
        # in-neighbour in graph a, so their hull's tangent cone is the ray
        # toward it. The field is off that ray (the convex-hull condition
        # fails), yet in the hyperrectangle's gamma-strict cone, and the run
        # above is violation-free and agrees.
        from scipy.optimize import nnls

        d0 = float(np.ptp(self.X0, axis=0).max())
        for j, i in self.ARCS["a"]:
            x, toward = self.X0[i - 1], self.X0[j - 1] - self.X0[i - 1]
            f = np.tanh(toward)  # f_i: one in-neighbour, weight 1
            _c, residual = nnls(toward[:, None], f)
            assert residual > 0.05
            box = supporting_hyperrectangle([x, self.X0[j - 1]])
            assert gamma_cone_contains(ConeQuery(x, box, f, gamma=np.tanh(d0) / d0))


class TestSignedNonlinearJointConnectivity:
    """The signed variant f_i = sum_j a_ij tanh(s_ij x_j - x_i) over
    a: {1->2 (+), 2->3 (-)} and b: {3->4 (+), 4->1 (-)}. Neither graph is
    strongly connected; their union, the cycle 1->2->3->4->1, is.

    Every agent has at most one in-neighbour j in each graph, so each axis of
    f_i is tanh(u) with u = s_ij x_j - x_i, pointing from x_i toward s_ij x_j.
    The signed box [-M0, M0]^d with M0 = max |x0| never grows, so |u| <= 2 M0,
    where tanh(u) / u >= tanh(2 M0) / (2 M0): the field meets the signed cone
    with margin gamma = tanh(2 M0) / (2 M0), and agents agree in absolute value.
    """

    ARCS = {"a": [(1, 2, 1), (2, 3, -1)], "b": [(3, 4, 1), (4, 1, -1)]}
    FAMILY = {p: SignedDigraph(4, arcs) for p, arcs in ARCS.items()}
    SIGNAL = SwitchingSignal([(0.0, "a"), (0.5, "b")], tau_d=0.5, horizon_end=1.0, periodic=True)
    X0 = np.random.default_rng(0).uniform(-1.0, 1.0, size=(4, 2))

    def run(self, gamma, t_end):
        spec = ProtocolSpec(kind="Custom", family=self.FAMILY, gamma=gamma,
                            field_fn=tanh_field(4, self.ARCS))
        traj = simulate(ScenarioConfig(n=4, d=2, initial_states=self.X0, protocol=spec,
                                       signal=self.SIGNAL, h=0.01, t_end=t_end))
        return traj, validate_feasibility(traj, spec, Assumption.SIGNED_GAMMA_STRICT)

    def test_declared_margin_holds_and_agents_agree_in_absolute_value(self):
        assert not any(map(is_strongly_connected, self.FAMILY.values()))
        assert is_strongly_connected(union_graph(self.SIGNAL, self.FAMILY, 0.0, 1.0))
        m0 = float(np.abs(self.X0).max())
        traj, violations = self.run(np.tanh(2 * m0) / (2 * m0), t_end=60.0)
        assert violations == []
        assert absolute_value_agreement(traj, 1e-6).all()
        assert monotonicity_monitor(traj, MonitorMode.SIGNED_SQUARE) == []

    def test_overdeclared_margin_is_flagged(self):
        _traj, violations = self.run(0.99, t_end=60.0)
        assert violations


class TestEmpiricalGammaMargin:
    def test_single_arc_margin_is_weight(self):
        spec = ProtocolSpec(
            kind="WeightedConsensus", family={"g": SignedDigraph(2, [(2, 1)])},
            gamma=1.0, weights=2.5,
        )
        sc = ScenarioConfig(
            n=2, d=1, initial_states=np.array([[0.0], [1.0]]),
            protocol=spec, signal=static_signal(horizon=0.001), h=0.001, t_end=0.001,
        )
        traj = simulate(sc)
        # |f| = 2.5 * D on the active facet at every sample
        assert empirical_gamma_margin(traj, spec) == pytest.approx(2.5, rel=1e-9)

    def test_no_active_facets_is_inf(self):
        fam = {"g": SignedDigraph(3, [(2, 1), (3, 1)])}
        spec = ProtocolSpec(
            kind="Custom", family=fam, gamma=1.0, field_fn=lambda p, x: np.zeros_like(x)
        )
        sc = ScenarioConfig(
            n=3, d=1, initial_states=np.array([[0.5], [0.0], [1.0]]),
            protocol=spec, signal=static_signal(horizon=0.001), h=0.001, t_end=0.001,
        )
        traj = simulate(sc)
        # agents 2, 3 are isolated singleton hulls (degenerate, excluded);
        # agent 1 is interior, so no facet is ever active
        assert empirical_gamma_margin(traj, spec) == np.inf


def sampled_trajectory(states, labels):
    """Trajectory with the given (m, n, d) states and active labels, 0.1 apart."""
    m, n, d = states.shape
    return Trajectory(times=0.1 * np.arange(m), states=states.reshape(m, n * d),
                      n=n, d=d, runs=label_runs(labels))


def random_signed_case(seed):
    """A signed digraph family and a trajectory full of facet ties.

    Agents 1 and n have no in-neighbors in any graph (self-only hull rows).
    States come from a coarse grid, so duplicates and x_j = -x_i ties are
    common; one axis is constant across agents in the first graph's samples,
    which makes every box on it zero-width there.
    """
    rng = np.random.default_rng(seed)
    n, d, m = int(rng.integers(3, 8)), int(rng.integers(1, 4)), 40
    family = {}
    for name in ("a", "b", "c"):
        arcs = [
            (j, i, int(rng.choice([-1, 1])))
            for i in range(2, n)
            for j in range(1, n + 1)
            if j != i and rng.random() < 0.45
        ]
        family[name] = SignedDigraph(n, arcs)
    X = rng.integers(-2, 3, size=(m, n, d)) * 0.5
    X[rng.random((m, n, d)) < 0.2] += rng.normal(scale=0.1)
    labels = rng.choice(list(family), size=m)
    X[labels == "a", :, 0] = 0.5
    return family, sampled_trajectory(X, labels)


class TestSparseKernelMatchesDense:
    @pytest.mark.parametrize("one_sample_chunks", [False, True])
    @pytest.mark.parametrize("kind", ["SignedConsensus", "Custom"])
    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_violations_and_margin(self, seed, kind, one_sample_chunks, monkeypatch):
        if one_sample_chunks:
            monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 1)
        family, traj = random_signed_case(seed)
        # The custom field rounds to 0.5, so it hits zero and facet ties often.
        custom = (lambda p, x: np.round(2 * np.sin(3 * x)) / 2) if kind == "Custom" else None
        spec = ProtocolSpec(kind=kind, family=family, gamma=0.5, field_fn=custom)
        X = traj.blocks()
        for ftol in (0.0, 0.3):
            for signed in (False, True):
                lo, hi = np.full_like(X, np.nan), np.full_like(X, np.nan)
                runs = dynamics._run_chunks(traj, spec)
                for p, sel, _F, f in dynamics._facet_chunks(runs, spec, signed, ftol):
                    lo[sel], hi[sel] = f.lo, f.hi
                for p in family:
                    sel = np.flatnonzero(np.asarray(traj.active_index) == p)
                    ref_lo, ref_hi = dense_local_hull_bounds(X[sel], spec, p, signed)
                    assert np.array_equal(lo[sel], ref_lo)
                    assert np.array_equal(hi[sel], ref_hi)
                assert empirical_gamma_margin(
                    traj, spec, signed=signed, face_tolerance=ftol
                ) == dense_gamma_margin(traj, spec, signed=signed, face_tolerance=ftol)
            for assumption in Assumption:
                for gamma in (None, 10.0):
                    got = validate_feasibility(
                        traj, spec, assumption, gamma=gamma, face_tolerance=ftol
                    )
                    want = dense_validate_feasibility(
                        traj, spec, assumption, face_tolerance=ftol, gamma=gamma
                    )
                    assert got == want


def skewed_degree_case(seed, n=14):
    """A star graph and a mixed-degree graph with self-loops, over tie-heavy states.

    In "star" agent 1 has in-degree n - 1 and agents 2..5 hear only agent 1;
    the rest have no in-neighbors. In "mixed" in-degrees run from 0 to 10,
    so the hull sizes fall in several power-of-two buckets, and agents 1, 3
    and n carry self-loops of either sign.
    """
    rng = np.random.default_rng(seed)
    sign = lambda: int(rng.choice([-1, 1]))  # noqa: E731
    star = [(j, 1, sign()) for j in range(2, n + 1)] + [(1, i, sign()) for i in range(2, 6)]
    mixed = [(1, 1, -1), (3, 3, 1), (n, n, -1)]
    for i, deg in enumerate(rng.permutation(np.arange(n) % 11), 1):
        others = [j for j in range(1, n + 1) if j != i]
        mixed += [(int(j), i, sign()) for j in rng.choice(others, size=deg, replace=False)]
    family = {
        "star": SignedDigraph(n, star),
        "mixed": SignedDigraph(n, mixed, allow_self_loops=True),
    }
    m, d = 30, 2
    X = rng.integers(-2, 3, size=(m, n, d)) * 0.5
    X[rng.random((m, n, d)) < 0.2] += rng.normal(scale=0.1)
    return family, sampled_trajectory(X, rng.choice(list(family), size=m))


class TestBucketedKernelMatchesDense:
    """Hull sizes spread over several power-of-two buckets, and one wide row.

    The bounds compare with np.array_equal, which counts -0.0 equal to 0.0:
    min and max may return either zero of a +-0.0 tie, and a signed zero
    only reaches degenerate axes, whose widths are never printed.
    """

    @pytest.mark.parametrize("one_sample_chunks", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_violations_and_margin(self, seed, one_sample_chunks, monkeypatch):
        if one_sample_chunks:
            monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 1)
        family, traj = skewed_degree_case(seed)
        spec = ProtocolSpec(kind="SignedConsensus", family=family, gamma=0.5)
        X = traj.blocks()
        for signed in (False, True):
            sizes = {p: sorted(t.shape[0] for t in dynamics._hull_tables(spec, p, signed))
                     for p in family}
            assert sizes == {"star": [1, 2, 16], "mixed": [1, 2, 4, 8, 16]}
            lo, hi = np.full_like(X, np.nan), np.full_like(X, np.nan)
            runs = dynamics._run_chunks(traj, spec)
            for p, sel, _F, f in dynamics._facet_chunks(runs, spec, signed, 0.0):
                lo[sel], hi[sel] = f.lo, f.hi
            for p in family:
                sel = np.flatnonzero(np.asarray(traj.active_index) == p)
                ref_lo, ref_hi = dense_local_hull_bounds(X[sel], spec, p, signed)
                assert np.array_equal(lo[sel], ref_lo)
                assert np.array_equal(hi[sel], ref_hi)
            assert empirical_gamma_margin(traj, spec, signed=signed) == dense_gamma_margin(
                traj, spec, signed=signed
            )
        found = {None: 0, 10.0: 0}
        for assumption in Assumption:
            for gamma in found:
                got = validate_feasibility(traj, spec, assumption, gamma=gamma)
                assert got == dense_validate_feasibility(traj, spec, assumption, gamma=gamma)
                found[gamma] += len(got)
        assert found[None] > 0 and found[10.0] > found[None]

    @pytest.mark.parametrize("case", in_arcs_cases())
    @pytest.mark.parametrize("signed", [False, True])
    def test_hull_tables_match_a_build_from_the_arcs(self, case, signed):
        # Agent i's hull: i, then each in-neighbour j != i, as column j + n
        # across an antagonistic arc when signed; padded with i to a power of two.
        g = in_arcs_cases()[case]
        spec = ProtocolSpec(kind="SignedConsensus", family={"g": g}, gamma=1.0)
        want = {i: sorted([i] + [j - 1 + (g.n if signed and s < 0 else 0)
                                 for j, head, s in g.arcs if head == i + 1 and j != head])
                for i in range(g.n)}
        got = {}
        for table in dynamics._hull_tables(spec, "g", signed):
            for column in table.T.tolist():
                i, w = column[0], len(column)
                assert i not in got and w == 1 << (len(want[i]) - 1).bit_length()
                got[i] = sorted(column)
        assert got == {i: sorted(hull + [i] * (len(got[i]) - len(hull)))
                       for i, hull in want.items()}


def test_validator_memory_on_a_star_stays_per_chunk():
    # The hub's hull of 200 is padded to 256 and its leaves' of 2 stay at 2:
    # one table of 654 entries, where padding every row to the hub's width
    # would gather 200 * 256 per sample.
    rng = np.random.default_rng(7)
    n, d, m = 200, 3, 200
    arcs = [(j, 1, int(rng.choice([-1, 1]))) for j in range(2, n + 1)]
    arcs += [(1, i, int(rng.choice([-1, 1]))) for i in range(2, n + 1)]
    spec = ProtocolSpec(kind="SignedConsensus", family={"g": SignedDigraph(n, arcs)}, gamma=1.0)
    traj = sampled_trajectory(rng.normal(size=(m, n, d)), ["g"] * m)
    tracemalloc.start()
    try:
        violations = validate_feasibility(traj, spec, Assumption.SIGNED_GAMMA_STRICT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    assert peak < 4e6


class TestValidatorInputs:
    """Mismatched trajectories are rejected as DomainError at every entry point."""

    @staticmethod
    def entry_points(traj, spec):
        return [
            lambda: fields_along(traj, spec),
            lambda: validate_feasibility(traj, spec, Assumption.GAMMA_STRICT),
            lambda: empirical_gamma_margin(traj, spec),
        ]

    def test_active_label_outside_family(self):
        spec = spiral_protocol()
        traj = sampled_trajectory(np.ones((3, 2, 1)), ["g", "zz", "g"])
        for call in self.entry_points(traj, spec):
            with pytest.raises(DomainError, match="'zz'"):
                call()

    def test_agent_count_mismatch(self):
        spec = ProtocolSpec(kind="SignedConsensus", family={"g": complete_graph(3)}, gamma=1.0)
        traj = sampled_trajectory(np.ones((3, 4, 2)), ["g"] * 3)
        for call in self.entry_points(traj, spec):
            with pytest.raises(DomainError, match="n=4"):
                call()

    @pytest.mark.parametrize("kwargs", [
        {"gamma": np.nan}, {"gamma": np.inf},
        {"face_tolerance": np.nan}, {"face_tolerance": np.inf},
        {"strictness_tolerance": np.nan}, {"strictness_tolerance": np.inf},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_validator_thresholds_must_be_finite(self, kwargs):
        # Comparisons with NaN are false, so a NaN threshold would pass every
        # facet; here gamma=5 finds violations at every sample.
        spec = ProtocolSpec(kind="WeightedConsensus", family={"g": SignedDigraph(2, [(2, 1)])},
                            gamma=1.0)
        traj = sampled_trajectory(np.array([[[0.0], [1.0]]] * 3), ["g"] * 3)
        assert validate_feasibility(traj, spec, "GammaStrict", gamma=5)
        with pytest.raises(DomainError, match="gamma|tolerance"):
            validate_feasibility(traj, spec, "GammaStrict", **kwargs)

    @pytest.mark.parametrize("face_tolerance", [np.nan, np.inf, -1.0])
    def test_margin_face_tolerance_must_be_finite(self, face_tolerance):
        spec = ProtocolSpec(kind="WeightedConsensus", family={"g": SignedDigraph(2, [(2, 1)])},
                            gamma=1.0)
        traj = sampled_trajectory(np.array([[[0.0], [1.0]]] * 3), ["g"] * 3)
        with pytest.raises(DomainError, match="face_tolerance"):
            empirical_gamma_margin(traj, spec, face_tolerance=face_tolerance)

    def test_rotation_dimension_mismatch(self):
        spec = ProtocolSpec(
            kind="RotatedConsensus", family={"g": complete_graph(3)}, gamma=1.0,
            rotation=[[0.1, 0.2, 0.3]] * 3,
        )
        traj = sampled_trajectory(np.ones((3, 3, 2)), ["g"] * 3)
        for call in self.entry_points(traj, spec):
            with pytest.raises(DomainError, match="need 1 plane angles for d=2"):
                call()


class TestRunTable:
    """The trajectory keeps the schedule as runs (p, a, b) tiling its samples."""

    @pytest.mark.parametrize("runs", [
        [("g", 0, 2), ("g", 1, 3)],  # overlap
        [("g", 0, 1), ("g", 2, 3)],  # gap
        [("g", 0, 2)],  # stops short of the last sample
        [("g", 0, 1)],
        [("g", 0, 3), ("g", 3, 4)],  # past the last sample
        [("g", 1, 3)],  # does not start at sample 0
        [("g", 0, 0), ("g", 0, 3)],  # an empty run
        [("g", 2, 3), ("g", 0, 2)],  # out of order
    ])
    def test_runs_must_tile_the_samples(self, runs):
        with pytest.raises(DomainError, match="run"):
            Trajectory(times=np.arange(3.0), states=np.zeros((3, 2)), n=2, d=1, runs=runs)

    def test_a_run_covering_every_sample_checks_every_sample(self):
        # A per-sample label list of one entry once slipped through: the
        # validator saw one sample of three, and fields_along left two
        # samples uninitialised.
        spec = mutual_consensus()
        states = np.array([[0.0, 1.0]] * 3)
        with pytest.raises(DomainError):
            Trajectory(times=np.arange(3.0), states=states, n=2, d=1, runs=[("g", 0, 1)])
        traj = Trajectory(times=np.arange(3.0), states=states, n=2, d=1, runs=[("g", 0, 3)])
        violations = validate_feasibility(traj, spec, Assumption.GAMMA_STRICT, gamma=10)
        assert [(v.time, v.agent) for v in violations] == [
            (t, i) for t in (0.0, 1.0, 2.0) for i in (1, 2)
        ]
        assert np.array_equal(fields_along(traj, spec), np.array([[[1.0], [-1.0]]] * 3))

    def test_active_index_is_a_view_of_the_runs(self):
        traj = sampled_trajectory(np.zeros((5, 2, 1)), ["a", "a", "b", "b", "a"])
        assert traj.runs == [("a", 0, 2), ("b", 2, 4), ("a", 4, 5)]
        assert traj.active_index == ["a", "a", "b", "b", "a"]
        with pytest.raises(AttributeError):
            traj.active_index = ["a"] * 5

    @pytest.mark.parametrize("t_end", [1.0, 1.1, 2.0])
    def test_final_sample_opens_the_run_active_at_t_end(self, t_end):
        # At t_end = 1.0 the segment of "b" starts on the final sample.
        fam = {"a": SignedDigraph(2, [(1, 2)]), "b": SignedDigraph(2, [(2, 1)])}
        spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.0)
        sig = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=0.5, horizon_end=2.0)
        sc = scenario(spec, [0.0, 2.0], h=0.25, t_end=t_end, signal=sig)
        traj = simulate(sc)
        times, _states, labels = v0_simulate(sc)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.active_index == labels
        assert traj.runs == label_runs(labels)
        assert traj.runs[-1][0] == "b"

    def test_chunks_group_samples_by_label_not_by_run(self, monkeypatch):
        # One step per segment: 400 runs over two graphs. Chunking per run
        # would yield 400 chunks; grouping by label fills each chunk.
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 500)
        fam = {"a": SignedDigraph(3, [(1, 2), (2, 3)]), "b": SignedDigraph(3, [(3, 1)])}
        spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.0)
        pieces = [(round(0.01 * k, 10), "ab"[k % 2]) for k in range(400)]
        sig = SwitchingSignal(pieces, tau_d=0.01, horizon_end=4.0)
        traj = simulate(scenario(spec, [0.0, 1.0, 2.0], h=0.01, t_end=4.0, signal=sig))
        assert len(traj.runs) == 400
        chunks = list(dynamics._facet_chunks(dynamics._run_chunks(traj, spec), spec, False, 0.0))
        bound = 0
        for p in fam:
            entries = sum(t.size for t in dynamics._hull_tables(spec, p, False)) + spec.n
            step = max(1, 500 // (entries * traj.d))
            count = traj.active_index.count(p)
            bound += -(-count // step)
            assert step > 1
        assert len(chunks) <= bound


def test_validator_memory_grows_with_arcs_not_n_squared():
    # A dense (samples, n, n, d) hull would take 200 * 200 * 200 * 3 * 8 B
    # = 192 MB for one gathered copy; in-neighbor lists need about 1/50 of it.
    rng = np.random.default_rng(12)
    n, d, m = 200, 3, 200
    arcs = [
        (int(j), i, int(rng.choice([-1, 1])))
        for i in range(1, n + 1)
        for j in rng.choice([j for j in range(1, n + 1) if j != i], size=3, replace=False)
    ]
    spec = ProtocolSpec(kind="SignedConsensus", family={"g": SignedDigraph(n, arcs)}, gamma=1.0)
    traj = sampled_trajectory(rng.normal(size=(m, n, d)), ["g"] * m)
    tracemalloc.start()
    try:
        violations = validate_feasibility(traj, spec, Assumption.SIGNED_GAMMA_STRICT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    assert peak < 24e6


def test_fields_along_memory_is_its_output_and_a_chunk():
    # One label over 6.4 MB of states: the field array and one sample chunk,
    # not a gathered copy of the label's states and its field on top.
    rng = np.random.default_rng(13)
    n, d, m = 100, 2, 4000
    spec = ProtocolSpec(kind="WeightedConsensus", family={"g": complete_graph(n)}, gamma=1.0)
    traj = sampled_trajectory(rng.normal(size=(m, n, d)), ["g"] * m)
    spec.linear_field("g", traj.blocks()[:1])  # builds the operator outside the trace
    tracemalloc.start()
    try:
        F = fields_along(traj, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(F, spec.linear_field("g", traj.blocks()))
    assert peak < traj.states.nbytes + 2e6


def propagator_case(kind, d, periodic, seed):
    """A three-graph scenario on 5 agents whose segments end off the h grid.

    Dwell times are not multiples of h, so segments end in a short trailing
    step, and the 0.013-long piece is shorter than h = 0.02.
    """
    rng = np.random.default_rng(seed)
    n = 5
    family, weights = {}, {}
    for name in "abc":
        arcs = [
            (j, i, int(rng.choice([-1, 1])) if kind == "SignedConsensus" else 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if j != i and rng.random() < 0.5
        ]
        family[name] = SignedDigraph(n, arcs)
        weights.update({(j, i): float(rng.uniform(0.3, 2.0)) for j, i, _s in arcs})
    rotation = None
    if kind == "RotatedConsensus":
        rotation = rng.uniform(-0.6, 0.6, size=(n, d * (d - 1) // 2)).tolist()
    spec = ProtocolSpec(kind=kind, family=family, gamma=1.0, weights=weights, rotation=rotation)
    pieces = [(0.0, "a"), (0.137, "b"), (0.15, "c"), (0.291, "a")]
    horizon = 0.4 if periodic else 3.0
    sig = SwitchingSignal(pieces, tau_d=0.01, horizon_end=horizon, periodic=periodic)
    x0 = rng.normal(scale=3.0, size=(n, d))
    return ScenarioConfig(
        n=n, d=d, initial_states=x0, protocol=spec, signal=sig, h=0.02, t_end=2.957
    )


def many_graphs_case(kind, graphs=12):
    """Random graphs on 3 agents, d = 2, taking turns every 0.05 over [0, 3]
    with h = 0.01."""
    rng = np.random.default_rng(11)
    n, names = 3, [f"g{k}" for k in range(graphs)]
    signed = kind == "SignedConsensus"
    family = {p: SignedDigraph(n, [(j, i, int(rng.choice([-1, 1])) if signed else 1)
                                   for i in range(1, n + 1) for j in range(1, n + 1)
                                   if j != i and rng.random() < 0.4]) for p in names}
    rotation = 0.3 if kind == "RotatedConsensus" else None
    spec = ProtocolSpec(kind=kind, family=family, gamma=1.0, rotation=rotation)
    return scenario(spec, rng.normal(size=(n, 2)), h=0.01, t_end=3.0,
                    signal=cyclic_signal(names, 0.05, 3.0))


def gathered_and_walked(sc, sizes):
    """Per label, the (samples, states bytes) chunks cut from the stored
    trajectory's runs, joined label by label, then those ``_gathered``
    regroups while integrating and from the stored runs, with ``sizes[p]``
    samples per chunk."""
    def by_label(chunks):
        out = {}
        for p, samples, X in chunks:  # each chunk is read before the next overwrites it
            out.setdefault(p, []).append((samples.tolist(), X.tobytes()))
        return out

    traj = simulate(sc)
    ref = {}
    for p in dict.fromkeys(traj.active_index):
        sel = np.concatenate([np.arange(a, b) for q, a, b in traj.runs if q == p])
        ref[p] = [(sel[k : k + sizes[p]].tolist(), traj.blocks()[sel[k : k + sizes[p]]].tobytes())
                  for k in range(0, sel.size, sizes[p])]
    times, runs = dynamics._schedule(sc)
    size = lambda p, d: sizes[p]  # noqa: E731
    got = by_label(dynamics._gathered(dynamics._sample_chunks(sc, times, runs), size))
    stored = by_label(dynamics._gathered(dynamics._run_chunks(traj, sc.protocol), size))
    return ref, got, stored


class TestStepPropagator:
    """Built-in kinds step with T4(hA); the generic RK4 loop is the oracle."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize(
        "kind, d",
        [("WeightedConsensus", 1), ("WeightedConsensus", 2), ("WeightedConsensus", 3),
         ("SignedConsensus", 1), ("SignedConsensus", 2), ("SignedConsensus", 3),
         ("RotatedConsensus", 1), ("RotatedConsensus", 2), ("RotatedConsensus", 3)],
    )
    def test_matches_generic_rk4(self, kind, d, periodic):
        sc = propagator_case(kind, d, periodic, seed=d)
        traj = simulate(sc)
        times, states, labels = v0_simulate(sc)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.active_index == labels
        assert len(set(labels)) == 3 and np.diff(times).min() < 0.015
        scale = max(1.0, float(np.abs(sc.initial_states).max()))
        assert np.abs(traj.states - states).max() <= 1e-12 * scale

    def test_custom_evaluates_field_four_times_per_step(self):
        calls = []

        def field(p, x):
            calls.append(p)
            return -x

        sc = propagator_case("SignedConsensus", 2, False, seed=1)
        spec = ProtocolSpec(kind="Custom", family=sc.protocol.family, gamma=1.0, field_fn=field)
        sc = ScenarioConfig(
            n=sc.n, d=sc.d, initial_states=sc.initial_states, protocol=spec, signal=sc.signal,
            h=sc.h, t_end=sc.t_end,
        )
        traj = simulate(sc)
        assert len(calls) == 4 * (traj.num_samples - 1)
        assert [calls[4 * k] for k in range(traj.num_samples - 1)] == traj.active_index[:-1]

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("spec, x0", [
        (mutual_consensus(weights=1e3), [0.0, 1.0]),
        (ProtocolSpec(kind="RotatedConsensus", family=MUTUAL, gamma=1.0, weights=1e3,
                      rotation=0.3), [0.0, 1.0, 1.0, 0.0]),
    ], ids=["weighted", "rotated"])
    def test_builtin_divergence_time_matches_generic_loop(self, spec, x0):
        # h * |A| = 2000, far outside RK4's stability region: the disagreement
        # mode grows by about 6.7e11 per step until the state overflows.
        sc = scenario(spec, x0, h=1.0, t_end=60.0, signal=static_signal(horizon=60.0))
        with pytest.raises(DivergenceError) as ref:
            v0_simulate(sc)
        with pytest.raises(DivergenceError) as err:
            simulate(sc)
        assert 0.0 < err.value.time < 60.0
        assert err.value.time == ref.value.time


def custom_case(sc, field):
    spec = ProtocolSpec(kind="Custom", family=sc.protocol.family, gamma=1.0, field_fn=field)
    return ScenarioConfig(n=sc.n, d=sc.d, initial_states=sc.initial_states, protocol=spec,
                          signal=sc.signal, h=sc.h, t_end=sc.t_end)


class TestSampleChunks:
    """The one integrator, read chunk by chunk as `compass run` streams it
    through one reused buffer, gives the states `simulate` stores."""

    @pytest.mark.parametrize("elements", [None, 1, 50])
    @pytest.mark.parametrize("kind", ["Custom", "SignedConsensus", "RotatedConsensus"])
    def test_chunks_are_the_stored_states(self, kind, elements, monkeypatch):
        sc = propagator_case("SignedConsensus" if kind == "Custom" else kind, 2, True, seed=4)
        if kind == "Custom":
            sc = custom_case(sc, lambda p, x: np.sin(x[::-1]) - x)
        traj = simulate(sc)
        if elements:
            monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", elements)
        size = max(1, dynamics._CHUNK_ELEMENTS // (sc.n * sc.d))
        times, runs = dynamics._schedule(sc)
        states, labels, start = np.full_like(traj.states, np.nan), [], 0
        for p, samples, X in dynamics._sample_chunks(sc, times, runs):
            assert samples[0] == start and 0 < len(samples) <= size
            states[samples] = X.reshape(len(X), -1)
            labels += [p] * len(samples)
            start = samples[-1] + 1
        assert states.tobytes() == traj.states.tobytes()
        assert labels == traj.active_index and times.tobytes() == traj.times.tobytes()

    @pytest.mark.parametrize("elements", [None, 50])
    def test_gathered_chunks_are_the_label_walkers(self, elements, monkeypatch):
        # The validator's chunks, regrouped per label from the integrator's
        # or the stored runs, are each label's samples cut in order while
        # the label buffers fit in 2 * _CHUNK_ELEMENTS states. At 50
        # elements the integrator splits its runs into 5-sample chunks.
        sc = propagator_case("SignedConsensus", 2, True, seed=4)
        if elements:
            monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", elements)
        sizes = {"a": 3, "b": 1, "c": 5}  # 90 states at n * d = 10
        ref, got, stored = gathered_and_walked(sc, sizes)
        assert got == ref and stored == ref

    @pytest.mark.parametrize("elements", [1, 50])
    def test_gathered_chunks_past_the_bound_keep_each_labels_order(self, elements,
                                                                   monkeypatch):
        # 110 states of label buffers pass the 100 that 50 elements allow, and
        # at 1 element one buffer is held at a time: part-filled buffers go to
        # the validator early, each label's samples still in order.
        sc = propagator_case("SignedConsensus", 2, True, seed=4)
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", elements)
        sizes = {"a": 3, "b": 1, "c": 7}
        ref, got, stored = gathered_and_walked(sc, sizes)

        def joined(chunks):
            return {p: (sum((s for s, _ in cs), []), b"".join(x for _, x in cs))
                    for p, cs in chunks.items()}

        assert joined(got) == joined(ref) == joined(stored) and got != ref
        assert all(0 < len(samples) <= sizes[p]
                   for chunks in (got, stored) for p, cs in chunks.items() for samples, _ in cs)

    @pytest.mark.parametrize("kind", ["SignedConsensus", "RotatedConsensus"])
    def test_rebuilt_step_matrices_give_the_same_states(self, kind, monkeypatch):
        # At 1 element the first sixteen of twenty graphs keep their step
        # matrices and the other four rebuild theirs on every run.
        sc = many_graphs_case(kind, graphs=20)
        taylor4, builds = dynamics._taylor4, []

        def counted(act, dt, X):  # a basis, not an (n, d) state for a short step
            builds.append(X.shape != (sc.n, sc.d))
            return taylor4(act, dt, X)

        monkeypatch.setattr(dynamics, "_taylor4", counted)
        ref = simulate(sc)
        assert sum(builds) == 20
        builds.clear()
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", 1)
        assert simulate(sc).states.tobytes() == ref.states.tobytes()
        assert sum(builds) > 20

    @pytest.mark.parametrize("elements", [None, 1, 50])
    def test_streamed_verdicts_over_many_graphs_match_the_dense_oracle(self, elements,
                                                                       monkeypatch):
        # Twelve graphs take turns, so at every budget the label buffers pass
        # their bound and some labels are validated run by run, as they come;
        # a sample's verdict does not depend on the chunk it is checked in.
        # Each label's hull tables are built once per pass all the same.
        sc = many_graphs_case("SignedConsensus")
        spec = sc.protocol
        traj = simulate(sc)
        if elements:
            monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", elements)
        hull_tables, built = dynamics._hull_tables, []
        monkeypatch.setattr(dynamics, "_hull_tables",
                            lambda spec, p, signed: built.append(p) or hull_tables(spec, p, signed))
        times, runs = dynamics._schedule(sc)
        for assumption in Assumption:
            for gamma in (None, 10.0):
                want = dense_validate_feasibility(traj, spec, assumption, gamma=gamma)
                built.clear()
                got = dynamics._violations(dynamics._sample_chunks(sc, times, runs), times,
                                           spec, assumption, gamma, 0.0, 1e-12)
                assert got == want and (want or gamma is None)
                assert sorted(built) == sorted(spec.family)

    def test_a_switch_at_t_end_takes_no_step(self, monkeypatch):
        # The segment opened at t_end holds only the final sample: its run is
        # one sample long, and the state there is the previous run's last step.
        family = {"a": MUTUAL["g"], "b": SignedDigraph(2, [(1, 2)])}
        spec = ProtocolSpec(kind="WeightedConsensus", family=family, gamma=1.0, weights=1.0)
        switched = SwitchingSignal([(0.0, "a"), (1.0, "b")], tau_d=1.0, horizon_end=2.0)
        sc = scenario(spec, [-0.0, 0.5, -0.0, -0.25], h=0.1, t_end=1.0, signal=switched)
        ref = simulate(scenario(spec, sc.initial_states, h=0.1, t_end=1.0,
                                signal=static_signal("a", horizon=2.0)))
        steps = []
        taylor4 = dynamics._taylor4

        def spy(act, dt, X):
            steps.append(dt)
            return taylor4(act, dt, X)

        monkeypatch.setattr(dynamics, "_taylor4", spy)
        traj = simulate(sc)
        assert traj.runs[-1] == ("b", traj.num_samples - 1, traj.num_samples)
        assert steps and min(steps) > 0
        assert traj.states.tobytes() == ref.states.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize("elements", [None, 3])
    @pytest.mark.parametrize("case", ["custom", "weighted"])
    def test_streamed_divergence_time_matches_simulate(self, case, elements, monkeypatch):
        from compass_consensus.metrics import run_report

        if case == "custom":  # finite-time blowup
            sc = scenario(ProtocolSpec(kind="Custom", family=MUTUAL, gamma=1.0,
                                       field_fn=lambda p, x: x ** 2), [5.0, 5.0], h=0.01)
        else:  # far outside RK4's stability region
            sc = scenario(mutual_consensus(weights=1e3), [0.0, 1.0], h=1.0, t_end=60.0,
                          signal=static_signal(horizon=60.0))
        with pytest.raises(DivergenceError) as ref:
            simulate(sc)
        if elements:  # one sample per chunk
            monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", elements)
        with pytest.raises(DivergenceError) as err:
            run_report(sc, lambda *chunk: None)
        assert err.value.time == ref.value.time


def test_validator_memory_bounded_per_chunk():
    # Fields are evaluated per sample chunk too, so the validator's peak stays
    # below the size of the trajectory it reads (12 MB of states here).
    rng = np.random.default_rng(5)
    n, d, m = 10, 3, 50_000
    ring = SignedDigraph(n, [(i, i % n + 1) for i in range(1, n + 1)])
    spec = ProtocolSpec(kind="SignedConsensus", family={"g": ring}, gamma=1.0)
    traj = sampled_trajectory(rng.normal(size=(m, n, d)), ["g"] * m)
    tracemalloc.start()
    try:
        violations = validate_feasibility(traj, spec, Assumption.GAMMA_STRICT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert violations == []
    assert peak < traj.states.nbytes


@pytest.mark.parametrize("seed", range(3))
def test_self_loops_leave_the_hull_unchanged(seed):
    # An agent is in its own hull with sign +1 whatever loop it carries, as a
    # loop adds nothing to L_p either.
    family, traj = random_signed_case(seed)
    looped = {
        p: SignedDigraph(g.n, set(g.arcs) | {(2, 2, -1), (g.n, g.n, 1)}, allow_self_loops=True)
        for p, g in family.items()
    }
    plain = ProtocolSpec(kind="SignedConsensus", family=family, gamma=0.5)
    spec = ProtocolSpec(kind="SignedConsensus", family=looped, gamma=0.5)
    found = 0
    for assumption in Assumption:
        want = validate_feasibility(traj, plain, assumption)
        assert validate_feasibility(traj, spec, assumption) == want
        found += len(want)
    assert found > 0
    for signed in (False, True):
        assert empirical_gamma_margin(traj, spec, signed=signed) == empirical_gamma_margin(
            traj, plain, signed=signed
        )
