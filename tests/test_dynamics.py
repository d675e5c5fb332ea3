import tracemalloc

import numpy as np
import pytest

from compass_consensus import dynamics
from compass_consensus.dynamics import (
    Assumption,
    Trajectory,
    empirical_gamma_margin,
    fields_along,
    linear_oracle_solution,
    linear_system_matrix,
    simulate,
    validate_feasibility,
)
from compass_consensus.errors import (
    DivergenceError,
    DomainError,
    OracleScopeError,
)
from compass_consensus.geometry import (
    ConeQuery,
    gamma_cone_contains,
    relative_interior_cone_contains,
    supporting_hyperrectangle,
)
from compass_consensus.graphs import SignedDigraph, SwitchingSignal, complete_graph
from compass_consensus.metrics import lyapunov_series, square_max_series
from compass_consensus.protocols import ProtocolKind, ProtocolSpec
from compass_consensus.scenario import ScenarioConfig
from helpers import (
    dense_gamma_margin,
    dense_local_hull_bounds,
    dense_validate_feasibility,
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
        # where active_index's modulo wraps; each step must still use, and
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
        assert traj.feasibility_flags.all()

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
                    for j in g.neighbors(i):
                        sgn = g.sign(j, i) if signed else 1
                        pts.append(sgn * X[s, j - 1])
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
                      n=n, d=d, active_index=list(labels))


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
                for p, sel, _F, f in dynamics._facet_chunks(traj, spec, signed, ftol):
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
                got = validate_feasibility(traj, spec, assumption, face_tolerance=ftol)
                want = dense_validate_feasibility(traj, spec, assumption, face_tolerance=ftol)
                assert got == want


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

    def test_rotation_dimension_mismatch(self):
        spec = ProtocolSpec(
            kind="RotatedConsensus", family={"g": complete_graph(3)}, gamma=1.0,
            rotation=[[0.1, 0.2, 0.3]] * 3,
        )
        assert spec.rotation_dim == 3
        traj = sampled_trajectory(np.ones((3, 3, 2)), ["g"] * 3)
        for call in self.entry_points(traj, spec):
            with pytest.raises(DomainError, match="rotation built for d=3"):
                call()


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


class TestStepPropagator:
    """Built-in kinds step with T4(hA); the generic RK4 loop is the oracle."""

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize(
        "kind, d",
        [("WeightedConsensus", 1), ("WeightedConsensus", 2), ("WeightedConsensus", 3),
         ("SignedConsensus", 1), ("SignedConsensus", 2), ("SignedConsensus", 3),
         ("RotatedConsensus", 2), ("RotatedConsensus", 3)],
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
    def test_builtin_divergence_time_matches_generic_loop(self):
        # h * |A| = 2000, far outside RK4's stability region: the disagreement
        # mode grows by about 6.7e11 per step until the state overflows.
        spec = mutual_consensus(weights=1e3)
        sc = scenario(spec, [0.0, 1.0], h=1.0, t_end=60.0, signal=static_signal(horizon=60.0))
        with pytest.raises(DivergenceError) as ref:
            v0_simulate(sc)
        with pytest.raises(DivergenceError) as err:
            simulate(sc)
        assert 0.0 < err.value.time < 60.0
        assert err.value.time == ref.value.time
