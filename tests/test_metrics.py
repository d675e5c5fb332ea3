import json
import math

import numpy as np
import pytest

from compass_consensus.dynamics import Trajectory, simulate
from compass_consensus.errors import DomainError
from compass_consensus.graphs import SignedDigraph, SwitchingSignal
from compass_consensus import metrics
from compass_consensus.metrics import (
    MonitorMode,
    absolute_value_agreement,
    abs_spread_series,
    agreement_verdict,
    build_report,
    diameters_series,
    fit_exponential_rate,
    lyapunov_series,
    monotonicity_monitor,
    rate_bound,
    t_bar_from_window,
)
from compass_consensus.protocols import ProtocolSpec
from compass_consensus.scenario import ScenarioConfig
from helpers import v0_build_report

# Frozen oracle values (30-digit arithmetic):
#   beta      = exp(-2)/4 = 0.0338338208091532...
#   beta_star = ln(1/(1-beta)) = 0.0344194314168896...
BETA_ORACLE = 0.0338338208091532
BETA_STAR_ORACLE = 0.0344194314168896


def make_traj(times, states, n, d, p="g"):
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float).reshape(len(times), n * d)
    return Trajectory(times=times, states=states, n=n, d=d, active_index=[p] * len(times))


def consensus_run(h=1e-3, t_end=10.0):
    fam = {"g": SignedDigraph(2, [(1, 2), (2, 1)])}
    spec = ProtocolSpec(kind="WeightedConsensus", family=fam, gamma=1.0)
    sig = SwitchingSignal([(0.0, "g")], tau_d=1.0, horizon_end=t_end)
    sc = ScenarioConfig(
        n=2, d=1, initial_states=np.array([[0.0], [2.0]]),
        protocol=spec, signal=sig, h=h, t_end=t_end,
    )
    return simulate(sc)


def spiral_run(t_end=10.0):
    fam = {"g": SignedDigraph(2, [(2, 1, 1), (1, 2, -1)])}
    spec = ProtocolSpec(kind="SignedConsensus", family=fam, gamma=1.0)
    sig = SwitchingSignal([(0.0, "g")], tau_d=1.0, horizon_end=t_end)
    sc = ScenarioConfig(
        n=2, d=1, initial_states=np.array([[1.0], [0.0]]),
        protocol=spec, signal=sig, h=1e-3, t_end=t_end,
    )
    return simulate(sc)


class TestLyapunovSeries:
    def test_agreement_state_zero(self):
        traj = make_traj([0.0, 1.0], [[2.0, 2.0], [2.0, 2.0]], n=2, d=1)
        assert np.array_equal(lyapunov_series(traj), [0.0, 0.0])

    def test_three_agent_example(self):
        traj = make_traj([0.0], [[0.0, 0.0, 1.0, 2.0, 3.0, 1.0]], n=3, d=2)
        assert lyapunov_series(traj)[0] == 3.0
        assert np.array_equal(diameters_series(traj)[0], [3.0, 2.0])

    def test_consensus_run_closed_form(self):
        traj = consensus_run()
        v = lyapunov_series(traj)
        expect = 2.0 * np.exp(-2.0 * traj.times)
        sel = expect > 1e-12
        assert np.all(np.abs(v[sel] - expect[sel]) <= 0.01 * expect[sel])

    def test_square_max_is_square_of_abs_max(self):
        from compass_consensus.metrics import abs_max_series, square_max_series

        rng = np.random.default_rng(4)
        traj = make_traj(np.arange(5.0), rng.normal(size=(5, 6)), n=3, d=2)
        assert np.allclose(square_max_series(traj), abs_max_series(traj) ** 2)


class TestMonotonicityMonitor:
    def test_validated_cooperative_run_clean(self):
        traj = consensus_run()
        assert monotonicity_monitor(traj, MonitorMode.COOPERATIVE_BOX) == []

    def test_constructed_outward_jump(self):
        traj = make_traj(
            [0.0, 1.0, 2.0],
            [[0.0, 1.0], [0.1, 0.9], [0.15, 1.2]],
            n=2,
            d=1,
        )
        bad = monotonicity_monitor(traj, "CooperativeBox", tol_monotone=1e-9)
        assert len(bad) == 1
        assert bad[0].sample == 2 and bad[0].kind == "M_k"
        assert bad[0].excess == pytest.approx(0.3)

    def test_signed_square_on_spiral(self):
        traj = spiral_run()
        assert monotonicity_monitor(traj, MonitorMode.SIGNED_SQUARE) == []

    def test_signed_square_flags_growth(self):
        traj = make_traj([0.0, 1.0], [[1.0, 0.0], [1.5, 0.0]], n=2, d=1)
        bad = monotonicity_monitor(traj, "SignedSquare", tol_monotone=1e-9)
        assert len(bad) == 1 and bad[0].kind == "y_k"


class TestFitExponentialRate:
    def test_synthetic_pure_decay(self):
        t = np.linspace(0.0, 10.0, 400)
        fit = fit_exponential_rate((t, 3.0 * np.exp(-2.0 * t)))
        assert fit.lambda_hat == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared > 1 - 1e-12
        assert not fit.truncated

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 100)
        fit = fit_exponential_rate((t, np.full_like(t, 7.0)))
        assert fit.lambda_hat == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_consensus_run_rate(self):
        traj = consensus_run()
        lam, r2 = fit_exponential_rate((traj.times, lyapunov_series(traj)))
        assert lam == pytest.approx(2.0, rel=0.01)
        assert r2 > 0.999

    def test_floor_truncation_flagged(self):
        t = np.linspace(0.0, 10.0, 200)
        v = np.exp(-4.5 * t)  # crosses the 1e-14 floor inside the tail window
        fit = fit_exponential_rate((t, v))
        assert fit.truncated
        assert fit.lambda_hat == pytest.approx(4.5, rel=1e-3)

    def test_rejects_bad_tail_fraction(self):
        with pytest.raises(DomainError):
            fit_exponential_rate((np.array([0.0, 1.0]), np.array([1.0, 1.0])), 0.0)


class TestAbsoluteValueAgreement:
    def test_bipartite_equilibrium(self):
        traj = make_traj([0.0, 1.0, 2.0], [[1.0, -1.0]] * 3, n=2, d=1)
        assert absolute_value_agreement(traj, tol=1e-9).all()

    def test_spiral_converges_in_absolute_value(self):
        traj = spiral_run(t_end=12.0)
        assert absolute_value_agreement(traj, tol=1e-4).all()

    def test_frozen_disagreement(self):
        traj = make_traj([0.0, 1.0], [[0.0, 2.0]] * 2, n=2, d=1)
        assert not absolute_value_agreement(traj, tol=1e-6).any()


class TestRateBound:
    def test_hand_derived_value(self):
        beta, beta_star = rate_bound(2, 1, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert beta == pytest.approx(BETA_ORACLE, abs=1e-12)
        assert beta_star == pytest.approx(BETA_STAR_ORACLE, abs=1e-12)
        assert beta == pytest.approx(math.exp(-2) / 4, abs=1e-15)

    def test_small_gamma_limit(self):
        beta, beta_star = rate_bound(3, 2, 1.0, 1e-9, 1.0, 1.0, 1.0)
        assert 0 < beta < 1e-15
        assert 0 < beta_star < 1e-15

    def test_structural_range(self):
        # input ranges keep n L* T' small enough that beta does not underflow
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 4))
            beta, beta_star = rate_bound(
                n, d,
                rng.uniform(0.1, 8),
                rng.uniform(0.01, 5),
                rng.uniform(0.01, 5),
                rng.uniform(0.01, 4),
                rng.uniform(0.01, 5),
            )
            assert 0 < beta <= 0.5
            assert beta_star > 0

    def test_monotone_in_gamma_and_dwell(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            args = dict(
                n=n, d=1, T_bar=rng.uniform(0.5, 5),
                L_star=rng.uniform(0.1, 2), L_plus=rng.uniform(0.1, 2),
            )
            tau = rng.uniform(0.1, 2)
            g1, g2 = sorted(rng.uniform(0.05, 3, size=2))
            b1 = rate_bound(gamma=g1, tau_d=tau, **args).beta
            b2 = rate_bound(gamma=g2, tau_d=tau, **args).beta
            assert b2 >= b1
            t1, t2 = sorted(rng.uniform(0.05, 3, size=2))
            b1 = rate_bound(gamma=g1, tau_d=t1, **args).beta
            b2 = rate_bound(gamma=g1, tau_d=t2, **args).beta
            assert b2 >= b1

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            rate_bound(1, 1, 1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            rate_bound(2, 1, -1.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            rate_bound(2, 1, 1.0, 0.0, 1.0, 1.0, 1.0)

    def test_t_bar_constructor(self):
        # T1 = T + 2 tau_d, sweep = n^2 T1
        assert t_bar_from_window(2, 0.5, 0.25) == pytest.approx(4.0)
        with pytest.raises(DomainError):
            t_bar_from_window(1, 0.5, 0.25)


class TestAgreementVerdict:
    def test_consensus_hit_time(self):
        traj = consensus_run()
        verdict = agreement_verdict(traj, 1e-6)
        assert verdict.achieved
        # solve 2 exp(-2t) = 1e-6: t = ln(2e6)/2 = 7.2543...
        assert verdict.time == pytest.approx(7.25432886926, abs=2e-3)

    def test_disconnected_false(self):
        traj = make_traj([0.0, 1.0], [[0.0, 2.0]] * 2, n=2, d=1)
        verdict = agreement_verdict(traj, 1e-6)
        assert not verdict.achieved and verdict.time is None

    def test_already_agreed(self):
        traj = make_traj([0.0, 1.0], [[1.0, 1.0]] * 2, n=2, d=1)
        verdict = agreement_verdict(traj, 1e-6)
        assert verdict.achieved and verdict.time == 0.0

    def test_relabeling_and_translation_invariance(self):
        rng = np.random.default_rng(23)
        states = rng.normal(size=(4, 6))  # 4 samples, 3 agents, d=2
        times = np.arange(4.0)
        traj = make_traj(times, states, n=3, d=2)
        base = agreement_verdict(traj, 0.5)
        perm = [2, 0, 1]
        blocks = states.reshape(4, 3, 2)[:, perm, :]
        shifted = blocks + rng.normal(size=2)[None, None, :]
        traj2 = make_traj(times, shifted, n=3, d=2)
        other = agreement_verdict(traj2, 0.5)
        assert base.achieved == other.achieved and base.time == other.time


class TestReport:
    def test_json_shape_and_stability(self):
        traj = consensus_run(t_end=2.0)
        report = build_report(traj, eps_agreement=1e-6, monitor_mode="CooperativeBox")
        obj = report.to_json_dict()
        assert set(obj) == {
            "V", "diameters", "abs_spread", "lambda_hat", "r2",
            "fit_truncated", "verdicts", "violations",
        }
        assert len(obj["V"]) == traj.num_samples
        assert obj["violations"]["monitor"] == []
        import json

        s1 = json.dumps(obj, sort_keys=True)
        s2 = json.dumps(build_report(
            traj, eps_agreement=1e-6, monitor_mode="CooperativeBox"
        ).to_json_dict(), sort_keys=True)
        assert s1 == s2


REPORT_ARRAYS = (
    "times", "lyapunov", "diameters", "axis_max", "axis_min",
    "abs_max", "square_max", "abs_spread", "abs_agreement",
)


def tie_heavy_trajectory(rng):
    """States from a coarse grid with many exact zeros and -0.0 entries, so
    agents tie on extremes; some samples are all zeros of mixed sign, and
    d = 1 is as likely as d = 2 or 3."""
    m, n, d = int(rng.integers(1, 60)), int(rng.integers(1, 40)), int(rng.integers(1, 4))
    X = rng.choice([0.0, -0.0, 0.5, -0.5, 1.0, -2.0], size=(m, n, d), p=[.3, .3, .1, .1, .1, .1])
    X[rng.random(m) < 0.2] *= 0.0  # all-zero samples keep each entry's sign
    X[rng.random((m, n, d)) < 0.2] += rng.normal(scale=1e-3)
    if rng.random() < 0.5:  # a decaying tail for the rate fit
        X *= np.exp(-np.arange(m))[:, None, None]
    times = np.cumsum(rng.uniform(0.1, 1.0, size=m))
    return make_traj(times, X, n=n, d=d)


class TestSinglePassReport:
    """The report from one reduction pass equals the series-by-series report."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_series_by_series_report(self, seed):
        rng = np.random.default_rng(seed)
        traj = tie_heavy_trajectory(rng)
        for mode in (None, "CooperativeBox", "SignedSquare"):
            for tol in (None, 0.0, 1e-3):
                kw = dict(eps_agreement=float(rng.choice([1e-6, 0.5, 3.0])),
                          monitor_mode=mode, tol_monotone=tol)
                got, want = build_report(traj, **kw), v0_build_report(traj, **kw)
                for name in REPORT_ARRAYS:
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name
                    assert np.array_equal(np.signbit(a), np.signbit(b)), name
                assert (got.lambda_hat, got.r_squared, got.fit_truncated) == (
                    want.lambda_hat, want.r_squared, want.fit_truncated)
                assert got.agreement == want.agreement
                assert got.monitor_violations == want.monitor_violations
                dump = lambda r: json.dumps(r.to_json_dict(), sort_keys=True, indent=2)
                assert dump(got) == dump(want)

    def test_public_series_match_agent_order_reductions(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            traj = tie_heavy_trajectory(rng)
            X = traj.blocks()
            for fn, want in [
                (metrics.max_series, X.max(axis=1)),
                (metrics.min_series, X.min(axis=1)),
                (metrics.abs_max_series, np.abs(X).max(axis=1)),
                (metrics.square_max_series, (X ** 2).max(axis=1)),
                (abs_spread_series, np.abs(X).max(axis=1) - np.abs(X).min(axis=1)),
                (diameters_series, X.max(axis=1) - X.min(axis=1)),
                (lyapunov_series, (X.max(axis=1) - X.min(axis=1)).max(axis=1)),
            ]:
                got = fn(traj)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
