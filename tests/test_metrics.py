import json
import math
import tracemalloc

import numpy as np
import pytest

from compass_consensus import dynamics
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
from helpers import label_runs, v0_build_report

# Frozen oracle values (30-digit arithmetic):
#   beta      = exp(-2)/4 = 0.0338338208091532...
#   beta_star = ln(1/(1-beta)) = 0.0344194314168896...
BETA_ORACLE = 0.0338338208091532
BETA_STAR_ORACLE = 0.0344194314168896


def make_traj(times, states, n, d, p="g"):
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float).reshape(len(times), n * d)
    return Trajectory(times=times, states=states, n=n, d=d, runs=label_runs([p] * len(times)))


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_nonnegative_and_finite(self, tol):
        # One sample shifted outward by 3: a NaN tolerance would hide both
        # breaches, and a negative one flag every sample.
        X = np.array([[0.0, 1.0], [0.0, 1.0], [3.0, 4.0], [0.0, 1.0]])
        traj = make_traj([0.0, 1.0, 2.0, 3.0], X, n=2, d=1)
        assert len(monotonicity_monitor(traj, "CooperativeBox", 1e-8)) == 2
        with pytest.raises(DomainError, match="tol_monotone"):
            monotonicity_monitor(traj, "CooperativeBox", tol)


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

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_tolerance_must_be_finite(self, tol):
        traj = make_traj([0.0, 1.0], [[0.0, 2.0]] * 2, n=2, d=1)
        with pytest.raises(DomainError, match="tol"):
            absolute_value_agreement(traj, tol=tol)


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

    def test_many_agents_do_not_overflow(self):
        # (gamma tau_d)^(n-1) = 10^399 alone overflows a double; the ratio
        # (10/11)^399 / 2 does not: beta = exp(-1.344) (10/11)^399 / 2.
        beta, beta_star = rate_bound(400, 2, t_bar_from_window(400, 1, 10), 1.0, 10.0, 1e-9, 1.0)
        assert beta == pytest.approx(3.977377774e-18, rel=1e-8)
        assert beta_star > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_arguments_rejected(self, bad):
        good = dict(n=3, d=2, T_bar=1.0, gamma=1.0, tau_d=1.0, L_star=1.0, L_plus=1.0)
        for name in ("T_bar", "gamma", "tau_d", "L_star", "L_plus"):
            with pytest.raises(DomainError, match=name):
                rate_bound(**{**good, name: bad})
        with pytest.raises(DomainError):
            t_bar_from_window(3, bad, 1.0)
        with pytest.raises(DomainError):
            t_bar_from_window(3, 1.0, bad)

    def test_counts_beyond_the_float_range_rejected(self):
        # 10**400 has no float; 10**154 has one, but n^2 (T + 2 tau_d) does not.
        for n, d in ((10**400, 1), (3, 10**400)):
            with pytest.raises(DomainError, match="must be finite"):
                rate_bound(n, d, 1.0, 1.0, 1.0, 1.0, 1.0)
        for n in (10**400, 10**154):
            with pytest.raises(DomainError, match="must be finite"):
                t_bar_from_window(n, 1.0, 1.0)

    @pytest.mark.parametrize("n, d", [(2.5, 1), (3, True), (True, 1), (3, 1.0), ("3", 1)],
                             ids=["n-float", "d-bool", "n-bool", "d-float", "n-string"])
    def test_counts_must_be_integers(self, n, d):
        # rate_bound(2.5, ...) gave a bound for 2.5 agents, and d=True took d=1.
        with pytest.raises(DomainError, match="integer"):
            rate_bound(n, d, 1.0, 1.0, 1.0, 1.0, 1.0)
        if n != 3:
            with pytest.raises(DomainError, match="integer"):
                t_bar_from_window(n, 1.0, 1.0)
        assert rate_bound(np.int64(3), np.int64(2), 1.0, 1.0, 1.0, 1.0, 1.0) == rate_bound(
            3, 2, 1.0, 1.0, 1.0, 1.0, 1.0)

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

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_eps_must_be_finite(self, eps):
        # V stays 2, yet a NaN eps would report agreement reached.
        traj = make_traj([0.0, 1.0], [[0.0, 2.0]] * 2, n=2, d=1)
        for call in (lambda: agreement_verdict(traj, eps),
                     lambda: build_report(traj, eps_agreement=eps)):
            with pytest.raises(DomainError, match="eps"):
                call()

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

    def test_tail_fraction_applies_to_abs_agreement(self):
        # |x| agrees throughout; the envelope grows once, early, then decays
        env = [1.0, 2.0] + [2.0 * 0.5 ** k for k in range(1, 9)]
        traj = make_traj(np.arange(10.0), [[e, -e] for e in env], n=2, d=1)
        verdicts = {}
        for tail in (0.2, 0.5, 0.9, 1.0):
            for tol_monotone in (None, 1.5):
                report = build_report(traj, eps_agreement=1e-3, tol_monotone=tol_monotone,
                                      tail_fraction=tail)
                want = absolute_value_agreement(traj, 1e-3, tol_monotone, tail)
                assert np.array_equal(report.abs_agreement, want)
                verdicts[tail, tol_monotone] = bool(want.all())
        assert verdicts[0.5, None] and not verdicts[1.0, None] and verdicts[1.0, 1.5]

    @pytest.mark.parametrize("tail", [math.nan, 0.0, -0.5, 2.0, math.inf])
    def test_tail_fraction_outside_unit_interval_rejected(self, tail):
        # NaN used to crash in int(ceil(...)), and 0 and 2 passed silently.
        traj = make_traj([0.0, 1.0, 2.0], [[1.0, -1.0], [0.5, -0.5], [0.25, -0.25]], n=2, d=1)
        calls = [
            lambda: fit_exponential_rate((traj.times, lyapunov_series(traj)), tail),
            lambda: absolute_value_agreement(traj, 1e-3, tail_fraction=tail),
            lambda: build_report(traj, tail_fraction=tail),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="tail_fraction"):
                call()


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


def at_least_four_samples(traj):
    """``traj`` with its last sample repeated until there are at least 4."""
    extra = max(0, 4 - traj.num_samples)
    X = np.concatenate([traj.blocks(), np.repeat(traj.blocks()[-1:], extra, axis=0)])
    times = np.append(traj.times, traj.times[-1] + np.arange(1.0, extra + 1))
    return make_traj(times, X, n=traj.n, d=traj.d)


class TestChunkedReport:
    """The report reduced chunk by chunk equals the series-by-series report
    wherever the chunk edges fall."""

    @pytest.mark.parametrize("edge", ["one-sample", "ragged", "zero-on-edge"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_series_by_series_report(self, seed, edge, monkeypatch):
        rng = np.random.default_rng(1000 + seed)
        traj = at_least_four_samples(tie_heavy_trajectory(rng))
        m, nd = traj.num_samples, traj.n * traj.d
        step = {"one-sample": 1, "ragged": m // 2 + 1, "zero-on-edge": m // 2}[edge]
        elements = nd - 1 if edge == "one-sample" else step * nd
        if edge == "zero-on-edge":  # zeros of both signs on each side of the chunk edge
            X = traj.blocks()
            for s in (step - 1, step):
                X[s] = np.where(rng.random(X[s].shape) < 0.5, 0.0, -0.0)
                X[s].flat[:2] = (0.0, -0.0)
        assert max(1, elements // nd) == step and (m % step or edge != "ragged")
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", elements)
        for mode in (None, "CooperativeBox", "SignedSquare"):
            kw = dict(eps_agreement=float(rng.choice([1e-6, 0.5, 3.0])), monitor_mode=mode)
            got, want = build_report(traj, **kw), v0_build_report(traj, **kw)
            for name in REPORT_ARRAYS:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
                assert np.array_equal(np.signbit(a), np.signbit(b)), name
            assert got.monitor_violations == want.monitor_violations
            dump = lambda r: json.dumps(r.to_json_dict(), sort_keys=True, indent=2)
            assert dump(got) == dump(want)


SERIES_CALLS = [
    metrics.max_series, metrics.min_series, diameters_series, lyapunov_series,
    metrics.abs_max_series, metrics.square_max_series, abs_spread_series,
    lambda t: monotonicity_monitor(t, "SignedSquare"),
    lambda t: agreement_verdict(t, 0.5),
    lambda t: absolute_value_agreement(t, 0.5),
    lambda t: build_report(t, monitor_mode="CooperativeBox"),
]


@pytest.mark.parametrize("m, n, d, elements", [
    (7, 5, 1, None),     # d = 1: the (samples, d, agents) transpose is a view of the states
    (7, 1, 3, None),     # n = 1
    (9, 1, 1, None),
    (50, 6, 2, 4 * 12),  # multi-chunk, ragged last chunk
    (50, 6, 1, 4 * 6),   # multi-chunk with d = 1
])
def test_reductions_leave_the_states_unchanged(m, n, d, elements, monkeypatch):
    if elements is not None:
        monkeypatch.setattr(dynamics, "_CHUNK_ELEMENTS", elements)
    rng = np.random.default_rng(m * n * d)
    X = rng.choice([0.0, -0.0, 1.5, -1.5, -3.0], size=(m, n, d))
    traj = make_traj(np.arange(float(m)), X, n=n, d=d)
    before = traj.states.copy()
    for call in SERIES_CALLS:
        call(traj)
        # Bit for bit: np.array_equal would miss a -0.0 turned into +0.0.
        assert traj.states.tobytes() == before.tobytes()


def test_report_memory_is_a_chunk_not_a_copy_of_the_states():
    # Two full (samples, d, agents) copies, the transpose and its |x|, would
    # peak at twice the states' size.
    rng = np.random.default_rng(5)
    m, n, d = 2000, 100, 3
    traj = make_traj(np.arange(float(m)), rng.normal(size=(m, n, d)), n=n, d=d)
    tracemalloc.start()
    try:
        build_report(traj, monitor_mode="SignedSquare")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * traj.states.nbytes
