"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import contextlib
import itertools
import json
import math
import time

import numpy as np
import pytest

import compass_consensus as cc
from compass_consensus.cli import main as cli_main
from helpers import (
    cyclic_signal,
    linear_oracle_solution,
    linear_system_matrix,
    random_query,
    signed_ring_family_4,
    split_family_5,
    triangle_family_5,
)


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {desc}")


def build_scenario(family, signal, x0, *, kind="WeightedConsensus", gamma=1.0,
                   weights=1.0, rotation=None, h=1e-3, t_end=None,
                   assumption=None, monitor=None):
    x0 = np.asarray(x0, dtype=float)
    n = next(iter(family.values())).n
    spec = cc.ProtocolSpec(kind=kind, family=family, gamma=gamma,
                           weights=weights, rotation=rotation)
    return cc.ScenarioConfig(
        n=n, d=x0.size // n, initial_states=x0.reshape(n, -1),
        protocol=spec, signal=signal, h=h,
        t_end=t_end if t_end is not None else signal.horizon_end,
        assumption=cc.Assumption(assumption) if assumption else None,
        monitor_mode=cc.MonitorMode(monitor) if monitor else None,
    )


def test_criterion_01_exponential_agreement_under_switching():
    family = triangle_family_5()
    for g in family.values():
        assert not cc.is_quasi_strongly_connected(g)
    signal = cyclic_signal(["g1", "g2", "g3"], dwell=0.5, horizon=30.0)
    assert cc.validate_switching_signal(signal) == []
    joint = cc.check_uniform_joint_connectivity(
        signal, family, 1.5, cc.ConnectivityMode.QUASI_STRONG
    )
    assert joint.ok

    rng = np.random.default_rng(20260809)
    x0 = rng.random((5, 2)) * 5.0
    sc = build_scenario(family, signal, x0, gamma=1.0, weights=1.0,
                        assumption="GammaStrict", monitor="CooperativeBox")
    start = time.perf_counter()
    traj = cc.simulate(sc)
    violations = traj.feasibility_violations
    mono = cc.monotonicity_monitor(traj, "CooperativeBox")
    v = cc.lyapunov_series(traj)
    fit = cc.fit_exponential_rate((traj.times, v))
    elapsed = time.perf_counter() - start

    with criterion(1, f"exponential agreement: V(30)={v[-1]:.2e}, "
                      f"lambda_hat={fit.lambda_hat:.3f}, r2={fit.r_squared:.5f}, "
                      f"{elapsed:.1f}s"):
        assert violations == []
        assert mono == []
        assert v[-1] < 1e-6
        assert fit.lambda_hat > 0
        assert fit.r_squared > 0.99
        assert elapsed < 10.0


def test_criterion_02_no_agreement_without_connectivity():
    family = split_family_5()
    signal = cyclic_signal(["g1", "g2", "g3"], dwell=0.5, horizon=30.0)
    joint = cc.check_uniform_joint_connectivity(
        signal, family, 29.0, cc.ConnectivityMode.QUASI_STRONG
    )
    assert not joint.ok  # permanently two-component

    rng = np.random.default_rng(7)
    x0 = np.vstack([
        rng.random((2, 2)),            # component {1, 2} inside [0, 1]^2
        3.0 + rng.random((3, 2)),      # component {3, 4, 5} inside [3, 4]^2
    ])
    gap = float((x0[2:].min(axis=0) - x0[:2].max(axis=0)).min())
    sc = build_scenario(family, signal, x0, gamma=1.0,
                        assumption="GammaStrict", monitor="CooperativeBox")
    traj = cc.simulate(sc)
    v = cc.lyapunov_series(traj)
    verdict = cc.agreement_verdict(traj, 1e-6)

    with criterion(2, f"two components keep V >= {gap:.3f} - 1e-9 "
                      f"(min V={v.min():.3f}); agreement verdict False"):
        assert traj.feasibility_violations == []
        assert np.all(v >= gap - 1e-9)
        assert not verdict.achieved


def test_criterion_03_initial_box_invariance():
    rng = np.random.default_rng(321)
    total_steps = 0
    h = 0.01
    for trial in range(20):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        names = ["a", "b"]
        family = {}
        arcs_union = set()
        for nm in names:
            arcs = set()
            for j in range(1, n + 1):
                for i in range(1, n + 1):
                    if j != i and rng.random() < 0.45:
                        arcs.add((j, i))
            family[nm] = cc.SignedDigraph(n, arcs)
            arcs_union |= arcs
        weights = {arc: float(rng.uniform(0.5, 2.0)) for arc in arcs_union}
        gamma = min(weights.values()) if weights else 1.0
        signal = cyclic_signal(names, dwell=1.0, horizon=5.0)
        x0 = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0)
        sc = build_scenario(family, signal, x0, gamma=gamma,
                            weights=weights if weights else 1.0,
                            h=h, assumption="GammaStrict")
        traj = cc.simulate(sc)
        assert traj.feasibility_violations == [], f"trial {trial}"
        total_steps += traj.num_samples - 1

        rho0 = cc.lyapunov_series(traj)[0]
        tol = 10.0 * h * h * max(rho0, 1e-12)
        X = traj.blocks()
        lo0, hi0 = x0.min(axis=0), x0.max(axis=0)
        assert np.all(X >= lo0[None, None, :] - tol), f"trial {trial}"
        assert np.all(X <= hi0[None, None, :] + tol), f"trial {trial}"
        assert cc.monotonicity_monitor(traj, "CooperativeBox") == [], f"trial {trial}"

    with criterion(3, f"initial box invariant over {total_steps} validated steps "
                      f"in 20 scenarios (tol 10 h^2 rho)"):
        assert total_steps >= 10_000


def test_criterion_04_signed_networks():
    # (a) structurally balanced mutual-negative pair at its bipartite equilibrium
    fam_a = {"g": cc.SignedDigraph(2, [(1, 2, -1), (2, 1, -1)])}
    sig_a = cc.SwitchingSignal([(0.0, "g")], tau_d=1.0, horizon_end=10.0)
    sc_a = build_scenario(fam_a, sig_a, [1.0, -1.0], kind="SignedConsensus",
                          assumption="SignedGammaStrict", monitor="SignedSquare")
    traj_a = cc.simulate(sc_a)
    drift_a = np.abs(traj_a.states - np.array([1.0, -1.0])).max()

    # (b) unbalanced mixed-sign pair: closed-form decaying spiral
    fam_b = {"g": cc.SignedDigraph(2, [(2, 1, 1), (1, 2, -1)])}

    def spiral_scenario(t_end):
        sig = cc.SwitchingSignal([(0.0, "g")], tau_d=1.0, horizon_end=t_end)
        return build_scenario(fam_b, sig, [1.0, 0.0], kind="SignedConsensus",
                              assumption="SignedGammaStrict", monitor="SignedSquare")

    traj_b = cc.simulate(spiral_scenario(12.0))
    final_abs = np.abs(traj_b.states[-1]).max()
    spiral_errs = []
    for t_end in (1.0, math.pi, 5.0):
        tr = cc.simulate(spiral_scenario(t_end))
        expect = np.array([
            math.exp(-t_end) * math.cos(t_end),
            -math.exp(-t_end) * math.sin(t_end),
        ])
        assert tr.times[-1] == t_end
        spiral_errs.append(np.abs(tr.states[-1] - expect).max())

    # (c) monitors clean on both
    mono_a = cc.monotonicity_monitor(traj_a, "SignedSquare")
    mono_b = cc.monotonicity_monitor(traj_b, "SignedSquare")

    # (d) 4-agent signed ring under switching with strongly connected unions
    fam_d = signed_ring_family_4()
    sig_d = cyclic_signal(["g1", "g2"], dwell=0.5, horizon=40.0)
    joint = cc.check_uniform_joint_connectivity(
        sig_d, fam_d, 1.0, cc.ConnectivityMode.STRONG
    )
    sc_d = build_scenario(fam_d, sig_d, [1.5, -0.3, 0.8, -2.0],
                          kind="SignedConsensus",
                          assumption="SignedGammaStrict", monitor="SignedSquare")
    traj_d = cc.simulate(sc_d)
    spread_d = cc.abs_spread_series(traj_d)[-1].max()
    abs_ok = cc.absolute_value_agreement(traj_d, tol=1e-5)

    with criterion(4, f"signed: equilibrium drift {drift_a:.1e}, spiral |x(12)|="
                      f"{final_abs:.1e}, oracle err {max(spiral_errs):.1e}, "
                      f"ring abs-spread {spread_d:.1e}"):
        assert drift_a <= 1e-9
        assert final_abs < 1e-4
        assert max(spiral_errs) <= 1e-6
        assert traj_a.feasibility_violations == []
        assert traj_b.feasibility_violations == []
        assert mono_a == [] and mono_b == []
        assert joint.ok
        assert traj_d.feasibility_violations == []
        assert spread_d < 1e-5
        assert abs_ok.all()


def test_criterion_05_cone_oracle_equivalence():
    rng = np.random.default_rng(5150)
    members = non_members = 0
    for _ in range(10_000):
        box, x, v = random_query(rng)
        inside = cc.tangent_cone_contains(x, box, v)
        probe = cc.cone_membership_probe(x, box, v)
        if inside:
            members += 1
            assert probe < 1e-6, (box.lo, box.hi, x, v, probe)
        else:
            non_members += 1
            assert probe > 1e-3, (box.lo, box.hi, x, v, probe)
        g1 = float(rng.uniform(0.05, 0.7))
        g2 = g1 * float(rng.uniform(1.0, 3.0))
        in_g1 = cc.gamma_cone_contains(cc.ConeQuery(x, box, v, gamma=g1))
        in_g2 = cc.gamma_cone_contains(cc.ConeQuery(x, box, v, gamma=g2))
        if in_g2:
            assert in_g1
        if in_g1:
            assert inside

    with criterion(5, f"closed form vs probe on 10^4 queries "
                      f"({members} members / {non_members} non-members), "
                      f"nesting and tangent inclusion hold"):
        assert members + non_members == 10_000
        assert members > 1000 and non_members > 1000


def test_criterion_06_integrator_matches_linear_oracle():
    grid = np.arange(0.1, 10.0001, 0.1)

    def run_case(kind, arcs, x0):
        family = {"g": cc.SignedDigraph(2, arcs)}
        spec = cc.ProtocolSpec(kind=kind, family=family, gamma=4.0, weights=4.0)
        A = linear_system_matrix(spec, "g", 1)
        errs = []
        for h in (1e-3, 5e-4):
            sig = cc.SwitchingSignal([(0.0, "g")], tau_d=1.0, horizon_end=10.0)
            sc = cc.ScenarioConfig(
                n=2, d=1, initial_states=np.asarray(x0, float).reshape(2, 1),
                protocol=spec, signal=sig, h=h, t_end=10.0,
            )
            traj = cc.simulate(sc)
            idx = np.rint(grid / h).astype(int)
            ref = np.stack([
                linear_oracle_solution(A, x0, t) for t in traj.times[idx]
            ])
            errs.append(float(np.abs(traj.states[idx] - ref).max()))
        return errs

    e_cons = run_case("WeightedConsensus", [(1, 2), (2, 1)], [0.0, 2.0])
    e_sign = run_case("SignedConsensus", [(2, 1, 1), (1, 2, -1)], [1.0, 0.0])

    with criterion(6, f"linear oracle: consensus err {e_cons[0]:.1e} "
                      f"(x{e_cons[0]/e_cons[1]:.1f} on halving), signed err "
                      f"{e_sign[0]:.1e} (x{e_sign[0]/e_sign[1]:.1f})"):
        for e1, e2 in (e_cons, e_sign):
            assert e1 <= 1e-8
            assert e1 / e2 >= 15.0


def test_criterion_07_vicsek_alignment():
    rng = np.random.default_rng(1995)
    state = cc.VicsekState(
        positions=rng.uniform(0, 5, size=(10, 2)),
        headings=rng.uniform(0.0, np.pi / 2, size=10),
        speed=0.03,
        radius=100.0,
    )
    spreads = [cc.heading_spread(state)]
    for _ in range(200):
        state = cc.vicsek_step(state, cc.complete_neighbors)
        spreads.append(cc.heading_spread(state))
    non_increasing = all(b <= a + 1e-15 for a, b in zip(spreads, spreads[1:]))

    aligned = cc.VicsekState(
        positions=np.zeros((4, 2)),
        headings=np.full(4, 0.83),
        speed=0.25,
        radius=1.0,
    )
    exact = True
    cur = aligned
    for _ in range(5):
        nxt = cc.vicsek_step(cur, cc.complete_neighbors)
        step_vec = 0.25 * np.column_stack(
            (np.cos(cur.headings), np.sin(cur.headings))
        )
        exact = exact and np.array_equal(nxt.positions, cur.positions + step_vec)
        # equal headings stay equal; the common value is fixed up to rounding
        exact = exact and nxt.headings.min() == nxt.headings.max()
        exact = exact and abs(nxt.headings[0] - 0.83) < 1e-12
        cur = nxt

    with criterion(7, f"heading alignment: spread {spreads[0]:.3f} -> "
                      f"{spreads[-1]:.1e} in 200 steps, aligned motion exact"):
        assert non_increasing
        assert spreads[-1] < 1e-8
        assert exact


def test_criterion_08_rotated_consensus(tmp_path):
    # feasible side: pi/6 rotation on a strongly connected (complete) triangle
    family = {"g": cc.complete_graph(3)}
    assert cc.is_strongly_connected(family["g"])
    phase = 0.37
    ang = phase + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    x0 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    sig = cc.SwitchingSignal([(0.0, "g")], tau_d=1.0, horizon_end=8.0)
    sc = build_scenario(family, sig, x0, kind="RotatedConsensus",
                        gamma=1e-9, rotation=np.pi / 6)
    traj = cc.simulate(sc)
    v_end = cc.lyapunov_series(traj)[-1]
    margin = cc.empirical_gamma_margin(traj, sc.protocol)
    revalidated = cc.validate_feasibility(
        traj, sc.protocol, "GammaStrict", gamma=margin * 0.5
    )

    # infeasible side: pi/2 rotation leaves the carrier subspace; --strict exits 3
    cfg = {
        "agents": {"n": 2, "d": 2, "initial_states": [[0.0, 0.0], [1.0, 0.0]]},
        "protocol": {"kind": "RotatedConsensus", "gamma": 0.1,
                     "rotation": math.pi / 2},
        "graphs": {"g": {"n": 2, "arcs": [[2, 1, 1]]}},
        "signal": {"tau_d": 1.0, "pieces": [[0.0, "g"]], "horizon_end": 1.0},
        "integrator": {"h": 0.01, "t_end": 1.0},
        "validation": {"assumption": "GammaStrict"},
    }
    cfg_path = tmp_path / "quarter_turn.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    exit_code = cli_main(["run", str(cfg_path), "--strict",
                          "--out-dir", str(tmp_path)])

    with criterion(8, f"rotated pi/6 feasible at gamma={margin:.2e} "
                      f"(V_end={v_end:.1e}); pi/2 flagged, exit {exit_code}"):
        assert margin > 0
        assert revalidated == []
        assert v_end < 1e-6
        assert exit_code == 3


def test_criterion_09_rate_bound_values():
    # 30-digit oracle: beta = exp(-2)/4, beta* = -ln(1 - beta)
    beta, beta_star = cc.rate_bound(2, 1, 1.0, 1.0, 1.0, 1.0, 1.0)
    rng = np.random.default_rng(12)
    worst_lo, worst_hi = 1.0, 0.0
    for _ in range(1000):
        # ranges keep n L* T' <= ~200 so beta stays above double underflow
        b, bs = cc.rate_bound(
            int(rng.integers(2, 10)),
            int(rng.integers(1, 5)),
            float(rng.uniform(0.05, 5)),
            float(rng.uniform(0.001, 10)),
            float(rng.uniform(0.001, 5)),
            float(rng.uniform(0.01, 4)),
            float(rng.uniform(0.001, 10)),
        )
        assert 0.0 < b <= 0.5
        assert bs > 0.0
        worst_lo, worst_hi = min(worst_lo, b), max(worst_hi, b)

    with criterion(9, f"rate bound beta={beta:.9f}, beta*={beta_star:.9f}; "
                      f"10^3 random draws in (0, 1/2] "
                      f"(range [{worst_lo:.1e}, {worst_hi:.2f}])"):
        assert beta == pytest.approx(0.0338338208091532, abs=1e-12)
        assert beta_star == pytest.approx(0.0344194314168896, abs=1e-12)
        assert abs(beta - 0.033834) <= 1e-6
        assert abs(beta_star - 0.034420) <= 1e-6


def test_criterion_10_connectivity_matches_closure_oracle():
    def closure(n, arcs):
        reach = np.eye(n, dtype=bool)
        for j, i in arcs:
            reach[j - 1, i - 1] = True
        for _ in range(n):
            reach = reach | (reach @ reach)
        return reach

    checked = 0
    rng = np.random.default_rng(10**5)
    # exhaustive for n <= 4
    for n in range(1, 5):
        pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
        for mask in range(2 ** len(pairs)):
            arcs = [p for b, p in enumerate(pairs) if mask >> b & 1]
            g = cc.SignedDigraph(n, arcs)
            reach = closure(n, arcs)
            assert cc.is_quasi_strongly_connected(g) == bool(reach.all(axis=1).any())
            assert cc.is_strongly_connected(g) == bool(reach.all())
            checked += 1
    # sampled for n = 5, with random signs (signs must not affect verdicts)
    pairs = [(j, i) for j in range(1, 6) for i in range(1, 6) if j != i]
    for _ in range(50_000):
        sel = rng.random(len(pairs)) < rng.uniform(0.05, 0.5)
        arcs = [p for b, p in enumerate(pairs) if sel[b]]
        signs = rng.integers(0, 2, size=len(arcs)) * 2 - 1
        signed = [(j, i, int(s)) for (j, i), s in zip(arcs, signs)]
        g = cc.SignedDigraph(5, signed)
        reach = closure(5, arcs)
        assert cc.is_quasi_strongly_connected(g) == bool(reach.all(axis=1).any())
        assert cc.is_strongly_connected(g) == bool(reach.all())
        checked += 1

    with criterion(10, f"connectivity verdicts match transitive-closure oracle "
                       f"on {checked} digraphs (exhaustive n<=4, sampled n=5)"):
        assert checked <= 100_000
        assert checked == 1 + 4 + 64 + 4096 + 50_000
