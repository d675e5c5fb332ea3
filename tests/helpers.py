"""Shared builders for module and acceptance tests."""

import bisect
import itertools
import json
from types import SimpleNamespace
from typing import Mapping

import numpy as np
from jsonschema import Draft202012Validator
from scipy.linalg import expm

from compass_consensus.dynamics import Assumption
from compass_consensus.errors import CompassError, ConfigError, DomainError
from compass_consensus.geometry import Hyperrectangle
from compass_consensus.graphs import SignedDigraph, SwitchingSignal
from compass_consensus.metrics import MonitorMode
from compass_consensus.protocols import ProtocolKind, ProtocolSpec
from compass_consensus.scenario import ScenarioConfig


def random_query(rng, allow_degenerate=True):
    """Box, point-on-box, and direction sampled clear of the tolerance band.

    Coordinates sit exactly on facets or at least 20% of a side away from
    them; direction components are exactly zero or at least 0.01 in
    magnitude, so closed-form verdicts and the numeric probe cannot disagree
    inside any tolerance band.
    """
    d = int(rng.integers(1, 4))
    lo = rng.uniform(-2, 2, size=d)
    sides = rng.uniform(0.2, 3.0, size=d)
    if allow_degenerate:
        sides[rng.random(d) < 0.15] = 0.0
    box = Hyperrectangle(lo, lo + sides)
    x = np.empty(d)
    for k in range(d):
        u = rng.random()
        if sides[k] == 0.0 or u < 0.3:
            x[k] = box.lo[k]
        elif u < 0.6:
            x[k] = box.hi[k]
        else:
            x[k] = box.lo[k] + sides[k] * rng.uniform(0.2, 0.8)
    v = np.zeros(d)
    for k in range(d):
        u = rng.random()
        if u < 0.25:
            v[k] = 0.0
        else:
            v[k] = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 2.0)
    return box, x, v


def cyclic_signal(names, dwell, horizon, tau_d=None):
    """Round-robin switching through ``names`` every ``dwell`` seconds."""
    pieces = []
    t, k = 0.0, 0
    while t < horizon - 1e-9:
        pieces.append((t, names[k % len(names)]))
        t += dwell
        k += 1
    return SwitchingSignal(pieces, tau_d=tau_d or dwell, horizon_end=horizon)


def label_runs(labels):
    """A per-sample label list as Trajectory runs (p, a, b), equal neighbours merged."""
    runs, a = [], 0
    for p, group in itertools.groupby(labels):
        b = a + len(list(group))
        runs.append((p, a, b))
        a = b
    return runs


def triangle_family_5():
    """Three graphs on 5 nodes, none quasi-strongly connected, whose union is
    strongly connected: mutual triangles on {1,2,3} and {3,4,5} plus cross
    links {5-1, 2-4, 1-4}."""
    g1 = SignedDigraph(5, [(1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)])
    g2 = SignedDigraph(5, [(3, 4), (4, 3), (4, 5), (5, 4), (3, 5), (5, 3)])
    g3 = SignedDigraph(5, [(5, 1), (1, 5), (2, 4), (4, 2), (1, 4), (4, 1)])
    return {"g1": g1, "g2": g2, "g3": g3}


def split_family_5():
    """Three graphs on 5 nodes that all keep {1,2} and {3,4,5} disconnected."""
    g1 = SignedDigraph(5, [(1, 2), (2, 1), (3, 4), (4, 3)])
    g2 = SignedDigraph(5, [(1, 2), (2, 1), (4, 5), (5, 4)])
    g3 = SignedDigraph(5, [(3, 5), (5, 3)])
    return {"g1": g1, "g2": g2, "g3": g3}


def in_arcs_cases():
    """Graphs that stress each node's in-neighbour set: self-loops, arcs given
    twice, antagonistic arcs, nodes without in-arcs, and a single node."""
    rng = np.random.default_rng(7)  # 40 arcs on 9 nodes, repeats and self-loops among them
    return {
        "self-loops": SignedDigraph(4, [(1, 1), (2, 1, -1), (3, 3, -1), (4, 2), (2, 2)],
                                    allow_self_loops=True),
        "duplicates": SignedDigraph(3, [(1, 2), (1, 2, 1), (3, 2, -1), (3, 2, -1), (2, 1)]),
        "antagonistic": SignedDigraph(4, [(j, i, (-1) ** (i + j)) for j in range(1, 5)
                                          for i in range(1, 5) if j != i]),
        "no-in-arcs": SignedDigraph(6, [(1, 3), (2, 3, -1), (1, 4), (4, 1)]),
        "single": SignedDigraph(1),
        "single-loop": SignedDigraph(1, [(1, 1, -1)], allow_self_loops=True),
        "random": SignedDigraph(9, [(int(j), int(i), 1 if (7 * j + i) % 3 else -1)
                                    for j, i in rng.integers(1, 10, size=(40, 2))],
                                allow_self_loops=True),
    }


def signed_ring_family_4():
    """Two half-rings on 4 nodes with one antagonistic arc each; the union is
    the structurally balanced directed ring 1->2->3->4->1."""
    g1 = SignedDigraph(4, [(1, 2, -1), (3, 4, 1)])
    g2 = SignedDigraph(4, [(2, 3, 1), (4, 1, -1)])
    return {"g1": g1, "g2": g2}


def structural_gauge(n, arcs):
    """A gauge sigma in {1, -1}^n (index i - 1 for node i) with
    sigma_j * sigma_i == s on every signed arc (j, i, s), from a 2-colouring
    of the arcs taken as undirected edges; None if none exists, that is, if
    the arcs are not structurally balanced."""
    adj = [[] for _ in range(n)]
    for j, i, s in arcs:
        adj[j - 1].append((i - 1, s))
        adj[i - 1].append((j - 1, s))
    sigma = [0] * n
    for root in range(n):
        if sigma[root]:
            continue
        sigma[root], stack = 1, [root]
        while stack:
            u = stack.pop()
            for w, s in adj[u]:
                if not sigma[w]:
                    sigma[w] = s * sigma[u]
                    stack.append(w)
                elif sigma[w] != s * sigma[u]:
                    return None
    return sigma


def dense_local_hull_bounds(X, spec, p, signed):
    """Reference supporting-box bounds over dense (m, n, n, d) masked arrays.

    X is (m, n, d); returns lo, hi of shape (m, n, d) where row i bounds the
    set {x_i} union {sign_ij x_j : j in N_i(p)}, read from the arcs of graph
    p. O(m n^2 d) time and memory: the oracle the sparse validator kernel is
    compared against.
    """
    mask, sgn = np.eye(spec.n, dtype=bool), np.ones((spec.n, spec.n))
    for j, i, s in spec.family[p].arcs:
        if j != i:  # the agent itself is in its hull with sign +1, loop or not
            mask[i - 1, j - 1], sgn[i - 1, j - 1] = True, s
    if signed:
        cand = sgn[None, :, :, None] * X[:, None, :, :]  # (m, n, n, d)
    else:
        cand = np.broadcast_to(X[:, None, :, :], (X.shape[0], spec.n) + X.shape[1:])
    sel = mask[None, :, :, None]
    lo = np.where(sel, cand, np.inf).min(axis=2)
    hi = np.where(sel, cand, -np.inf).max(axis=2)
    return lo, hi


def _dense_facet_groups(traj, spec, signed, ftol):
    """Per active graph: samples, fields, dense bounds and facet masks."""
    from compass_consensus.dynamics import fields_along

    X, F = traj.blocks(), fields_along(traj, spec)
    for p in dict.fromkeys(traj.active_index):
        sel = np.array([s for s, q in enumerate(traj.active_index) if q == p])
        Xs = X[sel]
        lo, hi = dense_local_hull_bounds(Xs, spec, p, signed)
        width = hi - lo
        at_lower = np.abs(Xs - lo) <= ftol
        at_upper = np.abs(Xs - hi) <= ftol
        degen = width <= 2 * ftol
        active = (at_lower | at_upper) & ~degen
        yield p, sel, F[sel], width, at_lower, at_upper, degen, active


def dense_validate_feasibility(traj, spec, assumption, face_tolerance=0.0,
                               strictness_tolerance=1e-12, gamma=None):
    """The cone verdicts over dense bounds, as the validator reports them.

    Reads each violation with its own scalar indexing, independently of the
    validator's bulk read-out.
    """
    from compass_consensus.dynamics import Assumption, FeasibilityViolation

    gamma = spec.gamma if gamma is None else float(gamma)
    ftol, stol = face_tolerance, strictness_tolerance
    signed = assumption is Assumption.SIGNED_GAMMA_STRICT
    violations = []
    for p, sel, Fs, width, at_lower, at_upper, degen, active in _dense_facet_groups(
        traj, spec, signed, ftol
    ):
        bad_degen = degen & (np.abs(Fs) > stol)
        if assumption is Assumption.RELATIVE_INTERIOR:
            bad_sign = active & ((at_lower & (Fs < stol)) | (at_upper & (Fs > -stol)))
            bad_margin = np.zeros_like(bad_sign)
            sign_name = "strict-sign"
        else:
            bad_sign = active & ((at_lower & (Fs < -stol)) | (at_upper & (Fs > stol)))
            bad_margin = active & ~bad_sign & (np.abs(Fs) < gamma * width - stol)
            sign_name = "sign"
        for s_loc, i, k in np.argwhere(bad_degen | bad_sign | bad_margin):
            fval = Fs[s_loc, i, k]
            if bad_degen[s_loc, i, k]:
                detail = f"carrier subspace: |f_k|={abs(fval):.3g} > {stol:.3g} on a flat axis"
            elif bad_sign[s_loc, i, k]:
                side = "lower" if at_lower[s_loc, i, k] else "upper"
                detail = f"{sign_name}: f_k={fval:.3g} points outward at the {side} facet"
            else:
                need = gamma * width[s_loc, i, k]
                detail = f"margin: |f_k|={abs(fval):.3g} < gamma*D_k={need:.3g}"
            violations.append(FeasibilityViolation(
                float(traj.times[sel[s_loc]]), int(i) + 1, int(k) + 1, p, detail
            ))
    violations.sort(key=lambda v: (v.time, v.agent, v.axis))
    return violations


def dense_gamma_margin(traj, spec, signed=False, face_tolerance=0.0):
    """Smallest |f_k| / D_k over active facets, negated where f_k points out."""
    best = np.inf
    for _p, _sel, Fs, width, at_lower, _u, _deg, active in _dense_facet_groups(
        traj, spec, signed, face_tolerance
    ):
        if not active.any():
            continue
        sign_ok = np.where(at_lower, Fs >= 0, Fs <= 0)
        margins = np.where(sign_ok, np.abs(Fs), -np.abs(Fs)) / np.where(active, width, 1.0)
        best = min(best, float(margins[active].min()))
    return best


class OracleScopeError(CompassError):
    """The closed-form linear oracle was queried outside its validity scope."""


def linear_oracle_solution(
    system_matrix: np.ndarray,
    x0: np.ndarray,
    t: float,
    *,
    signal: SwitchingSignal | None = None,
    t_start: float | None = None,
) -> np.ndarray:
    """Matrix-exponential solution expm(A t) x0 of a constant linear system.

    When a switching signal is supplied, the queried interval must not contain
    a switching instant (the oracle only covers a constant active index).
    """
    A = np.asarray(system_matrix, dtype=float)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != x0.size:
        raise DomainError("system matrix must be square and match x0")
    if t < 0:
        raise DomainError("oracle time must be nonnegative")
    if signal is not None:
        start = signal.t0 if t_start is None else float(t_start)
        if any(start < a < start + t for a, _b, _p in signal.segments(start + t)):
            raise OracleScopeError(
                f"switching occurs inside [{start}, {start + t}); the constant-"
                "matrix oracle does not apply"
            )
    return expm(A * t) @ x0


def linear_system_matrix(spec: ProtocolSpec, p, d: int) -> np.ndarray:
    """Stacked (n*d, n*d) matrix A with f_p(x) = A x: block (i, j) is (L_p)_ij R_i.

    A dense rewrite of ``ProtocolSpec.linear_field``, kept as an oracle: the
    package itself builds no stacked system matrix.
    """
    if spec.kind is ProtocolKind.CUSTOM:
        raise DomainError("custom protocols have no generic linear form")
    R = spec.rotations(d)
    if R is None:
        R = np.eye(d)[None]
    n = spec.n
    return (spec.operator(p)[:, None, :, None] * R[:, :, None, :]).reshape(n * d, n * d)


def v0_pieces_overlapping(signal, t1, t2):
    """Labels of pieces active on [t1, t2), re-tiling from t0 by repeated addition."""
    if signal.periodic:
        tiled = []
        offset = 0.0
        while signal.t0 + offset < t2:
            tiled.extend((t + offset, p) for t, p in signal.pieces)
            offset += signal.period
        pieces = tiled
        ends = [t for t, _ in pieces[1:]] + [signal.t0 + offset]
    else:
        pieces = list(signal.pieces)
        ends = [t for t, _ in pieces[1:]] + [signal.horizon_end]
    return [p for (start, p), end in zip(pieces, ends) if start < t2 and end > t1]


def v0_quasi_strong(adj):
    """The BFS-from-every-root quasi-strong test on 0-based successor lists:
    True iff some root reaches all nodes."""
    n = len(adj)
    for root in range(n):
        seen = {root}
        queue = [root]
        for u in queue:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) == n:
            return True
    return False


def v0_union_graph(signal, family, t1, t2):
    """Union graph rebuilt from scratch for one window, signs dropped."""
    labels = v0_pieces_overlapping(signal, t1, t2)
    arcs = {(j, i, 1) for p in labels for (j, i, _s) in family[p].arcs}
    loops = any(family[p].allow_self_loops for p in labels)
    return SignedDigraph(family[labels[0]].n, arcs, allow_self_loops=loops)


def v1_union_graph(signal, family, t1, t2):
    """Union graph from ``signal.segments(t2)``, every copy from t0 on, cut to
    the window by two bisections."""
    segs = signal.segments(t2)
    first = bisect.bisect_right(segs, t1, key=lambda seg: seg[1])
    last = bisect.bisect_left(segs, t2, key=lambda seg: seg[0])
    labels = {p for _a, _b, p in segs[first:last]}
    arcs = {(j, i, 1) for p in labels for (j, i, _s) in family[p].arcs}
    loops = any(family[p].allow_self_loops for p in labels)
    return SignedDigraph(next(iter(family.values())).n, arcs, allow_self_loops=loops)


def v0_check_uniform_joint_connectivity(signal, family, T, mode):
    """The per-window checker the sweep replaced: the candidate starts plus a
    grid of the minimum piece duration, each window's union rebuilt.

    Returns (ok, witness, {start: connected}).
    """
    t0 = signal.t0
    if signal.periodic:
        last_start = t0 + signal.period
    else:
        last_start = signal.horizon_end - T
    starts = signal.start_times()
    durations = [b - a for a, b in zip(starts, starts[1:])]
    durations.append(signal.horizon_end - starts[-1])
    delta = min(durations)

    candidates = {t0, last_start}
    boundary_points = list(starts)
    if signal.periodic:
        boundary_points += [s + signal.period for s in starts]
    for s in boundary_points:
        for c in (s, s - T):
            if t0 <= c <= last_start:
                candidates.add(c)
    grid = t0
    while grid <= last_start:
        candidates.add(grid)
        grid += delta

    verdicts = {}
    witness = None
    for start in sorted(candidates):
        ok = mode.test(v0_union_graph(signal, family, start, start + T))
        verdicts[start] = ok
        if not ok and witness is None:
            witness = (start, start + T)
    return witness is None, witness, verdicts


def v0_segment_targets(a, b, h):
    """Step end times covering (a, b], uniform h with a trailing short step,
    one Python float per step as the simulator built them before its
    schedule was computed in arrays. The last target is snapped to b."""
    span = b - a
    m_full = int(np.floor(span / h + 1e-9))
    targets = [a + k * h for k in range(1, m_full + 1)]
    if not targets:
        return [b]
    if b - targets[-1] > 1e-6 * h:
        targets.append(b)
    else:
        targets[-1] = b
    return targets


def v0_schedule(scenario):
    """The (times, runs) of ``dynamics._schedule`` from a loop over the
    segments, appending each one's ``v0_segment_targets``."""
    signal = scenario.signal
    h, t_end = float(scenario.h), float(scenario.t_end)
    targets = [signal.t0]
    runs = []
    for a, b, p in signal.segments(t_end):
        b = min(b, t_end)
        if b > a:
            s = len(targets) - 1
            targets.extend(v0_segment_targets(a, b, h))
            runs.append((p, s, len(targets) - 1))
    m = len(targets)
    if runs[-1][0] == p:
        runs[-1] = (p, runs[-1][1], m)
    else:
        runs.append((p, m - 1, m))
    return np.array(targets), runs


def random_schedule(rng):
    """A seeded (signal, h, t_end) for ``dynamics._schedule``, as a namespace.

    One to five pieces over labels a-c, on a decimal grid (where k * h lands
    an ulp either side of a switch), on one stretched by 3e-7 or 3e-6 (either
    side of the short-step threshold) or at random; some pieces have zero
    length. The signal is periodic or not, h may exceed a segment, and
    t_end is a switching instant or falls inside a segment, up to three
    periods on.
    """
    k = int(rng.integers(1, 6))
    unit = float(rng.choice([0.1, 0.05, 0.25, 0.3, 0.7]))
    if rng.random() < 0.5:
        gaps = rng.integers(0, 5, k) * unit * (1 + rng.choice([0.0, 3e-7, 3e-6]))
    else:
        gaps = rng.uniform(0, 1, k) * (rng.random(k) > 0.15)
    t0 = float(rng.choice([0.0, 0.7, -1.3]))
    starts = (t0 + np.cumsum(np.concatenate([[0.0], gaps[1:]]))).tolist()
    signal = SwitchingSignal(list(zip(starts, rng.choice(list("abc"), k).tolist())),
                             tau_d=1.0, horizon_end=starts[-1] + (gaps[0] or unit),
                             periodic=bool(rng.random() < 0.5))
    h = float(rng.choice([unit, unit / 2, unit / 3, unit * 1.7, rng.uniform(0.001, 2.0)]))
    far = t0 + 3 * signal.period if signal.periodic else signal.horizon_end
    switches = [a for a, _b, _p in signal.segments(far) if a > t0] + [far]
    t_end = float(rng.choice(switches)) if rng.random() < 0.5 else float(rng.uniform(t0, far))
    return SimpleNamespace(signal=signal, h=h, t_end=t_end if t_end > t0 else far)


def v0_simulate(scenario):
    """The generic RK4 loop: four field evaluations per step, samples appended.

    Returns (times, states, labels) as the simulator returned them before
    built-in kinds stepped with a propagator; raises DivergenceError at the
    first non-finite sample.
    """
    from compass_consensus.dynamics import _rk4_step
    from compass_consensus.errors import DivergenceError

    spec, h, t_end = scenario.protocol, float(scenario.h), float(scenario.t_end)
    x = np.asarray(scenario.initial_states, dtype=float).reshape(-1).copy()
    times, states, labels = [scenario.signal.t0], [x.copy()], [None]
    for a, b, p in scenario.signal.segments(t_end):
        labels[-1] = p
        b = min(b, t_end)
        if b <= a:
            continue
        t = a
        for target in v0_segment_targets(a, b, h):
            x = _rk4_step(lambda y: spec.field(p, y), x, target - t)
            t = target
            if not np.all(np.isfinite(x)):
                raise DivergenceError(t)
            times.append(t)
            states.append(x.copy())
            labels.append(p)
    return np.asarray(times), np.vstack(states), labels


def reference_metrics_json(path, report_dict):
    """The metrics.json writer as it was, through the pure-Python ``json.dump``
    encoder: the oracle for ``cli.write_metrics_json``'s bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_dict, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")


def v0_build_report(traj, eps_agreement=1e-6, monitor_mode=None, tol_monotone=None,
                    tail_fraction=0.5, abs_tol=None):
    """The report as it was built series by series, each reduced in agent order."""
    import math

    from compass_consensus.errors import DomainError
    from compass_consensus.metrics import (
        AgreementReport, AgreementVerdict, MonitorMode, MonitorViolation,
        fit_exponential_rate,
    )

    X = traj.blocks()
    M, m, a = X.max(axis=1), X.min(axis=1), np.abs(X)
    diam = M - m
    v = diam.max(axis=1)
    tol = 1e-8 * max(1.0, float(v[0])) if tol_monotone is None else float(tol_monotone)
    try:
        fit = fit_exponential_rate((traj.times, v), tail_fraction)
        lam, r2, truncated = fit.lambda_hat, fit.r_squared, fit.truncated
    except DomainError:
        lam, r2, truncated = None, None, True
    if eps_agreement <= 0:
        raise DomainError("eps must be positive")
    if v[-1] > eps_agreement:
        verdict = AgreementVerdict(False, eps_agreement, None, float(v[-1]))
    else:
        above = np.nonzero(v > eps_agreement)[0]
        hit = 0 if above.size == 0 else int(above[-1]) + 1
        verdict = AgreementVerdict(True, eps_agreement, float(traj.times[hit]), float(v[-1]))
    spread, envelope = a.max(axis=1) - a.min(axis=1), a.max(axis=1)
    start = spread.shape[0] - max(2, int(math.ceil(0.5 * spread.shape[0])))
    abs_ok = (spread[-1] <= (abs_tol if abs_tol is not None else eps_agreement)) & (
        np.diff(envelope[max(start, 0):], axis=0) <= tol
    ).all(axis=0)
    mode = MonitorMode(monitor_mode) if isinstance(monitor_mode, str) else monitor_mode
    monitor = []
    if mode is MonitorMode.COOPERATIVE_BOX:
        checks = [(M, 1.0, "M_k"), (m, -1.0, "m_k")]
    else:
        checks = [((X ** 2).max(axis=1), 1.0, "y_k")] if mode else []
    for series, direction, name in checks:
        drift = direction * np.diff(series, axis=0)
        for s, k in np.argwhere(drift > tol):
            monitor.append(MonitorViolation(
                int(s) + 1, float(traj.times[s + 1]), int(k) + 1, name, float(drift[s, k])
            ))
    monitor.sort(key=lambda w: (w.sample, w.axis, w.kind))
    return AgreementReport(
        times=traj.times, lyapunov=v, diameters=diam, axis_max=M, axis_min=m,
        abs_max=a.max(axis=1), square_max=(X ** 2).max(axis=1), abs_spread=spread,
        lambda_hat=lam, r_squared=r2, fit_truncated=truncated, agreement=verdict,
        abs_agreement=abs_ok, monitor_mode=mode, monitor_violations=monitor,
        feasibility_violations=list(traj.feasibility_violations or []),
    )


# The scenario loader before the JSON readers replaced jsonschema: the schema
# dicts and the loader, kept as the oracle of tests/test_json_readers.py.

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}, "minItems": 1}

GRAPH_SCHEMA = {
    "type": "object",
    "required": ["n", "arcs"],
    "additionalProperties": False,
    "properties": {
        "n": {"type": "integer", "minimum": 1},
        "arcs": {
            "type": "array",
            "items": {
                "type": "array",
                "prefixItems": [
                    {"type": "integer", "minimum": 1},
                    {"type": "integer", "minimum": 1},
                    {"enum": [1, -1]},
                ],
                "minItems": 2,
                "maxItems": 3,
            },
        },
        "allow_self_loops": {"type": "boolean"},
    },
}

SIGNAL_SCHEMA = {
    "type": "object",
    "required": ["tau_d", "pieces", "horizon_end"],
    "additionalProperties": False,
    "properties": {
        "tau_d": {"type": "number", "exclusiveMinimum": 0},
        "pieces": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "prefixItems": [{"type": "number"}, {"type": "string"}],
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "horizon_end": {"type": "number"},
        "periodic": {"type": "boolean"},
    },
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "compass-consensus scenario",
    "type": "object",
    "required": ["agents", "protocol", "graphs", "signal", "integrator"],
    "additionalProperties": False,
    "properties": {
        "agents": {
            "type": "object",
            "required": ["n", "d"],
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "d": {"type": "integer", "minimum": 1},
                "initial_states": {
                    "type": "array",
                    "minItems": 1,
                    "items": _NUMBER_ARRAY,
                },
                "sample": {
                    "type": "object",
                    "required": ["seed", "lo", "hi"],
                    "additionalProperties": False,
                    "properties": {
                        "seed": {"type": "integer", "minimum": 0},
                        "lo": _NUMBER_ARRAY,
                        "hi": _NUMBER_ARRAY,
                    },
                },
            },
        },
        "protocol": {
            "type": "object",
            "required": ["kind", "gamma"],
            "additionalProperties": False,
            "properties": {
                "kind": {
                    "enum": [
                        "WeightedConsensus",
                        "RotatedConsensus",
                        "SignedConsensus",
                    ]
                },
                "gamma": {"type": "number", "exclusiveMinimum": 0},
                "weights": {
                    "anyOf": [
                        {"type": "number", "exclusiveMinimum": 0},
                        {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "prefixItems": [
                                    {"type": "integer", "minimum": 1},
                                    {"type": "integer", "minimum": 1},
                                    {"type": "number", "exclusiveMinimum": 0},
                                ],
                                "minItems": 3,
                                "maxItems": 3,
                            },
                        },
                    ]
                },
                "rotation": {
                    "anyOf": [
                        {"type": "number"},
                        {"type": "array", "items": {"type": "number"}},
                        {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "number"}},
                        },
                    ]
                },
            },
        },
        "graphs": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": GRAPH_SCHEMA,
        },
        "signal": SIGNAL_SCHEMA,
        "integrator": {
            "type": "object",
            "required": ["h", "t_end"],
            "additionalProperties": False,
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "t_end": {"type": "number"},
            },
        },
        "validation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "assumption": {
                    "enum": [
                        "GammaStrict",
                        "RelativeInterior",
                        "SignedGammaStrict",
                        None,
                    ]
                },
                "face_tolerance": {"type": "number", "minimum": 0},
                "strictness_tolerance": {"type": "number", "minimum": 0},
            },
        },
        "monitors": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["CooperativeBox", "SignedSquare", None]},
                "tol_monotone": {
                    "anyOf": [{"type": "number", "exclusiveMinimum": 0}, {"type": "null"}]
                },
                "eps_agreement": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trajectory_csv": {"type": "string", "minLength": 1},
                "metrics_json": {"type": "string", "minLength": 1},
                "downsample": {"type": "integer", "minimum": 1},
            },
        },
    },
}


def v0_schema_errors(schema, obj):
    """jsonschema's errors for ``obj``, sorted by path as the v0 loader did."""
    return sorted(Draft202012Validator(schema).iter_errors(obj), key=lambda e: e.json_path)


def v0_flag(obj: Mapping, key: str) -> bool:
    """A JSON boolean, False when absent; DomainError for any other value."""
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise DomainError(f"{key} must be true or false, got {value!r}")
    return value


def v0_graph_from_json(obj: Mapping) -> SignedDigraph:
    try:
        return SignedDigraph(
            int(obj["n"]),
            [tuple(map(int, a)) for a in obj["arcs"]],  # the constructor's int() before it refused floats
            allow_self_loops=v0_flag(obj, "allow_self_loops"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad graph object: {exc}") from exc


def v0_signal_from_json(obj: Mapping) -> SwitchingSignal:
    try:
        return SwitchingSignal(
            [(float(t), p) for t, p in obj["pieces"]],
            tau_d=float(obj["tau_d"]),
            horizon_end=float(obj["horizon_end"]),
            periodic=v0_flag(obj, "periodic"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"bad signal object: {exc}") from exc


def _fail(message: str, fieldpath: str) -> ConfigError:
    return ConfigError(message, field=fieldpath)


def v0_scenario_from_dict(cfg: Mapping, seed_override: int | None = None) -> ScenarioConfig:
    """Validate a config dict against the schema and build a ScenarioConfig.

    ``seed_override`` replaces the sampling seed of sampled initial states
    (it has no effect on explicit initial states).
    """
    errors = v0_schema_errors(SCENARIO_SCHEMA, cfg)
    if errors:
        e = errors[0]
        raise ConfigError(e.message, field=e.json_path)

    agents = cfg["agents"]
    n, d = int(agents["n"]), int(agents["d"])
    has_explicit = "initial_states" in agents
    has_sample = "sample" in agents
    if has_explicit == has_sample:
        raise _fail(
            "agents needs exactly one of initial_states and sample",
            "$.agents",
        )
    if has_explicit:
        x0 = np.asarray(agents["initial_states"], dtype=float)
    else:
        sample = agents["sample"]
        lo = np.asarray(sample["lo"], dtype=float)
        hi = np.asarray(sample["hi"], dtype=float)
        if lo.shape != (d,) or hi.shape != (d,):
            raise _fail(f"sample box must have {d} entries", "$.agents.sample")
        if np.any(hi < lo):
            raise _fail("sample box needs lo <= hi per axis", "$.agents.sample")
        rng = np.random.default_rng(int(sample["seed"] if seed_override is None else seed_override))
        x0 = lo + rng.random((n, d)) * (hi - lo)

    try:
        family = {name: v0_graph_from_json(g) for name, g in cfg["graphs"].items()}
    except DomainError as exc:
        raise _fail(str(exc), "$.graphs") from exc
    try:
        signal = v0_signal_from_json(cfg["signal"])
    except DomainError as exc:
        raise _fail(str(exc), "$.signal") from exc

    proto_cfg = cfg["protocol"]
    weights: float | dict = proto_cfg.get("weights", 1.0)
    if isinstance(weights, list):
        weights = {(int(j), int(i)): float(w) for j, i, w in weights}
    try:
        protocol = ProtocolSpec(
            kind=ProtocolKind(proto_cfg["kind"]),
            family=family,
            gamma=float(proto_cfg["gamma"]),
            weights=weights,
            rotation=proto_cfg.get("rotation"),
        )
    except DomainError as exc:
        raise _fail(str(exc), "$.protocol") from exc

    integ = cfg["integrator"]
    val = cfg.get("validation", {})
    assumption = val.get("assumption")
    monitors = cfg.get("monitors", {})
    mode = monitors.get("mode")
    outputs = cfg.get("outputs", {})
    return ScenarioConfig(
        n=n,
        d=d,
        initial_states=x0,
        protocol=protocol,
        signal=signal,
        h=float(integ["h"]),
        t_end=float(integ["t_end"]),
        assumption=Assumption(assumption) if assumption else None,
        face_tolerance=float(val.get("face_tolerance", 0.0)),
        strictness_tolerance=float(val.get("strictness_tolerance", 1e-12)),
        monitor_mode=MonitorMode(mode) if mode else None,
        tol_monotone=monitors.get("tol_monotone"),
        eps_agreement=float(monitors.get("eps_agreement", 1e-6)),
        trajectory_csv=outputs.get("trajectory_csv", "trajectory.csv"),
        metrics_json=outputs.get("metrics_json", "metrics.json"),
        downsample=int(outputs.get("downsample", 1)),
    )
