"""Shared builders for module and acceptance tests."""

import numpy as np

from compass_consensus.geometry import Hyperrectangle
from compass_consensus.graphs import SignedDigraph, SwitchingSignal


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


def signed_ring_family_4():
    """Two half-rings on 4 nodes with one antagonistic arc each; the union is
    the structurally balanced directed ring 1->2->3->4->1."""
    g1 = SignedDigraph(4, [(1, 2, -1), (3, 4, 1)])
    g2 = SignedDigraph(4, [(2, 3, 1), (4, 1, -1)])
    return {"g1": g1, "g2": g2}


def dense_local_hull_bounds(X, spec, p, signed):
    """Reference supporting-box bounds over dense (m, n, n, d) masked arrays.

    X is (m, n, d); returns lo, hi of shape (m, n, d) where row i bounds the
    set {x_i} union {sign_ij x_j : j in N_i(p)}. O(m n^2 d) time and memory:
    the oracle the sparse validator kernel is compared against.
    """
    mask = spec.neighbor_mask(p)  # (n, n) incl. self
    if signed:
        sgn = spec.sign_matrix(p)
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
                               strictness_tolerance=1e-12):
    """The cone verdicts over dense bounds, as the validator reports them."""
    from compass_consensus.dynamics import Assumption, FeasibilityViolation

    gamma, ftol, stol = spec.gamma, face_tolerance, strictness_tolerance
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


def v0_union_graph(signal, family, t1, t2):
    """Union graph rebuilt from scratch for one window, signs dropped."""
    labels = v0_pieces_overlapping(signal, t1, t2)
    arcs = {(j, i, 1) for p in labels for (j, i, _s) in family[p].arcs}
    loops = any(family[p].allow_self_loops for p in labels)
    return SignedDigraph(family[labels[0]].n, arcs, allow_self_loops=loops)


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
