"""The paper's two theorems as a randomized differential test.

Hypothesis draws small families of graphs, each usually not quasi-strongly
connected alone, switched periodically with dwells of at least tau_d. The
oracle is the transitive closure of the union of one period's graphs, as in
acceptance criterion 10, and it decides what the checker, the simulator, the
validator and the metrics must say:

- union quasi-strongly connected: the checker passes windows of a period
  plus the longest dwell, a positive-weight consensus agrees, and the fitted
  rate is positive;
- not: the condensation has two source components, and with a distinct
  constant state on each V(t) never drops below their gap, the agreement
  verdict is false and every checked window fails;
- signed, with random arc signs: one period's Floquet map Phi decides the
  limit of the states (its simple top multiplier 1, or rho(Phi) < 1 and the
  limit 0); on a strongly connected union rho(Phi) = 1 exactly when the
  union is structurally balanced (Altafini), and the agents agree in
  absolute value exactly when the limit is constant in absolute value.

The tanh field of ``test_dynamics.TestNonlinearJointConnectivity`` runs on
the same draws at its derived margin gamma = a_min tanh(D0) / D0.
"""

import collections
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from compass_consensus.dynamics import Assumption, simulate
from compass_consensus.graphs import (
    ConnectivityMode,
    SignedDigraph,
    SwitchingSignal,
    check_uniform_joint_connectivity,
)
from compass_consensus.metrics import (
    absolute_value_agreement,
    agreement_verdict,
    fit_exponential_rate,
    lyapunov_series,
)
from compass_consensus.protocols import ProtocolSpec
from compass_consensus.scenario import ScenarioConfig
from helpers import linear_system_matrix, structural_gauge

H = 0.05
TAU_D = 0.5
EPS = 1e-6
TANH_T_END = 100.0  # the longest linear horizon also run with the tanh field
LIMIT_TOL = 1e-5  # final states against the Floquet limit, per entry
SLOWEST = 0.95  # a kept signed draw's slowest decaying multiplier is at most this


def closure(n, arcs):
    """reach[j, i]: node j reaches node i (criterion 10's oracle)."""
    reach = np.eye(n, dtype=bool)
    for j, i in arcs:
        reach[j - 1, i - 1] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    return reach


def source_components(reach):
    """The strongly connected components that no outside node reaches."""
    mutual = reach & reach.T
    sources = {tuple(np.flatnonzero(mutual[v])) for v in range(len(reach))
               if not (reach[:, v] & ~mutual[v]).any()}
    return sorted(sources)


@st.composite
def periodic_families(draw):
    """(n, d, graph arcs by label, weight and sign per arc, dwell per label, seed)."""
    n = draw(st.integers(3, 7))
    d = draw(st.integers(1, 3))
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
    labels = [f"g{k}" for k in range(draw(st.integers(2, 4)))]
    arcs = {p: draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=n - 1)) for p in labels}
    union = sorted(set().union(*arcs.values()))
    weights = {arc: draw(st.sampled_from([0.5, 1.0, 1.5, 2.0])) for arc in union}
    signs = {arc: draw(st.sampled_from([1, -1])) for arc in union}
    dwells = {p: draw(st.sampled_from([TAU_D, 0.75, 1.0])) for p in labels}
    return n, d, arcs, weights, signs, dwells, draw(st.integers(0, 2**32 - 1))


def monodromy(spec, dwells):
    """The period's map prod_p expm(A_p dwell_p) on one axis."""
    phi = np.eye(spec.n)
    for p, dwell in dwells.items():
        phi = expm(linear_system_matrix(spec, p, 1) * dwell) @ phi
    return phi


def decay_horizon(spec, dwells):
    """A whole number of periods over which the linear field shrinks each
    mode that decays at all by 1e10: from the eigenvalues of the period's
    monodromy matrix, on one axis."""
    mu = np.abs(np.linalg.eigvals(monodromy(spec, dwells)))
    rho = mu[mu < 1 - 1e-9].max(initial=0.0)
    periods = math.ceil(math.log(1e10) / -math.log(rho)) if rho > 0 else 1
    return periods * sum(dwells.values())


def run(spec, signal, x0, t_end, assumption=Assumption.GAMMA_STRICT):
    n, d = x0.shape
    return simulate(ScenarioConfig(n=n, d=d, initial_states=x0, protocol=spec, signal=signal,
                                   h=H, t_end=t_end, assumption=assumption))


def floquet_limit(phi, x0):
    """(lim_k phi^k x0 on each axis, rho(phi)): r (l . x0) / (l . r) when the
    top multiplier is a simple 1 with right and left eigenvectors r and l, 0
    when rho(phi) < 1; the limit is None unless every other multiplier is at
    most SLOWEST, so that decay_horizon's run ends near it."""
    mu, right = np.linalg.eig(phi)
    order = np.argsort(-np.abs(mu))
    rho = abs(mu[order[0]])
    if rho <= SLOWEST:
        return np.zeros_like(x0), rho
    if abs(mu[order[0]] - 1) > 1e-9 or abs(mu[order[1]]) > SLOWEST:
        return None, rho
    mu_left, left = np.linalg.eig(phi.T)
    r, l = right[:, order[0]].real, left[:, np.argmin(np.abs(mu_left - 1))].real
    return np.outer(r, l @ x0) / (l @ r), rho


def check_signed(n, arcs, weights, signs, dwells, signal, x0, strong):
    """The signed theorem on one draw; returns the names of the checks made."""
    union = {(j, i, signs[(j, i)]) for a in arcs.values() for j, i in a}
    family = {p: SignedDigraph(n, [(j, i, signs[(j, i)]) for j, i in a]) for p, a in arcs.items()}
    spec = ProtocolSpec(kind="SignedConsensus", family=family, gamma=min(weights.values()),
                        weights=weights)
    limit, rho = floquet_limit(monodromy(spec, dwells), x0)
    names = []
    if strong:  # Altafini: balanced exactly when a multiplier 1 survives
        assert (abs(rho - 1) <= 1e-9) == (structural_gauge(n, union) is not None), rho
        names.append("signed")
    if limit is None and not strong:
        return names
    traj = run(spec, signal, x0, decay_horizon(spec, dwells), Assumption.SIGNED_GAMMA_STRICT)
    assert traj.feasibility_violations == []
    verdict = absolute_value_agreement(traj, tol=LIMIT_TOL)
    if strong:
        assert verdict.all()
    if limit is not None:
        assert np.abs(traj.blocks()[-1] - limit).max() <= LIMIT_TOL
        # Per axis, where |limit| is clearly constant or clearly not.
        spread = np.ptp(np.abs(limit), axis=0)
        clear = (spread <= 1e-9) | (spread > 4 * LIMIT_TOL)
        assert np.array_equal(verdict[clear], spread[clear] <= 1e-9), (verdict, spread)
        names.append("signed limit 0" if rho <= SLOWEST else "signed limit")
        if (spread > 4 * LIMIT_TOL).any():
            names.append("signed |limit| not constant")
    return names


def tanh_spec(family, weights, gamma):
    """f_i = sum_j a_ij tanh(x_j - x_i), each axis alone."""
    n = next(iter(family.values())).n
    A = {p: np.zeros((n, n)) for p in family}
    for p, g in family.items():
        for j, i, _s in g.arcs:
            A[p][i - 1, j - 1] = weights[(j, i)]

    def field(p, x):
        X = x.reshape(n, -1)
        return (A[p][:, :, None] * np.tanh(X[None, :, :] - X[:, None, :])).sum(axis=1).ravel()

    return ProtocolSpec(kind="Custom", family=family, gamma=gamma, field_fn=field)


def check_draw(case):
    """Assert the theorems on one draw; return the names of the checks made."""
    n, d, arcs, weights, signs, dwells, seed = case
    family = {p: SignedDigraph(n, a) for p, a in arcs.items()}
    starts = np.cumsum([0.0, *dwells.values()]).tolist()
    signal = SwitchingSignal(list(zip(starts, dwells)), tau_d=TAU_D, horizon_end=starts[-1],
                             periodic=True)
    reach = closure(n, set().union(*arcs.values()))
    connected = bool(reach.all(axis=1).any())
    a_min = min(weights.values())
    linear = ProtocolSpec(kind="WeightedConsensus", family=family, gamma=a_min, weights=weights)
    t_end = decay_horizon(linear, dwells)

    verdict = check_uniform_joint_connectivity(
        signal, family, signal.period + max(dwells.values()), ConnectivityMode.QUASI_STRONG)
    rng = np.random.default_rng(seed)
    if connected:
        assert verdict.ok
        x0 = rng.uniform(-1.0, 1.0, size=(n, d))
    else:
        sources = source_components(reach)
        assert len(sources) >= 2
        assert not any(ok for _a, _b, ok in verdict.checked_windows)
        x0 = rng.uniform(0.25, 0.75, size=(n, d))
        x0[list(sources[0])], x0[list(sources[1])] = 0.0, 1.0
    name = "connected" if connected else "split"

    d0 = float(np.ptp(x0, axis=0).max())
    runs = [(name, linear, t_end)]
    # Near agreement the tanh field's rate is the linear one; from D0 it is
    # at least tanh(D0) / D0 of it. It steps in Python, so only short runs.
    if t_end <= TANH_T_END:
        runs.append((f"tanh {name}", tanh_spec(family, weights, a_min * math.tanh(d0) / d0),
                     t_end * d0 / math.tanh(d0)))
    for _name, spec, horizon in runs:
        traj = run(spec, signal, x0, horizon)
        assert traj.feasibility_violations == []
        v = lyapunov_series(traj)
        if connected:
            assert agreement_verdict(traj, EPS).achieved
            assert fit_exponential_rate((traj.times, v)).lambda_hat > 0
        else:
            assert np.all(v >= 1.0 - 1e-9)
            assert not agreement_verdict(traj, EPS).achieved

    strong = bool(reach.all())
    signed = check_signed(n, arcs, weights, signs, dwells, signal, x0, strong)
    if strong:  # the same union signed by a random gauge: balanced by construction
        sigma = rng.choice([-1, 1], size=n)
        gauged = {(j, i): int(sigma[j - 1] * sigma[i - 1]) for j, i in signs}
        signed += [f"{name}, gauged" for name in
                   check_signed(n, arcs, weights, gauged, dwells, signal, x0, True)]
    return [name for name, _spec, _t in runs] + signed


def test_joint_connectivity_decides_agreement():
    seen = collections.Counter()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(periodic_families())
    def draw(case):
        seen.update(check_draw(case))

    draw()
    assert min(seen[k] for k in ("connected", "split", "tanh connected", "tanh split",
                                 "signed", "signed limit", "signed limit 0",
                                 "signed |limit| not constant", "signed limit, gauged")) >= 5, seen
