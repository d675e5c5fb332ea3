"""Switched-system integration and per-sample feasibility validation.

The state obeys dx/dt = f_p(x) with p chosen by a piecewise-constant
switching signal. Integration uses classical fixed-step RK4 over the signal's
compiled segments, with steps split at their ends so the active field is
constant within every step; each segment's graph and each sample's label come
from the same segment list. For the linear built-ins, f_p(x) = A_p x, an RK4
step is exactly T4(hA_p) = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24: they step
with T4(hA_p), built once per graph and call, and take each segment's last
(possibly short) step as the same polynomial in Horner form, matching generic
RK4 up to rounding. Custom fields keep the generic RK4 loop.

The feasibility validator replays a trajectory and checks, sample by sample
and agent by agent, that the active field at the agent's state lies in the
required cone over the supporting hyperrectangle of the agent's local hull
(the agent's own state together with its in-neighbors' states, sign-flipped
on antagonistic arcs when the signed condition is requested). The boxes are
reduced over each graph's in-neighbor lists, a bounded chunk of samples at a
time: O(m * nnz * d) time for m samples, nnz hull members (arcs plus self)
and d axes, with working memory bounded per chunk rather than n^2 per sample.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np
from scipy.linalg import expm

from .errors import DivergenceError, DomainError, OracleScopeError
from .graphs import SwitchingSignal, validate_switching_signal
from .protocols import ProtocolKind, ProtocolSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .scenario import ScenarioConfig


class Assumption(Enum):
    """Which cone condition the validator enforces."""

    GAMMA_STRICT = "GammaStrict"
    RELATIVE_INTERIOR = "RelativeInterior"
    SIGNED_GAMMA_STRICT = "SignedGammaStrict"


@dataclass(eq=False)
class Trajectory:
    """Sampled solution of the switched system.

    ``states[s]`` is the stacked state (agent-major, length n*d) at
    ``times[s]``; ``active_index[s]`` is the family index driving the system
    at that sample (right-continuous at switches). ``feasibility_flags`` is an
    (m, n) boolean array (True = compliant) filled when validation ran.
    """

    times: np.ndarray
    states: np.ndarray
    n: int
    d: int
    active_index: list
    feasibility_flags: np.ndarray | None = None
    feasibility_violations: list["FeasibilityViolation"] | None = None

    @property
    def num_samples(self) -> int:
        return self.times.size

    def blocks(self) -> np.ndarray:
        """States reshaped to (samples, agents, axes)."""
        return self.states.reshape(self.num_samples, self.n, self.d)

    def agent_states(self, i: int) -> np.ndarray:
        """(samples, d) states of 1-based agent i."""
        if not 1 <= i <= self.n:
            raise DomainError(f"agent index {i} outside 1..{self.n}")
        return self.blocks()[:, i - 1, :]


@dataclass(frozen=True)
class FeasibilityViolation:
    """One cone-condition failure: which sample, agent, axis, and why."""

    time: float
    agent: int
    axis: int
    active_p: Any
    reason: str

    def __str__(self) -> str:
        return (
            f"t={self.time:.6g} agent {self.agent} axis {self.axis} "
            f"(p={self.active_p!r}): {self.reason}"
        )


def _rk4_step(f, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _taylor4(A: np.ndarray, dt: float, X: np.ndarray) -> np.ndarray:
    """T4(dt A) X in Horner form: X + dt A (X + dt/2 A (X + dt/3 A (X + dt/4 A X)))."""
    Y = X
    for c in (4.0, 3.0, 2.0, 1.0):
        Y = X + (dt / c) * (A @ Y)
    return Y


def _segment_targets(a: float, b: float, h: float) -> list[float]:
    """Step end times covering (a, b], uniform h with a trailing short step.

    The last target is snapped to b exactly so samples land on switching
    instants and the horizon end.
    """
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


def simulate(scenario: "ScenarioConfig") -> Trajectory:
    """Integrate the scenario's switched system over [t0, t_end].

    Steps never straddle a switching instant. Raises DivergenceError with the
    offending time if the state stops being finite. When the scenario declares
    a feasibility assumption, the validator runs over the accepted samples and
    its verdicts are attached to the returned trajectory.
    """
    spec: ProtocolSpec = scenario.protocol
    signal: SwitchingSignal = scenario.signal
    bad = validate_switching_signal(signal)
    if bad:
        raise DomainError(f"switching signal violates dwell time: {bad[0]}")
    h = float(scenario.h)
    if h <= 0:
        raise DomainError("step size h must be positive")
    t0 = signal.t0
    t_end = float(scenario.t_end)
    if t_end <= t0:
        raise DomainError("t_end must exceed the signal start")

    x0 = np.asarray(scenario.initial_states, dtype=float).reshape(-1)
    if x0.size != scenario.n * scenario.d:
        raise DomainError("initial states must have n*d entries")

    # Every segment's step end times, so the sample arrays are allocated once.
    plan: list[tuple[Any, float, list[float]]] = []
    labels: list[Any] = [None]
    for a, b, p in signal.segments(t_end):
        # Right-continuous: the sample at a, which ended the previous
        # segment, is labelled with the segment that starts there.
        labels[-1] = p
        b = min(b, t_end)
        if b <= a:
            continue
        targets = _segment_targets(a, b, h)
        plan.append((p, a, targets))
        labels.extend([p] * len(targets))
    times = np.array([t0] + [t for _p, _a, targets in plan for t in targets])
    states = np.empty((times.size, x0.size))
    states[0] = x0

    custom = spec.kind is ProtocolKind.CUSTOM
    propagators: dict[Any, tuple] = {}
    s = 0
    for p, a, targets in plan:
        k = len(targets)
        block = states[s : s + k + 1]
        if custom:
            f, t = partial(spec.field, p), a
            for j, target in enumerate(targets, 1):
                block[j] = _rk4_step(f, block[j - 1], target - t)
                t = target
                if not np.isfinite(block[j]).all():
                    break
        else:
            if p not in propagators:
                # A_p acts on (n, d) blocks, or on the stacked state under a rotation.
                if spec.rotation_dim is None:
                    A, shape = spec.operator(p), (spec.n, scenario.d)
                else:
                    A, shape = linear_system_matrix(spec, p, scenario.d), (x0.size, 1)
                propagators[p] = (A, _taylor4(A, h, np.eye(shape[0])), shape)
            A, P, shape = propagators[p]
            X = block.reshape((k + 1,) + shape)
            for j in range(1, k):
                np.matmul(P, X[j - 1], out=X[j])
            X[k] = _taylor4(A, targets[-1] - (targets[-2] if k > 1 else a), X[k - 1])
        finite = np.isfinite(block[1:]).all(axis=1)
        if not finite.all():
            raise DivergenceError(float(times[s + 1 + np.argmin(finite)]))
        s += k

    traj = Trajectory(
        times=times,
        states=states,
        n=scenario.n,
        d=scenario.d,
        active_index=labels,
    )
    if getattr(scenario, "assumption", None) is not None:
        violations = validate_feasibility(
            traj,
            spec,
            scenario.assumption,
            face_tolerance=scenario.face_tolerance,
            strictness_tolerance=scenario.strictness_tolerance,
        )
        flags = np.ones((traj.num_samples, traj.n), dtype=bool)
        for v in violations:
            flags[np.searchsorted(times, v.time), v.agent - 1] = False
        traj.feasibility_flags = flags
        traj.feasibility_violations = violations
    return traj


def _sample_groups(traj: Trajectory, spec: ProtocolSpec) -> dict[Any, np.ndarray]:
    """Sample indices of each active graph label, grouped in one pass.

    Rejects with DomainError a trajectory the protocol cannot have produced.
    """
    if traj.n != spec.n:
        raise DomainError(f"trajectory has n={traj.n} but the protocol has n={spec.n}")
    groups: dict[Any, list[int]] = {}
    for s, p in enumerate(traj.active_index):
        groups.setdefault(p, []).append(s)
    for p in groups:
        if p not in spec.family:
            raise DomainError(f"active index {p!r} is not in the graph family")
    return {p: np.asarray(sel) for p, sel in groups.items()}


def _fields(traj: Trajectory, spec: ProtocolSpec, groups: dict) -> np.ndarray:
    X = traj.blocks()
    F = np.empty_like(X)
    for p, sel in groups.items():
        if spec.kind is ProtocolKind.CUSTOM:
            F[sel] = [spec.field(p, y).reshape(traj.n, traj.d) for y in traj.states[sel]]
        else:
            F[sel] = spec.linear_field(p, X[sel])
    return F


def fields_along(traj: Trajectory, spec: ProtocolSpec) -> np.ndarray:
    """Active vector field evaluated at every sample, shaped (m, n, d)."""
    return _fields(traj, spec, _sample_groups(traj, spec))


# Float64 elements in one gathered (samples, nnz, d) block of hull candidates:
# bounds the validator's working set whatever the trajectory length, and at
# 512 KB keeps a chunk cache-resident (larger budgets measured slower).
_CHUNK_ELEMENTS = 1 << 16
# Supporting-box bounds and facet masks of a sample chunk, each (samples, n, d).
_Facets = namedtuple("_Facets", "lo hi width at_lower at_upper degen active")


def _facet_chunks(
    traj: Trajectory, spec: ProtocolSpec, signed: bool, ftol: float
) -> Iterator[tuple[Any, np.ndarray, np.ndarray, _Facets]]:
    """Yield (p, samples, fields, facets) per active graph and sample chunk.

    Row i of the bounds is the supporting box of {x_i} union
    {sign_ij x_j : j in N_i(p)}, reduced over the in-neighbor lists of p, so
    a sample costs O(nnz * d) and a chunk holds about _CHUNK_ELEMENTS floats.
    """
    groups = _sample_groups(traj, spec)
    X = traj.blocks()
    F = _fields(traj, spec, groups)
    for p, sel in groups.items():
        rows, cols = np.nonzero(spec.neighbor_mask(p))
        # The mask includes self, so every agent owns a nonempty segment of
        # cols: reduceat would return the next segment's first entry for an
        # empty one instead of failing.
        starts = np.searchsorted(rows, np.arange(spec.n))
        signs = spec.sign_matrix(p)[rows, cols][:, None]
        step = max(1, _CHUNK_ELEMENTS // (cols.size * traj.d))
        for k in range(0, sel.size, step):
            idx = sel[k : k + step]
            Xs = X[idx]
            cand = Xs[:, cols, :]
            if signed:
                cand *= signs
            lo = np.minimum.reduceat(cand, starts, axis=1)
            hi = np.maximum.reduceat(cand, starts, axis=1)
            width = hi - lo
            at_lower = np.abs(Xs - lo) <= ftol
            at_upper = np.abs(Xs - hi) <= ftol
            degen = width <= 2 * ftol
            active = (at_lower | at_upper) & ~degen
            yield p, idx, F[idx], _Facets(lo, hi, width, at_lower, at_upper, degen, active)


def validate_feasibility(
    traj: Trajectory,
    spec: ProtocolSpec,
    assumption: Assumption | str,
    *,
    gamma: float | None = None,
    face_tolerance: float = 0.0,
    strictness_tolerance: float = 1e-12,
) -> list[FeasibilityViolation]:
    """Check the cone condition at every sample and agent; violations as data.

    The default ``face_tolerance`` of zero is exact here: the queried point is
    itself a hull point, so facet membership reduces to exact min/max
    comparisons. The decision logic matches the scalar geometry predicates
    (see the equivalence tests); it is merely evaluated in bulk.
    """
    if isinstance(assumption, str):
        assumption = Assumption(assumption)
    gamma = spec.gamma if gamma is None else float(gamma)
    if gamma <= 0 and assumption is not Assumption.RELATIVE_INTERIOR:
        raise DomainError("gamma must be positive")
    ftol, stol = float(face_tolerance), float(strictness_tolerance)
    if ftol < 0 or stol < 0:
        raise DomainError("tolerances must be nonnegative")

    signed = assumption is Assumption.SIGNED_GAMMA_STRICT
    violations: list[FeasibilityViolation] = []
    for p, sel, Fs, f in _facet_chunks(traj, spec, signed, ftol):
        bad_degen = f.degen & (np.abs(Fs) > stol)
        if assumption is Assumption.RELATIVE_INTERIOR:
            bad_sign = f.active & (
                (f.at_lower & (Fs < stol)) | (f.at_upper & (Fs > -stol))
            )
            bad = bad_degen | bad_sign
            kinds = [(bad_degen, "carrier"), (bad_sign, "strict-sign")]
        else:
            bad_sign = f.active & (
                (f.at_lower & (Fs < -stol)) | (f.at_upper & (Fs > stol))
            )
            bad_margin = f.active & ~bad_sign & (np.abs(Fs) < gamma * f.width - stol)
            bad = bad_degen | bad_sign | bad_margin
            kinds = [
                (bad_degen, "carrier"),
                (bad_sign, "sign"),
                (bad_margin, "margin"),
            ]
        for s_loc, i, k in np.argwhere(bad):
            reason = next(name for arr, name in kinds if arr[s_loc, i, k])
            fval = Fs[s_loc, i, k]
            if reason == "carrier":
                detail = f"carrier subspace: |f_k|={abs(fval):.3g} > {stol:.3g} on a flat axis"
            elif reason in ("sign", "strict-sign"):
                side = "lower" if f.at_lower[s_loc, i, k] else "upper"
                detail = f"{reason}: f_k={fval:.3g} points outward at the {side} facet"
            else:
                need = gamma * f.width[s_loc, i, k]
                detail = f"margin: |f_k|={abs(fval):.3g} < gamma*D_k={need:.3g}"
            violations.append(
                FeasibilityViolation(
                    time=float(traj.times[sel[s_loc]]),
                    agent=int(i) + 1,
                    axis=int(k) + 1,
                    active_p=p,
                    reason=detail,
                )
            )
    violations.sort(key=lambda v: (v.time, v.agent, v.axis))
    return violations


def empirical_gamma_margin(
    traj: Trajectory,
    spec: ProtocolSpec,
    *,
    signed: bool = False,
    face_tolerance: float = 0.0,
) -> float:
    """Smallest observed |f_k| / D_k over active non-degenerate facet axes.

    Measures the cone margin the trajectory actually exhibits; negative when
    the field points outward at some facet, +inf when no facet is ever
    active. No numeric slack is applied.
    """
    best = np.inf
    for _p, _sel, Fs, f in _facet_chunks(traj, spec, signed, float(face_tolerance)):
        sign_ok = np.where(f.at_lower, Fs >= 0, Fs <= 0)
        margins = np.where(sign_ok, np.abs(Fs), -np.abs(Fs))[f.active] / f.width[f.active]
        best = min(best, float(margins.min(initial=np.inf)))
    return best


def linear_system_matrix(spec: ProtocolSpec, p: Any, d: int) -> np.ndarray:
    """Stacked (n*d, n*d) matrix A with f_p(x) = A x: block (i, j) is (L_p)_ij R_i."""
    if spec.kind is ProtocolKind.CUSTOM:
        raise DomainError("custom protocols have no generic linear form")
    R = np.eye(d)[None] if spec.rotation_dim is None else spec._R
    if R.shape[1] != d:
        raise DomainError(f"rotation built for d={spec.rotation_dim}, not {d}")
    n = spec.n
    return (spec.operator(p)[:, None, :, None] * R[:, :, None, :]).reshape(n * d, n * d)


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
