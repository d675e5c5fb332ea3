"""Switched-system integration and per-sample feasibility validation.

The state obeys dx/dt = f_p(x) with p chosen by a piecewise-constant
switching signal. Integration uses classical fixed-step RK4 over the signal's
compiled segments, with steps split at their ends so the active field is
constant within every step. The trajectory keeps the schedule as a run table,
one (graph, first sample, end sample) row per segment: the integrator steps
over it, and every reader of the sample labels reads it. The integrator
yields the states run by run, in chunks of samples: ``simulate`` stores
them, and ``compass run`` hands each to the validator, the report and the
CSV writer before integrating the next, so it never holds the trajectory.
For the linear
built-ins, f_p(x) = A_p x, an RK4 step is exactly T4(hA_p) = I + hA +
(hA)^2/2 + (hA)^3/6 + (hA)^4/24. Its Horner form needs only the action of
A_p, ``ProtocolSpec.linear_field``: applied to a basis once per graph and
call (once per run for a graph whose matrix finds the kept ones full), it
gives the step matrix; applied to the state, each segment's last
(possibly short) step. Custom fields keep the generic RK4 loop.

The feasibility validator replays a trajectory and checks, sample by sample
and agent by agent, that the active field at the agent's state lies in the
required cone over the supporting hyperrectangle of the agent's local hull
(the agent's own state together with its in-neighbors' states, sign-flipped
on antagonistic arcs when the signed condition is requested). The boxes are
reduced over hull lists read from each graph's ``in_arcs()``, and the fields
evaluated, a bounded chunk of samples at a time: O(m * nnz * d) time for m
samples, nnz hull members (arcs plus self) and d axes, in working memory
bounded per chunk.
One label walker, ``_gathered``, cuts those chunks: it copies the runs of a
trajectory, stored or being integrated, into one buffer per graph while the
buffers stay within a bound; ``fields_along`` reads the states through it too.
Agents are bucketed by hull size rounded up to a power of two, and each list
is padded to its bucket's size with the agent itself (exact, as min and max
are idempotent): padding at most doubles nnz, and a hub of a star graph
lands in a bucket of its own. Each bucket's box is one gather and one
reduction over the padded axis; a member across an antagonistic arc is
gathered from a negated copy of the states, so no multiply is needed.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from .errors import DivergenceError, DomainError, member, real, reals
from .graphs import SwitchingSignal, _node_count
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
    ``times[s]``. ``runs`` is the switching schedule as it was sampled: each
    run (p, a, b) says family index p drives samples a..b-1. A sample at a
    switch opens the next run, so labels are right-continuous. Raises
    DomainError unless the times and the (samples, n*d) states are finite
    arrays (``errors.reals``) and the runs tile the samples in order.
    ``feasibility_violations`` is filled when validation ran.
    """

    times: np.ndarray
    states: np.ndarray
    n: int
    d: int
    runs: list
    feasibility_violations: list["FeasibilityViolation"] | None = None

    def __post_init__(self):
        self.times = reals("times", self.times, (None,))
        self.states = reals("states", self.states, (self.times.size, self.n * self.d))
        self.runs = [(p, operator.index(a), operator.index(b)) for p, a, b in self.runs]
        ends = [0] + [b for _p, _a, b in self.runs]
        if ends[-1] != self.num_samples or any(
            not e == a < b for e, (_p, a, b) in zip(ends, self.runs)
        ):
            raise DomainError(f"the runs must tile the samples [0, {self.num_samples}) in order")

    @property
    def num_samples(self) -> int:
        return self.times.size

    @property
    def active_index(self) -> list:
        """The family index of every sample, expanded from the runs."""
        return [p for p, a, b in self.runs for _ in range(b - a)]

    def blocks(self) -> np.ndarray:
        """States reshaped to (samples, agents, axes)."""
        return self.states.reshape(self.num_samples, self.n, self.d)


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


def _taylor4(act, dt: float, X: np.ndarray) -> np.ndarray:
    """T4(dt A) X in Horner form, X + dt A (X + dt/2 A (X + dt/3 A (X + dt/4 A X))),
    from the action ``act(Y) = A Y`` of the linear field alone."""
    Y = X
    for c in (4.0, 3.0, 2.0, 1.0):
        Y = X + (dt / c) * act(Y)
    return Y


def simulate(scenario: "ScenarioConfig") -> Trajectory:
    """Integrate the scenario's switched system over [t0, t_end].

    The scenario checked its own consistency when it was built. Steps never
    straddle a switching instant. Raises DivergenceError with the
    offending time if the state stops being finite. When the scenario declares
    a feasibility assumption, the validator runs over the accepted samples and
    its verdicts are attached to the returned trajectory.
    """
    times, runs = _schedule(scenario)
    states = np.empty((times.size, scenario.n * scenario.d))
    for _p, samples, X in _sample_chunks(scenario, times, runs):
        states[samples[0] : samples[-1] + 1] = X.reshape(len(X), -1)
    traj = Trajectory(times=times, states=states, n=scenario.n, d=scenario.d, runs=runs)
    if getattr(scenario, "assumption", None) is not None:
        traj.feasibility_violations = validate_feasibility(
            traj,
            scenario.protocol,
            scenario.assumption,
            face_tolerance=scenario.face_tolerance,
            strictness_tolerance=scenario.strictness_tolerance,
        )
    return traj


def _schedule(scenario: "ScenarioConfig") -> tuple[np.ndarray, list[tuple[Any, int, int]]]:
    """The sample times of the scenario's trajectory and its runs (p, a, b).

    Each segment (a, b], cut at t_end, takes whole steps of h at a + k*h and
    a short one more when b is more than 1e-6 * h past the last (or none
    fits); its last sample is snapped to b, so samples land on switching
    instants and t_end. One run per segment from the sample at its start,
    which ends the previous segment: labels are right-continuous. The final
    sample opens the run of the segment active at t_end, which may start
    there. Raises DomainError when the signal's segments to t_end, tiled
    periodically, or the samples' times do not fit in memory.
    """
    h, t_end = float(scenario.h), float(scenario.t_end)
    try:
        return _tiled_schedule(scenario.signal, h, t_end)
    except MemoryError:  # raised after the block, which frees what filled memory
        pass
    raise DomainError(f"h={h!r} to t_end={t_end!r} needs more steps or switches than memory holds")


def _tiled_schedule(signal: SwitchingSignal, h: float, t_end: float) -> tuple[np.ndarray, list]:
    """``_schedule``'s times and runs; MemoryError when they do not fit."""
    segs = signal.segments(t_end)
    kept = [(a, min(b, t_end), p) for a, b, p in segs if min(b, t_end) > a]
    a, b = np.array([seg[:2] for seg in kept], dtype=float).T
    with np.errstate(over="ignore"):
        full = np.floor((b - a) / h + 1e-9)
        steps = np.maximum(full, 1) + ((full > 0) & (b - (a + full * h) > 1e-6 * h))
    # A float sum: casting a count past int64 would wrap it.
    if not steps.sum() < np.iinfo(np.intp).max // 8:  # more bytes of times than an array holds
        raise MemoryError
    counts = steps.astype(np.intp)
    ends = np.cumsum(counts)
    k = np.arange(1, ends[-1] + 1) - np.repeat(ends - counts, counts)
    times = np.concatenate([[signal.t0], np.repeat(a, counts) + k * h])
    times[ends] = b
    m, p = times.size, segs[-1][2]
    runs = [(q, s, e) for (_a, _b, q), s, e in zip(kept, (ends - counts).tolist(), ends.tolist())]
    if runs[-1][0] == p:
        runs[-1] = (p, runs[-1][1], m)
    else:
        runs.append((p, m - 1, m))
    return times, runs


# Float64 elements per array of a sample chunk: bounds a reader's working set
# whatever the trajectory length, and at 512 KB keeps a chunk cache-resident
# (larger budgets measured slower).
_CHUNK_ELEMENTS = 1 << 16


def _sample_chunks(
    scenario: "ScenarioConfig", times: np.ndarray, runs: list
) -> Iterator[tuple[Any, np.ndarray, np.ndarray]]:
    """Integrate the scenario over its schedule ``_schedule(scenario)``, run
    by run; yield (p, samples, states) per run, split into chunks of at most
    max(1, _CHUNK_ELEMENTS // (n * d)) samples: ``samples`` are contiguous
    indices, all driven by graph p, and ``states`` their (samples, n, d)
    states, a view of one reused buffer, overwritten by the next chunk.
    Raises DivergenceError at the first sample that is not finite.
    """
    spec: ProtocolSpec = scenario.protocol
    h, x0 = float(scenario.h), scenario.initial_states.reshape(-1)
    m, size = times.size, max(1, _CHUNK_ELEMENTS // x0.size)
    # One row beyond the chunk: the step into the next chunk's first sample
    # lands there, so the state carries across a split or a switch.
    buffer = np.empty((min(size + 1, m), x0.size))
    buffer[0] = x0
    custom = spec.kind is ProtocolKind.CUSTOM
    # Step matrices are kept, first come, while they hold 2 * _CHUNK_ELEMENTS
    # floats together or are at most sixteen; another graph's is rebuilt per
    # run. A periodic schedule over up to sixteen graphs builds each once, and
    # over more, the first ones' (least recently used out would rebuild all).
    propagators: dict[Any, np.ndarray] = {}
    kept = 0
    for p, s, e in runs:
        last = min(e, m - 1)  # the run steps from s to last: e, or the final sample
        if custom:
            f = partial(spec.field, p)
        else:
            act = partial(spec.linear_field, p)
            P = propagators.get(p)
            if P is None and last - s > 1:  # full steps come before the last one
                # T4 on (n, d) blocks, or the stacked one whose column c is T4 e_c if rotated.
                if spec.rotation is None:
                    P = _taylor4(act, h, np.eye(spec.n))
                else:
                    basis = np.eye(x0.size).reshape(x0.size, spec.n, -1)
                    P = _taylor4(act, h, basis).reshape(x0.size, -1).T.copy()
                if kept + P.size <= max(2 * _CHUNK_ELEMENTS, 16 * P.size):
                    propagators[p], kept = P, kept + P.size
        for c in range(s, e, size):
            c2 = min(c + size, e)
            k = min(c2, last) - c  # steps from sample c; a step into c2 opens the next chunk
            block = buffer[: k + 1]
            T = times[c : c + k + 1]
            if custom:
                for j in range(1, k + 1):
                    block[j] = _rk4_step(f, block[j - 1], T[j] - T[j - 1])
                    if not np.isfinite(block[j]).all():
                        break
            elif k:  # a one-sample run, opened at t_end, takes no step
                full = k if c + k < last else k - 1  # the step into sample last may be short
                if full > 0:
                    X = block.reshape(k + 1, len(P), -1)
                    for j in range(1, full + 1):
                        np.matmul(P, X[j - 1], out=X[j])
                if full < k:
                    Xk = block[k - 1].reshape(spec.n, -1)
                    block[k] = _taylor4(act, T[k] - T[k - 1], Xk).ravel()
            finite = np.isfinite(block[1:]).all(axis=1)
            if not finite.all():
                raise DivergenceError(float(T[1 + np.argmin(finite)]))
            yield p, np.arange(c, c2), block[: c2 - c].reshape(c2 - c, spec.n, -1)
            buffer[0] = block[k]


def _run_chunks(
    traj: Trajectory, spec: ProtocolSpec
) -> Iterator[tuple[Any, np.ndarray, np.ndarray]]:
    """A stored trajectory as the chunks ``_sample_chunks`` yields: (p,
    samples, states) per run, ``states`` a (samples, n, d) view. Rejects with
    DomainError, before the first chunk, a trajectory the protocol cannot
    have produced."""
    if traj.n != spec.n:
        raise DomainError(f"trajectory has n={traj.n} but the protocol has n={spec.n}")
    _node_count(spec.family, [p for p, _a, _b in traj.runs])
    X = traj.blocks()
    for p, a, b in traj.runs:
        yield p, np.arange(a, b), X[a:b]


def _gathered(
    chunks: Iterator[tuple[Any, np.ndarray, np.ndarray]],
    chunk_samples: Callable[[Any, int], int],
) -> Iterator[tuple[Any, np.ndarray, np.ndarray]]:
    """The label walker: a trajectory's (p, samples, states) chunks, run by
    run, as ``_sample_chunks`` yields them while integrating and
    ``_run_chunks`` on a stored trajectory, regrouped per graph label. Each
    label's samples are copied, in order, into a buffer of
    chunk_samples(p, d) samples, allocated on the label's first use and
    yielded whenever it fills; once the chunks end, the partial buffers are
    yielded. The buffers are kept, first come, while they hold
    2 * _CHUNK_ELEMENTS states together, or one buffer, whatever the number
    of labels; a label left without one has each chunk yielded as it comes,
    in pieces of at most chunk_samples(p, d) samples. (The validator's
    buffers take at most _CHUNK_ELEMENTS / 2 states each, so four labels all
    get one.) A yielded chunk may be overwritten when the next is asked for."""
    held: dict[Any, list] = {}  # p -> [samples, states, samples filled]
    total = 0  # state floats in the held buffers
    for p, samples, X in chunks:
        if p not in held:
            size = chunk_samples(p, X.shape[2])
            if held and total + size * X[0].size > 2 * _CHUNK_ELEMENTS:
                for j in range(0, len(X), size):
                    yield p, samples[j : j + size], X[j : j + size]
                continue
            held[p] = [np.empty(size, samples.dtype), np.empty((size, *X.shape[1:]), X.dtype), 0]
            total += held[p][1].size
        entry = held[p]
        idx, buf, k = entry
        j = 0
        while j < len(X):
            take = min(len(X) - j, len(buf) - k)
            idx[k : k + take], buf[k : k + take] = samples[j : j + take], X[j : j + take]
            j, k = j + take, k + take
            if k == len(buf):
                yield p, idx, buf
                k = 0
        entry[2] = k
    for p, (idx, buf, k) in held.items():
        if k:
            yield p, idx[:k], buf[:k]


def _field_block(spec: ProtocolSpec, p: Any, X: np.ndarray) -> np.ndarray:
    """Graph p's field at the states X shaped (samples, n, d)."""
    if spec.kind is ProtocolKind.CUSTOM:
        return np.array([spec.field(p, y.ravel()).reshape(y.shape) for y in X])
    return spec.linear_field(p, X)


def fields_along(traj: Trajectory, spec: ProtocolSpec) -> np.ndarray:
    """Active vector field evaluated at every sample, shaped (m, n, d)."""
    F = np.empty_like(traj.blocks())
    step = max(1, _CHUNK_ELEMENTS // (traj.n * traj.d))
    for p, sel, Xs in _gathered(_run_chunks(traj, spec), lambda p, d: step):
        F[sel] = _field_block(spec, p, Xs)
    return F


# A sample chunk's box bounds, facet masks and inward field, each (samples, n, d).
_Facets = namedtuple("_Facets", "lo hi width at_lower degen active inward")


def _hull_tables(spec: ProtocolSpec, p: Any, signed: bool) -> list[np.ndarray]:
    """Graph p's hull lists as one (w, agents) table per power-of-two hull size w.

    Row i's hull is i itself with sign +1 and every in-neighbor j != i (a
    self-loop adds nothing, as in L_p). Member j of sign -1 is stored as
    column j + n of the states with their negated copy appended, when
    ``signed``. Each list is padded to w with the agent's own index: min and
    max are idempotent, so padding with a member is exact, and it at most
    doubles the entries. Row 0 of a table lists its agents.
    """
    members = [[i] for i in range(spec.n)]
    for i, j, s in spec.family[p].in_arcs():
        members[i].append(j + spec.n if signed and s < 0 else j)
    padded: dict[int, list[list[int]]] = {}
    for i, m in enumerate(members):
        w = 1 << (len(m) - 1).bit_length()
        padded.setdefault(w, []).append(m + [i] * (w - len(m)))
    return [np.array(lists).T for lists in padded.values()]


def _box(Y: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis min and max over each hull of a (w, agents) table, gathered from Y."""
    cand = Y.take(table.ravel(), axis=1).reshape(Y.shape[0], *table.shape, Y.shape[2])
    # The reductions allocate their results: numpy reduces these small
    # blocks far slower into an out= array.
    return cand.min(axis=1), cand.max(axis=1)


def _facet_chunks(
    chunks: Iterator, spec: ProtocolSpec, signed: bool, ftol: float
) -> Iterator[tuple[Any, np.ndarray, np.ndarray, _Facets]]:
    """Yield (p, samples, fields, facets) per active graph and sample chunk.

    ``chunks`` are a trajectory's (p, samples, states) runs, from
    ``_sample_chunks`` or ``_run_chunks``, regrouped per label by the label
    walker ``_gathered``. Each label's hull tables
    are built once, before its first chunk, and a chunk, its fields included,
    holds about _CHUNK_ELEMENTS floats per array. Row i of the bounds is the
    supporting box of {x_i} union {sign_ij x_j : j in N_i(p)}, reduced over
    the padded hull tables of p. An active axis is on one facet (on both, it
    is degenerate); ``inward`` is the field component into the box: f_k at
    the lower facet, -f_k at the upper.
    """
    tables: dict[Any, list[np.ndarray]] = {}

    def step(p, d):  # builds each label's tables once, before its first chunk
        if p not in tables:
            tables[p] = _hull_tables(spec, p, signed)
        floats = (sum(table.size for table in tables[p]) + (2 if signed else 1) * spec.n) * d
        return max(1, _CHUNK_ELEMENTS // floats)

    for p, idx, Xs in _gathered(chunks, step):
        Y = np.concatenate([Xs, -Xs], axis=1) if signed else Xs
        if len(tables[p]) == 1:  # every agent in one bucket, in agent order
            lo, hi = _box(Y, tables[p][0])
        else:
            lo, hi = np.empty_like(Xs), np.empty_like(Xs)
            for table in tables[p]:
                lo[:, table[0]], hi[:, table[0]] = _box(Y, table)
        width = hi - lo
        at_lower = np.abs(Xs - lo) <= ftol
        degen = width <= 2 * ftol
        active = (at_lower | (np.abs(Xs - hi) <= ftol)) & ~degen
        Fs = _field_block(spec, p, Xs)
        inward = np.where(at_lower, Fs, -Fs)
        yield p, idx, Fs, _Facets(lo, hi, width, at_lower, degen, active, inward)


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
    return _violations(_run_chunks(traj, spec), traj.times, spec, assumption, gamma,
                       face_tolerance, strictness_tolerance)


def _violations(
    chunks: Iterator, times: np.ndarray, spec: ProtocolSpec, assumption: Assumption | str,
    gamma: float | None, face_tolerance: float, strictness_tolerance: float,
) -> list[FeasibilityViolation]:
    """``validate_feasibility`` over a trajectory's chunks, stored or being
    integrated (see ``_facet_chunks``); ``times`` are the sample times."""
    assumption = member("assumption", assumption, Assumption)
    gamma_strict = assumption is not Assumption.RELATIVE_INTERIOR
    if gamma_strict:  # unused, so unchecked, for the relative interior
        gamma = real("gamma", spec.gamma if gamma is None else gamma, above=0)
    ftol = real("face_tolerance", face_tolerance, minimum=0)
    stol = real("strictness_tolerance", strictness_tolerance, minimum=0)

    signed = assumption is Assumption.SIGNED_GAMMA_STRICT
    # An active facet fails if its inward component is below the edge or, for
    # the gamma-strict kinds, if |f_k| < gamma * D_k - stol.
    edge = -stol if gamma_strict else stol
    word = "sign" if gamma_strict else "strict-sign"
    violations: list[FeasibilityViolation] = []
    for p, sel, Fs, f in _facet_chunks(chunks, spec, signed, ftol):
        carrier = f.degen & (np.abs(Fs) > stol)
        outward = f.active & (f.inward < edge)
        bad = carrier | outward
        if gamma_strict:
            bad |= f.active & ~outward & (np.abs(Fs) < gamma * f.width - stol)
        if not bad.any():
            continue
        # One .tolist() per column: indexing and formatting numpy scalars one by one
        # costs microseconds per violation.
        at = np.nonzero(bad)
        columns = (times[sel[at[0]]], at[1] + 1, at[2] + 1, Fs[at], carrier[at],
                   outward[at], f.at_lower[at], f.width[at])
        for t, i, k, fval, flat, out, lower, width in zip(*(c.tolist() for c in columns)):
            if flat:
                detail = f"carrier subspace: |f_k|={abs(fval):.3g} > {stol:.3g} on a flat axis"
            elif out:
                side = "lower" if lower else "upper"
                detail = f"{word}: f_k={fval:.3g} points outward at the {side} facet"
            else:
                detail = f"margin: |f_k|={abs(fval):.3g} < gamma*D_k={gamma * width:.3g}"
            violations.append(FeasibilityViolation(t, i, k, p, detail))
    violations.sort(key=lambda v: (v.time, v.agent, v.axis))
    return violations


def empirical_gamma_margin(
    traj: Trajectory,
    spec: ProtocolSpec,
    *,
    signed: bool = False,
    face_tolerance: float = 0.0,
) -> float:
    """Smallest observed inward f_k / D_k over active non-degenerate facet axes.

    Measures the cone margin the trajectory actually exhibits; negative when
    the field points outward at some facet, a zero of either sign when it
    vanishes there, +inf when no facet is ever active. No numeric slack is
    applied.
    """
    ftol = real("face_tolerance", face_tolerance, minimum=0)
    best = np.inf
    for _p, _sel, _Fs, f in _facet_chunks(_run_chunks(traj, spec), spec, signed, ftol):
        margins = f.inward[f.active] / f.width[f.active]
        best = min(best, float(margins.min(initial=np.inf)))
    return best

