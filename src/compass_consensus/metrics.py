"""Agreement metrics, monotonicity monitors, and convergence-rate tools.

The central quantity is V(t), the maximum side length of the supporting
hyperrectangle of the agent states: V = max_k (M_k - m_k) with per-axis
maxima M_k and minima m_k over agents. Under a validated cooperative
protocol every M_k is non-increasing and every m_k non-decreasing, so V is a
Lyapunov function; the monitors flag sampled violations of those
monotonicity properties within a tolerance that absorbs integration error.

For signed (cooperative-antagonistic) dynamics the monitored quantity is
y_k = max_i x_ik^2, whose non-increase certifies the origin-symmetric
invariant box, and the agreement notion is per-axis equality of absolute
values.

``rate_bound`` evaluates the closed-form contraction factor per sweep,

    beta  = exp(-n L* T') * min{ (gamma tau_d)^(n-1) / (2 (L+ tau_d + 1)^(n-1)), 1/2 }
    beta* = ln(1 / (1 - beta)) / (d T')

with T' the sweep length (a convenience constructor builds it from a
connectivity window T as T' = n^2 (T + 2 tau_d)). The Lipschitz constants
L* and L+ are caller-supplied; they are existence constants that no generic
procedure can extract from a protocol, so the bound is exposed as a
calculator and never asserted against measured rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, integer, member, real, reals
from . import dynamics
from .dynamics import Trajectory


class MonitorMode(Enum):
    COOPERATIVE_BOX = "CooperativeBox"
    SIGNED_SQUARE = "SignedSquare"


# Per-sample series -----------------------------------------------------------


class _Series:
    """Per-axis max/min over agents of x and of |x|, each (samples, d), and V.

    ``add`` takes the states of the next samples, in any number of pieces,
    into one reused (samples, d, agents) buffer of at most
    ``dynamics._CHUNK_ELEMENTS`` floats, reduced into the preallocated series
    each time it fills, so the working memory is one chunk plus the
    O(samples * d) series; ``done`` reduces the rest and derives the series
    the four reductions give. Every series, verdict and monitor is derived
    from them.
    """

    def __init__(self, times: np.ndarray, n: int, d: int, dtype=float):
        m = times.size
        self.times = times
        self.hi, self.lo, self.abs_hi, self.abs_lo = (np.empty((m, d), dtype) for _ in range(4))
        # A copy, never a view: for d == 1 or n == 1 the transpose of a chunk
        # is already contiguous, and |x| is taken in place below.
        self.buffer = np.empty((min(max(1, dynamics._CHUNK_ELEMENTS // (n * d)), m), d, n), dtype)
        self.reduced = self.filled = 0  # samples in the series; samples in the buffer

    def add(self, X: np.ndarray) -> None:
        """Take the states X, shaped (samples, n, d), of the next samples."""
        while len(X):
            k = self.filled
            take = min(len(X), len(self.buffer) - k)
            np.copyto(self.buffer[k : k + take], X[:take].transpose(0, 2, 1))
            self.filled, X = k + take, X[take:]
            if self.filled == len(self.buffer):
                self._reduce()

    def _reduce(self) -> None:
        chunk = slice(self.reduced, self.reduced + self.filled)
        Y = self.buffer[: self.filled]
        hi, lo = Y.max(axis=2, out=self.hi[chunk]), Y.min(axis=2, out=self.lo[chunk])
        # Which zero an all-zero tie returns, +0.0 or -0.0, depends on the
        # reduction order: redo such samples in agent order, as X.max(axis=1)
        # on their (samples, n, d) copy.
        for out, reduce in ((hi, np.maximum.reduce), (lo, np.minimum.reduce)):
            rows = np.flatnonzero((out == 0).any(axis=1))
            out[rows] = reduce(Y[rows].transpose(0, 2, 1).copy(), axis=1)
        np.abs(Y, out=Y)
        Y.max(axis=2, out=self.abs_hi[chunk])
        Y.min(axis=2, out=self.abs_lo[chunk])
        self.reduced, self.filled = chunk.stop, 0

    def done(self) -> "_Series":
        if self.filled:
            self._reduce()
        self.abs_spread = self.abs_hi - self.abs_lo
        self.diameters = self.hi - self.lo
        self.v = self.diameters.max(axis=1)
        return self

    @classmethod
    def of(cls, traj: Trajectory) -> "_Series":
        """The series of a stored trajectory."""
        X = traj.blocks()
        ser = cls(traj.times, traj.n, traj.d, X.dtype)
        ser.add(X)
        return ser.done()

    def tol(self, tol_monotone: float | None) -> float:
        """``tol_monotone``, by default 1e-8 * max(1, V(t0))."""
        if tol_monotone is None:
            return 1e-8 * max(1.0, float(self.v[0]))
        return real("tol_monotone", tol_monotone, minimum=0)


def max_series(traj: Trajectory) -> np.ndarray:
    """M_k(t): per-axis maxima over agents, shape (samples, d)."""
    return _Series.of(traj).hi


def min_series(traj: Trajectory) -> np.ndarray:
    """m_k(t): per-axis minima over agents, shape (samples, d)."""
    return _Series.of(traj).lo


def diameters_series(traj: Trajectory) -> np.ndarray:
    """D_k(t) = M_k - m_k, shape (samples, d)."""
    return _Series.of(traj).diameters


def lyapunov_series(traj: Trajectory) -> np.ndarray:
    """V(t): maximum side length of the supporting box of the agent states."""
    return _Series.of(traj).v


def abs_max_series(traj: Trajectory) -> np.ndarray:
    """Per-axis max_i |x_ik|, shape (samples, d)."""
    return _Series.of(traj).abs_hi


def square_max_series(traj: Trajectory) -> np.ndarray:
    """y_k(t) = max_i x_ik^2, shape (samples, d): exactly (max_i |x_ik|)^2,
    since rounding x^2 is monotone in |x|."""
    return _Series.of(traj).abs_hi ** 2


def abs_spread_series(traj: Trajectory) -> np.ndarray:
    """Per-axis max_i |x_ik| - min_i |x_ik|, shape (samples, d)."""
    return _Series.of(traj).abs_spread


@dataclass(frozen=True)
class MonitorViolation:
    """A sampled breach of a monotone invariant."""

    sample: int
    time: float
    axis: int
    kind: str
    excess: float

    def __str__(self) -> str:
        return (
            f"sample {self.sample} (t={self.time:.6g}) axis {self.axis}: "
            f"{self.kind} moved outward by {self.excess:.3g}"
        )


def monotonicity_monitor(
    traj: Trajectory,
    mode: MonitorMode | str,
    tol_monotone: float | None = None,
) -> list[MonitorViolation]:
    """Flag samples where a monotone invariant moved the wrong way.

    CooperativeBox: any per-axis maximum increasing or minimum decreasing
    between consecutive samples by more than the tolerance. SignedSquare: any
    increase of y_k = max_i x_ik^2 beyond the tolerance.
    """
    mode = member("mode", mode, MonitorMode)
    ser = _Series.of(traj)
    return _monitor(ser, mode, ser.tol(tol_monotone))


def _monitor(ser: _Series, mode: MonitorMode, tol: float) -> list[MonitorViolation]:
    violations: list[MonitorViolation] = []
    if mode is MonitorMode.COOPERATIVE_BOX:
        checks = [(ser.hi, 1.0, "M_k"), (ser.lo, -1.0, "m_k")]
    else:
        checks = [(ser.abs_hi**2, 1.0, "y_k")]
    for series, direction, name in checks:
        drift = direction * np.diff(series, axis=0)
        s, k = np.nonzero(drift > tol)
        columns = ((s + 1).tolist(), ser.times[s + 1].tolist(), (k + 1).tolist())
        violations += map(MonitorViolation, *columns, repeat(name), drift[s, k].tolist())
    violations.sort(key=lambda v: (v.sample, v.axis, v.kind))
    return violations


# Rate estimation -------------------------------------------------------------

FIT_FLOOR = 1e-14


@dataclass(frozen=True)
class RateFit:
    """Log-linear tail fit of a decaying series; unpacks as (lambda_hat, r2)."""

    lambda_hat: float
    r_squared: float
    truncated: bool = False
    samples_used: int = 0

    def __iter__(self) -> Iterator[float]:
        return iter((self.lambda_hat, self.r_squared))


def _tail_fraction(tail_fraction: float) -> float:
    if real("tail_fraction", tail_fraction, above=0) > 1:
        raise DomainError(f"tail_fraction must be in (0, 1], got {tail_fraction}")
    return float(tail_fraction)


def fit_exponential_rate(
    series: tuple[Sequence[float], Sequence[float]],
    tail_fraction: float = 0.5,
) -> RateFit:
    """Least-squares slope of log V over the tail window; lambda = -slope.

    ``series`` is (times, values), finite, with strictly increasing times.
    Values at or below the numerical floor truncate the fit there (flagged in
    the result). A constant series fits exactly with rate zero.
    """
    tail_fraction = _tail_fraction(tail_fraction)
    t, v = series
    t = reals("times", t, (None,))
    v = reals("values", v, t.shape)
    if t.size < 2 or not (t[1:] > t[:-1]).all():
        raise DomainError("need >= 2 samples, at strictly increasing times")
    start = t.size - max(2, int(math.ceil(tail_fraction * t.size)))
    t, v = t[start:], v[start:]
    truncated = False
    below = np.nonzero(v <= FIT_FLOOR)[0]
    if below.size:
        truncated = True
        t, v = t[: below[0]], v[: below[0]]
    if t.size < 2:
        raise DomainError("tail has fewer than 2 samples above the floor")
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    resid = logv - (slope * t + intercept)
    ss_res = float(resid @ resid)
    centered = logv - logv.mean()
    ss_tot = float(centered @ centered)
    # Variation at rounding level means the fit is exact for all purposes.
    rounding = (1e-12 * max(1.0, float(np.abs(logv).max()))) ** 2 * logv.size
    r2 = 1.0 if ss_tot <= rounding else 1.0 - ss_res / ss_tot
    return RateFit(
        lambda_hat=float(-slope),
        r_squared=r2,
        truncated=truncated,
        samples_used=int(t.size),
    )


# Agreement verdicts -----------------------------------------------------------


@dataclass(frozen=True)
class AgreementVerdict:
    """Whether V settled below a threshold, and the first time it stayed there."""

    achieved: bool
    epsilon: float
    time: float | None
    final_value: float

    def __bool__(self) -> bool:
        return self.achieved


def agreement_verdict(traj: Trajectory, eps: float) -> AgreementVerdict:
    """True iff V at the final sample is within eps; reports the first time
    V drops below eps and never exceeds it again through the horizon."""
    return _verdict(_Series.of(traj), eps)


def _verdict(ser: _Series, eps: float) -> AgreementVerdict:
    eps = real("eps", eps, above=0)
    v = ser.v
    if v[-1] > eps:
        return AgreementVerdict(False, eps, None, float(v[-1]))
    above = np.nonzero(v > eps)[0]
    hit = 0 if above.size == 0 else int(above[-1]) + 1
    return AgreementVerdict(True, eps, float(ser.times[hit]), float(v[-1]))


def absolute_value_agreement(
    traj: Trajectory,
    tol: float,
    tol_monotone: float | None = None,
    tail_fraction: float = 0.5,
) -> np.ndarray:
    """Per-axis verdicts that agents agree in absolute value.

    Axis k passes iff the final spread of |x_ik| is within ``tol`` and the
    per-axis envelope max_i |x_ik| is non-increasing (within ``tol_monotone``)
    over the tail window. The envelope, not the spread itself, is the
    monotone quantity: rotating dynamics make the spread oscillate on its way
    to zero, while the envelope shrinks whenever the signed cone condition
    holds, so it is the sound guard against a lucky final dip.
    """
    tail_fraction = _tail_fraction(tail_fraction)
    return _abs_agreement(_Series.of(traj), tol, tol_monotone, tail_fraction)


def _abs_agreement(ser: _Series, tol: float, tol_monotone, tail_fraction) -> np.ndarray:
    tol = real("tol", tol, above=0)
    spread, envelope = ser.abs_spread, ser.abs_hi
    start = spread.shape[0] - max(2, int(math.ceil(tail_fraction * spread.shape[0])))
    tail = envelope[max(start, 0):]
    final_ok = spread[-1] <= tol
    monotone_ok = (np.diff(tail, axis=0) <= ser.tol(tol_monotone)).all(axis=0)
    return final_ok & monotone_ok


# Contraction-rate bound -------------------------------------------------------


@dataclass(frozen=True)
class RateBound:
    """Per-sweep contraction factor and the exponential rate it implies."""

    beta: float
    beta_star: float

    def __iter__(self) -> Iterator[float]:
        return iter((self.beta, self.beta_star))


def t_bar_from_window(n: int, T: float, tau_d: float) -> float:
    """Sweep length n^2 (T + 2 tau_d) from a connectivity window and dwell time."""
    n = integer("n", n)
    if n < 2:
        raise DomainError("need at least 2 agents")
    T, tau_d = real("T", T, above=0), real("tau_d", tau_d, above=0)
    return real("n^2 (T + 2 tau_d)", real("n^2", n * n) * (T + 2.0 * tau_d))


def rate_bound(
    n: int,
    d: int,
    T_bar: float,
    gamma: float,
    tau_d: float,
    L_star: float,
    L_plus: float,
) -> RateBound:
    """Closed-form (beta, beta*) for the given sweep length and constants."""
    n, d = integer("n", n), integer("d", d)
    if n < 2:
        raise DomainError("need at least 2 agents")
    if d < 1:
        raise DomainError("dimension must be positive")
    real("n", n)  # n and d within the float range, as n L* T' and d T' use them
    real("d", d)
    names = ("T_bar", "gamma", "tau_d", "L_star", "L_plus")
    values = (T_bar, gamma, tau_d, L_star, L_plus)
    T_bar, gamma, tau_d, L_star, L_plus = (real(k, x, above=0) for k, x in zip(names, values))
    # min(r^(n-1) / 2, 1/2) as 0.5 * min(r, 1)^(n-1): the power stays in [0, 1].
    shrink = 0.5 * min(gamma * tau_d / (L_plus * tau_d + 1.0), 1.0) ** (n - 1)
    beta = math.exp(-n * L_star * T_bar) * shrink
    # ln(1/(1-beta)) via log1p so tiny beta does not round to zero.
    beta_star = -math.log1p(-beta) / (d * T_bar)
    return RateBound(beta=beta, beta_star=beta_star)


# Aggregate report -------------------------------------------------------------


@dataclass(eq=False)
class AgreementReport:
    """Everything the CLI serializes about one trajectory."""

    times: np.ndarray
    lyapunov: np.ndarray
    diameters: np.ndarray
    axis_max: np.ndarray
    axis_min: np.ndarray
    abs_max: np.ndarray
    square_max: np.ndarray
    abs_spread: np.ndarray
    lambda_hat: float | None
    r_squared: float | None
    fit_truncated: bool
    agreement: AgreementVerdict
    abs_agreement: np.ndarray
    monitor_mode: MonitorMode | None
    monitor_violations: list[MonitorViolation] = field(default_factory=list)
    feasibility_violations: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        fields = self._json_fields()
        for key in ("V", "diameters", "abs_spread"):
            fields[key] = fields[key].tolist()
        return fields

    def _json_fields(self) -> dict:
        """``to_json_dict`` with its three series left as arrays, which
        ``cli.write_metrics_json`` converts one slice at a time."""
        return {
            "V": self.lyapunov,
            "diameters": self.diameters,
            "abs_spread": self.abs_spread,
            "lambda_hat": self.lambda_hat,
            "r2": self.r_squared,
            "fit_truncated": self.fit_truncated,
            "verdicts": {
                "agreement": self.agreement.achieved,
                "agreement_eps": self.agreement.epsilon,
                "agreement_time": self.agreement.time,
                "final_V": self.agreement.final_value,
                "abs_agreement_per_axis": [bool(b) for b in self.abs_agreement],
            },
            "violations": {
                "monitor": [str(v) for v in self.monitor_violations],
                "feasibility": [str(v) for v in self.feasibility_violations],
            },
        }


def build_report(
    traj: Trajectory,
    eps_agreement: float = 1e-6,
    monitor_mode: MonitorMode | str | None = None,
    tol_monotone: float | None = None,
    tail_fraction: float = 0.5,
) -> AgreementReport:
    """Compute the full metric set for a trajectory from one pass over it;
    ``tail_fraction`` sets the tail of both the rate fit and ``abs_agreement``."""
    tail_fraction = _tail_fraction(tail_fraction)
    return _report(_Series.of(traj), list(traj.feasibility_violations or []), eps_agreement,
                   monitor_mode, tol_monotone, tail_fraction)


def run_report(scenario, rows: Callable) -> AgreementReport:
    """Integrate ``scenario`` and report on it while holding one sample chunk
    of its states at a time, never the trajectory.

    Every chunk (p, samples, states) the integrator yields goes to the series
    reduction, then to ``rows(times, p, samples, states)`` with the sample
    times, then to the feasibility validator when the scenario names an
    assumption. The report is the one ``build_report`` gives for
    ``simulate(scenario)``.
    """
    times, runs = dynamics._schedule(scenario)
    ser = _Series(times, scenario.n, scenario.d)

    def chunks():
        for p, samples, X in dynamics._sample_chunks(scenario, times, runs):
            ser.add(X)
            rows(times, p, samples, X)
            yield p, samples, X

    violations: list = []
    if scenario.assumption is None:
        for _chunk in chunks():
            pass
    else:
        violations = dynamics._violations(
            chunks(), times, scenario.protocol, scenario.assumption, None,
            scenario.face_tolerance, scenario.strictness_tolerance,
        )
    return _report(ser.done(), violations, scenario.eps_agreement, scenario.monitor_mode,
                   scenario.tol_monotone, 0.5)


def _report(ser: _Series, violations: list, eps_agreement, monitor_mode, tol_monotone,
            tail_fraction: float) -> AgreementReport:
    lam: float | None
    try:
        fit = fit_exponential_rate((ser.times, ser.v), tail_fraction)
        lam, r2, truncated = fit.lambda_hat, fit.r_squared, fit.truncated
    except DomainError:
        lam, r2, truncated = None, None, True
    mode = member("monitor_mode", monitor_mode, MonitorMode, off=True)
    return AgreementReport(
        times=ser.times,
        lyapunov=ser.v,
        diameters=ser.diameters,
        axis_max=ser.hi,
        axis_min=ser.lo,
        abs_max=ser.abs_hi,
        square_max=ser.abs_hi**2,
        abs_spread=ser.abs_spread,
        lambda_hat=lam,
        r_squared=r2,
        fit_truncated=truncated,
        agreement=_verdict(ser, eps_agreement),
        abs_agreement=_abs_agreement(ser, eps_agreement, tol_monotone, tail_fraction),
        monitor_mode=mode,
        monitor_violations=(
            _monitor(ser, mode, ser.tol(tol_monotone)) if mode else []
        ),
        feasibility_violations=violations,
    )
