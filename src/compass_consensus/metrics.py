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
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError
from .dynamics import Trajectory


class MonitorMode(Enum):
    COOPERATIVE_BOX = "CooperativeBox"
    SIGNED_SQUARE = "SignedSquare"


# Per-sample series -----------------------------------------------------------


class _Series:
    """Per-axis max/min over agents of x and of |x|, each (samples, d), and V.

    Four reductions of one contiguous (samples, d, agents) copy of the
    states; every series, verdict and monitor is derived from them.
    """

    def __init__(self, traj: Trajectory):
        X = traj.blocks()
        Y = np.ascontiguousarray(X.transpose(0, 2, 1))
        self.hi, self.lo = Y.max(axis=2), Y.min(axis=2)
        # Which zero an all-zero tie returns, +0.0 or -0.0, depends on the
        # reduction order: redo such samples in agent order, as X.max(axis=1).
        for out, reduce in ((self.hi, np.maximum.reduce), (self.lo, np.minimum.reduce)):
            rows = np.flatnonzero((out == 0).any(axis=1))
            out[rows] = reduce(X[rows], axis=1)
        A = np.abs(Y)
        self.abs_hi, self.abs_lo = A.max(axis=2), A.min(axis=2)
        self.abs_spread = self.abs_hi - self.abs_lo
        self.diameters = self.hi - self.lo
        self.v = self.diameters.max(axis=1)
        self.times = traj.times

    def tol(self, tol_monotone: float | None) -> float:
        """``tol_monotone``, by default 1e-8 * max(1, V(t0))."""
        return 1e-8 * max(1.0, float(self.v[0])) if tol_monotone is None else float(tol_monotone)


def max_series(traj: Trajectory) -> np.ndarray:
    """M_k(t): per-axis maxima over agents, shape (samples, d)."""
    return _Series(traj).hi


def min_series(traj: Trajectory) -> np.ndarray:
    """m_k(t): per-axis minima over agents, shape (samples, d)."""
    return _Series(traj).lo


def diameters_series(traj: Trajectory) -> np.ndarray:
    """D_k(t) = M_k - m_k, shape (samples, d)."""
    return _Series(traj).diameters


def lyapunov_series(traj: Trajectory) -> np.ndarray:
    """V(t): maximum side length of the supporting box of the agent states."""
    return _Series(traj).v


def abs_max_series(traj: Trajectory) -> np.ndarray:
    """Per-axis max_i |x_ik|, shape (samples, d)."""
    return _Series(traj).abs_hi


def square_max_series(traj: Trajectory) -> np.ndarray:
    """y_k(t) = max_i x_ik^2, shape (samples, d): exactly (max_i |x_ik|)^2,
    since rounding x^2 is monotone in |x|."""
    return _Series(traj).abs_hi ** 2


def abs_spread_series(traj: Trajectory) -> np.ndarray:
    """Per-axis max_i |x_ik| - min_i |x_ik|, shape (samples, d)."""
    return _Series(traj).abs_spread


def default_tol_monotone(traj: Trajectory) -> float:
    """Scale-relative monotonicity tolerance: 1e-8 * max(1, V(t0))."""
    return _Series(traj).tol(None)


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
    ser = _Series(traj)
    return _monitor(ser, MonitorMode(mode), ser.tol(tol_monotone))


def _monitor(ser: _Series, mode: MonitorMode, tol: float) -> list[MonitorViolation]:
    violations: list[MonitorViolation] = []
    if mode is MonitorMode.COOPERATIVE_BOX:
        checks = [(ser.hi, 1.0, "M_k"), (ser.lo, -1.0, "m_k")]
    else:
        checks = [(ser.abs_hi**2, 1.0, "y_k")]
    for series, direction, name in checks:
        drift = direction * np.diff(series, axis=0)
        for s, k in np.argwhere(drift > tol):
            violations.append(
                MonitorViolation(
                    sample=int(s) + 1,
                    time=float(ser.times[s + 1]),
                    axis=int(k) + 1,
                    kind=name,
                    excess=float(drift[s, k]),
                )
            )
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


def fit_exponential_rate(
    series: tuple[Sequence[float], Sequence[float]] | np.ndarray,
    tail_fraction: float = 0.5,
) -> RateFit:
    """Least-squares slope of log V over the tail window; lambda = -slope.

    ``series`` is (times, values) or an (m, 2) array. Values at or below the
    numerical floor truncate the fit there (flagged in the result). A constant
    series fits exactly with rate zero.
    """
    if isinstance(series, np.ndarray) and series.ndim == 2:
        t, v = series[:, 0], series[:, 1]
    else:
        t, v = series
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    if t.shape != v.shape or t.ndim != 1 or t.size < 2:
        raise DomainError("need matching 1-D times and values with >= 2 samples")
    if not 0 < tail_fraction <= 1:
        raise DomainError("tail_fraction must be in (0, 1]")
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
    return _verdict(_Series(traj), eps)


def _verdict(ser: _Series, eps: float) -> AgreementVerdict:
    if eps <= 0:
        raise DomainError("eps must be positive")
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
    return _abs_agreement(_Series(traj), tol, tol_monotone, tail_fraction)


def _abs_agreement(ser: _Series, tol: float, tol_monotone, tail_fraction=0.5) -> np.ndarray:
    if tol <= 0:
        raise DomainError("tol must be positive")
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
    if n < 2:
        raise DomainError("need at least 2 agents")
    if T <= 0 or tau_d <= 0:
        raise DomainError("T and tau_d must be positive")
    return n * n * (T + 2.0 * tau_d)


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
    if n < 2:
        raise DomainError("need at least 2 agents")
    if d < 1:
        raise DomainError("dimension must be positive")
    for name, val in (
        ("T_bar", T_bar),
        ("gamma", gamma),
        ("tau_d", tau_d),
        ("L_star", L_star),
        ("L_plus", L_plus),
    ):
        if val <= 0:
            raise DomainError(f"{name} must be positive")
    shrink = (gamma * tau_d) ** (n - 1) / (2.0 * (L_plus * tau_d + 1.0) ** (n - 1))
    beta = math.exp(-n * L_star * T_bar) * min(shrink, 0.5)
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
        return {
            "V": self.lyapunov.tolist(),
            "diameters": self.diameters.tolist(),
            "abs_spread": self.abs_spread.tolist(),
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
    abs_tol: float | None = None,
) -> AgreementReport:
    """Compute the full metric set for a trajectory from one pass over it."""
    ser = _Series(traj)
    lam: float | None
    try:
        fit = fit_exponential_rate((traj.times, ser.v), tail_fraction)
        lam, r2, truncated = fit.lambda_hat, fit.r_squared, fit.truncated
    except DomainError:
        lam, r2, truncated = None, None, True
    mode = MonitorMode(monitor_mode) if isinstance(monitor_mode, str) else monitor_mode
    return AgreementReport(
        times=traj.times,
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
        abs_agreement=_abs_agreement(
            ser, abs_tol if abs_tol is not None else eps_agreement, tol_monotone
        ),
        monitor_mode=mode,
        monitor_violations=(
            _monitor(ser, mode, ser.tol(tol_monotone)) if mode else []
        ),
        feasibility_violations=list(traj.feasibility_violations or []),
    )
