"""Axis-aligned hyperrectangles and tangent-cone membership tests.

The central objects are the supporting hyperrectangle of a finite point set
(the smallest axis-aligned box containing it) and three cone predicates at a
point of such a box:

* the tangent cone: directions that do not immediately leave the box,
* the gamma-strict tangent cone: tangent directions whose component along
  every active facet axis has magnitude at least ``gamma`` times that axis's
  side length (at relative-interior points it degenerates to the carrier
  subspace of the box),
* the relative interior of the tangent cone: tangent directions strictly
  entering through every active facet.

All predicates have a closed form for axis-aligned boxes; a numeric probe
based on the clamp projection is provided as an independent cross-check of
the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DomainError, OutsideBoxError, real, reals

DEFAULT_PROBE_STEPS: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_STRICTNESS_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class Hyperrectangle:
    """Axis-aligned box given by per-axis closed intervals [lo_k, hi_k]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = reals("lo", self.lo, (None,))
        hi = reals("hi", self.hi, lo.shape)
        if lo.size == 0:
            raise DomainError("box must have at least one axis")
        if np.any(hi < lo):
            raise DomainError("every axis must satisfy lo_k <= hi_k")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean (convex) projection onto the box: per-axis clamp."""
        return np.clip(reals("x", x, self.lo.shape), self.lo, self.hi)

    def distance(self, x: np.ndarray) -> float:
        """Euclidean distance from ``x`` to the box."""
        x = reals("x", x, self.lo.shape)
        return float(np.linalg.norm(x - self.project(x)))

    def contains(self, x: np.ndarray, tol: float = 0.0) -> bool:
        x = reals("x", x, self.lo.shape)
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))

    def translate(self, offset: np.ndarray) -> "Hyperrectangle":
        offset = np.asarray(offset, dtype=float)
        return Hyperrectangle(self.lo + offset, self.hi + offset)


class Region(Enum):
    RELATIVE_INTERIOR = "RelativeInterior"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class PointClassification:
    """Where a point sits on a box.

    ``active_axes`` are axes on whose facets the point lies (within the face
    tolerance); ``degenerate_axes`` are axes of zero width, on which the point
    necessarily touches both coincident facets. The point is in the relative
    interior exactly when its only facet contacts come from degenerate axes.
    """

    region: Region
    active_axes: frozenset[int]
    degenerate_axes: frozenset[int]
    lower_axes: frozenset[int]
    upper_axes: frozenset[int]


@dataclass(frozen=True, eq=False)
class ConeQuery:
    """A point-direction query against a box, with explicit tolerances.

    ``face_tolerance`` is the absolute distance within which a coordinate
    counts as lying on a facet (``None`` selects the scale-aware default).
    ``strictness_tolerance`` serves two roles: the margin demanded by the
    strict inequalities of the relative-interior test, and the numeric slack
    granted to the sign and magnitude inequalities of the gamma-strict test
    (fields evaluated in floating point can sit a rounding error past an
    analytic equality).
    """

    point: np.ndarray
    box: Hyperrectangle
    direction: np.ndarray
    gamma: float = 0.0
    face_tolerance: float | None = None
    strictness_tolerance: float = DEFAULT_STRICTNESS_TOLERANCE

    def __post_init__(self):
        for name in ("point", "direction"):
            object.__setattr__(self, name, reals(name, getattr(self, name), self.box.lo.shape))
        ftol = self.face_tolerance
        if ftol is not None:
            object.__setattr__(self, "face_tolerance", real("face_tolerance", ftol, minimum=0))
        for name in ("strictness_tolerance", "gamma"):
            object.__setattr__(self, name, real(name, getattr(self, name), minimum=0))

    def resolved_face_tolerance(self) -> float:
        if self.face_tolerance is not None:
            return self.face_tolerance
        return default_face_tolerance(self.box)


def default_face_tolerance(box: Hyperrectangle) -> float:
    """Scale-aware facet tolerance: 1e-9 * max(1, rho(box))."""
    return 1e-9 * max(1.0, rho(box))


def supporting_hyperrectangle(points: Sequence[Sequence[float]]) -> Hyperrectangle:
    """Smallest axis-aligned box containing the points, the rows of ``points``."""
    arr = reals("points", points, (None, None))
    if not len(arr):  # numpy has no min over no points
        raise DomainError("need at least one point")
    return Hyperrectangle(arr.min(axis=0), arr.max(axis=0))


def side_lengths(box: Hyperrectangle) -> np.ndarray:
    """Per-axis widths hi_k - lo_k."""
    return box.hi - box.lo


def rho(box: Hyperrectangle) -> float:
    """Maximum side length of the box."""
    return float(np.max(box.hi - box.lo))


def classify_point(
    x: np.ndarray, box: Hyperrectangle, face_tolerance: float | None = None
) -> PointClassification:
    """Classify ``x`` relative to the box's facets.

    Raises OutsideBoxError if ``x`` is farther than ``face_tolerance`` outside
    the box on any axis.
    """
    x = reals("x", x, box.lo.shape)
    tol = default_face_tolerance(box) if face_tolerance is None else face_tolerance
    tol = real("face_tolerance", tol, minimum=0)
    if not box.contains(x, tol):
        raise OutsideBoxError(f"point {x} outside box beyond tolerance {tol}")
    at_lower = np.abs(x - box.lo) <= tol
    at_upper = np.abs(x - box.hi) <= tol
    degenerate = (box.hi - box.lo) <= 2 * tol
    active = at_lower | at_upper
    active_set = frozenset(int(k) for k in np.nonzero(active)[0])
    degen_set = frozenset(int(k) for k in np.nonzero(degenerate)[0])
    region = Region.RELATIVE_INTERIOR if active_set == degen_set else Region.BOUNDARY
    return PointClassification(
        region=region,
        active_axes=active_set,
        degenerate_axes=degen_set,
        lower_axes=frozenset(int(k) for k in np.nonzero(at_lower)[0]),
        upper_axes=frozenset(int(k) for k in np.nonzero(at_upper)[0]),
    )


def tangent_cone_contains(
    x: np.ndarray,
    box: Hyperrectangle,
    v: np.ndarray,
    face_tolerance: float | None = None,
) -> bool:
    """Closed-form tangent-cone membership for an axis-aligned box.

    On every axis, a direction must be nonnegative at the lower facet and
    nonpositive at the upper facet; on a zero-width axis the point touches
    both facets, which forces the component to vanish. Cross-validated against
    :func:`cone_membership_probe`.
    """
    v = reals("v", v, box.lo.shape)
    cls = classify_point(x, box, face_tolerance)
    for k in cls.lower_axes:
        if v[k] < 0.0:
            return False
    for k in cls.upper_axes:
        if v[k] > 0.0:
            return False
    return True


def gamma_cone_contains(q: ConeQuery) -> bool:
    """Membership of ``q.direction`` in the gamma-strict tangent cone.

    At a relative-interior point the cone is the carrier subspace: components
    on degenerate axes must vanish (within the strictness tolerance).
    Otherwise the direction must lie in the tangent cone and additionally have
    magnitude at least ``gamma * D_k`` along every active axis k. Both the
    facet-sign and the magnitude inequalities are granted a slack of
    ``strictness_tolerance`` so that fields sitting a rounding error past an
    analytic equality are not rejected.
    """
    if q.gamma <= 0:
        raise DomainError("gamma must be positive")
    tol = q.resolved_face_tolerance()
    s = q.strictness_tolerance
    v = q.direction
    cls = classify_point(q.point, q.box, tol)
    for k in cls.degenerate_axes:
        if abs(v[k]) > s:
            return False
    if cls.region is Region.RELATIVE_INTERIOR:
        return True
    widths = q.box.hi - q.box.lo
    for k in cls.active_axes:
        if k in cls.degenerate_axes:
            continue
        if k in cls.lower_axes and v[k] < -s:
            return False
        if k in cls.upper_axes and v[k] > s:
            return False
        if abs(v[k]) < q.gamma * widths[k] - s:
            return False
    return True


def relative_interior_cone_contains(q: ConeQuery) -> bool:
    """Membership of ``q.direction`` in the relative interior of the tangent cone.

    Strictness is quantified: at an active lower facet the component must be
    at least ``strictness_tolerance``, at an upper facet at most its negative,
    and on degenerate axes it must vanish within the same tolerance. ``gamma``
    is ignored.
    """
    tol = q.resolved_face_tolerance()
    s = q.strictness_tolerance
    v = q.direction
    cls = classify_point(q.point, q.box, tol)
    for k in cls.degenerate_axes:
        if abs(v[k]) > s:
            return False
    for k in cls.active_axes:
        if k in cls.degenerate_axes:
            continue
        if k in cls.lower_axes and v[k] < s:
            return False
        if k in cls.upper_axes and v[k] > -s:
            return False
    return True


def cone_membership_probe(
    x: np.ndarray,
    box: Hyperrectangle,
    v: np.ndarray,
    probe_steps: Sequence[float] = DEFAULT_PROBE_STEPS,
) -> float:
    """Numeric tangent-cone certificate: min over steps of dist(x + z*v, box) / z.

    A value near zero certifies membership; a value bounded away from zero
    certifies non-membership. The distance uses the exact convex projection
    onto the box (per-axis clamp).
    """
    x, v = reals("x", x, box.lo.shape), reals("v", v, box.lo.shape)
    if not box.contains(x, default_face_tolerance(box)):
        raise OutsideBoxError(f"probe base point {x} outside box")
    steps = [real("probe step", z, above=0) for z in probe_steps]
    if not steps:
        raise DomainError("need at least one probe step")
    return min(box.distance(x + z * v) / z for z in steps)
