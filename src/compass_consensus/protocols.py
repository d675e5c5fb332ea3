"""Built-in interaction vector fields over a switched graph family.

Every protocol maps a family index p and a stacked state x in R^{d*n}
(agent-major blocks) to a stacked field. Built-ins:

* weighted consensus        f_i = sum_j a_ij (x_j - x_i)
* rotated consensus         f_i = R_i * sum_j a_ij (x_j - x_i)
* signed consensus          f_i = sum_j a_ij (sign_ij x_j - x_i)

Each is R_i (L_p X)_i with one operator L_p = W∘S − diag(rowsum(W)) per
graph (``ProtocolSpec.operator``), R_i = I unless the kind is rotated and
S = 1 unless it is signed. Agents with no in-neighbors get a zero field.
Rotations are per-agent orthogonal matrices with determinant +1,
parameterized by an angle for d = 2 or a list of d(d-1)/2 Givens-plane angles
for higher dimensions. A Custom protocol supplies its own callable and is
subject to the same feasibility validation as the built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .errors import DomainError, member, real
from .graphs import SignedDigraph, _node_count


class ProtocolKind(Enum):
    WEIGHTED_CONSENSUS = "WeightedConsensus"
    ROTATED_CONSENSUS = "RotatedConsensus"
    SIGNED_CONSENSUS = "SignedConsensus"
    CUSTOM = "Custom"


def givens_planes(d: int) -> list[tuple[int, int]]:
    """Rotation planes (k, l), k < l, in lexicographic order."""
    return [(k, l) for k in range(d) for l in range(k + 1, d)]


def rotation_matrix(angles: float | Sequence[float], d: int) -> np.ndarray:
    """Orthogonal matrix with determinant +1 from plane angles.

    For d = 2 a single angle is accepted; otherwise exactly d(d-1)/2 angles,
    one per lexicographic plane, composed left to right.
    """
    if d < 1:
        raise DomainError("dimension must be positive")
    if np.isscalar(angles):
        angles = [angles]
    angles = [real("rotation angle", a) for a in angles]
    planes = givens_planes(d)
    if len(angles) != len(planes):
        raise DomainError(
            f"need {len(planes)} plane angles for d={d}, got {len(angles)}"
        )
    R = np.eye(d)
    for (k, l), theta in zip(planes, angles):
        G = np.eye(d)
        c, s = np.cos(theta), np.sin(theta)
        G[k, k] = c
        G[l, l] = c
        G[k, l] = -s
        G[l, k] = s
        R = G @ R
    return R


def rotation_matrices(rotation: Any, n: int, d: int) -> np.ndarray:
    """Per-agent rotations, shaped (n, d, d), for states of dimension d.

    A scalar, or a flat list of d(d-1)/2 numbers, is one angle set shared by
    every agent; anything else is one entry per agent, each an angle set as
    ``rotation_matrix`` takes it.
    """
    shared = np.isscalar(rotation) or (
        len(rotation) == d * (d - 1) // 2 and all(np.isscalar(a) for a in rotation)
    )
    if shared:
        return np.repeat(rotation_matrix(rotation, d)[None], n, axis=0)
    if len(rotation) != n:
        raise DomainError(f"need rotation angles for each of {n} agents")
    return np.stack([rotation_matrix(a, d) for a in rotation])


FieldFn = Callable[[Any, np.ndarray], np.ndarray]


@dataclass
class ProtocolSpec:
    """A named vector-field family with its graphs, weights, and cone margin.

    ``weights`` is either one positive number applied to every arc or a map
    from (j, i) to a positive number. ``rotation`` (rotated kind only) is kept
    as given and resolved against the state dimension by ``rotations(d)``
    (see ``rotation_matrices``). ``gamma`` is the declared cone margin used by
    the feasibility validator.
    """

    kind: ProtocolKind
    family: Mapping[Any, SignedDigraph]
    gamma: float
    weights: float | Mapping[tuple[int, int], float] = 1.0
    rotation: Any = None
    field_fn: FieldFn | None = None

    n: int = field(init=False)
    _L: dict = field(init=False, repr=False, compare=False)
    _rotations: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        self.kind = member("kind", self.kind, ProtocolKind)
        if not self.family:
            raise DomainError("protocol needs a nonempty graph family")
        self.n = _node_count(self.family, self.family)
        self.gamma = real("gamma", self.gamma, above=0)
        weights = self.weights.values() if isinstance(self.weights, Mapping) else [self.weights]
        for w in weights:
            real("weights", w, above=0)
        if self.kind is ProtocolKind.CUSTOM:
            if self.field_fn is None:
                raise DomainError("Custom protocol needs a field_fn")
        elif self.field_fn is not None:
            raise DomainError("field_fn is only valid for the Custom kind")
        if self.kind in (
            ProtocolKind.WEIGHTED_CONSENSUS,
            ProtocolKind.ROTATED_CONSENSUS,
        ):
            for p, g in self.family.items():
                if any(s == -1 for (_j, _i, s) in g.arcs):
                    raise DomainError(
                        f"graph {p!r} has antagonistic arcs; use the signed kind"
                    )
        if self.kind is ProtocolKind.ROTATED_CONSENSUS and self.rotation is None:
            raise DomainError("rotated protocol needs rotation angles")
        if self.kind is not ProtocolKind.ROTATED_CONSENSUS and self.rotation is not None:
            raise DomainError("rotation is only valid for the rotated kind")
        self._build_matrices()

    def weight(self, j: int, i: int) -> float:
        if isinstance(self.weights, Mapping):
            try:
                return float(self.weights[(j, i)])
            except KeyError as exc:
                raise DomainError(f"no weight for arc ({j},{i})") from exc
        return float(self.weights)

    def _build_matrices(self):
        """One read-only operator L_p per graph (see ``operator``)."""
        signed = self.kind is ProtocolKind.SIGNED_CONSENSUS
        scalar = None if isinstance(self.weights, Mapping) else float(self.weights)
        self._L = {}
        for p, g in self.family.items():
            try:
                L = np.zeros((self.n, self.n))
            except ValueError as exc:  # numpy refuses the shape without allocating
                raise DomainError(f"too many nodes for an n x n operator: {exc}") from exc
            arcs = g.in_arcs()  # continuous-time protocols take N_i without i
            head, tail, sign = np.array(arcs, dtype=int).reshape(-1, 3).T
            L[head, tail] = scalar or [self.weight(j + 1, i + 1) for i, j, _s in arcs]
            rowsum = L.sum(axis=1)  # rowsum(W), taken before the signs are applied
            flip = (sign < 0) & signed
            L[head[flip], tail[flip]] *= -1.0
            np.fill_diagonal(L, 0.0 - rowsum)
            L.flags.writeable = False  # shared by every caller
            self._L[p] = L

    def rotations(self, d: int) -> np.ndarray | None:
        """Per-agent rotations (n, d, d) for states of dimension d, built once
        per d; None unless the kind is rotated."""
        if self.rotation is None:
            return None
        if d not in self._rotations:
            R = rotation_matrices(self.rotation, self.n, d)
            R.flags.writeable = False  # shared by every caller
            self._rotations[d] = R
        return self._rotations[d]

    def operator(self, p: Any) -> np.ndarray:
        """L_p = W∘S − diag(rowsum(W)), with S = 1 unless the kind is signed:
        the read-only (n, n) linear part of graph p's built-in field."""
        return self._L[p]

    def linear_field(self, p: Any, X: np.ndarray) -> np.ndarray:
        """The built-in field R_i (L_p X)_i at states X shaped (..., n, d)."""
        if self.kind is ProtocolKind.CUSTOM:
            raise DomainError("custom protocols have no generic linear form")
        F = self.operator(p) @ X
        R = self.rotations(X.shape[-1])
        return F if R is None else np.einsum("aij,...aj->...ai", R, F)

    def field(self, p: Any, x: np.ndarray) -> np.ndarray:
        """Stacked vector field f_p(x) for the active graph index p."""
        if self.kind is ProtocolKind.CUSTOM:
            f = np.asarray(self.field_fn(p, x), dtype=float)
            if f.shape != np.shape(x):
                raise DomainError("custom field must return a vector shaped like x")
            return f
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size % self.n:
            raise DomainError(f"state length must be a multiple of n={self.n}")
        return self.linear_field(p, x.reshape(self.n, -1)).ravel()
