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

from .errors import DomainError
from .graphs import SignedDigraph


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
        angles = [float(angles)]
    angles = [float(a) for a in angles]
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


def _dimension_of_angles(angles: float | Sequence[float]) -> int:
    count = 1 if np.isscalar(angles) else len(list(angles))
    d = 2
    while d * (d - 1) // 2 < count:
        d += 1
    if d * (d - 1) // 2 != count:
        raise DomainError(f"{count} angles do not fill the planes of any dimension")
    return d


FieldFn = Callable[[Any, np.ndarray], np.ndarray]


@dataclass
class ProtocolSpec:
    """A named vector-field family with its graphs, weights, and cone margin.

    ``weights`` is either one positive number applied to every arc or a map
    from (j, i) to a positive number. ``rotation`` (rotated kind only) is a
    single angle spec applied to every agent or a sequence of per-agent angle
    specs. ``gamma`` is the declared cone margin used by the feasibility
    validator.
    """

    kind: ProtocolKind
    family: Mapping[Any, SignedDigraph]
    gamma: float
    weights: float | Mapping[tuple[int, int], float] = 1.0
    rotation: Any = None
    field_fn: FieldFn | None = None

    n: int = field(init=False)
    _W: dict = field(init=False, repr=False)
    _S: dict = field(init=False, repr=False)
    _R: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if isinstance(self.kind, str):
            self.kind = ProtocolKind(self.kind)
        if not self.family:
            raise DomainError("protocol needs a nonempty graph family")
        ns = {g.n for g in self.family.values()}
        if len(ns) > 1:
            raise DomainError("family graphs disagree on node count")
        self.n = ns.pop()
        if self.gamma <= 0:
            raise DomainError("gamma must be positive")
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
        self._build_rotations()

    def weight(self, j: int, i: int) -> float:
        if isinstance(self.weights, Mapping):
            try:
                w = float(self.weights[(j, i)])
            except KeyError as exc:
                raise DomainError(f"no weight for arc ({j},{i})") from exc
        else:
            w = float(self.weights)
        if w <= 0:
            raise DomainError(f"weight a_{j}{i} must be positive, got {w}")
        return w

    def min_weight(self) -> float:
        """Smallest weight over arcs present in the family."""
        ws = [
            self.weight(j, i)
            for g in self.family.values()
            for (j, i, _s) in g.arcs
            if j != i
        ]
        return min(ws) if ws else float("inf")

    def _build_matrices(self):
        self._W, self._S = {}, {}
        for p, g in self.family.items():
            W = np.zeros((self.n, self.n))
            S = np.ones((self.n, self.n))
            for (j, i, s) in g.arcs:
                if j == i:
                    continue  # continuous-time protocols take N_i without i
                W[i - 1, j - 1] = self.weight(j, i)
                S[i - 1, j - 1] = s
            self._W[p] = W
            self._S[p] = S

    def _build_rotations(self):
        if self.kind is not ProtocolKind.ROTATED_CONSENSUS:
            return
        angles = self.rotation
        per_agent: list
        if np.isscalar(angles):
            per_agent = [angles] * self.n
        else:
            angles = list(angles)
            if all(np.isscalar(a) for a in angles) and len(angles) != self.n:
                # One shared angle set (d > 2) for every agent.
                per_agent = [angles] * self.n
            else:
                # Per-agent entries; each is an angle or an angle set.
                per_agent = angles
        if len(per_agent) != self.n:
            raise DomainError(f"need rotation angles for each of {self.n} agents")
        d = _dimension_of_angles(per_agent[0])
        self._R = np.stack([rotation_matrix(a, d) for a in per_agent])

    @property
    def rotation_dim(self) -> int | None:
        return None if self._R is None else self._R.shape[1]

    def neighbor_mask(self, p: Any, include_self: bool = True) -> np.ndarray:
        """Boolean (n, n) mask: row i marks the local hull members of agent i."""
        mask = self._W[p] > 0
        if include_self:
            mask = mask | np.eye(self.n, dtype=bool)
        return mask

    def sign_matrix(self, p: Any) -> np.ndarray:
        return self._S[p]

    def operator(self, p: Any) -> np.ndarray:
        """L_p = W∘S − diag(rowsum(W)), with S = 1 unless the kind is signed:
        the (n, n) linear part of graph p's built-in field."""
        W = self._W[p]
        M = W * self._S[p] if self.kind is ProtocolKind.SIGNED_CONSENSUS else W
        return M - np.diag(W.sum(axis=1))

    def linear_field(self, p: Any, X: np.ndarray) -> np.ndarray:
        """The built-in field R_i (L_p X)_i at states X shaped (..., n, d)."""
        if self.kind is ProtocolKind.CUSTOM:
            raise DomainError("custom protocols have no generic linear form")
        F = self.operator(p) @ X
        if self._R is None:
            return F
        if self._R.shape[1] != X.shape[-1]:
            raise DomainError(
                f"rotation built for d={self._R.shape[1]} but state has d={X.shape[-1]}"
            )
        return np.einsum("aij,...aj->...ai", self._R, F)

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


def consensus_field(spec: ProtocolSpec, p: Any, x: np.ndarray) -> np.ndarray:
    """spec.field: f_i = sum_{j in N_i(p)} a_ij (x_j - x_i) for the weighted kind."""
    return spec.field(p, x)


def rotated_field(spec: ProtocolSpec, p: Any, x: np.ndarray) -> np.ndarray:
    """spec.field: the consensus field rotated per agent, for the rotated kind."""
    return spec.field(p, x)


def signed_field(spec: ProtocolSpec, p: Any, x: np.ndarray) -> np.ndarray:
    """spec.field: f_i = sum_{j in N_i(p)} a_ij (sign_ij x_j - x_i) for the signed kind."""
    return spec.field(p, x)


def protocol_field(spec: ProtocolSpec, p: Any, x: np.ndarray) -> np.ndarray:
    return spec.field(p, x)
