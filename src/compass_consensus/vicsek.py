"""Discrete-time planar flocking with heading averaging.

Each agent moves at a common speed along its heading and replaces the heading
with the quadrant-aware average of its neighbors' current headings,

    x_i(t+1)     = x_i(t) + v cos(theta_i(t))
    y_i(t+1)     = y_i(t) + v sin(theta_i(t))
    theta_i(t+1) = atan2(sum_j sin(theta_j(t)), sum_j cos(theta_j(t)))

with the sums over a neighbor set that always contains the agent itself.
atan2 (rather than the arctangent of the quotient) keeps the quadrant of the
averaged direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, real, reals

NeighborRule = Callable[["VicsekState"], Sequence[np.ndarray]]


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Normalize angles into (-pi, pi]."""
    theta = np.asarray(theta, dtype=float)
    wrapped = np.mod(theta + np.pi, 2 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


@dataclass(frozen=True, eq=False)
class VicsekState:
    """Positions (n, 2), headings (n,) in (-pi, pi], common speed and radius."""

    positions: np.ndarray
    headings: np.ndarray
    speed: float
    radius: float

    def __post_init__(self):
        pos = reals("positions", self.positions, (None, 2))
        headings = wrap_angle(reals("headings", self.headings, (len(pos),)))
        object.__setattr__(self, "speed", real("speed", self.speed, above=0))
        object.__setattr__(self, "radius", real("radius", self.radius, above=0))
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "headings", headings)

    @property
    def n(self) -> int:
        return self.positions.shape[0]


def complete_neighbors(state: VicsekState) -> list[np.ndarray]:
    """Every agent sees all agents (itself included)."""
    everyone = np.arange(state.n)
    return [everyone] * state.n


def radius_neighbors(state: VicsekState) -> list[np.ndarray]:
    """Agents within the interaction radius, always including the agent itself."""
    diff = state.positions[:, None, :] - state.positions[None, :, :]
    within = (diff ** 2).sum(axis=2) <= state.radius ** 2
    np.fill_diagonal(within, True)
    return [np.nonzero(row)[0] for row in within]


def vicsek_step(state: VicsekState, neighbor_rule: NeighborRule = radius_neighbors) -> VicsekState:
    """One synchronous update; positions advance along the pre-update headings."""
    neighbor_sets = neighbor_rule(state)
    if len(neighbor_sets) != state.n:
        raise DomainError("neighbor rule must yield one index set per agent")
    sin_t = np.sin(state.headings)
    cos_t = np.cos(state.headings)
    new_headings = np.empty(state.n)
    for i, nbrs in enumerate(neighbor_sets):
        nbrs = np.asarray(nbrs, dtype=int)
        if nbrs.size == 0:
            raise DomainError(f"agent {i} has an empty neighbor set")
        new_headings[i] = np.arctan2(sin_t[nbrs].sum(), cos_t[nbrs].sum())
    new_positions = state.positions + state.speed * np.column_stack((cos_t, sin_t))
    return VicsekState(new_positions, wrap_angle(new_headings), state.speed, state.radius)


def heading_spread(state: VicsekState) -> float:
    """max theta - min theta; meaningful while headings stay in a half circle."""
    return float(state.headings.max() - state.headings.min())


def simulate_vicsek(
    state: VicsekState,
    steps: int,
    neighbor_rule: NeighborRule = radius_neighbors,
) -> list[VicsekState]:
    """Iterate vicsek_step; returns the list of states including the initial one."""
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    out = [state]
    for _ in range(steps):
        state = vicsek_step(state, neighbor_rule)
        out.append(state)
    return out
