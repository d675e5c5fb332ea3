import numpy as np
import pytest

from compass_consensus.errors import DomainError
from compass_consensus.vicsek import (
    VicsekState,
    complete_neighbors,
    heading_spread,
    radius_neighbors,
    simulate_vicsek,
    vicsek_step,
    wrap_angle,
)


def make_state(headings, positions=None, speed=1.0, radius=10.0):
    headings = np.asarray(headings, dtype=float)
    if positions is None:
        positions = np.zeros((headings.size, 2))
    return VicsekState(np.asarray(positions, float), headings, speed, radius)


class TestVicsekStep:
    def test_equal_headings_fixed_point(self):
        s = make_state([0.7, 0.7, 0.7])
        s2 = vicsek_step(s, complete_neighbors)
        assert np.allclose(s2.headings, 0.7)

    def test_two_mutual_average(self):
        s = make_state([0.0, np.pi / 2])
        s2 = vicsek_step(s, complete_neighbors)
        assert np.allclose(s2.headings, np.pi / 4)

    def test_position_advance_along_heading(self):
        s = make_state([0.0, 0.0], positions=[[1.0, 2.0], [0.0, 0.0]], speed=1.0)
        s2 = vicsek_step(s, complete_neighbors)
        assert np.array_equal(s2.positions[:, 0], s.positions[:, 0] + 1.0)
        assert np.array_equal(s2.positions[:, 1], s.positions[:, 1])

    def test_position_uses_pre_update_heading(self):
        # Headings change at the step, but motion uses the old ones.
        s = make_state([0.0, np.pi / 2], speed=2.0)
        s2 = vicsek_step(s, complete_neighbors)
        expect = s.positions + 2.0 * np.column_stack(
            (np.cos(s.headings), np.sin(s.headings))
        )
        assert np.array_equal(s2.positions, expect)

    def test_quadrant_preserved_by_atan2(self):
        # Average of headings near pi stays near pi instead of flipping to 0.
        s = make_state([np.pi - 0.1, -np.pi + 0.1])
        s2 = vicsek_step(s, complete_neighbors)
        assert abs(s2.headings[0]) > np.pi / 2

    def test_empty_neighbor_set_rejected(self):
        s = make_state([0.0, 1.0])
        with pytest.raises(DomainError):
            vicsek_step(s, lambda st: [np.array([], dtype=int), np.array([1])])


class TestVicsekState:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("field", ["speed", "radius"])
    def test_speed_and_radius_positive_and_finite(self, field, bad):
        # A NaN speed made the positions NaN; a NaN radius isolated every agent.
        with pytest.raises(DomainError, match=field):
            make_state([0.0, 1.0], **{field: bad})


class TestNeighborRules:
    def test_radius_rule_includes_self(self):
        s = make_state([0.0, 0.0], positions=[[0.0, 0.0], [100.0, 0.0]], radius=1.0)
        sets = radius_neighbors(s)
        assert list(sets[0]) == [0]
        assert list(sets[1]) == [1]

    def test_radius_rule_couples_close_agents(self):
        s = make_state([0.0, 0.0], positions=[[0.0, 0.0], [0.5, 0.0]], radius=1.0)
        sets = radius_neighbors(s)
        assert list(sets[0]) == [0, 1]


class TestHeadingContraction:
    def test_spread_non_increasing_complete_graph(self):
        rng = np.random.default_rng(123)
        s = make_state(rng.uniform(0.0, np.pi / 2, size=10))
        spreads = [heading_spread(s)]
        for _ in range(30):
            s = vicsek_step(s, complete_neighbors)
            spreads.append(heading_spread(s))
        assert all(b <= a + 1e-15 for a, b in zip(spreads, spreads[1:]))

    def test_radius_rule_spread_non_increasing(self):
        # Clustered agents, all mutually within radius: same contraction.
        rng = np.random.default_rng(5)
        s = make_state(
            rng.uniform(-1.0, 1.0, size=8),
            positions=rng.uniform(0, 0.3, size=(8, 2)),
            radius=5.0,
        )
        hist = simulate_vicsek(s, 20, radius_neighbors)
        spreads = [heading_spread(h) for h in hist]
        assert all(b <= a + 1e-12 for a, b in zip(spreads, spreads[1:]))

    def test_first_quadrant_invariant(self):
        rng = np.random.default_rng(7)
        s = make_state(rng.uniform(0.0, np.pi / 2, size=6))
        for _ in range(25):
            s = vicsek_step(s, complete_neighbors)
            assert np.all(s.headings >= 0.0) and np.all(s.headings <= np.pi / 2)


class TestWrapAngle:
    def test_range(self):
        vals = wrap_angle(np.array([-np.pi, np.pi, 3 * np.pi, -2.5 * np.pi]))
        assert np.all(vals > -np.pi) and np.all(vals <= np.pi)
        assert vals[0] == np.pi

    def test_state_normalizes(self):
        s = make_state([3 * np.pi])
        assert s.headings[0] == pytest.approx(np.pi)
