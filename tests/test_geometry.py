import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compass_consensus.errors import DomainError, OutsideBoxError
from compass_consensus.geometry import (
    ConeQuery,
    Hyperrectangle,
    Region,
    classify_point,
    cone_membership_probe,
    default_face_tolerance,
    gamma_cone_contains,
    relative_interior_cone_contains,
    rho,
    side_lengths,
    supporting_hyperrectangle,
    tangent_cone_contains,
)

UNIT_SQUARE = Hyperrectangle(np.zeros(2), np.ones(2))


class TestSupportingHyperrectangle:
    def test_singleton(self):
        box = supporting_hyperrectangle([(1.0, 2.0)])
        assert np.array_equal(box.lo, [1, 2])
        assert np.array_equal(box.hi, [1, 2])

    def test_three_points(self):
        box = supporting_hyperrectangle([(0, 0), (1, 2), (3, 1)])
        assert np.array_equal(box.lo, [0, 0])
        assert np.array_equal(box.hi, [3, 2])

    def test_one_dimensional(self):
        box = supporting_hyperrectangle([(-1.0,), (4.0,)])
        assert box.lo[0] == -1 and box.hi[0] == 4

    def test_empty_input(self):
        with pytest.raises(DomainError):
            supporting_hyperrectangle([])

    def test_mixed_dimensions(self):
        with pytest.raises(DomainError):
            supporting_hyperrectangle([(0, 0), (1, 2, 3)])

    def test_minimality(self):
        # Every input inside; shrinking any facet by any eps excludes a point.
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.normal(size=(rng.integers(1, 8), 3))
            box = supporting_hyperrectangle(pts)
            assert all(box.contains(p) for p in pts)
            eps = 1e-9
            for k in range(3):
                assert (pts[:, k] >= box.lo[k] + eps).sum() < len(pts)
                assert (pts[:, k] <= box.hi[k] - eps).sum() < len(pts)

    def test_invalid_box_rejected(self):
        with pytest.raises(DomainError):
            Hyperrectangle(np.array([1.0]), np.array([0.0]))


class TestSideLengthsRho:
    def test_from_points(self):
        box = supporting_hyperrectangle([(0, 0), (1, 2), (3, 1)])
        assert np.array_equal(side_lengths(box), [3, 2])
        assert rho(box) == 3

    def test_singleton(self):
        box = supporting_hyperrectangle([(5.0, -2.0)])
        assert np.array_equal(side_lengths(box), [0, 0])
        assert rho(box) == 0

    def test_one_dimensional(self):
        assert rho(supporting_hyperrectangle([(-1.0,), (4.0,)])) == 5


class TestClassifyPoint:
    def test_strict_interior(self):
        cls = classify_point(np.array([0.5, 0.5]), UNIT_SQUARE, 1e-9)
        assert cls.region is Region.RELATIVE_INTERIOR
        assert cls.active_axes == frozenset()

    def test_on_facet(self):
        cls = classify_point(np.array([0.0, 0.5]), UNIT_SQUARE, 1e-9)
        assert cls.region is Region.BOUNDARY
        assert cls.active_axes == frozenset({0})
        assert cls.lower_axes == frozenset({0})

    def test_degenerate_axis(self):
        box = Hyperrectangle(np.array([0.0, 0.7]), np.array([1.0, 0.7]))
        cls = classify_point(np.array([0.3, 0.7]), box, 1e-9)
        assert cls.region is Region.RELATIVE_INTERIOR
        assert cls.active_axes == frozenset({1})
        assert cls.degenerate_axes == frozenset({1})

    def test_degenerate_subset_of_active(self):
        box = Hyperrectangle(np.array([0.0, 0.7]), np.array([1.0, 0.7]))
        cls = classify_point(np.array([0.0, 0.7]), box, 1e-9)
        assert cls.degenerate_axes <= cls.active_axes
        assert cls.region is Region.BOUNDARY

    def test_outside_raises(self):
        with pytest.raises(OutsideBoxError):
            classify_point(np.array([2.0, 0.5]), UNIT_SQUARE, 1e-9)


class TestTangentCone:
    def test_interior_everything(self):
        # Interior point: the cone is all of R^d.
        for v in [(1, 1), (-3, 9), (0, 0)]:
            assert tangent_cone_contains(np.array([0.5, 0.5]), UNIT_SQUARE, np.array(v))

    def test_facet_outward_rejected(self):
        x, v = np.array([0.0, 0.5]), np.array([-1.0, 0.0])
        assert not tangent_cone_contains(x, UNIT_SQUARE, v)
        assert cone_membership_probe(x, UNIT_SQUARE, v) == pytest.approx(1.0)

    def test_corner_inward(self):
        x, v = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        assert tangent_cone_contains(x, UNIT_SQUARE, v)
        assert cone_membership_probe(x, UNIT_SQUARE, v) == 0.0


class TestGammaCone:
    def test_interior_is_whole_space(self):
        q = ConeQuery(np.array([0.5, 0.5]), UNIT_SQUARE, np.array([-7.0, 3.0]), gamma=0.1)
        assert gamma_cone_contains(q)

    def test_margin_too_small(self):
        q = ConeQuery(np.array([0.0, 0.5]), UNIT_SQUARE, np.array([0.05, 0.3]), gamma=0.1)
        assert not gamma_cone_contains(q)

    def test_margin_sufficient(self):
        q = ConeQuery(np.array([0.0, 0.5]), UNIT_SQUARE, np.array([0.2, 0.3]), gamma=0.1)
        assert gamma_cone_contains(q)

    def test_singleton_box_requires_zero_field(self):
        box = supporting_hyperrectangle([(0.25, 0.25)])
        x = np.array([0.25, 0.25])
        assert gamma_cone_contains(ConeQuery(x, box, np.zeros(2), gamma=0.5))
        assert not gamma_cone_contains(ConeQuery(x, box, np.array([1e-3, 0.0]), gamma=0.5))

    def test_gamma_must_be_positive(self):
        q = ConeQuery(np.array([0.5, 0.5]), UNIT_SQUARE, np.ones(2), gamma=0.0)
        with pytest.raises(DomainError):
            gamma_cone_contains(q)

    @pytest.mark.parametrize("kwargs", [
        {"strictness_tolerance": np.nan}, {"strictness_tolerance": np.inf},
        {"face_tolerance": np.nan}, {"face_tolerance": np.inf}, {"face_tolerance": -1.0},
        {"gamma": np.nan}, {"gamma": np.inf},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_thresholds_must_be_finite(self, kwargs):
        # A NaN compares false, so it would pass every test: with a NaN
        # strictness tolerance, -5 at the lower facet of [0, 1] was inside.
        box, x, v = Hyperrectangle([0.0], [1.0]), [0.0], [-5.0]
        assert not gamma_cone_contains(ConeQuery(x, box, v, gamma=0.5))
        with pytest.raises(DomainError, match="must be nonnegative and finite"):
            gamma_cone_contains(ConeQuery(x, box, v, **{"gamma": 0.5, **kwargs}))
        if "face_tolerance" in kwargs:
            with pytest.raises(DomainError, match="must be nonnegative and finite"):
                classify_point(x, box, kwargs["face_tolerance"])


class TestRelativeInteriorCone:
    def test_interior_everything(self):
        q = ConeQuery(np.array([0.5, 0.5]), UNIT_SQUARE, np.array([123.0, -456.0]))
        assert relative_interior_cone_contains(q)

    def test_strictness_fails_at_tolerance(self):
        q = ConeQuery(
            np.array([0.0, 0.5]),
            UNIT_SQUARE,
            np.array([1e-12, 1.0]),
            strictness_tolerance=1e-9,
        )
        assert not relative_interior_cone_contains(q)

    def test_strict_entry_passes(self):
        q = ConeQuery(
            np.array([0.0, 0.5]),
            UNIT_SQUARE,
            np.array([0.01, -2.0]),
            strictness_tolerance=1e-9,
        )
        assert relative_interior_cone_contains(q)


class TestProbe:
    def test_ray_entering(self):
        assert cone_membership_probe(np.array([0.0, 0.5]), UNIT_SQUARE, np.array([1.0, 0.0])) == 0.0

    def test_ray_leaving(self):
        val = cone_membership_probe(np.array([0.0, 0.5]), UNIT_SQUARE, np.array([-1.0, 0.0]))
        assert val == pytest.approx(1.0)

    def test_corner_diagonal_out(self):
        val = cone_membership_probe(np.array([0.0, 0.0]), UNIT_SQUARE, np.array([-1.0, -1.0]))
        assert val == pytest.approx(np.sqrt(2.0))

    def test_rejects_bad_steps(self):
        with pytest.raises(DomainError):
            cone_membership_probe(np.zeros(2), UNIT_SQUARE, np.ones(2), probe_steps=[0.0])


from helpers import random_query  # noqa: E402  (shared query sampler)


class TestClosedFormVersusProbe:
    def test_bulk_agreement(self):
        rng = np.random.default_rng(42)
        members = non_members = 0
        for _ in range(3000):
            box, x, v = random_query(rng)
            inside = tangent_cone_contains(x, box, v)
            probe = cone_membership_probe(x, box, v)
            if inside:
                members += 1
                assert probe < 1e-6, (box, x, v, probe)
            else:
                non_members += 1
                assert probe > 1e-3, (box, x, v, probe)
        assert members > 200 and non_members > 200


class TestConeProperties:
    def test_nested_box_monotonicity(self):
        # x in B1 subset B2 implies cone(B1) subset cone(B2).
        rng = np.random.default_rng(3)
        for _ in range(400):
            box1, x, v = random_query(rng, allow_degenerate=False)
            grow_lo = rng.uniform(0, 1, size=box1.dim) * (rng.random(box1.dim) < 0.5)
            grow_hi = rng.uniform(0, 1, size=box1.dim) * (rng.random(box1.dim) < 0.5)
            box2 = Hyperrectangle(box1.lo - grow_lo, box1.hi + grow_hi)
            if tangent_cone_contains(x, box1, v):
                assert tangent_cone_contains(x, box2, v)

    def test_gamma_nesting_and_tangent_subset(self):
        rng = np.random.default_rng(11)
        for _ in range(800):
            box, x, v = random_query(rng)
            g1 = rng.uniform(0.05, 0.7)
            g2 = g1 * rng.uniform(1.0, 3.0)
            q1 = ConeQuery(x, box, v, gamma=g1)
            q2 = ConeQuery(x, box, v, gamma=g2)
            if gamma_cone_contains(q2):
                assert gamma_cone_contains(q1)
            if gamma_cone_contains(q1):
                assert tangent_cone_contains(x, box, v)

    def test_relative_interior_subset_of_tangent(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            box, x, v = random_query(rng)
            if relative_interior_cone_contains(ConeQuery(x, box, v)):
                assert tangent_cone_contains(x, box, v)

    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, off0, off1, seed):
        rng = np.random.default_rng(seed)
        box, x, v = random_query(rng)
        offset = np.resize([off0, off1], box.dim)
        moved = box.translate(offset)
        assert tangent_cone_contains(x, box, v) == tangent_cone_contains(
            x + offset, moved, v
        )
        q = ConeQuery(x, box, v, gamma=0.2)
        qm = ConeQuery(x + offset, moved, v, gamma=0.2)
        assert gamma_cone_contains(q) == gamma_cone_contains(qm)
        assert relative_interior_cone_contains(q) == relative_interior_cone_contains(qm)


class TestDefaults:
    def test_default_face_tolerance_scales(self):
        small = Hyperrectangle(np.zeros(2), np.full(2, 0.5))
        big = Hyperrectangle(np.zeros(2), np.full(2, 100.0))
        assert default_face_tolerance(small) == 1e-9
        assert default_face_tolerance(big) == pytest.approx(1e-7)
