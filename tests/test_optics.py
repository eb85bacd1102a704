"""Closed-form optics: spec examples, invariants, and the ray-trace oracle."""

import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from depthlens.errors import SingularConfiguration
from depthlens.optics import (AttackGeometry, CameraSpec, LensSpec, OpticsResult,
                              ScenarioKind, baseline_magnification,
                              classify_scenario, combined_magnification,
                              expected_depth, expected_depth_grid, magnification,
                              pinhole_apparent_size, thin_lens_image_distance)

from oracles import raytrace_expected_depth, staged_combined_magnification


def geom(f, db, do1, fc=0.026):
    lens = None if f is None else LensSpec(f)
    return AttackGeometry(do1, lens, CameraSpec(focal_length_m=fc, lens_gap_m=db))


class TestSingleLens:
    def test_image_distance_concave(self):
        assert thin_lens_image_distance(-0.20, 6.0) == pytest.approx(0.193548, abs=1e-6)

    def test_image_distance_convex(self):
        assert thin_lens_image_distance(0.20, 6.0) == pytest.approx(-0.206897, abs=1e-6)

    def test_image_distance_object_at_twice_focal(self):
        assert thin_lens_image_distance(0.20, 0.40) == pytest.approx(-0.40)

    def test_image_distance_singular(self):
        with pytest.raises(SingularConfiguration):
            thin_lens_image_distance(0.20, 0.20)

    def test_magnification_concave_upright(self):
        assert magnification(-0.20, 6.0) == pytest.approx(0.032258, abs=1e-6)

    def test_magnification_convex_inverted(self):
        assert magnification(0.20, 6.0) == pytest.approx(-0.034483, abs=1e-6)

    def test_magnification_unit_inverted_at_twice_focal(self):
        assert magnification(0.20, 0.40) == pytest.approx(-1.0)


class TestBaselineMagnification:
    def test_values(self):
        cam = CameraSpec(0.026, 0.04)
        assert baseline_magnification(cam, 6.0) == pytest.approx(-0.0043233, abs=1e-7)
        cam = CameraSpec(0.026, 0.12)
        assert baseline_magnification(cam, 9.0) == pytest.approx(-0.0028590, abs=1e-7)

    def test_unit_case(self):
        # object distance + gap at twice the camera focal length
        cam = CameraSpec(0.026, 0.026)
        assert baseline_magnification(cam, 0.026) == pytest.approx(-1.0)

    def test_singular(self):
        cam = CameraSpec(0.026, 0.013)
        with pytest.raises(SingularConfiguration):
            baseline_magnification(cam, 0.013)


class TestScenarioDispatch:
    def test_concave(self):
        kind = classify_scenario(geom(-0.30, 0.12, 9.0))
        assert kind is ScenarioKind.CONCAVE
        assert kind.feasible_in_ad

    def test_convex_near_lens(self):
        kind = classify_scenario(geom(0.20, 0.04, 6.0))  # |d_i1| = 0.2069 > d_b
        assert kind is ScenarioKind.CONVEX_NEAR_LENS
        assert kind.feasible_in_ad

    def test_convex_near_object(self):
        kind = classify_scenario(geom(0.20, 0.04, 0.10))
        assert kind is ScenarioKind.CONVEX_NEAR_OBJECT
        assert not kind.feasible_in_ad

    def test_convex_far_lens(self):
        kind = classify_scenario(geom(0.20, 0.30, 6.0))
        assert kind is ScenarioKind.CONVEX_FAR_LENS
        assert not kind.feasible_in_ad

    def test_boundary_gap_equals_image_distance(self):
        g = geom(0.20, 0.30, 6.0)
        image_dist = abs(thin_lens_image_distance(0.20, 6.0))
        boundary = geom(0.20, image_dist, 6.0)
        assert classify_scenario(boundary) is ScenarioKind.CONVEX_FAR_LENS
        assert classify_scenario(g) is ScenarioKind.CONVEX_FAR_LENS

    def test_singular_at_focal_point(self):
        with pytest.raises(SingularConfiguration):
            classify_scenario(geom(0.20, 0.04, 0.20))

    def test_dispatch_total_over_random_geometries(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            f = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.8)
            g = geom(f, rng.uniform(0.01, 0.5), rng.uniform(0.3, 20.0))
            if g.lens.focal_length_m == g.object_distance_m:
                continue
            assert classify_scenario(g) in list(ScenarioKind)


class TestCombinedMagnification:
    def test_concave_total(self):
        r = combined_magnification(geom(-0.20, 0.04, 6.0))
        assert r.m_total == pytest.approx(-0.0040409, abs=1e-6)

    def test_convex_near_lens_total(self):
        r = combined_magnification(geom(0.20, 0.04, 6.0))
        assert r.m_total == pytest.approx(0.0063633, abs=1e-6)

    def test_convex_far_lens_total(self):
        r = combined_magnification(geom(0.20, 0.30, 6.0))
        assert r.m_total == pytest.approx(0.013361, abs=1e-5)

    def test_product_identity_random(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 500:
            f = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.8)
            g = geom(f, rng.uniform(0.01, 0.5), rng.uniform(0.3, 20.0),
                     fc=rng.uniform(0.01, 0.05))
            try:
                r = combined_magnification(g)
            except SingularConfiguration:
                continue
            assert r.m_total == pytest.approx(r.m1 * r.m2, rel=1e-12)
            assert r.depth_ratio > 0
            checked += 1


    def test_underflowing_total_is_singular(self):
        # m_total = 1e-300 * 0.026 / (1e300 * 0.014) underflows to 0
        with pytest.raises(SingularConfiguration, match="float range"):
            combined_magnification(geom(1e-300, 0.04, 1e300))

    def test_underflowing_denominator_is_singular(self):
        # (d_o1 - f) * (d_o2 - f_c) = 1e-200 * -1e-200 underflows to 0
        with pytest.raises(SingularConfiguration, match="float range"):
            combined_magnification(geom(1e-200, 1e-200, 2e-200, fc=2e-200))


_LENGTHS = st.floats(1e-3, 1e3)


@st.composite
def _stacks(draw):
    """A lensed geometry aimed at one of the four scenarios, with one of
    its boundaries (object at the focal point, gap equal to the image
    distance, object plus gap at the camera focal length, intermediate
    image one camera focal length away) often hit exactly or to one ulp."""
    scenario = draw(st.sampled_from(list(ScenarioKind)))
    f = draw(_LENGTHS)
    if scenario is ScenarioKind.CONCAVE:
        f, d_o1 = -f, draw(_LENGTHS)
    elif scenario is ScenarioKind.CONVEX_NEAR_OBJECT:
        d_o1 = f * draw(st.floats(1e-3, 1.0, exclude_max=True))
    else:
        d_o1 = f * draw(st.floats(1.0, 1e3, exclude_min=True))

    def image_distance():
        return -d_o1 * f / (d_o1 - f) if d_o1 != f else 1.0

    if scenario is ScenarioKind.CONVEX_FAR_LENS:
        d_b = abs(image_distance()) * draw(st.floats(1.0, 10.0))
    elif scenario is ScenarioKind.CONVEX_NEAR_LENS:
        d_b = abs(image_distance()) * draw(st.floats(1e-3, 1.0, exclude_max=True))
    else:
        d_b = draw(_LENGTHS)
    f_c = draw(_LENGTHS)

    boundary = draw(st.sampled_from(["none", "focal", "gap", "baseline", "camera"]))
    toward = draw(st.sampled_from([None, 0.0, math.inf]))

    def near(x):
        return x if toward is None else math.nextafter(x, toward)

    if boundary == "focal":
        d_o1 = near(abs(f))
    elif boundary == "gap":
        d_b = near(abs(image_distance()))
    elif boundary == "baseline":
        f_c = near(d_o1 + d_b)
    elif boundary == "camera":
        f_c = near(abs(image_distance() + d_b))
    assume(min(d_o1, d_b, f_c) > 0)
    event(f"{scenario.value}, boundary {boundary}")
    return geom(f, d_b, d_o1, fc=f_c)


def _outcome(evaluate, geometry):
    try:
        return evaluate(geometry)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


@settings(max_examples=1000, deadline=None)
@given(_stacks())
@example(geom(1e-300, 0.04, 1e300))
@example(geom(1e-200, 1e-200, 2e-200, fc=2e-200))
@example(geom(None, 0.04, 6.0))
@example(geom(None, 0.013, 0.013))
def test_combined_magnification_matches_staged_reference(geometry):
    """One shared attack-lens stage and ``|d_i1 + d_b|`` give the staged
    reference's result field by field, or the same exception type; the one
    intended difference is that a zero ``m_total`` (or denominator) raises
    SingularConfiguration instead of ZeroDivisionError."""
    want = _outcome(staged_combined_magnification, geometry)
    if want is ZeroDivisionError:
        want = SingularConfiguration
    got = _outcome(combined_magnification, geometry)
    if isinstance(want, type):
        event(f"raises {want.__name__}")
    assert got == want


class TestExpectedDepth:
    @pytest.mark.parametrize("f,db,do1,expected", [
        (-0.20, 0.04, 6.0, 6.42),
        (0.20, 0.04, 6.0, 4.08),
        (-0.30, 0.12, 9.0, 11.79),
    ])
    def test_reference_cells(self, f, db, do1, expected):
        assert expected_depth(geom(f, db, do1)) == pytest.approx(expected, abs=0.01)

    def test_pass_through_identity(self):
        assert expected_depth(geom(None, 0.04, 6.0)) == 6.0
        r = combined_magnification(geom(None, 0.04, 6.0))
        assert r.depth_ratio == 1.0
        assert r.scenario is None

    def test_concave_ratio_increases_as_focal_magnitude_shrinks(self):
        ratios = [combined_magnification(geom(-f, 0.08, 9.0)).depth_ratio
                  for f in (0.5, 0.4, 0.3, 0.2, 0.1)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_concave_ratio_increases_with_gap(self):
        ratios = [combined_magnification(geom(-0.3, db, 9.0)).depth_ratio
                  for db in (0.02, 0.04, 0.08, 0.12)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_convex_near_lens_ratio_below_one_on_grid(self):
        for _, _, _, r in expected_depth_grid(concave=False,
                                              camera_focal_length_m=0.026):
            assert r.scenario is ScenarioKind.CONVEX_NEAR_LENS
            assert r.depth_ratio < 1.0

    def test_concave_ratio_above_one_for_gaps_from_4cm(self):
        # At a 2 cm gap the combined model genuinely dips below one (the
        # reference sweep shows 5.82 m perceived at 6 m true), so the
        # ratio > 1 property starts at the 4 cm gap.
        for _, db, _, r in expected_depth_grid(concave=True,
                                               camera_focal_length_m=0.026):
            if db >= 0.04:
                assert r.depth_ratio > 1.0


class TestRaytraceOracle:
    def test_cross_check_1000_random_feasible_geometries(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            concave = rng.random() < 0.5
            magnitude = rng.uniform(0.05, 0.8)
            g = geom(-magnitude if concave else magnitude,
                     rng.uniform(0.01, 0.5), rng.uniform(0.5, 30.0),
                     fc=rng.uniform(0.01, 0.06))
            try:
                ours = expected_depth(g)
                oracle = raytrace_expected_depth(g)
            except SingularConfiguration:
                continue
            assert ours == pytest.approx(oracle, rel=1e-9)
            checked += 1


class TestPinhole:
    def test_values(self):
        assert pinhole_apparent_size(1.5, 15.0, 0.026) == pytest.approx(0.0026)
        assert pinhole_apparent_size(1.5, 30.0, 0.026) == pytest.approx(0.0013)
        assert pinhole_apparent_size(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pinhole_apparent_size(0.0, 1.0, 1.0)


class TestValidation:
    def test_zero_focal_rejected(self):
        with pytest.raises(ValueError):
            LensSpec(0.0)

    def test_camera_validation(self):
        with pytest.raises(ValueError):
            CameraSpec(-0.026, 0.04)
        with pytest.raises(ValueError):
            CameraSpec(0.026, 0.0)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            AttackGeometry(0.0, LensSpec(-0.2), CameraSpec(0.026, 0.04))

    def test_result_is_frozen(self):
        r = combined_magnification(geom(-0.2, 0.04, 6.0))
        assert isinstance(r, OpticsResult)
        with pytest.raises(AttributeError):
            r.m_total = 0.0
