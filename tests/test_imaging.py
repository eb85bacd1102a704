"""Raster attack synthesis: masks, scaling, blur, profiles, PNM round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlens.errors import BadLevel, DegenerateRegion, ParseError
from depthlens.imaging import (AttackProfile, BlurPlacement, LensKind, LensRegion,
                               RasterImage, apply_attack_transform, box_blur,
                               level_to_profile, region_masks, scale_region)
from depthlens import defense

from helpers import blob_extent, noise_image, textured_image
from oracles import dense_box_blur, dense_in_lens, dense_scale_region

MAX_SIDE = 70


@st.composite
def rasters(draw):
    """Random gray or RGB frame, 1x1 up to MAX_SIDE on each side."""
    h = draw(st.integers(1, MAX_SIDE))
    w = draw(st.integers(1, MAX_SIDE))
    shape = (h, w, 3) if draw(st.booleans()) else (h, w)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return RasterImage(rng.integers(0, 256, shape, dtype=np.uint8))


def _coord(lo, hi):
    # whole numbers hit pixel centers exactly on the circle boundary
    return st.one_of(st.integers(lo, hi).map(float), st.floats(lo, hi))


@st.composite
def regions(draw, width, height):
    """Full frame, or a circle inside, straddling or wholly off the frame."""
    if draw(st.integers(0, 4)) == 0:
        return LensRegion.full_frame()
    reach = 2 * max(width, height)
    return LensRegion.circle(draw(_coord(-reach, width + reach)),
                             draw(_coord(-reach, height + reach)),
                             draw(_coord(1, reach)))


@st.composite
def masks(draw, width, height):
    """Random density, empty, single-pixel, full, or a lens region."""
    kind = draw(st.sampled_from(["random", "empty", "pixel", "full", "region"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return rng.random((height, width)) < draw(st.floats(0, 1))
    if kind == "region":
        return dense_in_lens(width, height, draw(regions(width, height)))
    mask = np.full((height, width), kind == "full")
    if kind == "pixel":
        mask[draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))] = True
    return mask


def disk_image(size=200, radius=30, background=220, fill=10):
    ys, xs = np.mgrid[0:size, 0:size]
    c = size // 2
    img = np.full((size, size), background, np.uint8)
    img[(xs - c) ** 2 + (ys - c) ** 2 <= radius ** 2] = fill
    return RasterImage(img)


class TestRegionMasks:
    def test_full_frame_all_in(self):
        mask = region_masks(10, 10, LensRegion.full_frame())
        assert mask.all()
        assert not (~mask).any()

    def test_radius_one_touches_five_pixels(self):
        mask = region_masks(11, 11, LensRegion.circle(5, 5, 1))
        assert mask.sum() == 5
        assert mask[5, 5] and mask[4, 5] and mask[5, 4]

    def test_offframe_circle_empty(self):
        mask = region_masks(11, 11, LensRegion.circle(100, 100, 3))
        assert not mask.any()

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError):
            LensRegion.circle(5, 5, 0)

    def test_partition_random_circles(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            region = LensRegion.circle(rng.uniform(-20, 80), rng.uniform(-20, 80),
                                       rng.uniform(1, 50))
            mask = region_masks(64, 48, region)
            assert mask.dtype == bool and mask.shape == (48, 64)
            assert not (mask & ~mask).any()
            assert (mask | ~mask).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_dense_predicate(self, data):
        w = data.draw(st.integers(1, MAX_SIDE))
        h = data.draw(st.integers(1, MAX_SIDE))
        region = data.draw(regions(w, h))
        got = region_masks(w, h, region)
        assert got.dtype == bool
        assert np.array_equal(got, dense_in_lens(w, h, region))
        assert np.array_equal(~got, ~dense_in_lens(w, h, region))


class TestScaleRegion:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_dense_oracle(self, data):
        img = data.draw(rasters())
        region = data.draw(regions(img.width, img.height))
        scale = data.draw(st.one_of(st.just(1.0), st.floats(0.2, 4.0)))
        try:
            expected = dense_scale_region(img, region, scale)
        except DegenerateRegion:
            with pytest.raises(DegenerateRegion):
                scale_region(img, region, scale)
            return
        assert np.array_equal(scale_region(img, region, scale).data, expected.data)

    def test_blend_order_is_part_of_the_bytes(self):
        # a sample here lies within rounding error of a .5 tie, so blending
        # as a + (b - a) * t instead of a * (1 - t) + b * t flips one byte
        img = RasterImage(np.array([[91, 189], [64, 30]], np.uint8))
        expected = dense_scale_region(img, LensRegion.full_frame(), 1.1)
        out = scale_region(img, LensRegion.full_frame(), 1.1)
        assert np.array_equal(out.data, expected.data)

    def test_identity_bitwise(self):
        img = textured_image(seed=2)
        out = scale_region(img, LensRegion.circle(128, 128, 80), 1.0)
        assert np.array_equal(out.data, img.data)

    def test_disk_doubles_inside_circle(self):
        img = disk_image(radius=30)
        out = scale_region(img, LensRegion.circle(100, 100, 90), 2.0)
        h, w = blob_extent(out)
        assert abs((h - 1) / 2 - 60) <= 1
        assert abs((w - 1) / 2 - 60) <= 1

    def test_full_frame_shrink(self):
        img = np.full((300, 300), 220, np.uint8)
        img[100:200, 100:200] = 10
        out = scale_region(RasterImage(img), LensRegion.full_frame(), 0.8)
        h, w = blob_extent(out)
        assert abs(w - 80) <= 1 and abs(h - 80) <= 1

    def test_outside_region_untouched(self):
        img = textured_image(seed=5)
        region = LensRegion.circle(100, 100, 40)
        out = scale_region(img, region, 1.7)
        sel = region_masks(img.width, img.height, region)
        assert np.array_equal(out.data[~sel], img.data[~sel])

    def test_degenerate_region(self):
        with pytest.raises(DegenerateRegion):
            scale_region(textured_image(), LensRegion.circle(-500, -500, 2), 2.0)

    def test_rgb_supported(self):
        rng = np.random.default_rng(0)
        img = RasterImage(rng.integers(0, 256, (40, 40, 3)).astype(np.uint8))
        out = scale_region(img, LensRegion.full_frame(), 0.5)
        assert out.data.shape == (40, 40, 3)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            scale_region(textured_image(), LensRegion.full_frame(), 0.0)


class TestBoxBlur:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_dense_oracle(self, data):
        img = data.draw(rasters())
        mask = data.draw(masks(img.width, img.height))
        radius = data.draw(st.integers(0, 15))
        expected = dense_box_blur(img, mask, radius)
        assert np.array_equal(box_blur(img, mask, radius).data, expected.data)

    @pytest.mark.parametrize("radius", [9, 1100])
    def test_wide_accumulator_exact(self, radius):
        # 2*255*h*w exceeds int32 here; at radius 1100 the central windows
        # cover the whole frame, so 2*sum + count itself would overflow it
        size = 2100
        assert 2 * 255 * size * size > 2 ** 31
        img = RasterImage(np.full((size, size), 255, np.uint8))
        out = box_blur(img, np.ones((size, size), bool), radius)
        assert (out.data == 255).all()

    def test_constant_unchanged(self):
        img = RasterImage(np.full((20, 20), 77, np.uint8))
        for r in (1, 2, 5):
            out = box_blur(img, np.ones((20, 20), bool), r)
            assert np.array_equal(out.data, img.data)

    def test_impulse_spreads_to_28(self):
        data = np.zeros((7, 7), np.uint8)
        data[3, 3] = 255
        out = box_blur(RasterImage(data), np.ones((7, 7), bool), 1)
        assert (out.data[2:5, 2:5] == 28).all()
        assert out.data[0, 0] == 0

    def test_radius_zero_identity(self):
        img = textured_image(seed=9)
        out = box_blur(img, np.ones((256, 256), bool), 0)
        assert np.array_equal(out.data, img.data)

    def test_unmasked_pixels_untouched(self):
        img = textured_image(seed=4)
        mask = np.zeros((256, 256), bool)
        mask[:, :100] = True
        out = box_blur(img, mask, 3)
        assert np.array_equal(out.data[~mask], img.data[~mask])
        assert not np.array_equal(out.data[mask], img.data[mask])

    def test_mean_preserved_within_rounding(self):
        img = noise_image((64, 64), seed=12)
        out = box_blur(img, np.ones((64, 64), bool), 2)
        # each output pixel moved off the window mean by at most rounding
        assert abs(float(out.data.mean()) - float(img.data.mean())) <= 1.0

    def test_varlap_nonincreasing_in_radius(self):
        img = textured_image(seed=21)
        full = np.ones((256, 256), bool)
        scores = [defense.variance_of_laplacian(box_blur(img, full, r))
                  for r in (0, 1, 2, 3, 4)]
        assert all(b <= a for a, b in zip(scores, scores[1:]))

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            box_blur(textured_image(), np.ones((4, 4), bool), 1)


class TestLevelProfiles:
    def test_concave_level_one_defaults(self):
        p = level_to_profile(LensKind.CONCAVE, 1)
        assert p.scale_factor == pytest.approx(0.95)
        assert p.blur_radius == 1
        assert p.blur_placement is BlurPlacement.OUT_OF_LENS

    def test_convex_level_nine_defaults(self):
        p = level_to_profile(LensKind.CONVEX, 9)
        assert p.scale_factor == pytest.approx(3.0)
        assert p.blur_radius == 9
        assert p.blur_placement is BlurPlacement.IN_LENS

    def test_blur_strictly_increases_with_level(self):
        radii = [level_to_profile(LensKind.CONVEX, lv).blur_radius
                 for lv in range(1, 10)]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_bad_levels(self):
        for level in (0, 10, -3, 3.0, np.float64(3.0), np.int64(10)):
            with pytest.raises(BadLevel):
                level_to_profile(LensKind.CONCAVE, level)

    def test_numpy_integer_level_accepted(self):
        p = level_to_profile(LensKind.CONVEX, np.int64(3))
        assert p == level_to_profile(LensKind.CONVEX, 3)
        assert type(p.level) is int

    def test_profile_invariant_checks(self):
        with pytest.raises(BadLevel):
            AttackProfile(0, LensRegion.full_frame(), 0.9, 1, BlurPlacement.OUT_OF_LENS)


class TestApplyAttackTransform:
    def test_identity_profile(self):
        img = textured_image(seed=6)
        p = AttackProfile(1, LensRegion.full_frame(), 1.0, 0, BlurPlacement.OUT_OF_LENS)
        out = apply_attack_transform(img, p)
        assert np.array_equal(out.data, img.data)

    def test_concave_shrinks_and_blurs_outside(self):
        # dark disk inside the circle, bright-only noise outside: the blob
        # threshold sees the disk alone, the flank sees only out-of-lens blur
        rng = np.random.default_rng(8)
        base = rng.integers(140, 231, (256, 256)).astype(np.uint8)
        region = LensRegion.circle(128, 128, 100)
        sel = region_masks(256, 256, region)
        disk = disk_image(size=256, radius=40)
        base[sel] = disk.data[sel]
        composed = RasterImage(base)
        p = AttackProfile(3, region, 0.8, 2, BlurPlacement.OUT_OF_LENS)
        out = apply_attack_transform(composed, p)
        h, _ = blob_extent(out, threshold=64)
        assert abs(h - 0.8 * blob_extent(composed, threshold=64)[0]) <= 2
        out_crop = RasterImage(out.data[:, :20])
        benign_crop = RasterImage(composed.data[:, :20])
        assert (defense.variance_of_laplacian(out_crop)
                < defense.variance_of_laplacian(benign_crop))

    def test_convex_enlarges_and_blurs_inside(self):
        img = disk_image(size=300, radius=30)
        region = LensRegion.circle(150, 150, 120)
        p = AttackProfile(5, region, 2.0, 3, BlurPlacement.IN_LENS)
        out = apply_attack_transform(img, p)
        h, _ = blob_extent(out, threshold=110)
        assert abs((h - 1) / 2 - 60) <= 2

    def test_deterministic(self):
        img = textured_image(seed=13)
        p = level_to_profile(LensKind.CONVEX, 4,
                             region=LensRegion.circle(128, 128, 80))
        a = apply_attack_transform(img, p)
        b = apply_attack_transform(img, p)
        assert np.array_equal(a.data, b.data)


class TestPnmRoundTrip:
    def test_pgm_round_trip(self, tmp_path):
        img = noise_image((33, 47), seed=1)
        path = tmp_path / "img.pgm"
        img.save(path)
        back = RasterImage.load(path)
        assert np.array_equal(back.data, img.data)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = RasterImage(rng.integers(0, 256, (21, 17, 3)).astype(np.uint8))
        path = tmp_path / "img.ppm"
        img.save(path)
        back = RasterImage.load(path)
        assert np.array_equal(back.data, img.data)

    def test_comment_and_whitespace_tolerant(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5 # comment\n# another\n 2  2\n255\n\x01\x02\x03\x04")
        img = RasterImage.load(path)
        assert img.data.tolist() == [[1, 2], [3, 4]]

    def test_truncated_raster_reports_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ParseError) as err:
            RasterImage.load(path)
        assert err.value.byte_offset is not None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P3\n2 2\n255\n")
        with pytest.raises(ParseError):
            RasterImage.load(path)


def _assert_read_only(img):
    assert not img.data.flags.writeable
    with pytest.raises(ValueError):
        img.data[0, 0] = 0


class TestReadOnlyRasters:
    """Nothing writes into a raster, so a function may return its input."""

    @pytest.mark.parametrize("shape", [(1, 1), (3, 4), (1, 1, 3), (3, 4, 3)])
    def test_built_directly(self, shape):
        arr = np.zeros(shape, np.uint8)
        img = RasterImage(arr)
        _assert_read_only(img)
        assert arr.flags.writeable  # the caller's array keeps its flags
        arr[0, 0] = 7
        assert np.array_equal(img.data, arr)  # a view, not a copy

    @pytest.mark.parametrize("shape", [(), (4,), (0, 4), (4, 0), (4, 0, 3),
                                       (4, 4, 1), (4, 4, 4), (4, 4, 3, 1)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError):
            RasterImage(np.zeros(shape, np.uint8))

    def test_non_uint8_rejected(self):
        with pytest.raises(ValueError):
            RasterImage(np.zeros((4, 4), np.int16))

    @pytest.mark.parametrize("name, shape", [("g.pgm", (5, 7)), ("c.ppm", (5, 7, 3))])
    def test_loaded(self, tmp_path, name, shape):
        RasterImage(np.ones(shape, np.uint8)).save(tmp_path / name)
        _assert_read_only(RasterImage.load(tmp_path / name))

    @pytest.mark.parametrize("render", [
        lambda img: img.to_gray(),
        lambda img: scale_region(img, LensRegion.full_frame(), 0.5),
        lambda img: box_blur(img, np.ones((9, 8), bool), 1),
        lambda img: apply_attack_transform(img, level_to_profile(LensKind.CONVEX, 3)),
    ], ids=["to_gray", "scale_region", "box_blur", "apply_attack_transform"])
    def test_returned_by_a_kernel(self, render):
        rgb = RasterImage(np.random.default_rng(3).integers(0, 256, (9, 8, 3), np.uint8))
        out = render(rgb)
        assert out is not rgb
        _assert_read_only(out)

    def test_identity_paths_return_their_input(self):
        gray = textured_image(seed=3)
        region = LensRegion.circle(100, 100, 40)
        assert gray.to_gray() is gray
        assert scale_region(gray, region, 1.0) is gray
        assert box_blur(gray, np.ones((256, 256), bool), 0) is gray
        assert box_blur(gray, np.zeros((256, 256), bool), 4) is gray
        identity = AttackProfile(1, region, 1.0, 0, BlurPlacement.IN_LENS)
        assert apply_attack_transform(gray, identity) is gray

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_kernels_never_change_their_input(self, data):
        img = data.draw(rasters())
        arr = np.array(img.data)  # writable, so only the kernels could guard it
        before = arr.tobytes()
        img = RasterImage(arr)
        region = data.draw(regions(img.width, img.height))
        mask = data.draw(masks(img.width, img.height))
        scale = data.draw(st.one_of(st.just(1.0), st.floats(0.2, 4.0)))
        radius = data.draw(st.integers(0, 6))
        placement = data.draw(st.sampled_from(BlurPlacement))
        renders = [lambda: img.to_gray(),
                   lambda: scale_region(img, region, scale),
                   lambda: box_blur(img, mask, radius),
                   lambda: apply_attack_transform(
                       img, AttackProfile(1, region, scale, radius, placement))]
        for render in renders:
            try:
                render()
            except DegenerateRegion:
                pass
            assert arr.tobytes() == before


class TestRasterIdentity:
    """A raster compares and hashes by identity: no code compares pixels
    through ``==``, and an array field has no truth value to compare by."""

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 3, 3)])
    def test_equal_only_to_itself(self, shape):
        a = RasterImage(np.zeros(shape, np.uint8))
        b = RasterImage(np.zeros(shape, np.uint8))
        assert a == a
        assert not (a == b)
        assert a != b

    def test_hashable(self):
        a = RasterImage(np.zeros((2, 2), np.uint8))
        b = RasterImage(np.zeros((2, 2), np.uint8))
        assert hash(a) == hash(a)
        assert len({a, b, a}) == 2
