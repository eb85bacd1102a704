"""Raster attack synthesis: masks, scaling, blur, profiles, PNM round trips."""

import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlens.errors import BadLevel, DegenerateRegion, ParseError
from depthlens.imaging import (AttackProfile, BlurPlacement, LensKind, LensRegion,
                               RasterImage, apply_attack_transform, box_blur,
                               level_to_profile, region_masks, scale_region)
from depthlens import defense, formats, imaging

from helpers import STRIPS, blob_extent, noise_image, strip_values, textured_image
from oracles import (dense_attack, dense_box_blur, dense_in_lens, dense_scale_region,
                     widened_to_gray)

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
    """Full frame, or a circle inside, straddling or wholly off the frame,
    or one centred on the top or bottom edge, so its box rows are clamped
    at the frame edge."""
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return LensRegion.full_frame()
    reach = 2 * max(width, height)
    if kind == 1:
        return LensRegion.circle(draw(_coord(0, width - 1)),
                                 draw(st.sampled_from([0.0, height - 1.0])),
                                 draw(_coord(1, reach)))
    return LensRegion.circle(draw(_coord(-reach, width + reach)),
                             draw(_coord(-reach, height + reach)),
                             draw(_coord(1, reach)))


@st.composite
def boundary_circles(draw, width, height):
    """Circles on the edge of meeting the frame: half-integer and whole
    centers, centers off each edge, and a radius equal to the distance to
    the nearest pixel, or one float step either side of it."""
    def axis(n):
        return draw(st.one_of(st.integers(-3, n + 2).map(lambda k: k + 0.5),
                              st.integers(-2 * n, 3 * n).map(float),
                              st.floats(-4.0 * n, 0.0), st.floats(n - 1.0, 5.0 * n)))
    cx, cy = axis(width), axis(height)
    dx = min(max(round(cx), 0), width - 1) - cx
    dy = min(max(round(cy), 0), height - 1) - cy
    near = math.sqrt(dx * dx + dy * dy)
    radius = draw(st.one_of(
        st.sampled_from([math.nextafter(near, 0.0), near, math.nextafter(near, math.inf)]),
        st.floats(1.0, 2.0 * (width + height))))
    return LensRegion.circle(cx, cy, max(radius, 1.0))


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


def scales():
    """1, any factor in [0.2, 4], or one far below 0.5 or above 2."""
    return st.one_of(st.just(1.0), st.floats(0.2, 4.0),
                     st.sampled_from([0.01, 0.3, 2.5, 3.0]))


@st.composite
def centred_regions(draw, width, height):
    """Full frame, or a circle whose center is whole, half-integer or
    anywhere on each axis, on the frame or off it: the two rows nearest the
    center fall on a pixel row or between two, inside the frame or not."""
    if draw(st.integers(0, 3)) == 0:
        return LensRegion.full_frame()

    def axis(n):
        return draw(st.one_of(st.integers(-2, n + 1).map(float),
                              st.integers(-3, n + 1).map(lambda k: k + 0.5),
                              st.floats(-2.0 * n, 3.0 * n)))
    return LensRegion.circle(axis(width), axis(height),
                             draw(st.floats(1.0, 2.0 * (width + height))))


def scales_off_one():
    """A shrink or an enlarge, from 0.3 to 7."""
    return st.one_of(st.floats(0.3, 7.0).filter(lambda s: s != 1.0),
                     st.sampled_from([0.5, 0.95, 1.1, 2.0, 3.0]))


def assert_scale_matches_dense_oracle(img, region, scale):
    try:
        expected = dense_scale_region(img, region, scale)
    except DegenerateRegion:
        with pytest.raises(DegenerateRegion):
            scale_region(img, region, scale)
        return
    assert np.array_equal(scale_region(img, region, scale).data, expected.data)


@pytest.fixture(scope="module")
def full_hd_rgb():
    return noise_image((1080, 1920, 3), seed=8)


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

    @pytest.mark.parametrize("radius", [1e200, 1.7e308, 1.35e154, np.float64(1e200)])
    def test_radius_whose_square_overflows_rejected(self, radius):
        # r**2 is the in-lens bound: an infinite one would take every pixel
        with pytest.raises(ValueError, match="^circle radius squared must be finite, got "):
            LensRegion.circle(3, 3, radius)

    def test_full_frame_mask_is_one_read_only_value(self):
        tracemalloc.start()
        try:
            mask = region_masks(1920, 1080, LensRegion.full_frame())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024
        assert mask.shape == (1080, 1920) and mask.dtype == bool and mask.all()
        assert not mask.flags.writeable

    @pytest.mark.parametrize("cx, cy, radius", [
        (1e200, 3.0, 3.0), (3.0, -1e200, 3.0), (-1.7e308, 1.7e308, 1e154),
        # each squared offset fits, their sum does not
        (-1.3e154, -1.3e154, 1.3e154)])
    def test_a_far_circle_is_outside_without_a_warning(self, cx, cy, radius):
        # a RuntimeWarning is an error under this suite's settings
        region = LensRegion.circle(cx, cy, radius)
        assert not region_masks(8, 6, region).any()
        profile = AttackProfile(2, region, 1.5, 1, BlurPlacement.OUT_OF_LENS)
        with pytest.raises(DegenerateRegion):
            apply_attack_transform(noise_image((6, 8), seed=1), profile)

    def test_a_huge_circle_meets_the_frame(self):
        region = LensRegion.circle(-1e154, 3.0, 1.3e154)
        assert region_masks(8, 6, region).all()
        scaled = scale_region(noise_image((6, 8), seed=1), region, 2.0)
        assert scaled.shape == (6, 8)

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
        # the out-of-lens mask, or None when no pixel lies outside the lens
        outside = region_masks(w, h, region, outside=True)
        if dense_in_lens(w, h, region).all():
            assert outside is None
        else:
            assert outside.dtype == bool and not outside.flags.writeable
            assert np.array_equal(outside, ~dense_in_lens(w, h, region))


class TestFootprint:
    """The lens footprint: built by row strips, once per frame size by the
    region instance, which keeps it until the region itself is dropped."""

    def test_a_radius_500_footprint_holds_no_float_box(self):
        """The 1001 x 1001 in-lens box mask and 1 MiB more; a float64 sum
        over the box would be 8 MB."""
        region = LensRegion.circle(960, 540, 500)
        tracemalloc.start()
        try:
            footprint = imaging._Footprint(1920, 1080, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert footprint.inside.shape == (1001, 1001)
        assert peak < footprint.inside.nbytes + 2 ** 20
        assert np.array_equal(region_masks(1920, 1080, region),
                              dense_in_lens(1920, 1080, region))

    @pytest.fixture
    def built(self, monkeypatch):
        """The frame size of every footprint built."""
        sizes = []

        class Counted(imaging._Footprint):
            def __init__(self, width, height, region):
                sizes.append((width, height))
                super().__init__(width, height, region)

        monkeypatch.setattr(imaging, "_Footprint", Counted)
        return sizes

    # Each test makes its own region: a region keeps its footprints, so one
    # shared by tests would carry them from one test to the next.
    @pytest.mark.parametrize("make", [LensRegion.full_frame,
                                      lambda: LensRegion.circle(12, 9, 7)],
                             ids=["full_frame", "circle"])
    def test_one_footprint_per_frame_size_per_region(self, built, make):
        region = make()
        img = noise_image((20, 24), seed=6)
        inside = region_masks(24, 20, region)
        outside = region_masks(24, 20, region, outside=True)
        # a render's rescale and blur use the region's footprint too
        apply_attack_transform(img, level_to_profile(LensKind.CONCAVE, 5, region)).data
        scale_region(img, region, 1.5)
        assert region_masks(24, 20, region, outside=True) is outside
        assert np.array_equal(region_masks(24, 20, region), inside)
        region_masks(30, 20, region)
        region_masks(30, 20, region, outside=True)
        assert built == [(24, 20), (30, 20)]
        # an equal region is another instance, with footprints of its own
        region_masks(24, 20, make())
        assert built == [(24, 20), (30, 20), (24, 20)]

    def test_the_footprints_are_no_part_of_the_regions_value(self):
        region = LensRegion.circle(12, 9, 7)
        region_masks(24, 20, region, outside=True)
        assert list(vars(region)["_footprints"]) == [(24, 20)]
        assert region == LensRegion.circle(12, 9, 7)
        assert hash(region) == hash(LensRegion.circle(12, 9, 7))
        assert repr(region) == repr(LensRegion.circle(12, 9, 7))
        assert "_footprints" not in vars(replace(region))

    def test_the_footprints_go_with_their_region(self):
        region = LensRegion.circle(12, 9, 7)
        region_masks(24, 20, region, outside=True)
        (footprint,) = vars(region)["_footprints"].values()
        refs = [weakref.ref(footprint), weakref.ref(footprint.inside),
                weakref.ref(footprint.outside)]
        del footprint
        assert all(ref() is not None for ref in refs)
        del region
        assert all(ref() is None for ref in refs)


class TestScaleRegion:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_dense_oracle(self, data):
        img = data.draw(rasters())
        region = data.draw(regions(img.width, img.height))
        assert_scale_matches_dense_oracle(img, region, data.draw(scales()))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_writes_into_out(self, data):
        img = data.draw(rasters())
        region = data.draw(regions(img.width, img.height))
        scale = data.draw(scales().filter(lambda s: s != 1.0))
        out = np.array(img.data)  # ``out`` holds the image's pixels
        try:
            expected = dense_scale_region(img, region, scale).data
        except DegenerateRegion:
            return
        got = scale_region(img, region, scale, out=out)
        assert got.data.base is out
        assert np.array_equal(out, expected)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_in_place_matches_dense_oracle(self, data):
        """``out`` may be the image's own array: strips of one or a few rows,
        cut about the center, read no row an earlier strip wrote."""
        img = data.draw(rasters())
        region = data.draw(centred_regions(img.width, img.height))
        scale = data.draw(scales_off_one())
        try:
            expected = dense_scale_region(img, region, scale).data
        except DegenerateRegion:
            return
        frame = np.array(img.data)
        with strip_values(data.draw(st.integers(1, 7))):
            got = scale_region(RasterImage(frame), region, scale, out=frame)
        assert got.data.base is frame
        assert np.array_equal(frame, expected)

    @pytest.mark.parametrize("strip", STRIPS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle_across_strips(self, strip, data):
        img = data.draw(rasters())
        region = data.draw(regions(img.width, img.height))
        with strip_values(strip):
            assert_scale_matches_dense_oracle(img, region, data.draw(scales()))

    @pytest.mark.parametrize("scale", [1e-307, 5e-324])
    def test_a_tiny_scale_clips_every_source_without_a_warning(self, scale):
        # an offset divided by the scale overflows; a RuntimeWarning is an
        # error under this suite's settings
        img = noise_image((120, 160), seed=4)
        region = LensRegion.circle(80, 60, 45)
        with np.errstate(over="ignore"):
            expected = dense_scale_region(img, region, scale).data
        assert np.array_equal(scale_region(img, region, scale).data, expected)

    @pytest.mark.parametrize("strip", [imaging._STRIP_VALUES] + STRIPS)
    @pytest.mark.parametrize("scale", [0.01, 0.3, 2.5, 3.0])
    def test_edge_circles_across_strips(self, strip, scale):
        for shape in [(37, 29), (37, 29, 3)]:
            img = noise_image(shape, seed=11)
            for cx, cy, radius in [(0, 0, 20), (28, 36, 25), (14, -4.5, 18),
                                   (14, 40, 30), (14, 18, 60)]:
                with strip_values(strip):
                    assert_scale_matches_dense_oracle(
                        img, LensRegion.circle(cx, cy, radius), scale)

    @pytest.mark.parametrize("scale,total", [(0.01, 21), (0.55, 71), (3.0, 42)])
    def test_a_strip_interpolates_at_most_two_rows_per_output_row(
            self, monkeypatch, scale, total):
        # 60 output rows in strips of 5, cut about the center rows 29 and 30:
        # rows 28..32, then 28 rows above them and 27 below (last strips of 3
        # and 2 rows); interpolating two source rows per output row afresh
        # would take 120 rows along x
        lerp = imaging._lerp
        calls = []

        def counting(a, b, t):
            calls.append((len(a), t.ndim))
            return lerp(a, b, t)

        monkeypatch.setattr(imaging, "_lerp", counting)
        monkeypatch.setattr(imaging, "_STRIP_VALUES", 5 * 64)
        scale_region(noise_image((60, 64), seed=4), LensRegion.full_frame(), scale)
        along_x, along_y = calls[0::2], calls[1::2]
        assert [ndim for _, ndim in along_x] == [1] * 13
        assert sorted(along_y) == [(2, 2), (3, 2)] + [(5, 2)] * 11
        assert all(rows <= 2 * n for (rows, _), (n, _) in zip(along_x, along_y))
        assert sum(rows for rows, _ in along_x) == total

    @pytest.mark.parametrize("scale", [0.01, 0.55, 3.0])
    def test_full_frame_rgb_peak_memory(self, full_hd_rgb, scale):
        tracemalloc.start()
        try:
            scale_region(full_hd_rgb, LensRegion.full_frame(), scale)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * full_hd_rgb.data.nbytes

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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_out_keeps_the_pixels_a_kernel_leaves(data):
    """``out`` holds the image's pixels, so a kernel writes only the pixels
    it changes: each other pixel keeps whatever value ``out`` held."""
    img = data.draw(rasters())
    held = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))).integers(
        0, 256, img.data.shape, dtype=np.uint8)
    region = data.draw(regions(img.width, img.height))
    scale = data.draw(scales())
    mask = data.draw(masks(img.width, img.height))
    radius = data.draw(st.integers(0, 6))
    try:
        scaled = dense_scale_region(img, region, scale).data
    except DegenerateRegion:
        scaled = None
    changed = dense_in_lens(img.width, img.height, region) & (scale != 1.0)
    blurred = dense_box_blur(img, mask, radius).data
    for kernel, expected, written in [
            (lambda out: scale_region(img, region, scale, out=out), scaled, changed),
            (lambda out: box_blur(img, mask, radius, out=out), blurred,
             mask & (radius > 0))]:
        if expected is None:
            continue
        out = held.copy()
        kernel(out)
        written = written.reshape(written.shape + (1,) * (img.data.ndim - 2))
        assert np.array_equal(out, np.where(written, expected, held))


class TestBoxBlur:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_dense_oracle(self, data):
        img = data.draw(rasters())
        mask = data.draw(masks(img.width, img.height))
        radius = data.draw(st.integers(0, 15))
        expected = dense_box_blur(img, mask, radius)
        assert np.array_equal(box_blur(img, mask, radius).data, expected.data)

    @pytest.mark.parametrize("strip", STRIPS)
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle_across_strips(self, strip, data):
        img = data.draw(rasters())
        mask = data.draw(masks(img.width, img.height))
        radius = data.draw(st.integers(0, 15))
        with strip_values(strip):
            got = box_blur(img, mask, radius)
        assert np.array_equal(got.data, dense_box_blur(img, mask, radius).data)

    @pytest.mark.parametrize("strip", [None] + STRIPS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_writes_into_out_and_in_place(self, strip, data):
        """Into a separate array that holds the image's pixels, and in place
        into the array the input was built from: the bytes of the copying
        blur, in any strip size."""
        img = data.draw(rasters())
        mask = data.draw(masks(img.width, img.height))
        radius = data.draw(st.integers(0, 15))
        expected = dense_box_blur(img, mask, radius).data
        with strip_values(strip or imaging._STRIP_VALUES):
            out = np.array(img.data)
            box_blur(img, mask, radius, out=out)
            assert np.array_equal(out, expected)
            own = np.array(img.data)
            got = box_blur(RasterImage(own), mask, radius, out=own)
            assert np.array_equal(got.data, expected)
        if radius and mask.any():
            assert got.data.base is own

    def test_half_up_division_identity(self):
        """The blur rounds by ``(sum + count // 2) // count``, which must
        equal the half-up ``(2 * sum + count) // (2 * count)``: checked for
        every window count up to the 19x19 window of level 9 and every sum
        of 8-bit samples that count can hold."""
        for count in range(1, 19 * 19 + 1):
            total = np.arange(255 * count + 1)
            assert np.array_equal((2 * total + count) // (2 * count),
                                  (total + count // 2) // count), count

    @pytest.mark.parametrize("radius", [9, 1100])
    def test_wide_accumulator_exact(self, radius):
        # 2*255*h*w exceeds int32 here, so the blur's dtype guard (511*h*w)
        # takes int64; at radius 1100 the central windows cover the whole
        # frame, so their sums reach 255*h*w
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

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.float64])
    def test_non_bool_mask_rejected(self, dtype):
        # a uint8 mask holding 2 once passed and corrupted masked pixels (the
        # bitwise select kept bit 0 of the input); int and float masks crashed
        # in the masked writer
        mask = 2 * dense_in_lens(16, 16, LensRegion.circle(8, 8, 5)).astype(dtype)
        with pytest.raises(ValueError, match=np.dtype(dtype).name):
            box_blur(noise_image((16, 16), seed=3), mask, 1)

    @pytest.mark.parametrize("radius", [127, 128, 129])
    def test_row_sums_at_the_uint16_limit(self, radius):
        # row windows sum in uint16 while 255 * (2r + 1) < 2**16, that is up
        # to r = 128; near-white rows wider than the window reach that bound
        rng = np.random.default_rng(radius)
        img = RasterImage(rng.integers(254, 256, (5, 2 * radius + 40), dtype=np.uint8))
        mask = np.ones(img.data.shape, bool)
        assert np.array_equal(box_blur(img, mask, radius).data,
                              dense_box_blur(img, mask, radius).data)

    @pytest.mark.parametrize("lens", [None, LensRegion.circle(960, 540, 300)])
    def test_peak_memory_is_strip_sized(self, full_hd_rgb, lens):
        # RGB full frame, and a gray frame blurred outside a lens; the output
        # copy is the only frame-sized allocation
        if lens is None:
            img, mask = full_hd_rgb, np.ones((1080, 1920), bool)
        else:
            img = noise_image((1080, 1920), seed=9)
            mask = ~region_masks(1920, 1080, lens)
        tracemalloc.start()
        try:
            box_blur(img, mask, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= img.data.nbytes + 4 * 2 ** 20


class TestMaskedWrite:
    """Both kernels store through one masked writer, which sees strips whose
    mask is all set, partly set or empty."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rgb_is_three_gray_channels(self, data):
        h, w = data.draw(st.integers(1, MAX_SIDE)), data.draw(st.integers(1, MAX_SIDE))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        rgb = RasterImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
        region, scale = data.draw(regions(w, h)), data.draw(scales())
        mask, radius = data.draw(masks(w, h)), data.draw(st.integers(0, 15))
        grays = [RasterImage(np.ascontiguousarray(rgb.data[..., c])) for c in range(3)]
        with strip_values(data.draw(st.sampled_from([imaging._STRIP_VALUES] + STRIPS))):
            blurred = box_blur(rgb, mask, radius).data
            for c, gray in enumerate(grays):
                assert np.array_equal(blurred[..., c], box_blur(gray, mask, radius).data)
            try:
                scaled = scale_region(rgb, region, scale).data
            except DegenerateRegion:
                for gray in grays:
                    with pytest.raises(DegenerateRegion):
                        scale_region(gray, region, scale)
                return
            for c, gray in enumerate(grays):
                assert np.array_equal(scaled[..., c], scale_region(gray, region, scale).data)

    @pytest.mark.parametrize("strip", [imaging._STRIP_VALUES] + STRIPS + [350])
    @pytest.mark.parametrize("shape", [(37, 29), (37, 29, 3)])
    def test_all_set_partial_and_empty_strips(self, monkeypatch, strip, shape):
        # the circle centred left of the frame has box rows with no in-lens
        # pixel; the two-band blur mask leaves whole strips between the bands
        write = imaging._write_masked
        kinds = set()

        def recording(box, values, mask):
            kinds.add("all" if mask.all() else "partial" if mask.any() else "empty")
            write(box, values, mask)

        monkeypatch.setattr(imaging, "_write_masked", recording)
        img = noise_image(shape, seed=13)
        h, w = shape[:2]
        bands = np.zeros((h, w), bool)
        bands[:3, 4:20] = bands[-2:] = True
        blur_masks = [bands]
        with strip_values(strip):
            for region in [LensRegion.full_frame(), LensRegion.circle(-4.5, 14, 12),
                           LensRegion.circle(14, 0, 20), LensRegion.circle(28, 36, 25)]:
                for scale in (0.3, 1.7):
                    assert_scale_matches_dense_oracle(img, region, scale)
                inside = dense_in_lens(w, h, region)
                blur_masks += [inside, ~inside]
            for mask in blur_masks:
                for radius in (1, 4):
                    assert np.array_equal(box_blur(img, mask, radius).data,
                                          dense_box_blur(img, mask, radius).data)
        assert kinds == ({"all", "partial"} if strip == imaging._STRIP_VALUES
                         else {"all", "partial", "empty"})


class TestToGray:
    def test_matches_widened_oracle_on_every_triple(self):
        # one 256x256 slice per red value: green down the rows, blue across
        rgb = np.empty((256, 256, 3), np.uint8)
        rgb[..., 1] = np.arange(256, dtype=np.uint8)[:, None]
        rgb[..., 2] = np.arange(256, dtype=np.uint8)[None, :]
        for red in range(256):
            rgb[..., 0] = red
            got = RasterImage(rgb).to_gray().data
            assert np.array_equal(got, widened_to_gray(rgb)), f"red {red}"

    @pytest.mark.parametrize("strip", STRIPS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_widened_oracle_across_strips(self, strip, data):
        img = data.draw(rasters())
        with strip_values(strip):
            got = img.to_gray()
        expected = widened_to_gray(img.data) if img.channels == 3 else img.data
        assert np.array_equal(got.data, expected)


class TestLevelProfiles:
    def test_concave_level_one_defaults(self):
        p = level_to_profile(LensKind.CONCAVE, 1, LensRegion.full_frame())
        assert p.scale_factor == pytest.approx(0.95)
        assert p.blur_radius == 1
        assert p.blur_placement is BlurPlacement.OUT_OF_LENS

    def test_convex_level_nine_defaults(self):
        p = level_to_profile(LensKind.CONVEX, 9, LensRegion.full_frame())
        assert p.scale_factor == pytest.approx(3.0)
        assert p.blur_radius == 9
        assert p.blur_placement is BlurPlacement.IN_LENS

    def test_blur_strictly_increases_with_level(self):
        radii = [level_to_profile(LensKind.CONVEX, lv, LensRegion.full_frame()).blur_radius
                 for lv in range(1, 10)]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_bad_levels(self):
        for level in (0, 10, -3, 3.0, np.float64(3.0), np.int64(10)):
            with pytest.raises(BadLevel):
                level_to_profile(LensKind.CONCAVE, level, LensRegion.full_frame())

    def test_numpy_integer_level_accepted(self):
        p = level_to_profile(LensKind.CONVEX, np.int64(3), LensRegion.full_frame())
        assert p == level_to_profile(LensKind.CONVEX, 3, LensRegion.full_frame())
        assert type(p.level) is int

    def test_profile_invariant_checks(self):
        with pytest.raises(BadLevel):
            AttackProfile(0, LensRegion.full_frame(), 0.9, 1, BlurPlacement.OUT_OF_LENS)

    @pytest.mark.parametrize("level", [0, 10, 2.5, 3.0, np.float64(3.0)])
    def test_profile_level_is_an_integer_in_range(self, level):
        with pytest.raises(BadLevel, match=r"^level must be an integer in 1\.\.9, got "):
            AttackProfile(level, LensRegion.full_frame(), 0.9, 1, BlurPlacement.OUT_OF_LENS)

    def test_profile_stores_a_numpy_integer_level_as_int(self):
        p = AttackProfile(np.int64(3), LensRegion.full_frame(), 0.9, 1, BlurPlacement.IN_LENS)
        assert type(p.level) is int and p.level == 3

    @pytest.mark.parametrize("radius", [-1, 2.0, 0.0, 1.5])
    def test_blur_radius_is_a_non_negative_integer(self, radius):
        # the deferred render would meet a float radius only when read
        with pytest.raises(ValueError, match="blur radius must be a non-negative integer"):
            AttackProfile(1, LensRegion.full_frame(), 0.9, radius, BlurPlacement.IN_LENS)
        assert AttackProfile(1, LensRegion.full_frame(), 0.9, np.int64(2),
                             BlurPlacement.IN_LENS).blur_radius == 2


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


@pytest.fixture
def kernel_calls(monkeypatch):
    """Calls of each raster kernel, counted through ``imaging``'s globals."""
    calls = dict.fromkeys(["scale_region", "region_masks", "box_blur"], 0)
    for name in calls:
        def counted(*args, _kernel=getattr(imaging, name), _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(imaging, name, counted)
    return calls


class TestDeferredRender:
    """``apply_attack_transform`` checks the profile against the frame when it
    is called and renders on the first read of ``data``, once."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_pixels_equal_the_dense_render(self, data):
        img = data.draw(rasters())
        region = data.draw(regions(img.width, img.height))
        profile = AttackProfile(data.draw(st.integers(1, 9)), region,
                                data.draw(scales()), data.draw(st.integers(0, 6)),
                                data.draw(st.sampled_from(BlurPlacement)))
        try:
            expected = dense_attack(img, profile)
        except DegenerateRegion:
            with pytest.raises(DegenerateRegion):
                apply_attack_transform(img, profile)
            return
        out = apply_attack_transform(img, profile)
        assert out.data.tobytes() == expected.data.tobytes()
        assert out.data.shape == expected.data.shape
        _assert_read_only(out)

    @pytest.mark.parametrize("shape", [(40, 30), (40, 30, 3)])
    @pytest.mark.parametrize("region", [LensRegion.full_frame(),
                                        LensRegion.circle(12, 20, 9)])
    def test_shape_alone_renders_nothing(self, kernel_calls, shape, region):
        img = noise_image(shape, seed=4)
        out = apply_attack_transform(img, AttackProfile(3, region, 1.4, 2,
                                                        BlurPlacement.IN_LENS))
        assert (out.height, out.width, out.channels) == (
            img.height, img.width, img.channels)
        assert kernel_calls == dict(scale_region=0, region_masks=0, box_blur=0)
        out.data
        out.data
        # a full-frame lens's mask is a view of one value: see the
        # 1080p full-frame simulate bound in test_cli.py
        assert kernel_calls == dict(scale_region=1, region_masks=1, box_blur=1)

    def test_kernels_are_looked_up_when_rendering(self, monkeypatch):
        """A kernel swapped in after the call (as a tracer does) is the one
        the render runs."""
        img = noise_image((20, 20), seed=2)
        # a full-frame in-lens blur
        profile = level_to_profile(LensKind.CONVEX, 4, LensRegion.full_frame())
        out = apply_attack_transform(img, profile)
        seen = []
        monkeypatch.setattr(imaging, "box_blur",
                            lambda image, mask, radius, out: seen.append(radius) or image)
        scaled = scale_region(img, profile.region, profile.scale_factor)
        assert np.array_equal(out.data, scaled.data)
        assert seen == [profile.blur_radius]

    @pytest.mark.parametrize("scale, radius", [(1.0, 0), (1.0, 3), (0.7, 0), (2.0, 4)])
    @pytest.mark.parametrize("placement", BlurPlacement)
    def test_a_circle_off_the_frame_fails_when_called(self, kernel_calls, scale, radius,
                                                      placement):
        img = noise_image((30, 40), seed=1)
        for region in [LensRegion.circle(500, 10, 20), LensRegion.circle(10, -25, 20),
                       LensRegion.circle(-15, -15, 20)]:
            with pytest.raises(DegenerateRegion,
                               match="^lens region does not intersect the frame$"):
                apply_attack_transform(img, AttackProfile(2, region, scale, radius,
                                                          placement))
        assert kernel_calls == dict(scale_region=0, region_masks=0, box_blur=0)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_degenerate_exactly_when_no_pixel_is_in_lens(self, data):
        w, h = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        region = data.draw(boundary_circles(w, h))
        profile = AttackProfile(1, region, data.draw(scales()), data.draw(st.integers(0, 2)),
                                data.draw(st.sampled_from(BlurPlacement)))
        img = noise_image((h, w), seed=3)
        if dense_in_lens(w, h, region).any():
            assert apply_attack_transform(img, profile).data.shape == (h, w)
        else:
            with pytest.raises(DegenerateRegion):
                apply_attack_transform(img, profile)

    @pytest.mark.parametrize("strip", STRIPS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_pixels_equal_the_dense_render_across_strips(self, strip, data):
        """The rescale writes into the frame and the blur works on it in
        place, strip by strip, with the bytes of the dense kernels."""
        img = data.draw(rasters())
        region = data.draw(regions(img.width, img.height))
        profile = AttackProfile(1, region, data.draw(scales()), data.draw(st.integers(0, 6)),
                                data.draw(st.sampled_from(BlurPlacement)))
        try:
            expected = dense_attack(img, profile)
        except DegenerateRegion:
            return
        with strip_values(strip):
            got = apply_attack_transform(img, profile).data
        assert got.tobytes() == expected.data.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_renders_in_place_from_a_source_it_leaves_unread(self, data):
        """The render fills its one frame from its source and rescales and
        blurs it there; a deferred source not yet read fills that frame and
        stays unread."""
        img = data.draw(rasters())
        region = data.draw(centred_regions(img.width, img.height))
        profile = AttackProfile(1, region, data.draw(scales_off_one()),
                                data.draw(st.integers(0, 4)),
                                data.draw(st.sampled_from(BlurPlacement)))
        try:
            expected = dense_attack(img, profile).data
        except DegenerateRegion:
            return
        fills = []
        source = RasterImage.deferred(
            img.shape, lambda out: fills.append(np.copyto(out, img.data)))
        with strip_values(data.draw(st.integers(1, 7))):
            got = apply_attack_transform(source, profile).data
        assert got.tobytes() == expected.tobytes()
        assert len(fills) == 1
        assert np.array_equal(source.data, img.data)
        assert len(fills) == 2

    def test_a_circle_touching_one_pixel_renders(self):
        # (3, 4) is the only pixel center within the circle of radius 5
        # about (-1, 7): 4^2 + 3^2 = 25
        img = noise_image((10, 10), seed=3)
        profile = AttackProfile(2, LensRegion.circle(-1, 7, 5), 1.5, 1,
                                BlurPlacement.IN_LENS)
        out = apply_attack_transform(img, profile)
        assert out.data.tobytes() == dense_attack(img, profile).data.tobytes()

    def test_keeps_no_source_after_rendering(self):
        img = noise_image((16, 16), seed=5)
        source = weakref.ref(img)
        out = apply_attack_transform(
            img, level_to_profile(LensKind.CONVEX, 2, LensRegion.full_frame()))
        del img
        gc.collect()
        assert source() is not None  # the render still needs it
        out.data
        gc.collect()
        assert source() is None

    def test_weak_referenceable_and_compared_by_identity(self):
        img = noise_image((8, 8), seed=6)
        profile = level_to_profile(LensKind.CONVEX, 2, LensRegion.full_frame())
        a, b = apply_attack_transform(img, profile), apply_attack_transform(img, profile)
        assert weakref.ref(a)() is a
        assert a == a and a != b and len({a, b, a}) == 2
        assert np.array_equal(a.data, b.data)

    def test_a_deferred_source_renders_inside_the_next_render(self, kernel_calls):
        img = noise_image((24, 24, 3), seed=7)
        p1 = level_to_profile(LensKind.CONCAVE, 2, LensRegion.circle(10, 10, 8))
        p2 = level_to_profile(LensKind.CONVEX, 3, LensRegion.full_frame())
        twice = apply_attack_transform(apply_attack_transform(img, p1), p2)
        assert kernel_calls["scale_region"] == 0
        expected = dense_attack(dense_attack(img, p1), p2)
        assert twice.data.tobytes() == expected.data.tobytes()
        assert kernel_calls["scale_region"] == 2


@pytest.fixture(scope="module")
def full_hd_ppm(tmp_path_factory, full_hd_rgb):
    path = tmp_path_factory.mktemp("frames") / "frame.ppm"
    full_hd_rgb.save(path)
    return path


class TestOneFrame:
    """A render allocates its one frame when its pixels are first read, and
    an unread loaded input is read from its file straight into it."""

    @pytest.mark.parametrize("lens_kind", LensKind)
    @pytest.mark.parametrize("region", [LensRegion.full_frame(),
                                        LensRegion.circle(960, 540, 400)],
                             ids=["full_frame", "circle"])
    def test_a_loaded_1080p_render_holds_one_frame(self, full_hd_ppm, full_hd_rgb,
                                                   lens_kind, region):
        # at the parent the input's frame and the render's were both held:
        # 15.3 MiB for a concave level-9 full-frame render; a circle's blur
        # reads a frame-sized bool mask besides
        profile = level_to_profile(lens_kind, 9, region)
        mask = 0 if region == LensRegion.full_frame() else 1080 * 1920
        tracemalloc.start()
        try:
            got = apply_attack_transform(RasterImage.load(full_hd_ppm), profile).data
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full_hd_rgb.data.nbytes + mask + 4 * 2 ** 20
        assert np.array_equal(got, apply_attack_transform(full_hd_rgb, profile).data)

    @pytest.mark.parametrize("lens_kind", LensKind)
    def test_the_call_allocates_a_frame_only_for_an_image_read(
            self, full_hd_ppm, full_hd_rgb, lens_kind):
        """A render of an unread image allocates nothing when called. One of
        an image already read allocates its frame then, untouched, so that
        a search that drops the last level's render after the call reuses
        its pages."""
        profile = level_to_profile(lens_kind, 9, LensRegion.circle(960, 540, 400))
        peaks = []
        for image in [RasterImage.load(full_hd_ppm), full_hd_rgb]:
            tracemalloc.start()
            try:
                apply_attack_transform(image, profile)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.1 * 2 ** 20
        assert full_hd_rgb.data.nbytes <= peaks[1] < full_hd_rgb.data.nbytes + 0.1 * 2 ** 20

    def test_a_render_reads_an_unread_file_and_leaves_it_unread(self, tmp_path,
                                                                  monkeypatch):
        path = tmp_path / "img.ppm"
        old, new = noise_image((12, 10, 3), seed=2), noise_image((12, 10, 3), seed=3)
        old.save(path)
        reads = []
        read_pnm = formats.read_pnm
        monkeypatch.setattr(formats, "read_pnm",
                            lambda *args, **kwargs: reads.append(1) or read_pnm(*args, **kwargs))
        loaded = RasterImage.load(path)
        profile = level_to_profile(LensKind.CONCAVE, 4, LensRegion.circle(5, 6, 4))
        renders = [apply_attack_transform(loaded, profile) for _ in range(3)]
        for render in renders[:2]:
            assert render.data.tobytes() == dense_attack(old, profile).data.tobytes()
        assert len(reads) == 2  # once per render that is read
        new.save(path)  # same header, new pixels: the loaded raster is unread
        assert np.array_equal(loaded.data, new.data)
        assert len(reads) == 3
        # a raster that has been read is copied, not read again
        assert renders[2].data.tobytes() == dense_attack(new, profile).data.tobytes()
        assert len(reads) == 3


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

    def test_pixels_are_read_on_first_use(self, tmp_path):
        path = tmp_path / "img.ppm"
        noise_image((6, 5, 3), seed=2).save(path)
        img = RasterImage.load(path)
        assert (img.shape, img.channels) == ((6, 5, 3), 3)
        noise_image((6, 5, 3), seed=3).save(path)  # same header, new pixels
        assert np.array_equal(img.data, noise_image((6, 5, 3), seed=3).data)
        path.unlink()
        assert np.array_equal(img.data, noise_image((6, 5, 3), seed=3).data)

    @pytest.mark.parametrize("change, message", [
        (lambda path: path.write_bytes(path.read_bytes()[:-3]),
         r"^raster truncated: expected 16 bytes, got 13 \(byte offset 24\)$"),
        (lambda path: noise_image((2, 8), seed=1).save(path),
         r"^raster shape \(2, 8\) does not match \(4, 4\)$"),
    ], ids=["cut_short", "reshaped"])
    def test_a_file_changed_after_load_fails_on_first_use(self, tmp_path, change,
                                                          message):
        path = tmp_path / "img.pgm"
        noise_image((4, 4), seed=1).save(path)
        img = RasterImage.load(path)
        change(path)
        with pytest.raises(ParseError, match=message):
            img.data


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
        lambda img: apply_attack_transform(
            img, level_to_profile(LensKind.CONVEX, 3, LensRegion.full_frame())),
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
                       img, AttackProfile(1, region, scale, radius, placement)).data]
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
