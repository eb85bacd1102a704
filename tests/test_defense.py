"""Blur detection: Laplacian scoring and LBP sharpness segmentation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depthlens.defense import (DEFAULT_LBP_SCORE_THRESHOLD, DEFAULT_VARLAP_THRESHOLD,
                               _LBP_HIGH, _lbp_active, lbp_sharpness_map, segment_blur,
                               variance_of_laplacian, varlap_verdict)
from depthlens import imaging
from depthlens.errors import TooSmall
from depthlens.imaging import (BlurPlacement, LensKind, LensRegion, RasterImage,
                               apply_attack_transform, box_blur, level_to_profile,
                               region_masks, AttackProfile)

from helpers import STRIPS, noise_image, strip_values, textured_image
from oracles import (LBP_LABELS, dense_laplacian, exact_variance, reference_lbp_active,
                     tile_loop_lbp_scores)


def impulse_image():
    data = np.zeros((5, 5), np.uint8)
    data[2, 2] = 9
    return RasterImage(data)


class TestLaplacian:
    def test_constant_zero(self):
        img = RasterImage(np.full((10, 10), 99, np.uint8))
        assert (dense_laplacian(img) == 0).all()

    def test_impulse_pattern(self):
        lap = dense_laplacian(impulse_image())
        assert lap.shape == (3, 3)
        assert lap[1, 1] == -36
        assert lap[0, 1] == lap[1, 0] == lap[1, 2] == lap[2, 1] == 9
        assert lap[0, 0] == lap[0, 2] == lap[2, 0] == lap[2, 2] == 0

    def test_linear_ramp_zero(self):
        ramp = np.tile(np.arange(0, 60, 3, dtype=np.uint8), (12, 1))
        assert (dense_laplacian(RasterImage(ramp)) == 0).all()

    def test_too_small(self):
        # both detectors read 3x3 windows, each with its own wording
        for detector, what in ((variance_of_laplacian, "the Laplacian"),
                               (lbp_sharpness_map, "LBP codes")):
            for h, w in ((2, 5), (5, 2), (1, 1)):
                with pytest.raises(TooSmall,
                                   match=f"^need at least 3x3 for {what}, got {w}x{h}$"):
                    detector(RasterImage(np.zeros((h, w), np.uint8)))

    def test_rgb_converted_by_luma(self):
        rng = np.random.default_rng(2)
        rgb = RasterImage(rng.integers(0, 256, (12, 12, 3)).astype(np.uint8))
        assert variance_of_laplacian(rgb) == variance_of_laplacian(rgb.to_gray())


class TestVarianceOfLaplacian:
    def test_constant_zero(self):
        assert variance_of_laplacian(RasterImage(np.full((8, 8), 7, np.uint8))) == 0.0

    def test_impulse_fixture_exact(self):
        assert variance_of_laplacian(impulse_image()) == 180.0

    @pytest.mark.parametrize("strip", [imaging._STRIP_VALUES] + STRIPS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_is_the_exact_variance_rounded_once(self, strip, data):
        """Equal to the exact rational variance of the dense Laplacian, rounded
        once, with the frame split into row strips; within 1e-12 of np.var's
        float sum. A narrow value range gives small and zero variances."""
        h, w = data.draw(st.integers(3, 70)), data.draw(st.integers(3, 70))
        lo = data.draw(st.integers(0, 255))
        hi = data.draw(st.integers(lo, 255))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        image = RasterImage(rng.integers(lo, hi + 1, (h, w), dtype=np.uint8))
        with strip_values(strip):
            got = variance_of_laplacian(image)
        lap = dense_laplacian(image)
        assert got == float(exact_variance(lap))
        assert math.isclose(got, float(np.var(lap)), rel_tol=1e-12)

    @pytest.mark.parametrize("shape,seed", [((5, 7), 2), ((7, 8), 2), ((8, 9), 1)])
    def test_correctly_rounded_where_the_float_sum_is_not(self, shape, seed):
        """Frames on which np.var's float sum misses the exact variance in the
        last bit: the score is the exact value rounded once."""
        image = RasterImage(np.random.default_rng(seed).integers(0, 256, shape,
                                                                 dtype=np.uint8))
        exact = float(exact_variance(dense_laplacian(image)))
        assert float(np.var(dense_laplacian(image))) != exact
        assert variance_of_laplacian(image) == exact

    def test_builds_no_frame_sized_temporary(self):
        """The Laplacian lives one row strip at a time: the call allocates
        less than one uint8 frame, where a widened frame takes 4 bytes a
        pixel and a float64 one 8."""
        image = noise_image((1000, 1000), seed=0)
        tracemalloc.start()
        try:
            variance_of_laplacian(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 1000

    def test_blur_strictly_lowers_score_random(self):
        full = np.ones((96, 96), bool)
        for seed in range(50):
            img = noise_image((96, 96), seed=seed)
            blurred = box_blur(img, full, 2)
            assert variance_of_laplacian(blurred) < variance_of_laplacian(img)

    def test_verdict_thresholding(self):
        sharp = noise_image((96, 96), seed=0)
        verdict = varlap_verdict(sharp, DEFAULT_VARLAP_THRESHOLD)
        assert not verdict.blurred
        assert verdict.blurred == (verdict.score < verdict.threshold)
        blurred_img = box_blur(sharp, np.ones((96, 96), bool), 4)
        verdict = varlap_verdict(blurred_img, DEFAULT_VARLAP_THRESHOLD)
        assert verdict.blurred

    def test_report_line_format(self):
        line = varlap_verdict(noise_image((32, 32), seed=1)).report_line()
        assert line.startswith("verdict=")
        assert "score=" in line and "threshold=" in line


class TestLbpSharpness:
    def test_constant_tile_zero(self):
        img = RasterImage(np.full((64, 64), 128, np.uint8))
        assert (lbp_sharpness_map(img, window=32).scores == 0.0).all()

    def test_checkerboard_high(self):
        cb = (np.indices((64, 64)).sum(axis=0) % 2 * 255).astype(np.uint8)
        scores = lbp_sharpness_map(RasterImage(cb), window=32).scores
        assert (scores >= 0.9).all()

    def test_scores_bounded(self):
        for seed in range(10):
            scores = lbp_sharpness_map(textured_image(seed=seed)).scores
            assert (scores >= 0.0).all() and (scores <= 1.0).all()

    def test_sharp_beats_blurred(self):
        for seed in range(10):
            img = noise_image((96, 96), seed=seed)
            blurred = box_blur(img, np.ones((96, 96), bool), 3)
            sharp_score = lbp_sharpness_map(img, window=32).scores.mean()
            blur_score = lbp_sharpness_map(blurred, window=32).scores.mean()
            assert sharp_score > blur_score

    def test_brightness_shift_invariance(self):
        rng = np.random.default_rng(5)
        base = rng.integers(60, 180, (64, 64)).astype(np.uint8)  # no clipping room needed
        shifted = (base.astype(np.int16) + 15).astype(np.uint8)
        a = lbp_sharpness_map(RasterImage(base), window=32).scores
        b = lbp_sharpness_map(RasterImage(shifted), window=32).scores
        assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(3, 70), w=st.integers(3, 70), window=st.integers(8, 80),
           delta=st.integers(0, 60), seed=st.integers(0, 2 ** 32 - 1),
           strip=st.sampled_from([imaging._STRIP_VALUES] + STRIPS))
    # edge tiles with no interior pixel, along either axis
    @example(h=9, w=17, window=8, delta=20, seed=0, strip=97)
    @example(h=17, w=9, window=8, delta=20, seed=0, strip=1)
    @example(h=5, w=6, window=24, delta=20, seed=1, strip=1)  # frame inside one tile
    @example(h=50, w=70, window=24, delta=20, seed=2, strip=97)  # partial edge tiles
    def test_matches_tile_loop_oracle(self, h, w, window, delta, seed, strip):
        """Scores equal the tile loop's with ==, at every strip size, for
        windows that do not divide the frame or exceed it."""
        gray = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
        with strip_values(strip):
            scores = lbp_sharpness_map(RasterImage(gray), window, delta).scores
        expected = tile_loop_lbp_scores(reference_lbp_active(gray, delta), window)
        assert scores.dtype == expected.dtype and np.array_equal(scores, expected)

    @pytest.mark.parametrize("strip", [imaging._STRIP_VALUES] + STRIPS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_active_matches_reference(self, strip, data):
        """Bit for bit against the int16 reference, on frames of any contrast
        (a narrow value range puts neighbor differences next to delta) and
        with the frame split into row strips."""
        h, w = data.draw(st.integers(3, 70)), data.draw(st.integers(3, 70))
        lo = data.draw(st.integers(0, 255))
        hi = data.draw(st.integers(lo, 255))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        gray = rng.integers(lo, hi + 1, (h, w), dtype=np.uint8)
        delta = data.draw(st.one_of(st.integers(0, 300),
                                    st.sampled_from([0, 254, 255, 256])))
        with strip_values(strip):
            got = np.concatenate([active for _, active in _lbp_active(gray, delta)])
        assert got.dtype == bool and got.shape == (h - 2, w - 2)
        assert np.array_equal(got, reference_lbp_active(gray, delta))

    def test_holds_no_frame_sized_activity_map(self):
        """Active pixels are counted as each strip is made: at 1080p the call
        allocates less than one uint8 frame, where a bool activity map of the
        interior takes nearly that."""
        image = noise_image((1080, 1920), seed=0)
        tracemalloc.start()
        try:
            lbp_sharpness_map(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1080 * 1920

    def test_high_activity_codes_are_labels_six_to_nine(self):
        """Every ring code against the reference's ten-label table."""
        assert np.array_equal(_LBP_HIGH, LBP_LABELS >= 6)
        assert np.count_nonzero(_LBP_HIGH) == 215

    def test_window_floor(self):
        with pytest.raises(ValueError):
            lbp_sharpness_map(noise_image(), window=4)


class TestSegmentBlur:
    def test_all_above_threshold_clean(self):
        img = noise_image((128, 128), seed=3)
        verdict = segment_blur(lbp_sharpness_map(img), DEFAULT_LBP_SCORE_THRESHOLD)
        assert not verdict.blurred
        assert not verdict.blur_mask.any()

    def test_threshold_zero_empty_mask(self):
        img = noise_image((128, 128), seed=4)
        verdict = segment_blur(lbp_sharpness_map(img), 0.0)
        assert not verdict.blurred

    def test_half_blurred_composite_iou(self):
        img = noise_image((256, 256), seed=7)
        mask = np.zeros((256, 256), bool)
        mask[:, :128] = True  # left half defocused
        composite = box_blur(img, mask, 4)
        verdict = segment_blur(lbp_sharpness_map(composite, window=32))
        assert verdict.blurred
        inter = (verdict.blur_mask & mask).sum()
        union = (verdict.blur_mask | mask).sum()
        assert inter / union >= 0.7

    def test_mask_resolution_matches_image(self):
        img = noise_image((100, 140), seed=8)
        verdict = segment_blur(lbp_sharpness_map(img, window=32))
        assert verdict.blur_mask.shape == (100, 140)


class TestAttackDetection:
    def attack_images(self):
        """Attacked renders with blur radius >= 3 over the fixture corpus."""
        images = []
        region = LensRegion.circle(128, 128, 80)
        for seed in (1, 2, 3):
            base = textured_image((256, 256), seed=seed)
            for kind in (LensKind.CONCAVE, LensKind.CONVEX):
                for level in (3, 5, 7, 9):
                    profile = level_to_profile(kind, level, region=region)
                    images.append(apply_attack_transform(base, profile))
        return images

    def test_every_blurred_attack_flagged_at_defaults(self):
        for attacked in self.attack_images():
            verdict = segment_blur(lbp_sharpness_map(attacked))
            assert verdict.blurred

    def test_blur_radius_below_three_not_required_to_flag(self):
        # sanity only: the benign corpus itself stays clean
        for seed in (1, 2, 3):
            verdict = segment_blur(lbp_sharpness_map(textured_image(seed=seed)))
            assert not verdict.blurred
