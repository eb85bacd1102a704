"""Loss functions and the brute-force level search."""

import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from depthlens import attack_opt, imaging
from depthlens.attack_opt import (LEVELS, LossConfig, Mode, OptimizationError,
                                  alpha_sweep, loss_out, loss_vehicle_targeted,
                                  loss_vehicle_untargeted, optimize_level,
                                  sweep_to_csv, SWEEP_CSV_HEADER)
from depthlens.errors import EmptyMask, NonPositiveDenominator, ParseError
from depthlens.estimation import (Box, DirectoryMapEstimator, FiducialSpec,
                                  ProxyDepthMapper)
from depthlens.imaging import LensKind, LensRegion, RasterImage, region_masks

from helpers import (STRIPS, concave_sweep_fixture, strip_values, textured_image,
                     write_pfm, write_pgm16)
from oracles import (_dense_abs_diff, dense_alpha_sweep, dense_in_lens,
                     dense_optimize_level, two_step_masked_mean)


class TestLossPieces:
    def test_out_zero_on_identical(self):
        m = np.full((6, 6), 3.0)
        mask = np.ones((6, 6), bool)
        assert loss_out(m, m, mask) == 0.0

    def test_out_uniform_offset(self):
        a = np.full((6, 6), 3.1)
        b = np.full((6, 6), 3.0)
        assert loss_out(a, b, np.ones((6, 6), bool)) == pytest.approx(0.1)

    def test_out_ignores_in_lens_difference(self):
        a = np.zeros((6, 6))
        b = a.copy()
        a[2, 2] = 99.0
        mask = np.ones((6, 6), bool)
        mask[2, 2] = False
        assert loss_out(a, b, mask) == 0.0

    def test_targeted_examples(self):
        mask = np.ones((4, 4), bool)
        assert loss_vehicle_targeted(np.full((4, 4), 0.43), mask, 0.43) == 0.0
        assert loss_vehicle_targeted(np.full((4, 4), 0.53), mask, 0.43) == pytest.approx(0.10)
        half = np.full((4, 4), 0.43)
        half[:2] = 0.63
        assert loss_vehicle_targeted(half, mask, 0.43) == pytest.approx(0.10)

    def test_untargeted_examples(self):
        mask = np.ones((4, 4), bool)
        b = np.full((4, 4), 1.0)
        assert loss_vehicle_untargeted(b, b, mask) == 0.0
        assert loss_vehicle_untargeted(b + 0.2, b, mask) == pytest.approx(-0.2)
        outside = b.copy()
        m = mask.copy()
        m[1, 1] = False
        shifted = b.copy()
        shifted[1, 1] = 9.0
        assert loss_vehicle_untargeted(shifted, outside, m) == 0.0

    def test_untargeted_never_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.uniform(0, 10, (5, 5))
            b = rng.uniform(0, 10, (5, 5))
            assert loss_vehicle_untargeted(a, b, np.ones((5, 5), bool)) <= 0.0

    def test_total_weighting(self, monkeypatch):
        # l_veh = |3 - 1| = 2 in the vehicle box, l_out = |5 - 1| = 4 outside
        # the lens, so the level's total is (1 - alpha) * 2 + alpha * 4
        image, box, region, est = fake_setup({1: (3.0, 5.0)})
        monkeypatch.setattr(attack_opt, "LEVELS", (1,))

        def total(alpha):
            cfg = LossConfig(alpha=alpha, mode=Mode.TARGETED, vehicle_box=box,
                             region=region, y_tar=1.0)
            (score,) = optimize_level(image, est, cfg, LensKind.CONCAVE).loss_curve
            assert (score.l_veh, score.l_out) == (2.0, 4.0)
            return score.l_total

        assert total(0.0) == 2.0
        assert total(1.0) == 4.0
        assert total(0.25) == pytest.approx(2.5)

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            loss_out(np.ones((3, 3)), np.ones((3, 3)), np.zeros((3, 3), bool))


@st.composite
def drift_cases(draw):
    """Two maps and a mask. Maps are float32 or float64, up to near their
    dtype's largest value (so an unwidened difference would overflow), with
    NaN and +-inf anywhere. Masks are random, empty, full, or set on a few
    row bands only, so some strips select nothing."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def a_map():
        dtype = draw(st.sampled_from([np.float32, np.float64]))
        scale = draw(st.sampled_from([1.0, float(np.finfo(dtype).max) / 2]))
        values = rng.uniform(-scale, scale, (h, w))
        special = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        values[special] = rng.choice([np.nan, np.inf, -np.inf], special.sum())
        return values.astype(dtype)

    kind = draw(st.sampled_from(["random", "empty", "full", "bands"]))
    if kind == "random":
        mask = rng.random((h, w)) < draw(st.floats(0, 1))
    elif kind == "bands":
        mask = (rng.random((h, 1)) < 0.2) & (rng.random((1, w)) < 0.7)
    else:
        mask = np.full((h, w), kind == "full")
    return a_map(), a_map(), mask


class TestLossOut:
    """``loss_out`` forms ``|a - b|`` per row strip; it must give the bits of
    the dense two-step mean."""

    @pytest.mark.parametrize("strip", [None] + STRIPS)
    @settings(max_examples=200, deadline=None)
    @given(case=drift_cases())
    def test_equals_dense_two_step_mean(self, strip, case):
        a, b, mask = case
        with np.errstate(invalid="ignore", over="ignore"):
            want = _outcome(two_step_masked_mean, _dense_abs_diff(a, b), mask)
            with strip_values(strip or imaging._STRIP_VALUES):
                got = _outcome(loss_out, a, b, mask)
        assert got == want

    @pytest.mark.parametrize("b_shape, mask_shape",
                             [((4, 3), (3, 4)), ((3, 1), (3, 4)), ((3, 4), (4, 3))])
    def test_shape_mismatch_rejected(self, b_shape, mask_shape):
        with pytest.raises(ValueError, match="does not match"):
            loss_out(np.ones((3, 4)), np.ones(b_shape), np.ones(mask_shape, bool))

    def test_peak_memory_is_a_few_strips(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(4.0, 40.0, (2, 1080, 1920))
        m_out = ~region_masks(1920, 1080, LensRegion.circle(960, 540, 300))
        tracemalloc.start()
        try:
            loss_out(a, b, m_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20

    @pytest.mark.parametrize("radius", [150, 500])
    def test_peak_memory_does_not_grow_with_the_selection(self, radius):
        """float32 maps with NaN holes, as read from PFM files: the kept
        count is known only after a pass, and no pass holds the selection
        (1.3 to 2.0 M values here, 8 bytes each)."""
        rng = np.random.default_rng(7)
        a, b = rng.uniform(0.5, 2.0, (2, 1080, 1920)).astype(np.float32)
        a[::7, ::5] = np.nan
        b[3::11, ::13] = np.nan
        m_out = ~region_masks(1920, 1080, LensRegion.circle(960, 540, radius))
        tracemalloc.start()
        try:
            loss_out(a, b, m_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


class FakeEstimator:
    """Prescribed constant maps: value inside the lens circle, another outside."""

    def __init__(self, per_tag: dict, region: LensRegion, shape=(64, 64)):
        self.per_tag = per_tag
        self.shape = shape
        self.inside = region_masks(shape[1], shape[0], region)

    def estimate_map(self, image, tag=None):
        inside_value, outside_value = self.per_tag[tag]
        out = np.full(self.shape, float(outside_value))
        out[self.inside] = float(inside_value)
        return out


def fake_setup(level_values, benign=(1.0, 1.0)):
    """Build (image, cfg pieces, estimator) with prescribed per-level maps."""
    region = LensRegion.circle(32, 32, 20)
    per_tag = {"benign": benign}
    for level, pair in level_values.items():
        per_tag[f"level_{level}"] = pair
    estimator = FakeEstimator(per_tag, region)
    image = RasterImage(np.full((64, 64), 128, np.uint8))
    box = Box(24, 24, 40, 40)
    return image, box, region, estimator


class TestOptimizeLevel:
    def test_singleton_candidate_set(self, monkeypatch):
        image, box, region, est = fake_setup({5: (0.5, 1.0)})
        cfg = LossConfig(alpha=0.3, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=0.43)
        monkeypatch.setattr(attack_opt, "LEVELS", (5,))
        result = optimize_level(image, est, cfg, LensKind.CONCAVE)
        assert result.best_level == 5
        assert len(result.loss_curve) == 1

    def test_monotone_fixture_selects_nine(self):
        # vehicle estimate walks toward the target as the level grows
        levels = {lv: (1.0 - 0.05 * lv, 1.0) for lv in range(1, 10)}
        image, box, region, est = fake_setup(levels)
        cfg = LossConfig(alpha=0.2, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=0.43)
        result = optimize_level(image, est, cfg, LensKind.CONCAVE)
        assert result.best_level == 9
        totals = [s.l_total for s in result.loss_curve]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_exact_tie_breaks_to_smaller_level(self):
        levels = {lv: (0.9, 1.0) for lv in range(1, 10)}
        levels[3] = (0.43, 1.0)
        levels[7] = (0.43, 1.0)
        image, box, region, est = fake_setup(levels)
        cfg = LossConfig(alpha=0.0, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=0.43)
        result = optimize_level(image, est, cfg, LensKind.CONCAVE)
        assert result.best_level == 3

    def test_alpha_degeneracy_exact(self):
        levels = {lv: (1.0 + 0.1 * lv, 1.0 + 0.03 * lv) for lv in range(1, 10)}
        image, box, region, est = fake_setup(levels)
        for alpha, pick in ((0.0, "l_veh"), (1.0, "l_out")):
            cfg = LossConfig(alpha=alpha, mode=Mode.TARGETED, vehicle_box=box,
                             region=region, y_tar=0.43)
            result = optimize_level(image, est, cfg, LensKind.CONCAVE)
            for score in result.loss_curve:
                assert score.l_total == getattr(score, pick)

    def test_best_loss_is_min_over_curve_random_fixtures(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            levels = {lv: (rng.uniform(0.1, 2.0), rng.uniform(0.5, 1.5))
                      for lv in range(1, 10)}
            image, box, region, est = fake_setup(levels)
            mode = Mode.TARGETED if rng.random() < 0.5 else Mode.UNTARGETED
            cfg = LossConfig(alpha=float(rng.uniform(0, 1)), mode=mode,
                             vehicle_box=box, region=region,
                             y_tar=float(rng.uniform(0.1, 2.0)))
            result = optimize_level(image, est, cfg, LensKind.CONCAVE)
            totals = [s.l_total for s in result.loss_curve]
            assert result.best_loss == min(totals)
            assert result.best_level == min(
                s.level for s in result.loss_curve if s.l_total == result.best_loss)

    def test_determinism(self):
        image, box, region, est, y_tar = concave_sweep_fixture(seed=42)
        cfg = LossConfig(alpha=0.3, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=y_tar)
        a = optimize_level(image, est, cfg, LensKind.CONCAVE)
        b = optimize_level(image, est, cfg, LensKind.CONCAVE)
        assert a.loss_curve == b.loss_curve
        assert a.best_level == b.best_level

    def test_untargeted_metric_is_adr(self):
        levels = {lv: (1.0 + 0.1 * lv, 1.0) for lv in range(1, 10)}
        image, box, region, est = fake_setup(levels)
        cfg = LossConfig(alpha=0.2, mode=Mode.UNTARGETED, vehicle_box=box,
                         region=region)
        result = optimize_level(image, est, cfg, LensKind.CONCAVE)
        assert result.metric_name == "ADR"
        assert result.metric_value == pytest.approx(0.9)  # level 9: |1.9-1|/1

    def test_full_frame_lens_has_zero_out_of_lens_loss(self):
        # nothing lies outside a full-frame lens, so nothing can drift there
        region = LensRegion.full_frame()
        per_tag = {"benign": (1.0, 1.0)}
        per_tag.update({f"level_{lv}": (1.0 + 0.1 * lv, 1.0) for lv in range(1, 10)})
        est = FakeEstimator(per_tag, region)
        cfg = LossConfig(alpha=0.4, mode=Mode.TARGETED, vehicle_box=Box(24, 24, 40, 40),
                         region=region, y_tar=1.33)
        result = optimize_level(RasterImage(np.full((64, 64), 128, np.uint8)),
                                est, cfg, LensKind.CONCAVE)
        assert [s.l_out for s in result.loss_curve] == [0.0] * 9
        assert all(s.l_total == 0.6 * s.l_veh for s in result.loss_curve)
        assert result.best_level == 3

    def test_out_of_lens_pixels_without_a_finite_estimate_fail(self, monkeypatch):
        image, box, region, est = fake_setup({1: (0.5, np.nan)})
        cfg = LossConfig(alpha=0.3, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=0.43)
        monkeypatch.setattr(attack_opt, "LEVELS", (1,))
        with pytest.raises(OptimizationError) as err:
            optimize_level(image, est, cfg, LensKind.CONCAVE)
        assert err.value.level == 1
        assert isinstance(err.value.__cause__, EmptyMask)

    def test_estimator_failure_tagged_with_level(self, tmp_path):
        write_pfm(tmp_path / "benign.pfm", np.full((8, 8), 1.0, np.float32))
        for lv in (1, 2, 3, 4, 5, 6, 8, 9):
            write_pfm(tmp_path / f"level_{lv}.pfm",
                      np.full((8, 8), 1.2, np.float32))
        est = DirectoryMapEstimator(tmp_path)
        image = RasterImage(np.full((8, 8), 100, np.uint8))
        cfg = LossConfig(alpha=0.2, mode=Mode.UNTARGETED,
                         vehicle_box=Box(2, 2, 6, 6),
                         region=LensRegion.circle(4, 4, 3))
        with pytest.raises(OptimizationError) as err:
            optimize_level(image, est, cfg, LensKind.CONCAVE)
        assert err.value.level == 7

    def test_benign_map_of_another_size_than_the_input_fails(self, tmp_path):
        # the lens circle and the vehicle box are in input pixels, so a map
        # of another size cannot be scored
        for tag in ("benign", *(f"level_{lv}" for lv in LEVELS)):
            write_pfm(tmp_path / f"{tag}.pfm", np.full((4, 6), 1.2, np.float32))
        image = RasterImage(np.full((8, 12), 100, np.uint8))
        cfg = LossConfig(alpha=0.2, mode=Mode.UNTARGETED, vehicle_box=Box(2, 2, 6, 6),
                         region=LensRegion.circle(4, 4, 3))
        with pytest.raises(OptimizationError) as err:
            optimize_level(image, DirectoryMapEstimator(tmp_path), cfg, LensKind.CONCAVE)
        assert err.value.level == "benign"
        assert str(err.value) == "level benign: estimator returned (4, 6), input is (8, 12)"

    def test_metric_failure_tagged_with_the_best_level(self, tmp_path):
        # a benign map of 0: every level scores, but the ADR has no denominator
        write_pfm(tmp_path / "benign.pfm", np.zeros((8, 8), np.float32))
        for lv in LEVELS:
            write_pfm(tmp_path / f"level_{lv}.pfm", np.full((8, 8), 1.2, np.float32))
        image = RasterImage(np.full((8, 8), 100, np.uint8))
        cfg = LossConfig(alpha=0.2, mode=Mode.UNTARGETED, vehicle_box=Box(2, 2, 6, 6),
                         region=LensRegion.circle(4, 4, 3))
        with pytest.raises(OptimizationError) as err:
            optimize_level(image, DirectoryMapEstimator(tmp_path), cfg, LensKind.CONCAVE)
        assert err.value.level == 1
        assert isinstance(err.value.__cause__, NonPositiveDenominator)
        assert str(err.value) == "level 1: benign value must be positive, got 0.0"


class LifetimeEstimator:
    """Returns a fresh map per call and keeps only weak references to the
    level maps it returned and the renders it was given."""

    def __init__(self, shape):
        self.shape = shape
        self.refs = []  # (render, map) weak references, one pair per level
        self.alive_at_estimate = []

    def alive(self):
        """Whether the last level's render and map are still alive."""
        return tuple(ref() is not None for ref in self.refs[-1]) if self.refs else None

    def estimate_map(self, image, tag=None):
        out = np.full(self.shape, 1.0 if tag == "benign" else 1.5)
        if tag != "benign":
            self.alive_at_estimate.append(self.alive())
            self.refs.append((weakref.ref(image), weakref.ref(out)))
        return out


@pytest.mark.parametrize("mode, y_tar", [(Mode.TARGETED, 0.43), (Mode.UNTARGETED, None)])
def test_one_level_map_and_render_at_a_time(monkeypatch, mode, y_tar):
    """When the estimator is called for level k+1, the level-k map and render
    are gone, so the search never holds two levels' maps; the level-k render
    is gone before level k+1 renders."""
    image = textured_image((64, 64), seed=1)
    est = LifetimeEstimator(image.data.shape)
    render_alive_at_render = []
    render = attack_opt.apply_attack_transform

    def checked_render(benign, profile):
        render_alive_at_render.append(est.alive() and est.alive()[0])
        attacked = render(benign, profile)
        assert attacked is not benign
        return attacked

    monkeypatch.setattr(attack_opt, "apply_attack_transform", checked_render)
    cfg = LossConfig(alpha=0.3, mode=mode, vehicle_box=Box(8, 8, 24, 24),
                     region=LensRegion.circle(32, 32, 20), y_tar=y_tar)
    optimize_level(image, est, cfg, LensKind.CONVEX)
    assert len(est.refs) == 9
    assert est.alive_at_estimate == [None] + [(False, False)] * 8
    assert render_alive_at_render == [None] + [False] * 8


@pytest.mark.parametrize("region", [LensRegion.full_frame(), LensRegion.circle(16, 12, 9)])
@pytest.mark.parametrize("lens_kind", LensKind)
def test_a_file_backed_search_renders_nothing(tmp_path, monkeypatch, region, lens_kind):
    """The directory estimator reads no pixels, so no level's render runs:
    nine attacks are requested and neither raster kernel is called."""
    rng = np.random.default_rng(4)
    for tag in ["benign"] + [f"level_{lv}" for lv in range(1, 10)]:
        write_pfm(tmp_path / f"{tag}.pfm", rng.uniform(0.5, 2.0, (24, 32)).astype(np.float32))
    calls = {"scale_region": 0, "box_blur": 0, "apply_attack_transform": 0}

    def counted(module, name):
        kernel = getattr(module, name)

        def count(*args):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(module, name, count)

    counted(imaging, "scale_region")
    counted(imaging, "box_blur")
    counted(attack_opt, "apply_attack_transform")
    cfg = LossConfig(alpha=0.4, mode=Mode.UNTARGETED, vehicle_box=Box(4, 4, 20, 16),
                     region=region)
    result = optimize_level(textured_image((24, 32), seed=2), DirectoryMapEstimator(tmp_path),
                            cfg, lens_kind)
    assert len(result.loss_curve) == 9
    assert calls == {"scale_region": 0, "box_blur": 0, "apply_attack_transform": 9}


def test_a_1080p_file_backed_search_holds_float32_maps(tmp_path, monkeypatch):
    """Each external map stays the file's float32 frame from load to loss:
    the search's peak is the benign and one level's map at 4 bytes a pixel,
    the out-of-lens mask, and 4 MiB more. A float64 copy of either map would
    add 8 MB, and so would the losses' selections if they were held."""
    rng = np.random.default_rng(6)
    for tag in ["benign", "level_1", "level_2"]:
        values = rng.uniform(0.5, 2.0, (1080, 1920)).astype(np.float32)
        values[::7, ::5] = np.nan
        write_pfm(tmp_path / f"{tag}.pfm", values)
    region = LensRegion.circle(960, 540, 300)
    cfg = LossConfig(alpha=0.3, mode=Mode.UNTARGETED,
                     vehicle_box=Box(860, 440, 1060, 640), region=region)
    image = RasterImage(np.full((1080, 1920), 128, np.uint8))
    m_out = ~region_masks(1920, 1080, region)
    monkeypatch.setattr(attack_opt, "LEVELS", (1, 2))
    tracemalloc.start()
    try:
        optimize_level(image, DirectoryMapEstimator(tmp_path), cfg, LensKind.CONCAVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    maps = 2 * 4 * m_out.size
    assert peak <= maps + m_out.size + 4 * 2 ** 20


def test_a_1080p_file_backed_search_holds_one_map_frame(tmp_path, monkeypatch):
    """A level's map is read from its file where the losses read it: the
    search's peak is the benign map's float32 frame, the out-of-lens mask,
    and 4 MiB more, not a second map frame."""
    rng = np.random.default_rng(7)
    for tag in ["benign", "level_1", "level_2"]:
        values = rng.uniform(0.5, 2.0, (1080, 1920)).astype(np.float32)
        values[::7, ::5] = np.nan
        write_pfm(tmp_path / f"{tag}.pfm", values)
    region = LensRegion.circle(960, 540, 300)
    cfg = LossConfig(alpha=0.3, mode=Mode.UNTARGETED,
                     vehicle_box=Box(860, 440, 1060, 640), region=region)
    image = RasterImage(np.full((1080, 1920), 128, np.uint8))
    monkeypatch.setattr(attack_opt, "LEVELS", (1, 2))
    tracemalloc.start()
    try:
        optimize_level(image, DirectoryMapEstimator(tmp_path), cfg, LensKind.CONCAVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    frame = 1080 * 1920
    assert peak <= 4 * frame + frame + 4 * 2 ** 20


class Rewriting:
    """The directory estimator, but the file of the level ``tag`` is
    rewritten by ``change`` once its map is made."""

    def __init__(self, directory, tag, change):
        self.estimator, self.tag, self.change = DirectoryMapEstimator(directory), tag, change
        self.path = directory / f"{tag}.pfm"

    def estimate_map(self, image, tag=None):
        made = self.estimator.estimate_map(image, tag)
        if tag == self.tag:
            self.path.write_bytes(self.change(self.path.read_bytes()))
        return made


@pytest.mark.parametrize("change", [lambda data: data[:-4],
                                    lambda data: data.replace(b"8 8", b"4 16", 1)],
                         ids=["shrunk", "reshaped"])
def test_a_level_file_changed_after_its_map_was_made_fails_its_level(tmp_path, change):
    """A level's map rereads its file for every strip: a file that shrank or
    changed shape by then fails that level, tagged with it."""
    for tag in ["benign", *(f"level_{lv}" for lv in LEVELS)]:
        write_pfm(tmp_path / f"{tag}.pfm", np.full((8, 8), 1.2, np.float32))
    cfg = LossConfig(alpha=0.2, mode=Mode.UNTARGETED, vehicle_box=Box(2, 2, 6, 6),
                     region=LensRegion.circle(4, 4, 3))
    with pytest.raises(OptimizationError) as err:
        optimize_level(RasterImage(np.full((8, 8), 100, np.uint8)),
                       Rewriting(tmp_path, "level_4", change), cfg, LensKind.CONCAVE)
    assert err.value.level == 4
    assert isinstance(err.value.__cause__, ParseError)


@pytest.mark.parametrize("count, fails", [(65535, True), (1000, False)])
def test_a_level_map_whose_count_overflows_fails_with_a_full_frame_lens(tmp_path, count,
                                                                         fails):
    """At a scale of 1e35, 65535 counts overflow float32 and 1000 do not.
    A full-frame lens leaves no out-of-lens loss to read every row, and the
    count lies outside the vehicle box, so only the check made when the map
    is made can find it: the level fails as a loaded map's would."""
    write_pfm(tmp_path / "benign.pfm", np.full((8, 8), 1.0, np.float32))
    for lv in LEVELS:
        counts = np.full((8, 8), 10.0)
        if lv == 3:
            counts[7, 7] = count
        write_pgm16(tmp_path / f"level_{lv}.pgm", counts * 1e35, 1e35)
    cfg = LossConfig(alpha=0.2, mode=Mode.TARGETED, vehicle_box=Box(0, 0, 4, 4),
                     region=LensRegion.full_frame(), y_tar=0.5)
    image = RasterImage(np.full((8, 8), 100, np.uint8))
    if not fails:
        result = optimize_level(image, DirectoryMapEstimator(tmp_path), cfg, LensKind.CONCAVE)
        assert len(result.loss_curve) == len(LEVELS)
        return
    with pytest.raises(OptimizationError) as err:
        optimize_level(image, DirectoryMapEstimator(tmp_path), cfg, LensKind.CONCAVE)
    assert err.value.level == 3
    assert str(err.value) == (f"level 3: largest count at scale 1e+35 in "
                              f"{tmp_path / 'level_3.pgm'}.scale overflows float32")


def test_a_1080p_full_frame_search_holds_no_out_of_lens_mask(tmp_path, monkeypatch):
    """Nothing lies outside a full-frame lens, so the search holds no
    out-of-lens mask: its peak is the benign and one level's float32 map,
    the deferred render's frame, and 0.5 MiB more."""
    rng = np.random.default_rng(8)
    for tag in ["benign", "level_1", "level_2"]:
        write_pfm(tmp_path / f"{tag}.pfm",
                  rng.uniform(0.5, 2.0, (1080, 1920)).astype(np.float32))
    cfg = LossConfig(alpha=0.3, mode=Mode.TARGETED, vehicle_box=Box(860, 440, 1060, 640),
                     region=LensRegion.full_frame(), y_tar=1.2)
    image = RasterImage(np.full((1080, 1920), 128, np.uint8))
    monkeypatch.setattr(attack_opt, "LEVELS", (1, 2))
    tracemalloc.start()
    try:
        result = optimize_level(image, DirectoryMapEstimator(tmp_path), cfg,
                                LensKind.CONCAVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.l_out for s in result.loss_curve] == [0.0, 0.0]
    frame = 1080 * 1920
    assert peak <= 2 * 4 * frame + frame + 2 ** 19


def test_a_1080p_proxy_search_holds_no_float64_map():
    """The proxy's maps are read where the losses use them: each holds its
    gray frame, not 8 bytes a pixel. Two float64 maps alone would be
    31.6 MiB; one search with one alpha peaks below 16 MiB."""
    rng = np.random.default_rng(9)
    blocks = rng.integers(40, 256, (45, 80))
    gray = np.kron(blocks, np.ones((24, 24), np.int64)).astype(np.uint8)
    region = LensRegion.circle(960, 540, 300)
    gray[region_masks(1920, 1080, region)] = 215
    gray[490:590, 940:980] = 10  # a 100 px fiducial at the lens center
    box = Box(880, 460, 1040, 620)
    estimator = ProxyDepthMapper(FiducialSpec(1.5, reference_box=box), 1400.0)
    cfg = LossConfig(alpha=0.3, mode=Mode.UNTARGETED, vehicle_box=box, region=region)
    image = RasterImage(gray)
    tracemalloc.start()
    try:
        result = optimize_level(image, estimator, cfg, LensKind.CONCAVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.loss_curve) == 9
    assert peak < 16 * 2 ** 20


class RandomMapEstimator:
    """Seeded random maps per tag, with NaN holes; one tag may be missing."""

    def __init__(self, rng, shape, dtype, nan_share, low, missing=None):
        self.maps = {}
        for tag in ["benign"] + [f"level_{lv}" for lv in range(1, 10)]:
            values = rng.uniform(low, 5.0, shape)
            values[rng.random(shape) < nan_share] = np.nan
            self.maps[tag] = values.astype(dtype)
        self.missing = missing

    def estimate_map(self, image, tag=None):
        if tag == self.missing:
            raise FileNotFoundError(f"no {tag}.pfm")
        return self.maps[tag]


class BenignRejected:
    """Another estimator's maps, but the benign frame raises ``ValueError``."""

    REASON = "benign frame rejected"

    def __init__(self, estimator):
        self.estimator = estimator

    def estimate_map(self, image, tag=None):
        if tag == "benign":
            raise ValueError(self.REASON)
        return self.estimator.estimate_map(image, tag)


def _box_span(draw, size, where):
    """Inclusive-exclusive bounds along one axis of a frame of ``size`` px."""
    if where == "inside":
        lo = draw(st.integers(0, size - 1))
        return lo, draw(st.integers(lo + 1, size))
    if where == "across":
        lo = draw(st.integers(-3, size - 1))
        return lo, draw(st.integers(max(lo, 0) + 1, size + 3))
    if draw(st.booleans()):  # off: wholly before or after the frame
        hi = draw(st.integers(-3, 0))
        return hi - draw(st.integers(1, 4)), hi
    lo = draw(st.integers(size, size + 3))
    return lo, lo + draw(st.integers(1, 4))


@st.composite
def loss_cases(draw):
    """Small random maps (float32/64, NaN holes), either mode, and vehicle
    boxes inside, across and fully off the frame."""
    h, w = draw(st.integers(3, 16)), draw(st.integers(3, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    estimator = RandomMapEstimator(
        rng, (h, w), draw(st.sampled_from([np.float32, np.float64])),
        nan_share=draw(st.sampled_from([0.0, 0.0, 0.1, 0.3, 1.0])),
        low=draw(st.sampled_from([0.05, 0.05, 0.05, -1.0])),
        missing=draw(st.sampled_from([None] * 9 + ["benign", "level_1", "level_6"])))
    spans = [draw(st.sampled_from(["inside", "across", "off"]))] * 2
    if spans[0] == "off":  # one axis misses the frame, the other need not
        spans[draw(st.integers(0, 1))] = draw(st.sampled_from(["inside", "across"]))
    x0, x1 = _box_span(draw, w, spans[0])
    y0, y1 = _box_span(draw, h, spans[1])
    if draw(st.integers(0, 5)) == 0:  # no out-of-lens pixel: L_out is 0
        region = LensRegion.full_frame()
    else:
        region = LensRegion.circle(draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)),
                                   draw(st.integers(1, min(w, h) // 2)))
    mode = draw(st.sampled_from(Mode))
    y_tar = draw(st.floats(0.1, 5.0)) if mode is Mode.TARGETED else None
    cfg = LossConfig(alpha=draw(st.floats(0.0, 1.0)), mode=mode,
                     vehicle_box=Box(x0, y0, x1, y1), region=region, y_tar=y_tar)
    return RasterImage(np.full((h, w), 128, np.uint8)), estimator, cfg


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc), getattr(exc, "level", None)


def assert_same_result(got, want):
    for name in ("best_level", "best_loss", "metric_name", "metric_value"):
        assert getattr(got, name) == getattr(want, name), name
    assert len(got.loss_curve) == len(want.loss_curve)
    for g, w in zip(got.loss_curve, want.loss_curve):
        assert (g.level, g.l_total, g.l_veh, g.l_out) == (w.level, w.l_total, w.l_veh, w.l_out)


def assert_same_rows(got, want):
    """Sweep rows, or the error that ended the sweep, equal field by field."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.alpha, g.mode, g.error) == (w.alpha, w.mode, w.error)
        assert (g.result is None) == (w.result is None)
        if w.result is not None:
            assert_same_result(g.result, w.result)


class TestCroppedLossesMatchDense:
    @settings(max_examples=300, deadline=None)
    @given(loss_cases())
    def test_optimize_level(self, case):
        image, est, cfg = case
        got = _outcome(optimize_level, image, est, cfg, LensKind.CONVEX)
        want = _outcome(dense_optimize_level, image, est, cfg, LensKind.CONVEX)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_result(got, want)

    @settings(max_examples=100, deadline=None)
    @given(loss_cases(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
           st.booleans())
    def test_alpha_sweep(self, case, alphas, benign_rejected):
        image, est, cfg = case
        if benign_rejected:
            est = BenignRejected(est)
        got = _outcome(alpha_sweep, image, est, cfg, alphas, LensKind.CONCAVE)
        want = _outcome(dense_alpha_sweep, image, est, cfg, alphas, LensKind.CONCAVE)
        if benign_rejected:  # a failure the sweep confines to every row
            reason = f"level benign: {BenignRejected.REASON}"
            assert [row.error for row in got] == [reason] * len(alphas)
        assert_same_rows(got, want)


class GrayEstimator:
    """A map of the render's gray levels: reads every pixel of every render."""

    def estimate_map(self, image, tag=None):
        return image.to_gray().data.astype(np.float64)


@st.composite
def footprint_cases(draw):
    """A textured frame with a dark fiducial, read by the proxy or by its
    gray levels, under a full-frame lens, a circle that covers the frame, a
    circle across the frame's edges or a radius-1 circle; either mode."""
    h, w = draw(st.integers(6, 20)), draw(st.integers(6, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gray = rng.integers(120, 256, (h, w)).astype(np.uint8)
    fh, fw = draw(st.integers(3, h // 2)), draw(st.integers(2, w // 2))
    fy, fx = draw(st.integers(0, h - fh)), draw(st.integers(0, w - fw))
    gray[fy:fy + fh, fx:fx + fw] = 10
    kind = draw(st.sampled_from(["full", "covers", "across", "radius_1"]))
    if kind == "full":
        region = LensRegion.full_frame()
    elif kind == "covers":
        cx, cy = draw(st.floats(0.0, w - 1.0)), draw(st.floats(0.0, h - 1.0))
        reach = math.hypot(max(cx, w - 1 - cx), max(cy, h - 1 - cy))
        region = LensRegion.circle(cx, cy, reach + draw(st.floats(0.5, 8.0)))
        assert dense_in_lens(w, h, region).all()
    elif kind == "across":  # the center on or past an edge, the disc inside
        cx = draw(st.sampled_from([-2.5, 0.0, w - 1.0, w + 1.5]))
        cy = draw(st.floats(-2.0, h + 1.0))
        region = LensRegion.circle(cx, cy, draw(st.floats(4.0, max(w, h))))
        assert dense_in_lens(w, h, region).any()
        assume(not dense_in_lens(w, h, region).all())
    else:
        region = LensRegion.circle(draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)),
                                   1.0)
    estimator = draw(st.sampled_from([
        GrayEstimator(), ProxyDepthMapper(FiducialSpec(1.5), 700.0)]))
    x0, y0 = draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))
    box = Box(x0, y0, draw(st.integers(x0 + 1, w)), draw(st.integers(y0 + 1, h)))
    mode = draw(st.sampled_from(Mode))
    y_tar = draw(st.floats(0.1, 300.0)) if mode is Mode.TARGETED else None
    cfg = LossConfig(alpha=0.0, mode=mode, vehicle_box=box, region=region, y_tar=y_tar)
    return RasterImage(gray), estimator, cfg


class TestSharedFootprint:
    """A sweep's configs share one region, whose lens footprint serves every
    render and loss of the sweep and goes when the region goes."""

    @settings(max_examples=150, deadline=None)
    @given(case=footprint_cases(), lens_kind=st.sampled_from(LensKind),
           alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_rows_equal_the_dense_sweep(self, case, lens_kind, alphas):
        image, est, cfg = case
        got = _outcome(alpha_sweep, image, est, cfg, alphas, lens_kind)
        want = _outcome(dense_alpha_sweep, image, est, cfg, alphas, lens_kind)
        assert_same_rows(got, want)

    @pytest.fixture
    def footprints(self, monkeypatch):
        """Weak references to every footprint built, and to its masks."""
        built = []

        class Recorded(imaging._Footprint):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))
                built.append(weakref.ref(self.inside))

            @property
            def outside(self):
                mask = super().outside
                if mask is not None and all(ref() is not mask for ref in built):
                    built.append(weakref.ref(mask))
                return mask

        monkeypatch.setattr(imaging, "_Footprint", Recorded)
        return built

    @staticmethod
    def proxy_sweep(footprints):
        """A 4-alpha concave search of a circle, read by the proxy. The
        fixture's region has built its footprint, so the search is given an
        equal region of its own; only that region's footprints are
        recorded."""
        image, box, region, est, y_tar = concave_sweep_fixture(seed=42)
        region = replace(region)
        footprints.clear()
        cfg = LossConfig(alpha=0.1, mode=Mode.TARGETED, vehicle_box=box, region=region,
                         y_tar=y_tar)
        return region, alpha_sweep(image, est, cfg, [0.1, 0.2, 0.3, 0.4], LensKind.CONCAVE)

    def test_a_four_alpha_circle_search_builds_one_footprint(self, footprints, monkeypatch):
        renders = []
        scale_region = imaging.scale_region

        def counted(*args, **kwargs):
            renders.append(args[1])
            return scale_region(*args, **kwargs)
        monkeypatch.setattr(imaging, "scale_region", counted)
        region, rows = self.proxy_sweep(footprints)
        assert region.kind is imaging.RegionKind.CIRCLE
        assert not any(row.failed for row in rows)
        assert renders == [region] * 36
        # one footprint, its in-lens box mask and its out-of-lens frame mask
        assert len(footprints) == 3

    def test_no_footprint_outlives_its_region(self, footprints):
        region, _ = self.proxy_sweep(footprints)
        assert len(footprints) == 3 and all(ref() is not None for ref in footprints)
        del region
        assert all(ref() is None for ref in footprints)
        # nor one whose search ends in an error that no row reports: this
        # estimator has no level 2 map. The estimator holds the region too,
        # and the error's traceback holds the frames that hold the config.
        image, box, region, est = fake_setup({1: (1.0, 1.1)})
        cfg = LossConfig(alpha=0.1, mode=Mode.UNTARGETED, vehicle_box=box, region=region)
        with pytest.raises(KeyError, match="level_2") as err:
            alpha_sweep(image, est, cfg, [0.1], LensKind.CONCAVE)
        assert len(footprints) == 6 and all(ref() is not None for ref in footprints[3:])
        del region, est, cfg, err
        assert all(ref() is None for ref in footprints)


class TestAlphaMonotonicity:
    def test_designed_concave_family(self):
        moved = 0
        for seed in (41, 42, 43, 44):
            image, box, region, est, y_tar = concave_sweep_fixture(seed)
            bests = []
            for alpha in (0.1, 0.2, 0.3, 0.4):
                cfg = LossConfig(alpha=alpha, mode=Mode.TARGETED, vehicle_box=box,
                                 region=region, y_tar=y_tar)
                result = optimize_level(image, est, cfg, LensKind.CONCAVE)
                louts = [s.l_out for s in result.loss_curve]
                assert all(b > a for a, b in zip(louts, louts[1:])), \
                    "fixture precondition: blur must degrade out-of-lens fidelity"
                bests.append(result.best_level)
            assert all(b <= a for a, b in zip(bests, bests[1:])), bests
            if len(set(bests)) >= 2:
                moved += 1
        assert moved >= 2, "selected level never moved across the family"


class TestAlphaSweep:
    def test_four_rows_schema(self):
        image, box, region, est, y_tar = concave_sweep_fixture(seed=42)
        cfg = LossConfig(alpha=0.1, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=y_tar)
        rows = alpha_sweep(image, est, cfg, [0.1, 0.2, 0.3, 0.4], LensKind.CONCAVE)
        assert len(rows) == 4
        csv_text = sweep_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            assert line.split(",")[4] == "AER"

    def test_single_alpha_matches_manual_total(self):
        levels = {lv: (1.0 + 0.1 * lv, 1.0 + 0.02 * lv) for lv in range(1, 10)}
        image, box, region, est = fake_setup(levels)
        cfg = LossConfig(alpha=0.5, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=1.33)
        rows = alpha_sweep(image, est, cfg, [0.5], LensKind.CONCAVE)
        result = rows[0].result
        for score in result.loss_curve:
            assert score.l_total == pytest.approx(
                (1.0 - 0.5) * score.l_veh + 0.5 * score.l_out)

    def test_duplicate_alphas_identical_rows(self):
        image, box, region, est, y_tar = concave_sweep_fixture(seed=43)
        cfg = LossConfig(alpha=0.2, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=y_tar)
        rows = alpha_sweep(image, est, cfg, [0.2, 0.2], LensKind.CONCAVE)
        assert rows[0].result.loss_curve == rows[1].result.loss_curve
        csv_text = sweep_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[1] == lines[2]

    def test_failed_row_marked(self, tmp_path):
        write_pfm(tmp_path / "benign.pfm", np.full((8, 8), 1.0, np.float32))
        for lv in range(1, 9):  # level 9 map missing
            write_pfm(tmp_path / f"level_{lv}.pfm",
                      np.full((8, 8), 1.2, np.float32))
        est = DirectoryMapEstimator(tmp_path)
        image = RasterImage(np.full((8, 8), 100, np.uint8))
        cfg = LossConfig(alpha=0.1, mode=Mode.UNTARGETED,
                         vehicle_box=Box(2, 2, 6, 6),
                         region=LensRegion.circle(4, 4, 3))
        rows = alpha_sweep(image, est, cfg, [0.1, 0.2], LensKind.CONCAVE)
        assert all(row.failed for row in rows)
        csv_text = sweep_to_csv(rows)
        for line in csv_text.strip().split("\n")[1:]:
            assert ",failed," in line

    def test_metric_failure_fails_every_row(self, tmp_path):
        write_pfm(tmp_path / "benign.pfm", np.zeros((8, 8), np.float32))
        for lv in LEVELS:
            write_pfm(tmp_path / f"level_{lv}.pfm", np.full((8, 8), 1.2, np.float32))
        image = RasterImage(np.full((8, 8), 100, np.uint8))
        cfg = LossConfig(alpha=0.1, mode=Mode.UNTARGETED, vehicle_box=Box(2, 2, 6, 6),
                         region=LensRegion.circle(4, 4, 3))
        rows = alpha_sweep(image, DirectoryMapEstimator(tmp_path), cfg, [0.1, 0.2],
                           LensKind.CONCAVE)
        assert [row.error for row in rows] == [
            "level 1: benign value must be positive, got 0.0"] * 2

    def test_empty_alpha_list_rejected(self):
        image, box, region, est = fake_setup({1: (1.0, 1.0)})
        cfg = LossConfig(alpha=0.1, mode=Mode.UNTARGETED, vehicle_box=box,
                         region=region)
        with pytest.raises(ValueError):
            alpha_sweep(image, est, cfg, [], LensKind.CONCAVE)

    @pytest.mark.parametrize("alphas, calls", [((0.1, 1.5), 0), ((-0.2, 0.3), 0),
                                               ((0.1, 0.3), 20), ((0.4,), 10)])
    def test_every_alpha_is_checked_before_any_search(self, alphas, calls):
        image, box, region, est = fake_setup({lv: (1.0, 1.0) for lv in range(1, 10)})
        seen = []
        estimate_map = est.estimate_map
        est.estimate_map = lambda image, tag=None: seen.append(tag) or estimate_map(image, tag)
        cfg = LossConfig(alpha=0.1, mode=Mode.UNTARGETED, vehicle_box=box, region=region)
        if calls:
            assert len(alpha_sweep(image, est, cfg, alphas, LensKind.CONCAVE)) == len(alphas)
        else:
            bad = next(a for a in alphas if not 0 <= a <= 1)
            with pytest.raises(ValueError,
                               match=fr"^alpha must be in \[0, 1\], got {bad}$"):
                alpha_sweep(image, est, cfg, alphas, LensKind.CONCAVE)
        assert len(seen) == calls


class TestLossConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=1.5, mode=Mode.UNTARGETED,
                       vehicle_box=Box(0, 0, 1, 1), region=LensRegion.full_frame())

    def test_targeted_needs_y_tar(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=0.5, mode=Mode.TARGETED,
                       vehicle_box=Box(0, 0, 1, 1), region=LensRegion.full_frame())
