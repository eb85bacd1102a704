"""Loss functions and the brute-force level search."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depthlens import attack_opt, formats
from depthlens.attack_opt import (LossConfig, Mode, OptimizationError, alpha_sweep,
                                  loss_out, loss_vehicle_targeted,
                                  loss_vehicle_untargeted, optimize_level,
                                  sweep_to_csv, SWEEP_CSV_HEADER)
from depthlens.errors import EmptyMask
from depthlens.estimation import (Box, DirectoryMapEstimator, FiducialSpec,
                                  ProxyDepthMapper)
from depthlens.imaging import LensKind, LensRegion, RasterImage, region_masks

from helpers import concave_sweep_fixture
from oracles import dense_alpha_sweep, dense_optimize_level


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

    def test_total_weighting(self):
        # l_veh = |3 - 1| = 2 in the vehicle box, l_out = |5 - 1| = 4 outside
        # the lens, so the level's total is (1 - alpha) * 2 + alpha * 4
        image, box, region, est = fake_setup({1: (3.0, 5.0)})

        def total(alpha):
            cfg = LossConfig(alpha=alpha, mode=Mode.TARGETED, vehicle_box=box,
                             region=region, y_tar=1.0)
            (score,) = optimize_level(image, est, cfg, LensKind.CONCAVE,
                                      levels=(1,)).loss_curve
            assert (score.l_veh, score.l_out) == (2.0, 4.0)
            return score.l_total

        assert total(0.0) == 2.0
        assert total(1.0) == 4.0
        assert total(0.25) == pytest.approx(2.5)

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            loss_out(np.ones((3, 3)), np.ones((3, 3)), np.zeros((3, 3), bool))


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
    def test_singleton_candidate_set(self):
        image, box, region, est = fake_setup({5: (0.5, 1.0)})
        cfg = LossConfig(alpha=0.3, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=0.43)
        result = optimize_level(image, est, cfg, LensKind.CONCAVE, levels=(5,))
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

    def test_estimator_failure_tagged_with_level(self, tmp_path):
        formats.write_pfm(tmp_path / "benign.pfm", np.full((8, 8), 1.0, np.float32))
        for lv in (1, 2, 3, 4, 5, 6, 8, 9):
            formats.write_pfm(tmp_path / f"level_{lv}.pfm",
                              np.full((8, 8), 1.2, np.float32))
        est = DirectoryMapEstimator(tmp_path)
        image = RasterImage(np.full((8, 8), 100, np.uint8))
        cfg = LossConfig(alpha=0.2, mode=Mode.UNTARGETED,
                         vehicle_box=Box(2, 2, 6, 6),
                         region=LensRegion.circle(4, 4, 3))
        with pytest.raises(OptimizationError) as err:
            optimize_level(image, est, cfg, LensKind.CONCAVE)
        assert err.value.level == 7


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
    if draw(st.integers(0, 5)) == 0:  # no out-of-lens pixel: L_out fails
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
    @given(loss_cases(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
    def test_alpha_sweep(self, case, alphas):
        image, est, cfg = case
        got = _outcome(alpha_sweep, image, est, cfg, alphas, LensKind.CONCAVE)
        want = _outcome(dense_alpha_sweep, image, est, cfg, alphas, LensKind.CONCAVE)
        if isinstance(want, tuple):
            assert got == want
            return
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.alpha, g.mode, g.error) == (w.alpha, w.mode, w.error)
            assert (g.result is None) == (w.result is None)
            if w.result is not None:
                assert_same_result(g.result, w.result)


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
                         region=region, y_tar=1.35)
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
        formats.write_pfm(tmp_path / "benign.pfm", np.full((8, 8), 1.0, np.float32))
        for lv in range(1, 9):  # level 9 map missing
            formats.write_pfm(tmp_path / f"level_{lv}.pfm",
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

    def test_empty_alpha_list_rejected(self):
        image, box, region, est = fake_setup({1: (1.0, 1.0)})
        cfg = LossConfig(alpha=0.1, mode=Mode.UNTARGETED, vehicle_box=box,
                         region=region)
        with pytest.raises(ValueError):
            alpha_sweep(image, est, cfg, [], LensKind.CONCAVE)


class TestLossConfigValidation:
    def test_alpha_range(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=1.5, mode=Mode.UNTARGETED,
                       vehicle_box=Box(0, 0, 1, 1), region=LensRegion.full_frame())

    def test_targeted_needs_y_tar(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=0.5, mode=Mode.TARGETED,
                       vehicle_box=Box(0, 0, 1, 1), region=LensRegion.full_frame())
