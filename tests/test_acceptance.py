"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Reference readings are frozen from the published expected-depth sweeps and
masked-mean tables; tolerances are stated inline and absolute.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from depthlens import defense, formats, metrics
from depthlens.attack_opt import (LossConfig, Mode, SWEEP_CSV_HEADER, alpha_sweep,
                                  optimize_level, sweep_to_csv)
from depthlens.errors import SingularConfiguration
from depthlens.estimation import Box, FiducialSpec, ProxyDepthMapper
from depthlens.imaging import (AttackProfile, BlurPlacement, LensKind, LensRegion,
                               RasterImage, apply_attack_transform, box_blur,
                               level_to_profile)
from depthlens.optics import (AttackGeometry, CameraSpec, LensSpec, ScenarioKind,
                              combined_magnification)
from depthlens.scenario import OutcomeKind, ScenarioConfig, run_scenario

from helpers import (concave_sweep_fixture, fiducial_reading, noise_image,
                     render_fiducial, textured_image)
from oracles import raytrace_expected_depth
from test_attack_opt import FakeEstimator, fake_setup


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except Exception:
        print(f"\n[criterion {number}] FAIL - {summary}")
        raise
    print(f"\n[criterion {number}] PASS - {summary}")


# Expected-depth sweeps, frozen from the reference tables.
# Rows keyed (|f| m, d_b m); columns are d_o1 = 6, 9, 12 m.
CONCAVE_TABLE = {
    (0.20, 0.02): (5.82, 8.73, 11.64), (0.20, 0.04): (6.42, 9.63, 12.84),
    (0.20, 0.08): (7.61, 11.42, 15.23), (0.20, 0.12): (8.78, 13.19, 17.60),
    (0.30, 0.02): (5.88, 8.82, 11.76), (0.30, 0.04): (6.28, 9.42, 12.56),
    (0.30, 0.08): (7.07, 10.61, 14.15), (0.30, 0.12): (7.85, 11.79, 15.73),
    (0.50, 0.02): (5.93, 8.89, 11.86), (0.50, 0.04): (6.17, 9.25, 12.34),
    (0.50, 0.08): (6.64, 9.97, 13.29), (0.50, 0.12): (7.11, 10.67, 14.24),
}
CONVEX_TABLE = {
    (0.20, 0.02): (4.67, 6.98, 9.29), (0.20, 0.04): (4.08, 6.09, 8.10),
    (0.20, 0.08): (2.90, 4.31, 5.72), (0.20, 0.12): (1.74, 2.55, 3.36),
    (0.30, 0.02): (5.13, 7.67, 10.21), (0.30, 0.04): (4.73, 7.07, 9.42),
    (0.30, 0.08): (3.95, 5.89, 7.83), (0.30, 0.12): (3.18, 4.72, 6.26),
    (0.50, 0.02): (5.50, 8.22, 10.95), (0.50, 0.04): (5.26, 7.87, 10.47),
    (0.50, 0.08): (4.79, 7.16, 9.52), (0.50, 0.12): (4.33, 6.45, 8.57),
}


def test_criterion_1_expected_depth_tables():
    with criterion(1, "expected-depth table reproduction within 0.01 m"):
        start = time.perf_counter()
        spot = set()
        for table, sign in ((CONCAVE_TABLE, -1.0), (CONVEX_TABLE, +1.0)):
            for (f_mag, d_b), cells in table.items():
                camera = CameraSpec(focal_length_m=0.026, lens_gap_m=d_b)
                for d_o1, printed in zip((6.0, 9.0, 12.0), cells):
                    result = combined_magnification(
                        AttackGeometry(d_o1, LensSpec(sign * f_mag), camera))
                    if sign > 0:
                        assert result.scenario is ScenarioKind.CONVEX_NEAR_LENS
                    depth = result.depth_ratio * d_o1
                    assert abs(depth - printed) <= 0.01, \
                        f"f={sign * f_mag} d_b={d_b} d_o1={d_o1}: {depth} vs {printed}"
                    spot.add(printed)
        elapsed = time.perf_counter() - start
        for value in (6.42, 11.79, 7.11, 8.78, 4.08, 5.89, 8.57):
            assert value in spot
        assert elapsed < 1.0, f"table sweep took {elapsed:.3f}s"


# (attacked, benign, printed percent) masked-mean disparity readings
ADR_READINGS = [
    (0.36, 0.28, 28.6), (0.45, 0.28, 60.7),
    (0.37, 0.31, 19.3), (0.46, 0.31, 48.4),
    (2.19, 1.89, 15.9), (2.66, 1.89, 40.7),
    (0.36, 0.23, 56.5), (0.50, 0.23, 117.4),
    (0.52, 0.23, 126.1),
    (2.18, 1.47, 48.3), (3.03, 1.47, 106.1),
    (0.40, 0.44, 9.0), (0.38, 0.44, 13.6),
    (0.41, 0.46, 10.9), (0.38, 0.46, 17.4),
    (2.42, 2.68, 9.7), (2.24, 2.68, 16.4),
]

# (reported attacked depth, expected depth, printed percent)
AER_READINGS = [
    (11.57, 11.79, 1.87), (9.64, 11.79, 18.25),
    (5.85, 6.42, 9.10), (6.85, 6.42, 6.77),
    (7.73, 7.61, 1.59), (6.00, 7.61, 21.13),
    (5.13, 8.78, 41.56), (6.37, 6.28, 1.42),
    (12.86, 15.23, 15.55), (10.62, 11.64, 8.76),
    (10.64, 14.24, 25.25), (13.07, 15.73, 16.92),
    (5.80, 4.08, 42.26), (8.03, 8.57, 6.34), (7.90, 6.45, 22.43),
]


def test_criterion_2_metric_arithmetic():
    with criterion(2, "ADR within 0.1 pp and AER within 0.3 pp of the readings"):
        for attacked, benign, printed in ADR_READINGS:
            got = 100.0 * metrics.adr(attacked, benign)
            assert abs(got - printed) <= 0.1, (attacked, benign, got, printed)
        for attacked, expected, printed in AER_READINGS:
            got = 100.0 * metrics.aer(attacked, expected)
            assert abs(got - printed) <= 0.3, (attacked, expected, got, printed)


def _random_feasible_geometry(rng):
    """Sample a feasible stack whose in-image rescale lands in [0.55, 1.9]."""
    while True:
        if rng.random() < 0.5:
            f = -rng.uniform(0.1, 0.6)
        else:
            f = rng.uniform(0.15, 0.6)
        geom = AttackGeometry(rng.uniform(5.0, 12.0), LensSpec(f),
                              CameraSpec(0.026, rng.uniform(0.02, 0.12)))
        try:
            result = combined_magnification(geom)
        except SingularConfiguration:
            continue
        if result.scenario is None or not result.scenario.feasible_in_ad:
            continue
        if 0.55 <= result.depth_ratio <= 1.9:
            return geom, result


def test_criterion_3_optics_imaging_proxy_consistency():
    with criterion(3, "proxy recovers expected depth within 3%; scale law within 2%"):
        focal_px, height_m = 1000.0, 1.8
        fiducial = FiducialSpec(physical_height_m=height_m, detection_threshold=96)
        mapper = ProxyDepthMapper(fiducial, focal_px)
        rng = np.random.default_rng(31)
        for _ in range(20):
            geom, result = _random_feasible_geometry(rng)
            apparent = focal_px * height_m / geom.object_distance_m
            image = render_fiducial((1000, 900), apparent)
            scale = abs(result.m_total / result.m_ori)  # = 1 / depth_ratio
            profile = AttackProfile(
                level=1, region=LensRegion.full_frame(), scale_factor=scale,
                blur_radius=0,
                blur_placement=BlurPlacement.OUT_OF_LENS if geom.lens.focal_length_m < 0
                else BlurPlacement.IN_LENS)
            attacked = apply_attack_transform(image, profile)
            estimate = fiducial_reading(mapper, attacked)
            target = result.depth_ratio * geom.object_distance_m
            assert abs(estimate - target) / target <= 0.03, \
                (geom, estimate, target)

        benign = render_fiducial((900, 900), 200)
        base = fiducial_reading(mapper, benign)
        for s in np.linspace(0.5, 2.0, 16):
            scaled = apply_attack_transform(benign, AttackProfile(
                1, LensRegion.full_frame(), float(s), 0, BlurPlacement.OUT_OF_LENS))
            got = fiducial_reading(mapper, scaled)
            assert abs(got / base - 1.0 / s) <= 0.02 / s, (s, got / base, 1.0 / s)


def test_criterion_4_optimizer_properties():
    with criterion(4, "argmin optimality, tie-break, alpha degeneracy, "
                      "concave alpha-monotonicity, sweep schema"):
        rng = np.random.default_rng(99)
        for _ in range(100):
            levels = {lv: (rng.uniform(0.1, 2.0), rng.uniform(0.5, 1.5))
                      for lv in range(1, 10)}
            image, box, region, est = fake_setup(levels)
            mode = Mode.TARGETED if rng.random() < 0.5 else Mode.UNTARGETED
            cfg = LossConfig(alpha=float(rng.uniform(0, 1)), mode=mode,
                             vehicle_box=box, region=region,
                             y_tar=float(rng.uniform(0.1, 2.0)))
            result = optimize_level(image, est, cfg, LensKind.CONCAVE)
            totals = [s.l_total for s in result.loss_curve]
            assert result.best_loss <= min(totals)
            assert result.best_level == min(
                s.level for s in result.loss_curve if s.l_total == result.best_loss)

        # exact tie at levels 3 and 7 resolves to 3
        tie_levels = {lv: (0.9, 1.0) for lv in range(1, 10)}
        tie_levels[3] = tie_levels[7] = (0.43, 1.0)
        image, box, region, est = fake_setup(tie_levels)
        cfg = LossConfig(alpha=0.0, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=0.43)
        assert optimize_level(image, est, cfg, LensKind.CONCAVE).best_level == 3

        # alpha degeneracy is exact at both ends
        mix = {lv: (1.0 + 0.1 * lv, 1.0 + 0.03 * lv) for lv in range(1, 10)}
        image, box, region, est = fake_setup(mix)
        for alpha, attr in ((0.0, "l_veh"), (1.0, "l_out")):
            cfg = LossConfig(alpha=alpha, mode=Mode.TARGETED, vehicle_box=box,
                             region=region, y_tar=0.43)
            result = optimize_level(image, est, cfg, LensKind.CONCAVE)
            assert all(s.l_total == getattr(s, attr) for s in result.loss_curve)

        # designed concave family: selected level never rises with alpha
        moved = 0
        for seed in (41, 42, 43, 44):
            image, box, region, est, y_tar = concave_sweep_fixture(seed)
            bests = []
            for alpha in (0.1, 0.2, 0.3, 0.4):
                cfg = LossConfig(alpha=alpha, mode=Mode.TARGETED, vehicle_box=box,
                                 region=region, y_tar=y_tar)
                result = optimize_level(image, est, cfg, LensKind.CONCAVE)
                louts = [s.l_out for s in result.loss_curve]
                assert all(b > a for a, b in zip(louts, louts[1:]))
                bests.append(result.best_level)
            assert all(b <= a for a, b in zip(bests, bests[1:])), (seed, bests)
            moved += len(set(bests)) >= 2
        assert moved >= 2

        # sweep output keeps the stable schema
        image, box, region, est, y_tar = concave_sweep_fixture(seed=42)
        cfg = LossConfig(alpha=0.1, mode=Mode.TARGETED, vehicle_box=box,
                         region=region, y_tar=y_tar)
        rows = alpha_sweep(image, est, cfg, [0.1, 0.2, 0.3, 0.4], LensKind.CONCAVE)
        lines = sweep_to_csv(rows).strip().split("\n")
        assert lines[0] == SWEEP_CSV_HEADER and len(lines) == 5


def test_criterion_5_defenses():
    with criterion(5, "exact impulse score, strict blur decrease, IoU >= 0.7, "
                      "full recall on blurred attacks"):
        impulse = np.zeros((5, 5), np.uint8)
        impulse[2, 2] = 9
        assert defense.variance_of_laplacian(RasterImage(impulse)) == 180.0

        full = np.ones((96, 96), bool)
        for seed in range(50):
            img = noise_image((96, 96), seed=seed)
            assert (defense.variance_of_laplacian(box_blur(img, full, 2))
                    < defense.variance_of_laplacian(img))

        composite_src = noise_image((256, 256), seed=7)
        half = np.zeros((256, 256), bool)
        half[:, :128] = True
        composite = box_blur(composite_src, half, 4)
        verdict = defense.segment_blur(defense.lbp_sharpness_map(composite))
        inter = (verdict.blur_mask & half).sum()
        union = (verdict.blur_mask | half).sum()
        assert inter / union >= 0.7

        region = LensRegion.circle(128, 128, 80)
        flagged = 0
        for seed in (1, 2, 3):
            base = textured_image((256, 256), seed=seed)
            for kind in (LensKind.CONCAVE, LensKind.CONVEX):
                for level in (3, 5, 7, 9):  # blur radius = level >= 3
                    attacked = apply_attack_transform(
                        base, level_to_profile(kind, level, region=region))
                    verdict = defense.segment_blur(defense.lbp_sharpness_map(attacked))
                    assert verdict.blurred, (seed, kind, level)
                    flagged += 1
        assert flagged == 24


def test_criterion_6_scenario_dichotomy():
    with criterion(6, "benign stop / concave collision / convex early stop, "
                      "monotone hazard, each run under 1 s"):
        def run(ratio):
            cfg = ScenarioConfig(initial_gap_m=40.0, ego_speed_mps=10.0,
                                 max_decel_mps2=6.0, safety_margin_m=2.0,
                                 depth_ratio=ratio, dt_s=0.01)
            start = time.perf_counter()
            outcome, _ = run_scenario(cfg)
            assert time.perf_counter() - start < 1.0
            return outcome

        benign = run(1.0)
        assert benign.kind is OutcomeKind.STOPPED
        assert benign.final_gap_m == pytest.approx(2.0, abs=0.15)

        inflated = run(1.5)
        assert inflated.kind is OutcomeKind.COLLISION
        assert inflated.impact_speed_mps == pytest.approx(4.16, abs=0.1)

        deflated = run(0.7)
        assert deflated.kind is OutcomeKind.STOPPED
        assert deflated.final_gap_m == pytest.approx(6.43, abs=0.15)

        impacts = []
        for ratio in np.linspace(1.0, 2.0, 11):
            outcome = run(float(ratio))
            impacts.append(outcome.impact_speed_mps
                           if outcome.kind is OutcomeKind.COLLISION else 0.0)
        assert all(b >= a for a, b in zip(impacts, impacts[1:]))


def test_criterion_7_cross_oracle():
    with criterion(7, "closed forms agree with the staged ray trace to 1e-9 "
                      "relative on 1000 random geometries"):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 1000:
            sign = -1.0 if rng.random() < 0.5 else 1.0
            geom = AttackGeometry(
                rng.uniform(0.5, 30.0),
                LensSpec(sign * rng.uniform(0.05, 0.8)),
                CameraSpec(rng.uniform(0.01, 0.06), rng.uniform(0.01, 0.5)))
            try:
                ours = combined_magnification(geom).depth_ratio * geom.object_distance_m
                oracle = raytrace_expected_depth(geom)
            except SingularConfiguration:
                continue
            assert ours == pytest.approx(oracle, rel=1e-9)
            checked += 1
