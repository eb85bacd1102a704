"""Independent oracle implementations the production code is checked against.

The two-stage ray trace below deliberately avoids the closed-form rational
expressions in ``depthlens.optics``: each stage solves the reciprocal lens
relation on its own and magnifications come from the per-stage object
distances, so agreement between the two paths is a real cross-check.

The staged optics, raster, loss, blob and braking oracles are the
straightforward versions the package started from; the production code must
reproduce them bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from depthlens.attack_opt import (LevelScore, Mode, OptimizationError,
                                  OptimizationResult, SweepRow)
from depthlens.errors import (DegenerateRegion, DepthlensError, EmptyMask,
                              FiducialNotFound, SingularConfiguration)
from depthlens.imaging import (LensRegion, RasterImage, RegionKind,
                               apply_attack_transform, level_to_profile, region_masks)
from depthlens.metrics import adr, aer
from depthlens.optics import AttackGeometry, OpticsResult, ScenarioKind
from depthlens.scenario import Outcome, ScenarioConfig


def _stage(focal: float, object_distance: float):
    """One thin-lens stage via reciprocals.

    Returns (image_distance, magnification) in the classic convention:
    image distance positive on the far side (real image), magnification
    positive for an upright image.
    """
    inv = 1.0 / focal - 1.0 / object_distance
    image_distance = 1.0 / inv
    return image_distance, -image_distance / object_distance


def raytrace_expected_depth(geometry: AttackGeometry) -> float:
    """Perceived depth from sequential per-stage evaluation."""
    if geometry.lens is None:
        return geometry.object_distance_m
    f = geometry.lens.focal_length_m
    f_c = geometry.camera.focal_length_m
    d_b = geometry.camera.lens_gap_m
    d_o1 = geometry.object_distance_m
    scenario = staged_classify_scenario(geometry)

    image_1, m1 = _stage(f, d_o1)
    if scenario in (ScenarioKind.CONCAVE, ScenarioKind.CONVEX_NEAR_OBJECT):
        d_o2 = abs(image_1) + d_b
    elif scenario is ScenarioKind.CONVEX_FAR_LENS:
        d_o2 = d_b - abs(image_1)
    else:
        d_o2 = abs(image_1) - d_b
    _, m2 = _stage(f_c, d_o2)
    m_total = m1 * m2

    _, m_ori = _stage(f_c, d_o1 + d_b)
    return abs(m_ori / m_total) * d_o1


# The staged evaluation with a zero check per thin-lens quantity: the
# scenario is classified first (with its own focal-point check), the attack
# lens stage is evaluated for the classifier, the image distance and the
# magnification separately, and the camera stage's object distance comes
# from a three-way branch on the scenario.

def _checked(denom: float, message: str) -> float:
    if denom == 0:
        raise SingularConfiguration(message)
    return denom


def staged_classify_scenario(geometry: AttackGeometry) -> ScenarioKind:
    f = geometry.lens.focal_length_m
    if f < 0:
        return ScenarioKind.CONCAVE
    d_o1 = geometry.object_distance_m
    if d_o1 == f:
        raise SingularConfiguration(f"object at the focal point (d_o1 = f = {f} m)")
    if d_o1 < f:
        return ScenarioKind.CONVEX_NEAR_OBJECT
    image_dist = abs(-d_o1 * f / _checked(d_o1 - f, "focal point"))
    if geometry.camera.lens_gap_m >= image_dist:
        return ScenarioKind.CONVEX_FAR_LENS
    return ScenarioKind.CONVEX_NEAR_LENS


def _camera_object_distance(scenario: ScenarioKind, image_dist: float, gap: float) -> float:
    if scenario in (ScenarioKind.CONCAVE, ScenarioKind.CONVEX_NEAR_OBJECT):
        return image_dist + gap
    if scenario is ScenarioKind.CONVEX_FAR_LENS:
        return gap - image_dist
    return image_dist - gap


def staged_combined_magnification(geometry: AttackGeometry) -> OpticsResult:
    """Reference ``combined_magnification``. A zero ``m_total`` (or its
    denominator underflowing) escapes as ZeroDivisionError."""
    camera = geometry.camera
    d_o1 = geometry.object_distance_m
    f_c, d_b = camera.focal_length_m, camera.lens_gap_m
    m_ori = -f_c / _checked(d_o1 + d_b - f_c, "baseline")
    if geometry.lens is None:
        return OpticsResult(d_i1_m=0.0, m1=1.0, d_i2_m=0.0, m2=m_ori, m_total=m_ori,
                            m_ori=m_ori, depth_ratio=1.0, scenario=None)
    scenario = staged_classify_scenario(geometry)
    f = geometry.lens.focal_length_m
    d_i1 = -d_o1 * f / _checked(d_o1 - f, "focal point")
    m1 = -f / _checked(d_o1 - f, "focal point")
    d_o2 = _camera_object_distance(scenario, abs(d_i1), d_b)
    den2 = _checked(d_o2 - f_c, "camera focal point")
    d_i2 = -d_o2 * f_c / den2
    m2 = -f_c / den2
    m_total = f * f_c / ((d_o1 - f) * den2)
    return OpticsResult(d_i1_m=d_i1, m1=m1, d_i2_m=d_i2, m2=m2, m_total=m_total,
                        m_ori=m_ori, depth_ratio=abs(m_ori / m_total), scenario=scenario)


# ---------------------------------------------------------------- imaging ----
# The original dense raster kernels: every pixel of the frame, 2-D index
# gathers and a full-frame int64 summed-area table. The production versions
# work on bounding boxes with separable sums and must match these bit for bit.

def dense_in_lens(width: int, height: int, region: LensRegion) -> np.ndarray:
    """In-lens predicate evaluated on every pixel of the frame."""
    if region.kind is RegionKind.FULL_FRAME:
        return np.ones((height, width), dtype=bool)
    ys = np.arange(height, dtype=np.float64)[:, None]
    xs = np.arange(width, dtype=np.float64)[None, :]
    return ((xs - region.center_x) ** 2 + (ys - region.center_y) ** 2
            <= region.radius ** 2)


def _bilinear(data: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Sample at float coords (already clamped into the frame)."""
    h, w = data.shape[:2]
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0
    if data.ndim == 3:
        fx = fx[:, None]
        fy = fy[:, None]
    v00 = data[y0, x0].astype(np.float64)
    v01 = data[y0, x1].astype(np.float64)
    v10 = data[y1, x0].astype(np.float64)
    v11 = data[y1, x1].astype(np.float64)
    top = v00 * (1 - fx) + v01 * fx
    bot = v10 * (1 - fx) + v11 * fx
    return top * (1 - fy) + bot * fy


def dense_scale_region(image: RasterImage, region: LensRegion,
                       scale: float) -> RasterImage:
    """Reference ``scale_region``: bilinear samples gathered per in-lens pixel."""
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    sel = dense_in_lens(image.width, image.height, region)
    if not sel.any():
        raise DegenerateRegion("lens region does not intersect the frame")
    if scale == 1.0:
        return RasterImage(image.data.copy())
    if region.kind is RegionKind.CIRCLE:
        cx, cy = float(region.center_x), float(region.center_y)
    else:
        cx, cy = (image.width - 1) / 2.0, (image.height - 1) / 2.0
    ys, xs = np.nonzero(sel)
    sx = cx + (xs - cx) / scale
    sy = cy + (ys - cy) / scale
    np.clip(sx, 0.0, image.width - 1.0, out=sx)
    np.clip(sy, 0.0, image.height - 1.0, out=sy)
    sampled = _bilinear(image.data, sx, sy)
    out = image.data.copy()
    out[ys, xs] = np.floor(sampled + 0.5).astype(np.uint8)
    return RasterImage(out)


def dense_box_blur(image: RasterImage, mask: np.ndarray, radius: int) -> RasterImage:
    """Reference ``box_blur``: full-frame summed-area table, four gathers."""
    if radius == 0 or not mask.any():
        return RasterImage(image.data.copy())
    data = image.data if image.data.ndim == 3 else image.data[:, :, None]
    h, w = data.shape[:2]
    integral = np.zeros((h + 1, w + 1, data.shape[2]), dtype=np.int64)
    np.cumsum(np.cumsum(data, axis=0, dtype=np.int64), axis=1, out=integral[1:, 1:])

    ys = np.arange(h)
    xs = np.arange(w)
    y0 = np.maximum(ys - radius, 0)
    y1 = np.minimum(ys + radius, h - 1) + 1
    x0 = np.maximum(xs - radius, 0)
    x1 = np.minimum(xs + radius, w - 1) + 1
    window_sum = (integral[y1[:, None], x1[None, :]]
                  - integral[y0[:, None], x1[None, :]]
                  - integral[y1[:, None], x0[None, :]]
                  + integral[y0[:, None], x0[None, :]])
    count = ((y1 - y0)[:, None] * (x1 - x0)[None, :])[:, :, None]
    mean = (2 * window_sum + count) // (2 * count)  # round half-up

    out = data.copy()
    out[mask] = mean[mask].astype(np.uint8)
    out = out[:, :, 0] if image.data.ndim == 2 else out
    return RasterImage(np.ascontiguousarray(out))


# ---------------------------------------------------------------- defense ----

def tile_loop_lbp_scores(active: np.ndarray, window: int) -> np.ndarray:
    """Reference per-tile scores: one Python iteration per tile.

    ``active`` is the (h-2, w-2) interior activity map; a tile's score is
    its active count over its interior-pixel count, 0.0 when it has none.
    """
    h, w = active.shape[0] + 2, active.shape[1] + 2
    act = np.zeros((h, w), dtype=np.int64)
    act[1:-1, 1:-1] = active
    interior = np.zeros((h, w), dtype=np.int64)
    interior[1:-1, 1:-1] = 1
    tiles_y = (h + window - 1) // window
    tiles_x = (w + window - 1) // window
    scores = np.zeros((tiles_y, tiles_x), dtype=np.float64)
    for ty in range(tiles_y):
        for tx in range(tiles_x):
            ys = slice(ty * window, min((ty + 1) * window, h))
            xs = slice(tx * window, min((tx + 1) * window, w))
            denom = interior[ys, xs].sum()
            scores[ty, tx] = act[ys, xs].sum() / denom if denom else 0.0
    return scores


# ----------------------------------------------------------- attack losses ----
# The full-frame losses: every term gathers its mask over the whole map, and
# the masked mean compresses twice (mask, then finiteness). The production
# optimizer reduces the vehicle terms on the box crop and compresses once.

def two_step_masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    values = np.asarray(values, dtype=np.float64)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} does not match map {values.shape}")
    selected = values[mask]
    selected = selected[np.isfinite(selected)]
    if selected.size == 0:
        raise EmptyMask("no valid pixel under the mask")
    return float(selected.mean())


def dense_box_mask(box, width: int, height: int) -> np.ndarray:
    """Full-frame mask of a box, negative bounds clipped to 0."""
    mask = np.zeros((height, width), dtype=bool)
    mask[max(box.y_min, 0):max(box.y_max, 0), max(box.x_min, 0):max(box.x_max, 0)] = True
    return mask


def _dense_abs_diff(est_attacked, other) -> np.ndarray:
    return np.abs(np.asarray(est_attacked, dtype=np.float64) - other)


def dense_optimize_level(benign, estimator, cfg, lens_kind,
                         levels=tuple(range(1, 10))) -> OptimizationResult:
    """Reference ``optimize_level`` on full-frame masks."""
    if not levels:
        raise ValueError("candidate level set must not be empty")
    try:
        est_benign = np.asarray(
            estimator.estimate_map(benign, tag="benign"), dtype=np.float64)
    except (DepthlensError, OSError) as exc:
        raise OptimizationError("benign", exc) from exc
    map_h, map_w = est_benign.shape
    m_veh = dense_box_mask(cfg.vehicle_box, map_w, map_h)
    m_out = ~region_masks(map_w, map_h, cfg.region)
    curve = []
    attacked_means = {}
    for level in sorted(levels):
        try:
            profile = level_to_profile(lens_kind, level, region=cfg.region)
            attacked = apply_attack_transform(benign, profile)
            est_att = np.asarray(
                estimator.estimate_map(attacked, tag=f"level_{level}"),
                dtype=np.float64)
            if est_att.shape != est_benign.shape:
                raise ValueError(f"estimator returned {est_att.shape}, benign map "
                                 f"is {est_benign.shape}")
            if cfg.mode is Mode.TARGETED:
                l_veh = two_step_masked_mean(
                    _dense_abs_diff(est_att, float(cfg.y_tar)), m_veh)
            else:
                l_veh = -two_step_masked_mean(
                    _dense_abs_diff(est_att, est_benign), m_veh)
            l_out = two_step_masked_mean(_dense_abs_diff(est_att, est_benign), m_out)
            l_total = (1.0 - cfg.alpha) * l_veh + cfg.alpha * l_out
            curve.append(LevelScore(level, l_total, l_veh, l_out))
            attacked_means[level] = two_step_masked_mean(est_att, m_veh)
        except (DepthlensError, OSError, ValueError) as exc:
            raise OptimizationError(level, exc) from exc
    best = min(curve, key=lambda s: (s.l_total, s.level))
    if cfg.mode is Mode.TARGETED:
        metric_name = "AER"
        metric_value = aer(attacked_means[best.level], cfg.y_tar)
    else:
        metric_name = "ADR"
        metric_value = adr(attacked_means[best.level],
                           two_step_masked_mean(est_benign, m_veh))
    return OptimizationResult(best_level=best.level, best_loss=best.l_total,
                              loss_curve=tuple(curve), metric_name=metric_name,
                              metric_value=metric_value)


def dense_alpha_sweep(benign, estimator, base_cfg, alphas, lens_kind) -> list[SweepRow]:
    """Reference ``alpha_sweep``: one dense optimization per alpha."""
    rows = []
    for alpha in alphas:
        cfg = replace(base_cfg, alpha=alpha)
        try:
            rows.append(SweepRow(alpha, cfg.mode,
                                 dense_optimize_level(benign, estimator, cfg, lens_kind)))
        except OptimizationError as exc:
            rows.append(SweepRow(alpha, cfg.mode, None, error=str(exc)))
    return rows


# ------------------------------------------------------------ proxy blob ----

def nonzero_blob_extent(gray: np.ndarray, fiducial) -> tuple[slice, slice]:
    """Reference blob extent: full-frame window mask and ``np.nonzero``."""
    hits = gray <= fiducial.detection_threshold
    if fiducial.reference_box is not None:
        hits &= dense_box_mask(fiducial.reference_box, gray.shape[1], gray.shape[0])
    ys, xs = np.nonzero(hits)
    if ys.size < 4:
        raise FiducialNotFound(f"thresholding at {fiducial.detection_threshold} "
                               f"found {ys.size} px (need >= 4)")
    return slice(ys.min(), ys.max() + 1), slice(xs.min(), xs.max() + 1)


# --------------------------------------------------------------- scenario ----
# The tick loop as first written: perceive, control and integrate inlined,
# the controller consulted on every tick and the latch applied over it, one
# tuple per tick, and the CSV formatted row by row.

class TickLog(NamedTuple):
    time_s: float
    true_gap_m: float
    perceived_gap_m: float
    speed_mps: float
    accel_cmd_mps2: float
    braking: bool


def reference_run_scenario(cfg: ScenarioConfig) -> tuple[Outcome, list[TickLog]]:
    """Reference ``run_scenario``."""
    rng = np.random.default_rng(cfg.seed) if cfg.noise_sigma_m > 0 else None
    speed = cfg.ego_speed_mps
    gap = cfg.initial_gap_m
    braking = False
    t = 0.0
    ticks = []
    while t < cfg.max_sim_time_s:
        noise = float(rng.normal(0.0, cfg.noise_sigma_m)) if rng is not None else 0.0
        seen = max(0.0, gap * cfg.depth_ratio + noise)
        accel = 0.0
        if speed > 0 and seen <= speed ** 2 / (2.0 * cfg.max_decel_mps2) + cfg.safety_margin_m:
            accel = -cfg.max_decel_mps2
        if braking and speed > 0:
            accel = -cfg.max_decel_mps2
        elif accel < 0:
            braking = True
        ticks.append(TickLog(t, gap, seen, speed, accel, braking))
        speed = max(0.0, speed + accel * cfg.dt_s)
        gap = gap - speed * cfg.dt_s
        t += cfg.dt_s
        if gap <= 0:
            return Outcome.collision(speed), ticks
        if speed == 0:
            return Outcome.stopped(gap), ticks
    return Outcome.timeout(), ticks


def reference_ticks_to_csv(ticks: list[TickLog], cfg: ScenarioConfig) -> str:
    """Reference ``ticks_to_csv``: one ``%r`` row per tick."""
    head = f"# seed={cfg.seed} sigma={cfg.noise_sigma_m!r}\n" if cfg.noise_sigma_m > 0 else ""
    return (head + "t,true_gap,perceived_gap,speed,accel,braking\n"
            + "".join("%r,%r,%r,%r,%r,%d\n" % tick for tick in ticks))
