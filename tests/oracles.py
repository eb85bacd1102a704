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

import re
from dataclasses import replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from depthlens.attack_opt import (LevelScore, Mode, OptimizationError,
                                  OptimizationResult, SweepRow)
from depthlens.errors import (DegenerateRegion, DepthlensError, EmptyMask,
                              FiducialNotFound, ParseError, SingularConfiguration,
                              check_positive)
from depthlens.imaging import (BlurPlacement, LensRegion, RasterImage, RegionKind,
                               level_to_profile)
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

def widened_to_gray(rgb: np.ndarray) -> np.ndarray:
    """Reference ``RasterImage.to_gray``: the (h, w, 3) frame widened to
    float64, weighted and summed, then rounded half-up."""
    wide = rgb.astype(np.float64)
    luma = 0.299 * wide[..., 0] + 0.587 * wide[..., 1] + 0.114 * wide[..., 2]
    return np.floor(luma + 0.5).astype(np.uint8)


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


def dense_attack(image: RasterImage, profile) -> RasterImage:
    """Reference ``apply_attack_transform`` from the dense kernels."""
    inside = dense_in_lens(image.width, image.height, profile.region)
    scaled = dense_scale_region(image, profile.region, profile.scale_factor)
    blur = inside if profile.blur_placement is BlurPlacement.IN_LENS else ~inside
    return dense_box_blur(scaled, blur, profile.blur_radius)


# ---------------------------------------------------------------- defense ----

def dense_laplacian(image: RasterImage) -> np.ndarray:
    """Reference 4-neighbor Laplacian over the interior: the whole frame
    widened to int32 at once; output (h-2, w-2) int32."""
    gray = image.to_gray().data.astype(np.int32)
    center = gray[1:-1, 1:-1]
    return (gray[:-2, 1:-1] + gray[2:, 1:-1] + gray[1:-1, :-2] + gray[1:-1, 2:]
            - 4 * center)


def exact_variance(values: np.ndarray) -> Fraction:
    """Population variance of integer samples in exact rational arithmetic."""
    samples = values.ravel().tolist()
    n, total = len(samples), sum(samples)
    # sum((v - total/n)**2) / n, scaled by n**2 to stay in integers
    return Fraction(sum((n * v - total) ** 2 for v in samples), n ** 3)


def _lbp_labels() -> np.ndarray:
    """Each 8-bit ring code's pattern label: a uniform code (at most two 0/1
    transitions around the ring) is labeled by its set-bit count 0..8,
    every other code 9. Labels 6..9 are high-activity."""
    labels = np.empty(256, dtype=np.uint8)
    for code in range(256):
        bits = [(code >> p) & 1 for p in range(8)]
        transitions = sum(bits[p] != bits[p - 1] for p in range(8))
        labels[code] = sum(bits) if transitions <= 2 else 9
    return labels


LBP_LABELS = _lbp_labels()
# The LBP ring, circular from N: neighbor p sets bit p of the code.
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def reference_lbp_active(gray: np.ndarray, delta: int) -> np.ndarray:
    """Reference ``_lbp_active``: the frame widened to int16, one frame-sized
    ``|neighbor - center| > delta`` per ring bit, and a label gather."""
    g = gray.astype(np.int16)
    h, w = g.shape
    center = g[1:-1, 1:-1]
    code = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dy, dx) in enumerate(_RING):
        neighbor = g[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
        code |= (np.abs(neighbor - center) > delta).astype(np.uint8) << bit
    return LBP_LABELS[code] >= 6


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
    """Reference ``optimize_level`` on full-frame masks and dense renders."""
    if not levels:
        raise ValueError("candidate level set must not be empty")
    try:
        est_benign = np.asarray(
            estimator.estimate_map(benign, tag="benign"), dtype=np.float64)
    except (DepthlensError, OSError, ValueError) as exc:
        raise OptimizationError("benign", exc) from exc
    map_h, map_w = est_benign.shape
    m_veh = dense_box_mask(cfg.vehicle_box, map_w, map_h)
    m_out = ~dense_in_lens(map_w, map_h, cfg.region)
    curve = []
    attacked_means = {}
    for level in sorted(levels):
        try:
            profile = level_to_profile(lens_kind, level, region=cfg.region)
            attacked = dense_attack(benign, profile)
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
            l_out = (two_step_masked_mean(_dense_abs_diff(est_att, est_benign), m_out)
                     if m_out.any() else 0.0)
            l_total = (1.0 - cfg.alpha) * l_veh + cfg.alpha * l_out
            curve.append(LevelScore(level, l_total, l_veh, l_out))
            attacked_means[level] = two_step_masked_mean(est_att, m_veh)
        except (DepthlensError, OSError, ValueError) as exc:
            raise OptimizationError(level, exc) from exc
    best = min(curve, key=lambda s: (s.l_total, s.level))
    try:
        if cfg.mode is Mode.TARGETED:
            metric_name = "AER"
            metric_value = aer(attacked_means[best.level], cfg.y_tar)
        else:
            metric_name = "ADR"
            metric_value = adr(attacked_means[best.level],
                               two_step_masked_mean(est_benign, m_veh))
    except (DepthlensError, OSError, ValueError) as exc:
        raise OptimizationError(best.level, exc) from exc
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


def dense_proxy_map(gray: np.ndarray, fiducial, focal_px: float, near_m: float,
                    far_m: float) -> np.ndarray:
    """Reference proxy depth map as the first proxy computed it: the
    brightness ramp of the whole frame in float64, then the pinhole depth
    written over the blob's extent."""
    depth = near_m + (far_m - near_m) * gray.astype(np.float64) / 255.0
    rows, cols = nonzero_blob_extent(gray, fiducial)
    depth[rows, cols] = focal_px * fiducial.physical_height_m / (rows.stop - rows.start)
    return depth


# ------------------------------------------------------------- map files ----
# The readers as first written: the whole file read into one ``bytes``, the
# header parsed from it with a regex, the raster viewed in place and
# converted to float32 in one step; ``reference_load_depth_map`` widens that
# to float64 and marks the holes with frame-sized boolean maps. Numbers are
# matched against their grammar before int() or float() reads them, which
# would also take ``1_0`` or ``+3``.

_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")
_INTEGER = re.compile(rb"[0-9]+")
_DECIMAL = re.compile(
    rb"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE)


def reference_integer(token: bytes) -> int:
    if not _INTEGER.fullmatch(token):
        raise ValueError(token)
    return int(token)


def reference_decimal(token: bytes) -> float:
    if not _DECIMAL.fullmatch(token):
        raise ValueError(token)
    return float(token)


def _reference_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """The token after ``pos``: 0, or the end of the token before, whose
    next byte ends that token and is no part of the gap to this one. A gap
    byte at offset 64 KiB or past it fails at that byte."""
    match = _TOKEN.match(buf, pos)
    gap = pos + 1 if pos else 0
    if match.start(1) > max(gap, 64 * 1024):
        raise ParseError("header too long", byte_offset=max(gap, 64 * 1024))
    if not match[1]:
        raise ParseError("truncated header", byte_offset=match.start(1))
    if len(match[1]) > 64:
        raise ParseError("header token too long", byte_offset=match.start(1))
    return match[1], match.end()


def _reference_number(buf: bytes, pos: int, what: str, parse=reference_integer):
    token, end = _reference_token(buf, pos)
    try:
        return parse(token), end
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", byte_offset=pos) from None


def reference_read_raster(path, px_bytes: dict[bytes, int], what: str,
                          maxval: int | None):
    """Magic, third token, height, width and a view of the raster bytes."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _reference_token(buf, 0)
    if magic not in px_bytes:
        raise ParseError(f"not a {what} (magic {magic!r})", byte_offset=0)
    width, pos = _reference_number(buf, pos, "width")
    height, pos = _reference_number(buf, pos, "height")
    if maxval is None:
        third, pos = _reference_number(buf, pos, "scale", reference_decimal)
        if not 0 < abs(third) < float("inf"):
            raise ParseError("scale must be finite and nonzero", byte_offset=pos)
    else:
        third, pos = _reference_number(buf, pos, "maxval")
        if third != maxval:
            raise ParseError(f"unsupported maxval {third} (only {maxval})", byte_offset=pos)
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}", byte_offset=pos)
    pos += 1
    need = width * height * px_bytes[magic]
    raster = memoryview(buf)[pos:pos + need]
    if len(raster) != need:
        raise ParseError(
            f"raster truncated: expected {need} bytes, got {len(raster)}",
            byte_offset=pos + len(raster),
        )
    return magic, third, height, width, raster


def reference_read_pnm(path) -> np.ndarray:
    """Binary PGM/PPM as uint8 (h, w) or (h, w, 3)."""
    magic, _, height, width, raster = reference_read_raster(
        path, {b"P5": 1, b"P6": 3}, "binary PGM/PPM", 255)
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    return np.frombuffer(raster, np.uint8).reshape(shape)


def reference_read_pgm16(path) -> np.ndarray:
    """16-bit PGM counts times the sidecar scale, float32 (h, w)."""
    _, _, height, width, raster = reference_read_raster(
        path, {b"P5": 2}, "16-bit PGM", 65535)
    raw = np.frombuffer(raster, dtype=">u2").reshape(height, width)
    sidecar = str(path) + ".scale"
    try:
        with open(sidecar, "rb") as fh:
            scale = reference_decimal(fh.read().strip())
        check_positive(scale=scale)
        if not scale <= float(np.finfo(np.float32).max) or np.float32(scale) == 0:
            raise ValueError
    except FileNotFoundError:
        raise ParseError(f"missing sidecar scale file {sidecar}") from None
    except ValueError:
        raise ParseError(f"bad scale value in {sidecar}") from None
    scale32 = np.float32(scale)
    with np.errstate(over="ignore"):
        peak = raw.max() * scale32
    if not np.isfinite(peak):
        raise ParseError(f"largest count at scale {scale!r} in {sidecar} overflows float32")
    return np.multiply(raw, scale32, dtype=np.float32)


def reference_read_pfm(path) -> np.ndarray:
    """Grayscale PFM as float32 (h, w), top-down."""
    _, scale, height, width, raster = reference_read_raster(
        path, {b"Pf": 4}, "grayscale PFM (color 'PF' is not supported)", None)
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(raster, dtype=dtype).reshape(height, width)
    return data[::-1].astype(np.float32, copy=False)


def reference_load_depth_map(path, kind: str = "depth") -> np.ndarray:
    """Float64 (h, w) with non-positive depths or negative disparities NaN."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"Pf" or magic == b"PF":
        values = reference_read_pfm(path)
    elif magic == b"P5":
        values = reference_read_pgm16(path)
    else:
        raise ParseError(f"unrecognized map format (magic {magic!r})", byte_offset=0)
    values = values.astype(np.float64)
    if kind == "depth":
        values[~(values > 0)] = np.nan
    elif kind == "disparity":
        values[values < 0] = np.nan
    else:
        raise ValueError(f"kind must be 'depth' or 'disparity', got {kind!r}")
    return values


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
        if speed > 0 and seen <= speed * speed / (2.0 * cfg.max_decel_mps2) + cfg.safety_margin_m:
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
