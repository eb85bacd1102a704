"""Brute-force attack optimization over the nine discrete lens strengths.

The setting is black-box: the attacker controls the attack level (which
fixes rescale + blur through the level calibration), renders the attacked
image, reads the estimator's map, and scores it with a two-term loss

    L_total = (1 - alpha) * L_veh + alpha * L_out

where L_veh pulls the vehicle-mask reading toward a target value (targeted)
or pushes it away from the benign reading (untargeted, negated so smaller is
better), and L_out penalizes any estimate drift outside the lens outline.
All reductions are masked L1 means, which keeps alpha meaningful regardless
of mask sizes. The vehicle terms are reduced on the vehicle box's crop:
the pixels of its full-frame mask in the same order, so the same bits at
the cost of a box. The argmin over levels 1..9 is exact enumeration; ties
break toward the smallest level (least conspicuous blur, and determinism
needs a rule).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from enum import Enum
from typing import Protocol

import numpy as np

from .errors import DepthlensError, check_positive
from .estimation import Box, masked_mean
from .imaging import (LensKind, LensRegion, RasterImage, apply_attack_transform,
                      level_to_profile, region_masks)
from .metrics import adr, aer

LEVELS = tuple(range(1, 10))

# Default targets for disparity-scale estimators: attacked vehicle disparity
# is driven to 0.43 under a concave lens (push away) and 0.60 under a convex
# one (pull close).
DEFAULT_Y_TAR = {LensKind.CONCAVE: 0.43, LensKind.CONVEX: 0.60}


class Mode(Enum):
    TARGETED = "targeted"
    UNTARGETED = "untargeted"


class Estimator(Protocol):
    """Anything that turns an image into a 2-d float map.

    ``tag`` identifies the evaluation ("benign", "level_1", ...) so that
    file-backed estimators can look up pre-computed maps; live estimators
    ignore it.
    """

    def estimate_map(self, image: RasterImage, tag: str | None = None) -> np.ndarray:
        ...


@dataclass(frozen=True)
class LossConfig:
    """Weights, mode, target and the two mask sources."""

    alpha: float
    mode: Mode
    vehicle_box: Box
    region: LensRegion
    y_tar: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mode is Mode.TARGETED:
            if self.y_tar is None:
                raise ValueError("targeted mode needs a y_tar")
            check_positive(target_value=self.y_tar)


def _abs_diff(est_attacked: np.ndarray, other) -> np.ndarray:
    # Widen first: under NEP 50 a float32 map minus a Python float stays float32.
    diff = np.asarray(est_attacked, dtype=np.float64) - other
    return np.abs(diff, out=diff)


def loss_out(est_attacked: np.ndarray, est_benign: np.ndarray,
             m_out: np.ndarray) -> float:
    """L1 drift of the out-of-lens estimates against the benign map."""
    return masked_mean(_abs_diff(est_attacked, est_benign), m_out)


def loss_vehicle_targeted(est_attacked: np.ndarray, m_veh: np.ndarray,
                          y_tar: float) -> float:
    """L1 distance of the vehicle-mask estimates from the target value."""
    return masked_mean(_abs_diff(est_attacked, float(y_tar)), m_veh)


def loss_vehicle_untargeted(est_attacked: np.ndarray, est_benign: np.ndarray,
                            m_veh: np.ndarray) -> float:
    """Negated L1 deviation from the benign vehicle estimates (maximize
    deviation by minimizing the negation); always <= 0."""
    return -masked_mean(_abs_diff(est_attacked, est_benign), m_veh)


@dataclass(frozen=True)
class LevelScore:
    level: int
    l_total: float
    l_veh: float
    l_out: float


@dataclass(frozen=True)
class OptimizationResult:
    best_level: int
    best_loss: float
    loss_curve: tuple[LevelScore, ...]
    metric_name: str
    metric_value: float


class OptimizationError(DepthlensError):
    """An estimator or imaging failure, tagged with the level that failed."""

    def __init__(self, level: int | str, cause: Exception):
        super().__init__(f"level {level}: {cause}")
        self.level = level


def optimize_level(benign: RasterImage, estimator: Estimator, cfg: LossConfig,
                   lens_kind: LensKind, levels=LEVELS) -> OptimizationResult:
    """Exhaustively score the candidate levels and return the argmin.

    The loss curve is complete and sorted by level; ``best_level`` is the
    smallest level attaining the minimal total loss. The reported metric is
    the error rate against ``y_tar`` (targeted) or the distortion rate
    against the benign reading (untargeted), both computed on vehicle-mask
    means through the same estimator.
    """
    if not levels:
        raise ValueError("candidate level set must not be empty")
    try:
        est_benign = np.asarray(
            estimator.estimate_map(benign, tag="benign"), dtype=np.float64
        )
    except (DepthlensError, OSError) as exc:
        raise OptimizationError("benign", exc) from exc

    map_h, map_w = est_benign.shape
    veh = cfg.vehicle_box.slices()
    benign_veh = est_benign[veh]
    m_veh = np.ones(benign_veh.shape, dtype=bool)
    # Not ``~``: NumPy would invert the temporary in place, and that
    # allocation order raises the peak RSS of the attack workloads.
    m_out = np.logical_not(region_masks(map_w, map_h, cfg.region))

    curve = []
    attacked_means = {}
    for level in sorted(levels):
        try:
            profile = level_to_profile(lens_kind, level, region=cfg.region)
            attacked = apply_attack_transform(benign, profile)
            est_att = np.asarray(
                estimator.estimate_map(attacked, tag=f"level_{level}"),
                dtype=np.float64,
            )
            if est_att.shape != est_benign.shape:
                raise ValueError(
                    f"estimator returned {est_att.shape}, benign map is "
                    f"{est_benign.shape}"
                )
            att_veh = est_att[veh]
            if cfg.mode is Mode.TARGETED:
                l_veh = loss_vehicle_targeted(att_veh, m_veh, cfg.y_tar)
            else:
                l_veh = loss_vehicle_untargeted(att_veh, benign_veh, m_veh)
            l_out = loss_out(est_att, est_benign, m_out)
            l_total = (1.0 - cfg.alpha) * l_veh + cfg.alpha * l_out
            curve.append(LevelScore(level, l_total, l_veh, l_out))
            attacked_means[level] = masked_mean(att_veh, m_veh)
        except (DepthlensError, OSError, ValueError) as exc:
            raise OptimizationError(level, exc) from exc

    best = min(curve, key=lambda s: (s.l_total, s.level))
    if cfg.mode is Mode.TARGETED:
        metric_name = "AER"
        metric_value = aer(attacked_means[best.level], cfg.y_tar)
    else:
        metric_name = "ADR"
        metric_value = adr(attacked_means[best.level], masked_mean(benign_veh, m_veh))
    return OptimizationResult(best_level=best.level, best_loss=best.l_total,
                              loss_curve=tuple(curve), metric_name=metric_name,
                              metric_value=metric_value)


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    mode: Mode
    result: OptimizationResult | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.result is None


def alpha_sweep(benign: RasterImage, estimator: Estimator, base_cfg: LossConfig,
                alphas, lens_kind: LensKind) -> list[SweepRow]:
    """One full optimization per weighting coefficient.

    Failures are confined to their row (marked, not raised) so a sweep with
    one missing pre-computed map still reports every other alpha.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("alpha list must not be empty")
    rows = []
    for alpha in alphas:
        cfg = replace(base_cfg, alpha=alpha)
        try:
            rows.append(SweepRow(alpha, cfg.mode, optimize_level(
                benign, estimator, cfg, lens_kind)))
        except OptimizationError as exc:
            rows.append(SweepRow(alpha, cfg.mode, None, error=str(exc)))
    return rows


SWEEP_CSV_HEADER = "alpha,mode,best_level,best_loss,metric_name,metric_value"


def sweep_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows in the stable CSV schema (full float precision).

    Failed rows keep their alpha/mode, leave the level and loss columns
    empty, and carry ``failed`` in the metric-name column.
    """
    out = io.StringIO()
    out.write(SWEEP_CSV_HEADER + "\n")
    for row in rows:
        if row.failed:
            out.write(f"{row.alpha!r},{row.mode.value},,,failed,nan\n")
        else:
            r = row.result
            out.write(f"{row.alpha!r},{row.mode.value},{r.best_level},"
                      f"{r.best_loss!r},{r.metric_name},{r.metric_value!r}\n")
    return out.getvalue()
