"""Brute-force attack optimization over the discrete lens levels.

The setting is black-box: the attacker controls the attack level (which
fixes rescale + blur through the level calibration), renders the attacked
image, reads the estimator's map, and scores it with a two-term loss

    L_total = (1 - alpha) * L_veh + alpha * L_out

where L_veh pulls the vehicle-mask reading toward a target value (targeted)
or pushes it away from the benign reading (untargeted, negated so smaller is
better), and L_out penalizes any estimate drift outside the lens outline
(0 for a full-frame lens, which leaves no pixel outside it).
All reductions are masked L1 means, which keeps alpha meaningful regardless
of mask sizes. Each loss is one ``estimation.masked_mean`` with the benign
map or the target as reference, on the map in the dtype the estimator
returns. The vehicle terms are reduced on the vehicle box's crop: the
pixels of its full-frame mask in the same order, so the same bits at the
cost of a box.

The search holds one level's map at a time: a map is dropped before the
next level's is made, and a render once its map is (a proxy map holds its
render's gray frame). Renders are deferred, so an estimator that reads
precomputed maps renders nothing, and a sweep's configs share one
``imaging.LensRegion``, so one lens footprint. The argmin over
``imaging.LEVELS`` is exact enumeration; ties break toward the smallest
level (least conspicuous blur, and determinism needs a rule).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, replace
from enum import Enum
from typing import Protocol

import numpy as np

from .errors import REPORTED_ERRORS, DepthlensError, check_positive
from .estimation import Box, ProxyMap, masked_mean
from .imaging import (LEVELS, LensKind, LensRegion, RasterImage,
                      apply_attack_transform, level_to_profile, region_masks)
from .metrics import adr, aer

# Default targets for disparity-scale estimators: attacked vehicle disparity
# is driven to 0.43 under a concave lens (push away) and 0.60 under a convex
# one (pull close).
DEFAULT_Y_TAR = {LensKind.CONCAVE: 0.43, LensKind.CONVEX: 0.60}


class Mode(Enum):
    TARGETED = "targeted"
    UNTARGETED = "untargeted"


class Estimator(Protocol):
    """Anything that turns an image into a 2-d float map: an array, or an
    ``estimation.ProxyMap``, which the losses read without building it.

    ``tag`` identifies the evaluation ("benign", "level_1", ...) so that
    file-backed estimators can look up pre-computed maps; live estimators
    ignore it.
    """

    def estimate_map(self, image: RasterImage,
                     tag: str | None = None) -> np.ndarray | ProxyMap:
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


def loss_out(est_attacked: np.ndarray, est_benign: np.ndarray,
             m_out: np.ndarray) -> float:
    """L1 drift of the out-of-lens estimates against the benign map."""
    return masked_mean(est_attacked, m_out, reference=est_benign)


def loss_vehicle_targeted(est_attacked: np.ndarray, m_veh: np.ndarray,
                          y_tar: float) -> float:
    """L1 distance of the vehicle-mask estimates from the target value."""
    return masked_mean(est_attacked, m_veh, reference=float(y_tar))


def loss_vehicle_untargeted(est_attacked: np.ndarray, est_benign: np.ndarray,
                            m_veh: np.ndarray) -> float:
    """Negated L1 deviation from the benign vehicle estimates (maximize
    deviation by minimizing the negation); always <= 0."""
    return -masked_mean(est_attacked, m_veh, reference=est_benign)


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
                   lens_kind: LensKind) -> OptimizationResult:
    """Exhaustively score the levels in ``LEVELS`` and return the argmin.

    The loss curve is complete and sorted by level; ``best_level`` is the
    smallest level attaining the minimal total loss. The reported metric is
    the error rate against ``y_tar`` (targeted) or the distortion rate
    against the benign reading (untargeted), both computed on vehicle-mask
    means through the same estimator.
    """
    try:
        est_benign = estimator.estimate_map(benign, tag="benign")
        # the lens region and the vehicle box are in the input's pixels
        if est_benign.shape != benign.shape[:2]:
            raise ValueError(f"estimator returned {est_benign.shape}, "
                             f"input is {benign.shape[:2]}")
    except REPORTED_ERRORS as exc:
        raise OptimizationError("benign", exc) from exc

    veh = cfg.vehicle_box.slices()
    benign_veh = est_benign[veh]
    m_veh = np.ones(benign_veh.shape, dtype=bool)
    # None when nothing lies outside the lens (a full-frame lens), so nothing
    # can drift there.
    m_out = region_masks(benign.width, benign.height, cfg.region, outside=True)

    curve = []
    attacked_means = {}
    for level in LEVELS:
        try:
            profile = level_to_profile(lens_kind, level, region=cfg.region)
            attacked = apply_attack_transform(benign, profile)
            # One level's map at a time: the last one goes before this one is
            # made, so an estimator that reads pixels renders after it goes.
            # A proxy map holds its render's gray frame, so the last render
            # goes with it. Dropping it only after the call above allocates
            # this level's frame faults fewer pages per proxy search.
            est_att = att_veh = None
            est_att = estimator.estimate_map(attacked, tag=f"level_{level}")
            attacked = None  # only the estimator reads the render
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
            l_out = 0.0 if m_out is None else loss_out(est_att, est_benign, m_out)
            l_total = (1.0 - cfg.alpha) * l_veh + cfg.alpha * l_out
            curve.append(LevelScore(level, l_total, l_veh, l_out))
            attacked_means[level] = masked_mean(att_veh, m_veh)
        except REPORTED_ERRORS as exc:
            raise OptimizationError(level, exc) from exc

    best = min(curve, key=lambda s: (s.l_total, s.level))
    try:  # a benign reading of 0 has no ADR: the best level's row fails
        if cfg.mode is Mode.TARGETED:
            metric_name = "AER"
            metric_value = aer(attacked_means[best.level], cfg.y_tar)
        else:
            metric_name = "ADR"
            metric_value = adr(attacked_means[best.level], masked_mean(benign_veh, m_veh))
    except REPORTED_ERRORS as exc:
        raise OptimizationError(best.level, exc) from exc
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

    Every alpha is checked before any search runs. Failures are confined to
    their row (marked, not raised) so a sweep with one missing pre-computed
    map still reports every other alpha. The searches share ``base_cfg``'s
    region, and so the lens footprint it keeps.
    """
    cfgs = [replace(base_cfg, alpha=alpha) for alpha in alphas]
    if not cfgs:
        raise ValueError("alpha list must not be empty")
    rows = []
    for cfg in cfgs:
        try:
            rows.append(SweepRow(cfg.alpha, cfg.mode, optimize_level(
                benign, estimator, cfg, lens_kind)))
        except OptimizationError as exc:
            rows.append(SweepRow(cfg.alpha, cfg.mode, None, error=str(exc)))
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
