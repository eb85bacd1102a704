"""Closed-form optics for an attack lens stacked in front of a fixed camera.

Sign conventions, chosen to match the combined-lens model this toolkit
implements throughout:

* focal length ``f`` is signed: negative for a diverging (concave) lens,
  positive for a converging (convex) lens;
* image distance is positive for a virtual image (same side as the object)
  and negative for a real image;
* magnification is positive for an upright image.

The two-lens stack is evaluated in stages: the attack lens images the object,
then the camera lens images that intermediate image, which it sees at
``|d_i1 + d_b|``. Where the intermediate image falls relative to the lens
gap ``d_b`` splits the convex attack into three scenarios. Perceived depth
scales by ``|m_ori / m_total|``: halve the formed size and the object reads
as twice as far.

All distances are meters. Pure functions over frozen value types; safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import SingularConfiguration


class ScenarioKind(Enum):
    """Which lens combination geometry applies.

    Only the concave attack and the convex near-lens arrangement survive
    physical constraints (short lens gap, distant objects): a convex lens
    whose intermediate image forms behind the camera plane needs either an
    object closer than the focal length or a conspicuously large gap.
    """

    CONCAVE = "concave"
    CONVEX_NEAR_OBJECT = "convex_near_object"
    CONVEX_FAR_LENS = "convex_far_lens"
    CONVEX_NEAR_LENS = "convex_near_lens"

    @property
    def feasible_in_ad(self) -> bool:
        return self in (ScenarioKind.CONCAVE, ScenarioKind.CONVEX_NEAR_LENS)


@dataclass(frozen=True)
class LensSpec:
    """Attack lens. ``focal_length_m`` < 0 means concave, > 0 convex."""

    focal_length_m: float

    def __post_init__(self):
        if not math.isfinite(self.focal_length_m) or self.focal_length_m == 0:
            raise ValueError("lens focal length must be finite and nonzero")

    @property
    def is_concave(self) -> bool:
        return self.focal_length_m < 0


@dataclass(frozen=True)
class CameraSpec:
    """Victim camera: its own focal length and the gap to the attack lens."""

    focal_length_m: float
    lens_gap_m: float

    def __post_init__(self):
        if not (math.isfinite(self.focal_length_m) and self.focal_length_m > 0):
            raise ValueError("camera focal length must be finite and positive")
        if not (math.isfinite(self.lens_gap_m) and self.lens_gap_m > 0):
            raise ValueError("lens gap must be finite and positive")


@dataclass(frozen=True)
class AttackGeometry:
    """One object / attack-lens / camera arrangement.

    ``lens=None`` is the explicit pass-through mode (no attack lens mounted):
    the perceived depth equals the true distance and no scenario applies.
    """

    object_distance_m: float
    lens: LensSpec | None
    camera: CameraSpec

    def __post_init__(self):
        if not (math.isfinite(self.object_distance_m) and self.object_distance_m > 0):
            raise ValueError("object distance must be finite and positive")


@dataclass(frozen=True)
class OpticsResult:
    """Everything the two-stage evaluation produces.

    ``scenario`` is None only in pass-through mode. ``depth_ratio`` is the
    multiplier applied to the true object distance to get the perceived one.
    """

    d_i1_m: float
    m1: float
    d_i2_m: float
    m2: float
    m_total: float
    m_ori: float
    depth_ratio: float
    scenario: ScenarioKind | None


_FOCAL_POINT = "object at the focal point (d_o = f = {f} m) forms no image"


def _stage(focal_length_m: float, object_distance_m: float,
           message: str = _FOCAL_POINT) -> tuple[float, float]:
    """One thin lens: ``(image distance, magnification)``.

    The one zero-denominator check of the module: an object exactly at the
    focal point sends the rays out parallel, so no image forms and
    SingularConfiguration(message, with ``{f}`` filled in) is raised.
    """
    denom = object_distance_m - focal_length_m
    if denom == 0:
        raise SingularConfiguration(message.format(f=focal_length_m))
    return -object_distance_m * focal_length_m / denom, -focal_length_m / denom


def thin_lens_image_distance(focal_length_m: float, object_distance_m: float) -> float:
    """Image distance for a single thin lens, virtual-positive convention;
    SingularConfiguration at the focal point."""
    return _stage(focal_length_m, object_distance_m)[0]


def magnification(focal_length_m: float, object_distance_m: float) -> float:
    """Single-lens magnification; positive = upright image."""
    return _stage(focal_length_m, object_distance_m)[1]


def baseline_magnification(camera: CameraSpec, object_distance_m: float) -> float:
    """Magnification of the camera alone (no attack lens), a negative number
    for any object beyond the camera's focal length."""
    return _stage(camera.focal_length_m, object_distance_m + camera.lens_gap_m,
                  "object distance plus lens gap equals the camera focal length")[1]


def classify_scenario(geometry: AttackGeometry) -> ScenarioKind:
    """Dispatch a lensed geometry to its combination-lens case.

    Concave lenses always image the same way. For convex lenses the split is
    on where the attack-lens image lands: in front of the object (object
    inside the focal length), behind the camera plane (gap >= image
    distance), or between lens and camera. The boundary gap == image
    distance resolves to the far-lens case.
    """
    if geometry.lens is None:
        raise ValueError("pass-through geometry has no attack scenario")
    return _scenario(geometry, thin_lens_image_distance(
        geometry.lens.focal_length_m, geometry.object_distance_m))


def _scenario(geometry: AttackGeometry, d_i1: float) -> ScenarioKind:
    f = geometry.lens.focal_length_m
    if f < 0:
        return ScenarioKind.CONCAVE
    if geometry.object_distance_m < f:
        return ScenarioKind.CONVEX_NEAR_OBJECT
    if geometry.camera.lens_gap_m >= abs(d_i1):
        return ScenarioKind.CONVEX_FAR_LENS
    return ScenarioKind.CONVEX_NEAR_LENS


def combined_magnification(geometry: AttackGeometry) -> OpticsResult:
    """Evaluate the full two-lens stack.

    Per-stage quantities come from the staged evaluation; ``m_total`` is
    the closed-form rational expression ``f * f_c / ((d_o1 - f) * (d_o2 -
    f_c))``, one quotient of two products, so the ``m_total == m1 * m2``
    identity still compares two floating-point paths (a product of two
    quotients) rather than a tautology. An ``m_total`` that underflows to
    zero, or whose denominator does, is singular.
    """
    camera = geometry.camera
    d_o1 = geometry.object_distance_m
    f_c, d_b = camera.focal_length_m, camera.lens_gap_m
    m_ori = baseline_magnification(camera, d_o1)

    if geometry.lens is None:
        return OpticsResult(
            d_i1_m=0.0, m1=1.0, d_i2_m=0.0, m2=m_ori,
            m_total=m_ori, m_ori=m_ori, depth_ratio=1.0, scenario=None,
        )

    f = geometry.lens.focal_length_m
    d_i1, m1 = _stage(f, d_o1)
    scenario = _scenario(geometry, d_i1)
    # In every scenario the intermediate image lies d_i1 + d_b in front of
    # the camera lens (behind it when negative).
    d_o2 = abs(d_i1 + d_b)
    d_i2, m2 = _stage(f_c, d_o2, "intermediate image sits exactly one camera "
                                 "focal length from the camera")
    try:
        m_total = f * f_c / ((d_o1 - f) * (d_o2 - f_c))
        depth_ratio = abs(m_ori / m_total)
    except ZeroDivisionError:
        raise SingularConfiguration(
            "the combined magnification leaves the float range") from None

    return OpticsResult(
        d_i1_m=d_i1, m1=m1, d_i2_m=d_i2, m2=m2,
        m_total=m_total, m_ori=m_ori, depth_ratio=depth_ratio, scenario=scenario,
    )


def expected_depth(geometry: AttackGeometry) -> float:
    """Perceived object distance under the attack, in meters.

    The size-to-depth inversion scales the true object distance by
    ``|m_ori / m_total|``; pass-through mode returns the distance unchanged.
    """
    if geometry.lens is None:
        return geometry.object_distance_m
    return combined_magnification(geometry).depth_ratio * geometry.object_distance_m


def pinhole_apparent_size(object_height_m: float, distance_m: float,
                          sensor_gap_m: float) -> float:
    """Projected size on a pinhole camera's sensor plane: h * b / d."""
    if object_height_m <= 0 or distance_m <= 0 or sensor_gap_m <= 0:
        raise ValueError("pinhole projection needs positive height, distance, gap")
    return object_height_m * sensor_gap_m / distance_m


# Grid used by the CLI table report: the lens strengths, gaps and object
# distances the physical experiments swept.
TABLE_FOCAL_LENGTHS_M = (0.20, 0.30, 0.50)
TABLE_LENS_GAPS_M = (0.02, 0.04, 0.08, 0.12)
TABLE_OBJECT_DISTANCES_M = (6.0, 9.0, 12.0)


def expected_depth_grid(concave: bool, camera_focal_length_m: float):
    """Expected-depth sweep over the ``TABLE_*`` (f, d_b, d_o1) grid.

    Yields one ``(f_m, d_b_m, d_o1_m, OpticsResult)`` tuple per cell, f
    reported with its sign.
    """
    sign = -1.0 if concave else 1.0
    for f in TABLE_FOCAL_LENGTHS_M:
        for d_b in TABLE_LENS_GAPS_M:
            camera = CameraSpec(focal_length_m=camera_focal_length_m, lens_gap_m=d_b)
            for d_o1 in TABLE_OBJECT_DISTANCES_M:
                geom = AttackGeometry(d_o1, LensSpec(sign * abs(f)), camera)
                yield sign * abs(f), d_b, d_o1, combined_magnification(geom)
