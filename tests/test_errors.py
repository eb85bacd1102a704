"""One rule for numbers from outside: finite, and positive where a quantity
must be; every site that takes such a number goes through it."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from depthlens.attack_opt import LossConfig, Mode
from depthlens.defense import lbp_sharpness_map, segment_blur, varlap_verdict
from depthlens.errors import check_finite, check_positive
from depthlens.estimation import (Box, DirectoryMapEstimator, FiducialSpec,
                                  ProxyDepthMapper)
from depthlens.imaging import (AttackProfile, BlurPlacement, LensRegion, RasterImage,
                               scale_region)
from depthlens.metrics import adr, aer
from depthlens.optics import AttackGeometry, CameraSpec, LensSpec

from helpers import noise_image


@given(st.floats())
def test_check_finite_accepts_exactly_the_finite_floats(value):
    if math.isfinite(value):
        check_finite(value=value)
    else:
        with pytest.raises(ValueError, match=r"^value must be finite, got "):
            check_finite(value=value)


@given(st.floats())
def test_check_positive_accepts_exactly_the_finite_positive_floats(value):
    if math.isfinite(value) and value > 0:
        check_positive(value=value)
    else:
        with pytest.raises(ValueError,
                           match=r"^value must be finite and positive, got "):
            check_positive(value=value)


def test_first_bad_value_is_named_in_words():
    with pytest.raises(ValueError) as exc:
        check_positive(lens_gap=0.04, fiducial_height=float("nan"), dt=-1.0)
    assert str(exc.value) == "fiducial height must be finite and positive, got nan"
    with pytest.raises(ValueError) as exc:
        check_finite(center_x=3.0, center_y=float("-inf"))
    assert str(exc.value) == "center y must be finite, got -inf"


def test_numpy_scalars_follow_the_same_rule():
    check_positive(scale=np.float64(0.5))
    with pytest.raises(ValueError, match="scale must be finite and positive, got nan"):
        check_positive(scale=np.float64("nan"))


_SHARP = lbp_sharpness_map(noise_image((40, 40), seed=0))
_IMAGE = RasterImage(np.zeros((8, 8), np.uint8))
_FIDUCIAL = FiducialSpec(physical_height_m=1.5)

# Every library site that takes a number from outside, called with one of
# those numbers replaced by ``bad``.
_SITES = {
    "LensSpec": lambda bad: LensSpec(bad),
    "CameraSpec.focal_length_m": lambda bad: CameraSpec(bad, 0.04),
    "CameraSpec.lens_gap_m": lambda bad: CameraSpec(0.026, bad),
    "AttackGeometry": lambda bad: AttackGeometry(bad, None, CameraSpec(0.026, 0.04)),
    "FiducialSpec": lambda bad: FiducialSpec(physical_height_m=bad),
    "DirectoryMapEstimator": lambda bad: DirectoryMapEstimator(".", rescale=bad),
    "ProxyDepthMapper": lambda bad: ProxyDepthMapper(_FIDUCIAL, bad),
    "ProxyDepthMapper.near_m": lambda bad: ProxyDepthMapper(_FIDUCIAL, 700.0, near_m=bad),
    "ProxyDepthMapper.far_m": lambda bad: ProxyDepthMapper(_FIDUCIAL, 700.0, far_m=bad),
    "LensRegion.circle.center_x": lambda bad: LensRegion.circle(bad, 4, 3),
    "LensRegion.circle.center_y": lambda bad: LensRegion.circle(4, bad, 3),
    "LensRegion.circle.radius": lambda bad: LensRegion.circle(4, 4, bad),
    "AttackProfile": lambda bad: AttackProfile(
        1, LensRegion.full_frame(), bad, 1, BlurPlacement.OUT_OF_LENS),
    "scale_region": lambda bad: scale_region(_IMAGE, LensRegion.full_frame(), bad),
    "LossConfig.y_tar": lambda bad: LossConfig(
        0.3, Mode.TARGETED, Box(0, 0, 4, 4), LensRegion.full_frame(), y_tar=bad),
    "adr.attacked": lambda bad: adr(bad, 0.28),
    "adr.benign": lambda bad: adr(0.36, bad),
    "aer.attacked": lambda bad: aer(bad, 0.43),
    "aer.target": lambda bad: aer(0.36, bad),
    "varlap_verdict": lambda bad: varlap_verdict(_IMAGE, threshold=bad),
    "segment_blur": lambda bad: segment_blur(_SHARP, threshold=bad),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("site", sorted(_SITES))
def test_every_site_rejects_non_finite_numbers(site, bad):
    with pytest.raises(ValueError, match="must be finite"):
        _SITES[site](bad)


def test_negative_lbp_delta_rejected():
    with pytest.raises(ValueError, match="delta"):
        lbp_sharpness_map(noise_image((40, 40), seed=0), lbp_threshold=-5)
