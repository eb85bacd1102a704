"""Shared fixture builders for the test suite."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from depthlens import estimation, imaging
from depthlens.errors import check_positive
from depthlens.imaging import LensRegion, RasterImage, region_masks

# Strip sizes of the raster kernels tried besides the default, which holds
# any 70-px raster whole: one value, so every row is a strip of its own,
# and a small odd count, so strips hold several rows and the last is short.
STRIPS = [1, 97]


@contextlib.contextmanager
def strip_values(values):
    """Run the raster kernels with ``values`` values per row strip."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(imaging, "_STRIP_VALUES", values)
        yield


# The CLI only reads maps; their writers serve the tests and the CLI corpus.
def write_pgm16(path, values: np.ndarray, scale: float) -> None:
    """Write float values as 16-bit PGM counts of ``scale`` units each, and
    ``scale`` to the sidecar ``<path>.scale``.

    A count has no NaN or infinity, so non-finite values are rejected: a NaN
    hole written as count 0 would read back as a valid zero sample.
    """
    check_positive(scale=scale)
    counts = np.round(np.asarray(values, dtype=np.float64) / scale)
    if not np.isfinite(counts).all():
        raise ValueError("values must be finite (16-bit counts have no NaN or inf)")
    if counts.min() < 0 or counts.max() > 65535:
        raise ValueError("values do not fit 16-bit counts at this scale")
    arr = counts.astype(">u2")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n65535\n" % (w, h))
        fh.write(arr.tobytes())
    with open(str(path) + ".scale", "w", encoding="ascii") as fh:
        fh.write(f"{scale!r}\n")


def write_pfm(path, values: np.ndarray) -> None:
    """Write float32 (h, w) as grayscale PFM, little-endian, bottom-up."""
    arr = np.asarray(values, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d map, got shape {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"Pf\n%d %d\n-1.0\n" % (w, h))
        fh.write(np.ascontiguousarray(arr[::-1]).tobytes())


def noise_image(shape=(128, 128), seed=0) -> RasterImage:
    rng = np.random.default_rng(seed)
    return RasterImage(rng.integers(0, 256, shape).astype(np.uint8))


def textured_image(shape=(256, 256), seed=0) -> RasterImage:
    """Noise plus a few structures: the generic sharp scene."""
    rng = np.random.default_rng(seed)
    img = rng.integers(40, 216, shape).astype(np.int32)
    h, w = shape
    ys, xs = np.mgrid[0:h, 0:w]
    img[(xs - w // 3) ** 2 + (ys - h // 3) ** 2 <= (min(h, w) // 6) ** 2] //= 2
    img[(ys + xs) % 17 < 2] = 235
    return RasterImage(np.clip(img, 0, 255).astype(np.uint8))


def render_fiducial(frame_shape, fiducial_height_px: float,
                    background: int = 220, fill: int = 10,
                    aspect: float = 0.6) -> RasterImage:
    """Dark rectangle of the given apparent height, centered in the frame."""
    h, w = frame_shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    top = int(round(cy - fiducial_height_px / 2.0))
    bottom = top + int(round(fiducial_height_px))
    half_w = max(2, int(round(fiducial_height_px * aspect / 2.0)))
    img = np.full(frame_shape, background, np.uint8)
    img[max(top, 0):min(bottom, h), max(int(cx) - half_w, 0):min(int(cx) + half_w, w)] = fill
    return RasterImage(img)


def fiducial_reading(mapper: estimation.ProxyDepthMapper, image: RasterImage) -> float:
    """The depth ``mapper.estimate_map`` gives the frame's centre pixel. For
    a fiducial centred in the frame (``render_fiducial``) that pixel is dark,
    so it lies in the detected box and reads the pinhole depth."""
    cy, cx = image.height // 2, image.width // 2
    assert image.to_gray().data[cy, cx] <= mapper.fiducial.detection_threshold
    return float(mapper.estimate_map(image)[cy, cx])


def blob_extent(image: RasterImage, threshold: int = 128):
    """(height, width) of the dark-thresholded blob's bounding box."""
    gray = image.to_gray().data
    ys, xs = np.nonzero(gray < threshold)
    assert ys.size > 0, "no blob found"
    return int(ys.max() - ys.min() + 1), int(xs.max() - xs.min() + 1)


def concave_sweep_fixture(seed: int):
    """Designed concave-attack fixture for the weighting sweep.

    Coarse blocky texture outside the lens circle (so growing blur radii
    keep doing more damage out-of-lens), a flat bright field with a dark
    fiducial inside, a wide-ramp proxy estimator, and a target depth a bit
    beyond the benign reading. Returns (image, vehicle_box, region,
    estimator, y_tar).
    """
    from depthlens import estimation
    from depthlens.imaging import LensRegion, region_masks

    rng = np.random.default_rng(seed)
    h = w = 192
    blocks = rng.integers(40, 256, (17, 17))
    img = np.kron(blocks, np.ones((12, 12), dtype=np.int64))[:h, :w].astype(np.uint8)
    region = LensRegion.circle(96, 96, 60)
    sel = region_masks(w, h, region)
    img[sel] = 215
    img[76:116, 82:110] = 10  # 40 px tall fiducial
    image = RasterImage(img)

    box = estimation.Box(70, 64, 122, 128)
    fiducial = estimation.FiducialSpec(1.5, detection_threshold=96,
                                       reference_box=box)
    estimator = estimation.ProxyDepthMapper(fiducial, 700.0, near_m=4.0, far_m=90.0)
    benign_vehicle_depth = 700.0 * 1.5 / 40.0
    y_tar = benign_vehicle_depth / 0.68
    return image, box, region, estimator, y_tar
