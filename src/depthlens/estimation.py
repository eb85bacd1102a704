"""Depth-estimator abstraction and map plumbing.

Neural monocular estimators stay out of this package; what lives here is
everything around them:

* a geometric proxy estimator, ``ProxyDepthMapper``, that reads depth off
  a calibrated fiducial of known physical height (apparent size is
  inversely proportional to distance, so depth = focal_px * height_m /
  height_px); it is the one place that formula is computed;
* a file-backed estimator, ``DirectoryMapEstimator``, over externally
  produced maps, which divides disparity maps by a constant on request;
* loaders for those maps (PFM, 16-bit PGM + sidecar scale) and for
  bounding-box text files;
* masked means, the reduction every metric and loss in this toolkit starts
  from.

A depth or disparity map is a plain float64 ``np.ndarray`` of shape (h, w).
Invalid pixels (holes, zero disparity) are marked NaN rather than raised:
maps from real estimators contain them routinely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, FiducialNotFound, ParseError, check_positive
from . import formats
from .imaging import RasterImage


@dataclass(frozen=True)
class Box:
    """Pixel rectangle, inclusive-exclusive bounds."""

    x_min: int
    y_min: int
    x_max: int
    y_max: int

    def __post_init__(self):
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError(f"empty box {self}")

    def slices(self) -> tuple[slice, slice]:
        """Row and column slices of the box, negative bounds clipped to 0.
        Indexing a frame with them clips the far bounds; the crop is empty
        when the box misses the frame."""
        return (slice(max(self.y_min, 0), max(self.y_max, 0)),
                slice(max(self.x_min, 0), max(self.x_max, 0)))


@dataclass(frozen=True)
class FiducialSpec:
    """Calibrated dark target: physical height plus the detection threshold.

    ``reference_box`` optionally restricts the blob search to a window, the
    way an object detector's output would.
    """

    physical_height_m: float
    detection_threshold: int = 96
    reference_box: Box | None = None

    def __post_init__(self):
        check_positive(fiducial_height=self.physical_height_m)
        if not 0 <= self.detection_threshold <= 255:
            raise ValueError("detection threshold must be an 8-bit level")


def _find_blob(gray: np.ndarray, fiducial: FiducialSpec) -> tuple[slice, slice]:
    """Row and column slices of the bounding extent of the thresholded
    fiducial blob in a gray raster (within the reference box, if any)."""
    height, width = gray.shape
    rows, cols = (fiducial.reference_box or Box(0, 0, width, height)).slices()
    hits = gray[rows, cols] <= fiducial.detection_threshold
    count = np.count_nonzero(hits)
    if count < 4:
        raise FiducialNotFound(
            f"thresholding at {fiducial.detection_threshold} found "
            f"{count} px (need >= 4)"
        )
    ys = np.flatnonzero(hits.any(axis=1)) + rows.start
    xs = np.flatnonzero(hits.any(axis=0)) + cols.start
    return slice(int(ys[0]), int(ys[-1]) + 1), slice(int(xs[0]), int(xs[-1]) + 1)


def load_depth_map(path, kind: str = "depth") -> np.ndarray:
    """Load an externally produced map as float64 (h, w).

    The format is sniffed from the magic bytes: ``Pf`` float PFM or a 16-bit
    PGM with its sidecar scale file. ``kind`` ("depth" or "disparity")
    selects which samples are invalid and become NaN: non-positive depths,
    negative disparities.
    """
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"Pf" or magic == b"PF":
        values = formats.read_pfm(path)
    elif magic == b"P5":
        values = formats.read_pgm16(path)
    else:
        raise ParseError(f"unrecognized map format (magic {magic!r})", byte_offset=0)
    values = values.astype(np.float64)  # the one copy; holes are marked in it
    if kind == "depth":
        values[~(values > 0)] = np.nan
    elif kind == "disparity":
        values[values < 0] = np.nan
    else:
        raise ValueError(f"kind must be 'depth' or 'disparity', got {kind!r}")
    return values


def masked_mean(values: np.ndarray, mask: np.ndarray) -> float:
    """Arithmetic mean over the valid (finite) masked pixels."""
    values = np.asarray(values, dtype=np.float64)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} does not match map {values.shape}")
    selected = values[mask & np.isfinite(values)]
    if selected.size == 0:
        raise EmptyMask("no valid pixel under the mask")
    return float(selected.mean())


def load_boxes(path) -> list[Box]:
    """Bounding-box text file: one ``x_min y_min x_max y_max`` line per box,
    integer pixels, inclusive-exclusive."""
    boxes = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 integers, got {line!r}")
            try:
                x0, y0, x1, y1 = (int(p) for p in parts)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad integer in {line!r}") from None
            try:
                boxes.append(Box(x0, y0, x1, y1))
            except ValueError as exc:  # an empty box
                raise ParseError(f"{path}:{lineno}: {exc}") from None
    return boxes


class ProxyDepthMapper:
    """Built-in image -> depth-map estimator around the fiducial proxy.

    The detected fiducial's bounding box is filled with the pinhole depth
    estimate; every other pixel gets a brightness-derived pseudo-depth
    (linear ramp from ``near_m`` at black to ``far_m`` at white). The ramp is
    what makes the estimator honest about image quality: defocusing a
    textured area moves its estimates, exactly the sensitivity the
    out-of-lens consistency loss is meant to police.
    """

    def __init__(self, fiducial: FiducialSpec, focal_px: float,
                 near_m: float = 4.0, far_m: float = 40.0):
        check_positive(focal_length=focal_px, near_depth=near_m, far_depth=far_m)
        if far_m <= near_m:
            raise ValueError(f"far depth {far_m} must exceed near depth {near_m}")
        self.fiducial = fiducial
        self.focal_px = focal_px
        self.near_m = near_m
        self.far_m = far_m

    def estimate_map(self, image: RasterImage, tag: str | None = None) -> np.ndarray:
        gray = image.to_gray().data
        depth = self.near_m + (self.far_m - self.near_m) * gray.astype(np.float64) / 255.0
        rows, cols = _find_blob(gray, self.fiducial)
        height_px = rows.stop - rows.start
        vehicle_depth = self.focal_px * self.fiducial.physical_height_m / height_px
        depth[rows, cols] = vehicle_depth
        return depth


class DirectoryMapEstimator:
    """File-backed estimator: one pre-computed map per evaluation tag.

    Expects ``<tag>.pfm`` (or 16-bit ``<tag>.pgm``) in the directory, e.g.
    ``benign.pfm`` and ``level_1.pfm`` .. ``level_9.pfm`` produced offline by
    whatever estimator is under attack. ``rescale`` divides disparity maps by
    a constant on load.
    """

    def __init__(self, directory, kind: str = "disparity",
                 rescale: float | None = None):
        if rescale is not None:
            check_positive(rescale_constant=rescale)
        self.directory = directory
        self.kind = kind
        self.rescale = rescale

    def estimate_map(self, image: RasterImage, tag: str | None = None) -> np.ndarray:
        if tag is None:
            raise ValueError("file-backed estimator needs an evaluation tag")
        for ext in ("pfm", "pgm"):
            candidate = os.path.join(str(self.directory), f"{tag}.{ext}")
            if os.path.exists(candidate):
                values = load_depth_map(candidate, kind=self.kind)
                if self.rescale is not None:
                    values = values / self.rescale
                return values
        raise FileNotFoundError(
            f"no {tag}.pfm / {tag}.pgm in {self.directory}"
        )
