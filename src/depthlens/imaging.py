"""Raster synthesis of the lens attack.

A mounted lens shows a rescaled view of the scene inside its outline and,
depending on lens type, defocuses one side of that boundary. This module
reproduces both effects on 8-bit rasters:

* ``scale_region`` resamples the in-lens content about the region center
  (bilinear, inverse-mapped, edge-replicated where sources fall off-frame);
* ``box_blur`` replaces masked pixels with the mean of a square window
  (clipped at frame edges, integer round-half-up, so output is bit-exact
  across platforms);
* ``apply_attack_transform`` composes the two per an ``AttackProfile``;
* ``level_to_profile`` maps the discretized lens strength 1..9 onto a
  (scale, blur) pair; strength 1 adds the least blur, 9 the most.

Both kernels touch only a bounding box: ``scale_region`` the box of the
lens region, ``box_blur`` the box of its mask grown by the radius and
clipped to the frame. Both are separable. Source x of a resampled pixel
depends only on its column and source y only on its row, so the bilinear
taps are gathered as whole rows, then columns. The blur takes running sums
along each axis (a summed-area table, Crow 1984); each clipped window is
the difference of two slices of an edge-padded cumulative sum, held in
int32 whenever the frame is small enough for that to be exact, else int64.

Everything is deterministic and pure; identical inputs give bit-identical
outputs.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadLevel, DegenerateRegion, check_finite, check_positive
from . import formats


@dataclass(frozen=True, eq=False)
class RasterImage:
    """8-bit raster, gray (h, w) or RGB (h, w, 3), row-major. ``data`` is a
    read-only view of the array it was built from, so a function may return
    its input raster instead of a copy. Rasters compare and hash by
    identity; compare ``data`` to compare pixels."""

    data: np.ndarray

    def __post_init__(self):
        arr = self.data
        if arr.dtype != np.uint8:
            raise ValueError(f"raster must be uint8, got {arr.dtype}")
        if arr.ndim not in (2, 3) or arr.shape[2:] not in ((), (3,)):
            raise ValueError(f"raster must be (h, w) or (h, w, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("raster needs at least one pixel")
        view = arr.view()
        view.flags.writeable = False
        object.__setattr__(self, "data", view)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.data.ndim == 2 else 3

    def to_gray(self) -> "RasterImage":
        """Luma conversion (0.299, 0.587, 0.114), rounded half-up."""
        if self.channels == 1:
            return self
        rgb = self.data.astype(np.float64)
        luma = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
        return RasterImage(np.floor(luma + 0.5).astype(np.uint8))

    @classmethod
    def load(cls, path) -> "RasterImage":
        return cls(formats.read_pnm(path))

    def save(self, path) -> None:
        formats.write_pnm(path, self.data)


class RegionKind(Enum):
    FULL_FRAME = "full_frame"
    CIRCLE = "circle"


@dataclass(frozen=True)
class LensRegion:
    """Footprint of the lens in the image: the whole frame or a circle.

    A circle may extend past the frame; only the intersection counts.
    """

    kind: RegionKind
    center_x: float = 0.0
    center_y: float = 0.0
    radius: float = 0.0

    @classmethod
    def full_frame(cls) -> "LensRegion":
        return cls(RegionKind.FULL_FRAME)

    @classmethod
    def circle(cls, center_x: float, center_y: float, radius: float) -> "LensRegion":
        check_finite(center_x=center_x, center_y=center_y, radius=radius)
        if radius < 1:
            raise ValueError(f"circle radius must be >= 1 px, got {radius}")
        return cls(RegionKind.CIRCLE, center_x, center_y, radius)


def _lens_box(width: int, height: int, region: LensRegion):
    """Bounding box of the in-lens pixels and the in-lens mask over it.

    Returns ``(rows, cols, inside)``: two slices into the frame and the
    boolean mask of shape ``(rows, cols)``. The circle predicate is the same
    float expression on every pixel it evaluates; a row (column) whose own
    squared offset already exceeds ``r**2`` cannot hold an in-lens pixel,
    because the other squared term is non-negative and rounding is monotone.
    """
    if region.kind is RegionKind.FULL_FRAME:
        return slice(0, height), slice(0, width), np.ones((height, width), dtype=bool)
    dy2 = (np.arange(height, dtype=np.float64) - region.center_y) ** 2
    dx2 = (np.arange(width, dtype=np.float64) - region.center_x) ** 2
    r2 = region.radius ** 2
    ys = np.flatnonzero(dy2 <= r2)
    xs = np.flatnonzero(dx2 <= r2)
    if ys.size == 0 or xs.size == 0:
        return slice(0, 0), slice(0, 0), np.zeros((0, 0), dtype=bool)
    rows = slice(int(ys[0]), int(ys[-1]) + 1)
    cols = slice(int(xs[0]), int(xs[-1]) + 1)
    return rows, cols, dx2[None, cols] + dy2[rows, None] <= r2


def region_masks(width: int, height: int, region: LensRegion) -> np.ndarray:
    """The (height, width) in-lens mask: pixel (x, y) is in-lens iff its
    center lies within the region. ``~mask`` is the out-of-lens side."""
    if width < 1 or height < 1:
        raise ValueError("mask dimensions must be positive")
    rows, cols, box = _lens_box(width, height, region)
    inside = np.zeros((height, width), dtype=bool)
    inside[rows, cols] = box
    return inside


def _region_center(image: RasterImage, region: LensRegion) -> tuple[float, float]:
    if region.kind is RegionKind.CIRCLE:
        return float(region.center_x), float(region.center_y)
    return (image.width - 1) / 2.0, (image.height - 1) / 2.0


def _write_masked(box: np.ndarray, values: np.ndarray, mask: np.ndarray) -> None:
    """Store ``values`` (one row per box row, channels folded into it, all
    integral) into the pixels of the raster view ``box`` that ``mask``
    selects."""
    if box.ndim == 3:
        mask = np.repeat(mask, box.shape[2], axis=1)
    np.copyto(box.reshape(len(box), -1), values, casting="unsafe", where=mask)


def _lerp(a: np.ndarray, b: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``a * (1 - t) + b * t`` in that operation order, overwriting ``a``
    and ``b`` (both float64 temporaries)."""
    a *= 1 - t
    b *= t
    a += b
    return a


def _source_coords(start: int, stop: int, center: float, scale: float, size: int):
    """Bilinear taps along one axis for output positions [start, stop):
    lower and upper source index and the weight of the upper one."""
    s = center + (np.arange(start, stop, dtype=np.intp) - center) / scale
    np.clip(s, 0.0, size - 1.0, out=s)
    lo = np.floor(s).astype(np.intp)
    return lo, np.minimum(lo + 1, size - 1), s - lo


def scale_region(image: RasterImage, region: LensRegion, scale: float) -> RasterImage:
    """Resample the in-region content by ``scale`` about the region center.

    Inverse mapping: an output pixel at offset v from the center samples the
    source at offset v / scale, so enlarging pulls from a shrunken footprint
    (content pushed past a circle boundary is simply clipped) and shrinking
    pulls from a widened one, edge-replicating wherever sources leave the
    frame. Pixels outside the region are untouched; scale 1 returns the input.
    """
    check_positive(scale=scale)
    rows, cols, inside = _lens_box(image.width, image.height, region)
    if not inside.any():
        raise DegenerateRegion("lens region does not intersect the frame")
    if scale == 1.0:
        return image
    cx, cy = _region_center(image, region)
    x0, x1, fx = _source_coords(cols.start, cols.stop, cx, scale, image.width)
    y0, y1, fy = _source_coords(rows.start, rows.stop, cy, scale, image.height)
    # Rows first, then columns; RGB channels are folded into the row so
    # every weight broadcasts along a contiguous axis.
    fx = np.repeat(fx, image.channels)
    fy = fy[:, None]
    data = image.data

    def taps(src_rows):
        gathered = data[src_rows]
        return (gathered[:, x0].reshape(len(src_rows), -1).astype(np.float64),
                gathered[:, x1].reshape(len(src_rows), -1).astype(np.float64))

    top = _lerp(*taps(y0), fx)
    bot = _lerp(*taps(y1), fx)
    sampled = _lerp(top, bot, fy)
    sampled += 0.5
    np.floor(sampled, out=sampled)
    out = data.copy()
    _write_masked(out[rows, cols], sampled, inside)
    return RasterImage(out)


def _window_sums(a: np.ndarray, axis: int, start: int, stop: int, radius: int,
                 dtype) -> np.ndarray:
    """Sums of ``a`` over ``[i - radius, i + radius]`` along ``axis`` (0 or
    1), clipped to ``a``, for ``i`` in ``[start, stop)``.

    The cumulative sum is stored edge-padded by ``radius`` on both sides, so
    every clipped window is the difference of two contiguous slices.
    """
    n = a.shape[axis]
    shape = list(a.shape)
    shape[axis] = n + 2 * radius + 1
    padded = np.empty(shape, dtype=dtype)

    def at(lo, hi):
        index = [slice(None)] * a.ndim
        index[axis] = slice(lo, hi)
        return tuple(index)

    padded[at(0, radius + 1)] = 0
    if axis == 0:
        # np.cumsum walks axis 0 one strided column at a time; adding whole
        # rows is several times faster.
        for i in range(n):
            np.add(padded[radius + i], a[i], out=padded[radius + 1 + i])
    else:
        np.cumsum(a, axis=axis, dtype=dtype, out=padded[at(radius + 1, radius + 1 + n)])
    padded[at(radius + 1 + n, None)] = padded[at(radius + n, radius + 1 + n)]
    return (padded[at(start + 2 * radius + 1, stop + 2 * radius + 1)]
            - padded[at(start, stop)])


def _window_counts(start: int, stop: int, size: int, radius: int) -> np.ndarray:
    """In-frame length of the window around each position in [start, stop)."""
    i = np.arange(start, stop)
    return np.minimum(i + radius + 1, size) - np.maximum(i - radius, 0)


def box_blur(image: RasterImage, mask: np.ndarray, radius: int) -> RasterImage:
    """Mean filter over a (2r+1)^2 window, applied to masked pixels only.

    The window is clipped at frame edges and averaged over the in-frame
    samples, so borders do not darken. Unmasked pixels pass through
    untouched; radius 0 or an empty mask returns the input. Rounding is
    half-up in exact integer arithmetic.
    """
    if mask.shape != (image.height, image.width):
        raise ValueError(
            f"mask shape {mask.shape} does not match image "
            f"{(image.height, image.width)}"
        )
    if radius < 0:
        raise ValueError("blur radius must be non-negative")
    ys = np.flatnonzero(mask.any(axis=1))
    if radius == 0 or ys.size == 0:
        return image
    xs = np.flatnonzero(mask.any(axis=0))
    h, w = mask.shape
    y0, y1 = int(ys[0]), int(ys[-1]) + 1
    x0, x1 = int(xs[0]), int(xs[-1]) + 1
    # The largest value formed is 2*sum + count <= 511*count <= 511*h*w.
    dtype = np.int32 if 511 * h * w < 2 ** 31 else np.int64
    sy0, sx0 = max(y0 - radius, 0), max(x0 - radius, 0)
    src = image.data[sy0:min(y1 + radius, h), sx0:min(x1 + radius, w)]
    sums = _window_sums(src, 1, x0 - sx0, x1 - sx0, radius, dtype)
    # Fold RGB channels into the row: each (column, channel) is a column.
    sums = _window_sums(sums.reshape(len(sums), -1), 0, y0 - sy0, y1 - sy0,
                        radius, dtype)
    channels = image.channels
    count = np.multiply.outer(
        _window_counts(y0, y1, h, radius).astype(dtype),
        np.repeat(_window_counts(x0, x1, w, radius), channels).astype(dtype))
    mean = (2 * sums + count) // (2 * count)  # round half-up
    out = image.data.copy()
    _write_masked(out[y0:y1, x0:x1], mean, mask[y0:y1, x0:x1])
    return RasterImage(out)


class LensKind(Enum):
    CONCAVE = "concave"
    CONVEX = "convex"


class BlurPlacement(Enum):
    IN_LENS = "in_lens"
    OUT_OF_LENS = "out_of_lens"


@dataclass(frozen=True)
class AttackProfile:
    """One renderable attack: region, rescale factor, and defocus placement.

    ``level_to_profile`` follows the physical behavior: a concave lens
    shrinks the in-lens view and throws the out-of-lens area out of focus; a
    convex lens enlarges and defocuses inside its own outline. Both are
    overridable.
    """

    level: int
    region: LensRegion
    scale_factor: float
    blur_radius: int
    blur_placement: BlurPlacement

    def __post_init__(self):
        if not 1 <= self.level <= 9:
            raise BadLevel(f"level must be in 1..9, got {self.level}")
        check_positive(scale_factor=self.scale_factor)
        if self.blur_radius < 0:
            raise ValueError("blur radius must be non-negative")


# Default level calibration: blur radius grows one pixel per level; the
# rescale factor sweeps linearly from a barely-visible change at level 1 to
# the strongest change at level 9.
BLUR_PX_PER_LEVEL = 1
CONCAVE_SCALE_SPAN = (0.95, 0.55)
CONVEX_SCALE_SPAN = (1.1, 3.0)


def level_to_profile(lens_kind: LensKind, level: int,
                     region: LensRegion | None = None) -> AttackProfile:
    """Turn a discrete attack level into a renderable profile."""
    if not isinstance(level, numbers.Integral) or not 1 <= level <= 9:
        raise BadLevel(f"level must be an integer in 1..9, got {level!r}")
    level = int(level)
    if region is None:
        region = LensRegion.full_frame()
    span = CONCAVE_SCALE_SPAN if lens_kind is LensKind.CONCAVE else CONVEX_SCALE_SPAN
    scale = span[0] + (span[1] - span[0]) * (level - 1) / 8.0
    blur = BLUR_PX_PER_LEVEL * level
    placement = (BlurPlacement.OUT_OF_LENS if lens_kind is LensKind.CONCAVE
                 else BlurPlacement.IN_LENS)
    return AttackProfile(level=level, region=region, scale_factor=scale,
                         blur_radius=blur, blur_placement=placement)


def apply_attack_transform(image: RasterImage, profile: AttackProfile) -> RasterImage:
    """Render the attack: rescale the in-lens content, then defocus the side
    selected by the profile's blur placement."""
    scaled = scale_region(image, profile.region, profile.scale_factor)
    inside = region_masks(image.width, image.height, profile.region)
    blur_mask = inside if profile.blur_placement is BlurPlacement.IN_LENS else ~inside
    return box_blur(scaled, blur_mask, profile.blur_radius)
