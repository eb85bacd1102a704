"""Raster synthesis of the lens attack.

A mounted lens shows a rescaled view of the scene inside its outline and,
depending on lens type, defocuses one side of that boundary. This module
reproduces both effects on 8-bit rasters:

* ``scale_region`` resamples the in-lens content about the region center
  (bilinear, inverse-mapped, edge-replicated where sources fall off-frame);
* ``box_blur`` replaces masked pixels with the mean of a square window
  (clipped at frame edges, integer round-half-up, so output is bit-exact
  across platforms);
* ``apply_attack_transform`` composes the two per an ``AttackProfile``,
  deferred: it checks the region against the frame when called. A render
  has one frame: the first read of the result's ``data`` has
  ``RasterImage.copy_into`` fill it from the image and both kernels
  rewrite it in place. The render of an image not yet read allocates its
  frame on that first read, and the image reads its file straight into
  it, so ``simulate`` holds one frame, and a caller that reads no pixels
  (a search scored on precomputed maps) renders nothing and allocates no
  frame; the render of an image already read allocates its frame when
  called (see the function);
* ``RasterImage.load`` is deferred in the same way: it checks the file's
  header when called, and ``formats.read_pnm`` reads the pixels into the
  frame that the first read of its ``data`` allocates;
* ``level_to_profile`` maps the discretized lens strength 1..9 onto a
  (scale, blur) pair for a given lens region (``LensRegion.full_frame()``
  for the whole frame); strength 1 adds the least blur, 9 the most.
  ``AttackProfile`` is the one check of a level: an integer in 1..9,
  stored as ``int``.

Both kernels touch only a bounding box: ``scale_region`` the box of the
lens region, ``box_blur`` the box of its mask grown by the radius and
clipped to the frame. Both are separable. Source x of a resampled pixel
depends only on its column and source y only on its row. The blur streams
the box's rows. The source rows a strip needs enter a zero-padded band
once each; windows of doubling length sum each row's clipped windows
(exactly, since the padding is zero), in uint16 while ``255 * (2r + 1)``
fits. A running prefix over those row sums (a summed-area table, Crow
1984) lives in a ring of strip rows + 2r + 1 rows, so each output row's
window is the difference of two ring rows; the prefix is int32 whenever
the frame is small enough for that to be exact, else int64.

The per-pixel arithmetic runs in row strips of at most ``_STRIP_VALUES``
output values (about 512 KB of float64), so temporaries stay cache-sized
instead of frame-sized. ``scale_region`` interpolates the sorted union of
the source rows a strip reads along x once each, then blends each output
row's top and bottom row along y; a strip never interpolates more than two
rows per output row; it gathers the source columns with ``take``, which
returns contiguous blocks. Its strips are cut about the lens center's row
and run outward from it when shrinking and inward when enlarging, so each
strip reads only rows that no earlier strip wrote, and the rescale can
write into the array it reads. ``box_blur`` forms its window sums, counts,
the half-up division (by one scalar for the windows wholly inside the
frame) and the masked write per strip, and ``RasterImage.to_gray`` adds
each channel times its weight, in float64. Into a frame that already
holds the image (in a render, the frame they also read), both kernels
store only what they change, through one masked writer: a strip whose
mask is all set (every strip of a full-frame lens) is stored directly;
any other is merged in uint8 by a bitwise select, ``box ^ ((new ^ box) &
-mask)``, on the folded rows.

``_Footprint`` is the one owner of the lens footprint on a frame: the
rescale's center, the bounding box of the in-lens pixels, the in-lens mask
over it, and the out-of-lens frame mask, or ``None`` when no pixel lies
outside the lens; it alone builds the squared offsets of the in-lens
predicate, and evaluates it by row strips into the box mask.
``region_masks`` returns the box mask itself when the box is the whole
frame, so a full-frame lens builds no frame-sized mask: its mask is a
read-only view of one set value, its out-of-lens mask is ``None``, and the
render skips its out-of-lens blur. Inside ``with region.held():`` the
``LensRegion`` instance holds its footprint on each frame size, and the
outermost block drops them: a render holds its region for its rescale and
blur, and ``attack_opt.alpha_sweep`` for all its renders and losses, so a
sweep evaluates the predicate once. Outside a block each call builds its
own. The frame check builds no array: it evaluates a circle's predicate at
the pixel nearest its center.

Everything is deterministic and pure; identical inputs give bit-identical
outputs: every pixel goes through the same float and integer operations,
in the same order, as in the dense reference kernels.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (BadLevel, DegenerateRegion, check_bool, check_finite,
                     check_positive)
from . import formats

# Values (pixels times channels) per row strip of the raster kernels.
_STRIP_VALUES = 2 ** 16
# Luma weight of each RGB channel.
_LUMA = (0.299, 0.587, 0.114)
# The one value a full-frame lens's in-lens mask views.
_ALL_SET = np.ones(1, dtype=bool)
_ALL_SET.flags.writeable = False


def _strips(rows: int, row_values: int):
    """Split ``rows`` rows of ``row_values`` values each into strips of at
    most ``_STRIP_VALUES`` values (at least one row); yields slices."""
    step = max(1, _STRIP_VALUES // max(row_values, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def _strips_about(rows: int, row_values: int, split: int, inward: bool) -> list[slice]:
    """Strips of ``rows`` rows sized as by ``_strips``, but cut about the
    row boundary ``split`` instead of from row 0: one strip holds rows
    ``split - 1`` and ``split`` (at least two rows), and the others step
    away from it on either side. Ordered from that strip outward, or with
    ``inward`` from the ends toward it."""
    step = max(1, _STRIP_VALUES // max(row_values, 1))
    first = split - max(step // 2, 1)
    lo, hi = (min(max(row, 0), rows) for row in (first, first + max(step, 2)))
    order = [slice(lo, hi)] if lo < hi else []
    order += [slice(max(stop - step, 0), stop) for stop in range(lo, 0, -step)]
    order += [slice(start, min(start + step, rows)) for start in range(hi, rows, step)]
    return order[::-1] if inward else order


def _span(hit: np.ndarray) -> slice:
    """From the first to the last set entry of a 1-d boolean array; an
    empty slice if none is set."""
    index = np.flatnonzero(hit)
    return slice(int(index[0]), int(index[-1]) + 1) if index.size else slice(0, 0)


class RasterImage:
    """8-bit raster, gray (h, w) or RGB (h, w, 3), row-major. ``data`` is a
    read-only view of the array it was built from, so a function may return
    its input raster instead of a copy; the first read of a ``deferred``
    raster's ``data`` fills its frame (and allocates it, unless it was
    given one). Rasters compare and hash by identity; compare ``data`` to
    compare pixels."""

    def __init__(self, data: np.ndarray):
        if data.dtype != np.uint8:
            raise ValueError(f"raster must be uint8, got {data.dtype}")
        if data.ndim not in (2, 3) or data.shape[2:] not in ((), (3,)):
            raise ValueError(f"raster must be (h, w) or (h, w, 3), got {data.shape}")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("raster needs at least one pixel")
        view = data.view()
        view.flags.writeable = False
        self._data, self._fill = view, None

    @classmethod
    def deferred(cls, shape: tuple[int, ...], fill,
                 frame: np.ndarray | None = None) -> "RasterImage":
        """A raster of ``shape`` whose frame ``fill(frame)`` writes on the
        first read of ``data``; the raster then drops ``fill`` and whatever
        it holds. The frame is ``frame``, or else allocated by that first
        read, so that the raster holds no pixels until then. While unread,
        ``copy_into`` runs ``fill`` on the caller's array instead."""
        # A view of one value checks the shape and holds no pixels.
        raster = cls(np.broadcast_to(np.uint8(0), shape))
        raster._fill, raster._frame = fill, frame
        return raster

    @property
    def data(self) -> np.ndarray:
        if self._fill is not None:
            frame = np.empty(self.shape, np.uint8) if self._frame is None else self._frame
            self._fill(frame)
            frame.flags.writeable = False
            self._data, self._fill, self._frame = frame, None, None
        return self._data

    def copy_into(self, out: np.ndarray) -> None:
        """Write the pixels into ``out``, a uint8 array of the raster's
        shape. A deferred raster not yet read fills ``out`` itself and stays
        unread, so a loaded image is read from its file again by each caller
        that copies it; a raster that has been read is copied."""
        if self._fill is not None:
            self._fill(out)
        else:
            np.copyto(out, self._data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def height(self) -> int:
        return self.shape[0]

    @property
    def width(self) -> int:
        return self.shape[1]

    @property
    def channels(self) -> int:
        return 1 if len(self.shape) == 2 else 3

    def to_gray(self) -> "RasterImage":
        """Luma conversion (0.299, 0.587, 0.114), rounded half-up."""
        if self.channels == 1:
            return self
        red, green, blue = _LUMA
        out = np.empty((self.height, self.width), dtype=np.uint8)
        for strip in _strips(self.height, self.width):
            rgb = self.data[strip]
            luma = np.multiply(rgb[..., 0], red, dtype=np.float64)
            term = np.multiply(rgb[..., 1], green, dtype=np.float64)
            luma += term
            luma += np.multiply(rgb[..., 2], blue, out=term, dtype=np.float64)
            luma += 0.5
            out[strip] = np.floor(luma, out=luma)
        return RasterImage(out)

    @classmethod
    def load(cls, path) -> "RasterImage":
        """A deferred raster of the binary PGM/PPM at ``path``: the header is
        read and checked now, and ``formats.read_pnm`` reads the pixels into
        the frame on the first read of ``data`` (or into the array given to
        ``copy_into`` while the raster is unread)."""
        return cls.deferred(formats.pnm_shape(path),
                            lambda out: formats.read_pnm(path, out=out))

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
        try:
            float(radius) ** 2  # the in-lens bound
        except OverflowError:
            raise ValueError(f"circle radius squared must be finite, got {radius}") from None
        return cls(RegionKind.CIRCLE, center_x, center_y, radius)

    @contextmanager
    def held(self):
        """Within the block, this region holds its footprint on each frame
        size it is asked for, so the kernels evaluate the in-lens predicate
        once per size; the outermost block drops them when it ends, also on
        an error. A sweep holds its region for all its renders and losses, a
        render for its rescale and blur. The footprints are no field:
        equality, hashing and ``replace`` ignore them."""
        if "_footprints" in vars(self):
            yield
            return
        object.__setattr__(self, "_footprints", {})
        try:
            yield
        finally:
            object.__delattr__(self, "_footprints")


class _Footprint:
    """A lens region's footprint on a frame: the rescale's center ``cx``,
    ``cy`` (a full-frame lens's is the frame's), the bounding box of the
    in-lens pixels as two slices ``rows``, ``cols`` into the frame, the
    read-only in-lens mask ``inside`` over that box (a full-frame lens's is
    an all-set view of one value), and ``outside``, the read-only
    out-of-lens frame mask, built on first use.

    ``outside`` is ``None`` when no pixel lies outside the lens: a
    full-frame lens, or a circle that covers the frame. This is the one
    statement of that fact; the render's out-of-lens blur and the search's
    out-of-lens loss both read it.

    The circle predicate is the same float expression on every pixel it
    evaluates, row strip by row strip into the mask, so no box-sized float
    array is built; a row (column) whose own squared offset already exceeds
    ``r**2`` cannot hold an in-lens pixel, because the other squared term
    is non-negative and rounding is monotone. An offset whose square
    overflows is outside, as ``r**2`` is finite.
    """

    __slots__ = ("cx", "cy", "rows", "cols", "inside", "width", "height", "_outside")

    def __init__(self, width: int, height: int, region: LensRegion):
        self.width, self.height = width, height
        if region.kind is RegionKind.FULL_FRAME:
            self.cx, self.cy = (width - 1) / 2.0, (height - 1) / 2.0
            self.rows, self.cols = slice(0, height), slice(0, width)
            self.inside = np.ndarray((height, width), bool, _ALL_SET, strides=(0, 0))
            self._outside = None
            return
        self.cx, self.cy = float(region.center_x), float(region.center_y)
        r2 = region.radius ** 2
        with np.errstate(over="ignore"):
            dy2 = (np.arange(height, dtype=np.float64) - self.cy) ** 2
            dx2 = (np.arange(width, dtype=np.float64) - self.cx) ** 2
            self.rows, self.cols = _span(dy2 <= r2), _span(dx2 <= r2)
            dx2, dy2 = dx2[None, self.cols], dy2[self.rows, None]
            self.inside = np.empty((len(dy2), dx2.shape[1]), dtype=bool)
            for strip in _strips(len(dy2), dx2.shape[1]):
                np.less_equal(dx2 + dy2[strip], r2, out=self.inside[strip])
        self.inside.flags.writeable = False

    @property
    def outside(self) -> np.ndarray | None:
        if not hasattr(self, "_outside"):
            shape = (self.height, self.width)
            self._outside = None
            if not (self.inside.shape == shape and self.inside.all()):
                # One frame: the box's complement is written into it in place.
                self._outside = np.ones(shape, dtype=bool)
                np.logical_not(self.inside, out=self._outside[self.rows, self.cols])
                self._outside.flags.writeable = False
        return self._outside


def _footprint(width: int, height: int, region: LensRegion) -> _Footprint:
    """``region``'s footprint on a ``width`` x ``height`` frame: the one it
    holds, inside ``region.held()``, else a new one."""
    held = vars(region).get("_footprints")
    if held is None:
        return _Footprint(width, height, region)
    if (width, height) not in held:
        held[width, height] = _Footprint(width, height, region)
    return held[width, height]


def _check_meets_frame(width: int, height: int, region: LensRegion) -> None:
    """Raise ``DegenerateRegion`` unless some pixel of the frame is in-lens.
    A circle's predicate adds two squared offsets, each least at the pixel
    nearest the center on its axis, and rounding is monotone, so the
    predicate is evaluated there alone, in ``_Footprint``'s float operations
    (in Python floats, whose squares overflow to inf without a warning)."""
    if region.kind is RegionKind.CIRCLE:
        cx, cy = float(region.center_x), float(region.center_y)
        dx = min(max(round(cx), 0), width - 1) - cx
        dy = min(max(round(cy), 0), height - 1) - cy
        if not dx * dx + dy * dy <= region.radius ** 2:
            raise DegenerateRegion("lens region does not intersect the frame")


def region_masks(width: int, height: int, region: LensRegion, *,
                 outside: bool = False) -> np.ndarray | None:
    """The (height, width) in-lens mask: pixel (x, y) is in-lens iff its
    center lies within the region. With ``outside``, the out-of-lens mask
    instead, or ``None`` when no pixel lies outside the lens. A mask the
    footprint holds is returned itself, read-only: the out-of-lens one, and
    the in-lens one when the box is the whole frame (for a full-frame lens,
    a view of one set value)."""
    if width < 1 or height < 1:
        raise ValueError("mask dimensions must be positive")
    footprint = _footprint(width, height, region)
    if outside:
        return footprint.outside
    if footprint.inside.shape == (height, width):
        return footprint.inside
    inside = np.zeros((height, width), dtype=bool)
    inside[footprint.rows, footprint.cols] = footprint.inside
    return inside


def _write_masked(box: np.ndarray, values: np.ndarray, mask: np.ndarray) -> None:
    """Store ``values`` (one row per box row, channels folded into it, all
    integral in 0..255) into the pixels of the raster view ``box`` that
    ``mask`` selects."""
    # A view: the channels of a box row are contiguous.
    flat = box.reshape(len(box), -1)
    if mask.all():
        np.copyto(flat, values, casting="unsafe")
        return
    # Bitwise select: box ^ ((new ^ box) & 0xFF) is new, box ^ 0 is box.
    select = -mask.view(np.uint8)
    if box.ndim == 3:
        select = np.repeat(select, box.shape[2], axis=1)
    new = values.astype(np.uint8)
    new ^= flat
    new &= select
    flat ^= new


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
    # Below about 1e-306 the quotient overflows; the clip puts it at an edge.
    with np.errstate(over="ignore"):
        s = center + (np.arange(start, stop, dtype=np.intp) - center) / scale
    np.clip(s, 0.0, size - 1.0, out=s)
    lo = np.floor(s).astype(np.intp)
    return lo, np.minimum(lo + 1, size - 1), s - lo


def scale_region(image: RasterImage, region: LensRegion, scale: float,
                 out: np.ndarray | None = None) -> RasterImage:
    """Resample the in-region content by ``scale`` about the region center.

    Inverse mapping: an output pixel at offset v from the center samples the
    source at offset v / scale, so enlarging pulls from a shrunken footprint
    (content pushed past a circle boundary is simply clipped) and shrinking
    pulls from a widened one, edge-replicating wherever sources leave the
    frame. Pixels outside the region are untouched; scale 1 returns the input.
    The result is written into a copy, or into ``out``: a uint8 array that
    already holds the image's pixels, such as the array ``image`` was built
    from.

    Output row y reads source rows about ``cy + (y - cy) / scale``: a
    shrink reads rows no nearer the center than y, an enlarge rows no
    farther. So the strips, cut about ``floor(cy)`` with the two rows
    nearest the center in one strip (when enlarging they read each other),
    run from the center outward when shrinking and from the edges inward
    when enlarging: a strip reads only rows that no earlier strip wrote,
    except with weight exactly 0, which changes no byte.
    """
    check_positive(scale=scale)
    _check_meets_frame(image.width, image.height, region)
    if scale == 1.0:
        return image
    footprint = _footprint(image.width, image.height, region)
    rows, cols, inside = footprint.rows, footprint.cols, footprint.inside
    x0, x1, fx = _source_coords(cols.start, cols.stop, footprint.cx, scale, image.width)
    y0, y1, fy = _source_coords(rows.start, rows.stop, footprint.cy, scale, image.height)
    # RGB channels are folded into the row so every weight broadcasts along
    # a contiguous axis.
    fx = np.repeat(fx, image.channels)
    data = image.data
    out = data.copy() if out is None else out
    box = out[rows, cols]
    split = int(np.floor(footprint.cy)) + 1 - rows.start
    for strip in _strips_about(len(y0), len(fx), split, inward=scale > 1.0):
        n = strip.stop - strip.start
        # Each source row the strip reads is interpolated along x once.
        src, pick = np.unique(np.concatenate((y0[strip], y1[strip])),
                              return_inverse=True)
        # take, unlike a fancy index on axis 1, returns contiguous blocks, so
        # folding the channels into the row is a view, not a strided copy.
        gathered = data[src]
        along_x = _lerp(gathered.take(x0, axis=1).reshape(len(src), -1).astype(np.float64),
                        gathered.take(x1, axis=1).reshape(len(src), -1).astype(np.float64), fx)
        sampled = _lerp(along_x[pick[:n]], along_x[pick[n:]], fy[strip, None])
        sampled += 0.5
        np.floor(sampled, out=sampled)
        _write_masked(box[strip], sampled, inside[strip])
    return RasterImage(out)


def _row_window_sums(band: np.ndarray, length: int, channels: int,
                     values: int) -> np.ndarray:
    """Sums of ``length`` consecutive pixels along each row of ``band``
    (channels folded into the row), for the first ``values`` values of the
    row. Windows of doubling length are built by one add each, and the sum
    takes one of them per set bit of ``length``."""
    total = None
    offset, size = 0, 1
    windows = band
    while True:
        if length & size:
            part = windows[:, offset * channels:offset * channels + values]
            if total is None:
                total = part.copy()
            else:
                total += part
            offset += size
        if 2 * size > length:
            return total
        windows = windows[:, :-size * channels] + windows[:, size * channels:]
        size *= 2


def _window_counts(start: int, stop: int, size: int, radius: int) -> np.ndarray:
    """In-frame length of the window around each position in [start, stop)."""
    i = np.arange(start, stop)
    return np.minimum(i + radius + 1, size) - np.maximum(i - radius, 0)


def box_blur(image: RasterImage, mask: np.ndarray, radius: int,
             out: np.ndarray | None = None) -> RasterImage:
    """Mean filter over a (2r+1)^2 window, applied to masked pixels only.

    The window is clipped at frame edges and averaged over the in-frame
    samples, so borders do not darken. Unmasked pixels pass through
    untouched; radius 0 or an empty mask returns the input. Rounding is
    half-up in exact integer arithmetic. The mask must be boolean. The
    result is written into a copy, or into ``out``: a uint8 array that
    already holds the image's pixels, such as the array ``image`` was built
    from, as every source row enters the row sums before its output row is
    written.
    """
    check_bool(blur_mask=mask)
    if mask.shape != (image.height, image.width):
        raise ValueError(
            f"mask shape {mask.shape} does not match image "
            f"{(image.height, image.width)}"
        )
    if radius < 0:
        raise ValueError("blur radius must be non-negative")
    ys = _span(mask.any(axis=1))
    if radius == 0 or ys.start == ys.stop:
        return image
    xs = _span(mask.any(axis=0))
    h, w = mask.shape
    channels = image.channels
    y0, y1, x0, x1 = ys.start, ys.stop, xs.start, xs.stop
    # The largest value formed is 2*sum + count <= 511*count <= 511*h*w.
    dtype = np.int32 if 511 * h * w < 2 ** 31 else np.int64
    out = image.data.copy() if out is None else out
    length = 2 * radius + 1
    values = (x1 - x0) * channels
    strips = list(_strips(y1 - y0, values))
    step = strips[0].stop
    # Source rows enter a zero-padded band: its column j is frame column
    # x0 - radius + j, so the zeros make every clipped window a full one.
    sy0 = max(y0 - radius, 0)
    sx0, sx1 = max(x0 - radius, 0), min(x1 + radius, w)
    band = np.zeros((step, (x1 - x0 + 2 * radius) * channels),
                    np.uint16 if 255 * length < 2 ** 16 else dtype)
    inner = slice((sx0 - x0 + radius) * channels, (sx1 - x0 + radius) * channels)
    # Running prefix over the source rows: slot k % len(ring) holds the sum
    # of the row window sums of rows sy0 .. sy0 + k - 1. A strip reads at
    # most step + 2r + 1 consecutive slots.
    ring = np.empty((step + length, values), dtype)
    ring[0] = 0
    done = 0
    count_x = np.repeat(_window_counts(x0, x1, w, radius), channels).astype(dtype)
    # The positions whose window lies wholly inside the frame: one run, as
    # the counts rise, hold at ``length`` and fall.
    cols = _span(count_x == length)
    box, mask = out[y0:y1, x0:x1], mask[y0:y1, x0:x1]
    for strip in strips:
        top, bottom = y0 + strip.start, y0 + strip.stop
        for start in range(sy0 + done, min(bottom + radius, h), step):
            stop = min(start + step, bottom + radius, h)
            chunk = band[:stop - start]
            chunk[:, inner] = image.data[start:stop, sx0:sx1].reshape(stop - start, -1)
            for row in _row_window_sums(chunk, length, channels, values):
                np.add(ring[done % len(ring)], row, out=ring[(done + 1) % len(ring)])
                done += 1
        i = np.arange(top, bottom)
        mean = ring[(np.minimum(i + radius + 1, h) - sy0) % len(ring)]
        mean -= ring[(np.maximum(i - radius, 0) - sy0) % len(ring)]
        count_y = _window_counts(top, bottom, h, radius).astype(dtype)
        count = np.multiply.outer(count_y, count_x)
        # (2 * sum + count) // (2 * count): round half-up, in place. Windows
        # wholly inside the frame share one count, and NumPy divides by a
        # scalar several times faster than elementwise.
        mean *= 2
        mean += count
        count *= 2
        rows = _span(count_y == length)
        for clipped in (np.s_[:rows.start], np.s_[rows.stop:],
                        np.s_[rows, :cols.start], np.s_[rows, cols.stop:]):
            mean[clipped] //= count[clipped]
        mean[rows, cols] //= 2 * length * length
        _write_masked(box[strip], mean, mask[strip])
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
        if not isinstance(self.level, numbers.Integral) or not 1 <= self.level <= 9:
            raise BadLevel(f"level must be an integer in 1..9, got {self.level!r}")
        object.__setattr__(self, "level", int(self.level))
        check_positive(scale_factor=self.scale_factor)
        if not isinstance(self.blur_radius, numbers.Integral) or self.blur_radius < 0:
            raise ValueError(f"blur radius must be a non-negative integer, "
                             f"got {self.blur_radius!r}")


# Default level calibration: blur radius grows one pixel per level; the
# rescale factor sweeps linearly from a barely-visible change at level 1 to
# the strongest change at level 9.
BLUR_PX_PER_LEVEL = 1
CONCAVE_SCALE_SPAN = (0.95, 0.55)
CONVEX_SCALE_SPAN = (1.1, 3.0)


def level_to_profile(lens_kind: LensKind, level: int, region: LensRegion) -> AttackProfile:
    """Turn a discrete attack level into a renderable profile."""
    placement = (BlurPlacement.OUT_OF_LENS if lens_kind is LensKind.CONCAVE
                 else BlurPlacement.IN_LENS)
    # The profile checks the level before the calibration reads it.
    profile = AttackProfile(level, region, 1.0, 0, placement)
    span = CONCAVE_SCALE_SPAN if lens_kind is LensKind.CONCAVE else CONVEX_SCALE_SPAN
    return replace(profile,
                   scale_factor=span[0] + (span[1] - span[0]) * (profile.level - 1) / 8.0,
                   blur_radius=BLUR_PX_PER_LEVEL * profile.level)


def apply_attack_transform(image: RasterImage, profile: AttackProfile) -> RasterImage:
    """The attack render: rescale the in-lens content, then defocus the side
    selected by the profile's blur placement.

    A region that misses the frame raises here. The render is a deferred
    raster with one frame: allocated here if ``image`` has been read
    (untouched until filled, so it costs no page until then), else by the
    first read of the render's ``data``. That first read has
    ``image.copy_into`` write ``image``'s pixels at that time into the
    frame (an unread loaded image reads its file straight into it, once per
    render that is read), and the kernels this module binds then rewrite
    the frame in place: the rescale the lens, the blur the defocused side.
    A reader of the shape alone (or of nothing) costs no render. Scale 1
    without blur returns ``image``.
    """
    _check_meets_frame(image.width, image.height, profile.region)
    if profile.scale_factor == 1.0 and profile.blur_radius == 0:
        return image
    # An image already read is copied: its render's frame is allocated now,
    # so that a search that drops the last level's render after this call
    # reuses that render's pages (allocated on first read instead, a 1080p
    # proxy search faults about seven times the pages per op).
    frame = None if image._fill is not None else np.empty(image.shape, np.uint8)

    def fill(frame: np.ndarray) -> None:
        image.copy_into(frame)
        with profile.region.held():
            scale_region(RasterImage(frame), profile.region, profile.scale_factor,
                         out=frame)
            mask = region_masks(image.width, image.height, profile.region,
                                outside=profile.blur_placement is BlurPlacement.OUT_OF_LENS)
            if mask is not None:  # None: no pixel lies outside the lens
                box_blur(RasterImage(frame), mask, profile.blur_radius, out=frame)

    return RasterImage.deferred(image.shape, fill, frame)
