"""Depth-estimator abstraction and map plumbing.

Neural monocular estimators stay out of this package; what lives here is
everything around them:

* a geometric proxy estimator, ``ProxyDepthMapper``, that reads depth off
  a calibrated fiducial of known physical height (apparent size is
  inversely proportional to distance, so depth = focal_px * height_m /
  height_px); it is the one place that formula is computed;
* a file-backed estimator, ``DirectoryMapEstimator``, over externally
  produced maps, which divides disparity maps by a constant on request;
* loaders for those maps (PFM, 16-bit PGM + sidecar scale), which mark
  holes in the readers' float32 frame in place, strip by strip (and divide
  a rescaled map's float64 frame in the same pass), and for bounding-box
  text files;
* masked means, the reduction every metric and loss in this toolkit starts
  from; given a reference map or number they average
  ``|map - reference|`` in row strips, without a frame-sized difference
  map or a held selection: the kept values stream through NumPy's
  pairwise-sum tree one subtree at a time, so a mean has the bits of
  ``np.mean`` over the whole selection. Two maps of one proxy are
  differenced by one look-up of each pixel's pair of gray levels in the
  proxy's table of ramp differences, their fiducial boxes read as maps.

A depth or disparity map of shape (h, w) is a plain float ``np.ndarray``
(float32 as read from a PFM/PGM16 file; float64 when rescaled) or the
proxy's float64 ``ProxyMap``, computed from its gray frame where it is
read: by strips in ``masked_mean``, and by a box's crop. ``masked_mean``
widens to float64 before it computes, so a map's dtype changes no loss or
metric. Invalid pixels (holes, zero disparity) are marked NaN rather than
raised: maps from real estimators contain them routinely.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, FiducialNotFound, ParseError, check_bool, check_positive
from . import formats
from .imaging import RasterImage, _span, _strips

# NumPy's pairwise sum (``np.add.reduce`` of a contiguous float64 array, and
# so ``np.mean``) adds blocks of at most 128 values with 8 accumulators and
# splits a longer span at half its length rounded down to a multiple of 8.
# ``masked_mean`` reduces the subtrees of at most this many values whole:
# 128 KiB of float64, and few enough that a 160x120 frame of the CLI corpus
# spans two subtrees (of 2^13 to 2^17, 2^14 and 2^15 ran fastest at 1080p).
_SUBTREE = 2 ** 14
# The lowest and highest 8-bit level a fiducial detection threshold may be.
DETECTION_THRESHOLDS = (0, 255)


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
        low, high = DETECTION_THRESHOLDS
        if not low <= self.detection_threshold <= high:
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
    ys, xs = _span(hits.any(axis=1)), _span(hits.any(axis=0))
    return (slice(rows.start + ys.start, rows.start + ys.stop),
            slice(cols.start + xs.start, cols.start + xs.stop))


def load_depth_map(path, kind: str = "depth", rescale: float | None = None) -> np.ndarray:
    """Load an externally produced map as float32 (h, w), as the file holds it.

    The format is sniffed from the magic bytes: ``Pf`` float PFM or a 16-bit
    PGM with its sidecar scale file. The reader's frame is the one copy:
    ``kind`` ("depth" or "disparity") selects which samples are invalid,
    non-positive depths or negative disparities, and they become NaN in
    place, one row strip at a time. With ``rescale``, the reader widens the
    values into a float64 frame, and each strip is divided by ``rescale``
    in place once its holes are marked: the bits of dividing the float32
    map in float64, without holding both.
    """
    if kind not in ("depth", "disparity"):
        raise ValueError(f"kind must be 'depth' or 'disparity', got {kind!r}")
    with open(path, "rb") as fh:
        magic = fh.read(2)
    dtype = np.float32 if rescale is None else np.float64
    if magic == b"Pf" or magic == b"PF":
        values = formats.read_pfm(path, dtype)
    elif magic == b"P5":
        values = formats.read_pgm16(path, dtype)
    else:
        raise ParseError(f"unrecognized map format (magic {magic!r})", byte_offset=0)
    for strip in _strips(*values.shape):
        part = values[strip]
        part[~(part > 0) if kind == "depth" else part < 0] = np.nan
        if rescale is not None:
            part /= rescale
    return values


def masked_mean(values: np.ndarray, mask: np.ndarray, reference=None) -> float:
    """Arithmetic mean over the valid (finite) masked pixels of ``values``,
    or of ``|values - reference|`` when a reference map or number is given.

    It has the bits of ``np.mean`` over the float64 selection in row-major
    order, and holds no selection: ``np.mean`` is NumPy's pairwise sum over
    the count (the rule is at ``_SUBTREE``; a property test against
    ``np.mean`` pins it), and the count alone fixes that tree, so the kept
    values stream strip by strip through one buffer of ``_SUBTREE`` values,
    each subtree reduced by ``np.add.reduce`` as it fills, and the subtree
    sums are added pairwise up the tree.

    The count is first taken to be the mask's: over more than one subtree,
    every masked value is summed unchecked, and a sum that is finite shows
    they all are. Otherwise the masked pixels with finite operands are
    counted, and the sum is made again over the finite values; a float64
    difference that overflows costs one more pass. Strips are differenced
    in float64, a float32 operand widened into a strip buffer first, so a
    float32 map gives the mean of its float64 copy; a ``ProxyMap`` is read
    into that buffer, so the mean never builds its frame. A ``ProxyMap``
    against one that holds the same table is differenced by
    ``ProxyMap.abs_diff`` instead, with the same bits in the same places.
    """
    if not isinstance(values, ProxyMap):
        values = np.asarray(values)
    check_bool(mask=mask)
    if mask.shape != values.shape:
        raise ValueError(f"mask shape {mask.shape} does not match map {values.shape}")
    if np.ndim(reference) and np.shape(reference) != values.shape:
        raise ValueError(
            f"reference shape {np.shape(reference)} does not match map {values.shape}"
        )
    masked = int(np.count_nonzero(mask))
    # inf - inf, and inf + -inf in an unchecked sum, are NaNs that are not kept
    with np.errstate(invalid="ignore"):
        total, kept = _tree_sum(values, mask, reference, masked, unchecked=True)
        if total is None:  # a masked value is not finite, or the sum overflowed
            kept = _finite_count(values, mask, reference)
        while total is None and kept:  # the kept count fixes the tree
            total, kept = _tree_sum(values, mask, reference, kept, unchecked=False)
    if kept == 0:
        raise EmptyMask("no valid pixel under the mask")
    return float(total / kept)


def _subtree_lengths(count: int) -> list[int]:
    """Lengths, left to right, of the nodes of NumPy's pairwise-sum tree over
    ``count`` values at the first depth where none exceeds ``_SUBTREE``.
    Node lengths at one depth differ by less than 30, so with ``_SUBTREE`` of
    256 or more every node split here is longer than a 128-value block."""
    lengths = [count]
    while max(lengths) > _SUBTREE:
        lefts = [n // 2 - n // 2 % 8 for n in lengths]
        lengths = [side for n, left in zip(lengths, lefts) for side in (left, n - left)]
    return lengths


def _rows(values, rows: slice, out: np.ndarray | None = None) -> np.ndarray:
    """Rows of a map: an array's own, or a ``ProxyMap``'s read into ``out``."""
    return values.read(rows, out=out) if isinstance(values, ProxyMap) else values[rows]


def _float64(values, rows: slice, out: np.ndarray) -> np.ndarray:
    """Rows of a map in float64: a float64 array's own, else read or widened
    into ``out``: a widening copy costs less than a subtraction that casts
    as it goes."""
    part = _rows(values, rows, out)
    if part.dtype == np.float64:
        return part
    np.copyto(out, part)
    return out


def _finite_count(values, mask, reference) -> int:
    """How many masked pixels have finite operands: the kept count, unless a
    float64 difference of finite operands overflows."""
    count = 0
    for strip in _strips(values.shape[0], math.prod(values.shape[1:])):
        finite = np.isfinite(_rows(values, strip))
        if reference is not None:
            finite &= np.isfinite(_rows(reference, strip) if np.ndim(reference) else reference)
        finite &= mask[strip]
        count += np.count_nonzero(finite)
    return count


def _tree_sum(values, mask, reference, count: int, unchecked: bool):
    """Sum of the finite masked values (of ``|values - reference|`` with a
    reference) in row-major order, added as NumPy's pairwise sum adds
    ``count`` values, and how many such values there are. The sum is None
    when that is not ``count`` and the tree has more than one subtree; one
    subtree is one ``np.add.reduce``, right for any count.

    ``unchecked`` sums every masked value of a tree of several subtrees, as
    if all were finite. Then the sum is None unless every subtree sum is
    finite, and the pass ends at the first strip that makes one not.
    """
    lengths = _subtree_lengths(count)
    unchecked = unchecked and len(lengths) > 1
    sums = np.empty(len(lengths))
    tree = np.empty(max(lengths))
    node = filled = kept = 0
    widened = None
    paired = isinstance(values, ProxyMap) and getattr(reference, "table", None) is values.table
    for strip in _strips(values.shape[0], math.prod(values.shape[1:])):
        in_mask = mask[strip]
        if reference is None:
            part = _rows(values, strip)
        else:
            if widened is None:
                widened = np.empty((2,) + in_mask.shape)
                index = np.empty(in_mask.shape, np.uint16) if paired else None
            wide, wide_ref = widened[:, :len(in_mask)]
            if paired:
                part = values.abs_diff(reference, strip, index[:len(in_mask)], wide)
            else:
                ref = _float64(reference, strip, wide_ref) if np.ndim(reference) else reference
                part = np.subtract(_float64(values, strip, wide), ref, out=wide)
        keep = in_mask
        if not unchecked:
            keep = np.isfinite(part)
            keep &= in_mask
        # A boolean index copies even when it keeps every value.
        part = part.reshape(-1) if keep.all() else part[keep]
        kept += len(part)
        while len(part):
            take = min(len(part), lengths[node] - filled)
            if reference is None:
                tree[filled:filled + take] = part[:take]
            else:
                np.abs(part[:take], out=tree[filled:filled + take])
            part = part[take:]
            filled += take
            if filled == lengths[node] and node + 1 < len(lengths):
                sums[node] = np.add.reduce(tree[:filled])
                node += 1
                filled = 0
        if unchecked and not np.isfinite(sums[:node]).all():
            break  # a masked value is not finite
    sums[-1] = np.add.reduce(tree[:filled])  # the last subtree, or the only one
    if kept != count and len(lengths) > 1 or unchecked and not np.isfinite(sums).all():
        return None, kept
    while len(sums) > 1:
        sums = sums[0::2] + sums[1::2]
    return sums[0], kept


def load_boxes(path) -> list[Box]:
    """Bounding-box text file: one ``x_min y_min x_max y_max`` line per box,
    integer pixels (digits after an optional minus), inclusive-exclusive."""
    boxes = []
    for lineno, _, line in formats._text_lines(path, "ascii"):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"{path}:{lineno}: expected 4 integers, got {line!r}")
        # int() alone would also take "+3" and "1_0"
        if not all(p.removeprefix("-").isdigit() for p in parts):
            raise ParseError(f"{path}:{lineno}: bad integer in {line!r}")
        try:
            boxes.append(Box(*map(int, parts)))
        except ValueError as exc:  # an empty box, or more digits than int() reads
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return boxes


class ProxyDepthMapper:
    """Built-in image -> depth-map estimator around the fiducial proxy.

    The detected fiducial's bounding box is filled with the pinhole depth
    estimate; every other pixel gets a brightness-derived pseudo-depth
    (linear ramp from ``near_m`` at black to ``far_m`` at white). The ramp is
    what makes the estimator honest about image quality: defocusing a
    textured area moves its estimates, exactly the sensitivity the
    out-of-lens consistency loss is meant to police. The ramp, and a table
    of its differences, are built once; every map returned holds both.
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
        # Each gray level's ramp, which its maps look up: elementwise, so
        # with the bits of a frame's ramp.
        with np.errstate(over="ignore"):
            ramp = near_m + (far_m - near_m) * np.arange(256, dtype=np.float64) / 255.0
        if not np.isfinite(ramp).all():
            raise ValueError(f"depth span {near_m} to {far_m} overflows the brightness ramp")
        self._ramp = ramp
        # |ramp[a] - ramp[b]| at a << 8 | b, 512 KiB: two maps' difference
        # outside their boxes.
        self._table = np.abs(ramp[:, None] - ramp[None, :]).reshape(-1)

    def estimate_map(self, image: RasterImage, tag: str | None = None) -> ProxyMap:
        gray = image.to_gray().data
        rows, cols = _find_blob(gray, self.fiducial)
        height_px = rows.stop - rows.start
        vehicle_depth = self.focal_px * self.fiducial.physical_height_m / height_px
        return ProxyMap(gray, self._ramp, self._table, (rows, cols), vehicle_depth)


class ProxyMap:
    """The proxy's float64 depth map, computed where it is read: ``ramp``
    looked up by ``gray``, with ``depth`` over the fiducial's ``box``. It
    holds the gray frame, 1 byte a pixel, not 8, and its mapper's
    difference ``table``, which every map of that mapper shares. ``read``
    (strips, into a caller's buffer), ``abs_diff`` and a box's crop
    (``map[rows, cols]``, slices of step 1) look up only what they return;
    any other index, and ``np.asarray``, build the whole frame."""

    dtype = np.dtype(np.float64)
    ndim = 2

    def __init__(self, gray: np.ndarray, ramp: np.ndarray, table: np.ndarray,
                 box: tuple[slice, slice], depth: float):
        self.gray, self.ramp, self.table, self.box, self.depth = gray, ramp, table, box, depth
        self.shape = gray.shape

    def abs_diff(self, other: ProxyMap, rows: slice, index: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
        """``|self[rows] - other[rows]|`` for a map that holds the same
        ``table``, written into ``out``: outside both boxes, one ``take`` of
        the table at the uint16 ``index`` the gray pair is packed into;
        inside either box, the two maps read and differenced. Each value has
        the bits of the float64 difference of the maps' reads."""
        np.left_shift(self.gray[rows], 8, out=index, dtype=np.uint16)
        index |= other.gray[rows]
        self.table.take(index, out=out, mode="clip")
        for box_rows, cols in (self.box, other.box):
            top = max(box_rows.start, rows.start)
            patch = slice(top, max(top, min(box_rows.stop, rows.stop)))
            out[patch.start - rows.start:patch.stop - rows.start, cols] = np.abs(
                self.read(patch, cols) - other.read(patch, cols))
        return out

    def read(self, rows: slice, cols: slice = slice(None), out=None) -> np.ndarray:
        """``map[rows, cols]`` for slices of step 1, written into ``out``."""
        out = self.ramp.take(self.gray[rows, cols], out=out, mode="clip")
        (top, _, _), (left, _, _) = rows.indices(self.shape[0]), cols.indices(self.shape[1])
        box_rows, box_cols = self.box
        out[max(box_rows.start - top, 0):max(box_rows.stop - top, 0),
            max(box_cols.start - left, 0):max(box_cols.stop - left, 0)] = self.depth
        return out

    def __getitem__(self, key):
        if isinstance(key, tuple) and len(key) == 2 and all(
                isinstance(k, slice) and k.step in (None, 1) for k in key):
            return self.read(*key)
        return np.asarray(self)[key]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self.read(slice(None)), dtype=dtype)


class DirectoryMapEstimator:
    """File-backed estimator: one pre-computed map per evaluation tag.

    Expects ``<tag>.pfm`` (or 16-bit ``<tag>.pgm``) in the directory, e.g.
    ``benign.pfm`` and ``level_1.pfm`` .. ``level_9.pfm`` produced offline by
    whatever estimator is under attack, and returned as loaded (float32).
    ``rescale`` divides disparity maps by a constant as ``load_depth_map``
    reads them, in float64: under NEP 50 a float32 map divided by a Python
    float stays float32.
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
                return load_depth_map(candidate, kind=self.kind, rescale=self.rescale)
        raise FileNotFoundError(
            f"no {tag}.pfm / {tag}.pgm in {self.directory}"
        )
