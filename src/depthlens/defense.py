"""Blur-detection defenses.

A mounted lens betrays itself through defocus, so the defender scores image
sharpness two ways:

* variance of the Laplacian over the whole frame — blur narrows the response
  range of the second derivative, so low variance means defocus;
* a local-binary-pattern statistic per tile — sharp patches produce many
  high-activity 8-neighbor codes, blurred patches almost none, which
  segments defocused areas.

The Laplacian uses the 4-neighbor kernel on the interior only (no padding:
padding strategies perturb variance near borders and break cross-platform
bit-exactness) and population variance. The LBP code sets bit p when the
p-th ring neighbor differs from the center by more than a delta, and a pixel
counts as "sharp-active" when its code falls in the high-activity bins:
uniform patterns with 6..8 set bits, or any non-uniform pattern. Thresholds
are calibration constants fixed against the test fixture corpus, not
physical claims.

Both statistics work in row strips (``imaging._strips``), so no frame-sized
temporary is built. The Laplacian is formed in int32 one strip at a time,
and each strip adds its sum S1 and its sum of squares S2, reduced in int64,
to Python integers: |L| <= 1020, so no strip overflows and both sums are
exact. The variance ``(n*S2 - S1**2) / n**2`` is one integer division,
which rounds correctly, so the score is the exact variance rounded once
and does not depend on summation order.

The LBP codes are built in uint8 strips, without widening the frame:
``|neighbor - center|`` is ``max - min``, each neighbor pair is compared
once (the E, SE, S and SW comparisons give all eight ring bits as shifted
views), each ring bit is ORed into the code after an in-place shift, and
one 256-entry boolean table marks the high-activity codes. No activity map
of the frame is held: each strip's active pixels are counted per column as
the strip is made, the part of the strip in each band of tile rows by
itself, then summed over the tile's columns (``np.add.reduceat``); a tile's
interior-pixel count follows from its bounds alone, so no frame is padded
to whole tiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooSmall, check_finite
from .imaging import RasterImage, _strips

DEFAULT_VARLAP_THRESHOLD = 100.0
DEFAULT_LBP_SCORE_THRESHOLD = 0.15
DEFAULT_TILE_PX = 32
MIN_TILE_PX = 8
DEFAULT_LBP_DELTA = 20
MIN_LBP_DELTA = 0


@dataclass(frozen=True)
class SharpnessMap:
    """Per-tile sharpness scores in [0, 1], row-major tile grid."""

    scores: np.ndarray
    window: int
    image_shape: tuple[int, int]


@dataclass(frozen=True)
class BlurVerdict:
    """Outcome of a detection pass.

    Whole-image mode carries no mask; segmentation mode reports the tiles
    below threshold upsampled to pixel resolution. ``score`` is the
    whole-image statistic, or the worst tile score when segmenting.
    """

    blurred: bool
    score: float
    threshold: float
    blur_mask: np.ndarray | None = None

    def report_line(self) -> str:
        verdict = "blurred" if self.blurred else "clean"
        return f"verdict={verdict} score={self.score:.6g} threshold={self.threshold:.6g}"


def _interior_strips(gray: np.ndarray, what: str):
    """The row strips of a gray frame's interior, each with the frame rows
    its 3x3 windows read. A frame with no interior pixel raises
    ``TooSmall``, worded for ``what``, when called."""
    h, w = gray.shape
    if h < 3 or w < 3:
        raise TooSmall(f"need at least 3x3 for {what}, got {w}x{h}")
    return ((strip, gray[strip.start:strip.stop + 2]) for strip in _strips(h - 2, w))


def variance_of_laplacian(image: RasterImage) -> float:
    """Population variance of the interior Laplacian responses, correctly
    rounded from exact integer sums."""
    gray = image.to_gray().data
    s1 = s2 = 0
    for _, g in _interior_strips(gray, "the Laplacian"):
        lap = np.add(g[:-2, 1:-1], g[2:, 1:-1], dtype=np.int32)
        lap += g[1:-1, :-2]
        lap += g[1:-1, 2:]
        lap -= np.multiply(g[1:-1, 1:-1], 4, dtype=np.int32)
        s1 += int(lap.sum(dtype=np.int64))
        s2 += int(np.square(lap, out=lap).sum(dtype=np.int64))
    n = (gray.shape[0] - 2) * (gray.shape[1] - 2)
    # int / int is correctly rounded, however large the operands
    return (n * s2 - s1 * s1) / (n * n)


def varlap_verdict(image: RasterImage,
                   threshold: float = DEFAULT_VARLAP_THRESHOLD) -> BlurVerdict:
    """Whole-image check: blurred iff the variance falls below threshold."""
    check_finite(threshold=threshold)
    score = variance_of_laplacian(image)
    return BlurVerdict(blurred=score < threshold, score=score, threshold=threshold)


def _is_high_activity(code: int) -> bool:
    """Whether an 8-bit ring code is high-activity: non-uniform (more than
    two 0/1 transitions around the ring) or with at least six set bits."""
    rotated = ((code << 1) | (code >> 7)) & 0xFF
    return bin(code ^ rotated).count("1") > 2 or bin(code).count("1") >= 6


_LBP_HIGH = np.array([_is_high_activity(code) for code in range(256)])


def _lbp_active(gray: np.ndarray, delta: int):
    """Interior pixels whose code is high-activity, in row strips: yields
    each strip's slice of the (h-2, w-2) interior rows and its boolean map.

    Ring order is circular, N, NE, E, SE, S, SW, W, NW: ring neighbor p
    sets bit p of the code.
    """

    def differs(a, b):
        # |a - b| > delta without widening: max - min
        diff = np.maximum(a, b)
        diff -= np.minimum(a, b)
        return np.greater(diff, delta).view(np.uint8)

    for strip, g in _interior_strips(gray, "LBP codes"):
        # Each neighbor pair is compared once. The pairs of the E, SE, S and
        # SW directions of one pixel are the W, NW, N and NE pairs of
        # another, so all eight ring bits are views of four comparisons.
        east = differs(g[1:-1, 1:], g[1:-1, :-1])
        south = differs(g[1:, 1:-1], g[:-1, 1:-1])
        southeast = differs(g[1:, 1:], g[:-1, :-1])
        southwest = differs(g[1:, :-1], g[:-1, 1:])
        # Highest ring bit first (NW .. N): shifting the code left before
        # each OR leaves ring neighbor p at bit p.
        code = southeast[:-1, :-1].copy()
        for bit in (east[:, :-1], southwest[1:, :-1], south[1:], southeast[1:, 1:],
                    east[:, 1:], southwest[:-1, 1:], south[:-1]):
            code <<= 1
            code |= bit
        yield strip, _LBP_HIGH.take(code)


def lbp_sharpness_map(image: RasterImage, window: int = DEFAULT_TILE_PX,
                      lbp_threshold: int = DEFAULT_LBP_DELTA) -> SharpnessMap:
    """Per-tile fraction of high-activity pixels.

    Tiles are non-overlapping ``window`` squares covering the frame (edge
    tiles may be partial); each tile's score is computed over its interior
    pixels, the ones that have a full 8-neighbor ring.
    """
    if window < MIN_TILE_PX:
        raise ValueError(f"window must be >= {MIN_TILE_PX} px, got {window}")
    if lbp_threshold < MIN_LBP_DELTA:
        raise ValueError(f"lbp delta must be non-negative, got {lbp_threshold}")
    gray = image.to_gray().data
    h, w = gray.shape
    # Tiles start every ``window`` px. A tile's interior pixels are the
    # frame's rows (columns) 1..n-2 inside it; only the last tile along an
    # axis can hold none.
    starts_y, starts_x = np.arange(0, h, window), np.arange(0, w, window)
    inner_y, inner_x = (np.clip(np.minimum(lo + window, n - 1) - np.maximum(lo, 1), 0, None)
                        for lo, n in ((starts_y, h), (starts_x, w)))
    denom = np.outer(inner_y, inner_x)
    # Activity row (column) i is frame row (column) i + 1: each tile's sum
    # runs from its first interior line to the next tile's. A strip's rows
    # are counted per column as they are made, split where a tile row
    # starts, and summed over each tile's columns.
    first_y = np.maximum(starts_y[inner_y > 0] - 1, 0)
    first_x = np.maximum(starts_x[inner_x > 0] - 1, 0)
    numer = np.zeros(denom.shape, dtype=np.intp)
    for rows, active in _lbp_active(gray, lbp_threshold):
        tile = int(np.searchsorted(first_y, rows.start, side="right")) - 1
        cuts = first_y[tile + 1:]
        cuts = cuts[cuts < rows.stop] - rows.start
        for row, piece in zip(numer[tile:], np.split(active, cuts)):
            row[:len(first_x)] += np.add.reduceat(np.count_nonzero(piece, axis=0), first_x)
    scores = np.zeros(denom.shape, dtype=np.float64)
    np.divide(numer, denom, out=scores, where=denom > 0)
    return SharpnessMap(scores=scores, window=window, image_shape=(h, w))


def segment_blur(sharpness: SharpnessMap,
                 threshold: float = DEFAULT_LBP_SCORE_THRESHOLD) -> BlurVerdict:
    """Flag tiles scoring below threshold; any hit means a blur alert.

    The pixel-resolution mask replicates each tile verdict over its square.
    """
    check_finite(threshold=threshold)
    below = sharpness.scores < threshold
    h, w = sharpness.image_shape
    mask = np.repeat(np.repeat(below, sharpness.window, axis=0),
                     sharpness.window, axis=1)[:h, :w]
    return BlurVerdict(blurred=bool(below.any()),
                       score=float(sharpness.scores.min()),
                       threshold=threshold, blur_mask=mask)
