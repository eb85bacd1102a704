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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooSmall, check_finite
from .imaging import RasterImage

DEFAULT_VARLAP_THRESHOLD = 100.0
DEFAULT_LBP_SCORE_THRESHOLD = 0.15
DEFAULT_TILE_PX = 32
DEFAULT_LBP_DELTA = 20


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


def laplacian(image: RasterImage) -> np.ndarray:
    """4-neighbor Laplacian over the interior; output (h-2, w-2) int32."""
    gray = image.to_gray().data.astype(np.int32)
    h, w = gray.shape
    if h < 3 or w < 3:
        raise TooSmall(f"need at least 3x3 for the Laplacian, got {w}x{h}")
    center = gray[1:-1, 1:-1]
    return (gray[:-2, 1:-1] + gray[2:, 1:-1] + gray[1:-1, :-2] + gray[1:-1, 2:]
            - 4 * center)


def variance_of_laplacian(image: RasterImage) -> float:
    """Population variance of the interior Laplacian responses."""
    return float(np.var(laplacian(image)))


def varlap_verdict(image: RasterImage,
                   threshold: float = DEFAULT_VARLAP_THRESHOLD) -> BlurVerdict:
    """Whole-image check: blurred iff the variance falls below threshold."""
    check_finite(threshold=threshold)
    score = variance_of_laplacian(image)
    return BlurVerdict(blurred=score < threshold, score=score, threshold=threshold)


def _build_label_lut() -> np.ndarray:
    """Map each 8-bit ring code to its pattern label.

    Uniform codes (at most two 0/1 transitions around the ring) are labeled
    by their set-bit count 0..8; everything else collapses into label 9.
    """
    labels = np.empty(256, dtype=np.uint8)
    for code in range(256):
        rotated = ((code << 1) | (code >> 7)) & 0xFF
        transitions = bin(code ^ rotated).count("1")
        bits = bin(code).count("1")
        labels[code] = bits if transitions <= 2 else 9
    return labels


_LBP_LABELS = _build_label_lut()

# Ring order is circular: N, NE, E, SE, S, SW, W, NW.
_RING = ((-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1))


def _lbp_active(gray: np.ndarray, delta: int) -> np.ndarray:
    """Boolean (h-2, w-2): interior pixels whose code is high-activity."""
    g = gray.astype(np.int16)
    h, w = g.shape
    center = g[1:-1, 1:-1]
    code = np.zeros(center.shape, dtype=np.uint8)
    for bit, (dy, dx) in enumerate(_RING):
        neighbor = g[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
        code |= (np.abs(neighbor - center) > delta).astype(np.uint8) << bit
    return _LBP_LABELS[code] >= 6


def lbp_sharpness_map(image: RasterImage, window: int = DEFAULT_TILE_PX,
                      lbp_threshold: int = DEFAULT_LBP_DELTA) -> SharpnessMap:
    """Per-tile fraction of high-activity pixels.

    Tiles are non-overlapping ``window`` squares covering the frame (edge
    tiles may be partial); each tile's score is computed over its interior
    pixels, the ones that have a full 8-neighbor ring.
    """
    if window < 8:
        raise ValueError(f"window must be >= 8 px, got {window}")
    if lbp_threshold < 0:
        raise ValueError(f"lbp delta must be non-negative, got {lbp_threshold}")
    gray = image.to_gray().data
    h, w = gray.shape
    if h < 3 or w < 3:
        raise TooSmall(f"need at least 3x3 for LBP codes, got {w}x{h}")

    # Zero-pad to whole tiles: padding adds nothing to either count.
    tiles_y = (h + window - 1) // window
    tiles_x = (w + window - 1) // window
    active = np.zeros((tiles_y * window, tiles_x * window), dtype=bool)
    active[1:h - 1, 1:w - 1] = _lbp_active(gray, lbp_threshold)
    interior = np.zeros_like(active)
    interior[1:h - 1, 1:w - 1] = True
    tiles = (tiles_y, window, tiles_x, window)
    numer = active.reshape(tiles).sum(axis=(1, 3))
    denom = interior.reshape(tiles).sum(axis=(1, 3))
    scores = np.zeros((tiles_y, tiles_x), dtype=np.float64)
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
