"""Binary image and float-map file formats.

Three interchange formats, all chosen for bit-exactness across platforms:

* 8-bit binary PGM (P5) / PPM (P6), maxval 255 — raster interchange;
* PFM ("Pf", float32, scale line whose sign encodes endianness, rows stored
  bottom-up) — float maps such as externally produced depth/disparity;
* 16-bit binary PGM (maxval 65535, big-endian) plus a sidecar ``<path>.scale``
  text file holding the meters-per-count factor.

The raster writer emits a canonical single-whitespace header; readers
tolerate runs of whitespace and ``#`` comments in PNM headers. The maps are
produced by external estimators, so only their readers live here.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ParseError, check_positive

_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _read_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping ``#`` line comments."""
    match = _TOKEN.match(buf, pos)
    if not match[1]:
        raise ParseError("truncated header", byte_offset=match.start(1))
    return match[1], match.end()


def _read_number(buf: bytes, pos: int, what: str, parse=int):
    token, end = _read_token(buf, pos)
    try:
        return parse(token), end
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", byte_offset=pos) from None


def _read_raster(path, px_bytes: dict[bytes, int], what: str, maxval: int | None):
    """Parse ``magic width height third`` plus one whitespace byte, then the
    raster behind it.

    ``px_bytes`` maps each accepted magic to its bytes per pixel. The third
    token must equal ``maxval``; without one it is the PFM scale, a finite
    nonzero float. Returns the magic, the third token's value, the height,
    the width and a memoryview of the raster bytes.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, pos = _read_token(buf, 0)
    if magic not in px_bytes:
        raise ParseError(f"not a {what} (magic {magic!r})", byte_offset=0)
    width, pos = _read_number(buf, pos, "width")
    height, pos = _read_number(buf, pos, "height")
    if maxval is None:
        third, pos = _read_number(buf, pos, "scale", float)
        if not 0 < abs(third) < float("inf"):  # NaN fails too
            raise ParseError("scale must be finite and nonzero", byte_offset=pos)
    else:
        third, pos = _read_number(buf, pos, "maxval")
        if third != maxval:
            raise ParseError(f"unsupported maxval {third} (only {maxval})", byte_offset=pos)
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}", byte_offset=pos)
    pos += 1  # single whitespace byte separates header from raster
    need = width * height * px_bytes[magic]
    raster = memoryview(buf)[pos:pos + need]  # a view: no copy of the raster
    if len(raster) != need:
        raise ParseError(
            f"raster truncated: expected {need} bytes, got {len(raster)}",
            byte_offset=pos + len(raster),
        )
    return magic, third, height, width, raster


def read_pnm(path) -> np.ndarray:
    """Load binary PGM/PPM as a read-only uint8 (h, w) or (h, w, 3) view."""
    magic, _, height, width, raster = _read_raster(
        path, {b"P5": 1, b"P6": 3}, "binary PGM/PPM", 255)
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    return np.frombuffer(raster, dtype=np.uint8).reshape(shape)


def write_pnm(path, data: np.ndarray) -> None:
    """Write uint8 gray (h, w) or RGB (h, w, 3) as binary PGM/PPM."""
    arr = np.ascontiguousarray(data, dtype=np.uint8)
    if arr.ndim == 2:
        magic = b"P5"
        h, w = arr.shape
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
        h, w = arr.shape[:2]
    else:
        raise ValueError(f"expected (h, w) or (h, w, 3) uint8, got shape {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(arr.tobytes())


def read_pgm16(path) -> np.ndarray:
    """Load a 16-bit PGM and apply the sidecar scale, returning float32 (h, w).

    The sidecar ``<path>.scale`` holds one float, finite and positive in
    float32: physical units per raw count. A scaled count that overflows
    float32 is an error, not an infinity.
    """
    _, _, height, width, raster = _read_raster(path, {b"P5": 2}, "16-bit PGM", 65535)
    raw = np.frombuffer(raster, dtype=">u2").reshape(height, width)
    sidecar = str(path) + ".scale"
    try:
        with open(sidecar, "r", encoding="ascii") as fh:
            scale = float(fh.read().strip())
        check_positive(scale=scale)
        if not scale <= float(np.finfo(np.float32).max) or np.float32(scale) == 0:
            raise ValueError  # inf or 0.0 once narrowed to float32
    except FileNotFoundError:
        raise ParseError(f"missing sidecar scale file {sidecar}") from None
    except ValueError:
        raise ParseError(f"bad scale value in {sidecar}") from None
    scale32 = np.float32(scale)
    with np.errstate(over="ignore"):  # reported below as a ParseError
        peak = raw.max() * scale32
    if not np.isfinite(peak):
        raise ParseError(f"largest count at scale {scale!r} in {sidecar} overflows float32")
    return np.multiply(raw, scale32, dtype=np.float32)


def read_pfm(path) -> np.ndarray:
    """Load a grayscale PFM as float32 (h, w), top-down row order."""
    _, scale, height, width, raster = _read_raster(
        path, {b"Pf": 4}, "grayscale PFM (color 'PF' is not supported)", None)
    dtype = "<f4" if scale < 0 else ">f4"
    data = np.frombuffer(raster, dtype=dtype).reshape(height, width)
    return data[::-1].astype(np.float32, copy=False)  # stored bottom-up
