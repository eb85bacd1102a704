"""Binary image and float-map file formats.

Three interchange formats, all chosen for bit-exactness across platforms:

* 8-bit binary PGM (P5) / PPM (P6), maxval 255 — raster interchange;
* PFM ("Pf", float32, scale line whose sign encodes endianness, rows stored
  bottom-up) — float maps such as externally produced depth/disparity;
* 16-bit binary PGM (maxval 65535, big-endian) plus a sidecar ``<path>.scale``
  text file holding the meters-per-count factor.

The raster writer emits a canonical single-whitespace header; readers
tolerate runs of whitespace and ``#`` comments in PNM headers, and share
one header parser. The maps are produced by external estimators, so only
their readers live here.

``read_pnm`` returns a read-only view of the whole file's bytes. The map
readers never hold the file: they parse the header from a prefix, check
the raster length against the file size, then read the raster in row
strips (``imaging._strips``) into one reused buffer and widen each strip
into the float64 (h, w) frame they return, which the caller may modify.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

from . import imaging
from .errors import ParseError, check_positive

# Bytes of a map file read for its header at first; a longer header (a long
# comment) doubles the read until it fits.
_HEADER_PREFIX = 128

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


def _parse_header(buf: bytes, px_bytes: dict[bytes, int], what: str,
                  maxval: int | None):
    """Parse ``magic width height third`` from the start of ``buf``.

    ``px_bytes`` maps each accepted magic to its bytes per pixel. The third
    token must equal ``maxval``; without one it is the PFM scale, a finite
    nonzero float. Returns the magic, the third token's value, the height,
    the width and the raster's offset, past the one whitespace byte that
    ends the header.
    """
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
    return magic, third, height, width, pos + 1


def _check_length(need: int, start: int, size: int) -> None:
    """The raster starts at ``start`` of a ``size``-byte file and must hold
    ``need`` bytes."""
    got = min(need, max(size - start, 0))
    if got != need:
        raise ParseError(f"raster truncated: expected {need} bytes, got {got}",
                         byte_offset=start + got)


def _read_map_header(fh, magic: bytes, px_bytes: int, what: str,
                     maxval: int | None):
    """Parse a map header from a prefix of the open file, check the raster
    length against the file size and leave ``fh`` at the raster.

    The prefix doubles until the header parses with its closing whitespace
    byte inside it, so every token was read whole; a prefix that fails to
    parse is grown too, until it is the whole file and the error is the one
    the whole file gives. Returns the third token's value, height and width.
    """
    buf = b""
    while True:
        want = max(len(buf), _HEADER_PREFIX)
        chunk = fh.read(want)
        buf += chunk
        whole = len(chunk) < want
        try:
            _, third, height, width, start = _parse_header(
                buf, {magic: px_bytes}, what, maxval)
            if start <= len(buf) or whole:
                break
        except ParseError:
            if whole:
                raise
    _check_length(height * width * px_bytes, start, os.fstat(fh.fileno()).st_size)
    fh.seek(start)
    return third, height, width


def _raster_strips(fh, height: int, width: int, dtype: str):
    """Read the raster in row strips of ``imaging._strips`` size, into one
    reused buffer; yields each strip's row slice (in file order) and its
    (rows, width) view of the buffer."""
    buf = np.empty(0, dtype=dtype)
    for rows in imaging._strips(height, width):
        count = (rows.stop - rows.start) * width
        if len(buf) < count:  # the first strip is the largest
            buf = np.empty(count, dtype=dtype)
        part = buf[:count]
        got = fh.readinto(part)
        if got != part.nbytes:  # the file shrank after the size check
            raise ParseError(f"raster truncated: read {got} of {part.nbytes} bytes")
        yield rows, part.reshape(-1, width)


def read_pnm(path) -> np.ndarray:
    """Load binary PGM/PPM as a read-only uint8 (h, w) or (h, w, 3) view."""
    with open(path, "rb") as fh:
        buf = fh.read()
    magic, _, height, width, start = _parse_header(
        buf, {b"P5": 1, b"P6": 3}, "binary PGM/PPM", 255)
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    _check_length(math.prod(shape), start, len(buf))
    # a view of the file's bytes: no copy of the raster
    return np.frombuffer(buf, np.uint8, math.prod(shape), start).reshape(shape)


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
    """Load a 16-bit PGM and apply the sidecar scale, returning float64 (h, w).

    The sidecar ``<path>.scale`` holds one float, finite and positive in
    float32: physical units per raw count. Counts are scaled in float32, one
    strip at a time, and widened into the frame. A scaled count that
    overflows float32 is an error, not an infinity.
    """
    with open(path, "rb") as fh:
        _, height, width = _read_map_header(fh, b"P5", 2, "16-bit PGM", 65535)
        sidecar = str(path) + ".scale"
        try:
            with open(sidecar, "r", encoding="ascii") as side:
                scale = float(side.read().strip())
            check_positive(scale=scale)
            if not scale <= float(np.finfo(np.float32).max) or np.float32(scale) == 0:
                raise ValueError  # inf or 0.0 once narrowed to float32
        except FileNotFoundError:
            raise ParseError(f"missing sidecar scale file {sidecar}") from None
        except ValueError:
            raise ParseError(f"bad scale value in {sidecar}") from None
        scale32 = np.float32(scale)
        out = np.empty((height, width))
        for rows, counts in _raster_strips(fh, height, width, ">u2"):
            with np.errstate(over="ignore"):  # reported below as a ParseError
                peak = counts.max() * scale32
            if not np.isfinite(peak):
                raise ParseError(f"largest count at scale {scale!r} in {sidecar} "
                                 "overflows float32")
            out[rows] = np.multiply(counts, scale32, dtype=np.float32)
    return out


def read_pfm(path) -> np.ndarray:
    """Load a grayscale PFM as float64 (h, w), top-down row order.

    The float32 rows, in either byte order, are widened strip by strip into
    the frame; the file stores them bottom-up.
    """
    with open(path, "rb") as fh:
        scale, height, width = _read_map_header(
            fh, b"Pf", 4, "grayscale PFM (color 'PF' is not supported)", None)
        out = np.empty((height, width))
        for rows, part in _raster_strips(fh, height, width,
                                         "<f4" if scale < 0 else ">f4"):
            out[height - rows.stop:height - rows.start] = part[::-1]
    return out
