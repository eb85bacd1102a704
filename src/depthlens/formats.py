"""Binary image and float-map file formats.

Three interchange formats, all chosen for bit-exactness across platforms:

* 8-bit binary PGM (P5) / PPM (P6), maxval 255 — raster interchange;
* PFM ("Pf", float32, scale line whose sign encodes endianness, rows stored
  bottom-up) — float maps such as externally produced depth/disparity;
* 16-bit binary PGM (maxval 65535, big-endian) plus a sidecar ``<path>.scale``
  text file holding the meters-per-count factor.

The raster writer emits a canonical single-whitespace header. The three
readers share one header parser, which reads the header token by token from
the open file: whitespace and ``#`` comments are tolerated up to 64 KiB,
dimensions and maxval must be ASCII digits and the PFM scale a decimal
float, and the raster length is checked against the file size before any
of it is read. The maps are produced by external estimators, so only their
readers live here.

``read_pnm`` reads the raster into a new uint8 array or into the caller's
frame, such as a deferred ``imaging.RasterImage.load``'s, which has the
shape ``pnm_shape`` read from the header when the image was loaded; a
file that holds another shape by then raises ``ParseError``. The map
readers never hold the file: they read the raster in row strips
(``imaging._strips``) into one reused buffer and write each strip into the
float32 (h, w) frame they return, which the caller may modify. float32 is
the files' own precision: PFM samples are float32, and 16-bit counts are
scaled in float32; a caller that computes in float64 asks for a float64
frame, and each float32 value is widened into it as its strip is read.
"""

from __future__ import annotations

import os

import numpy as np

from . import imaging
from .errors import ParseError, check_positive


# Header tokens are a few bytes, and the gaps between them rarely more than
# a line; longer ones are damage, and are reported without being read whole.
_MAX_TOKEN = 64
_MAX_HEADER = 64 * 1024


def _read_token(fh) -> tuple[bytes, int]:
    """Next header token of the open file and its end offset, skipping
    whitespace and ``#`` comments that run to a CR or LF. The byte after
    the token (whitespace, or none at the end of the file) is consumed. A
    token over ``_MAX_TOKEN`` bytes raises ``header token too long``, and
    a skipped byte at offset ``_MAX_HEADER`` or past it ``header too
    long``."""
    start, byte, comment = fh.tell(), fh.read(1), False  # start: byte's offset
    while byte.isspace() or byte == b"#" or (comment and byte):
        if start >= _MAX_HEADER:
            raise ParseError("header too long", byte_offset=start)
        comment = (comment or byte == b"#") and byte not in b"\r\n"
        start, byte = start + 1, fh.read(1)
    token = bytearray()
    while byte and not byte.isspace():
        if len(token) == _MAX_TOKEN:
            raise ParseError("header token too long", byte_offset=start)
        token += byte
        byte = fh.read(1)
    end = fh.tell() - len(byte)
    if not token:
        raise ParseError("truncated header", byte_offset=end)
    return bytes(token), end


def _digits(token: bytes) -> int:
    """ASCII digits only: int() alone would also take ``+3`` and ``1_0``."""
    if not token.isdigit():
        raise ValueError
    return int(token)


def _decimal(text: bytes) -> float:
    """A decimal float (``nan`` and ``inf`` included): float() alone would
    also take ``1_0``."""
    if b"_" in text:
        raise ValueError
    return float(text)


def _read_number(fh, pos: int, what: str, parse):
    """The next token as read by ``parse``; one it rejects is reported at
    ``pos``, the end of the token before it."""
    token, end = _read_token(fh)
    try:
        return parse(token), end
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", byte_offset=pos) from None


def _parse_header(fh, px_bytes: dict[bytes, int], what: str, maxval: int | None):
    """Parse ``magic width height third`` from the start of the open file,
    check that the file holds the raster and leave ``fh`` at it.

    ``px_bytes`` maps each accepted magic to its bytes per pixel. The third
    token must equal ``maxval``; without one it is the PFM scale, a finite
    nonzero float. The raster starts past the one whitespace byte that ends
    the header. Returns the magic, the third token's value, the height and
    the width.
    """
    magic, pos = _read_token(fh)
    if magic not in px_bytes:
        raise ParseError(f"not a {what} (magic {magic!r})", byte_offset=0)
    width, pos = _read_number(fh, pos, "width", _digits)
    height, pos = _read_number(fh, pos, "height", _digits)
    if maxval is None:
        third, pos = _read_number(fh, pos, "scale", _decimal)
        if not 0 < abs(third) < float("inf"):  # NaN fails too
            raise ParseError("scale must be finite and nonzero", byte_offset=pos)
    else:
        third, pos = _read_number(fh, pos, "maxval", _digits)
        if third != maxval:
            raise ParseError(f"unsupported maxval {third} (only {maxval})", byte_offset=pos)
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {width}x{height}", byte_offset=pos)
    start, need = pos + 1, height * width * px_bytes[magic]
    got = min(need, max(os.fstat(fh.fileno()).st_size - start, 0))
    if got != need:
        raise ParseError(f"raster truncated: expected {need} bytes, got {got}",
                         byte_offset=start + got)
    return magic, third, height, width


def _read_into(fh, buf: np.ndarray) -> None:
    """Fill the contiguous array ``buf`` from the open file."""
    got = fh.readinto(buf)
    if got != buf.nbytes:  # the file shrank after the size check
        raise ParseError(f"raster truncated: read {got} of {buf.nbytes} bytes")


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
        _read_into(fh, part)
        yield rows, part.reshape(-1, width)


def _pnm_header(fh) -> tuple[int, ...]:
    """Parse a PGM/PPM header from the open file; returns the raster shape."""
    magic, _, height, width = _parse_header(
        fh, {b"P5": 1, b"P6": 3}, "binary PGM/PPM", 255)
    return (height, width) if magic == b"P5" else (height, width, 3)


def pnm_shape(path) -> tuple[int, ...]:
    """The raster shape, (h, w) or (h, w, 3), of a binary PGM/PPM whose
    header ``read_pnm`` would accept; the raster is not read."""
    with open(path, "rb") as fh:
        return _pnm_header(fh)


def read_pnm(path, out: np.ndarray | None = None) -> np.ndarray:
    """Load binary PGM/PPM as uint8 (h, w) or (h, w, 3), into a new array or
    into ``out``: a contiguous uint8 array of the file's raster shape."""
    with open(path, "rb") as fh:
        shape = _pnm_header(fh)
        out = np.empty(shape, np.uint8) if out is None else out
        if out.shape != shape:  # the file changed after its shape was read
            raise ParseError(f"raster shape {shape} does not match {out.shape}")
        _read_into(fh, out)
    return out


def write_pnm(path, data: np.ndarray) -> None:
    """Write uint8 gray (h, w) or RGB (h, w, 3) as binary PGM/PPM; any other
    dtype is an error, not a cast."""
    if data.dtype != np.uint8:
        raise ValueError(f"raster must be uint8, got {data.dtype}")
    arr = np.ascontiguousarray(data)
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
        fh.write(arr)  # the contiguous array's own buffer: no copy


def read_pgm16(path, dtype=np.float32) -> np.ndarray:
    """Load a 16-bit PGM and apply the sidecar scale, returning float32 (h, w),
    or the float32 values widened into a ``dtype`` (float64) frame.

    The sidecar ``<path>.scale`` holds one float, finite and positive in
    float32: physical units per raw count. Counts are scaled in float32, one
    strip at a time, straight into the frame. A scaled count that overflows
    float32 is an error, not an infinity.
    """
    with open(path, "rb") as fh:
        _, _, height, width = _parse_header(fh, {b"P5": 2}, "16-bit PGM", 65535)
        sidecar = str(path) + ".scale"
        try:
            with open(sidecar, "rb") as side:
                scale = _decimal(side.read().strip())
            check_positive(scale=scale)
            if not scale <= float(np.finfo(np.float32).max) or np.float32(scale) == 0:
                raise ValueError  # inf or 0.0 once narrowed to float32
        except FileNotFoundError:
            raise ParseError(f"missing sidecar scale file {sidecar}") from None
        except ValueError:
            raise ParseError(f"bad scale value in {sidecar}") from None
        scale32 = np.float32(scale)
        out = np.empty((height, width), dtype=dtype)
        for rows, counts in _raster_strips(fh, height, width, ">u2"):
            with np.errstate(over="ignore"):  # reported below as a ParseError
                peak = counts.max() * scale32
            if not np.isfinite(peak):
                raise ParseError(f"largest count at scale {scale!r} in {sidecar} "
                                 "overflows float32")
            np.multiply(counts, scale32, out=out[rows], dtype=np.float32)
    return out


def read_pfm(path, dtype=np.float32) -> np.ndarray:
    """Load a grayscale PFM as native float32 (h, w), top-down row order, or
    widened into a ``dtype`` (float64) frame.

    The float32 rows, in either byte order, are copied strip by strip into
    the frame, bit for bit (widening is exact); the file stores them
    bottom-up.
    """
    with open(path, "rb") as fh:
        _, scale, height, width = _parse_header(
            fh, {b"Pf": 4}, "grayscale PFM (color 'PF' is not supported)", None)
        out = np.empty((height, width), dtype=dtype)
        for rows, part in _raster_strips(fh, height, width,
                                         "<f4" if scale < 0 else ">f4"):
            out[height - rows.stop:height - rows.start] = part[::-1]
    return out
