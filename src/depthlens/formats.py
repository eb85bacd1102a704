"""Image, float-map and line-oriented text file formats.

Three binary interchange formats, all chosen for bit-exactness across
platforms:

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
readers share one row-range reader, ``MapFile``: a map's header (and
sidecar) are parsed once, and each ``MapFile.read`` reopens the file,
checks that it still holds that header and the raster, and writes any
row ranges into the caller's arrays. ``read_pfm`` and ``read_pgm16``
read the whole map, in row strips (``imaging._strips``), into a new frame
the caller may modify; ``estimation.FileMap`` reads the strips a loss reads.
float32 is the files' own precision: PFM samples are float32, and 16-bit
counts are scaled in float32; a caller that computes in float64 reads
into float64 arrays, and each float32 value is widened as its strip is
read (a signaling NaN becomes a NaN, without a warning).

The text inputs, a config file (``cli``) and a boxes file (``estimation``),
are read by one line reader, ``_text_lines``: it skips blank and ``#``
comment lines, and the first byte the file's encoding cannot decode raises
``ParseError`` naming the file and line. Each caller reads its own grammar
from the lines, and a malformed line raises ``ParseError`` too.
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
    _check_raster(fh, pos + 1, height * width * px_bytes[magic])
    return magic, third, height, width


def _check_raster(fh, start: int, need: int) -> None:
    """Check that the open file holds ``need`` raster bytes from ``start``."""
    got = min(need, max(os.fstat(fh.fileno()).st_size - start, 0))
    if got != need:
        raise ParseError(f"raster truncated: expected {need} bytes, got {got}",
                         byte_offset=start + got)


def _read_into(fh, buf: np.ndarray) -> None:
    """Fill the contiguous array ``buf`` from the open file."""
    got = fh.readinto(buf)
    if got != buf.nbytes:  # the file shrank after the size check
        raise ParseError(f"raster truncated: read {got} of {buf.nbytes} bytes")


def _text_lines(path, encoding: str):
    """Yield the line number, raw line and stripped line of each line of the
    text file that is neither blank nor a ``#`` comment. The first line
    that holds a byte ``encoding`` cannot decode raises ``ParseError``
    naming the file, the line and its bytes."""
    # Undecodable bytes pass as surrogates, so the line that holds one is known.
    with open(path, "r", encoding=encoding, errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if any("\udc80" <= c <= "\udcff" for c in raw):
                data = raw.rstrip("\r\n").encode(encoding, "surrogateescape")
                raise ParseError(f"{path}:{lineno}: non-{encoding.upper()} byte in {data!r}")
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, raw, line


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
    """Write a raster ``imaging.RasterImage`` accepts, uint8 gray (h, w) or
    RGB (h, w, 3), as binary PGM/PPM; any other array is an error, not a
    cast, raised before the file is opened."""
    shape = imaging.RasterImage(data).shape  # the one raster check, on a view
    magic = b"P5" if len(shape) == 2 else b"P6"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (shape[1], shape[0]))
        fh.write(np.ascontiguousarray(data))  # a contiguous array's own buffer: no copy


class MapFile:
    """A float map's file, a grayscale PFM or a 16-bit PGM with its sidecar
    scale, whose rows are read where they are needed. The header, and the
    sidecar, are parsed once; each ``read`` reopens the file, so the file
    is not held between reads.

    The sidecar ``<path>.scale`` holds one float, finite and positive in
    float32: physical units per raw count. A scaled count that overflows
    float32 is an error, not an infinity: when one can (65535 counts
    overflow), the raster is scanned for one here, and each read checks its
    own counts.
    """

    def __init__(self, path, pgm16: bool):
        self.path = path
        with open(path, "rb") as fh:
            if pgm16:
                _, _, height, width = _parse_header(fh, {b"P5": 2}, "16-bit PGM", 65535)
            else:
                _, scale, height, width = _parse_header(
                    fh, {b"Pf": 4}, "grayscale PFM (color 'PF' is not supported)", None)
            start = fh.tell()
            fh.seek(0)
            self._head = fh.read(start)  # a read checks the file still has it
        self.shape = (height, width)
        self.scale32 = self._overflow = None
        self._raw = np.dtype(">u2" if pgm16 else "<f4" if scale < 0 else ">f4")
        if not pgm16:
            return
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
        self.scale32 = np.float32(scale)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float32(65535) * self.scale32):
                self._overflow = (f"largest count at scale {scale!r} in {sidecar} "
                                  "overflows float32")
        if self._overflow:  # find a count that does, before any caller reads
            self.read((rows, np.empty((rows.stop - rows.start, width), np.float32))
                      for rows in imaging._strips(height, width))

    def read(self, strips) -> None:
        """Read each ``(rows, out)`` of ``strips``: the rows ``rows`` (top-down,
        of step 1, within the map) into ``out``, a float32 or float64 array
        of their shape. The file is opened once for them all, and a file
        whose header changed, or that no longer holds the raster, raises
        ``ParseError``. PFM samples, in either byte order and stored
        bottom-up, are copied bit for bit (widening is exact); counts are
        scaled in float32."""
        height, width = self.shape
        # A signaling NaN widens to a NaN, a hole either way: no warning. A
        # count that overflows is reported as a ParseError.
        with open(self.path, "rb") as fh, np.errstate(invalid="ignore", over="ignore"):
            if fh.read(len(self._head)) != self._head:
                raise ParseError(f"{self.path}: map header changed after it was read")
            _check_raster(fh, len(self._head), height * width * self._raw.itemsize)
            for rows, out in strips:
                raw = np.empty((rows.stop - rows.start, width), self._raw)
                first = rows.start if self.scale32 is not None else height - rows.stop
                fh.seek(len(self._head) + first * width * raw.itemsize)
                _read_into(fh, raw)
                if self.scale32 is None:
                    np.copyto(out, raw[::-1])
                elif self._overflow and not np.isfinite(raw.max(initial=0) * self.scale32):
                    raise ParseError(self._overflow)
                else:
                    np.multiply(raw, self.scale32, out=out, dtype=np.float32)


def _read_map(file: MapFile, dtype) -> np.ndarray:
    """The whole map, read strip by strip into a new ``dtype`` frame."""
    out = np.empty(file.shape, dtype=dtype)
    file.read((rows, out[rows]) for rows in imaging._strips(*file.shape))
    return out


def read_pgm16(path, dtype=np.float32) -> np.ndarray:
    """Load a 16-bit PGM and apply the sidecar scale (see ``MapFile``),
    returning float32 (h, w), or the float32 values widened into a
    ``dtype`` (float64) frame."""
    return _read_map(MapFile(path, pgm16=True), dtype)


def read_pfm(path, dtype=np.float32) -> np.ndarray:
    """Load a grayscale PFM as native float32 (h, w), top-down row order, or
    widened into a ``dtype`` (float64) frame."""
    return _read_map(MapFile(path, pgm16=False), dtype)
