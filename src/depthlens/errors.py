"""Exception types shared across the toolkit, the one range rule for
numbers from outside (NaN passes a hand-written ``value <= 0``, not these)
and the one dtype rule for masks (a uint8 mask is not coerced).

Callers (the optimizer, the CLI) branch on these, so every failure mode that
is part of a module contract has a dedicated class instead of a bare
ValueError. ``SingularConfiguration`` is the one "domain" error the CLI maps
to exit code 1; everything else is treated as a usage / input problem.

``REPORTED_ERRORS`` (these classes, ``OSError`` and ``ValueError``) is the
one set of failures a run reports instead of crashing on: the CLI exits 2
with the message, and the optimizer tags one raised by the benign estimate
or by a level with where it arose, so a sweep marks the rows it fails
instead of raising.
"""

import math


def check_finite(**values: float) -> None:
    """Reject the first value that is NaN or infinite, naming it in words:
    ``lens_gap=nan`` reads "lens gap must be finite, got nan"."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name.replace('_', ' ')} must be finite, got {value}")


def check_positive(**values: float) -> None:
    """Reject the first value that is not finite and greater than zero."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(
                f"{name.replace('_', ' ')} must be finite and positive, got {value}")


def check_bool(**arrays) -> None:
    """Reject the first array that is not boolean, naming it in words:
    ``blur_mask=m`` reads "blur mask must be bool, got uint8"."""
    for name, array in arrays.items():
        if array.dtype != bool:
            raise ValueError(f"{name.replace('_', ' ')} must be bool, got {array.dtype}")


class DepthlensError(Exception):
    """Base class for all toolkit errors."""


class SingularConfiguration(DepthlensError):
    """A lens/camera arrangement hits a zero denominator (no finite image)."""


class DegenerateRegion(DepthlensError):
    """A lens region does not overlap the image frame at all."""


class BadLevel(DepthlensError):
    """Discrete attack level outside the supported 1..9 range."""


class FiducialNotFound(DepthlensError):
    """Thresholding found no blob large enough to measure."""


class ParseError(DepthlensError):
    """Malformed input file: raster, map, config or boxes.

    ``byte_offset`` points at (or near) the offending byte so truncated
    headers are easy to locate.
    """

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class EmptyMask(DepthlensError):
    """A masked reduction was asked for but no valid pixel is selected."""


class NonPositiveDenominator(DepthlensError):
    """Metric denominator (benign or target value) must be positive."""


class TooSmall(DepthlensError):
    """Image smaller than the minimum a filter/detector needs."""


REPORTED_ERRORS = (DepthlensError, OSError, ValueError)
