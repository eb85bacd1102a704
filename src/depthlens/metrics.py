"""Scalar attack metrics.

Both are relative deviations of a masked-mean reading: the distortion rate
compares the attacked reading against the benign one (higher = stronger
attack), the error rate compares it against the intended target (lower =
more precise attack). Callers reduce maps to scalars first, typically with
``estimation.masked_mean``.
"""

from __future__ import annotations

from .errors import NonPositiveDenominator, check_finite


def adr(attacked: float, benign: float) -> float:
    """Attack distortion rate: |attacked - benign| / benign."""
    check_finite(attacked_value=attacked, benign_value=benign)
    if benign <= 0:
        raise NonPositiveDenominator(f"benign value must be positive, got {benign}")
    return abs(attacked - benign) / benign


def aer(attacked: float, target: float) -> float:
    """Attack error rate: |attacked - target| / target."""
    check_finite(attacked_value=attacked, target_value=target)
    if target <= 0:
        raise NonPositiveDenominator(f"target value must be positive, got {target}")
    return abs(attacked - target) / target
