"""Parsing and formatting of exact rationals used across the package."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and strings like '3/5', '-2' or '0.25'."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    if isinstance(value, float):
        raise TypeError(
            f"refusing to coerce float {value!r} to an exact rational; "
            "pass a Fraction, int or 'p/q' string"
        )
    raise TypeError(f"cannot interpret {value!r} as a rational")


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def common_scale(values) -> int:
    """Least common multiple of the denominators, 1 for an empty sequence."""
    denoms = [as_fraction(v).denominator for v in values]
    return lcm(*denoms) if denoms else 1


def scaled_int64(values) -> tuple[np.ndarray, int]:
    """The values over their common scale as an int64 array, and the scale.

    The sum of the scaled magnitudes is taken in Python ints and refused from
    2^60 on: the widest keys formed from scaled weights (window edges, v - u,
    LEM111's b + d - c - m) are a few multiples of that sum, and fit int64
    below it."""
    values = [as_fraction(v) for v in values]
    scale = common_scale(values)
    ints = [v.numerator * (scale // v.denominator) for v in values]
    total = sum(abs(i) for i in ints)
    if total >= 1 << 60:
        raise ValueError(f"scaled weights sum to {total} in absolute value, "
                         "at or past the bound 2^60")
    return np.array(ints, dtype=np.int64), scale
