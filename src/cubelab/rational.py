"""Parsing and formatting of exact rationals used across the package."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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
