"""Coordinate influences and vertex boundaries for truth-table functions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .bfcore import BooleanFunction


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate flip probabilities with exact totals."""

    n: int
    per_coordinate: tuple[Fraction, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.per_coordinate, Fraction(0))

    @property
    def max_value(self) -> Fraction:
        return max(self.per_coordinate)

    @property
    def argmax(self) -> int:
        """Lowest coordinate index attaining the maximum."""
        best = self.max_value
        return next(i for i, v in enumerate(self.per_coordinate) if v == best)


@dataclass(frozen=True)
class BoundaryMeasures:
    """Measures of the 0-side and 1-side vertex boundaries."""

    vb0: Fraction
    vb1: Fraction


def influences(f: BooleanFunction) -> InfluenceProfile:
    counts = kernels.influence_counts(f.words, f.n)
    size = 1 << f.n
    return InfluenceProfile(f.n, tuple(Fraction(int(c), size) for c in counts))


def boundary_measures(f: BooleanFunction) -> BoundaryMeasures:
    c0, c1 = kernels.boundary_counts(f.words, f.n)
    size = 1 << f.n
    return BoundaryMeasures(Fraction(c0, size), Fraction(c1, size))
