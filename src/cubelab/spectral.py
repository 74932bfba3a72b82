"""Exact Fourier expansion over the cube: fast transform, level weights, noise.

Coefficients are kept as integer numerators over the implicit denominator
2^n, so Parseval and every level-weight identity can be asserted with exact
rational equality.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import kernels
from .bfcore import BooleanFunction


class FourierSpectrum:
    """All 2^n coefficients of a Boolean function, subset-mask indexed."""

    __slots__ = ("n", "numerators", "_level_weights")

    def __init__(self, n: int, numerators: np.ndarray):
        self.n = n
        self.numerators = numerators
        self._level_weights = None

    def coefficient(self, mask: int) -> Fraction:
        return Fraction(int(self.numerators[mask]), 1 << self.n)

    def coefficients_level1(self) -> list[Fraction]:
        """f-hat of each singleton, by coordinate."""
        return [self.coefficient(1 << i) for i in range(self.n)]

    def level_weights(self) -> "LevelWeights":
        """W^k at every level, summed on the first call and kept.

        W^k is the sum of the squared numerators at level k over 4^n; the
        kernel squares them a block at a time, so no array of squares is made.
        """
        if self._level_weights is None:
            sums = kernels.squared_level_sums(self.numerators, self.n)
            self._level_weights = LevelWeights(self.n, sums)
        return self._level_weights


class LevelWeights:
    """W[k] = sum of squared coefficients at level k, exact."""

    __slots__ = ("n", "_ints")

    def __init__(self, n: int, per_level_ints):
        self.n = n
        self._ints = list(per_level_ints)

    def level(self, k: int) -> Fraction:
        if not 0 <= k <= self.n:
            raise ValueError(f"level {k} outside 0..{self.n}")
        return Fraction(self._ints[k], 1 << (2 * self.n))

    def cumulative(self, k: int) -> Fraction:
        """W at levels 1..k."""
        if not 0 <= k <= self.n:
            raise ValueError(f"level {k} outside 0..{self.n}")
        return Fraction(sum(self._ints[1 : k + 1]), 1 << (2 * self.n))

    def total(self) -> Fraction:
        return Fraction(sum(self._ints), 1 << (2 * self.n))


def fwht_spectrum(f: BooleanFunction) -> FourierSpectrum:
    """Fast Walsh transform, O(n 2^n); agrees with the defining sum exactly.

    The transform reads the packed words: each chunk of 16 points enters as
    the looked-up transform of its four in-chunk coordinates
    (``kernels.fwht_words``), so no byte per point is unpacked.
    """
    return FourierSpectrum(f.n, kernels.fwht_words(f.words, f.n))


def spectrum_by_definition(f: BooleanFunction) -> FourierSpectrum:
    """Reference O(4^n) transform straight from the defining expectation.

    Kept as the independent second route for transform verification; do not
    fold into fwht_spectrum.
    """
    n = f.n
    size = 1 << n
    masks = np.arange(size, dtype=np.uint32)
    # sign(S, m) = (-1)^popcount(S & ~m)
    pc_table = kernels.popcounts(n).astype(np.int64)  # uint8 would wrap in 1 - 2 * pc
    numerators = np.empty(size, dtype=np.int64)
    tbl = f.table.astype(np.int64)
    for mask in range(size):
        signs = 1 - 2 * (pc_table[(mask & ~masks) & (size - 1)] & 1)
        numerators[mask] = int(np.dot(tbl, signs))
    return FourierSpectrum(n, numerators)


def parseval_holds(f: BooleanFunction, spec: FourierSpectrum | None = None) -> bool:
    """Sum of squared coefficients equals the mean, exactly (0/1-valued f)."""
    spec = spec or fwht_spectrum(f)
    total = int((spec.numerators.astype(np.int64) ** 2).sum())
    return total == f.ones << f.n


def covariance(f: BooleanFunction, g: BooleanFunction) -> Fraction:
    """E[fg] - E[f]E[g], exact."""
    if f.n != g.n:
        raise ValueError(f"arity mismatch: {f.n} vs {g.n}")
    both = kernels.count_ones(f.words & g.words)
    n2 = 1 << f.n
    return Fraction(both * n2 - f.ones * g.ones, n2 * n2)


def noise_stability(f: BooleanFunction, rho, spec: FourierSpectrum | None = None):
    """Cov(f(x), f(y)) for rho-correlated x, y: sum over k>=1 of rho^k W^k.

    Exact Fraction for rational rho, float otherwise.
    """
    _check_rho(rho)
    weights = (spec or fwht_spectrum(f)).level_weights()
    if isinstance(rho, (int, Fraction)):
        rho = Fraction(rho)
        return sum((rho**k) * weights.level(k) for k in range(1, f.n + 1))
    return float(sum(float(weights.level(k)) * rho**k for k in range(1, f.n + 1)))


def noise_sensitivity(f: BooleanFunction, eta: float, spec: FourierSpectrum | None = None) -> float:
    """Probability that independent eta-flips of the input change the output."""
    rho = 1.0 - 2.0 * float(eta)
    stab = noise_stability(f, rho, spec)
    mu = float(f.mean)
    return 2.0 * (mu * (1.0 - mu) - float(stab))


def _check_rho(rho) -> None:
    if not 0 <= float(rho) <= 1:
        raise ValueError(f"correlation parameter {rho} outside [0, 1]")
