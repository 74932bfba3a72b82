"""Correlation with halfspaces built on a function's first Fourier level,
and the bias-aware noise-resistance classification.

The linear form l(x) carried by the first-level coefficients is a step
function over the cube with at most 2^n distinct values, so every
threshold scan below is exhaustive and exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .bfcore import BooleanFunction, is_monotone
from .rational import common_scale, format_fraction
from .spectral import FourierSpectrum, fwht_spectrum, noise_stability


@dataclass(frozen=True)
class LinearForm:
    """First-level coefficients with their exact squared 2-norm."""

    coeffs: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def sq_norm(self) -> Fraction:
        return sum((c * c for c in self.coeffs), Fraction(0))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def scaled_values(self) -> tuple[np.ndarray, int]:
        """l(x) at every cube point, as integers over a common scale."""
        scale = common_scale(self.coeffs)
        ints = np.array([int(c * scale) for c in self.coeffs], dtype=np.int64)
        return kernels.dot_values(ints), scale

    def halfspace_text(self, threshold: Fraction, flips: tuple[int, ...] = ()) -> str:
        signed = [(-c if i in flips else c) for i, c in enumerate(self.coeffs)]
        body = ",".join(format_fraction(c) for c in signed)
        return f"ltf:{body};{format_fraction(threshold)}"


def first_level_form(f: BooleanFunction, spec: FourierSpectrum | None = None) -> LinearForm:
    spec = spec or fwht_spectrum(f)
    return LinearForm(tuple(spec.coefficients_level1()))


@dataclass
class CorrelationResult:
    """Best covariance found in a threshold (or sign-pattern) family."""

    covariance: Fraction
    threshold: Fraction | None
    halfspace_text: str
    degenerate: bool = False
    notes: str = ""


def _cut_covariances(f: BooleanFunction, values: np.ndarray):
    """Covariance of f with 1{values > v} at every distinct value v.

    Returns three arrays over the distinct values in ascending order: v,
    the count of points above v, and the covariance numerator; the
    covariance denominator is 4^n throughout.
    """
    size = 1 << f.n
    sorted_vals = np.sort(values)
    last = np.flatnonzero(np.diff(sorted_vals, append=sorted_vals[-1] + 1))
    v = sorted_vals[last]
    count = size - 1 - last
    # ones of f above v: all ones minus those at or below v
    both = f.ones - np.searchsorted(np.sort(values[f.table != 0]), v, side="right")
    return v, count, both * size - f.ones * count


def best_halfspace_over_form(f: BooleanFunction, form: LinearForm | None = None,
                             spec: FourierSpectrum | None = None) -> CorrelationResult:
    """Exhaustive exact scan of Cov(f, 1{l(x) > t}) over all distinct cuts.

    Ties go to the lowest threshold.  The constant-function cuts are included
    (they contribute covariance zero), so the result is never negative.
    """
    form = form or first_level_form(f, spec)
    if form.is_zero():
        return CorrelationResult(Fraction(0), None, "", degenerate=True,
                                 notes="first level vanishes")
    values, scale = form.scaled_values()
    size = 1 << f.n
    v, count, cov_num = _cut_covariances(f, values)
    # the top value cuts off nothing; argmax takes the lowest of tied cuts
    best = int(np.argmax(cov_num[count > 0]))
    if cov_num[best] < 0:
        return CorrelationResult(Fraction(0), None, "", degenerate=True,
                                 notes="constant cut is optimal")
    cov = Fraction(int(cov_num[best]), size * size)
    threshold = Fraction(int(v[best]), scale)
    return CorrelationResult(cov, threshold, form.halfspace_text(threshold))


def threshold_integral_identity(f: BooleanFunction,
                                form: LinearForm | None = None) -> Fraction:
    """Sum over support steps of Cov(f, cut) times the step width.

    Equals the squared 2-norm of the form exactly: the first-level weight
    when the form comes from f itself.
    """
    form = form or first_level_form(f)
    if form.is_zero():
        return Fraction(0)
    values, scale = form.scaled_values()
    v, _count, cov_num = _cut_covariances(f, values)
    # products and their sum can pass int64 from n = 23: use Python ints
    acc = np.dot(cov_num[:-1].astype(object), np.diff(v).astype(object))
    return Fraction(acc, (1 << (2 * f.n)) * scale)


def unbiased_correlator(f: BooleanFunction, full_scan: bool = False,
                        spec: FourierSpectrum | None = None) -> CorrelationResult:
    """Best covariance with a zero-threshold cut of the first level, over the
    base sign pattern and all single-coordinate sign flips.

    full_scan widens the family to all 2^n sign patterns (n <= 16): the
    existence guarantee for noise-resistant functions lives in that family,
    though one flip suffices in the known hard cases.
    """
    form = first_level_form(f, spec)
    if form.is_zero():
        return CorrelationResult(Fraction(0), None, "", degenerate=True,
                                 notes="first level vanishes")
    values, _ = form.scaled_values()
    size = 1 << f.n
    ones = f.ones
    on = f.table != 0
    # negating c_i reads l at x with x_i negated, so a flipped cut is the base
    # cut with coordinate i's halves swapped: same size, only the ones of f
    # under it are recounted
    cut = values > 0
    count = int(np.count_nonzero(cut))

    def cov_num_for(hit) -> int:
        both = int(np.count_nonzero(hit.reshape(-1) & on))
        return both * size - ones * count

    candidates: list[tuple[int, tuple[int, ...]]] = [(cov_num_for(cut), ())]
    for i in range(f.n):
        candidates.append((cov_num_for(cut.reshape(-1, 2, 1 << i)[:, ::-1]), (i,)))

    if full_scan:
        if f.n > 16:
            raise ValueError("full sign-pattern scan capped at 16 coordinates")
        # gray-code walk: one coordinate flips per step
        hit = cut
        pattern: set[int] = set()
        for g in range(1, 1 << f.n):
            i = (g & -g).bit_length() - 1
            pattern ^= {i}
            hit = hit.reshape(-1, 2, 1 << i)[:, ::-1].reshape(-1)
            candidates.append((cov_num_for(hit), tuple(sorted(pattern))))

    best_num, best_flips = candidates[0]
    for num, flips in candidates[1:]:
        if num > best_num:
            best_num, best_flips = num, flips
    cov = Fraction(best_num, size * size)
    note = "base" if not best_flips else f"flips={best_flips}"
    return CorrelationResult(cov, Fraction(0), form.halfspace_text(Fraction(0), best_flips),
                             notes=note)


@dataclass
class BiasedCorrelation:
    """A strongly biased cut of the normalized first level and its quality."""

    halfspace_text: str
    expectation: Fraction        # E[f * g]
    mean_g: Fraction
    alpha: float
    s: float
    hypothesis_met: bool
    small_mean_ok: bool | None   # mean_g <= eps^(alpha/8)
    expectation_ok: bool | None  # E[fg] >= sqrt(alpha)/8 * eps
    notes: str = ""


def biased_correlator(f: BooleanFunction, alpha: float | None = None,
                      spec: FourierSpectrum | None = None) -> BiasedCorrelation:
    """Cut the normalized first level at s = sqrt(alpha log(1/eps))/2.

    With the first-level weight written as alpha eps^2 log(1/eps), the cut
    is strongly biased yet keeps expectation sqrt(alpha) eps / 8 against f
    whenever alpha is not degenerate.
    """
    spec = spec or fwht_spectrum(f)
    form = first_level_form(f, spec)
    eps = f.mean
    if not 0 < eps < 1:
        raise ValueError("mean must be strictly inside (0, 1)")
    if form.is_zero():
        raise ValueError("first level vanishes")
    w1 = form.sq_norm
    log_inv = math.log(1 / float(eps))
    if alpha is None:
        alpha = float(w1) / (float(eps) ** 2 * log_inv) if log_inv > 0 else math.inf
    s = 0.5 * math.sqrt(max(0.0, alpha) * log_inv) if log_inv > 0 else 0.0

    values, scale = form.scaled_values()
    size = 1 << f.n
    # l(x)/||l|| > s  <=>  l(x) > 0 and l(x)^2 > s^2 W1; squares stay exact
    tau_sq = s * s * float(w1) * scale * scale
    hit = (values > 0) & (values.astype(np.float64) ** 2 > tau_sq)
    mean_g = Fraction(int(np.count_nonzero(hit)), size)
    both = Fraction(int(np.count_nonzero(hit & (f.table != 0))), size)

    hypothesis = eps < Fraction(1, 2) and s > 0 and math.sqrt(alpha) * log_inv > 2 * float(eps)
    small_ok = expect_ok = None
    notes = ""
    if hypothesis:
        small_ok = float(mean_g) <= float(eps) ** (alpha / 8) * (1 + 1e-12)
        expect_ok = float(both) >= math.sqrt(alpha) / 8 * float(eps) * (1 - 1e-12)
    else:
        notes = "hypothesis-not-met"
    text = f"normalized-cut:s={s:.6g};" + form.halfspace_text(Fraction(0))
    return BiasedCorrelation(text, both, mean_g, alpha, s, hypothesis,
                             small_ok, expect_ok, notes)


@dataclass
class NoiseResistanceReport:
    """Bias-aware noise-resistance classification of one function."""

    mean: Fraction
    w1: Fraction
    fourier_stat: float          # W1 / (mu^2 log(1/mu))
    fourier_resistant: bool
    rho: float
    stability: float
    prob_stat: float             # S_rho / mu^2
    monotone: bool
    best_cov_ratio: float | None  # best correlator covariance / mu, monotone only
    notes: str = ""


def noise_resistance_class(f: BooleanFunction, c0: float = 1.0, c: float = 0.05,
                           spec: FourierSpectrum | None = None) -> NoiseResistanceReport:
    mu = f.mean
    if not 0 < mu < 1:
        raise ValueError("mean must be strictly inside (0, 1)")
    spec = spec or fwht_spectrum(f)
    w1 = spec.level_weights().level(1)
    log_inv = math.log(1 / float(mu))
    fourier_stat = float(w1) / (float(mu) ** 2 * log_inv) if log_inv > 0 else math.inf
    notes = ""
    rho = c / log_inv if log_inv > 0 else 1.0
    if rho > 1.0:
        rho = 1.0
        notes = "noise rate clamped at 1"
    stability = float(noise_stability(f, rho, spec))
    prob_stat = stability / float(mu) ** 2
    mono = is_monotone(f)
    best_ratio = None
    if mono:
        best = best_halfspace_over_form(f, spec=spec)
        best_ratio = float(best.covariance) / float(mu)
    return NoiseResistanceReport(mu, w1, fourier_stat, fourier_stat >= c0,
                                 rho, stability, prob_stat, mono, best_ratio, notes)
