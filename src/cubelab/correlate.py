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
from functools import cached_property

import numpy as np

from . import kernels
from .bfcore import BooleanFunction, is_monotone
from .rational import format_fraction, scaled_int64
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
        ints, scale = scaled_int64(self.coeffs)
        return kernels.dot_values(ints), scale

    def halfspace_text(self, threshold: Fraction, flips: tuple[int, ...] = ()) -> str:
        signed = [(-c if i in flips else c) for i, c in enumerate(self.coeffs)]
        body = ",".join(format_fraction(c) for c in signed)
        return f"ltf:{body};{format_fraction(threshold)}"


def first_level_form(f: BooleanFunction, spec: FourierSpectrum | None = None) -> LinearForm:
    spec = spec or fwht_spectrum(f)
    return LinearForm(tuple(spec.coefficients_level1()))


class FirstLevel:
    """A function with its spectrum and a linear form l, by default the
    first-level form, and the arrays the correlators read: l at every cube
    point over a common integer scale, and the cut profile of f along l.
    Each array is built on first use and then kept, so the correlators of
    one member share one copy."""

    def __init__(self, f: BooleanFunction, spec: FourierSpectrum | None = None,
                 form: LinearForm | None = None):
        self.f = f
        self.spec = spec or fwht_spectrum(f)
        self.form = form or first_level_form(f, self.spec)

    @cached_property
    def scaled_values(self) -> tuple[np.ndarray, int]:
        return self.form.scaled_values()

    @cached_property
    def cut_profile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _cut_covariances(self.f, self.scaled_values[0])


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
    # a run of equal values ends where the next value differs
    ends = np.ones(size, dtype=bool)
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=ends[:-1])
    last = np.flatnonzero(ends)
    v = sorted_vals[last]
    count = size - 1 - last
    # ones of f above v: all ones minus those at or below v
    ones_vals = values[f.table.view(bool)]
    ones_vals.sort()
    both = f.ones - np.searchsorted(ones_vals, v, side="right")
    return v, count, both * size - f.ones * count


def best_halfspace_over_form(first: FirstLevel) -> CorrelationResult:
    """Exhaustive exact scan of Cov(f, 1{l(x) > t}) over all distinct cuts.

    Ties go to the lowest threshold.  The constant-function cuts are included
    (they contribute covariance zero), so the result is never negative.
    """
    form = first.form
    if form.is_zero():
        return CorrelationResult(Fraction(0), None, "", degenerate=True,
                                 notes="first level vanishes")
    scale = first.scaled_values[1]
    size = 1 << first.f.n
    v, count, cov_num = first.cut_profile
    # the top value cuts off nothing; argmax takes the lowest of tied cuts
    best = int(np.argmax(cov_num[count > 0]))
    if cov_num[best] < 0:
        return CorrelationResult(Fraction(0), None, "", degenerate=True,
                                 notes="constant cut is optimal")
    cov = Fraction(int(cov_num[best]), size * size)
    threshold = Fraction(int(v[best]), scale)
    return CorrelationResult(cov, threshold, form.halfspace_text(threshold))


def threshold_integral_identity(first: FirstLevel) -> Fraction:
    """Sum over support steps of Cov(f, cut) times the step width.

    Equals the squared 2-norm of the form exactly: the first-level weight
    when the form comes from f itself.
    """
    if first.form.is_zero():
        return Fraction(0)
    scale = first.scaled_values[1]
    v, _count, cov_num = first.cut_profile
    # each partial sum is at most max|cov_num| times the sum of the step
    # widths, v[-1] - v[0]; that can pass int64 from n = 23
    dtype = kernels.exact_int_dtype(int(np.abs(cov_num).max()) * int(v[-1] - v[0]))
    acc = int(np.dot(cov_num[:-1].astype(dtype), np.diff(v).astype(dtype)))
    return Fraction(acc, (1 << (2 * first.f.n)) * scale)


def unbiased_correlator(first: FirstLevel, full_scan: bool = False) -> CorrelationResult:
    """Best covariance with a zero-threshold cut of the first level, over the
    base sign pattern and all single-coordinate sign flips.

    full_scan widens the family to all 2^n sign patterns (n <= 16): the
    existence guarantee for noise-resistant functions lives in that family,
    though one flip suffices in the known hard cases.
    """
    f, form = first.f, first.form
    if form.is_zero():
        return CorrelationResult(Fraction(0), None, "", degenerate=True,
                                 notes="first level vanishes")
    size = 1 << f.n
    # negating c_i reads l at x with x_i negated, so the cut of sign pattern P
    # is the base cut read at m XOR P: same size, only the ones of f under it
    # are recounted
    cut = first.scaled_values[0] > 0
    count = int(np.count_nonzero(cut))
    if full_scan:
        if f.n > 16:
            raise ValueError("full sign-pattern scan capped at 16 coordinates")
        # the XOR convolution sum_m f(m) cut(m ^ P) at every P: fwht = par * H
        # with par(S) = (-1)^|S| and H the Hadamard matrix, so it is
        # par * fwht(F * G) / 2^n for F, G the transforms of f and the cut,
        # exact while 8^n < 2^53 (O'Donnell 2014, section 1.5)
        par = 1 - 2 * (kernels.popcounts(f.n) & 1).astype(np.int64)
        fg = first.spec.numerators.astype(np.int64) * kernels.fwht(cut)
        # base, single flips, then Gray-code order: argmax keeps the first of ties
        gray = np.arange(1, size)
        gray ^= gray >> 1
        patterns = np.concatenate(([0], 1 << np.arange(f.n), gray))
        both = ((par * kernels.fwht(fg)) >> f.n)[patterns]
    else:
        on = f.table.view(bool)
        patterns = [0] + [1 << i for i in range(f.n)]
        hits = [cut] + [cut.reshape(-1, 2, 1 << i)[:, ::-1] for i in range(f.n)]
        both = [int(np.count_nonzero(hit.reshape(-1) & on)) for hit in hits]
    best = int(np.argmax(both))  # the first of tied patterns
    flips = tuple(i for i in range(f.n) if int(patterns[best]) >> i & 1)
    cov = Fraction(int(both[best]) * size - f.ones * count, size * size)
    note = "base" if not flips else f"flips={flips}"
    return CorrelationResult(cov, Fraction(0), form.halfspace_text(Fraction(0), flips),
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


def biased_correlator(first: FirstLevel) -> BiasedCorrelation:
    """Cut the normalized first level at s = sqrt(alpha log(1/eps))/2.

    With the first-level weight written as alpha eps^2 log(1/eps), the cut
    is strongly biased yet keeps expectation sqrt(alpha) eps / 8 against f
    whenever alpha is not degenerate.
    """
    f, form = first.f, first.form
    eps = f.mean
    if not 0 < eps < 1:
        raise ValueError("mean must be strictly inside (0, 1)")
    if form.is_zero():
        raise ValueError("first level vanishes")
    w1 = form.sq_norm
    log_inv = math.log(1 / float(eps))
    alpha = float(w1) / (float(eps) ** 2 * log_inv) if log_inv > 0 else math.inf
    s = 0.5 * math.sqrt(max(0.0, alpha) * log_inv) if log_inv > 0 else 0.0

    scale = first.scaled_values[1]
    size = 1 << f.n
    # l(x)/||l|| > s  <=>  l(x) > 0 and l(x)^2 > s^2 W1; squares stay exact.
    # That is decided once per distinct value v, and the profile counts the
    # points and the ones of f at each v
    v, count, cov_num = first.cut_profile
    tau_sq = s * s * float(w1) * scale * scale
    hit = (v > 0) & (v.astype(np.float64) ** 2 > tau_sq)
    ones_above = (cov_num + f.ones * count) >> f.n
    points_at = -np.diff(count, prepend=size)
    ones_at = -np.diff(ones_above, prepend=f.ones)
    mean_g = Fraction(int(points_at[hit].sum()), size)
    both = Fraction(int(ones_at[hit].sum()), size)

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


def noise_resistance_class(first: FirstLevel, c0: float = 1.0,
                           c: float = 0.05) -> NoiseResistanceReport:
    f, spec = first.f, first.spec
    mu = f.mean
    if not 0 < mu < 1:
        raise ValueError("mean must be strictly inside (0, 1)")
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
        best = best_halfspace_over_form(first)
        best_ratio = float(best.covariance) / float(mu)
    return NoiseResistanceReport(mu, w1, fourier_stat, fourier_stat >= c0,
                                 rho, stability, prob_stat, mono, best_ratio, notes)
