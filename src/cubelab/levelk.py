"""Level-k machinery: uniform-sum smoothing, symmetric polynomials, and the
degree-k weight pipeline for strongly biased halfspaces.

The k-fold uniform-sum distribution smooths the threshold; its CDF has a
piecewise-constant k-th derivative, which is what makes the degree-k
coefficient averages controllable by elementary symmetric sums of squared
weights.

The sign condition (e_k >= 0 wherever the halfspace accepts) is decided
from Newton's identities and the halfspace's distribution, with no array
over the cube; only the pipeline's smoothed total reads a ``CubeScan``,
whose dot values take their smoothing weights from the few support values
strictly inside the threshold window, and 0 or 1 outside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import kernels
from .bfcore import TABLE_CAP
from .chernoff import SKIPPED, CheckRecord
from .halfspace import Halfspace, memoized
from .rational import as_fraction, common_scale

LEVELS = (2, 3)  # the degrees k of the level-k checks

# the desk-scale bias cut eps < 2^(-BIAS_CUT_EXPONENT * k) of the degree-k checks
BIAS_CUT_EXPONENT = 9


# ---------------------------------------------------------------------------
# uniform-sum (k-fold) distribution

def irwin_hall_cdf(k: int, x: float) -> float:
    """CDF of the sum of k independent U(0,1) variables, double precision
    with absolute error below 1e-12 for k <= 12.

    The alternating series cancels catastrophically as k grows: compensated
    float summation carries it to k = 8, beyond which the series is summed
    exactly over the rational value of x and rounded once at the end.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    x = float(x)
    if x <= 0:
        return 0.0
    if x >= k:
        return 1.0
    if k > 8:
        return float(irwin_hall_cdf_exact(k, Fraction(x)))
    total = 0.0
    carry = 0.0
    for j in range(int(math.floor(x)) + 1):
        term = (-1.0) ** j * math.comb(k, j) * (x - j) ** k
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total / math.factorial(k)


def irwin_hall_cdf_exact(k: int, x) -> Fraction:
    """Exact rational evaluation at a rational point, for cross-validation."""
    if k < 1:
        raise ValueError("need k >= 1")
    x = as_fraction(x)
    if x <= 0:
        return Fraction(0)
    if x >= k:
        return Fraction(1)
    total = Fraction(0)
    for j in range(int(x) + 1):
        total += (-1) ** j * math.comb(k, j) * (x - j) ** k
    return total / math.factorial(k)


def irwin_hall_density_step(k: int, x: float) -> float:
    """The k-th derivative of the k-fold CDF at a non-lattice point:
    (-1)^floor(x) * C(k-1, floor(x)) inside (0, k), zero outside."""
    if x <= 0 or x >= k:
        return 0.0
    j = int(math.floor(x))
    return (-1.0) ** j * math.comb(k - 1, j)


def central_difference(k: int, x: float, h: float) -> float:
    """k-th central finite difference of the k-fold CDF, step h."""
    acc = 0.0
    for j in range(k + 1):
        acc += (-1.0) ** j * math.comb(k, j) * irwin_hall_cdf(k, x + (k / 2 - j) * h)
    return acc / h**k


def derivative_law_residual(k: int, x: float) -> tuple[float, float]:
    """(finite difference, step value) at a point x strictly inside a lattice
    cell.  The step is chosen as wide as the cell allows: the CDF is a single
    degree-k polynomial there, so only float rounding separates the two.
    """
    frac = x - math.floor(x)
    if not 0 < frac < 1:
        raise ValueError("x must be a non-lattice point")
    h = 1.9 * min(frac, 1 - frac) / k
    return central_difference(k, x, h), irwin_hall_density_step(k, x)


# ---------------------------------------------------------------------------
# symmetric polynomial statistics

@dataclass(frozen=True)
class SymmetricStats:
    """Elementary symmetric sums e_m and power sums s_m of a weight vector."""

    values: tuple[Fraction, ...]
    elementary: tuple[Fraction, ...]  # e_0 .. e_mmax
    power: tuple[Fraction, ...]       # s_0 (= len) .. s_mmax

    def newton_girard_residual(self, m: int) -> Fraction:
        """m*e_m minus the alternating power-sum expansion; zero when exact."""
        if not 1 <= m < len(self.elementary):
            raise ValueError("m outside computed range")
        acc = Fraction(0)
        for i in range(1, m + 1):
            acc += (-1) ** (i - 1) * self.power[i] * self.elementary[m - i]
        return m * self.elementary[m] - acc


def _elementary_ints(ints, m_max: int) -> list[int]:
    """e_0 .. e_m_max of nonnegative Python ints, by the one-value-at-a-time DP."""
    elem = [1] + [0] * m_max
    for v in ints:
        for m in range(m_max, 0, -1):
            elem[m] += v * elem[m - 1]
    return elem


def symmetric_stats(values, m_max: int) -> SymmetricStats:
    """Elementary and power sums up to degree m_max, exactly.

    The values are written over one common denominator D, so both kinds of
    sum run over Python ints and degree m is divided by D^m once.
    """
    vals = tuple(as_fraction(v) for v in values)
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    # m_max beyond len(vals) is fine: those elementary sums are zero
    den = common_scale(vals)
    ints = [v.numerator * (den // v.denominator) for v in vals]
    power = [sum(p**m for p in ints) for m in range(m_max + 1)]  # p^0 = 1 counts the values

    def over_den(sums) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, den**m) for m, x in enumerate(sums))

    return SymmetricStats(vals, over_den(_elementary_ints(ints, m_max)), over_den(power))


def elementary_chain_check(stats: SymmetricStats, k: int):
    """Under s_1 = 1 and the geometric decay s_{i+1} <= s_i/(4k), every
    e_{m-1} is at most 2m e_m for m <= k, forcing e_k >= 2^(1-k)/k!.

    Returns (hypotheses_met, chain_holds, e_k, lower_bound).
    """
    if k < 1 or k >= len(stats.elementary):
        raise ValueError("k outside computed range")
    hyp = stats.power[1] == 1 and all(
        stats.power[i + 1] * (4 * k) <= stats.power[i] for i in range(1, k)
    )
    chain = all(stats.elementary[m - 1] <= 2 * m * stats.elementary[m] for m in range(1, k + 1))
    bound = Fraction(2) ** (1 - k) / math.factorial(k)
    return hyp, chain, stats.elementary[k], bound


# ---------------------------------------------------------------------------
# signed polynomial expectations (degree bound checks)

def poly_derivative(coeffs, times: int):
    """Derivative of a polynomial given by ascending rational coefficients."""
    out = [as_fraction(c) for c in coeffs]
    for _ in range(times):
        out = [i * c for i, c in enumerate(out)][1:]
        if not out:
            out = [Fraction(0)]
    return out


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def signed_poly_expectation(coeffs, a, s):
    """E over sign vectors of prod(x) * g(s + a.x), exactly, with the
    enclosing derivative bounds prod(a) * [min, max] of g^(m) on the closed
    reach [s - sum(a), s + sum(a)].

    Only polynomials of degree at most m+1 are supported, where the m-th
    derivative is monotone and the closed-interval extremes are exact.

    The mean of x * g(y + w x) over x = +-1 is half the central difference
    g(y + w) - g(y - w), a polynomial in y (``_half_difference``), so the
    expectation is the value at s of m of them, one per a_i.
    """
    a = [as_fraction(v) for v in a]
    s = as_fraction(s)
    m = len(a)
    coeffs = [as_fraction(c) for c in coeffs]
    if len(coeffs) - 1 > m + 1:
        raise ValueError("degree above m+1 needs extremum search")
    diff = coeffs
    for w in a:
        diff = _half_difference(diff, w)
    value = poly_eval(diff, s)
    deriv = poly_derivative(coeffs, m)
    reach = sum(a, Fraction(0))
    ends = (poly_eval(deriv, s - reach), poly_eval(deriv, s + reach))
    scale = math.prod(a)
    return value, scale * min(ends), scale * max(ends)


def _half_difference(coeffs: list[Fraction], w: Fraction) -> list[Fraction]:
    """(g(y + w) - g(y - w)) / 2 for g of ascending coefficients c_i: the
    sum over i and odd j of C(i, j) w^j c_i y^(i - j), one degree lower."""
    out = [Fraction(0)] * max(len(coeffs) - 1, 1)
    for i, c in enumerate(coeffs):
        for j in range(1, i + 1, 2):
            out[i - j] += math.comb(i, j) * w**j * c
    return out


# ---------------------------------------------------------------------------
# smoothing weights and the cube's elementary symmetric values

def _point_weights(h: Halfspace, k: int, values: np.ndarray, t: Fraction,
                   delta: Fraction) -> np.ndarray:
    """The k-fold CDF at (v - t)/delta for each scaled dot value v.

    x = (v - t)/delta is taken over the distinct values of a.x in one pass.
    The CDF is 0 at x <= 0 and 1 at x >= k, so only the window of values
    with 0 < x < k gets a call, one scalar call per value (a vectorised
    power can differ in the last ulp, and these weights reach the report),
    and only the points inside it are looked up in the window.  The window
    is cut by x, not by the weights, which may round to 0 or 1 inside it.
    """
    uniq = h.support().values
    x = (uniq.astype(np.float64) - float(t * h.scale)) / float(delta * h.scale)
    lo, hi = np.searchsorted(x, 0.0, side="right"), np.searchsorted(x, float(k))
    weights = (values >= uniq[hi]).astype(np.float64) if hi < len(uniq) else np.zeros(len(values))
    if lo < hi:
        window = uniq[lo:hi]
        inside = values >= window[0]
        inside &= values <= window[-1]
        cdf = np.array([irwin_hall_cdf(k, v) for v in x[lo:hi]])
        weights[inside] = cdf[np.searchsorted(window, values[inside])]
    return weights


def elementary_symmetric_pointwise(h: Halfspace, k: int) -> dict[int, np.ndarray]:
    """e_1 .. e_k of (a_j x_j) at every cube point, keyed by level, as scaled
    int64 (e_d in scale^d units), from the one doubling fill of
    ``kernels.elementary_symmetric``; ``e_k_fits`` tells which layers fit."""
    return dict(enumerate(kernels.elementary_symmetric(h.scaled, k), 1))


def e_k_fits(h: Halfspace, k: int) -> bool:
    """Whether e_k of (a_j x_j) fits int64 at every cube point: |e_k| is at
    most C(n, k) max^k there, which is 0 above the arity."""
    biggest = int(max(h.scaled)) if h.n else 0
    return k < 1 or math.comb(max(h.n, 1), k) * biggest**k <= 2**62


class CubeScan:
    """A halfspace's arrays over the whole cube, built on first use and then
    kept for as long as the scan lives: the elementary symmetric layers e_k
    of (a_j x_j) for k in 1..max(LEVELS), whose e_1 is the scaled dot values
    a.x, from which the pipeline's point weights are read.  WK-PIPELINE
    builds one per member, which both levels read and which is freed when
    the check returns."""

    def __init__(self, h: Halfspace):
        self.h = h

    @cached_property
    def layers(self) -> dict[int, np.ndarray]:
        """e_1 .. e_top from one pass, top the highest level up to
        max(LEVELS) whose values fit int64, and at least 1."""
        top = max((k for k in range(2, max(LEVELS) + 1) if e_k_fits(self.h, k)), default=1)
        return elementary_symmetric_pointwise(self.h, top)

    @property
    def values(self) -> np.ndarray:
        """The scaled dot values a.x: the layer e_1."""
        return self.layers[1]

    def esym(self, k: int) -> np.ndarray:
        """e_k at every cube point; refused when its values could overflow int64."""
        if not e_k_fits(self.h, k):
            raise OverflowError("elementary symmetric values would overflow int64")
        return self.layers[k]


def sign_condition_holds(h: Halfspace, k: int) -> bool:
    """Whether e_k of (a_j x_j) is nonnegative at every point the halfspace
    accepts, for k <= 3, from Newton's identities in v = a.x and the power
    sums p_m = sum (s_j x_j)^m of the scaled weights s_j; no cube is read.

    e_1 = v, and 2 e_2 = v^2 - p_2, where p_2 = sum s_j^2 at every point:
    each is negative exactly on a window of v, so levels 1 and 2 are two
    tail counts of the distribution, on either backend.  Level 3 is
    ``_third_level_holds``.  Refused, as the cube's layers are, where
    ``e_k_fits`` is false; above the arity e_k is 0 and the condition holds.
    The verdict is kept in the halfspace's memo, so SIGN-COND and
    WK-PIPELINE decide each (member, k) once.
    """
    if not e_k_fits(h, k):
        raise OverflowError("elementary symmetric values would overflow int64")
    return _sign_condition(h, k)


@memoized
def _sign_condition(h: Halfspace, k: int) -> bool:
    if k > h.n:
        return True
    cut = h.cut()
    if k == 3:
        return _third_level_holds(h, cut)
    if k == 1:
        lo, hi = cut, -1
    elif k == 2:
        r = math.isqrt(sum(s * s for s in h.scaled.tolist()) - 1)  # v^2 < p_2 as |v| <= r
        lo, hi = max(cut, -r - 1), r
    else:
        raise ValueError(f"sign condition by identity only for k <= 3, not {k}")
    dist = h.distribution()
    return lo >= hi or dist.count_gt_scaled(lo) == dist.count_gt_scaled(hi)


def _third_level_holds(h: Halfspace, cut: int) -> bool:
    """The sign condition at k = 3 from 6 e_3 = v^3 - 3 v p_2 + 2 p_3.

    The points where the +1 weights sum to s have v = 2s - T, T = sum s_j,
    and the least p_3 among them is 2 low[s] - P_3, where P_3 = sum s_j^3
    and low[s] is the least sum of s_j^3 over the subsets summing to s.
    Every reachable s and its low[s] come from the 2^n subsets when there
    are no more of them than subset sums, T + 1 (``_least_cubes_enumerated``,
    the small cube that ``halfspace._dense`` leaves to a split), and from a
    min-plus DP over the sums otherwise (``_least_cubes_dp``); the
    condition is read at the reachable s above the cut.
    """
    weights = h.scaled.tolist()
    total = sum(weights)
    p2 = sum(w * w for w in weights)
    p3 = sum(w**3 for w in weights)
    # e_k_fits(h, 3) bounds C(n, 3) max^3 by 2^62, so P_3 <= n max^3 <= 3 * 2^62 fits uint64
    if 1 << len(weights) <= total + 1:
        values, low = _least_cubes_enumerated(weights)
    else:
        values, low = _least_cubes_dp(weights, p3)
    above = values > cut
    # |v| <= T, p_2 <= T^2 and p_3 <= T^3, so every partial sum is at most 7 T^3 in size
    dtype = kernels.exact_int_dtype(8 * total**3)
    v = values[above].astype(dtype)
    least = low[above].astype(dtype)
    return not bool(np.any(v * (v * v - 3 * p2) + 4 * least - 2 * p3 < 0))


def _least_cubes_enumerated(weights: list[int]):
    """The distinct values v = 2s - T of the 2^n points ascending, and the
    least sum of s_j^3 over the subsets of sum s at each, as uint64: the
    cube sums by one doubling fill (point m's bits are its subset, as in
    ``kernels.dot_values``), then the least of each run of equal v."""
    values = kernels.dot_values(np.array(weights, dtype=np.int64))
    cubes = np.zeros(len(values), dtype=np.uint64)
    h = 1
    for w in weights:
        np.add(cubes[:h], w**3, out=cubes[h : 2 * h])
        h *= 2
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    return values[starts], np.minimum.reduceat(cubes[order], starts)


def _least_cubes_dp(weights: list[int], p3: int):
    """The reachable subset sums s as v = 2s - T, ascending, and the least
    sum of s_j^3 over the subsets of sum s at each, as uint64: one min-plus
    DP over the T + 1 subset sums that adds the weights ascending, each step
    on the live prefix (the sums reached so far).  An unreached sum holds
    P_3 + 1, and each step is clipped to it, so uint64 holds every cell."""
    total = sum(weights)
    low = np.full(total + 1, p3 + 1, dtype=np.uint64)
    low[0] = 0
    top = 0  # the largest subset sum reached
    for w in sorted(weights):
        step = np.minimum(low[: top + 1], p3 + 1 - w**3)
        step += w**3
        np.minimum(low[w : top + w + 1], step, out=low[w : top + w + 1])
        top += w
    sums = np.flatnonzero(low <= p3)
    return 2 * sums - total, low[sums]


# ---------------------------------------------------------------------------
# the degree-k weight pipeline

class Hypotheses:
    """The four hypotheses under which SIGN-COND and the degree-k pipeline
    assert, for one halfspace and level k.  Each is decided when read, and
    all() reads them in order and stops at the first false one, so a member
    whose bias misses the cut runs no delta search for beta."""

    def __init__(self, h: Halfspace, k: int):
        self.h, self.k = h, k

    @property
    def surrogate_ok(self) -> bool:
        """eps below the desk-scale bias cut 2^(-BIAS_CUT_EXPONENT k)"""
        return self.h.mean() < Fraction(1, 2 ** (BIAS_CUT_EXPONENT * self.k))

    @property
    def eta_ok(self) -> bool:
        """a_1 <= 1/(16 sqrt(k)) after l2 normalization"""
        return float(self.h.weights[0]) / self.h.l2_norm() <= 1 / (16 * math.sqrt(self.k))

    @property
    def small_top_ok(self) -> bool:
        """2k a_1 < beta"""
        return 2 * self.k * self.h.weights[0] < self.h.decay_thresholds(k=self.k).beta

    @property
    def tall_threshold_ok(self) -> bool:
        """t >= 4 sqrt(k) after l2 normalization"""
        return float(self.h.threshold) / self.h.l2_norm() >= 4 * math.sqrt(self.k)

    def all(self) -> bool:
        return (self.surrogate_ok and self.eta_ok and self.small_top_ok
                and self.tall_threshold_ok)


@dataclass
class PipelineReport:
    """Everything the degree-k verification computes for one instance."""

    k: int
    eps: Fraction
    wk: Fraction
    ratio_stat: float           # W^k k! log(2k)^k / (eps^2 log(1/eps)^k)
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    top_mass: Fraction          # sum of the k largest weights
    coeff_sq_sum: Fraction      # sum over |S|=k of (a^S)^2, l2-normalized
    smoothed_total: float       # M = sum over |S|=k of a^S e_S^delta
    sign_ok: bool
    small_top_ok: bool          # the four Hypotheses
    tall_threshold_ok: bool
    eta_ok: bool
    surrogate_ok: bool
    lower_ok: bool | None
    upper_ok: bool | None


def level_k_pipeline(cube: CubeScan, k: int, wk: Fraction) -> PipelineReport:
    """Evaluate the degree-k weight scaffolding on the cube scan's halfspace
    of level-k Fourier weight wk, which permuting or adding dummy
    coordinates keeps.

    The two bracketing inequalities around the smoothed total M are asserted
    whenever their own preconditions hold: the lower one needs the top-k
    weight mass to fit under beta, the upper one needs the sign condition.
    The headline ratio is reported, never asserted: its regime is far
    beyond desk scale.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    h = cube.h
    t = h.threshold
    eps = h.tail(t)
    if eps == 0:
        raise ValueError("empty halfspace")
    if eps > Fraction(1, 2):
        raise ValueError("needs mean at most 1/2")
    norm = h.l2_norm()

    if h.n > TABLE_CAP:
        raise ValueError(f"cube scan capped at {TABLE_CAP} coordinates")
    if k > h.n:
        raise ValueError(f"level {k} outside 0..{h.n}")

    log_inv = math.log(1 / float(eps))
    ratio_stat = (
        float(wk) * math.factorial(k) * math.log(2 * k) ** k
        / (float(eps) ** 2 * log_inv**k)
    )

    thresholds = h.decay_thresholds(t, k=k)
    # delta >= beta > 0: a tail count F(t) > 0 exceeds F(t)/3
    beta, gamma, delta = thresholds.beta, thresholds.gamma, thresholds.delta
    top_mass = sum(h.weights[:k], Fraction(0))

    # e_k of the squared weights over |a|^2, each weight s_j / scale
    squares = [s * s for s in h.scaled.tolist()]
    coeff_sq_sum = Fraction(_elementary_ints(squares, k)[k], sum(squares) ** k)

    # the weights first, so their temporaries are gone before the float e_k is made
    point_weights = _point_weights(h, k, cube.values, t, delta)
    esym = cube.esym(k) / (float(h.scale) ** k * norm**k)
    smoothed_total = float(np.dot(esym, point_weights)) / (1 << h.n)

    sign_ok = sign_condition_holds(h, k)

    lower_ok = None
    if 2 * top_mass < beta:
        lower_bound = float(eps) / (9 * (float(delta) / norm) ** k) * float(coeff_sq_sum)
        lower_ok = smoothed_total >= lower_bound * (1 - 1e-9)
    upper_ok = None
    if sign_ok:
        upper_bound = math.sqrt(float(wk) * float(coeff_sq_sum))
        upper_ok = smoothed_total <= upper_bound * (1 + 1e-9)

    hyp = Hypotheses(h, k)
    return PipelineReport(
        k, eps, wk, ratio_stat, beta, gamma, delta,
        top_mass, coeff_sq_sum, smoothed_total, sign_ok, hyp.small_top_ok,
        hyp.tall_threshold_ok, hyp.eta_ok, hyp.surrogate_ok, lower_ok, upper_ok,
    )


def pipeline_record(report: PipelineReport, instance: str = "") -> CheckRecord:
    """Condense a pipeline report into one harness check record."""
    asserted = [ok for ok in (report.lower_ok, report.upper_ok) if ok is not None]
    notes = (
        f"k={report.k} R={report.ratio_stat:.4g} sign={report.sign_ok} "
        f"2ka1<beta={report.small_top_ok} tall_t={report.tall_threshold_ok} "
        f"eta={report.eta_ok} surrogate={report.surrogate_ok}"
    )
    if not asserted:
        return CheckRecord("WK-PIPELINE", instance, report.smoothed_total, None,
                           None, True, SKIPPED, notes)
    return CheckRecord.verdict("WK-PIPELINE", instance, all(asserted), report.smoothed_total,
                               notes=notes)
