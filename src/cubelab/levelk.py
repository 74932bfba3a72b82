"""Level-k machinery: uniform-sum smoothing, symmetric polynomials, and the
degree-k weight pipeline for strongly biased halfspaces.

The k-fold uniform-sum distribution smooths the threshold; its CDF has a
piecewise-constant k-th derivative, which is what makes the degree-k
coefficient averages controllable by elementary symmetric sums of squared
weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .chernoff import FAIL, PASS, SKIPPED, CheckRecord
from .halfspace import Halfspace
from .rational import as_fraction

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


def symmetric_stats(values, m_max: int) -> SymmetricStats:
    vals = tuple(as_fraction(v) for v in values)
    if any(v < 0 for v in vals):
        raise ValueError("values must be nonnegative")
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    # m_max beyond len(vals) is fine: those elementary sums are zero
    elem = [Fraction(0)] * (m_max + 1)
    elem[0] = Fraction(1)
    for v in vals:
        for m in range(m_max, 0, -1):
            elem[m] += v * elem[m - 1]
    power = [Fraction(len(vals))]
    for m in range(1, m_max + 1):
        power.append(sum((v**m for v in vals), Fraction(0)))
    return SymmetricStats(vals, tuple(elem), tuple(power))


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
    """
    a = [as_fraction(v) for v in a]
    s = as_fraction(s)
    m = len(a)
    coeffs = [as_fraction(c) for c in coeffs]
    if len(coeffs) - 1 > m + 1:
        raise ValueError("degree above m+1 needs extremum search")
    total = Fraction(0)
    for mask in range(1 << m):
        signs = [1 if mask >> i & 1 else -1 for i in range(m)]
        prod = 1
        for x in signs:
            prod *= x
        point = s + sum(w * x for w, x in zip(a, signs))
        total += prod * poly_eval(coeffs, point)
    value = total / (1 << m)
    deriv = poly_derivative(coeffs, m)
    reach = sum(a, Fraction(0))
    ends = (poly_eval(deriv, s - reach), poly_eval(deriv, s + reach))
    scale = math.prod(a)
    return value, scale * min(ends), scale * max(ends)


# ---------------------------------------------------------------------------
# degree-k smoothed coefficients

def smoothed_fourier(h: Halfspace, subset, delta, t=None) -> float:
    """Average of the degree-k coefficient of 1{a.x > t + s} when s is drawn
    from delta times the k-fold uniform sum.

    Equals E_x[x^S * G_k((a.x - t)/delta)] by Fubini, which is how it is
    evaluated: one CDF weight per support value of a.x.  The subset holds
    distinct internal (descending-weight) positions 0..h.n-1.
    """
    subset = tuple(sorted(subset))
    k = len(subset)
    if k < 1:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) < k or subset[0] < 0 or subset[-1] >= h.n:
        raise ValueError(f"subset {subset} needs distinct positions in 0..{h.n - 1}")
    delta = as_fraction(delta)
    if delta <= 0:
        raise ValueError("smoothing width must be positive")
    t = h.threshold if t is None else as_fraction(t)
    if h.n > 24:
        raise ValueError("needs the full cube; arity capped at 24")
    vals = kernels.dot_values(h.scaled)
    mask = 0
    for j in subset:
        mask |= 1 << j
    # x^S at every point: x_i for i in S, 1 elsewhere
    signs = kernels.sign_products((-1, 1) if mask >> i & 1 else (1, 1) for i in range(h.n))
    uniq, inverse = np.unique(vals, return_inverse=True)
    signed_counts = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(signed_counts, inverse, signs.astype(np.int64))  # mixed dtypes take a slow path
    weights = _cdf_weights(h, k, uniq, t, delta)
    return float(np.dot(signed_counts, weights)) / (1 << h.n)


def _cdf_weights(h: Halfspace, k: int, uniq: np.ndarray, t: Fraction,
                 delta: Fraction) -> np.ndarray:
    """The k-fold CDF at (v - t)/delta for each distinct scaled value v.

    One scalar call per value: a vectorised power can differ in the last
    ulp, and these weights reach the report.
    """
    t_scaled = float(t * h.scale)
    d_scaled = float(delta * h.scale)
    return np.array([irwin_hall_cdf(k, (float(v) - t_scaled) / d_scaled) for v in uniq])


def smoothed_fourier_lower_bound(h: Halfspace, subset, delta, t=None):
    """(applicable, lower_bound) for the smoothed degree-k coefficient:
    valid once the subset's weight mass A is at most half the width."""
    subset = tuple(subset)
    k = len(subset)
    delta = as_fraction(delta)
    t = h.threshold if t is None else as_fraction(t)
    a_subset = sum((h.weights[j] for j in subset), Fraction(0))
    if 2 * a_subset > delta:
        return False, None
    prod = math.prod(float(h.weights[j]) for j in subset)
    main = h.tail(t + 2 * a_subset)
    correction = Fraction(0)
    for level in range(1, k + 1):
        correction += math.comb(k, level) * h.tail(t + level * delta - 2 * a_subset)
    bound = prod / float(delta) ** k * float(main - correction)
    return True, bound


def elementary_symmetric_pointwise(h: Halfspace, k: int) -> np.ndarray:
    """e_k of (a_j x_j) at every cube point, as scaled int64 (scale^k units)."""
    n = h.n
    biggest = int(max(h.scaled)) if n else 0
    if k >= 1 and math.comb(max(n, 1), k) * biggest**k > 2**62:
        raise OverflowError("elementary symmetric values would overflow int64")
    # layers[d] holds e_d of the coordinates seen so far, doubling with each
    # new one as in kernels.dot_values: e_d + x e_{d-1} at x = -w, then +w
    layers = [np.ones(1, dtype=np.int64)] + [np.zeros(1, dtype=np.int64)] * k
    for w in h.scaled.tolist():
        steps = [0] + [w * e for e in layers[:-1]]
        layers = [np.concatenate([e - s, e + s]) for e, s in zip(layers, steps)]
    return layers[k]


def sign_condition_holds(h: Halfspace, k: int, t=None) -> bool:
    """Exhaustively: the degree-k elementary symmetric form of the signed
    weights is nonnegative on every point the halfspace accepts."""
    t = h.threshold if t is None else as_fraction(t)
    table = (kernels.dot_values(h.scaled) > math.floor(t * h.scale))
    esym = elementary_symmetric_pointwise(h, k)
    return not bool(np.any(table & (esym < 0)))


# ---------------------------------------------------------------------------
# the degree-k weight pipeline

@dataclass
class PipelineReport:
    """Everything the degree-k verification computes for one instance."""

    k: int
    eps: Fraction
    wk: Fraction
    ratio_stat: float           # W^k k! log(2k)^k / (eps^2 log(1/eps)^k)
    influence_stat: float       # I_1 / (eps / k)
    beta: Fraction
    gamma: Fraction
    delta: Fraction
    top_mass: Fraction          # sum of the k largest weights
    coeff_sq_sum: Fraction      # sum over |S|=k of (a^S)^2, l2-normalized
    smoothed_total: float       # M = sum over |S|=k of a^S e_S^delta
    sign_ok: bool
    small_top_ok: bool          # 2k a_1 < beta
    tall_threshold_ok: bool     # t >= 4 sqrt(k) after l2 normalization
    eta_ok: bool                # a_1 <= 1/(16 sqrt(k)) after normalization
    surrogate_ok: bool          # eps below the desk-scale bias threshold
    lower_ok: bool | None
    upper_ok: bool | None


def level_k_pipeline(h: Halfspace, k: int, wk: Fraction) -> PipelineReport:
    """Evaluate the degree-k weight scaffolding on one halfspace of level-k
    Fourier weight wk, which permuting or adding dummy coordinates keeps.

    The two bracketing inequalities around the smoothed total M are asserted
    whenever their own preconditions hold: the lower one needs the top-k
    weight mass to fit under beta, the upper one needs the exhaustive sign
    condition.  The headline ratio is reported, never asserted: its regime
    is far beyond desk scale.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    t = h.threshold
    eps = h.tail(t)
    if eps == 0:
        raise ValueError("empty halfspace")
    if eps > Fraction(1, 2):
        raise ValueError("needs mean at most 1/2")
    norm = h.l2_norm()
    sq_norm = h.sq_norm()

    if h.n > 24:
        raise ValueError("cube scan capped at 24 coordinates")
    if k > h.n:
        raise ValueError(f"level {k} outside 0..{h.n}")
    vals = kernels.dot_values(h.scaled)
    accepts = vals > math.floor(t * h.scale)

    log_inv = math.log(1 / float(eps))
    ratio_stat = (
        float(wk) * math.factorial(k) * math.log(2 * k) ** k
        / (float(eps) ** 2 * log_inv**k)
    )
    i1 = h.influence_internal(0, t)
    influence_stat = float(i1) / (float(eps) / k)

    thresholds = h.decay_thresholds(t, k=k)
    beta, gamma, delta = thresholds.beta, thresholds.gamma, thresholds.delta
    top_mass = sum(h.weights[:k], Fraction(0))

    normalized_sq = [w * w / sq_norm for w in h.weights]
    coeff_sq_sum = symmetric_stats(normalized_sq, k).elementary[k]

    esym_scaled = elementary_symmetric_pointwise(h, k)
    esym = esym_scaled / (float(h.scale) ** k * norm**k)
    if delta > 0:
        uniq, inverse = np.unique(vals, return_inverse=True)
        point_weights = _cdf_weights(h, k, uniq, t, delta)[inverse]
    else:
        point_weights = accepts.astype(np.float64)
    smoothed_total = float(np.dot(esym, point_weights)) / (1 << h.n)

    sign_ok = not bool(np.any(accepts & (esym_scaled < 0)))
    small_top_ok = 2 * k * h.weights[0] < beta
    tall_threshold_ok = float(t) / norm >= 4 * math.sqrt(k)
    eta_ok = float(h.weights[0]) / norm <= 1 / (16 * math.sqrt(k))
    surrogate_ok = eps < Fraction(1, 2 ** (BIAS_CUT_EXPONENT * k))

    lower_ok = None
    if 2 * top_mass < beta and delta > 0:
        lower_bound = float(eps) / (9 * (float(delta) / norm) ** k) * float(coeff_sq_sum)
        lower_ok = smoothed_total >= lower_bound * (1 - 1e-9)
    upper_ok = None
    if sign_ok:
        upper_bound = math.sqrt(float(wk) * float(coeff_sq_sum))
        upper_ok = smoothed_total <= upper_bound * (1 + 1e-9)

    return PipelineReport(
        k, eps, wk, ratio_stat, influence_stat, beta, gamma, delta,
        top_mass, coeff_sq_sum, smoothed_total, sign_ok, small_top_ok,
        tall_threshold_ok, eta_ok, surrogate_ok, lower_ok, upper_ok,
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
    ok = all(asserted)
    return CheckRecord("WK-PIPELINE", instance, report.smoothed_total, None,
                       None, ok, PASS if ok else FAIL, notes)
