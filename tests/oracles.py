"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately naive: plain Python loops over all points,
subsets or sign patterns, so the fast paths in the package are checked
against a second route that shares no code with them.  The numpy routes
are the package's former kernels, kept as the slow routes of their
replacements: ``butterfly_walsh`` and ``masked_level_sums`` (int64) of the
float32/float64 Walsh and blockwise squared level-sum kernels
(``masked_level_sums`` also sums the signed terms of the tests' noise
operator), the ``halves_*`` scans (one uint8 byte per point) of the
bit-packed table scans, and the ``gather_*`` characters (a popcount table
indexed by 2^n masks) of the doubling ``sign_products``, on which
``smoothed_fourier`` and ``smoothed_fourier_lower_bound`` (the smoothed
degree-k coefficient and its lower bound, which no program path reads)
are built, ``index_unbiased_correlator`` (one int64 sign array per coordinate,
and a Gray-code walk that recounts every sign pattern) of the
swapped-halves sign-flip scan and the full scan by one XOR convolution,
``per_point_biased_correlator`` (l read at every point in float64) of
PROP93's cut read from the cut profile, ``table_level_weight`` (a truth table of
the halfspace's own, Walsh-transformed) of the level-k pipeline's W^k,
``full_width_sum_prefixes`` (every cell of every prefix's counts) of the
half-width subset-sum DP, ``pairwise_support_window`` (a dict filled
pair by pair) of a split's whole support and of ``support_window`` (the
former window query of both forms), on which ``window_smoothed_influence``
(each support value's overlap summed in object arrays) is the slow route
of the smoothed influence by four first-moment tails, and
``two_window_suffix_counts`` (two searches per suffix and side) of a
split's boundary counts by one tail count per suffix,
``mitm_count_ge`` (the halves' values and counts summed in Python ints,
one value at a time) of its
blocked tail counts,
``bisect_first_value_tail_le`` (a bisection of the integer range, one tail
count per step) of both backends' delta searches,
``per_point_influence_counts`` (each half's points searched in their own
order, one strided sum per coordinate) of a split's influence counts in
sorted key order, ``all_plus`` (a
new table cleared one strided sweep per coordinate) of the in-place
subcube write, and ``swept_decay_violations`` (a pointer sweep in Python
ints) of COR36's prefix-minimum count, ``per_k_elementary_symmetric``
(one doubling pass per level) of the shared e_k layers, on which
``scanned_sign_condition`` (every accepted point's e_k read) is the slow
route of the sign condition by Newton's identities, and
``fraction_symmetric_stats`` (Fraction sums term by term) of the sums over
one common denominator.  ``check_log_concavity`` and
``check_log_concave_exp`` (LEM111's and LEM42's sides as Fractions of the
tail probabilities, LEM42's raised to the power l) are the slow routes of
those checks' comparisons of integer tail counts,
``per_coordinate_small_class_sums`` (one reduced distribution per small
coordinate) of PROP5's sums by the identity sum_j a_j Inf_j =
2 E[f a.x], and ``two_pass_gauss_worst`` (every support value read twice,
with the strict and the non-strict tail) of GAUSS-EATON's one-pass sweep.
``cdf_weights`` (one scalar CDF call per support value) and
``class_point_weights`` (every point's class found by one search of all
2^n dot values) are the slow routes of the level-k pipeline's point
weights read from the threshold window, and
``fraction_signed_poly_expectation`` (a Fraction per point) of FDERIV's
sum over one common denominator.
The scalar flip maps (``suffix_flip`` through
``interval_shift_map``, one tuple of Fractions at a time, raising
``DomainError`` outside their domains) are the slow route of the batched
int64 maps in ``flips``, which the tests alone use.
"""

from fractions import Fraction
from itertools import combinations, product
import math
from math import comb, floor

import numpy as np

from cubelab import kernels
from cubelab.bfcore import from_truth_table
from cubelab.chernoff import CheckRecord
from cubelab.correlate import BiasedCorrelation, CorrelationResult, first_level_form
from cubelab.halfspace import TailDistribution, _sorted_suffix_sums
from cubelab.levelk import SymmetricStats, irwin_hall_cdf, poly_derivative, poly_eval
from cubelab.spectral import fwht_spectrum


def point_signs(m: int, n: int):
    return tuple(1 if (m >> i) & 1 else -1 for i in range(n))


def brute_coefficient(f, subset) -> Fraction:
    table = f.table
    total = 0
    for m in range(1 << f.n):
        x = point_signs(m, f.n)
        sign = 1
        for i in subset:
            sign *= x[i]
        total += sign * int(table[m])
    return Fraction(total, 1 << f.n)


def brute_spectrum(f) -> dict[int, Fraction]:
    out = {}
    for k in range(f.n + 1):
        for subset in combinations(range(f.n), k):
            mask = 0
            for i in subset:
                mask |= 1 << i
            out[mask] = brute_coefficient(f, subset)
    return out


def brute_influence(f, i: int) -> Fraction:
    table = f.table
    count = 0
    for m in range(1 << f.n):
        if table[m] != table[m ^ (1 << i)]:
            count += 1
    return Fraction(count, 1 << f.n)


def brute_boundary(f, lam: int) -> Fraction:
    table = f.table
    count = 0
    for m in range(1 << f.n):
        if int(table[m]) != lam:
            continue
        if any(int(table[m ^ (1 << i)]) != lam for i in range(f.n)):
            count += 1
    return Fraction(count, 1 << f.n)


def brute_is_monotone(f) -> bool:
    table = f.table
    for m in range(1 << f.n):
        for i in range(f.n):
            if not m >> i & 1:
                if table[m] > table[m | (1 << i)]:
                    return False
    return True


def brute_sum_counts(weights) -> dict[Fraction, int]:
    """Exact distribution of sum(w_i x_i) by enumerating sign patterns."""
    weights = [Fraction(w) for w in weights]
    out: dict[Fraction, int] = {}
    for signs in product((-1, 1), repeat=len(weights)):
        s = sum(w * x for w, x in zip(weights, signs))
        out[s] = out.get(s, 0) + 1
    return out


def full_width_sum_prefixes(weights):
    """Yield the subset-sum counts of weights[:k] for k = 0, 1, ..., n, each
    over all sum(weights) + 1 cells (zero past that prefix's sum), as a new
    array: the package's former DP, which filled every cell up to each
    prefix's sum, kept as the slow route of the half-width
    ``kernels.subset_sum_prefixes``.  int64 up to 62 weights, Python ints
    past them."""
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    dtype = np.int64 if len(weights) <= 62 else object
    cur = np.zeros(int(weights.sum()) + 1, dtype=dtype)
    cur[0] = 1
    top = 0  # largest subset sum reached; the counts are zero above it
    yield cur
    for w in weights.tolist():
        nxt = cur.copy()
        nxt[w : top + w + 1] += cur[: top + 1]
        cur, top = nxt, top + w
        yield cur


def brute_tail(weights, t) -> Fraction:
    counts = brute_sum_counts(weights)
    t = Fraction(t)
    hits = sum(c for v, c in counts.items() if v > t)
    return Fraction(hits, 1 << len(list(weights)))


def brute_interval(weights, lo, hi, include_lo=False, include_hi=True) -> Fraction:
    counts = brute_sum_counts(weights)
    lo, hi = Fraction(lo), Fraction(hi)
    hits = 0
    for v, c in counts.items():
        ok_lo = v >= lo if include_lo else v > lo
        ok_hi = v <= hi if include_hi else v < hi
        if ok_lo and ok_hi:
            hits += c
    return Fraction(hits, 1 << len(list(weights)))


def brute_smoothed_influence(weights, t, i, delta) -> Fraction:
    """Exact Uniform(0, delta) average of the influence, via breakpoints of
    the reduced-sum support (built by enumeration, not by the package)."""
    weights = [Fraction(w) for w in weights]
    t, delta = Fraction(t), Fraction(delta)
    w_i = weights[i]
    reduced = [w for j, w in enumerate(weights) if j != i]
    counts = brute_sum_counts(reduced)
    total = Fraction(0)
    for v, c in counts.items():
        # I_i(f_{t+s}) counts this atom while t + s - w_i < v <= t + s + w_i
        lo = v - t - w_i
        hi = v - t + w_i
        overlap = min(hi, delta) - max(lo, Fraction(0))
        if overlap > 0:
            total += c * overlap
    return total / (delta * (1 << len(reduced)))


def two_weight_boundary(heavy, n_heavy, light, n_light, t) -> Fraction:
    """1-side vertex boundary of 1{w.x > t} for n_heavy weights `heavy` and
    n_light weights `light` (heavy >= light > 0).

    Counted by the numbers p and q of +1 heavy and light coordinates: a point
    with sum S > t is on the boundary iff flipping its heaviest +1 coordinate,
    the largest drop on offer, takes the sum to t or below.
    """
    heavy, light, t = Fraction(heavy), Fraction(light), Fraction(t)
    count = 0
    for p in range(n_heavy + 1):
        for q in range(n_light + 1):
            s = heavy * (2 * p - n_heavy) + light * (2 * q - n_light)
            if s <= t or p + q == 0:
                continue
            heaviest = heavy if p else light
            if s - 2 * heaviest <= t:
                count += comb(n_heavy, p) * comb(n_light, q)
    return Fraction(count, 1 << (n_heavy + n_light))


def two_weight_heavy_influence(heavy, n_heavy, light, n_light, t) -> Fraction:
    """Influence of one heavy coordinate of the same two-weight halfspace:
    it decides the value iff the other coordinates sum into (t - heavy, t + heavy]."""
    heavy, light, t = Fraction(heavy), Fraction(light), Fraction(t)
    count = 0
    for p in range(n_heavy):
        for q in range(n_light + 1):
            s = heavy * (2 * p - (n_heavy - 1)) + light * (2 * q - n_light)
            if t - heavy < s <= t + heavy:
                count += comb(n_heavy - 1, p) * comb(n_light, q)
    return Fraction(count, 1 << (n_heavy + n_light - 1))


def ones_interval_mass(n: int, lo, hi) -> Fraction:
    """Mass of (lo, hi] under the sum of n uniform signs: the sum is 2k - n,
    where k counts the +1 coordinates, and C(n, k) sign patterns have it."""
    lo, hi = Fraction(lo), Fraction(hi)
    hits = sum(comb(n, k) for k in range(n + 1) if lo < 2 * k - n <= hi)
    return Fraction(hits, 1 << n)


def equal_weight_influence(n: int, t) -> Fraction:
    """Influence of each coordinate of 1{x_1 + ... + x_n > t}: coordinate i
    decides the value iff the other n - 1 signs sum into (t - 1, t + 1]."""
    t = Fraction(t)
    hits = sum(comb(n - 1, k) for k in range(n) if t - 1 < 2 * k - (n - 1) <= t + 1)
    return Fraction(hits, 1 << (n - 1))


def equal_weight_boundary(n: int, t, lam: int) -> Fraction:
    """lam-side vertex boundary of 1{x_1 + ... + x_n > t}, counted by the
    number k of +1 signs: on the 1 side the sum 2k - n exceeds t and falls
    to t or below when a +1 flips; on the 0 side it is at most t and
    exceeds t when a -1 flips."""
    t = Fraction(t)
    if lam == 1:
        ks = [k for k in range(1, n + 1) if 2 * k - n - 2 <= t < 2 * k - n]
    else:
        ks = [k for k in range(n) if 2 * k - n <= t < 2 * k - n + 2]
    return Fraction(sum(comb(n, k) for k in ks), 1 << n)


def butterfly_walsh(a) -> np.ndarray:
    """Signed Walsh transform by n int64 butterfly passes: entry S is
    sum_m a[m] * prod_{i in S} (+1 if bit i of m else -1).  A 2-d a is
    transformed row by row."""
    a = np.array(a, dtype=np.int64)
    h = 1
    while h < a.shape[-1]:
        view = a.reshape(*a.shape[:-1], -1, 2, h)
        low = view[..., 0, :].copy()
        view[..., 0, :] = low + view[..., 1, :]
        view[..., 1, :] -= low
        h *= 2
    return a


def masked_level_sums(values, n: int) -> list[int]:
    """Sum of values[S] over the masks S of each popcount, one masked int64
    pass per level."""
    values = np.asarray(values, dtype=np.int64)
    pc = np.bitwise_count(np.arange(1 << n))
    return [int(values[pc == k].sum()) for k in range(n + 1)]


def _halves(table, n: int):
    """For each coordinate i, the uint8 views of table at x_i = -1 and x_i = +1."""
    for i in range(n):
        view = np.asarray(table).reshape(-1, 2, 1 << i)
        yield view[:, 0, :], view[:, 1, :]


def halves_influence_counts(table, n: int) -> list[int]:
    """Per-coordinate count of points whose neighbour across i differs."""
    return [2 * int(np.count_nonzero(lo != hi)) for lo, hi in _halves(table, n)]


def halves_boundary_counts(table, n: int) -> tuple[int, int]:
    """Counts of 0-side and 1-side vertex-boundary points, one bool per point."""
    table = np.asarray(table)
    on_boundary = np.zeros(table.shape[0], dtype=bool)
    for (lo, hi), (b_lo, b_hi) in zip(_halves(table, n), _halves(on_boundary, n)):
        cut = lo != hi
        b_lo |= cut
        b_hi |= cut
    c1 = int(np.count_nonzero(table[on_boundary]))
    return int(np.count_nonzero(on_boundary)) - c1, c1


def halves_monotone_violations(table, n: int) -> int:
    """Number of directed edges with f = 1 below and f = 0 above."""
    return sum(int(np.count_nonzero(lo > hi)) for lo, hi in _halves(table, n))


def all_plus(n: int, coords) -> np.ndarray:
    """Bool table of the points with x_i = +1 for every i in coords."""
    table = np.ones(1 << n, dtype=bool)
    for i in coords:
        table.reshape(-1, 2, 1 << int(i))[:, 0, :] = False
    return table


def _parity_table(n: int) -> np.ndarray:
    """popcount(k) & 1 for every k below 2^n, as int64, by string counts."""
    return np.array([bin(k).count("1") & 1 for k in range(1 << n)], dtype=np.int64)


def gather_point_character(n: int, mask: int) -> np.ndarray:
    """x^S at every point m for S = mask: (-1)^popcount(S & ~m), gathered."""
    size = 1 << n
    return 1 - 2 * _parity_table(n)[(~np.arange(size) & mask) & (size - 1)]


def gather_subset_character(n: int, m: int) -> np.ndarray:
    """x^S at point m for every mask S: (-1)^popcount(S & ~m), gathered."""
    size = 1 << n
    return 1 - 2 * _parity_table(n)[np.arange(size) & ~m & (size - 1)]


def sign_products(factors) -> np.ndarray:
    """prod over i of (b_i if bit i of m is set else a_i), for every m below
    2^n, with factors[i] = (a_i, b_i) each +1 or -1: the doubling step
    signs = concat(a_i * signs, b_i * signs) per coordinate, in int8."""
    signs = np.ones(1, dtype=np.int8)
    for a, b in factors:
        signs = np.concatenate([a * signs, b * signs])
    return signs


def cdf_weights(h, k, uniq, t, delta) -> np.ndarray:
    """The k-fold CDF at (v - t)/delta for each distinct scaled value v, one
    scalar call per value."""
    t_scaled = float(t * h.scale)
    d_scaled = float(delta * h.scale)
    return np.array([irwin_hall_cdf(k, (float(v) - t_scaled) / d_scaled) for v in uniq])


def class_point_weights(h, k, values, t, delta) -> np.ndarray:
    """Each point's CDF weight gathered through its class, the index of its
    dot value among the support's distinct values."""
    uniq = h.distribution().support().values
    return cdf_weights(h, k, uniq, t, delta)[np.searchsorted(uniq, values)]


def fraction_signed_poly_expectation(coeffs, a, s):
    """``levelk.signed_poly_expectation`` with a Fraction at every point."""
    a = [Fraction(v) for v in a]
    s = Fraction(s)
    m = len(a)
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) - 1 > m + 1:
        raise ValueError("degree above m+1 needs extremum search")
    total = Fraction(0)
    for mask in range(1 << m):
        signs = [1 if mask >> i & 1 else -1 for i in range(m)]
        point = s + sum(w * x for w, x in zip(a, signs))
        total += math.prod(signs) * poly_eval(coeffs, point)
    value = total / (1 << m)
    deriv = poly_derivative(coeffs, m)
    reach = sum(a, Fraction(0))
    ends = (poly_eval(deriv, s - reach), poly_eval(deriv, s + reach))
    scale = math.prod(a)
    return value, scale * min(ends), scale * max(ends)


def smoothed_fourier(h, subset, delta, t=None) -> float:
    """Average of the degree-k coefficient of 1{a.x > t + s} when s is drawn
    from delta times the k-fold uniform sum.

    Equals E_x[x^S * G_k((a.x - t)/delta)] by Fubini: the character summed
    per distinct value of a.x, times one CDF weight per value.  The subset
    holds distinct internal (descending-weight) positions 0..h.n-1.
    """
    subset = tuple(sorted(subset))
    k = len(subset)
    if k < 1:
        raise ValueError("subset must be nonempty")
    if len(set(subset)) < k or subset[0] < 0 or subset[-1] >= h.n:
        raise ValueError(f"subset {subset} needs distinct positions in 0..{h.n - 1}")
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("smoothing width must be positive")
    t = h.threshold if t is None else Fraction(t)
    signs = sign_products((-1, 1) if j in subset else (1, 1) for j in range(h.n))
    uniq, inverse = np.unique(kernels.dot_values(h.scaled), return_inverse=True)
    signed_counts = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(signed_counts, inverse, signs.astype(np.int64))
    weights = cdf_weights(h, k, uniq, t, delta)
    return float(np.dot(signed_counts, weights)) / (1 << h.n)


def smoothed_fourier_lower_bound(h, subset, delta, t=None):
    """(applicable, lower_bound) for the smoothed degree-k coefficient:
    valid once the subset's weight mass A is at most half the width."""
    k = len(subset)
    delta = Fraction(delta)
    t = h.threshold if t is None else Fraction(t)
    a_subset = sum((h.weights[j] for j in subset), Fraction(0))
    if 2 * a_subset > delta:
        return False, None
    prod = math.prod(float(h.weights[j]) for j in subset)
    main = h.tail(t + 2 * a_subset)
    correction = sum((comb(k, level) * h.tail(t + level * delta - 2 * a_subset)
                      for level in range(1, k + 1)), Fraction(0))
    return True, prod / float(delta) ** k * float(main - correction)


def index_unbiased_correlator(f, full_scan: bool = False) -> CorrelationResult:
    """``correlate.unbiased_correlator`` by value arithmetic: each flipped
    form is l - 2 c_i x_i, rebuilt from an index array and int64 signs."""
    form = first_level_form(f)
    if form.is_zero():
        return CorrelationResult(Fraction(0), None, "", degenerate=True,
                                 notes="first level vanishes")
    values, scale = form.scaled_values()
    size = 1 << f.n
    idx = np.arange(size)

    def cov_num_for(vals) -> int:
        hit = vals > 0
        count = int(np.count_nonzero(hit))
        both = int(np.count_nonzero(hit & (f.table != 0)))
        return both * size - f.ones * count

    candidates = [(cov_num_for(values), ())]
    coord_signs = {}
    for i in range(f.n):
        c_scaled = int(form.coeffs[i] * scale)
        signs = np.where((idx >> i) & 1 == 1, np.int64(c_scaled), np.int64(-c_scaled))
        coord_signs[i] = signs
        candidates.append((cov_num_for(values - 2 * signs), (i,)))
    if full_scan:
        if f.n > 16:
            raise ValueError("full sign-pattern scan capped at 16 coordinates")
        vals = values.copy()
        pattern: set[int] = set()
        for g in range(1, 1 << f.n):
            i = (g & -g).bit_length() - 1
            if i in pattern:
                pattern.remove(i)
                vals = vals + 2 * coord_signs[i]
            else:
                pattern.add(i)
                vals = vals - 2 * coord_signs[i]
            candidates.append((cov_num_for(vals), tuple(sorted(pattern))))
    best_num, best_flips = candidates[0]
    for num, flips in candidates[1:]:
        if num > best_num:
            best_num, best_flips = num, flips
    note = "base" if not best_flips else f"flips={best_flips}"
    return CorrelationResult(Fraction(best_num, size * size), Fraction(0),
                             form.halfspace_text(Fraction(0), best_flips), notes=note)


def per_point_biased_correlator(f) -> BiasedCorrelation:
    """``correlate.biased_correlator`` by its former route: l read at every
    point in float64, and the points and the ones of f under the cut
    counted from one mask per point."""
    form = first_level_form(f)
    eps = f.mean
    if not 0 < eps < 1:
        raise ValueError("mean must be strictly inside (0, 1)")
    if form.is_zero():
        raise ValueError("first level vanishes")
    w1 = form.sq_norm
    log_inv = math.log(1 / float(eps))
    alpha = float(w1) / (float(eps) ** 2 * log_inv) if log_inv > 0 else math.inf
    s = 0.5 * math.sqrt(max(0.0, alpha) * log_inv) if log_inv > 0 else 0.0
    values, scale = form.scaled_values()
    size = 1 << f.n
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


def table_level_weight(h, k: int) -> Fraction:
    """W^k of 1{a.x > t} tabulated over the halfspace's nonzero weights in
    descending order, not over its original coordinates."""
    accepts = kernels.dot_values(h.scaled) > floor(h.threshold * h.scale)
    table = from_truth_table(accepts, h.n)
    return fwht_spectrum(table).level_weights().level(k)


def pairwise_support_window(left, right, lo_scaled: int, hi_scaled: int):
    """Support values of u + r inside the closed window and their counts, for
    two halves given as (distinct values ascending, counts): for each left
    value, the span of right values in the window, summed into a dict pair by
    pair."""
    (lvs, lcs), (rvs, rcs) = left, right
    acc: dict[int, int] = {}
    for lv, lc in zip(lvs, lcs):
        lv = int(lv)
        a = int(np.searchsorted(rvs, lo_scaled - lv, side="left"))
        b = int(np.searchsorted(rvs, hi_scaled - lv, side="right"))
        for rv, rc in zip(rvs[a:b], rcs[a:b]):
            key = lv + int(rv)
            acc[key] = acc.get(key, 0) + int(lc) * int(rc)
    values = np.array(sorted(acc), dtype=np.int64)
    counts = np.array([acc[int(v)] for v in values], dtype=np.int64)
    return values, counts


def support_window(dist, lo_scaled: int, hi_scaled: int):
    """The support values of a whole distribution (the DP's cells or a split)
    in a closed window, and their counts: the DP's nonzero cells there, the
    differences of neighbouring suffix counts, or each left value's span of
    right indices, its pairs summed per value (no pair guard)."""
    if isinstance(dist, TailDistribution):
        top = dist.max_scaled
        first = min(max((int(lo_scaled) + top + 1) // 2, 0), top + 1)
        stop = max(first, min((int(hi_scaled) + top) // 2 + 1, top + 1))
        counts = dist._suffix[first:stop] - dist._suffix[first + 1 : stop + 1]
        held = np.flatnonzero(counts)
        return 2 * (held + first) - top, counts[held]
    lo = min(max(lo_scaled, dist.min_scaled - 1), dist.max_scaled + 1)
    hi = min(max(hi_scaled, dist.min_scaled - 1), dist.max_scaled)
    lv = dist.left.values[::-1]
    first = np.searchsorted(dist.right.values, lo - lv, side="left")
    stop = np.searchsorted(dist.right.values, hi - lv, side="right")
    return dist._pair_sums(first, stop)  # a span that is empty has no pairs


def window_smoothed_influence(h, i: int, delta, t=None) -> Fraction:
    """``Halfspace.smoothed_influence`` by its former route: the support
    window of the reduced sum that can overlap, each value v's overlap of
    [v - t - a_i, v - t + a_i) with (0, delta) summed in object arrays."""
    delta, t = Fraction(delta), h.threshold if t is None else Fraction(t)
    j = h.order.index(i)
    w = h.weights[j]
    values, counts = support_window(h.reduced_distribution(j), floor((t - w) * h.scale),
                                    math.ceil((t + delta + w) * h.scale))
    # in units of 1/(scale * q): the overlap is min(delta, a + 2w) - max(0, a), a = v - t - w
    ts, ds = t * h.scale, delta * h.scale
    q = math.lcm(ts.denominator, ds.denominator)
    w_q = int(h.scaled[j]) * q
    a = values.astype(object) * q - int(ts * q) - w_q
    overlap = np.minimum(int(ds * q), a + 2 * w_q) - np.maximum(a, 0)
    acc = int(np.dot(counts.astype(object), np.maximum(overlap, 0)))
    return Fraction(acc, h.scale * q) / (delta * (1 << (h.n - 1)))


def two_window_suffix_counts(weights, cut: int) -> tuple[int, int]:
    """The split's boundary counts by their former route: for each k, with P
    the sum of weights[:k] and w = weights[k], the 1-side counts the points
    of the weights after k with a sum in (cut + P - w, cut + P + w] and the
    0-side those in (cut - P - w, cut - P + w], each window two searches
    per point of the shorter of the two halves (``_pairs_within``)."""
    halves = [_sorted_suffix_sums(weights[2::2]), _sorted_suffix_sums(weights[1::2])]
    sizes = [0, 0]  # the weights of each half after k
    prefix = int(weights.sum())
    c0 = c1 = 0
    for k in range(len(weights) - 1, -1, -1):
        w = int(weights[k])
        prefix -= w  # now the sum of weights[:k]
        even, odd = halves[0][sizes[0]], halves[1][sizes[1]]
        c1 += _pairs_within(even, odd, cut + prefix - w, cut + prefix + w)
        c0 += _pairs_within(even, odd, cut - prefix - w, cut - prefix + w)
        sizes[k % 2] += 1  # weight k joins the weights after k - 1
    return c0, c1


def _pairs_within(a, b, lo: int, hi: int) -> int:
    """Pairs (x, y) of a and b, both ascending, with lo < x + y <= hi: for
    each x of the shorter array, the y <= hi - x less the y <= lo - x."""
    if len(a) > len(b):
        a, b = b, a
    keys = a[::-1]  # ascending keys hi - x and lo - x
    return (int(np.searchsorted(b, hi - keys, side="right").sum())
            - int(np.searchsorted(b, lo - keys, side="right").sum()))


def mitm_count_ge(dist, v: int) -> int:
    """Outcomes of a meet-in-the-middle distribution with value >= v, one
    value at a time: for each left value u, its count times the right
    counts at values >= v - u, summed from the halves' values and counts in
    Python ints, with no suffix counts."""
    right = list(zip(dist.right.values.tolist(), dist.right.counts.tolist()))
    return sum(lc * sum(rc for rv, rc in right if rv >= v - lv)
               for lv, lc in zip(dist.left.values.tolist(), dist.left.counts.tolist()))


def per_point_influence_counts(dist, weights, cut: int) -> np.ndarray:
    """A meet-in-the-middle split's influence counts, each half's points in
    point order: one tail count of the other half above cut - u(p) at every
    point p, then, for each coordinate i, twice the sum over the points with
    bit i set (x_i = +1) less the sum over all of them."""
    above = (dist.right.counts_gt_scaled(cut - kernels.dot_values(weights[0::2])),
             dist.left.counts_gt_scaled(cut - kernels.dot_values(weights[1::2])))
    out = np.empty(len(weights), dtype=np.int64)
    for side, g in enumerate(above):
        total = int(g.sum())
        for i in range(len(weights[side::2])):
            out[side + 2 * i] = 2 * int(g.reshape(-1, 2, 1 << i)[:, 1].sum()) - total
    return out


def bisect_first_value_tail_le(dist, limit_num: int, limit_den: int) -> int:
    """Least scaled v in [min_scaled, max_scaled] with count_gt_scaled(v) *
    limit_den <= limit_num, max_scaled when none qualifies: a bisection of
    the integers, in Python ints."""
    lo, hi = dist.min_scaled, dist.max_scaled
    while lo < hi:
        mid = (lo + hi) // 2
        if dist.count_gt_scaled(mid) * limit_den <= limit_num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def swept_decay_violations(kappa, highs, piece_vals) -> int:
    """COR36's violation count by a pointer sweep in Python ints: the
    s-pieces join in kappa order while their kappa is below the current
    t-piece's upper end, and each t-piece meeting [0, inf) is compared with
    5 times the least value joined so far."""
    order = np.argsort(kappa, kind="stable")
    violations, ptr, running_min = 0, 0, None
    for ti in np.flatnonzero(highs > 0):
        while ptr < len(order) and kappa[order[ptr]] < highs[ti]:
            v = int(piece_vals[order[ptr]])
            running_min = v if running_min is None else min(running_min, v)
            ptr += 1
        if running_min is not None and 5 * running_min < int(piece_vals[ti]):
            violations += 1
    return violations


def per_k_elementary_symmetric(h, k: int) -> np.ndarray:
    """e_k of (a_j x_j) at every cube point by its own doubling pass, layers
    0..k only, refused when C(n, k) max^k passes 2^62: the per-level route
    that the one shared fill of ``kernels.elementary_symmetric`` replaces."""
    biggest = int(max(h.scaled)) if h.n else 0
    if k >= 1 and comb(max(h.n, 1), k) * biggest**k > 2**62:
        raise OverflowError("elementary symmetric values would overflow int64")
    layers = [np.ones(1, dtype=np.int64)] + [np.zeros(1, dtype=np.int64)] * k
    for w in h.scaled.tolist():
        steps = [0] + [w * e for e in layers[:-1]]
        layers = [np.concatenate([e - s, e + s]) for e, s in zip(layers, steps)]
    return layers[k]


def scanned_sign_condition(h, k: int) -> bool:
    """The sign condition by scanning the cube: no point with a.x above the
    threshold has e_k of (a_j x_j) below 0, each layer from its own pass."""
    accepts = per_k_elementary_symmetric(h, 1) > floor(h.threshold * h.scale)
    return not np.any(accepts & (per_k_elementary_symmetric(h, k) < 0))


def fraction_symmetric_stats(values, m_max: int):
    """``levelk.symmetric_stats`` summed term by term in Fractions, with no
    common denominator."""
    vals = tuple(Fraction(v) for v in values)
    elem = [Fraction(0)] * (m_max + 1)
    elem[0] = Fraction(1)
    for v in vals:
        for m in range(m_max, 0, -1):
            elem[m] += v * elem[m - 1]
    power = [Fraction(len(vals))]
    for m in range(1, m_max + 1):
        power.append(sum((v**m for v in vals), Fraction(0)))
    return SymmetricStats(vals, tuple(elem), tuple(power))


def _prob_gt(dist, q) -> Fraction:
    return Fraction(dist.count_gt(q), dist.total)


def check_log_concavity(dist, b, c, d, m) -> CheckRecord:
    """LEM111's F(d)F(b) <= F(c)F(b+d-c-m) for b <= c <= d, both sides as
    products of Fraction tail probabilities."""
    b, c, d, m = map(Fraction, (b, c, d, m))
    if not b <= c <= d:
        raise ValueError("need b <= c <= d")
    lhs = _prob_gt(dist, d) * _prob_gt(dist, b)
    rhs = _prob_gt(dist, c) * _prob_gt(dist, b + d - c - m)
    return CheckRecord.inequality("LEM111", "", lhs, rhs)


def check_log_concave_exp(dist, t, delta, m) -> CheckRecord:
    """LEM42's F(t+delta+m)^l <= 2 F(t)^(l+1) with l = 1 + floor(t/delta),
    both sides as exact Fraction powers, at any l (no ratio: dividing the
    powers costs seconds past l = 10^5)."""
    t, delta, m = map(Fraction, (t, delta, m))
    if t < 0 or delta <= 0:
        raise ValueError("need t >= 0 and delta > 0")
    level = 1 + int(t // delta)
    lhs = _prob_gt(dist, t + delta + m) ** level
    rhs = 2 * _prob_gt(dist, t) ** (level + 1)
    ok = lhs <= rhs
    return CheckRecord("LEM42", "", lhs, rhs, None, ok, "pass" if ok else "fail",
                       f"l={level}")


def per_coordinate_small_class_sums(h, n_big: int, thresholds) -> list[int]:
    """PROP5's sums by its former route: for each rational threshold t, the
    sum over the small coordinates j >= n_big of the scaled weight times the
    count of the reduced distribution of a.x - a_j x_j in (t - a_j, t + a_j],
    one reduced distribution per coordinate."""
    sums = []
    for t in thresholds:
        total = 0
        for j in range(n_big, h.n):
            red = h.reduced_distribution(j)
            w = h.weights[j]
            total += int(h.scaled[j]) * (red.count_gt(t - w) - red.count_gt(t + w))
        sums.append(total)
    return sums


def two_pass_gauss_worst(dist, norm: float) -> float:
    """GAUSS-EATON's worst ratio by its former sweep: every value v >= 0 of
    the support twice, once with P(a.x > v) and once with P(a.x >= v)."""
    values = dist.support().values
    values = values[values >= 0]
    worst = 0.0
    for strict in (True, False):
        counts = dist.counts_gt_scaled(values) if strict else dist.counts_ge_scaled(values)
        for v, c in zip(values, counts):
            z = float(v) / (dist.scale * norm)
            gauss = 0.5 * math.erfc(z / math.sqrt(2))
            worst = max(worst, int(c) / dist.total / gauss)
    return worst


# The scalar flip maps, one vector of Fractions at a time: the slow route of
# the batched int64 maps in flips.


class DomainError(ValueError):
    """Input is outside the partial map's domain."""


def suffix_flip(u, v, r, strict: bool = False):
    """Swap the tails of (u, v) after the first index whose running
    difference-sum reaches r (exceeds r with strict=True).

    The leading empty sum 0 counts, so r <= 0 swaps everything.  The map is
    an involution on its domain.
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError("vectors must have equal length")
    sums = running_sums(ui - vi for ui, vi in zip(u, v))
    cut = None
    for i, s in enumerate(sums):
        if (s > r) if strict else (s >= r):
            cut = i
            break
    if cut is None:
        raise DomainError("no running difference-sum reaches the level")
    new_u = u[:cut] + v[cut:]
    new_v = v[:cut] + u[cut:]
    return new_u, new_v


def prefix_flip(u, r, strict: bool = False):
    """Negate the prefix of u up to the first index where twice the running
    sum reaches r; the output v satisfies sum(u) - sum(v) in [r, r + 2*max|u_i|).
    """
    u = tuple(u)
    neg = tuple(-x for x in u)
    flipped_neg, flipped = suffix_flip(u, neg, r, strict)
    assert flipped_neg == tuple(-x for x in flipped)
    return flipped


def running_sums(x):
    """Partial sums of x with a leading 0: length len(x) + 1."""
    sums = [0]
    acc = 0
    for xi in x:
        acc = acc + xi
        sums.append(acc)
    return sums


def first_max_index(sums) -> int:
    best = max(sums)
    return sums.index(best)


def last_max_index(sums) -> int:
    best = max(sums)
    return len(sums) - 1 - sums[::-1].index(best)


def single_coord_flip(x):
    """Flip the coordinate at the first running-sum maximum.

    Defined when some running sum is strictly positive.
    """
    x = tuple(x)
    sums = running_sums(x)
    if max(sums[1:], default=0) <= 0:
        raise DomainError("all running sums are nonpositive")
    cut = first_max_index(sums)  # leading 0 never attains the strict maximum
    return x[: cut - 1] + (-x[cut - 1],) + x[cut:]


def single_coord_unflip(y):
    """Inverse of single_coord_flip: flip just after the last running-sum
    maximum among prefixes 0..n-1 (the leading 0 included).  Total.
    """
    y = tuple(y)
    sums = running_sums(y)[:-1]
    cut = last_max_index(sums)
    return y[:cut] + (-y[cut],) + y[cut + 1 :]


def _descending_order(a):
    return sorted(range(len(a)), key=lambda i: (-a[i], i))


def weighted_coord_flip(a, x):
    """Reorder by descending weight (stable), flip, reorder back.

    Defined in particular whenever sum(a_i x_i) > 0.
    """
    x = tuple(x)
    order = _descending_order(tuple(a))
    flipped = single_coord_flip(tuple(x[i] for i in order))
    out = list(x)
    for pos, i in enumerate(order):
        out[i] = flipped[pos]
    return tuple(out)


def weighted_coord_unflip(a, y):
    y = tuple(y)
    order = _descending_order(tuple(a))
    unflipped = single_coord_unflip(tuple(y[i] for i in order))
    out = list(y)
    for pos, i in enumerate(order):
        out[i] = unflipped[pos]
    return tuple(out)


def interval_shift_map(a, s, m, sigma):
    """The four-piece injection pushing sum(a * sigma) from (s+m, s+3m] down
    into (s-m, s+m].

    Coordinates with weight at most m/2 form the small class; the rest the
    big class.  Pieces 1 and 2 prefix-flip the small class at level m or 2m;
    piece 3 flips one big coordinate; piece 4 flips a second one when piece 3
    lands past the target.  Returns (piece_index, flipped sign vector).
    """
    a = tuple(a)
    sigma = tuple(sigma)
    if any(w <= 0 for w in a):
        raise ValueError("weights must be positive")
    if max(a) > m:
        raise ValueError("m must dominate every weight")
    if s < 0:
        raise ValueError("the target center s must be nonnegative")
    x = [w * s_ for w, s_ in zip(a, sigma)]
    total = sum(x)
    if not (s + m < total <= s + 3 * m):
        raise DomainError("input sum outside the source interval")
    small = [i for i, w in enumerate(a) if 2 * w <= m]
    big = [i for i in range(len(a)) if 2 * a[i] > m]
    sum_small = sum(x[i] for i in small)

    if sum_small >= s + m:
        level = m if total <= s + 2 * m else 2 * m
        flipped = prefix_flip(tuple(x[i] for i in small), level)
        out = list(sigma)
        for pos, i in enumerate(small):
            out[i] = 1 if flipped[pos] > 0 else -1
        return (1 if level == m else 2), tuple(out)

    weights_big = tuple(a[i] for i in big)
    first = list(sigma)
    part = weighted_coord_flip(weights_big, tuple(sigma[i] for i in big))
    for pos, i in enumerate(big):
        first[i] = part[pos]
    new_total = sum(w * s_ for w, s_ in zip(a, first))
    if s - m < new_total <= s + m:
        return 3, tuple(first)

    second = list(first)
    part = weighted_coord_flip(weights_big, tuple(first[i] for i in big))
    for pos, i in enumerate(big):
        second[i] = part[pos]
    return 4, tuple(second)
