"""Exact halfspaces over rational weights.

Weights and thresholds are rescaled to integers internally, so a tie
a.x = t is decided exactly and the strict ">" rule never needs the
"perturb slightly" escape hatch.  The distribution of a.x is kept either
densely (one counter per achievable sum) or as two enumerated halves
merged on demand, selected by budget.

A dense halfspace runs one subset-sum DP: every influence is a window of
the full count array with one weight divided out, and both vertex
boundaries come from one sweep that adds the weights smallest first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .bfcore import BooleanFunction, max_arity
from .rational import as_fraction, common_scale, format_fraction

DENSE_BUDGET = 10_000_000  # max sum of scaled weights for the dense backend
MITM_MAX_N = 40
MAX_SUMMANDS = 62  # 2^62 outcome counts fit int64; 2^63 does not
_WINDOW_GUARD = 5_000_000  # max pairs assembled for a support window query


class BudgetError(ValueError):
    """Instance exceeds every distribution backend's budget."""


def _floor_scaled(q: Fraction, scale: int) -> int:
    return math.floor(q * scale)


def _ceil_scaled(q: Fraction, scale: int) -> int:
    return math.ceil(q * scale)


class _TailBase:
    """Query interface shared by both distribution backends.

    All probabilities are exact with denominator 2^n_summands; thresholds
    are rationals in original (unscaled) units unless suffixed _scaled.
    """

    scale: int
    n_summands: int

    @property
    def total(self) -> int:
        return 1 << self.n_summands

    # backends implement count_gt_scaled / count_ge_scaled and the rest

    def count_gt(self, q) -> int:
        return self.count_gt_scaled(_floor_scaled(as_fraction(q), self.scale))

    def count_ge(self, q) -> int:
        return self.count_ge_scaled(_ceil_scaled(as_fraction(q), self.scale))

    def prob_gt(self, q) -> Fraction:
        return Fraction(self.count_gt(q), self.total)

    def count_interval(self, lo, hi, include_lo: bool = False, include_hi: bool = True) -> int:
        left = self.count_ge(lo) if include_lo else self.count_gt(lo)
        right = self.count_ge(hi) if not include_hi else self.count_gt(hi)
        return max(0, left - right)

    def prob_interval(self, lo, hi, include_lo: bool = False, include_hi: bool = True) -> Fraction:
        return Fraction(self.count_interval(lo, hi, include_lo, include_hi), self.total)

    @property
    def min_value(self) -> Fraction:
        return Fraction(self.min_scaled, self.scale)

    @property
    def max_value(self) -> Fraction:
        return Fraction(self.max_scaled, self.scale)


class TailDistribution(_TailBase):
    """Dense exact distribution: sorted distinct scaled sums with counts."""

    def __init__(self, values: np.ndarray, counts: np.ndarray, scale: int, n_summands: int):
        self.values = values
        self.counts = counts
        self.scale = scale
        self.n_summands = n_summands
        # suffix[i] = number of outcomes with value >= values[i]
        self._suffix = np.concatenate(
            [np.cumsum(counts[::-1])[::-1], np.zeros(1, dtype=np.int64)]
        )
        self.min_scaled = int(values[0])
        self.max_scaled = int(values[-1])

    def count_gt_scaled(self, v: int) -> int:
        idx = int(np.searchsorted(self.values, v + 1, side="left"))
        return int(self._suffix[idx])

    def count_ge_scaled(self, v: int) -> int:
        idx = int(np.searchsorted(self.values, v, side="left"))
        return int(self._suffix[idx])

    def counts_gt_scaled(self, v: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.values, v + 1, side="left")
        return self._suffix[idx]

    def counts_ge_scaled(self, v: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.values, v, side="left")
        return self._suffix[idx]

    def first_value_tail_le(self, limit_num: int, limit_den: int) -> int:
        """Minimal support value v (scaled) with count_gt(v) * den <= num."""
        # suffix[i + 1] is the tail count strictly beyond values[i]
        lo, hi = 0, len(self.values) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if int(self._suffix[mid + 1]) * limit_den <= limit_num:
                hi = mid
            else:
                lo = mid + 1
        return int(self.values[lo])

    def support_window(self, lo_scaled: int, hi_scaled: int,
                       include_lo: bool = False, include_hi: bool = False):
        left = int(np.searchsorted(self.values, lo_scaled, "left" if include_lo else "right"))
        right = int(np.searchsorted(self.values, hi_scaled, "right" if include_hi else "left"))
        return self.values[left:right], self.counts[left:right]

    def support(self):
        return self.values, self.counts


class MeetInMiddleDistribution(_TailBase):
    """Two enumerated halves; tail counts answered by a merge sweep."""

    def __init__(self, left_values, left_counts, right_values, right_counts,
                 scale: int, n_summands: int):
        self._lv = left_values
        self._lc = left_counts
        self._rv = right_values
        self._rsuffix = np.concatenate(
            [np.cumsum(right_counts[::-1])[::-1], np.zeros(1, dtype=np.int64)]
        )
        self._rc = right_counts
        self.scale = scale
        self.n_summands = n_summands
        self.min_scaled = int(left_values[0] + right_values[0])
        self.max_scaled = int(left_values[-1] + right_values[-1])

    def _count_from(self, v: int) -> int:
        """Number of outcomes with value >= v (scaled)."""
        idx = np.searchsorted(self._rv, v - self._lv, side="left")
        return int(np.dot(self._lc, self._rsuffix[idx]))

    def count_gt_scaled(self, v: int) -> int:
        return self._count_from(v + 1)

    def count_ge_scaled(self, v: int) -> int:
        return self._count_from(v)

    def counts_gt_scaled(self, v: np.ndarray) -> np.ndarray:
        return np.array([self.count_gt_scaled(int(x)) for x in v], dtype=np.int64)

    def counts_ge_scaled(self, v: np.ndarray) -> np.ndarray:
        return np.array([self.count_ge_scaled(int(x)) for x in v], dtype=np.int64)

    def first_value_tail_le(self, limit_num: int, limit_den: int) -> int:
        lo, hi = self.min_scaled, self.max_scaled
        while lo < hi:
            mid = (lo + hi) // 2
            if self.count_gt_scaled(mid) * limit_den <= limit_num:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def support_window(self, lo_scaled: int, hi_scaled: int,
                       include_lo: bool = False, include_hi: bool = False):
        lo_eff = lo_scaled if include_lo else lo_scaled + 1
        hi_eff = hi_scaled if include_hi else hi_scaled - 1
        acc: dict[int, int] = {}
        assembled = 0
        for lv, lc in zip(self._lv, self._lc):
            lv = int(lv)
            a = int(np.searchsorted(self._rv, lo_eff - lv, side="left"))
            b = int(np.searchsorted(self._rv, hi_eff - lv, side="right"))
            assembled += b - a
            if assembled > _WINDOW_GUARD:
                raise BudgetError("support window too dense to assemble")
            for rv, rc in zip(self._rv[a:b], self._rc[a:b]):
                key = lv + int(rv)
                acc[key] = acc.get(key, 0) + int(lc) * int(rc)
        values = np.array(sorted(acc), dtype=np.int64)
        counts = np.array([acc[int(v)] for v in values], dtype=np.int64)
        return values, counts


def _enumerated(weights: np.ndarray):
    """Distinct values of sum(w_i x_i) and their counts, point by point."""
    values, counts = np.unique(kernels.dot_values(weights), return_counts=True)
    return values, counts.astype(np.int64, copy=False)


def _dense(total: int, backend: str | None) -> bool:
    """Whether a sum of scaled weights `total` takes the dense backend."""
    return backend == "dense" or (backend is None and total <= DENSE_BUDGET)


def distribution_from_scaled(weights: np.ndarray, scale: int, backend: str | None = None):
    """Build the exact distribution of sum(w_i x_i); backend auto-selected."""
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    n = len(weights)
    total = int(weights.sum())
    if backend not in (None, "dense", "mitm"):
        raise ValueError(f"unknown backend {backend!r}")
    if n > MAX_SUMMANDS:
        raise BudgetError(
            f"outcome counts overflow int64 beyond {MAX_SUMMANDS} summands (n={n})"
        )
    if _dense(total, backend):
        if n == 0:
            return TailDistribution(
                np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64), scale, 0
            )
        if backend is None and (1 << n) <= total + 1:
            # the cube has no more points than the DP would have cells
            return TailDistribution(*_enumerated(weights), scale, n)
        dense = kernels.signed_sum_counts(weights)
        nz = np.nonzero(dense)[0]
        return TailDistribution(2 * nz - total, dense[nz], scale, n)
    if backend == "mitm" or n <= MITM_MAX_N:
        # alternate large/small weights between halves to balance the sums
        lv, lc = _enumerated(weights[0::2])
        rv, rc = _enumerated(weights[1::2])
        return MeetInMiddleDistribution(lv, lc, rv, rc, scale, n)
    raise BudgetError(
        f"scaled weight sum {total} exceeds the dense budget and n={n} > {MITM_MAX_N}"
    )


@dataclass(frozen=True)
class DecayThresholds:
    """Shifts that make the tail drop by fixed factors, plus the step width m.

    beta: minimal shift with F(t + beta) <= F(t)/3.
    gamma: minimal shift with F(t + gamma) <= F(t)/6 when k is None; with k
        set it is the minimal g such that F(t + l*g) <= F(t)/(6k)^l for every
        l >= 1.
    delta: beta + gamma.  m: 2 * max weight.
    """

    beta: Fraction
    gamma: Fraction
    delta: Fraction
    m: Fraction
    k: int | None = None


class Halfspace:
    """f(x) = 1{a.x > t} with nonnegative rational weights, descending inside."""

    def __init__(self, weights: tuple[Fraction, ...], threshold: Fraction,
                 original_weights: tuple[Fraction, ...], order: tuple[int, ...]):
        self.weights = weights              # positive, descending
        self.threshold = threshold
        self.original_weights = original_weights
        self.order = order                  # order[j] = original index of weights[j]
        self.n = len(weights)
        self.arity = len(original_weights)
        self.scale = common_scale(weights)
        self.scaled = np.array([int(w * self.scale) for w in weights], dtype=np.int64)
        self._total = int(self.scaled.sum())  # T: a.x = 2s - T, s the sum of the +1 weights
        self._dist = None
        self._reduced: dict[int, _TailBase] = {}
        self._suffix: dict[int, _TailBase] = {}
        self._backend = None
        self._influences: dict[Fraction, list[Fraction]] = {}  # by threshold
        self._boundaries: dict[Fraction, tuple[int, int]] = {}  # by threshold

    # -- construction helpers ------------------------------------------------

    def with_threshold(self, t) -> "Halfspace":
        return Halfspace(self.weights, as_fraction(t), self.original_weights, self.order)

    def rescaled(self, factor) -> "Halfspace":
        """Same function with weights and threshold multiplied by a positive
        rational; every statistic is invariant under this."""
        factor = as_fraction(factor)
        if factor <= 0:
            raise ValueError("scaling factor must be positive")
        return Halfspace(tuple(w * factor for w in self.weights),
                         self.threshold * factor,
                         tuple(w * factor for w in self.original_weights),
                         self.order)

    def dual(self) -> "Halfspace":
        """g(x) = 1 - f(-x) = 1{a.x >= -t}, encoded strictly via a half-step."""
        t = -self.threshold - Fraction(1, 2 * self.scale)
        return Halfspace(self.weights, t, self.original_weights, self.order)

    def to_text(self) -> str:
        wtxt = ",".join(format_fraction(w) for w in self.original_weights)
        return f"ltf:{wtxt};{format_fraction(self.threshold)}"

    # -- distributions ---------------------------------------------------------

    def distribution(self, backend: str | None = None) -> _TailBase:
        if self._dist is None or (backend is not None and backend != self._backend):
            self._dist = distribution_from_scaled(self.scaled, self.scale, backend)
            self._backend = backend
        return self._dist

    def reduced_distribution(self, j: int) -> _TailBase:
        """Distribution of a.x - a_j x_j (internal index j)."""
        if j not in self._reduced:
            rest = np.delete(self.scaled, j)
            self._reduced[j] = distribution_from_scaled(rest, self.scale, self._backend)
        return self._reduced[j]

    def suffix_distribution(self, k: int) -> _TailBase:
        """Distribution of the weights strictly after internal index k."""
        if k not in self._suffix:
            self._suffix[k] = distribution_from_scaled(
                self.scaled[k + 1 :], self.scale, self._backend
            )
        return self._suffix[k]

    # -- basic statistics ------------------------------------------------------

    def tail(self, t=None) -> Fraction:
        """F(t) = Pr[a.x > t]."""
        t = self.threshold if t is None else as_fraction(t)
        return self.distribution().prob_gt(t)

    def mean(self) -> Fraction:
        return self.tail()

    def sq_norm(self) -> Fraction:
        return sum((w * w for w in self.weights), Fraction(0))

    def l2_norm(self) -> float:
        return math.sqrt(float(self.sq_norm()))

    def _one_dp(self, summands: int) -> bool:
        """Whether statistics whose counts have this many summands come from
        the halfspace's one dense DP: dense backend, and counts in int64."""
        return summands <= MAX_SUMMANDS and _dense(self._total, self._backend)

    def _pivot_top(self, t: Fraction) -> int:
        """b such that a weight w decides 1{a.x > t} exactly when the other
        coordinates at +1 sum to b - w + 1..b."""
        return (_floor_scaled(t, self.scale) + self._total) // 2

    def influence_internal(self, j: int, t=None) -> Fraction:
        if self._one_dp(self.n):
            return self.influences(t)[self.order[j]]
        t = self.threshold if t is None else as_fraction(t)
        w = self.weights[j]
        count = self.reduced_distribution(j).count_interval(t - w, t + w)
        return Fraction(count, 1 << (self.n - 1))

    def influence(self, i: int, t=None) -> Fraction:
        """Influence of original coordinate i; dropped zero weights have none."""
        if not 0 <= i < self.arity:
            raise IndexError(f"coordinate {i} outside 0..{self.arity - 1}")
        for j, orig in enumerate(self.order):
            if orig == i:
                return self.influence_internal(j, t)
        return Fraction(0)

    def influences(self, t=None) -> list[Fraction]:
        """Influence of every original coordinate, computed once per threshold.

        On the dense route the full distribution's counts are divided by
        (1 + z^w) for each distinct weight w; past MAX_SUMMANDS (those counts
        overflow) or above the dense budget, each coordinate has its own
        reduced distribution.
        """
        t = self.threshold if t is None else as_fraction(t)
        if t not in self._influences:
            if self._one_dp(self.n):
                dist = self.distribution()
                # cum[s + 1] counts the points whose +1 weights sum to at most s
                cum = np.zeros(self._total + 2, dtype=np.int64)
                cum[(dist.values + self._total) // 2 + 1] = dist.counts
                np.cumsum(cum, out=cum)
                b = self._pivot_top(t)
                weights = self.scaled.tolist()
                counts = {w: kernels.leave_one_out_window(cum, w, b) for w in set(weights)}
                internal = [Fraction(counts[w], 1 << (self.n - 1)) for w in weights]
            else:
                internal = [self.influence_internal(j, t) for j in range(self.n)]
            out = [Fraction(0)] * self.arity
            for orig, value in zip(self.order, internal):
                out[orig] = value
            self._influences[t] = out
        return list(self._influences[t])

    def max_influence(self, t=None) -> tuple[Fraction, int]:
        """(value, original index); lowest original index wins ties."""
        vals = self.influences(t)
        best = max(vals)
        return best, vals.index(best)

    def vertex_boundary(self, lam: int, t=None) -> Fraction:
        """Boundary measure via the first-sensitive-coordinate decomposition.

        A point is on the 1-side boundary iff flipping its first +1
        coordinate (in descending weight order) crosses the threshold, which
        turns the measure into a sum of interval probabilities of suffix
        distributions; likewise on the 0 side with signs reversed.  Both
        sides are counted together, once per threshold.
        """
        if lam not in (0, 1):
            raise ValueError("boundary side must be 0 or 1")
        t = self.threshold if t is None else as_fraction(t)
        if t not in self._boundaries:
            self._boundaries[t] = self._boundary_counts(t)
        return Fraction(self._boundaries[t][lam], 1 << self.n)

    def _boundary_counts(self, t: Fraction) -> tuple[int, int]:
        """0-side and 1-side boundary counts at t.

        Suffix k (the weights after k) has at most n - 1 summands.  On the
        dense route one DP sweep adds the weights smallest first and reads
        suffix k just before weight k would join it; otherwise each suffix
        has its own distribution.
        """
        c0 = c1 = 0
        if self._one_dp(self.n - 1):
            b = self._pivot_top(t)
            weights = self.scaled.tolist()
            prefix = self._total
            sweep = kernels.subset_sum_prefixes(self.scaled[::-1])
            for k, counts in zip(range(self.n - 1, -1, -1), sweep):
                w = weights[k]
                prefix -= w  # now the sum of weights[:k]
                c1 += _window_sum(counts, b - w + 1, b)
                c0 += _window_sum(counts, b - prefix - w + 1, b - prefix)
            return c0, c1
        prefix = Fraction(0)
        for k, w in enumerate(self.weights):
            dist = self.suffix_distribution(k)
            c1 += dist.count_interval(t + prefix - w, t + prefix + w)
            c0 += dist.count_interval(t - prefix - w, t - prefix + w)
            prefix += w
        return c0, c1

    # -- truth table -----------------------------------------------------------

    def truth_table(self, max_n: int | None = None) -> BooleanFunction:
        return ltf_truth_table(self.original_weights, self.threshold, max_n=max_n)

    # -- decay machinery ---------------------------------------------------------

    def delta_query(self, c, t=None) -> Fraction:
        """Minimal delta >= 0 with F(t + delta) <= c * F(t); exact.

        F is a right-continuous step function, so the infimum is attained at
        a support value.
        """
        c = as_fraction(c)
        t = self.threshold if t is None else as_fraction(t)
        dist = self.distribution()
        base = dist.count_gt(t)
        if base == 0:
            raise ValueError("tail probability at t is zero")
        limit_num, limit_den = (c.numerator * base, c.denominator)
        if base * limit_den <= limit_num:
            return Fraction(0)
        vstar = dist.first_value_tail_le(limit_num, limit_den)
        return Fraction(vstar, self.scale) - t

    def decay_thresholds(self, t=None, k: int | None = None) -> DecayThresholds:
        t = self.threshold if t is None else as_fraction(t)
        beta = self.delta_query(Fraction(1, 3), t)
        if k is None:
            gamma = self.delta_query(Fraction(1, 6), t)
        else:
            base_count = self.distribution().count_gt(t)
            gamma = Fraction(0)
            lvl = 1
            while True:
                factor = (6 * k) ** lvl
                shift = self.delta_query(Fraction(1, factor), t)
                gamma = max(gamma, shift / lvl)
                if base_count < factor:  # tail must be empty from here on
                    break
                lvl += 1
        m = 2 * self.weights[0] if self.n else Fraction(0)
        return DecayThresholds(beta, gamma, beta + gamma, m, k)

    def smoothed_influence(self, i: int, delta, t=None) -> Fraction:
        """Average influence of coordinate i over thresholds t + U(0, delta).

        Exact via breakpoint integration: each support value v of the
        reduced sum contributes the overlap of [v-t-a_i, v-t+a_i) with
        (0, delta).
        """
        delta = as_fraction(delta)
        if delta <= 0:
            raise ValueError("smoothing width must be positive")
        t = self.threshold if t is None else as_fraction(t)
        j = None
        for jj, orig in enumerate(self.order):
            if orig == i:
                j = jj
                break
        if j is None:
            return Fraction(0)
        w = self.weights[j]
        dist = self.reduced_distribution(j)
        lo = _floor_scaled(t - w, self.scale)
        hi = _ceil_scaled(t + delta + w, self.scale)
        values, counts = dist.support_window(lo, hi, include_lo=True, include_hi=True)
        acc = Fraction(0)
        for v, cnt in zip(values, counts):
            a = Fraction(int(v), self.scale) - t - w
            b = a + 2 * w
            overlap = min(delta, b) - max(Fraction(0), a)
            if overlap > 0:
                acc += int(cnt) * overlap
        return acc / (delta * (1 << (self.n - 1)))


def _window_sum(counts: np.ndarray, lo: int, hi: int) -> int:
    """counts[lo] + ... + counts[hi], with cells outside the array zero."""
    if hi < 0:
        return 0
    return int(counts[max(lo, 0) : hi + 1].sum())


def make_halfspace(weights, threshold) -> Halfspace:
    """Canonical halfspace: zero weights dropped, the rest sorted descending."""
    original = tuple(as_fraction(w) for w in weights)
    threshold = as_fraction(threshold)
    if any(w < 0 for w in original):
        raise ValueError("weights must be nonnegative; flip variable signs first")
    kept = [(w, i) for i, w in enumerate(original) if w > 0]
    if not kept:
        raise ValueError("at least one weight must be positive")
    kept.sort(key=lambda wi: (-wi[0], wi[1]))
    ws = tuple(w for w, _ in kept)
    order = tuple(i for _, i in kept)
    return Halfspace(ws, threshold, original, order)


def ltf_truth_table(weights, threshold, max_n: int | None = None) -> BooleanFunction:
    """Truth table of 1{w.x > t} for arbitrary-sign rational weights."""
    ws = [as_fraction(w) for w in weights]
    threshold = as_fraction(threshold)
    n = len(ws)
    cap = max_n if max_n is not None else max_arity()
    if not 1 <= n <= cap:
        raise ValueError(f"arity {n} outside supported range 1..{cap}")
    scale = common_scale(ws)
    scaled = np.array([int(w * scale) for w in ws], dtype=np.int64)
    vals = kernels.dot_values(scaled)
    cut = _floor_scaled(threshold, scale)
    return BooleanFunction(n, (vals > cut).astype(np.uint8))


def parse_halfspace(text: str) -> Halfspace:
    """Parse 'ltf:w1,w2,...;t' with rational entries."""
    if not text.startswith("ltf:"):
        raise ValueError(f"not a halfspace literal: {text!r}")
    body = text[4:]
    wtxt, _, ttxt = body.partition(";")
    if not ttxt:
        raise ValueError(f"halfspace literal needs ';threshold': {text!r}")
    return make_halfspace([as_fraction(w) for w in wtxt.split(",")], as_fraction(ttxt))
