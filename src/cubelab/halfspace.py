"""Exact halfspaces over rational weights.

Weights and thresholds are rescaled to integers internally, so a tie
a.x = t is decided exactly and the strict ">" rule never needs the
"perturb slightly" escape hatch.  The distribution of a.x is kept either
densely (one counter per achievable sum) or as two enumerated halves
combined per query, selected by budget.

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
from .bfcore import BooleanFunction, FunctionSpec, _check_arity
from .rational import as_fraction, common_scale, format_fraction

DENSE_BUDGET = 10_000_000  # max sum of scaled weights for the dense backend
MITM_MAX_N = 40
MAX_SUMMANDS = 62  # 2^62 outcome counts fit int64; 2^63 does not
_WINDOW_GUARD = 5_000_000  # max pairs assembled for a support window query
_QUERY_KEYS = 1 << 20  # max keys searched at once by a vectorised tail count


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
        self._suffix = _suffix_counts(counts)
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
    """Two enumerated halves: a.x = u + r, u from the left half, r from the right.

    The outcomes with value >= v number the sum over left values u of
    count(u) times the right outcomes with r >= v - u: one ``searchsorted``
    of the keys v - u into the right values, then one dot product with the
    right half's suffix counts.  The left half is stored descending, so the
    keys ascend, the order in which ``searchsorted`` narrows each search
    from the one before it.
    """

    def __init__(self, left, right, scale: int, n_summands: int):
        """left: values descending and their counts; right: values ascending,
        their counts and suffix counts (see ``_half``)."""
        self._lv, self._lc = left
        self._rv, self._rc, self._rsuffix = right
        self.scale = scale
        self.n_summands = n_summands
        self.min_scaled = int(self._lv[-1] + self._rv[0])
        self.max_scaled = int(self._lv[0] + self._rv[-1])

    @classmethod
    def from_weights(cls, weights: np.ndarray, scale: int) -> "MeetInMiddleDistribution":
        # alternate large/small weights between halves to balance the sums
        return cls(_half(0, weights[0::2]), _half(1, weights[1::2]), scale, len(weights))

    def without(self, weights: np.ndarray, j: int) -> "MeetInMiddleDistribution":
        """Distribution of `weights` with weight j deleted, self being that of
        `weights`: j's half is enumerated again, the other half is shared."""
        side = j % 2
        halves = [(self._lv, self._lc), (self._rv, self._rc, self._rsuffix)]
        halves[side] = _half(side, np.delete(weights[side::2], j // 2))
        return MeetInMiddleDistribution(*halves, self.scale, self.n_summands - 1)

    def _count_from(self, v: int) -> int:
        """Number of outcomes with value >= v (scaled)."""
        idx = np.searchsorted(self._rv, v - self._lv, side="left")
        return int(np.dot(self._lc, self._rsuffix[idx]))

    def _counts_from(self, v: np.ndarray) -> np.ndarray:
        """_count_from at every entry of v, a block of rows at a time."""
        flat = v.ravel()
        out = np.empty(len(flat), dtype=np.int64)
        rows = max(1, _QUERY_KEYS // len(self._lv))
        for s in range(0, len(flat), rows):
            keys = flat[s : s + rows, None] - self._lv
            idx = np.searchsorted(self._rv, keys.ravel(), side="left")
            out[s : s + rows] = self._rsuffix[idx].reshape(keys.shape) @ self._lc
        return out.reshape(v.shape)

    def count_gt_scaled(self, v: int) -> int:
        return self._count_from(v + 1)

    def count_ge_scaled(self, v: int) -> int:
        return self._count_from(v)

    def counts_gt_scaled(self, v: np.ndarray) -> np.ndarray:
        return self._counts_from(np.asarray(v, dtype=np.int64) + 1)

    def counts_ge_scaled(self, v: np.ndarray) -> np.ndarray:
        return self._counts_from(np.asarray(v, dtype=np.int64))

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
        """Support values in the window and their counts, from the pairs
        (u, r) with u + r inside it: each left value's span of right indices,
        repeated into one array of pairs, then summed per distinct value."""
        lo_eff = lo_scaled if include_lo else lo_scaled + 1
        hi_eff = hi_scaled if include_hi else hi_scaled - 1
        first = np.searchsorted(self._rv, lo_eff - self._lv, side="left")
        stop = np.searchsorted(self._rv, hi_eff - self._lv, side="right")
        spans = np.maximum(stop - first, 0)
        assembled = int(spans.sum())
        if assembled > _WINDOW_GUARD:
            raise BudgetError("support window too dense to assemble")
        rows = np.repeat(np.arange(len(spans)), spans)
        # right index of each pair: its row's first index plus its place in the row
        cols = np.arange(assembled) + np.repeat(first - (np.cumsum(spans) - spans), spans)
        sums = self._lv[rows] + self._rv[cols]
        values, inverse = np.unique(sums, return_inverse=True)
        counts = np.zeros(len(values), dtype=np.int64)
        np.add.at(counts, inverse, self._lc[rows] * self._rc[cols])
        return values, counts


def _suffix_counts(counts: np.ndarray) -> np.ndarray:
    """suffix[i] = counts[i] + ... + counts[-1], and a final zero."""
    return np.concatenate([np.cumsum(counts[::-1])[::-1], np.zeros(1, dtype=np.int64)])


def _half(side: int, weights: np.ndarray):
    """A meet-in-the-middle half as stored: the left (side 0) as distinct
    values descending and their counts, the right (side 1) as values
    ascending, their counts and suffix counts."""
    values, counts = _enumerated(weights)
    if side == 0:
        return values[::-1], counts[::-1]
    return values, counts, _suffix_counts(counts)


def _enumerated(weights: np.ndarray):
    """Distinct values of sum(w_i x_i) and their counts, point by point."""
    values, counts = np.unique(kernels.dot_values(weights), return_counts=True)
    return values, counts.astype(np.int64, copy=False)


def _dense(total: int, backend: str | None) -> bool:
    """Whether a sum of scaled weights `total` takes the dense backend."""
    return backend == "dense" or (backend is None and total <= DENSE_BUDGET)


def _mitm(n: int, total: int, backend: str | None) -> bool:
    """Whether n weights summing to `total` take the meet-in-the-middle backend."""
    return (n <= MAX_SUMMANDS and not _dense(total, backend)
            and (backend == "mitm" or n <= MITM_MAX_N))


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
        if backend is None and (1 << n) <= total + 1:
            # the cube has no more points than the DP would have cells
            return TailDistribution(*_enumerated(weights), scale, n)
        dense = kernels.signed_sum_counts(weights)
        nz = np.nonzero(dense)[0]
        return TailDistribution(2 * nz - total, dense[nz], scale, n)
    if _mitm(n, total, backend):
        return MeetInMiddleDistribution.from_weights(weights, scale)
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
        self._backend = None
        self._forget()

    def _forget(self) -> None:
        """Drop every distribution and statistic counted so far."""
        self._dist = None
        self._reduced: dict[int, _TailBase] = {}
        self._suffix: dict[int, _TailBase] = {}
        self._influences: dict[Fraction, list[Fraction]] = {}  # by threshold
        self._boundaries: dict[Fraction, tuple[int, int]] = {}  # by threshold
        self._deltas: dict[tuple[Fraction, Fraction], Fraction] = {}  # by (c, t)

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
        """The distribution of a.x.  Naming a backend other than the current
        one drops every cached statistic, which came from the old route."""
        if backend is not None and backend != self._backend:
            self._forget()
            self._backend = backend
        if self._dist is None:
            self._dist = distribution_from_scaled(self.scaled, self.scale, self._backend)
        return self._dist

    def reduced_distribution(self, j: int) -> _TailBase:
        """Distribution of a.x - a_j x_j (internal index j).

        When it and the full distribution both take the meet-in-the-middle
        backend, it shares the full distribution's half without j.
        """
        if j not in self._reduced:
            rest_total = self._total - int(self.scaled[j])
            if (_mitm(self.n, self._total, self._backend)
                    and _mitm(self.n - 1, rest_total, self._backend)):
                self._reduced[j] = self.distribution().without(self.scaled, j)
            else:
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

    def _internal(self, i: int) -> int | None:
        """Internal position of original coordinate i; None for a dropped zero weight."""
        if not 0 <= i < self.arity:
            raise IndexError(f"coordinate {i} outside 0..{self.arity - 1}")
        return self.order.index(i) if i in self.order else None

    def influence(self, i: int, t=None) -> Fraction:
        """Influence of original coordinate i; dropped zero weights have none."""
        j = self._internal(i)
        return Fraction(0) if j is None else self.influence_internal(j, t)

    def influences(self, t=None) -> list[Fraction]:
        """Influence of every original coordinate, computed once per threshold.

        On the dense route the full distribution's counts are divided by
        (1 + z^w) for each distinct weight w; past MAX_SUMMANDS (those counts
        overflow) or above the dense budget, each coordinate has its own
        reduced distribution, which above the budget enumerates only the
        coordinate's own half.
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
        """Minimal delta >= 0 with F(t + delta) <= c * F(t); exact, and
        searched once per (c, t).

        F is a right-continuous step function, so the infimum is attained at
        a support value.
        """
        c = as_fraction(c)
        t = self.threshold if t is None else as_fraction(t)
        if (c, t) not in self._deltas:
            self._deltas[c, t] = self._delta(c, t)
        return self._deltas[c, t]

    def _delta(self, c: Fraction, t: Fraction) -> Fraction:
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
        j = self._internal(i)
        if j is None:
            return Fraction(0)
        w = self.weights[j]
        dist = self.reduced_distribution(j)
        lo = _floor_scaled(t - w, self.scale)
        hi = _ceil_scaled(t + delta + w, self.scale)
        values, counts = dist.support_window(lo, hi, include_lo=True, include_hi=True)
        # in Python ints, in units of 1/(scale * q): the overlap is
        # min(delta, a + 2w) - max(0, a) with a = v - t - w
        ts, ds = t * self.scale, delta * self.scale
        q = math.lcm(ts.denominator, ds.denominator)
        w_q = int(self.scaled[j]) * q
        a = values.astype(object) * q - int(ts * q) - w_q
        overlap = np.minimum(int(ds * q), a + 2 * w_q) - np.maximum(a, 0)
        acc = int(np.dot(counts.astype(object), np.maximum(overlap, 0)))
        return Fraction(acc, self.scale * q) / (delta * (1 << (self.n - 1)))


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
    _check_arity(n, max_n)
    scale = common_scale(ws)
    scaled = np.array([int(w * scale) for w in ws], dtype=np.int64)
    vals = kernels.dot_values(scaled)
    cut = _floor_scaled(threshold, scale)
    return BooleanFunction(n, (vals > cut).view(np.uint8))


def parse_halfspace(text: str) -> Halfspace:
    """Parse 'ltf:w1,w2,...;t' with rational entries."""
    spec = FunctionSpec.parse(text)
    if spec.kind != "ltf":
        raise ValueError(f"not a halfspace literal: {text!r}")
    return spec.halfspace()
