"""Exact halfspaces over rational weights.

Weights and thresholds are rescaled to integers internally, so a tie
a.x = t is decided exactly and the strict ">" rule never needs the
"perturb slightly" escape hatch.  The distribution of a.x is kept in one
of three forms, selected by budget.  Under the dense budget it is its
subset-sum DP's cells (``TailDistribution``): with T the sum of the
weights, cell s = 0..T is a.x = 2s - T, and one suffix array over every
cell, zero cells included, holds the outcomes with a.x >= 2s - T, in
Python ints past 62 summands.  Every tail count, influence window, delta
search and support window reads that array by index.  A small cube, with
no more points than the DP would have cells, is enumerated instead into a
sorted distribution (``SupportDistribution``: the distinct values, their
counts and their suffix counts, read by ``searchsorted``).  Past the
budget the sum splits into two halves combined per query, each half the
sorted distribution of every other weight.  Either form's whole support,
``support()``, is one sorted distribution: the enumerated one itself, the
DP's nonzero cells made on each call, or the pairs of the halves
assembled once.

The DP keeps only the lower half of each prefix's counts, a palindrome,
and mirrors the last one once into the T + 1 counts whose suffix the
distribution keeps; the counts are freed once it exists.  Each form counts
every influence: the DP's as a window of its suffix counts with one weight
divided out, read at the window's edges as one strided view, a split as
one masked sum over the points of the half that holds the weight, each
point weighted by the other half's tail count above the cut less its
value.  Both vertex boundaries come from one sweep of that DP, which adds
the weights after the first smallest first and reads each window from a
prefix's lower half as one slice and one mirrored slice, or above the
budget from suffixes of the two halves paired.

The delta search (the least value whose tail count is within a limit)
is one ``searchsorted`` of the suffix counts on the DP's cells or a sorted
distribution.  On the split it is a weighted selection among the pairs
of the two halves: a bracket narrowed by exact counts, each placed by a
secant step in the normal quantile of the share below (the first by the
Gaussian limit), then finished by the sorted search over its last few
pairs.  A sample of the bracket's pairs places the counts only after a
step that gained little, as where a.x is far from Gaussian.  Thresholds
and the keys of counts above a value are clamped into the range of a.x
before any count, so none wraps int64.  A ``Halfspace`` keeps each count
in one memo (``memoized``), keyed by the counting function and its
arguments and cleared when the backend changes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .bfcore import BooleanFunction, FunctionSpec, _check_arity, from_truth_table
from .rational import as_fraction, format_fraction, scaled_int64

DENSE_BUDGET = 10_000_000  # max sum of scaled weights (or DP cells) for the dense backend
MITM_MAX_N = 40
# 1022: the most summands of any distribution, the largest n for which a
# tail probability 2^-n, and the Gaussian tail at z = sqrt(n), are normal doubles
MAX_SUMMANDS = 1 - sys.float_info.min_exp
_WINDOW_GUARD = 5_000_000  # max pairs assembled for a support window query
_QUERY_KEYS = 1 << 20  # max keys searched at once by a vectorised tail count
_SEARCH_PAIRS = 4096  # pairs a delta search samples in a safeguard round, and reads at the end


class BudgetError(ValueError):
    """Instance exceeds every distribution backend's budget."""


def _floor_scaled(q: Fraction, scale: int) -> int:
    return math.floor(q * scale)


def _ceil_scaled(q: Fraction, scale: int) -> int:
    return math.ceil(q * scale)


class _TailBase:
    """Query interface shared by the three distribution forms.

    A form supplies ``counts_ge_scaled`` (the outcomes with value >= v, at
    a Python int or at every entry of an int64 array of any shape),
    ``support_window`` (the support values in a closed window, and their
    counts), ``support()`` (the whole support as a ``SupportDistribution``;
    a meet-in-the-middle split refuses past _WINDOW_GUARD pairs with a
    BudgetError), ``first_value_tail_le`` (the delta search, from the
    form's own data), ``min_scaled`` and ``max_scaled``.  Written once,
    here: the counts at a rational threshold, clamped into the support's
    range before they reach int64, and the influence counts as windows
    with one weight divided out, read at edges that ``_edge_counts``
    gives: one tail query of the edges, or on the DP's cells, whose suffix
    array is indexed by cell, one strided view of it.  All probabilities
    are exact with denominator 2^n_summands; thresholds are rationals in
    original (unscaled) units unless suffixed _scaled.

    ``first_value_tail_le(limit_num, limit_den)`` is the least scaled v in
    [min_scaled, max_scaled] with count_gt_scaled(v) * limit_den <=
    limit_num, for limit_den > 0, and max_scaled when no v qualifies.  The
    tail count is constant from one support value up to the next, so that v
    is a support value.
    """

    scale: int
    n_summands: int
    min_scaled: int
    max_scaled: int

    @property
    def total(self) -> int:
        return 1 << self.n_summands

    def influence_counts(self, weights: np.ndarray, cut: int) -> np.ndarray:
        """For every weight j, Inf_j * 2^(n-1) of 1{a.x > cut}, cut in [-T, T]
        and self the distribution of `weights`, T their sum.  As a.x = 2s - T,
        s the sum of the +1 weights, w decides when the others at +1 sum to
        b - w + 1..b, b = (cut + T) // 2: a window of these counts with w
        divided out (``leave_one_out_window``), once per distinct weight."""
        b = (cut + int(weights.sum())) // 2
        weights = weights.tolist()
        counts = {w: self.leave_one_out_window(w, b) for w in set(weights)}
        dtype = object if self.n_summands > kernels.INT64_SUMMANDS else np.int64
        return np.array([counts[w] for w in weights], dtype=dtype)

    def leave_one_out_window(self, w: int, b: int) -> int:
        """Subsets of the other weights with sum in b - w + 1..b, weight w > 0
        removed, self being the distribution of weights summing to T =
        max_scaled, w among them.

        With P the subset-sum counts of all the weights, P(z) = Q(z) * (1 +
        z^w) gives Q[s] = P[s] - P[s - w] + P[s - 2w] - ..., so the window
        of Q is the alternating sum of P's windows (b - (i+1)w, b - iw] for
        i >= 0.  P's subsets with sum at least e are the outcomes with a.x
        >= 2e - T, so each window is a difference of two tail counts read
        at its edges (``_edge_counts``).  The windows are disjoint, so every
        term and every partial sum counts at most 2^n subsets: exact in the
        dtype of the counts.  Q is a palindrome (s and T - w - s), so the
        window is read at the top b or T - 1 - b, whichever has fewer edges
        below.
        """
        total = self.max_scaled
        if not 0 <= b <= total:
            return 0  # Q has no mass below 0 or above T - w
        at_least = self._edge_counts(w, min(b, total - 1 - b))
        terms = at_least[1:] - at_least[:-1]
        return int(terms[0::2].sum()) - int(terms[1::2].sum())

    def _edge_counts(self, w: int, b: int) -> np.ndarray:
        """The outcomes with a.x >= 2e - T at the subset sums e = b + 1,
        b + 1 - w, ... down past 0: one tail count of the edges' array."""
        total = self.max_scaled
        return self.counts_ge_scaled(np.arange(2 * (b + 1) - total, -2 * w - total, -2 * w))

    def count_gt_scaled(self, v: int) -> int:
        return int(self.counts_ge_scaled(_clamped(int(v), self.min_scaled, self.max_scaled) + 1))

    def counts_gt_scaled(self, v: np.ndarray) -> np.ndarray:
        """Each key clamped as ``_clamped`` clamps a cut before the + 1, so
        no key wraps in int64, and a split subtracts its left values from
        keys within its range."""
        keys = np.maximum(np.asarray(v, dtype=np.int64), self.min_scaled - 1)
        return self.counts_ge_scaled(np.minimum(keys, self.max_scaled) + 1)

    def _tail_cap(self, limit_num: int, limit_den: int) -> int:
        """count * limit_den <= limit_num holds exactly when count <=
        limit_num // limit_den; that cap, clamped to total."""
        return min(limit_num // limit_den, self.total)

    def count_gt(self, q) -> int:
        return self.count_gt_scaled(_floor_scaled(as_fraction(q), self.scale))

    def count_ge(self, q) -> int:
        # integer values at least x are those above ceil(x) - 1
        return self.count_gt_scaled(_ceil_scaled(as_fraction(q), self.scale) - 1)

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


class SupportDistribution(_TailBase):
    """Sorted exact distribution: the distinct scaled sums ascending, their
    int64 counts and the suffix counts beside them, so a tail count is one
    ``searchsorted`` of the values.  It holds an enumerated small cube, each
    half of a split, and any whole support assembled once."""

    def __init__(self, values: np.ndarray, counts: np.ndarray, scale: int, n_summands: int):
        self.values = values
        self.counts = counts
        self.scale = scale
        self.n_summands = n_summands
        self._suffix = _suffix_counts(counts)
        self.min_scaled = int(values[0])
        self.max_scaled = int(values[-1])

    def counts_ge_scaled(self, v):
        return self._suffix[np.searchsorted(self.values, v, side="left")]

    def support(self) -> "SupportDistribution":
        return self

    def first_value_tail_le(self, limit_num: int, limit_den: int) -> int:
        """values[k] qualifies when suffix[k + 1] is within the cap."""
        cap = self._tail_cap(limit_num, limit_den)
        return self.max_scaled if cap < 0 else int(self.values[_least_within(self._suffix, cap)])

    def support_window(self, lo_scaled: int, hi_scaled: int):
        left = int(np.searchsorted(self.values, lo_scaled, "left"))
        right = int(np.searchsorted(self.values, hi_scaled, "right"))
        return self.values[left:right], self.counts[left:right]


class TailDistribution(_TailBase):
    """The dense DP's distribution: one suffix array over every cell s =
    0..T of the subset-sum counts, zero cells included, and a final zero.
    Cell s is a.x = 2s - T, and suffix[s] counts the outcomes with a.x >=
    2s - T, int64 or (past 62 summands) Python ints.  Every query reads it
    by index; the values and counts of the support are made on request.
    The weights sum to T, so min_scaled = -T (cell 0 has count 1) and
    max_scaled = T."""

    def __init__(self, counts: np.ndarray, scale: int, n_summands: int):
        self.scale = scale
        self.n_summands = n_summands
        self._suffix = _suffix_counts(counts)
        self.max_scaled = len(counts) - 1
        self.min_scaled = -self.max_scaled

    def counts_ge_scaled(self, v):
        """The suffix at cell ceil((v + T) / 2), clamped to 0..T + 1: a
        Python int v stays one, and an array is clamped to +-(T + 1) before
        T is added, so int64 cannot wrap.  ``np.maximum`` and ``np.minimum``
        clamp it: ``np.clip`` costs more on the few keys a check passes."""
        top = self.max_scaled
        if not isinstance(v, np.ndarray):
            return self._suffix[min(max((int(v) + top + 1) // 2, 0), top + 1)]
        cells = np.minimum(np.maximum(v.astype(np.int64, copy=False), -top - 1), top + 1)
        cells += top + 1
        cells >>= 1
        return self._suffix[cells]

    def support(self) -> SupportDistribution:
        """The nonzero cells as a sorted distribution, made on each call."""
        return SupportDistribution(*self.support_window(self.min_scaled, self.max_scaled),
                                   self.scale, self.n_summands)

    def _edge_counts(self, w: int, b: int) -> np.ndarray:
        """The suffix at cells b + 1, b + 1 - w, ... as one strided view,
        and suffix[0] (every outcome) for an edge below cell 0."""
        at_least = self._suffix[b + 1 :: -w]
        return at_least if (b + 1) % w == 0 else np.append(at_least, self._suffix[0])

    def first_value_tail_le(self, limit_num: int, limit_den: int) -> int:
        """Cell s qualifies when suffix[s + 1] is within the cap.  The least
        such cell is a support value: a zero cell has the suffix of the cell
        above it, and cell 0 has count 1."""
        cap = self._tail_cap(limit_num, limit_den)
        top = self.max_scaled
        return top if cap < 0 else 2 * _least_within(self._suffix, cap) - top

    def support_window(self, lo_scaled: int, hi_scaled: int):
        """The nonzero cells with lo <= 2s - T <= hi, and their counts, the
        differences of neighbouring suffix counts."""
        top = self.max_scaled
        first = min(max((int(lo_scaled) + top + 1) // 2, 0), top + 1)
        stop = max(first, min((int(hi_scaled) + top) // 2 + 1, top + 1))
        counts = self._suffix[first:stop] - self._suffix[first + 1 : stop + 1]
        held = np.flatnonzero(counts)
        return 2 * (held + first) - top, counts[held]


class MeetInMiddleDistribution(_TailBase):
    """Two sorted halves: a.x = u + r, u from the left half, r from the right.

    Each half is the ``SupportDistribution`` of every other weight.  The
    outcomes with value >= v number the sum over left values u of count(u)
    times the right half's tail count at v - u: for a block of queries, one
    tail query of the right half at every key, then one matrix product with
    the left counts.  A pair table has one row per left value, descending
    (``_rows``), so each row of keys ascends, the order in which
    ``searchsorted`` narrows each search from the one before it.
    """

    def __init__(self, left: SupportDistribution, right: SupportDistribution):
        self.left = left
        self.right = right
        self.scale = left.scale
        self.n_summands = left.n_summands + right.n_summands
        self.min_scaled = left.min_scaled + right.min_scaled
        self.max_scaled = left.max_scaled + right.max_scaled
        self._support = None
        self._sigma = None  # the standard deviation of a.x, on the first delta search

    @classmethod
    def from_weights(cls, weights: np.ndarray, scale: int) -> "MeetInMiddleDistribution":
        # alternate large/small weights between halves to balance the sums
        return cls(_enumerated(weights[0::2], scale), _enumerated(weights[1::2], scale))

    def without(self, weights: np.ndarray, j: int) -> "MeetInMiddleDistribution":
        """Distribution of `weights` with weight j deleted, self being that of
        `weights`: j's half is enumerated again, the other half is shared."""
        side = j % 2
        halves = [self.left, self.right]
        halves[side] = _enumerated(np.delete(weights[side::2], j // 2), self.scale)
        return MeetInMiddleDistribution(*halves)

    @property
    def _rows(self):
        """The left half's values and counts, descending: the rows of a pair table."""
        return self.left.values[::-1], self.left.counts[::-1]

    def influence_counts(self, weights: np.ndarray, cut: int) -> np.ndarray:
        """For every weight j, the sum of x_j over the points with a.x > cut:
        Inf_j * 2^(n-1), the weights being nonnegative.  self is the
        distribution of `weights`, as in ``without``.

        For j in one half, that sum runs over the half's points p, each
        weighted by x_j(p) times the other half's tail count above cut -
        u(p): one tail query for all p, then one masked sum per coordinate.
        """
        above = (self.right.counts_gt_scaled(cut - kernels.dot_values(weights[0::2])),
                 self.left.counts_gt_scaled(cut - kernels.dot_values(weights[1::2])))
        out = np.empty(len(weights), dtype=np.int64)
        for side, g in enumerate(above):
            total = int(g.sum())
            for i in range(len(weights[side::2])):  # bit i of a point is x_i = +1
                out[side + 2 * i] = 2 * int(g.reshape(-1, 2, 1 << i)[:, 1].sum()) - total
        return out

    def counts_ge_scaled(self, v):
        """Outcomes with value >= v at every entry of v, a block of rows of
        keys at a time; a Python int or 0-d v is a block of one row.  Keys
        are clamped into min_scaled..max_scaled + 1 first, so none wraps
        when a left value is subtracted."""
        v = np.asarray(np.clip(v, self.min_scaled, self.max_scaled + 1), dtype=np.int64)
        flat = v.ravel()
        out = np.empty(len(flat), dtype=np.int64)
        lv, lc = self._rows
        rows = max(1, _QUERY_KEYS // len(lv))
        for s in range(0, len(flat), rows):
            out[s : s + rows] = self.right.counts_ge_scaled(flat[s : s + rows, None] - lv) @ lc
        return out.reshape(v.shape)

    def support(self) -> SupportDistribution:
        """Every pair (u, r) assembled once into the sorted distribution of
        their sums, under the guard of ``support_window``."""
        if self._support is None:
            pairs = self.support_window(self.min_scaled, self.max_scaled)
            self._support = SupportDistribution(*pairs, self.scale, self.n_summands)
        return self._support

    def support_window(self, lo_scaled: int, hi_scaled: int):
        """Support values in the window and their counts, from the pairs
        (u, r) with u + r inside it: each left value's span of right indices."""
        lo = _clamped(lo_scaled, self.min_scaled, self.max_scaled + 1)
        hi = _clamped(hi_scaled, self.min_scaled, self.max_scaled)
        lv = self._rows[0]
        first = np.searchsorted(self.right.values, lo - lv, side="left")
        stop = np.searchsorted(self.right.values, hi - lv, side="right")
        if int(np.maximum(stop - first, 0).sum()) > _WINDOW_GUARD:
            raise BudgetError("support too wide")
        return self._pair_sums(first, stop)

    def _pair_sums(self, first: np.ndarray, stop: np.ndarray):
        """The distinct values u + r and their counts over the pairs of left
        row i and right index first[i]..stop[i] - 1: the spans repeated into
        one array of pairs, then summed per distinct value."""
        lv, lc = self._rows
        spans = stop - first
        held = np.flatnonzero(spans > 0)
        spans = spans[held]
        rows = np.repeat(held, spans)
        # right index of each pair: its row's first index plus its place in the row
        cols = np.arange(len(rows)) + np.repeat(first[held] - (np.cumsum(spans) - spans), spans)
        values, inverse = np.unique(lv[rows] + self.right.values[cols], return_inverse=True)
        counts = np.zeros(len(values), dtype=np.int64)
        np.add.at(counts, inverse, lc[rows] * self.right.counts[cols])
        return values, counts

    def first_value_tail_le(self, limit_num: int, limit_den: int) -> int:
        """A weighted selection among the pairs (u, r) of the two halves.

        A bracket [lo, hi] always holds the answer: every value below lo
        has more than cap outcomes above it, and hi has at most cap.  It
        keeps, per left row, the span of right indices whose pairs lie in
        it.  A probe is one exact count, whose right indices become the new
        span ends; once the bracket holds at most _SEARCH_PAIRS pairs, the
        sorted search over them ends.

        Each probe is a secant step in z(v), the normal quantile of the
        share of outcomes at or below v, which is nearly linear in v when
        a.x is nearly Gaussian.  The first is placed by the Gaussian limit
        (a.x is symmetric about 0, its standard deviation ``_sigma``), each
        later one from the last two probes.  A step outside the bracket
        becomes regula falsi between its ends.  Once an end is within
        _SEARCH_PAIRS outcomes of the cap, the step aims just past the cap
        (``_goal``), so that the next probe closes the bracket.

        A round whose nearest probe is not 4 times closer to the cap than
        the round before's (than total, in the first round) is followed by
        the safeguard, for a.x far from Gaussian: a round that samples
        _SEARCH_PAIRS of the bracket's pairs, estimates where the outcomes
        above reach the cap, and probes once either side of the estimate (or
        the midpoint, when neither side is inside).  The sample's generator
        has a fixed seed, so each search makes the same probes on every run.
        """
        cap = self._tail_cap(limit_num, limit_den)
        if cap < 0:
            return self.max_scaled
        from statistics import NormalDist  # on the first search, not with the package
        quantile, total = NormalDist().inv_cdf, self.total

        def z(above: int) -> float:
            """z of a value with `above` outcomes above it, the quantile read
            on the smaller side and kept finite at 0 and total outcomes."""
            side = max(min(above, total - above), 0.5) / total
            return quantile(side) if 2 * above > total else -quantile(side)

        lo, hi = self.min_scaled, self.max_scaled
        above_lo, above_hi = total, 0  # outcomes >= lo and > hi
        first = np.zeros(len(self.left.values), dtype=np.int64)
        stop = np.full(len(self.left.values), len(self.right.values), dtype=np.int64)
        rng = np.random.default_rng(0)
        if self._sigma is None:  # the halves' variances added, each half symmetric about 0
            self._sigma = math.sqrt(sum(float(half.counts @ np.square(half.values, dtype=float))
                                        / half.total for half in (self.left, self.right)))
        last, slope = (0, 0.0), self._sigma  # the Gaussian limit's centre and dv/dz
        gap, sample = total, False  # the last round's nearest distance to the cap
        while lo < hi and int((spans := stop - first).sum()) > _SEARCH_PAIRS:
            if sample:
                q = (cap - above_hi) / (above_lo - above_hi)  # share of the bracket allowed above
                probes = [v for v in self._estimates(first, spans, q, rng) if lo <= v < hi]
                probes = probes or [(lo + hi) // 2]
            else:
                goal = z(_goal(cap, above_lo, above_hi))
                probes = [_step(last, slope, goal, lo, hi, (z(above_lo), z(above_hi)))]
            near = total
            for v in probes:
                if lo <= v < hi:  # the round's first probe may have passed it
                    above, idx = self._probe(v)
                    if above <= cap:
                        hi, above_hi, stop = v, above, idx
                    else:
                        lo, above_lo, first = v + 1, above, idx
                    if (score := z(above)) != last[1]:
                        slope = (v - last[0]) / (score - last[1])
                    last, near = (v, score), min(near, abs(above - cap))
            sample, gap = 4 * near >= gap, near
        if lo == hi:
            return lo
        window = SupportDistribution(*self._pair_sums(first, stop), self.scale, self.n_summands)
        return window.first_value_tail_le(cap - above_hi, 1)

    def _probe(self, v: int):
        """The outcomes with value > v, and for each left value u the first
        right index past v - u: one full tail count, from the right half's
        suffix counts at those indices."""
        lv, lc = self._rows
        idx = np.searchsorted(self.right.values, v - lv, side="right")
        return int(self.right._suffix[idx] @ lc), idx

    def _estimates(self, first: np.ndarray, spans: np.ndarray, q: float, rng) -> list[int]:
        """Two values about where the share q of the bracket's outcomes lies
        above: weighted quantiles, 2.5 standard errors either side, of a
        stratified sample of its pairs, each pair weighted by its two counts."""
        ends = np.cumsum(spans)
        k = _SEARCH_PAIRS
        ranks = ((np.arange(k) + rng.random(k)) * (int(ends[-1]) / k)).astype(np.int64)
        np.minimum(ranks, ends[-1] - 1, out=ranks)
        rows = np.searchsorted(ends, ranks, side="right")
        cols = first[rows] + ranks - (ends[rows] - spans[rows])
        lv, lc = self._rows
        values = lv[rows] + self.right.values[cols]
        order = np.argsort(values)
        # float weights: only the probes' places depend on them
        mass = np.cumsum(lc[rows[order]] * self.right.counts[cols[order]].astype(float))
        margin = 2.5 * math.sqrt(q * (1 - q) / k)
        return [int(values[order[min(int(np.searchsorted(mass, (1 - share) * mass[-1])), k - 1)]])
                for share in (q + margin, q - margin)]


def _clamped(cut: int, low: int, high: int) -> int:
    """A scaled cut clamped to [low - 1, high]: for values in [low, high]
    the outcomes above it are the same, and it fits int64."""
    return min(max(cut, low - 1), high)


def _step(last: tuple[int, float], slope: float, goal: float, lo: int, hi: int,
          ends: tuple[float, float]) -> int:
    """A delta search's secant step to z = goal from `last`, a value and its
    z, along `slope` (dv/dz).  A step outside the bracket [lo, hi) is regula
    falsi between its ends, z_lo at lo - 1 and z_hi at hi (`ends`), instead;
    either is clamped into lo..hi - 1, so every step is a probe."""
    v = last[0] + slope * (goal - last[1])
    if not lo <= v < hi:
        z_lo, z_hi = ends
        share = (goal - z_lo) / (z_hi - z_lo) if z_hi > z_lo else 0.5
        v = lo - 1 + share * (hi - lo + 1)
    return min(max(int(v), lo), hi - 1)


def _goal(cap: int, above_lo: int, above_hi: int) -> int:
    """The count of outcomes above that a delta search's next probe aims
    at: the cap, or once an end of the bracket is within _SEARCH_PAIRS
    outcomes of it, the middle of the counts just past the cap that would
    leave at most _SEARCH_PAIRS outcomes between the ends."""
    if cap - above_hi <= _SEARCH_PAIRS:
        return (cap + 1 + above_hi + _SEARCH_PAIRS) // 2
    if above_lo - cap <= _SEARCH_PAIRS:
        return (above_lo - _SEARCH_PAIRS + cap) // 2
    return cap


def _suffix_counts(counts: np.ndarray) -> np.ndarray:
    """suffix[i] = counts[i] + ... + counts[-1], and a final zero: one
    ``cumsum`` of the reversed counts into the array returned."""
    suffix = np.empty(len(counts) + 1, dtype=counts.dtype)
    suffix[-1] = 0
    np.cumsum(counts[::-1], out=suffix[-2::-1])
    return suffix


def _least_within(suffix: np.ndarray, cap: int) -> int:
    """The least k with suffix[k + 1] <= cap, for cap >= 0 and suffix ending
    in 0: one ``searchsorted`` of the suffix, which ascends read backwards."""
    return max(len(suffix) - 1 - int(np.searchsorted(suffix[::-1], cap, side="right")), 0)


def _enumerated(weights: np.ndarray, scale: int) -> SupportDistribution:
    """The distribution of sum(w_i x_i), point by point: its distinct values
    and their counts."""
    values, counts = np.unique(kernels.dot_values(weights), return_counts=True)
    return SupportDistribution(values, counts.astype(np.int64, copy=False), scale, len(weights))


def _dense(n: int, total: int, backend: str | None) -> bool:
    """Whether n scaled weights summing to `total` take the dense DP: up to
    MAX_SUMMANDS of them, when named or under the budget.  Past
    INT64_SUMMANDS its counts are Python ints, and the budget prices its
    n * (total + 1) cell updates."""
    cost = n * (total + 1) if n > kernels.INT64_SUMMANDS else total
    return n <= MAX_SUMMANDS and (backend == "dense" or (backend is None and cost <= DENSE_BUDGET))


def _mitm(n: int, total: int, backend: str | None) -> bool:
    """Whether n weights summing to `total` take the meet-in-the-middle
    backend, whose counts are int64."""
    return (n <= kernels.INT64_SUMMANDS and not _dense(n, total, backend)
            and (backend == "mitm" or n <= MITM_MAX_N))


def distribution_from_scaled(weights: np.ndarray, scale: int, backend: str | None = None):
    """Build the exact distribution of sum(w_i x_i); backend auto-selected."""
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    n = len(weights)
    total = int(weights.sum())
    if backend not in (None, "dense", "mitm"):
        raise ValueError(f"unknown backend {backend!r}")
    if _dense(n, total, backend):
        if backend is None and (1 << n) <= total + 1:
            # the cube has no more points than the DP would have cells
            return _enumerated(weights, scale)
        # the counts are freed once their suffix exists
        return TailDistribution(kernels.signed_sum_counts(weights), scale, n)
    if _mitm(n, total, backend):
        return MeetInMiddleDistribution.from_weights(weights, scale)
    if n > MAX_SUMMANDS:
        raise BudgetError(f"n={n} summands exceed {MAX_SUMMANDS}: 2^-n is not a normal double")
    what = (f"scaled weight sum {total}" if total > DENSE_BUDGET
            else f"DP of {n} * ({total} + 1) cells")
    raise BudgetError(f"{what} exceeds the dense budget and n={n} > {MITM_MAX_N}")


def memoized(count):
    """count(h, *args) kept in halfspace h's one memo, keyed by the function itself and
    its arguments; ``Halfspace.distribution`` clears it when the backend changes."""
    def kept(h, *args):
        key = (count, *args)
        if key not in h._memo:
            h._memo[key] = count(h, *args)
        return h._memo[key]
    kept.__doc__ = count.__doc__
    return kept


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
        self.scaled, self.scale = scaled_int64(weights)
        self._total = int(self.scaled.sum())  # T: a.x = 2s - T, s the sum of the +1 weights
        self._backend = None
        self._memo: dict[tuple, object] = {}  # every count so far, by ``memoized``

    # -- construction helpers ------------------------------------------------

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
        one clears the memo, whose counts came from the old route."""
        if backend is not None and backend != self._backend:
            self._memo.clear()
            self._backend = backend
        return self._distribution()

    @memoized
    def _distribution(self) -> _TailBase:
        return distribution_from_scaled(self.scaled, self.scale, self._backend)

    @memoized
    def reduced_distribution(self, j: int) -> _TailBase:
        """Distribution of a.x - a_j x_j (internal index j).

        When it and the full distribution both take the meet-in-the-middle
        backend, it shares the full distribution's half without j.
        """
        rest_total = self._total - int(self.scaled[j])
        if (_mitm(self.n, self._total, self._backend)
                and _mitm(self.n - 1, rest_total, self._backend)):
            return self.distribution().without(self.scaled, j)
        return distribution_from_scaled(np.delete(self.scaled, j), self.scale, self._backend)

    # -- basic statistics ------------------------------------------------------

    def _at(self, t) -> Fraction:  # t as a Fraction, the threshold when t is None
        return self.threshold if t is None else as_fraction(t)

    def tail(self, t=None) -> Fraction:
        """F(t) = Pr[a.x > t]."""
        return Fraction(self._tail_count(self._at(t)), 1 << self.n)

    @memoized
    def _tail_count(self, t: Fraction) -> int:
        """The outcomes with a.x > t, of 2^n, as the tail and every search base read it."""
        return self.distribution().count_gt(t)

    def mean(self) -> Fraction:
        return self.tail()

    def sq_norm(self) -> Fraction:
        """|a|^2 = sum of s_j^2 over scale^2, summed in Python ints."""
        return Fraction(sum(s * s for s in self.scaled.tolist()), self.scale**2)

    def l2_norm(self) -> float:
        return math.sqrt(float(self.sq_norm()))

    def cut(self, t=None) -> int:
        """floor(t * scale), t the threshold by default, clamped into -T..T."""
        return _clamped(_floor_scaled(self._at(t), self.scale), -self._total, self._total)

    def influence_internal(self, j: int, t=None) -> Fraction:
        return self.influences(t)[self.order[j]]

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
        """Influence of every original coordinate, computed once per threshold
        by the distribution (``influence_counts`` of either backend), and
        refused exactly when it is; a copy of the memo's list."""
        return list(self._influences_at(self._at(t)))

    @memoized
    def _influences_at(self, t: Fraction) -> list[Fraction]:
        counts = self.distribution().influence_counts(self.scaled, self.cut(t)).tolist()
        out = [Fraction(0)] * self.arity
        for orig, count in zip(self.order, counts):
            out[orig] = Fraction(count, 1 << (self.n - 1))
        return out

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
        return Fraction(self._boundary_counts(self._at(t))[lam], 1 << self.n)

    @memoized
    def _boundary_counts(self, t: Fraction) -> tuple[int, int]:
        """0-side and 1-side boundary counts at t.

        Suffix k (the weights after k) has at most n - 1 summands.  Above
        the dense budget suffix k pairs a suffix of each meet-in-the-middle
        half.  Otherwise, or when the dense DP takes suffix 0 (the largest)
        but the halves do not, one DP sweep (in Python ints past 62 summands)
        adds the weights after weight 0 smallest first and reads suffix k
        just before weight k would join it, each window from the lower half
        of its counts (``_window_sum``).
        """
        if _mitm(self.n - 1, self._total, self._backend):
            return _paired_suffix_counts(self.scaled, self.cut(t))
        after_first = self.scaled[:0:-1]  # suffix 0, ascending
        if not _dense(self.n - 1, int(after_first.sum()), self._backend):
            raise BudgetError(f"suffix counts of {self.n - 1} summands fit no backend")
        c0 = c1 = 0
        b = (self.cut(t) + self._total) // 2  # w decides at sums b - w + 1..b of the rest
        weights = self.scaled.tolist()
        prefix, rest = self._total, 0  # the sums of weights[:k + 1] and weights[k + 1:]
        sweep = kernels.subset_sum_prefixes(after_first)
        for k, half in zip(range(self.n - 1, -1, -1), sweep):
            w = weights[k]
            prefix -= w  # now the sum of weights[:k]
            c1 += _window_sum(half, rest, b - w + 1, b)
            c0 += _window_sum(half, rest, b - prefix - w + 1, b - prefix)
            rest += w  # weight k joins suffix k - 1
        return c0, c1

    # -- truth table -----------------------------------------------------------

    def truth_table(self) -> BooleanFunction:
        return ltf_truth_table(self.original_weights, self.threshold)

    # -- decay machinery ---------------------------------------------------------

    def delta_query(self, c, t=None) -> Fraction:
        """Minimal delta >= 0 with F(t + delta) <= c * F(t); exact, and
        searched once per (c, t).

        F is a right-continuous step function, so the infimum is attained at
        a support value.  No shift makes a tail negative, so c < 0 is refused.
        """
        c = as_fraction(c)
        if c < 0:
            raise ValueError(f"decay factor {format_fraction(c)} is negative")
        return self._delta(c, self._at(t))

    @memoized
    def _delta(self, c: Fraction, t: Fraction) -> Fraction:
        base = self._tail_count(t)
        if base == 0:
            raise ValueError("tail probability at t is zero")
        limit_num, limit_den = (c.numerator * base, c.denominator)
        if base * limit_den <= limit_num:
            return Fraction(0)
        vstar = self.distribution().first_value_tail_le(limit_num, limit_den)
        return Fraction(vstar, self.scale) - t

    def decay_thresholds(self, t=None, k: int | None = None) -> DecayThresholds:
        """The decay shifts at t, searched once per (t, k)."""
        return self._decay_thresholds(self._at(t), k)

    @memoized
    def _decay_thresholds(self, t: Fraction, k: int | None) -> DecayThresholds:
        beta = self.delta_query(Fraction(1, 3), t)
        if k is None:
            gamma = self.delta_query(Fraction(1, 6), t)
        else:
            gamma = Fraction(0)
            lvl = 1
            while True:
                factor = (6 * k) ** lvl
                shift = self.delta_query(Fraction(1, factor), t)
                gamma = max(gamma, shift / lvl)
                if self._tail_count(t) < factor:  # tail must be empty from here on
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
        t = self._at(t)
        j = self._internal(i)
        if j is None:
            return Fraction(0)
        w = self.weights[j]
        dist = self.reduced_distribution(j)
        lo = _floor_scaled(t - w, self.scale)
        hi = _ceil_scaled(t + delta + w, self.scale)
        values, counts = dist.support_window(lo, hi)
        # in Python ints, in units of 1/(scale * q): the overlap is
        # min(delta, a + 2w) - max(0, a) with a = v - t - w
        ts, ds = t * self.scale, delta * self.scale
        q = math.lcm(ts.denominator, ds.denominator)
        w_q = int(self.scaled[j]) * q
        a = values.astype(object) * q - int(ts * q) - w_q
        overlap = np.minimum(int(ds * q), a + 2 * w_q) - np.maximum(a, 0)
        acc = int(np.dot(counts.astype(object), np.maximum(overlap, 0)))
        return Fraction(acc, self.scale * q) / (delta * (1 << (self.n - 1)))


def _paired_suffix_counts(weights: np.ndarray, cut: int) -> tuple[int, int]:
    """0-side and 1-side boundary counts of 1{weights.x > cut}, weights
    descending, from meet-in-the-middle halves of their suffixes.

    Suffix k (the weights after k) splits into the odd-indexed and the
    even-indexed weights after k, a suffix of weights[1::2] and one of
    weights[2::2].  With P the sum of weights[:k] and w = weights[k], the
    1-side counts the points of suffix k with a sum in (cut + P - w,
    cut + P + w], and the 0-side those in (cut - P - w, cut - P + w].
    """
    halves = [_sorted_suffix_sums(weights[2::2]), _sorted_suffix_sums(weights[1::2])]
    sizes = [0, 0]  # the weights of each half in suffix k
    prefix = int(weights.sum())
    c0 = c1 = 0
    for k in range(len(weights) - 1, -1, -1):
        w = int(weights[k])
        prefix -= w  # now the sum of weights[:k]
        even, odd = halves[0][sizes[0]], halves[1][sizes[1]]
        c1 += _pairs_within(even, odd, cut + prefix - w, cut + prefix + w)
        c0 += _pairs_within(even, odd, cut - prefix - w, cut - prefix + w)
        sizes[k % 2] += 1  # weight k joins suffix k - 1
    return c0, c1


def _sorted_suffix_sums(weights: np.ndarray) -> list[np.ndarray]:
    """For j = 0..len(weights), the 2^j point sums of the last j weights,
    ascending, from one ``dot_values`` of the weights reversed: its first
    2^j entries hold the last j weights with every other weight at -1."""
    sums = kernels.dot_values(weights[::-1])
    out = []
    for j in range(len(weights) + 1):
        part = np.sort(sums[: 1 << j])
        part += int(weights[: len(weights) - j].sum())
        out.append(part)
    return out


def _pairs_within(a: np.ndarray, b: np.ndarray, lo: int, hi: int) -> int:
    """Pairs (x, y) of a and b, both ascending, with lo < x + y <= hi: for
    each x of the shorter array, the y <= hi - x less the y <= lo - x."""
    if len(a) > len(b):
        a, b = b, a
    keys = a[::-1]  # ascending keys hi - x and lo - x
    return (int(np.searchsorted(b, hi - keys, side="right").sum())
            - int(np.searchsorted(b, lo - keys, side="right").sum()))


def _window_sum(half: np.ndarray, total: int, lo: int, hi: int) -> int:
    """The subsets with sum in lo..hi, from the lower half of subset-sum
    counts whose sums reach `total` (``kernels.subset_sum_prefixes``): the
    cells of the window up to the middle, total // 2, are one slice of the
    half, and those above it one slice read from the mirror, s at total - s."""
    lo, hi = max(lo, 0), min(hi, total)
    if lo > hi:
        return 0
    mid = total // 2
    below = half[lo : min(hi, mid) + 1].sum() if lo <= mid else 0
    above = half[total - hi : total - max(lo, mid + 1) + 1].sum() if hi > mid else 0
    return int(below) + int(above)


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


def ltf_truth_table(weights, threshold) -> BooleanFunction:
    """Truth table of 1{w.x > t} for arbitrary-sign rational weights."""
    ws = [as_fraction(w) for w in weights]
    threshold = as_fraction(threshold)
    n = len(ws)
    _check_arity(n)
    scaled, scale = scaled_int64(ws)
    vals = kernels.dot_values(scaled)
    cut = _floor_scaled(threshold, scale)
    return from_truth_table(vals > cut, n)


def parse_halfspace(text: str) -> Halfspace:
    """Parse 'ltf:w1,w2,...;t' with rational entries."""
    spec = FunctionSpec.parse(text)
    if spec.kind != "ltf":
        raise ValueError(f"not a halfspace literal: {text!r}")
    return spec.halfspace()
