"""Exact halfspaces over rational weights.

Weights and thresholds are rescaled to integers internally, so a tie
a.x = t is decided exactly and the strict ">" rule never needs the
"perturb slightly" escape hatch.  The distribution of a.x is kept in one
of two forms, and ``_dense`` alone picks one.  Under the dense budget, for
a cube with more points than the DP has cells, it is its subset-sum DP's
cells (``TailDistribution``): with T the sum of the weights, cell s =
0..T is a.x = 2s - T, and one suffix array over every cell, zero cells
included, holds the outcomes with a.x >= 2s - T, in Python ints past 62
summands.  Every tail count, first-moment tail, influence window and delta
search reads that array by index.  Every other sum, past the budget or a
small cube (2^n <= T + 1), splits into two halves combined per query,
each half the sorted distribution of every other weight
(``SupportDistribution``: the distinct values, their counts and their
suffix counts, read by ``searchsorted``).  Callers read tails, the
outcomes above a value and the sum of a.x over them, or a whole support,
``support()``, one sorted distribution built on each call.

The DP keeps only the lower half of each prefix's counts, a palindrome,
and mirrors the last one once into the T + 1 counts whose suffix the
distribution keeps; the counts are freed once it exists.  Each form counts
every influence: the DP's as a window of its suffix counts with one weight
divided out, read at the window's edges as one strided view, a split as
a signed sum over the points of the half that holds the weight, each
point weighted by the other half's tail count above the cut less its
value, counted in ascending order of the values and summed by folding the
half's points in two, one coordinate at a time.  Both vertex boundaries
come from one sweep of that DP, which adds the weights after the first
smallest first and reads each window from a prefix's lower half as one
slice and one mirrored slice, or, where the weights after the first would
split, from one tail count per suffix, its two halves paired.

The delta search (the least value whose tail count is within a limit)
is one ``searchsorted`` of the suffix counts on the DP's cells or a sorted
distribution.  On the split it is a weighted selection among the pairs
of the two halves: a bracket narrowed by exact counts, then finished by
the sorted search over its last few pairs.  The counts are placed by the
split's guide (``_Guide``), a dense DP of its weights rounded to multiples
of a power of two, small enough to cost less than one count: its own
search puts the limit at a guide value, and a secant step from the last
counts along the guide's places corrects it, lumps and gaps of a.x
included.  A round that gained little is followed by a count at a
weighted quantile of a fixed stratified sample of the bracket's pairs.
Thresholds and the keys of counts above a value are clamped into the
range of a.x before any count, so none wraps int64.  A ``Halfspace``
keeps each count and each support in one memo (``memoized``), keyed by
the function and its arguments and cleared when the backend changes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
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
_WINDOW_GUARD = 5_000_000  # max pairs a split assembles into its whole support
_QUERY_KEYS = 1 << 20  # max keys searched at once by a vectorised tail count
# pairs a split's delta search samples after a stalled round, and reads at the end;
# its guide's counts aim within this many outcomes past the limit to close the bracket
_SEARCH_PAIRS = 4096


class BudgetError(ValueError):
    """Instance exceeds every distribution backend's budget."""


def _floor_scaled(q: Fraction, scale: int) -> int:
    return math.floor(q * scale)


class _TailBase:
    """Query interface shared by the distribution forms.

    A form supplies ``counts_ge_scaled`` (the outcomes with value >= v, at
    a Python int or at every entry of an int64 array of any shape),
    ``moment_gt_scaled`` (the sum of the values above v, a Python int at a
    Python int), ``first_value_tail_le`` (the delta search), ``min_scaled``
    and ``max_scaled``.  The DP's cells and the split also supply
    ``influence_counts`` and ``support()``, the whole support, built on each
    call and kept by ``Halfspace.support`` alone (a split refuses past
    _WINDOW_GUARD pairs).  Written once, here: the counts at a rational
    threshold, clamped into the support's range before they reach int64.
    All probabilities are exact with denominator 2^n_summands; thresholds
    are rationals in original (unscaled) units unless suffixed _scaled.

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
        return self.count_gt_scaled(math.ceil(as_fraction(q) * self.scale) - 1)

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
    ``searchsorted`` of the values.  It holds each half of a split, a
    whole support and a split search's last window."""

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

    def moment_gt_scaled(self, v):
        """A suffix of value * count read by ``searchsorted``, at a Python int
        (clamped first) or an int64 array; in Python ints past int64."""
        scalar = not isinstance(v, np.ndarray)
        keys = _clamped(int(v), self.min_scaled, self.max_scaled) if scalar else v
        dtype = kernels.exact_int_dtype(max(-self.min_scaled, self.max_scaled) << self.n_summands)
        moments = _suffix_counts(self.values.astype(dtype) * self.counts.astype(dtype))
        out = moments[np.searchsorted(self.values, keys, side="right")]
        return int(out) if scalar else out

    def first_value_tail_le(self, limit_num: int, limit_den: int) -> int:
        """values[k] qualifies when suffix[k + 1] is within the cap."""
        cap = self._tail_cap(limit_num, limit_den)
        return self.max_scaled if cap < 0 else int(self.values[_least_within(self._suffix, cap)])


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
        at its edges: the suffix at cells b + 1, b + 1 - w, ... as one
        strided view, and suffix[0] (every outcome) for an edge below cell
        0.  The windows are disjoint, so every term and every partial sum
        counts at most 2^n subsets: exact in the dtype of the counts.  Q is
        a palindrome (s and T - w - s), so the window is read at the top b
        or T - 1 - b, whichever has fewer edges below.
        """
        total = self.max_scaled
        if not 0 <= b <= total:
            return 0  # Q has no mass below 0 or above T - w
        b = min(b, total - 1 - b)
        at_least = self._suffix[b + 1 :: -w]
        if (b + 1) % w:
            at_least = np.append(at_least, self._suffix[0])
        terms = at_least[1:] - at_least[:-1]
        return int(terms[0::2].sum()) - int(terms[1::2].sum())

    def first_value_tail_le(self, limit_num: int, limit_den: int) -> int:
        """Cell s qualifies when suffix[s + 1] is within the cap.  The least
        such cell is a support value: a zero cell has the suffix of the cell
        above it, and cell 0 has count 1."""
        cap = self._tail_cap(limit_num, limit_den)
        top = self.max_scaled
        return top if cap < 0 else 2 * _least_within(self._suffix, cap) - top

    def moment_gt_scaled(self, v: int) -> int:
        """Over the cells s >= s0, the first with a.x = 2s - T above v, s *
        count[s] sums to s0 * suffix[s0] plus the sum of suffix[s0 + 1:], in
        int64 pieces of 2^(62 - n) cells, each under 2^62, or in Python ints."""
        top = self.max_scaled
        s0 = min(max((int(v) + top) // 2 + 1, 0), top + 1)
        rest, at = self._suffix[s0 + 1 :], int(self._suffix[s0])
        if rest.dtype != object:
            rest = np.add.reduceat(rest, np.arange(0, len(rest), 1 << max(62 - self.n_summands, 0)))
        return 2 * (s0 * at + sum(rest.tolist())) - top * at

    def support(self) -> SupportDistribution:
        """The nonzero cells, each count a difference of neighbouring suffixes."""
        counts = self._suffix[:-1] - self._suffix[1:]
        held = np.flatnonzero(counts)
        return SupportDistribution(2 * held - self.max_scaled, counts[held],
                                   self.scale, self.n_summands)


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

    def __init__(self, left: SupportDistribution, right: SupportDistribution,
                 weights: np.ndarray):
        self.left = left
        self.right = right
        self.weights = weights  # the scaled weights, left half at even places
        self.scale = left.scale
        self.n_summands = left.n_summands + right.n_summands
        self.min_scaled = left.min_scaled + right.min_scaled
        self.max_scaled = left.max_scaled + right.max_scaled

    @classmethod
    def from_weights(cls, weights: np.ndarray, scale: int) -> "MeetInMiddleDistribution":
        # alternate large/small weights between halves to balance the sums
        return cls(_enumerated(weights[0::2], scale), _enumerated(weights[1::2], scale), weights)

    def without(self, weights: np.ndarray, j: int) -> "MeetInMiddleDistribution":
        """Distribution of `weights` with weight j deleted, self being that of
        `weights`: j's half is enumerated again, the other half is shared."""
        side = j % 2
        halves = [self.left, self.right]
        halves[side] = _enumerated(np.delete(weights[side::2], j // 2), self.scale)
        return MeetInMiddleDistribution(*halves, np.delete(weights, j))

    @cached_property
    def _guide(self) -> "_Guide":
        """The delta search's guide, built where a search first places a probe."""
        return _Guide(self.weights.tolist(), len(self.left.values) + len(self.right.values))

    @property
    def _rows(self):
        """The left half's values and counts, descending: the rows of a pair table."""
        return self.left.values[::-1], self.left.counts[::-1]

    def influence_counts(self, weights: np.ndarray, cut: int) -> np.ndarray:
        """For every weight j, the sum of x_j over the points with a.x > cut:
        Inf_j * 2^(n-1), the weights being nonnegative.  self is the
        distribution of `weights`, as in ``without``.

        For j in one half, that sum runs over the half's points p, each
        weighted by x_j(p) times g(p), the other half's tail count above
        cut - u(p).  g is one ``searchsorted`` of the points' keys in
        ascending order (``_ascending_points``), so that each search narrows
        from the one before it, scattered back to the points' order.  Bit i
        of a point is x_i = +1, so the sum for the top bit is the upper half
        of g less the lower; adding the two halves folds that bit away, and
        the next bit is the top one of an array half as long.
        """
        out = np.empty(len(weights), dtype=np.int64)
        for side, other in enumerate((self.right, self.left)):
            values, points = _ascending_points(weights[side::2])
            g = np.empty(len(points), dtype=np.int64)
            g[points[::-1]] = other._suffix[np.searchsorted(other.values, cut - values[::-1], "right")]
            for i in range(len(weights[side::2]) - 1, -1, -1):
                low, high = g.reshape(2, -1)
                out[side + 2 * i] = int(high.sum()) - int(low.sum())
                g = low + high
        return out

    def counts_ge_scaled(self, v):
        """Outcomes with value >= v at every entry of v, a block of rows of
        keys at a time; a Python int or 0-d v is a block of one row.  Keys
        are clamped into min_scaled..max_scaled + 1 first, so none wraps
        when a left value is subtracted: a Python int by ``min`` and
        ``max``, an array by ``np.maximum`` and ``np.minimum``, as the DP's
        cells clamp theirs."""
        lo, hi = self.min_scaled, self.max_scaled + 1
        if isinstance(v, np.ndarray):
            v = np.minimum(np.maximum(v.astype(np.int64, copy=False), lo), hi)
        else:
            v = np.array(min(max(int(v), lo), hi))
        flat = v.ravel()
        out = np.empty(len(flat), dtype=np.int64)
        lv, lc = self._rows
        rows = max(1, _QUERY_KEYS // len(lv))
        for s in range(0, len(flat), rows):
            out[s : s + rows] = self.right.counts_ge_scaled(flat[s : s + rows, None] - lv) @ lc
        return out.reshape(v.shape)

    def moment_gt_scaled(self, v: int) -> int:
        """For each left value u, u times the right half's tail count above v -
        u plus its moment there, dotted with the left counts; v clamped first."""
        lv, lc = self._rows
        keys = _clamped(int(v), self.min_scaled, self.max_scaled) - lv  # ascending
        dtype = kernels.exact_int_dtype(max(-self.min_scaled, self.max_scaled) << self.n_summands)
        rows = (lv.astype(dtype) * self.right.counts_gt_scaled(keys).astype(dtype)
                + self.right.moment_gt_scaled(keys))
        return int(rows @ lc.astype(dtype))

    def support(self) -> SupportDistribution:
        """Every pair (u, r) summed per value u + r; refused past _WINDOW_GUARD pairs."""
        rows, cols = len(self.left.values), len(self.right.values)
        if rows * cols > _WINDOW_GUARD:
            raise BudgetError("support too wide")
        pairs = self._pair_sums(np.full(rows, 0), np.full(rows, cols))
        return SupportDistribution(*pairs, self.scale, self.n_summands)

    def _pair_sums(self, first: np.ndarray, stop: np.ndarray):
        """The distinct values u + r and their counts over the pairs of left
        row i and right index first[i]..stop[i] - 1: the spans repeated into
        one array of pairs, sorted by value, and each run of one value's
        count products summed by one ``np.add.reduceat``, exact in int64:
        the sums count at most the 2^n points of the split's n <=
        INT64_SUMMANDS weights."""
        lv, lc = self._rows
        spans = stop - first
        held = np.flatnonzero(spans > 0)
        spans = spans[held]
        rows = np.repeat(held, spans)
        # right index of each pair: its row's first index plus its place in the row
        cols = np.arange(len(rows)) + np.repeat(first[held] - (np.cumsum(spans) - spans), spans)
        sums = lv[rows] + self.right.values[cols]
        counts = lc[rows] * self.right.counts[cols]
        order = np.argsort(sums)
        sums = sums[order]
        starts = np.flatnonzero(np.diff(sums, prepend=sums[:1] - 1))  # the first pair of each value
        return sums[starts], np.add.reduceat(counts[order], starts)

    def first_value_tail_le(self, limit_num: int, limit_den: int) -> int:
        """A weighted selection among the pairs (u, r) of the two halves.

        A bracket [lo, hi] always holds the answer: every value below lo
        has more than cap outcomes above it, and hi has at most cap.  It
        keeps, per left row, the span of right indices whose pairs lie in
        it.  A probe is one exact count, whose right indices become the new
        span ends; once the bracket holds at most _SEARCH_PAIRS pairs, the
        sorted search over them ends.

        Each round makes one probe, clamped into lo..hi - 1.  It is placed
        by the split's guide (``_Guide``), built where the first probe is
        placed and kept, so a search whose bracket starts within one window
        builds none: the dense distribution of its weights rounded to
        multiples of a power of two q.  The guide's place for a count is q
        times its value with that many outcomes above.  The first probe
        goes to the place for the goal; each later one is a secant step
        from the last probe, which moves from the last probe's place to the
        goal's along the slope (places per unit of value) the last two
        probes showed.  Until there are two, the slope is 1: the step is the
        goal's place plus the last probe's offset from its own place, which
        corrects the guide where the rounding moved it.  Once an end is
        within _SEARCH_PAIRS outcomes of the cap, the step aims just past
        the cap (``_goal``), so that the next probe closes the bracket.  At
        caps 0 and 2^n the answer is an end of the range, and no probe is
        made.

        A round whose count is not 4 times closer to the cap than the round
        before's (than total, in the first round) stalled, and the next
        probe goes to a sampled quantile of the bracket in place of a guide
        step (``_estimate``), whether or not its ends have been probed: the
        value where the sample's outcomes above reach the share of the
        bracket's the cap allows, (cap - above_hi) / (above_lo - above_hi).
        The sample's ranks are fixed, so each search makes the same probes
        on every run.
        """
        cap, total = self._tail_cap(limit_num, limit_den), self.total
        if cap <= 0 or cap == total:  # the ends of the range, no count needed
            return self.max_scaled if cap <= 0 else self.min_scaled
        lo, hi = self.min_scaled, self.max_scaled
        above_lo, above_hi = total, 0  # outcomes >= lo and > hi
        first = np.zeros(len(self.left.values), dtype=np.int64)
        stop = np.full(len(self.left.values), len(self.right.values), dtype=np.int64)
        last, slope = None, 1.0  # the last probe's value and place, and dplace/dv
        gap, stalled = total, False  # the last count's distance to the cap
        while lo < hi and int((spans := stop - first).sum()) > _SEARCH_PAIRS:
            if stalled:
                v = self._estimate(first, spans, (cap - above_hi) / (above_lo - above_hi))
            else:
                goal = self._guide.place(_goal(cap, above_lo, above_hi))
                v = goal if last is None else last[0] + round((goal - last[1]) / slope)
            v = min(max(v, lo), hi - 1)
            above, idx = self._probe(v, first, stop)
            if above <= cap:
                hi, above_hi, stop = v, above, idx
            else:
                lo, above_lo, first = v + 1, above, idx
            p = self._guide.place(above)
            if last is not None and p != last[1]:
                slope = (p - last[1]) / (v - last[0])
            last, near = (v, p), abs(above - cap)
            stalled, gap = 4 * near >= gap, near
        if lo == hi:
            return lo
        window = SupportDistribution(*self._pair_sums(first, stop), self.scale, self.n_summands)
        return window.first_value_tail_le(cap - above_hi, 1)

    def _probe(self, v: int, first: np.ndarray, stop: np.ndarray):
        """The outcomes with value > v, for v in a bracket whose pairs lie at
        right indices first[i]..stop[i] - 1 of left row i, and for each row
        the first right index past v - u: only the rows whose span is not
        empty are searched, and the others have it at first[i] (while every
        row is live, as before the bracket's second end is probed, all are
        searched with no copies).  The count is read from the right half's
        suffix counts at those indices."""
        lv, lc = self._rows
        live = stop > first
        if live.all():
            idx = np.searchsorted(self.right.values, v - lv, side="right")
        else:
            live = np.flatnonzero(live)
            keys = lv[live]
            idx = first.copy()
            idx[live] = np.searchsorted(self.right.values, np.subtract(v, keys, out=keys), side="right")
        return int(self.right._suffix[idx] @ lc), idx

    def _estimate(self, first: np.ndarray, spans: np.ndarray, q: float) -> int:
        """About where the share q of the bracket's outcomes lies above: the
        weighted quantile of a stratified sample of its pairs, the middle
        pair of each of k equal runs, each pair weighted by its two counts."""
        ends = np.cumsum(spans)
        k = _SEARCH_PAIRS
        ranks = ((np.arange(k) + 0.5) * (int(ends[-1]) / k)).astype(np.int64)
        rows = np.searchsorted(ends, ranks, side="right")
        cols = first[rows] + ranks - (ends[rows] - spans[rows])
        lv, lc = self._rows
        values = lv[rows] + self.right.values[cols]
        order = np.argsort(values)
        # float weights: only the count's place depends on them
        mass = np.cumsum(lc[rows[order]] * self.right.counts[cols[order]].astype(float))
        return int(values[order[min(int(np.searchsorted(mass, (1 - q) * mass[-1])), k - 1)]])


class _Guide:
    """A split's delta-search guide: the subset-sum DP of its weights
    rounded to multiples of q, c_i = (w_i + q/2) // q, with q the least
    power of two that puts their sum T at or below `cells`.  Zero c_i stay
    in the DP, so it counts all 2^n outcomes.  Cell s is c.x = 2s - T,
    which stands for a.x = q * (2s - T).  The guide keeps the DP's running
    sums in place of its counts, ``below[s]`` the outcomes in cells 0..s,
    read by one ``searchsorted``."""

    def __init__(self, weights: list[int], cells: int):
        q = 1
        while sum((w + q // 2) // q for w in weights) > cells:
            q *= 2
        coarse = [(w + q // 2) // q for w in weights]
        self.q, self.top = q, sum(coarse)
        counts = kernels.signed_sum_counts(np.array(coarse, dtype=np.int64))
        self.below = np.cumsum(counts, out=counts)

    def place(self, above: int) -> int:
        """The value of a.x with `above` outcomes above it, by the guide: q
        times the guide's value there, each cell's outcomes spread evenly
        over the two units about it.  Cell s is the least with at most
        `above` outcomes in the cells above it."""
        total = int(self.below[-1])
        above = min(max(above, 0), total)
        s = int(np.searchsorted(self.below, total - above, side="left"))
        under = int(self.below[s - 1]) if s else 0
        share = (above - total + int(self.below[s])) / (int(self.below[s]) - under)
        return round(self.q * (2 * s + 1 - self.top - 2 * share))


def _clamped(cut: int, low: int, high: int) -> int:
    """A scaled cut clamped to [low - 1, high]: for values in [low, high]
    the outcomes above it are the same, and it fits int64."""
    return min(max(cut, low - 1), high)


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


def _ascending_points(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The point sums of `weights` ascending, and the point of each: one
    ``np.sort`` of value * 2^h + point, h = len(weights).  The values are
    first shifted right by the bits that would otherwise pass int64, so a
    half of huge weights comes out sorted by its values' top bits, nearly
    sorted; the values returned are exact, read at the sorted points."""
    h = len(weights)
    values = kernels.dot_values(weights)
    keys = values >> max(0, int(weights.sum()).bit_length() + h - 62)
    keys <<= h
    keys |= np.arange(1 << h)
    keys.sort()
    points = keys & ((1 << h) - 1)
    return values[points], points


def _enumerated(weights: np.ndarray, scale: int) -> SupportDistribution:
    """One half of a split: the distribution of sum(w_i x_i), point by
    point, its distinct values and their counts."""
    values, counts = np.unique(kernels.dot_values(weights), return_counts=True)
    return SupportDistribution(values, counts.astype(np.int64, copy=False), scale, len(weights))


def _dense(n: int, total: int, backend: str | None) -> bool:
    """Whether n scaled weights summing to `total` take the dense DP, the
    one rule between the two forms: up to MAX_SUMMANDS of them, when named,
    or with no backend named when under the budget and the cube has more
    points than the DP has cells, 2^n > total + 1 (a smaller cube is a
    split).  Past INT64_SUMMANDS its counts are Python ints, and the budget
    prices its n * (total + 1) cell updates."""
    cost = n * (total + 1) if n > kernels.INT64_SUMMANDS else total
    return n <= MAX_SUMMANDS and (backend == "dense" or (
        backend is None and cost <= DENSE_BUDGET and 1 << n > total + 1))


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
        self._memo: dict[tuple, object] = {}  # every count and support so far, by ``memoized``

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
    def support(self, j: int | None = None) -> SupportDistribution:
        """The support of a.x, or given j of a.x - a_j x_j (internal index
        j), built once; j is passed only for a reduced support, so each has
        one memo key."""
        return (self.distribution() if j is None else self.reduced_distribution(j)).support()

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

        Suffix k (the weights after k) has at most n - 1 summands.  Where
        n - 1 weights summing to T would split (past the dense budget, or a
        small cube), each suffix is one tail count of two paired halves
        (``_paired_suffix_counts``).  Otherwise, or when the dense DP takes
        suffix 0 but the halves do not, one DP sweep (in Python ints past 62
        summands) adds the weights after weight 0 smallest first and reads
        suffix k just before weight k joins it, each window from the lower
        half of its counts (``_window_sum``).
        """
        if _mitm(self.n - 1, self._total, self._backend):
            return _paired_suffix_counts(self.scaled, self.cut(t), self._tail_count(t))
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

        Each outcome r of the reduced sum contributes the overlap of [r - t -
        a_i, r - t + a_i) with (0, delta), a trapezoid in r, so the sum is
        H(t - a_i) - H(t - a_i + delta) - H(t + a_i) + H(t + a_i + delta),
        H(c) the sum of r - c over the outcomes with r > c: four tails.
        """
        delta = as_fraction(delta)
        if delta <= 0:
            raise ValueError("smoothing width must be positive")
        t = self._at(t)
        j = self._internal(i)
        if j is None:
            return Fraction(0)
        dist = self.reduced_distribution(j)
        # in Python ints, in units of 1/(scale * q), where t and delta are
        # integers: a scaled r is above c / q exactly when it is above c // q
        ts, ds = t * self.scale, delta * self.scale
        q = math.lcm(ts.denominator, ds.denominator)
        tq, dq, wq = int(ts * q), int(ds * q), int(self.scaled[j]) * q

        def above(c: int) -> int:
            return q * dist.moment_gt_scaled(c // q) - c * dist.count_gt_scaled(c // q)

        acc = above(tq - wq) - above(tq - wq + dq) - above(tq + wq) + above(tq + wq + dq)
        return Fraction(acc, self.scale * q) / (delta * (1 << (self.n - 1)))


def _paired_suffix_counts(weights: np.ndarray, cut: int, above: int) -> tuple[int, int]:
    """0-side and 1-side boundary counts of 1{weights.x > cut}, weights
    descending, `above` of the points above the cut.  With A_k the points
    above the cut whose weights before k are all -1, the 1-side points whose
    first +1 weight is k number A_k - 2 A_(k+1): flipping x_k to -1 maps
    those still above the cut onto A_(k+1).  So the 1-side is A_0 - A_1 -
    ... - A_(n-1) - 2 A_n, A_0 = `above`, and the 0-side the same with +1
    and a.x <= cut.  A_k is one tail count of weights[k:], a suffix of
    weights[2::2] paired with one of weights[1::2]."""
    n = len(weights)
    halves = [_sorted_suffix_sums(weights[2::2]), _sorted_suffix_sums(weights[1::2])]
    sizes = [0, 0]  # the weights of each half in weights[k:]
    c0, c1 = (1 << n) - above, above
    for k in range(n, 0, -1):
        even, odd = halves[0][sizes[0]], halves[1][sizes[1]]
        prefix, times = int(weights[:k].sum()), 2 if k == n else 1
        c1 -= times * _pairs_above(even, odd, cut + prefix)
        c0 -= times * ((1 << (n - k)) - _pairs_above(even, odd, cut - prefix))
        sizes[(k - 1) % 2] += 1  # weight k - 1 joins weights[k - 1:]
    return c0, c1


def _sorted_suffix_sums(weights: np.ndarray) -> list[np.ndarray]:
    """For j = 0..len(weights), the 2^j point sums of the last j weights,
    ascending.  Those of j + 1 weights are the sums S of j less and plus
    the weight w before them, two ascending runs S - w and S + w, which one
    stable sort merges."""
    out = [np.zeros(1, dtype=np.int64)]
    for w in weights[::-1].tolist():
        sums = np.concatenate([out[-1] - w, out[-1] + w])
        sums.sort(kind="stable")
        out.append(sums)
    return out


def _pairs_above(a: np.ndarray, b: np.ndarray, key: int) -> int:
    """Pairs (x, y) of a and b, both ascending, with x + y > key: the y above
    key - x for each x of the shorter array."""
    if len(a) > len(b):
        a, b = b, a
    return len(a) * len(b) - int(np.searchsorted(b, key - a[::-1], side="right").sum())


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
    """Truth table of 1{w.x > t} for arbitrary-sign rational weights, one
    block of ``kernels._BLOCK`` points at a time.

    With c the block's coordinates (at least a word's 6), point m has a.x
    = low[m mod 2^c] + high[m >> c], low and high the ``dot_values`` of the
    first c scaled weights and of the rest.  Block h of the table is where
    low > cut - high[h], compared and packed into its own words; a table of
    at most c coordinates is one compare-and-pack.  The scaled cut is
    clamped into -T - 1..T first, T the sum of the scaled magnitudes, as
    ``_clamped`` clamps: the points above it are the same, and cut - high
    fits int64 where a threshold past +-T would not.  No array of 2^n
    entries is made beside the words.
    """
    ws = [as_fraction(w) for w in weights]
    n = len(ws)
    _check_arity(n)
    scaled, scale = scaled_int64(ws)
    total = int(np.abs(scaled).sum())
    cut = _clamped(_floor_scaled(as_fraction(threshold), scale), -total, total)
    c = min(n, max(kernels._BLOCK.bit_length() - 1, 6))
    low = kernels.dot_values(scaled[:c])
    if c == n:
        return from_truth_table(low > cut, n)
    words = np.empty(kernels.word_count(n), dtype=kernels.WORD)
    blocks = words.view(np.uint8).reshape(1 << (n - c), -1)
    for block, h in zip(blocks, kernels.dot_values(scaled[c:]).tolist()):
        block[:] = np.packbits(low > cut - h, bitorder="little")
    return BooleanFunction(n, words)


def parse_halfspace(text: str) -> Halfspace:
    """Parse 'ltf:w1,w2,...;t' with rational entries."""
    spec = FunctionSpec.parse(text)
    if spec.kind != "ltf":
        raise ValueError(f"not a halfspace literal: {text!r}")
    return spec.halfspace()
