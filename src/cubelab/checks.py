"""The theorem-check registry: every named check the harness can run.

Member checks receive one corpus member context; global checks run once per
suite on fixed instances.  Checks whose statement is exact assert with
rational equality; shape-only statistics report their value, and the runner
alone asserts them against pinned constants.  One skip rule covers every
budget: a member check whose filter or body raises BudgetError gives one
hypothesis-not-met record with the refusal's message, and a refused filter
runs no body.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from . import bfcore, correlate, levelk, spectral
from .bfcore import TABLE_CAP, FunctionSpec
from .chernoff import (
    EATON_BOUND,
    EATON_SLACK,
    REPORT,
    SKIPPED,
    CheckRecord,
    check_interval_decay,
    check_local_chernoff,
    gaussian_tail_ratio,
    log_concave_exp_holds,
)
from .halfspace import BudgetError, Halfspace, make_halfspace
from .influence import boundary_measures, influences

F = Fraction

XCHECK_CAP = 16         # truth-table cross-checks stay cheap below this
LOG_CONCAVITY_TRIPLES = 40  # LEM111's sampled threshold triples per member


class MemberContext:
    """Lazy per-member artifacts shared by all checks of a suite run.  No
    cube array is among them: SIGN-COND reads none, and WK-PIPELINE builds
    its own ``CubeScan``, freed when that check returns."""

    def __init__(self, label: str, entry: str):
        self.label = label
        self.entry = entry
        self.spec = FunctionSpec.parse(entry)

    @cached_property
    def halfspace(self) -> Halfspace | None:
        try:
            return self.spec.halfspace()
        except ValueError:
            return None

    @property
    def arity(self) -> int:
        h = self.halfspace
        if h is not None:
            return h.arity
        return int(self.function.n)

    @cached_property
    def function(self) -> bfcore.BooleanFunction | None:
        h = self.halfspace
        if h is not None and h.arity > TABLE_CAP:
            return None
        return self.spec.build()

    @cached_property
    def spectrum(self):
        return spectral.fwht_spectrum(self.function)

    @property
    def level_weights(self):
        return self.spectrum.level_weights()

    @cached_property
    def first_level(self) -> correlate.FirstLevel:
        return correlate.FirstLevel(self.function, self.spectrum)


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    scope: str                      # "member" or "global"
    # called as fn(ctx, constants), or fn(constants) for a global check; no
    # check reads the constants, the runner alone asserts pinned statistics
    fn: Callable
    applies: Callable[[MemberContext], bool] = lambda ctx: True


REGISTRY: dict[str, CheckDef] = {}


def _check(check_id: str, applies: Callable[[MemberContext], bool] | None = None):
    """Register the decorated body as check_id: a member check body(ctx), run
    on each member that applies admits, or without a filter a global check
    body(), run once per suite.  An id is registered once."""
    def register(body):
        if check_id in REGISTRY:
            raise ValueError(f"check {check_id} is already registered")

        def member(ctx, constants):  # drops the constants; a refusal is a skip
            try:
                return body(ctx)
            except BudgetError as exc:
                return [CheckRecord.skipped(check_id, ctx.label, str(exc))]

        REGISTRY[check_id] = (CheckDef(check_id, "global", lambda _: body()) if applies is None
                              else CheckDef(check_id, "member", member, applies))
        return body
    return register


def member_records(defn: CheckDef, ctx: MemberContext, constants) -> list[CheckRecord]:
    """The records of member check defn on ctx: none when its filter turns
    the member away, and the skip rule's one record when the filter's own
    counts are refused."""
    try:
        if not defn.applies(ctx):
            return []
    except BudgetError as exc:
        return [CheckRecord.skipped(defn.check_id, ctx.label, str(exc))]
    return defn.fn(ctx, constants)


def _is_halfspace(ctx: MemberContext) -> bool:
    return ctx.halfspace is not None


def _has_table(ctx: MemberContext) -> bool:
    return ctx.function is not None


def _halfspace_table(ctx: MemberContext) -> bool:
    return _is_halfspace(ctx) and _has_table(ctx)


def _biased_halfspace(ctx: MemberContext) -> bool:
    return _is_halfspace(ctx) and 0 < ctx.halfspace.mean() <= F(1, 2)


# ---------------------------------------------------------------------------
# exact identity checks

@_check("PARSEVAL", _has_table)
def _check_parseval(ctx: MemberContext) -> list[CheckRecord]:
    f = ctx.function
    total = ctx.level_weights.total()
    ok = spectral.parseval_holds(f, ctx.spectrum) and total == f.mean
    return [CheckRecord.verdict("PARSEVAL", ctx.label, ok, total, f.mean)]


@_check("FWHT-NAIVE", lambda ctx: _has_table(ctx) and ctx.function.n <= 8)
def _check_fwht_naive(ctx: MemberContext) -> list[CheckRecord]:
    f = ctx.function
    slow = spectral.spectrum_by_definition(f)
    ok = bool(np.array_equal(ctx.spectrum.numerators, slow.numerators))
    return [CheckRecord.verdict("FWHT-NAIVE", ctx.label, ok)]


@_check("DUAL", _has_table)
def _check_dual(ctx: MemberContext) -> list[CheckRecord]:
    f = ctx.function
    g = bfcore.dual(f)
    ok = g.mean == 1 - f.mean and bfcore.dual(g) == f
    notes = ""
    if ctx.halfspace is not None:
        ok = ok and ctx.halfspace.dual().truth_table() == g
        notes = "halfspace dual table compared"
    return [CheckRecord.verdict("DUAL", ctx.label, ok, g.mean, 1 - f.mean, notes)]


@_check("INFLUENCE-XCHECK",
        lambda ctx: _halfspace_table(ctx) and ctx.arity <= XCHECK_CAP)
def _check_influence_xcheck(ctx: MemberContext) -> list[CheckRecord]:
    h = ctx.halfspace
    f = ctx.function
    prof = influences(f)
    veils = boundary_measures(f)
    ok = (
        h.influences() == list(prof.per_coordinate)
        and h.mean() == f.mean
        and h.vertex_boundary(1) == veils.vb1
        and h.vertex_boundary(0) == veils.vb0
    )
    return [CheckRecord.verdict("INFLUENCE-XCHECK", ctx.label, ok)]


@_check("MONO-FOURIER", _has_table)
def _check_monotone_fourier(ctx: MemberContext) -> list[CheckRecord]:
    f = ctx.function
    if not bfcore.is_monotone(f):
        return [CheckRecord.skipped("MONO-FOURIER", ctx.label, "not monotone")]
    prof = influences(f)
    ok = all(
        ctx.spectrum.coefficient(1 << i) == prof.per_coordinate[i] / 2
        for i in range(f.n)
    )
    return [CheckRecord.verdict("MONO-FOURIER", ctx.label, ok)]


# ---------------------------------------------------------------------------
# fixed paper-example checks (global)

@_check("PAPER5")
def _global_paper5() -> list[CheckRecord]:
    f = bfcore.paper5()
    spec = spectral.fwht_spectrum(f)
    recs = []
    ok = all(spec.coefficient(1 << i) == F(1, 16) for i in range(5))
    recs.append(CheckRecord.verdict("PAPER5", "paper5", ok, notes="first-level coefficients"))
    cov_maj = spectral.covariance(f, bfcore.majority(5))
    recs.append(CheckRecord.verdict("PAPER5", "paper5", cov_maj == F(-1, 16), cov_maj, F(-1, 16),
                                    "covariance with the plain majority cut"))
    best = correlate.unbiased_correlator(correlate.FirstLevel(f, spec))
    recs.append(CheckRecord.verdict("PAPER5", "paper5", best.covariance == F(1, 8),
                                    best.covariance, F(1, 8), "one sign flip recovers 1/8"))
    return recs


@_check("SUBCUBE-VB")
def _global_subcube_vb() -> list[CheckRecord]:
    recs = []
    for k in range(1, 7):
        n = k + 2
        weights = [F(1)] * k + [F(0)] * (n - k)
        h = make_halfspace(weights, F(2 * k - 1, 2))
        vb1 = h.vertex_boundary(1)
        vb0 = h.vertex_boundary(0)
        ok = vb1 == F(1, 2**k) and vb0 == F(k, 2**k)
        recs.append(CheckRecord.verdict("SUBCUBE-VB", f"subcube:{k},{n}", ok, (vb0, vb1),
                                        (F(k, 2**k), F(1, 2**k)),
                                        f"boundary ratio {float(vb0 / vb1):.0f} = k"))
    return recs


@_check("DICT-VB")
def _global_dictator_vb() -> list[CheckRecord]:
    h = make_halfspace([F(1), F(0), F(0), F(0)], 0)
    vb1 = h.vertex_boundary(1)
    i1 = h.influence(0)
    ok = vb1 == i1 / 2
    return [CheckRecord.verdict("DICT-VB", "dict:4", ok, vb1, i1 / 2,
                                "lower bound tight for dictators")]


def _heavy_light_family(n: int) -> Halfspace:
    return make_halfspace([F(5)] * 4 + [F(4)] * (n - 4), 1)


@_check("EX54")
def _global_heavy_light_family() -> list[CheckRecord]:
    recs = []
    final = None
    for n in range(5, 42, 2):
        h = _heavy_light_family(n)
        ratio = h.vertex_boundary(1) / h.influence_internal(0)
        final = ratio
        recs.append(CheckRecord("EX54", f"n={n}", float(ratio), None, None,
                                None, REPORT, "vb1 / I1 along the 5&4 family"))
    ok = abs(float(final) - 10 / 9) <= 0.02
    recs.append(CheckRecord.verdict("EX54", "n=41", ok, float(final), 10 / 9,
                                    "limit value 10/9 within 0.02"))
    return recs


@_check("EX74")
def _global_or_blowup_example() -> list[CheckRecord]:
    recs = []
    for n, seed in ((16, 42), (25, 42)):
        f = bfcore.talagrand_or(n, seed)
        mu = f.mean
        lo = F(1, 2)
        hi = F(1, 2) + F(1, math.isqrt(n))  # both sizes are perfect squares
        ok = lo <= mu <= hi
        veils = boundary_measures(f)
        gap = float(veils.vb0 / veils.vb1) if veils.vb1 else math.inf
        recs.append(CheckRecord.verdict("EX74", f"talagrand:{n}:{seed}", ok, mu, (lo, hi),
                                        f"vb0/vb1 = {gap:.3f} (reported)"))
    return recs


@_check("LEM32-WITNESS")
def _global_interval_decay_witness() -> list[CheckRecord]:
    recs = []
    best = 0.0
    for n in range(21, 42, 2):
        h = make_halfspace([F(1)] * n, 0)
        rec = check_interval_decay(h.distribution(), 1, 2, F(3, 2),
                                   instance=f"all-ones n={n}")
        best = max(best, rec.ratio)
        recs.append(rec)
    ok = best >= 1.9
    recs.append(CheckRecord.verdict("LEM32", "all-ones family max", ok, best, 1.9,
                                    "family maximum must witness the lower bound"))
    return recs


# ---------------------------------------------------------------------------
# tail-shape lemmas on halfspace members

def _log_concavity_violations(dist, quarters: list[list[int]], m_scaled: int) -> list[bool]:
    """Whether F(d)F(b) > F(c)F(b+d-c-m) at each row (4b, 4c, 4d), b <= c <= d,
    with m_scaled = m * scale: one tail-count query per column, and the
    count products in Python ints, since they pass int64 from 32 summands."""
    s = dist.scale
    cols = [[x * s // 4 for x in col] for col in zip(*quarters)]
    cols.append([(b + d - c) * s // 4 - m_scaled for b, c, d in quarters])
    fb, fc, fd, fe = (dist.counts_gt_scaled(col).tolist() for col in cols)
    return [d * b > c * e for b, c, d, e in zip(fb, fc, fd, fe)]


@_check("LEM111", _is_halfspace)
def _check_log_concavity_member(ctx: MemberContext) -> list[CheckRecord]:
    h = ctx.halfspace
    dist = h.distribution()
    rng = np.random.default_rng([111, zlib.crc32(ctx.entry.encode())])
    lo = float(dist.min_value) - 1
    hi = float(dist.max_value) + 1
    # thresholds in quarters; one draw of three per triple, since one (40, 3)
    # draw may consume the generator differently and so change the triples
    quarters = [sorted(int(x) for x in rng.integers(int(4 * lo), int(4 * hi) + 1, size=3))
                for _ in range(LOG_CONCAVITY_TRIPLES)]
    bad = _log_concavity_violations(dist, quarters, 2 * int(h.scaled[0]))
    ok = not any(bad)
    notes = f"{LOG_CONCAVITY_TRIPLES} sampled triples"
    if not ok:
        notes += f"; first violation {[F(x, 4) for x in quarters[bad.index(True)]]}"
    return [CheckRecord.verdict("LEM111", ctx.label, ok, sum(bad), 0, notes)]


@_check("LEM32", _is_halfspace)
def _check_interval_decay_member(ctx: MemberContext) -> list[CheckRecord]:
    """All support-aligned 0 <= s <= t pairs at once via a prefix minimum."""
    h = ctx.halfspace
    sup = h.support()
    support = sup.values[sup.values >= 0]  # never empty: a.x is symmetric
    mass = _pivotal_counts(sup, int(h.scaled[0]), support)
    # pair (s, t): mass[t] <= 5 * mass[s] for every s-index <= t-index; as in
    # _decay_violations, 5 * min < mass as min <= (mass - 1) // 5, no overflow
    prefix_min = np.minimum.accumulate(mass)
    violations = int(np.count_nonzero(prefix_min <= (mass - 1) // 5))
    ratio = float(np.max(mass / np.maximum(prefix_min, 1)))
    ok = violations == 0
    return [CheckRecord.verdict("LEM32", ctx.label, ok, violations, 0,
                                f"{len(support)} aligned thresholds, max ratio {ratio:.3f}",
                                ratio)]


@_check("LEM42", _is_halfspace)
def _check_log_concave_exp_member(ctx: MemberContext) -> list[CheckRecord]:
    h = ctx.halfspace
    if h.mean() == 0:
        return [CheckRecord.skipped("LEM42", ctx.label, "empty tail")]
    dist = h.distribution()
    thr = h.decay_thresholds()
    m = thr.m
    grid_t = [F(0), thr.beta, thr.gamma, 2 * thr.gamma]
    grid_d = [d for d in (thr.beta, thr.gamma, m, F(1)) if d > 0]
    bad = sum(not log_concave_exp_holds(dist.count_gt(t), dist.count_gt(t + d + m),
                                        1 + int(t // d), dist.n_summands)
              for t in grid_t for d in grid_d)
    ok = bad == 0
    return [CheckRecord.verdict("LEM42", ctx.label, ok, bad, 0,
                                f"grid of {len(grid_t)}x{len(grid_d)} (t, delta) points")]


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) by a sort and an adjacent-difference mask; numpy's
    own unique hashes integer arrays, which is slower at millions of values."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _step_pieces(breaks: np.ndarray):
    """Half-open pieces [b_i, b_{i+1}) plus the two unbounded ends."""
    lows = np.concatenate([[-np.inf], breaks.astype(np.float64)])
    highs = np.concatenate([breaks.astype(np.float64), [np.inf]])
    return lows, highs


def _decay_violations(kappa: np.ndarray, highs: np.ndarray, piece_vals: np.ndarray) -> int:
    """t-pieces meeting [0, inf) whose value exceeds 5 times the least value
    of the s-pieces with kappa below the t-piece's upper end: one prefix
    minimum in kappa order, read at each upper end.  The piece holding 0
    has kappa 0, below every such end, so each t-piece meets one s-piece."""
    order = np.argsort(kappa, kind="stable")
    prefix_min = np.minimum.accumulate(piece_vals[order])
    t_idx = np.flatnonzero(highs > 0)
    reach = np.searchsorted(kappa[order], highs[t_idx], side="left")
    # 5 * min < I_t as min <= (I_t - 1) // 5, which cannot overflow int64
    return int(np.count_nonzero(prefix_min[reach - 1] <= (piece_vals[t_idx] - 1) // 5))


def _pivotal_counts(sup, w: int, cuts: np.ndarray) -> np.ndarray:
    """The outcomes of sup in (c - w, c + w] at each scaled cut c.  With sup
    the support of a.x - a_j x_j and w = a_j scaled, those are the points
    where coordinate j decides 1{a.x > c}."""
    return sup.counts_gt_scaled(cuts - w) - sup.counts_gt_scaled(cuts + w)


@_check("COR36", _is_halfspace)
def _check_influence_decay_member(ctx: MemberContext) -> list[CheckRecord]:
    """5 I_1(f_s) >= I_1(f_t) for every real |s| <= t, via piece sweep."""
    h = ctx.halfspace
    red = h.support(0)
    w0 = int(h.scaled[0])
    # the full support's values, but that passes _WINDOW_GUARD sooner: a
    # 23-coordinate split has 2^12 * 2^11 pairs, over it, and these 2^11 * 2^11
    breaks = _distinct(np.concatenate([red.values - w0, red.values + w0]))
    # influence of the heaviest coordinate at every piece's left end
    piece_vals = np.concatenate([[0], _pivotal_counts(red, w0, breaks)])
    lows, highs = _step_pieces(breaks)
    # s-pieces keyed by the infimum of |s| over the piece
    kappa = np.where(lows >= 0, lows, np.where(highs <= 0, -highs, 0.0))
    violations = _decay_violations(kappa, highs, piece_vals)
    ok = violations == 0
    return [CheckRecord.verdict("COR36", ctx.label, ok, violations, 0,
                                f"{len(breaks)} breakpoints swept")]


@_check("LEM51", _is_halfspace)
def _check_big_coordinate_influence(ctx: MemberContext) -> list[CheckRecord]:
    """Coordinates with weight above beta/2 carry influence >= 2 eps / 3."""
    h = ctx.halfspace
    eps = h.mean()
    if eps == 0:
        return [CheckRecord.skipped("LEM51", ctx.label, "empty tail")]
    beta = h.decay_thresholds().beta
    hits = 0
    for j, w in enumerate(h.weights):
        if 2 * w > beta:
            hits += 1
            if h.influence_internal(j) < F(2, 3) * eps:
                return [CheckRecord.verdict("LEM51", ctx.label, False, h.influence_internal(j),
                                            F(2, 3) * eps, f"coordinate {j}")]
    if hits == 0:
        return [CheckRecord.skipped("LEM51", ctx.label, "no weight above beta/2")]
    return [CheckRecord.verdict("LEM51", ctx.label, True, hits, hits,
                                f"{hits} heavy coordinates checked")]


@_check("LEM52", _is_halfspace)
def _check_smoothed_influence_bound(ctx: MemberContext) -> list[CheckRecord]:
    h = ctx.halfspace
    if h.mean() == 0:
        return [CheckRecord.skipped("LEM52", ctx.label, "empty tail")]
    t = h.threshold
    delta = h.decay_thresholds().delta
    if delta <= 0:
        return [CheckRecord.skipped("LEM52", ctx.label, "degenerate width")]
    bad = 0
    checked = 0
    for j in {0, h.n // 2, h.n - 1}:
        a = h.weights[j]
        if delta < a:
            continue
        checked += 1
        got = h.smoothed_influence(h.order[j], delta)
        bound = (a / delta) * h.distribution().prob_interval(
            t + a, t + delta - a, include_lo=True, include_hi=True)
        if got < bound:
            bad += 1
    if checked == 0:
        return [CheckRecord.skipped("LEM52", ctx.label, "delta below every weight")]
    ok = bad == 0
    return [CheckRecord.verdict("LEM52", ctx.label, ok, bad, 0,
                                f"{checked} coordinates checked at delta={delta}")]


@_check("LEM62", _is_halfspace)
def _check_relative_influence_member(ctx: MemberContext) -> list[CheckRecord]:
    """I_1(f_s)/mu(f_s) <= 6 I_1(f_t)/mu(f_t) for all 0 <= s <= t, exact."""
    h = ctx.halfspace
    sup = h.support()
    w0 = int(h.scaled[0])
    # 0 and the support >= 0, that is every reduced value +- a_0 that is >= 0
    breaks = sup.values[sup.values >= 0]
    breaks = breaks if breaks[0] == 0 else np.concatenate([[0], breaks])
    inf_counts = _pivotal_counts(h.support(0), w0, breaks).astype(object)
    mu_counts = sup.counts_gt_scaled(breaks).astype(object)
    # sweep s <= t over piece left-ends; exact integer cross-multiplication
    best_num, best_den = None, None  # running max of I/mu as a fraction
    violations = 0
    for i in range(len(breaks)):
        if mu_counts[i] == 0:
            break
        num, den = int(inf_counts[i]), int(mu_counts[i])
        if best_num is None or num * best_den > best_num * den:
            best_num, best_den = num, den
        # pair (s = argmax so far, t = i)
        if best_num * den > 6 * num * best_den:
            violations += 1
    ok = violations == 0
    return [CheckRecord.verdict("LEM62", ctx.label, ok, violations, 0,
                                f"{len(breaks)} thresholds swept")]


def _small_class_sums(h: Halfspace, n_big: int, cuts: np.ndarray) -> np.ndarray:
    """Sum over the coordinates j >= n_big of s_j times the points where j
    decides 1{a.x > g}, at each scaled cut g; s_j are the scaled weights,
    descending, so the first n_big are the big class.

    Over every coordinate that sum is the first-moment tail of a.x above g
    (``moment_gt_scaled``): with nonnegative weights f^({j}) = Inf_j / 2, so
    sum_j a_j Inf_j = 2 E[1{a.x > g} a.x].  The big class's windows come
    off, one reduced support each, in the dtype of the moments.
    """
    sums = h.support().moment_gt_scaled(cuts)
    for j in range(n_big):
        w = int(h.scaled[j])
        sums = sums - w * _pivotal_counts(h.support(j), w, cuts).astype(sums.dtype)
    return sums


@_check("PROP5", _is_halfspace)
def _check_threshold_monotone_member(ctx: MemberContext) -> list[CheckRecord]:
    """The small-class weighted influence sum is maximal at the base threshold."""
    h = ctx.halfspace
    eps = h.mean()
    if eps == 0:
        return [CheckRecord.skipped("PROP5", ctx.label, "empty tail")]
    if eps >= F(1, 4):
        return [CheckRecord.skipped("PROP5", ctx.label, "eps >= 1/4")]
    beta = h.decay_thresholds().beta
    n_big = sum(1 for w in h.weights if w > beta)
    if n_big > 0.5 * math.log2(1 / float(eps)):
        return [CheckRecord.skipped("PROP5", ctx.label, "big class too large")]
    t_scaled = h.cut()
    grid = h.support().values
    grid = grid[grid > t_scaled]
    sums = _small_class_sums(h, n_big, np.append(t_scaled, grid))
    violations = int(np.count_nonzero(sums[1:] > sums[0]))
    ok = violations == 0
    return [CheckRecord.verdict("PROP5", ctx.label, ok, violations, 0,
                                f"|B|={n_big}, {len(grid)} raised thresholds")]


# ---------------------------------------------------------------------------
# local Chernoff statistics, boundary bands, Gaussian comparison

@_check("THM18", _biased_halfspace)
def _check_strong_chernoff(ctx) -> list[CheckRecord]:
    return [check_local_chernoff(ctx.halfspace, None, "strong", instance=ctx.label)]


@_check("THM19", _biased_halfspace)
def _check_partitioned_chernoff(ctx) -> list[CheckRecord]:
    return [check_local_chernoff(ctx.halfspace, None, "partitioned", instance=ctx.label)]


@_check("THM110", _biased_halfspace)
def _check_weak_chernoff(ctx) -> list[CheckRecord]:
    return [
        check_local_chernoff(ctx.halfspace, None, "weak", c=c,
                             instance=f"{ctx.label} c={c}")
        for c in (F(1, 2), F(1, 6))
    ]


def _imax_scale(h: Halfspace, eps: Fraction) -> float:
    """The paper's I_max scale eps * min(1, a' sqrt(log(1/eps))), a' = a_1 / |a|."""
    a1 = float(h.weights[0]) / h.l2_norm()
    return float(eps) * min(1.0, a1 * math.sqrt(math.log(1 / float(eps))))


@_check("THM64", _biased_halfspace)
def _check_segment_band(ctx) -> list[CheckRecord]:
    """Pr[a.x in (t, t+2m]] against eps * min(1, m sqrt(log(1/eps)))."""
    h = ctx.halfspace
    t = h.threshold
    eps = h.mean()
    m = h.weights[0]
    seg = h.distribution().prob_interval(t, t + 2 * m)
    return [CheckRecord.report("THM64", ctx.label, float(seg) / _imax_scale(h, eps))]


@_check("GAUSS-EATON", _biased_halfspace)
def _check_gauss_member(ctx) -> list[CheckRecord]:
    """Worst Gaussian-domination ratio over the whole nonnegative grid."""
    h = ctx.halfspace
    try:
        sup = h.support()
    except BudgetError:  # one threshold instead of the sweep
        rec = gaussian_tail_ratio(h, max(F(0), h.threshold), instance=ctx.label)
        rec.ratio = rec.lhs / EATON_BOUND  # the sweep's meaning of ratio
        return [rec]
    norm = h.l2_norm()
    values = sup.values[sup.values >= 0]
    worst = 0.0
    # the grid is P(a.x > v) and P(a.x >= v) at each v, and the note counts
    # both; count_gt(v) <= count_ge(v) and each division below is correctly
    # rounded, so monotone, and the strict ratios never set the maximum
    for v, c in zip(values, sup.counts_ge_scaled(values)):
        z = float(v) / (sup.scale * norm)
        gauss = 0.5 * math.erfc(z / math.sqrt(2))
        # int / int is correctly rounded, so this is float(F(c, total))
        worst = max(worst, int(c) / sup.total / gauss)
    bound = EATON_BOUND * EATON_SLACK
    ok = worst <= bound
    return [CheckRecord.verdict("GAUSS-EATON", ctx.label, ok, worst, bound,
                                f"{2 * len(values)} grid evaluations", worst / EATON_BOUND)]


# ---------------------------------------------------------------------------
# Fourier weight checks

@_check("GL-halfplane", _halfspace_table)
def _check_sign_level1_mass(ctx) -> list[CheckRecord]:
    """A sign-valued halfspace keeps at least half its mass on levels 0-1."""
    f = ctx.function
    w1 = ctx.level_weights.level(1)
    signed = (2 * f.mean - 1) ** 2 + 4 * w1
    ok = signed >= F(1, 2)
    return [CheckRecord.verdict("GL-halfplane", ctx.label, ok, F(1, 2), signed,
                                "level <=1 weight of the sign version")]


@_check("LVL1-upper", _has_table)
def _check_level1_upper(ctx) -> list[CheckRecord]:
    f = ctx.function
    mu = f.mean
    if not 0 < mu <= F(1, 2):
        return [CheckRecord.skipped("LVL1-upper", ctx.label, "mean outside (0, 1/2]")]
    w1 = ctx.level_weights.level(1)
    rhs = 2 * float(mu) ** 2 * math.log(1 / float(mu))
    ok = float(w1) <= rhs + 1e-12
    return [CheckRecord.verdict("LVL1-upper", ctx.label, ok, w1, rhs)]


@_check("THM12-lower", _halfspace_table)
def _check_level1_lower(ctx) -> list[CheckRecord]:
    f = ctx.function
    mu = f.mean
    if not 0 < mu <= F(1, 2):
        return [CheckRecord.skipped("THM12-lower", ctx.label, "mean outside (0, 1/2]")]
    w1 = ctx.level_weights.level(1)
    stat = float(w1) / (float(mu) ** 2 * math.log(1 / float(mu)))
    return [CheckRecord.report("THM12-lower", ctx.label, stat)]


@_check("LVLK-upper", _halfspace_table)
def _check_levelk_upper(ctx) -> list[CheckRecord]:
    f = ctx.function
    mu = f.mean
    recs = []
    for k in levelk.LEVELS:
        if not 0 < float(mu) < math.exp(-k / 2):
            recs.append(CheckRecord.skipped("LVLK-upper", f"{ctx.label} k={k}",
                                            "mean not below e^(-k/2)"))
            continue
        lhs = ctx.level_weights.cumulative(k)
        rhs = (2 * math.e / k) ** k * float(mu) ** 2 * math.log(1 / float(mu)) ** k
        ok = float(lhs) <= rhs + 1e-12
        recs.append(CheckRecord.verdict("LVLK-upper", f"{ctx.label} k={k}", ok, lhs, rhs))
    return recs


@_check("THM14-band", _biased_halfspace)
def _check_influence_band(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    best, _ = h.max_influence()
    stat = float(best) / _imax_scale(h, h.mean())
    return [CheckRecord.report("THM14-band", ctx.label, stat)]


@_check("THM15-band", _biased_halfspace)
def _check_boundary_band(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    total = h.vertex_boundary(0) + h.vertex_boundary(1)
    stat = float(total) / _imax_scale(h, h.mean())
    return [CheckRecord.report("THM15-band", ctx.label, stat)]


@_check("PROP71", _biased_halfspace)
def _check_boundary_two_sided(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    if any(w == 0 for w in h.original_weights):  # the filter gave 0 < mean <= 1/2
        return [CheckRecord.skipped("PROP71", ctx.label,
                                    "needs positive weights and mean <= 1/2")]
    i1 = h.influence_internal(0)
    vb1 = h.vertex_boundary(1)
    vb0 = h.vertex_boundary(0)
    ok = i1 / 2 <= vb1 <= F(7, 4) * i1
    recs = [CheckRecord.verdict("PROP71", ctx.label, ok, vb1, (i1 / 2, F(7, 4) * i1))]
    ok0 = vb0 >= F(2, 7) * vb1
    # the member is not constant, so vb1 > 0, and log(1/eps) >= log 2
    ratio = float(vb0 / vb1)
    log_term = math.log(1 / float(h.mean()))
    recs.append(CheckRecord.verdict("PROP72", ctx.label, ok0, vb0, F(2, 7) * vb1,
                                    f"vb0/vb1 = {ratio:.3f}; /log(1/eps) = "
                                    f"{ratio / log_term:.3f} (reported)", ratio))
    return recs


# ---------------------------------------------------------------------------
# level-k checks

@_check("IH-DERIV")
def _global_derivative_law() -> list[CheckRecord]:
    rng = np.random.default_rng(8301)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        x = int(rng.integers(0, k)) + float(rng.uniform(0.15, 0.85))
        got, want = levelk.derivative_law_residual(k, x)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-5
    return [CheckRecord.verdict("IH-DERIV", "200 random points, k<=6", ok, worst, 1e-5)]


@_check("FDERIV")
def _global_poly_bracket() -> list[CheckRecord]:
    rng = np.random.default_rng(8401)
    bad = 0
    for _ in range(60):
        m = int(rng.integers(1, 6))
        degree = m + int(rng.integers(-1, 2))
        coeffs = [F(int(c), int(d)) for c, d in
                  zip(rng.integers(-6, 7, size=max(degree, 0) + 1),
                      rng.integers(1, 4, size=max(degree, 0) + 1))]
        a = [F(int(x), 2) for x in rng.integers(1, 7, size=m)]
        s = F(int(rng.integers(-6, 7)), 2)
        value, lo, hi = levelk.signed_poly_expectation(coeffs, a, s)
        if not lo <= value <= hi:
            bad += 1
    ok = bad == 0
    return [CheckRecord.verdict("FDERIV", "60 random polynomials, m<=5", ok, bad, 0)]


@_check("NG", _is_halfspace)
def _check_newton_girard(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    squares = [s * s for s in h.scaled.tolist()]
    total = sum(squares)
    values = [F(q, total) for q in squares]  # a_j^2 / |a|^2
    m_max = min(len(values), 8)
    stats = levelk.symmetric_stats(values, m_max)
    residuals = [stats.newton_girard_residual(m) for m in range(1, m_max + 1)]
    ok = all(r == 0 for r in residuals)
    recs = [CheckRecord.verdict("NG", ctx.label, ok, max(abs(r) for r in residuals), 0,
                                f"identities up to degree {m_max}")]
    for k in levelk.LEVELS:
        if k > m_max:
            continue
        hyp, chain, ek, bound = levelk.elementary_chain_check(stats, k)
        if hyp and levelk.Hypotheses(h, k).surrogate_ok:
            ok = chain and ek >= bound
            recs.append(CheckRecord.verdict("NG", f"{ctx.label} chain k={k}", ok, ek, bound,
                                            "squared-weight elementary sums stay large"))
    return recs


# no table is read; the cap keeps the records of every corpus wider than it unchanged
@_check("SIGN-COND", lambda ctx: _is_halfspace(ctx) and ctx.halfspace.n <= TABLE_CAP)
def _check_sign_condition(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    recs = []
    for k in levelk.LEVELS:
        try:
            holds = levelk.sign_condition_holds(h, k)
        except OverflowError:
            recs.append(CheckRecord.skipped("SIGN-COND", f"{ctx.label} k={k}",
                                            "weights too large for exact scan"))
            continue
        if levelk.Hypotheses(h, k).all():
            recs.append(CheckRecord.verdict("SIGN-COND", f"{ctx.label} k={k}", holds, holds, True))
        else:
            recs.append(CheckRecord("SIGN-COND", f"{ctx.label} k={k}", holds,
                                    None, None, None, SKIPPED,
                                    f"hypotheses not met; holds={holds} (reported)"))
    return recs


# n first: a wider halfspace is refused before its truth table is built
@_check("WK-PIPELINE",
        lambda ctx: _is_halfspace(ctx) and ctx.halfspace.n <= 20 and _has_table(ctx))
def _check_wk_pipeline(ctx) -> list[CheckRecord]:
    levels = ctx.level_weights
    cube = levelk.CubeScan(ctx.halfspace)  # one fill for both levels, freed on return
    recs = []
    for k in levelk.LEVELS:
        try:
            wk = levels.level(k) if k <= levels.n else F(0)  # W^k = 0 above the arity
            report = levelk.level_k_pipeline(cube, k, wk)
        except (ValueError, OverflowError) as exc:
            recs.append(CheckRecord.skipped("WK-PIPELINE", f"{ctx.label} k={k}", str(exc)))
            continue
        recs.append(levelk.pipeline_record(report, f"{ctx.label} k={k}"))
    return recs


# ---------------------------------------------------------------------------
# correlation checks

@_check("THM17", _has_table)
def _check_best_correlator(ctx) -> list[CheckRecord]:
    w1 = ctx.level_weights.level(1)
    if w1 == 0:
        return [CheckRecord.skipped("THM17", ctx.label, "first level vanishes")]
    res = correlate.best_halfspace_over_form(ctx.first_level)
    denom = math.sqrt(float(w1) / math.log(math.e / float(w1)))
    stat = float(res.covariance) / denom
    ident = correlate.threshold_integral_identity(ctx.first_level)
    return [CheckRecord.verdict("THM17", f"{ctx.label} identity", ident == w1, ident, w1,
                                "step integral of the covariance profile"),
            CheckRecord.report("THM17", ctx.label, stat)]


@_check("PROP92", _has_table)
def _check_unbiased_correlator(ctx) -> list[CheckRecord]:
    f = ctx.function
    if ctx.first_level.form.is_zero():
        return [CheckRecord.skipped("PROP92", ctx.label, "first level vanishes")]
    res = correlate.unbiased_correlator(ctx.first_level)
    ratio = float(res.covariance) / float(f.mean)
    return [CheckRecord("PROP92", ctx.label, ratio, None, None, None, REPORT,
                        f"best zero-cut covariance / mean ({res.notes})")]


@_check("PROP93", _has_table)
def _check_biased_correlator(ctx) -> list[CheckRecord]:
    f = ctx.function
    try:
        rec = correlate.biased_correlator(ctx.first_level)
    except ValueError as exc:
        return [CheckRecord.skipped("PROP93", ctx.label, str(exc))]
    if not rec.hypothesis_met:
        return [CheckRecord.skipped("PROP93", ctx.label, "hypothesis not met")]
    ok = bool(rec.small_mean_ok and rec.expectation_ok)
    return [CheckRecord.verdict("PROP93", ctx.label, ok, float(rec.expectation),
                                math.sqrt(rec.alpha) / 8 * float(f.mean),
                                f"mean_g={float(rec.mean_g):.4g} <= eps^(alpha/8)={float(f.mean) ** (rec.alpha / 8):.4g}")]


@_check("PROP16", _has_table)
def _check_noise_resistance(ctx) -> list[CheckRecord]:
    f = ctx.function
    if not 0 < f.mean < 1:
        return [CheckRecord.skipped("PROP16", ctx.label, "constant function")]
    rep = correlate.noise_resistance_class(ctx.first_level)
    notes = (
        f"fourier_stat={rep.fourier_stat:.4g} prob_stat={rep.prob_stat:.4g} "
        f"monotone={rep.monotone}"
        + (f" best_cov/mu={rep.best_cov_ratio:.4g}" if rep.best_cov_ratio is not None else "")
    )
    return [CheckRecord("PROP16", ctx.label, rep.fourier_stat, None, None,
                        None, REPORT, notes)]


@_check("NSREMARK", _halfspace_table)
def _check_noise_sensitivity_metric(ctx) -> list[CheckRecord]:
    f = ctx.function
    eps = f.mean
    if not 0 < eps <= F(1, 2):
        return [CheckRecord.skipped("NSREMARK", ctx.label, "mean outside (0, 1/2]")]
    log_inv = math.log(1 / float(eps))
    recs = []
    for delta in (0.25, 1.0):
        eta = delta / log_inv
        if not 0 < eta <= 0.5:
            recs.append(CheckRecord.skipped("NSREMARK", f"{ctx.label} d={delta}",
                                            "noise rate outside (0, 1/2]"))
            continue
        ns = spectral.noise_sensitivity(f, eta, ctx.spectrum)
        stat = ns / (float(eps) * math.sqrt(delta))
        recs.append(CheckRecord("NSREMARK", f"{ctx.label} d={delta}", stat,
                                None, None, None, REPORT,
                                "noise sensitivity / (eps sqrt(delta))"))
    return recs


# ---------------------------------------------------------------------------
# suites: their order is the record order of every report

SUITES: dict[str, tuple[str, ...]] = {
    "exact-identities": ("PARSEVAL", "FWHT-NAIVE", "DUAL", "INFLUENCE-XCHECK",
                         "MONO-FOURIER"),
    "paper-examples": ("PAPER5", "SUBCUBE-VB", "DICT-VB", "EX54", "EX74",
                       "LEM32-WITNESS"),
    "tail-lemmas": ("LEM111", "LEM32", "LEM42", "COR36", "LEM51", "LEM52",
                    "LEM62", "PROP5"),
    "chernoff": ("THM18", "THM19", "THM110", "THM64", "GAUSS-EATON"),
    "fourier": ("GL-halfplane", "LVL1-upper", "THM12-lower", "LVLK-upper"),
    "boundary": ("PROP71", "THM14-band", "THM15-band"),
    "levelk": ("IH-DERIV", "FDERIV", "NG", "SIGN-COND", "WK-PIPELINE"),
    "correlate": ("THM17", "PROP92", "PROP93", "PROP16", "NSREMARK"),
}
SUITES["pinned"] = ("THM12-lower", "THM14-band", "THM15-band", "THM18",
                    "THM19", "THM110", "THM64", "THM17", "GAUSS-EATON")
SUITES["all"] = tuple(dict.fromkeys(cid for ids in SUITES.values() for cid in ids))
