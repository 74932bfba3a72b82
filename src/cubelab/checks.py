"""The theorem-check registry: every named check the harness can run.

Member checks receive one corpus member context; global checks run once per
suite on fixed instances.  Checks whose statement is exact assert with
rational equality; shape-only statistics report their value, and the runner
alone asserts them against pinned constants.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import bfcore, correlate, levelk, spectral
from .bfcore import FunctionSpec
from .chernoff import (
    EATON_BOUND,
    EATON_SLACK,
    FAIL,
    PASS,
    REPORT,
    SKIPPED,
    CheckRecord,
    check_interval_decay,
    check_local_chernoff,
    check_log_concave_exp,
    check_log_concavity,
    gaussian_tail_ratio,
    weight_split,
)
from .halfspace import Halfspace, TailDistribution, make_halfspace
from .influence import boundary_measures, influences
from .rational import as_fraction

F = Fraction

TABLE_CAP = 24          # members above this arity run halfspace-only checks
XCHECK_CAP = 16         # truth-table cross-checks stay cheap below this


class MemberContext:
    """Lazy per-member artifacts shared by all checks of a suite run."""

    def __init__(self, label: str, entry: str):
        self.label = label
        self.entry = entry
        self.spec = FunctionSpec.parse(entry)
        self._halfspace = False
        self._function = False
        self._spectrum = None
        self._weights = None

    @property
    def halfspace(self) -> Halfspace | None:
        if self._halfspace is False:
            try:
                self._halfspace = self.spec.halfspace()
            except ValueError:
                self._halfspace = None
        return self._halfspace

    @property
    def arity(self) -> int:
        h = self.halfspace
        if h is not None:
            return h.arity
        return int(self.function.n)

    @property
    def function(self) -> bfcore.BooleanFunction | None:
        if self._function is False:
            h = self.halfspace
            if h is not None and h.arity > TABLE_CAP:
                self._function = None
            else:
                self._function = self.spec.build(max_n=TABLE_CAP + 1)
        return self._function

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = spectral.fwht_spectrum(self.function)
        return self._spectrum

    @property
    def level_weights(self):
        if self._weights is None:
            self._weights = self.spectrum.level_weights()
        return self._weights


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    scope: str                      # "member" or "global"
    # called as fn(ctx, constants), or fn(constants) for a global check; no
    # check reads the constants, the runner alone asserts pinned statistics
    fn: Callable
    applies: Callable[[MemberContext], bool] = lambda ctx: True


def _is_halfspace(ctx: MemberContext) -> bool:
    return ctx.halfspace is not None


def _has_table(ctx: MemberContext) -> bool:
    return ctx.function is not None


def _biased_halfspace(ctx: MemberContext) -> bool:
    return _is_halfspace(ctx) and 0 < ctx.halfspace.mean() <= F(1, 2)


# ---------------------------------------------------------------------------
# exact identity checks

def _check_parseval(ctx: MemberContext) -> list[CheckRecord]:
    f = ctx.function
    total = ctx.level_weights.total()
    ok = spectral.parseval_holds(f, ctx.spectrum) and total == f.mean
    return [CheckRecord("PARSEVAL", ctx.label, total, f.mean, None, ok,
                        PASS if ok else FAIL)]


def _check_fwht_naive(ctx: MemberContext) -> list[CheckRecord]:
    f = ctx.function
    slow = spectral.spectrum_by_definition(f)
    ok = bool(np.array_equal(ctx.spectrum.numerators, slow.numerators))
    return [CheckRecord("FWHT-NAIVE", ctx.label, None, None, None, ok,
                        PASS if ok else FAIL)]


def _check_dual(ctx: MemberContext) -> list[CheckRecord]:
    f = ctx.function
    g = bfcore.dual(f)
    ok = g.mean == 1 - f.mean and bfcore.dual(g) == f
    notes = ""
    if ctx.halfspace is not None:
        ok = ok and ctx.halfspace.dual().truth_table(TABLE_CAP + 1) == g
        notes = "halfspace dual table compared"
    return [CheckRecord("DUAL", ctx.label, g.mean, 1 - f.mean, None, ok,
                        PASS if ok else FAIL, notes)]


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
    return [CheckRecord("INFLUENCE-XCHECK", ctx.label, None, None, None, ok,
                        PASS if ok else FAIL)]


def _check_monotone_fourier(ctx: MemberContext) -> list[CheckRecord]:
    f = ctx.function
    if not bfcore.is_monotone(f):
        return [CheckRecord.skipped("MONO-FOURIER", ctx.label, "not monotone")]
    prof = influences(f)
    ok = all(
        ctx.spectrum.coefficient(1 << i) == prof.per_coordinate[i] / 2
        for i in range(f.n)
    )
    return [CheckRecord("MONO-FOURIER", ctx.label, None, None, None, ok,
                        PASS if ok else FAIL)]


# ---------------------------------------------------------------------------
# fixed paper-example checks (global)

def _global_paper5() -> list[CheckRecord]:
    f = bfcore.paper5()
    spec = spectral.fwht_spectrum(f)
    recs = []
    ok = all(spec.coefficient(1 << i) == F(1, 16) for i in range(5))
    recs.append(CheckRecord("PAPER5", "paper5", None, None, None, ok,
                            PASS if ok else FAIL, "first-level coefficients"))
    cov_maj = spectral.covariance(f, bfcore.majority(5))
    recs.append(CheckRecord("PAPER5", "paper5", cov_maj, F(-1, 16), None,
                            cov_maj == F(-1, 16),
                            PASS if cov_maj == F(-1, 16) else FAIL,
                            "covariance with the plain majority cut"))
    best = correlate.unbiased_correlator(f)
    ok = best.covariance == F(1, 8)
    recs.append(CheckRecord("PAPER5", "paper5", best.covariance, F(1, 8), None,
                            ok, PASS if ok else FAIL, "one sign flip recovers 1/8"))
    return recs


def _global_subcube_vb() -> list[CheckRecord]:
    recs = []
    for k in range(1, 7):
        n = k + 2
        weights = [F(1)] * k + [F(0)] * (n - k)
        h = make_halfspace(weights, F(2 * k - 1, 2))
        vb1 = h.vertex_boundary(1)
        vb0 = h.vertex_boundary(0)
        ok = vb1 == F(1, 2**k) and vb0 == F(k, 2**k)
        recs.append(CheckRecord("SUBCUBE-VB", f"subcube:{k},{n}", (vb0, vb1),
                                (F(k, 2**k), F(1, 2**k)), None, ok,
                                PASS if ok else FAIL,
                                f"boundary ratio {float(vb0 / vb1):.0f} = k"))
    return recs


def _global_dictator_vb() -> list[CheckRecord]:
    h = make_halfspace([F(1), F(0), F(0), F(0)], 0)
    vb1 = h.vertex_boundary(1)
    i1 = h.influence(0)
    ok = vb1 == i1 / 2
    return [CheckRecord("DICT-VB", "dict:4", vb1, i1 / 2, None, ok,
                        PASS if ok else FAIL, "lower bound tight for dictators")]


def _heavy_light_family(n: int) -> Halfspace:
    return make_halfspace([F(5)] * 4 + [F(4)] * (n - 4), 1)


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
    recs.append(CheckRecord("EX54", "n=41", float(final), 10 / 9, None, ok,
                            PASS if ok else FAIL, "limit value 10/9 within 0.02"))
    return recs


def _global_or_blowup_example() -> list[CheckRecord]:
    recs = []
    for n, seed in ((16, 42), (25, 42)):
        f = bfcore.talagrand_or(n, seed, max_n=25)
        mu = f.mean
        lo = F(1, 2)
        hi = F(1, 2) + F(1, math.isqrt(n))  # both sizes are perfect squares
        ok = lo <= mu <= hi
        veils = boundary_measures(f)
        gap = float(veils.vb0 / veils.vb1) if veils.vb1 else math.inf
        recs.append(CheckRecord("EX74", f"talagrand:{n}:{seed}", mu, (lo, hi),
                                None, ok, PASS if ok else FAIL,
                                f"vb0/vb1 = {gap:.3f} (reported)"))
    return recs


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
    recs.append(CheckRecord("LEM32", "all-ones family max", best, 1.9, None, ok,
                            PASS if ok else FAIL,
                            "family maximum must witness the lower bound"))
    return recs


# ---------------------------------------------------------------------------
# tail-shape lemmas on halfspace members

def _dense_distribution(h: Halfspace) -> TailDistribution | None:
    dist = h.distribution()
    return dist if isinstance(dist, TailDistribution) else None


def _check_log_concavity_member(ctx: MemberContext, triples: int = 40) -> list[CheckRecord]:
    h = ctx.halfspace
    dist = h.distribution()
    m = 2 * h.weights[0]
    rng = np.random.default_rng([111, zlib.crc32(ctx.entry.encode())])
    lo = float(dist.min_value) - 1
    hi = float(dist.max_value) + 1
    bad = 0
    worst = None
    for _ in range(triples):
        picks = sorted(F(int(x), 4) for x in rng.integers(int(4 * lo), int(4 * hi) + 1, size=3))
        rec = check_log_concavity(dist, *picks, m, instance=ctx.label)
        if not rec.passed:
            bad += 1
            worst = picks
    ok = bad == 0
    return [CheckRecord("LEM111", ctx.label, bad, 0, None, ok,
                        PASS if ok else FAIL,
                        f"{triples} sampled triples" + (f"; first violation {worst}" if worst else ""))]


def _check_interval_decay_member(ctx: MemberContext) -> list[CheckRecord]:
    """All support-aligned 0 <= s <= t pairs at once via a prefix minimum."""
    h = ctx.halfspace
    dist = _dense_distribution(h)
    if dist is None:
        return [CheckRecord.skipped("LEM32", ctx.label, "support too wide")]
    m_scaled = int(h.scaled[0])
    support = dist.values[dist.values >= 0]
    if len(support) == 0:
        return [CheckRecord.skipped("LEM32", ctx.label, "no nonnegative support")]
    mass = (dist.counts_gt_scaled(support - m_scaled)
            - dist.counts_gt_scaled(support + m_scaled))
    # pair (s, t): mass[t] <= 5 * mass[s] for every s-index <= t-index
    prefix_min = np.minimum.accumulate(mass)
    violations = int(np.count_nonzero(mass > 5 * prefix_min))
    ratio = float(np.max(mass / np.maximum(prefix_min, 1)))
    ok = violations == 0
    rec = CheckRecord("LEM32", ctx.label, violations, 0, ratio, ok,
                      PASS if ok else FAIL,
                      f"{len(support)} aligned thresholds, max ratio {ratio:.3f}")
    return [rec]


def _check_log_concave_exp_member(ctx: MemberContext) -> list[CheckRecord]:
    h = ctx.halfspace
    dist = h.distribution()
    thr = h.decay_thresholds()
    m = thr.m
    grid_t = [F(0), thr.beta, thr.gamma, 2 * thr.gamma]
    grid_d = [d for d in (thr.beta, thr.gamma, m, F(1)) if d > 0]
    bad = 0
    for t in grid_t:
        for d in grid_d:
            if not check_log_concave_exp(dist, t, d, m, instance=ctx.label).passed:
                bad += 1
    ok = bad == 0
    return [CheckRecord("LEM42", ctx.label, bad, 0, None, ok, PASS if ok else FAIL,
                        f"grid of {len(grid_t)}x{len(grid_d)} (t, delta) points")]


def _step_pieces(breaks: np.ndarray):
    """Half-open pieces [b_i, b_{i+1}) plus the two unbounded ends."""
    lows = np.concatenate([[-np.inf], breaks.astype(np.float64)])
    highs = np.concatenate([breaks.astype(np.float64), [np.inf]])
    return lows, highs


def _check_influence_decay_member(ctx: MemberContext) -> list[CheckRecord]:
    """5 I_1(f_s) >= I_1(f_t) for every real |s| <= t, via piece sweep."""
    h = ctx.halfspace
    red = h.reduced_distribution(0)
    if not isinstance(red, TailDistribution):
        return [CheckRecord.skipped("COR36", ctx.label, "support too wide")]
    w0 = int(h.scaled[0])
    breaks = np.unique(np.concatenate([red.values - w0, red.values + w0]))
    # influence of the heaviest coordinate at every piece's left end
    def inf_at(r: np.ndarray) -> np.ndarray:
        return red.counts_gt_scaled(r - w0) - red.counts_gt_scaled(r + w0)

    piece_vals = np.concatenate([[0], inf_at(breaks)])
    lows, highs = _step_pieces(breaks)
    # s-pieces keyed by the infimum of |s| over the piece
    kappa = np.where(lows >= 0, lows, np.where(highs <= 0, -highs, 0.0))
    order = np.argsort(kappa, kind="stable")
    # t-pieces intersecting [0, inf), swept by their upper end
    t_idx = np.flatnonzero(highs > 0)
    violations = 0
    ptr = 0
    running_min = None
    for ti in t_idx:
        hi_t = highs[ti]
        while ptr < len(order) and kappa[order[ptr]] < hi_t:
            v = int(piece_vals[order[ptr]])
            running_min = v if running_min is None else min(running_min, v)
            ptr += 1
        if running_min is not None and 5 * running_min < int(piece_vals[ti]):
            violations += 1
    ok = violations == 0
    return [CheckRecord("COR36", ctx.label, violations, 0, None, ok,
                        PASS if ok else FAIL, f"{len(breaks)} breakpoints swept")]


def _check_big_coordinate_influence(ctx: MemberContext) -> list[CheckRecord]:
    """Coordinates with weight above beta/2 carry influence >= 2 eps / 3."""
    h = ctx.halfspace
    eps = h.mean()
    beta = h.decay_thresholds().beta
    hits = 0
    for j, w in enumerate(h.weights):
        if 2 * w > beta:
            hits += 1
            if h.influence_internal(j) < F(2, 3) * eps:
                return [CheckRecord("LEM51", ctx.label, h.influence_internal(j),
                                    F(2, 3) * eps, None, False, FAIL,
                                    f"coordinate {j}")]
    if hits == 0:
        return [CheckRecord.skipped("LEM51", ctx.label, "no weight above beta/2")]
    return [CheckRecord("LEM51", ctx.label, hits, hits, None, True, PASS,
                        f"{hits} heavy coordinates checked")]


def _check_smoothed_influence_bound(ctx: MemberContext) -> list[CheckRecord]:
    h = ctx.halfspace
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
    return [CheckRecord("LEM52", ctx.label, bad, 0, None, ok, PASS if ok else FAIL,
                        f"{checked} coordinates checked at delta={delta}")]


def _check_relative_influence_member(ctx: MemberContext) -> list[CheckRecord]:
    """I_1(f_s)/mu(f_s) <= 6 I_1(f_t)/mu(f_t) for all 0 <= s <= t, exact."""
    h = ctx.halfspace
    dist = _dense_distribution(h)
    red = h.reduced_distribution(0)
    if dist is None or not isinstance(red, TailDistribution):
        return [CheckRecord.skipped("LEM62", ctx.label, "support too wide")]
    w0 = int(h.scaled[0])
    breaks = np.unique(np.concatenate(
        [red.values - w0, red.values + w0, dist.values, [0]]))
    breaks = breaks[breaks >= 0]
    if len(breaks) == 0:
        return [CheckRecord.skipped("LEM62", ctx.label, "no nonnegative support")]
    inf_counts = (red.counts_gt_scaled(breaks - w0)
                  - red.counts_gt_scaled(breaks + w0)).astype(object)
    mu_counts = dist.counts_gt_scaled(breaks).astype(object)
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
    return [CheckRecord("LEM62", ctx.label, violations, 0, None, ok,
                        PASS if ok else FAIL, f"{len(breaks)} thresholds swept")]


def _check_threshold_monotone_member(ctx: MemberContext) -> list[CheckRecord]:
    """The small-class weighted influence sum is maximal at the base threshold."""
    h = ctx.halfspace
    eps = h.mean()
    if eps >= F(1, 4):
        return [CheckRecord.skipped("PROP5", ctx.label, "eps >= 1/4")]
    beta = h.decay_thresholds().beta
    big = [j for j, w in enumerate(h.weights) if w > beta]
    if len(big) > 0.5 * math.log2(1 / float(eps)):
        return [CheckRecord.skipped("PROP5", ctx.label, "big class too large")]
    small = [j for j, w in enumerate(h.weights) if w <= beta]
    dist = _dense_distribution(h)
    if dist is None:
        return [CheckRecord.skipped("PROP5", ctx.label, "support too wide")]
    t_scaled = math.floor(h.threshold * h.scale)
    grid = dist.values[dist.values > t_scaled]
    base = 0
    totals = np.zeros(len(grid), dtype=object)
    for j in small:
        red = h.reduced_distribution(j)
        w = int(h.scaled[j])
        base += w * int(red.count_gt(h.threshold - h.weights[j])
                        - red.count_gt(h.threshold + h.weights[j]))
        vals = red.counts_gt_scaled(grid - w) - red.counts_gt_scaled(grid + w)
        totals = totals + w * vals.astype(object)
    violations = int(sum(1 for v in totals if v > base))
    ok = violations == 0
    return [CheckRecord("PROP5", ctx.label, violations, 0, None, ok,
                        PASS if ok else FAIL,
                        f"|B|={len(big)}, {len(grid)} raised thresholds")]


# ---------------------------------------------------------------------------
# local Chernoff statistics, boundary bands, Gaussian comparison

def _check_strong_chernoff(ctx) -> list[CheckRecord]:
    return [check_local_chernoff(ctx.halfspace, None, "strong", instance=ctx.label)]


def _check_partitioned_chernoff(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    beta = h.decay_thresholds().beta
    part = weight_split(h, beta)
    return [check_local_chernoff(h, None, "partitioned", partition=part,
                                 instance=ctx.label)]


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


def _check_segment_band(ctx) -> list[CheckRecord]:
    """Pr[a.x in (t, t+2m]] against eps * min(1, m sqrt(log(1/eps)))."""
    h = ctx.halfspace
    t = h.threshold
    eps = min(F(1, 2), h.tail(t))
    if eps == 0:
        return [CheckRecord.skipped("THM64", ctx.label, "empty tail")]
    m = h.weights[0]
    seg = h.distribution().prob_interval(t, t + 2 * m)
    return [CheckRecord.report("THM64", ctx.label, float(seg) / _imax_scale(h, eps))]


def _check_gauss_member(ctx) -> list[CheckRecord]:
    """Worst Gaussian-domination ratio over the whole nonnegative grid."""
    h = ctx.halfspace
    dist = _dense_distribution(h)
    if dist is None:
        rec = gaussian_tail_ratio(h, max(F(0), h.threshold), instance=ctx.label)
        return [rec]
    norm = h.l2_norm()
    values = dist.values[dist.values >= 0]
    worst = 0.0
    for strict in (True, False):
        counts = dist.counts_gt_scaled(values) if strict else dist.counts_ge_scaled(values)
        for v, c in zip(values, counts):
            z = float(v) / (dist.scale * norm)
            gauss = 0.5 * math.erfc(z / math.sqrt(2))
            worst = max(worst, float(F(int(c), dist.total)) / gauss)
    bound = EATON_BOUND * EATON_SLACK
    ok = worst <= bound
    return [CheckRecord("GAUSS-EATON", ctx.label, worst, bound, worst / EATON_BOUND,
                        ok, PASS if ok else FAIL,
                        f"{2 * len(values)} grid evaluations")]


# ---------------------------------------------------------------------------
# Fourier weight checks

def _check_sign_level1_mass(ctx) -> list[CheckRecord]:
    """A sign-valued halfspace keeps at least half its mass on levels 0-1."""
    f = ctx.function
    w1 = ctx.level_weights.level(1)
    signed = (2 * f.mean - 1) ** 2 + 4 * w1
    ok = signed >= F(1, 2)
    return [CheckRecord("GL-halfplane", ctx.label, F(1, 2), signed, None, ok,
                        PASS if ok else FAIL, "level <=1 weight of the sign version")]


def _check_level1_upper(ctx) -> list[CheckRecord]:
    f = ctx.function
    mu = f.mean
    if not 0 < mu <= F(1, 2):
        return [CheckRecord.skipped("LVL1-upper", ctx.label, "mean outside (0, 1/2]")]
    w1 = ctx.level_weights.level(1)
    rhs = 2 * float(mu) ** 2 * math.log(1 / float(mu))
    ok = float(w1) <= rhs + 1e-12
    return [CheckRecord("LVL1-upper", ctx.label, w1, rhs, None, ok,
                        PASS if ok else FAIL)]


def _check_level1_lower(ctx) -> list[CheckRecord]:
    f = ctx.function
    mu = f.mean
    if not 0 < mu <= F(1, 2):
        return [CheckRecord.skipped("THM12-lower", ctx.label, "mean outside (0, 1/2]")]
    w1 = ctx.level_weights.level(1)
    stat = float(w1) / (float(mu) ** 2 * math.log(1 / float(mu)))
    return [CheckRecord.report("THM12-lower", ctx.label, stat)]


def _check_levelk_upper(ctx) -> list[CheckRecord]:
    f = ctx.function
    mu = f.mean
    recs = []
    for k in (2, 3):
        if not 0 < float(mu) < math.exp(-k / 2):
            recs.append(CheckRecord.skipped("LVLK-upper", f"{ctx.label} k={k}",
                                            "mean not below e^(-k/2)"))
            continue
        lhs = ctx.level_weights.cumulative(k)
        rhs = (2 * math.e / k) ** k * float(mu) ** 2 * math.log(1 / float(mu)) ** k
        ok = float(lhs) <= rhs + 1e-12
        recs.append(CheckRecord("LVLK-upper", f"{ctx.label} k={k}", lhs, rhs,
                                None, ok, PASS if ok else FAIL))
    return recs


def _check_influence_band(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    eps = h.mean()
    if not 0 < eps <= F(1, 2):
        return [CheckRecord.skipped("THM14-band", ctx.label, "mean outside (0, 1/2]")]
    best, _ = h.max_influence()
    return [CheckRecord.report("THM14-band", ctx.label, float(best) / _imax_scale(h, eps))]


def _check_boundary_band(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    eps = h.mean()
    if not 0 < eps <= F(1, 2):
        return [CheckRecord.skipped("THM15-band", ctx.label, "mean outside (0, 1/2]")]
    total = h.vertex_boundary(0) + h.vertex_boundary(1)
    return [CheckRecord.report("THM15-band", ctx.label, float(total) / _imax_scale(h, eps))]


def _check_boundary_two_sided(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    eps = h.mean()
    if not (0 < eps <= F(1, 2)) or any(w == 0 for w in h.original_weights):
        return [CheckRecord.skipped("PROP71", ctx.label,
                                    "needs positive weights and mean <= 1/2")]
    i1 = h.influence_internal(0)
    vb1 = h.vertex_boundary(1)
    vb0 = h.vertex_boundary(0)
    ok = i1 / 2 <= vb1 <= F(7, 4) * i1
    recs = [CheckRecord("PROP71", ctx.label, vb1, (i1 / 2, F(7, 4) * i1), None,
                        ok, PASS if ok else FAIL)]
    ok0 = vb0 >= F(2, 7) * vb1
    ratio = float(vb0 / vb1) if vb1 else math.inf
    log_term = math.log(1 / float(eps)) if eps < 1 else math.inf
    recs.append(CheckRecord("PROP72", ctx.label, vb0, F(2, 7) * vb1, ratio, ok0,
                            PASS if ok0 else FAIL,
                            f"vb0/vb1 = {ratio:.3f}; /log(1/eps) = "
                            f"{ratio / log_term if log_term > 0 else math.inf:.3f} (reported)"))
    return recs


# ---------------------------------------------------------------------------
# level-k checks

def _global_derivative_law() -> list[CheckRecord]:
    rng = np.random.default_rng(8301)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 7))
        x = int(rng.integers(0, k)) + float(rng.uniform(0.15, 0.85))
        got, want = levelk.derivative_law_residual(k, x)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-5
    return [CheckRecord("IH-DERIV", "200 random points, k<=6", worst, 1e-5,
                        None, ok, PASS if ok else FAIL)]


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
    return [CheckRecord("FDERIV", "60 random polynomials, m<=5", bad, 0, None,
                        ok, PASS if ok else FAIL)]


def _check_newton_girard(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    sq = h.sq_norm()
    values = [w * w / sq for w in h.weights]
    m_max = min(len(values), 8)
    stats = levelk.symmetric_stats(values, m_max)
    residuals = [stats.newton_girard_residual(m) for m in range(1, m_max + 1)]
    ok = all(r == 0 for r in residuals)
    recs = [CheckRecord("NG", ctx.label, max(abs(r) for r in residuals), 0,
                        None, ok, PASS if ok else FAIL,
                        f"identities up to degree {m_max}")]
    for k in (2, 3):
        if k > m_max:
            continue
        hyp, chain, ek, bound = levelk.elementary_chain_check(stats, k)
        surrogate = h.mean() < F(1, 2 ** (levelk.BIAS_CUT_EXPONENT * k))
        if hyp and surrogate:
            ok = chain and ek >= bound
            recs.append(CheckRecord("NG", f"{ctx.label} chain k={k}", ek, bound,
                                    None, ok, PASS if ok else FAIL,
                                    "squared-weight elementary sums stay large"))
    return recs


def _check_sign_condition(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    recs = []
    for k in (2, 3):
        try:
            holds = levelk.sign_condition_holds(h, k)
        except OverflowError:
            recs.append(CheckRecord.skipped("SIGN-COND", f"{ctx.label} k={k}",
                                            "weights too large for exact scan"))
            continue
        eps = h.mean()
        norm = h.l2_norm()
        hyp = (
            eps < F(1, 2 ** (levelk.BIAS_CUT_EXPONENT * k))
            and float(h.weights[0]) / norm <= 1 / (16 * math.sqrt(k))
            and 2 * k * h.weights[0] < h.decay_thresholds(k=k).beta
            and float(h.threshold) / norm >= 4 * math.sqrt(k)
        )
        if hyp:
            recs.append(CheckRecord("SIGN-COND", f"{ctx.label} k={k}", holds,
                                    True, None, holds, PASS if holds else FAIL))
        else:
            recs.append(CheckRecord("SIGN-COND", f"{ctx.label} k={k}", holds,
                                    None, None, None, SKIPPED,
                                    f"hypotheses not met; holds={holds} (reported)"))
    return recs


def _check_wk_pipeline(ctx) -> list[CheckRecord]:
    h = ctx.halfspace
    levels = ctx.level_weights
    recs = []
    for k in (2, 3):
        try:
            wk = levels.level(k) if k <= levels.n else F(0)  # W^k = 0 above the arity
            report = levelk.level_k_pipeline(h, k, wk)
        except (ValueError, OverflowError) as exc:
            recs.append(CheckRecord.skipped("WK-PIPELINE", f"{ctx.label} k={k}", str(exc)))
            continue
        recs.append(levelk.pipeline_record(report, f"{ctx.label} k={k}"))
    return recs


# ---------------------------------------------------------------------------
# correlation checks

def _check_best_correlator(ctx) -> list[CheckRecord]:
    f = ctx.function
    w1 = ctx.level_weights.level(1)
    if w1 == 0:
        return [CheckRecord.skipped("THM17", ctx.label, "first level vanishes")]
    res = correlate.best_halfspace_over_form(f, spec=ctx.spectrum)
    denom = math.sqrt(float(w1) / math.log(math.e / float(w1)))
    stat = float(res.covariance) / denom
    ident = correlate.threshold_integral_identity(f, correlate.first_level_form(f, ctx.spectrum))
    ok_ident = ident == w1
    return [CheckRecord("THM17", f"{ctx.label} identity", ident, w1, None,
                        ok_ident, PASS if ok_ident else FAIL,
                        "step integral of the covariance profile"),
            CheckRecord.report("THM17", ctx.label, stat)]


def _check_unbiased_correlator(ctx) -> list[CheckRecord]:
    f = ctx.function
    if correlate.first_level_form(f, ctx.spectrum).is_zero():
        return [CheckRecord.skipped("PROP92", ctx.label, "first level vanishes")]
    res = correlate.unbiased_correlator(f, spec=ctx.spectrum)
    ratio = float(res.covariance) / float(f.mean)
    return [CheckRecord("PROP92", ctx.label, ratio, None, None, None, REPORT,
                        f"best zero-cut covariance / mean ({res.notes})")]


def _check_biased_correlator(ctx) -> list[CheckRecord]:
    f = ctx.function
    try:
        rec = correlate.biased_correlator(f, spec=ctx.spectrum)
    except ValueError as exc:
        return [CheckRecord.skipped("PROP93", ctx.label, str(exc))]
    if not rec.hypothesis_met:
        return [CheckRecord.skipped("PROP93", ctx.label, "hypothesis not met")]
    ok = bool(rec.small_mean_ok and rec.expectation_ok)
    return [CheckRecord("PROP93", ctx.label, float(rec.expectation),
                        math.sqrt(rec.alpha) / 8 * float(f.mean), None, ok,
                        PASS if ok else FAIL,
                        f"mean_g={float(rec.mean_g):.4g} <= eps^(alpha/8)={float(f.mean) ** (rec.alpha / 8):.4g}")]


def _check_noise_resistance(ctx) -> list[CheckRecord]:
    f = ctx.function
    if not 0 < f.mean < 1:
        return [CheckRecord.skipped("PROP16", ctx.label, "constant function")]
    rep = correlate.noise_resistance_class(f, spec=ctx.spectrum)
    notes = (
        f"fourier_stat={rep.fourier_stat:.4g} prob_stat={rep.prob_stat:.4g} "
        f"monotone={rep.monotone}"
        + (f" best_cov/mu={rep.best_cov_ratio:.4g}" if rep.best_cov_ratio is not None else "")
    )
    return [CheckRecord("PROP16", ctx.label, rep.fourier_stat, None, None,
                        None, REPORT, notes)]


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
# registry and suites

REGISTRY: dict[str, CheckDef] = {}


def _register(defn: CheckDef):
    REGISTRY[defn.check_id] = defn


for _d in [
    CheckDef("PARSEVAL", "member", lambda ctx, c: _check_parseval(ctx), _has_table),
    CheckDef("FWHT-NAIVE", "member", lambda ctx, c: _check_fwht_naive(ctx),
             lambda ctx: _has_table(ctx) and ctx.function.n <= 8),
    CheckDef("DUAL", "member", lambda ctx, c: _check_dual(ctx), _has_table),
    CheckDef("INFLUENCE-XCHECK", "member", lambda ctx, c: _check_influence_xcheck(ctx),
             lambda ctx: _is_halfspace(ctx) and _has_table(ctx)
             and ctx.arity <= XCHECK_CAP),
    CheckDef("MONO-FOURIER", "member", lambda ctx, c: _check_monotone_fourier(ctx),
             _has_table),
    CheckDef("PAPER5", "global", lambda c: _global_paper5()),
    CheckDef("SUBCUBE-VB", "global", lambda c: _global_subcube_vb()),
    CheckDef("DICT-VB", "global", lambda c: _global_dictator_vb()),
    CheckDef("EX54", "global", lambda c: _global_heavy_light_family()),
    CheckDef("EX74", "global", lambda c: _global_or_blowup_example()),
    CheckDef("LEM32-WITNESS", "global", lambda c: _global_interval_decay_witness()),
    CheckDef("LEM111", "member", lambda ctx, c: _check_log_concavity_member(ctx),
             _is_halfspace),
    CheckDef("LEM32", "member", lambda ctx, c: _check_interval_decay_member(ctx),
             _is_halfspace),
    CheckDef("LEM42", "member", lambda ctx, c: _check_log_concave_exp_member(ctx),
             _is_halfspace),
    CheckDef("COR36", "member", lambda ctx, c: _check_influence_decay_member(ctx),
             _is_halfspace),
    CheckDef("LEM51", "member", lambda ctx, c: _check_big_coordinate_influence(ctx),
             _is_halfspace),
    CheckDef("LEM52", "member", lambda ctx, c: _check_smoothed_influence_bound(ctx),
             _is_halfspace),
    CheckDef("LEM62", "member", lambda ctx, c: _check_relative_influence_member(ctx),
             _is_halfspace),
    CheckDef("PROP5", "member", lambda ctx, c: _check_threshold_monotone_member(ctx),
             _is_halfspace),
    CheckDef("THM18", "member", lambda ctx, c: _check_strong_chernoff(ctx),
             _biased_halfspace),
    CheckDef("THM19", "member", lambda ctx, c: _check_partitioned_chernoff(ctx),
             _biased_halfspace),
    CheckDef("THM110", "member", lambda ctx, c: _check_weak_chernoff(ctx),
             _biased_halfspace),
    CheckDef("THM64", "member", lambda ctx, c: _check_segment_band(ctx),
             _biased_halfspace),
    CheckDef("GAUSS-EATON", "member", lambda ctx, c: _check_gauss_member(ctx),
             _biased_halfspace),
    CheckDef("GL-halfplane", "member", lambda ctx, c: _check_sign_level1_mass(ctx),
             lambda ctx: _is_halfspace(ctx) and _has_table(ctx)),
    CheckDef("LVL1-upper", "member", lambda ctx, c: _check_level1_upper(ctx), _has_table),
    CheckDef("THM12-lower", "member", lambda ctx, c: _check_level1_lower(ctx),
             lambda ctx: _is_halfspace(ctx) and _has_table(ctx)),
    CheckDef("LVLK-upper", "member", lambda ctx, c: _check_levelk_upper(ctx),
             lambda ctx: _is_halfspace(ctx) and _has_table(ctx)),
    CheckDef("THM14-band", "member", lambda ctx, c: _check_influence_band(ctx),
             _biased_halfspace),
    CheckDef("THM15-band", "member", lambda ctx, c: _check_boundary_band(ctx),
             _biased_halfspace),
    CheckDef("PROP71", "member", lambda ctx, c: _check_boundary_two_sided(ctx),
             _biased_halfspace),
    CheckDef("IH-DERIV", "global", lambda c: _global_derivative_law()),
    CheckDef("FDERIV", "global", lambda c: _global_poly_bracket()),
    CheckDef("NG", "member", lambda ctx, c: _check_newton_girard(ctx), _is_halfspace),
    CheckDef("SIGN-COND", "member", lambda ctx, c: _check_sign_condition(ctx),
             lambda ctx: _is_halfspace(ctx) and ctx.halfspace.n <= TABLE_CAP),
    CheckDef("WK-PIPELINE", "member", lambda ctx, c: _check_wk_pipeline(ctx),
             lambda ctx: _is_halfspace(ctx) and _has_table(ctx) and ctx.halfspace.n <= 20),
    CheckDef("THM17", "member", lambda ctx, c: _check_best_correlator(ctx), _has_table),
    CheckDef("PROP92", "member", lambda ctx, c: _check_unbiased_correlator(ctx),
             _has_table),
    CheckDef("PROP93", "member", lambda ctx, c: _check_biased_correlator(ctx),
             _has_table),
    CheckDef("PROP16", "member", lambda ctx, c: _check_noise_resistance(ctx),
             _has_table),
    CheckDef("NSREMARK", "member", lambda ctx, c: _check_noise_sensitivity_metric(ctx),
             lambda ctx: _is_halfspace(ctx) and _has_table(ctx)),
]:
    _register(_d)


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
