"""Local Chernoff statistics and tail-shape checks over exact distributions.

Each check evaluates both sides of its inequality in exact rational
arithmetic where the statement is exact, and as a scale-free float
statistic where the literature only fixes the shape up to a constant.
Those statistics are compared against pinned constants recorded by the
harness on a frozen corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .halfspace import Halfspace, _TailBase
from .rational import as_fraction

EATON_BOUND = 3.178  # Gaussian-domination constant for Rademacher sums
EATON_SLACK = 1 + 1e-9

PASS = "pass"
FAIL = "fail"
SKIPPED = "hypothesis-not-met"
REPORT = "report"


def bound_ratio(lhs, rhs) -> float | None:
    """lhs / rhs, exact where both sides convert to Fraction; None when rhs is 0."""
    if rhs == 0:
        return None
    try:
        return float(Fraction(lhs) / Fraction(rhs))
    except (TypeError, ValueError):
        return float(lhs) / float(rhs)


@dataclass
class CheckRecord:
    """One theorem-instance evaluation, the harness's unit of reporting."""

    check_id: str
    instance: str
    lhs: object = None
    rhs: object = None
    ratio: float | None = None
    passed: bool | None = None
    status: str = REPORT
    notes: str = ""

    @staticmethod
    def inequality(check_id: str, instance: str, lhs, rhs, notes: str = "") -> "CheckRecord":
        """lhs <= rhs decides pass; ratio reported when rhs is nonzero."""
        ok = bool(lhs <= rhs)
        return CheckRecord(check_id, instance, lhs, rhs, bound_ratio(lhs, rhs),
                           ok, PASS if ok else FAIL, notes)

    @staticmethod
    def skipped(check_id: str, instance: str, notes: str) -> "CheckRecord":
        return CheckRecord(check_id, instance, status=SKIPPED, notes=notes)

    @staticmethod
    def report(check_id: str, instance: str, lhs, notes: str = "") -> "CheckRecord":
        return CheckRecord(check_id, instance, lhs=lhs, status=REPORT, notes=notes)


@dataclass(frozen=True)
class Partition:
    """Disjoint big/small index classes covering all coordinates."""

    big: tuple[int, ...]
    small: tuple[int, ...]

    def validate(self, n: int) -> None:
        seen = sorted(self.big + self.small)
        if seen != list(range(n)):
            raise ValueError("big and small classes must partition the coordinates")


def weight_split(h: Halfspace, cutoff) -> Partition:
    """Internal indices split at the cutoff: big strictly above, small at or below."""
    cutoff = as_fraction(cutoff)
    big = tuple(j for j, w in enumerate(h.weights) if w > cutoff)
    small = tuple(j for j, w in enumerate(h.weights) if w <= cutoff)
    return Partition(big, small)


# ---------------------------------------------------------------------------
# exact tail-shape checks

def check_log_concavity(dist: _TailBase, b, c, d, m, instance: str = "") -> CheckRecord:
    """F(d)F(b) <= F(c)F(b+d-c-m) for b <= c <= d, m at least the step width."""
    b, c, d, m = map(as_fraction, (b, c, d, m))
    if not b <= c <= d:
        raise ValueError("need b <= c <= d")
    lhs = dist.prob_gt(d) * dist.prob_gt(b)
    rhs = dist.prob_gt(c) * dist.prob_gt(b + d - c - m)
    return CheckRecord.inequality("LEM111", instance, lhs, rhs)


def check_interval_decay(dist: _TailBase, s, t, m, instance: str = "") -> CheckRecord:
    """Mass of (t-m, t+m] is at most 5x the mass of (s-m, s+m] for 0 <= s <= t."""
    s, t, m = map(as_fraction, (s, t, m))
    if not 0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    lhs = dist.prob_interval(t - m, t + m)
    base = dist.prob_interval(s - m, s + m)
    rec = CheckRecord.inequality("LEM32", instance, lhs, 5 * base)
    if base != 0:
        rec.ratio = float(lhs / base)
    else:
        rec.notes = "empty base interval"
    return rec


def check_log_concave_exp(dist: _TailBase, t, delta, m, instance: str = "") -> CheckRecord:
    """F(t+delta+m)^l <= 2 F(t)^(l+1) with l = 1 + floor(t/delta)."""
    t, delta, m = map(as_fraction, (t, delta, m))
    if t < 0 or delta <= 0:
        raise ValueError("need t >= 0 and delta > 0")
    level = 1 + int(t // delta)
    lhs = dist.prob_gt(t + delta + m) ** level
    rhs = 2 * dist.prob_gt(t) ** (level + 1)
    rec = CheckRecord.inequality("LEM42", instance, lhs, rhs)
    rec.notes = f"l={level}"
    return rec


# ---------------------------------------------------------------------------
# local Chernoff statistics (shape-only: asserted against pinned constants)

def _log_inv(eps: Fraction) -> float:
    return math.log(1 / float(eps))


def check_local_chernoff(h: Halfspace, t=None, variant: str = "strong",
                         partition: Partition | None = None, c=None,
                         instance: str = "") -> CheckRecord:
    """Scale-free decay statistic for the halfspace's tail at t.

    strong: D = delta_half * sqrt(log(1/eps)) in l2-normalized units.
    partitioned: same with delta_half measured against the small-class mass,
        unless the big class already has at least log(1/eps)/2 members.
    weak: ((delta_c - m) clamped at 0) * sqrt(log(1/eps)) / log(2/c).

    The statistic is reported; the harness asserts it against the pinned
    constant.  The big-class branch of the partitioned variant holds outright
    and passes without a statistic.
    """
    t = h.threshold if t is None else as_fraction(t)
    eps = h.tail(t)
    if eps == 0:
        raise ValueError("tail probability is zero")
    if eps >= 1:
        raise ValueError("tail probability must be below one")
    norm = h.l2_norm()
    log_inv = _log_inv(eps)
    check_id = {"strong": "THM18", "partitioned": "THM19", "weak": "THM110"}[variant]

    if variant == "strong":
        delta = h.delta_query(Fraction(1, 2), t)
        stat = float(delta) / norm * math.sqrt(log_inv)
        notes = f"eps={float(eps):.3g}"
    elif variant == "partitioned":
        if partition is None:
            raise ValueError("partitioned variant needs a Partition")
        partition.validate(h.n)
        if len(partition.big) >= 0.5 * log_inv:
            return CheckRecord(check_id, instance, None, None, None, True, PASS,
                               "big-class branch holds")
        small_sq = sum((h.weights[j] ** 2 for j in partition.small), Fraction(0))
        if small_sq == 0:
            raise ValueError("small class is empty and big class is small")
        delta = h.delta_query(Fraction(1, 2), t)
        # the norm cancels: delta and the small-class mass rescale together
        stat = float(delta) * math.sqrt(log_inv / float(small_sq))
        notes = f"|B|={len(partition.big)}"
    elif variant == "weak":
        if c is None:
            raise ValueError("weak variant needs the decay factor c")
        c = as_fraction(c)
        if not 0 < c <= 1:
            raise ValueError("decay factor must be in (0, 1]")
        delta = h.delta_query(c, t)
        m = 2 * h.weights[0]
        stat = max(0.0, float(delta - m)) / norm * math.sqrt(log_inv) / math.log(2 / float(c))
        notes = f"c={c}"
    else:
        raise ValueError(f"unknown variant {variant!r}")

    return CheckRecord.report(check_id, instance, stat, notes)


def gaussian_tail_ratio(h: Halfspace, t, weak_inequality: bool = False,
                        instance: str = "") -> CheckRecord:
    """F(t) divided by the standard normal upper tail at t (l2-normalized).

    weak_inequality compares Pr[a.x >= t] instead, the left limit of F just
    below t, which is where the worst ratio lives on a lattice.
    """
    t = as_fraction(t)
    if t < 0:
        raise ValueError("need t >= 0")
    norm = h.l2_norm()
    dist = h.distribution()
    prob = Fraction(
        dist.count_ge(t) if weak_inequality else dist.count_gt(t), dist.total
    )
    z = float(t) / norm
    gauss = 0.5 * math.erfc(z / math.sqrt(2))
    ratio = float(prob) / gauss
    rec = CheckRecord.inequality("GAUSS-EATON", instance, ratio,
                                 EATON_BOUND * EATON_SLACK)
    rec.ratio = ratio
    return rec
