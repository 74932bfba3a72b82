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

from .halfspace import BudgetError, Halfspace, _TailBase
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
    def verdict(check_id: str, instance: str, ok, lhs=None, rhs=None, notes: str = "",
                ratio: float | None = None) -> "CheckRecord":
        """A record that asserts: ok is its verdict, and its status says so."""
        return CheckRecord(check_id, instance, lhs, rhs, ratio, ok, PASS if ok else FAIL, notes)

    @staticmethod
    def inequality(check_id: str, instance: str, lhs, rhs, notes: str = "") -> "CheckRecord":
        """lhs <= rhs decides pass; ratio reported when rhs is nonzero."""
        return CheckRecord.verdict(check_id, instance, bool(lhs <= rhs), lhs, rhs, notes,
                                   bound_ratio(lhs, rhs))

    @staticmethod
    def skipped(check_id: str, instance: str, notes: str) -> "CheckRecord":
        return CheckRecord(check_id, instance, status=SKIPPED, notes=notes)

    @staticmethod
    def report(check_id: str, instance: str, lhs, notes: str = "") -> "CheckRecord":
        return CheckRecord(check_id, instance, lhs=lhs, status=REPORT, notes=notes)


# ---------------------------------------------------------------------------
# exact tail-shape checks

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


# LEM42's exact count powers are formed only while l * n, their size in bits,
# is at most this
POWER_BITS = 1 << 16
# bound on the relative error of the float sides l * log2(c): a few units in
# the last place of each product and sum, far below this
LOG_SLACK = 2.0**-40


def log_concave_exp_holds(c0: int, c1: int, level: int, n: int) -> bool:
    """Whether c1^level * 2^(n-1) <= c0^(level+1): LEM42's
    F(t+delta+m)^l <= 2 F(t)^(l+1) times 2^(n(l+1)), for the tail counts
    c0 above t and c1 <= c0 above t + delta + m out of 2^n.

    Integers decide c1 = 0 and c1 = c0.  Otherwise base-2 logs decide
    wherever the two sides differ by more than their error bound, and the
    exact powers decide the rest if they fit POWER_BITS; past that the
    instance is refused.
    """
    if c1 == 0:
        return True
    if c1 == c0:
        return c0 >= 1 << (n - 1)
    lhs, rhs = level * math.log2(c1) + (n - 1), (level + 1) * math.log2(c0)
    if abs(rhs - lhs) > LOG_SLACK * (lhs + rhs):
        return lhs < rhs
    if level * n > POWER_BITS:
        raise BudgetError(f"LEM42 sides at l={level} too close to tell in logs")
    return c1**level << (n - 1) <= c0 ** (level + 1)


# ---------------------------------------------------------------------------
# local Chernoff statistics (shape-only: asserted against pinned constants)

def _log_inv(eps: Fraction) -> float:
    return math.log(1 / float(eps))


_CHERNOFF_IDS = {"strong": "THM18", "partitioned": "THM19", "weak": "THM110"}


def check_local_chernoff(h: Halfspace, t=None, variant: str = "strong", c=None,
                         instance: str = "") -> CheckRecord:
    """Scale-free decay statistic for the halfspace's tail at t.

    strong: D = delta_{1/2} * sqrt(log(1/eps)) in l2-normalized units.
    partitioned: the weights above beta = delta_{1/3} form the big class B;
        D as for strong, with delta_{1/2} measured against the mass of the
        rest, unless |B| >= log(1/eps)/2.
    weak: ((delta_c - m) clamped at 0) * sqrt(log(1/eps)) / log(2/c).

    The statistic is reported; the harness asserts it against the pinned
    constant.  The big-class branch of the partitioned variant holds outright
    and passes without a statistic.
    """
    check_id = _CHERNOFF_IDS.get(variant)
    if check_id is None:
        raise ValueError(f"unknown variant {variant!r}")
    t = h.threshold if t is None else as_fraction(t)
    eps = h.tail(t)
    if eps == 0:
        raise ValueError("tail probability is zero")
    if eps >= 1:
        raise ValueError("tail probability must be below one")
    norm = h.l2_norm()
    log_inv = _log_inv(eps)

    if variant == "strong":
        delta = h.delta_query(Fraction(1, 2), t)
        stat = float(delta) / norm * math.sqrt(log_inv)
        notes = f"eps={float(eps):.3g}"
    elif variant == "partitioned":
        beta = h.decay_thresholds(t).beta
        n_big = sum(1 for w in h.weights if w > beta)
        # with every weight above beta, |B| = n >= log(1/eps)/2 as eps >= 2^-n,
        # so the small-class mass below is never zero
        if n_big >= 0.5 * log_inv:
            return CheckRecord.verdict(check_id, instance, True, notes="big-class branch holds")
        small_sq = sum((w**2 for w in h.weights if w <= beta), Fraction(0))
        delta = h.delta_query(Fraction(1, 2), t)
        # the norm cancels: delta and the small-class mass rescale together
        stat = float(delta) * math.sqrt(log_inv / float(small_sq))
        notes = f"|B|={n_big}"
    else:
        if c is None:
            raise ValueError("weak variant needs the decay factor c")
        c = as_fraction(c)
        if not 0 < c <= 1:
            raise ValueError("decay factor must be in (0, 1]")
        delta = h.delta_query(c, t)
        m = 2 * h.weights[0]
        stat = max(0.0, float(delta - m)) / norm * math.sqrt(log_inv) / math.log(2 / float(c))
        notes = f"c={c}"

    return CheckRecord.report(check_id, instance, stat, notes)


def gaussian_tail_ratio(h: Halfspace, t, instance: str = "") -> CheckRecord:
    """F(t) divided by the standard normal upper tail at t (l2-normalized)."""
    t = as_fraction(t)
    if t < 0:
        raise ValueError("need t >= 0")
    norm = h.l2_norm()
    prob = h.tail(t)
    z = float(t) / norm
    gauss = 0.5 * math.erfc(z / math.sqrt(2))
    ratio = float(prob) / gauss
    rec = CheckRecord.inequality("GAUSS-EATON", instance, ratio,
                                 EATON_BOUND * EATON_SLACK)
    rec.ratio = ratio
    return rec
