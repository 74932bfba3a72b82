import math
from fractions import Fraction

import numpy as np
import pytest

from cubelab import checks, chernoff, harness
from cubelab.chernoff import CheckRecord
from cubelab.halfspace import (SupportDistribution, TailDistribution, make_halfspace,
                               parse_halfspace)

import oracles

F = Fraction


def _log_concavity_by_counts(dist, b, c, d, m) -> bool:
    """LEM111 at one triple as the registry check decides it: thresholds in
    quarters, integer tail counts, products in Python ints."""
    quarters = [[int(4 * F(x)) for x in (b, c, d)]]
    return not checks._log_concavity_violations(dist, quarters, int(F(m) * dist.scale))[0]


def _log_concave_exp_by_counts(dist, t, delta, m) -> bool:
    """LEM42 at one (t, delta) as the registry check decides it, from the
    tail counts above t and above t + delta + m."""
    t, delta, m = F(t), F(delta), F(m)
    return chernoff.log_concave_exp_holds(dist.count_gt(t), dist.count_gt(t + delta + m),
                                          1 + int(t // delta), dist.n_summands)


def test_log_concavity_hand_example():
    # four-point enumeration: F(1) = 1/4, F(-1) = 3/4, F(0) = 1/4, F(-2) = 3/4
    h = make_halfspace([1, 1], 0)
    rec = oracles.check_log_concavity(h.distribution(), -1, 0, 1, 2)
    assert rec.lhs == F(1, 4) * F(3, 4)
    assert rec.rhs == F(1, 4) * F(3, 4)
    assert rec.passed
    assert _log_concavity_by_counts(h.distribution(), -1, 0, 1, 2)


def test_log_concavity_degenerate_triple():
    h = make_halfspace([2, 1, 1], 0)
    dist = h.distribution()
    for b in (-2, 0, F(3, 2)):
        rec = oracles.check_log_concavity(dist, b, b, b, 4)
        assert rec.passed  # F nonincreasing makes the right side dominate
        assert _log_concavity_by_counts(dist, b, b, b, 4)


def test_log_concavity_narrow_gap_trivial():
    # d - c <= m forces rhs >= lhs because b+d-c-m <= b
    h = make_halfspace([1, 1, 1], 0)
    rec = oracles.check_log_concavity(h.distribution(), 0, 1, 2, 2)
    assert rec.passed
    assert _log_concavity_by_counts(h.distribution(), 0, 1, 2, 2)


def test_log_concavity_random_sweep():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 10))
        h = make_halfspace([F(int(w)) for w in rng.integers(1, 9, size=n)], 0)
        dist = h.distribution()
        m = 2 * h.weights[0]
        picks = sorted(F(int(x), 2) for x in rng.integers(-20, 20, size=3))
        rec = oracles.check_log_concavity(dist, *picks, m)
        assert rec.passed, (h.to_text(), picks)
        assert _log_concavity_by_counts(dist, *picks, m)


def test_log_concavity_validates_order():
    h = make_halfspace([1, 1], 0)
    with pytest.raises(ValueError):
        oracles.check_log_concavity(h.distribution(), 1, 0, 2, 2)


def _lem111_quarters(rng, dist, rows):
    """Sorted triples in quarters from min - 1 to below max + 2, with every
    other triple's first threshold below the support, where its tail count
    is 2^n."""
    lo, hi = 4 * (dist.min_scaled // dist.scale - 1), 4 * (dist.max_scaled // dist.scale + 2)
    quarters = [sorted(int(x) for x in rng.integers(lo, hi, size=3)) for _ in range(rows)]
    for row in quarters[::2]:
        row[0] = lo
    return quarters


def test_log_concavity_counts_past_int64_match_fractions():
    """LEM111's count comparison against the Fraction oracle at n = 31..34,
    where the products of two tail counts pass 2^63: on dense halfspaces
    (which never fail) and on hand-made distributions of 2^33 outcomes that
    are not log-concave (which do)."""
    rng = np.random.default_rng(111)
    cases = []
    for n in range(31, 35):
        h = make_halfspace([int(w) for w in rng.integers(1, 9, size=n)], 0)
        cases.append((h.distribution(), int(h.scaled[0])))
    for gap in (3, 8):
        # two heavy atoms at -2 gap and 2 gap with a light one between them:
        # the tail is flat across each gap, which log-concavity forbids
        counts = np.array([2**32 - 5, 5, 2**32], dtype=np.int64)
        cases.append((SupportDistribution(np.array([-2 * gap, 0, 2 * gap]), counts, 1, 33), 1))
    outcomes, widest = set(), 0
    for dist, w0 in cases:
        assert isinstance(dist, (TailDistribution, SupportDistribution)) and dist.n_summands >= 31
        quarters = _lem111_quarters(rng, dist, 60)
        got = checks._log_concavity_violations(dist, quarters, 2 * w0)
        for row, bad in zip(quarters, got):
            b, c, d = (F(x, 4) for x in row)
            rec = oracles.check_log_concavity(dist, b, c, d, F(2 * w0, dist.scale))
            assert bad == (not rec.passed), row
            widest = max(widest, dist.count_gt(d) * dist.count_gt(b))
            outcomes.add(bad)
    assert widest >= 2**63 and outcomes == {True, False}


def test_interval_decay_equal_endpoints():
    h = make_halfspace([1, 1, 1], 0)
    rec = chernoff.check_interval_decay(h.distribution(), 1, 1, F(3, 2))
    assert rec.passed and rec.ratio == 1.0


def test_interval_decay_majority5_grid():
    h = make_halfspace([1] * 5, 0)
    dist = h.distribution()
    for s in range(0, 6):
        for t in range(s, 6):
            assert chernoff.check_interval_decay(dist, s, t, 1).passed


def test_interval_decay_lower_witness():
    # the all-ones lattice with (m, s, t) = (3/2, 1, 2) puts the mass of two
    # lattice points against one: the ratio is 1 + C(n,(n+3)/2)/C(n,(n+1)/2),
    # exactly 11/6 at n = 21, and it climbs past 1.9 from n = 37 on
    h = make_halfspace([1] * 21, 0)
    rec = chernoff.check_interval_decay(h.distribution(), 1, 2, F(3, 2))
    assert rec.passed
    assert F(rec.lhs) == 11 * F(rec.rhs) / (6 * 5)
    h41 = make_halfspace([1] * 41, 0)
    rec41 = chernoff.check_interval_decay(h41.distribution(), 1, 2, F(3, 2))
    assert rec41.ratio >= 1.9


def test_interval_decay_validates():
    h = make_halfspace([1, 1], 0)
    with pytest.raises(ValueError):
        chernoff.check_interval_decay(h.distribution(), 2, 1, 1)
    with pytest.raises(ValueError):
        chernoff.check_interval_decay(h.distribution(), -1, 1, 1)


def test_log_concave_exp_small_cases():
    h = make_halfspace([1, 1, 1], 0)
    rec = oracles.check_log_concave_exp(h.distribution(), 0, 1, 2)
    assert rec.notes == "l=1"
    assert rec.lhs == h.tail(3) and rec.rhs == 2 * h.tail(0) ** 2
    assert rec.passed
    assert _log_concave_exp_by_counts(h.distribution(), 0, 1, 2)


def test_log_concave_exp_quarter_weights():
    h = make_halfspace([F(1, 2)] * 4, 0)
    # t + delta + m = 2 sits exactly at the top of the support, where the
    # strict tail is already empty
    rec = oracles.check_log_concave_exp(h.distribution(), F(1, 2), F(1, 2), 1)
    assert rec.notes == "l=2"
    assert rec.lhs == h.tail(2) ** 2 == 0
    assert rec.rhs == 2 * h.tail(F(1, 2)) ** 3 == 2 * F(5, 16) ** 3
    assert rec.passed
    assert _log_concave_exp_by_counts(h.distribution(), F(1, 2), F(1, 2), 1)
    # half-step narrower: the tail catches the atom at 2
    rec = oracles.check_log_concave_exp(h.distribution(), F(1, 2), F(1, 2), F(1, 2))
    assert rec.lhs == h.tail(F(3, 2)) ** 2 == F(1, 256)
    assert rec.passed
    assert _log_concave_exp_by_counts(h.distribution(), F(1, 2), F(1, 2), F(1, 2))


def test_log_concave_exp_zero_tail():
    h = make_halfspace([1, 1], 0)
    rec = oracles.check_log_concave_exp(h.distribution(), 5, 1, 2)
    assert rec.lhs == 0 and rec.passed
    assert _log_concave_exp_by_counts(h.distribution(), 5, 1, 2)


def test_log_concave_exp_grid_random():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(3, 10))
        h = make_halfspace([F(int(w)) for w in rng.integers(1, 7, size=n)], 0)
        dist = h.distribution()
        m = 2 * h.weights[0]
        for t in (0, 1, F(5, 2)):
            for delta in (F(1, 2), 1, 3):
                assert oracles.check_log_concave_exp(dist, t, delta, m).passed
                assert _log_concave_exp_by_counts(dist, t, delta, m)


def _lem42_grid(h):
    """LEM42's (t, delta) grid of one member, as the registry check reads it."""
    thr = h.decay_thresholds()
    deltas = [d for d in (thr.beta, thr.gamma, thr.m, F(1)) if d > 0]
    return [(t, d) for t in (F(0), thr.beta, thr.gamma, 2 * thr.gamma) for d in deltas], thr.m


@pytest.mark.parametrize("corpus", ["tail", "standard"])
def test_log_concave_exp_decision_matches_fraction_powers(corpus):
    """At every LEM42 grid point of the corpus, the decision from the two
    tail counts equals the comparison of the exact Fraction powers."""
    outcomes = set()
    for entry in harness.load_corpus(corpus).entries:
        h = parse_halfspace(entry)
        dist = h.distribution()
        grid, m = _lem42_grid(h)
        for t, d in grid:
            c0, c1 = dist.count_gt(t), dist.count_gt(t + d + m)
            exact = oracles.check_log_concave_exp(dist, t, d, m).passed
            assert _log_concave_exp_by_counts(dist, t, d, m) == exact
            outcomes.add((exact, c1 == 0, c1 == c0))
    assert (True, False, False) in outcomes and (True, True, False) in outcomes


def test_log_concave_exp_decision_edges(monkeypatch):
    # c1 = c0: the sides compare 2^(n-1) with c0
    assert chernoff.log_concave_exp_holds(16, 16, 7, 5)
    assert not chernoff.log_concave_exp_holds(15, 15, 7, 5)
    # 2^2 * 2^4 = 4^3: the logs tie, and the exact powers decide
    assert chernoff.log_concave_exp_holds(4, 2, 2, 5)
    assert not chernoff.log_concave_exp_holds(4, 3, 2, 5)
    # far past the size budget the logs still decide, against exact integers
    for c0, c1, level, n in ((900_000, 899_999, 120_000, 20), (3, 2, 77_664_989, 26),
                             (524_289, 524_288, 50_000, 20)):
        assert level * n > chernoff.POWER_BITS
        got = chernoff.log_concave_exp_holds(c0, c1, level, n)
        if level < 10**6:
            assert got == (c1**level << (n - 1) <= c0 ** (level + 1))
    monkeypatch.setattr(chernoff, "POWER_BITS", 8)
    with pytest.raises(chernoff.BudgetError, match="too close to tell"):
        chernoff.log_concave_exp_holds(4, 2, 2, 5)


def test_log_concave_exp_record_past_the_power_budget(monkeypatch):
    """l = 100001 on 20 unit weights: the counts' logs decide without
    forming a power (with no power budget at all, nothing is refused), and
    the verdict equals the oracle's exact Fraction powers."""
    h = make_halfspace([1] * 20, 0)
    dist = h.distribution()
    rec = oracles.check_log_concave_exp(dist, 5, F(1, 20000), 2)
    assert rec.notes == "l=100001"
    c0, c1 = dist.count_gt(5), dist.count_gt(5 + F(1, 20000) + 2)
    assert rec.passed == (c1**100001 << 19 <= c0**100002)
    assert rec.status == ("pass" if rec.passed else "fail")
    monkeypatch.setattr(chernoff, "POWER_BITS", 0)
    assert _log_concave_exp_by_counts(dist, 5, F(1, 20000), 2) == rec.passed


def test_local_chernoff_strong_reports():
    h = make_halfspace([1] * 25, 0)
    t = F(11)  # eps ~ 0.0073
    rec = chernoff.check_local_chernoff(h, t, "strong")
    assert rec.status == "report"
    assert 0 < rec.lhs < 10


def test_local_chernoff_strong_asserts_against_pin():
    """The check reports the statistic; the runner asserts the THM18 constant."""
    corpus = harness.corpus_gen(
        "random-halfspace",
        {"n_lo": 8, "n_hi": 10, "count": 4, "eps_band": (F(1, 128), F(1, 8))}, seed=77)
    reported, _ = harness.run_suite("chernoff", corpus)
    stats = [r.lhs for r in reported.records if r.check_id == "THM18"]
    assert stats and all(r.status == "report" for r in reported.records
                         if r.check_id == "THM18")
    for bound, status in ((1.01 * max(stats), "pass"), (0.99 * min(stats), "fail")):
        pin = harness.PinnedConstants(corpus.digest, {"THM18": bound})
        report, _ = harness.run_suite("chernoff", corpus, constants=pin)
        thm18 = [r for r in report.records if r.check_id == "THM18"]
        assert [r.lhs for r in thm18] == stats
        assert all(r.status == status and r.rhs == bound for r in thm18)
        assert report.failures == (len(stats) if status == "fail" else 0)


def test_local_chernoff_scale_invariant():
    base = [7, 5, 4, 4, 3, 2, 2, 1, 1]
    h1 = make_halfspace([F(w) for w in base], 4)
    h2 = make_halfspace([F(3 * w) for w in base], 12)
    for variant, kw in (("strong", {}), ("weak", {"c": F(1, 3)})):
        r1 = chernoff.check_local_chernoff(h1, None, variant, **kw)
        r2 = chernoff.check_local_chernoff(h2, None, variant, **kw)
        assert math.isclose(r1.lhs, r2.lhs, rel_tol=1e-12)


def test_local_chernoff_partitioned_branches():
    # beta = 3 leaves the 9 alone above it, and |B| = 1 >= log(512/163)/2
    h = make_halfspace([9] + [1] * 8, 8)
    assert h.decay_thresholds().beta == 3
    rec = chernoff.check_local_chernoff(h, None, "partitioned")
    assert rec.status == "pass" and rec.notes == "big-class branch holds"
    # every weight above beta = 1/2 makes the big class the whole cube, which
    # always satisfies the counting branch: eps can never drop below 2^-n
    h = make_halfspace([1] * 6, F(11, 2))
    assert h.decay_thresholds().beta == F(1, 2)
    rec = chernoff.check_local_chernoff(h, None, "partitioned")
    assert rec.notes == "big-class branch holds"
    # beta = 1 and weights of 1: no big class, the statistic is the strong one
    h = make_halfspace([1] * 6, 1)
    rec = chernoff.check_local_chernoff(h, None, "partitioned")
    strong = chernoff.check_local_chernoff(h, None, "strong")
    assert rec.status == "report" and rec.notes == "|B|=0"
    assert math.isclose(rec.lhs, strong.lhs, rel_tol=1e-12)


def test_weight_split():
    # the partitioned variant splits at beta itself: the 4 equal to beta = 4 is
    # small, only the 6 is big, and eps = 47/1024 keeps the small-class branch
    h = make_halfspace([6, 4] + [2] * 10, 14)
    eps = h.tail(h.threshold)
    assert h.decay_thresholds().beta == 4 and eps == F(47, 1024)
    rec = chernoff.check_local_chernoff(h, None, "partitioned")
    assert rec.status == "report" and rec.notes == "|B|=1"
    small_sq = 4**2 + 10 * 2**2
    want = float(h.delta_query(F(1, 2))) * math.sqrt(math.log(1 / float(eps)) / small_sq)
    assert rec.lhs == want


def test_local_chernoff_unknown_variant():
    h = make_halfspace([1] * 5, 0)
    with pytest.raises(ValueError, match="unknown variant 'bogus'"):
        chernoff.check_local_chernoff(h, None, "bogus")


def test_local_chernoff_weak_trivial_at_c1():
    h = make_halfspace([1] * 5, 0)
    rec = chernoff.check_local_chernoff(h, F(1), "weak", c=1)
    assert rec.lhs == 0.0


def test_gaussian_ratio_at_zero():
    h = make_halfspace([1] * 7, 0)
    rec = chernoff.gaussian_tail_ratio(h, 0)
    assert rec.passed
    assert rec.ratio <= 1.0


def test_gaussian_ratio_dictator_near_one():
    h = make_halfspace([1], 0)
    rec = chernoff.gaussian_tail_ratio(h, F(99, 100))
    expect = 0.5 / (0.5 * math.erfc(0.99 / math.sqrt(2)))
    assert math.isclose(rec.ratio, expect, rel_tol=1e-12)
    assert rec.passed and rec.ratio > 3.0


def test_gaussian_ratio_majority9_grid():
    """Pr[a.x > t] and the weak Pr[a.x >= t], the left limit of the tail just
    below t where the worst ratio lives on a lattice, both within Eaton's bound."""
    h = make_halfspace([1] * 9, 0)
    dist = h.distribution()
    for t in (0, 1, 2, 3, 5):
        assert chernoff.gaussian_tail_ratio(h, t).passed
        gauss = 0.5 * math.erfc(t / h.l2_norm() / math.sqrt(2))
        weak = float(F(dist.count_ge(t), dist.total)) / gauss
        assert weak <= chernoff.EATON_BOUND * chernoff.EATON_SLACK


def test_check_record_invariants():
    rec = CheckRecord.inequality("X", "inst", F(1, 4), F(1, 2))
    assert rec.passed and rec.ratio == 0.5
    rec = CheckRecord.inequality("X", "inst", F(1, 2), F(1, 4))
    assert rec.status == "fail"
    assert rec.passed == (rec.lhs <= rec.rhs)
