import math
from fractions import Fraction

import numpy as np
import pytest

from cubelab import chernoff, harness
from cubelab.chernoff import CheckRecord, Partition, weight_split
from cubelab.halfspace import make_halfspace

F = Fraction


def test_log_concavity_hand_example():
    # four-point enumeration: F(1) = 1/4, F(-1) = 3/4, F(0) = 1/4, F(-2) = 3/4
    h = make_halfspace([1, 1], 0)
    rec = chernoff.check_log_concavity(h.distribution(), -1, 0, 1, 2)
    assert rec.lhs == F(1, 4) * F(3, 4)
    assert rec.rhs == F(1, 4) * F(3, 4)
    assert rec.passed


def test_log_concavity_degenerate_triple():
    h = make_halfspace([2, 1, 1], 0)
    dist = h.distribution()
    for b in (-2, 0, F(3, 2)):
        rec = chernoff.check_log_concavity(dist, b, b, b, 4)
        assert rec.passed  # F nonincreasing makes the right side dominate


def test_log_concavity_narrow_gap_trivial():
    # d - c <= m forces rhs >= lhs because b+d-c-m <= b
    h = make_halfspace([1, 1, 1], 0)
    rec = chernoff.check_log_concavity(h.distribution(), 0, 1, 2, 2)
    assert rec.passed


def test_log_concavity_random_sweep():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 10))
        h = make_halfspace([F(int(w)) for w in rng.integers(1, 9, size=n)], 0)
        dist = h.distribution()
        m = 2 * h.weights[0]
        picks = sorted(F(int(x), 2) for x in rng.integers(-20, 20, size=3))
        rec = chernoff.check_log_concavity(dist, *picks, m)
        assert rec.passed, (h.to_text(), picks)


def test_log_concavity_validates_order():
    h = make_halfspace([1, 1], 0)
    with pytest.raises(ValueError):
        chernoff.check_log_concavity(h.distribution(), 1, 0, 2, 2)


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
    rec = chernoff.check_log_concave_exp(h.distribution(), 0, 1, 2)
    assert rec.notes == "l=1"
    assert rec.lhs == h.tail(3) and rec.rhs == 2 * h.tail(0) ** 2
    assert rec.passed


def test_log_concave_exp_quarter_weights():
    h = make_halfspace([F(1, 2)] * 4, 0)
    # t + delta + m = 2 sits exactly at the top of the support, where the
    # strict tail is already empty
    rec = chernoff.check_log_concave_exp(h.distribution(), F(1, 2), F(1, 2), 1)
    assert rec.notes == "l=2"
    assert rec.lhs == h.tail(2) ** 2 == 0
    assert rec.rhs == 2 * h.tail(F(1, 2)) ** 3 == 2 * F(5, 16) ** 3
    assert rec.passed
    # half-step narrower: the tail catches the atom at 2
    rec = chernoff.check_log_concave_exp(h.distribution(), F(1, 2), F(1, 2), F(1, 2))
    assert rec.lhs == h.tail(F(3, 2)) ** 2 == F(1, 256)
    assert rec.passed


def test_log_concave_exp_zero_tail():
    h = make_halfspace([1, 1], 0)
    rec = chernoff.check_log_concave_exp(h.distribution(), 5, 1, 2)
    assert rec.lhs == 0 and rec.passed


def test_log_concave_exp_grid_random():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(3, 10))
        h = make_halfspace([F(int(w)) for w in rng.integers(1, 7, size=n)], 0)
        dist = h.distribution()
        m = 2 * h.weights[0]
        for t in (0, 1, F(5, 2)):
            for delta in (F(1, 2), 1, 3):
                assert chernoff.check_log_concave_exp(dist, t, delta, m).passed


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
    h = make_halfspace([F(5), F(1), F(1), F(1), F(1), F(1)], 4)
    big_first = Partition((0,), (1, 2, 3, 4, 5))
    rec = chernoff.check_local_chernoff(h, None, "partitioned", partition=big_first)
    assert rec.status in ("pass", "report")
    # an all-big partition always satisfies the counting branch, because the
    # tail probability can never drop below 2^-n
    all_big = Partition(tuple(range(6)), ())
    rec = chernoff.check_local_chernoff(
        make_halfspace([1] * 6, 0), F(1), "partitioned", partition=all_big
    )
    assert rec.notes == "big-class branch holds"


def test_weight_split():
    h = make_halfspace([F(5), F(3), F(1)], 0)
    part = weight_split(h, 2)
    assert part.big == (0, 1) and part.small == (2,)
    part.validate(3)
    with pytest.raises(ValueError):
        Partition((0,), (0, 1)).validate(2)


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
    h = make_halfspace([1] * 9, 0)
    for t in (0, 1, 2, 3, 5):
        assert chernoff.gaussian_tail_ratio(h, t).passed
        assert chernoff.gaussian_tail_ratio(h, t, weak_inequality=True).passed


def test_check_record_invariants():
    rec = CheckRecord.inequality("X", "inst", F(1, 4), F(1, 2))
    assert rec.passed and rec.ratio == 0.5
    rec = CheckRecord.inequality("X", "inst", F(1, 2), F(1, 4))
    assert rec.status == "fail"
    assert rec.passed == (rec.lhs <= rec.rhs)
