import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cubelab import bfcore, correlate, harness, kernels, spectral
from cubelab.checks import MemberContext
from cubelab.halfspace import make_halfspace

import oracles

F = Fraction


def test_first_level_form_examples():
    d = correlate.first_level_form(bfcore.dictator(3))
    assert d.coeffs == (F(1, 2), F(0), F(0))
    p5 = correlate.first_level_form(bfcore.paper5())
    assert p5.coeffs == (F(1, 16),) * 5
    maj = correlate.first_level_form(bfcore.majority(3))
    assert maj.coeffs == (F(1, 4),) * 3
    assert maj.sq_norm == F(3, 16)


def test_best_halfspace_paper5():
    f = bfcore.paper5()
    res = correlate.best_halfspace_over_form(correlate.FirstLevel(f))
    assert res.covariance == F(3, 32)
    assert res.threshold == F(-3, 16)  # ties resolved to the lowest cut


def test_best_halfspace_dictator():
    f = bfcore.dictator(2)
    res = correlate.best_halfspace_over_form(correlate.FirstLevel(f))
    assert res.covariance == F(1, 4)
    # the winning cut keeps exactly the x1 = +1 half
    assert res.threshold < F(1, 2)


def test_best_halfspace_constant_zero():
    f = bfcore.from_truth_table([0] * 8, 3)
    res = correlate.best_halfspace_over_form(correlate.FirstLevel(f))
    assert res.degenerate and res.covariance == 0


def test_best_halfspace_brute_agreement():
    """Covariance and threshold against brute force at n = 2..10.

    Tied cuts: on sum(x_0..x_3), f is 1 on levels 3-4 and on half of level 2,
    so level 2 has the mean of f and the cuts just below and above it tie.
    paper5 ties too, and zero-coefficient coordinates keep both ties.  The
    negated form of a dictator anti-correlates at every cut: degenerate.
    """
    tied4 = [int(bin(m).count("1") >= 3 or m in (3, 5, 6)) for m in range(16)]
    cases = []
    for n in range(4, 11):
        pad = 1 << (n - 4)
        cases.append((bfcore.from_truth_table(np.tile(tied4, pad), n),
                      correlate.LinearForm((F(1),) * 4 + (F(0),) * (n - 4))))
        if n >= 5:
            cases.append((bfcore.from_truth_table(np.tile(bfcore.paper5().table, pad // 2), n),
                          None))
    dictator = bfcore.dictator(3)
    negated = correlate.LinearForm(tuple(-c for c in correlate.first_level_form(dictator).coeffs))
    cases.append((dictator, negated))
    rng = np.random.default_rng(7)
    for n in range(2, 11):
        for _ in range(3):
            cases.append((bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n), None))
    ties = degenerate = 0
    for f, form in cases:
        form = form or correlate.first_level_form(f)
        if form.is_zero():
            continue
        res = correlate.best_halfspace_over_form(correlate.FirstLevel(f, form=form))
        values, scale = form.scaled_values()
        # brute force: every cut that keeps some point, as a table
        cuts = []
        for v in sorted(set(values.tolist()))[:-1]:
            g = bfcore.from_truth_table(values > v, f.n)
            cuts.append((spectral.covariance(f, g), v))
        best = max(cov for cov, _ in cuts)
        if best < 0:
            degenerate += 1
            assert res.degenerate and res.covariance == 0 and res.threshold is None
            continue
        lowest = min(v for cov, v in cuts if cov == best)
        ties += sum(cov == best for cov, _ in cuts) > 1
        assert res.covariance == best
        assert res.threshold == F(lowest, scale)
    assert ties >= 13 and degenerate == 1


def test_first_level_shares_fresh_arrays(monkeypatch):
    """The form's scaled values and the cut profile of one FirstLevel equal
    fresh scaled_values and _cut_covariances calls, and every correlator of
    it reads the one copy: each is built once."""
    rng = np.random.default_rng(11)
    cases = [bfcore.paper5(), bfcore.tribes(2, 3), bfcore.majority(7)]
    cases += [bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n) for n in (4, 9)]
    for f in cases:
        form = correlate.first_level_form(f)
        values, scale = form.scaled_values()
        fresh = correlate._cut_covariances(f, values)
        builds = {"values": 0, "cuts": 0}
        scaled_values = correlate.LinearForm.scaled_values
        cut_covariances = correlate._cut_covariances

        def counted_values(self):
            builds["values"] += 1
            return scaled_values(self)

        def counted_cuts(g, vals):
            builds["cuts"] += 1
            return cut_covariances(g, vals)

        monkeypatch.setattr(correlate.LinearForm, "scaled_values", counted_values)
        monkeypatch.setattr(correlate, "_cut_covariances", counted_cuts)
        first = correlate.FirstLevel(f)
        correlate.best_halfspace_over_form(first)
        correlate.threshold_integral_identity(first)
        correlate.unbiased_correlator(first)
        if 0 < f.mean < 1:
            correlate.biased_correlator(first)
            correlate.noise_resistance_class(first)
        monkeypatch.undo()
        assert builds == {"values": 1, "cuts": 1}
        assert np.array_equal(first.scaled_values[0], values) and first.scaled_values[1] == scale
        for shared, alone in zip(first.cut_profile, fresh):
            assert np.array_equal(shared, alone)


def test_threshold_integral_identity():
    for f in (bfcore.paper5(), bfcore.majority(5), bfcore.dictator(3),
              bfcore.tribes(2, 3)):
        w1 = spectral.fwht_spectrum(f).level_weights().level(1)
        assert correlate.threshold_integral_identity(correlate.FirstLevel(f)) == w1


def test_threshold_integral_identity_random():
    rng = np.random.default_rng(3)
    for n in [6] * 10 + [14, 15, 16]:
        f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n)
        w1 = spectral.fwht_spectrum(f).level_weights().level(1)
        assert correlate.threshold_integral_identity(correlate.FirstLevel(f)) == w1


def test_cut_covariances_make_no_difference_arrays():
    """The cut profile of tribes:4,5 (20 coordinates, 21 distinct values)
    holds one sorted copy of l and the ones' values at its peak, below two
    2^n int64 arrays: no array of adjacent differences beside them."""
    f = bfcore.tribes(4, 5)
    values = correlate.first_level_form(f).scaled_values()[0]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        v, _count, _cov_num = correlate._cut_covariances(f, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(v) == 21
    assert peak < 2 * 8 * (1 << f.n), peak


def test_threshold_integral_identity_past_int64():
    """At n = 23 the step sum no longer fits int64; the identity stays exact.

    W^1 is counted here without the Walsh transform: f-hat({i}) is the
    difference between the ones of f at x_i = +1 and at x_i = -1, over 2^n.
    """
    n = 23
    rng = np.random.default_rng(0)
    weights = [int(w) for w in rng.integers(1, 65, size=n)]
    f = make_halfspace(weights, sum(weights) // 4).truth_table()
    table = f.table
    halves = [table.reshape(-1, 2, 1 << i) for i in range(n)]
    nums = [int(np.count_nonzero(h[:, 1, :])) - int(np.count_nonzero(h[:, 0, :]))
            for h in halves]
    w1 = F(sum(c * c for c in nums), 1 << (2 * n))
    form = correlate.first_level_form(f)
    assert form.sq_norm == w1
    values, scale = form.scaled_values()
    v, _count, cov_num = correlate._cut_covariances(f, values)
    wide = np.dot(cov_num[:-1].astype(object), np.diff(v).astype(object))
    assert int(np.dot(cov_num[:-1], np.diff(v))) != wide  # int64 wraps here
    # so the bound on the partial sums is past int64 and picks Python ints
    assert kernels.exact_int_dtype(int(np.abs(cov_num).max()) * int(v[-1] - v[0])) is object
    assert correlate.threshold_integral_identity(correlate.FirstLevel(f, form=form)) == w1


def test_unbiased_correlator_paper5():
    f = bfcore.paper5()
    res = correlate.unbiased_correlator(correlate.FirstLevel(f))
    assert res.covariance == F(1, 8)
    assert "flips" in res.notes
    # the majority cut itself anti-correlates
    maj = bfcore.majority(5)
    assert spectral.covariance(f, maj) == F(-1, 16)


def test_unbiased_correlator_dictator_and_majority():
    d = bfcore.dictator(4)
    res = correlate.unbiased_correlator(correlate.FirstLevel(d))
    assert res.covariance == F(1, 4)
    assert res.notes == "base"
    maj = bfcore.majority(3)
    res = correlate.unbiased_correlator(correlate.FirstLevel(maj))
    assert res.covariance == maj.mean * (1 - maj.mean)


def test_unbiased_correlator_full_scan_consistent():
    f = bfcore.paper5()
    fast = correlate.unbiased_correlator(correlate.FirstLevel(f))
    full = correlate.unbiased_correlator(correlate.FirstLevel(f), full_scan=True)
    assert full.covariance >= fast.covariance
    rng = np.random.default_rng(5)
    for trial in range(5):
        g = bfcore.from_truth_table(rng.integers(0, 2, size=32), 5)
        if correlate.first_level_form(g).is_zero():
            continue
        fast = correlate.unbiased_correlator(correlate.FirstLevel(g))
        full = correlate.unbiased_correlator(correlate.FirstLevel(g), full_scan=True)
        assert full.covariance >= fast.covariance


def _unbiased_cases(n: int):
    """Random, constant and dictator tables, a parity (first level zero), a
    table with dummy coordinates (some coefficients zero), and majority and
    paper5, whose single flips tie."""
    rng = np.random.default_rng(920 + n)
    yield from (bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n) for _ in range(3))
    yield bfcore.from_truth_table(np.zeros(1 << n, dtype=np.uint8), n)
    yield bfcore.from_truth_table(np.ones(1 << n, dtype=np.uint8), n)
    yield bfcore.dictator(n)
    yield bfcore.from_truth_table([bin(m).count("1") & 1 for m in range(1 << n)], n)
    m = min(n, n // 2 + 1)
    yield bfcore.from_truth_table(np.tile(rng.integers(0, 2, size=1 << m), 1 << (n - m)), n)
    maj = bfcore.majority(n - 1 + n % 2)
    yield bfcore.from_truth_table(np.tile(maj.table, 2 - n % 2), n)
    if n == 5:
        yield bfcore.paper5()


@pytest.mark.parametrize("n", range(1, 13))
def test_unbiased_correlator_matches_index_route(n):
    """Swapped cube halves against the index-array flips: whole result,
    single flips and the full Gray-code walk."""
    for f in _unbiased_cases(n):
        for full in (False, True):
            fast = correlate.unbiased_correlator(correlate.FirstLevel(f), full_scan=full)
            assert fast == oracles.index_unbiased_correlator(f, full_scan=full)


def test_unbiased_correlator_full_scan_cap():
    f = bfcore.majority(17)
    assert correlate.unbiased_correlator(correlate.FirstLevel(f)).notes == "base"
    with pytest.raises(ValueError, match="capped at 16"):
        correlate.unbiased_correlator(correlate.FirstLevel(f), full_scan=True)


def test_biased_correlator_degenerate_regime():
    f = bfcore.majority(3)  # eps = 1/2: hypothesis cannot hold
    rec = correlate.biased_correlator(correlate.FirstLevel(f))
    assert not rec.hypothesis_met
    assert rec.notes == "hypothesis-not-met"


def test_biased_correlator_biased_instance():
    # strongly biased majority-style cut: eps small, alpha order one
    from cubelab.halfspace import make_halfspace

    h = make_halfspace([1] * 15, 9)
    f = h.truth_table()
    rec = correlate.biased_correlator(correlate.FirstLevel(f))
    assert rec.hypothesis_met
    assert rec.small_mean_ok and rec.expectation_ok
    assert float(rec.mean_g) <= float(f.mean) ** (rec.alpha / 8)
    assert float(rec.expectation) >= math.sqrt(rec.alpha) / 8 * float(f.mean)


def _prop93_members():
    """Every table of the standard and builtin corpora and random tables at
    n = 1-12, and: constant tables and a parity (refused), and the AND of
    four coordinates, where the cut's square equals l^2 at a point."""
    for name in ("standard", "builtin"):
        for i, entry in enumerate(harness.load_corpus(name).entries):
            yield MemberContext(f"{name}#{i}", entry).function
    rng = np.random.default_rng(93)
    for n in range(1, 13):
        for p in (0.05, 0.3, 0.5):
            yield bfcore.from_truth_table(rng.random(1 << n) < p, n)
    yield bfcore.from_truth_table(np.zeros(16, dtype=np.uint8), 4)
    yield bfcore.from_truth_table(np.ones(16, dtype=np.uint8), 4)
    yield bfcore.from_truth_table([bin(m).count("1") & 1 for m in range(16)], 4)
    yield bfcore.from_truth_table([0] * 15 + [1], 4)


def test_biased_correlator_matches_per_point_route():
    """PROP93's cut decided once per distinct value of l from the cut
    profile against l read at every point in float64: the same record, or
    the same refusal."""
    tied = refused = 0
    for f in _prop93_members():
        try:
            want = oracles.per_point_biased_correlator(f)
        except ValueError as exc:
            refused += 1
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                correlate.biased_correlator(correlate.FirstLevel(f))
            continue
        first = correlate.FirstLevel(f)
        assert correlate.biased_correlator(first) == want
        v, scale = first.cut_profile[0], first.scaled_values[1]
        tau_sq = want.s * want.s * float(first.form.sq_norm) * scale * scale
        tied += bool(np.any((v > 0) & (v.astype(np.float64) ** 2 == tau_sq)))
    assert refused >= 3 and tied >= 1


def test_biased_correlator_allocates_no_cube_array():
    """With the member's cut profile built, PROP93 reads only the profile's
    21 distinct values of tribes:4,5: far below one 2^20 float64 array."""
    f = bfcore.tribes(4, 5)
    first = correlate.FirstLevel(f)
    first.cut_profile
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rec = correlate.biased_correlator(first)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec == oracles.per_point_biased_correlator(f)
    assert peak < 8 * (1 << f.n), peak


def test_biased_correlator_validates():
    zero = bfcore.from_truth_table([0] * 4, 2)
    with pytest.raises(ValueError):
        correlate.biased_correlator(correlate.FirstLevel(zero))
    parity = bfcore.from_truth_table([0, 1, 1, 0], 2)
    with pytest.raises(ValueError):
        correlate.biased_correlator(correlate.FirstLevel(parity))  # first level vanishes


def test_noise_resistance_dictator():
    rep = correlate.noise_resistance_class(correlate.FirstLevel(bfcore.dictator(3)))
    assert math.isclose(rep.fourier_stat, 1 / math.log(2), rel_tol=1e-12)
    assert rep.fourier_resistant
    assert rep.monotone
    assert rep.best_cov_ratio == pytest.approx(0.5)


def test_noise_resistance_tribes_reported():
    rep = correlate.noise_resistance_class(correlate.FirstLevel(bfcore.tribes(4, 4)))
    assert 0 < rep.fourier_stat
    assert 0 <= rep.stability <= float(rep.mean)
    assert rep.monotone


def test_noise_resistance_validates():
    with pytest.raises(ValueError):
        correlate.noise_resistance_class(correlate.FirstLevel(bfcore.from_truth_table([1, 1], 1)))


def test_tribes_or_small_halfspace_tightness():
    # gluing a small-measure halfspace onto tribes can only move any fixed
    # cut's covariance by twice that measure; the best-cut value is reported
    tribes = bfcore.tribes(3, 4)
    n = tribes.n
    from cubelab.halfspace import ltf_truth_table

    weights = [F(1)] * n
    rare = ltf_truth_table(weights, n - 2)  # all but at most one coordinate +1
    eta = rare.mean
    glued = bfcore.from_truth_table(tribes.table | rare.table, n)
    form = correlate.first_level_form(glued)
    values, scale = form.scaled_values()
    best = correlate.best_halfspace_over_form(correlate.FirstLevel(glued, form=form))
    cut = bfcore.from_truth_table(values > best.threshold * scale, n)
    assert spectral.covariance(glued, cut) == best.covariance
    assert best.covariance <= spectral.covariance(tribes, cut) + 2 * eta
    assert best.covariance > 0
