import bisect
import importlib.util
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubelab import bfcore, chernoff, harness, influence, kernels, levelk
from cubelab import halfspace as hs
from cubelab.checks import MemberContext
from cubelab.halfspace import (
    BudgetError,
    Halfspace,
    MeetInMiddleDistribution,
    SupportDistribution,
    TailDistribution,
    distribution_from_scaled,
    ltf_truth_table,
    make_halfspace,
    parse_halfspace,
)

import oracles

F = Fraction


def random_halfspace(rng, n, wmax=10):
    weights = [F(int(w)) for w in rng.integers(1, wmax + 1, size=n)]
    t = F(int(rng.integers(-3, n * wmax // 2)))
    return make_halfspace(weights, t)


# -- construction -----------------------------------------------------------

def test_make_halfspace_sorts_and_records_order():
    h = make_halfspace([F(3, 5), F(4, 5)], 0)
    assert h.weights == (F(4, 5), F(3, 5))
    assert h.order == (1, 0)
    # equal to the dictator on the heavy coordinate
    table = h.truth_table()
    expect = [(1 if m >> 1 & 1 else 0) for m in range(4)]
    assert list(table.table) == expect


def test_make_halfspace_drops_zeros():
    h = make_halfspace([0, F(2), 0, F(1)], F(1, 2))
    assert h.weights == (F(2), F(1))
    assert h.order == (1, 3)
    assert h.arity == 4
    assert h.influence(0) == 0 and h.influence(2) == 0


def test_make_halfspace_errors():
    with pytest.raises(ValueError):
        make_halfspace([0, 0], 1)
    with pytest.raises(ValueError):
        make_halfspace([1, F(-1, 2)], 0)


EDGE = (1 << 60) - 1  # the largest sum of scaled weight magnitudes that int64 keys allow


@pytest.mark.parametrize("weights", [[1 << 59, (1 << 59) - 1], [F(EDGE, 2)], [EDGE - 5, -5]])
def test_scaled_weights_at_the_bound_are_counted(weights):
    """Scaled magnitudes summing to 2^60 - 1: the table route and the
    halfspace route both build, and the halfspace's mean and influences are
    the table's (a negative weight read as its flipped coordinate)."""
    table = ltf_truth_table(weights, 1)
    h = make_halfspace([abs(w) for w in weights], 1)
    assert sum(abs(int(w * h.scale)) for w in weights) == EDGE
    flipped = ltf_truth_table([abs(w) for w in weights], 1)
    assert h.mean() == flipped.mean and 0 < table.mean < 1
    assert h.influences() == list(influence.influences(flipped).per_coordinate)


@pytest.mark.parametrize("weights", [[1 << 59, 1 << 59], [F(EDGE, 2), F(1, 3)], [EDGE, -1],
                                     [1 << 62] * 3, [10**20]])
def test_scaled_weights_past_the_bound_are_refused(weights):
    """From 2^60 on, counted after scaling (EDGE / 2 and 1/3 scale by 6),
    the table route, the halfspace route and the parsed descriptor refuse
    with the bound's message, not a wrapped or overflowing int64."""
    text = "ltf:" + ",".join(map(str, weights)) + ";0"
    for build in (lambda: ltf_truth_table(weights, 0), lambda: bfcore.FunctionSpec.parse(text),
                  lambda: make_halfspace([abs(w) for w in weights], 0)):
        with pytest.raises(ValueError, match=r"bound 2\^60"):
            build()


def test_majority_table():
    h = make_halfspace([1, 1, 1], 0)
    assert h.truth_table() == bfcore.majority(3)


def test_text_roundtrip():
    h = make_halfspace([F(5), F(4), F(4)], F(1, 2))
    again = parse_halfspace(h.to_text())
    assert again.weights == h.weights and again.threshold == h.threshold


# -- tail distributions -------------------------------------------------------

def test_binomial_distribution():
    h = make_halfspace([1, 1, 1, 1], 0)
    dist = h.distribution().support()
    assert list(dist.values) == [-4, -2, 0, 2, 4]
    assert list(dist.counts) == [1, 4, 6, 4, 1]


def test_majority5_tail_at_zero():
    h = make_halfspace([1] * 5, 0)
    assert h.tail(0) == F(1, 2)


def test_half_weights_tails():
    h = make_halfspace([F(1, 2)] * 4, 0)
    assert h.tail(0) == F(5, 16)
    assert h.tail(1) == F(1, 16)
    assert h.tail(0) == oracles.brute_tail([F(1, 2)] * 4, 0)


def test_distribution_symmetry_and_total():
    rng = np.random.default_rng(4)
    h = random_halfspace(rng, 9)
    dist = h.distribution().support()
    assert int(dist.counts.sum()) == 1 << 9
    assert np.array_equal(dist.values, -dist.values[::-1])
    assert np.array_equal(dist.counts, dist.counts[::-1])


def test_backends_agree():
    rng = np.random.default_rng(11)
    weights = np.sort(rng.integers(1, 50, size=12))[::-1].astype(np.int64)
    dense = distribution_from_scaled(weights, 1, backend="dense")
    mitm = distribution_from_scaled(weights, 1, backend="mitm")
    assert dense.total == mitm.total
    assert dense.min_scaled == mitm.min_scaled
    assert dense.max_scaled == mitm.max_scaled
    for q in range(-40, 41, 3):
        assert dense.count_gt_scaled(q) == mitm.count_gt_scaled(q)
        assert dense.count_gt_scaled(q - 1) == mitm.count_gt_scaled(q - 1)
    sd, sm = dense.support(), mitm.support()
    assert np.array_equal(sd.values, sm.values) and np.array_equal(sd.counts, sm.counts)
    assert ([dense.moment_gt_scaled(q) for q in range(-40, 41, 3)]
            == [mitm.moment_gt_scaled(q) for q in range(-40, 41, 3)])
    base = dense.count_gt_scaled(5)
    assert dense.first_value_tail_le(base, 3) == mitm.first_value_tail_le(base, 3)


@pytest.mark.parametrize("backend", [None, "dense"])
def test_empty_sum_distribution(backend):
    """No summands: the sum is 0 on the one point of the empty cube, which
    has no more points than the DP has cells, so it is a split of two empty
    halves unless the DP is named."""
    dist = distribution_from_scaled(np.zeros(0, dtype=np.int64), 3, backend=backend)
    assert type(dist) is (TailDistribution if backend == "dense" else MeetInMiddleDistribution)
    sup = dist.support()
    assert sup.values.tolist() == [0] and sup.counts.tolist() == [1]
    assert sup.values.dtype == sup.counts.dtype == np.int64
    assert dist.total == 1 and dist.scale == 3
    assert dist.count_gt_scaled(-1) == 1 and dist.count_gt_scaled(0) == 0


def test_mitm_used_above_budget(monkeypatch):
    import cubelab.halfspace as hs

    monkeypatch.setattr(hs, "DENSE_BUDGET", 10)
    h = make_halfspace([F(7), F(5), F(3), F(2)], 1)
    dist = h.distribution()
    assert type(dist).__name__ == "MeetInMiddleDistribution"
    assert h.tail(1) == oracles.brute_tail([7, 5, 3, 2], 1)


def test_budget_error():
    weights = [F(10**9)] * 45
    h = make_halfspace(weights, 0)
    with pytest.raises(BudgetError):
        h.distribution()


# -- influences ----------------------------------------------------------------

def test_influence_examples():
    assert make_halfspace([1], 0).influence(0) == 1
    maj = make_halfspace([1, 1, 1], 0)
    for i in range(3):
        assert maj.influence(i) == F(1, 2)
    skew = make_halfspace([F(4, 5), F(3, 5)], 0)
    assert skew.influence(1) == 0
    assert skew.influence(0) == 1


def test_influences_match_truth_table():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 11))
        h = random_halfspace(rng, n)
        table = h.truth_table()
        prof = influence.influences(table)
        assert h.influences() == list(prof.per_coordinate)
        assert h.mean() == table.mean
        best, arg = h.max_influence()
        assert best == prof.max_value and arg == prof.argmax


def test_boundaries_match_truth_table():
    rng = np.random.default_rng(21)
    for trial in range(10):
        n = int(rng.integers(2, 11))
        h = random_halfspace(rng, n)
        table = h.truth_table()
        veils = influence.boundary_measures(table)
        assert h.vertex_boundary(1) == veils.vb1
        assert h.vertex_boundary(0) == veils.vb0


def test_subcube_boundaries_via_halfspace():
    for k, n in ((3, 5), (2, 6), (4, 7)):
        weights = [F(1)] * k + [F(0)] * (n - k)
        h = make_halfspace(weights, F(2 * k - 1, 2))
        assert h.vertex_boundary(1) == F(1, 2**k)
        assert h.vertex_boundary(0) == F(k, 2**k)


def test_dictator_boundary_tightness():
    h = make_halfspace([1, 0, 0], 0)
    assert h.vertex_boundary(1) == h.influence(0) / 2 == F(1, 2)


# -- dual -----------------------------------------------------------------------

def test_dual_halfspace_matches_dual_table():
    rng = np.random.default_rng(3)
    for trial in range(8):
        n = int(rng.integers(2, 9))
        h = random_halfspace(rng, n)
        assert h.dual().truth_table() == bfcore.dual(h.truth_table())


# -- delta queries -----------------------------------------------------------------

def test_delta_query_trivial_zero():
    h = make_halfspace([1, 1], 0)
    assert h.delta_query(1, 0) == 0


def test_delta_query_half_weights():
    h = make_halfspace([F(1, 2)] * 4, 0)
    assert h.delta_query(F(1, 2), 0) == 1


def test_delta_query_thirds():
    h = make_halfspace([1, 1, 1], 0)
    assert h.delta_query(F(1, 3), 0) == 1


def test_delta_query_requires_mass():
    h = make_halfspace([1, 1], 0)
    with pytest.raises(ValueError):
        h.delta_query(F(1, 2), 10)


def test_delta_query_refuses_a_negative_factor():
    """No shift makes a tail negative; c = 0 asks for an empty tail."""
    h = make_halfspace([3, 2, 1], 1)
    with pytest.raises(ValueError, match="negative"):
        h.delta_query(-1)
    assert h.delta_query(0) == 6 - 1  # past the largest value, 6


def test_decay_thresholds_ordered():
    rng = np.random.default_rng(6)
    for trial in range(8):
        h = random_halfspace(rng, 10)
        t = F(0)
        thr = h.decay_thresholds(t)
        assert 0 <= thr.beta <= thr.gamma
        assert thr.delta == thr.beta + thr.gamma
        assert thr.m == 2 * h.weights[0]
        # definitions hold exactly
        eps = h.tail(t)
        assert h.tail(t + thr.beta) <= eps / 3
        assert h.tail(t + thr.gamma) <= eps / 6


def test_decay_thresholds_are_searched_once_per_threshold_and_level(monkeypatch):
    """A second call at the same (t, k) returns the same object and makes no
    delta query; the default threshold is the halfspace's own, and another
    t or k is searched afresh."""
    h = make_halfspace([5, 3, 3, 2, 1, 1], 1)
    calls = []
    query = h.delta_query
    monkeypatch.setattr(h, "delta_query", lambda *args: calls.append(args) or query(*args))
    for t, k in ((None, None), (F(1), 2), (F(2), 2), (F(1), 3)):
        first = h.decay_thresholds(t, k=k)
        assert calls
        calls.clear()
        assert h.decay_thresholds(t, k=k) is first and calls == []
    assert h.decay_thresholds(F(1)) is h.decay_thresholds() and calls == []


def test_decay_thresholds_geometric_variant():
    h = make_halfspace([1] * 15, 0)
    t = F(9)
    eps = h.tail(t)
    thr = h.decay_thresholds(t, k=2)
    for level in range(1, 8):
        assert h.tail(t + level * thr.gamma) <= eps / F(12**level)
    # minimality on the support grid: a half step less must violate some level
    smaller = thr.gamma - F(1, 2)
    assert any(
        h.tail(t + level * smaller) > eps / F(12**level) for level in range(1, 8)
    )


# -- smoothed influences ----------------------------------------------------------

def test_smoothed_influence_single_weight():
    h = make_halfspace([1], 0)
    assert h.smoothed_influence(0, 2) == F(1, 2)
    assert h.smoothed_influence(0, 1) == 1


def test_coordinate_lookup_by_original_index():
    """Both methods take original indices: outside 0..arity-1 is an IndexError,
    a dropped zero-weight coordinate has influence 0."""
    h = parse_halfspace("ltf:3,0,2,1;1")
    for i in (-1, h.arity, 99):
        with pytest.raises(IndexError):
            h.influence(i)
        with pytest.raises(IndexError):
            h.smoothed_influence(i, 1)
    assert h.influence(1) == 0 and h.smoothed_influence(1, 1) == 0
    assert h.influence(3) == oracles.brute_influence(h.truth_table(), 3)
    assert h.smoothed_influence(3, 1) == oracles.brute_smoothed_influence([3, 0, 2, 1], 1, 3, 1)


def test_smoothed_influence_majority3():
    # for s in (0,1) the halfspace 1{x1+x2+x3 > s} is still majority, whose
    # first influence is 1/2, so the averaged influence is 1/2 as well
    h = make_halfspace([1, 1, 1], 0)
    value = h.smoothed_influence(0, 1)
    assert value == oracles.brute_smoothed_influence([1, 1, 1], 0, 0, 1) == F(1, 2)


def test_smoothed_influence_random_matches_brute():
    rng = np.random.default_rng(14)
    for trial in range(8):
        n = int(rng.integers(2, 8))
        h = random_halfspace(rng, n, wmax=6)
        delta = F(int(rng.integers(1, 8)), int(rng.integers(1, 4)))
        got = h.smoothed_influence(h.order[0], delta)
        want = oracles.brute_smoothed_influence(
            list(h.weights), h.threshold, 0, delta
        )
        assert got == want


def test_smoothed_influence_lower_bound():
    # averaged influence dominates (a_i/delta) * Pr[a.x in [t+a_i, t+delta-a_i]]
    rng = np.random.default_rng(15)
    for trial in range(8):
        h = random_halfspace(rng, 8, wmax=5)
        t = h.threshold
        for j in (0, h.n - 1):
            a = h.weights[j]
            delta = 3 * a
            got = h.smoothed_influence(h.order[j], delta)
            bound = (a / delta) * h.distribution().prob_interval(
                t + a, t + delta - a, include_lo=True, include_hi=True
            )
            assert got >= bound


def test_smoothed_influence_validates():
    h = make_halfspace([1], 0)
    with pytest.raises(ValueError):
        h.smoothed_influence(0, 0)


# -- scale invariance ----------------------------------------------------------------

@given(st.integers(2, 7), st.integers(1, 5), st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_scale_invariance(n, scale, seed):
    rng = np.random.default_rng(seed)
    base = [int(w) for w in rng.integers(1, 9, size=n)]
    t = int(rng.integers(0, sum(base)))
    h1 = make_halfspace([F(w) for w in base], t)
    h2 = make_halfspace([F(w * scale) for w in base], t * scale)
    assert h1.mean() == h2.mean()
    assert h1.influences() == h2.influences()
    assert h1.vertex_boundary(1) == h2.vertex_boundary(1)
    if h1.mean() > 0:
        assert h2.delta_query(F(1, 2)) == scale * h1.delta_query(F(1, 2))


def test_rescaled_copies():
    h = make_halfspace([F(3), F(2)], 1)
    g = make_halfspace([F(15, 2), F(5)], F(5, 2))  # h with everything times 5/2
    assert g.weights == (F(15, 2), F(5))
    assert g.sq_norm() == h.sq_norm() * F(25, 4)
    assert g.mean() == h.mean()
    assert g.influences() == h.influences()
    with pytest.raises(ValueError):
        make_halfspace([0 * w for w in h.weights], 0)  # times 0: no positive weight


# -- one DP per halfspace ------------------------------------------------------------
#
# Dense halfspaces count influences from the full distribution (one weight
# divided out) and both boundaries from one DP sweep; meet-in-the-middle
# halfspaces count both from their two halves.  The per-coordinate reduced
# distributions, the per-suffix distributions and the truth table are the
# slow routes they are checked against.

def per_coordinate_influences(h, t) -> list[F]:
    out = [F(0)] * h.arity
    for j, orig in enumerate(h.order):
        w = h.weights[j]
        out[orig] = F(h.reduced_distribution(j).count_interval(t - w, t + w), 1 << (h.n - 1))
    return out


def per_suffix_boundary(h, lam, t, suffixes=None) -> F:
    """The boundary side lam at t from one distribution per suffix (the
    weights after k), built here unless given."""
    if suffixes is None:
        suffixes = [distribution_from_scaled(h.scaled[k + 1 :], h.scale) for k in range(h.n)]
    count, prefix = 0, F(0)
    for k, w in enumerate(h.weights):
        shift = prefix if lam == 1 else -prefix
        count += suffixes[k].count_interval(t + shift - w, t + shift + w)
        prefix += w
    return F(count, 1 << h.n)


@st.composite
def rational_halfspace_and_thresholds(draw):
    """Weights from a small pool (zeros and repeats are common) and two to
    four thresholds, each a support value (a tie) or just off one."""
    pool = draw(st.lists(st.fractions(0, 6, max_denominator=4), min_size=1, max_size=4))
    n = draw(st.integers(1, 14))
    weights = [draw(st.sampled_from(pool)) for _ in range(n)]
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = F(1)
    scale = make_halfspace(weights, 0).scale
    thresholds = []
    for _ in range(draw(st.integers(2, 4))):
        signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
        t = sum((w * x for w, x in zip(weights, signs)), F(0))
        thresholds.append(t if draw(st.booleans()) else t + F(1, 2 * scale))
    return weights, thresholds


@given(rational_halfspace_and_thresholds())
@settings(max_examples=60, deadline=None)
@example(([F(3)], [F(-3), F(0), F(3)]))  # n = 1: the right half is empty
@example(([F(5, 2), 1, 1, F(3, 4), 0, 2, 1, F(5, 2), 2, 1, F(3, 4), 1, 2], [F(1), F(3, 2)]))
@example(([2, 1, F(1, 3), 2, 2, F(5, 3), 1, F(1, 3), 1, 2, F(5, 3), 1, 2, 1], [F(2), F(13, 6)]))
def test_one_dp_routes_match_slow_routes(case):
    """Both routes against the per-coordinate and per-suffix distributions,
    for odd and even n up to 14 (halves of unequal size), and those against
    the truth table: by brute force up to n = 12, by its scans above."""
    weights, thresholds = case
    h = make_halfspace(weights, thresholds[0])
    slow = make_halfspace(weights, thresholds[0])
    mitm = make_halfspace(weights, thresholds[0])
    mitm.distribution(backend="mitm")  # every statistic from the two halves
    n = len(weights)
    for t in thresholds:
        table = ltf_truth_table(weights, t)
        infl = per_coordinate_influences(slow, t)
        if n <= 12:
            assert infl == [oracles.brute_influence(table, i) for i in range(n)]
        else:
            assert infl == list(influence.influences(table).per_coordinate)
        assert h.influences(t) == mitm.influences(t) == infl
        best = max(infl)
        assert h.max_influence(t) == (best, infl.index(best))
        scanned = influence.boundary_measures(table)
        for lam in (0, 1):
            vb = per_suffix_boundary(slow, lam, t)
            assert vb == (oracles.brute_boundary(table, lam) if n <= 12
                          else (scanned.vb0, scanned.vb1)[lam])
            assert h.vertex_boundary(lam, t) == mitm.vertex_boundary(lam, t) == vb
        assert h.influence_internal(0, t) == mitm.influence_internal(0, t) == infl[h.order[0]]


def test_dense_influence_counts_match_the_halves_and_reduced_sums():
    """TailDistribution.influence_counts of forced-dense members, tied
    weights among them, against the halves' counts of the same weights, the
    per-coordinate reduced distributions and influences(), at every cut from
    -T to T."""
    rng = np.random.default_rng(31)
    members = [[5, 5, 3, 3, 3, 1], [7]] + [rng.integers(1, 12, size=n).tolist() for n in (2, 9, 13)]
    for weights in members:
        h = make_halfspace(weights, 0)
        dense = h.distribution(backend="dense")
        assert isinstance(dense, TailDistribution)
        mitm = distribution_from_scaled(h.scaled, h.scale, "mitm")
        total = int(h.scaled.sum())
        for cut in range(-total, total + 1):
            got = dense.influence_counts(h.scaled, cut)
            assert np.array_equal(got, mitm.influence_counts(h.scaled, cut))
            want = [h.reduced_distribution(j).count_interval(cut - w, cut + w)
                    for j, w in enumerate(h.weights)]
            assert got.tolist() == want
            assert h.influences(cut) == [F(got[h.order.index(i)], 1 << (h.n - 1))
                                         for i in range(h.n)]


@pytest.mark.parametrize("weights", [
    [5] * 26, [9] * 7 + [4] * 19, [3] * 13 + [1] * 12, [6, 6, 2, 2, 2, 1, 1],
    [(1 << 55) + 977 * i for i in range(26)]])
def test_mitm_influence_counts_in_sorted_key_order(weights):
    """A split's influence counts, searched in ascending key order and
    scattered back, against the per-point route, on tied weights and on 26
    weights near 2^55, whose packed keys are shifted right 10 bits and come
    out only nearly sorted; at random cuts and the range's ends."""
    weights = np.array(sorted(weights, reverse=True), dtype=np.int64)
    mitm = distribution_from_scaled(weights, 1, backend="mitm")
    assert isinstance(mitm, MeetInMiddleDistribution)
    total = int(weights.sum())
    rng = np.random.default_rng(47)
    for half in (weights[0::2], weights[1::2]):
        values, points = hs._ascending_points(half)
        assert sorted(points.tolist()) == list(range(1 << len(half)))
        assert np.array_equal(values, kernels.dot_values(half)[points])
    for cut in [-total, total, -1, 0, *rng.integers(-total, total, size=12).tolist()]:
        assert np.array_equal(mitm.influence_counts(weights, cut),
                              oracles.per_point_influence_counts(mitm, weights, cut))


@pytest.mark.parametrize("weights", [
    [5, 5, 3, 3, 3, 1], [7], [4, 2], [9, 6, 6, 4, 3, 2, 1, 1], [F(5, 2), 1, F(3, 4), 2, 2, F(1, 3)],
    [2, 1] * 32, [1] * 63 + [3]])
def test_half_dp_routes_match_slow_routes_at_every_support_value(weights):
    """The influences (the kept suffix counts read at each weight's window
    edges) and both boundaries (the half-width sweep) of forced-dense
    members, at every support value of a.x, against the reduced
    distributions and one distribution per suffix.  The last two members
    have 64 summands, so their counts, and those of their 63-summand
    reduced distributions, are Python ints."""
    h = make_halfspace(weights, 0)
    dense = h.distribution(backend="dense")
    assert dense.support().counts.dtype == (object if h.n > 62 else np.int64)
    slow = make_halfspace(weights, 0)
    suffixes = [distribution_from_scaled(slow.scaled[k + 1 :], slow.scale) for k in range(slow.n)]
    for v in dense.support().values.tolist():
        t = F(v, h.scale)
        assert h.influences(t) == per_coordinate_influences(slow, t)
        for lam in (0, 1):
            assert h.vertex_boundary(lam, t) == per_suffix_boundary(slow, lam, t, suffixes)


@pytest.mark.parametrize("weights", [[4, 3, 3, 1], [5, 2, 2], [1] * 9, [7, 0, 2]])
def test_window_sum_reads_the_upper_half_from_the_mirror(weights):
    """The window sum of a prefix's lower half, for every window lo..hi from
    below 0 to past the prefix's sum (below, across and above the middle),
    against the full-width counts of that prefix; odd and even sums."""
    halves = kernels.subset_sum_prefixes(np.array(weights, dtype=np.int64))
    for k, (half, full) in enumerate(zip(halves, oracles.full_width_sum_prefixes(weights))):
        prefix = sum(weights[:k])
        for lo in range(-3, prefix + 4):
            for hi in range(-3, prefix + 4):
                expect = int(full[max(lo, 0) : max(hi + 1, 0)].sum())
                assert hs._window_sum(half, prefix, lo, hi) == expect, (k, lo, hi)


def _dense_member():
    """48 weights summing to T = 286,501, in the dense backend's range."""
    weights = np.random.default_rng(1).integers(1, 12_500, size=48).tolist()
    h = make_halfspace(weights, sum(weights) // 5)
    assert h._total == 286_501 and hs._dense(h.n, h._total, None)
    return h


def _traced_peak(fn):
    """Peak bytes that numpy and Python allocate while fn() runs."""
    return _traced(fn)[1]


def _traced(fn):
    """The bytes still held once fn() returns, its result kept, and the peak
    bytes that numpy and Python allocate while it runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held, peak


def test_dense_build_holds_one_suffix_array():
    """The dense build of T = 286,501 keeps one array of T + 2 int64 cells,
    the suffix counts (2.89 arrays of T + 1 cells when it kept the support
    values, their counts and the suffix beside them), and peaks below 2.2
    arrays: the mirrored counts and their suffix, the counts freed once the
    suffix exists (2.93 with the three support arrays, 5.8 with the
    full-width DP and its temporaries)."""
    h = _dense_member()
    cells = 8 * (h._total + 1)
    held, peak = _traced(lambda: distribution_from_scaled(h.scaled, h.scale))
    assert held < 1.05 * cells and peak < 2.2 * cells
    assert type(h.distribution()).__name__ == "TailDistribution"


def test_dense_influences_allocate_no_count_array():
    """The influences of a built dense distribution read its suffix counts
    at the window edges: below a tenth of an array of T + 1 int64 cells
    (1.9 arrays with a scattered cumulative array)."""
    h = _dense_member()
    h.distribution()
    assert _traced_peak(h.influences) < 0.1 * 8 * (h._total + 1)


def test_a_unit_weight_window_reads_a_strided_view():
    """47 weights up to 12,500 and one weight 1 (T = 274,243): the unit
    weight's window has about 0.4 T edges, read as one strided view of the
    suffix counts, so the influences peak at its differences alone, below
    half an array of T + 1 int64 cells (1.20 arrays when each edge was a
    searched key)."""
    weights = np.random.default_rng(1).integers(1, 12_500, size=47).tolist() + [1]
    h = make_halfspace(weights, sum(weights) // 5)
    assert h._total == 274_243
    h.distribution()
    assert _traced_peak(h.influences) < 0.5 * 8 * (h._total + 1)
    assert h.influences() == per_coordinate_influences(make_halfspace(weights, h.threshold),
                                                       h.threshold)


def test_boundary_sweep_holds_two_half_buffers():
    """The boundary sweep holds the two half-width DP buffers, about one
    array of T + 1 int64 cells (1.9 with full-width buffers)."""
    h = _dense_member()
    assert _traced_peak(lambda: h.vertex_boundary(0)) < 1.1 * 8 * (h._total + 1)


def test_halves_route_builds_no_other_distribution(monkeypatch):
    """On a meet-in-the-middle halfspace, once the full distribution exists,
    every influence and both boundaries come from the halves: no half is
    enumerated again and no reduced or suffix distribution is built."""
    weights = [F(9), F(7, 2), 7, 6, 6, 5, F(9, 2), 3, 2, 2, 1]
    slow = make_halfspace(weights, F(5, 2))
    thresholds = (slow.threshold, F(0), F(-6), F(31, 2))
    want = [(per_coordinate_influences(slow, t), per_suffix_boundary(slow, 0, t),
             per_suffix_boundary(slow, 1, t)) for t in thresholds]
    h = make_halfspace(weights, F(5, 2))
    h.distribution(backend="mitm")

    def refused(*args, **kwargs):
        raise AssertionError("a distribution or half was built")

    monkeypatch.setattr(hs, "_enumerated", refused)
    monkeypatch.setattr(hs, "distribution_from_scaled", refused)
    monkeypatch.setattr(Halfspace, "reduced_distribution", refused)
    for t, expect in zip(thresholds, want):
        assert (h.influences(t), h.vertex_boundary(0, t), h.vertex_boundary(1, t)) == expect


@pytest.mark.parametrize("weight", [F(1), F(7, 3)])
def test_counts_at_62_summands_fill_int64(weight):
    """n = 62 equal weights: the full count array reaches 2^62 and every
    influence and boundary equals its binomial count."""
    n = 62
    for t_units in (0, 1, F(1, 2), -61, 59, 60, 62):
        h = make_halfspace([weight] * n, t_units * weight)
        assert int(h.distribution().support().counts.sum()) == 1 << 62
        assert h.influences() == [oracles.equal_weight_influence(n, t_units)] * n
        for lam in (0, 1):
            assert h.vertex_boundary(lam) == oracles.equal_weight_boundary(n, t_units, lam)


@pytest.mark.parametrize("n", [63, 64])
@pytest.mark.parametrize("weight", [F(1), F(7, 3)])
def test_counts_past_62_summands_are_python_ints(weight, n):
    """Past 62 equal weights the counts leave int64 and the DP keeps them
    as Python ints: the total is 2^n, and the tails, the influences and
    both boundaries equal their binomial counts."""
    for t_units in (0, 1, F(1, 2), -(n - 1), n - 3, n - 2, n):
        h = make_halfspace([weight] * n, t_units * weight)
        counts = h.distribution().support().counts
        assert counts.dtype == object and sum(counts.tolist()) == 1 << n
        assert h.mean() == oracles.ones_interval_mass(n, t_units, n)
        assert h.influences() == [oracles.equal_weight_influence(n, t_units)] * n
        for lam in (0, 1):
            assert h.vertex_boundary(lam) == oracles.equal_weight_boundary(n, t_units, lam)


def test_summand_limit_refused_before_any_dp(monkeypatch):
    """Past MAX_SUMMANDS = 1022 summands, and past the dense budget priced
    in cell updates (100 weights of 10^4: 100 * (10^6 + 1) cells), the
    distribution and the influences are refused.  The boundaries count
    suffixes of n - 1 summands, so n = 1023 has them and n = 1024 does not,
    nor do 42 weights whose suffix 0 (41 > MITM_MAX_N summands) passes the
    budget.  No refusal starts a DP or enumerates a half."""
    assert hs.MAX_SUMMANDS == 1022
    h1023 = make_halfspace([1] * 1023, 1)
    for lam in (0, 1):
        assert h1023.vertex_boundary(lam) == oracles.equal_weight_boundary(1023, 1, lam)

    def no_dp(*args):
        raise AssertionError("a DP started")

    for name in ("signed_sum_counts", "subset_sum_prefixes", "dot_values"):
        monkeypatch.setattr(kernels, name, no_dp)
    for weights in ([1] * 1023, [10**4] * 100):
        with pytest.raises(BudgetError):
            make_halfspace(weights, 1).tail()
        with pytest.raises(BudgetError):
            make_halfspace(weights, 0).influences()
        with pytest.raises(BudgetError):
            distribution_from_scaled(np.array(weights, dtype=np.int64), 1)
    for weights in ([1] * 1024, [10**4] * 100, [10**6] * 42):
        with pytest.raises(BudgetError):
            make_halfspace(weights, 0).vertex_boundary(0)


@pytest.mark.parametrize("t, t_small", [(0, 0), (10**8 - 5, 37)])
def test_boundary_past_budget_with_dense_suffixes(t, t_small):
    """42 weights past the dense budget, with every suffix (41 summands, too
    many for the halves) under it: the boundaries come from the sweep of the
    weights after the first.  Weight 42 dominates the other 41 as 10^8
    does, so 1{42 x_0 + s > t_small} is the same function."""
    big = make_halfspace([10**8] + [1] * 41, t)
    with pytest.raises(BudgetError):
        big.distribution()
    small = make_halfspace([42] + [1] * 41, t_small)
    for lam in (0, 1):
        assert big.vertex_boundary(lam) == small.vertex_boundary(lam)


def test_small_cube_enumerated_not_dp(monkeypatch):
    """Below the budget, a sum with 2^n <= T + 1 is a split, its halves
    enumerated point by point, and its support equals the DP's; one cell
    fewer, and the DP runs.  An explicit dense backend always runs the DP."""
    cases = ([1, 2], [3, 5, 9, 17], [40, 1, 1, 7, 20])  # 2^n <= T + 1, the first with equality
    dense = {tuple(w): distribution_from_scaled(np.array(w), 1, backend="dense") for w in cases}

    def no_dp(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(kernels, "signed_sum_counts", no_dp)
    for w in cases:
        got = distribution_from_scaled(np.array(w), 1)
        assert type(got) is MeetInMiddleDistribution
        sup, want = got.support(), dense[tuple(w)].support()
        assert np.array_equal(sup.values, want.values)
        assert np.array_equal(sup.counts, want.counts)
        h = make_halfspace(w, 1)
        assert h.influences() == list(influence.influences(h.truth_table()).per_coordinate)
    with pytest.raises(AssertionError, match="the DP ran"):
        distribution_from_scaled(np.array([1, 1]), 1)  # 2^2 > 2 + 1
    with pytest.raises(AssertionError, match="the DP ran"):
        distribution_from_scaled(np.array([3, 5, 9, 17]), 1, backend="dense")


@pytest.mark.parametrize("weights", [[5_000_000, 1], [5_000_000, 3_000_000, 1],
                                     [2_000_000] * 4 + [1] * 2])
def test_small_cubes_count_from_their_points(weights):
    """Cubes of 4-64 points under weight sums in the millions are splits:
    at thresholds across the range, the influences and both vertex
    boundaries equal the truth table's, and each statistic peaks below 1
    MiB under tracemalloc (on the DP's T + 1 cells they peaked at 23-69 MB).
    A coordinate's reduced sum shares the other half."""
    total = sum(weights)
    for t in (-total // 2, 0, total // 3, total - 1):
        h = make_halfspace(weights, t)
        assert isinstance(h.distribution(), MeetInMiddleDistribution)
        table = h.truth_table()
        bounds = influence.boundary_measures(table)
        want = (list(influence.influences(table).per_coordinate), bounds.vb0, bounds.vb1)
        stats = (h.influences, lambda: h.vertex_boundary(0), lambda: h.vertex_boundary(1))
        for stat, expect in zip(stats, want):
            assert _traced_peak(stat) < 1 << 20, t
            assert stat() == expect, t  # the memo's entry
    h = make_halfspace(weights, 0)
    assert h.reduced_distribution(0).right is h.distribution().right


def test_influences_counted_once_per_threshold(monkeypatch):
    """analyze asks for the influences three times; they are counted once per
    threshold, and a caller that edits the returned list changes nothing."""
    calls = []
    window = TailDistribution.leave_one_out_window

    def counted(dist, w, b):
        calls.append((w, b))
        return window(dist, w, b)

    monkeypatch.setattr(TailDistribution, "leave_one_out_window", counted)
    h = make_halfspace([5, 3, 3, 1], 2)
    first = h.influences()
    expect = list(first)
    h.max_influence()
    sum(h.influences(), F(0))
    assert len(calls) == 3  # one per distinct weight
    first[0] = F(99)
    assert h.influences() == expect
    assert h.influences(4) == per_coordinate_influences(make_halfspace([5, 3, 3, 1], 2), 4)
    assert len(calls) == 6 and h.influences(4) != expect


# -- meet-in-the-middle queries -------------------------------------------------------
#
# Blocked counts against a one-value-at-a-time count at every value, the
# whole support against the pair-by-pair dict route, and reduced
# distributions that share the full distribution's other half against
# distributions built from the reduced weights.

def assert_same_distribution(a, b):
    """Equal totals, ranges, tail counts and first-moment tails at every
    value, and supports."""
    assert (a.total, a.min_scaled, a.max_scaled) == (b.total, b.min_scaled, b.max_scaled)
    v = np.arange(a.min_scaled - 2, a.max_scaled + 3)
    assert np.array_equal(a.counts_gt_scaled(v), b.counts_gt_scaled(v))
    assert np.array_equal(a.counts_ge_scaled(v), b.counts_ge_scaled(v))
    assert ([a.moment_gt_scaled(x) for x in v.tolist()]
            == [b.moment_gt_scaled(x) for x in v.tolist()])
    assert np.array_equal(a.support().values, b.support().values)
    assert np.array_equal(a.support().counts, b.support().counts)


@pytest.mark.parametrize("keys", [1, 5, 1 << 20])
def test_mitm_vector_counts_match_scalar_counts(monkeypatch, keys):
    """At every value from below min_scaled to above max_scaled, in blocks of
    one row, of part of a row and of every row at once, against one search
    and one dot product per value."""
    monkeypatch.setattr(hs, "_QUERY_KEYS", keys)
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 8):
        weights = np.sort(rng.integers(1, 12, size=n))[::-1].astype(np.int64)
        mitm = distribution_from_scaled(weights, 1, backend="mitm")
        dense = distribution_from_scaled(weights, 1, backend="dense")
        v = np.arange(mitm.min_scaled - 3, mitm.max_scaled + 4)
        gt = mitm.counts_gt_scaled(v)
        ge = mitm.counts_ge_scaled(v)
        assert gt.tolist() == [oracles.mitm_count_ge(mitm, int(x) + 1) for x in v]
        assert ge.tolist() == [oracles.mitm_count_ge(mitm, int(x)) for x in v]
        assert np.array_equal(gt, dense.counts_gt_scaled(v))
        assert np.array_equal(ge, dense.counts_ge_scaled(v))
        assert gt[0] == ge[0] == 1 << n and gt[-1] == ge[-1] == 0
        grid = v[: len(v) // 2 * 2].reshape(2, -1)
        assert np.array_equal(mitm.counts_gt_scaled(grid), gt[: grid.size].reshape(grid.shape))


@pytest.mark.parametrize("backend", ["dense", "mitm"])
def test_tail_queries_match_a_scan(backend):
    """For n = 1..9 with ties and rational weights, at every integer from
    min_scaled - 2 to max_scaled + 2: the tail counts at a Python int, a 0-d
    and a 2-D array against enumerated sums, and the one delta search
    against the least scanned value (at least min_scaled) within the limit,
    with den 1, 3 and 6: at limits below 0 (max_scaled, none being within
    them), at 0, at every tail count times den and one either side, and at
    total * den and above."""
    rng = np.random.default_rng(41)
    for n in range(1, 10):
        weights = [F(int(a), int(b)) for a, b in zip(rng.integers(1, 5, size=n),
                                                     rng.choice([1, 2, 3], size=n))]
        h = make_halfspace(weights, 0)
        dist = distribution_from_scaled(h.scaled, h.scale, backend=backend)
        sums = {int(v * h.scale): c for v, c in oracles.brute_sum_counts(weights).items()}
        assert (dist.min_scaled, dist.max_scaled) == (min(sums), max(sums))
        scan = range(dist.min_scaled - 2, dist.max_scaled + 3)
        tail = {v: sum(c for s, c in sums.items() if s > v)
                for v in range(scan[0] - 1, scan[-1] + 1)}
        v = np.array(scan, dtype=np.int64)
        grid = np.stack([v, v[::-1]])
        gt, ge = dist.counts_gt_scaled(grid), dist.counts_ge_scaled(grid)
        assert gt.shape == ge.shape == grid.shape
        for i, x in enumerate(scan):
            assert np.shape(dist.counts_ge_scaled(np.array(x))) == ()
            for count, grid_counts, want in ((dist.count_gt_scaled, gt, tail[x]),
                                             (lambda v: dist.count_gt_scaled(v - 1), ge,
                                              tail[x - 1])):
                assert count(x) == count(np.array(x)) == want
                assert type(count(x)) is int
                assert grid_counts[0, i] == grid_counts[1, -1 - i] == want
        base = tail[0]
        for den in (1, 3, 6):
            ties = {tail[x] * den + d for x in sums for d in (-1, 0, 1)}
            for num in {-1, 0, 1, base - 1, base, dist.total * den, dist.total * den + 7} | ties:
                first = next((x for x in scan if tail[x] * den <= num), dist.max_scaled)
                got = dist.first_value_tail_le(num, den)
                assert got == max(first, dist.min_scaled) and got in sums


def test_mitm_support_matches_pairwise_and_dense():
    """A split's whole support equals the pair-by-pair dict route's and the
    DP's cells; the former window query, kept as an oracle, equals the dict
    route on both forms at random windows."""
    rng = np.random.default_rng(32)
    for n in (1, 2, 6, 9):
        weights = np.sort(rng.integers(1, 9, size=n))[::-1].astype(np.int64)
        mitm = distribution_from_scaled(weights, 1, backend="mitm")
        dense = distribution_from_scaled(weights, 1, backend="dense")
        k = n // 2
        halves = [distribution_from_scaled(part, 1, backend="dense")
                  for part in (weights[:k], weights[k:])]
        left, right = ((d.values, d.counts) for d in (half.support() for half in halves))
        got, cells = mitm.support(), dense.support()
        assert got.values.dtype == got.counts.dtype == np.int64
        want = oracles.pairwise_support_window(left, right, mitm.min_scaled, mitm.max_scaled)
        for x, y, z in zip((got.values, got.counts), want, (cells.values, cells.counts)):
            assert np.array_equal(x, y) and np.array_equal(x, z)
        edges = sorted(set(rng.integers(mitm.min_scaled - 3, mitm.max_scaled + 4, size=5).tolist()))
        for lo in edges:
            for hi in edges:
                for x, y, z in zip(oracles.support_window(mitm, lo, hi),
                                   oracles.pairwise_support_window(left, right, lo, hi),
                                   oracles.support_window(dense, lo, hi)):
                    assert np.array_equal(x, y) and np.array_equal(x, z)


def test_mitm_support_guard_boundary(monkeypatch):
    """Powers of two make every pair sum distinct: the sums are the odd
    numbers -15..15, and the whole support assembles one pair per value, 16
    in all, refused with the guard one below."""
    mitm = distribution_from_scaled(np.array([8, 4, 2, 1]), 1, backend="mitm")
    monkeypatch.setattr(hs, "_WINDOW_GUARD", 16)
    sup = mitm.support()
    assert sup.values.tolist() == list(range(-15, 16, 2)) and sup.counts.tolist() == [1] * 16
    monkeypatch.setattr(hs, "_WINDOW_GUARD", 15)
    with pytest.raises(BudgetError, match="support too wide"):
        mitm.support()


@pytest.mark.parametrize("weights", [
    [5], [5, 3], [9, 7, 4, 4, 1], [8, 8, 8, 3, 3, 1], [2] * 7, [F(7, 2), 3, F(5, 2), 1, 1],
])
def test_reduced_distributions_share_the_other_half(weights):
    """Deleting weight j re-enumerates only j's half (j even: the left, j
    odd: the right) and shares the other; the result equals the
    distributions built from the reduced weights on either backend."""
    h = make_halfspace(weights, 0)
    full = h.distribution(backend="mitm")
    for j in range(h.n):
        red = h.reduced_distribution(j)
        assert isinstance(red, MeetInMiddleDistribution) and red.n_summands == h.n - 1
        kept, renewed = ("right", "left") if j % 2 == 0 else ("left", "right")
        assert getattr(red, kept) is getattr(full, kept)
        assert getattr(red, renewed) is not getattr(full, renewed)
        rest = np.delete(h.scaled, j)
        for backend in ("mitm", "dense"):
            assert_same_distribution(red, distribution_from_scaled(rest, h.scale, backend=backend))


@pytest.mark.parametrize("weights", [[3, 2, 2, 1], [9, 5, 3], [4, 4, 2, 2, 1, 1]])
def test_gt_counts_clamp_their_keys(weights):
    """Keys above are clamped into the support's range before the + 1, and
    a split clamps its keys before it subtracts its left values, so none
    wraps in int64: on the DP's cells, the split and its halves' sorted
    form (here of every point), the outcomes above each key, as an array
    and one by one, and those at or above it, at the int64 extremes, at
    -+(T + 1) and at every support value and one either side, equal the
    points' own counts and count_gt at that key; Python ints past int64
    count as the extremes do."""
    w = np.array(weights, dtype=np.int64)
    total = int(w.sum())
    points = kernels.dot_values(w)
    keys = sorted({-(1 << 63), (1 << 63) - 1, -total - 1, total + 1}
                  | {int(v) + d for v in np.unique(points) for d in (-1, 0, 1)})
    want = [int(np.count_nonzero(points > k)) for k in keys]
    forms = (distribution_from_scaled(w, 1, "dense"), hs._enumerated(w, 1),
             distribution_from_scaled(w, 1, "mitm"))
    assert [type(d) for d in forms] == [TailDistribution, SupportDistribution,
                                        MeetInMiddleDistribution]
    ge = [int(np.count_nonzero(points >= k)) for k in keys]
    for dist in forms:
        assert dist.counts_gt_scaled(np.array(keys, dtype=np.int64)).tolist() == want
        assert [dist.count_gt_scaled(k) for k in keys] == want
        assert [dist.count_gt(k) for k in keys] == want
        assert dist.counts_ge_scaled(np.array(keys, dtype=np.int64)).tolist() == ge
        assert [int(dist.counts_ge_scaled(k)) for k in (-(1 << 70), 1 << 70)] == [len(points), 0]
    dense, _, split = forms
    extremes = np.array([(1 << 63) - 1, -(1 << 63)])
    if weights == [3, 2, 2, 1]:  # the dense form read [16, 16] and the split [8, 12]
        assert dense.counts_gt_scaled(extremes).tolist() == [0, 16]
        assert split.counts_gt_scaled(extremes).tolist() == [0, 16]


@pytest.mark.parametrize("weights", [[3, 2, 2, 1], [9, 5, 3], [1], [2] * 61 + [4, 6]])
def test_dense_array_keys_clamp_as_scalar_keys(weights):
    """The DP's array route clamps its keys to -+(T + 1) with ``np.maximum``
    and ``np.minimum`` and reads the cells the scalar route reads: at -+(T +
    1) and one past them, at the int64 extremes and at every support value
    and one either side, as a flat, a 2-D and an int32 array (the last
    member's counts are Python ints)."""
    dense = distribution_from_scaled(np.array(weights, dtype=np.int64), 1, "dense")
    top = dense.max_scaled
    values = dense.support().values
    keys = sorted({-(1 << 63), (1 << 63) - 1, -top - 2, -top - 1, top + 1, top + 2}
                  | {int(v) + d for v in values for d in (-1, 0, 1)})
    want = [dense.counts_ge_scaled(k) for k in keys]
    array = np.array(keys, dtype=np.int64)
    assert dense.counts_ge_scaled(array).tolist() == want
    assert dense.counts_ge_scaled(array.reshape(-1, 1)).ravel().tolist() == want
    small = [k for k in keys if abs(k) < 1 << 31]
    assert (dense.counts_ge_scaled(np.array(small, dtype=np.int32)).tolist()
            == [dense.counts_ge_scaled(k) for k in small])
    assert array.tolist() == keys  # the keys are not clamped in place


@pytest.mark.parametrize("weights", [
    [6, 4, 4, 2, 2, 8], [9, 3, 3, 6, 12, 3], [5, 5, 3, 3, 3, 1, 0, 0], [7, 0, 2, 2, 9, 1, 1, 4],
    [1], [2] * 61 + [4, 6], [3] * 63 + [6]])
def test_dense_cells_match_the_sorted_route_and_the_full_width_dp(weights):
    """The DP's distribution, one suffix array over every cell read by
    index, against the full-width DP's cells (summed in Python ints) and
    the sorted routes: the sorted distribution of those cells and, up to 16
    summands, the split.  Ties, zeros and common factors of 2 and 3 leave
    zero cells between support values; the last two members have 63 and 64
    summands (Python-int counts).  Tail counts at every cell, one either
    side, past both ends and at the int64 extremes; the delta search at
    every cap from -1 to 2^n (at every tail count and one either side past
    12 summands); first-moment tails at every key on every route; and on
    the DP and the split, the whole support and, with no zero weight, the
    influence counts at every support value."""
    w = np.array(weights, dtype=np.int64)
    n, total = len(w), int(w.sum())
    *_, full = oracles.full_width_sum_prefixes(w)
    full = full.tolist()
    held = [s for s, c in enumerate(full) if c]
    dtype = object if n > 62 else np.int64
    cells = SupportDistribution(np.array([2 * s - total for s in held]),
                                np.array([full[s] for s in held], dtype=dtype), 1, n)
    dense = distribution_from_scaled(w, 1, "dense")
    assert type(dense) is TailDistribution
    assert (dense.min_scaled, dense.max_scaled, dense.total) == (-total, total, 1 << n)
    whole = [dense] + ([distribution_from_scaled(w, 1, "mitm")] if n <= 16 else [])
    routes = whole + [cells]

    def ge(v):
        return sum(c for s, c in enumerate(full) if 2 * s - total >= v)

    keys = sorted({v + d for v in range(-total, total + 1, 2) for d in (-1, 0, 1)}
                  | {-total - 5, -total - 2, total + 2, total + 7, -(1 << 63), (1 << 63) - 1})
    want = [ge(v) for v in keys]
    assert [int(dense.counts_ge_scaled(v)) for v in keys] == want
    for dist in routes:
        assert dist.counts_ge_scaled(np.array(keys, dtype=np.int64)).tolist() == want

    gt = [ge(v + 1) for v in range(-total, total + 1)]  # non-increasing, down to 0
    caps = (range(-1, (1 << n) + 1) if n <= 12
            else sorted({c + d for c in gt for d in (-1, 0, 1)} | {(1 << n) + 1}))
    for cap in caps:
        first = next((-total + i for i, c in enumerate(gt) if c <= cap), total)
        for dist in routes:
            assert dist.first_value_tail_le(cap, 1) == first, cap
        assert dense.first_value_tail_le(3 * cap + 2, 3) == first

    expect = [(2 * s - total, full[s]) for s in held]
    for dist in whole:
        sup = dist.support()
        assert sup.values.dtype == np.int64
        assert list(zip(sup.values.tolist(), sup.counts.tolist())) == expect
    for v in keys:
        want = sum((2 * s - total) * full[s] for s in held if 2 * s - total > v)
        assert [dist.moment_gt_scaled(v) for dist in routes] == [want] * len(routes), v

    if 0 in weights:
        return  # a halfspace drops its zero weights: no window divides one out
    rest = {}  # the full-width cells of the other weights, per distinct weight
    for wj in set(weights):
        others = list(weights)
        others.remove(wj)
        *_, rest[wj] = oracles.full_width_sum_prefixes(np.array(others, dtype=np.int64))
        rest[wj] = rest[wj].tolist()
    for s in held:
        b = s  # the cut 2s - T: the other weights sum to b - w + 1..b
        expect = [sum(rest[wj][max(b - wj + 1, 0) : b + 1]) for wj in weights]
        for dist in whole:
            got = dist.influence_counts(w, 2 * s - total)
            assert got.dtype == dtype and got.tolist() == expect, s


def test_split_halves_are_the_dense_distributions_of_every_other_weight():
    """Random weights with ties and zeros: each half of a split is a
    ``SupportDistribution`` with the values and counts of the dense DP over
    every other weight, and deleting a weight renews its half and returns
    the other half itself."""
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(1, 15))
        weights = np.sort(rng.integers(0, 6, size=n))[::-1].astype(np.int64)
        scale = int(rng.integers(1, 4))
        mitm = MeetInMiddleDistribution.from_weights(weights, scale)
        for side, half in enumerate((mitm.left, mitm.right)):
            dense = distribution_from_scaled(weights[side::2], scale, "dense").support()
            assert isinstance(half, SupportDistribution)
            assert (half.scale, half.n_summands) == (scale, len(weights[side::2]))
            assert np.array_equal(half.values, dense.values)
            assert np.array_equal(half.counts, dense.counts)
        for j in range(n):
            red = mitm.without(weights, j)
            assert red.n_summands == n - 1
            kept, renewed = ("right", "left") if j % 2 == 0 else ("left", "right")
            assert getattr(red, kept) is getattr(mitm, kept)
            rest = np.delete(weights[j % 2::2], j // 2)  # j's half without j
            assert np.array_equal(getattr(red, renewed).counts,
                                  distribution_from_scaled(rest, scale, "dense").support().counts)


def test_reduced_distributions_keep_their_backend_above_the_budget(monkeypatch):
    """Above the budget only a reduced sum that is itself a split shares a
    half; one that drops under the budget, with more points than cells,
    is the DP's cells, as it was built before."""
    monkeypatch.setattr(hs, "DENSE_BUDGET", 10)
    h = make_halfspace([7, 3, 2, 1, 1], 1)
    assert isinstance(h.distribution(), MeetInMiddleDistribution)
    # 3 + 2 + 1 + 1 <= 10, and 2^4 > 7 + 1 points
    assert isinstance(h.reduced_distribution(0), TailDistribution)
    shared = h.reduced_distribution(3)  # 7 + 3 + 2 + 1 > 10
    assert isinstance(shared, MeetInMiddleDistribution)
    assert shared.left is h.distribution().left
    assert_same_distribution(shared, distribution_from_scaled(np.array([7, 3, 2, 1]), 1, "dense"))
    assert h.influences() == list(influence.influences(h.truth_table()).per_coordinate)


def test_smoothed_influence_from_shared_halves_matches_brute():
    rng = np.random.default_rng(33)
    for trial in range(8):
        n = int(rng.integers(2, 8))
        base = random_halfspace(rng, n, wmax=6)
        h = make_halfspace(base.original_weights, base.threshold + F(int(rng.integers(0, 3)), 3))
        h.distribution(backend="mitm")
        delta = F(int(rng.integers(1, 8)), int(rng.integers(1, 4)))
        for j in {0, n // 2, n - 1}:
            want = oracles.brute_smoothed_influence(list(h.weights), h.threshold, j, delta)
            assert h.smoothed_influence(h.order[j], delta) == want


# -- first-moment tails ------------------------------------------------------------
#
# The sum of a.x over the outcomes above a value on each form, against
# Python-int suffix sums over the points; the smoothed influence by four of
# them against the former window route; and the split's boundary counts by
# one tail count per suffix against the former two-window route.

def _moments_above(tally: dict, keys) -> list[int]:
    """The sum of value * count over the values above each key, in Python
    ints: suffix sums over the values ascending, read by ``bisect``."""
    values = sorted(tally)
    suffix = list(itertools.accumulate(v * tally[v] for v in reversed(values)))[::-1] + [0]
    return [suffix[bisect.bisect_right(values, k)] for k in keys]


def _moment_members():
    """(name, weights, sampled values) with ties, past 62 summands, at n = 48
    and 60, where one int64 sum of the DP's suffix counts would wrap, and a
    split of 24-bit weights; the n = 48 member is read at 60 values."""
    rng = np.random.default_rng(53)
    return [("ties", [6, 4, 4, 2, 2, 8, 1], None), ("one", [5], None),
            ("past-62", [int(x) for x in rng.integers(1, 4, size=70)], None),
            ("wrap-60", [int(x) for x in rng.integers(1, 10, size=60)], None),
            ("wrap-48", [int(x) for x in rng.integers(4000, 6000, size=48)], 60),
            ("split-24", [int(x) for x in rng.integers(1 << 23, 1 << 24, size=11)], None)]


@pytest.mark.parametrize("name, weights, sample", _moment_members())
def test_moment_tails_match_python_int_sums(name, weights, sample):
    """moment_gt_scaled on every form of the member (the DP's cells or the
    split, the forced split up to 16 coordinates, the whole support and a
    half of the split) equals the Python-int sum over the points above each
    key, or past 24 coordinates over the support's values and counts: at
    every support value and one either side (or a sample of them), at -+(T
    + 1), at +-10^25 and at the int64 extremes.  The whole support, whose
    each call sums its moments afresh, reads the keys within 2^62 as one
    int64 array and the others one at a time."""
    w = np.array(weights, dtype=np.int64)
    total = int(w.sum())
    dist = distribution_from_scaled(w, 1)
    split = name in ("one", "split-24")  # [5]: 2 points, no more than T + 1 = 6 cells
    assert type(dist) is (MeetInMiddleDistribution if split else TailDistribution)
    if name.startswith("wrap"):  # the suffix counts sum past 2^63, in int64
        assert int(dist._suffix.sum(dtype=object)) >= 1 << 63 and dist._suffix.dtype == np.int64
    sup = dist.support()
    forms = [dist] + ([distribution_from_scaled(w, 1, "mitm")] if len(w) <= 16 else [])
    values = sup.values.tolist()
    if sample:
        values = np.random.default_rng(sample).choice(values, size=sample).tolist()
    keys = sorted({v + d for v in values for d in (-1, 0, 1)}
                  | {-(10**25), 10**25, -(1 << 63), (1 << 63) - 1, -total - 1, total + 1})
    if len(w) <= 24:
        tally = Counter(kernels.dot_values(w).tolist())
    else:
        tally = dict(zip(sup.values.tolist(), sup.counts.tolist()))
        assert sum(tally.values()) == 1 << len(w)
    want = _moments_above(tally, keys)
    for form in forms:
        got = [form.moment_gt_scaled(k) for k in keys]
        assert all(type(g) is int for g in got) and got == want, type(form).__name__
    inside = [(k, m) for k, m in zip(keys, want) if abs(k) < 1 << 62]
    got = sup.moment_gt_scaled(np.array([k for k, _ in inside], dtype=np.int64))
    assert got.tolist() == [m for _, m in inside]
    outside = [(k, m) for k, m in zip(keys, want) if abs(k) >= 1 << 62]
    assert [sup.moment_gt_scaled(k) for k, _ in outside] == [m for _, m in outside]
    if name == "split-24":
        tally = Counter(kernels.dot_values(w[0::2]).tolist())
        assert [dist.left.moment_gt_scaled(k) for k in keys] == _moments_above(tally, keys)


@pytest.mark.parametrize("corpus", ["standard", "tail"])
def test_smoothed_influence_matches_the_window_route(corpus):
    """Four first-moment tails equal the former window route on every
    (member, coordinate) pair of the corpus with a nonempty tail, each at
    its member's delta, as LEM52 reads it, at the threshold and one scaled
    unit above it: a.x keeps one parity, so one of the two puts the tails'
    keys on support values."""
    entries = (harness.standard_corpus() if corpus == "standard"
               else harness.load_corpus(corpus)).entries
    pairs = 0
    for entry in entries:
        h = MemberContext(corpus, entry).halfspace
        if h is None or h.mean() == 0 or h.decay_thresholds().delta <= 0:
            continue
        delta = h.decay_thresholds().delta
        for t in (h.threshold, h.threshold + F(1, h.scale)):
            for i in h.order:
                want = oracles.window_smoothed_influence(h, i, delta, t)
                assert h.smoothed_influence(i, delta, t) == want
                pairs += 1
    assert pairs >= 1200


def test_smoothed_influence_on_a_ci_split_reads_no_window():
    """The 26-coordinate member of the CI meet-in-the-middle corpus, at
    LEM52's three coordinates: the four tails equal the window route, which
    assembles up to 5 * 10^6 pairs in object arrays, hundreds of MB, and
    each peaks under 2 MiB under tracemalloc, its reduced sum built first."""
    corpus = harness.corpus_gen(
        "random-halfspace", {"count": 3, "n_lo": 26, "n_hi": 30, "weight_bits": 24}, seed=5)
    h = parse_halfspace(corpus.entries[1])
    assert h.n == 26 and isinstance(h.distribution(), MeetInMiddleDistribution)
    delta = h.decay_thresholds().delta
    for j in (0, h.n // 2, h.n - 1):
        h.reduced_distribution(j)
        assert _traced_peak(lambda: h.smoothed_influence(h.order[j], delta)) < 2 << 20
        got = h.smoothed_influence(h.order[j], delta)
        assert got == oracles.window_smoothed_influence(h, h.order[j], delta) > 0


def _boundary_members():
    """Fixed members with ties and one weight, and 20 random ones of 1-9
    weights in 1..6, descending."""
    rng = np.random.default_rng(71)
    fixed = [[1], [5], [3, 3, 3], [4, 4, 2, 2, 1], [7, 5, 3, 1], [2] * 8, [9, 1, 1, 1, 1, 1]]
    return fixed + [sorted(rng.integers(1, 7, size=int(rng.integers(1, 10))).tolist(), reverse=True)
                    for _ in range(20)]


@pytest.mark.parametrize("weights", _boundary_members())
def test_paired_suffix_counts_match_the_two_window_route_and_the_table(weights):
    """The split's boundary counts by one tail count per suffix equal the
    former two-window route at every cut from -T - 3 to T + 3, past the
    range of a.x at both ends, and the truth table's boundary measures at
    every integer threshold and one between, through a forced split."""
    w = np.array(weights, dtype=np.int64)
    total = int(w.sum())
    points = kernels.dot_values(w)
    for cut in range(-total - 3, total + 4):
        above = int(np.count_nonzero(points > cut))
        assert hs._paired_suffix_counts(w, cut, above) == oracles.two_window_suffix_counts(w, cut)
    for t in [F(c) for c in range(-total - 1, total + 2)] + [F(1, 2)]:
        h = make_halfspace(weights, t)
        h.distribution(backend="mitm")
        bounds = influence.boundary_measures(h.truth_table())
        assert (h.vertex_boundary(0), h.vertex_boundary(1)) == (bounds.vb0, bounds.vb1), t


def test_backend_switch_recounts_every_statistic(monkeypatch):
    """A dense/meet-in-the-middle cross-check on one object: after the
    switch every statistic, the tail count and the sign verdict among them,
    is counted again on the new route, and agrees.  The delta search reads
    its base from the memo, so its new count is a probe of the halves."""
    h = make_halfspace([5, 3, 3, 1, 1], 2)
    h.distribution(backend="dense")
    stats = (h.tail, h.influences, lambda: h.vertex_boundary(0),
             lambda: levelk.sign_condition_holds(h, 2), h.decay_thresholds,
             lambda: h.delta_query(F(1, 2)))
    dense = [stat() for stat in stats]
    vb1 = h.vertex_boundary(1)
    assert isinstance(h.reduced_distribution(0), TailDistribution)
    assert isinstance(distribution_from_scaled(h.scaled[1:], h.scale, "dense"), TailDistribution)
    counted = []

    def spy(owner, name):
        route = getattr(owner, name)

        def counting(*args):
            counted.append(name)
            return route(*args)

        monkeypatch.setattr(owner, name, counting)

    # the meet-in-the-middle routes: tail counts, probes, influences and boundaries
    monkeypatch.setattr(hs, "_SEARCH_PAIRS", 1)  # so the search probes
    spy(MeetInMiddleDistribution, "counts_ge_scaled")
    spy(MeetInMiddleDistribution, "_probe")
    spy(MeetInMiddleDistribution, "influence_counts")
    spy(hs, "_paired_suffix_counts")
    assert isinstance(h.distribution(backend="mitm"), MeetInMiddleDistribution)
    for stat, want in zip(stats, dense):
        before = len(counted)
        assert stat() == want
        assert len(counted) > before
    assert h.vertex_boundary(1) == vb1  # counted with side 0
    assert isinstance(h.reduced_distribution(0), MeetInMiddleDistribution)
    assert isinstance(distribution_from_scaled(h.scaled[1:], h.scale, "mitm"),
                      MeetInMiddleDistribution)


def test_chernoff_sequence_counts_the_tail_once(monkeypatch):
    """`cubelab chernoff`'s sequence on the 26-coordinate member of CI's
    chernoff gate (tail, delta query, decay thresholds, strong and weak
    statistics, Gaussian ratio) counts the tail at t once: the tail, the
    mean and each delta search's base read one memo entry."""
    corpus = harness.corpus_gen(
        "random-halfspace", {"n_lo": 26, "n_hi": 26, "count": 1, "weight_bits": 24}, seed=5)
    h = parse_halfspace(corpus.entries[0])
    assert isinstance(h.distribution(), MeetInMiddleDistribution)
    counts = []
    count = MeetInMiddleDistribution.counts_ge_scaled
    monkeypatch.setattr(MeetInMiddleDistribution, "counts_ge_scaled",
                        lambda self, v: counts.append(v) or count(self, v))
    t = h.threshold
    h.tail(t)
    h.delta_query(F(1, 2), t)
    h.decay_thresholds(t)
    chernoff.check_local_chernoff(h, t, "strong")
    chernoff.check_local_chernoff(h, t, "weak", c=F(1, 2))
    chernoff.gaussian_tail_ratio(h, t)
    assert len(counts) == 1
    assert h.mean() == h.tail(t) and len(counts) == 1


def test_delta_searched_once_per_c_and_t(monkeypatch):
    """The delta query of chernoff, of both decay thresholds and of the
    strong and weak statistics search once per (c, t); copies start empty.
    A search is counted on the two forms of a whole distribution: the
    tripled copy is a small cube, a split, whose last window is a sorted
    distribution searched in turn."""
    calls = []
    for backend in (TailDistribution, MeetInMiddleDistribution):
        def counted(self, num, den, search=backend.first_value_tail_le):
            calls.append((num, den))
            return search(self, num, den)

        monkeypatch.setattr(backend, "first_value_tail_le", counted)
    h = make_halfspace([5, 3, 3, 1, 1], 1)
    half = h.delta_query(F(1, 2))
    assert h.delta_query(F(1, 2), h.threshold) == half and len(calls) == 1
    thr = h.decay_thresholds()
    h.decay_thresholds()
    chernoff.check_local_chernoff(h, None, "strong")
    chernoff.check_local_chernoff(h, None, "weak", c=F(1, 2))
    assert len(calls) == 3  # c = 1/2, 1/3, 1/6 at one t
    assert h.delta_query(F(1, 3)) == thr.beta and h.delta_query(F(1, 6)) == thr.gamma
    assert len(calls) == 3
    h.delta_query(F(1, 2), -1)
    h.delta_query(F(1, 4))
    assert len(calls) == 5
    fresh = make_halfspace([5, 3, 3, 1, 1], 1)
    for copy, want in ((make_halfspace(h.original_weights, h.threshold), half),
                       (make_halfspace([3 * w for w in h.original_weights], 3 * h.threshold),
                        3 * half),
                       (h.dual(), fresh.dual().delta_query(F(1, 2)))):
        before = len(calls)
        assert copy.delta_query(F(1, 2)) == want
        assert len(calls) == before + 1


# -- the delta search -----------------------------------------------------------

def _limits(dist, den, rng, tails=40):
    """Limits of a search at den: below 0, at 0, at tail counts times den and
    one either side (tail counts of random support values), at total * den
    and above, and past 2^63."""
    values = dist.support().values
    picks = rng.choice(values, size=min(tails, len(values)), replace=False)
    ties = {c * den + d for c in dist.counts_gt_scaled(picks).tolist() for d in (-1, 0, 1)}
    return sorted({-1, 0, dist.total * den, dist.total * den + 1, 1 << 63, 1 << 70} | ties)


@pytest.mark.parametrize("n", [18, 20, 21, 22])
def test_mitm_search_matches_bisection_and_dense(n):
    """16-bit weights: pairs of the two halves in the millions, so the
    search narrows its bracket over several probes before it reads the last
    window; against the bisection oracle and the forced dense backend."""
    rng = np.random.default_rng(n)
    weights = np.sort(rng.integers(1, 1 << 16, size=n))[::-1].astype(np.int64)
    mitm = distribution_from_scaled(weights, 1, backend="mitm")
    dense = distribution_from_scaled(weights, 1, backend="dense")
    assert len(mitm.left.values) * len(mitm.right.values) > 50 * hs._SEARCH_PAIRS
    for den in (1, 3, 6, 216):
        for num in _limits(dense, den, rng):
            want = oracles.bisect_first_value_tail_le(dense, num, den)
            assert mitm.first_value_tail_le(num, den) == want
            assert dense.first_value_tail_le(num, den) == want


@pytest.mark.parametrize("pairs", [1, 4, 4096])
@pytest.mark.parametrize("weights", [[1] * 30, [7] * 9 + [2] * 21, [3] * 15 + [1] * 15])
def test_mitm_search_on_tied_weights(monkeypatch, weights, pairs):
    """Few distinct values, each of many outcomes: the count is flat from
    one value to the next, so guide steps stall with few pairs read at the
    end, where the guide rounds the weights (q = 2) and where it is exact
    (q = 1) alike; on the q = 1 members 112-236 steps stalled when the
    guide's error bounds still served them.  Every probe is a clamped guide
    step or a clamped sample estimate, and a guide step need not be a
    support value, nor one of the sampled estimates."""
    monkeypatch.setattr(hs, "_SEARCH_PAIRS", pairs)
    mitm = distribution_from_scaled(np.array(weights), 1, backend="mitm")
    dense = distribution_from_scaled(np.array(weights), 1, backend="dense")
    log = []
    probed, estimated, _ = _spy_search(monkeypatch, log)
    values = dense.support().values.tolist()
    for den in (1, 6):
        for num in {-1, 0, dense.total * den} | {c * den + d for c in dense._suffix.tolist()
                                                  for d in (-1, 0, 1)}:
            want = oracles.bisect_first_value_tail_le(dense, num, den)
            log.clear()
            assert mitm.first_value_tail_le(num, den) == want
            assert dense.first_value_tail_le(num, den) == want and want in values
            _assert_one_rule(mitm, mitm._tail_cap(num, den), log)
    if pairs == 4096:
        assert not probed  # every bracket fits one window
    else:
        assert estimated  # some step stalled
        assert any(v not in estimated for v in probed)  # guide steps
        assert any(v not in values for v in probed)


def _ci_member():
    """The 26-coordinate, 24-bit member of CI's chernoff gate (about 2^26
    pairs of the two halves)."""
    corpus = harness.corpus_gen(
        "random-halfspace", {"n_lo": 26, "n_hi": 26, "count": 1, "weight_bits": 24}, seed=5)
    return parse_halfspace(corpus.entries[0])


def _spy_search(monkeypatch, log=None):
    """Lists of the search's probes, sampled estimates and other full tail
    counts; each probe goes to `log` as ("probe", v, its count) and each
    estimate as ("estimate", v, None), when a log is given."""
    probes, estimates, counts = [], [], []
    probe, sample = MeetInMiddleDistribution._probe, MeetInMiddleDistribution._estimate
    count = MeetInMiddleDistribution.counts_ge_scaled

    def probing(self, v, *spans):
        probes.append(v)
        out = probe(self, v, *spans)
        if log is not None:
            log.append(("probe", v, out[0]))
        return out

    def estimating(self, *args):
        v = sample(self, *args)
        estimates.append(v)
        if log is not None:
            log.append(("estimate", v, None))
        return v

    monkeypatch.setattr(MeetInMiddleDistribution, "_probe", probing)
    monkeypatch.setattr(MeetInMiddleDistribution, "_estimate", estimating)
    monkeypatch.setattr(MeetInMiddleDistribution, "counts_ge_scaled",
                        lambda self, v: counts.append(v) or count(self, v))
    return probes, estimates, counts


def _assert_one_rule(dist, cap, log):
    """The one rule of a split's search, replayed over one search's log
    from ``_spy_search``: each round probes once, clamped into lo..hi - 1,
    at the guide's secant step, or, after a round whose count came less
    than 4 times closer to the cap, at the sample estimate logged just
    before the probe, so each estimate is followed by exactly one probe."""
    lo, hi, above_lo, above_hi = dist.min_scaled, dist.max_scaled, dist.total, 0
    last, slope, gap, stalled = None, 1.0, dist.total, False
    events = iter(log)
    for kind, v, above in events:
        if stalled:
            assert kind == "estimate"
            step = v
            kind, v, above = next(events)
        else:
            goal = dist._guide.place(hs._goal(cap, above_lo, above_hi))
            step = goal if last is None else last[0] + round((goal - last[1]) / slope)
        assert kind == "probe" and v == min(max(step, lo), hi - 1)
        if above <= cap:
            hi, above_hi = v, above
        else:
            lo, above_lo = v + 1, above
        p = dist._guide.place(above)
        if last is not None and p != last[1]:
            slope = (p - last[1]) / (v - last[0])
        last, near = (v, p), abs(above - cap)
        stalled, gap = 4 * near >= gap, near


def test_mitm_search_probe_bound(monkeypatch):
    """On CI's 26-coordinate member each search at t makes at most 2 full
    tail counts, every one through ``_probe`` and no sampled round: the
    guide places them.  The Gaussian limit's secant steps made 3-4 counts,
    the sampled search 6 counts and 3 sampled rounds, the bisection 29.
    At caps 0 and 2^n the answer is an end of the range, with no count."""
    h = _ci_member()
    dist = h.distribution()
    assert isinstance(dist, MeetInMiddleDistribution)
    base = dist.count_gt(h.threshold)
    probes, estimates, counts = _spy_search(monkeypatch)
    assert dist.first_value_tail_le(0, 1) == dist.max_scaled
    assert dist.first_value_tail_le(dist.total, 1) == dist.min_scaled
    assert not probes and not counts
    for c in (F(1, 2), F(1, 3), F(1, 6)):
        probes.clear()
        counts.clear()
        got = dist.first_value_tail_le(c.numerator * base, c.denominator)
        assert 1 <= len(probes) <= 2 and not counts and not estimates
        assert got == oracles.bisect_first_value_tail_le(dist, c.numerator * base, c.denominator)
        again = list(probes)
        probes.clear()
        assert dist.first_value_tail_le(c.numerator * base, c.denominator) == got
        assert probes == again  # the same probes on every run


def _far_from_gaussian():
    """Seven 26-coordinate members whose a.x is far from Gaussian: the
    weights 3^26..3^1 (every sum distinct, the counts a staircase), one
    weight 2^27 over 25 below 2^22 and two over 24 below 2^20 (two and three
    lumps with empty gaps between them), one weight 2^30 over 25 below 2^16
    and one 2^29 over 25 below 2^12, which the guide rounds to zero (two
    lumps, each one cell of the guide, but 1.6 million and 100 thousand
    wide), 26 random powers of two from 2^4 to 2^27, whose sums tie often,
    and three weights in [2^22, 2^24) over 23 below 2^8 (eight narrow
    lumps)."""
    rng = np.random.default_rng(46)
    return {"geometric": [3**k for k in range(26, 0, -1)],
            "one heavy": [1 << 27] + rng.integers(1, 1 << 22, size=25).tolist(),
            "two heavy": [1 << 27] * 2 + rng.integers(1, 1 << 20, size=24).tolist(),
            "light under heavy": [1 << 30] + rng.integers(1, 1 << 16, size=25).tolist(),
            "tiny under heavy": [1 << 29] + rng.integers(1, 1 << 12, size=25).tolist(),
            "powers of two": [1 << k for k in rng.integers(4, 28, size=26).tolist()],
            "three over light": rng.integers(1 << 22, 1 << 24, size=3).tolist()
                                + rng.integers(1, 1 << 8, size=23).tolist()}


FAR_MOST = {"geometric": 7, "one heavy": 2, "two heavy": 2, "light under heavy": 8,
            "tiny under heavy": 7, "powers of two": 3, "three over light": 8}


@pytest.mark.parametrize("name", list(FAR_MOST))
def test_mitm_search_safeguard_far_from_gaussian(monkeypatch, name):
    """Where a coarse guide places its probes badly, the sampled estimate
    after a stalled round keeps the search short: at caps 1-3, 0.1%, 2%,
    30%, 50%, 77% and 99.9% of 2^n and 2^n - 1, each search equals the
    bisection oracle, follows the one rule and makes at most 7 probes on
    the geometric member, 2 on the one- and two-heavy ones, 8 with light
    under heavy, 7 with tiny under heavy, 3 on the powers of two and 8 on
    three over light; at caps 1-3 light under heavy takes at most 3.  The
    guide's error bounds with a two-probe sampled round made at most 8, 2,
    2, 8, 8, 4 and 8 (5 at caps 1-3 with light under heavy), the sampled
    search at most 8, the Gaussian limit's steps at most 12; with no
    safeguard the geometric member took up to 71.  At caps 0 and 2^n no
    probe is made."""
    most = FAR_MOST[name]
    weights = np.array(sorted(_far_from_gaussian()[name], reverse=True), dtype=np.int64)
    dist = distribution_from_scaled(weights, 1)
    assert isinstance(dist, MeetInMiddleDistribution)
    total = dist.total
    caps = [1, 2, 3, *(total * p // 1000 for p in (1, 20, 300, 500, 770, 999)), total - 1]
    log = []
    probes, estimates, _ = _spy_search(monkeypatch, log)
    for cap in (0, total):
        assert dist.first_value_tail_le(cap, 1) == oracles.bisect_first_value_tail_le(dist, cap, 1)
        assert not probes
    for cap in caps:
        probes.clear()
        log.clear()
        assert dist.first_value_tail_le(cap, 1) == oracles.bisect_first_value_tail_le(dist, cap, 1)
        assert 1 <= len(probes) <= (3 if name == "light under heavy" and cap <= 3 else most)
        _assert_one_rule(dist, cap, log)
    if name in ("geometric", "light under heavy"):
        assert estimates  # some round stalled


def _benchmark_plan(seed: int, seconds: float = 13) -> tuple[str, ...]:
    """The members of the `halfspace` benchmark plan of `seconds` at `seed`,
    ``Halfspace().plan(seed, seconds)``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.Halfspace().plan(seed, seconds)


def _benchmark_splits(seeds=range(1, 11)) -> list[str]:
    """The 32-coordinate member of the `halfspace` benchmark plan of each
    seed, ``_benchmark_plan(seed)[1]``: 24-bit weights, halves of about
    2^16 values each."""
    return [_benchmark_plan(seed)[1] for seed in seeds]


def test_mitm_search_counts_on_the_benchmark_splits(monkeypatch):
    """On the benchmark's splits of seeds 1-10, every member of 26 to 36
    coordinates in a plan of 21 s, the searches at t for c = 1/2, 1/3 and
    1/6 make at most 3 counts each, 454 in 180 searches, and no round
    stalls, so no sampled estimate is taken.  On the 32-coordinate members
    of the 13 s plan they make 2.8 counts on average (the Gaussian limit's
    secant steps made 6.9), and each equals the bisection oracle."""
    probes, estimates, _ = _spy_search(monkeypatch)
    made, first_split = [], []
    for seed in range(1, 11):
        for i, desc in enumerate(_benchmark_plan(seed, 21)):
            h = parse_halfspace(desc)
            dist = h.distribution()
            if not isinstance(dist, MeetInMiddleDistribution):
                continue
            assert 26 <= h.n <= 36
            base = dist.count_gt(h.threshold)
            for c in (F(1, 2), F(1, 3), F(1, 6)):
                probes.clear()
                got = dist.first_value_tail_le(c.numerator * base, c.denominator)
                made.append(len(probes))
                if i == 1:  # the 32-coordinate member of the 13 s plan
                    assert h.n == 32
                    first_split.append(len(probes))
                    want = oracles.bisect_first_value_tail_le(
                        dist, c.numerator * base, c.denominator)
                    assert got == want
    assert len(made) == 180 and max(made) <= 3 and sum(made) <= 454 and not estimates
    assert len(first_split) == 30 and sum(first_split) / len(first_split) <= 2.8


def test_mitm_guide_is_one_small_dp_per_split(monkeypatch):
    """The guide is built once per split: ``kernels.signed_sum_counts``
    runs once across the delta query and the decay thresholds at one t.
    Under tracemalloc the guide's arrays stay under 16 bytes per value of
    the two halves: it holds one int64 running sum over at most that many
    cells, and while it is built the DP's lower half and its counts exist
    together, 12 bytes per cell.  Seed 3's guide has the most cells of the
    ten."""
    h = parse_halfspace(_benchmark_splits([3])[0])
    dist = h.distribution()
    cells = len(dist.left.values) + len(dist.right.values)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        guide = hs._Guide(dist.weights.tolist(), cells)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert guide.top <= cells < 2 * guide.top  # q is the least power of two
    assert int(guide.below[-1]) == dist.total
    assert held - before < peak - before < 16 * cells
    calls = []
    route = kernels.signed_sum_counts
    monkeypatch.setattr(kernels, "signed_sum_counts", lambda w: calls.append(len(w)) or route(w))
    h.delta_query(F(1, 2), h.threshold)
    h.decay_thresholds(h.threshold)
    assert calls == [h.n]


def test_mitm_search_within_one_window_builds_no_guide(monkeypatch):
    """A small cube's split holds at most _SEARCH_PAIRS pairs, so its search
    is the sorted search over them alone: on 64 points, at caps 1..63,
    none runs the guide's DP, and each answers as the whole support does."""
    dist = distribution_from_scaled(np.array([2_000_000] * 4 + [1] * 2), 1)
    assert isinstance(dist, MeetInMiddleDistribution)
    sup = dist.support()
    calls = []
    route = kernels.signed_sum_counts
    monkeypatch.setattr(kernels, "signed_sum_counts", lambda w: calls.append(len(w)) or route(w))
    for cap in range(1, 64):
        assert dist.first_value_tail_le(cap, 1) == sup.first_value_tail_le(cap, 1)
    assert calls == [] and "_guide" not in vars(dist)


def test_mitm_probe_counts_only_live_rows():
    """A probe at v in a bracket [lo, hi] searches only the left rows with
    a pair inside it: its count and its right indices equal the full
    search's, at random brackets from one value wide to the whole range."""
    dist = _ci_member().distribution()
    lv = dist._rows[0]

    def full(v):
        return np.searchsorted(dist.right.values, v - lv, side="right")

    rng = np.random.default_rng(47)
    for width in [1, 2, 10, 10**3, 10**5, 10**7, dist.max_scaled - dist.min_scaled]:
        for _ in range(5):
            lo = int(rng.integers(dist.min_scaled, dist.max_scaled - width + 1))
            hi = lo + width
            first, stop = full(lo - 1), full(hi)
            v = int(rng.integers(lo, hi))
            above, idx = dist._probe(v, first, stop)
            assert np.array_equal(idx, full(v))
            assert above == dist.count_gt_scaled(v)


@st.composite
def tied_weights_and_limit(draw):
    n = draw(st.integers(1, 12))
    weights = draw(st.lists(st.sampled_from([1, 2, 3, 5, 8, 13]), min_size=n, max_size=n))
    den = draw(st.sampled_from([1, 2, 3, 6, 216]))
    num = draw(st.integers(-2, (1 << n) * den + 2))
    pairs = draw(st.sampled_from([1, 2, 5, 4096]))
    return sorted(weights, reverse=True), num, den, pairs


@given(tied_weights_and_limit())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_searches_match_bisection_on_random_ties(case):
    """Both backends' search against the bisection oracle on small weights
    with ties, with one to 4096 pairs sampled per round."""
    weights, num, den, pairs = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hs, "_SEARCH_PAIRS", pairs)
        for backend in ("dense", "mitm"):
            dist = distribution_from_scaled(np.array(weights), 1, backend=backend)
            want = oracles.bisect_first_value_tail_le(dist, num, den)
            assert dist.first_value_tail_le(num, den) == want


@pytest.mark.parametrize("t", [10**25, -10**25])
def test_thresholds_past_int64(t):
    """A threshold whose scaled value leaves int64 is clamped into the range
    of a.x first: the 26-coordinate meet-in-the-middle member gives what a
    small dense member gives at the same threshold, an empty or a full
    tail, and so does that small member on the forced meet-in-the-middle
    backend, delta queries included."""
    big = make_halfspace([2**23 + 977 * i for i in range(26)], t)
    assert isinstance(big.distribution(), MeetInMiddleDistribution)
    small = {b: make_halfspace([5, 3, 2], t) for b in ("dense", "mitm")}
    for b, h in small.items():
        h.distribution(backend=b)
    for h in (big, *small.values()):
        assert h.tail() == (1 if t < 0 else 0)
        assert h.distribution().count_ge(t) == h.distribution().count_gt(t)
        assert h.influences() == [0] * h.n
        assert h.vertex_boundary(0) == h.vertex_boundary(1) == 0
        assert h.smoothed_influence(0, 1) == 0
    if t < 0:
        assert small["dense"].delta_query(F(1, 2)) == small["mitm"].delta_query(F(1, 2))
        low = big.distribution().min_value - 1  # the tail is full there too
        assert big.delta_query(F(1, 2)) + t == big.delta_query(F(1, 2), low) + low
        assert small["dense"].decay_thresholds() == small["mitm"].decay_thresholds()
    else:
        with pytest.raises(ValueError, match="zero"):
            big.delta_query(F(1, 2))
