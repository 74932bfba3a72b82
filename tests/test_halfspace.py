from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelab import bfcore, chernoff, influence, kernels
from cubelab import halfspace as hs
from cubelab.halfspace import (
    BudgetError,
    Halfspace,
    MeetInMiddleDistribution,
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
    dist = h.distribution()
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
    dist = h.distribution()
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
        assert dense.count_ge_scaled(q) == mitm.count_ge_scaled(q)
    vd, cd = dense.support_window(-20, 20)
    vm, cm = mitm.support_window(-20, 20)
    assert np.array_equal(vd, vm) and np.array_equal(cd, cm)
    base = dense.count_gt_scaled(5)
    assert dense.first_value_tail_le(base, 3) == mitm.first_value_tail_le(base, 3)


@pytest.mark.parametrize("backend", [None, "dense"])
def test_empty_sum_distribution(backend):
    """No summands: the sum is 0 on the one point of the empty cube."""
    dist = distribution_from_scaled(np.zeros(0, dtype=np.int64), 3, backend=backend)
    assert isinstance(dist, TailDistribution)
    assert dist.values.tolist() == [0] and dist.counts.tolist() == [1]
    assert dist.values.dtype == dist.counts.dtype == np.int64
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
        assert h.vertex_boundary(1) == influence.vertex_boundary(table, 1)
        assert h.vertex_boundary(0) == influence.vertex_boundary(table, 0)


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
    g = h.rescaled(F(5, 2))
    assert g.weights == (F(15, 2), F(5))
    assert g.sq_norm() == h.sq_norm() * F(25, 4)
    assert g.mean() == h.mean()
    assert g.influences() == h.influences()
    with pytest.raises(ValueError):
        h.rescaled(0)


# -- one DP per halfspace ------------------------------------------------------------
#
# Dense halfspaces count influences from the full distribution (one weight
# divided out) and both boundaries from one DP sweep.  The per-coordinate
# reduced distributions, the per-suffix distributions and the truth table
# are the slow routes they are checked against.

def per_coordinate_influences(h, t) -> list[F]:
    out = [F(0)] * h.arity
    for j, orig in enumerate(h.order):
        w = h.weights[j]
        out[orig] = F(h.reduced_distribution(j).count_interval(t - w, t + w), 1 << (h.n - 1))
    return out


def per_suffix_boundary(h, lam, t) -> F:
    count, prefix = 0, F(0)
    for k, w in enumerate(h.weights):
        shift = prefix if lam == 1 else -prefix
        count += h.suffix_distribution(k).count_interval(t + shift - w, t + shift + w)
        prefix += w
    return F(count, 1 << h.n)


@st.composite
def rational_halfspace_and_thresholds(draw):
    """Weights from a small pool (zeros and repeats are common) and two to
    four thresholds, each a support value (a tie) or just off one."""
    pool = draw(st.lists(st.fractions(0, 6, max_denominator=4), min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
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
def test_one_dp_routes_match_slow_routes(case):
    weights, thresholds = case
    h = make_halfspace(weights, thresholds[0])
    slow = make_halfspace(weights, thresholds[0])
    mitm = make_halfspace(weights, thresholds[0])
    mitm.distribution(backend="mitm")  # every statistic from per-coordinate/suffix halves
    for t in thresholds:
        table = ltf_truth_table(weights, t)
        infl = per_coordinate_influences(slow, t)
        assert infl == [oracles.brute_influence(table, i) for i in range(len(weights))]
        assert h.influences(t) == mitm.influences(t) == infl
        best = max(infl)
        assert h.max_influence(t) == (best, infl.index(best))
        for lam in (0, 1):
            vb = per_suffix_boundary(slow, lam, t)
            assert vb == oracles.brute_boundary(table, lam)
            assert h.vertex_boundary(lam, t) == mitm.vertex_boundary(lam, t) == vb
        assert h.influence_internal(0, t) == infl[h.order[0]]


@pytest.mark.parametrize("weight", [F(1), F(7, 3)])
def test_counts_at_62_summands_fill_int64(weight):
    """n = 62 equal weights: the full count array reaches 2^62 and every
    influence and boundary equals its binomial count."""
    n = 62
    for t_units in (0, 1, F(1, 2), -61, 59, 60, 62):
        h = make_halfspace([weight] * n, t_units * weight)
        assert int(h.distribution().counts.sum()) == 1 << 62
        assert h.influences() == [oracles.equal_weight_influence(n, t_units)] * n
        for lam in (0, 1):
            assert h.vertex_boundary(lam) == oracles.equal_weight_boundary(n, t_units, lam)


def test_summand_limit_refused_before_any_dp(monkeypatch):
    """At n = 63 the full distribution is refused; the influences (62
    summands each) and the boundaries (suffixes of at most 62) are still
    counted.  At n = 64 those are refused too.  No refusal starts a DP."""
    h63 = make_halfspace([1] * 63, 1)
    assert h63.influences() == [oracles.equal_weight_influence(63, 1)] * 63
    assert h63.vertex_boundary(0) == oracles.equal_weight_boundary(63, 1, 0)
    assert h63.vertex_boundary(1) == oracles.equal_weight_boundary(63, 1, 1)

    def no_dp(*args):
        raise AssertionError("a DP started")

    for name in ("signed_sum_counts", "subset_sum_prefixes", "dot_values"):
        monkeypatch.setattr(kernels, name, no_dp)
    with pytest.raises(BudgetError):
        make_halfspace([1] * 63, 1).tail()
    with pytest.raises(BudgetError):
        distribution_from_scaled(np.ones(63, dtype=np.int64), 1)
    h64 = make_halfspace([1] * 64, 0)
    with pytest.raises(BudgetError):
        h64.influences()
    with pytest.raises(BudgetError):
        h64.vertex_boundary(1)


def test_small_cube_enumerated_not_dp(monkeypatch):
    """Below the budget, a sum with 2^n <= T + 1 is enumerated point by point
    and equals the DP; one cell fewer, and the DP runs.  An explicit dense
    backend always runs the DP."""
    cases = ([1, 2], [3, 5, 9, 17], [40, 1, 1, 7, 20])  # 2^n <= T + 1, the first with equality
    dense = {tuple(w): distribution_from_scaled(np.array(w), 1, backend="dense") for w in cases}

    def no_dp(*args):
        raise AssertionError("the DP ran")

    monkeypatch.setattr(kernels, "signed_sum_counts", no_dp)
    for w in cases:
        got = distribution_from_scaled(np.array(w), 1)
        assert type(got).__name__ == "TailDistribution"
        assert np.array_equal(got.values, dense[tuple(w)].values)
        assert np.array_equal(got.counts, dense[tuple(w)].counts)
        h = make_halfspace(w, 1)
        assert h.influences() == list(influence.influences(h.truth_table()).per_coordinate)
    with pytest.raises(AssertionError, match="the DP ran"):
        distribution_from_scaled(np.array([1, 1]), 1)  # 2^2 > 2 + 1
    with pytest.raises(AssertionError, match="the DP ran"):
        distribution_from_scaled(np.array([3, 5, 9, 17]), 1, backend="dense")


def test_influences_counted_once_per_threshold(monkeypatch):
    """analyze asks for the influences three times; they are counted once per
    threshold, and a caller that edits the returned list changes nothing."""
    calls = []
    window = kernels.leave_one_out_window

    def counted(cum, w, b):
        calls.append((w, b))
        return window(cum, w, b)

    monkeypatch.setattr(kernels, "leave_one_out_window", counted)
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
# Vectorised counts against the scalar count at every value, the support
# window against the pair-by-pair dict route, and reduced distributions that
# share the full distribution's other half against distributions built from
# the reduced weights.

def assert_same_distribution(a, b):
    """Equal totals, ranges, tail counts at every value and supports."""
    assert (a.total, a.min_scaled, a.max_scaled) == (b.total, b.min_scaled, b.max_scaled)
    v = np.arange(a.min_scaled - 2, a.max_scaled + 3)
    assert np.array_equal(a.counts_gt_scaled(v), b.counts_gt_scaled(v))
    assert np.array_equal(a.counts_ge_scaled(v), b.counts_ge_scaled(v))
    for x, y in zip(a.support_window(v[0], v[-1]), b.support_window(v[0], v[-1])):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("keys", [1, 5, 1 << 20])
def test_mitm_vector_counts_match_scalar_counts(monkeypatch, keys):
    """At every value from below min_scaled to above max_scaled, in blocks of
    one row, of part of a row and of every row at once."""
    monkeypatch.setattr(hs, "_QUERY_KEYS", keys)
    rng = np.random.default_rng(31)
    for n in (1, 2, 5, 8):
        weights = np.sort(rng.integers(1, 12, size=n))[::-1].astype(np.int64)
        mitm = distribution_from_scaled(weights, 1, backend="mitm")
        dense = distribution_from_scaled(weights, 1, backend="dense")
        v = np.arange(mitm.min_scaled - 3, mitm.max_scaled + 4)
        gt = mitm.counts_gt_scaled(v)
        ge = mitm.counts_ge_scaled(v)
        assert gt.tolist() == [mitm.count_gt_scaled(int(x)) for x in v]
        assert ge.tolist() == [mitm.count_ge_scaled(int(x)) for x in v]
        assert np.array_equal(gt, dense.counts_gt_scaled(v))
        assert np.array_equal(ge, dense.counts_ge_scaled(v))
        assert gt[0] == ge[0] == 1 << n and gt[-1] == ge[-1] == 0
        grid = v[: len(v) // 2 * 2].reshape(2, -1)
        assert np.array_equal(mitm.counts_gt_scaled(grid), gt[: grid.size].reshape(grid.shape))


def test_mitm_support_window_matches_pairwise_and_dense():
    rng = np.random.default_rng(32)
    for n in (1, 2, 6, 9):
        weights = np.sort(rng.integers(1, 9, size=n))[::-1].astype(np.int64)
        mitm = distribution_from_scaled(weights, 1, backend="mitm")
        dense = distribution_from_scaled(weights, 1, backend="dense")
        k = n // 2
        left = distribution_from_scaled(weights[:k], 1, backend="dense").support()
        right = distribution_from_scaled(weights[k:], 1, backend="dense").support()
        edges = sorted(set(rng.integers(mitm.min_scaled - 3, mitm.max_scaled + 4, size=5).tolist()))
        for lo in edges:
            for hi in edges:
                for include_lo in (False, True):
                    for include_hi in (False, True):
                        args = (lo, hi, include_lo, include_hi)
                        got = mitm.support_window(*args)
                        assert got[0].dtype == got[1].dtype == np.int64
                        for x, y, z in zip(got, oracles.pairwise_support_window(left, right, *args),
                                           dense.support_window(*args)):
                            assert np.array_equal(x, y) and np.array_equal(x, z)


def test_mitm_support_window_guard_boundary(monkeypatch):
    """Powers of two make every pair sum distinct: the sums are the odd
    numbers -15..15, and a window assembles one pair per value in it."""
    mitm = distribution_from_scaled(np.array([8, 4, 2, 1]), 1, backend="mitm")
    monkeypatch.setattr(hs, "_WINDOW_GUARD", 15)
    values, counts = mitm.support_window(-15, 13, include_lo=True, include_hi=True)
    assert values.tolist() == list(range(-15, 14, 2)) and counts.tolist() == [1] * 15
    with pytest.raises(BudgetError):
        mitm.support_window(-15, 15, include_lo=True, include_hi=True)


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
        kept, renewed = ("_rv", "_lv") if j % 2 == 0 else ("_lv", "_rv")
        assert getattr(red, kept) is getattr(full, kept)
        assert getattr(red, renewed) is not getattr(full, renewed)
        rest = np.delete(h.scaled, j)
        for backend in ("mitm", "dense"):
            assert_same_distribution(red, distribution_from_scaled(rest, h.scale, backend=backend))


def test_reduced_distributions_keep_their_backend_above_the_budget(monkeypatch):
    """Above the budget only a reduced sum that is itself past the budget
    shares a half; one that drops under it stays dense, as it was built before."""
    monkeypatch.setattr(hs, "DENSE_BUDGET", 10)
    h = make_halfspace([7, 5, 3, 2], 1)
    assert isinstance(h.distribution(), MeetInMiddleDistribution)
    assert isinstance(h.reduced_distribution(0), TailDistribution)  # 5 + 3 + 2 <= 10
    shared = h.reduced_distribution(3)  # 7 + 5 + 3 > 10
    assert isinstance(shared, MeetInMiddleDistribution)
    assert shared._lv is h.distribution()._lv
    assert_same_distribution(shared, distribution_from_scaled(np.array([7, 5, 3]), 1, "dense"))
    assert h.influences() == list(influence.influences(h.truth_table()).per_coordinate)


def test_smoothed_influence_from_shared_halves_matches_brute():
    rng = np.random.default_rng(33)
    for trial in range(8):
        n = int(rng.integers(2, 8))
        base = random_halfspace(rng, n, wmax=6)
        h = base.with_threshold(base.threshold + F(int(rng.integers(0, 3)), 3))
        h.distribution(backend="mitm")
        delta = F(int(rng.integers(1, 8)), int(rng.integers(1, 4)))
        for j in {0, n // 2, n - 1}:
            want = oracles.brute_smoothed_influence(list(h.weights), h.threshold, j, delta)
            assert h.smoothed_influence(h.order[j], delta) == want


def test_backend_switch_recounts_every_statistic(monkeypatch):
    """A dense/meet-in-the-middle cross-check on one object: after the
    switch every statistic is counted again on the new route, and agrees."""
    h = make_halfspace([5, 3, 3, 1, 1], 2)
    h.distribution(backend="dense")
    dense = (h.influences(), h.vertex_boundary(0), h.decay_thresholds(),
             h.delta_query(F(1, 2)))
    vb1 = h.vertex_boundary(1)
    assert isinstance(h.reduced_distribution(0), TailDistribution)
    assert isinstance(h.suffix_distribution(0), TailDistribution)
    counted = []
    count_from = MeetInMiddleDistribution._count_from

    def spy(self, v):
        counted.append(v)
        return count_from(self, v)

    monkeypatch.setattr(MeetInMiddleDistribution, "_count_from", spy)
    assert isinstance(h.distribution(backend="mitm"), MeetInMiddleDistribution)
    for i, stat in enumerate((h.influences, lambda: h.vertex_boundary(0),
                              h.decay_thresholds, lambda: h.delta_query(F(1, 2)))):
        before = len(counted)
        assert stat() == dense[i]
        assert len(counted) > before
    assert h.vertex_boundary(1) == vb1  # counted with side 0
    assert isinstance(h.reduced_distribution(0), MeetInMiddleDistribution)
    assert isinstance(h.suffix_distribution(0), MeetInMiddleDistribution)


def test_delta_searched_once_per_c_and_t(monkeypatch):
    """The delta query of chernoff, of both decay thresholds and of the
    strong and weak statistics search once per (c, t); copies start empty."""
    calls = []
    search = TailDistribution.first_value_tail_le

    def counted(self, num, den):
        calls.append((num, den))
        return search(self, num, den)

    monkeypatch.setattr(TailDistribution, "first_value_tail_le", counted)
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
    for copy, want in ((h.with_threshold(h.threshold), half),
                       (h.rescaled(3), 3 * half),
                       (h.dual(), fresh.dual().delta_query(F(1, 2)))):
        before = len(calls)
        assert copy.delta_query(F(1, 2)) == want
        assert len(calls) == before + 1
