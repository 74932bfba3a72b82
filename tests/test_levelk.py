import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubelab import harness, kernels, levelk, spectral
from cubelab.checks import REGISTRY, MemberContext
from cubelab.halfspace import make_halfspace, parse_halfspace

import oracles

F = Fraction


# -- uniform-sum CDF -----------------------------------------------------------

def test_cdf_k1_is_identity_on_unit():
    assert levelk.irwin_hall_cdf(1, 0.3) == pytest.approx(0.3, abs=1e-15)
    assert levelk.irwin_hall_cdf(1, -1) == 0.0
    assert levelk.irwin_hall_cdf(1, 2) == 1.0


def test_cdf_symmetry_point():
    assert levelk.irwin_hall_cdf(2, 1) == pytest.approx(0.5, abs=1e-15)
    for k in range(1, 9):
        assert levelk.irwin_hall_cdf(k, k / 2) == pytest.approx(0.5, abs=1e-12)


def test_cdf_quadratic_piece():
    assert levelk.irwin_hall_cdf(2, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_cdf_monotone_and_edges():
    for k in (1, 3, 6, 12):
        xs = np.linspace(-0.5, k + 0.5, 201)
        ys = [levelk.irwin_hall_cdf(k, x) for x in xs]
        assert ys[0] == 0.0 and ys[-1] == 1.0
        assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))


def test_cdf_exact_matches_float():
    rng = np.random.default_rng(0)
    for k in range(1, 7):
        for _ in range(20):
            x = F(int(rng.integers(0, 16 * k)), 16)
            exact = levelk.irwin_hall_cdf_exact(k, x)
            assert levelk.irwin_hall_cdf(k, float(x)) == pytest.approx(
                float(exact), abs=1e-12
            )
    with pytest.raises(ValueError):
        levelk.irwin_hall_cdf(0, 0.5)


def test_derivative_step_law():
    rng = np.random.default_rng(1)
    for k in range(1, 7):
        for _ in range(40):
            whole = int(rng.integers(0, k))
            frac = float(rng.uniform(0.15, 0.85))
            got, want = levelk.derivative_law_residual(k, whole + frac)
            assert got == pytest.approx(want, abs=1e-5)


def test_derivative_step_law_exact_route():
    # inside one lattice cell the CDF is a degree-k polynomial, so the exact
    # rational finite difference recovers the step value with no error at all
    for k in range(1, 6):
        x = F(2 * k - 1, 2 * k)  # inside (0, 1)
        h = F(1, 8 * k)
        acc = F(0)
        for j in range(k + 1):
            acc += (-1) ** j * math.comb(k, j) * levelk.irwin_hall_cdf_exact(
                k, x + F(k, 2) * h - j * h
            )
        assert acc / h**k == levelk.irwin_hall_density_step(k, float(x))


# -- symmetric statistics ---------------------------------------------------------

def test_symmetric_stats_halves():
    stats = levelk.symmetric_stats([F(1, 2), F(1, 2)], 2)
    assert stats.elementary[1] == 1
    assert stats.elementary[2] == F(1, 4)
    assert stats.power[2] == F(1, 2)
    assert stats.newton_girard_residual(2) == 0


def test_symmetric_stats_single_value():
    stats = levelk.symmetric_stats([F(1)], 3)
    assert stats.elementary[1] == 1
    assert stats.elementary[2] == 0 and stats.elementary[3] == 0


def test_newton_girard_random():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(1, 9))
        vals = [F(int(a), int(b)) for a, b in
                zip(rng.integers(0, 9, size=n), rng.integers(1, 5, size=n))]
        stats = levelk.symmetric_stats(vals, min(n, 8))
        for m in range(1, min(n, 8) + 1):
            assert stats.newton_girard_residual(m) == 0


def test_chain_check_equal_weights():
    # squared majority-of-9 weights: all 1/9
    stats = levelk.symmetric_stats([F(1, 9)] * 9, 2)
    assert stats.elementary[2] == F(36, 81) == F(4, 9)
    hyp, chain, ek, bound = levelk.elementary_chain_check(stats, 2)
    assert hyp and chain
    assert ek >= bound == F(1, 4)


def test_chain_check_rejects_heavy_weight():
    stats = levelk.symmetric_stats([F(9, 10), F(1, 10)], 2)
    hyp, chain, ek, bound = levelk.elementary_chain_check(stats, 2)
    assert not hyp


# -- polynomial expectation bounds ----------------------------------------------

def test_signed_poly_expectation_exact_degree():
    # degree m polynomial: the m-th derivative is the constant m! * lead
    rng = np.random.default_rng(6)
    for trial in range(10):
        m = int(rng.integers(1, 6))
        coeffs = [F(int(c)) for c in rng.integers(-5, 6, size=m + 1)]
        if coeffs[-1] == 0:
            coeffs[-1] = F(1)
        a = [F(int(x), 2) for x in rng.integers(1, 7, size=m)]
        s = F(int(rng.integers(-4, 5)), 2)
        value, lo, hi = levelk.signed_poly_expectation(coeffs, a, s)
        expect = math.prod(a) * math.factorial(m) * coeffs[-1]
        assert value == expect == lo == hi


def test_signed_poly_expectation_low_degree_vanishes():
    value, lo, hi = levelk.signed_poly_expectation([F(3), F(2)], [F(1), F(2)], F(1))
    assert value == lo == hi == 0


def test_signed_poly_expectation_bracket_degree_plus_one():
    rng = np.random.default_rng(7)
    for trial in range(10):
        m = int(rng.integers(1, 5))
        coeffs = [F(int(c)) for c in rng.integers(-4, 5, size=m + 2)]
        if coeffs[-1] == 0:
            coeffs[-1] = F(2)
        a = [F(int(x), 2) for x in rng.integers(1, 6, size=m)]
        s = F(int(rng.integers(-3, 4)), 2)
        value, lo, hi = levelk.signed_poly_expectation(coeffs, a, s)
        assert lo <= value <= hi


def test_signed_poly_expectation_matches_fraction_route():
    """The m central differences equal the sum of one Fraction per point,
    on random rationals of degree -1 (no coefficients) through
    m + 1, with coefficients zeroed at random, and both refuse m + 2."""
    rng = np.random.default_rng(8402)
    for trial in range(300):
        m = int(rng.integers(0, 6))
        degree = m + 1 if trial % 3 == 0 else int(rng.integers(-1, m + 2))
        coeffs = [F(int(c), int(d)) if rng.random() > 0.3 else F(0) for c, d in
                  zip(rng.integers(-6, 7, size=degree + 1), rng.integers(1, 5, size=degree + 1))]
        a = [F(int(x), int(d)) for x, d in zip(rng.integers(1, 9, size=m), rng.integers(1, 4, size=m))]
        s = F(int(rng.integers(-9, 10)), int(rng.integers(1, 6)))
        assert levelk.signed_poly_expectation(coeffs, a, s) == \
            oracles.fraction_signed_poly_expectation(coeffs, a, s), (coeffs, a, s)
    for route in (levelk.signed_poly_expectation, oracles.fraction_signed_poly_expectation):
        with pytest.raises(ValueError, match=r"degree above m\+1"):
            route([F(1)] * 4, [F(1)], F(0))


# -- smoothed degree-k coefficients, a test oracle -------------------------------------

def test_smoothed_fourier_k1_matches_smoothed_influence():
    h = make_halfspace([F(3), F(2), F(2), F(1)], 1)
    for j in range(h.n):
        via_influence = h.smoothed_influence(h.order[j], 2) / 2
        via_fourier = oracles.smoothed_fourier(h, (j,), 2)
        assert via_fourier == pytest.approx(float(via_influence), abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_smoothed_fourier_matches_gather_route(n):
    """The coefficient summed over the doubling character against the same
    sum over the popcount-gather character, bit for bit, for every subset of
    up to three coordinates."""
    rng = np.random.default_rng(300 + n)
    h = make_halfspace([F(int(w)) for w in rng.integers(1, 6, size=n)], F(1, 2))
    vals = kernels.dot_values(h.scaled)
    uniq, inverse = np.unique(vals, return_inverse=True)
    for k in range(1, min(n, 3) + 1):
        for subset in combinations(range(n), k):
            mask = sum(1 << j for j in subset)
            signed_counts = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(signed_counts, inverse, oracles.gather_point_character(n, mask))
            weights = oracles.cdf_weights(h, k, uniq, h.threshold, F(3))
            expect = float(np.dot(signed_counts, weights)) / (1 << n)
            assert oracles.smoothed_fourier(h, subset, 3) == expect


def test_smoothed_fourier_empty_tail_is_zero():
    h = make_halfspace([1, 1, 1], 10)
    assert oracles.smoothed_fourier(h, (0, 1), 1) == 0.0


def test_smoothed_fourier_monte_carlo():
    h = make_halfspace([1] * 5, 0)
    delta = 4
    exact = oracles.smoothed_fourier(h, (0, 1), delta)
    rng = np.random.default_rng(2024)
    samples = 1_000_000
    x = rng.choice((-1.0, 1.0), size=(samples, 5))
    shift = delta * (rng.random(samples) + rng.random(samples))
    hits = x[:, 0] * x[:, 1] * ((x.sum(axis=1) - 0) > shift)
    est = hits.mean()
    sigma = hits.std(ddof=1) / math.sqrt(samples)
    assert abs(exact - est) <= 3 * sigma


def test_smoothed_fourier_lower_bound_applicability():
    h = make_halfspace([1] * 5, 0)
    ok, bound = oracles.smoothed_fourier_lower_bound(h, (0, 1), 4)
    assert ok
    assert oracles.smoothed_fourier(h, (0, 1), 4) >= bound - 1e-12
    ok, _ = oracles.smoothed_fourier_lower_bound(h, (0, 1), 1)
    assert not ok


def test_smoothed_fourier_validates():
    h = make_halfspace([1, 1], 0)
    with pytest.raises(ValueError):
        oracles.smoothed_fourier(h, (), 1)
    with pytest.raises(ValueError):
        oracles.smoothed_fourier(h, (0,), 0)


@pytest.mark.parametrize("subset", [(0, 5), (0, 0), (-1, 0), (3,), (1, 1, 2)])
def test_smoothed_fourier_refuses_repeated_or_outside_positions(subset):
    """k counts the subset's entries, so a repeated or out-of-range index would
    pair the k-fold CDF with the character of a smaller set."""
    h = make_halfspace([3, 2, 1], 1)
    with pytest.raises(ValueError, match="distinct positions"):
        oracles.smoothed_fourier(h, subset, 1)


# -- pointwise symmetric values and sign condition ------------------------------------

def brute_esym(signed, k):
    return sum(math.prod(c) for c in combinations(signed, k)) if k else 1


def test_elementary_symmetric_pointwise_matches_brute():
    rng = np.random.default_rng(9)
    halfspaces = [make_halfspace([F(3), F(2), F(1)], 0)]
    for n in range(1, 9):
        nums, dens = rng.integers(1, 40, size=n), rng.integers(1, 4, size=n)
        halfspaces.append(make_halfspace([F(int(a), int(b)) for a, b in zip(nums, dens)], 0))
    for h in halfspaces:
        layers = levelk.elementary_symmetric_pointwise(h, 4)
        assert list(layers) == [1, 2, 3, 4]
        for k, table in layers.items():
            assert table.shape == (1 << h.n,) and table.dtype == np.int64
            for m in range(1 << h.n):
                signed = [int(h.scaled[j]) * x for j, x in enumerate(oracles.point_signs(m, h.n))]
                assert table[m] == brute_esym(signed, k)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _n20_halfspace():
    return make_halfspace([F(int(w)) for w in np.random.default_rng(20).integers(1, 64, size=20)], 0)


def test_elementary_symmetric_layers_fill_in_place():
    """e_1..e_3 at n = 20 take three cube arrays and one half-size step at
    the peak: the layers are doubled in place, top level first, and e_0 = 1
    is not stored."""
    h = _n20_halfspace()
    layers, peak = _traced_peak(lambda: levelk.elementary_symmetric_pointwise(h, 3))
    assert list(layers) == [1, 2, 3]
    assert peak < 3.75 * 8 * (1 << 20), peak


def test_cube_scan_is_one_fill():
    """A whole scan at n = 20, its e_2, e_3 and dot values read, stays
    under 30 MiB: one fill of three 8 MiB layers, whose e_1 is the dot
    values, beside one half-size step."""
    h = _n20_halfspace()

    def scan():
        cube = levelk.CubeScan(h)
        return cube.esym(2), cube.esym(3), cube.values

    _, peak = _traced_peak(scan)
    assert peak < 30 * (1 << 20), peak


def test_elementary_symmetric_overflow_guard_boundary():
    # C(2, 2) * w^2 <= 2^62 admits w = 2^31 exactly, where e_2 = +-2^62
    h = make_halfspace([2**31, 2**31], 0)
    assert levelk.e_k_fits(h, 2)
    e2 = levelk.CubeScan(h).esym(2)
    assert e2.tolist() == [2**62, -(2**62), -(2**62), 2**62]
    past = make_halfspace([2**31 + 1, 2**31], 0)
    assert not levelk.e_k_fits(past, 2)
    with pytest.raises(OverflowError):
        levelk.CubeScan(past).esym(2)


def test_one_pass_layers_equal_per_level_passes():
    """Every layer of one pass to k = 4 that fits int64 equals its own
    per-level pass, and the scan refuses exactly the levels the per-level
    guard refuses while serving the levels around them: a level above the
    arity is 0 even where a layer below it wrapped."""
    rng = np.random.default_rng(17)
    cases = []
    for n in (1, 3, 7, 10):
        nums, dens = rng.integers(1, 1 << 12, size=n), rng.integers(1, 8, size=n)
        cases.append(make_halfspace([F(int(a), int(b)) for a, b in zip(nums, dens)], 0))
    # 16 weights near 2^20: C(16, 2) 2^40 fits int64's guard, C(16, 3) 2^60 does not
    cases.append(make_halfspace([(1 << 20) - j for j in range(16)], 0))
    # 2^32 and 1: e_2 reaches 2^64 and is refused, e_3 is 0 at every point
    cases.append(make_halfspace([2**32, 1], 0))
    for h in cases:
        layers = levelk.elementary_symmetric_pointwise(h, 4)
        cube = levelk.CubeScan(h)
        for k in range(1, 5):
            try:
                expect = oracles.per_k_elementary_symmetric(h, k)
            except OverflowError:
                assert not levelk.e_k_fits(h, k)
                if k <= max(levelk.LEVELS):
                    with pytest.raises(OverflowError, match="would overflow int64"):
                        cube.esym(k)
                continue
            assert levelk.e_k_fits(h, k)
            assert np.array_equal(layers[k], expect)
            if 1 <= k <= max(levelk.LEVELS):
                assert np.array_equal(cube.esym(k), expect)
    wide = levelk.CubeScan(cases[-2])
    assert wide.esym(2).shape == (1 << 16,)
    with pytest.raises(OverflowError):
        wide.esym(3)
    pair = levelk.CubeScan(cases[-1])
    with pytest.raises(OverflowError):
        pair.esym(2)
    assert pair.esym(3).tolist() == [0] * 4


def test_cube_scan_shares_fresh_arrays():
    """The scan's dot values equal a fresh kernel call, and each array is
    built once however often it is read."""
    rng = np.random.default_rng(5)
    for n in (1, 6, 11):
        h = make_halfspace([F(int(a), int(b)) for a, b in
                            zip(rng.integers(1, 30, size=n), rng.integers(1, 5, size=n))], 1)
        cube = levelk.CubeScan(h)
        vals = kernels.dot_values(h.scaled)
        assert np.array_equal(cube.values, vals)
        assert cube.values is cube.values and cube.values is cube.layers[1]
        assert cube.layers is cube.layers and cube.esym(3) is cube.layers[3]


def _random_rational_weights(rng, n):
    return [F(int(a), int(b)) for a, b in
            zip(rng.integers(1, 200, size=n), rng.integers(2, 8, size=n))]


def test_integer_norms_equal_fraction_sums():
    """|a|^2 in Python ints, the pipeline's sum of (a^S)^2 over |S| = k as
    e_k of the squared integer weights, and the symmetric sums over one
    common denominator all equal their Fraction sums, on rational weights
    with denominators 2-7."""
    rng = np.random.default_rng(2027)
    for trial in range(12):
        n = int(rng.integers(1, 11))
        weights = _random_rational_weights(rng, n)
        h = make_halfspace(weights, 0)
        sq = sum((w * w for w in weights), F(0))
        assert h.sq_norm() == sq
        for k in range(1, min(n, 3) + 1):
            report = levelk.level_k_pipeline(levelk.CubeScan(h), k, F(0))
            expect = oracles.fraction_symmetric_stats([w * w / sq for w in h.weights], k)
            assert report.coeff_sq_sum == expect.elementary[k]
        m_max = int(rng.integers(0, 10))
        values = _random_rational_weights(rng, n)
        assert levelk.symmetric_stats(values, m_max) == \
            oracles.fraction_symmetric_stats(values, m_max)


def test_levelk_suite_guards_each_level_with_shared_layers():
    """Each level is guarded by itself, with the statuses and notes of
    separate per-level passes.  A 16-coordinate member with 20-bit weights:
    e_2 fits int64 and e_3 does not, so SIGN-COND and WK-PIPELINE run k = 2
    and skip k = 3.  Two coordinates with a weight of 2^32: e_2 is refused,
    while e_3 is 0 at every point and SIGN-COND k = 3 still reports."""
    wide = harness.corpus_gen("random-halfspace", {"n_lo": 14, "n_hi": 16, "weight_bits": 20,
                                                   "count": 1}, seed=0)
    assert parse_halfspace(wide.entries[0]).n == 16
    corpus = harness.Corpus("guard", (wide.entries[0], "ltf:4294967296,1;0"))
    report, _ = harness.run_suite("levelk", corpus)
    got = {(r.check_id, r.instance.split("#", 1)[1]): (r.status, r.passed, r.notes)
           for r in report.records if r.check_id in ("SIGN-COND", "WK-PIPELINE")}
    assert got == {
        ("SIGN-COND", "0 k=2"): ("hypothesis-not-met", None,
                                 "hypotheses not met; holds=True (reported)"),
        ("SIGN-COND", "0 k=3"): ("hypothesis-not-met", None, "weights too large for exact scan"),
        ("WK-PIPELINE", "0 k=2"): ("pass", True, "k=2 R=2.332 sign=True 2ka1<beta=False "
                                   "tall_t=False eta=False surrogate=False"),
        ("WK-PIPELINE", "0 k=3"): ("hypothesis-not-met", None,
                                   "elementary symmetric values would overflow int64"),
        ("SIGN-COND", "1 k=2"): ("hypothesis-not-met", None, "weights too large for exact scan"),
        ("SIGN-COND", "1 k=3"): ("hypothesis-not-met", None,
                                 "hypotheses not met; holds=True (reported)"),
        ("WK-PIPELINE", "1 k=2"): ("hypothesis-not-met", None,
                                   "elementary symmetric values would overflow int64"),
        ("WK-PIPELINE", "1 k=3"): ("hypothesis-not-met", None, "level 3 outside 0..2"),
    }
    holds = [r.lhs for r in report.records if r.check_id == "SIGN-COND"]
    assert holds == [True, None, None, True]


def test_sign_condition_majority():
    h = make_halfspace([1] * 9, 4)
    assert levelk.sign_condition_holds(h, 2)


def test_sign_condition_fails_with_heavy_weight():
    h = make_halfspace([F(3), F(1), F(1)], 1)
    assert not levelk.sign_condition_holds(h, 2)


def test_sign_condition_identity_matches_the_scan_on_every_corpus_member():
    """Newton's identities against the scan of every accepted point, at each
    level, on every halfspace member of the standard, tail and builtin
    corpora; both answers occur at both levels."""
    seen = set()
    for name in ("standard", "tail", "builtin"):
        for entry in harness.load_corpus(name).entries:
            h = MemberContext(name, entry).halfspace
            if h is None:
                continue
            for k in levelk.LEVELS:
                holds = levelk.sign_condition_holds(h, k)
                assert holds == oracles.scanned_sign_condition(h, k), (entry, k)
                seen.add((k, holds))
    assert seen == {(k, holds) for k in levelk.LEVELS for holds in (True, False)}


@st.composite
def sign_condition_members(draw):
    """Weights from a small pool, where zeros, ties and denominators up to 4
    are common, n from 1 to 10 (some below k), and the threshold at a
    support value (a tie), half a scaled unit either side of one, or at
    +-10^25."""
    pool = draw(st.lists(st.fractions(0, 6, max_denominator=4), min_size=1, max_size=4))
    n = draw(st.integers(1, 10))
    weights = [draw(st.sampled_from(pool)) for _ in range(n)]
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = F(1)
    half = F(1, 2 * make_halfspace(weights, 0).scale)
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    tie = sum((w * x for w, x in zip(weights, signs)), F(0))
    return weights, draw(st.sampled_from((tie, tie + half, tie - half, F(10**25), F(-10**25))))


@given(sign_condition_members())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sign_condition_identity_matches_the_scan_on_drawn_members(case):
    """At k = 1..3, on the dense backend and on meet-in-the-middle halves."""
    weights, t = case
    dense, mitm = make_halfspace(weights, t), make_halfspace(weights, t)
    mitm.distribution(backend="mitm")
    for k in (1, *levelk.LEVELS):
        expect = oracles.scanned_sign_condition(dense, k)
        assert levelk.sign_condition_holds(dense, k) == expect
        assert levelk.sign_condition_holds(mitm, k) == expect


def test_sign_condition_refused_exactly_where_e_k_fits_is_false():
    """At [2^31, 2^31], p_2 = 2^63 and e_2 reaches +-2^62: the identity
    answers as the scan does.  One unit more is refused at k = 2, where e_3
    is 0 at every point and holds.  At k = 3 the edge is three weights m
    with m^3 <= 2^62 < (m + 1)^3, where T is just under 5 * 10^6 and P_3
    passes 2^63."""
    m = 1664510
    assert m**3 <= 2**62 < (m + 1) ** 3
    cases = [([2**31, 2**31], t) for t in (-(2**32), -1, 0, 2**32)]
    cases += [([m, m, m], t) for t in (-3 * m, -m - 1, -m, 0, m)]
    cases += [([m, m - 7, m - 1], -m), ([2**31 + 1, 2**31], 0), ([m + 1, m, m], 0)]
    refused = []
    for weights, t in cases:
        h = make_halfspace(weights, t)
        for k in levelk.LEVELS:
            try:
                expect = oracles.scanned_sign_condition(h, k)
            except OverflowError:
                assert not levelk.e_k_fits(h, k)
                with pytest.raises(OverflowError):
                    levelk.sign_condition_holds(h, k)
                refused.append((weights[0], k))
                continue
            assert levelk.e_k_fits(h, k)
            assert levelk.sign_condition_holds(h, k) == expect, (weights, t, k)
    assert refused == [(2**31 + 1, 2), (m + 1, 3)]


def test_sign_condition_allocates_no_cube_array():
    """SIGN-COND on a fresh 22-coordinate member, its distribution built
    inside, peaks below one 2^22-entry int64 array."""
    corpus = harness.corpus_gen("random-halfspace", {"n_lo": 21, "n_hi": 24, "weight_bits": 10,
                                                     "count": 3}, seed=11)
    entry = corpus.entries[1]
    assert parse_halfspace(entry).n == 22
    ctx = MemberContext("wide", entry)
    recs, peak = _traced_peak(lambda: REGISTRY["SIGN-COND"].fn(ctx, None))
    assert [r.status for r in recs] == ["hypothesis-not-met"] * 2
    assert peak < 8 << 22, peak


def test_third_level_on_a_small_cube_holds_no_sum_array():
    """Three weights near 1.66 * 10^6 have 8 points and T near 5 * 10^6: the
    k = 3 verdict enumerates the points and peaks below 1 MiB (a DP over
    the T + 1 sums held 88.9 MiB), and equals the scan."""
    h = make_halfspace([1664510, 1664503, 1664509], -1664510)
    holds, peak = _traced_peak(lambda: levelk.sign_condition_holds(h, 3))
    assert peak < 1 << 20, peak
    assert holds == oracles.scanned_sign_condition(h, 3)


def test_third_level_routes_agree_and_match_the_scan():
    """The least cube sums by enumerating the 2^n subsets and by the
    min-plus DP are the same arrays on every member, ties and n = 1 among
    them; the verdict equals the scan at cuts across the range, on members
    that take each route (2^n <= T + 1 and 2^n > T + 1)."""
    rng = np.random.default_rng(3)
    members = [[5], [1, 1], [4, 4, 1], [9, 2, 2, 7], [1] * 8, [3, 3, 2, 2, 1, 1, 1]]
    members += [rng.integers(1, 1 << int(rng.integers(1, 7)), size=int(rng.integers(1, 11))).tolist()
                for _ in range(30)]
    routes = set()
    for weights in members:
        total = sum(weights)
        p3 = sum(w**3 for w in weights)
        enumerated = levelk._least_cubes_enumerated(weights)
        dp = levelk._least_cubes_dp(weights, p3)
        for a, b in zip(enumerated, dp):
            assert np.array_equal(a, b), weights
        routes.add(1 << len(weights) <= total + 1)
        for t in sorted({-total - 1, -total, -1, 0, total // 3, total - 1, total}):
            h = make_halfspace(weights, t)
            assert levelk.sign_condition_holds(h, 3) == oracles.scanned_sign_condition(h, 3), (weights, t)
    assert routes == {True, False}


def test_levelk_suite_decides_the_third_level_once_per_member(monkeypatch):
    """SIGN-COND decides each (member, k) and keeps the verdict on the
    halfspace, so WK-PIPELINE reads it: one k = 3 DP per member."""
    members = []
    third = levelk._third_level_holds
    monkeypatch.setattr(levelk, "_third_level_holds",
                        lambda h, cut: members.append(h.to_text()) or third(h, cut))
    corpus = harness.corpus_gen("random-halfspace", {"n_lo": 10, "n_hi": 14, "count": 4}, seed=3)
    report, _ = harness.run_suite("levelk", corpus)
    assert {"SIGN-COND", "WK-PIPELINE"} <= {r.check_id for r in report.records}
    assert sorted(members) == sorted(parse_halfspace(e).to_text() for e in corpus.entries)


# -- the pipeline -------------------------------------------------------------------

def _member_wk(h, k):
    """W^k of the halfspace's truth table over its original coordinates."""
    return spectral.fwht_spectrum(h.truth_table()).level_weights().level(k)


@pytest.mark.parametrize("n", range(1, 13))
def test_wk_identity_member_table_matches_pipeline_table(n):
    """Level weights of the member's table equal those of the halfspace's own
    table over its nonzero weights sorted descending, at every level."""
    rng = np.random.default_rng(300 + n)
    for trial in range(4):
        # zero, repeated and rational weights
        nums = rng.integers(0, 4, size=n)
        dens = rng.integers(1, 4, size=n) if trial % 2 else np.ones(n, dtype=np.int64)
        weights = [F(int(a), int(b)) for a, b in zip(nums, dens)]
        if not any(weights):
            weights[-1] = F(1)
        total = sum(weights)
        h = make_halfspace(weights, total * F(int(rng.integers(-3, 4)), 4))
        levels = spectral.fwht_spectrum(h.truth_table()).level_weights()
        for k in range(n + 1):
            expect = oracles.table_level_weight(h, k) if k <= h.n else F(0)
            assert levels.level(k) == expect


def test_pipeline_majority15():
    h = make_halfspace([1] * 15, 9)
    report = levelk.level_k_pipeline(levelk.CubeScan(h), 2, _member_wk(h, 2))
    assert report.eps == F(121, 32768)
    assert report.beta == 2 and report.gamma == 4 and report.delta == 6
    assert report.sign_ok
    assert report.lower_ok in (None, True)
    assert report.upper_ok is True
    rec = levelk.pipeline_record(report)
    assert rec.status in ("pass", "hypothesis-not-met")
    assert report.ratio_stat > 0


def test_pipeline_k1_dictator():
    h = make_halfspace([1], 0)
    report = levelk.level_k_pipeline(levelk.CubeScan(h), 1, _member_wk(h, 1))
    assert report.upper_ok is True  # sign condition is the threshold rule itself
    assert report.ratio_stat > 0


def test_pipeline_vacuous_when_no_side_applies():
    h = make_halfspace([F(3), F(1), F(1)], 1)
    report = levelk.level_k_pipeline(levelk.CubeScan(h), 2, _member_wk(h, 2))
    assert not report.sign_ok
    assert report.lower_ok is None and report.upper_ok is None
    rec = levelk.pipeline_record(report)
    assert rec.status == "hypothesis-not-met"


def test_pipeline_matches_separate_routes():
    """The sign condition against a brute-force check over per-level doubling
    passes (e_1 is the dot value a.x), the arity cap of the cube scan, and the
    refusal of a degree above the count of nonzero weights."""
    rng = np.random.default_rng(4)
    seen = set()
    for n in (6, 9, 12):
        weights = [int(w) for w in rng.integers(1, 9, size=n)]
        h = make_halfspace(weights, sum(weights) // 3)
        for k in (1, 2, 3):
            brute = oracles.scanned_sign_condition(h, k)
            report = levelk.level_k_pipeline(levelk.CubeScan(h), k, _member_wk(h, k))
            assert report.sign_ok == brute
            seen.add(brute)
    assert seen == {True, False}
    wide = make_halfspace([1] * 25, 11)
    with pytest.raises(ValueError, match="capped at 24"):
        levelk.level_k_pipeline(levelk.CubeScan(wide), 2, F(0))
    sparse = make_halfspace([1, 0, 0, 0], 0)
    with pytest.raises(ValueError, match=r"level 2 outside 0\.\.1"):
        levelk.level_k_pipeline(levelk.CubeScan(sparse), 2, _member_wk(sparse, 2))


def test_hypotheses_stop_at_the_first_false_one(monkeypatch):
    """SIGN-COND, NG and the pipeline read the level-k hypotheses from one
    helper.  A member whose bias misses the cut runs no delta search for
    SIGN-COND or NG, and the pipeline reports the helper's four flags."""
    from cubelab.halfspace import Halfspace

    ctx = MemberContext("m", "ltf:1,1,1,1,1,1,1,1,1,1,1,1,1,1,1;9")
    h = ctx.halfspace
    hyps = {k: levelk.Hypotheses(h, k) for k in levelk.LEVELS}
    flags = {k: (hyp.small_top_ok, hyp.tall_threshold_ok, hyp.eta_ok, hyp.surrogate_ok)
             for k, hyp in hyps.items()}
    cube = levelk.CubeScan(h)
    for k in levelk.LEVELS:
        report = levelk.level_k_pipeline(cube, k, _member_wk(h, k))
        assert (report.small_top_ok, report.tall_threshold_ok, report.eta_ok,
                report.surrogate_ok) == flags[k]
        assert not hyps[k].surrogate_ok and not hyps[k].all()

    def no_search(*args):
        raise AssertionError("a delta search ran")

    monkeypatch.setattr(Halfspace, "_delta", no_search)
    fresh = MemberContext("m", ctx.entry)
    for cid in ("SIGN-COND", "NG"):
        assert REGISTRY[cid].fn(fresh, None)
    steep = levelk.Hypotheses(make_halfspace([1] * 20, 18), 2)  # eps = 2^-20
    assert steep.surrogate_ok and not steep.eta_ok and not steep.all()


def _same_bits(got, expect):
    return got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def test_point_weights_equal_the_class_gather_on_every_corpus_member():
    """At each level, at the member's threshold and delta, the window's
    point weights equal the class gather bit for bit on every halfspace
    member of the standard, builtin and tail corpora with n <= 20."""
    checked = 0
    for name in ("standard", "builtin", "tail"):
        for entry in harness.load_corpus(name).entries:
            h = MemberContext(name, entry).halfspace
            if h is None or h.n > 20 or h.tail(h.threshold) == 0:
                continue
            values = kernels.dot_values(h.scaled)
            for k in levelk.LEVELS:
                delta = h.decay_thresholds(h.threshold, k).delta
                got = levelk._point_weights(h, k, values, h.threshold, delta)
                assert _same_bits(got, oracles.class_point_weights(h, k, values, h.threshold, delta))
                checked += 1
    assert checked >= 300


@st.composite
def window_cases(draw):
    """Integer or half-integer weights, a level, and a threshold and width
    that put support values exactly at x = 0 and x = k, leave the window
    empty, reach the top value, or fall anywhere."""
    den = draw(st.sampled_from((1, 2)))
    weights = draw(st.lists(st.integers(1, 12), min_size=1, max_size=10))
    h = make_halfspace([F(w, den) for w in weights], 0)
    k = draw(st.sampled_from(levelk.LEVELS))
    uniq = h.distribution().support().values.tolist()
    kind = draw(st.sampled_from(("edges", "empty", "top", "anywhere")))
    i = draw(st.integers(0, len(uniq) - 1))
    if kind == "edges":  # x = (v - v_i) k / (v_j - v_i) is exactly 0 at v_i and k at v_j
        ends = [j for j in range(i + 1, len(uniq)) if (uniq[j] - uniq[i]) % k == 0]
        assume(ends)
        j = draw(st.sampled_from(ends))
        t, delta = F(uniq[i], h.scale), F((uniq[j] - uniq[i]) // k, h.scale)
    elif kind == "empty":  # every value above v_i lies at least one unit past it, x >= k
        t, delta = F(uniq[i], h.scale), F(1, k * h.scale)
    elif kind == "top":  # every x is below 1
        t, delta = F(uniq[i], h.scale), F(uniq[-1] - uniq[0] + 1, h.scale)
    else:
        t = F(draw(st.integers(uniq[0] - 4, uniq[-1] + 4)), 2 * h.scale)
        delta = F(draw(st.integers(1, 40)), draw(st.integers(1, 6)) * h.scale)
    return h, k, t, delta, kind


@given(window_cases())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_point_weights_equal_the_class_gather_at_the_window_edges(case):
    """Bit for bit on drawn members, each case checked to be the kind it was
    drawn as."""
    h, k, t, delta, kind = case
    uniq = h.distribution().support().values
    x = (uniq.astype(np.float64) - float(t * h.scale)) / float(delta * h.scale)
    inside = (x > 0) & (x < k)
    if kind == "edges":
        assert 0.0 in x and float(k) in x
    elif kind == "empty":
        assert not inside.any()
    elif kind == "top":
        assert (x < k).all()
    values = kernels.dot_values(h.scaled)
    got = levelk._point_weights(h, k, values, t, delta)
    assert _same_bits(got, oracles.class_point_weights(h, k, values, t, delta))


def test_pipeline_calls_the_cdf_only_inside_the_window(monkeypatch):
    """The scalar CDF runs at x strictly inside (0, k) alone: every other
    support value's weight is 0 or 1 without a call."""
    calls = []
    cdf = levelk.irwin_hall_cdf
    monkeypatch.setattr(levelk, "irwin_hall_cdf", lambda k, x: calls.append((k, x)) or cdf(k, x))
    for entry in harness.load_corpus("standard").entries[:10]:
        h = parse_halfspace(entry)
        cube = levelk.CubeScan(h)
        for k in levelk.LEVELS:
            levelk.level_k_pipeline(cube, k, F(0))
    assert calls and all(0 < x < k for k, x in calls)


def test_wk_pipeline_body_holds_no_class_array():
    """WK-PIPELINE on a 20-coordinate corpus member, its level weights and
    distribution read before, peaks below five 8 MiB cube arrays (three
    layers, the float e_k and the point weights) and one bool mask: no 2^20
    intp class index sits beside them."""
    corpus = harness.corpus_gen("random-halfspace", {"n_lo": 20, "n_hi": 20, "count": 1}, seed=3)
    ctx = MemberContext("n20", corpus.entries[0])
    ctx.level_weights, ctx.halfspace.distribution().support()
    recs, peak = _traced_peak(lambda: REGISTRY["WK-PIPELINE"].fn(ctx, None))
    assert [r.status for r in recs] == ["pass", "hypothesis-not-met"]
    assert peak < (5 * 8 + 1) * (1 << 20), peak


def test_pipeline_rejects_unbiased():
    h = make_halfspace([1, 1, 1], -2)
    with pytest.raises(ValueError):
        levelk.level_k_pipeline(levelk.CubeScan(h), 2, _member_wk(h, 2))
