import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from cubelab import kernels, levelk, spectral
from cubelab.halfspace import make_halfspace

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


# -- smoothed degree-k coefficients ------------------------------------------------

def test_smoothed_fourier_k1_matches_smoothed_influence():
    h = make_halfspace([F(3), F(2), F(2), F(1)], 1)
    for j in range(h.n):
        via_influence = h.smoothed_influence(h.order[j], 2) / 2
        via_fourier = levelk.smoothed_fourier(h, (j,), 2)
        assert via_fourier == pytest.approx(float(via_influence), abs=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_smoothed_fourier_matches_gather_route(n):
    """Bit for bit against the popcount-gather character the doubling step
    replaced, for every subset of up to three coordinates."""
    rng = np.random.default_rng(300 + n)
    h = make_halfspace([F(int(w)) for w in rng.integers(1, 6, size=n)], F(1, 2))
    vals = kernels.dot_values(h.scaled)
    uniq, inverse = np.unique(vals, return_inverse=True)
    for k in range(1, min(n, 3) + 1):
        for subset in combinations(range(n), k):
            mask = sum(1 << j for j in subset)
            signed_counts = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(signed_counts, inverse, oracles.gather_point_character(n, mask))
            weights = levelk._cdf_weights(h, k, uniq, h.threshold, F(3))
            expect = float(np.dot(signed_counts, weights)) / (1 << n)
            assert levelk.smoothed_fourier(h, subset, 3) == expect


def test_smoothed_fourier_empty_tail_is_zero():
    h = make_halfspace([1, 1, 1], 10)
    assert levelk.smoothed_fourier(h, (0, 1), 1) == 0.0


def test_smoothed_fourier_monte_carlo():
    h = make_halfspace([1] * 5, 0)
    delta = 4
    exact = levelk.smoothed_fourier(h, (0, 1), delta)
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
    ok, bound = levelk.smoothed_fourier_lower_bound(h, (0, 1), 4)
    assert ok
    assert levelk.smoothed_fourier(h, (0, 1), 4) >= bound - 1e-12
    ok, _ = levelk.smoothed_fourier_lower_bound(h, (0, 1), 1)
    assert not ok


def test_smoothed_fourier_validates():
    h = make_halfspace([1, 1], 0)
    with pytest.raises(ValueError):
        levelk.smoothed_fourier(h, (), 1)
    with pytest.raises(ValueError):
        levelk.smoothed_fourier(h, (0,), 0)


@pytest.mark.parametrize("subset", [(0, 5), (0, 0), (-1, 0), (3,), (1, 1, 2)])
def test_smoothed_fourier_refuses_repeated_or_outside_positions(subset):
    """k counts the subset's entries, so a repeated or out-of-range index would
    pair the k-fold CDF with the character of a smaller set."""
    h = make_halfspace([3, 2, 1], 1)
    with pytest.raises(ValueError, match="distinct positions"):
        levelk.smoothed_fourier(h, subset, 1)


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
        for k in (1, 2, 3, 4):
            table = levelk.elementary_symmetric_pointwise(h, k)
            assert table.shape == (1 << h.n,) and table.dtype == np.int64
            for m in range(1 << h.n):
                signed = [int(h.scaled[j]) * x for j, x in enumerate(oracles.point_signs(m, h.n))]
                assert table[m] == brute_esym(signed, k)


def test_elementary_symmetric_overflow_guard_boundary():
    # C(2, 2) * w^2 <= 2^62 admits w = 2^31 exactly, where e_2 = +-2^62
    h = make_halfspace([2**31, 2**31], 0)
    e2 = levelk.elementary_symmetric_pointwise(h, 2)
    assert e2.tolist() == [2**62, -(2**62), -(2**62), 2**62]
    with pytest.raises(OverflowError):
        levelk.elementary_symmetric_pointwise(make_halfspace([2**31 + 1, 2**31], 0), 2)


def test_sign_condition_majority():
    h = make_halfspace([1] * 9, 4)
    assert levelk.sign_condition_holds(h, 2)


def test_sign_condition_fails_with_heavy_weight():
    h = make_halfspace([F(3), F(1), F(1)], 1)
    assert not levelk.sign_condition_holds(h, 2)


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
    report = levelk.level_k_pipeline(h, 2, _member_wk(h, 2))
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
    report = levelk.level_k_pipeline(h, 1, _member_wk(h, 1))
    assert report.upper_ok is True  # sign condition is the threshold rule itself
    assert report.ratio_stat > 0


def test_pipeline_vacuous_when_no_side_applies():
    h = make_halfspace([F(3), F(1), F(1)], 1)
    report = levelk.level_k_pipeline(h, 2, _member_wk(h, 2))
    assert not report.sign_ok
    assert report.lower_ok is None and report.upper_ok is None
    rec = levelk.pipeline_record(report)
    assert rec.status == "hypothesis-not-met"


def test_pipeline_matches_separate_routes():
    """The sign condition, the arity cap of the cube scan, and the refusal of
    a degree above the count of nonzero weights."""
    rng = np.random.default_rng(4)
    for n in (6, 9, 12):
        weights = [int(w) for w in rng.integers(1, 9, size=n)]
        h = make_halfspace(weights, sum(weights) // 3)
        for k in (1, 2, 3):
            report = levelk.level_k_pipeline(h, k, _member_wk(h, k))
            assert report.sign_ok == levelk.sign_condition_holds(h, k)
    wide = make_halfspace([1] * 25, 11)
    with pytest.raises(ValueError, match="capped at 24"):
        levelk.level_k_pipeline(wide, 2, F(0))
    sparse = make_halfspace([1, 0, 0, 0], 0)
    with pytest.raises(ValueError, match=r"level 2 outside 0\.\.1"):
        levelk.level_k_pipeline(sparse, 2, _member_wk(sparse, 2))


def test_pipeline_rejects_unbiased():
    h = make_halfspace([1, 1, 1], -2)
    with pytest.raises(ValueError):
        levelk.level_k_pipeline(h, 2, _member_wk(h, 2))
