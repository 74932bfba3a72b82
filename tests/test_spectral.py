import math
from fractions import Fraction

import numpy as np
import pytest

from cubelab import bfcore, kernels, spectral

import oracles


def test_dictator_spectrum():
    spec = spectral.fwht_spectrum(bfcore.dictator(3))
    assert spec.coefficient(0) == Fraction(1, 2)
    assert spec.coefficient(1) == Fraction(1, 2)
    for mask in range(2, 8):
        assert spec.coefficient(mask) == 0


def test_majority3_spectrum():
    f = bfcore.majority(3)
    spec = spectral.fwht_spectrum(f)
    expected = oracles.brute_spectrum(f)
    for mask, value in expected.items():
        assert spec.coefficient(mask) == value
    assert spec.coefficient(0b001) == Fraction(1, 4)
    assert spec.coefficient(0b111) == Fraction(-1, 4)
    assert spec.level_weights().level(1) == Fraction(3, 16)
    assert spec.level_weights().level(3) == Fraction(1, 16)


def test_paper5_first_level():
    spec = spectral.fwht_spectrum(bfcore.paper5())
    for i in range(5):
        assert spec.coefficient(1 << i) == Fraction(1, 16)


def test_fwht_equals_definition_exhaustive_n3():
    for code in range(256):
        f = bfcore.from_truth_table([code >> m & 1 for m in range(8)], 3)
        fast = spectral.fwht_spectrum(f)
        slow = spectral.spectrum_by_definition(f)
        assert np.array_equal(fast.numerators, slow.numerators)


def test_fwht_equals_definition_random():
    rng = np.random.default_rng(123)
    for _ in range(10):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << 8), 8)
        fast = spectral.fwht_spectrum(f)
        slow = spectral.spectrum_by_definition(f)
        assert np.array_equal(fast.numerators, slow.numerators)


def test_parseval_random():
    rng = np.random.default_rng(9)
    for n in (2, 5, 10):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n)
        assert spectral.parseval_holds(f)
        weights = spectral.fwht_spectrum(f).level_weights()
        assert weights.total() == f.mean


def test_level_weights_trivial():
    spec = spectral.fwht_spectrum(bfcore.dictator(4))
    assert spec.level_weights().level(1) == Fraction(1, 4)
    zero = bfcore.from_truth_table([0] * 16, 4)
    zspec = spectral.fwht_spectrum(zero)
    for k in range(1, 5):
        assert zspec.level_weights().level(k) == 0
    with pytest.raises(ValueError):
        spec.level_weights().level(5)


@pytest.mark.parametrize("n", [*range(1, 13), 20])
def test_level_weights_match_masked_oracle(n):
    """The binned product against one masked int64 pass per level; odd and
    even n split the mask bits unevenly and evenly."""
    f = bfcore.from_truth_table(np.random.default_rng(n).integers(0, 2, size=1 << n), n)
    spec = spectral.fwht_spectrum(f)
    expect = oracles.masked_level_sums(spec.numerators.astype(np.int64) ** 2, n)
    weights = spec.level_weights()
    assert [weights.level(k) for k in range(n + 1)] == [Fraction(w, 1 << 2 * n) for w in expect]


def test_level_weights_memo_equals_fresh_level_sums(monkeypatch):
    """The spectrum sums its level weights once, on the first call; every
    later call returns that object, equal to a fresh kernels.squared_level_sums."""
    calls = []
    squared_level_sums = kernels.squared_level_sums

    def counting(numerators, n):
        calls.append(n)
        return squared_level_sums(numerators, n)

    for n in (1, 5, 10):
        f = bfcore.from_truth_table(np.random.default_rng(40 + n).integers(0, 2, size=1 << n), n)
        spec = spectral.fwht_spectrum(f)
        fresh = kernels.squared_level_sums(spec.numerators, n)
        monkeypatch.setattr(kernels, "squared_level_sums", counting)
        first = spec.level_weights()
        assert spec.level_weights() is first
        assert spectral.noise_stability(f, Fraction(1, 3), spec) == sum(
            Fraction(1, 3) ** k * Fraction(fresh[k], 1 << 2 * n) for k in range(1, n + 1))
        monkeypatch.undo()
        assert [first.level(k) for k in range(n + 1)] == \
            [Fraction(w, 1 << 2 * n) for w in fresh]
    assert calls == [1, 5, 10]


def test_level_weights_at_the_table_cap():
    """At n = 24 the all-ones table sits exactly on the float32 bound of the
    transform, max|a| * 2^n = 2^24, so its numerators are int32; its level
    weights and the dictator's are closed forms."""
    n = 24
    ones = spectral.fwht_spectrum(bfcore.from_truth_table(np.ones(1 << n, dtype=np.uint8), n))
    assert ones.numerators.dtype == np.int32
    assert ones.numerators[0] == 1 << 24
    weights = ones.level_weights()
    assert weights.level(0) == 1
    assert weights.total() == 1
    del ones, weights
    dictator = spectral.fwht_spectrum(bfcore.dictator(n)).level_weights()
    assert [dictator.level(k) for k in range(n + 1)] == [Fraction(1, 4)] * 2 + [0] * (n - 1)


def test_level_weights_refuse_past_26():
    """Float64 level sums are exact only to n = 26; a one-entry stand-in
    spectrum shows the refusal needs no 2^n array."""
    with pytest.raises(ValueError, match="n <= 26"):
        spectral.FourierSpectrum(27, np.zeros(1, dtype=np.int64)).level_weights()


def test_cumulative_weight_excludes_level0_by_default():
    weights = spectral.fwht_spectrum(bfcore.dictator(2)).level_weights()
    assert weights.level(0) == Fraction(1, 4)
    assert weights.cumulative(1) == Fraction(1, 4)


def test_covariance_examples():
    f5 = bfcore.paper5()
    maj = bfcore.majority(5)
    assert spectral.covariance(f5, maj) == Fraction(-1, 16)
    # g' = 1{x1+x2+x3+x4-x5 > 0}, built directly from signs
    table = []
    for m in range(32):
        s = sum(1 if m >> i & 1 else -1 for i in range(4))
        s -= 1 if m >> 4 & 1 else -1
        table.append(1 if s > 0 else 0)
    gprime = bfcore.from_truth_table(table, 5)
    assert spectral.covariance(f5, gprime) == Fraction(1, 8)
    mu = f5.mean
    assert spectral.covariance(f5, f5) == mu * (1 - mu)
    with pytest.raises(ValueError):
        spectral.covariance(f5, bfcore.dictator(4))


def test_noise_stability_examples():
    d = bfcore.dictator(3)
    for rho in (Fraction(1, 3), Fraction(4, 5), 1):
        assert spectral.noise_stability(d, rho) == Fraction(rho) / 4
    f = bfcore.majority(5)
    mu = f.mean
    assert spectral.noise_stability(f, 1) == mu * (1 - mu)
    exact = spectral.noise_stability(f, Fraction(1, 2))
    assert abs(spectral.noise_stability(f, 0.5) - float(exact)) < 1e-12
    with pytest.raises(ValueError):
        spectral.noise_stability(f, 1.5)


def noise_operator_at(f, rho, m, spec=None):
    """T_rho f at cube point m, sum_S rho^|S| f-hat(S) x^S, from the doubling
    character of oracles.sign_products and one masked sum per level of the
    signed numerators; exact for rational rho."""
    spec = spec or spectral.fwht_spectrum(f)
    n = f.n
    signs = oracles.sign_products((1, 1 if m >> i & 1 else -1) for i in range(n))
    sums = oracles.masked_level_sums(spec.numerators * signs, n)
    if isinstance(rho, (int, Fraction)):
        return sum(Fraction(rho) ** k * Fraction(s, 1 << n) for k, s in enumerate(sums))
    return sum(rho**k * (s / (1 << n)) for k, s in enumerate(sums))


def test_noise_operator_at_zero_rho_is_mean():
    f = bfcore.majority(5)
    for m in (0, 7, 31):
        assert noise_operator_at(f, 0, m) == f.mean


def test_noise_operator_at_one_recovers_function():
    f = bfcore.paper5()
    table = f.table
    for m in (0, 5, 21, 31):
        assert noise_operator_at(f, 1, m) == int(table[m])


@pytest.mark.parametrize("n", [1, 3, 6, 8])
def test_noise_operator_at_matches_defining_sum(n):
    """T_rho f(m) = sum_S rho^|S| f-hat(S) x^S from the brute spectrum."""
    rng = np.random.default_rng(100 + n)
    f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n)
    rho = Fraction(1, 3)
    coefficients = oracles.brute_spectrum(f)
    for m in {0, (1 << n) - 1, *rng.integers(0, 1 << n, size=3).tolist()}:
        x = oracles.point_signs(m, n)
        expect = Fraction(0)
        for mask, coefficient in coefficients.items():
            chi = 1
            for i in range(n):
                if mask >> i & 1:
                    chi *= x[i]
            expect += rho ** bin(mask).count("1") * coefficient * chi
        assert noise_operator_at(f, rho, m) == expect


@pytest.mark.parametrize("n", range(1, 9))
def test_spectrum_by_definition_pointwise(n):
    """Every numerator against sum_m f(m) * (-1)^popcount(S & ~m)."""
    f = bfcore.from_truth_table(np.random.default_rng(n).integers(0, 2, size=1 << n), n)
    got = spectral.spectrum_by_definition(f).numerators
    table = f.table
    ones = [m for m in range(1 << n) if table[m]]
    for mask in range(1 << n):
        assert got[mask] == sum(1 - 2 * (bin(mask & ~m).count("1") & 1) for m in ones)


@pytest.mark.parametrize("n", [1, 4, 9, 12])
def test_noise_operator_at_matches_gather_route(n):
    """Float and exact rho, bit for bit against the popcount-gather
    character the doubling step replaced."""
    rng = np.random.default_rng(200 + n)
    f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n)
    spec = spectral.fwht_spectrum(f)
    for m in {0, (1 << n) - 1, *rng.integers(0, 1 << n, size=3).tolist()}:
        sums = oracles.masked_level_sums(spec.numerators * oracles.gather_subset_character(n, m), n)
        for rho in (0.3, Fraction(2, 7)):
            exact = isinstance(rho, Fraction)
            expect = sum(rho**k * (Fraction(s, 1 << n) if exact else s / (1 << n))
                         for k, s in enumerate(sums))
            assert noise_operator_at(f, rho, m, spec) == expect


def test_noise_operator_float_close_to_exact():
    f = bfcore.majority(3)
    exact = noise_operator_at(f, Fraction(1, 3), 5)
    approx = noise_operator_at(f, 1 / 3, 5)
    assert math.isclose(float(exact), approx, abs_tol=1e-12)


def test_noise_sensitivity_matches_stability():
    f = bfcore.majority(5)
    eta = 0.1
    rho = 1 - 2 * eta
    mu = float(f.mean)
    expect = 2 * (mu * (1 - mu) - float(spectral.noise_stability(f, Fraction(rho).limit_denominator(10**9))))
    assert math.isclose(spectral.noise_sensitivity(f, eta), expect, abs_tol=1e-9)


def test_fwht_equals_definition_n12_sample():
    # wider-arity spot check of the same agreement, beyond the exhaustive n=3
    rng = np.random.default_rng(12)
    for _ in range(12):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << 12), 12)
        fast = spectral.fwht_spectrum(f)
        slow = spectral.spectrum_by_definition(f)
        assert np.array_equal(fast.numerators, slow.numerators)
