"""Each kernel against an independent slow route.

The ``*_backends_agree`` tests compare a kernel with ``oracles.py``, the
defining Walsh sum or a per-point loop; none of the slow routes calls the
kernel it checks.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cubelab import kernels
from cubelab.bfcore import BooleanFunction, from_truth_table
from cubelab.halfspace import distribution_from_scaled
from cubelab.spectral import fwht_spectrum, spectrum_by_definition

import oracles


def random_table(rng, n):
    return rng.integers(0, 2, size=1 << n).astype(np.uint8)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9])
def test_fwht_backends_agree(n):
    """The butterfly equals the O(4^n) transform from the defining sum."""
    f = from_truth_table(random_table(np.random.default_rng(n), n), n)
    got = kernels.fwht(f.table.astype(np.int64))
    assert np.array_equal(got, spectrum_by_definition(f).numerators)


@pytest.mark.parametrize("n", range(15))
def test_fwht_matches_butterfly(n):
    """Signed integer vectors against the int64 butterfly; max|a| * 2^n is at
    most 1000 * 2^14 < 2^24, so the stages run in float32 and give int32."""
    a = np.random.default_rng(n).integers(-1000, 1001, size=1 << n)
    got = kernels.fwht(a)
    assert got.dtype == np.int32
    assert np.array_equal(got, oracles.butterfly_walsh(a))


def test_fwht_matches_butterfly_table_n20():
    a = random_table(np.random.default_rng(20), 20).astype(np.int64)
    assert np.array_equal(kernels.fwht(a), oracles.butterfly_walsh(a))


@pytest.mark.parametrize("n", [0, 5, 13])
def test_fwht_exactness_guard_edge(n, monkeypatch):
    """max|a| * 2^n = 2^53 - 2^n is transformed exactly; 2^53 is refused
    before any matrix product runs."""
    top = (1 << (53 - n)) - 1
    signs = np.random.default_rng(n).choice([-1, 1], size=1 << n)
    assert kernels.fwht(np.full(1 << n, top, dtype=np.int64))[0] == (1 << 53) - (1 << n)
    for a in (np.full(1 << n, -top), signs * top):
        assert np.array_equal(kernels.fwht(a.astype(np.int64)), oracles.butterfly_walsh(a))

    def no_work(*args, **kwargs):
        raise AssertionError("matmul ran before the refusal")

    monkeypatch.setattr(np, "matmul", no_work)
    for edge in (top + 1, -(top + 1)):
        a = np.zeros(1 << n, dtype=np.int64)
        a[-1] = edge
        with pytest.raises(OverflowError, match="2\\^53"):
            kernels.fwht(a)


@pytest.mark.parametrize("n", [1, 6, 12])
def test_fwht_float32_edge(n):
    """max|a| * 2^n = 2^24 is transformed in float32 and one step past it in
    float64.  Past it every entry is +-(top + 1) but one, which is +-top, so
    sums such as 2^24 + 2^n - 1 are odd and above 2^24, where float32 rounds."""
    top = 1 << (24 - n)
    signs = np.random.default_rng(n).choice([-1, 1], size=1 << n)
    for step in (0, 1):
        magnitudes = np.full(1 << n, top + step)
        magnitudes[0] = top
        for a in (magnitudes, -magnitudes, signs * magnitudes):
            got = kernels.fwht(a)
            assert got.dtype == (np.int32 if step == 0 else np.int64)
            assert np.array_equal(got, oracles.butterfly_walsh(a))
        assert kernels.fwht(magnitudes)[0] == ((top + step) << n) - step


@pytest.mark.parametrize("n", [1, 4, 11])
def test_fwht_integer_dtypes_agree(n):
    """uint8, bool and int64 copies of one 0/1 vector give one int32 array."""
    table = random_table(np.random.default_rng(300 + n), n)
    expect = oracles.butterfly_walsh(table)
    for a in (table, table.astype(bool), table.astype(np.int64)):
        got = kernels.fwht(a)
        assert got.dtype == np.int32
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("block", [1 << 2, 1 << 4, 1 << 6])
def test_fwht_pieces_match_butterfly(block, monkeypatch):
    """With blocks of 2^2, 2^4 or 2^6 entries, n = 0..12 runs the blockwise
    low stages, the in-place pieces of every later stage and the in-place
    cast, in float32 (0/1 tables, signed values, the 2^24 edge) and in
    float64 (one step past that edge, and the 2^53 - 2^n edge)."""
    monkeypatch.setattr(kernels, "_WALSH_BLOCK", block)
    for n in range(13):
        rng = np.random.default_rng(block + n)
        signs = rng.choice([-1, 1], size=1 << n)
        cases = [(random_table(rng, n), np.int32),
                 (rng.integers(-(1 << (24 - n)), (1 << (24 - n)) + 1, size=1 << n), np.int32),
                 (signs << (24 - n), np.int32),
                 (signs * ((1 << (24 - n)) + 1), np.int64),
                 (signs * ((1 << (53 - n)) - 1), np.int64)]
        for a, dtype in cases:
            got = kernels.fwht(a)
            assert got.dtype == dtype
            assert np.array_equal(got, oracles.butterfly_walsh(a)), (n, a[:4])


def traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fwht_allocates_one_buffer():
    """A uint8 table at n = 20 is transformed in one float32 buffer that is
    cast in place to the int32 result, beside two 2^16-entry scratch blocks:
    no stage copy, ping-pong buffer or wider result."""
    n = 20
    table = random_table(np.random.default_rng(20), n)
    assert traced_peak(kernels.fwht, table) < 1.25 * 4 * (1 << n)


@pytest.mark.parametrize("n", range(1, 23))
def test_fwht_words_match_butterfly(n):
    """The transform read from the packed words equals the butterfly of the
    unpacked table, as int32, on a random table and, up to n = 20, the
    all-zero, all-one and single-point tables: n = 1..3 take the unpacked
    fallback, n = 4 and 5 are the chunks of one word, and from n = 17 the
    in-place stages run."""
    rng = np.random.default_rng(400 + n)
    tables = [random_table(rng, n)]
    if n <= 20:
        single = np.zeros(1 << n, dtype=np.uint8)
        single[rng.integers(1 << n)] = 1
        tables += [np.zeros(1 << n, dtype=np.uint8), np.ones(1 << n, dtype=np.uint8), single]
    for table in tables:
        got = kernels.fwht_words(from_truth_table(table, n).words, n)
        assert got.dtype == np.int32
        assert np.array_equal(got, oracles.butterfly_walsh(table)), table[:8]


def test_chunk_transforms_are_the_transform_of_their_bits():
    """Row u of the read-only int8 chunk table is the int64 transform of the
    16 bits of u, for every u < 2^16."""
    rows = kernels._chunk_transforms()
    bits = np.arange(1 << 16)[:, None] >> np.arange(16) & 1
    assert rows.dtype == np.int8 and rows.shape == (1 << 16, 16)
    assert np.array_equal(rows, oracles.butterfly_walsh(bits))
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1


def test_table_spectrum_unpacks_no_table():
    """After one warm call (which builds the chunk table), the spectrum of a
    20-coordinate table holds its int32 numerators and the block scratch
    pair, but no unpacked byte per point: that alone would take the peak
    past 1.25 * 4 * 2^n."""
    n = 20
    f = from_truth_table(random_table(np.random.default_rng(20), n), n)
    fwht_spectrum(f)
    assert traced_peak(fwht_spectrum, f) < 1.15 * 4 * (1 << n)


def stage_products(monkeypatch) -> list[tuple[int, int]]:
    """Record (rows, bytes between rows) of each np.matmul the Walsh stages
    make: a stage multiplies the rows of its data operand by the sign matrix."""
    products = []
    matmul = np.matmul

    def spy(a, b, **kwargs):
        if a.ndim == 2 and a.shape[0] == a.shape[1] == b.shape[-2]:
            products.append((b.shape[-2], b.strides[-2]))  # sign @ rows
        else:
            products.append((b.shape[0], a.strides[-1]))  # entries @ sign.T: adjacent rows
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return products


def test_walsh_stages_multiply_at_most_8_far_rows(monkeypatch):
    """No stage multiplies more than 8 rows lying 1 KiB or more apart: at the
    default block for table spectra of n = 16..22 and signed float64
    vectors, and at the block sizes the pieces test uses."""
    products = stage_products(monkeypatch)
    rng = np.random.default_rng(5)
    for n in range(16, 23):
        kernels.fwht_words(from_truth_table(random_table(rng, n), n).words, n)
    for n in (16, 20):
        kernels.fwht(rng.integers(-(1 << 30), 1 << 30, size=1 << n))
    for block in (1 << 2, 1 << 4, 1 << 6):
        monkeypatch.setattr(kernels, "_WALSH_BLOCK", block)
        for n in range(1, 13):
            table = random_table(rng, n)
            kernels.fwht(table)
            kernels.fwht_words(from_truth_table(table, n).words, n)
    far = [rows for rows, apart in products if apart >= 1 << 10]
    assert far and max(far) <= 8
    assert max(rows for rows, _ in products) == 16


def test_dot_values_fill_one_array():
    """The doubling writes into the int64 result: no concatenated halves."""
    n = 20
    w = np.random.default_rng(21).integers(1, 1 << 10, size=n)
    assert traced_peak(kernels.dot_values, w) < 1.25 * 8 * (1 << n)


@pytest.mark.parametrize("n", range(23))
def test_level_sums_backends_agree(n):
    """Squares of signed integer values binned by popcount, one block of rows
    at a time, against one masked pass per level; at n = 17 the 2^9 rows of
    2^8 entries are squared in four blocks, at n = 22 2^14 rows in 128.
    Values up to 2^n, or 2^((52 - n) // 2) from n = 18, keep the sum of
    squares below 2^53, as Parseval keeps that of Walsh numerators."""
    bound = 1 << min(n, (52 - n) // 2)
    values = np.random.default_rng(n).integers(-bound, bound + 1, size=1 << n)
    assert kernels.squared_level_sums(values, n) == oracles.masked_level_sums(values**2, n)


def test_fwht_matches_direct_sum():
    rng = np.random.default_rng(7)
    n = 6
    table = random_table(rng, n).astype(np.int64)
    got = kernels.fwht(table.copy())
    for mask in range(1 << n):
        total = 0
        for m in range(1 << n):
            sign = 1
            for i in range(n):
                if mask >> i & 1 and not m >> i & 1:
                    sign = -sign
            total += sign * table[m]
        assert got[mask] == total


def sum_counts_by_value(weights):
    """The kernel's counts keyed by a.x = 2s - T, zero counts dropped."""
    counts = kernels.signed_sum_counts(weights)
    total = int(np.sum(weights))
    assert counts.shape == (total + 1,)
    return {2 * s - total: int(c) for s, c in enumerate(counts) if c}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_signed_sum_counts_backends_agree(seed):
    """Random weights with 1-3 zeros against sign-pattern enumeration."""
    rng = np.random.default_rng(seed)
    w = rng.integers(1, 30, size=10).astype(np.int64)
    w[rng.permutation(10)[: seed + 1]] = 0
    assert sum_counts_by_value(w) == oracles.brute_sum_counts(w)


@pytest.mark.parametrize("weights", [[], [0], [0, 0, 0], [0, 3, 0, 1], [5, 0], [2, 2, 0, 7]])
def test_signed_sum_counts_zero_weights(weights):
    w = np.array(weights, dtype=np.int64)
    assert sum_counts_by_value(w) == oracles.brute_sum_counts(weights)


def test_signed_sum_counts_binomial():
    ones = np.ones(4, dtype=np.int64)
    assert list(kernels.signed_sum_counts(ones)) == [1, 4, 6, 4, 1]
    assert sum_counts_by_value(ones) == {-4: 1, -2: 4, 0: 6, 2: 4, 4: 1}


def test_signed_sum_counts_adds_weights_smallest_first(monkeypatch):
    """The DP gets the weights ascending, so its live prefix grows slowest,
    and the counts are those of the weights in the order given."""
    seen = []
    prefixes = kernels.subset_sum_prefixes
    monkeypatch.setattr(kernels, "subset_sum_prefixes", lambda w: seen.append(w.tolist()) or prefixes(w))
    w = np.array([9, 5, 0, 7, 1, 5, 2], dtype=np.int64)
    assert sum_counts_by_value(w) == oracles.brute_sum_counts(w)
    assert seen == [[0, 1, 2, 5, 5, 7, 9]]


def subset_counts(weights) -> dict[int, int]:
    """Number of subsets per subset sum, from sign-pattern enumeration."""
    total = sum(weights)
    return {int((v + total) / 2): c for v, c in oracles.brute_sum_counts(weights).items()}


@pytest.mark.parametrize("weights", [[], [0, 2], [3, 1, 4, 1, 5], [2, 2, 0, 7], [6], [1], [0],
                                     [0, 0, 3, 3], [5, 5, 5], [9, 1, 1, 2], [1, 8, 2, 2, 0, 4]])
def test_subset_sum_prefixes_backends_agree(weights):
    """Every prefix's half against enumeration of that prefix and against
    the full-width DP: zero and tied weights, odd and even totals, a weight
    larger than the sum before it and a single weight."""
    steps = [c.copy() for c in kernels.subset_sum_prefixes(np.array(weights, dtype=np.int64))]
    full = list(oracles.full_width_sum_prefixes(weights))
    assert len(steps) == len(full) == len(weights) + 1
    for k, half in enumerate(steps):
        prefix = sum(weights[:k])
        assert half.shape == (prefix // 2 + 1,)
        counts = subset_counts(weights[:k])
        assert half.tolist() == [counts.get(s, 0) for s in range(prefix // 2 + 1)]
        assert half.tolist() == full[k][: prefix // 2 + 1].tolist()
        assert not full[k][prefix + 1 :].any()
    assert np.array_equal(full[-1], kernels.signed_sum_counts(np.array(weights, dtype=np.int64)))


@pytest.mark.parametrize("seed", range(4))
def test_leave_one_out_window_backends_agree(seed):
    """Each weight divided out of the dense distribution's suffix counts,
    at every window top b, against counting the subsets of the other
    weights directly."""
    rng = np.random.default_rng(seed)
    w = [int(x) for x in rng.integers(1, 9, size=7)]
    total = sum(w)
    dist = distribution_from_scaled(np.array(w), 1, backend="dense")
    for j, wj in enumerate(w):
        others = subset_counts(w[:j] + w[j + 1 :])
        for b in range(-wj - 2, total + 3):
            expect = sum(c for s, c in others.items() if b - wj + 1 <= s <= b)
            assert dist.leave_one_out_window(wj, b) == expect


def test_exact_int_dtype_leaves_int64_at_2_to_63():
    assert kernels.exact_int_dtype(0) is np.int64
    assert kernels.exact_int_dtype((1 << 63) - 1) is np.int64
    assert kernels.exact_int_dtype(1 << 63) is object
    assert np.array([(1 << 63) - 1], dtype=kernels.exact_int_dtype((1 << 63) - 1))[0] == (1 << 63) - 1
    assert np.array([1 << 63], dtype=kernels.exact_int_dtype(1 << 63))[0] == 1 << 63


@pytest.mark.parametrize("n", [62, 63])
def test_subset_sum_prefixes_leave_int64_past_62_summands(n):
    """62 unit weights count in int64, 63 in Python ints (2^63 leaves
    int64); both yield the lower half of the binomial row at every step,
    and the mirrored counts are the whole row."""
    steps = kernels.subset_sum_prefixes(np.ones(n, dtype=np.int64))
    for k, half in enumerate(steps):
        assert half.dtype == (np.int64 if n <= 62 else object)
        assert half.tolist() == [math.comb(k, s) for s in range(k // 2 + 1)]
    counts = kernels.signed_sum_counts(np.ones(n, dtype=np.int64))
    assert counts.tolist() == [math.comb(n, s) for s in range(n + 1)]
    assert type(counts[n // 2]) is (np.int64 if n <= 62 else int)


def test_leave_one_out_window_on_python_int_counts():
    """One weight 3 and 100 weights 1, counts past int64: dividing out
    either weight leaves the other weights' subsets, in Python ints."""
    dist = distribution_from_scaled(np.array([3] + [1] * 100), 1)
    assert dist.support().counts.dtype == object

    def ones(m, s):  # subsets of m weights 1 with sum s
        return math.comb(m, s) if s >= 0 else 0

    for b in (-1, 0, 1, 2, 50, 51, 102, 103, 104):
        without_3 = ones(100, b - 2) + ones(100, b - 1) + ones(100, b)
        assert dist.leave_one_out_window(3, b) == without_3
        assert dist.leave_one_out_window(1, b) == ones(99, b) + ones(99, b - 3)


def test_dot_values_backends_agree():
    """Every point's value against a per-point sum; bit i set means +w[i]."""
    rng = np.random.default_rng(3)
    n = 11
    w = rng.integers(0, 20, size=n).astype(np.int64)
    got = kernels.dot_values(w)
    assert got.shape == (1 << n,)
    for m in range(1 << n):
        assert got[m] == sum(int(w[i]) if m >> i & 1 else -int(w[i]) for i in range(n))


def _fits_boundary(n, k):
    """The largest w with C(n, k) w^k <= 2^62: all n weights at w put e_k at
    the edge of what ``levelk.e_k_fits`` admits."""
    lo, hi = 0, 1 << 62
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if math.comb(n, k) * mid**k <= 1 << 62 else (lo, mid - 1)
    return lo


@pytest.mark.parametrize("n", range(13))
def test_elementary_symmetric_fill_matches_per_level_passes(n):
    """Every layer of the one fill against its own doubling pass, and
    ``dot_values`` against layer 1, on random weights, weights with zeros
    and, for each level k <= 3, n equal weights at the int64 boundary."""
    rng = np.random.default_rng(40 + n)
    cases = [rng.integers(1, 1 << 12, size=n), rng.integers(0, 3, size=n)]
    cases += [[_fits_boundary(n, k)] * n for k in range(1, 4) if k <= n]
    for w in cases:
        h = SimpleNamespace(scaled=np.array(w, dtype=np.int64), n=n)
        layers = kernels.elementary_symmetric(h.scaled, 3)
        assert np.array_equal(kernels.dot_values(h.scaled), layers[0])
        for k, layer in enumerate(layers, 1):
            try:
                expect = oracles.per_k_elementary_symmetric(h, k)
            except OverflowError:
                continue  # a wrapped layer: only the layers that fit are exact
            assert layer.dtype == np.int64 and np.array_equal(layer, expect)
    for k in range(1, min(n, 3) + 1):
        w = _fits_boundary(n, k)
        top = int(kernels.elementary_symmetric(np.full(n, w), k)[k - 1][-1])
        assert top == math.comb(n, k) * w**k  # every x_i = +1, the largest e_k


def direct_monotone_violations(f):
    table = f.table
    return sum(int(table[m]) > int(table[m | 1 << i])
               for m in range(1 << f.n) for i in range(f.n) if not m >> i & 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_table_kernels_backends_agree(n):
    """Influence, boundary and monotonicity scans against brute force.

    Covers a random table, both constant tables and a monotone threshold.
    """
    size = 1 << n
    rng = np.random.default_rng(n)
    weight = np.array([bin(m).count("1") for m in range(size)])
    tables = [random_table(rng, n), np.zeros(size, np.uint8), np.ones(size, np.uint8),
              (2 * weight >= n).astype(np.uint8)]
    for table in tables:
        f = from_truth_table(table, n)
        influence = kernels.influence_counts(f.words, n)
        assert list(influence) == [oracles.brute_influence(f, i) * size for i in range(n)]
        c0, c1 = kernels.boundary_counts(f.words, n)
        assert (c0, c1) == (oracles.brute_boundary(f, 0) * size,
                            oracles.brute_boundary(f, 1) * size)
        bad = kernels.monotone_violations(f.words, n)
        assert bad == direct_monotone_violations(f)
        assert (bad == 0) == oracles.brute_is_monotone(f)


def scan_tables(n):
    """Random (dense and sparse), constant, monotone-threshold and one
    dictator per coordinate: the dictator in coordinate i has every pair
    across i cut and no other, so each in-word shift (i < 6) and each word
    stride (i >= 6) meets a nonzero cut on its own."""
    size = 1 << n
    rng = np.random.default_rng(100 + n)
    points = np.arange(size)
    weight = np.bitwise_count(points)
    tables = [random_table(rng, n), (rng.random(size) < 0.97).astype(np.uint8),
              np.zeros(size, np.uint8), np.ones(size, np.uint8),
              (2 * weight.astype(np.int64) >= n).astype(np.uint8)]
    return tables + [(points >> i & 1).astype(np.uint8) for i in range(n)]


@pytest.mark.parametrize("n", [*range(1, 14), 20])
def test_packed_scans_match_uint8_oracle(n):
    """The scans of the packed words against the one-byte-per-point scans;
    below n = 6 the one word is tiled, and its unused bits stay 0."""
    for table in scan_tables(n):
        words = kernels.pack_bits(table)
        assert words.shape == (kernels.word_count(n),) and words.dtype == kernels.WORD
        assert kernels.influence_counts(words, n).tolist() == oracles.halves_influence_counts(table, n)
        assert kernels.boundary_counts(words, n) == oracles.halves_boundary_counts(table, n)
        assert kernels.monotone_violations(words, n) == oracles.halves_monotone_violations(table, n)
        assert np.array_equal(BooleanFunction(n, words).table, table)


@pytest.mark.parametrize("n", [6, 23])
def test_packed_scans_keep_two_scratch_arrays(n):
    """Each scan holds at most two word arrays of the table's size beside the
    words it reads (the boundary's "on" words and the cut scratch), with no
    full- or half-size temporary per coordinate.  The slack is the popcount's
    byte per word and 256 KiB for numpy's buffers of strided operands."""
    words = kernels.pack_bits(random_table(np.random.default_rng(n), n))
    for scan in (kernels.influence_counts, kernels.boundary_counts, kernels.monotone_violations):
        assert traced_peak(scan, words, n) < 2.125 * words.nbytes + (1 << 18), scan.__name__


@pytest.mark.parametrize("n", range(11))
def test_sign_products_match_gather(n):
    """The doubling character of the oracles, x^S over the points for a
    fixed S and over the masks S at a fixed point, against the popcount
    gather."""
    rng = np.random.default_rng(n)
    for mask in sorted({0, (1 << n) - 1, *rng.integers(0, 1 << n, size=6).tolist()}):
        got = oracles.sign_products((-1, 1) if mask >> i & 1 else (1, 1) for i in range(n))
        assert np.array_equal(got, oracles.gather_point_character(n, mask))
        got = oracles.sign_products((1, 1 if mask >> i & 1 else -1) for i in range(n))
        assert np.array_equal(got, oracles.gather_subset_character(n, mask))


def test_popcounts():
    for n in range(17):
        pc = kernels.popcounts(n)
        assert pc.dtype == np.uint8
        assert pc.tolist() == [bin(m).count("1") for m in range(1 << n)]


def unpacked(words, n):
    return BooleanFunction(n, words.copy()).table.astype(bool)


@pytest.mark.parametrize("n", [*range(1, 14), 17])
def test_set_subcube_matches_all_plus(n):
    """Random, empty and full coordinate sets, and sets of only in-word
    coordinates (below 6) and only word coordinates (6 up), on packed
    words, and several subcubes written into one table (their OR)."""
    rng = np.random.default_rng(n)
    sets = [[], list(range(n)), list(range(n))[::-1], list(range(min(n, 6))), list(range(6, n))]
    sets += [rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) for _ in range(6)]
    sets += [rng.choice(min(n, 6), size=int(rng.integers(1, min(n, 6) + 1)), replace=False)
             for _ in range(3)]
    union = np.zeros(1 << n, dtype=bool)
    words = kernels.zero_words(n)
    for coords in sets[1:]:
        alone = np.zeros_like(words)
        kernels.set_subcube(alone, n, coords)
        assert np.array_equal(unpacked(alone, n), oracles.all_plus(n, coords))
        kernels.set_subcube(words, n, coords)
        union |= oracles.all_plus(n, coords)
        assert np.array_equal(unpacked(words, n), union)
    kernels.set_subcube(words, n, sets[0])
    assert words.dtype == kernels.WORD and unpacked(words, n).all()
    assert kernels.count_ones(words) == 1 << n  # no bit past the table's points


@pytest.mark.parametrize("coords", [[-1], [4], [0, 4], [2, -3]])
def test_set_subcube_refuses_coordinate_outside_cube(coords):
    """Refused before any write, on the one word of 16 points, and on the
    words of 512 points beside a valid word coordinate (7); 4 stands for n,
    one past the top coordinate."""
    for n, extra in ((4, []), (9, [7])):
        words = kernels.pack_bits(random_table(np.random.default_rng(0), n))
        before = words.copy()
        with pytest.raises(ValueError, match="outside"):
            kernels.set_subcube(words, n, [n if i == 4 else i for i in coords] + extra)
        assert np.array_equal(words, before)


def test_set_subcube_refuses_non_contiguous_table():
    base = kernels.pack_bits(random_table(np.random.default_rng(1), 9))
    before = base.copy()
    with pytest.raises(ValueError, match="C-contiguous"):
        kernels.set_subcube(base[::2], 8, [0])
    assert np.array_equal(base, before)
