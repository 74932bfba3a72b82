from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelab.rational import common_scale

import flips
import oracles

F = Fraction


def signs(n):
    """All 2^n sign vectors, one a row."""
    return np.array(list(product((-1, 1), repeat=n)), dtype=np.int64).reshape(-1, n)


def one(flip, *args):
    """flip on a batch of one row: its images as tuples, None outside the domain."""
    *images, ok = flip(*args)
    if not ok[0]:
        return None
    images = [int(x[0]) if np.ndim(x) == 1 else tuple(x[0].tolist()) for x in images]
    return images[0] if len(images) == 1 else tuple(images)


def scaled(values, scale):
    return np.array([int(v * scale) for v in values], dtype=np.int64)


def distinct_rows(x) -> bool:
    return len(np.unique(x, axis=0)) == len(x)


# -- suffix flip ------------------------------------------------------------

def test_suffix_flip_hand_trace():
    u, v = (1, 1), (-1, -1)
    # difference sums are 0, 2, 4; level 2 is first reached after one step
    assert one(flips.suffix_flip, u, v, 2) == ((1, -1), (-1, 1))
    # difference sums 0, 2, 2: a level met but not exceeded cuts there
    assert one(flips.suffix_flip, (1, 1), (-1, 1), 2) == ((1, 1), (-1, 1))


def test_suffix_flip_nonpositive_level_swaps_everything():
    u, v = (3, -2), (5, 1)
    assert one(flips.suffix_flip, u, v, 0) == (v, u)
    assert one(flips.suffix_flip, u, v, -7) == (v, u)


def test_suffix_flip_involution_exhaustive():
    for n in (1, 2, 3, 4):
        x = signs(n)
        u, v = np.repeat(x, len(x), axis=0), np.tile(x, (len(x), 1))
        for r in (-1, 0, 1, 2):
            a, b, ok = flips.suffix_flip(u, v, r)
            back_u, back_v, back_ok = flips.suffix_flip(a[ok], b[ok], r)
            assert back_ok.all()
            assert (back_u == u[ok]).all() and (back_v == v[ok]).all()


def test_suffix_flip_domain_error():
    assert one(flips.suffix_flip, (1, 1), (1, 1), 1) is None


# -- prefix flip ------------------------------------------------------------

def test_prefix_flip_hand_traces():
    assert one(flips.prefix_flip, (1, 1), 2) == (-1, 1)
    assert one(flips.prefix_flip, (1,), 2) == (-1,)


def test_prefix_flip_drop_bound():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(1, 11))
        weights = [F(int(a), int(b)) for a, b in
                   zip(rng.integers(1, 9, size=n), rng.integers(1, 5, size=n))]
        # one level a row, drawn in the order the rows are listed
        levels = [F(int(rng.integers(-3, 6)), 2) for _ in range(1 << n)]
        scale = common_scale(weights + levels)
        u = signs(n) * scaled(weights, scale)
        r = scaled(levels, scale)
        v, ok = flips.prefix_flip(u, r)
        assert (2 * u[~ok].cumsum(axis=1).max(axis=1) < r[~ok]).all()
        drop = u[ok].sum(axis=1) - v[ok].sum(axis=1)
        assert (r[ok] <= drop).all()
        assert (drop < r[ok] + 2 * np.abs(u[ok]).max(axis=1)).all()


def test_prefix_flip_injective_exhaustive():
    v, ok = flips.prefix_flip(signs(12), 3)
    assert ok.any() and distinct_rows(v[ok])


# -- single coordinate flip ---------------------------------------------------

def test_single_coord_flip_hand_trace():
    # running sums 1, 0, 1: the first maximum sits at index 1
    assert one(flips.single_coord_flip, (1, -1, 1)) == (-1, -1, 1)


def test_single_coord_flip_singleton():
    assert one(flips.single_coord_flip, (1,)) == (-1,)
    assert one(flips.single_coord_unflip, (-1,)) == (1,)


def test_single_coord_flip_domain():
    assert one(flips.single_coord_flip, (-1, -1)) is None


def test_unflip_inverts_flip_exhaustive():
    for n in (1, 2, 5, 10):
        x = signs(n)
        y, ok = flips.single_coord_flip(x)
        back, back_ok = flips.single_coord_unflip(y[ok])
        assert back_ok.all() and (back == x[ok]).all()


def test_flip_moves_last_running_max():
    # after the flip, the last running-sum maximum sits one step earlier
    x = signs(9)
    y, ok = flips.single_coord_flip(x)
    assert ok.any()
    for xi, yi in zip(x[ok].tolist(), y[ok].tolist()):
        cut = oracles.first_max_index(oracles.running_sums(xi))
        assert oracles.last_max_index(oracles.running_sums(yi)[:-1]) == cut - 1


# -- weighted variant -----------------------------------------------------------

def test_weighted_flip_hand_traces():
    assert one(flips.weighted_coord_flip, (2, 1), (1, -1)) == (-1, -1)
    assert one(flips.weighted_coord_flip, (1, 2), (-1, 1)) == (-1, -1)


def test_weighted_flip_domain_from_positive_dot():
    rng = np.random.default_rng(1)
    for trial in range(200):
        n = int(rng.integers(1, 9))
        a = rng.integers(0, 7, size=n)
        x = rng.choice((-1, 1), size=n)
        if a @ x > 0:
            y = one(flips.weighted_coord_flip, a, x)
            assert y is not None
            assert one(flips.weighted_coord_unflip, a, y) == tuple(x.tolist())


def test_weighted_unflip_inverts_exhaustive():
    rng = np.random.default_rng(2)
    x = signs(10)
    for trial in range(5):
        a = rng.integers(1, 12, size=10)
        positive = x[x @ a > 0]
        y, ok = flips.weighted_coord_flip(a, positive)
        back, _ = flips.weighted_coord_unflip(a, y)
        assert ok.all() and (back == positive).all()


# -- the four-piece interval shift ------------------------------------------------

def check_cover(a, s, m):
    """Exhaustively verify the injection on its whole domain."""
    scale = common_scale(tuple(a) + (s, m))
    a, s, m = scaled(a, scale), int(s * scale), int(m * scale)
    sigma = signs(len(a))
    total = sigma @ a
    piece, out, ok = flips.interval_shift_map(a, s, m, sigma)
    assert (ok == ((s + m < total) & (total <= s + 3 * m))).all()
    new_total = out[ok] @ a
    assert ((s - m < new_total) & (new_total <= s + m)).all(), (a, s, m)
    for k in (1, 2, 3, 4):
        assert distinct_rows(out[ok & (piece == k)]), f"piece {k} collision"
    return int(ok.sum())


def test_interval_shift_cover_unit_weights():
    hit = check_cover((1,) * 10, 1, F(3, 2))
    assert hit > 0


def test_interval_shift_cover_random_weights():
    rng = np.random.default_rng(3)
    covered = 0
    for trial in range(12):
        n = int(rng.integers(2, 9))
        a = tuple(F(int(x), int(y)) for x, y in
                  zip(rng.integers(1, 8, size=n), rng.integers(1, 4, size=n)))
        m = max(a) * F(int(rng.integers(1, 4)), 2)
        if m < max(a):
            m = max(a)
        s = F(int(rng.integers(0, 6)), 2)
        covered += check_cover(a, s, m)
    assert covered > 50


@given(st.lists(st.integers(1, 9), min_size=1, max_size=10),
       st.integers(0, 8), st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_interval_shift_always_lands(pattern, s, seed):
    rng = np.random.default_rng(seed)
    a = np.array(pattern)
    m = int(a.max())
    sigma = rng.choice((-1, 1), size=len(a))
    total = int(a @ sigma)
    if not (s + m < total <= s + 3 * m):
        return
    piece, out = one(flips.interval_shift_map, a, s, m, sigma)
    new_total = int(a @ np.array(out))
    assert s - m < new_total <= s + m


# -- the batched maps against the scalar maps of the oracle ----------------------

def oracle_images(scalar_map, inputs, convert=tuple):
    """scalar_map on each tuple of arguments, its image converted; None where
    it raises DomainError."""
    out = []
    for args in inputs:
        try:
            out.append(convert(scalar_map(*args)))
        except oracles.DomainError:
            out.append(None)
    return out


def assert_matches(expected, ok, got):
    """The mask is exactly the oracle's domain, and the images agree on it."""
    assert ok.tolist() == [e is not None for e in expected]
    assert ([g for g, e in zip(got, expected) if e is not None]
            == [e for e in expected if e is not None])


def as_tuples(x):
    return [tuple(row) for row in x.tolist()]


def weight_sets(n, rng, lo=1):
    """Rational weights with ties (1, 1/2, 2, 2/2, 3, 3/2, ...) and weights
    drawn from small numerators (from lo) and denominators."""
    tied = [F(1 + i // 2, 1 + i % 2) for i in range(n)]
    drawn = [F(int(p), int(q)) for p, q in
             zip(rng.integers(lo, 5, size=n), rng.integers(1, 4, size=n))]
    return [tied, drawn]


def test_batched_maps_match_oracle_exhaustive():
    rng = np.random.default_rng(11)
    for n in range(1, 11):
        x = signs(n)
        rows = [(row,) for row in as_tuples(x)]
        y, ok = flips.single_coord_flip(x)
        assert_matches(oracle_images(oracles.single_coord_flip, rows), ok, as_tuples(y))
        y, ok = flips.single_coord_unflip(x)
        assert_matches(oracle_images(oracles.single_coord_unflip, rows), ok, as_tuples(y))

        for w in weight_sets(n, rng, lo=0):  # zero weights drawn too
            a = scaled(w, common_scale(w))
            for batched, scalar in ((flips.weighted_coord_flip, oracles.weighted_coord_flip),
                                    (flips.weighted_coord_unflip, oracles.weighted_coord_unflip)):
                y, ok = batched(a, x)
                expected = oracle_images(lambda row: scalar(w, row), rows)
                assert_matches(expected, ok, as_tuples(y))

        for w in weight_sets(n, rng):
            vectors = [tuple(wi * s for wi, s in zip(w, row)) for (row,) in rows]
            # every pair for n <= 5; past that every u with one drawn v
            if n <= 5:
                i, j = np.divmod(np.arange(len(x) ** 2), len(x))
            else:
                i, j = np.arange(len(x)), rng.permutation(len(x))
            span = sum(w)
            # levels below 0, at 0, inside the running sums and past every one
            for r in (-span, F(0), F(1, 2), span / 3, span, 2 * span + 1):
                scale = common_scale(w + [r])
                u, level = x * scaled(w, scale), int(r * scale)

                def ints(vec):
                    return tuple(int(t * scale) for t in vec)

                v, ok = flips.prefix_flip(u, level)
                expected = oracle_images(oracles.prefix_flip,
                                         [(vec, r) for vec in vectors], ints)
                assert_matches(expected, ok, as_tuples(v))
                new_u, new_v, ok = flips.suffix_flip(u[i], u[j], level)
                expected = oracle_images(
                    oracles.suffix_flip, [(vectors[p], vectors[q], r) for p, q in zip(i, j)],
                    lambda pair: tuple(map(ints, pair)))
                assert_matches(expected, ok, list(zip(as_tuples(new_u), as_tuples(new_v))))


def test_interval_shift_matches_oracle_exhaustive():
    rng = np.random.default_rng(12)
    cases = 0
    for n in range(1, 11):
        x = signs(n)
        rows = as_tuples(x)
        for w in weight_sets(n, rng):
            top = max(w)
            # m = 2 * top and past it leave no big class: every 2 a_i <= m
            for m, s in ((top, F(0)), (top * F(3, 2), F(1, 2)), (2 * top, F(1)),
                         (top * F(5, 2), F(7, 3))):
                scale = common_scale(w + [m, s])
                piece, out, ok = flips.interval_shift_map(
                    scaled(w, scale), int(s * scale), int(m * scale), x)
                expected = oracle_images(oracles.interval_shift_map,
                                         [(w, s, m, row) for row in rows])
                assert_matches(expected, ok, list(zip(piece.tolist(), as_tuples(out))))
                cases += int(ok.sum())
    assert cases > 1000


def test_interval_shift_refuses_what_the_oracle_refuses():
    for a, s, m in (((1, 0), 0, 1), ((1, 3), 0, 2), ((1, 1), -1, 1)):
        with pytest.raises(ValueError):
            oracles.interval_shift_map(a, s, m, (1, 1))
        with pytest.raises(ValueError):
            flips.interval_shift_map(a, s, m, [(1, 1)])


def test_int64_guard_at_its_exact_bound():
    # 2 n max|entry| must stay below 2^62: at n = 2 the largest entry is 2^60 - 1
    edge = (1 << 60) - 1
    for entry in (edge + 1, -(edge + 1)):
        for call in (lambda u: flips.suffix_flip(u, [(0, 0)], 0),
                     lambda u: flips.prefix_flip(u, 0),
                     flips.single_coord_flip, flips.single_coord_unflip,
                     lambda u: flips.weighted_coord_flip((1, 2), u)):
            with pytest.raises(ValueError, match="int64"):
                call([(entry, 1)])
    # at the edge the running sums reach 4 * edge < 2^62 and stay exact
    u, v = [(edge, edge)], [(-edge, -edge)]
    assert flips.suffix_flip(u, v, 4 * edge)[2][0]
    assert not flips.suffix_flip(u, v, 4 * edge + 1)[2][0]
    v, ok = flips.prefix_flip([(edge, edge)], 4 * edge)
    assert ok[0] and v.tolist() == [[-edge, -edge]]
    # the interval shift counts its weights, center and half-width as entries
    for s, m in ((0, edge + 1), (edge + 1, edge)):
        with pytest.raises(ValueError, match="int64"):
            flips.interval_shift_map((edge, 1), s, m, [(1, 1)])
    piece, out, ok = flips.interval_shift_map((edge, edge), 0, edge, [(1, 1), (1, -1)])
    assert ok.tolist() == [True, False] and piece[0] == 3 and out[0].tolist() == [1, -1]


def test_rationals_must_be_scaled_first():
    with pytest.raises(TypeError, match="common_scale"):
        flips.prefix_flip([(F(1, 2), F(1))], 1)
