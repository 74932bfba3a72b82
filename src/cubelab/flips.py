"""Injective measure-preserving transforms on batches of integer vectors.

These are the constructive maps behind the tail lemmas: swapping a suffix
between two vectors once their running difference reaches a level r,
negating a prefix of a single vector, and flipping one coordinate chosen
by the running-sum maximum.  Each map is invertible on its domain, so it
preserves the uniform measure on sign patterns.

Every map takes ``(rows, n)`` int64 arrays, one vector a row, and returns
its images with a boolean mask of the rows in its domain; an image outside
the domain means nothing.  Scale rationals to integers first, by one
common factor for vectors and levels (``rational.common_scale``).  Input
whose running sums could leave int64 (2 n max|entry| >= 2^62) is refused
with a ``ValueError`` before any work.
"""

from __future__ import annotations

import numpy as np

LIMIT = 1 << 62


def _ints(x) -> np.ndarray:
    x = np.asarray(x)
    if x.size and x.dtype.kind not in "iu":
        raise TypeError(f"entries must be int64 integers, not {x.dtype}; "
                        "scale rationals with rational.common_scale first")
    return x.astype(np.int64, copy=False)


def _rows(x, *levels) -> np.ndarray:
    """x as a 2-D int64 array, refused if its running sums (or the levels
    they are compared with) could leave int64."""
    x = np.atleast_2d(_ints(x))
    big = max(abs(int(v)) for v in (x.max(initial=0), x.min(initial=0), *levels))
    if 2 * x.shape[1] * big >= LIMIT:
        raise ValueError(f"running sums of {x.shape[1]} entries up to {big} could leave int64")
    return x


def _running(x: np.ndarray) -> np.ndarray:
    """Each row's partial sums after a leading 0 column."""
    return np.hstack([np.zeros((len(x), 1), dtype=np.int64), x.cumsum(axis=1)])


def _first_reach(sums: np.ndarray, r):
    """Each row's first index whose sum reaches r (one level, or one a row)."""
    hit = sums >= np.reshape(r, (-1, 1))
    return hit.argmax(axis=1), hit.any(axis=1)


def suffix_flip(u, v, r):
    """Swap the tails of each row pair (u, v) from the first index whose
    running difference-sum reaches r.

    The leading empty sum 0 counts, so r <= 0 swaps everything.  The map is
    an involution on its domain.  Returns (new_u, new_v, ok).
    """
    u, v = _rows(u), _rows(v)
    if u.shape != v.shape:
        raise ValueError("vectors must have equal length")
    cut, ok = _first_reach(_running(u - v), r)
    swap = np.arange(u.shape[1]) >= cut[:, None]
    return np.where(swap, v, u), np.where(swap, u, v), ok


def prefix_flip(u, r):
    """Negate each row's prefix up to the first index where twice the running
    sum reaches r; the output v satisfies sum(u) - sum(v) in [r, r + 2*max|u_i|).

    This is the suffix flip of (u, -u).  Returns (v, ok).
    """
    u = _rows(u)
    cut, ok = _first_reach(2 * _running(u), r)
    return np.where(np.arange(u.shape[1]) < cut[:, None], -u, u), ok


def single_coord_flip(x):
    """Flip the coordinate at the first running-sum maximum.

    Defined where some running sum is strictly positive.  Returns (y, ok).
    """
    x = _rows(x)
    sums = _running(x)
    cut = sums.argmax(axis=1)  # the leading 0 never attains a positive maximum
    ok = sums[np.arange(len(x)), cut] > 0
    return np.where(np.arange(x.shape[1]) == cut[:, None] - 1, -x, x), ok


def single_coord_unflip(y):
    """Inverse of single_coord_flip: flip just after the last running-sum
    maximum among prefixes 0..n-1 (the leading 0 included).  Total, so its
    mask is all True.  Returns (x, ok).
    """
    y = _rows(y)
    reversed_sums = _running(y)[:, -2::-1]
    cut = y.shape[1] - 1 - reversed_sums.argmax(axis=1)
    return np.where(np.arange(y.shape[1]) == cut[:, None], -y, y), np.ones(len(y), dtype=bool)


def _reordered(single_map, a, x):
    """single_map on x's columns by descending weight a, ties by index."""
    order = np.argsort(-_ints(a), kind="stable")
    x = _rows(x)
    y, ok = single_map(x[:, order])
    out = np.empty_like(x)
    out[:, order] = y
    return out, ok


def weighted_coord_flip(a, x):
    """Reorder by descending weight a (stable), flip, reorder back.

    Defined in particular wherever sum(a_i x_i) > 0.  Returns (y, ok).
    """
    return _reordered(single_coord_flip, a, x)


def weighted_coord_unflip(a, y):
    """Inverse of weighted_coord_flip; total.  Returns (x, ok)."""
    return _reordered(single_coord_unflip, a, y)


def interval_shift_map(a, s, m, sigma):
    """The four-piece injection pushing sum(a * sigma) from (s+m, s+3m] down
    into (s-m, s+m].

    Coordinates with weight at most m/2 form the small class; the rest the
    big class.  Pieces 1 and 2 prefix-flip the small class at level m or 2m;
    piece 3 flips one big coordinate; piece 4 flips a second one when piece 3
    lands past the target.  The weights a, center s and half-width m are
    integers, and each row of sigma a sign vector.  Returns (piece, out, ok):
    the piece index and flipped sign vector of each row, and the domain mask.
    """
    a = _ints(a)
    if (a <= 0).any():
        raise ValueError("weights must be positive")
    if a.max() > m:
        raise ValueError("m must dominate every weight")
    if s < 0:
        raise ValueError("the target center s must be nonnegative")
    sigma = _rows(sigma, a.max(), s, m)
    x = sigma * a
    total = x.sum(axis=1)
    ok = (s + m < total) & (total <= s + 3 * m)
    small = 2 * a <= m
    x_small = x[:, small]
    low = x_small.sum(axis=1) >= s + m
    piece = np.where(total <= s + 2 * m, 1, 2)
    flipped, _ = prefix_flip(x_small, np.where(piece == 1, m, 2 * m))
    out = sigma.copy()
    out[:, small] = np.where(low[:, None], np.sign(flipped), sigma[:, small])
    if small.all():  # no big class: every row of the domain is low
        return piece, out, ok

    # the flips are defined on the domain: a row that is not low, or that piece
    # 3 leaves above s + m, has a positive big-class dot, and with the weights
    # in descending order that forces a positive running sum of its signs
    big = ~small
    first, _ = weighted_coord_flip(a[big], sigma[:, big])
    second, _ = weighted_coord_flip(a[big], first)
    new_total = x_small.sum(axis=1) + first @ a[big]
    lands = (s - m < new_total) & (new_total <= s + m)
    piece = np.where(low, piece, np.where(lands, 3, 4))
    out[:, big] = np.where(low[:, None], sigma[:, big], np.where(lands[:, None], first, second))
    return piece, out, ok
