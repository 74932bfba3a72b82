"""Hot numeric kernels on plain integer numpy arrays.

Point m of the cube has x_i = +1 where bit i of m is set and x_i = -1
where it is clear.  Each kernel is one vectorized numpy algorithm; its
independent slow route is in the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np


def fwht(a: np.ndarray) -> np.ndarray:
    """In-place signed Walsh transform of an int64 vector of length 2**n.

    Output index is a subset mask S; entry S becomes sum_m a[m] * sign(S, m)
    where sign(S, m) = prod over i in S of (+1 if bit i of m else -1).
    """
    size = a.shape[0]
    h = 1
    while h < size:
        view = a.reshape(-1, 2, h)
        low = view[:, 0, :].copy()
        view[:, 0, :] = low + view[:, 1, :]
        view[:, 1, :] -= low
        h *= 2
    return a


def signed_sum_counts(weights: np.ndarray) -> np.ndarray:
    """Counts of sum(w_i * x_i) over sign vectors x, as a dense array.

    Entry s holds the number of sign vectors whose sum equals 2s - T with
    T = sum(weights): the x_i = +1 coordinates form a subset of sum s, and
    a.x = 2s - T.  Weights must be nonnegative.
    """
    for counts in subset_sum_prefixes(weights):
        pass
    return counts


def subset_sum_prefixes(weights: np.ndarray):
    """Yield the subset-sum counts of weights[:k] for k = 0, 1, ..., n.

    Each yielded array has sum(weights) + 1 cells, entry s counting the
    subsets of weights[:k] that sum to s; cells past that prefix's sum are
    zero.  The DP adds one weight per step on its live prefix, with two
    buffers allocated once and swapped, so a yielded array is overwritten
    two steps later; only the last one is the caller's to keep.
    """
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    total = int(weights.sum())
    cur = np.zeros(total + 1, dtype=np.int64)
    nxt = np.zeros(total + 1, dtype=np.int64)
    cur[0] = 1
    top = 0  # largest subset sum reached; both buffers are zero above it
    yield cur
    for w in weights:
        w = int(w)
        # nxt[s] = cur[s] + cur[s - w] on the live prefix 0..top + w
        np.copyto(nxt[:w], cur[:w])
        np.add(cur[w : top + w + 1], cur[: top + 1], out=nxt[w : top + w + 1])
        top += w
        cur, nxt = nxt, cur
        yield cur


def leave_one_out_window(cum: np.ndarray, w: int, b: int) -> int:
    """Subsets of the other weights with sum in b - w + 1..b, weight w removed.

    cum[s + 1] = P[0] + ... + P[s] for the subset-sum counts P of all the
    weights, w > 0 among them, and cum[0] = 0.  P(z) = Q(z) * (1 + z^w)
    gives Q[s] = P[s] - P[s - w] + P[s - 2w] - ..., so the window of Q is
    the alternating sum of P's windows (b - (i+1)w, b - iw] for i >= 0.
    Those windows are disjoint, so every term and every partial sum counts
    at most 2^n <= 2^62 subsets and int64 is exact.
    """
    if not 0 <= b < len(cum) - 1:
        return 0  # Q has no mass below 0 or above sum(P) - w
    edges = np.arange(b + 1, -w, -w)  # cum indices b + 1, b + 1 - w, ... down past 0
    ends = cum[np.maximum(edges, 0)]
    terms = ends[:-1] - ends[1:]
    return int(terms[0::2].sum()) - int(terms[1::2].sum())


def dot_values(weights: np.ndarray) -> np.ndarray:
    """sum(w_i * x_i) for every point m of the cube."""
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    out = np.zeros(1, dtype=np.int64)
    for w in weights:
        out = np.concatenate([out - int(w), out + int(w)])
    return out


def _halves(table: np.ndarray, n: int):
    """For each coordinate i, the views of table at x_i = -1 and x_i = +1.

    Entry j of the first view and entry j of the second are neighbours
    across coordinate i.
    """
    for i in range(n):
        view = table.reshape(-1, 2, 1 << i)
        yield view[:, 0, :], view[:, 1, :]


def influence_counts(table: np.ndarray, n: int) -> np.ndarray:
    """Per-coordinate count of points m with table[m] != table[m ^ e_i]."""
    return np.array([2 * int(np.count_nonzero(lo != hi)) for lo, hi in _halves(table, n)],
                    dtype=np.int64)


def boundary_counts(table: np.ndarray, n: int) -> tuple[int, int]:
    """Counts of 0-side and 1-side vertex-boundary points of the truth table."""
    on_boundary = np.zeros(table.shape[0], dtype=bool)
    for (lo, hi), (b_lo, b_hi) in zip(_halves(table, n), _halves(on_boundary, n)):
        cut = lo != hi
        b_lo |= cut
        b_hi |= cut
    c1 = int(np.count_nonzero(table[on_boundary]))
    return int(np.count_nonzero(on_boundary)) - c1, c1


def monotone_violations(table: np.ndarray, n: int) -> int:
    """Number of directed edges with f = 1 below and f = 0 above."""
    return sum(int(np.count_nonzero(lo > hi)) for lo, hi in _halves(table, n))


def all_plus(n: int, coords) -> np.ndarray:
    """Bool table of the points with x_i = +1 for every i in coords."""
    table = np.ones(1 << n, dtype=bool)
    for i in coords:
        table.reshape(-1, 2, 1 << int(i))[:, 0, :] = False
    return table


def popcounts(n: int) -> np.ndarray:
    """popcount of every index below 2**n, as int64."""
    m = np.arange(1 << n, dtype=np.uint32)
    m = m - ((m >> 1) & 0x55555555)
    m = (m & 0x33333333) + ((m >> 2) & 0x33333333)
    m = (m + (m >> 4)) & 0x0F0F0F0F
    return ((m * 0x01010101) >> 24).astype(np.int64)
