"""Hot numeric kernels on plain integer numpy arrays.

Point m of the cube has x_i = +1 where bit i of m is set and x_i = -1
where it is clear.  The truth-table scans (influence, boundary,
monotonicity) run on the table packed one bit per point into little-endian
uint64 words: bit b of word q is point 64q + b, so coordinates 0..5 index
bits inside a word and coordinate i >= 6 pairs word q with word
q + 2^(i - 6).  Seen as ``table.reshape((2,) * n)``, a table has axis
n - 1 - i for coordinate i (bit i of a point index), so a subcube that
fixes x_i = +1 for i in a set of coordinates is the slice taking index 1
on those axes and every index on the others.  Each kernel is one
vectorized numpy algorithm; its independent slow route is in the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

import functools

import numpy as np


_WALSH_BLOCK = 1 << 16  # entries per block and per piece of fwht's stages


def fwht(a: np.ndarray) -> np.ndarray:
    """Signed Walsh transform of an integer vector of length 2**n, as a new array.

    a may have any integer or bool dtype; it is not changed.  Output index is
    a subset mask S; entry S becomes sum_m a[m] * sign(S, m) where
    sign(S, m) = prod over i in S of (+1 if bit i of m else -1).

    The transform is the n-th Kronecker power of [[1, 1], [-1, 1]] (rows S,
    columns m), applied four coordinates at a time as matrix products.
    Every product, partial sum and intermediate entry is an integer of
    magnitude at most peak = max|a| * 2**n, so the stages run in float32
    when peak <= 2**24 (every such integer is a float32) and in float64 when
    peak < 2**53; a larger input is refused before any work.

    The work happens in one buffer of 2**n entries.  The low coordinates
    are transformed one block of _WALSH_BLOCK entries at a time in a
    block-sized scratch pair, and each block is written to the buffer once;
    every later stage runs in place, one piece of at most _WALSH_BLOCK
    entries at a time through the scratch.  The buffer is then cast in place
    to the integer type of its width and returned: int32 after float32
    stages (|entry| <= 2**24), int64 after float64 stages.
    """
    n = a.shape[0].bit_length() - 1
    peak = max(int(a.max()), -int(a.min())) << n
    if peak >= 1 << 53:
        raise OverflowError(f"max|a| * 2^n = {peak} is not below 2^53; "
                            "the float64 Walsh transform would not be exact")
    real, whole = (np.float32, np.int32) if peak <= 1 << 24 else (np.float64, np.int64)
    out = np.empty(a.shape[0], dtype=real)
    block = min(a.shape[0], _WALSH_BLOCK)
    low = block.bit_length() - 1  # coordinates transformed inside a block
    x, y = np.empty(block, dtype=real), np.empty(block, dtype=real)
    for start in range(0, a.shape[0], block):
        x[:] = a[start : start + block]
        src, dst = x, y
        for done in range(0, low, 4):
            c = min(4, low - done)
            sign = _sign_matrix(c, real)
            if done == 0:
                # one (block/2^c x 2^c) product; a stack of 2^c x 1 columns is slow
                np.matmul(src.reshape(-1, 1 << c), sign.T, out=dst.reshape(-1, 1 << c))
            else:
                np.matmul(sign, src.reshape(-1, 1 << c, 1 << done),
                          out=dst.reshape(-1, 1 << c, 1 << done))
            src, dst = dst, src
        out[start : start + block] = src
    done = low
    while done < n:
        c = min(4, n - done, low)
        sign = _sign_matrix(c, real)
        cols = block >> c  # a piece is 2^c rows of this many entries
        piece = x.reshape(1 << c, cols)
        for rows in out.reshape(-1, 1 << c, 1 << done):
            for j in range(0, 1 << done, cols):
                np.matmul(sign, rows[:, j : j + cols], out=piece)
                rows[:, j : j + cols] = piece
        done += c
    result = out.view(whole)
    result[:] = out  # one forward pass over equal-width entries: no copy is made
    return result


@functools.cache
def _sign_matrix(c: int, dtype) -> np.ndarray:
    """The 2^c x 2^c Walsh sign matrix of c coordinates, rows S, columns m."""
    sign = np.ones((1, 1))
    for _ in range(c):
        sign = np.kron(sign, [[1.0, 1.0], [-1.0, 1.0]])
    sign = sign.astype(dtype)
    sign.flags.writeable = False
    return sign


_SQUARE_BLOCK = 1 << 15  # entries squared at a time by squared_level_sums


def squared_level_sums(numerators: np.ndarray, n: int) -> list[int]:
    """Sum of numerators[S]**2 over the masks S of each popcount k = 0..n, as ints.

    The high ceil(n/2) and low floor(n/2) bits of S are binned by one-hot
    popcount matrices, P = Hi^T (squares as 2^hi x 2^lo) Lo, and level k
    sums P[a, c] over a + c = k.  The squares are taken in float64 one block
    of about 2^15 entries (whole rows) at a time and binned by Lo at once,
    so no 2^n array of squares is made.  Each square and partial sum is an
    integer no larger than sum numerators**2, so the result is exact while
    that sum is below 2^53.  For Walsh numerators of a 0/1 table it is at
    most 4^n (Parseval), so n > 26 is refused.
    """
    if n > 26:
        raise ValueError(f"level sums are exact in float64 only for n <= 26, got n = {n}")
    lo = n // 2
    hi = n - lo
    hi_hot = np.eye(hi + 1)[popcounts(hi)]
    lo_hot = np.eye(lo + 1)[popcounts(lo)]
    rows = np.asarray(numerators).reshape(1 << hi, 1 << lo)
    step = max(1, _SQUARE_BLOCK >> lo)
    squares = np.empty((min(step, 1 << hi), 1 << lo))
    by_row = np.empty((1 << hi, lo + 1))  # by_row[r, c]: squares of row r with low popcount c
    for r in range(0, 1 << hi, step):
        np.square(rows[r : r + step], out=squares, dtype=np.float64)
        np.matmul(squares, lo_hot, out=by_row[r : r + step])
    binned = hi_hot.T @ by_row
    out = [0] * (n + 1)
    for a in range(hi + 1):
        for c in range(lo + 1):
            out[a + c] += int(binned[a, c])
    return out


def signed_sum_counts(weights: np.ndarray) -> np.ndarray:
    """Counts of sum(w_i * x_i) over sign vectors x, as a dense array.

    Entry s holds the number of sign vectors whose sum equals 2s - T with
    T = sum(weights): the x_i = +1 coordinates form a subset of sum s, and
    a.x = 2s - T.  Weights must be nonnegative.  The counts do not depend on
    the order, so the DP adds the weights smallest first: its live prefix
    grows slowest.
    """
    for counts in subset_sum_prefixes(np.sort(weights)):
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
    """sum(w_i * x_i) for every point m of the cube, as int64.

    One array is filled by doubling in place: after the first j weights its
    first 2^j entries hold their sums, and weight j extends them to 2^(j+1)
    as out[h:2h] = out[:h] + w, then out[:h] -= w.
    """
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    out = np.zeros(1 << len(weights), dtype=np.int64)
    h = 1
    for w in weights.tolist():
        np.add(out[:h], w, out=out[h : 2 * h])
        out[:h] -= w
        h *= 2
    return out


# M_i: the bits of a word whose point has x_i = -1, for the in-word coordinates i < 6
_IN_WORD_MASKS = tuple(np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF))


def _packed(table: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The 0/1 table as little-endian uint64 words, and the pad shift.

    Bit b of word q is point 64q + b.  A table of fewer than 64 points is
    tiled to 64 first, which adds 6 - n dummy coordinates above the real
    ones: every count over the tiled table is 2^(6 - n) times the true one,
    so callers shift it right by the returned pad.
    """
    pad = max(0, 6 - n)
    if pad:
        table = np.tile(table, 1 << pad)
    return np.packbits(table, bitorder="little").view("<u8"), pad


def _word_halves(words: np.ndarray, n: int):
    """For each coordinate i, the packed points at x_i = -1 and at x_i = +1.

    Bit j of the first array and bit j of the second are neighbours across
    coordinate i.  For i >= 6 whole words pair up (reshape views); for i < 6
    the pairs sit inside a word, and both arrays keep the x_i = -1 bit
    positions of M_i, the second shifted down by 2^i.
    """
    for i in range(n):
        if i < 6:
            mask = _IN_WORD_MASKS[i]
            yield words & mask, (words >> np.uint64(1 << i)) & mask
        else:
            view = words.reshape(-1, 2, 1 << (i - 6))
            yield view[:, 0, :], view[:, 1, :]


def _ones(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def influence_counts(table: np.ndarray, n: int) -> np.ndarray:
    """Per-coordinate count of points m with table[m] != table[m ^ e_i]."""
    words, pad = _packed(table, n)
    return np.array([2 * _ones(lo ^ hi) >> pad for lo, hi in _word_halves(words, n)],
                    dtype=np.int64)


def boundary_counts(table: np.ndarray, n: int) -> tuple[int, int]:
    """Counts of 0-side and 1-side vertex-boundary points of the truth table.

    A point is on the boundary when some coordinate's cut (its pair differs)
    reaches it from either side, so each cut is ORed into the packed
    "on boundary" words at both the x_i = -1 and the x_i = +1 bits.
    """
    words, pad = _packed(table, n)
    on = np.zeros_like(words)
    for i, (lo, hi) in enumerate(_word_halves(words, n)):
        cut = lo ^ hi
        if i < 6:
            on |= cut | (cut << np.uint64(1 << i))
        else:
            view = on.reshape(-1, 2, 1 << (i - 6))
            view[:, 0, :] |= cut
            view[:, 1, :] |= cut
    c1 = _ones(on & words)
    return (_ones(on) - c1) >> pad, c1 >> pad


def monotone_violations(table: np.ndarray, n: int) -> int:
    """Number of directed edges with f = 1 below and f = 0 above."""
    words, pad = _packed(table, n)
    return sum(_ones(lo & ~hi) for lo, hi in _word_halves(words, n)) >> pad


def set_subcube(table: np.ndarray, n: int, coords) -> None:
    """Set table[m] = 1, in place, at the points with x_i = +1 for all i in coords.

    One slice assignment on the (2,)*n view writes the subcube's
    2^(n - |coords|) entries, so repeated calls OR subcubes together.  A
    coordinate outside 0..n-1, or a table whose reshape would be a copy, is
    refused before any write.
    """
    coords = [int(i) for i in coords]
    if not all(0 <= i < n for i in coords):
        raise ValueError(f"subcube coordinates {coords} outside 0..{n - 1}")
    if not table.flags.c_contiguous:
        raise ValueError("set_subcube writes through a reshape view; the table must be C-contiguous")
    index = [slice(None)] * n
    for i in coords:
        index[n - 1 - i] = 1
    table.reshape((2,) * n)[tuple(index)] = 1


def popcounts(n: int) -> np.ndarray:
    """popcount of every index below 2**n, as uint8 (a popcount is at most 64).

    Callers compare it against an integer cut or cast it before signed
    arithmetic: 2 * pc - n would wrap in uint8.
    """
    pc = np.zeros(1 << n, dtype=np.uint8)
    h = 1
    while h < pc.shape[0]:
        np.add(pc[:h], 1, out=pc[h : 2 * h])  # index m + h has one bit more than m
        h *= 2
    return pc
