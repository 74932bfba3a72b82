"""Hot numeric kernels on plain integer numpy arrays.

Point m of the cube has x_i = +1 where bit i of m is set and x_i = -1
where it is clear.  A truth table is stored packed one bit per point in
little-endian uint64 words (``WORD``): bit b of word q is point 64q + b,
so coordinates 0..5 index bits inside a word and coordinate i >= 6 pairs
word q with word q + 2^(i - 6).  A table of fewer than 64 points fills the
low bits of one word.  Seen as ``words.reshape((2,) * (n - 6))``, the
words have axis n - 1 - i for coordinate i >= 6 (bit i - 6 of a word
index), so a subcube that fixes x_i = +1 for some coordinates is one
in-word mask ORed into a strided slice.  The table scans (influence,
boundary, monotonicity), the subcube write, the popcount builder and the
Walsh transform of a table work on the words; no kernel unpacks a table
to one byte per point.  Each kernel is one vectorized numpy algorithm; its
independent slow route is in the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import functools

import numpy as np


_WALSH_BLOCK = 1 << 16  # entries per block and per piece of the Walsh stages
INT64_SUMMANDS = 62  # subset counts of up to 62 weights (at most 2^62) fit int64


def exact_int_dtype(bound: int):
    """The dtype that holds integers of magnitude up to bound exactly: int64
    below 2^63, Python ints (object) from there."""
    return np.int64 if bound < 1 << 63 else object


def fwht(a: np.ndarray) -> np.ndarray:
    """Signed Walsh transform of an integer vector of length 2**n, as a new array.

    a may have any integer or bool dtype; it is not changed.  Output index is
    a subset mask S; entry S becomes sum_m a[m] * sign(S, m) where
    sign(S, m) = prod over i in S of (+1 if bit i of m else -1).

    Every product, partial sum and intermediate entry of the stages is an
    integer of magnitude at most peak = max|a| * 2**n, so they run in
    float32 when peak <= 2**24 (every such integer is a float32) and in
    float64 when peak < 2**53; a larger input is refused before any work.
    Each block of the stages is filled from a, cast to that float type
    (``_walsh``).
    """
    n = a.shape[0].bit_length() - 1
    peak = max(int(a.max()), -int(a.min())) << n
    if peak >= 1 << 53:
        raise OverflowError(f"max|a| * 2^n = {peak} is not below 2^53; "
                            "the float64 Walsh transform would not be exact")

    def fill(x: np.ndarray, spare: np.ndarray, start: int) -> None:
        x[:] = a[start : start + x.shape[0]]

    return _walsh(n, peak, fill, 0)


def fwht_words(words: np.ndarray, n: int) -> np.ndarray:
    """The Walsh transform of a packed 0/1 table of 2^n points (``WORD``):
    equal, values and dtype, to ``fwht`` of its unpacked table.

    Seen as little-endian uint16, the words are chunks of 16 points, bit j
    of chunk c being point 16c + j, and the transform of coordinates 0..3
    of a chunk is row c of ``_chunk_transforms``.  So each block of the
    stages is one ``np.take`` of those rows by the block's chunks into the
    spare scratch block, cast to the float type, and the stages start at
    coordinate 4: no byte per point is unpacked.  Below 4 coordinates a
    table is less than a chunk and is unpacked for ``fwht``.
    """
    if n < 4:
        return fwht(np.unpackbits(words.view(np.uint8), count=1 << n, bitorder="little"))
    chunks = words.view("<u2")[: 1 << (n - 4)]
    rows = _chunk_transforms()

    def fill(x: np.ndarray, spare: np.ndarray, start: int) -> None:
        part = spare.view(np.int8)[: x.shape[0]].reshape(-1, 16)
        # every uint16 is a row index, so clip never clips; it spares the range check
        np.take(rows, chunks[start >> 4 : (start + x.shape[0]) >> 4], axis=0, out=part, mode="clip")
        x[:] = part.reshape(-1)

    return _walsh(n, (1 << n) if words.any() else 0, fill, 4)  # fwht's peak, max|a| * 2^n


def _walsh(n: int, peak: int, fill, first: int) -> np.ndarray:
    """The stages of the Walsh transform of 2^n entries of magnitude at most
    peak / 2^n, as a new int32 (peak <= 2^24) or int64 (peak < 2^53) array.

    fill(x, spare, start) writes entries start .. start + len(x) of the
    input, with coordinates 0 .. first - 1 already transformed, into the
    float block x; spare is the other block of the scratch pair, free
    while fill runs.  The transform is the n-th Kronecker power of
    [[1, 1], [-1, 1]] (rows S, columns m); each stage applies the power of
    c coordinates (``_sign_matrix``) as one matrix product, and c comes
    from how far apart the 2^c rows of that product lie (``_stage_width``).

    The work happens in one buffer of 2**n entries.  The low coordinates
    are transformed one block of _WALSH_BLOCK entries at a time in a
    block-sized scratch pair, and the last of those stages writes the block
    to the buffer; every later stage runs in place, one piece of at most
    _WALSH_BLOCK entries at a time through the scratch.  The buffer is then cast in place
    to the integer type of its width and returned.
    """
    real, whole = (np.float32, np.int32) if peak <= 1 << 24 else (np.float64, np.int64)
    size = 1 << n
    out = np.empty(size, dtype=real)
    block = min(size, max(_WALSH_BLOCK, 1 << first))
    low = block.bit_length() - 1  # coordinates transformed inside a block
    x, y = np.empty(block, dtype=real), np.empty(block, dtype=real)
    for start in range(0, size, block):
        fill(x, y, start)
        src, dst = x, y
        done = first
        while done < low:
            c = min(_stage_width(done, x.itemsize), low - done)
            sign = _sign_matrix(c, real)
            if done + c == low:
                dst = out[start : start + block]  # the last stage writes the buffer
            if done == 0:
                # one (block/2^c x 2^c) product; a stack of 2^c x 1 columns is slow
                np.matmul(src.reshape(-1, 1 << c), sign.T, out=dst.reshape(-1, 1 << c))
            else:
                np.matmul(sign, src.reshape(-1, 1 << c, 1 << done),
                          out=dst.reshape(-1, 1 << c, 1 << done))
            src, dst = dst, src
            done += c
        if first == low:
            out[start : start + block] = x
    done = low
    while done < n:
        c = min(_stage_width(done, x.itemsize), n - done, low)
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


def _stage_width(done: int, itemsize: int) -> int:
    """Coordinates of the stage that starts at coordinate done: 4 (a product
    of 16 rows) while its rows lie less than 1 KiB apart, 3 (8 rows) from
    there.  Rows 2^done entries apart are a power of two of bytes apart and
    share a set of the L1 data cache, and 16 such rows thrash it: on a
    2-core Xeon with a 48 KiB L1D, a stage of 16 rows 16 KiB apart took
    44.6 us on a 2^16-entry float32 block (11.1 us per coordinate), the
    same stage with 8 rows 15.6 us (5.2 us per coordinate)."""
    return 4 if itemsize << done < 1 << 10 else 3


@functools.cache
def _sign_matrix(c: int, dtype) -> np.ndarray:
    """The 2^c x 2^c Walsh sign matrix of c coordinates, rows S, columns m."""
    sign = np.ones((1, 1))
    for _ in range(c):
        sign = np.kron(sign, [[1.0, 1.0], [-1.0, 1.0]])
    sign = sign.astype(dtype)
    sign.flags.writeable = False
    return sign


@functools.cache
def _chunk_transforms() -> np.ndarray:
    """Row u: the Walsh transform of coordinates 0..3 of the 16 points whose
    0/1 values are the bits of u, for every u < 2^16, as a read-only int8
    array of 1 MiB (entries lie in -16..16).

    Row u is the sum of the sign matrix's columns m over the set bits m of
    u, so the rows are filled by doubling: rows 2^m .. 2^(m+1) - 1 are rows
    0 .. 2^m - 1 plus column m.
    """
    sign = _sign_matrix(4, np.int8)
    rows = np.zeros((1 << 16, 16), dtype=np.int8)
    h = 1
    for m in range(16):
        np.add(rows[:h], sign[:, m], out=rows[h : 2 * h])
        h *= 2
    rows.flags.writeable = False
    return rows


_SQUARE_BITS = 15  # squared_level_sums squares 2^15 entries at a time


def squared_level_sums(numerators: np.ndarray, n: int) -> list[int]:
    """Sum of numerators[S]**2 over the masks S of each popcount k = 0..n, as ints.

    S is split into its low lo = min(n // 2, 8) bits and its high hi bits,
    and the squares are taken in float64 one block of about 2^15 entries
    (2^s whole rows of 2^lo) at a time, so no 2^n array of squares is made.
    A block is binned by low popcount (a product with the one-hot popcount
    matrix of lo bits), then by the popcount of the row inside the block
    (the one of s bits); the block's own high bits add their popcount p, so
    the (s + 1) x (lo + 1) binning is added at rows p .. p + s of one
    (hi + 1) x (lo + 1) total, and level k sums the total over a + c = k.
    Each square and partial sum is an integer no larger than sum
    numerators**2, so the result is exact while that sum is below 2^53.
    For Walsh numerators of a 0/1 table it is at most 4^n (Parseval), so
    n > 26 is refused.
    """
    if n > 26:
        raise ValueError(f"level sums are exact in float64 only for n <= 26, got n = {n}")
    lo = min(n // 2, 8)
    hi = n - lo
    s = min(hi, _SQUARE_BITS - lo)  # 2^s rows per block
    rows = np.asarray(numerators).reshape(-1, 1 << s, 1 << lo)
    lo_hot = np.eye(lo + 1)[popcounts(lo)]
    row_hot_t = np.eye(s + 1)[popcounts(s)].T
    squares = np.empty((1 << s, 1 << lo))
    by_row = np.empty((1 << s, lo + 1))
    total = np.zeros((hi + 1, lo + 1))
    for p, block in zip(popcounts(hi - s).tolist(), rows):
        np.square(block, out=squares, dtype=np.float64)
        np.matmul(squares, lo_hot, out=by_row)
        total[p : p + s + 1] += row_hot_t @ by_row
    out = [0] * (n + 1)
    for a in range(hi + 1):
        for c in range(lo + 1):
            out[a + c] += int(total[a, c])
    return out


def signed_sum_counts(weights: np.ndarray) -> np.ndarray:
    """Counts of sum(w_i * x_i) over sign vectors x, as a dense array.

    Entry s holds the number of sign vectors whose sum equals 2s - T with
    T = sum(weights): the x_i = +1 coordinates form a subset of sum s, and
    a.x = 2s - T.  Weights must be nonnegative.  The counts do not depend on
    the order, so the DP adds the weights smallest first: its live prefix
    grows slowest.  The DP keeps the lower half of the counts, which are a
    palindrome (s and T - s), and it is mirrored once into the T + 1 cells
    returned.
    """
    total = int(np.sum(weights))
    for half in subset_sum_prefixes(np.sort(weights)):
        pass
    counts = np.empty(total + 1, dtype=half.dtype)
    counts[: len(half)] = half
    counts[total - len(half) + 1 :] = half[::-1]
    return counts


def subset_sum_prefixes(weights: np.ndarray):
    """Yield the lower half of the subset-sum counts of weights[:k], for
    k = 0, 1, ..., n.

    With S the sum of weights[:k], the array yielded for k holds cells
    0..S // 2, entry s counting the subsets of weights[:k] that sum to s;
    the count at s > S // 2 is the one at S - s (complementing a subset),
    and none is above S.  The counts are int64 up to INT64_SUMMANDS weights
    and Python ints (an object array) past them, where 2^n leaves int64.

    Adding a weight w makes S' = S + w and c'[s] = c[s] + c[s - w] for
    s = 0..S' // 2.  Each step first extends the old half in its own buffer
    up to S' // 2, the cells above S // 2 read from the mirror, and then
    writes the new half into the other buffer.  The two buffers of
    sum(weights) // 2 + 1 cells are allocated once, zeroed, and swapped; a
    buffer is never written above the half of the step it serves, so its
    cells above S stay zero.  A yielded array is a view that the step two
    later overwrites; only the last one is the caller's to keep.
    """
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    dtype = exact_int_dtype(1 << len(weights))
    cur = np.zeros(int(weights.sum()) // 2 + 1, dtype=dtype)
    nxt = np.zeros_like(cur)
    cur[0] = 1
    prefix = 0  # S, the sum of the weights added so far
    yield cur[:1]
    for w in weights.tolist():
        mid, top = prefix // 2, (prefix + w) // 2
        mirrored = min(top, prefix)  # cells mid + 1..mirrored are c[prefix - s]
        cur[mid + 1 : mirrored + 1] = cur[prefix - mirrored : prefix - mid][::-1]
        low = min(w, top + 1)
        nxt[:low] = cur[:low]
        np.add(cur[low : top + 1], cur[: top + 1 - low], out=nxt[low : top + 1])
        prefix += w
        cur, nxt = nxt, cur
        yield cur[: top + 1]


def elementary_symmetric(weights: np.ndarray, k: int) -> list[np.ndarray]:
    """e_1 .. e_k of (w_i x_i) at every point m of the cube, as int64 arrays.

    Each layer is filled by doubling in place: after the first j weights its
    first 2^j entries hold e_d of those coordinates, and weight j extends
    them to 2^(j+1) as e_d[h:2h] = e_d[:h] + w e_{d-1}[:h], then
    e_d[:h] -= w e_{d-1}[:h], top level first so that e_{d-1} is still the
    old layer when e_d reads it.  e_0 = 1 is not stored, so e_1 needs no
    step buffer and the others share one of half size.  int64 wraps modulo
    2^64 and the fill only adds, subtracts and multiplies, so a layer whose
    values fit int64 is exact even where a layer below it wrapped.
    """
    weights = np.ascontiguousarray(weights, dtype=np.int64)
    size = 1 << len(weights)
    layers = [np.zeros(size, dtype=np.int64) for _ in range(k)]
    step = np.empty(size >> 1, dtype=np.int64) if k > 1 else None
    top_first = range(k - 1, -1, -1)  # layers[d] holds e_(d+1)
    h = 1
    for w in weights.tolist():
        for d in top_first:
            below = np.multiply(layers[d - 1][:h], w, out=step[:h]) if d else w
            np.add(layers[d][:h], below, out=layers[d][h : 2 * h])
            layers[d][:h] -= below
        h *= 2
    return layers


def dot_values(weights: np.ndarray) -> np.ndarray:
    """sum(w_i * x_i) for every point m of the cube, as int64: the one layer
    of ``elementary_symmetric`` at k = 1."""
    return elementary_symmetric(weights, 1)[0]


# M_i: the bits of a word whose point has x_i = -1, for the in-word coordinates i < 6
_IN_WORD_MASKS = tuple(np.uint64(m) for m in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF))

WORD = np.dtype("<u8")  # one truth-table word: 64 points, point 64q + b at bit b of word q


def word_count(n: int) -> int:
    """Words of a packed table of 2^n points; fewer than 64 points fill one word."""
    return 1 << max(0, n - 6)


def zero_words(n: int) -> np.ndarray:
    """The packed table of 2^n points that is 0 everywhere, for set_subcube to write."""
    return np.zeros(word_count(n), dtype=WORD)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Per-point 0/1 (or bool) values as packed words.

    Fewer than 64 points fill the low bits of one word, and its other bits
    are 0.
    """
    raw = np.packbits(bits, bitorder="little")
    if raw.shape[0] % 8:
        raw = np.concatenate([raw, np.zeros(8 - raw.shape[0] % 8, dtype=np.uint8)])
    return raw.view(WORD)


def _tiled(words: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """The packed table over at least 64 points, and the pad shift.

    A table of fewer than 64 points is tiled across its one word, which adds
    6 - n dummy coordinates above the real ones: every count over the tiled
    word is 2^(6 - n) times the true one, so callers shift it right by the
    returned pad.
    """
    pad = max(0, 6 - n)
    if not pad:
        return words, 0
    word = int(words[0])
    for k in range(n, 6):
        word |= word << (1 << k)
    return np.array([word], dtype=WORD), pad


def _edges(words: np.ndarray, n: int, monotone: bool = False):
    """For each coordinate i in turn, the words of its cut edges.

    A cut edge pairs a point at x_i = -1 with its neighbour at x_i = +1 where
    f differs; with monotone, only where f is 1 below and 0 above.  For
    i >= 6 whole words pair up, and the edges fill half the scratch words;
    for i < 6 the pairs sit inside a word, and an edge is the x_i = -1 bit
    (a bit of M_i).  The yielded words are one scratch array, which the
    caller may change and the next coordinate overwrites.
    """
    scratch = np.empty_like(words)
    for i in range(n):
        if i < 6:
            np.right_shift(words, np.uint64(1 << i), out=scratch)  # bit j holds point j + 2^i
            lo, hi, out = words, scratch, scratch
        else:
            view = words.reshape(-1, 2, 1 << (i - 6))
            lo, hi = view[:, 0, :], view[:, 1, :]
            out = scratch[: words.shape[0] // 2].reshape(lo.shape)
        if monotone:
            np.invert(hi, out=out)
            out &= lo
        else:
            np.bitwise_xor(lo, hi, out=out)
        if i < 6:
            out &= _IN_WORD_MASKS[i]
        yield out


def count_ones(words: np.ndarray) -> int:
    """Set bits of the words: the points of a packed table where f is 1."""
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def influence_counts(words: np.ndarray, n: int) -> np.ndarray:
    """Per-coordinate count of points m with f(m) != f(m ^ e_i), from the packed table."""
    words, pad = _tiled(words, n)
    return np.array([2 * count_ones(cut) >> pad for cut in _edges(words, n)], dtype=np.int64)


def boundary_counts(words: np.ndarray, n: int) -> tuple[int, int]:
    """Counts of 0-side and 1-side vertex-boundary points of the packed table.

    A point is on the boundary when some coordinate's cut (its pair differs)
    reaches it from either side, so each cut is ORed, in place, into the
    "on boundary" words at both the x_i = -1 and the x_i = +1 bits.  Those
    words and the cut scratch are the only arrays of the table's size.
    """
    words, pad = _tiled(words, n)
    on = np.zeros_like(words)
    for i, cut in enumerate(_edges(words, n)):
        if i < 6:
            on |= cut
            cut <<= np.uint64(1 << i)
            on |= cut
        else:
            view = on.reshape(-1, 2, 1 << (i - 6))
            view[:, 0, :] |= cut
            view[:, 1, :] |= cut
    total = count_ones(on)
    on &= words
    c1 = count_ones(on)
    return (total - c1) >> pad, c1 >> pad


def monotone_violations(words: np.ndarray, n: int) -> int:
    """Number of directed edges with f = 1 below and f = 0 above, from the packed table."""
    words, pad = _tiled(words, n)
    return sum(count_ones(cut) for cut in _edges(words, n, monotone=True)) >> pad


def set_subcube(words: np.ndarray, n: int, coords) -> None:
    """Set f = 1, in place in the packed table, at the points with x_i = +1 for all i in coords.

    The coordinates below 6 make one in-word mask (the x_i = +1 bits, and
    the table's own bits when n < 6); each coordinate from 6 up fixes index
    1 on its axis of the (2,)*(n - 6) word view.  One OR of the mask into
    that strided view writes the subcube, so repeated calls OR subcubes
    together.  A coordinate outside 0..n-1, or words whose reshape would be
    a copy, is refused before any write.
    """
    coords = [int(i) for i in coords]
    if not all(0 <= i < n for i in coords):
        raise ValueError(f"subcube coordinates {coords} outside 0..{n - 1}")
    if not words.flags.c_contiguous:
        raise ValueError("set_subcube writes through a reshape view; the words must be C-contiguous")
    mask = (1 << (1 << min(n, 6))) - 1
    index = [slice(None)] * max(0, n - 6)
    for i in coords:
        if i < 6:
            mask &= ~int(_IN_WORD_MASKS[i])
        else:
            index[n - 1 - i] = 1
    view = words.reshape((2,) * max(0, n - 6))
    view[(*index, Ellipsis)] |= np.uint64(mask)


_CHUNK_BITS = 16  # points per chunk of popcount_words: 2^16


def popcount_words(n: int, accept) -> np.ndarray:
    """The packed table that is 1 at point m exactly when accept[popcount(m)].

    accept has n + 1 entries, one per popcount.  The 2^16 points of a chunk
    (all 2^n when n < 16) share the high bits of their index, so the chunk's
    words depend only on the popcount h of those bits: the chunk of h is the
    OR of the packed levels {popcounts(16) == k} with accept[h + k], made
    once per h, and each chunk is copied from the one of its h.  No array of
    2^n entries is made beside the words.
    """
    accept = np.asarray(accept, dtype=bool)
    low = min(n, _CHUNK_BITS)
    pc = popcounts(low)
    levels = np.stack([pack_bits(pc == k) for k in range(low + 1)])
    chunks = np.stack([np.bitwise_or.reduce(levels[accept[h : h + low + 1]], axis=0)
                       for h in range(n - low + 1)])
    words = np.empty(word_count(n), dtype=WORD)
    np.take(chunks, popcounts(n - low), axis=0, mode="clip",
            out=words.reshape(-1, chunks.shape[1]))
    return words


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
