"""Injective measure-preserving transforms on real and sign vectors.

These are the constructive maps behind the tail lemmas: swapping a suffix
between two vectors once their running difference clears a level r,
negating a prefix of a single vector, and flipping one coordinate chosen
by the running-sum maximum.  Each map is invertible on its domain, so it
preserves the uniform measure on sign patterns.
"""

from __future__ import annotations


class DomainError(ValueError):
    """Input is outside the partial map's domain."""


def suffix_flip(u, v, r, strict: bool = False):
    """Swap the tails of (u, v) after the first index whose running
    difference-sum reaches r (exceeds r with strict=True).

    The leading empty sum 0 counts, so r <= 0 swaps everything.  The map is
    an involution on its domain.
    """
    u, v = tuple(u), tuple(v)
    if len(u) != len(v):
        raise ValueError("vectors must have equal length")
    sums = running_sums(ui - vi for ui, vi in zip(u, v))
    cut = None
    for i, s in enumerate(sums):
        if (s > r) if strict else (s >= r):
            cut = i
            break
    if cut is None:
        raise DomainError("no running difference-sum reaches the level")
    new_u = u[:cut] + v[cut:]
    new_v = v[:cut] + u[cut:]
    return new_u, new_v


def prefix_flip(u, r, strict: bool = False):
    """Negate the prefix of u up to the first index where twice the running
    sum reaches r; the output v satisfies sum(u) - sum(v) in [r, r + 2*max|u_i|).
    """
    u = tuple(u)
    neg = tuple(-x for x in u)
    flipped_neg, flipped = suffix_flip(u, neg, r, strict)
    assert flipped_neg == tuple(-x for x in flipped)
    return flipped


def running_sums(x):
    """Partial sums of x with a leading 0: length len(x) + 1."""
    sums = [0]
    acc = 0
    for xi in x:
        acc = acc + xi
        sums.append(acc)
    return sums


def first_max_index(sums) -> int:
    best = max(sums)
    return sums.index(best)


def last_max_index(sums) -> int:
    best = max(sums)
    return len(sums) - 1 - sums[::-1].index(best)


def single_coord_flip(x):
    """Flip the coordinate at the first running-sum maximum.

    Defined when some running sum is strictly positive.
    """
    x = tuple(x)
    sums = running_sums(x)
    if max(sums[1:], default=0) <= 0:
        raise DomainError("all running sums are nonpositive")
    cut = first_max_index(sums)  # leading 0 never attains the strict maximum
    return x[: cut - 1] + (-x[cut - 1],) + x[cut:]


def single_coord_unflip(y):
    """Inverse of single_coord_flip: flip just after the last running-sum
    maximum among prefixes 0..n-1 (the leading 0 included).  Total.
    """
    y = tuple(y)
    sums = running_sums(y)[:-1]
    cut = last_max_index(sums)
    return y[:cut] + (-y[cut],) + y[cut + 1 :]


def _descending_order(a):
    return sorted(range(len(a)), key=lambda i: (-a[i], i))


def weighted_coord_flip(a, x):
    """Reorder by descending weight (stable), flip, reorder back.

    Defined in particular whenever sum(a_i x_i) > 0.
    """
    x = tuple(x)
    order = _descending_order(tuple(a))
    flipped = single_coord_flip(tuple(x[i] for i in order))
    out = list(x)
    for pos, i in enumerate(order):
        out[i] = flipped[pos]
    return tuple(out)


def weighted_coord_unflip(a, y):
    y = tuple(y)
    order = _descending_order(tuple(a))
    unflipped = single_coord_unflip(tuple(y[i] for i in order))
    out = list(y)
    for pos, i in enumerate(order):
        out[i] = unflipped[pos]
    return tuple(out)


def interval_shift_map(a, s, m, sigma):
    """The four-piece injection pushing sum(a * sigma) from (s+m, s+3m] down
    into (s-m, s+m].

    Coordinates with weight at most m/2 form the small class; the rest the
    big class.  Pieces 1 and 2 prefix-flip the small class at level m or 2m;
    piece 3 flips one big coordinate; piece 4 flips a second one when piece 3
    lands past the target.  Returns (piece_index, flipped sign vector).
    """
    a = tuple(a)
    sigma = tuple(sigma)
    if any(w <= 0 for w in a):
        raise ValueError("weights must be positive")
    if max(a) > m:
        raise ValueError("m must dominate every weight")
    if s < 0:
        raise ValueError("the target center s must be nonnegative")
    x = [w * s_ for w, s_ in zip(a, sigma)]
    total = sum(x)
    if not (s + m < total <= s + 3 * m):
        raise DomainError("input sum outside the source interval")
    small = [i for i, w in enumerate(a) if 2 * w <= m]
    big = [i for i in range(len(a)) if 2 * a[i] > m]
    sum_small = sum(x[i] for i in small)

    if sum_small >= s + m:
        level = m if total <= s + 2 * m else 2 * m
        flipped = prefix_flip(tuple(x[i] for i in small), level)
        out = list(sigma)
        for pos, i in enumerate(small):
            out[i] = 1 if flipped[pos] > 0 else -1
        return (1 if level == m else 2), tuple(out)

    weights_big = tuple(a[i] for i in big)
    first = list(sigma)
    part = weighted_coord_flip(weights_big, tuple(sigma[i] for i in big))
    for pos, i in enumerate(big):
        first[i] = part[pos]
    new_total = sum(w * s_ for w, s_ in zip(a, first))
    if s - m < new_total <= s + m:
        return 3, tuple(first)

    second = list(first)
    part = weighted_coord_flip(weights_big, tuple(first[i] for i in big))
    for pos, i in enumerate(big):
        second[i] = part[pos]
    return 4, tuple(second)
