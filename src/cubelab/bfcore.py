"""Truth-table Boolean functions, builtin families, and function descriptors.

A Boolean function f: {-1,1}^n -> {0,1} is stored as its full truth table,
packed one bit per point in little-endian uint64 words (``kernels.WORD``).
Point m of the cube (0 <= m < 2^n) is the sign vector with x_i = +1 exactly
when bit i of m is set; it is bit m % 64 of word m // 64, so tables
serialize deterministically.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import kernels
from .rational import as_fraction, scaled_int64

MAX_N = 25  # arity cap for truth tables, 2^25 points in 4 MiB of words: EX74's OR table is the largest
TABLE_CAP = 24  # a halfspace above this arity is analysed without a table or a cube


def _check_arity(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"arity {n} outside supported range 1..{MAX_N}")


class BooleanFunction:
    """Immutable 0/1 function on the discrete cube, with exact cached mean.

    words is the packed table; when n < 6 its one word's bits from 2^n up
    are 0.  Per-point bits come in through ``from_truth_table``.
    """

    __slots__ = ("n", "words", "_ones")

    def __init__(self, n: int, words: np.ndarray):
        if words.shape != (kernels.word_count(n),):
            raise ValueError(f"{words.shape} words do not hold a table of arity {n}")
        if n < 6 and int(words[0]) >> (1 << n):
            raise ValueError(f"bits past the 2^{n} points of arity {n} are set")
        self.n = n
        self.words = np.ascontiguousarray(words, dtype=kernels.WORD)
        self.words.setflags(write=False)
        self._ones = kernels.count_ones(self.words)

    @property
    def table(self) -> np.ndarray:
        """The 0/1 value at every point, as a new read-only uint8 array."""
        table = np.unpackbits(self.words.view(np.uint8), count=1 << self.n, bitorder="little")
        table.setflags(write=False)
        return table

    @property
    def ones(self) -> int:
        return self._ones

    @property
    def mean(self) -> Fraction:
        return Fraction(self._ones, 1 << self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self):
        return hash((self.n, self.words.tobytes()))

    def __repr__(self):
        return f"BooleanFunction(n={self.n}, mean={self.mean})"

    def to_text(self) -> str:
        """Serialize as 'tt:<n>:<hex>' with little-endian bit order."""
        digits = max(1, (1 << self.n) // 4)  # the bits past 2^n, all 0, are cut
        return f"tt:{self.n}:{self.words.tobytes()[::-1].hex()[-digits:]}"


def from_truth_table(bits, n: int) -> BooleanFunction:
    """The function with value bits[m] at point m; each entry must be 0 or 1."""
    _check_arity(n)
    table = np.asarray(bits)
    if table.ndim != 1 or table.shape[0] != (1 << n):
        raise ValueError(f"expected 2^{n} = {1 << n} bits, got shape {table.shape}")
    if table.dtype != bool and (table.min() < 0 or table.max() > 1):
        raise ValueError("truth table entries must be 0 or 1")
    return BooleanFunction(n, kernels.pack_bits(table))


def from_text(text: str) -> BooleanFunction:
    """Inverse of BooleanFunction.to_text."""
    kind, n_str, hex_str = text.split(":")
    if kind != "tt":
        raise ValueError(f"not a truth-table literal: {text!r}")
    n = int(n_str)
    _check_arity(n)
    value = int(hex_str, 16)
    if value < 0 or value.bit_length() > 1 << n:
        raise ValueError(f"truth-table literal {text!r} does not fit its 2^{n} points")
    raw = value.to_bytes(kernels.WORD.itemsize * kernels.word_count(n), "little")
    return BooleanFunction(n, np.frombuffer(raw, dtype=kernels.WORD))


# bit j of _BIT_REVERSE[b] is bit 7 - j of b
_BIT_REVERSE = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def dual(f: BooleanFunction) -> BooleanFunction:
    """g(x) = 1 - f(-x); negating x flips every index bit.

    m ^ (2^n - 1) = 2^n - 1 - m, so f(-x) is the table read backwards: the
    bytes in reverse order, each with its bits reversed, then complemented.
    Below 64 points the reversed points land in the top 2^n bits of the
    word, and a shift brings them down.
    """
    words = _BIT_REVERSE[f.words.view(np.uint8)[::-1]].view(kernels.WORD)
    np.invert(words, out=words)
    if f.n < 6:
        words >>= np.uint64(64 - (1 << f.n))
    return BooleanFunction(f.n, words)


def is_monotone(f: BooleanFunction) -> bool:
    """Exhaustive check over all n * 2^(n-1) cube edges."""
    return kernels.monotone_violations(f.words, f.n) == 0


# ---------------------------------------------------------------------------
# builtin families

def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"arity {n} is not positive")


def _check_majority(n: int) -> None:
    if n < 1 or n % 2 == 0:
        raise ValueError(f"majority needs a positive odd arity, got {n}")


def _by_popcount(n: int, accept) -> np.ndarray:
    """Words of the table that is 1 at m exactly when accept(popcount(m)),
    asked once for each of 0..n."""
    return kernels.popcount_words(n, [bool(accept(k)) for k in range(n + 1)])


def majority(n: int) -> BooleanFunction:
    _check_majority(n)
    _check_arity(n)
    # sum(x_i) = 2*popcount - n > 0  <=>  popcount > n // 2
    return BooleanFunction(n, _by_popcount(n, lambda k: k > n // 2))


def dictator(n: int) -> BooleanFunction:
    """1 exactly when the first coordinate is +1."""
    return subcube(1, n)


def _check_subcube(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"subcube size {k} outside 1..{n}")


def subcube(k: int, n: int) -> BooleanFunction:
    """1 exactly when the first k coordinates are all +1."""
    _check_arity(n)
    _check_subcube(k, n)
    words = kernels.zero_words(n)
    kernels.set_subcube(words, n, range(k))
    return BooleanFunction(n, words)


def hamming_ball(n: int, t) -> BooleanFunction:
    """1 exactly when sum(x_i) > t, for a rational threshold t."""
    _check_arity(n)
    t = as_fraction(t)
    # sum(x_i) = 2*popcount - n > t  <=>  popcount > floor((t + n)/2), an integer cut
    cut = math.floor((t + n) / 2)
    return BooleanFunction(n, _by_popcount(n, lambda k: k > cut))


def _check_tribes(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError("tribes needs positive tribe count and width")


def tribes(a: int, b: int) -> BooleanFunction:
    """OR of a disjoint ANDs of width b, on n = a*b coordinates."""
    _check_tribes(a, b)
    n = a * b
    _check_arity(n)
    words = kernels.zero_words(n)
    for j in range(a):
        kernels.set_subcube(words, n, range(j * b, (j + 1) * b))
    return BooleanFunction(n, words)


def paper5() -> BooleanFunction:
    """The 5-variable function that is 1 exactly when sum(x_i) is -1, 3 or 5."""
    _check_arity(5)
    # sum(x_i) = 2*popcount - 5 is -1, 3 or 5  <=>  popcount is 2, 4 or 5
    return BooleanFunction(5, _by_popcount(5, lambda k: k in (2, 4, 5)))


def talagrand_or(n: int, seed: int) -> BooleanFunction:
    """OR of roughly 2^sqrt(n)/sqrt(n) random AND terms, ORed with majority.

    Terms have width b = ceil(sqrt(n)); there are ceil(2^b / b) of them, with
    member sets drawn from the given seed so runs are reproducible.  For even
    arity the majority part counts ties as 1, keeping its mean at least 1/2.
    """
    _check_arity(n)
    b = math.isqrt(n)
    if b * b < n:
        b += 1
    a = -(-(1 << b) // b)
    rng = np.random.default_rng(seed)
    words = _by_popcount(n, lambda k: k >= (n + 1) // 2)
    for _ in range(a):
        kernels.set_subcube(words, n, rng.choice(n, size=b, replace=False))
    return BooleanFunction(n, words)


# ---------------------------------------------------------------------------
# textual function descriptors


class _Kind(NamedTuple):
    """What a descriptor kind is: how its text splits, and what it builds."""

    sep: str                          # between the parameters; '' for a kind with none
    converters: tuple[Callable, ...]  # one per parameter, from its text to its value
    table: Callable | None            # (*values) -> BooleanFunction; None: the halfspace's
    halfspace: Callable | None        # (*values) -> (weights, threshold)
    # (*values) -> None: refuses, at parse, the values its builders refuse
    # at any arity
    check: Callable | None = None


def _weights(text: str) -> list[Fraction]:
    return [as_fraction(w) for w in text.split(",")]


def _check_scalable(weights: list[Fraction], t: Fraction) -> None:
    scaled_int64(weights)  # refuses weights whose scaled sum leaves the int64 keys


# builders are named inside lambdas, so each call looks them up in the module
# and sees any wrapper installed there since import (perfbench's tracer does)
_KINDS: dict[str, _Kind] = {
    "tt": _Kind(":", (int, str), lambda n, hexstr: from_text(f"tt:{n}:{hexstr}"), None),
    "ltf": _Kind(";", (_weights, as_fraction), None, lambda weights, t: (weights, t),
                 _check_scalable),
    "maj": _Kind(",", (int,), lambda n: majority(n), lambda n: ([1] * n, 0),
                 _check_majority),
    "dict": _Kind(",", (int,), lambda n: dictator(n), lambda n: ([1] + [0] * (n - 1), 0),
                  _check_positive),
    "subcube": _Kind(",", (int, int), lambda k, n: subcube(k, n),
                     lambda k, n: ([1] * k + [0] * (n - k), Fraction(2 * k - 1, 2)),
                     _check_subcube),
    "ball": _Kind(",", (int, as_fraction), lambda n, t: hamming_ball(n, t),
                  lambda n, t: ([1] * n, t), lambda n, t: _check_positive(n)),
    "tribes": _Kind(",", (int, int), lambda a, b: tribes(a, b), None, _check_tribes),
    "paper5": _Kind("", (), lambda: paper5(), None),
    "talagrand": _Kind(":", (int, int), lambda n, seed: talagrand_or(n, seed), None),
}


def _kind(name: str) -> _Kind:
    if name not in _KINDS:
        raise ValueError(f"unknown function kind {name!r}; have {tuple(_KINDS)}")
    return _KINDS[name]


@dataclass(frozen=True)
class FunctionSpec:
    """Parse target for CLI and corpus entries; round-trips through text.

    A descriptor is '<kind>:<params>', or the bare kind when it takes none.
    Each kind of _KINDS states once how its parameters are separated, how
    many there are, what builds its truth table and what halfspace it is:
    'tt:<n>:<hex>', 'ltf:<w1>,...,<wn>;<t>', 'maj:<n>', 'dict:<n>',
    'subcube:<k>,<n>', 'ball:<n>,<t>', 'tribes:<a>,<b>', 'paper5' and
    'talagrand:<n>:<seed>'.  params holds the textual parameters verbatim;
    an unknown kind, a wrong parameter count or a value the kind's builders
    refuse at any arity is a ValueError here, before anything is built.
    """

    kind: str
    params: tuple[str, ...] = ()

    def __post_init__(self):
        count = len(_kind(self.kind).converters)
        if len(self.params) != count:
            raise ValueError(f"{self.kind!r} takes {count} parameters, "
                             f"got {len(self.params)}: {self.to_text()!r}")
        check = _KINDS[self.kind].check
        if check is not None:
            check(*self._values())

    def to_text(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}:{_KINDS[self.kind].sep.join(self.params)}"

    @staticmethod
    def parse(text: str) -> "FunctionSpec":
        head, colon, rest = text.strip().partition(":")
        sep = _kind(head).sep
        if not colon:
            return FunctionSpec(head)
        return FunctionSpec(head, tuple(rest.split(sep)) if sep else (rest,))

    def _values(self) -> list:
        return [convert(p) for convert, p in zip(_KINDS[self.kind].converters, self.params)]

    def build(self) -> BooleanFunction:
        make = _KINDS[self.kind].table
        if make is None:
            return self.halfspace().truth_table()
        return make(*self._values())

    def halfspace(self):
        """The exact halfspace behind this descriptor, or None."""
        from .halfspace import make_halfspace

        make = _KINDS[self.kind].halfspace
        return None if make is None else make_halfspace(*make(*self._values()))
