"""Truth-table Boolean functions, builtin families, and function descriptors.

A Boolean function f: {-1,1}^n -> {0,1} is stored as its full truth table.
Point m of the cube (0 <= m < 2^n) is the sign vector with x_i = +1 exactly
when bit i of m is set, so tables serialize deterministically.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import kernels
from .rational import as_fraction

DEFAULT_MAX_N = 24


def max_arity() -> int:
    """Arity cap for truth tables; CUBE_MAX_N overrides at the user's risk."""
    return int(os.environ.get("CUBE_MAX_N", DEFAULT_MAX_N))


def _check_arity(n: int, max_n: int | None) -> None:
    cap = max_n if max_n is not None else max_arity()
    if not 1 <= n <= cap:
        raise ValueError(f"arity {n} outside supported range 1..{cap}")


class BooleanFunction:
    """Immutable 0/1 function on the discrete cube, with exact cached mean."""

    __slots__ = ("n", "table", "_ones")

    def __init__(self, n: int, table: np.ndarray):
        if table.shape != (1 << n,):
            raise ValueError(f"table length {table.shape} does not match arity {n}")
        self.n = n
        self.table = np.ascontiguousarray(table, dtype=np.uint8)
        self.table.setflags(write=False)
        self._ones = int(np.count_nonzero(self.table))

    @property
    def ones(self) -> int:
        return self._ones

    @property
    def mean(self) -> Fraction:
        return Fraction(self._ones, 1 << self.n)

    def value_at(self, m: int) -> int:
        return int(self.table[m])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self):
        return hash((self.n, self.table.tobytes()))

    def __repr__(self):
        return f"BooleanFunction(n={self.n}, mean={self.mean})"

    def to_text(self) -> str:
        """Serialize as 'tt:<n>:<hex>' with little-endian bit order."""
        packed = np.packbits(self.table, bitorder="little").tobytes()
        value = int.from_bytes(packed, "little")
        digits = max(1, (1 << self.n) // 4 + (1 if (1 << self.n) % 4 else 0))
        return f"tt:{self.n}:{value:0{digits}x}"


def from_truth_table(bits, n: int, max_n: int | None = None) -> BooleanFunction:
    _check_arity(n, max_n)
    table = np.asarray(bits, dtype=np.uint8)
    if table.ndim != 1 or table.shape[0] != (1 << n):
        raise ValueError(f"expected 2^{n} = {1 << n} bits, got shape {table.shape}")
    if np.any(table > 1):
        raise ValueError("truth table entries must be 0 or 1")
    return BooleanFunction(n, table)


def from_text(text: str, max_n: int | None = None) -> BooleanFunction:
    """Inverse of BooleanFunction.to_text."""
    kind, n_str, hex_str = text.split(":")
    if kind != "tt":
        raise ValueError(f"not a truth-table literal: {text!r}")
    n = int(n_str)
    _check_arity(n, max_n)
    value = int(hex_str, 16)
    if value < 0 or value.bit_length() > 1 << n:
        raise ValueError(f"truth-table literal {text!r} does not fit its 2^{n} points")
    raw = value.to_bytes(((1 << n) + 7) // 8, "little")
    table = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return BooleanFunction(n, table[: 1 << n])


def dual(f: BooleanFunction) -> BooleanFunction:
    """g(x) = 1 - f(-x); negating x flips every index bit.

    m ^ (2^n - 1) = 2^n - 1 - m, so f(-x) is the table read backwards.
    """
    return BooleanFunction(f.n, 1 - f.table[::-1])


def is_monotone(f: BooleanFunction) -> bool:
    """Exhaustive check over all n * 2^(n-1) cube edges."""
    return kernels.monotone_violations(f.table, f.n) == 0


# ---------------------------------------------------------------------------
# builtin families

def _majority_table(n: int) -> np.ndarray:
    # sum(x_i) = 2*popcount - n > 0  <=>  popcount > n // 2
    return (kernels.popcounts(n) > n // 2).view(np.uint8)


def majority(n: int, max_n: int | None = None) -> BooleanFunction:
    if n % 2 == 0:
        raise ValueError("majority needs odd arity")
    _check_arity(n, max_n)
    return BooleanFunction(n, _majority_table(n))


def dictator(n: int, max_n: int | None = None) -> BooleanFunction:
    """1 exactly when the first coordinate is +1."""
    return subcube(1, n, max_n=max_n)


def subcube(k: int, n: int, max_n: int | None = None) -> BooleanFunction:
    """1 exactly when the first k coordinates are all +1."""
    _check_arity(n, max_n)
    if not 1 <= k <= n:
        raise ValueError(f"subcube size {k} outside 1..{n}")
    table = np.zeros(1 << n, dtype=np.uint8)
    kernels.set_subcube(table, n, range(k))
    return BooleanFunction(n, table)


def hamming_ball(n: int, t, max_n: int | None = None) -> BooleanFunction:
    """1 exactly when sum(x_i) > t, for a rational threshold t."""
    _check_arity(n, max_n)
    t = as_fraction(t)
    # sum(x_i) = 2*popcount - n > t  <=>  popcount > floor((t + n)/2), an integer cut
    cut = math.floor((t + n) / 2)
    return BooleanFunction(n, (kernels.popcounts(n) > cut).view(np.uint8))


def tribes(a: int, b: int, max_n: int | None = None) -> BooleanFunction:
    """OR of a disjoint ANDs of width b, on n = a*b coordinates."""
    if a < 1 or b < 1:
        raise ValueError("tribes needs positive tribe count and width")
    n = a * b
    _check_arity(n, max_n)
    table = np.zeros(1 << n, dtype=np.uint8)
    for j in range(a):
        kernels.set_subcube(table, n, range(j * b, (j + 1) * b))
    return BooleanFunction(n, table)


def paper5(max_n: int | None = None) -> BooleanFunction:
    """The 5-variable function that is 1 exactly when sum(x_i) is -1, 3 or 5."""
    _check_arity(5, max_n)
    # sum(x_i) = 2*popcount - 5 is -1, 3 or 5  <=>  popcount is 2, 4 or 5
    table = np.isin(kernels.popcounts(5), (2, 4, 5))
    return BooleanFunction(5, table.view(np.uint8))


def talagrand_or(n: int, seed: int, max_n: int | None = None) -> BooleanFunction:
    """OR of roughly 2^sqrt(n)/sqrt(n) random AND terms, ORed with majority.

    Terms have width b = ceil(sqrt(n)); there are ceil(2^b / b) of them, with
    member sets drawn from the given seed so runs are reproducible.  For even
    arity the majority part counts ties as 1, keeping its mean at least 1/2.
    """
    _check_arity(n, max_n)
    b = math.isqrt(n)
    if b * b < n:
        b += 1
    a = -(-(1 << b) // b)
    rng = np.random.default_rng(seed)
    table = (kernels.popcounts(n) >= (n + 1) // 2).view(np.uint8)
    for _ in range(a):
        kernels.set_subcube(table, n, rng.choice(n, size=b, replace=False))
    return BooleanFunction(n, table)


# ---------------------------------------------------------------------------
# textual function descriptors


class _Kind(NamedTuple):
    """What a descriptor kind is: how its text splits, and what it builds."""

    sep: str                          # between the parameters; '' for a kind with none
    converters: tuple[Callable, ...]  # one per parameter, from its text to its value
    table: Callable | None            # (*values, max_n) -> BooleanFunction; None: the halfspace's
    halfspace: Callable | None        # (*values) -> (weights, threshold)


def _weights(text: str) -> list[Fraction]:
    return [as_fraction(w) for w in text.split(",")]


# builders are named inside lambdas, so each call looks them up in the module
# and sees any wrapper installed there since import (perfbench's tracer does)
_KINDS: dict[str, _Kind] = {
    "tt": _Kind(":", (int, str), lambda n, hexstr, max_n: from_text(f"tt:{n}:{hexstr}", max_n),
                None),
    "ltf": _Kind(";", (_weights, as_fraction), None, lambda weights, t: (weights, t)),
    "maj": _Kind(",", (int,), lambda n, max_n: majority(n, max_n), lambda n: ([1] * n, 0)),
    "dict": _Kind(",", (int,), lambda n, max_n: dictator(n, max_n),
                  lambda n: ([1] + [0] * (n - 1), 0)),
    "subcube": _Kind(",", (int, int), lambda k, n, max_n: subcube(k, n, max_n),
                     lambda k, n: ([1] * k + [0] * (n - k), Fraction(2 * k - 1, 2))),
    "ball": _Kind(",", (int, as_fraction), lambda n, t, max_n: hamming_ball(n, t, max_n),
                  lambda n, t: ([1] * n, t)),
    "tribes": _Kind(",", (int, int), lambda a, b, max_n: tribes(a, b, max_n), None),
    "paper5": _Kind("", (), lambda max_n: paper5(max_n), None),
    "talagrand": _Kind(":", (int, int), lambda n, seed, max_n: talagrand_or(n, seed, max_n),
                       None),
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
    an unknown kind or a wrong parameter count is a ValueError here, before
    anything is built.
    """

    kind: str
    params: tuple[str, ...] = ()

    def __post_init__(self):
        count = len(_kind(self.kind).converters)
        if len(self.params) != count:
            raise ValueError(f"{self.kind!r} takes {count} parameters, "
                             f"got {len(self.params)}: {self.to_text()!r}")

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

    def build(self, max_n: int | None = None) -> BooleanFunction:
        make = _KINDS[self.kind].table
        if make is None:
            return self.halfspace().truth_table(max_n=max_n)
        return make(*self._values(), max_n)

    def halfspace(self):
        """The exact halfspace behind this descriptor, or None."""
        from .halfspace import make_halfspace

        make = _KINDS[self.kind].halfspace
        return None if make is None else make_halfspace(*make(*self._values()))
