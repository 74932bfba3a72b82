import hashlib
import importlib.util
import inspect
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cubelab import bfcore, halfspace, influence, kernels
from cubelab.bfcore import FunctionSpec

import oracles
from test_kernels import traced_peak


def test_from_truth_table_dictator():
    f = bfcore.from_truth_table([0, 1], 1)
    assert f.mean == Fraction(1, 2)
    assert int(f.table[0]) == 0 and int(f.table[1]) == 1


def test_from_truth_table_constant_zero():
    f = bfcore.from_truth_table([0] * 8, 3)
    assert f.mean == 0


def test_from_truth_table_majority3():
    # enumerate all 8 points by hand: f = 1 iff at least two coordinates are +1
    bits = [1 if bin(m).count("1") >= 2 else 0 for m in range(8)]
    f = bfcore.from_truth_table(bits, 3)
    assert f.mean == Fraction(1, 2)
    assert bfcore.is_monotone(f)
    assert f == bfcore.majority(3)


def test_from_truth_table_errors():
    with pytest.raises(ValueError):
        bfcore.from_truth_table([0, 1, 0], 2)
    with pytest.raises(ValueError):
        bfcore.from_truth_table([0, 1], 0)
    with pytest.raises(ValueError):
        bfcore.from_truth_table([0, 1], bfcore.MAX_N + 1)
    with pytest.raises(ValueError):
        bfcore.from_truth_table([0, 2], 1)


def test_builtin_subcube_mean():
    f = bfcore.subcube(3, 5)
    assert f.mean == Fraction(1, 8)


def test_builtin_paper5():
    f = bfcore.paper5()
    assert f.mean == Fraction(1, 2)
    for i in range(5):
        assert oracles.brute_coefficient(f, (i,)) == Fraction(1, 16)
    assert not bfcore.is_monotone(f)


@pytest.mark.parametrize("n", range(1, 9))
def test_majority_table_pointwise(n):
    """2 * popcount - n > 0 at every point, also for even n (ties are 0),
    from the popcount builder majority uses."""
    table = bfcore.BooleanFunction(n, bfcore._by_popcount(n, lambda k: k > n // 2)).table
    assert table.tolist() == [int(2 * bin(m).count("1") - n > 0) for m in range(1 << n)]
    if n % 2:
        assert bfcore.majority(n).table.tolist() == table.tolist()


@pytest.mark.parametrize("n", [*range(1, 8), 13, 16, 17, 18])
def test_popcount_words_match_per_point(n):
    """The chunked popcount builder against accept[popcount(m)] at every
    point: one chunk below n = 16, two and four chunks of 2^16 points at 17
    and 18, for a random accept set and for a cut below 0 (all ones) and at
    n or more (all zeros)."""
    pc = np.array([bin(m).count("1") for m in range(1 << n)])
    accepts = [np.random.default_rng(n).integers(0, 2, size=n + 1).astype(bool),
               np.ones(n + 1, dtype=bool), np.zeros(n + 1, dtype=bool)]
    for accept in accepts:
        f = bfcore.BooleanFunction(n, kernels.popcount_words(n, accept))
        assert np.array_equal(f.table, accept[pc].astype(np.uint8))
    for t, ones in ((-1000, 1 << n), (-n - 1, 1 << n), (n, 0), (10**20, 0)):
        assert bfcore.hamming_ball(n, t).ones == ones


def test_ball_descriptor_cuts_outside_the_popcounts():
    """A cut below every popcount is all ones, one above every popcount all zeros."""
    assert FunctionSpec.parse("ball:3,-1000").build().table.tolist() == [1] * 8
    assert FunctionSpec.parse("ball:3,100000000000000000000").build().table.tolist() == [0] * 8


@pytest.mark.parametrize("n", range(1, 9))
def test_hamming_ball_pointwise(n):
    """sum(x_i) > t at every point, for thresholds below, at and above the
    support, negative, zero and fractional."""
    for t in (-n - 1, -n, -3, -1, Fraction(-1, 2), 0, Fraction(1, 3), 1, Fraction(5, 2), n):
        f = bfcore.hamming_ball(n, t)
        assert f.table.tolist() == [int(2 * bin(m).count("1") - n > t) for m in range(1 << n)]


def test_paper5_pointwise():
    f = bfcore.paper5()
    assert f.table.tolist() == [int(2 * bin(m).count("1") - 5 in (-1, 3, 5)) for m in range(32)]


def test_builtin_dictator_influences():
    f = bfcore.dictator(4)
    assert f.mean == Fraction(1, 2)
    assert oracles.brute_influence(f, 0) == 1
    for i in range(1, 4):
        assert oracles.brute_influence(f, i) == 0


def test_builtin_errors():
    with pytest.raises(ValueError):
        bfcore.majority(4)
    with pytest.raises(ValueError):
        bfcore.tribes(2, 13)
    with pytest.raises(ValueError):
        FunctionSpec.parse("mystery:3")


def test_tribes_structure():
    table = bfcore.tribes(2, 2).table
    # 1 iff coords {0,1} both +1 or coords {2,3} both +1
    for m in range(16):
        expect = int((m & 0b0011) == 0b0011 or (m & 0b1100) == 0b1100)
        assert int(table[m]) == expect


@pytest.mark.parametrize("n", range(1, 9))
def test_indicator_builtins_pointwise(n):
    """dictator, subcube and tribes against their definitions at every point."""
    dictator = bfcore.dictator(n).table
    subcubes = {k: bfcore.subcube(k, n).table for k in range(1, n + 1)}
    tribes = {b: bfcore.tribes(n // b, b).table for b in range(1, n + 1) if n % b == 0}
    for m in range(1 << n):
        x = oracles.point_signs(m, n)
        assert int(dictator[m]) == int(x[0] == 1)
        for k, table in subcubes.items():
            assert int(table[m]) == int(all(v == 1 for v in x[:k]))
        for b, table in tribes.items():
            want = any(all(v == 1 for v in x[j:j + b]) for j in range(0, n, b))
            assert int(table[m]) == int(want)


@pytest.mark.parametrize("n", [9, 16])
def test_talagrand_or_pointwise(n):
    """Majority (ties count as 1) OR the seeded AND terms, drawn again here."""
    table = bfcore.talagrand_or(n, 42).table
    b = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    rng = np.random.default_rng(42)
    terms = [rng.choice(n, size=b, replace=False).tolist() for _ in range(-(-(1 << b) // b))]
    for m in range(1 << n):
        x = oracles.point_signs(m, n)
        want = sum(x) >= 0 or any(all(x[i] == 1 for i in term) for term in terms)
        assert int(table[m]) == int(want)


def _table_n22_tribes_shapes():
    """The (a, b) tribes shapes the table-n22 benchmark workload builds."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [shape for shapes in workloads.TRIBES.values() for shape in shapes]


def test_tribes_workload_shapes_match_oracle():
    shapes = _table_n22_tribes_shapes()
    assert len(shapes) == 8
    for a, b in shapes:
        n = a * b
        want = np.zeros(1 << n, dtype=bool)
        for j in range(a):
            want |= oracles.all_plus(n, range(j * b, (j + 1) * b))
        assert np.array_equal(bfcore.tribes(a, b).table, want), (a, b)


# SHA-256 of the table bytes, recorded before the in-place subcube writes;
# these are the two instances the EX74 check builds
TALAGRAND_SHA256 = {
    16: "d8002b898afa60733ea55b9f7ffb6c1710b50b41c77f3008093fb7019bd0c666",
    25: "3b70c14e02f9683fbbfa2f256f9fc768d7cca618f40589c2f7b7b2445c0e44b2",
}


@pytest.mark.parametrize("n", sorted(TALAGRAND_SHA256))
def test_talagrand_or_table_digest(n):
    f = bfcore.talagrand_or(n, 42)
    assert hashlib.sha256(f.table.tobytes()).hexdigest() == TALAGRAND_SHA256[n]


def test_talagrand_or_boundary_peak_memory():
    """EX74's path at the cap: the 2^25-point table is 4 MiB of words, and
    its build and boundary scan stay under five times that, with no
    per-point array of popcounts or bytes beside the words."""
    def build_and_scan():
        influence.boundary_measures(bfcore.talagrand_or(25, 42))

    assert traced_peak(build_and_scan) < 20 * (1 << 20)


@pytest.mark.parametrize("build", [lambda: bfcore.subcube(3, 20), lambda: bfcore.tribes(4, 5)])
def test_indicator_builders_allocate_one_table(build):
    """One bit per point at the peak: the words are written in place, with
    no full-size term table, OR pass or dtype copy beside them.  The slack is
    the popcount's byte per word and numpy's 64 KiB summation buffer."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        f = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.n == 20
    assert peak < 1.25 * (1 << 20) / 8 + (1 << 17), peak


def test_talagrand_or_reproducible():
    f1 = bfcore.talagrand_or(9, 42)
    f2 = bfcore.talagrand_or(9, 42)
    f3 = bfcore.talagrand_or(9, 43)
    assert f1 == f2
    assert f1 != f3
    maj = bfcore.majority(9)
    assert np.all(f1.table >= maj.table)


def test_dual_constant_and_dictator():
    zero = bfcore.from_truth_table([0] * 4, 2)
    assert bfcore.dual(zero).mean == 1
    d = bfcore.dictator(3)
    assert bfcore.dual(d) == d


def test_dual_subcube():
    f = bfcore.subcube(2, 4)
    g = bfcore.dual(f)
    assert g.mean == Fraction(3, 4)
    # dual of the AND of two coordinates is their OR: enumerate 16 points
    idx = np.arange(16)
    or_table = (((idx & 1) == 1) | ((idx & 2) == 2)).astype(np.uint8)
    assert np.array_equal(g.table, or_table)


def test_dual_involution_and_mean():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=32), 5)
        g = bfcore.dual(f)
        assert g.mean == 1 - f.mean
        assert bfcore.dual(g) == f


@pytest.mark.parametrize("n", range(1, 11))
def test_dual_pointwise(n):
    """g(m) = 1 - f(m ^ mask) at every point, mask = 2^n - 1."""
    rng = np.random.default_rng(100 + n)
    f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n)
    g = bfcore.dual(f)
    mask = (1 << n) - 1
    f_table, g_table = f.table, g.table
    for m in range(1 << n):
        assert int(g_table[m]) == 1 - int(f_table[m ^ mask])


@pytest.mark.parametrize("n", [*range(1, 8), 13])
def test_dual_and_text_against_the_per_point_table(n):
    """dual reverses and complements the packed bits: 1 - table[::-1] on a
    random, a constant and a dictator table.  The text literal is the table
    read as a binary number, point 2^n - 1 first, in max(1, 2^n / 4) hex
    digits, and it round-trips."""
    rng = np.random.default_rng(200 + n)
    tables = [rng.integers(0, 2, size=1 << n).astype(np.uint8), np.zeros(1 << n, np.uint8),
              (np.arange(1 << n) >> (n - 1) & 1).astype(np.uint8)]
    for table in tables:
        f = bfcore.from_truth_table(table, n)
        assert np.array_equal(bfcore.dual(f).table, 1 - table[::-1])
        value = int("".join(str(b) for b in table[::-1]), 2)
        assert f.to_text() == f"tt:{n}:{value:0{max(1, (1 << n) // 4)}x}"
        assert bfcore.from_text(f.to_text()) == f


def test_is_monotone_examples():
    assert bfcore.is_monotone(bfcore.majority(3))
    parity = bfcore.from_truth_table([0, 1, 1, 0], 2)
    assert not bfcore.is_monotone(parity)
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=64), 6)
        assert bfcore.is_monotone(f) == oracles.brute_is_monotone(f)


def test_text_roundtrip_truth_table():
    rng = np.random.default_rng(2)
    for n in (*range(1, 8), 13):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << n), n)
        assert bfcore.from_text(f.to_text()) == f


@pytest.mark.parametrize(
    "text",
    ["maj:5", "dict:4", "subcube:3,5", "ball:6,1", "tribes:3,3", "paper5",
     "talagrand:9:42", "tt:2:6", "ltf:4/5,3/5;0"],
)
def test_function_spec_roundtrip(text):
    spec = FunctionSpec.parse(text)
    assert spec.to_text() == text
    f = spec.build()
    assert 1 <= f.n <= 24


def test_function_spec_builds_match_builtins():
    assert FunctionSpec.parse("maj:5").build() == bfcore.majority(5)
    assert FunctionSpec.parse("subcube:3,5").build() == bfcore.subcube(3, 5)
    assert FunctionSpec.parse("paper5").build() == bfcore.paper5()


# every truth-table builder, each asked for one arity past the cap
PAST_CAP = bfcore.MAX_N + 1
PAST_CAP_BUILDS = [
    lambda: bfcore.from_truth_table([0, 1], PAST_CAP),
    lambda: bfcore.from_text(f"tt:{PAST_CAP}:0"),
    lambda: bfcore.majority(PAST_CAP | 1),  # the first odd arity past the cap
    lambda: bfcore.dictator(PAST_CAP),
    lambda: bfcore.subcube(2, PAST_CAP),
    lambda: bfcore.hamming_ball(PAST_CAP, 0),
    lambda: bfcore.tribes(2, PAST_CAP // 2),
    lambda: bfcore.talagrand_or(PAST_CAP, 42),
    lambda: halfspace.ltf_truth_table([1] * PAST_CAP, 0),
    lambda: halfspace.make_halfspace([1] * PAST_CAP, 0).truth_table(),
    lambda: FunctionSpec.parse(f"tribes:2,{PAST_CAP // 2}").build(),
    lambda: FunctionSpec.parse(f"ltf:{','.join(['1'] * PAST_CAP)};0").build(),
]


def test_arity_cap():
    """MAX_N caps every table builder before it allocates, and no builder
    takes an argument that moves the cap."""
    assert PAST_CAP % 2 == 0  # tribes:2,PAST_CAP/2 has PAST_CAP coordinates
    refusal = rf"^arity ({PAST_CAP}|{PAST_CAP | 1}) outside supported range 1\.\.{bfcore.MAX_N}$"
    tracemalloc.start()
    try:
        for build in PAST_CAP_BUILDS:
            with pytest.raises(ValueError, match=refusal):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a 2^26 table would be 64 MiB
    builders = [bfcore.from_truth_table, bfcore.from_text, bfcore.majority, bfcore.dictator,
                bfcore.subcube, bfcore.hamming_ball, bfcore.tribes, bfcore.paper5,
                bfcore.talagrand_or, FunctionSpec.build, halfspace.Halfspace.truth_table,
                halfspace.ltf_truth_table]
    for builder in builders:
        assert "max_n" not in inspect.signature(builder).parameters, builder.__name__
    for name, kind in bfcore._KINDS.items():
        if kind.table is not None:
            assert len(inspect.signature(kind.table).parameters) == len(kind.converters), name


# one case per descriptor kind: its text and the builder it names, called directly
KIND_CASES = [
    ("tt:2:6", lambda: bfcore.from_truth_table([0, 1, 1, 0], 2)),
    ("ltf:4/5,3/5;0", lambda: halfspace.ltf_truth_table([Fraction(4, 5), Fraction(3, 5)], 0)),
    ("maj:5", lambda: bfcore.majority(5)),
    ("dict:4", lambda: bfcore.dictator(4)),
    ("subcube:3,5", lambda: bfcore.subcube(3, 5)),
    ("ball:6,1/2", lambda: bfcore.hamming_ball(6, Fraction(1, 2))),
    ("tribes:3,3", lambda: bfcore.tribes(3, 3)),
    ("paper5", bfcore.paper5),
    ("talagrand:9:42", lambda: bfcore.talagrand_or(9, 42)),
]
NOT_HALFSPACES = {"tt", "talagrand", "tribes", "paper5"}


def test_kind_cases_cover_the_descriptor_table():
    kinds = [FunctionSpec.parse(text).kind for text, _ in KIND_CASES]
    assert sorted(kinds) == sorted(bfcore._KINDS)


@pytest.mark.parametrize("text,direct", KIND_CASES, ids=[t for t, _ in KIND_CASES])
def test_descriptor_kind(text, direct):
    spec = FunctionSpec.parse(text)
    assert spec.to_text() == text
    assert FunctionSpec.parse(spec.to_text()) == spec
    assert spec.build() == direct()
    h = spec.halfspace()
    assert (h is None) == (spec.kind in NOT_HALFSPACES)
    if h is not None:
        assert h.truth_table() == spec.build()


@pytest.mark.parametrize("text", [t for t, _ in KIND_CASES])
def test_descriptor_wrong_parameter_count(text):
    """One parameter too many, and one too few, is refused by parse."""
    spec = FunctionSpec.parse(text)
    kind, params = spec.kind, spec.params
    sep = bfcore._KINDS[kind].sep
    bad = [f"{kind}:{sep.join(params + ('1',))}"]
    if params:
        bad.append(kind + (f":{sep.join(params[:-1])}" if len(params) > 1 else ""))
    for literal in bad:
        with pytest.raises(ValueError, match="takes"):
            FunctionSpec.parse(literal)


@pytest.mark.parametrize("text", ["paper5:", "paper5:1", "mystery:3", "mystery", "maj",
                                  "maj:5,7", "subcube:3", "ltf:1,2", "tt:2:6:1"])
def test_descriptor_refused(text):
    with pytest.raises(ValueError):
        FunctionSpec.parse(text)


@pytest.mark.parametrize("text, message", [
    ("subcube:5,3", "subcube size 5 outside 1..3"), ("subcube:0,3", "subcube size 0"),
    ("dict:0", "arity 0 is not positive"), ("dict:-1", "arity -1 is not positive"),
    ("maj:4", "positive odd arity, got 4"), ("maj:-1", "positive odd arity, got -1"),
    ("ball:0,1", "arity 0 is not positive"), ("tribes:0,3", "positive tribe count"),
])
def test_descriptor_refuses_what_its_builders_refuse(text, message):
    """Refused at parse, so a halfspace is never made from the values."""
    with pytest.raises(ValueError, match=message):
        FunctionSpec.parse(text)


def test_function_spec_checks_its_parameter_count():
    with pytest.raises(ValueError, match="'maj' takes 1 parameters, got 2"):
        FunctionSpec("maj", ("5", "7"))
    with pytest.raises(ValueError, match="unknown function kind"):
        FunctionSpec("mystery", ("3",))


@pytest.mark.parametrize("text", ["tt:2:ff", "tt:2:1ff", "tt:1:-1", "tt:3:100"])
def test_from_text_refuses_bits_beyond_the_table(text):
    with pytest.raises(ValueError, match="does not fit"):
        bfcore.from_text(text)


def test_from_text_accepts_every_table_of_its_width():
    assert bfcore.from_text("tt:2:f") == bfcore.from_truth_table([1, 1, 1, 1], 2)
    assert bfcore.from_text("tt:3:ff").ones == 8
    assert bfcore.from_text("tt:2:0").ones == 0


def test_builtin_tables_match_halfspace_route():
    for text in ("maj:5", "dict:4", "subcube:3,5", "ball:7,2"):
        spec = FunctionSpec.parse(text)
        assert spec.build() == spec.halfspace().truth_table()
