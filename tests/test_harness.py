import dataclasses
import hashlib
import itertools
import json
import math
import sys
import zlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cubelab import checks, correlate, halfspace, harness, kernels, levelk
from cubelab.bfcore import FunctionSpec
from cubelab.checks import REGISTRY, MemberContext
from cubelab.halfspace import (Halfspace, MeetInMiddleDistribution, SupportDistribution,
                               TailDistribution, make_halfspace, parse_halfspace)

import oracles

F = Fraction


def small_corpus():
    return harness.corpus_gen(
        "random-halfspace",
        {"n_lo": 8, "n_hi": 10, "count": 4, "eps_band": (F(1, 128), F(1, 8))},
        seed=77,
    )


def test_corpus_gen_deterministic():
    c1 = harness.corpus_gen("random-halfspace", {"count": 5}, seed=7)
    c2 = harness.corpus_gen("random-halfspace", {"count": 5}, seed=7)
    c3 = harness.corpus_gen("random-halfspace", {"count": 5}, seed=8)
    assert c1.entries == c2.entries and c1.digest == c2.digest
    assert c1.entries != c3.entries


def test_corpus_entries_land_in_band():
    corpus = small_corpus()
    assert len(corpus.entries) == 4
    for entry in corpus.entries:
        h = parse_halfspace(entry)
        assert 8 <= h.arity <= 10
        assert F(1, 128) <= h.mean() <= F(1, 8)
        assert h.weights == tuple(sorted(h.weights, reverse=True))


def test_random_halfspace_on_wide_weights():
    """24-bit weights at n = 26..30 take the meet-in-the-middle backend; each
    picked threshold's tail, recounted from a fresh distribution, is in the band."""
    band = (F(1, 256), F(1, 16))
    corpus = harness.corpus_gen(
        "random-halfspace",
        {"n_lo": 26, "n_hi": 30, "weight_bits": 24, "count": 3, "eps_band": band}, seed=1)
    assert len(corpus.entries) == 3
    for entry in corpus.entries:
        h = parse_halfspace(entry)
        assert 26 <= h.arity <= 30
        assert isinstance(h.distribution(), MeetInMiddleDistribution)
        assert band[0] <= h.mean() <= band[1]
    assert harness.standard_corpus().digest == "ed31d44d13dc1308"
    assert harness.tail_lemma_corpus().digest == "cdf812dc74cd81f3"


def test_tail_lemmas_record_skips_on_meet_in_the_middle_members():
    """On the CI meet-in-the-middle corpus, LEM42 decides its l of tens of
    millions from tail counts, LEM52 reads four first-moment tails per
    coordinate, 29 coordinates as 26, and LEM32 records a skip where the
    whole support is too dense to assemble."""
    corpus = harness.corpus_gen(
        "random-halfspace", {"count": 3, "n_lo": 26, "n_hi": 30, "weight_bits": 24}, seed=5)
    assert corpus.digest == "536fc76fff89625f"
    got = []
    for idx in (0, 1):
        ctx = MemberContext(f"mitm#{idx}", corpus.entries[idx])
        for cid in ("LEM42", "LEM52", "LEM32"):
            [rec] = REGISTRY[cid].fn(ctx, harness.PinnedConstants())
            got.append((cid, idx, rec.status, rec.notes.split(" at ")[0]))
    assert got == [("LEM42", 0, "pass", "grid of 4x4 (t, delta) points"),
                   ("LEM52", 0, "pass", "3 coordinates checked"),
                   ("LEM32", 0, "hypothesis-not-met", "support too wide"),
                   ("LEM42", 1, "pass", "grid of 4x4 (t, delta) points"),
                   ("LEM52", 1, "pass", "3 coordinates checked"),
                   ("LEM32", 1, "hypothesis-not-met", "support too wide")]


TAIL_SWEEP_IDS = checks.SUITES["tail-lemmas"] + ("GAUSS-EATON",)


def _member_records(ctx, check_ids=TAIL_SWEEP_IDS):
    return [rec for cid in check_ids if REGISTRY[cid].applies(ctx)
            for rec in REGISTRY[cid].fn(ctx, harness.PinnedConstants())]


def test_tail_lemmas_read_the_same_support_on_both_backends():
    """Every halfspace member of the tail and builtin corpora, its sums
    forced onto meet-in-the-middle halves: the tail-lemmas suite and
    GAUSS-EATON give the dense backend's records, field for field."""
    checked = 0
    for name in ("tail", "builtin"):
        for i, entry in enumerate(harness.load_corpus(name).entries):
            dense, mitm = (MemberContext(f"{name}#{i}", entry) for _ in range(2))
            if dense.halfspace is None:
                continue
            assert isinstance(mitm.halfspace.distribution(backend="mitm"),
                              MeetInMiddleDistribution)
            assert _member_records(mitm) == _member_records(dense), entry
            checked += 1
    assert checked == 64


def test_a_refused_support_is_one_skip_per_check(monkeypatch):
    """With the pair guard at zero every support assembly of a forced
    meet-in-the-middle member refuses: the whole-support sweeps each record
    one skip noted with the refusal, LEM52, which reads tails alone, records
    its verdict, and GAUSS-EATON falls back to the tail ratio at max(0, t),
    its ratio that lhs over EATON_BOUND as in the sweep."""
    ctx = MemberContext("mitm", "ltf:23,14,10,6,5,3,2,5/3,1,2/3;23")
    ctx.halfspace.distribution(backend="mitm")
    monkeypatch.setattr(halfspace, "_WINDOW_GUARD", 0)
    sweeps = ("LEM32", "COR36", "LEM62", "PROP5")
    got = [(r.check_id, r.instance, r.status, r.notes) for r in _member_records(ctx, sweeps)]
    assert got == [(cid, "mitm", "hypothesis-not-met", "support too wide") for cid in sweeps]
    [rec] = _member_records(ctx, ("LEM52",))
    assert (rec.status, rec.notes) == ("pass", "3 coordinates checked at delta=146/3")
    h = ctx.halfspace
    fallback = checks.gaussian_tail_ratio(h, max(F(0), h.threshold), instance="mitm")
    fallback.ratio = fallback.lhs / checks.EATON_BOUND
    assert _member_records(ctx, ("GAUSS-EATON",)) == [fallback]


def test_a_budget_error_in_a_member_check_is_its_skip_record(monkeypatch):
    """A refusal raised anywhere in a member check's body, here LEM42's
    log comparison, becomes that check's one skip record with the refusal's
    message, and the suite runs on to the end."""
    def refuse(*args):
        raise halfspace.BudgetError("LEM42 sides at l=7 too close to tell in logs")

    monkeypatch.setattr(checks, "log_concave_exp_holds", refuse)
    corpus = harness.load_corpus("builtin")
    report, _ = harness.run_suite("tail-lemmas", corpus)
    lem42 = [r for r in report.records if r.check_id == "LEM42"]
    assert len(lem42) == 14 and report.failures == 0
    assert {(r.status, r.notes) for r in lem42} == {
        ("hypothesis-not-met", "LEM42 sides at l=7 too close to tell in logs")}
    assert len(report.records) == 112


PAST_EVERY_BACKEND = ("ltf:" + ",".join(str(2**24 + 977 * i) for i in range(41))
                      + f";{9 * 2**24}")  # 41 weights summing past the dense budget


def test_a_budget_error_in_a_filter_is_its_check_skip_record(monkeypatch):
    """Beside a small member, one past every backend: each suite ends with
    exit code 0, each check admitted on the wide member records one skip
    with the refusal's text, no local Chernoff body runs on it, and the small
    member gets the records of its own run.  COR36 reads only the reduced
    sum of 40 weights, which the halves take, and checks it."""
    small = "ltf:5,4,3,2,2,1;6"
    refusal = "scaled weight sum 688666996 exceeds the dense budget and n=41 > 40"
    with pytest.raises(halfspace.BudgetError, match=refusal):
        parse_halfspace(PAST_EVERY_BACKEND).mean()
    bodies = []

    def local_chernoff(h, *args, **kwargs):
        bodies.append(h.n)
        return chernoff_check(h, *args, **kwargs)

    chernoff_check = checks.check_local_chernoff
    monkeypatch.setattr(checks, "check_local_chernoff", local_chernoff)
    pair = harness.Corpus("pair", (PAST_EVERY_BACKEND, small))
    solo = harness.Corpus("pair", (small,))
    for suite in ("chernoff", "boundary", "pinned", "tail-lemmas", "levelk"):
        report, _ = harness.run_suite(suite, pair)
        assert report.exit_code == 0, suite
        wide = [r for r in report.records if r.instance.startswith("pair#0")]
        assert [r.instance for r in wide] == ["pair#0"] * len(wide)
        assert len({r.check_id for r in wide}) == len(wide) and wide, suite
        assert {(r.status, r.notes) for r in wide if r.check_id != "COR36"} == {
            ("hypothesis-not-met", refusal)}, suite
        rest = [dataclasses.replace(r, instance=r.instance.replace("pair#1", "pair#0"))
                for r in report.records if not r.instance.startswith("pair#0")]
        assert rest == harness.run_suite(suite, solo)[0].records, suite
    assert 41 not in bodies and bodies
    assert len(harness.run_suite("chernoff", pair)[0].records) == 11


def test_influences_past_every_backend_are_refused_as_the_mean_is(monkeypatch):
    """The influences come from the full distribution alone: past every
    backend they are refused with the mean's message, and no half of a
    reduced distribution is enumerated."""
    def no_half(*args):
        raise AssertionError("a half was enumerated")

    monkeypatch.setattr(halfspace, "_enumerated", no_half)
    h = parse_halfspace(PAST_EVERY_BACKEND)
    with pytest.raises(halfspace.BudgetError) as mean_refusal:
        h.mean()
    with pytest.raises(halfspace.BudgetError) as refusal:
        h.influences()
    assert str(refusal.value) == str(mean_refusal.value)


def test_lem32_compares_masses_past_int64_exactly():
    """One weight 100 and sixty-one 1s: the interval masses reach 2^60.7,
    where 5 * mass wraps int64.  LEM32 finds no violation, as a count of the
    same pairs in Python ints finds."""
    entry = "ltf:100," + ",".join(["1"] * 61) + ";120"
    dist = parse_halfspace(entry).distribution()
    values = dist.support().values
    mass = [dist.count_gt_scaled(v - 100) - dist.count_gt_scaled(v + 100)
            for v in values.tolist() if v >= 0]
    assert max(mass) >= 1 << 60
    assert not any(m > 5 * low for m, low in zip(mass, itertools.accumulate(mass, min)))
    [rec] = REGISTRY["LEM32"].fn(MemberContext("wide", entry), harness.PinnedConstants())
    assert (rec.lhs, rec.status) == (0, "pass")


@pytest.fixture(scope="module")
def fitting_mitm_member():
    """20 coordinates of 24-bit weights: past the dense budget, with a
    support of about a million values that fits the window guard."""
    corpus = harness.corpus_gen("random-halfspace",
                                {"n_lo": 20, "n_hi": 20, "weight_bits": 24, "count": 1}, seed=4)
    assert corpus.digest == "bdc8eba3b5df673a"
    return corpus.entries[0]


def test_sweeps_count_from_the_assembled_support(monkeypatch, fitting_mitm_member):
    """The whole-support sweeps on a meet-in-the-middle member whose support
    fits count their keys from it: no tail count of the halves gets more than
    one key (LEM32 alone passed them 522,334 keys when it counted there)."""
    keys = []
    halves_count = MeetInMiddleDistribution.counts_ge_scaled

    def counting(self, v):
        keys.append(np.size(v))
        return halves_count(self, v)

    monkeypatch.setattr(MeetInMiddleDistribution, "counts_ge_scaled", counting)
    ctx = MemberContext("mitm20", fitting_mitm_member)
    assert isinstance(ctx.halfspace.distribution(), MeetInMiddleDistribution)
    sweeps = ("LEM32", "COR36", "LEM62", "PROP5", "GAUSS-EATON")
    assert [r.status for r in _member_records(ctx, sweeps)] == ["pass"] * len(sweeps)
    assert keys and max(keys) == 1


def test_sign_condition_counts_from_the_halves(fitting_mitm_member):
    """At k = 2 the sign condition of a meet-in-the-middle member is two
    tail counts of its halves, and it answers as the scan of every accepted
    point does; k = 3 is refused, as e_3 could overflow int64."""
    h = parse_halfspace(fitting_mitm_member)
    assert isinstance(h.distribution(), MeetInMiddleDistribution)
    assert levelk.sign_condition_holds(h, 2) == oracles.scanned_sign_condition(h, 2)
    with pytest.raises(OverflowError):
        levelk.sign_condition_holds(h, 3)


def test_assembled_support_counts_match_the_halves(fitting_mitm_member):
    """The support assembled once counts as the halves do at sampled support
    values, one either side of each, and keys inside and past the range."""
    h = parse_halfspace(fitting_mitm_member)
    dist, sup = h.distribution(), h.support()
    assert isinstance(sup, SupportDistribution) and h.support() is sup
    assert (sup.min_scaled, sup.max_scaled, sup.total) == (dist.min_scaled, dist.max_scaled,
                                                          dist.total)
    rng = np.random.default_rng(4)
    picks = rng.choice(sup.values, size=200, replace=False)
    keys = np.concatenate([picks - 1, picks, picks + 1,
                           rng.integers(dist.min_scaled - 10**6, dist.max_scaled + 10**6, 400),
                           [dist.min_scaled - 1, dist.max_scaled + 1, -(1 << 40), 1 << 40]])
    assert len(keys) == 1004
    assert np.array_equal(sup.counts_gt_scaled(keys), dist.counts_gt_scaled(keys))
    assert np.array_equal(sup.counts_ge_scaled(keys), dist.counts_ge_scaled(keys))


def test_standard_corpus_shape():
    corpus = harness.standard_corpus()
    assert len(corpus.entries) == 100
    for i, entry in enumerate(corpus.entries):
        h = parse_halfspace(entry)
        assert 12 <= h.arity <= 20
        band = harness.STANDARD_BANDS[0 if i < 50 else 1]
        assert band[0] <= h.mean() <= band[1]


def test_corpus_kinds_build():
    for kind, params in (("builtin-all", None),
                         ("random-function", {"n": 6, "count": 3}),
                         ("monotone-random", {"n": 5, "count": 3})):
        corpus = harness.corpus_gen(kind, params, seed=3)
        for entry in corpus.entries:
            FunctionSpec.parse(entry).build()
    with pytest.raises(ValueError):
        harness.corpus_gen("mystery")


# a value for each parameter some kind takes, and for one that no kind takes
OTHER_PARAMETERS = {"count": 3, "n": 6, "n_lo": 8, "weight_bits": 4,
                    "eps_band": (F(1, 64), F(1, 8)), "colour": 1}


@pytest.mark.parametrize("kind", list(harness.CORPUS_KINDS))
def test_corpus_kind_refuses_a_parameter_it_does_not_take(kind):
    foreign = [name for name in OTHER_PARAMETERS if name not in harness.CORPUS_KINDS[kind].params]
    assert "colour" in foreign and len(foreign) >= 2
    for name in foreign:
        with pytest.raises(ValueError, match=f"corpus kind '{kind}' takes no parameter '{name}'"):
            harness.corpus_gen(kind, {name: OTHER_PARAMETERS[name]})


@pytest.mark.parametrize("kind", ["random-function", "monotone-random"])
def test_table_kind_refuses_an_arity_past_the_cap(kind):
    with pytest.raises(ValueError, match=r"arity 26 outside supported range 1\.\.25"):
        harness.corpus_gen(kind, {"n": 26, "count": 1})
    with pytest.raises(ValueError, match="arity 0 outside"):
        harness.corpus_gen(kind, {"n": 0, "count": 1})


@pytest.mark.parametrize("kind, params, message", [
    ("random-halfspace", {"count": -3}, "count=-3 is negative"),
    ("random-function", {"count": -1}, "count=-1 is negative"),
    ("random-halfspace", {"n_lo": 0, "n_hi": 0}, "n_lo=0, n_hi=0"),
    ("random-rational-halfspace", {"n_lo": 9, "n_hi": 8}, "n_lo=9, n_hi=8"),
    ("random-halfspace", {"weight_bits": 70}, r"weight_bits=70 outside 0\.\.62"),
    ("random-halfspace", {"weight_bits": -1}, r"weight_bits=-1 outside 0\.\.62"),
    ("random-halfspace", {"eps_band": (F(1, 4), F(1, 16))}, "eps_lo=1/4 exceeds eps_hi=1/16"),
    ("random-halfspace", {"eps_band": (F(1, 8), None)}, "eps_lo=1/8 exceeds eps_hi=1/16"),
    ("random-halfspace", {"eps_band": (0, None)}, r"eps_lo=0 outside \(0, 1\]"),
    ("random-rational-halfspace", {"eps_band": (None, 2)}, r"eps_hi=2 outside \(0, 1\]"),
    ("random-halfspace", {"weight_bits": 62}, r"weight_bits=62 with n_hi=20: .* bound 2\^60"),
    ("random-halfspace", {"weight_bits": 57}, "weight_bits=57 with n_hi=20"),
    ("random-halfspace", {"weight_bits": 56}, "weight_bits=56 with n_hi=20"),
    ("random-halfspace", {"weight_bits": 40, "n_lo": 1, "n_hi": 1 << 20},
     "weight_bits=40 with n_hi=1048576"),
    ("random-rational-halfspace", {"weight_bits": 53}, "weight_bits=53 with n_hi=16"),
])
def test_corpus_gen_refuses_a_parameter_no_draw_satisfies(monkeypatch, kind, params, message):
    """Each refusal names its parameter and comes before the first draw; a
    band side left out takes the kind's default before the band is checked."""
    def no_draw(*args, **kwargs):
        raise AssertionError("a member was drawn")

    monkeypatch.setattr(harness, "distribution_from_scaled", no_draw)
    monkeypatch.setitem(harness.CORPUS_KINDS, "random-function", dataclasses.replace(
        harness.CORPUS_KINDS["random-function"], function=no_draw))
    with pytest.raises(ValueError, match=message):
        harness.corpus_gen(kind, params)


def test_corpus_gen_admits_the_widest_weights_under_the_bound():
    """The widest weights whose sums stay below 2^60 on every draw: 20
    weights of 55 bits, and 16 of 52 bits over denominators 1..4 (lcm 12)."""
    for kind, bits in (("random-halfspace", 55), ("random-rational-halfspace", 52)):
        corpus = harness.corpus_gen(kind, {"count": 2, "weight_bits": bits}, seed=7)
        assert len(corpus.entries) == 2


@pytest.mark.parametrize("kind, default", [("random-halfspace", (F(1, 256), F(1, 16))),
                                           ("random-rational-halfspace", (F(1, 1024), F(1, 4)))])
def test_band_given_on_one_side_takes_the_kinds_default(kind, default):
    assert harness.CORPUS_KINDS[kind].params["eps_band"] == default
    for given, full in (((F(1, 2048), None), (F(1, 2048), default[1])),
                        ((None, F(1, 32)), (default[0], F(1, 32)))):
        one_side = harness.corpus_gen(kind, {"count": 3, "eps_band": given}, seed=4)
        both = harness.corpus_gen(kind, {"count": 3, "eps_band": full}, seed=4)
        assert one_side == both


def test_corpus_kind_digests_are_stable():
    assert harness.corpus_gen("builtin-all").digest == "c563a0bd702feb69"
    assert harness.corpus_gen("random-halfspace", {"count": 4}).digest == "09c7cde807ee89a7"
    rational = harness.corpus_gen("random-rational-halfspace", {"count": 6}, seed=505)
    assert rational.digest == "7baa3ad20e5297cd"
    tables = harness.corpus_gen("random-function", {"n": 6, "count": 3}, seed=3)
    assert tables.digest == "cddb32a7c072c27b"


def test_named_corpora_load_by_name_or_path(tmp_path):
    assert harness.load_corpus(harness.DEFAULT_CORPUS) == harness.corpus_gen("builtin-all")
    assert harness.load_corpus("tail") == harness.tail_lemma_corpus()
    assert harness.load_corpus("standard") == harness.standard_corpus()
    small_corpus().save(tmp_path / "c.json")
    assert harness.load_corpus(str(tmp_path / "c.json")) == small_corpus()


def test_monotone_random_is_monotone():
    from cubelab.bfcore import is_monotone

    corpus = harness.corpus_gen("monotone-random", {"n": 6, "count": 5}, seed=11)
    for entry in corpus.entries:
        assert is_monotone(FunctionSpec.parse(entry).build())


def test_monotone_random_digest_is_stable():
    # recorded when the tables were still built from 2^n index arrays
    assert harness.corpus_gen("monotone-random", seed=0).digest == "0f57e9ade83a60df"
    corpus = harness.corpus_gen("monotone-random", {"n": 10, "count": 20}, seed=5)
    assert corpus.digest == "fefbf1dac7b7328e"


def test_corpus_save_load(tmp_path):
    corpus = small_corpus()
    path = tmp_path / "corpus.json"
    corpus.save(path)
    again = harness.Corpus.load(path)
    assert again == corpus and again.digest == corpus.digest


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        harness.run_suite("mystery", small_corpus())


def test_registry_declares_each_check_once():
    """Every registered check sits in a suite, and an id is registered once."""
    assert set(REGISTRY) == set(checks.SUITES["all"])
    parseval = REGISTRY["PARSEVAL"]
    with pytest.raises(ValueError, match="PARSEVAL"):
        checks._check("PARSEVAL", lambda ctx: True)(lambda ctx: [])
    with pytest.raises(ValueError, match="EX54"):
        checks._check("EX54")(lambda: [])
    assert REGISTRY["PARSEVAL"] is parseval


def test_exact_identities_on_builtins():
    report, _ = harness.run_suite("exact-identities", harness.corpus_gen("builtin-all"))
    assert report.failures == 0
    assert report.exit_code == 0
    assert any(r.check_id == "PARSEVAL" for r in report.records)


# halfspaces with an empty tail (eps = 0) and a full one, and a constant table
EDGE_MEMBERS = ("ltf:1,1;2", "ltf:3,2,1;6", "ltf:1,1;-3", "tt:2:0")


def test_member_checks_run_on_builtin_members():
    """Every member check runs, without raising, on each builtin and edge
    member its filter admits."""
    constants = harness.PinnedConstants()
    ran = set()
    for idx, entry in enumerate(harness.BUILTIN_ALL + EDGE_MEMBERS):
        ctx = MemberContext(f"builtin#{idx}", entry)
        for cid, defn in REGISTRY.items():
            if defn.scope == "member" and defn.applies(ctx):
                assert defn.fn(ctx, constants)
                ran.add(cid)
    member_checks = {cid for cid, d in REGISTRY.items() if d.scope == "member"}
    assert ran == member_checks


def test_member_checks_run_on_wide_sparse_halfspace():
    """Past the table cap with few nonzero weights: no truth table, and every
    member check its filter admits runs (the level-weight ones are not
    admitted)."""
    constants = harness.PinnedConstants()
    ctx = MemberContext("wide-sparse", "ltf:" + ",".join(["3", "2", "1"] + ["0"] * 27) + ";1")
    assert ctx.halfspace.n == 3 and ctx.arity == 30 and ctx.function is None
    admitted = {cid for cid, d in REGISTRY.items() if d.scope == "member" and d.applies(ctx)}
    for cid in admitted:
        assert REGISTRY[cid].fn(ctx, constants)
    assert {"NG", "SIGN-COND", "THM18", "LEM32"} <= admitted
    assert not admitted & {"WK-PIPELINE", "GL-halfplane", "THM12-lower", "LVLK-upper",
                           "NSREMARK", "PROP92"}


def test_wk_pipeline_check_matches_internal_table_route():
    """WK-PIPELINE records with W^k from the member's spectrum equal those of
    the pipeline fed by a table of the halfspace's own (descending) weights."""
    entries = ("maj:13", "ball:12,3", "ltf:6,5,4,3,2,1;3/2", *small_corpus().entries)
    for entry in entries:
        ctx = MemberContext("m", entry)
        h = ctx.halfspace
        expect = [levelk.pipeline_record(
            levelk.level_k_pipeline(levelk.CubeScan(h), k, oracles.table_level_weight(h, k)), f"m k={k}")
            for k in (2, 3)]
        assert REGISTRY["WK-PIPELINE"].fn(ctx, harness.PinnedConstants()) == expect


def test_each_member_does_its_cube_work_once(monkeypatch):
    """run_suite("all") on two members: each makes one e_k layer pass, one
    build of the first-level form's values, one cut profile and one
    level-sum pass, however many checks read them, and no dot-value fill in
    levelk (the cube's dot values are its e_1 layer), no value-class sort
    and no search with 2^n keys: the point weights come from the threshold
    window.  The global checks' own calls are measured on an empty corpus
    and taken off.  On a member of 21 coordinates the levelk suite makes no
    e_k layer pass."""
    counts = Counter()

    def counting(owner, name, key=None):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key(args, kwargs) if key else name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    # a dot-value fill is told apart by its caller: halfspace builds truth
    # tables, correlate the form's values, levelk the member's cube scan
    counting(kernels, "dot_values",
             lambda a, kw: "dot_values from " + sys._getframe(2).f_globals["__name__"])
    counting(np, "unique", lambda a, kw: "class sort" if kw.get("return_inverse") else "unique")
    counting(np, "searchsorted", lambda a, kw: ("search from " + sys._getframe(2).f_globals["__name__"],
                                                np.size(a[1])))
    counting(levelk, "elementary_symmetric_pointwise")
    counting(correlate.LinearForm, "scaled_values")
    counting(correlate, "_cut_covariances")
    counting(kernels, "squared_level_sums")
    harness.run_suite("all", harness.Corpus("empty", ()))
    globals_only = Counter(counts)
    counts.clear()
    corpus = harness.corpus_gen("random-halfspace", {"n_lo": 10, "n_hi": 12, "count": 2}, seed=7)
    report, _ = harness.run_suite("all", corpus)
    assert {r.check_id for r in report.records} >= {"SIGN-COND", "WK-PIPELINE", "THM17",
                                                    "PROP92", "PROP93", "PROP16", "NSREMARK"}
    per_members = counts - globals_only
    for key in ("elementary_symmetric_pointwise", "scaled_values", "_cut_covariances",
                "squared_level_sums"):
        assert per_members[key] == 2, key
    key_counts = {key[1] for key in per_members
                  if isinstance(key, tuple) and key[0] == "search from cubelab.levelk"}
    assert key_counts and not key_counts & {1 << parse_halfspace(e).n for e in corpus.entries}
    assert per_members["dot_values from cubelab.levelk"] == 0
    assert per_members["class sort"] == 0
    # past WK-PIPELINE's 20 coordinates the levelk suite fills no cube at all
    counts.clear()
    wide = harness.corpus_gen("random-halfspace", {"n_lo": 21, "n_hi": 21, "weight_bits": 10,
                                                   "count": 1}, seed=11)
    report, _ = harness.run_suite("levelk", wide)
    assert sum(r.check_id == "SIGN-COND" for r in report.records) == 2
    assert counts["elementary_symmetric_pointwise"] == 0


def test_levelk_suite_builds_no_table_past_20_coordinates(monkeypatch):
    """WK-PIPELINE reads the arity before it asks for the member's truth
    table, so on halfspaces of 21 and 22 coordinates (below TABLE_CAP) the
    levelk suite builds no table and records no WK-PIPELINE."""
    built = []
    build = FunctionSpec.build
    monkeypatch.setattr(FunctionSpec, "build", lambda self: built.append(self) or build(self))
    wide = harness.corpus_gen("random-halfspace", {"n_lo": 21, "n_hi": 22, "weight_bits": 10,
                                                   "count": 2}, seed=11)
    report, _ = harness.run_suite("levelk", wide)
    assert "WK-PIPELINE" not in {r.check_id for r in report.records}
    assert built == []


def test_gauss_eaton_ratio_is_lhs_over_eaton_bound():
    """Both GAUSS-EATON routes record the worst ratio over EATON_BOUND as
    their ratio: the sweep over an assembled support (the builtin corpus)
    and the one-threshold fallback where assembly is refused (the gated
    meet-in-the-middle corpus of 26-30 coordinates)."""
    mitm = harness.corpus_gen("random-halfspace", {"n_lo": 26, "n_hi": 30, "weight_bits": 24,
                                                   "count": 3}, seed=5)
    swept = set()
    for corpus in (mitm, harness.load_corpus("builtin")):
        report, _ = harness.run_suite("chernoff", corpus, pin=True)
        for rec in report.records:
            if rec.check_id == "GAUSS-EATON":
                assert rec.ratio == rec.lhs / checks.EATON_BOUND
                swept.add(rec.notes.endswith("grid evaluations"))
    assert swept == {True, False}


def test_lem111_reports_the_first_violating_triple(monkeypatch):
    """On a distribution that is not log-concave (four atoms, each heavy one
    followed by a light one across a gap), LEM111 counts the violating
    triples of its 40 draws as the Fraction oracle does and names the first
    one drawn."""
    entry = "ltf:1,1;0"
    fake = SupportDistribution(np.array([-12, -10, 10, 12]), np.array([3, 1, 3, 1]), 1, 3)
    monkeypatch.setattr(Halfspace, "distribution", lambda self, backend=None: fake)
    [rec] = REGISTRY["LEM111"].fn(MemberContext("fake", entry), harness.PinnedConstants())
    # the same draws as the check: one call of three per triple
    rng = np.random.default_rng([111, zlib.crc32(entry.encode())])
    failing = []
    for _ in range(checks.LOG_CONCAVITY_TRIPLES):
        picks = sorted(F(int(x), 4) for x in rng.integers(4 * -13, 4 * 13 + 1, size=3))
        if not oracles.check_log_concavity(fake, *picks, 2).passed:
            failing.append(picks)
    assert len(failing) >= 2 and failing[0] != failing[-1]
    assert (rec.status, rec.passed, rec.lhs) == ("fail", False, len(failing))
    assert rec.notes == f"40 sampled triples; first violation {failing[0]}"


def _prop5_thresholds(h):
    """Rational thresholds below the support of a.x, at each support value,
    between it and the next scaled integer, and above the support."""
    values = [F(int(v), h.scale) for v in h.distribution().support().values]
    between = [v + F(1, 3 * h.scale) for v in values]
    return [values[0] - 1] + values + between + [values[-1] + F(1, 2)]


def test_tail_lemmas_pass_their_supports_to_the_helpers(monkeypatch):
    """The tail lemmas and their helpers read the halfspace's kept
    supports: on the seed-1 16-coordinate dense member they make 2 sorted
    supports of the DP's cells, the full one and the one without
    coordinate 0, where each check building its own made 5, and the
    report keeps its bytes."""
    corpus = harness.corpus_gen("random-halfspace", {"n_lo": 16, "n_hi": 16, "count": 1}, seed=1)
    assert isinstance(parse_halfspace(corpus.entries[0]).distribution(), TailDistribution)
    built = []
    for form in (TailDistribution, MeetInMiddleDistribution):
        monkeypatch.setattr(form, "support",
                            lambda self, support=form.support: built.append(1) or support(self))
    report, _ = harness.run_suite("tail-lemmas", corpus)
    assert len(built) == 2
    assert [r.status for r in report.records] == ["pass"] * 8
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "efbb52474c0ac4e3b3fb80928074a7fb627c69e5ac44f9af2e5d552c96c6211f")


def test_run_suite_builds_each_support_once_per_distribution(monkeypatch):
    """The `all` suite on three standard members reads each support from
    its halfspace's memo: the tail lemmas, GAUSS-EATON and WK-PIPELINE
    read them, and no distribution builds its support twice."""
    built = []
    for form in (TailDistribution, MeetInMiddleDistribution):
        monkeypatch.setattr(form, "support",
                            lambda self, support=form.support: built.append(self) or support(self))
    harness.run_suite("all", harness.Corpus("standard", harness.standard_corpus().entries[:3]))
    assert built and all(isinstance(d, TailDistribution) for d in built)
    assert len({id(d) for d in built}) == len(built)  # built holds each, so no id is reused


def test_prop5_sums_match_the_per_coordinate_route():
    """PROP5's small-class sums by the identity against one reduced
    distribution per coordinate, for every big-class size 0..n: tied
    weights, rational weights and thresholds, and a member of 60 integer
    weights whose sums pass int64."""
    rng = np.random.default_rng(5)
    members = [make_halfspace([3, 3, 2, 2, 2, 1, 1], 2),
               make_halfspace([F(3, 2), F(3, 2), 1, F(2, 3), F(1, 2), F(1, 2)], F(1, 3)),
               make_halfspace([1] * 5, 0), make_halfspace([5], 0)]
    for _ in range(12):
        n = int(rng.integers(1, 9))
        den = int(rng.integers(1, 4))
        members.append(make_halfspace(
            [F(int(w), den) for w in rng.integers(1, 5, size=n)], F(int(rng.integers(-3, 4)), 2)))
    for h in members:
        thresholds = _prop5_thresholds(h)
        cuts = np.array([math.floor(t * h.scale) for t in thresholds])
        for n_big in range(h.n + 1):
            got = checks._small_class_sums(h, n_big, cuts)
            assert got.tolist() == oracles.per_coordinate_small_class_sums(
                h, n_big, thresholds), (h.to_text(), n_big)
    wide = make_halfspace([int(w) for w in rng.integers(3, 6, size=60)], 0)
    dist = wide.distribution()
    assert dist.max_scaled << dist.n_summands >= 1 << 63
    thresholds = [F(-200), F(-7, 2), F(0), F(1, 3), F(41), F(200)]
    cuts = np.array([math.floor(t) for t in thresholds])
    for n_big in (0, 1, 2, 30, 59, 60):
        want = oracles.per_coordinate_small_class_sums(wide, n_big, thresholds)
        assert checks._small_class_sums(wide, n_big, cuts).tolist() == want
    assert max(oracles.per_coordinate_small_class_sums(wide, 0, thresholds)) >= 1 << 63


def test_prop5_builds_only_the_big_class_distributions(monkeypatch):
    """PROP5 on each standard member that it runs on builds the member's own
    distribution and one reduced distribution per big-class coordinate: on
    a member with |B| = 0, none besides its own."""
    built = []
    original = halfspace.distribution_from_scaled

    def counting(weights, scale, backend=None):
        built.append(len(weights))
        return original(weights, scale, backend)

    monkeypatch.setattr(halfspace, "distribution_from_scaled", counting)
    sizes = Counter()
    for i, entry in enumerate(harness.standard_corpus().entries):
        built.clear()
        ctx = MemberContext(f"standard#{i}", entry)
        [rec] = REGISTRY["PROP5"].fn(ctx, harness.PinnedConstants())
        if rec.status == "pass":
            n_big = int(rec.notes.split(",")[0].removeprefix("|B|="))
            n = ctx.halfspace.n
            assert built == [n] + [n - 1] * n_big, (entry, rec.notes)
            sizes[n_big] += 1
    assert sizes[0] > 0 and len(sizes) > 1


@pytest.mark.parametrize("top", [20, 1 << 61], ids=["small", "2^61"])
def test_decay_violations_match_the_pointer_sweep(top):
    """COR36's prefix-minimum count against the sweep, on pieces with tied
    keys and values up to 2^61, where 5 * min would overflow int64."""
    rng = np.random.default_rng(36)
    for size in (1, 2, 7, 40):
        for _ in range(25):
            breaks = np.unique(rng.integers(-6, 7, size=size)).astype(np.float64)
            lows = np.concatenate([[-np.inf], breaks])
            highs = np.concatenate([breaks, [np.inf]])
            kappa = np.where(lows >= 0, lows, np.where(highs <= 0, -highs, 0.0))
            vals = rng.integers(0, top, size=len(kappa), endpoint=True)
            want = oracles.swept_decay_violations(kappa, highs, vals)
            assert checks._decay_violations(kappa, highs, vals) == want


def test_distinct_matches_np_unique():
    """COR36's breakpoints: the same array as np.unique, dtype
    included, on random, empty and all-equal arrays."""
    rng = np.random.default_rng(62)
    cases = [np.array([], dtype=np.int64), np.full(9, -4, dtype=np.int64), np.array([7])]
    for size in (1, 2, 5, 100, 10_000):
        cases.append(rng.integers(-size, size, size=size))
        cases.append(rng.integers(-(1 << 62), 1 << 62, size=size))
    for values in cases:
        got = checks._distinct(values)
        want = np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_gauss_eaton_matches_the_two_pass_sweep():
    """GAUSS-EATON reads only P(a.x >= v) at each support value v >= 0; its
    worst ratio equals the sweep that also reads P(a.x > v), on every dense
    member of the builtin, tail and standard corpora it runs on."""
    checked = 0
    for name in ("builtin", "tail", "standard"):
        for i, entry in enumerate(harness.load_corpus(name).entries):
            ctx = MemberContext(f"{name}#{i}", entry)
            if not REGISTRY["GAUSS-EATON"].applies(ctx):
                continue
            dist = ctx.halfspace.distribution()
            [rec] = REGISTRY["GAUSS-EATON"].fn(ctx, harness.PinnedConstants())
            want = oracles.two_pass_gauss_worst(dist, ctx.halfspace.l2_norm())
            assert rec.lhs == want, entry
            checked += 1
    assert checked == 164


def test_pin_then_assert_roundtrip(tmp_path):
    corpus = small_corpus()
    report, fresh = harness.run_suite("pinned", corpus, pin=True)
    assert report.failures == 0
    assert fresh.corpus_digest == corpus.digest
    path = tmp_path / "constants.json"
    fresh.save(path)
    loaded = harness.PinnedConstants.load(path)
    report2, none = harness.run_suite("pinned", corpus, constants=loaded)
    assert none is None
    assert report2.failures == 0
    asserted = [r for r in report2.records if r.check_id == "THM18"]
    assert asserted and all(r.status == "pass" for r in asserted)


def big_class_corpus():
    """Members with THM19 big-class records and a nonzero THM110 constant."""
    return harness.corpus_gen(
        "random-halfspace",
        {"n_lo": 8, "n_hi": 12, "count": 6, "eps_band": (F(1, 256), F(1, 16))},
        seed=22,
    )


def _pin_and_reload(corpus, tmp_path):
    report, fresh = harness.run_suite("pinned", corpus, pin=True)
    path = tmp_path / "constants.json"
    fresh.save(path)
    return report, harness.PinnedConstants.load(path)


def test_pin_report_equals_report_asserting_its_constants(tmp_path):
    corpus = big_class_corpus()
    pinned, loaded = _pin_and_reload(corpus, tmp_path)
    assert loaded.get("THM110") > 0
    assert any(r.check_id == "THM19" and r.lhs is None for r in pinned.records)
    asserted, _ = harness.run_suite("pinned", corpus, constants=loaded)
    assert pinned.to_json() == asserted.to_json()
    assert pinned.to_csv() == asserted.to_csv()


def test_asserted_pinned_record_fields(tmp_path):
    corpus = big_class_corpus()
    pinned, loaded = _pin_and_reload(corpus, tmp_path)
    asserted, _ = harness.run_suite("pinned", corpus, constants=loaded)
    for report in (pinned, asserted):
        by_id: dict[str, list] = {}
        for rec in report.records:
            if rec.status != "hypothesis-not-met":
                by_id.setdefault(rec.check_id, []).append(rec)
        for cid in ("THM18", "THM110"):
            assert by_id[cid] and all(r.status in ("pass", "fail") for r in by_id[cid])
            for r in by_id[cid]:
                assert r.rhs == loaded.get(cid)
                assert r.ratio == float(F(r.lhs) / F(r.rhs))
        big = [r for r in by_id["THM19"] if r.lhs is None]
        assert big and all(r.status == "pass" and r.rhs == loaded.get("THM19") for r in big)
        for r in by_id["THM19"]:
            if r.lhs is not None:
                assert r.ratio == float(F(r.lhs) / F(r.rhs))
        for cid in ("THM14-band", "THM15-band", "THM64"):
            assert by_id[cid]
            for r in by_id[cid]:
                assert isinstance(r.rhs, tuple) and len(r.rhs) == 2 and r.ratio is None
        for cid in ("THM12-lower", "THM17"):
            stats = [r for r in by_id[cid] if isinstance(r.lhs, float)]
            assert stats and all(r.rhs == loaded.get(cid) and r.ratio is None for r in stats)
    # a zero upper bound (THM110 can pin 0) is asserted without a ratio
    zero = harness.PinnedConstants(corpus.digest, {"THM110": 0.0})
    report, _ = harness.run_suite("chernoff", corpus, constants=zero)
    weak = [r for r in report.records if r.check_id == "THM110"]
    assert weak and all(r.rhs == 0.0 and r.ratio is None for r in weak)


def test_assert_refuses_foreign_constants():
    corpus = small_corpus()
    foreign = harness.PinnedConstants("0000deadbeef0000", {"THM18": 1.0})
    with pytest.raises(harness.PinError):
        harness.run_suite("pinned", corpus, constants=foreign)


def test_unpinned_run_reports_only():
    corpus = small_corpus()
    report, _ = harness.run_suite("chernoff", corpus)
    assert report.failures == 0
    stats = [r for r in report.records if r.check_id == "THM18"]
    assert stats and all(r.status in ("report", "pass") for r in stats)


def test_report_json_reproducible():
    corpus = small_corpus()
    r1, _ = harness.run_suite("boundary", corpus)
    r2, _ = harness.run_suite("boundary", corpus)
    assert r1.to_json() == r2.to_json()
    payload = json.loads(r1.to_json())
    assert payload["corpus"]["digest"] == corpus.digest
    for rec in payload["records"]:
        assert rec["status"] in ("pass", "fail", "hypothesis-not-met", "report")


def test_report_csv_export():
    report, _ = harness.run_suite("paper-examples", harness.corpus_gen("builtin-all"))
    csv_text = report.to_csv()
    header, *rows = csv_text.strip().split("\n")
    assert header.startswith("check_id,instance")
    assert len(rows) == len(report.records)


def test_summary_counts_match_records():
    report, _ = harness.run_suite("tail-lemmas", small_corpus())
    summary = report.summary()
    total = sum(sum(slot[k] for k in ("pass", "fail", "hypothesis-not-met", "report"))
                for slot in summary.values())
    assert total == len(report.records)
