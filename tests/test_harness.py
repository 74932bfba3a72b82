import json
from fractions import Fraction

import pytest

from cubelab import harness, levelk
from cubelab.bfcore import FunctionSpec
from cubelab.checks import REGISTRY, MemberContext
from cubelab.halfspace import MeetInMiddleDistribution, parse_halfspace

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


def test_exact_identities_on_builtins():
    report, _ = harness.run_suite("exact-identities", harness.corpus_gen("builtin-all"))
    assert report.failures == 0
    assert report.exit_code == 0
    assert any(r.check_id == "PARSEVAL" for r in report.records)


def test_member_checks_run_on_builtin_members():
    """Every member check runs on each builtin member its filter admits."""
    constants = harness.PinnedConstants()
    ran = set()
    for idx, entry in enumerate(harness.BUILTIN_ALL):
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
            levelk.level_k_pipeline(h, k, oracles.table_level_weight(h, k)), f"m k={k}")
            for k in (2, 3)]
        assert REGISTRY["WK-PIPELINE"].fn(ctx, harness.PinnedConstants()) == expect


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
