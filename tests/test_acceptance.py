"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Shared expensive artifacts
(the frozen corpus and its suite runs) are module-scoped fixtures.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from cubelab import bfcore, correlate, harness, influence, spectral
from cubelab.chernoff import check_interval_decay
from cubelab.halfspace import make_halfspace, parse_halfspace
from cubelab.rational import common_scale

import flips
import oracles

F = Fraction


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def std_corpus():
    return harness.standard_corpus()


@pytest.fixture(scope="module")
def packaged_constants():
    return harness.PinnedConstants.load_default()


@pytest.fixture(scope="module")
def pinned_report(std_corpus, packaged_constants):
    report, _ = harness.run_suite("pinned", std_corpus, constants=packaged_constants)
    return report


@pytest.fixture(scope="module")
def levelk_report(std_corpus):
    report, _ = harness.run_suite("levelk", std_corpus)
    return report


@pytest.fixture(scope="module")
def fourier_report(std_corpus, packaged_constants):
    report, _ = harness.run_suite("fourier", std_corpus, constants=packaged_constants)
    return report


@pytest.fixture(scope="module")
def tail_corpus():
    return harness.tail_lemma_corpus()


# ---------------------------------------------------------------------------

def test_criterion_1_exact_identities():
    rng = np.random.default_rng(11)
    # Parseval: builtins and 100 random 12-coordinate functions
    for entry in harness.BUILTIN_ALL:
        f = bfcore.FunctionSpec.parse(entry).build()
        assert spectral.parseval_holds(f)
    for _ in range(100):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << 12), 12)
        assert spectral.parseval_holds(f)
        assert spectral.fwht_spectrum(f).level_weights().total() == f.mean

    # fast transform against the defining sum: all 256 functions at n=3,
    # then 100 random functions at n=10
    for code in range(256):
        f = bfcore.from_truth_table([code >> m & 1 for m in range(8)], 3)
        assert np.array_equal(spectral.fwht_spectrum(f).numerators,
                              spectral.spectrum_by_definition(f).numerators)
    for _ in range(100):
        f = bfcore.from_truth_table(rng.integers(0, 2, size=1 << 10), 10)
        assert np.array_equal(spectral.fwht_spectrum(f).numerators,
                              spectral.spectrum_by_definition(f).numerators)

    # halfspace path against the truth-table path on 50 random instances
    corpus = harness.corpus_gen(
        "random-halfspace",
        {"n_lo": 8, "n_hi": 16, "count": 50, "eps_band": (F(1, 1024), F(1, 4))},
        seed=1616)
    for entry in corpus.entries:
        h = parse_halfspace(entry)
        table = h.truth_table()
        prof = influence.influences(table)
        assert h.influences() == list(prof.per_coordinate)
        assert h.mean() == table.mean
        for shift in (F(0), h.threshold, h.threshold + 1, -h.threshold):
            want = make_halfspace(h.original_weights, shift).truth_table().mean
            assert h.tail(shift) == want
    announce(1, True, "Parseval, transform vs definition, and the two "
                      "influence/mean/tail routes agree exactly")


def test_criterion_2_paper_examples():
    f5 = bfcore.paper5()
    spec = spectral.fwht_spectrum(f5)
    ok = all(spec.coefficient(1 << i) == F(1, 16) for i in range(5))
    ok &= spectral.covariance(f5, bfcore.majority(5)) == F(-1, 16)
    ok &= correlate.unbiased_correlator(correlate.FirstLevel(f5)).covariance == F(1, 8)
    for k in range(1, 7):
        h = make_halfspace([F(1)] * k + [F(0)] * 2, F(2 * k - 1, 2))
        ok &= h.vertex_boundary(1) == F(1, 2**k)
        ok &= h.vertex_boundary(0) == F(k, 2**k)
    dictator = make_halfspace([F(1), F(0), F(0)], 0)
    ok &= dictator.vertex_boundary(1) == dictator.influence(0) / 2
    announce(2, ok, "five-variable example coefficients and covariances, "
                    "subcube boundaries, dictator tightness")
    assert ok


def _extrapolate_to_limit(values: dict[int, Fraction], sizes) -> Fraction:
    """Exact polynomial fit in 1/n through `sizes`, evaluated at 1/n = 0."""
    total = F(0)
    for i in sizes:
        weight = F(1)
        for j in sizes:
            if j != i:
                weight *= F(i, i - j)
        total += weight * values[i]
    return total


def test_criterion_3_heavy_light_family():
    """vb1 / I(heavy) along the 5&4 family tends to 10/9; the 0.02 window is
    a statement about that limit.

    The family rises strictly towards 10/9 from below, with n * (10/9 -
    value(n)) = 2.24 at n = 21, 2.42 at 41, 2.56 at 121 and 2.63 at 1001;
    value(41) = 1.052002436... exactly.  The window first holds at n = 129
    (gap 0.01992; n = 127 gives 0.02022), which the library counts exactly.
    The test checks every exact value against an independent binomial
    count, the window's first member at 129, and the tolerance on the
    extrapolation in 1/n of the values through n = 41.
    """
    target, tolerance = F(10, 9), F(2, 100)

    def family(n):
        return [F(5)] * 4 + [F(4)] * (n - 4)

    # the two-weight count itself, against brute force on truth tables
    for n in range(5, 14, 2):
        f = make_halfspace(family(n), 1).truth_table()
        assert oracles.two_weight_boundary(5, 4, 4, n - 4, 1) == oracles.brute_boundary(f, 1)
        assert (oracles.two_weight_heavy_influence(5, 4, 4, n - 4, 1)
                == oracles.brute_influence(f, 0))

    values = {}
    for n in [*range(5, 42, 2), 127, 129]:
        h = make_halfspace(family(n), 1)
        vb1, heavy_influence = h.vertex_boundary(1), h.influence_internal(0)
        assert vb1 == oracles.two_weight_boundary(5, 4, 4, n - 4, 1), n
        assert heavy_influence == oracles.two_weight_heavy_influence(5, 4, 4, n - 4, 1), n
        values[n] = vb1 / heavy_influence
    sizes = sorted(values)
    assert all(values[a] < values[b] for a, b in zip(sizes, sizes[1:]))
    assert values[129] < target
    assert target - values[127] > tolerance >= target - values[129]

    quadratic = _extrapolate_to_limit(values, (21, 31, 41))
    linear = _extrapolate_to_limit(values, (21, 41))
    gaps = [abs(quadratic - target), abs(linear - target)]
    ok = max(gaps) <= tolerance
    announce(3, ok, f"5&4-family ratio exact at odd n = 5..41, 127 and 129, rising to "
                    f"{float(values[41]):.6f} at 41 and {float(values[129]):.6f} at 129, "
                    f"the first n in the window; extrapolated limit "
                    f"{float(quadratic):.6f} (quadratic in 1/n), "
                    f"{float(linear):.6f} (linear); |limit - 10/9| <= "
                    f"{float(max(gaps)):.4f} (tolerance 0.02)")
    assert ok, (
        f"the 1/n extrapolations {float(quadratic):.6f} (through n = 21, 31, 41) "
        f"and {float(linear):.6f} (through n = 21, 41) should lie within 0.02 of "
        f"10/9; the exact values they come from match the binomial count"
    )


def test_criterion_4_constructive_injections():
    rng = np.random.default_rng(41)
    weight_sets = []
    for _ in range(20):
        n = 14
        weight_sets.append(tuple(
            F(int(a), int(b)) for a, b in
            zip(rng.integers(1, 9, size=n), rng.integers(1, 5, size=n))))

    def signs(n):
        return np.array(list(product((-1, 1), repeat=n)), dtype=np.int64)

    def scaled(values, scale):
        return np.array([int(v * scale) for v in values], dtype=np.int64)

    def distinct_rows(x):
        return len(np.unique(x, axis=0)) == len(x)

    # suffix flip involution: exhaustive over paired 7+7 sign coordinates
    sign_space = signs(7)
    ui, vi = np.divmod(np.arange(len(sign_space) ** 2), len(sign_space))
    for trial in range(3):
        w = weight_sets[trial][:7]
        r = F(int(rng.integers(-2, 8)), 2)
        scale = common_scale(w + (r,))
        vectors = sign_space * scaled(w, scale)
        u, v, level = vectors[ui], vectors[vi], int(r * scale)
        a, b, ok = flips.suffix_flip(u, v, level)
        back_u, back_v, back_ok = flips.suffix_flip(a[ok], b[ok], level)
        assert back_ok.all()
        assert (back_u == u[ok]).all() and (back_v == v[ok]).all()

    # prefix flip: drop lands in [r, r + 2 max) and the map injects, n = 14
    sign_space = signs(14)
    for w in weight_sets:
        r = F(int(rng.integers(0, 10)), 2)
        scale = common_scale(w + (r,))
        u, level = sign_space * scaled(w, scale), int(r * scale)
        v, ok = flips.prefix_flip(u, level)
        drop = u[ok].sum(axis=1) - v[ok].sum(axis=1)
        assert (level <= drop).all() and (drop < level + 2 * int(max(w) * scale)).all()
        assert distinct_rows(v[ok])

    # single-coordinate flip inverts exhaustively at n = 14
    y, ok = flips.single_coord_flip(sign_space)
    back, _ = flips.single_coord_unflip(y[ok])
    assert (back == sign_space[ok]).all()

    # weighted variant: 20 weight vectors over the full 14-cube
    for w in weight_sets:
        a = scaled(w, common_scale(w))
        positive = sign_space[sign_space @ a > 0]
        y, ok = flips.weighted_coord_flip(a, positive)
        back, _ = flips.weighted_coord_unflip(a, y)
        assert ok.all() and (back == positive).all()

    # the four-piece interval shift covers its domain injectively at n = 12
    hit = 0
    sign_space = signs(12)
    for trial in range(6):
        n = 12
        w = tuple(F(int(a), int(b)) for a, b in
                  zip(rng.integers(1, 7, size=n), rng.integers(1, 4, size=n)))
        m = max(w) * F(int(rng.integers(2, 5)), 2)
        s = F(int(rng.integers(0, 5)), 2)
        scale = common_scale(w + (m, s))
        a, s, m = scaled(w, scale), int(s * scale), int(m * scale)
        total = sign_space @ a
        piece, out, ok = flips.interval_shift_map(a, s, m, sign_space)
        assert (ok == ((s + m < total) & (total <= s + 3 * m))).all()
        hit += int(ok.sum())
        new_total = out[ok] @ a
        assert ((s - m < new_total) & (new_total <= s + m)).all()
        for k in (1, 2, 3, 4):
            assert distinct_rows(out[ok & (piece == k)])
    assert hit > 200
    announce(4, True, "flip transforms invert, land in range, and cover "
                      "their domains injectively (exhaustive)")


def test_criterion_5_tail_shape_lemmas(tail_corpus):
    report, _ = harness.run_suite("tail-lemmas", tail_corpus)
    ok = report.failures == 0
    # the log-concavity sweep at full strength: 1000 triples per instance
    rng = np.random.default_rng(51)
    violations = 0
    for entry in tail_corpus.entries:
        h = parse_halfspace(entry)
        dist = h.distribution()
        m = 2 * int(h.scaled[0])
        lo, hi = dist.min_scaled - 4, dist.max_scaled + 4
        picks = np.sort(rng.integers(lo, hi + 1, size=(1000, 3)), axis=1)
        b, c, d = picks[:, 0], picks[:, 1], picks[:, 2]
        lhs = dist.counts_gt_scaled(d) * dist.counts_gt_scaled(b)
        rhs = dist.counts_gt_scaled(c) * dist.counts_gt_scaled(b + d - c - m)
        violations += int(np.count_nonzero(lhs > rhs))
    ok &= violations == 0
    announce(5, ok, f"tail-shape lemma suite clean on {len(tail_corpus.entries)} "
                    f"instances; 50000 log-concavity triples, {violations} violations")
    assert ok


def test_criterion_6_pinned_regressions(std_corpus, packaged_constants, pinned_report):
    assert packaged_constants.values, "pinned constants file must ship with the package"
    assert packaged_constants.corpus_digest == std_corpus.digest
    ok = pinned_report.failures == 0
    counts = {}
    for rec in pinned_report.records:
        counts[rec.check_id] = counts.get(rec.check_id, 0) + (rec.status == "pass")
    for cid in ("THM12-lower", "THM14-band", "THM15-band", "THM18", "THM19",
                "THM110", "THM64", "THM17"):
        assert counts.get(cid, 0) > 0, f"{cid} never asserted"
    announce(6, ok, f"{len(pinned_report.records)} pinned-constant records "
                    f"re-asserted with zero drift")
    assert ok


def test_criterion_7_gaussian_comparison(pinned_report):
    records = [r for r in pinned_report.records if r.check_id == "GAUSS-EATON"]
    assert records
    ok = all(r.status == "pass" for r in records)
    worst = max(r.lhs for r in records)
    announce(7, ok, f"{len(records)} grid maxima, worst ratio {worst:.4f} "
                    f"<= 3.178 * (1 + 1e-9)")
    assert ok


def test_criterion_8_level_k_machinery(levelk_report, fourier_report):
    upper = [r for r in fourier_report.records if r.check_id == "LVLK-upper"]
    asserted = [r for r in upper if r.status != "hypothesis-not-met"]
    ok = bool(asserted) and all(r.status == "pass" for r in asserted)
    by_id = {}
    for rec in levelk_report.records:
        by_id.setdefault(rec.check_id, []).append(rec)
    for cid in ("IH-DERIV", "FDERIV", "NG"):
        ok &= all(r.status == "pass" for r in by_id[cid])
    for cid in ("SIGN-COND", "WK-PIPELINE"):
        ok &= all(r.status != "fail" for r in by_id[cid])
    pipeline_asserted = sum(r.status == "pass" for r in by_id["WK-PIPELINE"])
    announce(8, ok, f"level-k inequality on {len(asserted)} instances, "
                    f"derivative law, symmetric identities, sign condition, "
                    f"and {pipeline_asserted} bracketed smoothing totals")
    assert ok


def test_criterion_9_interval_decay_witness():
    """LEM32's factor 5 is not far from sharp: the all-ones family witnesses
    ratios near 2.

    With threshold 0 and (s, t, m) = (1, 2, 3/2) the base interval holds the
    sum 1 and the shifted one the sums 1 and 3, so the ratio is exactly
    1 + C(n, (n+3)/2) / C(n, (n+1)/2) = 1 + (n-1)/(n+3): 11/6 at n = 21,
    1.8947 at n = 35 and 19/10 at n = 37.  No member below 37 reaches 1.9,
    so the family is taken over odd n = 21..41, as the registry's witness
    check does.
    """
    s, t, m = 1, 2, F(3, 2)
    # the all-ones masses themselves, against sign enumeration
    for n in range(5, 12, 2):
        for lo, hi in ((s - m, s + m), (t - m, t + m)):
            assert oracles.ones_interval_mass(n, lo, hi) == oracles.brute_interval([1] * n, lo, hi)

    ratios = {}
    for n in range(21, 42, 2):
        h = make_halfspace([F(1)] * n, 0)
        rec = check_interval_decay(h.distribution(), s, t, m)
        assert rec.passed, f"LEM32's bound of 5 fails at n = {n}"
        lhs, base = F(rec.lhs), F(rec.rhs) / 5
        assert lhs == oracles.ones_interval_mass(n, t - m, t + m)
        assert base == oracles.ones_interval_mass(n, s - m, s + m)
        middle, next_up = math.comb(n, (n + 1) // 2), math.comb(n, (n + 3) // 2)
        assert base == F(middle, 2**n)
        assert lhs == F(middle + next_up, 2**n)
        ratios[n] = lhs / base
        assert ratios[n] == 1 + F(n - 1, n + 3), n

    reached = [n for n in sorted(ratios) if ratios[n] >= F(19, 10)]
    ok = reached == [37, 39, 41]
    announce(9, ok, f"all-ones witness ratio exactly 1 + (n-1)/(n+3) at odd "
                    f"n = 21..41, from 11/6 to {ratios[41]}; reaches 1.9 first "
                    f"at n = {reached[0] if reached else None}")
    assert ok, (
        f"1 + (n-1)/(n+3) >= 19/10 exactly when n >= 37, but the family "
        f"reaches 1.9 at n = {reached}"
    )
