"""The three benchmark workloads: seeded inputs, timed ops, exact-output gates.

Every workload turns (seed, seconds) into a plan of inputs without calling
the code under test, except verify-std, whose corpus comes from
``harness.corpus_gen`` as in the product.  Plans follow a fixed schedule of
input sizes, so the amount of work, and with it the timing, barely depends
on the seed; the seed picks the weights, tables and thresholds.  A plan takes
schedule items, cycling, until their nominal cost (seconds measured on a
2-core Xeon with 2 MiB of L2 per core and numpy kernels) reaches the seconds
of one pass; the runner times several passes over the same plan.

An op is one call into the public API.  ``Recorder.op`` times it and counts
an exception, a ``BudgetError`` refusal included, as a failed op.  Each
result is folded into a SHA-256 of its exact text (rationals as p/q) off the
clock, so the digest costs nothing in the op times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from cubelab import bfcore, chernoff, checks, halfspace, harness, influence, spectral

F = Fraction


class OpFailed(Exception):
    """An op raised; the rest of its plan item cannot run."""


class Recorder:
    """Op times, failures and the running digest of one timed phase."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list[float] = []
        self.labels: list[str] = []
        self.failed = 0
        self.off_clock_s = 0.0
        self.problems: list[str] = []
        self.members = 0
        self._sha = hashlib.sha256()

    def op(self, label: str, fn, *args, **kwargs):
        self.labels.append(label)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every exception of an op is a counted failure
            self.times.append(time.perf_counter() - start)
            self.failed += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            raise OpFailed(label) from exc
        self.times.append(time.perf_counter() - start)
        return result

    def skip(self, count: int) -> None:
        """Ops of an item that could not run after an earlier op failed."""
        self.times.extend([math.nan] * count)
        self.labels.extend(["(skipped)"] * count)
        self.failed += count

    @contextmanager
    def off_clock(self):
        """Benchmark bookkeeping: left out of the pass wall time and out of the trace."""
        if self.tracer is not None:
            self.tracer.paused = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.off_clock_s += time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.paused = False

    def emit(self, label: str, value) -> None:
        with self.off_clock():
            self._sha.update(f"{label}={canon(value)}\n".encode())

    def emit_text(self, label: str, text: str) -> None:
        with self.off_clock():
            self._sha.update(f"{label}={hashlib.sha256(text.encode()).hexdigest()}\n".encode())

    def problem(self, text: str) -> None:
        self.problems.append(text)

    @property
    def digest(self) -> str:
        return self._sha.hexdigest()

    @property
    def attempted(self) -> int:
        return len(self.times)


def canon(value) -> str:
    """Exact text of an op result: rationals as p/q, floats round-trip."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, str)):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(canon(v) for v in value) + "]"
    if isinstance(value, bfcore.BooleanFunction):
        table = hashlib.sha256(value.table.tobytes()).hexdigest()
        return f"table(n={value.n},mean={canon(value.mean)},sha256={table})"
    if isinstance(value, spectral.LevelWeights):
        return canon([value.level(k) for k in range(value.n + 1)])
    if isinstance(value, influence.InfluenceProfile):
        return canon(value.per_coordinate)
    if isinstance(value, halfspace.Halfspace):
        return value.to_text()
    if dataclasses.is_dataclass(value):
        return canon([getattr(value, f.name) for f in dataclasses.fields(value)])
    raise TypeError(f"no exact text for {type(value).__name__}")


def _take(schedule, seconds: float, fixed: float = 0.0) -> list:
    """Schedule items, cycling, until their nominal cost reaches seconds."""
    out = []
    total = fixed
    while not out or total < seconds:
        item, cost = schedule[len(out) % len(schedule)]
        out.append((len(out), item))
        total += cost
    return out


def _threshold(rng, weights) -> int:
    """An integer threshold z * ||w|| with z in [1.25, 1.75]: tail mass of a few percent."""
    norm = math.sqrt(float(np.sum(np.asarray(weights, dtype=np.float64) ** 2)))
    return int(round(float(rng.uniform(1.25, 1.75)) * norm))


def _stratified(rng, n: int, top: int) -> np.ndarray:
    """n weights in [1, top], one drawn uniformly from the middle tenth of
    each n-th of the range.

    Their order statistics, and so the sizes of the subset-sum DPs and of the
    meet-in-the-middle halves, hardly move with the seed.  Nor does the
    longest suffix of small weights whose sum fits the dense budget, which
    sets the largest suffix DP of vertex_boundary and with it peak memory:
    weights drawn from whole n-ths would move that suffix's sum across the
    budget from one seed to the next.
    """
    spread = (np.arange(n) + 0.45 + 0.1 * rng.random(n)) / n
    return rng.permutation(1 + np.floor(spread * (top - 1)).astype(np.int64))


def _ltf_text(weights, threshold) -> str:
    return "ltf:" + ",".join(str(int(w)) for w in weights) + f";{threshold}"


# ---------------------------------------------------------------------------
# verify-std: the product run, run_suite("all") over a random-halfspace corpus

# the global checks cost about this much per run_suite("all") call, EX74 most
VERIFY_GLOBALS_S = 6.5
# standard-corpus parameters; (arity, nominal seconds per member, the mean of
# both bands).  Members of 12 to 16 coordinates, in a fixed cycle, so each
# check of the registry is called on a crowd of like members and the median
# and tail ops fall among calls of one kind, and a member's cost, which
# doubles from one band to the other and swings with the weights, averages
# out over some forty members.  Members of 17 to 20 coordinates are left
# out: one of 19 costs 3.4 s, and THM17's time on such members swings
# threefold with the weights.
VERIFY_SCHEDULE = [(16, 0.26), (12, 0.05), (15, 0.17), (13, 0.06), (14, 0.065)]


class VerifyStd:
    """Ops are registry checks: one per member and check, one per global check."""

    name = "verify-std"

    def __init__(self, expected_fail_records=()):
        self.expected_fail = {tuple(r) for r in expected_fail_records}

    def plan(self, seed: int, seconds: float) -> harness.Corpus:
        entries = []
        for idx, n in _take(VERIFY_SCHEDULE, seconds, VERIFY_GLOBALS_S):
            band = harness.STANDARD_BANDS[idx % 2]
            corpus = harness.corpus_gen(
                "random-halfspace",
                {"n_lo": n, "n_hi": n, "weight_bits": 6, "eps_band": band, "count": 1},
                seed=seed * 1000 + idx)
            entries.extend(corpus.entries)
        return harness.Corpus(f"verify-std(seed={seed})", tuple(entries))

    def warm_up(self) -> None:
        ctx = checks.MemberContext("warm-up", "ltf:3,2,2,1;1")
        constants = harness.PinnedConstants()
        for defn in checks.REGISTRY.values():
            if defn.scope == "member" and defn.applies(ctx):
                defn.fn(ctx, constants)

    def run(self, corpus: harness.Corpus, rec: Recorder) -> dict:
        registry = checks.REGISTRY
        originals = dict(registry)

        def timed(cid, fn):
            def op(*args):
                try:
                    records = rec.op(cid, fn, *args)
                except OpFailed:
                    return []
                bad = [r for r in records if r.status == chernoff.FAIL
                       and (r.check_id, r.instance) not in self.expected_fail]
                if bad:
                    rec.failed += 1
                    rec.problem(f"unexpected fail record {bad[0].check_id} {bad[0].instance}")
                return records
            return op

        for cid, defn in originals.items():
            registry[cid] = dataclasses.replace(defn, fn=timed(cid, defn.fn))
        try:
            report, _ = harness.run_suite("all", corpus)
            text = report.to_json()
        finally:
            registry.update(originals)
        rec.members = len(corpus.entries)
        rec.emit_text("report", text)
        with rec.off_clock():
            return {"fail_records": {(r.check_id, r.instance)
                                     for r in report.records if r.status == chernoff.FAIL}}

    def cross_check(self, corpus, results: dict) -> list[str]:
        missing = self.expected_fail - results.get("fail_records", set())
        return [f"red-by-design record {cid} {inst} missing" for cid, inst in sorted(missing)]

    def mix(self, corpus) -> dict:
        hs = [halfspace.parse_halfspace(e) for e in corpus.entries]
        return {"arities": [h.arity for h in hs],
                "scaled_sums": [int(h.scaled.sum()) for h in hs]}


# ---------------------------------------------------------------------------
# table-n22: analyze/spectrum calls on truth tables of 20 to 22 coordinates

TABLE_KINDS = ("random", "monotone", "majority", "tribes", "ltf")
TABLE_COST = {20: 0.45, 21: 0.9, 22: 1.9}
TABLE_SCHEDULE = [((kind, n), TABLE_COST[n]) for n in (20, 21, 22) for kind in TABLE_KINDS]
TRIBES = {20: ((4, 5), (5, 4), (2, 10), (10, 2)), 21: ((3, 7), (7, 3)), 22: ((2, 11), (11, 2))}
TABLE_OPS = 6


def _packed_hex(bits: np.ndarray) -> str:
    """The hex digits of a 'tt:' literal: the little-endian packed table, reversed."""
    return bytes(np.packbits(bits, bitorder="little")[::-1]).hex()


def _table_descriptor(kind: str, n: int, rng) -> str:
    if kind == "random":
        raw = rng.integers(0, 256, size=(1 << n) // 8, dtype=np.uint8)
        return f"tt:{n}:{bytes(raw[::-1]).hex()}"
    if kind == "monotone":
        # OR of n/2 random ANDs of random widths; a fixed term count keeps the
        # set-up time from varying with the seed
        idx = np.arange(1 << n, dtype=np.uint32)
        table = np.zeros(1 << n, dtype=bool)
        for _ in range(n // 2):
            coords = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            mask = np.uint32(sum(1 << int(c) for c in coords))
            table |= (idx & mask) == mask
        return f"tt:{n}:{_packed_hex(table)}"
    if kind == "majority":
        return "maj:21"  # majority needs odd arity
    if kind == "tribes":
        pairs = TRIBES[n]
        a, b = pairs[int(rng.integers(0, len(pairs)))]
        return f"tribes:{a},{b}"
    weights = rng.integers(1, 65, size=n)
    return _ltf_text(weights, _threshold(rng, weights))


def _parseval_problem(desc_label: str, spec, ones: int) -> str | None:
    """Sum of squared numerators is ones * 2^n, so the +-1 version's is 4^n."""
    num = spec.numerators
    bound = 1 << spec.n
    if int(np.max(np.abs(num))) > bound:
        return f"{desc_label}: Walsh numerator out of range"
    # chunks of 2^18 squares of at most 2^44 each keep int64 sums exact
    total = sum(int(np.sum(chunk.astype(np.int64) ** 2))
                for chunk in np.array_split(num, max(1, len(num) >> 18)))
    sign_total = 4 * total - 4 * bound * int(num[0]) + bound * bound
    if total != ones << spec.n or sign_total != bound * bound or int(num[0]) != ones:
        return f"{desc_label}: Parseval fails"
    return None


class TableN22:
    """Per function: build, spectrum level weights, influences, boundary,
    monotonicity and dual, as `cubelab analyze` and `cubelab spectrum` call them."""

    name = "table-n22"

    def plan(self, seed: int, seconds: float) -> tuple[str, ...]:
        return tuple(_table_descriptor(kind, n, np.random.default_rng([seed, idx]))
                     for idx, (kind, n) in _take(TABLE_SCHEDULE, seconds))

    def warm_up(self) -> None:
        for desc in ("maj:9", "tribes:2,4", "ltf:3,2,1;1", "tt:3:e8"):
            self._one(desc, Recorder(), "warm-up")

    def _one(self, desc: str, rec: Recorder, label: str) -> dict:
        f = rec.op(f"{label} build", lambda: bfcore.FunctionSpec.parse(desc).build())
        rec.emit(f"{label} build", f)

        def weights():
            spec = spectral.fwht_spectrum(f)
            return spec, spec.level_weights()

        spec, lw = rec.op(f"{label} level_weights", weights)
        rec.emit(f"{label} level_weights", lw)
        # Parseval here rather than after the phase: keeping every spectrum
        # alive until then would add up to 32 MB each to peak_rss_mb
        with rec.off_clock():
            problem = _parseval_problem(label, spec, f.ones)
            if problem is None and lw.total() != f.mean:
                problem = f"{label}: level weights do not sum to the mean"
            if problem:
                rec.problem(problem)
        del spec
        prof = rec.op(f"{label} influences", influence.influences, f)
        rec.emit(f"{label} influences", prof)
        veils = rec.op(f"{label} boundary", influence.boundary_measures, f)
        rec.emit(f"{label} boundary", veils)
        mono = rec.op(f"{label} is_monotone", bfcore.is_monotone, f)
        rec.emit(f"{label} is_monotone", mono)
        g = rec.op(f"{label} dual", bfcore.dual, f)
        rec.emit(f"{label} dual", g)
        return {"monotone": mono, "mean": f.mean, "dual_mean": g.mean}

    def run(self, plan, rec: Recorder) -> dict:
        results = {}
        for i, desc in enumerate(plan):
            done = len(rec.times)
            try:
                results[i] = self._one(desc, rec, f"#{i}")
            except OpFailed:
                rec.skip(TABLE_OPS - (len(rec.times) - done))
            rec.members += 1
        return results

    def cross_check(self, plan, results: dict) -> list[str]:
        problems = []
        for i, out in results.items():
            # random tables of 2^20 points are never monotone; the others are by construction
            should = not plan[i].startswith("tt:") or self._is_monotone_kind(i)
            if out["monotone"] != should:
                problems.append(f"#{i}: is_monotone={out['monotone']}, expected {should}")
            if out["dual_mean"] != 1 - out["mean"]:
                problems.append(f"#{i}: dual mean is not 1 - mean")
        return problems

    @staticmethod
    def _is_monotone_kind(i: int) -> bool:
        return TABLE_SCHEDULE[i % len(TABLE_SCHEDULE)][0][0] == "monotone"

    def mix(self, plan) -> dict:
        arities = [TABLE_SCHEDULE[i % len(TABLE_SCHEDULE)][0][1] for i in range(len(plan))]
        return {"arities": arities, "scaled_sums": []}


# ---------------------------------------------------------------------------
# halfspace: analyze/chernoff calls beyond TABLE_CAP, dense and meet-in-the-middle

HALFSPACE_OPS = 14
C_WEAK = F(1, 2)


class Halfspace:
    """Per member, `cubelab analyze` (mean, influences, max and total influence,
    both vertex boundaries) on one halfspace object, then `cubelab chernoff`
    (tail, delta query, decay thresholds, strong and weak local Chernoff
    statistics, Gaussian tail ratio) on a fresh one, as two CLI calls would.

    Two kinds of member, interleaved.  Dense members have n 40 to 60 and
    scaled weight sums T from 1e4 to 3e5, so their subset-sum DPs (2T+1 int64
    cells) range from L2-resident to a few times L2; those of n <= 40 are
    re-counted by meet-in-the-middle.  Meet-in-the-middle members have n 26
    to 36 and 24-bit weights: their sums exceed the dense budget, so the
    halves, Python-loop queries and the dense suffix DPs that drop under
    budget do the work, and a dense gain that costs this path shows.
    """

    name = "halfspace"
    # ((kind, n, T for dense members), nominal seconds).  A pass of 13 s takes
    # the first ten: every dense size and meet-in-the-middle members of 26, 28
    # and 32 coordinates.  Those of 30 and 36, the last with halves of 2^18
    # sums, come in longer runs.  T = 7e5 (11 s a member) would fill most of
    # a pass by itself, so the largest DP stops at T = 3e5.  The member of 32
    # comes early: its suffix DP of some 19 million cells sets peak_rss_mb,
    # which then adds less of what earlier members leave on the heap.
    schedule = [(("dense", 40, 10_000), 0.1), (("mitm", 32, None), 2.5),
                (("mitm", 26, None), 1.1), (("dense", 60, 15_000), 0.3),
                (("dense", 44, 30_000), 0.4), (("mitm", 28, None), 1.1),
                (("dense", 52, 30_000), 0.5), (("dense", 40, 100_000), 1.0),
                (("dense", 48, 300_000), 4.6), (("dense", 56, 100_000), 1.8),
                (("mitm", 30, None), 1.6), (("mitm", 36, None), 5.5)]

    def weights(self, item, rng) -> np.ndarray:
        kind, n, total = item
        if kind == "mitm":
            return _stratified(rng, n, 1 << 24)
        # stratified weights whose sum is exactly T
        w = _stratified(rng, n, 2 * total // n)
        short = total - int(w.sum())
        while short:
            pick = rng.choice(n, size=min(abs(short), n), replace=False)
            step = 1 if short > 0 else -1
            pick = pick[w[pick] + step >= 1]
            w[pick] += step
            short -= step * len(pick)
        return w

    def kind(self, i: int) -> str:
        return self.schedule[i % len(self.schedule)][0][0]

    def plan(self, seed: int, seconds: float) -> tuple[str, ...]:
        out = []
        for idx, item in _take(self.schedule, seconds):
            rng = np.random.default_rng([seed, idx])
            w = self.weights(item, rng)
            out.append(_ltf_text(w, _threshold(rng, w)))
        return tuple(out)

    def warm_up(self) -> None:
        for desc in ("ltf:5,4,3,2,1;2", _ltf_text([1 << 24] * 4 + [3 << 22] * 4, 1 << 24)):
            self._one(desc, Recorder(), "warm-up")

    def _one(self, desc: str, rec: Recorder, label: str) -> dict:
        op, emit = rec.op, rec.emit
        h = op(f"{label} halfspace", lambda: bfcore.FunctionSpec.parse(desc).halfspace())
        emit(f"{label} halfspace", h)
        out = {"mean": op(f"{label} mean", h.mean),
               "influences": op(f"{label} influences", h.influences),
               "max_influence": op(f"{label} max_influence", h.max_influence),
               "total_influence": op(f"{label} total_influence",
                                     lambda: sum(h.influences(), F(0))),
               "vb0": op(f"{label} vb0", h.vertex_boundary, 0),
               "vb1": op(f"{label} vb1", h.vertex_boundary, 1)}
        h2 = op(f"{label} parse", halfspace.parse_halfspace, desc)
        t = h2.threshold
        out["tail"] = op(f"{label} tail", h2.tail, t)
        out["delta_half"] = op(f"{label} delta_query", h2.delta_query, C_WEAK, t)
        out["decay"] = op(f"{label} decay_thresholds", h2.decay_thresholds, t)
        out["strong"] = op(f"{label} strong", chernoff.check_local_chernoff, h2, t, "strong")
        out["weak"] = op(f"{label} weak", chernoff.check_local_chernoff, h2, t, "weak", c=C_WEAK)
        out["gauss"] = op(f"{label} gauss", chernoff.gaussian_tail_ratio, h2, t)
        for key, value in out.items():
            emit(f"{label} {key}", value)
        out["threshold"] = t
        out["weights"] = h.original_weights
        return out

    def run(self, plan, rec: Recorder) -> dict:
        results = {}
        for i, desc in enumerate(plan):
            done = len(rec.times)
            try:
                results[i] = self._one(desc, rec, f"#{i}")
            except OpFailed:
                rec.skip(HALFSPACE_OPS - (len(rec.times) - done))
            rec.members += 1
        return results

    def cross_check(self, plan, results: dict) -> list[str]:
        """Facts of halfspaces with nonnegative weights, from the outputs alone,
        and dense members of n <= 40 re-counted by meet-in-the-middle."""
        problems = []
        for i, out in results.items():
            infl, w = out["influences"], out["weights"]
            order = sorted(range(len(w)), key=lambda j: (-w[j], j))
            if any(infl[a] < infl[b] for a, b in zip(order, order[1:])):
                problems.append(f"#{i}: influences not ordered like the weights")
            best = max(infl)
            if out["max_influence"] != (best, infl.index(best)):
                problems.append(f"#{i}: max_influence disagrees with influences")
            if out["total_influence"] != sum(infl, F(0)):
                problems.append(f"#{i}: total influence disagrees with influences")
            if out["mean"] != out["tail"] or not 0 < out["mean"] < 1:
                problems.append(f"#{i}: mean and tail disagree or are degenerate")
            if not (0 <= out["vb0"] <= 1 - out["mean"] and 0 <= out["vb1"] <= out["mean"]):
                problems.append(f"#{i}: vertex boundary outside its side")
            decay = out["decay"]
            if decay.delta != decay.beta + decay.gamma:
                problems.append(f"#{i}: delta is not beta + gamma")
        for i, out in results.items():
            if self.kind(i) != "dense" or len(out["weights"]) > halfspace.MITM_MAX_N:
                continue
            hd = halfspace.parse_halfspace(plan[i])
            hm = halfspace.parse_halfspace(plan[i])
            dense, mitm = hd.distribution(backend="dense"), hm.distribution(backend="mitm")
            t, decay = out["threshold"], out["decay"]
            for q in (t, t + decay.beta, t + decay.gamma, t + decay.delta, t + out["delta_half"]):
                if (dense.count_gt(q), dense.count_ge(q)) != (mitm.count_gt(q), mitm.count_ge(q)):
                    problems.append(f"#{i}: dense and meet-in-the-middle counts differ at {q}")
            if F(dense.count_gt(t), dense.total) != out["mean"]:
                problems.append(f"#{i}: timed mean differs from the dense recount")
            for c in (F(1, 3), F(1, 6), C_WEAK):
                if hd.delta_query(c, t) != hm.delta_query(c, t):
                    problems.append(f"#{i}: delta query for {c} differs between backends")
            if hd.influence_internal(0, t) != hm.influence_internal(0, t):
                problems.append(f"#{i}: heaviest influence differs between backends")
        return problems

    def mix(self, plan) -> dict:
        hs = [halfspace.parse_halfspace(d) for d in plan]
        return {"arities": [h.arity for h in hs],
                "scaled_sums": [int(h.scaled.sum()) for h in hs]}


WORKLOADS = {w.name: w for w in (VerifyStd, TableN22, Halfspace)}
