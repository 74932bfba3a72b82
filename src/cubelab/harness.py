"""Corpus generation, suite runner, pinned constants and report emission."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .bfcore import BooleanFunction, FunctionSpec
from .chernoff import FAIL, PASS, REPORT, CheckRecord, bound_ratio
from .checks import REGISTRY, SUITES, MemberContext
from .halfspace import distribution_from_scaled
from .kernels import set_subcube
from .rational import format_fraction

F = Fraction

BUILTIN_ALL = (
    "maj:3", "maj:5", "maj:9", "maj:13",
    "dict:4", "dict:8",
    "subcube:2,4", "subcube:3,5", "subcube:4,8",
    "ball:9,2", "ball:12,3",
    "tribes:2,4", "tribes:4,4",
    "paper5",
    "talagrand:9:7",
    "ltf:5,5,5,5,4,4,4,4,4;1",
    "ltf:4/5,3/5;0",
    "ltf:6,5,4,3,2,1;3/2",
)


@dataclass(frozen=True)
class Corpus:
    name: str
    entries: tuple[str, ...]

    @property
    def digest(self) -> str:
        payload = "\n".join((self.name, *self.entries)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(
            {"name": self.name, "entries": list(self.entries)}, indent=1) + "\n")

    @staticmethod
    def load(path) -> "Corpus":
        """Read a corpus file; a malformed entry is refused before any check runs."""
        data = json.loads(Path(path).read_text())
        for idx, entry in enumerate(data["entries"]):
            try:
                FunctionSpec.parse(entry)
            except ValueError as exc:
                raise ValueError(f"{path} entry {idx}: {exc}") from None
        return Corpus(data["name"], tuple(data["entries"]))


def _random_halfspace_entries(rng_seed, n_lo, n_hi, weight_bits, eps_lo, eps_hi,
                              count, denominators=(1,)) -> list[str]:
    entries = []
    for i in range(count):
        for attempt in range(200):
            rng = np.random.default_rng([rng_seed, i, attempt])
            n = int(rng.integers(n_lo, n_hi + 1))
            nums = rng.integers(1, (1 << weight_bits) + 1, size=n)
            dens = rng.choice(denominators, size=n)
            weights = sorted((F(int(a), int(b)) for a, b in zip(nums, dens)),
                             reverse=True)
            scale = math.lcm(*[w.denominator for w in weights])
            scaled = np.array([int(w * scale) for w in weights], dtype=np.int64)
            dist = distribution_from_scaled(scaled, scale)
            # the least threshold whose strict tail is at most eps_hi
            v = dist.first_value_tail_le(eps_hi.numerator * dist.total, eps_hi.denominator)
            if not eps_lo <= F(dist.count_gt_scaled(v), dist.total) <= eps_hi:
                continue
            t = F(v, scale)
            wtxt = ",".join(format_fraction(w) for w in weights)
            entries.append(f"ltf:{wtxt};{format_fraction(t)}")
            break
        else:
            raise ValueError(
                f"no threshold lands the bias band after 200 draws (entry {i})")
    return entries


def corpus_gen(kind: str, params: dict | None = None, seed: int = 0) -> Corpus:
    """Deterministic corpus builder; same (kind, params, seed) is byte-identical."""
    params = dict(params or {})
    if kind == "builtin-all":
        return Corpus("builtin-all", BUILTIN_ALL)
    if kind == "random-halfspace":
        eps_lo, eps_hi = params.get("eps_band", (F(1, 256), F(1, 16)))
        entries = _random_halfspace_entries(
            seed, params.get("n_lo", 12), params.get("n_hi", 20),
            params.get("weight_bits", 6), F(eps_lo), F(eps_hi),
            params.get("count", 50))
        name = f"random-halfspace(seed={seed},count={len(entries)})"
        return Corpus(name, tuple(entries))
    if kind == "random-rational-halfspace":
        eps_lo, eps_hi = params.get("eps_band", (F(1, 1024), F(1, 4)))
        entries = _random_halfspace_entries(
            seed, params.get("n_lo", 8), params.get("n_hi", 16),
            params.get("weight_bits", 5), F(eps_lo), F(eps_hi),
            params.get("count", 50), denominators=(1, 2, 3, 4))
        name = f"random-rational-halfspace(seed={seed},count={len(entries)})"
        return Corpus(name, tuple(entries))
    if kind == "random-function":
        n = params.get("n", 10)
        count = params.get("count", 20)
        rng = np.random.default_rng(seed)
        entries = []
        for _ in range(count):
            bits = rng.integers(0, 2, size=1 << n)
            entries.append(BooleanFunction(n, bits).to_text())
        return Corpus(f"random-function(n={n},seed={seed})", tuple(entries))
    if kind == "monotone-random":
        n = params.get("n", 8)
        count = params.get("count", 20)
        rng = np.random.default_rng(seed)
        entries = []
        for _ in range(count):
            table = np.zeros(1 << n, dtype=np.uint8)
            terms = int(rng.integers(1, n + 1))
            for _t in range(terms):
                width = int(rng.integers(1, n + 1))
                set_subcube(table, n, rng.choice(n, size=width, replace=False))
            entries.append(BooleanFunction(n, table).to_text())
        return Corpus(f"monotone-random(n={n},seed={seed})", tuple(entries))
    raise ValueError(f"unknown corpus kind {kind!r}")


STANDARD_SEED = 2024
STANDARD_BANDS = ((F(1, 4096), F(1, 256)), (F(1, 256), F(1, 16)))


def standard_corpus() -> Corpus:
    """The frozen corpus the pinned constants are recorded against."""
    entries: list[str] = []
    for b, band in enumerate(STANDARD_BANDS):
        entries.extend(_random_halfspace_entries(
            STANDARD_SEED * 10 + b, 12, 20, 6, band[0], band[1], 50))
    return Corpus("standard", tuple(entries))


def tail_lemma_corpus() -> Corpus:
    """Rational-weight instances for the exhaustive tail-shape sweeps."""
    return corpus_gen("random-rational-halfspace", {"count": 50}, seed=505)


# ---------------------------------------------------------------------------
# pinned constants

# how each pinned statistic is asserted once a constant exists
PIN_KINDS = {
    "THM18": "upper",
    "THM19": "upper",
    "THM110": "upper",
    "THM12-lower": "lower",
    "THM17": "lower",
    "THM14-band": "band",
    "THM15-band": "band",
    "THM64": "band",
}


class PinError(ValueError):
    """Constants were pinned against a different corpus."""


@dataclass
class PinnedConstants:
    corpus_digest: str = ""
    values: dict = field(default_factory=dict)

    def get(self, check_id: str):
        entry = self.values.get(check_id)
        if entry is None:
            return None
        return tuple(entry) if isinstance(entry, list) else entry

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(
            {"corpus_digest": self.corpus_digest,
             "values": {k: self.values[k] for k in sorted(self.values)}},
            indent=1, default=float) + "\n")

    @staticmethod
    def load(path) -> "PinnedConstants":
        data = json.loads(Path(path).read_text())
        return PinnedConstants(data["corpus_digest"], data["values"])

    @staticmethod
    def default_path() -> Path:
        return Path(resources.files("cubelab") / "data" / "pinned_constants.json")

    @staticmethod
    def load_default() -> "PinnedConstants":
        path = PinnedConstants.default_path()
        if path.exists():
            return PinnedConstants.load(path)
        return PinnedConstants()


def pin_from_statistics(stats: dict[str, list[float]], corpus_digest: str) -> PinnedConstants:
    """Record regression constants: 1.1x the max for upper bounds, 0.9x the
    min for lower bounds, and the widened [0.9 min, 1.1 max] for bands."""
    values = {}
    for check_id, seen in stats.items():
        if not seen:
            continue
        kind = PIN_KINDS[check_id]
        if kind == "upper":
            values[check_id] = 1.1 * max(seen)
        elif kind == "lower":
            values[check_id] = 0.9 * min(seen)
        else:
            values[check_id] = [0.9 * min(seen), 1.1 * max(seen)]
    return PinnedConstants(corpus_digest, values)


# ---------------------------------------------------------------------------
# reports

def _fmt(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_fmt(v) for v in value]
    return str(value)


@dataclass
class Report:
    suite: str
    corpus_name: str
    corpus_digest: str
    constants_digest: str
    records: list[CheckRecord]

    def summary(self) -> dict:
        out: dict[str, dict] = {}
        for rec in self.records:
            slot = out.setdefault(rec.check_id, {
                "pass": 0, "fail": 0, "hypothesis-not-met": 0, "report": 0,
                "min_ratio": None, "max_ratio": None,
            })
            slot[rec.status] += 1
            if rec.ratio is not None:
                if slot["min_ratio"] is None or rec.ratio < slot["min_ratio"]:
                    slot["min_ratio"] = rec.ratio
                if slot["max_ratio"] is None or rec.ratio > slot["max_ratio"]:
                    slot["max_ratio"] = rec.ratio
        return out

    @property
    def failures(self) -> int:
        return sum(1 for rec in self.records if rec.status == FAIL)

    @property
    def exit_code(self) -> int:
        return 0 if self.failures == 0 else 1

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "corpus": {"name": self.corpus_name, "digest": self.corpus_digest},
            "constants_digest": self.constants_digest,
            "summary": {
                cid: {k: (_fmt(v) if isinstance(v, float) else v)
                      for k, v in slot.items()}
                for cid, slot in sorted(self.summary().items())
            },
            "records": [
                {
                    "check_id": rec.check_id,
                    "instance": rec.instance,
                    "lhs": _fmt(rec.lhs),
                    "rhs": _fmt(rec.rhs),
                    "ratio": _fmt(rec.ratio),
                    "pass": rec.passed,
                    "status": rec.status,
                    "notes": rec.notes,
                }
                for rec in self.records
            ],
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["check_id,instance,lhs,rhs,ratio,pass,status,notes"]
        for rec in self.records:
            cells = [rec.check_id, rec.instance, _fmt(rec.lhs), _fmt(rec.rhs),
                     _fmt(rec.ratio), rec.passed, rec.status, rec.notes]
            lines.append(",".join(
                '"' + str(c).replace('"', '""') + '"' if c is not None else ""
                for c in cells))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the runner

def run_suite(suite_id: str, corpus: Corpus,
              constants: PinnedConstants | None = None,
              pin: bool = False) -> tuple[Report, PinnedConstants | None]:
    """Run every registered check of the suite over the corpus.

    Hypothesis-not-met is recorded, never fatal.  Checks only report their
    pinned statistics; the runner asserts them once: with pin=True against
    the fresh constants recorded from this run (returned as the second
    value), otherwise against the given constants when their corpus digest
    matches (a mismatch is a refusal, not a silent report-only run),
    otherwise against none.  So a pin=True report is byte-identical to that
    of a later run asserting the constants it recorded.
    """
    if suite_id not in SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; have {sorted(SUITES)}")
    check_ids = SUITES[suite_id]
    pinned_ids = [cid for cid in check_ids if cid in PIN_KINDS]
    constants = constants or PinnedConstants()
    asserted = not pin and bool(pinned_ids and constants.values)
    if asserted and constants.corpus_digest != corpus.digest:
        raise PinError(
            "constants were pinned on corpus "
            f"{constants.corpus_digest}, not {corpus.digest}; "
            "re-run with --pin to record constants for this corpus")

    records: list[CheckRecord] = []
    for cid in check_ids:
        defn = REGISTRY[cid]
        if defn.scope == "global":
            records.extend(defn.fn(constants))
    for idx, entry in enumerate(corpus.entries):
        ctx = MemberContext(f"{corpus.name}#{idx}", entry)
        for cid in check_ids:
            defn = REGISTRY[cid]
            if defn.scope != "member" or not defn.applies(ctx):
                continue
            records.extend(defn.fn(ctx, constants))

    new_constants = None
    judge = constants if asserted else PinnedConstants()
    if pin:
        stats: dict[str, list[float]] = {cid: [] for cid in pinned_ids}
        for rec in records:
            if rec.check_id in stats and isinstance(rec.lhs, float):
                stats[rec.check_id].append(rec.lhs)
        judge = new_constants = pin_from_statistics(stats, corpus.digest)
    _assert_pinned(records, judge)

    digest = ""
    source = new_constants if pin else (constants if constants.values else None)
    if source is not None and source.values:
        digest = hashlib.sha256(
            json.dumps(source.values, sort_keys=True, default=float).encode()
        ).hexdigest()[:16]
    report = Report(suite_id, corpus.name, corpus.digest, digest, records)
    return report, new_constants


def _assert_pinned(records: list[CheckRecord], constants: PinnedConstants) -> None:
    """Rewrite reported pinned statistics into pass/fail against the constants.

    The bound becomes the record's rhs; an upper bound also gets the ratio
    that CheckRecord.inequality reports.  A passing record of a pinned check
    that carries no statistic (a branch that holds outright) shows the bound.
    """
    for rec in records:
        bound = constants.get(rec.check_id) if rec.check_id in PIN_KINDS else None
        if bound is None:
            continue
        if rec.status == PASS and rec.lhs is None:
            rec.rhs = bound
            continue
        if rec.status != REPORT or not isinstance(rec.lhs, float):
            continue
        kind = PIN_KINDS[rec.check_id]
        if kind == "upper":
            ok = rec.lhs <= bound
            rec.ratio = bound_ratio(rec.lhs, bound)
        elif kind == "lower":
            ok = rec.lhs >= bound
        else:
            ok = bound[0] <= rec.lhs <= bound[1]
        rec.rhs = bound
        rec.passed = ok
        rec.status = PASS if ok else FAIL
