"""Explain the difference of two verify reports record by record:

    python3 tests/report_diff.py OLD.json NEW.json

Records are matched by check id and instance (the k-th record of a pair in
one report with the k-th in the other).  For each check id whose records
differ it prints the records found in only one report, each status change,
the fields that differ with the number of records each differs in, and for
each numeric field (a float, integer or p/q text) the largest relative
change |new - old| / |old|.  Exits 0 when no record differs, 1 when some
do, and 2 on a wrong number of arguments.
"""
from __future__ import annotations

import json
import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path


@dataclass
class CheckDiff:
    """How the records of one check id differ between two reports."""

    only_old: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)
    status: list[tuple[str, str, str]] = field(default_factory=list)  # instance, old, new
    fields: Counter = field(default_factory=Counter)  # field -> records it differs in
    largest: dict = field(default_factory=dict)  # numeric field -> (relative change, instance)


def _keyed(report: dict) -> dict:
    """Records by (check id, instance, k): the k-th record of that pair."""
    seen: Counter = Counter()
    out = {}
    for rec in report["records"]:
        pair = (rec["check_id"], rec["instance"])
        out[(*pair, seen[pair])] = rec
        seen[pair] += 1
    return out


def _number(value) -> float | None:
    if not isinstance(value, str):
        return None
    try:
        return float(Fraction(value)) if "/" in value else float(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def _relative(old: float, new: float) -> float:
    if old == new:
        return 0.0
    if old == 0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def diff_reports(old: dict, new: dict) -> dict[str, CheckDiff]:
    """The differing check ids of two parsed reports, each with its CheckDiff."""
    a, b = _keyed(old), _keyed(new)
    diffs: dict[str, CheckDiff] = defaultdict(CheckDiff)
    for key in a.keys() - b.keys():
        diffs[key[0]].only_old.append(key[1])
    for key in b.keys() - a.keys():
        diffs[key[0]].only_new.append(key[1])
    for key in a.keys() & b.keys():
        before, after = a[key], b[key]
        names = sorted(n for n in before.keys() | after.keys() if before.get(n) != after.get(n))
        if not names:
            continue
        diff = diffs[key[0]]
        diff.fields.update(names)
        if "status" in names:
            diff.status.append((key[1], before.get("status"), after.get("status")))
        for name in names:
            x, y = _number(before.get(name)), _number(after.get(name))
            if x is not None and y is not None:
                change = (_relative(x, y), key[1])
                diff.largest[name] = max(diff.largest.get(name, change), change)
    for diff in diffs.values():
        diff.only_old.sort()
        diff.only_new.sort()
        diff.status.sort()
    return dict(sorted(diffs.items()))


def format_diff(diffs: dict[str, CheckDiff]) -> list[str]:
    lines = []
    for cid, diff in diffs.items():
        lines.append(f"{cid}:")
        for side, instances in (("old", diff.only_old), ("new", diff.only_new)):
            if instances:
                lines.append(f"  only in {side} ({len(instances)}): {', '.join(instances)}")
        for instance, before, after in diff.status:
            lines.append(f"  status {instance}: {before} -> {after}")
        if diff.fields:
            counts = ", ".join(f"{name} ({n})" for name, n in sorted(diff.fields.items()))
            lines.append(f"  fields differ: {counts}")
        for name, (change, instance) in sorted(diff.largest.items()):
            lines.append(f"  largest relative change of {name}: {change:.3g} at {instance}")
    records = sum(len(d.only_old) + len(d.only_new) for d in diffs.values())
    lines.append(f"{len(diffs)} check ids differ; {records} records in one report only")
    return lines


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print("usage: report_diff.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in paths)
    diffs = diff_reports(old, new)
    print("\n".join(format_diff(diffs)))
    return int(bool(diffs))


if __name__ == "__main__":
    sys.exit(main())
