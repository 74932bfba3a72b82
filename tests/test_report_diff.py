"""The record-by-record report diff on two small reports."""
import copy
import json

from report_diff import diff_reports, format_diff, main


def record(check_id, instance, lhs, status="pass", notes=""):
    return {"check_id": check_id, "instance": instance, "lhs": lhs, "rhs": "1",
            "ratio": None, "pass": status == "pass", "status": status, "notes": notes}


OLD = {"suite": "s", "records": [
    record("LEM32", "m#0", "0.25"), record("LEM32", "m#1", "3/8"),
    record("THM18", "m#0", "1.5"), record("THM18", "m#1", "2.5", notes="x"),
]}


def changed():
    """One float, one status and one extra record differ from OLD."""
    new = copy.deepcopy(OLD)
    new["records"][2]["lhs"] = "1.5000000000000002"
    new["records"][3].update(status="fail", **{"pass": False})
    new["records"].append(record("LEM32", "m#2", "1/2"))
    return new


def test_each_kind_of_difference_is_named_under_its_check():
    diffs = diff_reports(OLD, changed())
    assert list(diffs) == ["LEM32", "THM18"]
    lem, thm = diffs["LEM32"], diffs["THM18"]
    assert (lem.only_old, lem.only_new, lem.status, dict(lem.fields)) == ([], ["m#2"], [], {})
    assert thm.status == [("m#1", "pass", "fail")]
    assert dict(thm.fields) == {"lhs": 1, "pass": 1, "status": 1}
    [(name, (change, instance))] = thm.largest.items()
    assert (name, instance) == ("lhs", "m#0") and 1e-16 < change < 2e-16
    assert format_diff(diffs) == [
        "LEM32:",
        "  only in new (1): m#2",
        "THM18:",
        "  status m#1: pass -> fail",
        "  fields differ: lhs (1), pass (1), status (1)",
        "  largest relative change of lhs: 1.48e-16 at m#0",
        "2 check ids differ; 1 records in one report only",
    ]


def test_rational_fields_and_repeated_instances():
    """p/q values compare as numbers, and the k-th record of a repeated
    (check, instance) pair meets the k-th of the other report."""
    old = {"records": [record("C", "i", "1/4"), record("C", "i", "1/2")]}
    new = {"records": [record("C", "i", "1/4"), record("C", "i", "3/4")]}
    assert diff_reports(old, new)["C"].largest == {"lhs": (0.5, "i")}
    assert diff_reports(new, old)["C"].largest == {"lhs": (1 / 3, "i")}
    assert diff_reports(old, copy.deepcopy(old)) == {}


def test_main_reads_two_files(tmp_path, capsys):
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, report in zip(paths, (OLD, changed())):
        path.write_text(json.dumps(report))
    assert main([str(p) for p in paths]) == 1
    assert capsys.readouterr().out.splitlines() == format_diff(diff_reports(OLD, changed()))
    assert main([str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out == "0 check ids differ; 0 records in one report only\n"
    assert main([str(paths[0])]) == 2
