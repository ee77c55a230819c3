import dataclasses
import json

import pytest

from qpairs import harness
from qpairs.cli import main


REDUCED = {
    "C01": 12, "C02": 12, "C03": 8, "C04": 8, "C05": 8, "C06": 10, "C07": 12,
    "C08": 12, "C09": 12, "C10": 15, "C11": 15, "C12": 15, "C13": 12,
    "C14": 15, "C15": 12, "C16": 12, "C17": 20, "C18": 15, "C19": 15,
    "C20": 12, "C21": 12, "C22": 20, "C23": 15, "C24": 15, "C25": 15,
    "C26": 12, "C27": 12, "C28": 20, "C29": 15, "C30": 12, "C31": 20,
    "C32": 14, "C33": 10, "C34": 6,
}


def test_registry_has_thirty_four_checks():
    assert len(harness.REGISTRY) == 34
    assert sorted(harness.REGISTRY) == sorted(REDUCED)


@pytest.mark.parametrize("check_id", sorted(REDUCED))
def test_check_passes_at_reduced_order(check_id):
    res = harness.run_check(check_id, order=REDUCED[check_id])
    assert res.status == "pass", res.first_mismatch


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        harness.run_check("C99")


def test_suite_filter_by_glob():
    results = harness.run_suite("C1?", order=8)
    assert [r.id for r in results] == [f"C1{i}" for i in range(10)]
    results = harness.run_suite("spt-*", order=10)
    assert {r.id for r in results} == {"C30", "C31", "C32"}


def test_broken_check_is_an_error_not_an_abort(monkeypatch, capsys):
    spec = harness.REGISTRY["C12"]

    def broken(order):
        return 1 // 0

    monkeypatch.setitem(harness.REGISTRY, "C12", dataclasses.replace(spec, fn=broken))
    results = harness.run_suite("C1?", order=8)
    assert [r.id for r in results] == [f"C1{i}" for i in range(10)]
    (res,) = [r for r in results if r.id == "C12"]
    assert res.status == "error"
    assert res.first_mismatch == {"label": "ZeroDivisionError: integer division or modulo by zero"}
    assert all(r.status == "pass" for r in results if r.id != "C12")

    assert main(["verify", "--filter", "C12", "--order", "8"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("ERR   C12") and "Traceback" not in out + err


def test_report_determinism():
    a = harness.run_suite("C12", order=12)
    b = harness.run_suite("C12", order=12)
    assert harness.report_json(a) == harness.report_json(b)


def test_report_body_excludes_timing():
    res = harness.run_check("C12", order=12)
    assert "millis" not in res.body()
    obj = json.loads(harness.report_json([res], include_timing=True))
    assert "millis" in obj["checks"][0]


def test_report_text_mentions_status():
    res = harness.run_check("C12", order=12)
    text = harness.report_text([res.body()])
    assert "PASS" in text and "C12" in text


def test_report_text_has_no_timing():
    res = harness.CheckResult("C00", "timed", "ref", "symbolic", 3, [], "pass", None, 98765)
    assert harness.report_text([res.body()]) == "PASS  C00  timed  order=3\n1/1 checks passed"


def test_failing_check_reports_first_mismatch():
    res = harness.negative_control(order=12)
    assert res.status == "fail"
    assert res.first_mismatch is not None
    assert "exponent" in res.first_mismatch


def test_negative_control_must_fail():
    assert harness.negative_control().status == "fail"
