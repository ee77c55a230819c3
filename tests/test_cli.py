import csv
import io
import json

import pytest

from qpairs.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- coeffs ---------------------------------------------------------------


def test_coeffs_eisenstein(capsys):
    code, out, _ = run(capsys, "coeffs", "E2", "--order", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["exponent", "coefficient"]
    assert [r[1] for r in rows[1:]] == ["1", "-24", "-72", "-96"]


def test_coeffs_moment_series_with_params(capsys):
    code, out, _ = run(capsys, "coeffs", "n2v:v=1", "--order", "8",
                       "--params", "d=0,e=0", "--format", "csv")
    assert code == 0
    rows = {r[0]: r[1] for r in list(csv.reader(io.StringIO(out)))[1:]}
    assert rows["2"] == "1"


def test_coeffs_bogus_is_usage_error(capsys):
    code, _, err = run(capsys, "coeffs", "bogus")
    assert code == 2
    assert "bogus" in err


def test_coeffs_eta_quotient_below_its_q_shift(capsys):
    code, out, _ = run(capsys, "coeffs", "eta:1^240,2^-48", "--order", "1",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 1 and obj["coeffs"] == {}


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_coeffs_table_of_zero_series_ends_at_its_order(capsys, fmt):
    code, out, _ = run(capsys, "coeffs", "Phi1:m=3", "--order", "2", "--format", fmt)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out))) if fmt == "csv" else [
        line.split() for line in out.splitlines()]
    assert rows == [["exponent", "coefficient"], ["2", "0"]]


@pytest.mark.parametrize("spec", ["spt:d=1/0", "n2v:vv=2", "durfee:k=2:base=2"])
def test_coeffs_bad_identifier_is_one_line_usage_error(capsys, spec):
    code, out, err = run(capsys, "coeffs", spec, "--order", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_coeffs_json_round_trips(capsys):
    code, out, _ = run(capsys, "coeffs", "qinf", "--order", "5", "--format", "json")
    assert code == 0
    from qpairs import QSeries, builders
    s = QSeries.from_obj(json.loads(out))
    ok, _ = s.equal_to_order(builders.q_inf(5), 5)
    assert ok


# -- enumerate ------------------------------------------------------------


def test_enumerate_pairs_weight_one(capsys):
    code, out, _ = run(capsys, "enumerate", "pairs", "--n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # header + 4 rows + summary
    assert lines[-1] == "4 pairs of weight 1"


def test_enumerate_pairs_weight_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "pairs", "--n", "0")
    assert code == 0
    assert "1 pairs of weight 0" in out


def test_enumerate_pairs_cap(capsys):
    code, _, err = run(capsys, "enumerate", "pairs", "--n", "15")
    assert code == 2
    assert "--force" in err


def test_enumerate_durfee_requires_k(capsys):
    code, _, err = run(capsys, "enumerate", "durfee", "--n", "4")
    assert code == 2
    assert "--k" in err


def test_enumerate_durfee_small(capsys):
    code, out, _ = run(capsys, "enumerate", "durfee", "--k", "2", "--n", "2",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "S"
    # four symbols of weight 2: S=1, top (1,1), each decoration in {(), (0)}
    assert len(rows) == 5
    assert all(r[0] == "1" and r[1] == "1_1" for r in rows[1:])


def test_enumerate_durfee_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "durfee", "--k", "2", "--n", "6",
                       "--filter", "r=1,s=1,ranks=0,0", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows
    for row in rows:
        assert (row[5], row[6], row[7]) == ("1", "1", "0,0")


def test_enumerate_durfee_weight_43_filtered(capsys):
    # weight 43 with r, s, and all ranks fixed; the known symbol with
    # decoration mu=(3,2,0), nu=(2,1) must be listed
    code, out, _ = run(capsys, "enumerate", "durfee", "--k", "3", "--n", "43",
                       "--filter", "r=1,s=2,ranks=-1,-1,-1", "--format", "csv")
    assert code == 0
    target = ["4", "4_3 3_2 3_1 2_1 1_1", "4_3 4_3 3_2 3_1 3_1 1_1",
              "3,2,0", "2,1", "1", "2", "-1,-1,-1", "-6"]
    assert target in list(csv.reader(io.StringIO(out)))


# -- moments and spt ------------------------------------------------------


def test_moments_table(capsys):
    code, out, _ = run(capsys, "moments", "--v", "1", "--n-max", "3",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[3][1] == "1 + e + d + d*e"


def test_spt_totals(capsys):
    code, out, _ = run(capsys, "spt", "--n-max", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[2][2] == "1"
    assert rows[3][2] == "3"


@pytest.mark.parametrize("argv", [("moments", "--n-max", "-2"), ("spt", "--n-max", "-1"),
                                  ("enumerate", "pairs", "--n", "-1")])
def test_negative_n_max_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --n-max must be nonnegative\n"


# -- verify and report ----------------------------------------------------


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "C12")
    assert code == 0
    assert "PASS" in out


def test_verify_reduced_order(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "C11", "--order", "5")
    assert code == 0


def test_verify_unknown_filter(capsys):
    code, _, err = run(capsys, "verify", "--filter", "nothing-matches")
    assert code == 2


def test_report_round_trip(tmp_path, capsys):
    first = tmp_path / "a.json"
    merged = tmp_path / "b.json"
    code, _, _ = run(capsys, "verify", "--filter", "C12", "--format", "json",
                     "--out", str(first))
    assert code == 0
    code, _, _ = run(capsys, "report", str(first), "--out", str(merged))
    assert code == 0
    assert first.read_text() == merged.read_text()


def test_report_merges_two_files(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "verify", "--filter", "C12", "--format", "json", "--out", str(a))
    run(capsys, "verify", "--filter", "C17", "--format", "json", "--out", str(b))
    code, out, _ = run(capsys, "report", str(a), str(b))
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["total"] == 2
    assert [c["check"] for c in obj["checks"]] == ["C12", "C17"]


def test_report_text_format_matches_verify_text(tmp_path, capsys):
    report = tmp_path / "r.json"
    run(capsys, "verify", "--filter", "C12", "--format", "json", "--out", str(report))
    _, verify_text, _ = run(capsys, "verify", "--filter", "C12")
    code, out, _ = run(capsys, "report", str(report), "--format", "text")
    assert code == 0
    assert out == verify_text


def test_report_csv_is_usage_error(tmp_path, capsys):
    report = tmp_path / "r.json"
    run(capsys, "verify", "--filter", "C12", "--format", "json", "--out", str(report))
    code, out, err = run(capsys, "report", str(report), "--format", "csv")
    assert code == 2 and out == ""
    assert "'csv'" in err


@pytest.mark.parametrize("text", ['{"checks":[{}]}', "[1]", '{"checks": 5}',
                                  '{"checks":[{"check": "C01", "status": "ok"}]}',
                                  '{"checks":[{"check": 1, "status": "pass"}]}'])
def test_report_malformed_file_is_one_line_usage_error(tmp_path, capsys, text):
    report = tmp_path / "r.json"
    report.write_text(text)
    code, out, err = run(capsys, "report", str(report))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "--definitely-not-a-flag")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2
