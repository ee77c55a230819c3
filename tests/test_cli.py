import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qpairs import builders, cli, oracle
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


def test_a_huge_moment_index_is_zero_at_once(capsys):
    # C(m, K) = 0 for 0 <= m < K, so no K-term product is formed
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    huge = subprocess.run([sys.executable, "-m", "qpairs.cli", "coeffs", f"moment:k={10 ** 20}", "--order", "3"],
                          capture_output=True, text=True, env=env, timeout=2)
    code, out, _ = run(capsys, "coeffs", "moment:k=1000", "--order", "3")
    assert huge.returncode == code == 0 and huge.stdout == out


def test_coeffs_help_lists_every_builder(capsys):
    code, out, _ = run(capsys, "coeffs", "--help")
    assert code == 0
    assert builders.BUILDER_GRAMMAR.strip() in out  # raw: the grammar's own line breaks
    names = set(re.findall(r"[\w-]+", out))
    assert set(builders._BUILDER_KEYS) <= names, set(builders._BUILDER_KEYS) - names


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


@pytest.mark.parametrize("spec", ["spt:d=1/0", "n2v:vv=2", "durfee:k=2:base=2", "eta:24^", "eta:8^,16^-2"])
def test_coeffs_bad_identifier_is_one_line_usage_error(capsys, spec):
    code, out, err = run(capsys, "coeffs", spec, "--order", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,value,key", [
    (("spt:d=2*x",), "2*x", "d"),
    (("rank:e=d",), "d", "e"),
    (("rank:x=q*y",), "q*y", "x"),
    (("rank:d=q^-1*e:base=2",), "q^-1*e", "d"),
    (("durfee:k=2:x1=x",), "x", "x1"),
    (("Cstar:x=2*d",), "2*d", "x"),
    (("n2v:v=1", "--params", "d=e"), "e", "d"),
])
def test_coeffs_value_with_a_parameter_is_one_line_usage_error(capsys, argv, value, key):
    code, out, err = run(capsys, "coeffs", *argv, "--order", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"value {value!r} for {key} carries a parameter" in err


@pytest.mark.parametrize("argv", [("Phi1:m=2:m=3",), ("n2v:v=1", "--params", "d=1,d=2"),
                                  ("rank:d=1/2", "--params", "d=2")])
def test_coeffs_key_given_twice_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, "coeffs", *argv, "--order", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "given twice" in err


@pytest.mark.parametrize("spec", ["rank: d=1", "rank:d =1", "rank: d =1", "rank :d=1"])
def test_coeffs_key_with_blanks_is_the_key(capsys, spec):
    # the blanks around a key are dropped, as in --params
    code, out, err = run(capsys, "coeffs", spec, "--order", "4", "--format", "json")
    assert (code, err) == (0, "")
    assert out == run(capsys, "coeffs", "rank:d=1", "--order", "4", "--format", "json")[1]


def test_coeffs_key_with_blanks_given_twice_is_one_line_usage_error(capsys):
    code, out, err = run(capsys, "coeffs", "rank:d=1:d =2", "--order", "3")
    assert code == 2 and out == ""
    assert err == "error: cannot build 'rank:d=1:d =2': key 'd' given twice in 'rank:d=1:d =2'\n"


@pytest.mark.parametrize("argv,named", [(("E2", "--params", "=1"), "--params '=1'"),
                                        (("n2v:v=1", "--params", "d=1, =2"), "--params 'd=1, =2'"),
                                        (("rank:=1",), "'rank:=1'"), (("Phi1: =2",), "'Phi1: =2'")])
def test_coeffs_empty_key_is_one_line_usage_error(tmp_path, capsys, argv, named):
    target = tmp_path / "x.csv"
    code, out, err = run(capsys, "coeffs", *argv, "--order", "3", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "empty" in err and named in err
    assert not target.exists()


@pytest.mark.parametrize("spec,message", [
    ("rank:d=q^-1:e=q^-1:base=2", "need base > 2, the sum of their |j|"),
    ("rank:x=q^2:base=2", "x takes rational points"),
    ("rank-lambert:x=q", "x takes rational points"),
])
def test_coeffs_substitution_without_a_provable_window_is_one_line_usage_error(capsys, spec, message):
    code, out, err = run(capsys, "coeffs", spec, "--order", "2")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and message in err


# every value key: (builder id, key, whether the key is a rank variable)
VALUE_KEYS = [("rank", "x", True), ("rank-lambert", "x", True), ("C", "x", True), ("Cstar", "x", True),
              ("durfee:k=2:x2=3", "x1", True), ("rank", "d", False), ("spt", "e", False)]


@pytest.mark.parametrize("via_params", [False, True], ids=["in-id", "params"])
@pytest.mark.parametrize("spec,key,rank_variable", VALUE_KEYS,
                         ids=[f"{spec.partition(':')[0]}:{key}" for spec, key, _ in VALUE_KEYS])
def test_coeffs_reads_every_value_by_one_rule(capsys, spec, key, rank_variable, via_params):
    # c*q^0 is the rational c and 0*q^j the rational 0 at every key, in an id as in
    # --params; a rank variable takes rational points only, with one error text
    def at(value):
        argv = [spec, "--params", f"{key}={value}"] if via_params else [f"{spec}:{key}={value}"]
        code, out, err = run(capsys, "coeffs", *argv, "--order", "4", "--format", "json")
        return code, out, err.replace(repr(argv[0]), "ID")

    two = at("2")
    assert two[0] == 0 and two[2] == ""
    assert at("4/2") == at("2*q^0") == two
    assert at("0*q^-1") == at("0")
    if rank_variable:
        for value in ("q", "2*q^-1"):
            assert at(value) == (2, "", f"error: cannot build ID: {key} takes rational points: "
                                        f"the series is Laurent in {key}\n")


@pytest.mark.parametrize("spec,factor", [("rank:x=1.5", "1.5"), ("rank:x=1e3", "1e3"), ("rank:x=1_000", "1_000"),
                                         ("rank:d=1.5*q", "1.5")])
def test_coeffs_reads_a_plain_value_by_the_monomial_grammar(capsys, spec, factor):
    # a plain value is a monomial with no q: decimal, exponent and underscore spellings
    # exit 2 with the text a monomial's coefficient gets
    code, out, err = run(capsys, "coeffs", spec, "--order", "1")
    assert (code, out) == (2, "")
    value = spec.partition("=")[2]
    assert err == f"error: cannot build {spec!r}: cannot parse monomial factor {factor!r} in {value!r}\n"


def test_coeffs_cstar_without_x_is_one_line_usage_error(capsys):
    code, out, err = run(capsys, "coeffs", "Cstar", "--order", "2")
    assert (code, out) == (2, "")
    assert err == "error: cannot build 'Cstar': starred crank product needs a rational x\n"


@pytest.mark.parametrize("spec", ["rank", "rank-lambert", "n2v", "J:-x", "C", "Cstar:x=2"])
@pytest.mark.parametrize("base", [0, -1])
def test_coeffs_base_below_one_is_one_line_usage_error(capsys, spec, base):
    code, out, err = run(capsys, "coeffs", f"{spec}:base={base}", "--order", "4")
    assert code == 2 and out == ""
    assert err == f"error: cannot build '{spec}:base={base}': base must be a positive q-power, got base={base}\n"


def test_coeffs_json_round_trips(capsys):
    code, out, _ = run(capsys, "coeffs", "qinf", "--order", "5", "--format", "json")
    assert code == 0
    from qpairs import QSeries, builders
    s = QSeries.from_obj(json.loads(out))
    ok, _ = s.equal_to_order(builders.q_inf(5), 5)
    assert ok


@pytest.mark.parametrize("spec,order", [("rank:base=2", 8), ("Cstar:x=2", 6)])
def test_coeffs_json_reads_back_as_the_build(tmp_path, capsys, spec, order):
    # rank:base=2 carries degree bounds, Cstar:x=2 rational coefficients
    from qpairs import QSeries, builders
    argv = ("coeffs", spec, "--order", str(order), "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    want = builders.build(spec, order)
    s = QSeries.from_obj(json.loads(out))
    assert s == want and s.bounds == want.bounds
    assert out == want.to_json() + "\n"
    target = tmp_path / "series.json"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == out


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


@pytest.mark.parametrize("extra", [("--filter", "r=1"), ("--k", "2")])
def test_enumerate_pairs_rejects_durfee_options(capsys, extra):
    code, out, err = run(capsys, "enumerate", "pairs", "--n", "2", *extra)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and extra[0] in err


@pytest.mark.parametrize("text,key", [("r=1,r=2", "r"), ("ranks=0,0,ranks=1,1", "ranks"),
                                      ("ranks=", "ranks"), ("r=1,s=x", "s"),
                                      ("ranks=0,y", "ranks")])
def test_enumerate_durfee_bad_filter_is_one_line_usage_error(capsys, text, key):
    code, out, err = run(capsys, "enumerate", "durfee", "--k", "2", "--n", "4",
                         "--filter", text)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"filter key {key} " in err


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


def test_enumerate_durfee_huge_k_lists_nothing_at_once(capsys):
    # weight n holds S >= 1 and k - 1 forced top parts, so k > n has no symbol
    start = time.perf_counter()
    code, out, _ = run(capsys, "enumerate", "durfee", "--k", "1000000000", "--n", "5")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.splitlines()[-1] == "0 symbols of weight 5 (k=1000000000)"


def durfee_reference(capsys, k, n, text, fmt):
    """The listing as symbols, one row each, sorted as lists of texts."""
    want = cli._parse_durfee_filter(text) if text else {}
    rows = []
    for x in oracle.enumerate_durfee(k, n, want.get("r"), want.get("s"), want.get("ranks")):
        if want.get("S", x.S) != x.S or want.get("full_rank", x.full_rank()) != x.full_rank():
            continue
        rows.append([str(x.S), cli._fmt_marked_row(x.top), cli._fmt_marked_row(x.bottom),
                     cli._fmt_ints(x.mu), cli._fmt_ints(x.nu), *map(str, x.stats()),
                     cli._fmt_ints(x.ranks()), str(x.full_rank())])
    rows.sort()
    cli._rows_out(["S", "top", "bottom", "mu", "nu", "r", "s", "ranks", "full_rank"], rows,
                  fmt, None, footer=f"{len(rows)} symbols of weight {n} (k={k})")
    return capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
@pytest.mark.parametrize("k,n,text", [
    (2, 6, None), (3, 6, None),
    (2, 11, None),  # S reaches 10, and "10" sorts before "2"
    (3, 8, "r=1"), (3, 8, "s=2"), (3, 8, "S=3"), (3, 8, "full_rank=-2"),
    (3, 9, "r=1,s=2,ranks=-1,-1,-1"), (2, 8, "ranks=0,0,S=4"),
    (3, 6, "r=9"), (3, 9, "ranks=-1,-1,-1,full_rank=5"),  # empty
])
def test_enumerate_durfee_matches_sorted_symbol_rows(capsys, tmp_path, fmt, k, n, text):
    expected = durfee_reference(capsys, k, n, text, fmt)
    argv = ["enumerate", "durfee", "--k", str(k), "--n", str(n), "--format", fmt]
    if text:
        argv += ["--filter", text]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == expected
    path = tmp_path / "listing"
    code, out, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_bytes().decode() == expected


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
@pytest.mark.parametrize("argv", [("--k", "3", "--filter", "r=1,s=2,ranks=-1,-1"),
                                  ("--k", "1",)])
def test_enumerate_durfee_failure_writes_nothing(capsys, fmt, argv):
    code, out, err = run(capsys, "enumerate", "durfee", "--n", "6", *argv, "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.slow
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


def test_verify_csv_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--filter", "C12", "--order", "6", "--format", "csv")
    assert code == 2 and out == ""
    assert "'csv'" in err


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


@pytest.mark.parametrize("argv", [("coeffs", "E2", "--order", "3"), ("verify", "--filter", "C12", "--format", "json")])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_one_line_usage_error(tmp_path, capsys, argv, target):
    path = tmp_path / "missing" / "x.out" if target == "missing-directory" else tmp_path
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_out_is_reported_before_the_work(tmp_path, capsys, monkeypatch, target):
    def never(*args):
        raise AssertionError("the suite ran")

    monkeypatch.setattr(cli.harness, "run_suite", never)
    path = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    code, out, err = run(capsys, "verify", "--out", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: --out ") and err.count("\n") == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "--definitely-not-a-flag")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def read_first_line_then_close(*argv):
    """Run the CLI with its stdout on a pipe, read one line and close the pipe;
    returns that line, stderr and the exit code."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "qpairs.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    line = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    return line, err, proc.returncode


def test_closed_stdout_ends_quietly():
    # the listing is larger than a pipe buffer, so the writer meets the closed pipe
    line, err, code = read_first_line_then_close("enumerate", "pairs", "--n", "8",
                                                 "--format", "json")
    assert line == b"[\n"
    assert b"Traceback" not in err, err.decode()
    assert code == 0


def test_closed_stdout_ends_streamed_listing_quietly():
    # 2,070 rows, more than a pipe buffer holds
    line, err, code = read_first_line_then_close(
        "enumerate", "durfee", "--k", "3", "--n", "20", "--filter", "r=1,s=2,ranks=-1,-1,-1",
        "--format", "csv")
    assert line == b"S,top,bottom,mu,nu,r,s,ranks,full_rank\r\n"
    assert b"Traceback" not in err, err.decode()
    assert code == 0


def test_cli_import_leaves_out_the_introspection_modules():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 9 ms of every cold CLI call;
    # -S keeps site's own imports out of the count
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys; from qpairs import cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]", out.stdout


def test_an_exponent_past_the_slot_range_exits_2(capsys):
    # J:x^K has exponents up to about K * order; past 2^30 a key slot would overflow
    for k in (1 << 30, 1 << 28):
        code, out, err = run(capsys, "coeffs", f"J:x^{k}", "--order", "3")
        assert code == 2 and not out
        assert "could hold the exponent" in err and "outside the slot range" in err and "Traceback" not in err
    code, out, _ = run(capsys, "coeffs", "J:x^1000", "--order", "2")
    assert code == 0 and "x^2000" in out
