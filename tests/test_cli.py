import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        ranks = x.ranks()
        full = oracle.full_rank(ranks)  # x.full_rank(), with the rank vector formed once
        if want.get("S", x.S) != x.S or want.get("full_rank", full) != full:
            continue
        rows.append([str(x.S), cli._fmt_marked_row(x.top), cli._fmt_marked_row(x.bottom),
                     cli._fmt_ints(x.mu), cli._fmt_ints(x.nu), *map(str, x.stats()),
                     cli._fmt_ints(ranks), str(full)])
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
    (2, 12, None),  # sides 10-12 come between 1 and 2
    (2, 11, "S=10"),
    (2, 11, "full_rank=-16"),  # sides 1 and 2 only, with the empty 10 and 11 between them
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
    # every row is parsed, but none is kept
    assert sum(row == target for row in csv.reader(io.StringIO(out))) == 1


def record_listing(monkeypatch, stdout, *argv):
    """Run the CLI with an instance of the ``stdout`` class as sys.stdout; returns
    its exit code and the listing's events in order: ("walk", sides) as
    ``oracle._durfee_rows`` starts a walk, and ("write", text) for each write."""
    events = []
    walk = oracle._durfee_rows

    def recording(*args):
        events.append(("walk", tuple(args[5]) if len(args) > 5 else None))
        yield from walk(*args)

    class Recording(stdout):
        def write(self, text):
            events.append(("write", text))
            return super().write(text)

    monkeypatch.setattr(oracle, "_durfee_rows", recording)
    monkeypatch.setattr(sys, "stdout", Recording())
    return main(list(argv)), events


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_enumerate_durfee_writes_each_side_before_walking_the_next(monkeypatch, fmt):
    code, events = record_listing(monkeypatch, io.StringIO, "enumerate", "durfee", "--k", "2", "--n", "12",
                                  "--format", fmt)
    assert code == 0
    # every side once, in the listing's order: 1, 10, 11, 12, 2, ..., 9
    assert [sides for kind, sides in events if kind == "walk"] == [(S,) for S in sorted(range(1, 13), key=str)]
    runs = [kind for kind, _ in itertools.groupby(kind for kind, _ in events)]
    if fmt == "text":  # the column widths need every cell
        assert runs == ["walk", "write"]
    else:  # each side's rows go out before the next side is walked; side 12 holds no symbol
        assert runs == ["walk", "write"] * 11


def test_enumerate_durfee_side_filter_walks_that_side_alone(monkeypatch):
    code, events = record_listing(monkeypatch, io.StringIO, "enumerate", "durfee", "--k", "3", "--n", "8",
                                  "--filter", "S=3", "--format", "csv")
    assert code == 0
    assert [sides for kind, sides in events if kind == "walk"] == [(3,)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_stdout_stops_the_walk_at_the_side_being_written(monkeypatch, tmp_path, fmt):
    sink = os.open(tmp_path / "sink", os.O_WRONLY | os.O_CREAT)

    class ClosedAfterOneWrite(io.StringIO):
        # _write points this fd at devnull once the pipe breaks, so it must not be the real stdout's
        def fileno(self):
            return sink

        def write(self, text):
            if self.getvalue():
                raise BrokenPipeError
            return super().write(text)

    try:
        code, events = record_listing(monkeypatch, ClosedAfterOneWrite, "enumerate", "durfee", "--k", "2",
                                      "--n", "12", "--format", fmt)
    finally:
        os.close(sink)
    assert code == 0
    # side 1 went out; side 10's rows met the closed pipe, and sides 11, 12 and 2..9 were never walked
    assert [sides for kind, sides in events if kind == "walk"] == [(1,), (10,)]
    assert [kind for kind, _ in events] == ["walk", "write", "walk", "write"]


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
@pytest.mark.parametrize("argv", [("--k", "3", "--n", "6", "--filter", "r=1,s=2,ranks=-1,-1"),
                                  ("--k", "1", "--n", "0"), ("--k", "1", "--n", "5", "--filter", "S=9")])
def test_enumerate_durfee_failure_leaves_the_out_file(capsys, tmp_path, fmt, argv):
    path = tmp_path / "listing"
    path.write_text("an earlier listing\n")
    code, out, err = run(capsys, "enumerate", "durfee", *argv, "--format", fmt, "--out", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert path.read_text() == "an earlier listing\n"


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


# argv and its exit code: each command's help, its parser's errors, arguments left over
# (which the root rejects), and the root's own cases
PARSER_TEXTS = [
    *(([name, "--help"], 0) for name in cli.COMMANDS),
    (["coeffs"], 2), (["coeffs", "rank", "--order", "x"], 2), (["coeffs", "rank", "--format", "yaml"], 2),
    (["coeffs", "rank", "--bogus"], 2), (["coeffs", "rank", "extra"], 2),
    (["coeffs", "--", "rank", "--order", "2"], 2), (["coeffs", "rank", "--ord", "2"], 0),
    (["verify", "--order"], 2), (["verify", "-h", "extra"], 0), (["enumerate", "bogus"], 2),
    ([""], 2), (["-h"], 0), (["frobnicate"], 2), (["--definitely-not-a-flag"], 2),
]


@pytest.mark.parametrize("argv,code", PARSER_TEXTS, ids=[" ".join(argv) or "''" for argv, _ in PARSER_TEXTS])
def test_help_and_usage_errors_are_the_full_parsers(capsys, monkeypatch, argv, code):
    got = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli._build_parser().parse_args(argv))
    assert got == run(capsys, *argv)
    assert got[0] == code
    assert got[1] if code == 0 else got[2]


def count_parsers(monkeypatch):
    """A list that gains one entry for each ArgumentParser built from now on."""
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


@pytest.mark.parametrize("argv", [[name, "--help"] for name in cli.COMMANDS], ids=" ".join)
def test_a_named_command_builds_only_its_own_parser(capsys, monkeypatch, argv):
    built = count_parsers(monkeypatch)
    assert run(capsys, *argv)[0] == 0
    assert built == [f"qpairs {argv[0]}"]


PLAIN = [
    ["coeffs", "E2", "--order", "1"], ["verify", "--filter", "C01", "--format", "json"],
    ["coeffs", "rank:e=q^-1:base=2", "--order", "12", "--format", "json"],
    ["enumerate", "durfee", "--k", "3", "--n", "12", "--filter", "r=1,s=2,ranks=-1,-1,-1", "--format", "csv"],
]


@pytest.mark.parametrize("argv", PLAIN, ids=" ".join)
def test_a_plain_command_line_builds_no_parser(capsys, monkeypatch, argv):
    built = count_parsers(monkeypatch)
    got = run(capsys, *argv)
    assert built == []
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    assert got == run(capsys, *argv)
    assert got[0] == 0 and got[1] and not got[2]


VALUES = ["3", "0", "-1", "1_000", " 7", "", "1e3", "x", "yaml", "json", "csv", "text", "rank", "durfee",
          "pairs", "a.json"]
OWN_FLAGS = {name: [flag for *flags, _ in arguments for flag in flags if flag.startswith("-")]
             for name, (_, _, arguments, _) in cli.COMMANDS.items()}
TOKENS = [*cli.COMMANDS, *sorted({flag for flags in OWN_FLAGS.values() for flag in flags}),
          "-h", "--help", "--", "-", "--ord", "--order=3", "--n=2", *VALUES]


@st.composite
def command_lines(draw):
    """A command and pieces of its argv: its own flags with a value or any token, and lone tokens."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    own, value, token = st.sampled_from(OWN_FLAGS[name]), st.sampled_from(VALUES), st.sampled_from(TOKENS)
    pieces = draw(st.lists(st.sampled_from([(own, value)] * 3 + [(own, token), (value,), (token,)]).flatmap(
        lambda piece: st.tuples(*piece)), max_size=4))
    return [name, *(t for piece in pieces for t in piece)]


@settings(max_examples=600, deadline=None, database=None, derandomize=True)
@given(command_lines())
def test_read_gives_the_commands_parse_or_declines(argv):
    name, got = argv[0], cli._read(argv)
    if got is None:
        return
    parser = cli._with_arguments(argparse.ArgumentParser(prog=f"qpairs {name}", **cli.COMMANDS[name][1]), name)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            want = parser.parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"{argv} read as {got}, but the parser rejects it")
    assert vars(got) == vars(want)
    options = [parser._option_string_actions[token] for token in argv[1:] if token in parser._option_string_actions]
    assert len(options) == len(set(options)), f"{argv} gives an option twice"


@pytest.mark.parametrize("argv", [["-h"], ["frobnicate"]], ids=" ".join)
def test_the_root_parser_lists_every_command(capsys, monkeypatch, argv):
    built = count_parsers(monkeypatch)
    _, out, err = run(capsys, *argv)
    assert "{" + ",".join(cli.COMMANDS) + "}" in out + err
    assert built == ["qpairs", *(f"qpairs {name}" for name in cli.COMMANDS)]


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
    # gettext imports locale in a parser build, which a plain command line never makes, so
    # locale stays out after the import and after such a call; -S keeps site's own imports
    # out of the count
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; from qpairs import cli; loaded = lambda: sorted({'dataclasses', 'inspect', 'locale'} & "
            "set(sys.modules)); print(loaded()); cli.main(['coeffs', 'E2', '--order', '1']); print(loaded())")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    lines = out.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]" and len(lines) > 2, out.stdout


def test_an_exponent_past_the_slot_range_exits_2(capsys):
    # J:x^K has exponents up to about K * order; past 2^30 a key slot would overflow
    for k in (1 << 30, 1 << 28):
        code, out, err = run(capsys, "coeffs", f"J:x^{k}", "--order", "3")
        assert code == 2 and not out
        assert "could hold the exponent" in err and "outside the slot range" in err and "Traceback" not in err
    code, out, _ = run(capsys, "coeffs", "J:x^1000", "--order", "2")
    assert code == 0 and "x^2000" in out
