import json
import os
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

from qpairs import ParamPoly, QSeries, builders, harness, oracle
from qpairs.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

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

    def broken(ctx, order):
        return 1 // 0

    monkeypatch.setitem(harness.REGISTRY, "C12", spec._replace(fn=broken))
    results = harness.run_suite("C1?", order=8)
    assert [r.id for r in results] == [f"C1{i}" for i in range(10)]
    (res,) = [r for r in results if r.id == "C12"]
    assert res.status == "error"
    assert res.first_mismatch == {"label": "ZeroDivisionError: integer division or modulo by zero"}
    assert all(r.status == "pass" for r in results if r.id != "C12")

    assert main(["verify", "--filter", "C12", "--order", "8"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("ERR   C12") and "Traceback" not in out + err


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_no_check_errors_at_low_orders(order):
    # anchors such as C08's totals at n = 1, 2, 3 apply only inside the window
    results = harness.run_suite("*", order)
    assert [(r.id, r.first_mismatch) for r in results if r.status == "error"] == []


def test_comparison_with_a_short_side_is_an_error(monkeypatch):
    spec = harness.REGISTRY["C12"]

    def short(ctx, order):
        one = QSeries.one((), order)
        ctx.equal(one, one.truncate(order - 1), order, "short side")

    monkeypatch.setitem(harness.REGISTRY, "C12", spec._replace(fn=short))
    res = harness.run_check("C12", 8)
    assert res.status == "error"
    assert res.first_mismatch == {"label": "comparison to order 8 exceeds mutual window 7"}


def test_a_sampled_check_that_errors_keeps_its_points(monkeypatch):
    # the report's mode follows from the points a check ran at, whatever its outcome
    spec = harness.REGISTRY["C12"]

    def broken_at_a_point(ctx, order):
        ctx.points.append("x=2")
        raise ValueError("no value at x=2")

    monkeypatch.setitem(harness.REGISTRY, "C12", spec._replace(fn=broken_at_a_point))
    res = harness.run_check("C12", 8)
    assert (res.status, res.mode, res.points) == ("error", "rational-points", ["x=2"])
    assert res.first_mismatch == {"label": "ValueError: no value at x=2"}


def test_a_shifted_durfee_count_fails_c04_c05_c06(monkeypatch):
    walk = oracle._durfee_sums

    def shifted(k, n_max, join):
        # the walk every fold reads, with one count of the top weight once too often
        sums = walk(k, n_max, join)
        if sums[n_max]:
            sums[n_max][min(sums[n_max])] += 1
        return sums

    monkeypatch.setattr(oracle, "_durfee_sums", shifted)
    for check_id in ("C04", "C05", "C06"):
        res = harness.run_check(check_id, order=6)
        assert res.status == "fail" and res.first_mismatch.get("exponent") == 6, check_id


@pytest.mark.parametrize("table, readers", [
    ("rank_table", ("C01", "C03", "C05", "C08", "C09", "C33")),
    ("spt_table", ("C30", "C32")),
])
def test_a_shifted_table_count_fails_every_reader_at_its_weight(monkeypatch, table, readers):
    counted = getattr(oracle, table)

    def shifted(n_max, **kept):
        # one count of weight 2 too many: the lowest key by its last entry, so
        # for the rank table a negative rank, which every moment sees
        out = dict(counted(n_max, **kept))  # the table is cached: copy it
        key = min(out[2].terms, key=lambda k: k[-1])
        out[2] += ParamPoly(out[2].params, {key: 1})
        return out

    monkeypatch.setattr(oracle, table, shifted)
    for check_id in readers:
        res = harness.run_check(check_id, order=6)
        assert res.status == "fail", check_id
        assert res.first_mismatch.get("exponent") == 2, (check_id, res.first_mismatch)


# the checks that fail, and only those, when one function of the rank family, the
# Lambert sum or a theta or product builder is wrong; phi65_pair, whose two sides C19
# compares with each other, returns a pair that the bump below cannot wrap: its row,
# and the oracle tables', are in ORACLE_ROWS
GUARD_ROWS = {
    "rank_gf": "C01 C02 C07 C14 C15 C16 C21 C27",
    "rank_gf_lambert": "C02",
    "n2v": "C03 C11 C19 C24",
    "durfee_rhs": "C04 C06 C07",
    "spt_gf": "C30 C31",
    "spt_gf_direct": "C30",
    "symmetrized_moment_series": "C03",
    "rk_partial_fractions": "C07",
    "_alternating_sum": "C02 C03 C04 C06 C07 C11 C19 C24 C30 C31",
    "_horner": "C01 C02 C03 C04 C06 C07 C11 C14 C15 C16 C19 C21 C24 C27 C30 C31",
    "lambert_sum": "C10 C11 C12 C13 C14 C17 C19 C20 C22 C23 C24 C25 C26 C28 C29",
    "jacobi_J": "C16 C18 C21 C27",
    "crank_C": "C08 C09",
    "pochhammer": "C34",
    "phi1": "C11 C17 C19 C22 C24 C28 C29 C30 C31",
    "times_poch": "C02 C03 C04 C06 C07 C08 C09 C10 C11 C12 C13 C14 C15 C16 C18 C19 C20 C21 C23 C24 C25 C26 C27 "
                  "C29 C30 C31 C32 C34",
}


def _amount(args) -> int:
    """A bump read from a call's plain arguments, so that a factor both sides of a check
    share cannot cancel it."""
    plain = [a for a in args if not callable(a) and not isinstance(a, dict)]
    return 1 + zlib.crc32(repr(plain).encode()) % 997


def _plus(s: QSeries, c: int) -> QSeries:
    """``s`` with c*q^n added just above its valuation."""
    out = s + QSeries(s.params, s.order, {min(s.order, max(s.valuation, 0) + 1): c})
    out.bounds = s.bounds  # a constant term keeps every degree bound
    return out


def _bumped(fn):
    """``fn`` with a bump added to its result just above the valuation."""
    def wrapper(*args, **kwargs):
        return _plus(fn(*args, **kwargs), _amount([*args, *kwargs.values()]))
    return wrapper


# the rows added once the guard tests had spent their 3 s: each runs the suite once more
SLOW_ROWS = ("_horner",)


@pytest.mark.parametrize("name, row", [
    pytest.param(name, row, id=name, marks=[pytest.mark.slow] if name in SLOW_ROWS else [])
    for name, row in GUARD_ROWS.items()
])
def test_a_bumped_rank_builder_fails_every_check_of_its_row(monkeypatch, name, row):
    real = getattr(builders, name)
    for module in (builders, harness):  # harness imports lambert_sum by name
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, _bumped(real))
    results = harness.run_suite("*", 6)
    assert {r.id: r.status for r in results if r.status != "pass"} == dict.fromkeys(row.split(), "fail")


# builders that no check reaches, so no row above guards them; a check that comes to
# reach one must add its row
UNGUARDED = ("eta_quotient", "eisenstein_E2", "q_inf", "crank_C_star", "geometric_inverse", "poch_inf")


@pytest.mark.slow  # past the guard tests' 3 s, as SLOW_ROWS
def test_no_check_reaches_an_unguarded_builder(monkeypatch):
    def unreached(*args, **kwargs):
        raise AssertionError("an unguarded builder was reached")

    for name in UNGUARDED:
        for module in (builders, harness):  # as the guard rows, wherever the name is held
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreached)
    results = harness.run_suite("*", 6)
    assert len(results) == 34
    assert {r.id: r.first_mismatch for r in results if r.status != "pass"} == {}


def _shifted(key):
    """An oracle table reader with a bump added at ``key`` in weight min(n_max, 1)."""
    def bump(fn):
        def wrapper(n_max, **kept):
            out = dict(fn(n_max, **kept))  # the table is cached: copy it
            w = min(n_max, 1)
            out[w] += ParamPoly(out[w].params, {key: _amount([n_max])})
            return out
        return wrapper
    return bump


def _shifted_values(fn):
    """``durfee_values`` with a bump added at q^1 of each point."""
    def wrapper(k, n_max, points):
        c, w = _amount([k, n_max, points]), min(n_max, 1)
        return [[p + c if n == w else p for n, p in enumerate(row)] for row in fn(k, n_max, points)]
    return wrapper


def _left_bumped(fn):
    """``phi65_pair`` with a bump on its left side only: on both it would cancel."""
    def wrapper(b, order):
        lhs, rhs = fn(b, order)
        return _plus(lhs, _amount([b, order])), rhs
    return wrapper


# the checks that fail, and only those, when an oracle table or one side of phi65_pair
# is wrong; C05 and C33 compare the oracle with itself, so only a shifted table catches
# them; the rank table's bump sits at m = 3, since C(m + v - 1, 2v) vanishes at m = 1 and
# would hide it from C03 and C05
ORACLE_ROWS = {
    "rank_table": (oracle, _shifted((0, 0, 3)), "C01 C03 C05 C08 C09 C33"),
    "spt_table": (oracle, _shifted((0, 0)), "C30 C32"),
    "durfee_values": (oracle, _shifted_values, "C04 C05 C06"),
    "phi65_pair": (builders, _left_bumped, "C19"),
}


@pytest.mark.parametrize("name, module, bump, row", [(name, *spec) for name, spec in ORACLE_ROWS.items()],
                         ids=list(ORACLE_ROWS))
def test_a_shifted_oracle_table_or_side_fails_every_check_of_its_row(monkeypatch, name, module, bump, row):
    monkeypatch.setattr(module, name, bump(getattr(module, name)))
    results = harness.run_suite("*", 6)
    assert {r.id: r.status for r in results if r.status != "pass"} == dict.fromkeys(row.split(), "fail")


def test_only_c09_and_c34_invert_a_series(monkeypatch):
    # theta and Pochhammer quotients, and a negative-length Pochhammer symbol,
    # go through builders.times_poch; only C09's constants and C34's
    # reciprocal reference invert a series
    running, callers = [], set()
    run_check, invert = harness.run_check, QSeries.invert

    def tracked(check_id, order=None):
        running.append(check_id)
        return run_check(check_id, order)

    def spy(self):
        callers.add(running[-1])
        return invert(self)

    monkeypatch.setattr(harness, "run_check", tracked)
    monkeypatch.setattr(QSeries, "invert", spy)
    results = harness.run_suite("*", 4)
    assert [r.id for r in results if r.status != "pass"] == []
    assert callers == {"C09", "C34"}


def test_c07_builds_each_point_once(monkeypatch):
    # 20 (tuple, point) pieces over 8 distinct points
    points, rank_gf = [], builders.rank_gf

    def counted(order, d=None, e=None, x=None, base=1):
        points.append(x)
        return rank_gf(order, d, e, x, base)

    monkeypatch.setattr(builders, "rank_gf", counted)
    assert harness.run_check("C07", order=4).status == "pass"
    assert sorted(points) == sorted(set(points)) and len(points) == 8


def test_c03_builds_the_symbolic_rank_refinement_once(monkeypatch):
    # one N(d, e, x) for its six moment extractions
    calls, rank_gf = [], builders.rank_gf

    def counted(order, d=None, e=None, x=None, base=1):
        calls.append((order, d, e, x, base))
        return rank_gf(order, d, e, x, base)

    monkeypatch.setattr(builders, "rank_gf", counted)
    assert harness.run_check("C03", order=6).status == "pass"
    assert calls == [(6, None, None, None, 1)]


def test_c33_labels_only_the_entry_that_fails(monkeypatch):
    # +5, -4, +1 at ranks 1, 2, 3 keep both odd moments zero but break the rank symmetry
    counted, labels = oracle.rank_table, []
    true = harness._Ctx.true

    def perturbed(n_max):
        out = dict(counted(n_max))
        out[5] += ParamPoly(out[5].params, {(1, 1, m): c for m, c in ((1, 5), (2, -4), (3, 1))})
        return out

    def spy(self, cond, label):
        labels.append(label)
        true(self, cond, label)

    monkeypatch.setattr(harness._Ctx, "true", spy)
    assert harness.run_check("C33", order=6).status == "pass" and labels == []
    monkeypatch.setattr(oracle, "rank_table", perturbed)
    res = harness.run_check("C33", order=6)
    assert res.status == "fail"
    assert res.first_mismatch == {"label": "rank symmetry at n=5, (r,s,m)=(1,1,-3)"}


def test_report_determinism():
    a = harness.run_suite("C12", order=12)
    b = harness.run_suite("C12", order=12)
    assert harness.report_json([r.body() for r in a]) == harness.report_json([r.body() for r in b])


def test_report_body_excludes_timing():
    res = harness.run_check("C12", order=12)
    assert "millis" not in res.body()
    assert "millis" not in json.loads(harness.report_json([res.body()]))["checks"][0]


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


def test_c09_constants_are_exact():
    assert [harness._delta_x_A_at_1(j) for j in range(5)] == [1, 0, Fraction(-1, 2), 0, 1]


def test_c09_runs_without_sympy():
    code = ("import sys; from qpairs.cli import main; "
            "status = main(['verify', '--filter', 'C09', '--format', 'json']); "
            "assert 'sympy' not in sys.modules; sys.exit(status)")
    proc = subprocess.run([sys.executable, "-c", code], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["checks"][0]["status"] == "pass"
