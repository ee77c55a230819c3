"""End-to-end acceptance gate.

Each criterion prints exactly one PASS/FAIL line (bypassing capture) so a
suite run leaves an at-a-glance verdict, and fails the corresponding test
on any mismatch.
"""

import sys
from fractions import Fraction

import pytest

import _props
import _verdicts
from qpairs import builders as B
from qpairs import QSeries, harness, oracle

F = Fraction


def _verdict(tag, body):
    try:
        body()
    except BaseException:
        _verdicts.LINES.append(f"{tag}: FAIL")
        print(f"{tag}: FAIL", file=sys.stderr)
        raise
    _verdicts.LINES.append(f"{tag}: PASS")
    print(f"{tag}: PASS", file=sys.stderr)


def test_a1_moment_bridge():
    def body():
        table = oracle.rank_table(12)
        for v in (1, 2, 3):
            series = B.n2v(v, 12)
            for n in range(13):
                expected = oracle.symmetrized_poly(table[n], 2 * v)
                assert series.coefficient(n).terms == expected.terms, (v, n)
        N = B.rank_gf(12)
        for k in (1, 3, 5):
            assert B.symmetrized_moment_series(k, N).is_zero()
    _verdict("A1 moment-bridge", body)


def test_a2_durfee_bridge():
    point_vectors = {
        2: [(F(2), F(3)), (F(3), F(5)), (F(1, 2), F(5)), (F(-2), F(3))],
        3: [(F(2), F(3), F(5)), (F(3), F(5), F(7)),
            (F(1, 2), F(3), F(5)), (F(-2), F(3), F(5))],
    }
    def body():
        table = oracle.rank_table(10)
        for k, vectors in point_vectors.items():
            polys = {n: oracle.durfee_rank_poly(k, n) for n in range(11)}
            refined = QSeries(polys[0].params, 10, polys)
            for pts in vectors:
                series = B.durfee_rhs(k, 10, xs=pts)
                want = refined.eval_param({f"x{j + 1}": pts[j] for j in range(k)})
                for n in range(11):
                    assert series.coefficient(n) == want.coefficient(n), (k, pts, n)
        for v in (1, 2):
            for n in range(11):
                d_poly = oracle.durfee_stats_poly(v + 1, n)
                eta = oracle.symmetrized_poly(table[n], 2 * v)
                assert d_poly.terms == eta.terms, (v, n)
    _verdict("A2 durfee-bridge", body)


def test_a3_rank_generating_functions():
    def body():
        for cid in ("C01", "C02", "C08"):
            res = harness.run_check(cid, order=12)
            assert res.status == "pass", (cid, res.first_mismatch)
        table = oracle.rank_table(3)
        totals = [sum(table[n].terms.values()) for n in (1, 2, 3)]
        assert totals == [4, 12, 32]
    _verdict("A3 rank-generating-functions", body)


def test_a4_pde_suite():
    def body():
        for cid in ("C15", "C16", "C21", "C27"):
            res = harness.run_check(cid)
            assert res.status == "pass", (cid, res.first_mismatch)
            assert res.order >= 20
            if res.points:
                assert len(res.points) >= 5, cid
    _verdict("A4 pde-suite", body)


def test_a5_lambert_bracket_suite():
    ids = ("C10", "C11", "C12", "C13", "C14", "C17", "C18", "C20", "C22",
           "C23", "C24", "C25", "C26", "C28", "C29", "C34")
    def body():
        for cid in ids:
            res = harness.run_check(cid)
            assert res.status == "pass", (cid, res.first_mismatch)
    _verdict("A5 lambert-bracket-suite", body)


def test_a6_spt_suite():
    def body():
        for cid in ("C30", "C31", "C32"):
            res = harness.run_check(cid)
            assert res.status == "pass", (cid, res.first_mismatch)
        table = oracle.spt_table(2)
        assert sum(table[1].terms.values()) == 1
        assert sum(table[2].terms.values()) == 3
    _verdict("A6 spt-suite", body)


def test_a7_kernel_soundness():
    def body():
        total = _props.run_all(seed=20260825)
        assert total >= 1000, total
        assert harness.negative_control().status == "fail"
    _verdict("A7 kernel-soundness", body)
