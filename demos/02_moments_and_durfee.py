"""Symmetrized rank moments and their marked-symbol interpretation.

Shows that the 2v-th symmetrized moment series agrees with brute-force
moment tables, that odd extractions vanish identically, and that the
(v+1)-marked Durfee symbol counts reproduce the same numbers.
"""

from fractions import Fraction

from qpairs import builders, oracle


def main():
    order = 10
    table = oracle.rank_table(order)

    print("2nd symmetrized moment (v=1), refined by (r, s):")
    series = builders.n2v(1, order)
    for n in range(order + 1):
        got = series.coefficient(n)
        want = oracle.symmetrized_poly(table[n], 2)
        status = "ok" if got.terms == want.terms else "MISMATCH"
        print(f"  n={n:2d}: {got}  [{status}]")
    print()

    print("odd extractions vanish:")
    N = builders.rank_gf(order)
    for k in (1, 3, 5):
        s = builders.symmetrized_moment_series(k, N)
        print(f"  k={k}: zero series = {s.is_zero()}")
    print()

    print("2-marked Durfee symbols of weight 4:")
    for sym in oracle.enumerate_durfee(2, 4):
        top = " ".join(f"{v}_{i}" for v, i in sym.top) or "-"
        bot = " ".join(f"{v}_{i}" for v, i in sym.bottom) or "-"
        r, s = sym.stats()
        print(f"  S={sym.S} top=({top}) bottom=({bot}) mu={sym.mu} nu={sym.nu}"
              f"  r={r} s={s} ranks={sym.ranks()}")
    print()

    print("marked-symbol counts equal symmetrized moments (v=1,2):")
    for v in (1, 2):
        agree = all(
            oracle.durfee_stats_poly(v + 1, n).terms
            == oracle.symmetrized_poly(table[n], 2 * v).terms
            for n in range(order + 1)
        )
        print(f"  D_{v + 1}(r,s,n) == eta_{2 * v}(r,s,n) for n <= {order}: {agree}")
    print()

    pts = (Fraction(2), Fraction(3))
    lhs = builders.durfee_rhs(2, order, xs=pts)
    rhs = builders.rk_partial_fractions(pts, [builders.rank_gf(order, x=x) for x in pts])
    ok, _ = lhs.equal_to_order(rhs, order)
    print(f"sum side == partial-fraction combination at x=(2,3): {ok}")


if __name__ == "__main__":
    main()
