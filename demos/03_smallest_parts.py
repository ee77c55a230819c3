"""Smallest-parts counts three ways.

The refined smallest-parts function is computed by brute-force weighting,
by its direct q-series, and by the divisor-sum-minus-moment form; the
demo also shows the quarter law and the closed form at d = e = 1.
"""

from fractions import Fraction

from qpairs import builders, oracle
from qpairs.builders import Monomial


def main():
    order = 10
    direct = builders.spt_gf_direct(order)
    viamoments = builders.spt_gf(order)
    table = oracle.spt_table(order)

    print("refined smallest-parts coefficients, three ways:")
    for n in range(1, order + 1):
        got = direct.coefficient(n)
        want = table[n]
        ok = got.terms == want.terms == viamoments.coefficient(n).terms
        print(f"  n={n:2d}: {got}  [{'ok' if ok else 'MISMATCH'}]")
    print()

    print("quarter law: 4 * total smallest-parts count == number of pairs:")
    ranks = oracle.rank_table(order)
    for n in range(1, order + 1):
        spt_total = sum(table[n].terms.values())
        pairs = sum(ranks[n].terms.values())
        print(f"  n={n:2d}: 4*{spt_total} == {pairs}: {4 * spt_total == pairs}")
    print()

    s = builders.spt_gf(20, d=Fraction(1), e=Fraction(1))
    aq = builders.poch_inf((), Monomial(Fraction(-1), 1), 20)
    ratio = aq * builders.q_inf(20).invert()
    closed = ratio * ratio * Fraction(1, 4) - Fraction(1, 4)
    ok, _ = s.equal_to_order(closed, 20)
    print(f"closed form at d=e=1 to order 20: {ok}")


if __name__ == "__main__":
    main()
