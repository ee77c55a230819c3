"""Rank refinement of overpartition pairs: enumeration vs generating function.

Walks through the two-parameter refinement N(r,s,m,n): lists the pairs of
a small weight with their statistics, then compares brute-force tallies
with the coefficients of the rank generating function, in both its
unilateral and bilateral forms.
"""

from qpairs import builders, oracle


def show_pairs(n):
    print(f"overpartition pairs of weight {n} (overlines written with '):")
    for lam, mu in oracle.overpartition_pairs(n):
        def fmt(op):
            parts, over = op
            seen = set()
            bits = []
            for p in parts:
                mark = "'" if p in over and p not in seen else ""
                seen.add(p)
                bits.append(f"{p}{mark}")
            return "+".join(bits) or "-"
        r, s = oracle.pair_stats(lam, mu)
        m = oracle.pair_rank(lam, mu)
        print(f"  ({fmt(lam):>8}, {fmt(mu):>8})   rank={m:+d}  r={r} s={s}")
    print()


def main():
    show_pairs(2)

    show = 4
    series = builders.rank_gf(show)
    table = oracle.rank_table(show)
    print(f"coefficient of q^n in N(d,e,x;q), checked against enumeration, n <= {show}:")
    for n in range(show + 1):
        got = series.coefficient(n)
        want = table[n]
        status = "ok" if got.terms == want.terms else "MISMATCH"
        print(f"  n={n}: {got}  [{status}]")
    print()

    order = 10
    ok, report = builders.rank_gf(order).equal_to_order(
        builders.rank_gf_lambert(order), order)
    print(f"unilateral == bilateral form to order {order}: {ok}")
    if not ok:
        print(f"  first mismatch: {report}")


if __name__ == "__main__":
    main()
