import math
from collections import Counter
from fractions import Fraction

import pytest

import _listing
import _props
from qpairs import ParamPoly, QSeries, oracle
from qpairs.oracle import DurfeeSymbol


def _tallies(table):
    """A pair table's rows as the listing's tallies: each row's terms as a plain dict."""
    return {n: dict(row.terms.items()) for n, row in table.items()}


def _total(row):
    """The sum of a pair-table row's counts."""
    return sum(c for _, c in row.sorted_terms())


# -- overpartition pairs --------------------------------------------------


def test_pair_counts_small_weights():
    assert len(list(oracle.overpartition_pairs(0))) == 1
    assert len(list(oracle.overpartition_pairs(1))) == 4
    assert len(list(oracle.overpartition_pairs(2))) == 12
    assert len(list(oracle.overpartition_pairs(3))) == 32


def test_rank_worked_example_one():
    # ((6',6,5,4,4,4,3',1'), (7,7,5',2,2,2)): 7 - 8 - 1 - 1 = -3
    lam = ((6, 6, 5, 4, 4, 4, 3, 1), frozenset({6, 3, 1}))
    mu = ((7, 7, 5, 2, 2, 2), frozenset({5}))
    assert oracle.pair_rank(lam, mu) == -3


def test_rank_worked_example_two():
    # ((4,3',3,2',1), (4,4,4,1')): 4 - 5 - 1 - 0 = -2
    lam = ((4, 3, 3, 2, 1), frozenset({3, 2}))
    mu = ((4, 4, 4, 1), frozenset({1}))
    assert oracle.pair_rank(lam, mu) == -2


def test_rank_and_stats_singleton_second_component():
    lam = ((), frozenset())
    mu = ((1,), frozenset())
    assert oracle.pair_rank(lam, mu) == 0
    assert oracle.pair_stats(lam, mu) == (1, 1)


def test_empty_pair():
    empty = ((), frozenset())
    assert oracle.pair_rank(empty, empty) == 0
    assert oracle.pair_stats(empty, empty) == (0, 0)


def test_rank_symmetry():
    table = oracle.rank_table(30)
    for n, row in table.items():
        tally = dict(row.sorted_terms())
        for (r, s, m), c in tally.items():
            assert tally.get((r, s, -m), 0) == c


# -- smallest parts -------------------------------------------------------


def test_spt_totals():
    table = oracle.spt_table(2)
    assert sum(table[1].terms.values()) == 1
    assert sum(table[2].terms.values()) == 3


def test_spt_overlined_smallest_contributes_zero():
    lam = ((2, 1), frozenset({1}))
    assert oracle.spt_weight(lam, ((), frozenset())) == 0


def test_spt_smallest_in_second_component_contributes_zero():
    lam = ((2,), frozenset())
    mu = ((1,), frozenset())
    assert oracle.spt_weight(lam, mu) == 0


def test_spt_multiplicity():
    lam = ((1, 1), frozenset())
    assert oracle.spt_weight(lam, ((), frozenset())) == 2


def test_spt_quarter_of_pair_count():
    spt = oracle.spt_table(40)
    ranks = oracle.rank_table(40)
    for n in range(1, 41):
        assert _total(spt[n]) * 4 == _total(ranks[n])


# -- moments --------------------------------------------------------------


def test_gbinom_negative_top():
    assert oracle.gbinom(-1, 2) == 1
    assert oracle.gbinom(2, 2) == 1
    assert oracle.gbinom(0, 3) == 0


def test_gbinom_is_an_exact_int():
    for top in range(-6, 7):
        for k in range(5):
            g = oracle.gbinom(top, k)
            assert type(g) is int
            assert g * math.factorial(k) == math.prod(top - i for i in range(k))
    assert all(type(c) is int for c in oracle.symmetrized_poly(oracle.rank_table(6)[6], 4).terms.values())


def test_second_moment_double_relation():
    # N_2 = 2 * eta_2 entrywise
    table = oracle.rank_table(8)
    for n in range(9):
        n2 = oracle.moment_poly(table[n], 2)
        eta2 = oracle.symmetrized_poly(table[n], 2)
        assert n2.terms == (eta2 + eta2).terms


def test_odd_symmetrized_moments_vanish():
    table = oracle.rank_table(8)
    for n in range(9):
        for k in (1, 3, 5):
            assert not oracle.symmetrized_poly(table[n], k).terms


def test_the_moment_readers_equal_their_definitions():
    for n, row in oracle.rank_table(10).items():
        for k in range(7):
            power, symmetrized = Counter(), Counter()
            for (r, s, m), c in row.terms.items():
                power[r, s] += m ** k * c
                symmetrized[r, s] += oracle.gbinom(m + (k - 1) // 2, k) * c
            assert oracle.moment_poly(row, k) == ParamPoly(("d", "e"), power), (n, k)
            assert oracle.symmetrized_poly(row, k) == ParamPoly(("d", "e"), symmetrized), (n, k)


def test_the_symmetrized_reader_weighs_each_rank_once(monkeypatch):
    row, tops = oracle.rank_table(10)[10], []
    gbinom = oracle.gbinom

    def counted(top, k):
        tops.append(top)
        return gbinom(top, k)

    monkeypatch.setattr(oracle, "gbinom", counted)
    oracle.symmetrized_poly(row, 4)
    assert sorted(tops) == sorted({m + 1 for _, _, m in row.terms})


# -- marked Durfee symbols ------------------------------------------------

WEIGHT_43_SYMBOL = DurfeeSymbol(
    k=3,
    S=4,
    top=((4, 3), (3, 2), (3, 1), (2, 1), (1, 1)),
    bottom=((4, 3), (4, 3), (3, 2), (3, 1), (3, 1), (1, 1)),
    mu=(3, 2, 0),
    nu=(2, 1),
)


def test_weight_43_symbol_statistics():
    assert oracle.is_valid_durfee(WEIGHT_43_SYMBOL)
    assert WEIGHT_43_SYMBOL.weight() == 43
    assert WEIGHT_43_SYMBOL.stats() == (1, 2)
    assert WEIGHT_43_SYMBOL.ranks() == (-1, -1, -1)
    assert WEIGHT_43_SYMBOL.full_rank() == -6


def test_durfee_weight_zero_empty():
    assert oracle.enumerate_durfee(2, 0) == []


def test_durfee_k1_rejected():
    with pytest.raises(ValueError):
        oracle.enumerate_durfee(1, 3)


@pytest.mark.parametrize("k,n,filters", [(2, 11, ()), (3, 9, ()), (3, 14, (1, 2, (-1, -1, -1)))])
def test_durfee_rows_walk_the_given_sides_in_their_order(k, n, filters):
    rows = list(oracle._durfee_rows(k, n, *filters))
    order = [7, 1, 10, 3, 2]
    walked = list(oracle._durfee_rows(k, n, *filters, sides=order))
    assert walked == [row for S in order for row in rows if row[0] == S]
    assert list(oracle._durfee_rows(k, n, *filters, sides=())) == []


@pytest.mark.parametrize("k,n,ranks", [(1, 0, None), (1, 5, None), (3, 5, (0, 0))])
def test_durfee_rows_check_their_arguments_with_no_side_to_walk(k, n, ranks):
    with pytest.raises(ValueError):
        next(oracle._durfee_rows(k, n, ranks=ranks, sides=()))


def test_durfee_counts_match_moments():
    table = oracle.rank_table(8)
    for n in range(9):
        d2 = oracle.durfee_stats_poly(2, n)
        eta2 = oracle.symmetrized_poly(table[n], 2)
        assert d2.terms == eta2.terms


def test_durfee_duplicate_free():
    for n in range(7):
        syms = oracle.enumerate_durfee(2, n)
        assert len(syms) == len(set(syms))


def test_filtered_enumeration_matches_brute_force():
    for n in range(1, 8):
        full = oracle.enumerate_durfee(2, n)
        keys = {(x.stats(), x.ranks()) for x in full}
        for (r, s), rk in keys:
            expected = sorted(
                repr(x) for x in full if x.stats() == (r, s) and x.ranks() == rk)
            got = sorted(repr(x) for x in oracle.enumerate_durfee(2, n, r, s, rk))
            assert got == expected


def _brute_force_durfee(k, n):
    """Every decorated pair of marked rows of weight n that is a valid symbol."""
    out = []
    for S in range(1, n + 1):
        for mu in oracle._distinct_subsets(S, n - S):
            for nu in oracle._distinct_subsets(S, n - S - sum(mu)):
                budget = n - S - sum(mu) - sum(nu)
                for top in oracle._marked_rows(S, k, budget):
                    rest = budget - sum(v for v, _ in top)
                    for bottom in oracle._marked_rows(S, k, rest):
                        sym = DurfeeSymbol(k, S, top, bottom, mu, nu)
                        if sym.weight() == n and oracle.is_valid_durfee(sym):
                            out.append(sym)
    return out


@pytest.mark.parametrize("k,n_max", [(2, 7), (3, 7), (4, 6)])
def test_enumeration_matches_independent_reference(k, n_max):
    for n in range(n_max + 1):
        reference = _brute_force_durfee(k, n)
        assert sorted(map(repr, oracle.enumerate_durfee(k, n))) == sorted(map(repr, reference))
        keys = {x.stats() + (x.ranks(),) for x in reference}
        for r, s, rk in keys:
            expected = sorted(
                repr(x) for x in reference if x.stats() == (r, s) and x.ranks() == rk)
            got = sorted(repr(x) for x in oracle.enumerate_durfee(k, n, r, s, rk))
            assert got == expected


@pytest.mark.parametrize("v", [1, 2])
def test_listing_is_valid_and_counts_the_symmetrized_moments(v):
    # past the brute-force reference's weights, from the definition and the
    # moment identity D_{v+1}(r, s, n) = eta_{2v}(r, s, n) only
    table = oracle.rank_table(10)
    for n in range(11):
        syms = oracle.enumerate_durfee(v + 1, n)
        assert len(syms) == len(set(syms))
        assert all(oracle.is_valid_durfee(x) and x.weight() == n for x in syms)
        counts = Counter(x.stats() for x in syms)
        assert counts == oracle.symmetrized_poly(table[n], 2 * v).terms, n


def test_filtered_enumeration_beyond_cap_is_consistent():
    syms = oracle.enumerate_durfee(3, 14, 1, 2, (-1, -1, -1))
    assert syms
    for sym in syms:
        assert oracle.is_valid_durfee(sym)
        assert sym.weight() == 14
        assert sym.stats() == (1, 2)
        assert sym.ranks() == (-1, -1, -1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_durfee_tally_counts_the_listing(k):
    for n in range(9):
        listed = Counter(x.stats() + (x.ranks(),) for x in oracle.enumerate_durfee(k, n))
        assert oracle.durfee_rank_poly(k, n) == _listing.rank_poly(k, listed)


def test_filtered_enumeration_is_a_slice_of_the_listing():
    # past the brute-force reference's weights, where pruning cuts deeper
    for n in range(8, 13):
        slices = {}
        for x in oracle.enumerate_durfee(3, n):
            slices.setdefault(x.stats() + (x.ranks(),), []).append(repr(x))
        for (r, s, rk), expected in slices.items():
            got = sorted(map(repr, oracle.enumerate_durfee(3, n, r, s, rk)))
            assert got == sorted(expected)


@pytest.mark.parametrize("n,count", [(20, 2070), (26, 17111)])
def test_filtered_enumeration_counts(n, count):
    assert len(oracle.enumerate_durfee(3, n, 1, 2, (-1, -1, -1))) == count


def test_durfee_symbol_has_slots_and_keeps_its_repr():
    assert not hasattr(WEIGHT_43_SYMBOL, "__dict__")
    assert repr(WEIGHT_43_SYMBOL) == (
        "DurfeeSymbol(k=3, S=4, top=((4, 3), (3, 2), (3, 1), (2, 1), (1, 1)), "
        "bottom=((4, 3), (4, 3), (3, 2), (3, 1), (3, 1), (1, 1)), mu=(3, 2, 0), nu=(2, 1))")
    assert WEIGHT_43_SYMBOL == DurfeeSymbol(**{
        f: getattr(WEIGHT_43_SYMBOL, f) for f in ("k", "S", "top", "bottom", "mu", "nu")})


# -- counted tables against the listing ------------------------------------


def test_counted_pair_tables_equal_the_listing():
    assert _tallies(oracle.rank_table(12)) == _listing.rank_table(12)
    assert _tallies(oracle.spt_table(12)) == _listing.spt_table(12)


def test_the_rank_counts_without_r_and_s_are_the_full_table_summed_over_them():
    for n_max in (0, 1, 2, 30):
        summed = {n: Counter() for n in range(n_max + 1)}
        for n, row in oracle.rank_table(n_max).items():
            for (r, s, m), c in row.terms.items():
                summed[n][0, 0, m] += c
        assert _tallies(oracle.rank_table(n_max, stats=False)) == summed, n_max


def _pair_totals(n_max):
    """The q^0..q^n_max coefficients of prod_j (1 + q^j)^2 / (1 - q^j)^2, the
    overpartition pairs of each weight, by plain list convolutions."""
    def times(c, f):
        return [sum(c[i] * f[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
    c = [1] + [0] * n_max
    for j in range(1, n_max + 1):
        plus = [int(n in (0, j)) for n in range(n_max + 1)]
        geometric = [int(n % j == 0) for n in range(n_max + 1)]
        for f in (plus, plus, geometric, geometric):
            c = times(c, f)
    return c


def test_pair_totals_equal_the_product_expansion():
    totals = _pair_totals(40)
    assert totals[:4] == [1, 4, 12, 32]
    assert [_total(row) for row in oracle.rank_table(40).values()] == totals


def test_the_pair_tables_at_weights_0_and_1():
    # first component 1 or 1' at (0, 0, 0) and (1, 0, 0); second 1' or 1 at (0, 1, 0) and (1, 1, 0)
    one = {(0, 0, 0): 1, (0, 1, 0): 1, (1, 0, 0): 1, (1, 1, 0): 1}
    assert _tallies(oracle.rank_table(0)) == _tallies(oracle.rank_table(0, stats=False)) == {0: {(0, 0, 0): 1}}
    assert _tallies(oracle.rank_table(1)) == {0: {(0, 0, 0): 1}, 1: one}
    assert _tallies(oracle.rank_table(1, stats=False)) == {0: {(0, 0, 0): 1}, 1: {(0, 0, 0): 4}}
    assert _tallies(oracle.spt_table(0)) == {0: {}}
    assert _tallies(oracle.spt_table(1)) == {0: {}, 1: {(0, 0): 1}}


def test_each_row_of_the_pair_tables_is_a_canonical_int_poly():
    # counted straight into the poly's own keys: ints, den 1, every key in its slots
    rank = ("d", "e", "x")
    for table, params in ((oracle.rank_table(12), rank), (oracle.rank_table(12, stats=False), rank),
                          (oracle.spt_table(12), ("d", "e"))):
        for row in table.values():
            assert row.params == params and row.den == 1 and _props.canonical_poly(row)


def test_counted_decorations_equal_the_listed_ones():
    for S in range(1, 10):
        for room in range(16):
            listed = {room - budget: {rs: len(group) for rs, group in groups.items()}
                      for budget, groups in oracle._decorations(S, room, None, None).items()}
            assert oracle._decoration_counts(S, room) == listed, (S, room)


@pytest.mark.parametrize("k,n_max", [(2, 12), (3, 12), (4, 9)])
def test_every_durfee_fold_equals_the_listing(k, n_max):
    # the rank vector kept, its full rank, no rank, and its value at a point:
    # four folds of one walk against the tallies of the listed symbols
    point = (Fraction(-2), Fraction(1, 3), Fraction(3, 5), Fraction(7))[:k]
    (values,) = oracle.durfee_values(k, n_max, [point])
    for n in range(n_max + 1):
        listed = _listing.durfee_tally(k, n)
        full, stats, at_point = Counter(), Counter(), Counter()
        for (r, s, rho), c in listed.items():
            full[r, s, oracle.full_rank(rho)] += c
            stats[r, s] += c
            at_point[r, s] += c * math.prod(x ** e for x, e in zip(point, rho))
        assert oracle.durfee_rank_poly(k, n) == _listing.rank_poly(k, listed), n
        assert oracle.durfee_fullrank_poly(k, n) == ParamPoly(("d", "e", "x"), full), n
        assert oracle.durfee_stats_poly(k, n) == ParamPoly(("d", "e"), stats), n
        assert values[n] == ParamPoly(("d", "e"), at_point), n


@pytest.mark.parametrize("k,n_max", [(2, 12), (3, 12), (4, 9)])
def test_counted_durfee_pairs_equal_the_listing(monkeypatch, k, n_max):
    # with the empty decoration alone, the vector fold's symbols of weight n
    # have (r, s) = (S, S), and are the row pairs of side S and weight n - S
    listed = _listing.durfee_pairs(k, n_max)
    monkeypatch.setattr(oracle, "_decoration_counts", lambda S, room: {0: {(S, S): 1}})
    for n in range(n_max + 1):
        pairs = {(S, S, rho): c for (S, w, rho), c in listed.items() if S + w == n}
        assert oracle.durfee_rank_poly(k, n) == _listing.rank_poly(k, pairs), n


@pytest.mark.parametrize("k", [2, 3, 4])
def test_durfee_values_at_weight_zero_are_zero(k):
    points = [(1,) * k, (Fraction(-2),) * k]
    assert oracle.durfee_values(k, 0, points) == [[ParamPoly.zero(("d", "e"))]] * len(points)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_durfee_values_equal_the_symbolic_polys(k):
    F = Fraction
    n_max = 9
    ranked = [(F(-2), F(1, 3), F(-3, 5), F(1))[:k], (F(1), F(-1, 2), F(3), F(2, 7))[:k]]
    xs = (F(-2), F(1, 3), F(-3, 2))
    powered = [tuple(x ** (j + 1) for j in range(k)) for x in xs]
    values = oracle.durfee_values(k, n_max, ranked + powered + [(1,) * k])
    assert len(values) == len(ranked) + len(xs) + 1

    def series(poly):  # the symbolic polys of weights 0..n_max, as one series
        polys = [poly(k, n) for n in range(n_max + 1)]
        return QSeries(polys[0].params, n_max, dict(enumerate(polys)))

    ranked_polys, full_polys = series(oracle.durfee_rank_poly), series(oracle.durfee_fullrank_poly)
    wants = [ranked_polys.eval_param({f"x{j + 1}": x for j, x in enumerate(point)}) for point in ranked]
    wants += [full_polys.eval_param({"x": x}) for x in xs]
    for n in range(n_max + 1):
        for point, got, want in zip([*ranked, *xs], values, wants):
            assert got[n] == want.coefficient(n), (point, n)
        assert values[-1][n] == oracle.durfee_stats_poly(k, n), n
    assert all(len(got) == n_max + 1 for got in values)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_durfee_values_walk_once_for_all_their_points(monkeypatch, k):
    F = Fraction
    n_max = 9
    x = (F(-2), F(1, 3), F(3, 5), F(7))[:k]
    # repeated, +-1 and mutually reciprocal points in one list
    points = [x, (1,) * k, tuple(1 / c for c in x), (-1,) * k, x, (F(1), F(-1), F(-1), F(1))[:k]]
    singles = [oracle.durfee_values(k, n_max, [point])[0] for point in points]
    walk, calls = oracle._durfee_sums, []
    monkeypatch.setattr(oracle, "_durfee_sums", lambda *args: calls.append(args) or walk(*args))
    assert oracle.durfee_values(k, n_max, points) == singles
    assert len(calls) == 1
    assert oracle.durfee_values(k, n_max, []) == []


def test_a_join_that_sends_ranks_to_one_key_sums_their_counts():
    # ranks clipped at 0 join one key, each with its own factor: every count is the
    # sum of the vector fold's counts times factors that the clipping merges
    k, n_max = 3, 9
    vector = oracle._durfee_sums(k, n_max, lambda key, j, rho: [(key + (rho,), 1)])
    clipped = oracle._durfee_sums(k, n_max, lambda key, j, rho: [(key + (max(rho, 0),), 1 + rho * rho)])
    for n in range(n_max + 1):
        want = Counter()
        for (r, s, *rho), c in vector[n].items():
            want[(r, s) + tuple(max(e, 0) for e in rho)] += c * math.prod(1 + e * e for e in rho)
        assert clipped[n] == want, n
    assert any(len(vector[n]) > len(clipped[n]) for n in range(n_max + 1))


def test_durfee_values_reject_a_zero_or_a_short_point():
    with pytest.raises(ValueError, match="nonzero"):
        oracle.durfee_values(2, 3, [(1, 0)])
    with pytest.raises(ValueError, match="2 coordinates"):
        oracle.durfee_values(2, 3, [(1, 2, 3)])
    for bad in (0.1, "1/2"):  # refused, as the sum side refuses them
        with pytest.raises(TypeError, match="expected int or Fraction"):
            oracle.durfee_values(2, 5, [(bad, 2)])
