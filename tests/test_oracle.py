from fractions import Fraction

import pytest

from qpairs import oracle
from qpairs.oracle import DurfeeSymbol


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
    table = oracle.rank_table(8)
    for n, tally in table.items():
        for (r, s, m), c in tally.items():
            assert tally.get((r, s, -m), 0) == c


# -- smallest parts -------------------------------------------------------


def test_spt_totals():
    table = oracle.spt_table(2)
    assert sum(table[1].values()) == 1
    assert sum(table[2].values()) == 3


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
    spt = oracle.spt_table(6)
    ranks = oracle.rank_table(6)
    for n in range(1, 7):
        total_pairs = sum(ranks[n].values())
        assert sum(spt[n].values()) * 4 == total_pairs


# -- moments --------------------------------------------------------------


def test_gbinom_negative_top():
    assert oracle.gbinom(-1, 2) == 1
    assert oracle.gbinom(2, 2) == 1
    assert oracle.gbinom(0, 3) == 0


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


def test_filtered_enumeration_beyond_cap_is_consistent():
    syms = oracle.enumerate_durfee(3, 14, 1, 2, (-1, -1, -1))
    assert syms
    for sym in syms:
        assert oracle.is_valid_durfee(sym)
        assert sym.weight() == 14
        assert sym.stats() == (1, 2)
        assert sym.ranks() == (-1, -1, -1)
