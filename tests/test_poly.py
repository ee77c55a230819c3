from fractions import Fraction

import pytest

from qpairs import AlgebraError, ParamPoly, oracle, poly


P = ("d", "e")


def test_zero_and_const():
    z = ParamPoly.zero(P)
    assert not z.terms
    c = ParamPoly.const(P, Fraction(3, 2))
    assert c.constant_value() == Fraction(3, 2)


def test_no_stored_zero_coefficients():
    a = ParamPoly.var(P, "d")
    assert not (a - a).terms


def test_laurent_exponents():
    a = ParamPoly.monomial(P, {"d": -1})
    b = ParamPoly.var(P, "d")
    assert (a * b).constant_value() == 1


def test_product_and_power():
    a = ParamPoly.var(P, "d") + 1
    b = ParamPoly.var(P, "e") + 1
    prod = a * b
    assert prod.terms[(1, 1)] == 1
    assert prod.terms[(0, 0)] == 1
    sq = a * a
    assert sq.terms[(2, 0)] == 1
    assert sq.terms[(1, 0)] == 2


def test_derivative():
    a = ParamPoly.monomial(P, {"d": 2}, 1)
    da = a.derivative("d")
    assert da.terms[(1, 0)] == 2


def test_constant_value_rejects_parameters():
    with pytest.raises(AlgebraError):
        ParamPoly.var(P, "d").constant_value()


def test_serialization_round_trip():
    a = ParamPoly.monomial(P, {"d": -1, "e": 2}, Fraction(-7, 3)) + 1
    back = ParamPoly.from_obj(P, a.to_obj())
    assert back.terms == a.terms


def test_sorted_terms_deterministic():
    a = ParamPoly.var(P, "e") + ParamPoly.var(P, "d")
    assert a.sorted_terms() == sorted(a.terms.items())


def test_terms_items_and_values_decode_each_key_once(monkeypatch):
    polys = [*oracle.rank_table(12).values(),
             ParamPoly(P, {(1, -2): Fraction(1, 3), (0, 0): 2, (-1, 5): Fraction(-7, 2)})]
    want = [dict(p.sorted_terms()) for p in polys]

    def lookup(self, vec):
        raise AssertionError(f"{vec} looked up through __getitem__")
    monkeypatch.setattr(poly._Terms, "__getitem__", lookup)
    for p, terms in zip(polys, want):
        assert dict(p.terms.items()) == terms
        assert sorted(p.terms.values()) == sorted(terms.values())
        assert {v: type(c) for v, c in p.terms.items()} == {v: type(c) for v, c in terms.items()}


def test_terms_lookup_packs_the_one_vector(monkeypatch):
    polys = [*oracle.rank_table(12).values(),
             ParamPoly(P, {(1, -2): Fraction(1, 3), (0, 0): 2, (-1, 5): Fraction(-7, 2)})]

    def pack(arity, terms):
        raise AssertionError(f"{dict(terms)} packed through _pack")
    monkeypatch.setattr(poly, "_pack", pack)
    for p in polys:
        assert dict(p.terms) == dict(p.sorted_terms())
    p = polys[-1]
    assert (1, -2) in p.terms and p.terms[[1, -2]] == Fraction(1, 3)
    # (0, 2^32 - 2) would carry into the first slot and alias (1, -2)'s key
    for vec in [(1,), (1, -2, 0), (), (0, (1 << 32) - 2), (poly.EXP_LIMIT + 1, 0), (2, 2), (1, "x"), 5]:
        assert vec not in p.terms
        with pytest.raises(KeyError):
            p.terms[vec]


def test_integral_coefficients_are_stored_as_int():
    p = ParamPoly.const(P, Fraction(6, 2)) + ParamPoly.var(P, "d") * Fraction(1, 2)
    assert {vec: type(c) for vec, c in p.terms.items()} == {(0, 0): int, (1, 0): Fraction}
    assert type((p * 2).terms[(1, 0)]) is int


def test_constant_value_is_a_fraction():
    assert type(ParamPoly.const(P, 3).constant_value()) is Fraction
    assert type(ParamPoly.zero(P).constant_value()) is Fraction


def test_to_obj_writes_integers_as_fractions():
    assert ParamPoly.const(P, 3).to_obj() == [[[0, 0], "3/1"]]


# a name that is not a parameter raised a bare ValueError from tuple.index
UNKNOWN = "unknown parameter 'z'"


def test_degree_of_a_name_that_is_not_a_parameter_rejected():
    with pytest.raises(AlgebraError, match=UNKNOWN):
        ParamPoly.zero(P).degree("z")


def test_min_degree_of_a_name_that_is_not_a_parameter_rejected():
    with pytest.raises(AlgebraError, match=UNKNOWN):
        ParamPoly.var(P, "d").min_degree("z")


def test_derivative_in_a_name_that_is_not_a_parameter_rejected():
    with pytest.raises(AlgebraError, match=UNKNOWN):
        ParamPoly.var(P, "e").derivative("z")
