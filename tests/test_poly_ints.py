"""``ParamPoly``'s integer form against a tuple-keyed Fraction reference written here.

A poly stores int numerators under packed exponent keys over one
denominator.  Each ring operation and reader is compared with the same
operation on a plain ``{exponent tuple: Fraction}`` map, over arities 0-5,
with negative exponents and rational coefficients, and every result must be
in lowest integer form (``_props.canonical_poly``).  The slot range
``|e| <= 2^(S-2)`` is checked at its edge: the edge round-trips, one past it
raises AlgebraError when packed, and a derived bound past it raises before
any key is formed.
"""

import json
import math
import random
from fractions import Fraction

import pytest

import _props
from qpairs import AlgebraError, ParamPoly, QSeries, poly

F = Fraction
NAMES = ("d", "e", "x", "x1", "x2")
EDGE = 1 << 30


def ref_poly(rng: random.Random, arity: int) -> dict:
    """A reference term map: a few terms, exponents in -3..3, coefficients with small denominators."""
    terms = {}
    for _ in range(rng.randint(0, 4)):
        vec = tuple(rng.randint(-3, 3) for _ in range(arity))
        terms[vec] = terms.get(vec, 0) + F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 6]))
    return {v: c for v, c in terms.items() if c}


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for v, c in b.items():
        out[v] = out.get(v, 0) + c
    return {v: c for v, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            w = tuple(i + j for i, j in zip(u, v))
            out[w] = out.get(w, 0) + x * y
    return {v: c for v, c in out.items() if c}


def plain(terms: dict) -> dict:
    """Each value an int when integral, else a Fraction, as the ``terms`` view gives it."""
    return {v: c.numerator if c.denominator == 1 else c for v, c in terms.items()}


def test_operations_match_the_tuple_keyed_reference():
    rng = random.Random(20261030)
    seen = {"arity": set(), "negative": 0, "rational": 0, "cancel": 0, "equal": 0}
    for _ in range(400):
        arity = rng.randint(0, 5)
        params = NAMES[:arity]
        ra, rb = ref_poly(rng, arity), ref_poly(rng, arity)
        if rng.random() < 0.15:  # b cancels a's terms in a - b
            rb = dict(ra)
        a, b = ParamPoly(params, ra), ParamPoly(params, rb)
        k = rng.choice([0, 1, -2, 3, F(2, 3), F(-5, 4)])
        for got, want in ((a, ra), (b, rb), (a + b, ref_add(ra, rb)),
                          (a - b, ref_add(ra, {v: -c for v, c in rb.items()})), (-a, {v: -c for v, c in ra.items()}),
                          (a * b, ref_mul(ra, rb)), (a * k, {v: c * k for v, c in ra.items() if c * k}),
                          (k * b, {v: c * k for v, c in rb.items() if c * k}), (a + k, ref_add(ra, {(0,) * arity: F(k)}))):
            assert _props.canonical_poly(got)
            assert dict(got.terms) == plain(want) and len(got.terms) == len(want)
            assert got.sorted_terms() == sorted(plain(want).items())
            assert got.to_obj() == [[list(v), f"{c.numerator}/{c.denominator}"] for v, c in sorted(want.items())]
            assert ParamPoly.from_obj(params, got.to_obj()) == got
            for i, name in enumerate(params):
                assert got.degree(name) == max((v[i] for v in want), default=0)
                assert got.min_degree(name) == min((v[i] for v in want), default=0)
            seen["negative"] += any(e < 0 for v in want for e in v)
            seen["rational"] += any(c.denominator > 1 for c in want.values())
        assert (a == b) == (ra == rb) and (a - b).is_zero() == (ra == rb)
        if ra == rb:
            assert hash(a) == hash(b)
            seen["equal"] += 1
        seen["cancel"] += bool(ra) and not ref_add(ra, {v: -c for v, c in rb.items()})
        seen["arity"].add(arity)
    assert seen["arity"] == set(range(6)) and all(seen.values()), seen


def test_the_denominator_is_the_lcm_in_lowest_terms():
    p = ParamPoly(("d", "e"), {(1, 0): F(1, 6), (0, 1): F(-3, 4), (0, 0): 2})
    assert p.den == 12 and sorted(p.num.values()) == [-9, 2, 24]
    # 1/2 + 1/2 is 1: the sum's gcd comes out and its denominator is 1
    half = ParamPoly.const(("d",), F(1, 2))
    assert (half + half).den == 1 and (half + half).terms == {(0,): 1}
    assert (half * 2) == 1 and (half * 0).den == 1 and (half - half).den == 1
    assert ParamPoly.zero(("d",)).den == 1 and not ParamPoly.zero(("d",)).num


def test_keys_sort_as_vectors_and_a_product_adds_keys():
    params = ("d", "e", "x")
    vecs = [(a, b, c) for a in (-2, 0, 1) for b in (-1, 3) for c in (-EDGE, 0, EDGE)]
    def key(vec):
        return poly._pack(3, {vec: 1})[0].popitem()[0]

    assert sorted(vecs) == sorted(vecs, key=key)
    zero = poly._layout(3)[0]
    assert key((0, -1, -EDGE)) + key((1, 3, EDGE)) - zero == key((1, 2, 0)) and poly._unpack(zero, 3) == (0, 0, 0)
    assert (ParamPoly.var(params, "x", EDGE // 2) * ParamPoly.var(params, "x", EDGE // 2)).terms == {(0, 0, EDGE): 1}


@pytest.mark.parametrize("e", [EDGE, -EDGE, EDGE - 1, 1 - EDGE])
def test_exponents_at_the_edge_of_the_slot_range_round_trip(e):
    assert poly.EXP_LIMIT == EDGE == 1 << (poly.SLOT_BITS - 2)
    params = ("d", "e", "x")
    for vec in ((e, 0, 0), (0, e, 0), (0, 0, e), (e, -e, e)):
        p = ParamPoly(params, {vec: F(-7, 3), (0, 0, 0): 1})
        assert _props.canonical_poly(p)
        assert p.terms == {vec: F(-7, 3), (0, 0, 0): 1}
        assert p.sorted_terms() == sorted([(vec, F(-7, 3)), ((0, 0, 0), 1)])
        assert ParamPoly.from_obj(params, p.to_obj()) == p
        s = QSeries(params, 2, {1: p})
        assert QSeries.from_json(s.to_json()) == s
        for name, x in zip(params, vec):
            assert (p.degree(name), p.min_degree(name)) == (max(x, 0), min(x, 0))


@pytest.mark.parametrize("e", [EDGE + 1, -EDGE - 1, 1 << 40])
def test_one_past_the_slot_range_is_rejected_when_packed(e):
    with pytest.raises(AlgebraError, match=f"exponent {e} lies outside the slot range"):
        ParamPoly(("d", "e"), {(0, e): 1})
    with pytest.raises(AlgebraError, match=f"exponent {e} lies outside the slot range"):
        ParamPoly.monomial(("x",), {"x": e})
    text = json.dumps({"params": ["d"], "order": 1, "coeffs": {"0": [[[e], "1/1"]]}})
    with pytest.raises(AlgebraError, match=f"exponent {e} lies outside the slot range"):
        QSeries.from_json(text)


def test_derived_bounds_past_the_slot_range_raise_before_any_key_is_formed(monkeypatch):
    params = ("d", "e")
    half = ParamPoly.var(params, "e", EDGE // 2)
    assert (half * half).terms == {(0, EDGE): 1}
    with pytest.raises(AlgebraError, match="a product could hold the exponent"):
        half * half * ParamPoly.var(params, "d")  # reach 2^30 + 1, though no exponent of d reaches it
    with pytest.raises(AlgebraError, match="a derivative could hold the exponent"):
        ParamPoly.var(params, "d", -EDGE).derivative("d")
    s = QSeries(params, 4, {0: 1, 1: half})
    with pytest.raises(AlgebraError, match="a product could hold the exponent"):
        s * s * s
    with pytest.raises(AlgebraError, match="an inverse could hold the exponent"):
        s.invert()
    # (1 - d^(2^28) q)^-1 to q^4 stacks four steps: d^(2^30) q^4 is the top term, and one more
    # step of the window is past the range
    geo = QSeries.one(params, 4).mul_one_minus([(1, 1, {"d": EDGE // 4}, -1)])
    assert geo.coefficient(4).terms == {(EDGE, 0): 1} and _props.canonical(geo)
    with pytest.raises(AlgebraError, match=r"a \(1 - m\)\^power chain could hold the exponent"):
        QSeries.one(params, 5).mul_one_minus([(1, 1, {"d": EDGE // 4}, -1)])
    # the bound is the sum over the whole chain, also when a factor before the last passes the range
    with pytest.raises(AlgebraError, match=f"chain could hold the exponent {4 * EDGE + 4},"):
        QSeries.one(params, 4).mul_one_minus([(1, 1, {"d": EDGE}, -1), (1, 1, {"e": 1}, -1)])
    with pytest.raises(AlgebraError, match=f"chain could hold the exponent {3 * (EDGE // 2) + 6},"):
        QSeries.one(params, 3).mul_one_minus([(Fraction(1, 2), 0, {"d": EDGE // 2}, 3), (1, 1, {"e": 3}, 2)])
    with pytest.raises(AlgebraError, match="a weighted series could hold the exponent"):
        QSeries(params, 2, {1: ParamPoly.var(params, "e", EDGE)}).eval_weighted("e", None, lambda a, n: {1: 1})
    # (1 - d/2)^(2^30 + 1) has a row of 2^30 + 2 binomial terms; the chain raises before forming one
    def comb(n, k):
        raise AssertionError(f"the row of (1 - d/2)^{n} is being built")

    monkeypatch.setattr(math, "comb", comb)
    with pytest.raises(AlgebraError, match=f"chain could hold the exponent {EDGE + 1},"):
        QSeries.one(params, 2).mul_one_minus([(Fraction(1, 2), 0, {"d": 1}, EDGE + 1)])
    # nor its 1/2^(2^30 + 1), the 1/b^e that would join the chain's scalar: a 1/2 whose
    # denominator refuses a power
    class Base(int):
        def __pow__(self, e, mod=None):
            raise AssertionError(f"{int(self)}^{e} is being formed")

    class Half(Fraction):
        denominator = property(lambda self: Base(2))

    with pytest.raises(AlgebraError, match=f"chain could hold the exponent {EDGE + 1},"):
        QSeries.one(params, 2).mul_one_minus([(Half(1, 2), 0, {"d": 1}, EDGE + 1)])
