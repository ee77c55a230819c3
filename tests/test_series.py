import json
import random
from fractions import Fraction

import pytest

import _props
from qpairs import AlgebraError, ParamPoly, QSeries, TruncationError
from qpairs import builders
from test_order_contract import IDS


def poly(params, exps, c=1):
    return ParamPoly.monomial(tuple(params), exps, c)


# -- construction ---------------------------------------------------------


def test_from_terms_literal():
    s = QSeries.from_terms((), [(0, 1), (1, -24)], 3)
    assert s.valuation == 0
    assert s.order == 3
    assert s.coefficient(2).constant_value() == 0
    assert s.coefficient(1).constant_value() == -24


def test_from_terms_zero_sentinel():
    s = QSeries.from_terms((), [], 5)
    assert s.is_zero()
    assert s.valuation == 6


def test_from_terms_laurent():
    s = QSeries.from_terms((), [(-1, 1)], 2)
    assert s.valuation == -1
    assert s.coefficient(-1).constant_value() == 1


def test_from_terms_duplicate_rejected():
    with pytest.raises(AlgebraError):
        QSeries.from_terms((), [(0, 1), (0, 2)], 3)


def test_from_terms_exponent_above_order_rejected():
    with pytest.raises(AlgebraError):
        QSeries.from_terms((), [(4, 1)], 3)


# -- addition -------------------------------------------------------------


def test_add_cancellation():
    a = QSeries.from_terms((), [(0, 1), (1, 1)], 4)
    b = QSeries.from_terms((), [(0, 1), (1, -1)], 4)
    s = a + b
    assert s.coefficient(0).constant_value() == 2
    assert s.coefficient(1).constant_value() == 0


def test_add_zero_identity():
    a = QSeries.from_terms((), [(2, 5)], 4)
    assert (a + QSeries.zero((), 4)).coefficient(2).constant_value() == 5


def test_add_laurent_valuation_update():
    a = QSeries.from_terms((), [(-1, 1)], 3)
    b = QSeries.from_terms((), [(-1, -1), (0, 1)], 3)
    s = a + b
    assert s.valuation == 0
    assert s.coefficient(0).constant_value() == 1


# -- multiplication -------------------------------------------------------


def test_mul_telescoping_truncated():
    a = QSeries.from_terms((), [(0, 1), (1, -1)], 3)
    b = QSeries.from_terms((), [(0, 1), (1, 1), (2, 1), (3, 1)], 3)
    s = a * b
    assert s.order == 3
    for n in range(4):
        assert s.coefficient(n).constant_value() == (1 if n == 0 else 0)


def test_mul_valuation_arithmetic():
    a = QSeries.from_terms((), [(-1, 1)], 2)
    b = QSeries.from_terms((), [(1, 1)], 2)
    s = a * b
    assert s.coefficient(0).constant_value() == 1


def test_mul_parameter_product():
    p = ("d", "e")
    a = QSeries.from_terms(p, [(0, 1), (1, poly(p, {"d": 1}))], 2)
    b = QSeries.from_terms(p, [(0, 1), (1, poly(p, {"e": 1}))], 2)
    s = a * b
    assert s.coefficient(1).terms == {(1, 0): 1, (0, 1): 1}
    assert s.coefficient(2).terms == {(1, 1): 1}


# -- inversion ------------------------------------------------------------


def test_invert_geometric():
    a = QSeries.from_terms((), [(0, 1), (1, -1)], 4)
    inv = a.invert()
    for n in range(5):
        assert inv.coefficient(n).constant_value() == 1


def test_invert_pure_power():
    a = QSeries.from_terms((), [(2, 1)], 4)
    assert a.invert().valuation == -2


def test_invert_non_unit_leading_rejected():
    p = ("x",)
    lead = ParamPoly.const(p, 1) - ParamPoly.var(p, "x")
    a = QSeries.from_terms(p, [(0, lead)], 4)
    with pytest.raises(AlgebraError, match="evaluate parameters first"):
        a.invert()


def test_invert_zero_rejected():
    with pytest.raises(AlgebraError):
        QSeries.zero((), 3).invert()


# -- substitutions --------------------------------------------------------


def test_substitute_param_negative_exponent():
    # (1 + e*Q) in base Q = q^2, e -> 1/q gives 1 + q
    p = ("e",)
    s = QSeries.from_terms(p, [(0, 1), (2, poly(p, {"e": 1}))], 4)
    s = s.with_bounds({"e": Fraction(1, 2)})
    t = s.substitute_param({"e": (1, -1)})
    assert t.params == ()
    assert t.coefficient(1).terms == {(): 1}


def test_substitute_param_requires_bound():
    p = ("e",)
    s = QSeries.from_terms(p, [(0, 1), (2, poly(p, {"e": 1}))], 4)
    with pytest.raises(AlgebraError):
        s.substitute_param({"e": (1, -1)})


def test_substitute_param_positive_power_requires_bound():
    # rank_gf is Laurent in x: x^-k terms above the window would land inside it
    with pytest.raises(AlgebraError, match="degree bound for x"):
        builders.rank_gf(3, base=2).substitute_param({"x": (1, 2)})


def test_substitute_param_bound_violation_rejected():
    # e^2 against deg_e <= n/2 at n=2: declaring the bound must fail
    p = ("e",)
    s = QSeries.from_terms(p, [(0, 1), (2, poly(p, {"e": 2}))], 4)
    with pytest.raises(AlgebraError):
        s.with_bounds({"e": Fraction(1, 2)})


def test_rank_specialization_constant_term():
    s = builders.rank_gf(8, base=2).substitute_param({"e": (1, -1)})
    s = s.eval_param({"d": 1})
    assert s.params == ("x",)
    assert s.eval_param({"x": 2}).coefficient(0).constant_value() == 1


# -- parameter evaluation and derivatives ---------------------------------


def test_eval_param():
    p = ("d", "e")
    s = QSeries.from_terms(p, [(0, 1), (1, poly(p, {"d": 1}) + poly(p, {"e": 1}))], 3)
    t = s.eval_param({"d": 1})
    assert t.params == ("e",)
    assert t.coefficient(1).terms == {(0,): 1, (1,): 1}


def test_eval_param_pole_at_zero():
    p = ("d",)
    s = QSeries.from_terms(p, [(0, poly(p, {"d": -1}))], 3)
    with pytest.raises(AlgebraError, match="pole"):
        s.eval_param({"d": 0})


def test_eval_at_negative_power_is_exact():
    s = QSeries(("x",), 0, {0: ParamPoly.var(("x",), "x", -3)}).eval_param({"x": Fraction(1, 2)})
    assert s.params == ()
    assert s.coefficient(0).terms == {(): 8}
    assert all(not isinstance(c, float) for c in s.coefficient(0).terms.values())


def test_eval_param_kills_factor():
    p = ("x",)
    fac = ParamPoly.const(p, 1) - ParamPoly.var(p, "x")
    s = QSeries.from_terms(p, [(0, fac), (1, fac)], 3)
    assert s.eval_param({"x": 1}).is_zero()


def test_delta_q():
    s = QSeries.from_terms((), [(3, 1)], 5)
    assert s.delta_q().coefficient(3).constant_value() == 3
    assert QSeries.one((), 5).delta_q().is_zero()


def test_delta_q_of_euler_product():
    qinf = builders.q_inf(10)
    lhs = qinf.delta_q()
    rhs = -(builders.phi1(1, 10) * qinf)
    ok, report = lhs.equal_to_order(rhs, 10)
    assert ok, report
    assert lhs.coefficient(1).constant_value() == -1
    assert lhs.coefficient(2).constant_value() == -2


def test_d_dparam():
    p = ("x",)
    s = QSeries.from_terms(p, [(1, poly(p, {"x": 2}))], 3)
    assert s.d_dparam("x").coefficient(1).terms == {(1,): 2}


# -- access and comparison ------------------------------------------------


def test_coefficient_pentagonal():
    assert builders.q_inf(7).coefficient(5).constant_value() == 1
    assert builders.q_inf(7).coefficient(7).constant_value() == 1


def test_coefficient_outside_window():
    s = QSeries.from_terms((), [(0, 1)], 3)
    with pytest.raises(TruncationError):
        s.coefficient(4)


def test_equal_to_order_self():
    s = builders.q_inf(6)
    ok, report = s.equal_to_order(s, 6)
    assert ok and report is None


def test_equal_to_order_first_mismatch():
    a = QSeries.from_terms((), [(0, 1), (1, 1)], 5)
    b = QSeries.from_terms((), [(0, 1), (1, -1)], 5)
    ok, report = a.equal_to_order(b, 5)
    assert not ok
    assert report[0] == 1


# -- serialization --------------------------------------------------------


def test_json_round_trip_bit_exact():
    s = builders.rank_gf(5)
    t = QSeries.from_json(s.to_json())
    assert t.params == s.params
    assert t.order == s.order
    assert t.coeffs == s.coeffs
    assert t.to_json() == s.to_json()


def test_json_shape():
    s = QSeries.from_terms((), [(1, Fraction(-1, 2))], 2)
    obj = json.loads(s.to_json())
    assert obj["valuation"] == 1
    assert obj["order"] == 2
    assert obj["coeffs"]["1"] == [[[], "-1/2"]]


def reference_json(s):
    """The text of the series object, through json.dumps."""
    obj = {"params": list(s.params), "valuation": s.valuation, "order": s.order,
           "coeffs": {str(n): c.to_obj() for n, c in s.coeffs.items()}}
    if s.bounds:
        obj["bounds"] = {p: f"{b.numerator}/{b.denominator}" for p, b in s.bounds.items()}
    return json.dumps(obj, indent=2, sort_keys=True)


def bounded_series(rng, params):
    """A series with nonnegative exponents, its q^0 coefficient a constant, and a true
    degree bound declared for some of its parameters."""
    order = rng.randint(0, 7)
    terms = [(0, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))]
    terms += [(n, _props.random_poly(rng, params, exp_range=(0, 2))) for n in range(1, order + 1)]
    s = QSeries.from_terms(params, terms, order)
    slopes = {p: max([Fraction(c.degree(p), n) for n, c in s.coeffs.items() if n], default=Fraction(0))
              + Fraction(rng.randint(0, 2), rng.randint(1, 3)) for p in params if rng.random() < 0.7}
    return s.with_bounds(slopes)


def test_writer_matches_json_dumps_on_random_series():
    rng = random.Random(1808)
    seen = dict.fromkeys(("zero", "negative valuation", "fraction", "bounds", "unicode name"), 0)
    for params in ((), ("d",), ("d", "e"), ("d", "e", "x"), ("é", 'a"b', "x")):
        for _ in range(150):
            for s in (_props.random_series(rng, params), bounded_series(rng, params)):
                seen["zero"] += s.is_zero()
                seen["negative valuation"] += s.valuation < 0
                seen["fraction"] += any(type(c) is Fraction for p in s.coeffs.values() for c in p.terms.values())
                seen["bounds"] += bool(s.bounds)
                seen["unicode name"] += "é" in s.params
                assert s.to_json() == reference_json(s), s
    assert min(seen.values()) >= 20, seen


def test_writer_matches_json_dumps_on_builds():
    mixed = 0  # builds whose exponent keys sort differently as text ("10" < "2") and as numbers
    for spec in IDS:
        s = builders.build(spec, 12)
        mixed += min(s.coeffs) < 10 <= max(s.coeffs)
        assert s.to_json() == reference_json(s), spec
    assert mixed >= 25


def test_json_bounds_are_checked_on_load():
    # deg_e of the coeff of q^2 is 2 > 1/2 * 2: the declared bound is false
    text = ('{"params":["e"],"order":4,"coeffs":{"0":[[[0],"1/1"]],"2":[[[2],"1/1"]]},'
            '"bounds":{"e":"1/2"}}')
    with pytest.raises(AlgebraError, match="bound violated"):
        QSeries.from_json(text)


def test_the_first_bound_violation_is_the_one_raised():
    # names in declared order, then coefficients in stored order, a negative exponent before a
    # degree past the slope; q^1 breaks the slope in d and has a negative e, q^2 the other way
    P = ("d", "e", "x")
    s = QSeries(P, 4, {1: ParamPoly(P, {(3, -1, 0): 1}), 2: ParamPoly(P, {(-1, 5, 0): 2, (0, 0, 1): 1})})
    both = QSeries(P, 4, {1: ParamPoly(P, {(3, 0, 0): 1, (-1, 2, 0): 1})})  # both rules for d at q^1
    for series, bounds, text in [
        (s, {"d": 1, "e": 1}, "bound violated: deg_d of coeff of q^1 is 3 > 1*1"),
        (s, {"e": 1, "d": 1}, "bound violated: negative e-exponent in coeff of q^1"),
        (s, {"d": 3, "e": 1}, "bound violated: negative d-exponent in coeff of q^2"),
        (s, {"e": Fraction(1, 2), "x": 1}, "bound violated: negative e-exponent in coeff of q^1"),
        (s, {"x": Fraction(1, 4), "d": 1}, "bound violated: deg_x of coeff of q^2 is 1 > 1/4*2"),
        (s, {"d": 1, "z": 1}, "bound violated: deg_d of coeff of q^1 is 3 > 1*1"),
        (s, {"z": 1, "d": 1}, "degree bound for 'z', which is not a parameter of ('d', 'e', 'x')"),
        (s, {"x": 0, "e": -1}, "bound violated: deg_x of coeff of q^2 is 1 > 0*2"),
        (both, {"d": 1, "e": 1}, "bound violated: negative d-exponent in coeff of q^1"),
        (both, {"e": 1, "d": 1}, "bound violated: deg_e of coeff of q^1 is 2 > 1*1"),
    ]:
        with pytest.raises(AlgebraError) as raised:
            series.with_bounds(bounds)
        assert str(raised.value) == text, bounds


def test_negative_bound_slope_rejected():
    # a slope below 0 would certify 1 + O(q^12) under e -> q^-3 from data known to q^2
    text = '{"params":["e"],"order":2,"coeffs":{"0":[[[0],"1/1"]]},"bounds":{"e":"-1"}}'
    with pytest.raises(AlgebraError, match="negative slope"):
        QSeries.from_json(text)
    with pytest.raises(AlgebraError, match="negative slope"):
        QSeries.one(("e",), 2).with_bounds({"e": -1})


def test_bound_for_a_name_that_is_not_a_parameter_rejected():
    text = '{"params":["e"],"order":2,"coeffs":{"0":[[[0],"1/1"]]},"bounds":{"z":"1"}}'
    with pytest.raises(AlgebraError, match="'z'"):
        QSeries.from_json(text)
    with pytest.raises(AlgebraError, match="'z'"):
        QSeries.zero(("e",), 3).with_bounds({"z": 1})


def test_json_without_params_rejected():
    with pytest.raises(AlgebraError, match="'params'"):
        QSeries.from_json('{"order":2,"coeffs":{"0":[[[],"1/1"]]}}')


def test_json_exponent_key_that_is_not_an_integer_rejected():
    with pytest.raises(AlgebraError, match="exponent key 'a'"):
        QSeries.from_json('{"params":["e"],"order":2,"coeffs":{"a":[[[0],"1/1"]]}}')


def test_json_coefficient_with_zero_denominator_rejected():
    with pytest.raises(AlgebraError, match="'1/0'"):
        QSeries.from_json('{"params":["e"],"order":2,"coeffs":{"0":[[[0],"1/0"]]}}')


def test_json_term_above_the_order_rejected():
    # it loaded as 0 + O(q^3), the term dropped without a word
    with pytest.raises(AlgebraError, match="q\\^5 lies above the order 2"):
        QSeries.from_json('{"params":["e"],"order":2,"coeffs":{"5":[[[0],"1/1"]]}}')


# a name that is not a parameter raised a bare ValueError from tuple.index,
# and on the zero series nothing: eval_param gave back 0 + O(q^4)
UNKNOWN = "unknown parameter 'z'"
NAMED = (QSeries.one(("e",), 3), QSeries.zero(("e",), 3))


@pytest.mark.parametrize("s", NAMED, ids=["one", "zero"])
def test_eval_param_of_a_name_that_is_not_a_parameter_rejected(s):
    with pytest.raises(AlgebraError, match=UNKNOWN):
        s.eval_param({"z": 1})


@pytest.mark.parametrize("s", NAMED, ids=["one", "zero"])
@pytest.mark.parametrize("qexp", [0, 1])
def test_substitute_param_of_a_name_that_is_not_a_parameter_rejected(s, qexp):
    with pytest.raises(AlgebraError, match=UNKNOWN):
        s.substitute_param({"z": (1, qexp)})


@pytest.mark.parametrize("s", NAMED, ids=["one", "zero"])
def test_d_dparam_in_a_name_that_is_not_a_parameter_rejected(s):
    with pytest.raises(AlgebraError, match=UNKNOWN):
        s.d_dparam("z")
