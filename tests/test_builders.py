from fractions import Fraction

import pytest

from qpairs import AlgebraError, ParamPoly, QSeries
from qpairs import builders as B
from qpairs.builders import Monomial


F = Fraction


def const(s, n):
    return s.coefficient(n).constant_value()


# -- shifted factorials ---------------------------------------------------


def test_q_inf_pentagonal_numbers():
    s = B.q_inf(7)
    assert [const(s, n) for n in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]


def test_pochhammer_length_zero():
    s = B.pochhammer(("d",), Monomial(F(1), 1, (("d", 1),)), 0, 5)
    assert s.coefficient(0).constant_value() == 1
    assert all(s.coefficient(n).terms == {} for n in range(1, 6))


def test_pochhammer_two_factors():
    # (-dq; q)_2 = 1 + dq + dq^2 + d^2 q^3
    s = B.pochhammer(("d",), Monomial(F(-1), 1, (("d", 1),)), 2, 4)
    assert s.coefficient(1).terms == {(1,): 1}
    assert s.coefficient(2).terms == {(1,): 1}
    assert s.coefficient(3).terms == {(2,): 1}
    assert s.coefficient(4).terms == {}


def test_pochhammer_negative_length_reciprocal():
    # (a)_{-n} (q/a)_n a^n (-1)^n q^{-n(n+1)/2} = 1
    a = Monomial(F(2))
    n = 3
    lhs = B.pochhammer((), a, -n, 8)
    rhs = B.pochhammer((), Monomial(F(1, 2), 1), n, 8)
    prod = lhs * rhs * QSeries.monomial((), 8, F(2) ** n * (-1) ** n, -n * (n + 1) // 2)
    ok, report = prod.equal_to_order(QSeries.one((), prod.order), prod.order)
    assert ok, report


def test_pochhammer_negative_length_symbolic_rejected():
    with pytest.raises(AlgebraError, match="rational-point"):
        B.pochhammer(("d",), Monomial(F(-1), 1, (("d", 1),)), -2, 6)


# -- eta quotients --------------------------------------------------------


def test_eta_quotient_eight_over_sixteen_squared():
    s = B.eta_quotient([(8, 1), (16, -2)], 10)
    assert s.valuation == -1
    check = B.poch_inf((), Monomial(F(1), 8), 11, base=8)
    check = check * B.poch_inf((), Monomial(F(1), 16), 11, base=16).invert() ** 2
    for n in range(-1, 10):
        assert s.coefficient(n) == check.shift(-1).coefficient(n)


def test_eta_quotient_fractional_rejected():
    with pytest.raises(AlgebraError, match="fractional"):
        B.eta_quotient([(1, 1)], 5)


def test_eta_quotient_below_its_q_shift_is_zero():
    # eta(z)^240 / eta(2z)^48 starts at q^6, above the requested order
    s = B.eta_quotient([(1, 240), (2, -48)], 1)
    assert s.order == 1 and s.is_zero()
    assert str(s) == "0 + O(q^2)"


def test_eta_quotient_inverse_pair():
    s = B.eta_quotient([(8, 1), (16, -2)], 8) * B.eta_quotient([(16, 2), (8, -1)], 8)
    ok, report = s.equal_to_order(QSeries.one((), s.order), s.order)
    assert ok, report


# -- Eisenstein and divisor sums ------------------------------------------


def test_eisenstein_E2():
    s = B.eisenstein_E2(3)
    assert [const(s, n) for n in range(4)] == [1, -24, -72, -96]


def test_phi1_sigma_values():
    assert const(B.phi1(2, 4), 4) == 3
    assert const(B.phi1(1, 6), 6) == 12


def test_E2_plus_24_phi1_is_one():
    s = B.eisenstein_E2(8) + B.phi1(1, 8) * 24
    ok, _ = s.equal_to_order(QSeries.one((), 8), 8)
    assert ok


# -- theta products -------------------------------------------------------


def test_jacobi_J_leading_factor():
    s = B.jacobi_J(Monomial(F(-1), 0, (("x", 1),)), 5, params=("x",))
    assert s.coefficient(0).terms == {(0,): 1, (1,): 1}


def test_jacobi_J_at_minus_one():
    s = B.jacobi_J(Monomial(F(-1)), 5)
    assert const(s, 0) == 2
    assert const(s, 1) == 4


def test_jacobi_J_base_two_with_q_shift():
    s = B.jacobi_J(Monomial(F(-1), 1, (("x", 1),)), 6, base=2, params=("x",))
    assert s.coefficient(0).constant_value() == 1
    assert s.coefficient(1).terms == {(1,): 1, (-1,): 1}


def test_jacobi_J_negative_valuation_rejected():
    with pytest.raises(AlgebraError):
        B.jacobi_J(Monomial(F(-1), -1, (("x", 1),)), 5, params=("x",))


# -- Lambert sums ---------------------------------------------------------


def test_lambert_littlesum():
    spec = B.LambertSpec(sign=-1, A=1, B=1, den=Monomial(F(-1)), a=1, domain="Z")
    s = B.lambert_sum(spec, 9)
    assert s.coefficient(0).constant_value() == F(1, 2)
    assert const(s, 1) == -1
    assert const(s, 4) == 1
    assert const(s, 9) == -1
    for n in (2, 3, 5, 6, 7, 8):
        assert const(s, n) == 0


def test_lambert_rational_x_point():
    spec = B.LambertSpec(sign=-1, A=1, B=1, den=Monomial(F(2)), a=1, domain="Z")
    lo = B.lambert_sum(spec, 4)
    hi = B.lambert_sum(spec, 12).truncate(4)
    ok, report = lo.equal_to_order(hi, 4)
    assert ok, report


def test_lambert_zero_denominator_rejected():
    spec = B.LambertSpec(sign=1, A=1, den=Monomial(F(1)), a=1, b=0, domain="Z")
    with pytest.raises(AlgebraError):
        B.lambert_sum(spec, 6)


# -- rank refinement ------------------------------------------------------


def test_rank_gf_first_coefficients():
    s = B.rank_gf(4)
    assert s.coefficient(0).constant_value() == 1
    c1 = s.coefficient(1)
    assert c1.terms == {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (1, 1, 0): 1}


def test_rank_gf_x_inversion_symmetry():
    s = B.rank_gf(6)
    for n in range(7):
        c = s.coefficient(n)
        flipped = ParamPoly(c.params, {(v[0], v[1], -v[2]): cc for v, cc in c.terms.items()})
        assert c.terms == flipped.terms


def test_rank_forms_agree():
    a = B.rank_gf(8)
    b = B.rank_gf_lambert(8)
    ok, report = a.equal_to_order(b, 8)
    assert ok, report


def test_rank_lambert_partition_rank_reduction():
    s = B.rank_gf_lambert(6, d=F(0), e=F(0))
    c2 = B.drop_param(B.drop_param(s, "d"), "e").coefficient(2)
    assert c2.terms == {(1,): 1, (-1,): 1}


# -- moment series --------------------------------------------------------


def test_n2v_low_coefficients():
    s = B.n2v(1, 6)
    assert s.coefficient(1).terms == {}
    assert s.coefficient(2).terms[(0, 0)] == 1


def test_n2v_requires_positive_v():
    with pytest.raises(AlgebraError):
        B.n2v(0, 6)


def test_n2v_d0e0_against_direct_display():
    s = B.n2v(1, 12, d=F(0), e=F(0))
    s = B.drop_param(B.drop_param(s, "d"), "e")
    pref = B.q_inf(12).invert()
    direct = B.lambert_sum(
        B.LambertSpec(sign=-1, A=F(3, 2), B=F(1, 2), den=Monomial(F(1)), a=1,
                      e=2, domain="Znz"), 12)
    # d = e = 0 collapses the prefactor to 1/(q)_inf and each term to
    # (-1)^{n-1} q^{n(3n-1)/2 + n}/(1-q^n)^2
    lhs = s
    rhs = pref * direct * -1
    ok, report = lhs.equal_to_order(rhs, 12)
    assert ok, report


def test_symmetrized_moment_extraction_matches_n2v():
    a = B.n2v(1, 8)
    b = B.symmetrized_moment_series(2, 8)
    ok, report = a.equal_to_order(b, 8)
    assert ok, report


# -- smallest parts -------------------------------------------------------


def test_spt_forms_agree():
    a = B.spt_gf(10)
    b = B.spt_gf_direct(10)
    ok, report = a.equal_to_order(b, 10)
    assert ok, report


def test_spt_total_q1():
    s = B.spt_gf(4)
    c = s.coefficient(1)
    total = c
    for name in c.params:
        total = total.eval(name, 1)
    assert total.constant_value() == 1


def test_spt_closed_form():
    s = B.spt_gf(20, d=F(1), e=F(1))
    s = B.drop_param(B.drop_param(s, "d"), "e")
    aq = B.poch_inf((), Monomial(F(-1), 1), 20)
    closed = (aq * B.q_inf(20).invert()) ** 2 * F(1, 4) - F(1, 4)
    ok, report = s.equal_to_order(closed, 20)
    assert ok, report


# -- marked symbols -------------------------------------------------------


def test_durfee_rhs_no_weight_zero_symbol():
    s = B.durfee_rhs(2, 6, xs=(F(2), F(3)), d=F(0), e=F(0))
    for name in list(s.params):
        s = B.drop_param(s, name)
    assert s.coefficient(0).constant_value() == 0


def test_durfee_rhs_k1_rejected():
    with pytest.raises(AlgebraError):
        B.durfee_rhs(1, 6)


def test_durfee_rhs_at_unit_points_matches_moments():
    s = B.durfee_rhs(2, 8, xs=(F(1), F(1)), d=F(0), e=F(0))
    for name in list(s.params):
        s = B.drop_param(s, name)
    assert s.coefficient(2).constant_value() == 1


# -- partial fractions ----------------------------------------------------


def test_partial_fractions_matches_durfee():
    pts = (F(2), F(3))
    a = B.rk_partial_fractions(2, pts, 10)
    b = B.durfee_rhs(2, 10, xs=pts)
    ok, report = a.equal_to_order(b, 10)
    assert ok, report


def test_partial_fractions_degenerate_points_rejected():
    with pytest.raises(AlgebraError):
        B.rk_partial_fractions(2, (F(2), F(2)), 6)
    with pytest.raises(AlgebraError):
        B.rk_partial_fractions(2, (F(2), F(1, 2)), 6)


# -- crank-type products --------------------------------------------------


def test_crank_C_constant_term_and_x1():
    s = B.crank_C(4)
    assert s.coefficient(0).constant_value() == 1
    at1 = B.crank_C(4, x=F(1))
    at1 = B.drop_param(at1, "x")
    assert const(at1, 4) == 5


def test_crank_C_star_point():
    s = B.crank_C_star(4, F(2))
    assert s.coefficient(0).constant_value() == -1


def test_crank_C_star_at_one_rejected():
    with pytest.raises(AlgebraError):
        B.crank_C_star(4, F(1))


# -- hypergeometric bridges -----------------------------------------------


def test_phi65_specialization():
    lhs, rhs = B.phi65_pair(F(3), 12)
    ok, report = lhs.equal_to_order(rhs, 12)
    assert ok, report


def test_watson_whipple_specialization():
    lhs, rhs = B.rank_gf(10, F(1), F(1), F(2)), B.rank_gf_lambert(10, F(1), F(1), F(2))
    ok, report = lhs.equal_to_order(rhs, 10)
    assert ok, report


# -- dispatcher -----------------------------------------------------------


def test_build_identifiers():
    assert const(B.build("E2", 3), 3) == -96
    assert const(B.build("qinf", 5), 5) == 1
    s = B.build("n2v:v=1", 8, {"d": "0", "e": "0"})
    assert const(s, 2) == 1
    s = B.build("rank:d=0:e=0:x=1", 6)
    assert const(s, 2) == 2


def test_build_unknown_rejected():
    with pytest.raises((AlgebraError, KeyError, ValueError)):
        B.build("bogus", 5)


@pytest.mark.parametrize("spec, assignments", [
    ("n2v:vv=2", None),
    ("n2v:v=1:x=2", None),
    ("durfee:k=2:base=2", None),
    ("durfee:k=2:x3=1", None),
    ("rank:2", None),
    ("eta:1^24:2", None),
    ("E2", {"d": "0"}),
])
def test_build_rejects_what_it_does_not_read(spec, assignments):
    with pytest.raises(AlgebraError, match="does not take"):
        B.build(spec, 4, assignments)


@pytest.mark.parametrize("spec", ["spt:d=1/0", "rank:e=-2/0", "J:1/0*x"])
def test_build_zero_denominator_rejected(spec):
    with pytest.raises(AlgebraError, match="zero denominator"):
        B.build(spec, 4)


def test_build_monomial_assignment():
    # e -> 1/q on the base-q^2 moment series stays exact
    s = B.build("n2v:v=1:base=2", 8, {"d": "1", "e": "q^-1"})
    t = B.n2v(1, 17, base=2).substitute_param("e", 1, -1)
    t = B.drop_param(B.drop_param(t, "e").eval_param("d", 1), "d")
    ok, report = s.equal_to_order(t, min(s.order, t.order))
    assert ok, report


def test_bounds_declared_by_builders():
    s = B.rank_gf(6)
    assert s.bounds.get("d") is not None
    assert s.bounds.get("e") is not None
