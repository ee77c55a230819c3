import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest

import _props
from qpairs import AlgebraError, ParamPoly, QSeries, cli, series
from qpairs import builders as B
from qpairs import harness as H
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


def test_pochhammer_negative_length_inverts_no_series(monkeypatch):
    calls = []
    invert = QSeries.invert

    def spy(self):
        calls.append(self)
        return invert(self)

    monkeypatch.setattr(QSeries, "invert", spy)
    B.pochhammer((), Monomial(F(2)), -3, 8)
    assert calls == []


def test_pochhammer_negative_length_symbolic_rejected():
    with pytest.raises(AlgebraError, match="rational-point"):
        B.pochhammer(("d",), Monomial(F(-1), 1, (("d", 1),)), -2, 6)


# -- eta quotients --------------------------------------------------------


def test_eta_quotient_eight_over_sixteen_squared():
    s = B.eta_quotient([(8, 1), (16, -2)], 10)
    assert s.valuation == -1
    check = B.poch_inf((), Monomial(F(1), 8), 11, base=8)
    inv = B.poch_inf((), Monomial(F(1), 16), 11, base=16).invert()
    check = check * inv * inv
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
    s = B.jacobi_J(Monomial(F(-1), 0, (("x", 1),)), 5)
    assert s.coefficient(0).terms == {(0,): 1, (1,): 1}


def test_jacobi_J_at_minus_one():
    s = B.jacobi_J(Monomial(F(-1)), 5)
    assert const(s, 0) == 2
    assert const(s, 1) == 4


def test_jacobi_J_base_two_with_q_shift():
    s = B.jacobi_J(Monomial(F(-1), 1, (("x", 1),)), 6, base=2)
    assert s.coefficient(0).constant_value() == 1
    assert s.coefficient(1).terms == {(1,): 1, (-1,): 1}


def test_jacobi_J_negative_valuation_rejected():
    with pytest.raises(AlgebraError):
        B.jacobi_J(Monomial(F(-1), -1, (("x", 1),)), 5)


# -- Lambert sums ---------------------------------------------------------


def test_lambert_littlesum():
    s = B.lambert_sum(9, zeta=-1, A=1, B=1, den=-1, a=1, domain="Z")
    assert s.coefficient(0).constant_value() == F(1, 2)
    assert const(s, 1) == -1
    assert const(s, 4) == 1
    assert const(s, 9) == -1
    for n in (2, 3, 5, 6, 7, 8):
        assert const(s, n) == 0


def test_lambert_rational_x_point():
    spec = dict(zeta=-1, A=1, B=1, den=2, a=1, domain="Z")
    lo = B.lambert_sum(4, **spec)
    hi = B.lambert_sum(12, **spec).truncate(4)
    ok, report = lo.equal_to_order(hi, 4)
    assert ok, report


def test_lambert_zero_denominator_rejected():
    with pytest.raises(AlgebraError):
        B.lambert_sum(6, A=1, den=1, a=1, b=0, domain="Z")


@pytest.mark.parametrize("order", [5, 10100])
@pytest.mark.parametrize("spec, n", [
    (dict(a=1, b=-100, domain="n>=1"), 100),  # term 100 lies far past the window at order 5
    (dict(a=2, b=6, domain="odd"), -3),  # on the negative walk, by the stride
    (dict(a=0, b=0, domain="Znz"), 1),  # at every index
])
def test_lambert_zero_denominator_rejected_at_every_order(order, spec, n):
    with pytest.raises(AlgebraError, match=rf"^zero denominator 1 - q\^0 at n={n}$"):
        B.lambert_sum(order, A=1, den=1, **spec)


@pytest.mark.parametrize("spec", [
    dict(a=2, b=-4, domain="odd"),  # the zero index 2 is even
    dict(a=2, b=-3, domain="Z"),  # -b/a = 3/2 is no index
    dict(a=1, b=1, domain="n>=1"),  # the zero index -1 lies behind the walk
])
def test_lambert_zero_denominator_off_the_domain_accepted(spec):
    assert not B.lambert_sum(5, A=1, den=1, **spec).is_zero()


@pytest.mark.parametrize("order", [3, 30])
def test_lambert_divergent_sum_rejected(order):
    # terms at n = 10, 11, ... lie at q^0, q^-11, ...: no order truncates the sum
    with pytest.raises(AlgebraError, match="diverges"):
        B.lambert_sum(order, A=-1, B=10, domain="n>=1")


def test_lambert_negative_denominator_power_rejected():
    # (1 - 2 q^(30-10n)) in the numerator: valuations 1, 4, 9, 6, 5, 6, ... rise past q^5
    # and fall back into it, so no stop at a rising term past the window is proven
    with pytest.raises(AlgebraError, match="not convex"):
        B.lambert_sum(5, A=1, den=2, a=-10, b=30, e=-1, domain="n>=1")


# every domain, both signs of an+b, e = 1 and 2, and den = 0, +-1, 2/3, -2/7
LAMBERT_FORMS = {
    "Z-den-1": dict(zeta=-1, A=1, B=1, den=-1, a=1),
    "Z-den2/3-M0": dict(zeta=-3, A=1, B=2, den=F(2, 3), a=2),
    "Z-den-2/7-e2": dict(A=2, B=3, C=1, den=F(-2, 7), a=2, b=1, e=2),
    "Z-bare": dict(c=2, zeta=-1, A=1),
    "Znz-den1-e2": dict(A=1, den=1, a=1, e=2, domain="Znz"),
    "Znz-den-2/7-a<0": dict(A=1, B=-1, npoly=(1, 0, 1), den=F(-2, 7), a=-1, b=2, domain="Znz"),
    "n>=1-den-1": dict(B=1, npoly=(0, 1), den=-1, a=1, domain="n>=1"),
    "odd-den1-e2": dict(A=F(1, 2), B=F(1, 2), den=1, a=1, e=2, domain="odd"),
    "odd>=1-den2/3-e2": dict(zeta=F(1, 2), B=1, den=F(2, 3), a=1, e=2, domain="odd>=1"),
    "n>=1-falls-into-window": dict(A=1, B=-9, C=20, domain="n>=1"),
}


@pytest.mark.parametrize("form", LAMBERT_FORMS.values(), ids=LAMBERT_FORMS)
def test_lambert_sum_is_exact_at_the_requested_order(form, request):
    if form.get("den"):  # a sum with no denominator makes no kernel call
        request.getfixturevalue("int_kernel")
    for o in range(13):
        assert B.lambert_sum(o, **form) == B.lambert_sum(o + 7, **form).truncate(o)


_BRUTE_DOMAINS = {
    "Z": lambda n: True,
    "Znz": lambda n: n != 0,
    "n>=1": lambda n: n >= 1,
    "odd": lambda n: n % 2 != 0,
    "odd>=1": lambda n: n >= 1 and n % 2 != 0,
}


def _lambert_brute(order, c=1, zeta=1, A=0, B=0, C=0, npoly=(1,), den=0, a=0, b=0, e=1, domain="Z"):
    """The coefficients of q^0..q^order of the Lambert sum over n in [-60, 60], each term
    ``c zeta^n P(n) q^E / (1 - u q^M)^e`` expanded by the binomial series."""
    out = [F(0)] * (order + 1)
    u = F(den)
    for n in filter(_BRUTE_DOMAINS[domain], range(-60, 61)):
        E, M = F(A) * n * n + F(B) * n + F(C), a * n + b
        lead = F(c) * F(zeta) ** n * sum(F(cf) * n ** i for i, cf in enumerate(npoly))
        u_n = u
        if u and M < 0:  # 1/(1 - u q^M) = (-1/u) q^-M / (1 - q^-M / u)
            E, lead, u_n, M = E - e * M, lead * (-1 / u) ** e, 1 / u, -M
        if u_n and M == 0:
            lead, u_n = lead / (1 - u_n) ** e, F(0)
        for k in range(order + 1):
            if E + M * k > order or (k and not u_n):
                break
            if E + M * k >= 0:
                out[int(E) + M * k] += lead * comb(e + k - 1, k) * u_n ** k
    return out


# valuations that start above the window and fall into it: n >= 1 from q^12, Z on its
# negative side, and Znz with a denominator whose rewrite for n <= -2 adds 2(-n - 1); and
# two linear sums next to divergent ones
REFERENCE_FORMS = {
    "n>=1-falls": dict(A=1, B=-9, C=20, domain="n>=1"),
    "Z-negative-side-falls": dict(A=1, B=9, C=20),
    "Znz-den2/3-e2-falls": dict(A=1, B=-9, C=20, den=F(2, 3), a=1, b=1, e=2, domain="Znz"),
    "n>=1-slope1": dict(B=1, domain="n>=1"),
    # V(n) = -n + 2n: it grows only through the rewrite of 1 - 2 q^-n
    "n>=1-slope1-from-the-rewrite": dict(B=-1, den=2, a=-1, e=2, domain="n>=1"),
}


@pytest.mark.parametrize("form", REFERENCE_FORMS.values(), ids=REFERENCE_FORMS)
def test_lambert_sum_matches_a_brute_force_sum(form):
    for o in range(11):
        s = B.lambert_sum(o, **form)
        assert [const(s, n) for n in range(o + 1)] == _lambert_brute(o, **form), o


def _lambert_by_terms(order, **spec):
    """``B.lambert_sum`` with a kernel call per term, each term's series added as it comes: the
    same walks, stop rule and checks, with the checks on the arguments left to ``B.lambert_sum``."""
    B.lambert_sum(-1, **spec)
    first, first_neg, stride = B._DOMAINS[spec.get("domain", "Z")]
    c, zeta, A, B_, C, u = (F(spec.get(k, v)) for k, v in (("c", 1), ("zeta", 1), ("A", 0), ("B", 0), ("C", 0),
                                                             ("den", 0)))
    npoly, a, b, e = spec.get("npoly", (1,)), spec.get("a", 0), spec.get("b", 0), spec.get("e", 1)
    acc = QSeries.zero((), order)
    for n, step in ((first, stride),) if first_neg is None else ((first, stride), (first_neg, -stride)):
        prev = None
        while True:
            E, M = A * n * n + B_ * n + C, a * n + b
            val, lead, m = int(E), c * sum(F(cf) * F(n) ** i for i, cf in enumerate(npoly)) * zeta ** n, u
            if u and M < 0:
                val, lead, m, M = val - e * M, lead * (-1 / u) ** e, 1 / u, -M
            if val <= order:
                acc = acc + QSeries((), order, {val: lead}).mul_one_minus([(m, M, (), -e)])
            elif prev is not None and val >= prev:
                break
            prev = val
            n += step
    return acc


@pytest.mark.parametrize("domain", B._DOMAINS)
def test_lambert_sum_is_the_per_term_sum(domain):
    # zeta = -3 puts denominators 3^|n| on the negative walk alone; a = 1, b = -1 puts
    # the q^0 scalar (1 - u)^-e at n = 1 and rewrites every term with n <= 0; B = -3 puts
    # the terms at n = 1 and 2 at q^-2, below q^0
    for e in (1, 2):
        for den in (F(2, 3), -1, 1, 2, F(-1, 2)):
            for spec in (dict(zeta=-3, A=1, B=1, npoly=(1, 1), a=2, b=1),
                         dict(c=F(3, 5), zeta=F(1, 2), A=1, a=1, b=-1),
                         dict(c=F(1, 3), A=1, B=-3, a=2, b=1)):
                spec = dict(spec, den=den, e=e, domain=domain)
                if den == 1 and spec["b"] == -1:  # 1 - q^0 at n = 1
                    with pytest.raises(AlgebraError, match="zero denominator"):
                        B.lambert_sum(4, **spec)
                    continue
                for o in range(17):
                    got, want = B.lambert_sum(o, **spec), _lambert_by_terms(o, **spec)
                    assert got == want and got.order == o and _props.canonical(got), (spec, o)


@pytest.mark.parametrize("form", [
    dict(B=1),  # q^n: falls without bound as n -> -inf
    dict(C=0),  # every term at q^0
    dict(den=2, a=-1),  # 1 / (1 - 2 q^-n): at q^0 for every n < 0
], ids=["slope-1", "slope0", "den-slope0"])
def test_lambert_divergent_linear_sum_rejected_at_once(form):
    t0 = time.perf_counter()
    with pytest.raises(AlgebraError, match="diverges"):
        B.lambert_sum(5, domain="Z", **form)
    assert time.perf_counter() - t0 < 0.1


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


@pytest.mark.parametrize("d, e", [(None, None), (F(0), F(1, 2))], ids=["de", "d=0,e=1/2"])
@pytest.mark.parametrize("base", [1, 2, 3], ids=lambda b: f"base={b}")
@pytest.mark.parametrize("x", [None, F(1), F(-1), F(2), F(-1, 3)], ids=["x", "x=1", "x=-1", "x=2", "x=-1/3"])
def test_rank_forms_agree(x, base, d, e):
    # the bilateral form's factor (1 - x)(1 - 1/x) is 0 at x = 1 and 4 at x = -1
    a = B.rank_gf(8, d, e, x, base)
    b = B.rank_gf_lambert(8, d, e, x, base)
    ok, report = a.equal_to_order(b, 8)
    assert ok, report


def test_rank_lambert_partition_rank_reduction():
    s = B.rank_gf_lambert(6, d=F(0), e=F(0))
    assert s.params == ("x",)
    c2 = s.coefficient(2)
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
    assert s.params == ()
    pref = B.q_inf(12).invert()
    direct = B.lambert_sum(12, zeta=-1, A=F(3, 2), B=F(1, 2), den=1, a=1, e=2, domain="Znz")
    # d = e = 0 collapses the prefactor to 1/(q)_inf and each term to
    # (-1)^{n-1} q^{n(3n-1)/2 + n}/(1-q^n)^2
    lhs = s
    rhs = pref * direct * -1
    ok, report = lhs.equal_to_order(rhs, 12)
    assert ok, report


def test_symmetrized_moment_extraction_matches_n2v():
    a = B.n2v(1, 8)
    b = B.symmetrized_moment_series(2, B.rank_gf(8))
    ok, report = a.equal_to_order(b, 8)
    assert ok, report


def moment_by_derivatives(k: int, N: QSeries) -> QSeries:
    """``(1/k!) [d^k/dx^k (x^((k-1)//2) N)]`` at x = 1, by k calls of ``d_dparam``."""
    s = N * ParamPoly.monomial(N.params, {"x": (k - 1) // 2})
    for _ in range(k):
        s = s.d_dparam("x")
    return s.eval_param({"x": 1}) * F(1, factorial(k))


@pytest.mark.parametrize("d", [None, 2])
@pytest.mark.parametrize("k", range(1, 7))
def test_moment_coeffs_json_is_the_k_fold_x_derivative(capsys, k, d):
    order = 7
    spec = f"moment:k={k}" + (f":d={d}" if d else "")
    assert cli.main(["coeffs", spec, "--order", str(order), "--format", "json"]) == 0
    N = B.rank_gf(order, d)
    want = moment_by_derivatives(k, N).with_bounds({p: 1 for p in ("d", "e") if p in N.params})
    assert want.is_zero() == (k % 2 == 1)
    assert capsys.readouterr().out == want.to_json() + "\n"


def test_moment_index_rejected_before_the_rank_refinement_is_built(monkeypatch):
    monkeypatch.setattr(B, "rank_gf", None)  # any call fails with TypeError
    with pytest.raises(AlgebraError, match="^moment index must be >= 1$"):
        B.build("moment:k=0", 200)
    with pytest.raises(AlgebraError, match="^moment index must be >= 1$"):
        B.symmetrized_moment_series(0, QSeries.zero(("x",), 3))


@pytest.mark.parametrize("k", range(1, 7))
def test_moment_extraction_of_a_series_without_the_rank_symmetry(k):
    # on the rank refinement, symmetric under x <-> 1/x, the shift j = k//2 gives the same
    # moments as j = (k-1)//2; on these series, with x-exponents in [-8, 8], it does not
    rng = random.Random(20261027 + k)
    params = ("d", "x", "e")
    for _ in range(30):
        N = QSeries(params, 3, {n: _props.random_poly(rng, params, 4, (-8, 8)) for n in range(-1, 4)})
        assert B.symmetrized_moment_series(k, N) == moment_by_derivatives(k, N), (k, N)


# -- smallest parts -------------------------------------------------------


def test_spt_forms_agree():
    a = B.spt_gf(10)
    b = B.spt_gf_direct(10)
    ok, report = a.equal_to_order(b, 10)
    assert ok, report


def test_spt_total_q1():
    s = B.spt_gf(4)
    total = s.eval_param(dict.fromkeys(s.params, 1))
    assert total.coefficient(1).constant_value() == 1


def test_spt_closed_form():
    s = B.spt_gf(20, d=F(1), e=F(1))
    assert s.params == ()
    aq = B.poch_inf((), Monomial(F(-1), 1), 20)
    ratio = aq * B.q_inf(20).invert()
    closed = ratio * ratio * F(1, 4) - F(1, 4)
    ok, report = s.equal_to_order(closed, 20)
    assert ok, report


# -- marked symbols -------------------------------------------------------


def test_durfee_rhs_no_weight_zero_symbol():
    s = B.durfee_rhs(2, 6, xs=(F(2), F(3)), d=F(0), e=F(0))
    assert s.params == ()
    assert s.coefficient(0).constant_value() == 0


def test_durfee_rhs_k1_rejected():
    with pytest.raises(AlgebraError):
        B.durfee_rhs(1, 6)


def test_durfee_rhs_far_above_the_window_is_zero_over_every_variable():
    # the first term lies at q^k, so no x_j monomial is built past the window
    k = 200000
    s = B.build(f"durfee:k={k}", 4)
    assert s.is_zero() and s.order == 4
    assert s.params == ("d", "e") + tuple(f"x{j}" for j in range(1, k + 1))


def test_durfee_rhs_pole_rejected_past_the_window():
    with pytest.raises(AlgebraError, match="x3 = 0 is a pole of the rank refinement"):
        B.build("durfee:k=5:x3=0", 3)


def test_durfee_rhs_at_unit_points_matches_moments():
    s = B.durfee_rhs(2, 8, xs=(F(1), F(1)), d=F(0), e=F(0))
    assert s.params == ()
    assert s.coefficient(2).constant_value() == 1


# -- partial fractions ----------------------------------------------------


def test_partial_fractions_matches_durfee():
    pts = (F(2), F(3))
    a = B.rk_partial_fractions(pts, [B.rank_gf(10, x=x) for x in pts])
    b = B.durfee_rhs(2, 10, xs=pts)
    ok, report = a.equal_to_order(b, 10)
    assert ok, report


def test_partial_fractions_degenerate_points_rejected():
    for pts in ((F(2), F(2)), (F(2), F(1, 2)), (F(2),)):
        with pytest.raises(AlgebraError):
            B.rk_partial_fractions(pts, [B.rank_gf(6, x=x) for x in pts])
    with pytest.raises(AlgebraError):
        B.rk_partial_fractions((F(2), F(3)), [B.rank_gf(6, x=F(2))])


# -- crank-type products --------------------------------------------------


def test_crank_C_constant_term_and_x1():
    s = B.crank_C(4)
    assert s.coefficient(0).constant_value() == 1
    at1 = B.crank_C(4, x=F(1))
    assert at1.params == ()
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


@pytest.mark.parametrize("spec", ["eta:24^", "eta:8^,16^-2"])
def test_build_eta_power_after_a_caret_is_required(spec):
    with pytest.raises(AlgebraError, match="eta power '' is not an integer"):
        B.build(spec, 3)


def test_build_eta_bare_level_has_power_one():
    assert B.build("eta:24", 30).to_json() == B.build("eta:24^1", 30).to_json()


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


@pytest.mark.parametrize("spec, assignments", [
    ("Phi1:m=2:m=3", None),
    ("rank:d=1/2:d=1/2", None),
    ("rank:d=1/2", {"d": "2"}),
    ("n2v:v=1", {"v": "1"}),
])
def test_build_rejects_a_key_given_twice(spec, assignments):
    with pytest.raises(AlgebraError, match="given twice"):
        B.build(spec, 4, assignments)


@pytest.mark.parametrize("spec", ["spt:d=1/0", "rank:e=-2/0", "J:1/0*x"])
def test_build_zero_denominator_rejected(spec):
    with pytest.raises(AlgebraError, match="zero denominator"):
        B.build(spec, 4)


def test_build_monomial_assignment():
    # e -> 1/q on the base-q^2 moment series stays exact
    s = B.build("n2v:v=1:base=2", 8, {"d": "1", "e": "q^-1"})
    t = B.n2v(1, 17, base=2).substitute_param({"e": (1, -1)}).eval_param({"d": 1})
    assert t.params == ()
    ok, report = s.equal_to_order(t, min(s.order, t.order))
    assert ok, report


@pytest.mark.parametrize("spec, order, built", [
    ("rank:e=q^-1:base=2", 5, 10),
    ("rank:e=q^-2:base=3", 4, 12),
])
def test_build_before_a_negative_substitution_at_the_least_certifiable_order(monkeypatch, spec, order, built):
    # e -> q^j (j < 0) on base q^B keeps (B + j)/B of the window, so building
    # at order * B // (B + j) is the least that certifies the requested order
    seen = []
    rank_gf = B.rank_gf

    def spy(n, *args, **kwargs):
        seen.append(n)
        return rank_gf(n, *args, **kwargs)

    monkeypatch.setattr(B, "rank_gf", spy)
    assert B.build(spec, order).order == order
    assert seen == [built]


def test_build_reads_a_zero_q_monomial_as_the_rational_zero(monkeypatch, capsys):
    # c*q^j with c = 0 is the value 0, not a move by q^j: no wider build, the bounds of
    # the =0 spelling, and a zero rank variable is the pole at 0
    seen = []
    rank_gf = B.rank_gf

    def spy(n, *args, **kwargs):
        seen.append(n)
        return rank_gf(n, *args, **kwargs)

    monkeypatch.setattr(B, "rank_gf", spy)
    for spec, zero in [("rank:d=0*q^-1:base=2", "rank:d=0:base=2"), ("rank:d=0*q", "rank:d=0")]:
        seen.clear()
        assert B.build(spec, 4).to_json() == B.build(zero, 4).to_json()
        assert seen == [4, 4]
    assert cli.main(["coeffs", "rank:d=0*q^-1", "--order", "3"]) == 0
    assert cli.main(["coeffs", "rank:d=0", "--order", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:len(out) // 2] == out[len(out) // 2:]
    for spec, pole in [("rank:x=0*q", "x = 0 is a pole of the rank refinement"),
                       ("C:x=0*q", "x = 0 is a pole of the crank product"),
                       ("durfee:k=2:x1=0*q", "x1 = 0 is a pole of the rank refinement")]:
        with pytest.raises(AlgebraError, match=pole):
            B.build(spec, 4)


def _horner_by_terms(params, order, E, ratio, summand):
    """``B._horner``'s sum added term by term, in series operations: term m starts from a
    one-series at ``order - E(m)``, takes r_1 .. r_m, each its multiplier as a series times
    the term and then one kernel call for its factors, then F_m's factors, then the shift
    by E(m)."""
    acc = QSeries.zero(params, order)
    m = 1
    while E(m) <= order:
        term = QSeries.one(params, order - E(m))
        for k in range(1, m + 1):
            mult, factors = ratio(k)
            term = B._times(QSeries(params, term.order, mult) * term, *factors)
        acc = acc + B._times(term, *summand(m)).shift(E(m))
        m += 1
    return acc


# each builder of a Horner sum, at (order, base); the bases apply where the builder takes one
HORNER_SUMS = {
    "rank_gf": (lambda o, b: B.rank_gf(o, base=b), (1, 2, 3)),
    "rank_gf at d=-2, e=1/2, x=2": (lambda o, b: B.rank_gf(o, -2, Fraction(1, 2), 2, b), (1, 2)),
    "rank_gf at x=1/2": (lambda o, b: B.rank_gf(o, x=Fraction(1, 2), base=b), (1, 2)),
    "rank_gf at d=1/2, e=1/3": (lambda o, b: B.rank_gf(o, Fraction(1, 2), Fraction(1, 3), base=b), (2,)),
    "_alternating_sum of n2v": (lambda o, b: B.n2v(1, o, base=b), (1, 2, 3)),
    "_alternating_sum of rank_gf_lambert": (lambda o, b: B.rank_gf_lambert(o, 2, None, Fraction(1, 3), b), (1, 2)),
    "_alternating_sum of durfee_rhs": (lambda o, b: B.durfee_rhs(2, o, (2, None), Fraction(1, 2)), (1,)),
    "_alternating_sum of durfee_rhs at k=3": (lambda o, b: B.durfee_rhs(3, o, H.DURFEE_POINTS_3[0]), (1,)),
    "_alternating_sum of spt_gf": (lambda o, b: B.spt_gf(o), (1,)),
    "spt_gf_direct": (lambda o, b: B.spt_gf_direct(o), (1,)),
    "spt_gf_direct at d=1, e=-1": (lambda o, b: B.spt_gf_direct(o, 1, -1), (1,)),
    "phi65_pair at b=3": (lambda o, b: B.phi65_pair(3, o), (1,)),
    "phi65_pair at b=-1/2": (lambda o, b: B.phi65_pair(Fraction(-1, 2), o), (1,)),
}


@pytest.mark.parametrize("name", HORNER_SUMS)
def test_horner_sum_is_the_term_by_term_sum(monkeypatch, name):
    build, bases = HORNER_SUMS[name]
    horner, calls = B._horner, []

    def spy(*args):
        calls.append((args, horner(*args)))
        return calls[-1][1]

    monkeypatch.setattr(B, "_horner", spy)
    for order in range(16):
        for base in bases:
            calls.clear()
            build(order, base)
            (args, got), = calls
            params, _, E, _, _ = args
            want = _horner_by_terms(*args)
            assert (got.order, got.params) == (want.order, want.params) == (order, params)
            assert got.coeffs == want.coeffs, (order, base)
            assert _props.canonical(got) and _props.canonical(want)
            if E(1) > order:  # no term in the window
                assert got.is_zero()


def test_horner_summand_without_factors_makes_no_kernel_call(monkeypatch):
    # rank_gf's Horner sum runs its ratios as chains on one term map, and its summands list no
    # factor, so it makes no kernel call at all; test_horner_sum_is_the_term_by_term_sum checks
    # the sum against the one with a call per ratio and summand
    chains = []
    real = QSeries.mul_one_minus

    def spy(s, factors):
        chains.append(list(factors))
        return real(s, factors)

    monkeypatch.setattr(QSeries, "mul_one_minus", spy)
    B.rank_gf(8, x=2)
    assert chains == []


def test_horner_sum_builds_one_series_at_any_order(monkeypatch):
    # the sum lives in one term map from its first term to its last: one series at the end
    calls = []
    real = series._series

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(series, "_series", counted)
    counts = []
    for order in (8, 16):
        calls.clear()
        B.rank_gf(order, x=2)
        counts.append(len(calls))
    assert counts == [1, 1]


def test_horner_sum_takes_terms_below_q0():
    # E(m) = m - 3 puts the first terms at q^-2 and q^-1, and the factors' c = 2/3 and 1/2 make
    # the scale L^(n - lo) a power of 6 from the least exponent up
    params = ("x",)
    x = ParamPoly.var(params, "x")

    def ratio(m):
        return {0: x, 1: F(1, 2)}, [(Monomial(F(2, 3), m), -1), (Monomial.make(1, 0, x=1), 1)]
    for order in range(-3, 10):
        summand = lambda m: [(Monomial(F(1, 2), m, (("x", -1),)), 1)]
        got = B._horner(params, order, lambda m: m - 3, ratio, summand)
        want = _horner_by_terms(params, order, lambda m: m - 3, ratio, summand)
        assert got == want and got.order == order and _props.canonical(got), order
        assert got.valuation == (-2 if order >= -2 else order + 1)
    # a term above the window adds nothing, and a multiplier is a q-polynomial: a term below
    # q^0 could not be scaled in by L^j
    assert series.horner_sum(params, 2, [(3, 1, [])]) == QSeries(params, 2)
    with pytest.raises(AlgebraError, match="q-polynomial"):
        series.horner_sum(params, 4, [(1, 1, [])], [({-1: 1}, [(F(2, 3), 1, (), -1)])])


def test_horner_reach_grows_by_each_ratio():
    # r_m = x, and r_m = 1 - x/2 as a q^0 factor: the sums reach x^top at q^top, so the bound
    # on their exponents is tight and one ratio's share left out of it is seen
    params = ("x",)
    x = ParamPoly.var(params, "x")
    for order in range(6):
        for ratio, r in [(lambda m: ({0: x}, []), x),
                         (lambda m: ({0: 1}, [(Monomial.make(F(1, 2), 0, x=1), 1)]), 1 - x * F(1, 2))]:
            want, power = {}, ParamPoly.const(params, 1)
            for m in range(1, order + 1):
                want[m] = power = power * r
            got = B._horner(params, order, lambda m: m, ratio, lambda m: [])
            assert got == QSeries(params, order, want)
            assert _props.canonical(got) and max((p.reach for p in got.coeffs.values()), default=0) == order


def test_bounds_declared_by_builders():
    s = B.rank_gf(6)
    assert s.bounds.get("d") is not None
    assert s.bounds.get("e") is not None
