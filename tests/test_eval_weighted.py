"""``QSeries.eval_weighted`` against the derivative operators it replaces.

The kernel fixes one parameter p at a rational r and weighs each term
``c p^a q^n`` by ``w(a, n)``.  A weight that is a polynomial in a and n is
a combination of Euler operators, ``a^i n^j`` for ``delta_p^i delta_q^j``,
and ``a (a-1) ... (a-k+1) / r^k`` is the k-fold ``d_dparam``; each is
compared here with those operators followed by ``eval_param``.  With
``r = None`` p stays and the weight is a Laurent polynomial in p, a map
shift -> rational: ``{j: w_j}`` is ``sum_j p^j w_j``, compared with the
Euler operators times ``p^j``.  The reference ``delta_x`` works on the term
maps here, so the test does not lean on the kernel it checks.
"""

import math
import random
from fractions import Fraction

import pytest

import _props
from qpairs import AlgebraError, ParamPoly, QSeries, oracle
from qpairs import builders as B

F = Fraction
PARAMS = ("d", "x", "e")  # p in the middle: the kept names are not a prefix
POINTS = (F(1), F(-2), F(1, 2), F(3))


def laurent_series(rng: random.Random) -> QSeries:
    """A random series over PARAMS with negative exponents of x and rational coefficients."""
    return _props.random_series(rng, PARAMS)


def delta_x(s: QSeries) -> QSeries:
    """``x d/dx s``: each term times its exponent of x, on the term maps."""
    i = s.params.index("x")
    return QSeries(s.params, s.order, {n: ParamPoly(s.params, {v: c * v[i] for v, c in p.terms.items() if v[i]})
                                       for n, p in s.coeffs.items()})


def euler(s: QSeries, i: int, j: int) -> QSeries:
    """``delta_x^i delta_q^j s``."""
    for _ in range(i):
        s = delta_x(s)
    for _ in range(j):
        s = s.delta_q()
    return s


def random_weight(rng: random.Random) -> dict:
    """``{(i, j): c_ij}`` for ``w(a, n) = sum c_ij a^i n^j``, each c_ij zero, an int or a rational."""
    return {(i, j): rng.choice([0, 0, 1, -3, F(2, 3), F(-5, 7)]) for i in range(3) for j in range(2)}


def weigh(cs: dict, a: int, n: int) -> Fraction:
    return sum(c * a ** i * n ** j for (i, j), c in cs.items())


def test_polynomial_weights_are_the_euler_operators_read_at_the_point():
    rng = random.Random(20261025)
    seen = {"zero series": 0, "zero weight": 0, "rational weight": 0}
    for _ in range(300):
        s = laurent_series(rng)
        if rng.random() < 0.1:
            s = QSeries.zero(PARAMS, s.order)
        r = rng.choice(POINTS)
        cs = random_weight(rng)
        got = s.eval_weighted("x", r, lambda a, n: weigh(cs, a, n))
        want = QSeries.zero(("d", "e"), s.order)
        for (i, j), c in cs.items():
            want = want + euler(s, i, j).eval_param({"x": r}) * c
        assert got == want, (s, r, cs)
        assert got.params == ("d", "e") and got.order == s.order and not got.bounds
        assert _props.canonical(got)
        seen["zero series"] += s.is_zero()
        seen["zero weight"] += not any(cs.values())
        seen["rational weight"] += any(type(c) is F for c in cs.values())
    assert all(seen.values()), seen


def test_with_x_kept_a_polynomial_weight_is_the_euler_operators_times_powers_of_x():
    rng = random.Random(20261027)
    seen = {"zero series": 0, "zero weight": 0, "negative shift": 0, "several shifts": 0}
    for _ in range(300):
        s = laurent_series(rng)
        if rng.random() < 0.1:
            s = QSeries.zero(PARAMS, s.order)
        # w(a, n) = sum_j x^j w_j(a, n), over one to three shifts j in [-2, 3]
        ws = {j: random_weight(rng) if rng.random() < 0.9 else {} for j in rng.sample(range(-2, 4), rng.randint(1, 3))}
        got = s.eval_weighted("x", None, lambda a, n: {j: weigh(cs, a, n) for j, cs in ws.items()})
        want = QSeries.zero(PARAMS, s.order)
        for j, cs in ws.items():
            for (i, k), c in cs.items():
                want = want + euler(s, i, k) * ParamPoly.monomial(PARAMS, {"x": j}, c)
        assert got == want, (s, ws)
        assert got.params == PARAMS and got.order == s.order and not got.bounds
        assert _props.canonical(got)
        seen["zero series"] += s.is_zero()
        seen["zero weight"] += not any(c for cs in ws.values() for c in cs.values())
        seen["negative shift"] += min(ws) < 0
        seen["several shifts"] += len(ws) > 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("r", POINTS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_falling_factorial_weight_is_the_k_fold_derivative(r, k):
    rng = random.Random(20261026 + k)
    for _ in range(40):
        s = laurent_series(rng)
        want = s
        for _ in range(k):
            want = want.d_dparam("x")
        want = want.eval_param({"x": r})
        got = s.eval_weighted("x", r, lambda a, n: math.prod(range(a - k + 1, a + 1)) / r ** k)
        assert got == want, (s, r, k)


def test_the_weight_is_evaluated_once_per_distinct_exponent_pair():
    s = QSeries(("x", "e"), 4, {
        1: ParamPoly(("x", "e"), {(1, 0): 1, (1, 2): 3, (-1, 0): F(1, 2)}),
        3: ParamPoly(("x", "e"), {(1, 0): 2, (1, 1): 5}),
    })
    at_2 = QSeries(("e",), 4, {1: ParamPoly(("e",), {(0,): F(7, 4), (2,): 6}),
                               3: ParamPoly(("e",), {(0,): F(4, 3), (1,): F(10, 3)})})
    # with x kept, the weight a + n/(2x)
    kept = QSeries(("x", "e"), 4, {
        1: ParamPoly(("x", "e"), {(1, 0): 1, (1, 2): 3, (-1, 0): -F(1, 2),
                                  (0, 0): F(1, 2), (0, 2): F(3, 2), (-2, 0): F(1, 4)}),
        3: ParamPoly(("x", "e"), {(1, 0): 2, (1, 1): 5, (0, 0): 3, (0, 1): F(15, 2)}),
    })
    for r, w, want in ((2, lambda a, n: F(a, n), at_2), (None, lambda a, n: {0: a, -1: F(n, 2)}, kept)):
        calls = []

        def weight(a, n):
            calls.append((a, n))
            return w(a, n)

        assert s.eval_weighted("x", r, weight) == want, r
        assert sorted(calls) == [(-1, 1), (1, 1), (1, 3)], r


def test_terms_that_cancel_leave_no_zero():
    # x - 2 vanishes at x = 2: its q^2 is not stored as a zero
    s = QSeries(("x",), 3, {2: ParamPoly(("x",), {(1,): 1, (0,): -2}), 3: ParamPoly(("x",), {(0,): 5})})
    got = s.eval_weighted("x", 2, lambda a, n: 1)
    assert got == QSeries((), 3, {3: 5}) and 2 not in got.coeffs
    # every exponent of x is positive: at x = 0 every term vanishes, and no zero is stored
    x = ParamPoly.var(("x",), "x")
    s = QSeries(("x",), 3, {1: x, 2: x * x * 3})
    got = s.eval_weighted("x", 0, lambda a, n: 1)
    assert got.is_zero() and got == s.eval_param({"x": 0}) == QSeries((), 3)


def test_a_pole_and_an_unknown_name_are_rejected():
    s = QSeries(("x",), 2, {1: ParamPoly(("x",), {(-1,): 1})})
    with pytest.raises(AlgebraError, match=r"pole at 0: x\^-1 evaluated at 0"):
        s.eval_weighted("x", 0, lambda a, n: 1)
    for r in (1, None):
        with pytest.raises(AlgebraError, match="unknown parameter 'z'"):
            s.eval_weighted("z", r, lambda a, n: {0: 1})


def test_the_moment_binomial_is_the_generalized_binomial():
    # the moment extraction and the oracle read one binomial
    assert B.gbinom is oracle.gbinom
    for m in range(-8, 9):
        for k in range(0, 7):
            assert B.gbinom(m, k) * math.factorial(k) == math.prod(m - i for i in range(k)), (m, k)
