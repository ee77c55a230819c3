"""The (1 - m)^power kernel against plain products with the expansion."""

import random
from fractions import Fraction

import pytest

import _props
from qpairs import AlgebraError, QSeries

PARAMS = _props.PARAMS


def expansion(c, k: int, pexps: dict, power: int, order: int) -> QSeries:
    """``(1 - m)^power`` for ``m = c * d^i * e^j * q^k`` as a plain series
    exact to ``order``: the two-term polynomial multiplied out for a
    positive power, the geometric series ``sum_i m^i`` multiplied out for a
    negative one."""
    one = QSeries.one(PARAMS, order)
    m = QSeries.monomial(PARAMS, order, c, k, pexps)
    if power > 0:
        base = one - m
    else:
        base, t = one, one
        while not (t := (t * m).truncate(order)).is_zero():
            base = base + t
    out = one
    for _ in range(abs(power)):
        out = out * base
    return out.truncate(order)


def operand(rng: random.Random) -> QSeries:
    s = _props.random_series(rng)
    roll = rng.random()
    if roll < 0.1:
        return QSeries.zero(s.params, s.order)
    if roll < 0.3:  # all-integer coefficients
        return s * 6
    return s


def test_kernel_matches_product_with_expansion():
    rng = random.Random(20261019)
    seen = {"symbolic": 0, "rational": 0, "laurent": 0, "zero": 0, "scalar": 0,
            "int": 0, "fraction": 0}
    for _ in range(800):
        s = operand(rng)
        power = rng.choice([-2, -1, 1, 2, 3])
        c = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
        pexps = {p: rng.choice([-1, 0, 0, 1]) for p in PARAMS}
        k = rng.randint(0 if power > 0 else 1, 3)
        if power < 0 and rng.random() < 0.15:  # q^0 division: a nonzero scalar only
            k, pexps, c = 0, {}, rng.choice([-1, 2, Fraction(1, 2), Fraction(-2, 3)])
            want = s * Fraction(1 - c) ** power
            seen["scalar"] += 1
        else:
            # the expansion is exact to the full width of s, so the plain
            # product is exact to s.order
            want = s * expansion(c, k, pexps, power, s.order - s.valuation)
        got = s.mul_one_minus(c, k, pexps, power)
        assert got.order == want.order == s.order
        assert got.coeffs == want.coeffs
        assert _props.canonical(got)
        assert not got.bounds
        seen["symbolic"] += any(pexps.values())
        seen["rational"] += Fraction(c).denominator != 1
        seen["laurent"] += s.valuation < 0
        seen["zero"] += s.is_zero()
        for poly in got.coeffs.values():
            for v in poly.terms.values():
                seen["int" if type(v) is int else "fraction"] += 1
    assert all(seen.values()), seen


def test_kernel_drops_bounds_and_keeps_order_past_a_zero_factor():
    s = QSeries(PARAMS, 4, {1: 3}).with_bounds({"d": 1})
    got = s.mul_one_minus(1, 0, {}, 2)  # (1 - 1)^2 = 0
    assert got.is_zero() and got.order == 4 and not got.bounds
    # no operation but truncate keeps a declared bound
    assert not (s + s).bounds and not (s * s).bounds and not s.eval_param("e", 2).bounds
    assert s.truncate(3).bounds == {"d": 1}
    for k in (-1, 0, 1):  # m = 0: the factor is 1 at any q-power
        assert s.mul_one_minus(0, k, {}, -1) == QSeries(PARAMS, 4, {1: 3})


@pytest.mark.parametrize("c, k, pexps, power", [
    (1, -1, {}, 1),             # a positive power needs q-valuation >= 0
    (1, -1, {}, -1),            # a negative power needs q-valuation >= 1 ...
    (1, 0, {"d": 1}, -1),       # ... or a parameter-free constant
    (1, 0, {}, -2),             # ... other than 1
    (2, 1, {"x": 1}, 1),        # an unknown parameter
])
def test_kernel_rejects_factors_it_cannot_apply(c, k, pexps, power):
    with pytest.raises(AlgebraError):
        QSeries.one(PARAMS, 3).mul_one_minus(c, k, pexps, power)
