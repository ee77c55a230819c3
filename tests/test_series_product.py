"""The recurrence kernel's product and inverse against the pair-by-pair loops they replaced."""

import random
from fractions import Fraction

import _props
from qpairs import ParamPoly, QSeries


def reference_product(a: QSeries, b: QSeries) -> QSeries:
    """One ParamPoly product and one addition per coefficient pair."""
    order = min(a.order + b.valuation, b.order + a.valuation)
    coeffs = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j <= order:
                prod = x * y
                acc = coeffs.get(i + j)
                coeffs[i + j] = prod if acc is None else acc + prod
    return QSeries(a.params, order, coeffs)


def operand(rng: random.Random) -> QSeries:
    s = _props.random_series(rng)
    roll = rng.random()
    if roll < 0.1:
        return QSeries.zero(s.params, s.order)
    if roll < 0.3:  # all-integer coefficients
        return s * 6
    return s


def test_fused_product_matches_pairwise_reference():
    rng = random.Random(20261018)
    seen = {"laurent": 0, "zero": 0, "unequal_orders": 0, "int": 0, "fraction": 0}
    for _ in range(600):
        a, b = operand(rng), operand(rng)
        got, want = a * b, reference_product(a, b)
        assert got.order == want.order
        assert got.coeffs == want.coeffs
        assert _props.canonical(got)
        seen["laurent"] += min(a.valuation, b.valuation) < 0
        seen["zero"] += a.is_zero() or b.is_zero()
        seen["unequal_orders"] += a.order != b.order
        for poly in got.coeffs.values():
            for c in poly.terms.values():
                seen["int" if type(c) is int else "fraction"] += 1
    assert all(seen.values()), seen


def test_product_cancellation_leaves_no_zero_coefficients():
    x = ParamPoly.var(("d",), "d")
    a = QSeries(("d",), 3, {0: 1, 1: x})
    b = QSeries(("d",), 3, {0: 1, 1: -x})
    got = a * b
    assert got.coeffs == {0: ParamPoly.const(("d",), 1), 2: -(x * x)}
    half = QSeries(("d",), 3, {0: Fraction(1, 2), 1: Fraction(1, 2) * x})
    assert (half * QSeries(("d",), 3, {0: 2})).coeffs[0].terms == {(0,): 1}


def reference_inverse(a: QSeries) -> QSeries:
    """One ParamPoly product and one addition per coefficient pair."""
    v = a.valuation
    lead_inv = a.coeffs[v].monomial_inverse()
    shifted = {n - v: c for n, c in a.coeffs.items()}
    out = {0: lead_inv}
    for n in range(1, a.order - v + 1):
        acc = ParamPoly.zero(a.params)
        for k, c in shifted.items():
            if 1 <= k <= n and n - k in out:
                acc = acc + c * out[n - k]
        if not acc.is_zero():
            out[n] = -(lead_inv * acc)
    return QSeries(a.params, a.order - 2 * v, {n - v: c for n, c in out.items()})


def unit_operand(rng: random.Random) -> QSeries:
    s = _props.random_unit_series(rng)
    roll = rng.random()
    if roll < 0.15:  # the leading monomial alone
        return QSeries(s.params, s.order, {s.valuation: s.coeffs[s.valuation]})
    if roll < 0.35:  # all-integer coefficients
        return s * 6
    return s


def test_recurrence_inverse_matches_pairwise_reference():
    rng = random.Random(20261019)
    seen = {"laurent": 0, "rational_lead": 0, "symbolic_lead": 0, "single_term": 0,
            "int": 0, "fraction": 0}
    for _ in range(600):
        a = unit_operand(rng)
        got, want = a.invert(), reference_inverse(a)
        assert got.order == want.order
        assert got.coeffs == want.coeffs
        assert _props.canonical(got)
        ((vec, c),) = a.coeffs[a.valuation].terms.items()
        seen["laurent"] += a.valuation < 0
        seen["rational_lead"] += type(c) is Fraction
        seen["symbolic_lead"] += any(vec)
        seen["single_term"] += len(a.coeffs) == 1
        for poly in got.coeffs.values():
            for x in poly.terms.values():
                seen["int" if type(x) is int else "fraction"] += 1
    assert all(seen.values()), seen
