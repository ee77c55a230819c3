"""The recurrence kernel's product and inverse against the pair-by-pair loops they replaced."""

import random
from fractions import Fraction

import pytest

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


@pytest.mark.usefixtures("int_kernel")
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
    c, vec = a.coeffs[v].as_monomial()
    lead_inv = ParamPoly(a.params, {tuple(-e for e in vec): Fraction(1) / c})
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


@pytest.mark.usefixtures("int_kernel")
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


def naive_product(a: QSeries, b: QSeries):
    """The order and the coefficients of ``a * b`` by a plain Fraction convolution, term pair
    by term pair, zero sums dropped."""
    order = min(a.order + b.valuation, b.order + a.valuation)
    sums = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j <= order:
                acc = sums.setdefault(i + j, {})
                for u, cu in x.terms.items():
                    for v, cv in y.terms.items():
                        key = tuple(p + q for p, q in zip(u, v))
                        acc[key] = acc.get(key, Fraction(0)) + Fraction(cu) * Fraction(cv)
    coeffs = {n: {key: c for key, c in acc.items() if c} for n, acc in sums.items()}
    return order, {n: acc for n, acc in coeffs.items() if acc}


def scaled_operand(rng: random.Random):
    """An operand and its kind: zero, Laurent, q^0-rational, all-int or mixed-denominator."""
    s = _props.random_series(rng)
    kind = rng.choice(["zero", "laurent", "q0_rational", "int", "mixed"])
    if kind == "zero":
        return QSeries.zero(s.params, s.order), kind
    if kind == "laurent":
        val = rng.randint(-3, -1)
        return QSeries(s.params, val + rng.randint(0, 5), {val: _props.random_poly(rng) + 1, **s.coeffs}), kind
    if kind == "q0_rational":  # one rational coefficient at q^0
        c = Fraction(rng.choice([-5, -2, 1, 3, 7]), rng.choice([2, 3, 5]))
        return QSeries(s.params, s.order, {0: _props.random_poly(rng) * c + c}), kind
    if kind == "int":
        return s * 60, kind
    # a different denominator at each exponent
    dens = [2, 3, 5, 7, 9]
    return QSeries(s.params, s.order, {n: p * Fraction(1, rng.choice(dens)) for n, p in s.coeffs.items()}), kind


def test_scaled_product_matches_fraction_convolution():
    rng = random.Random(20261021)
    seen = {kind: 0 for kind in ("zero", "laurent", "q0_rational", "int", "mixed")} | {"int": 0, "fraction": 0}
    for _ in range(600):
        (a, ka), (b, kb) = scaled_operand(rng), scaled_operand(rng)
        got = a * b
        order, coeffs = naive_product(a, b)
        assert got.order == order
        assert {n: p.terms for n, p in got.coeffs.items()} == coeffs, (a, b)
        assert _props.canonical(got)
        seen[ka] += 1
        seen[kb] += 1
        for poly in got.coeffs.values():
            for c in poly.terms.values():
                seen["int" if type(c) is int else "fraction"] += 1
    assert all(seen.values()), seen
