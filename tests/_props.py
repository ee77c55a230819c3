"""Randomized property helpers shared by the property and acceptance tests.

Everything is driven by a seeded Random instance so failures replay
exactly.  Instances are deliberately tiny: the point is coverage of the
arithmetic paths, not stress testing.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from qpairs import AlgebraError, ParamPoly, QSeries, builders, poly

PARAMS = ("d", "e")


def random_poly(rng: random.Random, params=PARAMS, max_terms: int = 3,
                exp_range=(-2, 2)) -> ParamPoly:
    acc = ParamPoly.zero(params)
    for _ in range(rng.randint(0, max_terms)):
        exps = {p: rng.randint(*exp_range) for p in params}
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        acc = acc + ParamPoly.monomial(params, exps, c)
    return acc


def random_series(rng: random.Random, params=PARAMS) -> QSeries:
    val = rng.randint(-2, 2)
    order = val + rng.randint(0, 5)
    terms = []
    for n in range(val, order + 1):
        if rng.random() < 0.7:
            p = random_poly(rng, params)
            if p.terms:
                terms.append((n, p))
    return QSeries.from_terms(params, terms, order)


def random_unit_series(rng: random.Random, params=PARAMS) -> QSeries:
    """Series whose leading coefficient is a single invertible monomial."""
    val = rng.randint(-2, 2)
    order = val + rng.randint(1, 5)
    c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    lead = ParamPoly.monomial(params, {p: rng.randint(-1, 1) for p in params}, c)
    terms = [(val, lead)]
    for n in range(val + 1, order + 1):
        if rng.random() < 0.7:
            p = random_poly(rng, params)
            if p.terms:
                terms.append((n, p))
    return QSeries.from_terms(params, terms, order)


def canonical_poly(p: ParamPoly) -> bool:
    """``p`` is in its integer form: one denominator ``den >= 1`` coprime to the numerators,
    no zero numerator, int keys that decode to vectors of the poly's arity within its reach
    and the slot range and pack back to themselves; and the ``terms`` view gives an int
    exactly when a coefficient is integral."""
    arity = len(p.params)
    assert type(p.den) is int and p.den >= 1, p.den
    assert math.gcd(p.den, *p.num.values()) == 1, (p.den, p.num)
    assert all(type(c) is int and c for c in p.num.values()), p.num
    assert 0 <= p.reach <= poly.EXP_LIMIT, p.reach
    for key in p.num:
        assert type(key) is int and 0 <= key < 1 << (poly.SLOT_BITS * arity), key
        vec = poly._unpack(key, arity)
        assert len(vec) == arity and max(map(abs, vec), default=0) <= p.reach, (vec, p.reach)
        assert poly._pack(arity, {vec: 1})[0] == {key: 1}, (key, vec)
    assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction) for c in p.terms.values())
    return True


def canonical(s: QSeries) -> bool:
    """Every stored coefficient is in its integer form (:func:`canonical_poly`)."""
    return all(canonical_poly(p) for p in s.coeffs.values())


def check_ring_axioms(rng: random.Random, rounds: int) -> int:
    done = 0
    for _ in range(rounds):
        a, b, c = (random_series(rng) for _ in range(3))
        lhs = (a + b) + c
        rhs = a + (b + c)
        ok, _ = lhs.equal_to_order(rhs, min(lhs.order, rhs.order))
        assert ok
        lhs = a * (b + c)
        rhs = a * b + a * c
        n = min(lhs.order, rhs.order)
        if n >= min(lhs.valuation, rhs.valuation):
            ok, report = lhs.equal_to_order(rhs, n)
            assert ok, report
        done += 1
    return done


def check_inverse(rng: random.Random, rounds: int) -> int:
    done = 0
    for _ in range(rounds):
        a = random_unit_series(rng)
        inv = a.invert()
        for prod in (a * inv, inv * a):
            one = QSeries.one(PARAMS, prod.order)
            ok, report = prod.equal_to_order(one, prod.order)
            assert ok, report
        done += 1
    return done


def check_derivation(rng: random.Random, rounds: int) -> int:
    done = 0
    for _ in range(rounds):
        a, b = random_series(rng), random_series(rng)
        lhs = (a * b).delta_q()
        rhs = a.delta_q() * b + a * b.delta_q()
        n = min(lhs.order, rhs.order)
        if n >= min(lhs.valuation, rhs.valuation):
            ok, report = lhs.equal_to_order(rhs, n)
            assert ok, report
        done += 1
    return done


def check_truncation_soundness(rng: random.Random, rounds: int) -> int:
    """Product at guard order then truncated agrees with the direct product."""
    done = 0
    for _ in range(rounds):
        a, b = random_unit_series(rng), random_unit_series(rng)
        extra = rng.randint(1, 4)
        wide_a = QSeries.from_terms(PARAMS, list(a.coeffs.items()), a.order + extra)
        wide_b = QSeries.from_terms(PARAMS, list(b.coeffs.items()), b.order + extra)
        direct = a * b
        wide = wide_a * wide_b
        n = min(direct.order, wide.order)
        ok, report = direct.equal_to_order(wide, n)
        assert ok, report
        done += 1
    return done


def check_bound_validation(rng: random.Random, rounds: int) -> int:
    done = 0
    for _ in range(rounds):
        order = rng.randint(2, 6)
        terms = [(n, ParamPoly.monomial(("d",), {"d": rng.randint(0, n)}))
                 for n in range(1, order + 1)]
        s = QSeries.from_terms(("d",), terms, order)
        s.with_bounds({"d": 1})
        bad = s + QSeries.monomial(("d",), order, 1, 1, {"d": 2})
        try:
            bad.with_bounds({"d": 1})
        except AlgebraError:
            pass
        else:
            raise AssertionError("bound violation not detected")
        done += 1
    return done


def check_substitution_resummation(rng: random.Random, rounds: int) -> int:
    """substitute_param then a rational q surrogate equals direct resummation."""
    done = 0
    q0 = Fraction(1, 2)
    for _ in range(rounds):
        order = rng.randint(2, 6)
        terms = []
        for n in range(order + 1):
            p = ParamPoly.zero(("d",))
            for k in range(rng.randint(0, 2) + 1):
                if rng.random() < 0.6:
                    p = p + ParamPoly.monomial(("d",), {"d": rng.randint(0, n)},
                                               Fraction(rng.randint(-3, 3)))
            if p.terms:
                terms.append((n, p))
        s = QSeries.from_terms(("d",), terms, order).with_bounds({"d": 1})
        c = Fraction(rng.choice([1, 2, -1]), rng.choice([1, 3]))
        j = rng.choice([0, 1])
        t = s.substitute_param({"d": (c, j)})
        assert t.params == ()
        total = Fraction(0)
        for n in range(t.valuation, t.order + 1):
            total += t.coefficient(n).constant_value() * q0 ** n
        expected = Fraction(0)
        for n, p in s.coeffs.items():
            for vec, cc in p.sorted_terms():
                k = vec[p.params.index("d")]
                if n + j * k <= t.order:
                    expected += cc * c ** k * q0 ** (n + j * k)
        assert total == expected
        done += 1
    return done


def check_prefactor_reach(rng: random.Random, rounds: int) -> tuple[int, int, int]:
    """``builders._prefactor(s, d, e, base)``, whose infinite products stop at
    the window of ``s``, equals the dense product ``P * s`` with ``P`` built
    factor by factor two orders past that window.  Returns the instance count
    and how many draws were the zero series or had a negative valuation."""
    values = (None, Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3))
    zeros = laurent = 0
    for _ in range(rounds):
        d, e, base = rng.choice(values), rng.choice(values), rng.randint(1, 3)
        params = tuple(p for p, v in (("d", d), ("e", e)) if v is None)
        s = random_series(rng, params)
        zeros += s.is_zero()
        laurent += s.valuation < 0
        # d and e as (coefficient, exponents), symbolic or rational
        (dc, dx), (ec, ex) = ((1, {p: 1}) if v is None else (v, {}) for p, v in (("d", d), ("e", e)))
        top = s.order - s.valuation + 2
        P = QSeries.one(params, top)
        for k in range(1, top // base + 1):
            for factor in ((-dc, base * k, dx, 1), (-ec, base * k, ex, 1),
                           (1, base * k, (), -1), (dc * ec, base * k, {**dx, **ex}, -1)):
                P = P.mul_one_minus([factor])
        got, want = builders._prefactor(s, d, e, base), P * s
        assert got.order == want.order == s.order, (got.order, want.order, s.order)
        assert got == want, (s, d, e, base)
    return rounds, zeros, laurent


def run_all(seed: int = 20260825, scale: int = 1) -> int:
    """Run every property family; returns the total instance count."""
    rng = random.Random(seed)
    total = 0
    total += check_ring_axioms(rng, 150 * scale)
    total += check_inverse(rng, 1000 * scale)
    total += check_derivation(rng, 150 * scale)
    total += check_truncation_soundness(rng, 150 * scale)
    total += check_bound_validation(rng, 50 * scale)
    total += check_substitution_resummation(rng, 100 * scale)
    return total



def check_eval_many(rng: random.Random, rounds: int):
    """One joint ``QSeries.eval_param`` against single-name evaluations in a
    random order: equal series with equal texts, or an AlgebraError where a
    named value is 0 and a coefficient has a negative power of that name.
    Returns the rounds done, and how many drew the zero series, a pole and a
    Fraction result coefficient."""
    params = ("d", "e", "x")
    zeros = poles = fractions = 0
    for _ in range(rounds):
        coeffs = {n: random_poly(rng, params, max_terms=5, exp_range=(-3, 3))
                  for n in rng.sample(range(-1, 3), rng.randint(1, 2))}
        s = QSeries(params, 2, coeffs)
        names = rng.sample(params, rng.randint(0, len(params)))
        values = {name: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for name in names}
        zeros += s.is_zero()
        if any(r == 0 and c.min_degree(name) < 0 for name, r in values.items() for c in s.coeffs.values()):
            poles += 1
            try:
                s.eval_param(values)
            except AlgebraError:
                continue
            raise AssertionError(f"no pole for {s} at {values}")
        got = s.eval_param(values)
        want = s
        for name in rng.sample(names, len(names)):
            want = want.eval_param({name: values[name]})
        assert got == want and str(got) == str(want), (s, values)
        fractions += any(type(c) is Fraction for p in got.coeffs.values() for c in p.terms.values())
    return rounds, zeros, poles, fractions
