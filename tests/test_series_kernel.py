"""The (1 - m)^power kernel against plain products with the expansion."""

import math
import random
from fractions import Fraction

import pytest

import _props
from qpairs import AlgebraError, ParamPoly, QSeries, series
from qpairs import builders as B
from qpairs import harness as H

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


@pytest.mark.usefixtures("int_kernel")
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
        got = s.mul_one_minus([(c, k, pexps, power)])
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
    got = s.mul_one_minus([(1, 0, {}, 2)])  # (1 - 1)^2 = 0
    assert got.is_zero() and got.order == 4 and not got.bounds
    # no operation but truncate keeps a declared bound
    assert not (s + s).bounds and not (s * s).bounds and not s.eval_param({"e": 2}).bounds
    assert s.truncate(3).bounds == {"d": 1}
    for k in (-1, 0, 1):  # m = 0: the factor is 1 at any q-power
        assert s.mul_one_minus([(0, k, {}, -1)]) == QSeries(PARAMS, 4, {1: 3})


GOOD = [(2, 1, {}, -1), (Fraction(1, 2), 0, {"d": 1}, 2), (Fraction(-3, 5), 2, {"e": -1}, 3)]


@pytest.mark.parametrize("c, k, pexps, power", [
    (1, -1, {}, 1),             # a positive power needs q-valuation >= 0
    (1, -1, {}, -1),            # a negative power needs q-valuation >= 1 ...
    (1, 0, {"d": 1}, -1),       # ... or a parameter-free constant
    (1, 0, {}, -2),             # ... other than 1
    (2, 1, {"x": 1}, 1),        # an unknown parameter
])
def test_kernel_rejects_factors_it_cannot_apply(c, k, pexps, power):
    s = QSeries(PARAMS, 3, {0: 1, 2: Fraction(1, 3)})
    with pytest.raises(AlgebraError) as alone:
        s.mul_one_minus([(c, k, pexps, power)])
    for at in range(len(GOOD) + 1):  # anywhere in a chain, with the same error
        with pytest.raises(AlgebraError) as chained:
            s.mul_one_minus(GOOD[:at] + [(c, k, pexps, power)] + GOOD[at:])
        assert str(chained.value) == str(alone.value)


def test_empty_chain_returns_the_series_without_its_bounds():
    s = QSeries(PARAMS, 4, {1: 3, 2: Fraction(1, 2)}).with_bounds({"d": 1})
    for factors in ([], [(0, 1, {}, -1)], [(2, 1, {"d": 1}, 0)]):  # no factor, or only factors 1
        got = s.mul_one_minus(factors)
        assert got == s and got is not s and not got.bounds


C_VALUES = [Fraction(1, 2), Fraction(2, 3), Fraction(-3, 5), 2, -1]


def chain_factor(rng: random.Random):
    """A factor ``(c, k, pexps, power)`` and the plain series it stands for, as a function
    of the width; None for the scalar ``(1 - c)^power`` of a parameter-free q^0 factor."""
    power, c, roll = rng.randint(-2, 3), rng.choice(C_VALUES), rng.random()
    if power and roll < 0.25:  # parameter-free q^0: a scalar, zero for c = 1 and a positive power
        if power > 0 and rng.random() < 0.2:
            c = 1
        return (c, 0, {}, power), None
    pexps = {p: rng.choice([-1, 0, 0, 1]) for p in PARAMS}
    if power > 0 and roll < 0.35:  # q^0 with a rational c and parameters: Fraction steps
        c, pexps["d"] = rng.choice(C_VALUES[:3]), rng.choice([-1, 1])
        return (c, 0, pexps, power), lambda width: expansion(c, 0, pexps, power, width)
    k = rng.randint(0 if power > 0 else 1, 3)
    if power == 0:
        return (c, k, pexps, power), lambda width: QSeries.one(PARAMS, width)
    return (c, k, pexps, power), lambda width: expansion(c, k, pexps, power, width)


def bounded(rng: random.Random) -> QSeries:
    """A series with declared degree bounds and a Fraction at q^0."""
    order = rng.randint(1, 5)
    coeffs = {0: Fraction(rng.randint(1, 4), rng.randint(2, 3))}
    for n in range(1, order + 1):
        coeffs[n] = _props.random_poly(rng, exp_range=(0, 2))
    return QSeries(PARAMS, order, coeffs).with_bounds({"d": 2, "e": 2})


@pytest.mark.usefixtures("int_kernel")
def test_chain_matches_factors_one_call_at_a_time_and_the_expansions():
    rng = random.Random(20261020)
    seen = {f"c={c}": 0 for c in C_VALUES} | {f"power={p}": 0 for p in range(-2, 4)}
    seen |= {f"q0_scalar_at_{i}": 0 for i in range(4)}
    seen |= {"q0_param": 0, "q0_scalar_pos": 0, "q0_scalar_neg": 0, "q0_zero": 0, "laurent": 0,
             "zero": 0, "bounded": 0, "fraction_lowest": 0, "int": 0, "fraction": 0}
    for _ in range(300):
        s = bounded(rng) if rng.random() < 0.15 else operand(rng)
        drawn = [chain_factor(rng) for _ in range(rng.randint(1, 4))]
        factors = [f for f, _ in drawn]
        got = s.mul_one_minus(factors)
        one_at_a_time, want = s, s
        for f, series in drawn:
            one_at_a_time = one_at_a_time.mul_one_minus([f])
            c, _, _, power = f
            # each expansion is exact to the full width of s: the plain product keeps s.order
            want = want * (Fraction(1 - c) ** power if series is None else series(s.order - s.valuation))
        assert got.order == one_at_a_time.order == want.order == s.order
        assert got.coeffs == one_at_a_time.coeffs == want.coeffs, (s, factors)
        assert _props.canonical(got)
        assert not got.bounds
        for i, (c, k, pexps, power) in enumerate(factors):
            scalar = k == 0 and not any(pexps.values())
            seen[f"c={c}"] = seen.get(f"c={c}", 0) + 1
            seen[f"power={power}"] += 1
            seen["q0_param"] += k == 0 and power > 0 and not scalar
            seen[f"q0_scalar_at_{i}"] += scalar
            seen["q0_scalar_pos"] += scalar and power > 0
            seen["q0_scalar_neg"] += scalar and power < 0
            if scalar and c == 1:
                assert got.is_zero()
                seen["q0_zero"] += not s.is_zero()
        seen["laurent"] += s.valuation < 0
        seen["zero"] += s.is_zero()
        seen["bounded"] += bool(s.bounds)
        seen["fraction_lowest"] += not s.is_zero() and any(
            type(v) is Fraction for v in s.coeffs[s.valuation].terms.values())
        for poly in got.coeffs.values():
            for v in poly.terms.values():
                seen["int" if type(v) is int else "fraction"] += 1
    assert all(seen.values()), seen


def test_steps_stop_at_the_window(monkeypatch):
    """Power-4800 factors on a series from q^1 to q^3: ``_recur`` gets no step above ``order - lo``."""
    passes = []
    real = series._recur

    def recur(start, steps, src, lo, order):
        passes.append((lo, order, [dn for dn, _, _ in steps]))
        return real(start, steps, src, lo, order)

    monkeypatch.setattr(series, "_recur", recur)
    s = QSeries((), 3, {1: 1, 3: Fraction(1, 2)})
    got = s.mul_one_minus([(1, 1, {}, 4800), (Fraction(1, 3), 1, {}, -4800)])
    assert len(passes) == 2
    for lo, order, dns in passes:
        assert lo == 1 and order == 3 and dns and max(dns) <= order - lo
    # (1 - q)^4800 (1 - q/3)^-4800 = 1 - 3200 q + (C(4800, 2) - 4800 * 1600 + C(4801, 2) / 9) q^2 + ...
    a = [1, -4800, math.comb(4800, 2)]
    b = [1, Fraction(4800, 3), Fraction(math.comb(4801, 2), 9)]
    ab = [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(3)]
    assert got == QSeries((), 3, {1: ab[0], 2: ab[1], 3: ab[2] + Fraction(1, 2)})


@pytest.mark.parametrize("case", ["theta-quotient", "durfee", "invert", "q0-rational"])
def test_kernel_runs_in_ints_and_stores_no_zero(int_kernel, case):
    """A chain with q^0 constants at rational points, a symbolic builder whose passes cancel
    terms, inverses whose leads are not units of the integers, and a q^0 factor with a
    parameter and a rational c: every kernel value is an int and no returned map holds a zero."""
    if case == "theta-quotient":  # J(1/3; q) / J(2/5; q) * (q; q)_inf: two (1 - z)^(+-1) at q^0
        got = B.times_poch(QSeries.one((), 12), *H._J(Fraction(1, 3), 0), *H._J(Fraction(2, 5), 0, p=-1),
                           H._qinf(1))
        assert got.order == 12 and got.coefficient(0) == Fraction(10, 9)
    elif case == "durfee":
        got = B.build("durfee:k=2", 8)
        assert got.order == 8 and not got.is_zero()
    elif case == "invert":
        d = ParamPoly.var(PARAMS, "d")
        for lead in (2, Fraction(-2, 3)):
            s = QSeries(PARAMS, 6, {1: lead * d, 2: d + 1, 4: Fraction(3, 5)})
            got = s.invert()
            assert got.order == 4 and _props.canonical(got)
            assert (got * s).equal_to_order(QSeries.one(PARAMS, 4), 4) == (True, None)
    else:  # (1 - d/2)^2 = (2 - d)^2 / 4
        s = QSeries(PARAMS, 5, {0: Fraction(1, 3), 2: ParamPoly.var(PARAMS, "e") + 1})
        got = s.mul_one_minus([(Fraction(1, 2), 0, {"d": 1}, 2)])
        assert got == s * expansion(Fraction(1, 2), 0, {"d": 1}, 2, 5) and _props.canonical(got)
    assert int_kernel["calls"] and not int_kernel["non_int"] and not int_kernel["non_int_key"] and not int_kernel["zeros"], \
        int_kernel


# monomials t = d^i e^j q^k that several factors of one chain share; the q^0 ones carry parameters
MONOMIALS = [(1, {}), (1, {"d": 1}), (2, {}), (2, {"d": -1, "e": 1}), (3, {"e": 1}), (0, {"d": 1}),
             (0, {"e": -1}), (1, {"d": 1, "e": 1})]


def shared_factor(rng: random.Random, pool: list):
    """A factor ``(c, k, pexps, power)`` on a monomial of ``pool``: a q^0 one has a positive
    power and, mostly, ``c = a/b`` with b > 1; any other has a power in -3..3 and may have c = 0."""
    k, pexps = rng.choice(pool)
    if k == 0:
        return rng.choice([Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), 2, -1]), k, pexps, rng.randint(1, 3)
    return rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 0]), k, pexps, rng.randint(-3, 3)


@pytest.mark.usefixtures("int_kernel")
def test_chains_on_shared_monomials_match_factors_one_call_at_a_time():
    """Factors on one monomial multiply out into one polynomial per sign, cut at the window:
    the chain equals the factors applied one call at a time, in any order."""
    rng = random.Random(20261021)
    seen = {"positive_group": 0, "negative_group": 0, "cut": 0, "q0_rational": 0, "zero_c": 0, "laurent": 0}
    for _ in range(250):
        s = bounded(rng) if rng.random() < 0.15 else operand(rng)
        pool = rng.sample(MONOMIALS, rng.choice([3, 4]))
        factors = [shared_factor(rng, pool) for _ in range(rng.randint(6, 12))]
        shuffled = rng.sample(factors, len(factors))
        got = s.mul_one_minus(factors)
        assert got.order == s.order and not got.bounds and _props.canonical(got)
        assert got.coeffs == _props.one_at_a_time(s, factors).coeffs == s.mul_one_minus(shuffled).coeffs, (s, factors)
        # the factors that share a monomial and a sign, and the degree they reach together
        groups: dict = {}
        for c, k, pexps, power in factors:
            if c and power:
                group = groups.setdefault((k, tuple(sorted(pexps.items())), power > 0), [0, 0])
                group[0] += 1
                group[1] += abs(power)
        room = s.order - s.valuation
        seen["positive_group"] += any(n > 1 for (_, _, pos), (n, _) in groups.items() if pos)
        seen["negative_group"] += any(n > 1 for (_, _, pos), (n, _) in groups.items() if not pos)
        seen["cut"] += not s.is_zero() and any(k and degree > room // k for (k, _, _), (_, degree) in groups.items())
        seen["q0_rational"] += any(k == 0 and Fraction(c).denominator > 1 for c, k, _, _ in factors)
        seen["zero_c"] += any(not c for c, _, _, _ in factors)
        seen["laurent"] += s.valuation < 0
    assert all(seen.values()), seen


@pytest.mark.usefixtures("int_kernel")
def test_chains_mixing_singleton_and_shared_monomials_match_factors_one_call_at_a_time(monkeypatch):
    """A factor whose monomial no other factor of the chain shares is one pass of its own row,
    none where its monomial lies past the window, and the factors on a shared monomial keep
    their one polynomial per sign: the chain equals the factors applied one call at a time."""
    rng = random.Random(20261022)
    passes = passes_of(monkeypatch)
    seen = {"single_product": 0, "single_division": 0, "single_q0": 0, "single_past": 0, "shared": 0,
            "laurent": 0}
    for _ in range(200):
        s = bounded(rng) if rng.random() < 0.15 else operand(rng)
        pool = rng.sample(MONOMIALS, 5)
        factors = [shared_factor(rng, pool[:2]) for _ in range(rng.randint(2, 6))]
        factors += [shared_factor(rng, [t]) for t in pool[2:]]
        rng.shuffle(factors)
        del passes[:]
        got = s.mul_one_minus(factors)
        made = len(passes)
        assert got.order == s.order and not got.bounds and _props.canonical(got)
        assert got.coeffs == _props.one_at_a_time(s, factors).coeffs, (s, factors)
        # a monomial met once makes one pass unless it lies past the window; each other one at most two
        live = [(k, tuple(sorted(p.items()))) for c, k, p, power in factors if c and power]
        room = s.order - s.valuation
        single = [k for k, p in live if live.count((k, p)) == 1 and (k == 0 or k <= room)]
        assert s.is_zero() or len(single) <= made <= len(single) + 2 * len(set(live) - set(single)), factors
        for c, k, p, power in factors:
            if c and power and live.count((k, tuple(sorted(p.items())))) == 1 and not s.is_zero():
                seen["single_q0" if k == 0 else "single_past" if k > room else
                     "single_product" if power > 0 else "single_division"] += 1
        seen["shared"] += any(live.count(t) > 1 for t in live)
        seen["laurent"] += s.valuation < 0
    assert all(seen.values()), seen


def test_a_chain_with_two_bad_factors_reports_the_first():
    s = QSeries(PARAMS, 3, {0: 1, 2: Fraction(1, 3)})
    first, second = (1, 0, {"d": 1}, -1), (1, -1, {}, 1)
    errors = []
    for bad in (first, second):
        with pytest.raises(AlgebraError) as alone:
            s.mul_one_minus([bad])
        errors.append(str(alone.value))
    assert errors == ["cannot apply (1 - m)^-1 for m = 1*q^0 with exponents (1, 0)",
                      "cannot apply (1 - m)^1 for m = 1*q^-1 with exponents (0, 0)"]
    for chain, text in ((GOOD[:1] + [first] + GOOD[1:] + [second], errors[0]),
                        ([second] + GOOD + [first], errors[1])):
        with pytest.raises(AlgebraError) as chained:
            s.mul_one_minus(chain)
        assert str(chained.value) == text


def passes_of(monkeypatch) -> list:
    """Wrap ``series._recur`` and list for each pass whether it is a division."""
    passes = []
    real = series._recur

    def recur(start, steps, src, lo, order):
        passes.append(src is None)
        return real(start, steps, src, lo, order)

    monkeypatch.setattr(series, "_recur", recur)
    return passes


def test_a_theta_quotient_is_two_passes_per_q_exponent(monkeypatch):
    """C13's right-hand quotient at order 20: 300 factors over the exponents q^1 .. q^20 take at
    most two passes each, and give what the factors give one call at a time."""
    x, z = H.XZ_POINTS[0]
    quotient = (*H._J(z, 0), *H._J(z * z, 0), *H._J(-x, 0), H._qinf(2),
                *H._J(-z, 0, p=-1), *H._J(x * z, 0, p=-1), *H._J(x / z, 0, p=-1), *H._J(x, 0, p=-1))
    calls = []
    real = QSeries.mul_one_minus
    monkeypatch.setattr(QSeries, "mul_one_minus", lambda s, factors: calls.append(factors) or real(s, factors))
    passes = passes_of(monkeypatch)
    got = B.times_poch(QSeries.one((), 20), *quotient)
    (factors,) = calls
    qexps = [k for _, k, _, _ in factors if k]
    assert len(qexps) == 300 and set(qexps) == set(range(1, 21))
    assert len(passes) <= 2 * 20
    monkeypatch.undo()
    assert got == _props.one_at_a_time(QSeries.one((), 20), factors)


def test_rank_ratios_divide_in_one_pass(monkeypatch):
    """``rank_gf(8, x=2)`` divides each Horner ratio by (1 - 2Q^n)(1 - Q^n/2), one monomial,
    in one pass, and skips the division where Q^n lies past the window."""
    passes = passes_of(monkeypatch)
    B.rank_gf(8, x=2)
    # from the top ratio down: 8 products by (d + Q^(n-1))(e + Q^(n-1)), each of the 4 with
    # Q^n inside the window followed by its division
    assert passes == [False] * 4 + [False, True] * 4
