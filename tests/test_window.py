"""The exact-order contract at the kernel: a window holds whatever lies above it.

A series exact to q^o stands for every series that agrees with it through
q^o.  Each test draws two random completions of a series above its order,
respecting its declared degree bounds, applies one operation to the series
and to both completions, and asks that all three agree through the order the
operation reports for the series itself.  ``tests/test_order_contract.py`` is
the builder-level counterpart.

The second half checks the joint ``substitute_param`` against the chain of
single substitutions it replaced in ``builders.build``.
"""

import math
import random
from fractions import Fraction

import pytest

from qpairs import AlgebraError, ParamPoly, QSeries

F = Fraction
PARAMS = ("d", "e", "x")  # d and e carry degree bounds when declared, x never
SLOPES = (F(0), F(1, 5), F(2, 7), F(1, 3), F(1, 2), F(1), F(2))
EXTRA = 4  # how far above the window a completion reaches


def random_poly(rng: random.Random, n: int, bounds: dict) -> ParamPoly:
    """A random coefficient of q^n: exponents of a bounded name within [0, slope*n]."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        vec = tuple(rng.randint(0, math.floor(bounds[p] * n)) if p in bounds else rng.randint(-2, 2)
                    for p in PARAMS)
        terms[vec] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return ParamPoly(PARAMS, terms)


def random_series(rng: random.Random, bounds: dict, unit: bool = False) -> QSeries:
    """A random series with the declared bounds (valuation >= 0 if any), or with
    a leading monomial that is a unit when ``unit``."""
    lo = 0 if bounds else rng.randint(-2, 2)
    order = lo + rng.randint(0, 5)
    coeffs = {n: random_poly(rng, n, bounds) for n in range(lo, order + 1) if rng.random() < 0.7}
    if unit:
        coeffs[lo] = ParamPoly.monomial(PARAMS, {p: 0 if p in bounds else rng.randint(-1, 1) for p in PARAMS},
                                        F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
    return QSeries(PARAMS, order, coeffs).with_bounds(bounds)


def completion(rng: random.Random, s: QSeries) -> QSeries:
    """``s`` with random terms at q^(order+1) .. q^(order+EXTRA), within its bounds."""
    top = s.order + EXTRA
    extra = {n: random_poly(rng, n, s.bounds) for n in range(s.order + 1, top + 1)}
    return QSeries(PARAMS, top, {**s.coeffs, **extra}).with_bounds(s.bounds)


def random_bounds(rng: random.Random) -> dict:
    return {p: rng.choice(SLOPES) for p in ("d", "e") if rng.random() < 0.8}


def substitution(rng: random.Random, s: QSeries, names) -> dict:
    """Random ``{p: (c, j)}``: a move for a bounded name, an evaluation otherwise
    (at a nonzero point, since a completion may hold negative powers)."""
    out = {}
    for p in names:
        if p in s.bounds:
            out[p] = (rng.choice([F(0), F(1), F(-1), F(1, 2), F(3)]), rng.randint(-2, 2))
        else:
            out[p] = (rng.choice([F(1), F(-1), F(1, 2), F(3)]), 0)
    return out


def one_minus_factors(rng: random.Random):
    factors = []
    for _ in range(rng.randint(1, 3)):
        power = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.25:  # parameter-free q^0: the scalar (1 - c)^power, 0 for c = 1
            factors.append((rng.choice([1, -1, F(1, 2), 2] if power > 0 else [-1, F(1, 2), 2]), 0, {}, power))
            continue
        pexps = {p: rng.choice([-1, 0, 0, 1]) for p in PARAMS}
        factors.append((rng.choice([1, -1, F(1, 2), 2]), rng.randint(0 if power > 0 else 1, 3), pexps, power))
    return factors


def draw(rng: random.Random):
    """One operation on random operands: ``(name, operands, op)`` where ``op``
    maps completions of the operands to a series."""
    name = rng.choice(OPERATIONS)
    bounds = random_bounds(rng)
    s = random_series(rng, bounds, unit=name == "invert")
    if name == "substitute_param":
        values = substitution(rng, s, [rng.choice(PARAMS)])
        return name, (s,), lambda a: a.substitute_param(values)
    if name == "substitute_param_joint":
        values = substitution(rng, s, rng.sample(PARAMS, rng.randint(2, 3)))
        return name, (s,), lambda a: a.substitute_param(values)
    if name == "eval_param":
        values = {p: c for p, (c, j) in substitution(rng, s, rng.sample(PARAMS, rng.randint(1, 3))).items()}
        return name, (s,), lambda a: a.eval_param(values)
    if name == "mul_one_minus":
        factors = one_minus_factors(rng)
        return name, (s,), lambda a: a.mul_one_minus(factors)
    if name == "product":
        return name, (s, random_series(rng, random_bounds(rng))), lambda a, b: a * b
    if name == "sum":
        return name, (s, random_series(rng, random_bounds(rng))), lambda a, b: a + b
    if name == "invert":
        return name, (s,), lambda a: a.invert()
    if name == "shift":
        j = rng.randint(-3, 3)
        return name, (s,), lambda a: a.shift(j)
    if name == "delta_q":
        return name, (s,), lambda a: a.delta_q()
    if name == "d_dparam":
        p = rng.choice(PARAMS)
        return name, (s,), lambda a: a.d_dparam(p)
    if name == "eval_weighted":  # at a nonzero point, since a completion may hold negative powers
        p, r = rng.choice(PARAMS), rng.choice([F(1), F(-2), F(1, 2), F(3)])
        cs = [rng.choice([0, 1, -2, F(1, 3)]) for _ in range(3)]
        return name, (s,), lambda a: a.eval_weighted(p, r, lambda e, n: cs[0] + cs[1] * e * e + cs[2] * n)
    if name == "eval_weighted_kept":  # p stays: the weight is a Laurent polynomial in p
        p, cs = rng.choice(PARAMS), [rng.choice([0, 1, -2, F(1, 3)]) for _ in range(3)]
        return name, (s,), lambda a: a.eval_weighted(p, None, lambda e, n: {-1: cs[0], 0: cs[1] * e * e, 2: cs[2] * n})
    m = rng.randint(s.valuation - 2, s.order)
    return name, (s,), lambda a: a.truncate(m)


OPERATIONS = ("substitute_param", "substitute_param_joint", "eval_param", "mul_one_minus",
              "product", "sum", "invert", "shift", "delta_q", "d_dparam", "eval_weighted", "eval_weighted_kept",
              "truncate")


def test_operations_agree_on_every_completion_through_the_order_they_report():
    rng = random.Random(20261019)
    seen = dict.fromkeys(OPERATIONS, 0)
    for _ in range(1200):
        name, operands, op = draw(rng)
        try:
            want = op(*operands)
        except AlgebraError:  # an underflowing substitution, say: nothing is claimed
            continue
        got = [op(*(completion(rng, s) for s in operands)) for _ in range(2)]
        for g in got:
            assert g.order >= want.order, (name, operands)
            ok, report = g.equal_to_order(want, want.order)
            assert ok, (name, operands, report)
        seen[name] += 1
    assert all(n >= 50 for n in seen.values()), seen


# -- joint substitution against the chain it replaced ---------------------


def chained(s: QSeries, values: dict) -> QSeries:
    """The former per-substitution loop of ``builders.build``: one name at a time,
    re-declaring its bound first, and after a substitution with j < 0 dividing
    the other slopes by its shrink ``1 + j*slope``."""
    slopes = dict(s.bounds)
    for p, (c, j) in values.items():
        if p in slopes:  # a substitution returns no bounds: re-declare
            s = s.with_bounds({p: slopes[p]})
        s = s.substitute_param({p: (c, j)})
        if j < 0:
            shrink = 1 + j * slopes.pop(p)
            slopes = {name: v / shrink for name, v in slopes.items()}
    return s


@pytest.mark.parametrize("order_of_names", [("d", "e"), ("e", "d")])
def test_joint_substitution_agrees_with_the_chain_on_its_window(order_of_names):
    rng = random.Random(20261020)
    agreed = underflows = narrower = 0
    for _ in range(600):
        s = random_series(rng, {p: rng.choice(SLOPES) for p in ("d", "e")})
        values = {p: (rng.choice([F(1), F(-1), F(1, 2), F(3)]), rng.randint(-2, 2)) for p in order_of_names}
        try:
            chain = chained(s, values)
        except AlgebraError:
            with pytest.raises(AlgebraError, match="underflows"):
                s.substitute_param(values)
            underflows += 1
            continue
        joint = s.substitute_param(values)
        assert joint.params == chain.params == ("x",)
        assert joint.order <= chain.order
        ok, report = joint.equal_to_order(chain, joint.order)
        assert ok, (s, values, report)
        agreed += 1
        narrower += joint.order < chain.order
    assert agreed >= 300 and underflows and narrower, (agreed, underflows, narrower)


def test_joint_substitution_single_name_error_texts():
    s = QSeries(("d", "e"), 4, {2: ParamPoly.monomial(("d", "e"), {"e": 1})})
    with pytest.raises(AlgebraError, match=r"^substituting e -> 1\*q\^-1 needs a declared degree bound for e$"):
        s.substitute_param({"e": (1, -1)})
    s = s.with_bounds({"d": F(1, 2), "e": F(1, 2)})
    underflow = r"^substitution e -> q\^-2 underflows the provable window \(bound slope 1/2\)$"
    with pytest.raises(AlgebraError, match=underflow):
        s.substitute_param({"e": (1, -2)})
    with pytest.raises(AlgebraError, match=r"^substitution d -> q\^-1, e -> q\^-1 underflows the provable window"):
        s.substitute_param({"d": (1, -1), "e": (1, -1)})


def test_moves_and_evaluations_share_one_pass():
    P = ("d", "x")
    d, x = ParamPoly.var(P, "d"), ParamPoly.var(P, "x")
    # x^-1 rides only on d^2 q^2, which d -> 2q^2 lands at q^6, past the window:
    # x = 0 is no pole there, and d q^1 lands at q^3, the last exponent of the window
    s = QSeries(P, 3, {0: 5, 1: d + x, 2: ParamPoly(P, {(2, -1): 1})}).with_bounds({"d": 1})
    got = s.substitute_param({"d": (2, 2), "x": (0, 0)})
    assert got == QSeries((), 3, {0: 5, 3: 2})
    # an evaluation, j = 0 or c = 0, needs no bound
    s = QSeries(P, 3, {1: d + x * 3, 2: d * x})
    d1 = ParamPoly.var(("d",), "d")
    assert s.substitute_param({"x": (2, 0)}) == QSeries(("d",), 3, {1: d1 + 6, 2: d1 * 2})
    assert s.substitute_param({"d": (0, -1), "x": (F(1, 2), 0)}) == QSeries((), 3, {1: F(3, 2)})
    # a move mixed with evaluations is the move followed by eval_param
    rng = random.Random(20261021)
    mixed = 0
    for _ in range(300):
        s = random_series(rng, random_bounds(rng))
        values = substitution(rng, s, rng.sample(PARAMS, rng.randint(2, 3)))
        moves = {p: (c, j) for p, (c, j) in values.items() if c and j}
        evals = {p: c for p, (c, j) in values.items() if p not in moves}
        try:
            want = s.substitute_param(moves).eval_param(evals)
        except AlgebraError:  # an underflowing move
            continue
        assert s.substitute_param(values) == want, (s, values)
        mixed += bool(moves and evals)
    assert mixed >= 50, mixed
