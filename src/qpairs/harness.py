"""Registry of identity checks.

Each check compares independently constructed series (or a series against
a brute-force enumeration table) coefficient by coefficient up to a
truncation order.  Checks with genuinely rational parameter dependence
(factors like 1/(1-x)) run at fixed rational sample points; everything
else runs fully symbolically.  Sample points are hard-coded so failures
reproduce exactly.

Checks build their series only through the builders' paths: quotients of
theta products and infinite Pochhammer symbols, and powers of the crank
product, go through ``builders.times_poch``, one call per quotient, applied
to the series they multiply, and ``e -> c/q`` substitutions through
``builders.build``.  An x-derivative read at a point (the starred PDEs of
C15, C21 and C27, C09's moments, C18's ``delta_x J``) is one
``QSeries.eval_weighted`` pass over the series symbolic in x, and so is
each symbolic PDE of C16, C21 and C27, with x kept (``r = None``).  Each
comparison covers exactly the requested order; a side that comes back
short is an error, not a shorter comparison.
"""

from __future__ import annotations

import fnmatch
import json
import math
import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .poly import AlgebraError, ParamPoly
from .series import QSeries
from . import builders as B
from . import oracle as O
from .builders import Monomial, lambert_sum, phi1

F = Fraction


# ---------------------------------------------------------------------------
# result plumbing


class CheckResult(NamedTuple):
    id: str
    name: str
    reference: str
    mode: str
    order: int
    points: List[str]
    status: str                       # pass | fail | error
    first_mismatch: Optional[dict] = None
    millis: int = 0

    def body(self) -> dict:
        """Canonical report body; timing excluded so reruns are byte-identical."""
        out = {
            "check": self.id,
            "name": self.name,
            "reference": self.reference,
            "mode": self.mode,
            "order": self.order,
            "points": self.points,
            "status": self.status,
        }
        if self.first_mismatch is not None:
            out["first_mismatch"] = self.first_mismatch
        return out


class _Ctx:
    """Accumulates labeled comparisons and the sample points they ran at;
    remembers the first failure."""

    def __init__(self):
        self.failed: Optional[dict] = None
        self.points: List[str] = []

    def ok(self) -> bool:
        return self.failed is None

    def equal(self, a: QSeries, b: QSeries, order: int, label: str):
        if self.failed is not None:
            return
        same, wit = a.equal_to_order(b, order)
        if not same:
            exp, vec, va, vb = wit
            self.failed = {
                "label": label,
                "exponent": exp,
                "monomial": list(vec),
                "lhs": str(va),
                "rhs": str(vb),
            }

    def zero(self, a: QSeries, order: int, label: str):
        self.equal(a, QSeries.zero(a.params, a.order), order, label)

    def true(self, cond: bool, label: str):
        if self.failed is None and not cond:
            self.failed = {"label": label}


# ---------------------------------------------------------------------------
# shared series helpers (no parameters unless stated).  A factor
# ``(a, power, base)`` stands for ``(a; q^base)_inf^power``; ``builders.times_poch``
# multiplies a series by such factors in one call, so a quotient is never
# multiplied out and inverted, nor a power multiplied out.

Factor = Tuple[Monomial, int, int]


def _qinf(p: int = 1) -> Factor:
    return Monomial.make(1, 1), p, 1


def _aqinf(p: int = 1) -> Factor:
    return Monomial.make(-1, 1), p, 1


def _q2inf(p: int = 1) -> Factor:
    return Monomial.make(1, 2), p, 2


def _qodd(p: int = 1) -> Factor:
    return Monomial.make(1, 1), p, 2


def _aqodd(p: int = 1) -> Factor:
    return Monomial.make(-1, 1), p, 2


def _J(c: Fraction, qexp: int, base: int = 1, p: int = 1) -> Tuple[Factor, Factor]:
    """``J(c q^qexp; Q)^p = (a; Q)_inf^p (Q/a; Q)_inf^p`` with Q = q^base."""
    a = Monomial(F(c), qexp)
    return (a, p, base), (a.inverse().times_q(base), p, base)


def _C(x: Optional[Fraction], base: int, p: int) -> Tuple[Factor, Factor, Factor]:
    """``C(x; Q)^p = (Q; Q)_inf^p / (xQ, Q/x; Q)_inf^p`` with Q = q^base; ``x = None`` is symbolic x."""
    xm = Monomial(F(1), 0, (("x", 1),)) if x is None else Monomial(F(x))
    return (Monomial.make(1, base), p, base), (xm.times_q(base), -p, base), (xm.inverse().times_q(base), -p, base)


def S1(x: Fraction, zeta: Fraction, order: int) -> QSeries:
    return lambert_sum(order, zeta=-zeta, A=1, B=1, den=x, a=1)


def S2(x: Fraction, zeta: Fraction, order: int) -> QSeries:
    return lambert_sum(order, zeta=-zeta, A=1, B=2, den=x, a=2)


def S3(x: Fraction, zeta: Fraction, order: int) -> QSeries:
    return lambert_sum(order, zeta=-zeta, A=2, B=3, den=x, a=2)


def _weight(by_a: Sequence, by_n=0) -> Callable[[int, int], object]:
    """The weight ``sum_i by_a[i] a^i + by_n n`` of ``QSeries.eval_weighted``.  Each coefficient
    is a rational, or an x-polynomial as a map exponent -> rational for ``r = None``, and the
    weight then is one too.  Over one denominator L: for each exponent of x an integer sum by
    Horner's rule and one Fraction per call."""
    polys = [c if isinstance(c, dict) else {0: c} for c in (*by_a, by_n)]
    L = math.lcm(*(F(v).denominator for c in polys for v in c.values()))
    rows = [(j, [int(c.get(j, 0) * L) for c in reversed(polys[:-1])], int(polys[-1].get(j, 0) * L))
            for j in set().union(*polys)]

    def weight(a: int, n: int) -> Dict[int, Fraction]:
        out = {}
        for j, top, m in rows:
            t = 0
            for c in top:
                t = t * a + c
            out[j] = F(t + m * n, L)
        return out
    return weight if any(isinstance(c, dict) for c in (*by_a, by_n)) else lambda a, n: weight(a, n)[0]


def _pde(N: QSeries, r: Optional[Fraction], *weights) -> QSeries:
    """``w0 M + w1 delta_q M + w2 delta_x M + w3 delta_x^2 M`` in one weighted pass of N symbolic
    in x.  With ``r = None`` M is N and the weights are x-polynomials (maps exponent ->
    rational), and the result keeps x.  Otherwise M is N*(x) = N(x)/(1-x) at x = r and the
    weights are scalars: with ``u = 1/(1-r)`` the chain rule (``delta_x u = r u^2``) weighs each
    term ``c x^a q^n`` of N by ``alpha + beta n + gamma a + delta a^2``, exact rationals.
    """
    w0, w1, w2, w3 = weights
    if r is None:
        return N.eval_weighted("x", None, _weight((w0, w2, w3), w1))
    r = F(r)
    if r == 1:
        raise AlgebraError("x = 1 is a pole of the starred series")
    u = F(1, 1 - r)
    alpha = w0 * u + w2 * r * u * u + w3 * (r * u * u + 2 * r * r * u ** 3)
    beta, gamma, delta = w1 * u, w2 * u + 2 * w3 * r * u * u, w3 * u
    return N.eval_weighted("x", r, _weight((alpha, gamma, delta), beta))


# fixed sample points
X_POINTS = (F(2), F(3), F(5), F(-2), F(1, 2))
XZ_POINTS = ((F(2), F(3)), (F(3), F(5)), (F(-2), F(7)), (F(1, 2), F(1, 3)))
DURFEE_POINTS_2 = ((F(2), F(3)), (F(3), F(5)), (F(-2), F(5)), (F(1, 2), F(1, 3)))
DURFEE_POINTS_3 = (
    (F(2), F(3), F(5)),
    (F(3), F(5), F(7)),
    (F(-2), F(5), F(3)),
    (F(1, 2), F(1, 3), F(1, 5)),
)


# ---------------------------------------------------------------------------
# check implementations.  Each is ``fn(ctx, order)``: it compares series through
# ``ctx.equal`` and appends the sample points it runs at to ``ctx.points``.


def _check_c01(ctx: _Ctx, order: int):
    table = O.rank_table(order)
    want = QSeries(("d", "e", "x"), order, {n: O.rank_poly(tally) for n, tally in table.items()})
    ctx.equal(B.rank_gf(order), want, order, "rank refinement vs enumeration")


def _check_c02(ctx: _Ctx, order: int):
    ctx.equal(B.rank_gf(order), B.rank_gf_lambert(order), order, "unilateral vs bilateral form")


def _check_c03(ctx: _Ctx, order: int):
    table = O.rank_table(order)
    N = B.rank_gf(order)
    for v in (1, 2, 3):
        s = B.n2v(v, order)
        want = QSeries(("d", "e"), order, {n: O.symmetrized_poly(tally, 2 * v) for n, tally in table.items()})
        ctx.equal(s, want, order, f"2v={2 * v} moment vs enumeration")
        m = B.symmetrized_moment_series(2 * v, N)
        ctx.equal(s, m, order, f"series vs direct x-derivative extraction, v={v}")
    for k in (1, 3, 5):
        odd = B.symmetrized_moment_series(k, N)
        ctx.zero(odd, order, f"odd extraction k={k}")


def _check_c04(ctx: _Ctx, order: int):
    for k, plist in ((2, DURFEE_POINTS_2), (3, DURFEE_POINTS_3)):
        for xs, wants in zip(plist, O.durfee_values(k, order, plist)):
            ctx.points.append(f"k={k},x=({','.join(str(x) for x in xs)})")
            ctx.equal(B.durfee_rhs(k, order, xs), QSeries(("d", "e"), order, dict(enumerate(wants))),
                      order, f"k={k} xs={xs}")


def _check_c05(ctx: _Ctx, order: int):
    table = O.rank_table(order)
    for v in (1, 2):
        (counts,) = O.durfee_values(v + 1, order, [(1,) * (v + 1)])
        moments = {n: O.symmetrized_poly(tally, 2 * v) for n, tally in table.items()}
        ctx.equal(QSeries(("d", "e"), order, dict(enumerate(counts))), QSeries(("d", "e"), order, moments),
                  order, f"marked-symbol count vs moment, v={v}")


def _check_c06(ctx: _Ctx, order: int):
    xs = (F(2), F(3), F(1, 2), F(-2))
    for k in (2, 3):
        plist = [tuple(x ** (j + 1) for j in range(k)) for x in xs]
        for x, xp, wants in zip(xs, plist, O.durfee_values(k, order, plist)):
            ctx.points.append(f"k={k},x={x}")
            ctx.equal(B.durfee_rhs(k, order, xp), QSeries(("d", "e"), order, dict(enumerate(wants))),
                      order, f"k={k} x={x}")


def _check_c07(ctx: _Ctx, order: int):
    # each point's rank refinement, built once for all its tuples
    pieces = {x: B.rank_gf(order, x=x) for x in set().union(*DURFEE_POINTS_2, *DURFEE_POINTS_3)}
    for k, plist in ((2, DURFEE_POINTS_2), (3, DURFEE_POINTS_3)):
        for xs in plist:
            ctx.points.append(f"k={k},x=({','.join(str(x) for x in xs)})")
            lhs = B.durfee_rhs(k, order, xs)
            rhs = B.rk_partial_fractions(xs, [pieces[x] for x in xs])
            ctx.equal(lhs, rhs, order, f"k={k} xs={xs}")


def _check_c08(ctx: _Ctx, order: int):
    table = O.rank_table(order, stats=False)
    nn = {n: {} for n in range(order + 1)}
    for n, tally in table.items():
        for (r, s, m), c in tally.items():
            nn[n][m] = nn[n].get(m, 0) + c
    front = B.times_poch(QSeries.one((), order), _aqinf(2), _qinf(-1))
    ppbar = B.times_poch(front, _qinf(-1))
    ctx.equal(ppbar, QSeries((), order, {n: sum(nn[n].values()) for n in nn}), order, "pair totals vs product")
    ctx.true(all(sum(nn[n].values()) == t for n, t in ((1, 4), (2, 12), (3, 32))[:order]), "totals at n=1,2,3")
    for x in X_POINTS:
        ctx.points.append(f"x={x}")
        head = F(4) * x / (1 + x) ** 2
        prod = front * B.crank_C(order, x)
        rhs = prod * head - QSeries((), order, {0: head})
        want = {n: sum(c * x ** m for m, c in nn[n].items()) for n in range(1, order + 1)}
        ctx.equal(rhs, QSeries((), order, want), order, f"x={x}")


def _delta_x_A_at_1(j: int) -> Fraction:
    """Exact value of (x d/dx)^j applied to 4x/(1+x)^2, at x = 1.

    With x = e^t the operator x d/dx is d/dt, so the value is j! times the
    t^j coefficient of 4e^t/(1+e^t)^2, expanded here as a series in t."""
    et = QSeries((), j, {n: F(1, math.factorial(n)) for n in range(j + 1)})
    a = 4 * et * ((et + 1) * (et + 1)).invert()
    return a.coefficient(j).constant_value() * math.factorial(j)


def _check_c09(ctx: _Ctx, order: int):
    table = O.rank_table(order, stats=False)
    G = B.times_poch(B.crank_C(order), _aqinf(2), _qinf(-1))
    Gm1 = G - QSeries.one(("x",), order)
    A = [_delta_x_A_at_1(j) for j in range(5)]
    for k in (2, 4):
        # sum_j a_j C(k, j) delta_x^(k-j) (G - 1) at x = 1: each term x^a weighed by sum_j a_j C(k, j) a^(k-j)
        acc = Gm1.eval_weighted("x", 1, _weight([A[k - i] * math.comb(k, i) for i in range(k + 1)]))
        want = {n: sum(c * m ** k for (r, s, m), c in tally.items()) for n, tally in table.items()}
        ctx.equal(acc, QSeries((), order, want), order, f"moment k={k}")


def _check_c10(ctx: _Ctx, order: int):
    for x in (F(2), F(3), F(-2), F(5)):
        ctx.points.append(f"x={x}")
        lhs = (lambert_sum(order, c=-(1 - x), zeta=-1, A=1, den=x, a=1)
               + lambert_sum(order, c=1 - x, zeta=-1, A=1, den=-x, a=1))
        rhs = B.times_poch(QSeries.one((), order), _q2inf(2), (Monomial(x * x, 2), -1, 2),
                           (Monomial(1 / (x * x), 2), -1, 2))
        rhs = rhs * F(-2, 1) * (F(1) / (1 + 1 / x))
        ctx.equal(lhs, rhs, order, f"x={x}")


def _check_c11(ctx: _Ctx, order: int):
    quot = (_aqinf(), _qinf(-1))
    lhs = B.n2v(1, order, 1, 0) * (-4) + B.times_poch(
        lambert_sum(order, zeta=-1, A=1, B=1, den=-1, a=1, e=2), *quot
    ) * 4
    rhs = B.times_poch(QSeries.one((), order) - phi1(2, order) * 16, *quot)
    ctx.equal(lhs, rhs, order, "second-moment Lambert identity")


def _check_c12(ctx: _Ctx, order: int):
    lhs = lambert_sum(order, zeta=-1, A=1, B=1, den=-1, a=1)
    rhs = B.times_poch(QSeries.one((), order), _qinf(), _aqinf(-1)) * F(1, 2)
    ctx.equal(lhs, rhs, order, "bilateral sum vs half quotient")


def _check_c13(ctx: _Ctx, order: int):
    for x, z in XZ_POINTS:
        ctx.points.append(f"x={x},zeta={z}")
        lhs = (
            S1(x / z, 1 / z ** 2, order)
            + S1(x * z, z ** 2, order) * (z * z)
            - B.times_poch(S1(x, 1, order), *_J(z * z, 0), *_J(-1, 1), *_J(z, 0, p=-1), *_J(-z, 0, p=-1)) * z
        )
        rhs = B.times_poch(
            QSeries.one((), order), *_J(z, 0), *_J(z * z, 0), *_J(-x, 0), _qinf(2),
            *_J(-z, 0, p=-1), *_J(x * z, 0, p=-1), *_J(x / z, 0, p=-1), *_J(x, 0, p=-1),
        )
        ctx.equal(lhs, rhs, order, f"x={x},zeta={z}")


def _check_c14(ctx: _Ctx, order: int):
    half = B.times_poch(QSeries.one((), order), _qinf(), _aqinf(-1)) * F(1, 2)
    for x in X_POINTS:
        ctx.points.append(f"x={x}")
        nstar = B.rank_gf(order, 1, 0, x) * (F(1) / (1 - x))
        rhs = half * (nstar * (1 + x) - QSeries.one((), order))
        ctx.equal(S1(x, 1, order) * x, rhs, order, f"x={x}")


def _check_c15(ctx: _Ctx, order: int):
    N = B.rank_gf(order, 1, 0, None)
    front = B.times_poch(QSeries.one((), order), _qinf(2), _aqinf(-1))
    for x in X_POINTS:
        ctx.points.append(f"x={x}")
        rhs = _pde(N, x, x / 2, 2 * (1 + x), x, (1 + x) / 2)
        lhs = B.times_poch(front, *_C(x, 1, 3), *_J(-x, 0)) * (x / (1 - x) ** 3)
        ctx.equal(lhs, rhs, order, f"x={x}")


def _check_c16(ctx: _Ctx, order: int):
    rhs = _pde(B.rank_gf(order, 1, 0, None), None, {1: 1, 2: 1}, {0: 2, 1: -2, 2: -2, 3: 2}, {1: 2, 2: -2},
               {0: F(1, 2), 1: -F(1, 2), 2: -F(1, 2), 3: F(1, 2)})
    lhs = B.times_poch(
        B.jacobi_J(B.parse_monomial("-x"), order), *_C(None, 1, 3), _qinf(2), _aqinf(-1)
    ) * ParamPoly.var(("x",), "x")
    ctx.equal(lhs, rhs, order, "symbolic x")


def _check_c17(ctx: _Ctx, order: int):
    s = (
        phi1(1, order)
        - lambert_sum(order, npoly=(0, 1), B=1, den=-1, a=1, domain="n>=1") * 2
        + lambert_sum(order, B=1, den=-1, a=1, e=2, domain="n>=1")
    )
    ctx.zero(s, order, "divisor bracket")


def _check_c18(ctx: _Ctx, order: int):
    Jx = B.jacobi_J(B.parse_monomial("-x"), order)
    for x in X_POINTS:
        ctx.points.append(f"x={x}")
        coeffs: Dict[int, Fraction] = {}
        for m in range(1, order + 1):
            w = (-1) ** m * (x ** m - x ** -m)
            if w:
                for d in range(m, order + 1, m):
                    coeffs[d] = coeffs.get(d, F(0)) + w
        tail = QSeries((), order, {n: c for n, c in coeffs.items() if c})
        head = QSeries((), order, {0: x / (x + 1)})
        rhs = (head - tail) * Jx.eval_param({"x": x})
        ctx.equal(Jx.eval_weighted("x", x, lambda a, n: a), rhs, order, f"x={x}")


def _check_c19(ctx: _Ctx, order: int):
    quot = (_aqinf(), _qinf(-1))
    part1_lhs = (
        lambert_sum(order, zeta=-1, A=1, B=1, den=1, a=2, e=2, domain="n>=1")
        + lambert_sum(order, zeta=-1, A=1, B=3, den=1, a=2, e=2, domain="n>=1")
        + lambert_sum(order, c=2, zeta=-1, A=1, B=2, den=1, a=2, e=2, domain="n>=1")
    )
    part1_rhs = lambert_sum(order, zeta=-1, A=1, B=1, den=1, a=1, e=2, domain="n>=1")
    ctx.equal(part1_lhs, part1_rhs, order, "base-folding identity")
    folded = (lambert_sum(order, zeta=-1, A=1, B=1, den=1, a=2, e=2, domain="n>=1")
              + lambert_sum(order, zeta=-1, A=1, B=3, den=1, a=2, e=2, domain="n>=1"))
    n2q2 = B.build("n2v:v=1:d=1:e=q^-1:base=2", order)
    half = B.n2v(1, order, 1, 0) * F(1, 2)
    ctx.equal(B.times_poch(folded, *quot) - n2q2, -half, order, "moment-halving rewrite")
    lhs65, rhs65 = B.phi65_pair(F(3), order)
    ctx.points.append("b=3")
    ctx.equal(lhs65, rhs65, order, "very-well-poised summation at b=3")
    ctx.equal(B.times_poch(phi1(2, order), *quot) + n2q2, half, order, "final halving display")


def _check_c20(ctx: _Ctx, order: int):
    for x, z in XZ_POINTS:
        ctx.points.append(f"x={x},zeta={z}")
        lhs = (
            S2(x / z, 1 / z, order)
            + S2(x * z, z, order) * (z * z)
            + B.times_poch(S2(x, 1, order), *_J(z * z, 0, 2), _aqinf(2), *_J(-z, 0, p=-1), *_J(1 / z, 0, 2, -1)) * 2
        )
        rhs = B.times_poch(
            QSeries.one((), order), *_J(-x, 0), *_J(z * z, 0, 2), *_J(z, 0, 2), _q2inf(2),
            *_J(x * z, 0, 2, -1), *_J(x / z, 0, 2, -1), *_J(-z, 0, p=-1), *_J(x, 0, 2, -1),
        )
        ctx.equal(lhs, rhs, order, f"x={x},zeta={z}")


def _check_c21(ctx: _Ctx, order: int):
    N = B.build("rank:d=1:e=q^-1:base=2", order)
    front = B.times_poch(QSeries.one((), order), _q2inf(2))
    for x in X_POINTS:
        ctx.points.append(f"x={x}")
        rhs = _pde(N, x, x, 1 + x, 2 * x, 1 + x)
        lhs = B.times_poch(front, *_C(x, 2, 3), *_J(-x, 0)) * (2 * x / (1 - x) ** 3)
        ctx.equal(lhs, rhs, order, f"starred x={x}")
    cubic = {0: 1, 1: -1, 2: -1, 3: 1}
    rhs = _pde(N, None, {1: 2, 2: 2}, cubic, {1: 4, 2: -4}, cubic)
    J = B.jacobi_J(B.parse_monomial("-x"), order)
    lhs = B.times_poch(J, _q2inf(2), *_C(None, 2, 3)) * ParamPoly.monomial(("x",), {"x": 1}, 2)
    ctx.equal(lhs, rhs, order, "symbolic x")


def _check_c22(ctx: _Ctx, order: int):
    s = (
        -phi1(1, order)
        - lambert_sum(order, npoly=(0, 1), B=1, den=-1, a=1, domain="n>=1")
        + lambert_sum(order, c=2, B=1, den=-1, a=1, e=2, domain="n>=1")
        + phi1(2, order) * 6
    )
    ctx.zero(s, order, "divisor bracket")


def _check_c23(ctx: _Ctx, order: int):
    for x in (F(2), F(3), F(-2), F(5)):
        ctx.points.append(f"x={x}")
        lhs = (lambert_sum(order, c=-1, zeta=-1, A=2, B=-1, den=x, a=2)
               + lambert_sum(order, zeta=-1, A=2, B=1, den=-x, a=2, b=1))
        den = (Monomial(1 / x, 0), Monomial(x, 2), Monomial(-x, 1), Monomial(-1 / x, 1))
        rhs = B.times_poch(QSeries.one((), order), _aqodd(2), _q2inf(2), *((a, -1, 2) for a in den))
        ctx.equal(lhs, rhs, order, f"x={x}")


def _check_c24(ctx: _Ctx, order: int):
    pref = (_qodd(), _q2inf(-1))
    T1 = B.times_poch(lambert_sum(order, A=2, B=1, den=1, a=2, e=2, domain="Znz"), *pref)
    T2 = B.times_poch(lambert_sum(order, A=2, B=3, C=1, den=1, a=2, b=1, e=2), *pref)
    ctx.equal(T2 - T1, B.times_poch(phi1(1, order), *pref), order, "twice-differentiated display")
    moment = B.build("n2v:v=1:d=0:e=-1*q^-1:base=2", order)
    ctx.equal(moment, -T1, order, "first term as specialized moment series")


def _check_c25(ctx: _Ctx, order: int):
    lhs = B.times_poch(
        lambert_sum(order, A=F(1, 2), B=F(1, 2), den=1, a=1, e=2, domain="odd"), _qinf(), _q2inf(-2)
    )
    rhs = B.times_poch(lambert_sum(order, A=2, B=3, C=1, den=1, a=2, b=1, e=2), _qodd(), _q2inf(-1))
    ctx.equal(lhs, rhs, order, "odd bilateral sum reindexed")


def _check_c26(ctx: _Ctx, order: int):
    for x, z in XZ_POINTS:
        ctx.points.append(f"x={x},zeta={z}")
        lhs = (
            S3(x / z, 1 / z ** 2, order)
            + S3(x * z, z ** 2, order) * z ** 3
            - B.times_poch(S3(x, 1, order), *_J(z * z, 0, 2), _aqodd(2), *_J(z, 0, 2, -1), *_J(-z, 1, 2, -1)) * z
        )
        rhs = B.times_poch(
            QSeries.one((), order), *_J(-x, 1, 2), *_J(z * z, 0, 2), *_J(z, 0, 2), _q2inf(2),
            *_J(x / z, 0, 2, -1), *_J(x * z, 0, 2, -1), *_J(-z, 1, 2, -1), *_J(x, 0, 2, -1),
        )
        ctx.equal(lhs, rhs, order, f"x={x},zeta={z}")


def _check_c27(ctx: _Ctx, order: int):
    N = B.build("rank:d=0:e=q^-1:base=2", order)
    front = B.times_poch(QSeries.one((), order), _q2inf(2), _aqodd(-1))
    for x in X_POINTS:
        ctx.points.append(f"x={x}")
        rhs = _pde(N, x, 0, 2, 1, 1)
        lhs = B.times_poch(front, *_C(x, 2, 3), *_J(-x, 1, 2)) * (2 * x / (1 - x) ** 3)
        ctx.equal(lhs, rhs, order, f"starred x={x}")
    rhs = _pde(N, None, {1: 2}, {0: 2, 1: -4, 2: 2}, {0: 1, 2: -1}, {0: 1, 1: -2, 2: 1})
    J = B.jacobi_J(B.parse_monomial("-x*q"), order, 2)
    lhs = B.times_poch(J, _q2inf(2), _aqodd(-1), *_C(None, 2, 3)) * ParamPoly.monomial(("x",), {"x": 1}, 2)
    ctx.equal(lhs, rhs, order, "symbolic x")


def _check_c28(ctx: _Ctx, order: int):
    s = (
        phi1(2, order)
        - lambert_sum(order, npoly=(0, 1), B=1, den=-1, a=1, domain="odd>=1")
        + lambert_sum(order, B=1, den=-1, a=1, e=2, domain="odd>=1")
    )
    ctx.zero(s, order, "divisor bracket, odd support")


def _check_c29(ctx: _Ctx, order: int):
    one = QSeries.one((), order)
    qi = B.times_poch(one, _qinf())
    ctx.equal(qi.delta_q(), -(phi1(1, order) * qi), order, "euler product, base q")
    q2 = B.times_poch(one, _q2inf())
    ctx.equal(q2.delta_q(), phi1(2, order) * q2 * (-2), order, "euler product, base q^2")
    aq = B.times_poch(one, _aqodd())
    odd = lambert_sum(order, npoly=(0, 1), B=1, den=-1, a=1, domain="odd>=1")
    ctx.equal(aq.delta_q(), aq * odd, order, "odd-part product")


def _check_c30(ctx: _Ctx, order: int):
    direct = B.spt_gf_direct(order)
    ctx.equal(B.spt_gf(order), direct, order, "moment form vs direct sum")
    want = {n: ParamPoly(("d", "e"), tally) for n, tally in O.spt_table(order).items()}
    ctx.equal(direct, QSeries(("d", "e"), order, want), order, "direct sum vs enumeration")


def _check_c31(ctx: _Ctx, order: int):
    s = B.spt_gf(order, 1, 1)
    closed = B.times_poch(QSeries.one((), order), _aqinf(2), _qinf(-2)) * F(1, 4)
    lhs = s + QSeries((), order, {0: F(1, 4)}) - closed
    ctx.zero(lhs, order, "closed form at d=e=1")


def _check_c32(ctx: _Ctx, order: int):
    table = O.spt_table(order)
    ppbar = B.times_poch(QSeries.one((), order), _aqinf(2), _qinf(-2))
    quadrupled = QSeries((), order, {n: 4 * sum(tally.values()) for n, tally in table.items()})
    ctx.equal(ppbar - QSeries.one((), order), quadrupled, order, "quarter law")
    ctx.true(all(sum(table[n].values()) == t for n, t in ((1, 1), (2, 3))[:order]), "totals at n=1,2")


def _check_c33(ctx: _Ctx, order: int):
    table = O.rank_table(order)
    for k in (1, 3):
        power = QSeries(("d", "e"), order, {n: O.moment_poly(tally, k) for n, tally in table.items()})
        ctx.zero(power, order, f"odd power moment k={k}")
        symmetrized = QSeries(("d", "e"), order, {n: O.symmetrized_poly(tally, k) for n, tally in table.items()})
        ctx.zero(symmetrized, order, f"odd symmetrized moment k={k}")
    for n, tally in table.items():
        for (r, s, m), c in tally.items():
            if tally.get((r, s, -m), 0) != c:  # the label is built only for an entry that fails
                ctx.true(False, f"rank symmetry at n={n}, (r,s,m)=({r},{s},{m})")


def _check_c34(ctx: _Ctx, order: int):
    specs = [Monomial(F(2)), Monomial(F(-3)), Monomial(F(1, 2)), Monomial(F(2), 1), Monomial(F(-1), 1)]
    for a in specs:
        for n in range(1, 7):
            lhs = B.pochhammer((), a, -n, order)
            prod = QSeries.one((), lhs.order + n * (n + 1))
            for k in range(1, n + 1):
                qe = a.qexp - k
                terms = [(0, F(1) - a.c)] if qe == 0 else [(0, F(1)), (qe, -a.c)]
                fac = QSeries.from_terms((), terms, prod.order)
                prod = prod * fac
            ctx.equal(lhs, prod.invert(), order, f"a={a.c}*q^{a.qexp}, n={-n}")
    try:
        B.pochhammer(("d",), Monomial(F(-1), 1, (("d", 1),)), -2, order)
        ctx.true(False, "symbolic negative length should be rejected")
    except AlgebraError:
        pass


# ---------------------------------------------------------------------------
# registry


class CheckSpec(NamedTuple):
    id: str
    name: str
    reference: str
    order: int
    fn: Callable[[_Ctx, int], None]


_CHECKS: List[CheckSpec] = [
    CheckSpec("C01", "rank-refinement-vs-enumeration",
              "two-parameter rank refinement of overpartition pairs equals brute-force counts", 12, _check_c01),
    CheckSpec("C02", "rank-two-forms-agree",
              "unilateral and folded bilateral forms of the rank refinement agree symbolically", 12, _check_c02),
    CheckSpec("C03", "symmetrized-moments",
              "moment series equals enumerated symmetrized moments; odd extractions vanish", 12, _check_c03),
    CheckSpec("C04", "marked-symbol-gf",
              "marked-symbol sum side matches enumerated rank-vector refinements at sample points", 10, _check_c04),
    CheckSpec("C05", "marked-symbols-equal-moments",
              "marked-symbol counts coincide with symmetrized moments", 10, _check_c05),
    CheckSpec("C06", "full-rank-gf",
              "full-rank refinement equals the sum side at geometric point vectors", 10, _check_c06),
    CheckSpec("C07", "partial-fractions",
              "partial-fraction decomposition reproduces the sum side at admissible points", 12, _check_c07),
    CheckSpec("C08", "rank-total-product-form",
              "rank totals match the crank-type product form and overpartition-pair counts", 12, _check_c08),
    CheckSpec("C09", "power-moments-closed-form",
              "even power moments from x-derivatives of the product form match enumeration", 12, _check_c09),
    CheckSpec("C10", "paired-lambert-product",
              "paired bilateral Lambert sums collapse to an infinite product at sample x", 25, _check_c10),
    CheckSpec("C11", "second-moment-lambert",
              "second-moment series in Lambert form against an Eisenstein-type right side", 30, _check_c11),
    CheckSpec("C12", "alternating-lambert-constant",
              "alternating bilateral Lambert sum equals half an eta quotient", 30, _check_c12),
    CheckSpec("C13", "theta-three-term-base-q",
              "three-term Appell relation with theta coefficients, base q", 20, _check_c13),
    CheckSpec("C14", "appell-to-rank-base-q",
              "Appell sum expressed through the starred rank series, base q", 25, _check_c14),
    CheckSpec("C15", "pde-starred-base-q",
              "differential identity for the starred rank series at rational x", 25, _check_c15),
    CheckSpec("C16", "pde-symbolic-base-q",
              "differential identity for the rank series, fully symbolic in x", 20, _check_c16),
    CheckSpec("C17", "divisor-bracket-base-q",
              "divisor-sum bracket vanishes, base q", 40, _check_c17),
    CheckSpec("C18", "theta-log-derivative",
              "x-derivative of the theta product as a divisor-type multiplier", 25, _check_c18),
    CheckSpec("C19", "moment-halving-chain",
              "chain relating base-q^2 second moments to the base-q ones", 25, _check_c19),
    CheckSpec("C20", "theta-three-term-mixed",
              "three-term Appell relation with theta coefficients, mixed bases", 20, _check_c20),
    CheckSpec("C21", "pde-m1-base-q2",
              "differential identities for the rank series at e = 1/q on base q^2", 20, _check_c21),
    CheckSpec("C22", "divisor-bracket-mixed",
              "divisor-sum bracket vanishes, mixed bases", 40, _check_c22),
    CheckSpec("C23", "paired-lambert-product-q2",
              "paired bilateral Lambert sums collapse to a product, base q^2", 25, _check_c23),
    CheckSpec("C24", "second-moment-chain-q2",
              "twice-differentiated base-q^2 display and its moment-series reading", 25, _check_c24),
    CheckSpec("C25", "odd-appell-fold",
              "odd-indexed bilateral sum reindexed to the shifted-denominator form", 25, _check_c25),
    CheckSpec("C26", "theta-three-term-base-q2",
              "three-term Appell relation with theta coefficients, base q^2", 20, _check_c26),
    CheckSpec("C27", "pde-m2-base-q2",
              "differential identities for the rank series at d = 0, e = 1/q on base q^2", 20, _check_c27),
    CheckSpec("C28", "divisor-bracket-odd",
              "divisor-sum bracket vanishes on odd support", 40, _check_c28),
    CheckSpec("C29", "euler-derivative-products",
              "logarithmic q-derivatives of the standard infinite products", 30, _check_c29),
    CheckSpec("C30", "spt-three-ways",
              "smallest-parts series: moment form, direct sum, and enumeration agree", 12, _check_c30),
    CheckSpec("C31", "spt-symmetric-closed-form",
              "smallest-parts series at d = e = 1 has the stated closed form", 40, _check_c31),
    CheckSpec("C32", "spt-quarter-law",
              "smallest-parts totals are one quarter of the pair counts", 14, _check_c32),
    CheckSpec("C33", "rank-symmetry-odd-moments",
              "rank-count symmetry in m and vanishing of odd moments", 14, _check_c33),
    CheckSpec("C34", "negative-pochhammer",
              "negative-length shifted factorial agrees with the direct reciprocal product", 6, _check_c34),
]

REGISTRY: Dict[str, CheckSpec] = {c.id: c for c in _CHECKS}


def run_check(check_id: str, order: Optional[int] = None) -> CheckResult:
    spec = REGISTRY.get(check_id)
    if spec is None:
        raise KeyError(f"unknown check {check_id!r}")
    n = spec.order if order is None else order
    t0 = time.monotonic()
    ctx = _Ctx()
    try:
        spec.fn(ctx, n)
        status, mismatch = "pass" if ctx.ok() else "fail", ctx.failed
    except Exception as exc:  # a broken check is reported, not allowed to abort the suite
        label = str(exc) if isinstance(exc, AlgebraError) else f"{type(exc).__name__}: {exc}"
        status, mismatch = "error", {"label": label}
    mode = "rational-points" if ctx.points else "symbolic"
    millis = int((time.monotonic() - t0) * 1000)
    return CheckResult(spec.id, spec.name, spec.reference, mode, n, ctx.points, status, mismatch, millis)


def run_suite(pattern: str = "*", order: Optional[int] = None) -> List[CheckResult]:
    out = []
    for spec in _CHECKS:
        if fnmatch.fnmatch(spec.id, pattern) or fnmatch.fnmatch(spec.name, pattern):
            out.append(run_check(spec.id, order))
    return out


def summarize(bodies: Sequence[dict]) -> dict:
    """Pass/fail/error counts over report bodies."""
    statuses = [b["status"] for b in bodies]
    return {
        "total": len(statuses),
        "passed": statuses.count("pass"),
        "failed": statuses.count("fail"),
        "errors": statuses.count("error"),
    }


def report_json(bodies: Sequence[dict]) -> str:
    """The report bodies (see ``CheckResult.body``) and their summary, as sorted JSON."""
    return json.dumps({"summary": summarize(bodies), "checks": bodies}, indent=2, sort_keys=True)


def report_text(bodies: Sequence[dict]) -> str:
    """One line per report body (see ``CheckResult.body``) and a pass count."""
    lines = []
    for b in bodies:
        flag = {"pass": "PASS", "fail": "FAIL", "error": "ERR "}[b["status"]]
        lines.append(f"{flag}  {b['check']}  {b.get('name', '?')}  order={b.get('order', '?')}")
        if b.get("first_mismatch"):
            lines.append(f"      first mismatch: {b['first_mismatch']}")
    lines.append(f"{summarize(bodies)['passed']}/{len(bodies)} checks passed")
    return "\n".join(lines)


def negative_control(order: int = 20) -> CheckResult:
    """Deliberately corrupted identity; must fail, guarding the comparator."""
    ctx = _Ctx()
    lhs = lambert_sum(order, zeta=-1, A=1, B=1, den=-1, a=1)
    rhs = B.times_poch(QSeries.one((), order), _qinf(), _aqinf(-1)) * F(-1, 2)
    ctx.equal(lhs, rhs, order, "sign-flipped control")
    status = "pass" if ctx.ok() else "fail"
    return CheckResult("NC", "negative-control", "sign-flipped identity must fail",
                       "symbolic", order, [], status, ctx.failed, 0)
