"""Registry of identity checks.

Each check compares independently constructed series (or a series against
a brute-force enumeration table) coefficient by coefficient up to a
truncation order.  Checks with genuinely rational parameter dependence
(factors like 1/(1-x)) run at fixed rational sample points; everything
else runs fully symbolically.  Sample points are hard-coded so failures
reproduce exactly.
"""

from __future__ import annotations

import fnmatch
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .poly import AlgebraError, ParamPoly
from .series import QSeries
from . import builders as B
from . import oracle as O
from .builders import LambertSpec, Monomial, lambert_sum, poch_inf, phi1

F = Fraction


# ---------------------------------------------------------------------------
# result plumbing


@dataclass
class CheckResult:
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
    """Accumulates labeled comparisons; remembers the first failure."""

    def __init__(self):
        self.failed: Optional[dict] = None

    def ok(self) -> bool:
        return self.failed is None

    def equal(self, a: QSeries, b: QSeries, order: int, label: str):
        if self.failed is not None:
            return
        n = min(order, a.order, b.order)
        same, wit = a.equal_to_order(b, n)
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

    def poly_equal(self, got: ParamPoly, want: ParamPoly, n: int, label: str):
        if self.failed is not None:
            return
        want = want.with_params(got.params)
        if got != want:
            diff = got - want
            vec = min(diff.terms)
            self.failed = {
                "label": label,
                "exponent": n,
                "monomial": list(vec),
                "lhs": str(got),
                "rhs": str(want),
            }


# ---------------------------------------------------------------------------
# shared series helpers (no parameters unless stated)


def _qinf(order):
    return poch_inf((), Monomial.make(1, 1), order)


def _aqinf(order):
    return poch_inf((), Monomial.make(-1, 1), order)


def _q2inf(order):
    return poch_inf((), Monomial.make(1, 2), order, 2)


def _qodd(order):
    return poch_inf((), Monomial.make(1, 1), order, 2)


def _aqodd(order):
    return poch_inf((), Monomial.make(-1, 1), order, 2)


def _J(c: Fraction, qexp: int, order: int, base: int = 1) -> QSeries:
    return B.jacobi_J(Monomial(F(c), qexp), order, base, params=())


def S1(x: Fraction, zeta: Fraction, order: int) -> QSeries:
    return lambert_sum(
        LambertSpec(sign=-1, zeta=F(zeta), A=F(1), B=F(1), den=Monomial(F(x)), a=1),
        order,
    )


def S2(x: Fraction, zeta: Fraction, order: int) -> QSeries:
    return lambert_sum(
        LambertSpec(sign=-1, zeta=F(zeta), A=F(1), B=F(2), den=Monomial(F(x)), a=2),
        order,
    )


def S3(x: Fraction, zeta: Fraction, order: int) -> QSeries:
    return lambert_sum(
        LambertSpec(sign=-1, zeta=F(zeta), A=F(2), B=F(3), den=Monomial(F(x)), a=2),
        order,
    )


def _at(s: QSeries, name: str, r) -> QSeries:
    return B.drop_param(s.eval_param(name, F(r)), name)


def _xp(coeffs: Dict[int, Fraction]) -> ParamPoly:
    return ParamPoly(("x",), {(k,): F(v) for k, v in coeffs.items()})


def rank_sub_e_qinv(order: int, d, x=None) -> QSeries:
    """N(d, 1/q, x; q^2): build in base q^2 with symbolic e, substitute e -> 1/q."""
    s = B.rank_gf(2 * order + 1, d, None, x, base=2)
    return B.drop_param(s.substitute_param("e", 1, -1), "e")


def n2_sub(order: int, d, c: int = 1) -> QSeries:
    """Second symmetrized moment series at (d, c/q; q^2)."""
    s = B.n2v(1, 2 * order + 1, d, None, base=2)
    return B.drop_param(s.substitute_param("e", c, -1), "e")


def starred_derivatives(N: QSeries, r: Fraction) -> Tuple[QSeries, QSeries, QSeries, QSeries]:
    """(N*, delta_q N*, delta_x N*, delta_x^2 N*) at x = r, for N*(x) = N(x)/(1-x).

    N must be symbolic in x; the chain rule converts x-derivatives of the
    rational factor into exact scalar multiples of derivatives of N.
    """
    r = F(r)
    if r == 1:
        raise AlgebraError("x = 1 is a pole of the starred series")
    u = F(1, 1 - r)
    Dx = N.delta_param("x")
    Dx2 = Dx.delta_param("x")
    N0 = _at(N, "x", r)
    D1 = _at(Dx, "x", r)
    D2 = _at(Dx2, "x", r)
    Dq = _at(N.delta_q(), "x", r)
    nstar = N0 * u
    dq_star = Dq * u
    dx_star = D1 * u + N0 * (r * u * u)
    dx2_star = D2 * u + D1 * (2 * r * u * u) + N0 * (r * u * u + 2 * r * r * u ** 3)
    return nstar, dq_star, dx_star, dx2_star


def _lam(order, *, c=1, sign=1, zeta=1, A=0, B_=0, C=0, npoly=(1,), den=0, a=0, b=0, e=1, domain="Z"):
    return lambert_sum(
        LambertSpec(F(c), sign, F(zeta), F(A), F(B_), F(C), tuple(F(v) for v in npoly),
                    den if isinstance(den, Monomial) else Monomial(F(den)), a, b, e, domain),
        order,
    )


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
# check implementations; each returns (mode, points, ctx)


def _check_c01(order: int):
    ctx = _Ctx()
    N = B.rank_gf(order)
    table = O.rank_table(order)
    for n in range(order + 1):
        ctx.poly_equal(N.coefficient(n), O.rank_poly(table[n]), n, f"coefficient of q^{n}")
    return "symbolic", [], ctx


def _check_c02(order: int):
    ctx = _Ctx()
    ctx.equal(B.rank_gf(order), B.rank_gf_lambert(order), order, "unilateral vs bilateral form")
    return "symbolic", [], ctx


def _check_c03(order: int):
    ctx = _Ctx()
    table = O.rank_table(order)
    for v in (1, 2, 3):
        s = B.n2v(v, order)
        for n in range(order + 1):
            ctx.poly_equal(
                s.coefficient(n), O.symmetrized_poly(table[n], 2 * v), n,
                f"2v={2 * v} moment at q^{n}",
            )
        m = B.symmetrized_moment_series(2 * v, order)
        ctx.equal(s, m, order, f"series vs direct x-derivative extraction, v={v}")
    for k in (1, 3, 5):
        odd = B.symmetrized_moment_series(k, order)
        ctx.zero(odd, order, f"odd extraction k={k}")
    return "symbolic", [], ctx


def _check_c04(order: int):
    ctx = _Ctx()
    pts = []
    for k, plist in ((2, DURFEE_POINTS_2), (3, DURFEE_POINTS_3)):
        polys = [O.durfee_rank_poly(k, n) for n in range(order + 1)]
        for xs in plist:
            pts.append(f"k={k},x=({','.join(str(x) for x in xs)})")
            s = B.durfee_rhs(k, order, xs)
            for n in range(order + 1):
                want = polys[n]
                for j, xv in enumerate(xs):
                    want = want.eval(f"x{j + 1}", xv)
                want_d = ParamPoly(("d", "e"), {vec[:2]: c for vec, c in want.terms.items()})
                ctx.poly_equal(s.coefficient(n), want_d, n, f"k={k} xs={xs} q^{n}")
    return "rational-points", pts, ctx


def _check_c05(order: int):
    ctx = _Ctx()
    table = O.rank_table(order)
    for v in (1, 2):
        for n in range(order + 1):
            ctx.poly_equal(
                O.durfee_stats_poly(v + 1, n),
                O.symmetrized_poly(table[n], 2 * v),
                n,
                f"marked-symbol count vs moment, v={v}, n={n}",
            )
    return "symbolic", [], ctx


def _check_c06(order: int):
    ctx = _Ctx()
    pts = []
    for k in (2, 3):
        polys = [O.durfee_fullrank_poly(k, n) for n in range(order + 1)]
        for x in (F(2), F(3), F(1, 2), F(-2)):
            pts.append(f"k={k},x={x}")
            s = B.durfee_rhs(k, order, tuple(x ** (j + 1) for j in range(k)))
            for n in range(order + 1):
                want = polys[n].eval("x", x)
                want_d = ParamPoly(("d", "e"), {vec[:2]: c for vec, c in want.terms.items()})
                ctx.poly_equal(s.coefficient(n), want_d, n, f"k={k} x={x} q^{n}")
    return "rational-points", pts, ctx


def _check_c07(order: int):
    ctx = _Ctx()
    pts = []
    for k, plist in ((2, DURFEE_POINTS_2), (3, DURFEE_POINTS_3)):
        for xs in plist:
            pts.append(f"k={k},x=({','.join(str(x) for x in xs)})")
            lhs = B.durfee_rhs(k, order, xs)
            rhs = B.rk_partial_fractions(k, xs, order)
            ctx.equal(lhs, rhs, order, f"k={k} xs={xs}")
    return "rational-points", pts, ctx


def _check_c08(order: int):
    ctx = _Ctx()
    table = O.rank_table(order)
    nn = {n: {} for n in range(order + 1)}
    for n, tally in table.items():
        for (r, s, m), c in tally.items():
            nn[n][m] = nn[n].get(m, 0) + c
    ppbar = (_aqinf(order) ** 2) * (_qinf(order) ** 2).invert()
    for n in range(1, order + 1):
        ctx.true(
            sum(nn[n].values()) == ppbar.coefficient(n).constant_value(),
            f"pair total vs product coefficient at n={n}",
        )
    ctx.true([sum(nn[n].values()) for n in (1, 2, 3)] == [4, 12, 32], "totals at n=1,2,3")
    pts = []
    for x in X_POINTS:
        pts.append(f"x={x}")
        head = F(4) * x / (1 + x) ** 2
        prod = (_aqinf(order) ** 2) * B.crank_C(order, x).truncate(order) * _qinf(order).invert()
        rhs = prod * head - QSeries((), order, {0: head})
        for n in range(1, order + 1):
            got = rhs.coefficient(n).constant_value()
            want = sum(c * x ** m for m, c in nn[n].items())
            ctx.true(got == want, f"x={x} coefficient of q^{n}")
    return "rational-points", pts, ctx


def _delta_x_A_at_1(j: int) -> Fraction:
    """Exact value of (x d/dx)^j applied to 4x/(1+x)^2, at x = 1."""
    import sympy

    x = sympy.Symbol("x")
    expr = 4 * x / (1 + x) ** 2
    for _ in range(j):
        expr = sympy.simplify(x * sympy.diff(expr, x))
    val = sympy.Rational(sympy.simplify(expr.subs(x, 1)))
    return F(int(val.p), int(val.q))


def _check_c09(order: int):
    ctx = _Ctx()
    table = O.rank_table(order)
    G = (_aqinf(order) ** 2).with_params(("x",)) * B.crank_C(order) * _qinf(order).invert().with_params(("x",))
    Gm1 = G - QSeries.one(("x",), order)
    dGs = [Gm1]
    for _ in range(4):
        dGs.append(dGs[-1].delta_param("x"))
    for k in (2, 4):
        acc = QSeries.zero((), order)
        for j in range(k + 1):
            aj = _delta_x_A_at_1(j)
            if aj:
                acc = acc + _at(dGs[k - j], "x", 1) * (aj * math.comb(k, j))
        for n in range(1, order + 1):
            want = sum(c * m ** k for (r, s, m), c in table[n].items())
            ctx.true(
                acc.coefficient(n).constant_value() == want,
                f"moment k={k} at q^{n}",
            )
    return "symbolic", [], ctx


def _check_c10(order: int):
    ctx = _Ctx()
    pts = []
    for x in (F(2), F(3), F(-2), F(5)):
        pts.append(f"x={x}")
        lhs = _lam(order, c=-(1 - x), sign=-1, A=1, den=x, a=1) + _lam(
            order, c=(1 - x), sign=-1, A=1, den=Monomial(-x), a=1
        )
        den = (
            B.pochhammer((), Monomial(x * x, 2), None, order, 2)
            * B.pochhammer((), Monomial(1 / (x * x), 2), None, order, 2)
        )
        rhs = (_q2inf(order) ** 2) * den.invert() * F(-2, 1) * (F(1) / (1 + 1 / x))
        ctx.equal(lhs, rhs, order, f"x={x}")
    return "rational-points", pts, ctx


def _check_c11(order: int):
    ctx = _Ctx()
    quot = _aqinf(order) * _qinf(order).invert()
    lhs = B.n2v(1, order, 1, 0) * (-4) + quot * _lam(
        order, sign=-1, A=1, B_=1, den=Monomial(F(-1)), a=1, e=2
    ) * 4
    rhs = quot * (QSeries.one((), order) - phi1(2, order) * 16)
    ctx.equal(lhs, rhs, order, "second-moment Lambert identity")
    return "symbolic", [], ctx


def _check_c12(order: int):
    ctx = _Ctx()
    lhs = _lam(order, sign=-1, A=1, B_=1, den=Monomial(F(-1)), a=1)
    rhs = _qinf(order) * _aqinf(order).invert() * F(1, 2)
    ctx.equal(lhs, rhs, order, "bilateral sum vs half quotient")
    return "symbolic", [], ctx


def _check_c13(order: int):
    ctx = _Ctx()
    pts = []
    for x, z in XZ_POINTS:
        pts.append(f"x={x},zeta={z}")
        lhs = (
            S1(x / z, 1 / z ** 2, order)
            + S1(x * z, z ** 2, order) * (z * z)
            - _J(z * z, 0, order) * _J(-1, 1, order)
            * (_J(z, 0, order) * _J(-z, 0, order)).invert()
            * S1(x, 1, order) * z
        )
        rhs = (
            _J(z, 0, order) * _J(z * z, 0, order) * _J(-x, 0, order)
            * _qinf(order) ** 2
            * (_J(-z, 0, order) * _J(x * z, 0, order) * _J(x / z, 0, order) * _J(x, 0, order)).invert()
        )
        ctx.equal(lhs, rhs, order, f"x={x},zeta={z}")
    return "rational-points", pts, ctx


def _check_c14(order: int):
    ctx = _Ctx()
    pts = []
    half = _qinf(order) * _aqinf(order).invert() * F(1, 2)
    for x in X_POINTS:
        pts.append(f"x={x}")
        nstar = B.rank_gf(order, 1, 0, x) * (F(1) / (1 - x))
        rhs = half * (nstar * (1 + x) - QSeries.one((), order))
        ctx.equal(S1(x, 1, order) * x, rhs, order, f"x={x}")
    return "rational-points", pts, ctx


def _check_c15(order: int):
    ctx = _Ctx()
    pts = []
    N = B.rank_gf(order, 1, 0, None)
    front = (_qinf(order) ** 2) * _aqinf(order).invert()
    for x in X_POINTS:
        pts.append(f"x={x}")
        nstar, dq, dx, dx2 = starred_derivatives(N, x)
        rhs = dq * (2 * (1 + x)) + nstar * (x / 2) + dx * x + dx2 * ((1 + x) / 2)
        lhs = front * (B.crank_C_star(order, x) ** 3) * _J(-x, 0, order) * x
        ctx.equal(lhs, rhs, order, f"x={x}")
    return "rational-points", pts, ctx


def _check_c16(order: int):
    ctx = _Ctx()
    N = B.rank_gf(order, 1, 0, None)
    Dq = N.delta_q()
    Dx = N.delta_param("x")
    Dx2 = Dx.delta_param("x")
    rhs = (
        Dq * _xp({0: 2, 1: -2, 2: -2, 3: 2})
        + N * _xp({1: 1, 2: 1})
        + Dx * _xp({1: 2, 2: -2})
        + Dx2 * _xp({0: F(1, 2), 1: -F(1, 2), 2: -F(1, 2), 3: F(1, 2)})
    )
    lhs = (
        (_qinf(order) ** 2).with_params(("x",))
        * _aqinf(order).invert().with_params(("x",))
        * B.crank_C(order) ** 3
        * B.jacobi_J(B.parse_monomial("-x"), order)
        * ParamPoly.var(("x",), "x")
    )
    ctx.equal(lhs, rhs, order, "symbolic x")
    return "symbolic", [], ctx


def _check_c17(order: int):
    ctx = _Ctx()
    s = (
        phi1(1, order)
        - _lam(order, npoly=(0, 1), B_=1, den=Monomial(F(-1)), a=1, domain="n>=1") * 2
        + _lam(order, B_=1, den=Monomial(F(-1)), a=1, e=2, domain="n>=1")
    )
    ctx.zero(s, order, "divisor bracket")
    return "symbolic", [], ctx


def _check_c18(order: int):
    ctx = _Ctx()
    pts = []
    Jx = B.jacobi_J(B.parse_monomial("-x"), order)
    dJ = Jx.delta_param("x")
    for x in X_POINTS:
        pts.append(f"x={x}")
        coeffs: Dict[int, Fraction] = {}
        for m in range(1, order + 1):
            w = (-1) ** m * (x ** m - x ** -m)
            if w:
                for d in range(m, order + 1, m):
                    coeffs[d] = coeffs.get(d, F(0)) + w
        tail = QSeries((), order, {n: c for n, c in coeffs.items() if c})
        head = QSeries((), order, {0: x / (x + 1)})
        rhs = (head - tail) * _at(Jx, "x", x)
        ctx.equal(_at(dJ, "x", x), rhs, order, f"x={x}")
    return "rational-points", pts, ctx


def _check_c19(order: int):
    ctx = _Ctx()
    quot = _aqinf(order) * _qinf(order).invert()
    part1_lhs = (
        _lam(order, sign=-1, A=1, B_=1, den=Monomial(F(1)), a=2, e=2, domain="n>=1")
        + _lam(order, sign=-1, A=1, B_=3, den=Monomial(F(1)), a=2, e=2, domain="n>=1")
        + _lam(order, c=2, sign=-1, A=1, B_=2, den=Monomial(F(1)), a=2, e=2, domain="n>=1")
    )
    part1_rhs = _lam(order, sign=-1, A=1, B_=1, den=Monomial(F(1)), a=1, e=2, domain="n>=1")
    ctx.equal(part1_lhs, part1_rhs, order, "base-folding identity")
    folded = _lam(order, sign=-1, A=1, B_=1, den=Monomial(F(1)), a=2, e=2, domain="n>=1") + _lam(
        order, sign=-1, A=1, B_=3, den=Monomial(F(1)), a=2, e=2, domain="n>=1"
    )
    n2q2 = n2_sub(order, 1)
    half = B.n2v(1, order, 1, 0) * F(1, 2)
    ctx.equal(quot * folded - n2q2, half * (-1), order, "moment-halving rewrite")
    lhs65, rhs65 = B.phi65_pair(F(3), order)
    ctx.equal(lhs65, rhs65, order, "very-well-poised summation at b=3")
    ctx.equal(quot * phi1(2, order) + n2q2, half, order, "final halving display")
    return "rational-points", ["b=3"], ctx


def _check_c20(order: int):
    ctx = _Ctx()
    pts = []
    for x, z in XZ_POINTS:
        pts.append(f"x={x},zeta={z}")
        lhs = (
            S2(x / z, 1 / z, order)
            + S2(x * z, z, order) * (z * z)
            + _J(z * z, 0, order, 2) * (_aqinf(order) ** 2)
            * (_J(-z, 0, order) * _J(1 / z, 0, order, 2)).invert()
            * S2(x, 1, order) * 2
        )
        rhs = (
            _J(-x, 0, order) * _J(z * z, 0, order, 2) * _J(z, 0, order, 2)
            * _q2inf(order) ** 2
            * (_J(x * z, 0, order, 2) * _J(x / z, 0, order, 2) * _J(-z, 0, order) * _J(x, 0, order, 2)).invert()
        )
        ctx.equal(lhs, rhs, order, f"x={x},zeta={z}")
    return "rational-points", pts, ctx


def _check_c21(order: int):
    ctx = _Ctx()
    pts = []
    N = rank_sub_e_qinv(order, 1)
    front = _q2inf(order) ** 2
    for x in X_POINTS:
        pts.append(f"x={x}")
        nstar, dq, dx, dx2 = starred_derivatives(N, x)
        rhs = dq * (1 + x) + nstar * x + dx * (2 * x) + dx2 * (1 + x)
        lhs = front * (B.crank_C_star(order, x, base=2) ** 3) * _J(-x, 0, order) * (2 * x)
        ctx.equal(lhs, rhs, order, f"starred x={x}")
    Dq = N.delta_q()
    Dx = N.delta_param("x")
    Dx2 = Dx.delta_param("x")
    rhs = (
        Dq * _xp({0: 1, 1: -1, 2: -1, 3: 1})
        + N * _xp({1: 2, 2: 2})
        + Dx * _xp({1: 4, 2: -4})
        + Dx2 * _xp({0: 1, 1: -1, 2: -1, 3: 1})
    )
    lhs = (
        front.with_params(("x",))
        * B.crank_C(order, base=2) ** 3
        * B.jacobi_J(B.parse_monomial("-x"), order)
        * _xp({1: 2})
    )
    ctx.equal(lhs, rhs, order, "symbolic x")
    return "rational-points", pts, ctx


def _check_c22(order: int):
    ctx = _Ctx()
    s = (
        phi1(1, order) * (-1)
        - _lam(order, npoly=(0, 1), B_=1, den=Monomial(F(-1)), a=1, domain="n>=1")
        + _lam(order, c=2, B_=1, den=Monomial(F(-1)), a=1, e=2, domain="n>=1")
        + phi1(2, order) * 6
    )
    ctx.zero(s, order, "divisor bracket")
    return "symbolic", [], ctx


def _check_c23(order: int):
    ctx = _Ctx()
    pts = []
    for x in (F(2), F(3), F(-2), F(5)):
        pts.append(f"x={x}")
        lhs = _lam(order, c=-1, sign=-1, A=2, B_=-1, den=x, a=2) + _lam(
            order, sign=-1, A=2, B_=1, den=Monomial(-x), a=2, b=1
        )
        den = (
            B.pochhammer((), Monomial(1 / x, 0), None, order, 2)
            * B.pochhammer((), Monomial(x, 2), None, order, 2)
            * B.pochhammer((), Monomial(-x, 1), None, order, 2)
            * B.pochhammer((), Monomial(-1 / x, 1), None, order, 2)
        )
        rhs = (_aqodd(order) * _q2inf(order)) ** 2 * den.invert()
        ctx.equal(lhs, rhs, order, f"x={x}")
    return "rational-points", pts, ctx


def _check_c24(order: int):
    ctx = _Ctx()
    pref = _qodd(order) * _q2inf(order).invert()
    T1 = pref * _lam(order, A=2, B_=1, den=Monomial(F(1)), a=2, e=2, domain="Znz")
    T2 = pref * _lam(order, A=2, B_=3, C=1, den=Monomial(F(1)), a=2, b=1, e=2)
    ctx.equal(T2 - T1, pref * phi1(1, order), order, "twice-differentiated display")
    ctx.equal(n2_sub(order, 0, -1), T1 * (-1), order, "first term as specialized moment series")
    return "symbolic", [], ctx


def _check_c25(order: int):
    ctx = _Ctx()
    lhs = _qinf(order) * (_q2inf(order) ** 2).invert() * _lam(
        order, A=F(1, 2), B_=F(1, 2), den=Monomial(F(1)), a=1, e=2, domain="odd"
    )
    rhs = _qodd(order) * _q2inf(order).invert() * _lam(
        order, A=2, B_=3, C=1, den=Monomial(F(1)), a=2, b=1, e=2
    )
    ctx.equal(lhs, rhs, order, "odd bilateral sum reindexed")
    return "symbolic", [], ctx


def _check_c26(order: int):
    ctx = _Ctx()
    pts = []
    for x, z in XZ_POINTS:
        pts.append(f"x={x},zeta={z}")
        lhs = (
            S3(x / z, 1 / z ** 2, order)
            + S3(x * z, z ** 2, order) * z ** 3
            - _J(z * z, 0, order, 2) * (_aqodd(order) ** 2)
            * (_J(z, 0, order, 2) * _J(-z, 1, order, 2)).invert()
            * S3(x, 1, order) * z
        )
        rhs = (
            _J(-x, 1, order, 2) * _J(z * z, 0, order, 2) * _J(z, 0, order, 2)
            * _q2inf(order) ** 2
            * (_J(x / z, 0, order, 2) * _J(x * z, 0, order, 2) * _J(-z, 1, order, 2) * _J(x, 0, order, 2)).invert()
        )
        ctx.equal(lhs, rhs, order, f"x={x},zeta={z}")
    return "rational-points", pts, ctx


def _check_c27(order: int):
    ctx = _Ctx()
    pts = []
    N = rank_sub_e_qinv(order, 0)
    front = (_q2inf(order) ** 2) * _aqodd(order).invert()
    for x in X_POINTS:
        pts.append(f"x={x}")
        nstar, dq, dx, dx2 = starred_derivatives(N, x)
        rhs = dq * 2 + dx + dx2
        lhs = front * (B.crank_C_star(order, x, base=2) ** 3) * _J(-x, 1, order, 2) * (2 * x)
        ctx.equal(lhs, rhs, order, f"starred x={x}")
    Dq = N.delta_q()
    Dx = N.delta_param("x")
    Dx2 = Dx.delta_param("x")
    rhs = (
        Dq * _xp({0: 2, 1: -4, 2: 2})
        + Dx * _xp({0: 1, 2: -1})
        + N * _xp({1: 2})
        + Dx2 * _xp({0: 1, 1: -2, 2: 1})
    )
    lhs = (
        front.with_params(("x",))
        * B.crank_C(order, base=2) ** 3
        * B.jacobi_J(B.parse_monomial("-x*q"), order, 2, params=("x",))
        * _xp({1: 2})
    )
    ctx.equal(lhs, rhs, order, "symbolic x")
    return "rational-points", pts, ctx


def _check_c28(order: int):
    ctx = _Ctx()
    s = (
        phi1(2, order)
        - _lam(order, npoly=(0, 1), B_=1, den=Monomial(F(-1)), a=1, domain="odd>=1")
        + _lam(order, B_=1, den=Monomial(F(-1)), a=1, e=2, domain="odd>=1")
    )
    ctx.zero(s, order, "divisor bracket, odd support")
    return "symbolic", [], ctx


def _check_c29(order: int):
    ctx = _Ctx()
    qi = _qinf(order)
    ctx.equal(qi.delta_q(), phi1(1, order) * qi * (-1), order, "euler product, base q")
    q2 = _q2inf(order)
    ctx.equal(q2.delta_q(), phi1(2, order) * q2 * (-2), order, "euler product, base q^2")
    aq = _aqodd(order)
    odd = _lam(order, npoly=(0, 1), B_=1, den=Monomial(F(-1)), a=1, domain="odd>=1")
    ctx.equal(aq.delta_q(), aq * odd, order, "odd-part product")
    return "symbolic", [], ctx


def _check_c30(order: int):
    ctx = _Ctx()
    direct = B.spt_gf_direct(order)
    ctx.equal(B.spt_gf(order), direct, order, "moment form vs direct sum")
    table = O.spt_table(order)
    for n in range(order + 1):
        want = ParamPoly(("d", "e"), {(r, s): c for (r, s), c in table[n].items()})
        ctx.poly_equal(direct.coefficient(n), want, n, f"oracle at q^{n}")
    return "symbolic", [], ctx


def _check_c31(order: int):
    ctx = _Ctx()
    s = B.spt_gf(order, 1, 1)
    closed = (_aqinf(order) ** 2) * (_qinf(order) ** 2).invert() * F(1, 4)
    lhs = s + QSeries((), order, {0: F(1, 4)}) - closed
    ctx.zero(lhs, order, "closed form at d=e=1")
    return "symbolic", [], ctx


def _check_c32(order: int):
    ctx = _Ctx()
    table = O.spt_table(order)
    ppbar = (_aqinf(order) ** 2) * (_qinf(order) ** 2).invert()
    for n in range(1, order + 1):
        total = sum(table[n].values())
        ctx.true(
            4 * total == ppbar.coefficient(n).constant_value(),
            f"quarter law at n={n}",
        )
    ctx.true(sum(table[1].values()) == 1 and sum(table[2].values()) == 3, "totals at n=1,2")
    return "symbolic", [], ctx


def _check_c33(order: int):
    ctx = _Ctx()
    table = O.rank_table(order)
    for n in range(order + 1):
        for (r, s, m), c in table[n].items():
            ctx.true(
                table[n].get((r, s, -m), 0) == c,
                f"rank symmetry at n={n}, (r,s,m)=({r},{s},{m})",
            )
        for k in (1, 3):
            ctx.true(O.moment_poly(table[n], k).is_zero(), f"odd power moment k={k}, n={n}")
            ctx.true(O.symmetrized_poly(table[n], k).is_zero(), f"odd symmetrized k={k}, n={n}")
    return "symbolic", [], ctx


def _check_c34(order: int):
    ctx = _Ctx()
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
    return "symbolic", [], ctx


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class CheckSpec:
    id: str
    name: str
    reference: str
    order: int
    fn: Callable[[int], Tuple[str, List[str], _Ctx]]


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
    try:
        mode, points, ctx = spec.fn(n)
        status = "pass" if ctx.ok() else "fail"
        mismatch = ctx.failed
    except AlgebraError as exc:
        mode, points, status, mismatch = "symbolic", [], "error", {"label": str(exc)}
    except Exception as exc:  # a broken check is reported, not allowed to abort the suite
        label = f"{type(exc).__name__}: {exc}"
        mode, points, status, mismatch = "symbolic", [], "error", {"label": label}
    millis = int((time.monotonic() - t0) * 1000)
    return CheckResult(spec.id, spec.name, spec.reference, mode, n, points, status, mismatch, millis)


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


def report_json(results: Sequence[CheckResult], include_timing: bool = False) -> str:
    items = []
    for r in results:
        body = r.body()
        if include_timing:
            body["millis"] = r.millis
        items.append(body)
    return json.dumps({"summary": summarize(items), "checks": items}, indent=2, sort_keys=True)


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
    lhs = _lam(order, sign=-1, A=1, B_=1, den=Monomial(F(-1)), a=1)
    rhs = _qinf(order) * _aqinf(order).invert() * F(-1, 2)
    ctx.equal(lhs, rhs, order, "sign-flipped control")
    status = "pass" if ctx.ok() else "fail"
    return CheckResult("NC", "negative-control", "sign-flipped identity must fail",
                       "symbolic", order, [], status, ctx.failed, 0)
