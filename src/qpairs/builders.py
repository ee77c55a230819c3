"""Constructors for the named q-series of the overpartition-pair toolkit.

Every builder returns a :class:`QSeries` exact to the requested order.
Products are assembled from two primitives:

* ``linear_factor`` -- the polynomial ``1 - m`` for a monomial ``m``;
* ``geometric_inverse`` -- ``(1 - m)^(-e)`` expanded with binomial
  coefficients, requiring positive q-valuation so the expansion is a
  genuine power series.

Bilateral sums never divide by Laurent terms directly: the negative
branch is folded into the positive one with the closed rewrite
``(a)_{-n} = (-1)^n q^{n(n+1)/2} / (a^n (q/a)_n)`` before expansion, so
every summand has a unit denominator and nonnegative q-valuation.

The parameters d and e are never materialized with negative powers:
``(-1/d)_n d^n`` is expanded as ``prod_{k<n} (d + q^k)``, which keeps
coefficients polynomial in d, e and makes the per-order degree bounds
(``deg_d``, ``deg_e`` of the coeff of q^n at most n over the base power)
declarable facts; the bounds in turn license substitutions like
``e -> 1/q`` on a base-``q^2`` series.

Builders work at exactly the requested order: each result's ``order`` is
the order asked for, and it agrees with any higher-order build over that
window.  Since :class:`QSeries` tracks the provable order of every
operation, no slack order is needed to keep the window exact.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Tuple, Union

from .poly import AlgebraError, ParamPoly, _as_fraction
from .series import QSeries

# a parameter slot: None keeps the parameter symbolic, a number fixes it
ParamValue = Union[None, int, Fraction]


@dataclass(frozen=True)
class Monomial:
    """A rational coefficient times a q-power times a parameter monomial."""

    c: Fraction = Fraction(1)
    qexp: int = 0
    pexps: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "c", _as_fraction(self.c))
        clean = {p: int(e) for p, e in self.pexps if e}
        object.__setattr__(self, "pexps", tuple(sorted(clean.items())))

    @classmethod
    def make(cls, c=1, qexp=0, **pexps) -> "Monomial":
        return cls(Fraction(c), qexp, tuple(pexps.items()))

    def times_q(self, j: int) -> "Monomial":
        return Monomial(self.c, self.qexp + j, self.pexps)

    def inverse(self) -> "Monomial":
        if self.c == 0:
            raise AlgebraError("cannot invert the zero monomial")
        return Monomial(Fraction(1) / self.c, -self.qexp, tuple((p, -e) for p, e in self.pexps))

    def power(self, n: int) -> "Monomial":
        if n < 0:
            return self.inverse().power(-n)
        return Monomial(self.c ** n, self.qexp * n, tuple((p, e * n) for p, e in self.pexps))

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self.pexps)
        for p, e in other.pexps:
            exps[p] = exps.get(p, 0) + e
        return Monomial(self.c * other.c, self.qexp + other.qexp, tuple(exps.items()))

    def __neg__(self) -> "Monomial":
        return Monomial(-self.c, self.qexp, self.pexps)

    def as_series(self, params: Sequence[str], order: int) -> QSeries:
        return QSeries.monomial(params, order, self.c, self.qexp, dict(self.pexps))

    def as_poly(self, params: Sequence[str]) -> ParamPoly:
        if self.qexp:
            raise AlgebraError(f"monomial q^{self.qexp} is not a bare coefficient")
        return ParamPoly.monomial(params, dict(self.pexps), self.c)

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p for p, _ in self.pexps)


_NAME_TOKEN = re.compile(r"([A-Za-z]\w*)(?:\^(-?\d+))?\Z")
_NUM_TOKEN = re.compile(r"-?\d+(?:/\d+)?\Z")


def parse_monomial(text: str) -> Monomial:
    """Parse ``*``-separated monomials: ``-x``, ``q^2``, ``1/2*q``, ``q*x^-1``."""
    s = text.replace(" ", "")
    neg = False
    if s[:1] in ("+", "-"):
        neg = s[0] == "-"
        s = s[1:]
    if not s:
        raise AlgebraError(f"cannot parse monomial {text!r}")
    c = Fraction(1)
    qexp = 0
    pexps: dict[str, int] = {}
    for tok in s.split("*"):
        m = _NAME_TOKEN.match(tok)
        if m:
            name, exp = m.group(1), int(m.group(2) or 1)
            if name == "q":
                qexp += exp
            else:
                pexps[name] = pexps.get(name, 0) + exp
            continue
        if _NUM_TOKEN.match(tok):
            try:
                c *= Fraction(tok)
            except ZeroDivisionError:
                raise AlgebraError(f"zero denominator in {text!r}") from None
            continue
        raise AlgebraError(f"cannot parse monomial factor {tok!r} in {text!r}")
    if neg:
        c = -c
    return Monomial(c, qexp, tuple(pexps.items()))


# ---------------------------------------------------------------------------
# product primitives


def linear_factor(params: Sequence[str], mono: Monomial, order: int) -> QSeries:
    """The series ``1 - mono``."""
    s = QSeries.one(params, order)
    if mono.c:
        s = s - mono.as_series(params, order)
    return s


def geometric_inverse(params: Sequence[str], mono: Monomial, order: int, power: int = 1) -> QSeries:
    """``(1 - mono)^(-power)`` for a monomial with positive q-valuation."""
    if mono.c == 0:
        return QSeries.one(params, order)
    if mono.qexp < 1:
        raise AlgebraError(
            f"geometric expansion needs positive q-valuation, got q^{mono.qexp}"
        )
    coeffs: dict[int, ParamPoly] = {}
    i = 0
    while i * mono.qexp <= order:
        t = mono.power(i)
        coeffs[t.qexp] = ParamPoly.monomial(
            params, dict(t.pexps), t.c * math.comb(power - 1 + i, power - 1)
        )
        i += 1
    return QSeries(params, order, coeffs)


# ---------------------------------------------------------------------------
# Pochhammer symbols, eta quotients, theta products, Eisenstein series


def pochhammer(
    params: Sequence[str],
    a: Monomial,
    n: Optional[int],
    order: int,
    base: int = 1,
) -> QSeries:
    """The q-shifted factorial ``(a; q^base)_n``; ``n = None`` means infinity.

    Negative length goes through the closed rewrite
    ``(a)_{-m} = (-1)^m q^{m(m+1)/2} / (a^m (q/a)_m)`` (with q replaced by
    the base power throughout) and fails with a pointer to rational-point
    mode when ``(q/a)_m`` lacks a unit leading coefficient.
    """
    params = tuple(params)
    if base < 1:
        raise AlgebraError("base must be a positive q-power")
    if a.c == 0:
        return QSeries.one(params, order)
    if n is not None and n < 0:
        m = -n
        tri = base * m * (m + 1) // 2
        try:
            qa = pochhammer(params, a.inverse().times_q(base), m, order + tri, base)
            denom = a.power(m).as_series(params, qa.order) * qa
            inv = denom.invert()
        except AlgebraError as exc:
            raise AlgebraError(
                f"(a)_(-{m}) not computable symbolically ({exc}); "
                "use rational-point mode"
            ) from exc
        sign = -1 if m % 2 else 1
        return (inv.shift(tri) * sign).truncate(order)

    out = QSeries.one(params, order)
    k = 0
    while n is None or k < n:
        qe = a.qexp + base * k
        if n is None and qe > order:
            break
        if qe < 0:
            raise AlgebraError(f"Pochhammer factor with negative q-valuation q^{qe}")
        if qe == 0 and n is None and not a.pexps and a.c == 1:
            raise AlgebraError("(1; q)_infinity vanishes identically")
        out = out * linear_factor(params, a.times_q(base * k), order)
        k += 1
    return out


@functools.lru_cache(maxsize=None)
def _poch_inf_cached(params: Tuple[str, ...], mono: Monomial, base: int, order: int) -> QSeries:
    return pochhammer(params, mono, None, order, base)


def poch_inf(params: Sequence[str], mono: Monomial, order: int, base: int = 1) -> QSeries:
    """Memoized infinite Pochhammer product (hot path for common prefactors)."""
    return _poch_inf_cached(tuple(params), mono, base, order)


def q_inf(order: int, params: Sequence[str] = ()) -> QSeries:
    """Euler's product ``(q; q)_infinity``."""
    return poch_inf(params, Monomial.make(1, 1), order)


def eta_quotient(factors: Sequence[Tuple[int, int]], order: int) -> QSeries:
    """``prod_i eta(m_i z)^{r_i}`` as a q-series, from pairs ``(m, r)``.

    Requires the total fractional power ``sum m*r/24`` to be an integer,
    since only integral q-exponents are representable.
    """
    total = sum(Fraction(m * r, 24) for m, r in factors)
    if total.denominator != 1:
        raise AlgebraError(f"fractional eta power q^({total}); not representable")
    shift = int(total)
    work = max(order - shift, 0)
    out = QSeries.one((), work)
    for m, r in factors:
        p = poch_inf((), Monomial.make(1, m), work, m)
        out = out * (p ** r if r >= 0 else p.invert() ** (-r))
    return out.shift(shift).truncate(order)


def phi1(m: int, order: int, params: Sequence[str] = ()) -> QSeries:
    """``sum_{n>=1} n q^{mn} / (1 - q^{mn})``; coefficients are sigma_1."""
    if m < 1:
        raise AlgebraError("base power must be positive")
    coeffs = {}
    for n in range(1, order // m + 1):
        coeffs[m * n] = sum(d for d in range(1, n + 1) if n % d == 0)
    return QSeries(params, order, coeffs)


def eisenstein_E2(order: int, params: Sequence[str] = ()) -> QSeries:
    """The weight-2 quasimodular Eisenstein series ``1 - 24 sum sigma_1(n) q^n``."""
    return QSeries.one(params, order) - 24 * phi1(1, order, params)


def jacobi_J(
    a: Monomial, order: int, base: int = 1, params: Optional[Sequence[str]] = None
) -> QSeries:
    """The theta-like product ``J(a; Q) = (a; Q)_inf (Q/a; Q)_inf``, Q = q^base.

    Constant-in-q factors (e.g. the leading ``1 + x`` of ``J(-x; q)``) are
    retained as polynomial multipliers; a factor with negative q-valuation
    is an error.
    """
    params = tuple(params) if params is not None else a.param_names()
    first = pochhammer(params, a, None, order, base)
    second = pochhammer(params, a.inverse().times_q(base), None, order, base)
    return first * second


# ---------------------------------------------------------------------------
# Lambert-type sums


@dataclass(frozen=True)
class LambertSpec:
    """One term family ``c * sign^n * zeta^n * P(n) * q^{E(n)} / (1 - u q^{an+b})^e``.

    ``E(n) = A n^2 + B n + C`` must be integer-valued on the domain and the
    per-term valuation (after the denominator rewrite for ``an+b < 0``)
    must eventually grow, so only finitely many n contribute below any
    truncation order.  ``P(n)`` is the polynomial with coefficients
    ``npoly`` (constant term first).  ``u`` is a monomial; ``u = 0`` means
    a bare numerator term.  Domains: ``Z``, ``Znz`` (nonzero integers),
    ``n>=0``, ``n>=1``, ``odd`` (all odd integers), ``odd>=1``.
    """

    c: Fraction = Fraction(1)
    sign: int = 1
    zeta: Fraction = Fraction(1)
    A: Fraction = Fraction(0)
    B: Fraction = Fraction(0)
    C: Fraction = Fraction(0)
    npoly: Tuple[Fraction, ...] = (Fraction(1),)
    den: Monomial = Monomial(Fraction(0))
    a: int = 0
    b: int = 0
    e: int = 1
    domain: str = "Z"

    def __post_init__(self):
        for f in ("c", "zeta", "A", "B", "C"):
            object.__setattr__(self, f, _as_fraction(getattr(self, f)))
        object.__setattr__(self, "npoly", tuple(_as_fraction(v) for v in self.npoly))
        if self.sign not in (1, -1):
            raise AlgebraError("sign base must be +1 or -1")
        if self.domain not in ("Z", "Znz", "n>=0", "n>=1", "odd", "odd>=1"):
            raise AlgebraError(f"unknown summation domain {self.domain!r}")

    def exponent(self, n: int) -> int:
        val = self.A * n * n + self.B * n + self.C
        if val.denominator != 1:
            raise AlgebraError(f"non-integral exponent {val} at n={n}")
        return int(val)

    def in_domain(self, n: int) -> bool:
        return {
            "Z": True,
            "Znz": n != 0,
            "n>=0": n >= 0,
            "n>=1": n >= 1,
            "odd": n % 2 != 0,
            "odd>=1": n >= 1 and n % 2 != 0,
        }[self.domain]

    def one_sided(self) -> bool:
        return self.domain in ("n>=0", "n>=1", "odd>=1")


_LAMBERT_CAP = 4096


def _lambert_term(
    spec: LambertSpec, n: int, params: Tuple[str, ...], order: int
) -> Tuple[int, Optional[QSeries]]:
    """Return ``(valuation, series or None)`` for the n-th summand."""
    E = spec.exponent(n)
    pval = sum(cf * Fraction(n) ** i for i, cf in enumerate(spec.npoly))
    scalar = spec.c * pval * spec.zeta ** n
    if spec.sign == -1 and n % 2:
        scalar = -scalar
    if spec.den.c == 0:
        if E > order:
            return E, None
        return E, QSeries(params, order, {E: scalar})
    M = spec.a * n + spec.b
    if M > 0:
        if E > order:
            return E, None
        body = geometric_inverse(params, spec.den.times_q(M), order - E, spec.e)
        return E, body.shift(E) * scalar
    if M == 0:
        if spec.den.pexps:
            raise AlgebraError(
                "denominator constant in q at a symbolic parameter; "
                "rational-point mode required"
            )
        if spec.den.c == 1:
            raise AlgebraError(f"zero denominator 1 - q^0 at n={n}")
        if E > order:
            return E, None
        return E, QSeries(params, order, {E: scalar * (1 - spec.den.c) ** (-spec.e)})
    # M < 0: rewrite 1 - u q^M = (-u q^M)(1 - q^{-M}/u)
    mm = -M
    val = E + spec.e * mm
    if val > order:
        return val, None
    front = (-spec.den).inverse().power(spec.e)
    body = geometric_inverse(params, spec.den.inverse().times_q(mm), order - val, spec.e)
    return val, body.shift(val) * front.as_poly(params) * scalar


def lambert_sum(spec: LambertSpec, order: int, params: Sequence[str] = ()) -> QSeries:
    """Sum the Lambert family exactly to the requested order.

    Iterates outward from n = 0 and stops a direction once the per-term
    valuation has exceeded the order while strictly increasing for three
    consecutive n; a hard cap catches specs whose valuation never grows.
    """
    params = tuple(params) or spec.den.param_names()
    if spec.zeta == 0:
        raise AlgebraError("zeta = 0 is not summable over negative n")
    acc = QSeries.zero(params, order)
    for direction in (1, -1):
        if direction == -1 and spec.one_sided():
            continue
        prev_val: Optional[int] = None
        beyond = 0
        n = 0 if direction == 1 else -1
        while True:
            if abs(n) > _LAMBERT_CAP:
                raise AlgebraError(
                    "Lambert sum failed to terminate: per-term valuation "
                    "is not growing (malformed spec)"
                )
            if spec.in_domain(n):
                val, term = _lambert_term(spec, n, params, order)
                if term is not None:
                    acc = acc + term
                    beyond = 0
                else:
                    beyond = beyond + 1 if (prev_val is None or val > prev_val) else 1
                    if beyond >= 3:
                        break
                prev_val = val
            n += direction
    return acc


# ---------------------------------------------------------------------------
# shared pieces of the rank-type builders


def _sym_params(*slots: Tuple[str, ParamValue]) -> Tuple[str, ...]:
    return tuple(name for name, v in slots if v is None)


def _pfac(params: Sequence[str], name: str, value: ParamValue, qexp: int = 0) -> Monomial:
    """Monomial ``p * q^qexp`` with p symbolic (value None) or rational."""
    if value is None:
        return Monomial(Fraction(1), qexp, ((name, 1),))
    return Monomial(_as_fraction(value), qexp)


def _dplus(params: Tuple[str, ...], name: str, value: ParamValue, qexp: int, order: int) -> QSeries:
    """The factor ``p + q^qexp``."""
    return _pfac(params, name, value).as_series(params, order) + QSeries(params, order, {qexp: 1})


def _declare_de_bounds(s: QSeries, d: ParamValue, e: ParamValue, base: int) -> QSeries:
    bounds = {p: Fraction(1, base) for p, v in (("d", d), ("e", e)) if v is None}
    return s.with_bounds(bounds) if bounds else s


def _prefactor(params: Tuple[str, ...], d: ParamValue, e: ParamValue, order: int, base: int) -> QSeries:
    """``(-dQ, -eQ; Q)_inf / (Q, deQ; Q)_inf`` with Q = q^base."""
    top = pochhammer(params, -_pfac(params, "d", d, base), None, order, base) * pochhammer(
        params, -_pfac(params, "e", e, base), None, order, base
    )
    de = (_pfac(params, "d", d) * _pfac(params, "e", e)).times_q(base)
    bottom = poch_inf(params, Monomial.make(1, base), order, base) * pochhammer(
        params, de, None, order, base
    )
    return top * bottom.invert()


def _lambert_ratios(
    params: Tuple[str, ...], d: ParamValue, e: ParamValue, order: int, base: int, lin: int
) -> Iterator[Tuple[int, int, QSeries]]:
    """Yield ``(m, E, R_m)`` for m = 1, 2, ... while the summand exponent
    ``E = base * (m(m+1)/2 + lin*m)`` is at most ``order``, where
    ``R_m = prod_{k<m} (d + Q^k)(e + Q^k) / (-dQ, -eQ; Q)_m``, Q = q^base."""
    R = QSeries.one(params, order)
    m = 1
    while (E := base * (m * (m + 1) // 2 + lin * m)) <= order:
        R = R * _dplus(params, "d", d, base * (m - 1), order) * _dplus(params, "e", e, base * (m - 1), order)
        R = R * geometric_inverse(params, -_pfac(params, "d", d, base * m), order)
        R = (R * geometric_inverse(params, -_pfac(params, "e", e, base * m), order)).truncate(order)
        yield m, E, R
        m += 1


def _inv_x_pair(params: Tuple[str, ...], name: str, x: ParamValue, qexp: int, order: int) -> QSeries:
    """``1 / ((1 - x q^j)(1 - q^j / x))`` for symbolic or rational nonzero x."""
    xm = _pfac(params, name, x)
    if xm.c == 0:
        raise AlgebraError(f"{name} = 0 is a pole of the rank refinement")
    return geometric_inverse(params, xm.times_q(qexp), order) * geometric_inverse(
        params, xm.inverse().times_q(qexp), order
    )


# ---------------------------------------------------------------------------
# rank generating functions and their relatives


def rank_gf(
    order: int,
    d: ParamValue = None,
    e: ParamValue = None,
    x: ParamValue = None,
    base: int = 1,
) -> QSeries:
    """Rank refinement of overpartition pairs by the (r, s) statistics.

    ``sum_{n>=0} (-1/d, -1/e)_n (d e Q)^n / (xQ, Q/x)_n`` over Q = q^base,
    with the d- and e-carrying factors combined into
    ``prod_{k<n} (d + Q^k)(e + Q^k)`` so coefficients stay polynomial in
    d, e (Laurent in x).  Symbolic d, e carry validated degree bounds.
    """
    params = _sym_params(("d", d), ("e", e), ("x", x))
    acc = QSeries.one(params, order)
    term = QSeries.one(params, order)
    n = 1
    while base * n <= order:
        top = _dplus(params, "d", d, base * (n - 1), order) * _dplus(params, "e", e, base * (n - 1), order)
        term = (term * top).shift(base).truncate(order)
        term = (term * _inv_x_pair(params, "x", x, base * n, order)).truncate(order)
        acc = acc + term
        n += 1
    return _declare_de_bounds(acc, d, e, base)


def rank_gf_lambert(
    order: int,
    d: ParamValue = None,
    e: ParamValue = None,
    x: ParamValue = None,
    base: int = 1,
) -> QSeries:
    """Bilateral Lambert form of :func:`rank_gf`.

    The negative branch is folded into the positive one, giving
    ``P * [1 + (1-x) sum_{m>=1} (-1)^m q^{m(m+3)/2} R_m
    (1/(1-xq^m) - x^{-1}/(1-q^m/x))]`` with
    ``R_m = prod_{k<m}(d+q^k)(e+q^k) / (-dq, -eq)_m`` and the standard
    prefactor ``P`` (all in the base power).
    """
    params = _sym_params(("d", d), ("e", e), ("x", x))
    xm = _pfac(params, "x", x)
    if xm.c == 0:
        raise AlgebraError("x = 0 is a pole of the rank refinement")
    tail = QSeries.zero(params, order)
    for m, E, R in _lambert_ratios(params, d, e, order, base, 1):
        first = geometric_inverse(params, xm.times_q(base * m), order - E).shift(E)
        second = geometric_inverse(params, xm.inverse().times_q(base * m), order - E).shift(E)
        second = second * xm.inverse().as_poly(params)
        sign = -1 if m % 2 else 1
        tail = tail + (first - second) * R * sign
    body = QSeries.one(params, order) + linear_factor(params, xm, order) * tail
    return _declare_de_bounds(_prefactor(params, d, e, order, base) * body, d, e, base)


def n2v(
    v: int,
    order: int,
    d: ParamValue = None,
    e: ParamValue = None,
    base: int = 1,
) -> QSeries:
    """Generating function for the 2v-th symmetrized rank moments.

    Prefactor times the bilateral sum over nonzero n, with both branches
    folded together:
    ``P * sum_{m>=1} (-1)^{m-1} q^{m(m+1)/2 + vm} (1 + q^m) R_m
    / (1 - q^m)^{2v}`` in the base power, ``R_m`` as in
    :func:`rank_gf_lambert`.
    """
    if v < 1:
        raise AlgebraError("symmetrized moment index v must be >= 1")
    params = _sym_params(("d", d), ("e", e))
    acc = QSeries.zero(params, order)
    for m, E, R in _lambert_ratios(params, d, e, order, base, v):
        body = geometric_inverse(params, Monomial.make(1, base * m), order - E, 2 * v).shift(E)
        body = body * QSeries(params, order, {0: 1, base * m: 1})
        sign = 1 if m % 2 else -1
        acc = acc + (body * R).truncate(order) * sign
    return _declare_de_bounds(_prefactor(params, d, e, order, base) * acc, d, e, base)


def spt_gf(order: int, d: ParamValue = None, e: ParamValue = None) -> QSeries:
    """Smallest-parts generating function: prefactor times the divisor sum
    minus the second symmetrized moment series."""
    params = _sym_params(("d", d), ("e", e))
    head = _prefactor(params, d, e, order, 1) * phi1(1, order, params)
    return _declare_de_bounds(head - n2v(1, order, d, e), d, e, 1)


def spt_gf_direct(order: int, d: ParamValue = None, e: ParamValue = None) -> QSeries:
    """Smallest-parts generating function as a single unilateral sum:
    ``P * sum_{n>=1} (q, deq)_n q^n / ((1-q^n)^2 (-dq, -eq)_n)``."""
    params = _sym_params(("d", d), ("e", e))
    de = _pfac(params, "d", d) * _pfac(params, "e", e)
    acc = QSeries.zero(params, order)
    T = QSeries.one(params, order)
    n = 1
    while n <= order:
        T = T * linear_factor(params, Monomial.make(1, n), order)
        T = T * linear_factor(params, de.times_q(n), order)
        T = T * geometric_inverse(params, -_pfac(params, "d", d, n), order)
        T = (T * geometric_inverse(params, -_pfac(params, "e", e, n), order)).truncate(order)
        term = T * geometric_inverse(params, Monomial.make(1, n), order - n, 2).shift(n)
        acc = acc + term.truncate(order)
        n += 1
    return _declare_de_bounds(_prefactor(params, d, e, order, 1) * acc, d, e, 1)


def durfee_rhs(
    k: int,
    order: int,
    xs: Optional[Sequence[ParamValue]] = None,
    d: ParamValue = None,
    e: ParamValue = None,
) -> QSeries:
    """Sum side of the marked-symbol generating function for k >= 2.

    ``P * sum_{n>=1} (-1)^{n-1} (1+q^n)(1-q^n)^2 R_n q^{n(n-1)/2 + kn}
    / prod_j (1 - x_j q^n)(1 - q^n / x_j)``.  Each slot of ``xs`` is a
    rational point or None for a symbolic variable ``x1 .. xk``.
    """
    if k < 2:
        raise AlgebraError("marked-symbol generating function needs k >= 2")
    xs = tuple(xs) if xs is not None else (None,) * k
    if len(xs) != k:
        raise AlgebraError(f"expected {k} rank-variable slots, got {len(xs)}")
    xnames = tuple(f"x{j + 1}" for j in range(k))
    params = _sym_params(("d", d), ("e", e)) + _sym_params(*zip(xnames, xs))
    acc = QSeries.zero(params, order)
    # n(n-1)/2 + kn = n(n+1)/2 + (k-1)n
    for n, E, R in _lambert_ratios(params, d, e, order, 1, k - 1):
        body = QSeries.one(params, order - E)
        for name, xv in zip(xnames, xs):
            body = (body * _inv_x_pair(params, name, xv, n, order - E)).truncate(order - E)
        body = body.shift(E)
        # (1 + q^n)(1 - q^n)^2 = 1 - q^n - q^{2n} + q^{3n}
        poly = QSeries(params, order, {0: 1, n: -1, 2 * n: -1, 3 * n: 1})
        sign = 1 if n % 2 else -1
        acc = acc + (body * R * poly).truncate(order) * sign
    return _declare_de_bounds(_prefactor(params, d, e, order, 1) * acc, d, e, 1)


def rk_partial_fractions(
    k: int,
    xpoints: Sequence,
    order: int,
    d: ParamValue = None,
    e: ParamValue = None,
) -> QSeries:
    """Partial-fraction form of the full-rank function at rational points:
    ``sum_i N(d, e, x_i; q) / prod_{j != i} (x_i - x_j)(1 - 1/(x_i x_j))``.

    Requires the points pairwise distinct, not mutually inverse, nonzero,
    and none equal to +-1 (degenerate configurations need analytic
    continuation, which is out of scope).
    """
    if k < 2:
        raise AlgebraError("partial-fraction form needs k >= 2")
    pts = [_as_fraction(x) for x in xpoints]
    if len(pts) != k:
        raise AlgebraError(f"expected {k} points, got {len(pts)}")
    for i, xi in enumerate(pts):
        if xi == 0 or xi * xi == 1:
            raise AlgebraError(f"degenerate point x_{i + 1} = {xi}")
        for j, xj in enumerate(pts):
            if i < j and (xi == xj or xi * xj == 1):
                raise AlgebraError(
                    f"degenerate point pair x_{i + 1} = {xi}, x_{j + 1} = {xj}"
                )
    acc = None
    for i, xi in enumerate(pts):
        weight = Fraction(1)
        for j, xj in enumerate(pts):
            if j != i:
                weight *= (xi - xj) * (1 - Fraction(1) / (xi * xj))
        piece = rank_gf(order, d, e, xi) * (Fraction(1) / weight)
        acc = piece if acc is None else acc + piece
    return acc


def crank_C(order: int, x: ParamValue = None, base: int = 1) -> QSeries:
    """The crank-type product ``(Q; Q)_inf / (xQ, Q/x; Q)_inf``, Q = q^base."""
    params = _sym_params(("x", x))
    xm = _pfac(params, "x", x)
    if xm.c == 0:
        raise AlgebraError("x = 0 is a pole of the crank product")
    num = poch_inf(params, Monomial.make(1, base), order, base)
    den = pochhammer(params, xm.times_q(base), None, order, base) * pochhammer(
        params, xm.inverse().times_q(base), None, order, base
    )
    return num * den.invert()


def crank_C_star(order: int, x, base: int = 1) -> QSeries:
    """``C(x; Q) / (1 - x)`` at a rational point x != 1."""
    x = _as_fraction(x)
    if x == 1:
        raise AlgebraError("x = 1 is a pole of the starred crank product")
    return crank_C(order, x, base) * Fraction(1, 1 - x)


# ---------------------------------------------------------------------------
# hypergeometric bridge displays (rational points only)


def phi65_pair(b, order: int) -> Tuple[QSeries, QSeries]:
    """Both sides of the base-``q^2`` very-well-poised summation at rational b.

    lhs: ``1 + sum_{n>=1} (1+q^{2n})(b, 1/b; q^2)_n (-1)^n q^{n^2+n}
    / (bq^2, q^2/b; q^2)_n``; rhs: ``(q^2; q^2)_inf^2 / (bq^2, q^2/b; q^2)_inf``.
    """
    b = _as_fraction(b)
    if b == 0:
        raise AlgebraError("b = 0 makes the reciprocal argument undefined")
    lhs = QSeries.one((), order)
    T = QSeries.one((), order)
    n = 1
    while n * n + n <= order:
        T = T * linear_factor((), Monomial(b, 2 * (n - 1)), order)
        T = T * linear_factor((), Monomial(Fraction(1) / b, 2 * (n - 1)), order)
        T = T * geometric_inverse((), Monomial(b, 2 * n), order)
        T = (T * geometric_inverse((), Monomial(Fraction(1) / b, 2 * n), order)).truncate(order)
        sign = -1 if n % 2 else 1
        lhs = lhs + T * QSeries((), order, {n * n + n: sign, n * n + 3 * n: sign})
        n += 1
    den = pochhammer((), Monomial(b, 2), None, order, 2) * pochhammer(
        (), Monomial(Fraction(1) / b, 2), None, order, 2
    )
    rhs = poch_inf((), Monomial.make(1, 2), order, 2) ** 2 * den.invert()
    return lhs, rhs


# ---------------------------------------------------------------------------
# moment extraction


def drop_param(s: QSeries, name: str) -> QSeries:
    """Remove a parameter that no longer occurs (exponent 0 everywhere)."""
    if name not in s.params:
        return s
    i = s.params.index(name)
    rest = tuple(p for p in s.params if p != name)
    coeffs = {}
    for n, c in s.coeffs.items():
        terms = {}
        for vec, v in c.terms.items():
            if vec[i]:
                raise AlgebraError(f"parameter {name} still occurs in coeff of q^{n}")
            terms[vec[:i] + vec[i + 1:]] = v
        coeffs[n] = ParamPoly(rest, terms)
    return QSeries(rest, s.order, coeffs, {p: v for p, v in s.bounds.items() if p != name})


def symmetrized_moment_series(
    k: int, order: int, d: ParamValue = None, e: ParamValue = None
) -> QSeries:
    """k-th symmetrized moment extraction from the rank refinement:
    ``(1/k!) [d^k/dx^k (x^{floor((k-1)/2)} N)]_{x=1}``.

    Identically zero for odd k by the x <-> 1/x symmetry.
    """
    if k < 1:
        raise AlgebraError("moment index must be >= 1")
    N = rank_gf(order, d, e, None)
    s = N * ParamPoly.monomial(N.params, {"x": (k - 1) // 2})
    for _ in range(k):
        s = s.d_dparam("x")
    s = drop_param(s.eval_param("x", 1), "x") * Fraction(1, math.factorial(k))
    return _declare_de_bounds(s, d, e, 1)


# ---------------------------------------------------------------------------
# string-addressable registry for the CLI and reports


BUILDER_GRAMMAR = """\
Builder identifiers are name:arg:key=value,... segments, colon separated.
Values are rationals (2, -1, 1/2) or q-monomials (q, q^2, -1*q^-1, with *
between factors); omit a parameter to keep it symbolic.

  qinf                 the infinite product (q; q)_inf
  E2                   weight-2 Eisenstein series
  Phi1[:m=M]           divisor-power sum in base q^M
  eta:M^R,M^R,...      eta quotient with factors eta(Mz)^R
  J:MONO[:base=B]      theta product J(MONO; q^B), e.g. J:-x
  C[:x=V][:base=B]     crank-type product
  Cstar:x=V[:base=B]   starred crank product (rational V != 1)
  rank[:d=..:e=..:x=..:base=B]       rank refinement, unilateral form
  rank-lambert[:...]                 rank refinement, bilateral form
  n2v:v=V[:d=..:e=..:base=B]         symmetrized 2v-th moment series
  moment:k=K[:d=..:e=..]             direct k-th symmetrized extraction
  spt[:d=..:e=..] / spt-direct[...]  smallest-parts series, two forms
  durfee:k=K[:d=..:e=..:x1=..:..]    marked-symbol sum side

d and e accept q-monomials c*q^j, applied by exact substitution; j < 0
requires base > |j| so the declared degree bound keeps exponents provable.
"""


def _split_id(spec: str) -> Tuple[str, dict, list]:
    parts = spec.split(":")
    name = parts[0]
    kw: dict[str, str] = {}
    pos: list[str] = []
    for seg in parts[1:]:
        if "=" in seg:
            k, v = seg.split("=", 1)
            kw[k] = v
        else:
            pos.append(seg)
    return name, kw, pos


# the keys each builder reads; "durfee" also reads x1 .. xk
_BUILDER_KEYS = {
    "qinf": (), "E2": (), "Phi1": ("m",), "eta": (), "J": ("base",),
    "C": ("x", "base"), "Cstar": ("x", "base"),
    "rank": ("d", "e", "x", "base"), "rank-lambert": ("d", "e", "x", "base"),
    "n2v": ("v", "d", "e", "base"), "moment": ("k", "d", "e"),
    "spt": ("d", "e"), "spt-direct": ("d", "e"), "durfee": ("k", "d", "e"),
}
_POSITIONAL = ("eta", "J")  # builders that take one positional argument


def _value_or_mono(text: str) -> Union[Fraction, Monomial]:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return parse_monomial(text)


def _apply_sub(s: QSeries, name: str, mono: Monomial) -> QSeries:
    if mono.pexps:
        raise AlgebraError(f"substitution value for {name} must be constant in parameters")
    return drop_param(s.substitute_param(name, mono.c, mono.qexp), name)


def build(spec: str, order: int, assignments: Optional[Mapping[str, str]] = None) -> QSeries:
    """Construct a series from its string identifier (see BUILDER_GRAMMAR)."""
    name, kw, pos = _split_id(spec.strip())
    if assignments:
        for k, v in assignments.items():
            kw.setdefault(k, str(v))

    def val(key):
        return _value_or_mono(kw[key]) if key in kw else None

    def intval(key, default):
        return int(kw[key]) if key in kw else default

    if name not in _BUILDER_KEYS:
        raise AlgebraError(f"unknown builder {name!r}")
    keys = set(_BUILDER_KEYS[name])
    if name == "durfee":
        keys.update(f"x{j + 1}" for j in range(intval("k", 2)))
    unread = sorted(set(kw) - keys)
    if unread:
        raise AlgebraError(f"builder {name!r} does not take {', '.join(unread)}")
    extra = pos[1:] if name in _POSITIONAL else pos
    if extra:
        raise AlgebraError(f"builder {name!r} does not take argument {extra[0]!r}")

    base = intval("base", 1)
    if name == "qinf":
        return q_inf(order)
    if name == "E2":
        return eisenstein_E2(order)
    if name == "Phi1":
        return phi1(intval("m", 1), order)
    if name == "eta":
        if not pos:
            raise AlgebraError("eta needs factors, e.g. eta:8^1,16^-2")
        factors = []
        for piece in pos[0].split(","):
            m, _, r = piece.partition("^")
            factors.append((int(m), int(r or 1)))
        return eta_quotient(factors, order)
    if name == "J":
        if not pos:
            raise AlgebraError("J needs a monomial argument, e.g. J:-x")
        return jacobi_J(parse_monomial(pos[0]), order, base)
    if name == "C":
        x = val("x")
        if isinstance(x, Monomial):
            raise AlgebraError("crank product takes rational x only")
        return crank_C(order, x, base)
    if name == "Cstar":
        x = val("x")
        if not isinstance(x, Fraction):
            raise AlgebraError("starred crank product needs a rational x")
        return crank_C_star(order, x, base)

    slots: dict[str, Union[None, Fraction, Monomial]] = {
        "d": val("d"), "e": val("e"), "x": val("x")
    }
    subs: list[Tuple[str, Monomial]] = []
    work_order = order
    fixed: dict[str, ParamValue] = {}
    for pname, v in slots.items():
        if v is None:
            fixed[pname] = None
        elif isinstance(v, Fraction):
            fixed[pname] = v
        elif v.qexp == 0:
            fixed[pname] = v.c
        else:
            fixed[pname] = None
            subs.append((pname, v))
            if v.qexp < 0:
                if base <= -v.qexp:
                    raise AlgebraError(
                        f"substitution {pname} -> q^{v.qexp} needs base > {-v.qexp}"
                    )
                # pre-substitution order large enough that shrinkage by
                # (base + qexp)/base still certifies the requested order
                work_order = max(
                    work_order, math.ceil((order + 1) * base / (base + v.qexp))
                )

    if name == "rank":
        s = rank_gf(work_order, fixed["d"], fixed["e"], fixed["x"], base)
    elif name == "rank-lambert":
        s = rank_gf_lambert(work_order, fixed["d"], fixed["e"], fixed["x"], base)
    elif name == "n2v":
        s = n2v(intval("v", 1), work_order, fixed["d"], fixed["e"], base)
    elif name == "moment":
        s = symmetrized_moment_series(intval("k", 2), work_order, fixed["d"], fixed["e"])
    elif name == "spt":
        s = spt_gf(work_order, fixed["d"], fixed["e"])
    elif name == "spt-direct":
        s = spt_gf_direct(work_order, fixed["d"], fixed["e"])
    else:  # durfee
        k = intval("k", 2)
        xs = []
        for j in range(k):
            vj = val(f"x{j + 1}")
            if isinstance(vj, Monomial):
                raise AlgebraError("marked-symbol rank variables take rational points")
            xs.append(vj)
        s = durfee_rhs(k, work_order, xs, fixed["d"], fixed["e"])
    for pname, mono in subs:
        s = _apply_sub(s, pname, mono)
    return s.truncate(order)
