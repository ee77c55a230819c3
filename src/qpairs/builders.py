"""Constructors for the named q-series of the overpartition-pair toolkit.

Every builder returns a :class:`QSeries` exact to the requested order.
Every q-Pochhammer factor ``(1 - m)^{+-e}`` goes through one kernel,
:meth:`QSeries.mul_one_minus`, and a chain of them is one kernel call in
integer arithmetic: the factors whose m is a rational times one
``t = p^vec q^k`` multiply out into one polynomial in t per sign, applied
as one product for the positive powers and one recurrence
(``g_n = f_n - sum_j Q_j t^j g_{n-jk}``) for the negative ones, so a
chain runs at most two passes per distinct t.  Every
product, the prefactor ``(-dq, -eq)_inf / (q, deq)_inf`` included, is
applied by :func:`times_poch` to the series it multiplies, all its linear
factors as one chain, each Pochhammer symbol with its own base.  No
builder expands a geometric series or inverts or powers a product: a
negative-length Pochhammer symbol divides its monomial by the chain of
factors of ``(q/a)_m``.

Bilateral sums never divide by Laurent terms directly: the negative
branch is folded into the positive one with the closed rewrite
``(a)_{-n} = (-1)^n q^{n(n+1)/2} / (a^n (q/a)_n)`` before expansion, so
every summand has a unit denominator and nonnegative q-valuation.  The
rank, moment, smallest-parts and marked-symbol sums are one such sum,
:func:`_alternating_sum`.  It and every unilateral sum are one recurrence,
:func:`_horner`, in nested form from the top term down.  The direct moment
extraction :func:`symmetrized_moment_series` reads a built rank refinement
at x = 1 in one :meth:`QSeries.eval_weighted` pass, each term weighed by a
generalized binomial; it builds no derivative series.

The parameters d and e are never materialized with negative powers:
``(-1/d)_n d^n`` is expanded as ``prod_{k<n} (d + q^k)``, which keeps
coefficients polynomial in d, e and makes the per-order degree bounds
(``deg_d``, ``deg_e`` of the coeff of q^n at most n over the base power)
declarable facts; the bounds in turn license substitutions like
``e -> 1/q`` on a base-``q^2`` series.  No operation but ``truncate``
keeps a bound, so each builder declares its bounds as its last step, and
``build`` makes all its substitutions in one ``substitute_param`` call.
Fixing a parameter, by a rational or a q-monomial, removes it from the
series.

Builders work at exactly the requested order: each result's ``order`` is
the order asked for, and it agrees with any higher-order build over that
window.  Since :class:`QSeries` tracks the provable order of every
operation, no slack order is needed to keep the window exact.  No builder
keeps a memo across calls: a caller that reads one series at several places
builds it once and passes it in, as :func:`rk_partial_fractions` takes each
point's rank refinement.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

from .poly import AlgebraError, ParamPoly, Scalar, _as_fraction, _integer, gbinom
from .series import QSeries

# a parameter slot: None keeps the parameter symbolic, a number fixes it
ParamValue = Union[None, int, Fraction]


class Monomial:
    """A rational coefficient times a q-power times a parameter monomial.  Immutable by
    convention; equal, and hashed alike, when c, qexp and the sorted nonzero pexps agree."""

    __slots__ = ("c", "qexp", "pexps")

    def __init__(self, c: Scalar = Fraction(1), qexp: int = 0, pexps: Tuple[Tuple[str, int], ...] = ()):
        self.c = _as_fraction(c)
        self.qexp = qexp
        self.pexps = tuple(sorted({p: int(e) for p, e in pexps if e}.items()))

    def __eq__(self, other) -> bool:
        if type(other) is not Monomial:
            return NotImplemented
        return (self.c, self.qexp, self.pexps) == (other.c, other.qexp, other.pexps)

    def __hash__(self) -> int:
        return hash((self.c, self.qexp, self.pexps))

    def __repr__(self) -> str:
        return f"Monomial(c={self.c!r}, qexp={self.qexp!r}, pexps={self.pexps!r})"

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


def _times(s: QSeries, *factors: Tuple[Monomial, int]) -> QSeries:
    """``s * prod (1 - m)^power`` over the ``(m, power)`` factors, in one kernel call."""
    return s.mul_one_minus([(m.c, m.qexp, m.pexps, power) for m, power in factors])


def geometric_inverse(params: Sequence[str], mono: Monomial, order: int, power: int = 1) -> QSeries:
    """``(1 - mono)^(-power)`` exact to ``order``."""
    return _times(QSeries.one(params, order), (mono, -power))


def times_poch(s: QSeries, *factors: Tuple[Monomial, int, int], n: Optional[int] = None) -> QSeries:
    """``s * prod (a; q^base)_n^power`` over the ``(a, power, base)`` factors,
    ``n = None`` meaning infinity, as one chain of linear factors in one
    :meth:`QSeries.mul_one_minus` call.  An infinite product stops at the first
    factor that cannot reach the window."""
    reach = s.order - s.valuation
    chain = []
    for a, power, base in factors:
        if base < 1:
            raise AlgebraError("base must be a positive q-power")
        k = 0
        while a.c and (n is None or k < n):
            qe = a.qexp + base * k
            if n is None and qe > reach:
                break
            if qe < 0:
                raise AlgebraError(f"Pochhammer factor with negative q-valuation q^{qe}")
            if qe == 0 and n is None and not a.pexps and a.c == 1:
                raise AlgebraError("(1; q)_infinity vanishes identically")
            chain.append((a.c, qe, a.pexps, power))
            k += 1
    return s.mul_one_minus(chain)


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

    Negative length is the closed rewrite ``(a)_{-m} = (-1)^m a^{-m} q^{m(m+1)/2} / (q/a)_m``
    (with q replaced by the base power throughout): the monomial divided by
    ``(q/a)_m``, one chain of factors through :func:`times_poch`.  It fails with a
    pointer to rational-point mode when a factor of ``(q/a)_m`` is not a unit.
    """
    params = tuple(params)
    if base < 1:
        raise AlgebraError("base must be a positive q-power")
    if a.c == 0:
        return QSeries.one(params, order)
    if n is not None and n < 0:
        m = -n
        lead = Monomial.make((-1) ** m, base * m * (m + 1) // 2) * a.power(-m)
        try:
            return times_poch(lead.as_series(params, order), (a.inverse().times_q(base), -1, base), n=m)
        except AlgebraError as exc:
            raise AlgebraError(
                f"(a)_(-{m}) not computable symbolically ({exc}); "
                "use rational-point mode"
            ) from exc

    return times_poch(QSeries.one(params, order), (a, 1, base), n=n)


@functools.lru_cache(maxsize=64)
def _poch_inf_cached(params: Tuple[str, ...], mono: Monomial, base: int, order: int) -> QSeries:
    return pochhammer(params, mono, None, order, base)


def poch_inf(params: Sequence[str], mono: Monomial, order: int, base: int = 1) -> QSeries:
    """Memoized infinite Pochhammer product ``(mono; q^base)_inf``; no builder calls it."""
    return _poch_inf_cached(tuple(params), mono, base, order)


def q_inf(order: int) -> QSeries:
    """Euler's product ``(q; q)_infinity``."""
    return times_poch(QSeries.one((), order), (Monomial.make(1, 1), 1, 1))


def eta_quotient(factors: Sequence[Tuple[int, int]], order: int) -> QSeries:
    """``prod_i eta(m_i z)^{r_i}`` as a q-series, from pairs ``(m, r)``.

    Requires the total fractional power ``sum m*r/24`` to be an integer,
    since only integral q-exponents are representable.
    """
    total = sum(Fraction(m * r, 24) for m, r in factors)
    if total.denominator != 1:
        raise AlgebraError(f"fractional eta power q^({total}); not representable")
    shift = int(total)
    out = times_poch(QSeries.one((), max(order - shift, 0)), *((Monomial.make(1, m), r, m) for m, r in factors))
    return out.shift(shift).truncate(order)


def phi1(m: int, order: int, params: Sequence[str] = ()) -> QSeries:
    """``sum_{n>=1} n q^{mn} / (1 - q^{mn})``; coefficients are sigma_1."""
    if m < 1:
        raise AlgebraError("base power must be positive")
    coeffs = {}
    for n in range(1, order // m + 1):
        coeffs[m * n] = sum(d for d in range(1, n + 1) if n % d == 0)
    return QSeries(params, order, coeffs)


def eisenstein_E2(order: int) -> QSeries:
    """The weight-2 quasimodular Eisenstein series ``1 - 24 sum sigma_1(n) q^n``."""
    return QSeries.one((), order) - 24 * phi1(1, order)


def jacobi_J(a: Monomial, order: int, base: int = 1) -> QSeries:
    """The theta-like product ``J(a; Q) = (a; Q)_inf (Q/a; Q)_inf``, Q = q^base.

    Constant-in-q factors (e.g. the leading ``1 + x`` of ``J(-x; q)``) are
    retained as polynomial multipliers; a factor with negative q-valuation
    is an error.
    """
    return times_poch(QSeries.one(a.param_names(), order), (a, 1, base), (a.inverse().times_q(base), 1, base))


# ---------------------------------------------------------------------------
# Lambert-type sums


# each summation domain: its first index at n >= 0, its first index at n < 0 (None: it has no
# negative n), and its stride
_DOMAINS = {"Z": (0, -1, 1), "Znz": (1, -1, 1), "n>=1": (1, None, 1), "odd": (1, -1, 2), "odd>=1": (1, None, 2)}


def lambert_sum(order: int, *, c=1, zeta=1, A=0, B=0, C=0, npoly=(1,), den=0, a=0, b=0, e=1,
                domain: str = "Z") -> QSeries:
    """``sum c * zeta^n * P(n) * q^{E(n)} / (1 - den * q^{an+b})^e`` over the n of ``domain``,
    exact to ``order``.

    ``E(n) = A n^2 + B n + C`` must be integer-valued on the domain, and ``P(n)`` is the
    polynomial with coefficients ``npoly`` (constant term first).  ``den`` is a rational u;
    ``u = 0`` means a bare numerator term.  Domains: ``Z``, ``Znz`` (nonzero integers),
    ``n>=1``, ``odd`` (all odd integers), ``odd>=1``, each walked outward from its first index
    on each side by its stride.  A term with ``M = an + b < 0`` is rewritten by
    ``1 - u q^M = (-u q^M)(1 - q^{-M}/u)``, so term n has valuation
    ``V(n) = E(n) + e max(0, -M)`` (``E(n)`` if ``u = 0``).

    With ``A >= 0`` and ``e >= 0`` (``e < 0`` is rejected), V is convex along a walk: once it
    lies past the window and did not fall from the walk's previous index, it never falls
    again, so the walk stops there with no term of the window left out.  A walk in direction
    s on which V does not grow without bound makes the sum diverge, and is rejected up front:
    ``A < 0``, or ``A = 0`` and a slope ``s B + e max(0, -s a)`` (``s B`` if ``u = 0``) of at
    most 0.  Every other walk has a convex V that grows without bound, so it stops.  With
    ``u = 1``, a spec whose ``1 - q^M`` vanishes at an index of the domain is rejected up front
    too, at every order, wherever that index lies.  Each term is one kernel call; the terms'
    coefficients are added per exponent, and the series is built once at the end.
    """
    if domain not in _DOMAINS:
        raise AlgebraError(f"unknown summation domain {domain!r}")
    first, first_neg, stride = _DOMAINS[domain]
    c, zeta, A, B, C, u = map(_as_fraction, (c, zeta, A, B, C, den))
    npoly = [_as_fraction(v) for v in npoly]
    if zeta == 0:
        raise AlgebraError("zeta = 0 is not summable over negative n")
    if u and e < 0:
        raise AlgebraError(f"Lambert sum with e = {e} < 0: its term valuations are not convex")
    walks = ((first, stride),) if first_neg is None else ((first, stride), (first_neg, -stride))
    for n, step in walks:
        if A < 0 or A == 0 and step * B + (e * max(0, -step * a) if u else 0) <= 0:
            raise AlgebraError(f"Lambert sum diverges: term valuations do not grow along n = {n}, {n + step}, ...")
    if u == 1 and (a or b == 0):  # 1 - q^(an+b) vanishes at n = -b/a, or at every n if a = b = 0
        z = Fraction(-b) / a if a else Fraction(first)
        if z.denominator == 1 and any((z - n) * step >= 0 and (z - n) % stride == 0 for n, step in walks):
            raise AlgebraError(f"zero denominator 1 - q^0 at n={z}")
    coeffs: dict = {}  # exponent -> the sum of the terms' coefficients
    for n, step in walks:
        prev: Optional[int] = None
        while True:
            E = A * n * n + B * n + C
            if E.denominator != 1:
                raise AlgebraError(f"non-integral exponent {E} at n={n}")
            M = a * n + b
            pval = sum(cf * Fraction(n) ** i for i, cf in enumerate(npoly))
            val, lead, m = int(E), c * pval * zeta ** n, u
            if u and M < 0:
                # rewrite 1 - u q^M = (-u q^M)(1 - q^{-M}/u)
                val, lead, m, M = val - e * M, lead * (-1 / u) ** e, 1 / u, -M
            if val <= order:
                for k, p in QSeries((), order, {val: lead}).mul_one_minus([(m, M, (), -e)]).coeffs.items():
                    coeffs[k] = coeffs[k] + p if k in coeffs else p
            elif prev is not None and val >= prev:
                break  # V is convex: the rest of this walk lies past the window too
            prev = val
            n += step
    return QSeries((), order, coeffs)


# ---------------------------------------------------------------------------
# shared pieces of the rank-type builders


def _sym_params(*slots: Tuple[str, ParamValue]) -> Tuple[str, ...]:
    return tuple(name for name, v in slots if v is None)


def _pfac(name: str, value: ParamValue, qexp: int = 0) -> Monomial:
    """Monomial ``p * q^qexp`` with p symbolic (value None) or rational."""
    if value is None:
        return Monomial(Fraction(1), qexp, ((name, 1),))
    return Monomial(_as_fraction(value), qexp)


def _de_plus(params: Tuple[str, ...], d: ParamValue, e: ParamValue, qexp: int, order: int) -> QSeries:
    """The factor ``(d + q^qexp)(e + q^qexp) = de + (d + e) q^qexp + q^(2 qexp)``."""
    dp, ep = _pfac("d", d).as_poly(params), _pfac("e", e).as_poly(params)
    return QSeries(params, order, {0: dp * ep, qexp: dp + ep, 2 * qexp: 1} if qexp else {0: (dp + 1) * (ep + 1)})


def _declare_de_bounds(s: QSeries, d: ParamValue, e: ParamValue, base: int) -> QSeries:
    bounds = {p: Fraction(1, base) for p, v in (("d", d), ("e", e)) if v is None}
    return s.with_bounds(bounds) if bounds else s


def _prefactor(s: QSeries, d: ParamValue, e: ParamValue, base: int) -> QSeries:
    """``s * (-dQ, -eQ; Q)_inf / (Q, deQ; Q)_inf``, Q = q^base, applied to ``s`` by :func:`times_poch`."""
    de = (_pfac("d", d) * _pfac("e", e)).times_q(base)
    return times_poch(s, (-_pfac("d", d, base), 1, base), (-_pfac("e", e, base), 1, base),
                      (Monomial.make(1, base), -1, base), (de, -1, base))


def _horner(params: Tuple[str, ...], order: int, E: Callable[[int], int],
            ratio: Callable[[int, QSeries], QSeries], summand: Callable[[int], list]) -> QSeries:
    """``sum_{m>=1} q^{E(m)} r_1 ... r_m F_m`` over the m with ``E(m) <= order``, E increasing, in Horner's
    form from the top term down: ``S_m = F_m + q^{E(m+1)-E(m)} r_{m+1} S_{m+1}``, each exact to ``order - E(m)``,
    and the sum is ``q^{E(1)} r_1 S_1``, or the zero series with no term in the window.  ``ratio(m, s)`` returns
    ``r_m * s``, and ``summand(m)`` lists F_m's factors ``(1 - mono)^power``, applied to a one-series."""
    top = 0
    while E(top + 1) <= order:
        top += 1
    if not top:
        return QSeries.zero(params, order)
    def F(m: int) -> QSeries:  # a summand with no factor is the one-series itself, with no kernel call
        one, factors = QSeries.one(params, order - E(m)), summand(m)
        return _times(one, *factors) if factors else one
    S = F(top)
    for m in range(top - 1, 0, -1):
        S = F(m) + ratio(m + 1, S).shift(E(m + 1) - E(m))
    return ratio(1, S).shift(E(1))


def _alternating_sum(params: Tuple[str, ...], d: ParamValue, e: ParamValue, order: int, base: int, lin: int,
                     chain: Callable[[Monomial], list]) -> QSeries:
    """``sum_{m>=1} (-1)^{m-1} q^{E_m} R_m (1 + Q^m) chain(Q^m)``, Q = q^base, the folded bilateral
    sum of the rank family: ``E_m = base * (m(m+1)/2 + lin*m)``, ``R_m = prod_{k<m} (d + Q^k)(e + Q^k)
    / (-dQ, -eQ; Q)_m``, and ``chain(Q^m)`` lists term m's other factors ``(1 - mono)^power``; a :func:`_horner` sum."""
    def ratio(m: int, s: QSeries) -> QSeries:  # (-1)^(m-1) R_m / R_(m-1): the sign rides on the three-term factor
        de = _de_plus(params, d, e, base * (m - 1), s.order)
        return _times(s * (de if m == 1 else -de), (-_pfac("d", d, base * m), -1), (-_pfac("e", e, base * m), -1))
    return _horner(params, order, lambda m: base * (m * (m + 1) // 2 + lin * m), ratio,
                   lambda m: [(Monomial.make(-1, base * m), 1), *chain(Monomial.make(1, base * m))])


def _xvar(name: str, x: ParamValue, pole_of: str = "the rank refinement") -> Monomial:
    """The variable ``name``, symbolic or a rational point other than 0, a pole of ``pole_of``."""
    xm = _pfac(name, x)
    if xm.c == 0:
        raise AlgebraError(f"{name} = 0 is a pole of {pole_of}")
    return xm


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
    xm = _xvar("x", x)
    def ratio(n: int, s: QSeries) -> QSeries:  # summand n over summand n - 1, less the shift q^base
        return _times(s * _de_plus(params, d, e, base * (n - 1), s.order),
                      (xm.times_q(base * n), -1), (xm.inverse().times_q(base * n), -1))
    return _declare_de_bounds(1 + _horner(params, order, lambda n: base * n, ratio, lambda n: []), d, e, base)


def rank_gf_lambert(
    order: int,
    d: ParamValue = None,
    e: ParamValue = None,
    x: ParamValue = None,
    base: int = 1,
) -> QSeries:
    """Bilateral Lambert form of :func:`rank_gf`, the negative branch folded in:
    ``P * [1 + (1-x) sum_{m>=1} (-1)^m Q^{m(m+3)/2} R_m (1/(1-xQ^m) - x^{-1}/(1-Q^m/x))]``
    over Q = q^base.  The bracket is ``(1-1/x)(1+Q^m) / ((1-xQ^m)(1-Q^m/x))``, so this
    is ``P * [1 - (1-x)(1-1/x) A]``, A the :func:`_alternating_sum` at ``lin = 1``.
    """
    params = _sym_params(("d", d), ("e", e), ("x", x))
    xm = _xvar("x", x)
    xinv = xm.inverse()
    A = _alternating_sum(params, d, e, order, base, 1, lambda Q: [(xm * Q, -1), (xinv * Q, -1)])
    body = 1 - _times(A, (xm, 1), (xinv, 1))
    return _declare_de_bounds(_prefactor(body, d, e, base), d, e, base)


def n2v(
    v: int,
    order: int,
    d: ParamValue = None,
    e: ParamValue = None,
    base: int = 1,
) -> QSeries:
    """Generating function for the 2v-th symmetrized rank moments.

    Prefactor times the bilateral sum over nonzero n, with both branches
    folded together: ``P * sum_{m>=1} (-1)^{m-1} Q^{m(m+1)/2 + vm} (1 + Q^m) R_m
    / (1 - Q^m)^{2v}`` over Q = q^base, the :func:`_alternating_sum` at ``lin = v``.
    """
    if v < 1:
        raise AlgebraError("symmetrized moment index v must be >= 1")
    params = _sym_params(("d", d), ("e", e))
    A = _alternating_sum(params, d, e, order, base, v, lambda Q: [(Q, -2 * v)])
    return _declare_de_bounds(_prefactor(A, d, e, base), d, e, base)


def spt_gf(order: int, d: ParamValue = None, e: ParamValue = None) -> QSeries:
    """Smallest-parts generating function ``P * (Phi1 - A)``: the divisor sum minus
    A, the :func:`_alternating_sum` of :func:`n2v` at v = 1, under one prefactor."""
    params = _sym_params(("d", d), ("e", e))
    A = _alternating_sum(params, d, e, order, 1, 1, lambda Q: [(Q, -2)])
    return _declare_de_bounds(_prefactor(phi1(1, order, params) - A, d, e, 1), d, e, 1)


def spt_gf_direct(order: int, d: ParamValue = None, e: ParamValue = None) -> QSeries:
    """Smallest-parts generating function as a single unilateral sum:
    ``P * sum_{n>=1} (q, deq)_n q^n / ((1-q^n)^2 (-dq, -eq)_n)``, the sum in :func:`_horner`."""
    params = _sym_params(("d", d), ("e", e))
    def ratio(n: int, s: QSeries) -> QSeries:  # (1 - q^n)(1 - deq^n) / ((1 + dq^n)(1 + eq^n))
        dn = _pfac("d", d, n)
        return _times(s, (Monomial.make(1, n), 1), (dn * _pfac("e", e), 1), (-dn, -1), (-_pfac("e", e, n), -1))
    A = _horner(params, order, lambda n: n, ratio, lambda n: [(Monomial.make(1, n), -2)])
    return _declare_de_bounds(_prefactor(A, d, e, 1), d, e, 1)


def durfee_rhs(
    k: int,
    order: int,
    xs: Optional[Sequence[ParamValue]] = None,
    d: ParamValue = None,
    e: ParamValue = None,
) -> QSeries:
    """Sum side of the marked-symbol generating function for k >= 2.

    ``P * sum_{n>=1} (-1)^{n-1} (1+q^n)(1-q^n)^2 R_n q^{n(n-1)/2 + kn}
    / prod_j (1 - x_j q^n)(1 - q^n / x_j)``, the :func:`_alternating_sum` at
    ``lin = k - 1``.  Each slot of ``xs`` is a rational point or None for a
    symbolic variable ``x1 .. xk``.
    """
    if k < 2:
        raise AlgebraError("marked-symbol generating function needs k >= 2")
    xs = tuple(xs) if xs is not None else (None,) * k
    if len(xs) != k:
        raise AlgebraError(f"expected {k} rank-variable slots, got {len(xs)}")
    xnames = tuple(f"x{j + 1}" for j in range(k))
    params = _sym_params(("d", d), ("e", e)) + _sym_params(*zip(xnames, xs))
    # the first term lies at q^k: past the window only the poles x_j = 0 are looked for
    xms = [_xvar(name, xv) for name, xv in zip(xnames, xs) if k <= order or xv == 0]
    ys = [y for xm in xms for y in (xm, xm.inverse())]
    # n(n-1)/2 + kn = n(n+1)/2 + (k-1)n
    A = _alternating_sum(params, d, e, order, 1, k - 1, lambda Q: [(Q, 2)] + [(y * Q, -1) for y in ys])
    return _declare_de_bounds(_prefactor(A, d, e, 1), d, e, 1)


def rk_partial_fractions(xpoints: Sequence, pieces: Sequence[QSeries]) -> QSeries:
    """Partial-fraction form of the full-rank function at rational points:
    ``sum_i N(d, e, x_i; q) / prod_{j != i} (x_i - x_j)(1 - 1/(x_i x_j))``,
    from each point's built ``N(d, e, x_i; q)``, ``pieces[i]``.

    Requires at least two points, pairwise distinct, not mutually inverse,
    nonzero, and none equal to +-1 (degenerate configurations need analytic
    continuation, which is out of scope).
    """
    pts = [_as_fraction(x) for x in xpoints]
    if len(pts) < 2:
        raise AlgebraError("partial-fraction form needs at least two points")
    if len(pieces) != len(pts):
        raise AlgebraError(f"expected {len(pts)} pieces, got {len(pieces)}")
    for i, xi in enumerate(pts):
        if xi == 0 or xi * xi == 1:
            raise AlgebraError(f"degenerate point x_{i + 1} = {xi}")
        for j, xj in enumerate(pts):
            if i < j and (xi == xj or xi * xj == 1):
                raise AlgebraError(
                    f"degenerate point pair x_{i + 1} = {xi}, x_{j + 1} = {xj}"
                )
    acc = None
    for xi, piece in zip(pts, pieces):
        weight = Fraction(1)
        for xj in pts:
            if xj != xi:
                weight *= (xi - xj) * (1 - Fraction(1) / (xi * xj))
        piece = piece * (Fraction(1) / weight)
        acc = piece if acc is None else acc + piece
    return acc


def crank_C(order: int, x: ParamValue = None, base: int = 1) -> QSeries:
    """The crank-type product ``(Q; Q)_inf / (xQ, Q/x; Q)_inf``, Q = q^base."""
    params = _sym_params(("x", x))
    xm = _xvar("x", x, "the crank product")
    return times_poch(QSeries.one(params, order), (Monomial.make(1, base), 1, base),
                      (xm.times_q(base), -1, base), (xm.inverse().times_q(base), -1, base))


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
    / (bq^2, q^2/b; q^2)_n``, its sum in :func:`_horner`; rhs: ``(q^2; q^2)_inf^2 / (bq^2, q^2/b; q^2)_inf``.
    """
    b = _as_fraction(b)
    if b == 0:
        raise AlgebraError("b = 0 makes the reciprocal argument undefined")
    def ratio(n: int, s: QSeries) -> QSeries:  # -(1 - bq^(2n-2))(1 - q^(2n-2)/b) / ((1 - bq^(2n))(1 - q^(2n)/b))
        return _times(-s, (Monomial(b, 2 * n - 2), 1), (Monomial(1 / b, 2 * n - 2), 1),
                      (Monomial(b, 2 * n), -1), (Monomial(1 / b, 2 * n), -1))
    lhs = 1 + _horner((), order, lambda n: n * n + n, ratio, lambda n: [(Monomial.make(-1, 2 * n), 1)])
    rhs = times_poch(QSeries.one((), order), (Monomial.make(1, 2), 2, 2), (Monomial(b, 2), -1, 2),
                     (Monomial(1 / b, 2), -1, 2))
    return lhs, rhs


# ---------------------------------------------------------------------------
# moment extraction


def symmetrized_moment_series(k: int, N: QSeries) -> QSeries:
    """k-th symmetrized moment extraction from the rank refinement N, symbolic in x:
    ``(1/k!) [d^k/dx^k (x^j N)]_{x=1}`` with ``j = floor((k-1)/2)``.  That weighs each term
    ``x^a`` of N by the generalized binomial ``C(a + j, k)``, one weighted pass at x = 1
    (:meth:`QSeries.eval_weighted`).  The result carries N's degree bounds in d and e.

    Identically zero for odd k by the x <-> 1/x symmetry.
    """
    if k < 1:
        raise AlgebraError("moment index must be >= 1")
    j = (k - 1) // 2
    s = N.eval_weighted("x", 1, lambda a, n: gbinom(a + j, k))
    return s.with_bounds({p: slope for p, slope in N.bounds.items() if p in s.params})


# ---------------------------------------------------------------------------
# string-addressable registry for the CLI and reports


BUILDER_GRAMMAR = """\
Builder identifiers are name:arg:key=value,... segments, colon separated.
Values are rationals (2, -1, 1/2) or q-monomials (q, q^2, -1*q^-1, with *
between factors); omit a parameter to keep it symbolic.

  qinf                 the infinite product (q; q)_inf
  E2                   weight-2 Eisenstein series
  Phi1[:m=M]           divisor-power sum in base q^M
  eta:M[^R],M[^R],...  eta quotient with factors eta(Mz)^R
  J:MONO[:base=B]      theta product J(MONO; q^B), e.g. J:-x
  C[:x=V][:base=B]     crank-type product
  Cstar:x=V[:base=B]   starred crank product (rational V != 1)
  rank[:d=..:e=..:x=..:base=B]       rank refinement, unilateral form
  rank-lambert[:...]                 rank refinement, bilateral form
  n2v:v=V[:d=..:e=..:base=B]         symmetrized 2v-th moment series
  moment:k=K[:d=..:e=..]             direct k-th symmetrized extraction
  spt[:d=..:e=..] / spt-direct[...]  smallest-parts series, two forms
  durfee:k=K[:d=..:e=..:x1=..:..]    marked-symbol sum side

d and e accept q-monomials c*q^j, applied by exact substitution; the
substitutions with j < 0 require base > the sum of their |j| so the declared
degree bounds keep exponents provable.  c*q^0 is the rational c at every key,
and the rank variables x, x1 .. xk (C's and Cstar's x too) take rational
points only.
"""


def _split_id(spec: str) -> Tuple[str, dict, list]:
    parts = spec.split(":")
    name = parts[0].strip()
    kw: dict[str, str] = {}
    pos: list[str] = []
    for seg in parts[1:]:
        if "=" in seg:
            k, v = seg.split("=", 1)
            k = k.strip()
            if not k:
                raise AlgebraError(f"empty key in {spec!r}")
            if k in kw:
                raise AlgebraError(f"key {k!r} given twice in {spec!r}")
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


def build(spec: str, order: int, assignments: Optional[Mapping[str, str]] = None) -> QSeries:
    """Construct a series from its string identifier (see BUILDER_GRAMMAR)."""
    name, kw, pos = _split_id(spec.strip())
    for k, v in (assignments or {}).items():
        if k in kw:
            raise AlgebraError(f"key {k!r} given twice, in {spec!r} and as a parameter")
        kw[k] = str(v)

    def val(key) -> Optional[Tuple[Fraction, int]]:  # the value c*q^j at key as (c, j), None when absent
        if key not in kw:
            return None
        try:
            return Fraction(kw[key]), 0
        except (ValueError, ZeroDivisionError):
            v = parse_monomial(kw[key])
        if v.pexps:
            raise AlgebraError(f"value {kw[key]!r} for {key} carries a parameter; values are rationals or c*q^j")
        return v.c, v.qexp if v.c else 0  # 0*q^j is the rational 0

    def point(key) -> ParamValue:  # a rank variable: x^-k terms above the window would land inside it
        v = val(key)
        if v and v[1]:
            raise AlgebraError(f"{key} takes rational points: the series is Laurent in {key}")
        return None if v is None else v[0]

    def intval(key, default):
        return _integer(kw[key], key) if key in kw else default

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
    if base < 1:
        raise AlgebraError(f"base must be a positive q-power, got base={base}")
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
            m, caret, r = piece.partition("^")
            factors.append((_integer(m, "eta level"), _integer(r, "eta power") if caret else 1))
        return eta_quotient(factors, order)
    if name == "J":
        if not pos:
            raise AlgebraError("J needs a monomial argument, e.g. J:-x")
        return jacobi_J(parse_monomial(pos[0]), order, base)
    if name == "C":
        return crank_C(order, point("x"), base)
    if name == "Cstar":
        x = point("x")
        if x is None:
            raise AlgebraError("starred crank product needs a rational x")
        return crank_C_star(order, x, base)

    de = {p: val(p) for p in ("d", "e")}
    subs = {p: v for p, v in de.items() if v and v[1]}  # p -> (c, j) for p -> c*q^j, j != 0
    d, e = (None if v is None or v[1] else v[0] for v in de.values())
    x = point("x")
    drop = -sum(j for _, j in subs.values() if j < 0)
    if drop >= base:
        raise AlgebraError(f"substitutions c*q^j with j < 0 need base > {drop}, the sum of their |j|")
    # the least pre-substitution order whose joint shrink (base - drop)/base
    # in substitute_param still certifies the order
    work_order = order * base // (base - drop)

    if name == "rank":
        s = rank_gf(work_order, d, e, x, base)
    elif name == "rank-lambert":
        s = rank_gf_lambert(work_order, d, e, x, base)
    elif name == "n2v":
        s = n2v(intval("v", 1), work_order, d, e, base)
    elif name == "moment":
        k = intval("k", 2)
        if k < 1:  # rejected before the rank refinement is built
            raise AlgebraError("moment index must be >= 1")
        s = symmetrized_moment_series(k, rank_gf(work_order, d, e))
    elif name == "spt":
        s = spt_gf(work_order, d, e)
    elif name == "spt-direct":
        s = spt_gf_direct(work_order, d, e)
    else:  # durfee
        k = intval("k", 2)
        s = durfee_rhs(k, work_order, [point(f"x{j + 1}") for j in range(k)], d, e)
    if subs:
        s = s.substitute_param(subs)
    return s.truncate(order)
