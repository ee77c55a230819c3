"""Exact truncated Laurent series in q with Laurent-polynomial coefficients.

A :class:`QSeries` stores a sparse map ``exponent -> ParamPoly`` together
with the largest exponent whose coefficient it can certify (``order``).
Truncation order is data, not convention: every operation computes the
exact provable order of its result, so bilateral sums and ``p -> c*q^j``
substitutions cannot silently report unproven coefficients.

The zero series carries the sentinel valuation ``order + 1``.

One coefficient recurrence, :func:`_recur`, does the product, ``invert``
and :meth:`QSeries.mul_one_minus` on plain term maps from packed exponent
keys to int numerators (see poly.py), in integers from entry to exit:
keys and values are ints, and a monomial step is one int added to a key.
:func:`_scale` brings every coefficient over the lcm D of their
denominators, one per coefficient, multiplying a numerator map by
``D / den`` only where the two differ (a chain also multiplies the
coefficient of q^n by ``L^n``, for the lcm L of its factors'
denominators, and ``invert`` by ``a^n``, for its leading coefficient a);
``_recur`` stores no zero; and :func:`_series` divides out one gcd per
coefficient, of its numerators and its factor, so each poly is stored in
lowest terms as it comes, with no Fraction per term.

A chain of factors ``(1 - m)^power`` is one function on term maps,
:func:`_chain`, after :func:`_links` has checked the factors and taken the
parameter-free q^0 ones out as one rational scalar, applied in that
division: a factor whose monomial no other factor shares is one pass of
its own row, and the factors that share a monomial multiply out into one
int polynomial per sign, so a chain runs at most two passes per distinct
monomial.  :meth:`QSeries.mul_one_minus` is :func:`_links`, :func:`_scale`,
:func:`_chain` and :func:`_series`.  :func:`horner_sum` runs each of the
builders' Horner and Lambert sums in one term map of its own, scaled in
once: each term and each ratio's factors are one :func:`_chain` pass, each
ratio's multiplier one :func:`_product` pass, and one :func:`_series`
builds the sum at the end.

Range rule (poly.py): every stored exponent lies in ``|e| <= 2^(S-2)``.
No key is rechecked; each operation derives a bound before it forms a key
and raises AlgebraError past the range: a product adds its operands'
bounds, ``invert`` stacks at most one step per window position, a chain
adds each factor's exponent times the steps it can stack, and a weighted
shift adds its largest j.

Fixing a parameter removes it.  :meth:`QSeries.substitute_param` takes
every name to fix, each sent to a q-monomial ``c*q^j`` or, with j = 0, to
a rational (all that ``eval_param`` asks), and fixes them in one pass that
enters through ``_scale``, reads ``c^a`` from one power table per name and
leaves through ``_series``.  :meth:`QSeries.eval_weighted` fixes one
parameter p at a rational r and weighs each term ``c p^a q^n`` by a
rational ``w(a, n)`` in the same kind of pass: an x-derivative read at a
point builds no derivative series.  With ``r = None`` p stays and
``w(a, n)`` is a Laurent polynomial in p, so a PDE with p-polynomial
coefficients is one pass too.  Both passes read each exponent straight
from its key's slot and sum each term on its key with the fixed slots
cleared; :func:`_squeeze` takes those slots out of each summed key once.
Only the readers decode keys: ``to_json``, ``__str__`` and the mismatch
that ``equal_to_order`` reports, as ``ParamPoly.terms`` does for others.

Per-parameter degree bounds record facts of the form
``0 <= deg_p(coeff of q^n) <= slope * n``.  They enter only through
:meth:`QSeries.with_bounds`, which checks them on every stored
coefficient; :meth:`QSeries.truncate` keeps them and every other
operation returns none.  Only :meth:`QSeries.substitute_param` reads
them: a bound is what makes substitutions like ``e -> 1/q`` on a
base-``q^2`` series sound, since it caps how far any exponent can fall.
One call takes every substitution, so the window shrinks once, by
``1 + sum_{j<0} j*slope_p`` over the names p sent to ``c*q^j``.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import lshift
from typing import Callable, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .poly import (_OFFSET, _SLOT, SLOT_BITS, AlgebraError, ParamPoly, Scalar, _as_fraction, _canon,
                   _index, _integer, _layout, _powers, _rational, _unpack, _value, _within)

CoeffLike = Union[int, Fraction, ParamPoly]


def _recur(start: dict, steps: list, src: Optional[dict], lo: int, order: int) -> dict:
    """The term maps of ``g_n = start_n + sum b p^w src_{n-dn}``, ``lo <= n <= order``, over the
    steps ``(dn, w, b)`` sorted by dn, each w the int that shifts a packed key by its vector
    (0 for none).  ``src`` is a given term map (a product) or None for ``g`` itself (a division:
    every dn >= 1).  Every caller passes int keys and values, and no map it returns holds a
    zero, so :func:`_series` needs no cleaning."""
    out: dict[int, dict] = {}
    src, src_lo = (out, lo) if src is None else (src, min(src, default=lo))
    for n in range(lo, order + 1):
        t = acc = start.get(n)
        top = n - src_lo
        for dn, w, b in steps:
            if dn > top:
                break
            prev = src.get(n - dn)
            if prev:
                if acc is t:
                    if not t:  # the first sum at n: one comprehension
                        acc = {v + w: a * b for v, a in prev.items()}
                        continue
                    acc = dict(t)
                if w:
                    for v, a in prev.items():
                        v += w
                        acc[v] = acc.get(v, 0) + a * b
                else:
                    for v, a in prev.items():
                        acc[v] = acc.get(v, 0) + a * b
        if acc is not t and 0 in acc.values():  # cancelled terms: drop them before they ride on
            for v in [v for v, a in acc.items() if not a]:
                del acc[v]
        if acc:
            out[n] = acc
    return out


def _product(src: dict, step: dict, zero: int, order: int, k: int = 1) -> dict:
    """The term maps of k times the product of the term maps ``src`` and ``step``, in the window
    ``order``, for keys whose zero vector is ``zero`` (a key plus a step's key less ``zero`` is
    the product's key): one :func:`_recur` pass, with the terms of ``step`` as its steps."""
    steps = [(j, v - zero, b * k) for j, t in sorted(step.items()) for v, b in t.items()]
    return _recur({}, steps, src, min(src) + steps[0][0], order) if src and steps else {}


def _reach(s: "QSeries") -> int:
    """A bound on the |exponent| of every parameter over the coefficients of ``s``."""
    return max((p.reach for p in s.coeffs.values()), default=0)


def _squeeze(t: dict, cuts: Sequence[int]) -> dict:
    """An int map with the cleared slots at the bits ``cuts``, highest first, taken out of its
    keys: each slot above one moves down into its place, and the slots below stay."""
    for s in cuts:
        low = (1 << s) - 1
        t = {(v >> s >> SLOT_BITS << s) | (v & low): c for v, c in t.items()}
    return t


def _scale(s: "QSeries", L: int = 1, lo: int = 0) -> Tuple[int, dict]:
    """``(D, maps)``: D the lcm of the coefficient denominators of ``s``, and its numerator maps
    times ``D * L^(n - lo)`` at q^n (each n >= lo unless L = 1), in integers: a map is copied
    only where that factor over its own denominator is not 1."""
    D = math.lcm(*(p.den for p in s.coeffs.values()))
    if D * L == 1:
        return D, {n: p.num for n, p in s.coeffs.items()}
    out = {}
    for n, p in s.coeffs.items():
        k = D // p.den * L ** (n - lo) if L > 1 else D // p.den
        out[n] = {v: a * k for v, a in p.num.items()} if k != 1 else p.num
    return D, out


def _series(params: Tuple[str, ...], order: int, terms: dict, D: int, L: int = 1, lo: int = 0,
            N: int = 1, reach: int = 0) -> "QSeries":
    """The series of the int term maps times ``N / (D * L^(n - lo))`` at q^n, each coefficient
    bounded by ``reach``: with ``N = 1`` the inverse of :func:`_scale`, and with ``N = 0`` the
    zero series.  Each coefficient divides out one gcd, of its factor and its numerators, so
    it is stored in lowest terms, and a map with no zero gives a poly with no zero."""
    out = QSeries(params, order)
    if not N:
        return out
    for n, t in terms.items():
        k = D * L ** (n - lo) if L > 1 else D
        c = N
        if k != 1:
            g = math.gcd(k, c)
            k, c = k // g, c // g
            g = math.gcd(k, *t.values())
            if g != 1:
                t = {v: a // g for v, a in t.items()}
                k //= g
        if c != 1:
            t = {v: a * c for v, a in t.items()}
        out.coeffs[n] = ParamPoly._raw(params, t, k, reach)
    return out


def _links(params: Tuple[str, ...], factors) -> Tuple[Fraction, list]:
    """``(S, chain)`` for the factors ``(c, qexp, pexps, power)`` of ``prod (1 - m)^power`` (see
    :meth:`QSeries.mul_one_minus`): S the product of the scalars ``(1 - c)^power`` of the
    parameter-free q^0 factors, and every other factor as ``(c, qexp, vec, power)``, vec its
    exponent vector over ``params``.  A factor 1 (``c = 0`` or ``power = 0``) is left out, and
    the first factor that cannot be applied raises AlgebraError."""
    scalar, chain, arity = Fraction(1), [], len(params)
    for c, qexp, pexps, power in factors:
        vec = [0] * arity
        for name, x in dict(pexps).items():
            vec[_index(params, name)] = int(x)
        if c and (qexp < 0 or (power < 0 and qexp == 0 and (any(vec) or c == 1))):
            raise AlgebraError(f"cannot apply (1 - m)^{power} for m = {c}*q^{qexp} with exponents {tuple(vec)}")
        if not (c and power):
            continue
        if qexp == 0 and not any(vec):
            scalar *= (1 - Fraction(c)) ** power
            continue
        chain.append((c, qexp, vec, power))
    return scalar, chain


def _chain(terms: dict, chain: list, L: int, lo: int, order: int, reach: int) -> Tuple[dict, int, int]:
    """``(maps, reach, b)``: the int term maps ``terms`` of a series from q^lo, its coefficient
    of q^n times ``L^n`` and one more factor common to all, multiplied by a :func:`_links`
    chain in the window ``order``, in the same scale times the integer b; and ``reach`` plus
    what the chain can add to it.  L is a multiple of each c with ``qexp >= 1``.

    A factor is ``(1 + u t)^e`` for the monomial ``t = m / c`` and the integer ``u = -c L^qexp``;
    a q^0 factor (a power e > 0 and parameters) with ``c = a/b`` is ``(b - a t)^e / b^e``, and
    its b^e joins b.  A factor stacks at most ``min(e, room)`` j-steps of t^j on a term for a
    power e > 0, and a division as many as fit in the window, ``room = (order - lo) // qexp``,
    so each row stops at degree room (a q^0 row at e) and the bound is checked before one is
    formed.  A factor whose monomial no other factor shares is one pass of its row
    ``C(e, j) u^j b^(e - j)``: a product, from j = 0 on an empty start when b > 1, or, for a
    negative power, a division with the steps ``-C(e, j) u^j``.  The factors on a shared
    monomial multiply out into one int polynomial per sign, cut at degree room (not at q^0),
    each other than 1 one such pass, so a chain runs at most two passes per distinct
    monomial."""
    if not chain:
        return terms, reach, 1
    shifts, groups = _layout(len(chain[0][2]))[1], {}
    for c, qexp, vec, power in chain:
        room = (order - lo) // qexp if qexp else abs(power)
        reach += max(map(abs, vec), default=0) * (min(abs(power), room) if power > 0 else room)
        groups.setdefault((qexp, sum(map(lshift, vec, shifts))), []).append((c, power))
    _within(reach, "a (1 - m)^power chain")
    scale = 1
    for (qexp, w), links in groups.items():
        cut = (order - lo) // qexp + 1 if qexp else None
        pair = [[1], [1]]  # the positive powers' polynomial in t, and the negative powers'
        for c, power in links:
            e = abs(power)
            u, b = (-c.numerator * (L ** qexp // c.denominator), 1) if qexp else (-c.numerator, c.denominator)
            if not qexp:
                scale *= b ** e
            p, top = pair[power < 0], min(e, cut - 1) if qexp else e
            if e == 1 and p != [1]:  # times b + u t, in place from the top down, with no row
                p.append(0)
                for i in range(len(p) - 1, 0, -1):
                    p[i] = b * p[i] + u * p[i - 1]
                p[0] *= b
                del p[cut or len(p):]
                continue
            row = [b, u][:top + 1] if e == 1 else [math.comb(e, j) * u ** j * b ** (e - j) for j in range(top + 1)]
            if p == [1]:  # the first factor of its sign on t, as every factor of a monomial met once
                pair[power < 0] = row
                continue
            prod = [0] * (len(p) + top)
            for i, x in enumerate(p):
                for j, y in enumerate(row):
                    prod[i + j] += x * y
            pair[power < 0] = prod[:cut]
        num, den = pair
        if len(num) > 1 or num[0] != 1:  # a product, from j = 0 on an empty start unless P_0 = 1
            steps = [(j * qexp, j * w, a) for j, a in enumerate(num) if a][num[0] == 1:]
            terms = _recur(terms if num[0] == 1 else {}, steps, terms, lo, order)
        if len(den) > 1:
            terms = _recur(terms, [(j * qexp, j * w, -a) for j, a in enumerate(den) if a][1:], None, lo, order)
    return terms, reach, scale


def horner_sum(params: Tuple[str, ...], order: int, terms: Sequence[Tuple[int, Scalar, list]],
               ratios: Optional[Sequence[Tuple[Mapping[int, CoeffLike], list]]] = None) -> "QSeries":
    """``sum_m r_1 ... r_m T_m`` in the window ``order``, in Horner's form from the last term down:
    ``W_m = T_m + r_(m+1) W_(m+1)``, and the sum is ``r_1 W_1``.  Each term ``(val, lead, factors)``
    is ``T_m = lead q^val prod (1 - m)^power`` over factors as in :meth:`QSeries.mul_one_minus`,
    and each ratio ``(mult, factors)`` is r_m as data: a q-polynomial ``{qexp >= 0: coefficient}``
    times such factors.  ``ratios = None`` makes every r_m 1: a plain sum of the terms.  A term
    above the window adds nothing.

    The sum is one int term map from its first term to its last: the coefficient of q^n times
    ``K L^(n - lo)``, for lo the least val, L the lcm of every factor's c over the factors with a
    q-power, and K a running integer, at first the lcm of the leads' denominators.  T_m starts at
    ``K lead L^(val - lo)`` and is one :func:`_chain` pass, whose integer joins K.  A ratio is one
    :func:`_product` pass by its multiplier's numerators, q^j's times L^j, whose content's
    denominator, with that of the ratio's q^0 scalars, joins K; then its factors are one
    :func:`_chain` pass.  The one :func:`_series` at the end divides each coefficient by
    ``K L^(n - lo)``."""
    linked = []  # (val, lead, chain) of each term, its q^0 scalars in its lead
    for val, lead, factors in terms:
        scalar, chain = _links(params, factors)
        linked.append((val, lead * scalar, chain))
    steps = [(mult, *_links(params, factors)) for mult, factors in ratios or ()]
    if not linked:
        return QSeries(params, order)
    lo = min(val for val, _, _ in linked)
    L = math.lcm(*(c.denominator for *_, chain in linked + steps for c, qexp, _, _ in chain if qexp))
    K = math.lcm(*(lead.denominator for _, lead, _ in linked))
    zero, W, reach = _layout(len(params))[0], {}, 0
    for m in range(len(linked) - 1, -1, -1):  # W is r_(m+1) W_(m+1), or nothing: add T_m, then take r_m
        val, lead, chain = linked[m]
        if lead and val <= order:
            T, reach_T, b = _chain({val: {zero: K // lead.denominator * lead.numerator * L ** (val - lo)}},
                                   chain, L, val, order, 0)
            if b != 1:  # T is over K b: so is W from here on
                W, K = {n: {v: a * b for v, a in t.items()} for n, t in W.items()}, K * b
            reach = max(reach, reach_T)
            for n, t in T.items():  # W + T, in place, with no zero kept
                w = W.setdefault(n, t)
                if w is not t:
                    for v, a in t.items():
                        w[v] = w.get(v, 0) + a
                    if 0 in w.values():
                        W[n] = {v: a for v, a in w.items() if a}
                        if not W[n]:
                            del W[n]
        if ratios is None:
            continue
        mult, scalar, chain = steps[m]
        if not (W and scalar):
            W = {}
            continue
        mult = QSeries(params, order - min(W), mult)  # each q^j that lands in the window
        if mult.valuation < 0:
            raise AlgebraError(f"a ratio's multiplier has the term q^{mult.valuation}: it must be a q-polynomial")
        D, maps = _scale(mult, L)
        K *= D * scalar.denominator
        reach = _within(reach + _reach(mult), "a product")
        if maps != {0: {zero: 1}} or scalar.numerator != 1:  # a multiplier other than 1
            W = _product(W, maps, zero, order, scalar.numerator)
        if W:
            W, reach, b = _chain(W, chain, L, min(W), order, reach)
            K *= b
    return _series(params, order, W, K, L, lo, reach=reach)


class TruncationError(AlgebraError):
    """An operation was asked for coefficients beyond its provable window."""


class QSeries:
    """Truncated Laurent series in q over :class:`ParamPoly` coefficients."""

    __slots__ = ("params", "order", "coeffs", "bounds")

    def __init__(
        self,
        params: Iterable[str],
        order: int,
        coeffs: Optional[Mapping[int, CoeffLike]] = None,
    ):
        self.params: Tuple[str, ...] = tuple(params)
        self.order = int(order)
        clean: dict[int, ParamPoly] = {}
        if coeffs:
            for n, c in coeffs.items():
                n = int(n)
                if n > self.order:
                    continue  # beyond the provable window: not storable
                if not isinstance(c, ParamPoly):
                    c = ParamPoly.const(self.params, c)
                elif c.params != self.params:
                    raise AlgebraError(
                        f"coefficient parameters {c.params} != series parameters {self.params}"
                    )
                if not c.is_zero():
                    clean[n] = c
        self.coeffs = clean
        self.bounds: dict[str, Fraction] = {}  # set by with_bounds, kept by truncate

    # -- basic views ----------------------------------------------------

    @property
    def valuation(self) -> int:
        """Lowest stored exponent; ``order + 1`` for the zero series."""
        return min(self.coeffs) if self.coeffs else self.order + 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, n: int) -> ParamPoly:
        """Exact coefficient of q^n; n must lie at or below the provable order."""
        if n > self.order:
            raise TruncationError(
                f"coefficient of q^{n} requested but series is only exact to q^{self.order}"
            )
        return self.coeffs.get(n, ParamPoly.zero(self.params))

    def sorted_items(self) -> list[Tuple[int, ParamPoly]]:
        return sorted(self.coeffs.items())

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, params: Iterable[str], order: int) -> "QSeries":
        return cls(params, order)

    @classmethod
    def one(cls, params: Iterable[str], order: int) -> "QSeries":
        return cls(params, order, {0: 1})

    @classmethod
    def from_terms(
        cls,
        params: Iterable[str],
        terms: Sequence[Tuple[int, CoeffLike]],
        order: int,
    ) -> "QSeries":
        """Series from an explicit (exponent, coefficient) list.

        Duplicate exponents and exponents above ``order`` are rejected.
        """
        seen = set()
        for n, _ in terms:
            if n in seen:
                raise AlgebraError(f"duplicate exponent {n} in term list")
            seen.add(n)
            if n > order:
                raise AlgebraError(f"exponent {n} exceeds requested order {order}")
        return cls(params, order, dict(terms))

    @classmethod
    def monomial(
        cls,
        params: Iterable[str],
        order: int,
        c: Scalar = 1,
        qexp: int = 0,
        pexps: Optional[Mapping[str, int]] = None,
    ) -> "QSeries":
        params = tuple(params)
        poly = ParamPoly.monomial(params, pexps or {}, c)
        return cls(params, order, {qexp: poly})

    # -- ring operations ------------------------------------------------

    def _check_params(self, other: "QSeries") -> None:
        if self.params != other.params:
            raise AlgebraError(
                f"parameter mismatch: {self.params} vs {other.params}"
            )

    def _coerce(self, other) -> "QSeries":
        if isinstance(other, QSeries):
            self._check_params(other)
            return other
        # scalars are exact at every order
        return QSeries(self.params, self.order, {0: other})

    def __add__(self, other) -> "QSeries":
        other = self._coerce(other)
        order = min(self.order, other.order)
        coeffs: dict[int, ParamPoly] = {}
        for n in set(self.coeffs) | set(other.coeffs):
            if n > order:
                continue
            a = self.coeffs.get(n)
            b = other.coeffs.get(n)
            c = b if a is None else (a if b is None else a + b)
            if not c.is_zero():
                coeffs[n] = c
        return QSeries(self.params, order, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries(self.params, self.order, {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other) -> "QSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "QSeries":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction, ParamPoly)):
            return QSeries(self.params, self.order, {n: c * other for n, c in self.coeffs.items()})
        self._check_params(other)
        order = min(self.order + other.valuation, other.order + self.valuation)
        reach = _within(_reach(self) + _reach(other), "a product")
        # the operand with fewer terms gives the steps: fewer visits of the inner loop
        # each operand times the lcm of its own denominators: the convolution is in integers
        (Ds, step), (Dt, src) = sorted(map(_scale, (self, other)),
                                       key=lambda scaled: sum(map(len, scaled[1].values())))
        terms = _product(src, step, _layout(len(self.params))[0], order)
        return _series(self.params, order, terms, Ds * Dt, reach=reach)

    __rmul__ = __mul__

    def invert(self) -> "QSeries":
        """Multiplicative inverse, valid when the leading coefficient is a unit.

        The leading coefficient must be a single monomial; anything else is
        not invertible inside the Laurent-polynomial coefficient ring.
        """
        if self.is_zero():
            raise AlgebraError("zero series is not invertible")
        v = self.valuation
        lead = self.coeffs[v]
        if lead.as_monomial() is None:
            raise AlgebraError(
                "not invertible symbolically; evaluate parameters first "
                f"(leading coefficient {lead})"
            )
        # with A = D * self and its lead A_v = sign * a * p^u0, g = 1/self is D * sign * h_n / a^(n+1)
        # at q^(n-v), where h_0 = p^-u0 and h_n = -sign * p^-u0 * sum_{k>=1} A_{v+k} a^(k-1) h_{n-k};
        # h_n stacks at most n steps p^(u - u0), so its exponents stay within r0 + n (R + r0)
        r0 = lead.reach
        reach = _within(r0 + (_reach(self) + r0) * (self.order - v), "an inverse")
        D, A = _scale(self)
        ((u0, a),) = A[v].items()
        sign, a, zero = (1 if a > 0 else -1), abs(a), _layout(len(self.params))[0]
        steps = [(n - v, u - u0, -sign * b * a ** (n - v - 1))
                 for n, t in sorted(A.items()) if n > v for u, b in t.items()]
        h = _recur({0: {2 * zero - u0: 1}}, steps, None, 0, self.order - v)
        return _series(self.params, self.order - v, h, a, a, 0, sign * D, reach).shift(-v)

    def mul_one_minus(self, factors: Sequence[Tuple[Scalar, int, object, int]]) -> "QSeries":
        """Multiply by ``prod (1 - m)^power`` over the factors ``(c, qexp, pexps, power)``, each
        ``m = c * prod p^e * q^qexp`` with exponents ``pexps`` (a mapping or pairs).  Unless
        ``c = 0``, a positive power needs ``qexp >= 0`` and a negative one ``qexp >= 1`` or a
        parameter-free ``m != 1``; one factor that fails this rejects the chain.  The result keeps
        ``self.order`` and has no bounds.

        A parameter-free q^0 factor is the scalar ``(1 - c)^power``: :func:`_links` multiplies
        all of them into one rational S, applied once at the end, and ``S = 0`` gives the zero
        series.  The other factors are one :func:`_chain` pass on the term maps of ``self``
        brought over the lcm D of their denominators and times ``L^(n - lo)`` at q^n, for ``lo``
        the entry valuation and L the lcm of ``c`` over the factors with ``qexp >= 1``; the end
        divides by ``D * L^(n - lo)``, the chain's own factor and the denominator of S, times its
        numerator."""
        scalar, chain = _links(self.params, factors)
        if not (scalar and self.coeffs):
            return QSeries(self.params, self.order)
        lo = min(self.coeffs)
        L = math.lcm(*(c.denominator for c, qexp, _, _ in chain if qexp))
        D, terms = _scale(self, L, lo)
        terms, reach, b = _chain(terms, chain, L, lo, self.order, _reach(self))
        return _series(self.params, self.order, terms, D * b * scalar.denominator, L, lo, scalar.numerator, reach)

    # -- reshaping ------------------------------------------------------

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise TruncationError(
                f"cannot extend provable order from {self.order} to {order}"
            )
        out = QSeries(self.params, order, self.coeffs)
        out.bounds = self.bounds  # the same series to a lower order: its bounds still hold
        return out

    def shift(self, j: int) -> "QSeries":
        """Multiply by q^j (exact for any integer j)."""
        return QSeries(
            self.params,
            self.order + j,
            {n + j: c for n, c in self.coeffs.items()},
        )

    def with_bounds(self, bounds: Mapping[str, Scalar]) -> "QSeries":
        """Declare degree bounds, validating them on every stored coefficient.

        A bound ``p: slope``, for a parameter p and a slope >= 0, asserts
        ``0 <= deg_p(coeff of q^n) <= slope*n`` for every exponent n, above
        the window too; it is checked on every stored coefficient, and
        declaring it fails otherwise.
        """
        declared = {p: _as_fraction(s) for p, s in bounds.items()}
        if declared and self.valuation < 0:
            raise AlgebraError("degree bounds require nonnegative valuation")
        for p, slope in declared.items():
            if p not in self.params:
                raise AlgebraError(f"degree bound for {p!r}, which is not a parameter of {self.params}")
            if slope < 0:  # it would claim that every coefficient above q^0 vanishes
                raise AlgebraError(f"degree bound for {p} has negative slope {slope}")
            s = _layout(len(self.params))[1][_index(self.params, p)]
            for n, c in self.coeffs.items():
                slots = [(v >> s) & _SLOT for v in c.num]  # p's exponents, each plus 2^(S-1)
                if min(slots, default=_OFFSET) < _OFFSET:
                    raise AlgebraError(f"bound violated: negative {p}-exponent in coeff of q^{n}")
                if max(slots, default=_OFFSET) - _OFFSET > slope * n:
                    raise AlgebraError(f"bound violated: deg_{p} of coeff of q^{n} is "
                                       f"{max(slots) - _OFFSET} > {slope}*{n}")
        out = QSeries(self.params, self.order, self.coeffs)
        out.bounds = {**self.bounds, **declared}
        return out

    # -- substitution and differentiation -------------------------------

    def eval_param(self, values: Mapping[str, Scalar]) -> "QSeries":
        """Replace each named parameter by its rational value; the result is without those names.
        This is :meth:`substitute_param` with ``j = 0`` for every name."""
        return self.substitute_param({name: (r, 0) for name, r in values.items()})

    def eval_weighted(self, name: str, r: Optional[Scalar],
                      weight: Callable[[int, int], Union[Scalar, Mapping[int, Scalar]]]) -> "QSeries":
        """``sum w(a, n) c r^a q^n`` over the terms ``c p^a q^n``, for the parameter p of ``name``
        fixed at the rational r and each term weighed by the rational ``w(a, n) = weight(a, n)``;
        the result is without p, keeps the order and has no bounds.  This reads x-derivatives at
        a point: ``(p d/dp)^k`` at p = r is the weight ``a^k``, and ``q d/dq`` the weight n.
        With ``r = None`` p stays, as a parameter the builders keep symbolic: ``weight(a, n)`` is
        a Laurent polynomial in p, a map shift -> rational, and the term becomes
        ``sum_j w_j(a, n) c p^(a + j) q^n``, so a PDE with p-polynomial coefficients is one pass.

        One pass in integers, as in :meth:`substitute_param`: the terms enter through
        :func:`_scale`, r^a is the integer ``num^(a - lo) den^(hi - a)`` over the exponents of p
        in [lo, hi] (1 when p stays), and the weights, computed once per distinct (a, n), are
        scaled by the lcm of their denominators.  Each term reads a from its slot; a shift by j
        adds ``j`` to that slot, and fixing p clears it, so each output term is one integer sum
        on a key that :func:`_squeeze` takes the slot out of once, and :func:`_series` divides
        once by the common factor."""
        i = _index(self.params, name)
        s, keep = _layout(len(self.params))[1][i], r is None
        D, maps = _scale(self)
        slots = {n: {(v >> s) & _SLOT for v in t} for n, t in maps.items()}
        exponents = set().union(*slots.values())
        if keep:  # p stays: the row of shift j weighs c p^a q^n into w_j(a, n) c p^(a + j) q^n
            params, powers, factor = self.params, dict.fromkeys(exponents, 1), Fraction(1)
            ws = {n: {a: weight(a - _OFFSET, n) for a in row} for n, row in slots.items()}
            rows = {n: [(j, {a: _canon(w.get(j, 0)) for a, w in row.items()}) for j in set().union(*row.values())]
                    for n, row in ws.items()}
            reach = _within(_reach(self) + max((abs(j) for rs in rows.values() for j, _ in rs), default=0),
                            "a weighted series")
        else:  # p goes: one row, of the weights
            params = self.params[:i] + self.params[i + 1:]
            powers, factor = _powers(name, exponents, _as_fraction(r))
            rows = {n: [(0, {a: _canon(weight(a - _OFFSET, n)) for a in row})] for n, row in slots.items()}
            reach = _reach(self)
        W = math.lcm(*(w.denominator for rs in rows.values() for _, row in rs for w in row.values()))
        # the weight times the power of r of each (n, j, a), in integers
        tables = {n: [(j << s, {a: w.numerator * (W // w.denominator) * powers[a] for a, w in row.items()})
                      for j, row in rs] for n, rs in rows.items()}
        clear = -1 - (_SLOT << s)  # every bit but p's slot
        out = {}
        for n, terms in maps.items():
            sums = {}
            for shift, row in tables[n]:
                for v, c in terms.items():
                    w = row[(v >> s) & _SLOT]
                    if w:
                        key = v + shift if keep else v & clear
                        sums[key] = sums.get(key, 0) + c * w
            sums = {key: t for key, t in sums.items() if t}
            if sums:
                out[n] = sums if keep else _squeeze(sums, (s,))
        return _series(params, self.order, out, D * W * factor.denominator, N=factor.numerator, reach=reach)

    def substitute_param(self, values: Mapping[str, Tuple[Scalar, int]]) -> "QSeries":
        """Replace each parameter p of ``values`` by the q-monomial ``c * q^j`` of its
        ``(c, j)``, all in one integer pass over the terms; the result is without those names.

        An entry with ``j == 0`` or ``c == 0`` is an evaluation: its terms stay at
        their exponent, and it needs no bound.  Each other entry, a move, needs a
        declared degree bound for its parameter: it rules out negative exponents,
        also above the window, and caps how far exponents can drop.  A term
        ``p^a q^n`` lands at ``q^(n + j*a)`` with ``n + j*a >= (1 + j*slope_p)*n``,
        so the window shrinks once, by ``shrink = 1 + sum_{j<0} j*slope_p``, which
        makes the output order provable.  ``c^a`` is read from the :func:`_powers`
        table of p over the terms that land, so only a term that lands can raise a pole at 0.
        Each term reads a from its slot and sums on its key with the fixed slots cleared;
        :func:`_squeeze` takes those slots out of each summed key once.
        """
        values = {name: (_as_fraction(c), j if c else 0) for name, (c, j) in values.items()}
        for name in values:
            _index(self.params, name)
        moves = {name: (c, j) for name, (c, j) in values.items() if j}
        for name, (c, j) in moves.items():
            if name not in self.bounds:
                raise AlgebraError(f"substituting {name} -> {c}*q^{j} needs a declared degree bound for {name}")
        drops = {name: j for name, (c, j) in moves.items() if j < 0}
        shrink = 1 + sum(j * self.bounds[name] for name, j in drops.items())
        if shrink <= 0:
            raise AlgebraError(
                f"substitution {', '.join(f'{name} -> q^{j}' for name, j in drops.items())} underflows "
                f"the provable window (bound slope {', '.join(str(self.bounds[name]) for name in drops)})"
            )
        order = math.ceil((self.order + 1) * shrink) - 1
        shifts = _layout(len(self.params))[1]
        fixed = [(shifts[i], name, *values[name]) for i, name in enumerate(self.params) if name in values]
        moved = [(s, j) for s, _, _, j in fixed if j]
        params = tuple(name for name in self.params if name not in values)
        cuts = [s for s, *_ in fixed]  # highest first: taking a slot out moves none below it
        clear = -1 - sum(_SLOT << s for s in cuts)  # every bit but the fixed slots
        D, maps = _scale(self)
        if moved:
            # the bounds hold on every stored term, 0 <= a <= slope*n with n >= 0,
            # so each term lands at n + sum j*a >= min(1, shrink)*n >= 0
            landed: dict[int, list] = {}
            for n, terms in maps.items():
                for v, a in terms.items():
                    ne = n + sum(j * (((v >> s) & _SLOT) - _OFFSET) for s, j in moved)
                    if ne <= order:
                        landed.setdefault(ne, []).append((v, a))
        else:  # evaluations only: every term stays at its exponent
            landed = {n: terms.items() for n, terms in maps.items()}
        tables, factor = [], Fraction(1)  # c^a is table[a] times the factor of its name
        for s, name, c, _ in fixed:
            table, f = _powers(name, {(v >> s) & _SLOT for terms in landed.values() for v, _ in terms}, c)
            tables.append((s, table))
            factor *= f
        sums = {}
        for ne, terms in landed.items():
            acc = {}
            for v, a in terms:
                for s, table in tables:
                    a *= table[(v >> s) & _SLOT]
                key = v & clear
                acc[key] = acc.get(key, 0) + a
            acc = {key: a for key, a in acc.items() if a}
            if acc:
                sums[ne] = _squeeze(acc, cuts)
        return _series(params, order, sums, D * factor.denominator, N=factor.numerator, reach=_reach(self))

    def delta_q(self) -> "QSeries":
        """The Euler operator q d/dq: multiplies the coeff of q^n by n."""
        return QSeries(
            self.params,
            self.order,
            {n: c * n for n, c in self.coeffs.items() if n},
        )

    def d_dparam(self, name: str) -> "QSeries":
        """Formal partial derivative with respect to a parameter."""
        _index(self.params, name)
        return QSeries(
            self.params,
            self.order,
            {n: c.derivative(name) for n, c in self.coeffs.items()},
        )

    # -- comparison -----------------------------------------------------

    def equal_to_order(
        self, other: "QSeries", order: Optional[int] = None
    ) -> Tuple[bool, Optional[Tuple[int, Tuple[int, ...], Fraction, Fraction]]]:
        """Exact comparison up to ``order`` (default: the mutual window).

        Returns ``(True, None)`` or ``(False, (n, exponent_vector, a, b))``
        for the smallest failing q-exponent and a monomial where the
        coefficients differ.
        """
        self._check_params(other)
        window = min(self.order, other.order)
        if order is None:
            order = window
        elif order > window:
            raise TruncationError(
                f"comparison to order {order} exceeds mutual window {window}"
            )
        lo = min(self.valuation, other.valuation)
        for n in range(lo, order + 1):
            a = self.coeffs.get(n, ParamPoly.zero(self.params))
            b = other.coeffs.get(n, ParamPoly.zero(self.params))
            if a != b:
                for key in sorted(set(a.num) | set(b.num)):
                    ca, cb = (_value(p.num[key], p.den) if key in p.num else Fraction(0) for p in (a, b))
                    if ca != cb:
                        return False, (n, _unpack(key, len(self.params)), ca, cb)
        return True, None

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.params == other.params
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):  # pragma: no cover - not used as dict keys in practice
        return hash((self.params, self.order, frozenset(self.coeffs)))

    # -- formatting and serialization -----------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return f"0 + O(q^{self.order + 1})"
        parts = []
        for n, c in self.sorted_items():
            cs = str(c)
            if len(c.num) > 1:
                cs = f"({cs})"
            parts.append(f"{cs}*q^{n}" if n else cs)
        return " + ".join(parts) + f" + O(q^{self.order + 1})"

    def __repr__(self) -> str:
        return f"QSeries[{', '.join(self.params) or 'q only'}]({self})"

    def to_json(self) -> str:
        """The JSON text of the object that :meth:`from_obj` reads: "params", "valuation",
        "order", "coeffs" (exponent text -> ``ParamPoly.to_obj``) and, if declared, "bounds"
        (name -> "p/q").  It is byte for byte ``json.dumps(obj, indent=2, sort_keys=True)``,
        written straight from the packed keys, each distinct key's vector text once."""
        def pad(depth: int) -> str:  # what comes before an item at this depth
            return "\n" + "  " * depth

        def block(items: list, depth: int, ends: str = "[]") -> str:  # an array of item texts
            if not items:
                return ends
            return ends[0] + pad(depth) + ("," + pad(depth)).join(items) + pad(depth - 1) + ends[1]

        def members(pairs: list, depth: int) -> str:  # an object of (key, value text) pairs, keys sorted as text
            return block([f"{encode_basestring_ascii(k)}: {v}" for k, v in sorted(pairs)], depth, "{}")

        arity = len(self.params)
        vecs = {v: block([str(e) for e in _unpack(v, arity)], 5) for v in set().union(*(p.num for p in self.coeffs.values()))}
        head, mid, tail = "[" + pad(4), "," + pad(4), pad(3) + "]"  # around a term's vector and value
        coeffs = [(str(n), block([f'{head}{vecs[v]}{mid}"{text}"{tail}' for v, text in p.ratio_texts()], 3))
                  for n, p in self.coeffs.items()]
        fields = [("params", block([encode_basestring_ascii(p) for p in self.params], 2)),
                  ("valuation", str(self.valuation)), ("order", str(self.order)), ("coeffs", members(coeffs, 2))]
        if self.bounds:
            bounds = [(p, f'"{s.numerator}/{s.denominator}"') for p, s in self.bounds.items()]
            fields.append(("bounds", members(bounds, 2)))
        return members(fields, 1)

    @classmethod
    def from_obj(cls, obj: Mapping) -> "QSeries":
        """The series of the object that :meth:`to_json` writes, read back from its JSON text;
        a malformed one raises AlgebraError."""
        if not isinstance(obj, Mapping):
            raise AlgebraError(f"a series object is a mapping, not {type(obj).__name__}")
        missing = [key for key in ("params", "order", "coeffs") if key not in obj]
        if missing:
            raise AlgebraError(f"series object has no {', '.join(map(repr, missing))}")
        params = obj["params"]
        if not (isinstance(params, list) and all(isinstance(p, str) for p in params)):
            raise AlgebraError(f"params {params!r} is not a list of names")
        params = tuple(params)
        order = _integer(obj["order"], "order")
        for key in ("coeffs", "bounds"):
            if not isinstance(obj.get(key, {}), Mapping):
                raise AlgebraError(f"{key} is not a mapping")
        coeffs = {}
        for key, terms in obj["coeffs"].items():
            n = _integer(key, "exponent key")
            if n > order:
                raise AlgebraError(f"a term at q^{n} lies above the order {order}")
            coeffs[n] = ParamPoly.from_obj(params, terms)
        bounds = {p: _rational(s, "bound") for p, s in obj.get("bounds", {}).items()}
        return cls(params, order, coeffs).with_bounds(bounds)

    @classmethod
    def from_json(cls, text: str) -> "QSeries":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise AlgebraError(f"series text is not JSON: {exc}") from None
        return cls.from_obj(obj)
