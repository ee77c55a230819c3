"""Sparse multivariate Laurent polynomials over exact rationals, stored in integers.

These are the coefficient objects for the truncated q-series kernel: a
fixed, ordered tuple of parameter names (e.g. ``("d", "e", "x")``) and a
sparse sum of rational multiples of monomials.  A poly stores only ints, in
content/primitive-part form: a map ``num`` from packed exponent keys to
nonzero int numerators, and one positive denominator ``den`` with
``gcd(den, numerators) = 1`` (``den = 1`` for the zero poly).  So no ring
operation builds a ``Fraction``; ``constant_value`` still hands one out.

A key packs an exponent vector into one int: entry i, plus ``2^(S-1)``, fills
the S-bit slot at bit ``S * (arity - 1 - i)`` (S = ``SLOT_BITS``), so the
first parameter holds the most significant slot.  Keys then sort exactly as
the vectors do, the zero vector's key is ``_layout(arity)[0]``, a monomial
product is ``k1 + k2 - zero`` and a shift by a vector is one int add.

Range rule: every stored exponent e satisfies ``|e| <= EXP_LIMIT = 2^(S-2)``.
It is checked when a vector is packed, and carried, not rechecked, through
every operation that makes new exponents: each poly holds ``reach``, a bound
on its |e| (exact when packed from vectors); sums take the maximum, products
add the bounds, a derivative adds 1, and the series kernel adds a chain's
growth (series.py).  A derived bound past ``EXP_LIMIT`` raises AlgebraError
before any key is formed, so two in-range slots never carry into the next.

``terms`` is a read-only decoded view ``{exponent tuple: int or Fraction}``,
an int exactly when the coefficient is integral, for readers and tests; no
operation goes through it.  The coefficient domain is deliberately a ring,
not a field; expressions with genuinely rational parameter dependence are
handled by evaluating the parameters at rational points before any division
happens.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import lshift
from typing import Iterable, Optional, Tuple, Union

Scalar = Union[int, Fraction]
ExpVec = Tuple[int, ...]

SLOT_BITS = 32
EXP_LIMIT = 1 << (SLOT_BITS - 2)
_OFFSET = 1 << (SLOT_BITS - 1)  # the slot value of exponent 0
_SLOT = (1 << SLOT_BITS) - 1


class AlgebraError(ValueError):
    """Raised for operations that leave the exact-arithmetic ring."""


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def gbinom(m: int, k: int) -> int:
    """The generalized binomial ``C(m, k) = m (m-1) ... (m-k+1) / k!`` for any int m and k >= 0."""
    return 0 if 0 <= m < k else math.prod(range(m - k + 1, m + 1)) // math.factorial(k)


def _canon(c: Scalar) -> Scalar:
    """A rational as an int when integral, else a Fraction."""
    if isinstance(c, (int, Fraction)):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _integer(value, what: str) -> int:
    """An int read from a file: an int, or the text of one."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise AlgebraError(f"{what} {value!r} is not an integer")


def _rational(text, what: str) -> Fraction:
    """A rational read from a file, from its text such as ``"-1/2"``."""
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise AlgebraError(f"{what} {text!r} is not a rational number") from None


def _index(params: Tuple[str, ...], name: str) -> int:
    """The position of ``name`` in ``params``; an AlgebraError names it if it is not there."""
    try:
        return params.index(name)
    except ValueError:
        raise AlgebraError(f"unknown parameter {name!r} (declared: {params})") from None


def _powers(name: str, slots: set, r: Fraction) -> Tuple[dict, Fraction]:
    """``({s: p^(e - lo) * q^(hi - e)}, p^lo / q^hi)`` for ``name`` at r = p/q, over the slot
    values ``slots`` (``s = e + 2^(S-1)``) of its exponents e in [lo, hi]: r^e is the integer
    of s times the common factor."""
    lo, hi = min(slots, default=_OFFSET) - _OFFSET, max(slots, default=_OFFSET) - _OFFSET
    p, q = r.numerator, r.denominator
    if lo < 0 and p == 0:
        raise AlgebraError(f"pole at 0: {name}^{lo} evaluated at 0")
    return ({s: p ** (s - _OFFSET - lo) * q ** (hi + _OFFSET - s) for s in slots},
            Fraction(p) ** lo / Fraction(q) ** hi)


@lru_cache(maxsize=64)
def _layout(arity: int) -> Tuple[int, Tuple[int, ...]]:
    """``(zero, shifts)`` for keys of this arity: the key of the zero vector, and the bit
    offset of each entry's slot, the first entry's highest."""
    shifts = tuple(range(SLOT_BITS * (arity - 1), -1, -SLOT_BITS))
    return _OFFSET * ((1 << SLOT_BITS * arity) - 1) // _SLOT, shifts  # _OFFSET in every slot


def _unpack(key: int, arity: int) -> ExpVec:
    return tuple(((key >> s) & _SLOT) - _OFFSET for s in _layout(arity)[1])


def _within(reach: int, what: str) -> int:
    """``reach``, a bound on the exponents of a result, if it lies in the slot range."""
    if reach > EXP_LIMIT:
        raise AlgebraError(f"{what} could hold the exponent {reach}, outside the slot range "
                           f"-2^{SLOT_BITS - 2}..2^{SLOT_BITS - 2}")
    return reach


def _pack(arity: int, terms: Mapping) -> Tuple[dict, int]:
    """``(num, reach)`` of a map from exponent tuples to ints: the same map with each tuple
    packed into its key, and the largest |exponent|.  A tuple of another arity, or an
    exponent past EXP_LIMIT, raises AlgebraError naming it."""
    vecs = terms.keys()
    if not vecs:
        return {}, 0
    if set(map(len, vecs)) != {arity}:
        vec = next(v for v in vecs if len(v) != arity)
        raise AlgebraError(f"exponent vector {vec} has arity {len(vec)}, expected {arity}")
    if not arity:
        return {0: sum(terms.values())}, 0
    reach = max(max(map(max, vecs)), -min(map(min, vecs)))
    if reach > EXP_LIMIT:
        e = next(e for v in vecs for e in v if abs(e) > EXP_LIMIT)
        raise AlgebraError(f"exponent {e} lies outside the slot range -2^{SLOT_BITS - 2}..2^{SLOT_BITS - 2}")
    zero, shifts = _layout(arity)
    # tuples equal as vectors are one dict key, so their keys are distinct
    return {zero + sum(map(lshift, v, shifts)): c for v, c in terms.items()}, reach


def _value(c: int, den: int) -> Scalar:
    """The coefficient ``c / den``: an int when integral, else a Fraction."""
    return c if den == 1 else (Fraction(c, den) if c % den else c // den)


class _Terms(Mapping):
    """A poly's terms, decoded: exponent tuple -> int or Fraction.  Read-only, and read from
    the poly on every access; ``len`` decodes nothing."""

    __slots__ = ("_poly",)

    def __init__(self, poly: "ParamPoly"):
        self._poly = poly

    def __len__(self) -> int:
        return len(self._poly.num)

    def __iter__(self):
        arity = len(self._poly.params)
        return (_unpack(key, arity) for key in self._poly.num)

    def __getitem__(self, vec):
        p = self._poly
        zero, shifts = _layout(len(p.params))
        try:  # the key _pack would give, for a vector of the poly's arity within the slot range
            if len(vec) == len(shifts) and max(map(abs, vec), default=0) <= EXP_LIMIT:
                return _value(p.num[zero + sum(map(lshift, vec, shifts))], p.den)
        except (KeyError, TypeError):
            pass
        raise KeyError(vec)

    def items(self):  # the Mapping mixins would decode each key and pack it again to look it up
        arity, den = len(self._poly.params), self._poly.den
        return [(_unpack(key, arity), _value(c, den)) for key, c in self._poly.num.items()]

    def values(self):
        return [_value(c, self._poly.den) for c in self._poly.num.values()]

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class ParamPoly:
    """Laurent polynomial in a fixed tuple of named parameters.

    Invariants: ``num`` holds no zero; ``den >= 1`` and ``gcd(den, *num.values()) == 1``;
    every key is the packed key of a vector of arity ``len(params)`` with every entry
    within ``reach <= EXP_LIMIT``.  Instances are immutable by convention: no method
    mutates ``self``.
    """

    __slots__ = ("params", "num", "den", "reach")

    def __init__(self, params: Iterable[str], terms: Optional[Mapping[ExpVec, Scalar]] = None):
        self.params: Tuple[str, ...] = tuple(params)
        terms = terms or {}
        den = math.lcm(*(_canon(c).denominator for c in terms.values()))
        num, reach = _pack(len(self.params), {vec: c.numerator * (den // c.denominator) for vec, c in terms.items()})
        self._set(num, den, reach)

    def _set(self, num: dict, den: int, reach: int) -> None:
        """Store ``num / den`` in lowest terms: zeros dropped, the gcd divided out."""
        if 0 in num.values():
            num = {key: c for key, c in num.items() if c}
        if den != 1:
            g = math.gcd(den, *num.values())  # den itself when num is empty
            if g != 1:
                num, den = {key: c // g for key, c in num.items()}, den // g
        self.num, self.den, self.reach = num, den, reach

    @classmethod
    def _make(cls, params: Tuple[str, ...], num: dict, den: int = 1, reach: int = 0) -> "ParamPoly":
        """The poly ``num / den`` of a summed int map, reduced; keys unchecked."""
        out = cls.__new__(cls)
        out.params = params
        out._set(num, den, reach)
        return out

    @classmethod
    def _raw(cls, params: Tuple[str, ...], num: dict, den: int, reach: int) -> "ParamPoly":
        """A poly of an int map and denominator already in lowest terms, keys unchecked."""
        out = cls.__new__(cls)
        out.params, out.num, out.den, out.reach = params, num, den, reach
        return out

    @classmethod
    def _from_ints(cls, params: Tuple[str, ...], terms: Mapping[ExpVec, int], den: int = 1) -> "ParamPoly":
        """The poly ``sum terms[vec] / den * p^vec`` of an int map keyed by exponent tuples, for
        an int ``den != 0``."""
        num, reach = _pack(len(params), terms)
        if den < 0:
            num, den = _times(num, -1), -den
        return cls._make(params, num, den, reach)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, params: Iterable[str]) -> "ParamPoly":
        return cls._raw(tuple(params), {}, 1, 0)

    @classmethod
    def const(cls, params: Iterable[str], c: Scalar) -> "ParamPoly":
        params, c = tuple(params), _canon(c)
        return cls._make(params, {_layout(len(params))[0]: c.numerator}, c.denominator)

    @classmethod
    def monomial(cls, params: Iterable[str], exps: Mapping[str, int], c: Scalar = 1) -> "ParamPoly":
        params = tuple(params)
        vec = [0] * len(params)
        for name, e in exps.items():
            vec[_index(params, name)] = int(e)
        return cls(params, {tuple(vec): c})

    @classmethod
    def var(cls, params: Iterable[str], name: str, power: int = 1) -> "ParamPoly":
        return cls.monomial(params, {name: power})

    # -- predicates and views -------------------------------------------

    @property
    def terms(self) -> _Terms:
        """The decoded terms, ``{exponent tuple: int or Fraction}``, read-only."""
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self.num

    def as_monomial(self) -> Optional[Tuple[Scalar, ExpVec]]:
        """Return ``(coeff, exponents)`` if this is a single term, else None."""
        if len(self.num) != 1:
            return None
        ((key, c),) = self.num.items()
        return _value(c, self.den), _unpack(key, len(self.params))

    def constant_value(self) -> Fraction:
        """The value of a parameter-free polynomial; error if parameters occur."""
        if not self.num:
            return Fraction(0)
        c = self.num.get(_layout(len(self.params))[0])
        if c is None or len(self.num) != 1:
            raise AlgebraError(f"not a constant: {self}")
        return Fraction(c, self.den)

    def _slot(self, name: str) -> int:
        return _layout(len(self.params))[1][_index(self.params, name)]

    def degree(self, name: str) -> int:
        """Largest exponent of ``name`` over all terms (0 for the zero poly)."""
        s = self._slot(name)
        return max(((key >> s) & _SLOT for key in self.num), default=_OFFSET) - _OFFSET

    def min_degree(self, name: str) -> int:
        s = self._slot(name)
        return min(((key >> s) & _SLOT for key in self.num), default=_OFFSET) - _OFFSET

    # -- ring operations ------------------------------------------------

    def _coerce(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            if other.params != self.params:
                raise AlgebraError(
                    f"parameter mismatch: {self.params} vs {other.params}"
                )
            return other
        return ParamPoly.const(self.params, other)

    def __add__(self, other) -> "ParamPoly":
        other = self._coerce(other)
        a, b, den = self.num, other.num, self.den
        if other.den != den:  # both over the lcm of the two denominators
            den = math.lcm(den, other.den)
            a, b = _times(a, den // self.den), _times(b, den // other.den)
        if len(a) < len(b):
            a, b = b, a
        num = dict(a)
        for key, c in b.items():
            num[key] = num.get(key, 0) + c
        return ParamPoly._make(self.params, num, den, max(self.reach, other.reach))

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._raw(self.params, {key: -c for key, c in self.num.items()}, self.den, self.reach)

    def __sub__(self, other) -> "ParamPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            return ParamPoly._make(self.params, _times(self.num, other.numerator),
                                   self.den * other.denominator, self.reach)
        other = self._coerce(other)
        reach = _within(self.reach + other.reach, "a product")
        zero = _layout(len(self.params))[0]
        num: dict = {}
        for k1, c1 in self.num.items():
            k1 -= zero
            for k2, c2 in other.num.items():
                key = k1 + k2
                num[key] = num.get(key, 0) + c1 * c2
        return ParamPoly._make(self.params, num, self.den * other.den, reach)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(self.params, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.params == other.params and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.params, self.den, frozenset(self.num.items())))

    # -- calculus -------------------------------------------------------

    def derivative(self, name: str) -> "ParamPoly":
        """Formal partial derivative with respect to one parameter."""
        s = self._slot(name)
        step, num = 1 << s, {}
        for key, c in self.num.items():
            k = ((key >> s) & _SLOT) - _OFFSET
            if k:
                num[key - step] = c * k
        return ParamPoly._make(self.params, num, self.den, _within(self.reach + 1, "a derivative"))

    # -- formatting and serialization -----------------------------------

    def sorted_terms(self) -> list[Tuple[ExpVec, Scalar]]:
        """The decoded terms in exponent order (keys sort as their vectors)."""
        arity, den = len(self.params), self.den
        return [(_unpack(key, arity), _value(c, den)) for key, c in sorted(self.num.items())]

    def __str__(self) -> str:
        if not self.num:
            return "0"
        parts = []
        for vec, c in self.sorted_terms():
            names = "*".join(
                f"{p}^{e}" if e != 1 else p
                for p, e in zip(self.params, vec)
                if e
            )
            if names:
                parts.append(f"{c}*{names}" if c != 1 else names)
            else:
                parts.append(str(c))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ParamPoly({self.params!r}, {{{self}}})"

    def ratio_texts(self) -> list[Tuple[int, str]]:
        """``(key, "p/q")`` for each term in key order, the coefficient in lowest terms."""
        den = self.den
        if den == 1:
            return [(key, f"{c}/1") for key, c in sorted(self.num.items())]
        return [(key, f"{c // g}/{den // g}") for key, c in sorted(self.num.items()) for g in (math.gcd(c, den),)]

    def to_obj(self) -> list:
        arity = len(self.params)
        return [[list(_unpack(key, arity)), text] for key, text in self.ratio_texts()]

    @classmethod
    def from_obj(cls, params: Iterable[str], obj: list) -> "ParamPoly":
        """The poly of a ``to_obj`` list; a malformed one raises AlgebraError."""
        if not isinstance(obj, list):
            raise AlgebraError(f"coefficient {obj!r} is not a list of terms")
        terms = {}
        for term in obj:
            if not (isinstance(term, list) and len(term) == 2 and isinstance(term[0], list)):
                raise AlgebraError(f"term {term!r} is not [exponents, coefficient]")
            vec, text = term
            terms[tuple(_integer(e, "exponent") for e in vec)] = _rational(text, "coefficient")
        return cls(params, terms)


def _times(num: dict, k: int) -> dict:
    """An int map times the int k."""
    return num if k == 1 else {key: c * k for key, c in num.items()}
