"""Sparse multivariate Laurent polynomials over exact rationals.

These are the coefficient objects for the truncated q-series kernel: a
fixed, ordered tuple of parameter names (e.g. ``("d", "e", "x")``) and a
sparse map from integer exponent vectors to nonzero rationals.  A stored
coefficient is an ``int`` when it is integral and a ``Fraction`` only
otherwise, so the common all-integer case never pays for ``Fraction``
arithmetic; ``constant_value`` still hands out a ``Fraction``.
The coefficient domain is deliberately a ring, not a field; expressions
with genuinely rational parameter dependence are handled by evaluating
the parameters at rational points before any division happens.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Optional, Tuple, Union

Scalar = Union[int, Fraction]
ExpVec = Tuple[int, ...]


class AlgebraError(ValueError):
    """Raised for operations that leave the exact-arithmetic ring."""


def _as_fraction(c: Scalar) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


def _canon(c: Scalar) -> Scalar:
    """The stored form of a coefficient: an int when integral, else a Fraction."""
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


def _powers(name: str, exps: set, r: Fraction) -> Tuple[dict, Fraction]:
    """``({e: p^(e - lo) * q^(hi - e)}, p^lo / q^hi)`` for ``name`` at r = p/q, over its
    exponents ``exps`` in [lo, hi]: r^e is the integer of e times the common factor."""
    lo, hi = min(exps, default=0), max(exps, default=0)
    p, q = r.numerator, r.denominator
    if lo < 0 and p == 0:
        raise AlgebraError(f"pole at 0: {name}^{lo} evaluated at 0")
    return {e: p ** (e - lo) * q ** (hi - e) for e in exps}, Fraction(p) ** lo / Fraction(q) ** hi


def _clean(terms: Mapping[ExpVec, Scalar]) -> dict[ExpVec, Scalar]:
    """A summed term map without its zero sums, in canonical form."""
    return {vec: c if type(c) is int else _canon(c) for vec, c in terms.items() if c}


class ParamPoly:
    """Laurent polynomial in a fixed tuple of named parameters.

    Invariants: no stored zero coefficients; every coefficient is an int
    when integral; every exponent vector has arity ``len(params)``.
    Instances are immutable by convention: no method mutates ``self``.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: Iterable[str], terms: Optional[Mapping[ExpVec, Scalar]] = None):
        self.params: Tuple[str, ...] = tuple(params)
        sums: dict[ExpVec, Scalar] = {}
        if terms:
            arity = len(self.params)
            for exps, c in terms.items():
                vec = tuple(int(e) for e in exps)
                if len(vec) != arity:
                    raise AlgebraError(
                        f"exponent vector {vec} has arity {len(vec)}, expected {arity}"
                    )
                sums[vec] = sums.get(vec, 0) + _canon(c)
        self.terms = _clean(sums)

    @classmethod
    def _raw(cls, params: Tuple[str, ...], terms: dict) -> "ParamPoly":
        """A poly of a canonical term map (no zero, ints when integral), keys unchecked."""
        out = cls.__new__(cls)
        out.params = params
        out.terms = terms
        return out

    @classmethod
    def _from_sums(cls, params: Tuple[str, ...], terms: dict) -> "ParamPoly":
        """A poly of a summed term map, cleaned and canonicalised, keys unchecked."""
        return cls._raw(params, _clean(terms))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, params: Iterable[str]) -> "ParamPoly":
        return cls(params)

    @classmethod
    def const(cls, params: Iterable[str], c: Scalar) -> "ParamPoly":
        params = tuple(params)
        return cls(params, {(0,) * len(params): c})

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

    def is_zero(self) -> bool:
        return not self.terms

    def as_monomial(self) -> Optional[Tuple[Scalar, ExpVec]]:
        """Return ``(coeff, exponents)`` if this is a single term, else None."""
        if len(self.terms) != 1:
            return None
        ((vec, c),) = self.terms.items()
        return c, vec

    def constant_value(self) -> Fraction:
        """The value of a parameter-free polynomial; error if parameters occur."""
        if not self.terms:
            return Fraction(0)
        mono = self.as_monomial()
        if mono is None or any(mono[1]):
            raise AlgebraError(f"not a constant: {self}")
        return Fraction(mono[0])

    def degree(self, name: str) -> int:
        """Largest exponent of ``name`` over all terms (0 for the zero poly)."""
        i = _index(self.params, name)
        return max((vec[i] for vec in self.terms), default=0)

    def min_degree(self, name: str) -> int:
        i = _index(self.params, name)
        return min((vec[i] for vec in self.terms), default=0)

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
        terms = dict(self.terms)
        for vec, c in other.terms.items():
            terms[vec] = terms.get(vec, 0) + c
        return ParamPoly._from_sums(self.params, terms)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._raw(self.params, {vec: -c for vec, c in self.terms.items()})

    def __sub__(self, other) -> "ParamPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            c = _canon(other)
            return ParamPoly._from_sums(self.params, {vec: v * c for vec, v in self.terms.items()})
        other = self._coerce(other)
        terms: dict[ExpVec, Scalar] = {}
        for v1, c1 in self.terms.items():
            for v2, c2 in other.terms.items():
                vec = tuple(map(add, v1, v2))
                terms[vec] = terms.get(vec, 0) + c1 * c2
        return ParamPoly._from_sums(self.params, terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(self.params, other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __hash__(self):
        return hash((self.params, frozenset(self.terms.items())))

    # -- calculus -------------------------------------------------------

    def derivative(self, name: str) -> "ParamPoly":
        """Formal partial derivative with respect to one parameter."""
        i = _index(self.params, name)
        terms: dict[ExpVec, Scalar] = {}
        for vec, c in self.terms.items():
            k = vec[i]
            if k:
                nvec = vec[:i] + (k - 1,) + vec[i + 1:]
                terms[nvec] = terms.get(nvec, 0) + c * k
        return ParamPoly._from_sums(self.params, terms)

    # -- formatting and serialization -----------------------------------

    def sorted_terms(self) -> list[Tuple[ExpVec, Scalar]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
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

    def to_obj(self) -> list:
        return [[list(vec), f"{c.numerator}/{c.denominator}"] for vec, c in self.sorted_terms()]

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
