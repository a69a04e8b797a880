"""Exact coefficient arithmetic.

Coefficients are sparse multivariate polynomials over Q in named formal
parameters (central charge ``c``, level ``k``, ...).  Everything is exact and
immutable; equality is structural equality of canonical forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

Rational = Fraction
RationalLike = Union[int, Fraction]

# A monomial is a tuple of (parameter name, positive exponent) pairs, sorted
# lexicographically by name.  The empty tuple is the constant monomial.
Monomial = tuple


def _rational(x) -> RationalLike:
    """``x`` as an exact rational in its narrow form: an int, else a Fraction
    whose denominator is not 1.  Any other type raises TypeError."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class Scalar:
    """A polynomial in named parameters with rational coefficients.

    Monomials are kept in a canonical sorted form so that equal scalars have
    identical representations.  Zero coefficients are never stored, and each
    stored coefficient is narrow: an int, else a Fraction whose denominator
    is not 1, so integral arithmetic runs on ints.  ``hash(3) ==
    hash(Fraction(3))``, so the hash does not see the narrowing.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, RationalLike] | None = None):
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = _rational(coeff)
                if coeff:
                    clean[tuple(sorted(mono))] = coeff
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls({(): 1})

    @classmethod
    def from_rational(cls, q: RationalLike) -> "Scalar":
        return cls({(): q})

    @classmethod
    def param(cls, name: str) -> "Scalar":
        return cls({((name, 1),): 1})

    @classmethod
    def coerce(cls, x: "ScalarLike") -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return cls.from_rational(x)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(m == () for m in self._terms)

    def as_rational(self) -> Fraction:
        if not self._terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"scalar {self} is not a rational constant")
        return Fraction(self._terms[()])

    def parameters(self) -> set:
        names = set()
        for mono in self._terms:
            for name, _ in mono:
                names.add(name)
        return names

    def coefficient(self, mono: Monomial) -> RationalLike:
        return self._terms.get(tuple(sorted(mono)), 0)

    def terms(self) -> Iterable[tuple[Monomial, RationalLike]]:
        return sorted(self._terms.items())

    # -- ring operations ---------------------------------------------------
    # Each result coefficient is narrowed: a sum or product of Fractions may
    # be integral.

    def __add__(self, other):
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        if not other._terms:
            return self
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            old = out.get(mono)
            if old is None:
                out[mono] = coeff
                continue
            new = old + coeff
            if type(new) is Fraction and new._denominator == 1:
                new = new._numerator
            if new:
                out[mono] = new
            else:
                del out[mono]
        result = Scalar.__new__(Scalar)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = Scalar.__new__(Scalar)
        result._terms = {m: -c for m, c in self._terms.items()}
        return result

    def __sub__(self, other):
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other):
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Scalar.zero()
            if other == 1:
                return self
            out = {}
            for m, c in self._terms.items():
                new = c * other
                if type(new) is Fraction and new._denominator == 1:
                    new = new._numerator
                out[m] = new
            result = Scalar.__new__(Scalar)
            result._terms = out
            return result
        if not isinstance(other, Scalar):
            return NotImplemented
        out: dict = {}
        get = out.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = _merge_monomials(m1, m2)
                new = c1 * c2
                old = get(mono)
                if old is not None:
                    new = old + new
                if type(new) is Fraction and new._denominator == 1:
                    new = new._numerator
                if new:
                    out[mono] = new
                else:
                    del out[mono]
        result = Scalar.__new__(Scalar)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Scalar) and other.is_constant():
            other = other.as_rational()
        if not isinstance(other, (int, Fraction)):
            raise TypeError("scalars divide only by nonzero rational constants")
        if not other:
            raise ZeroDivisionError("scalar division by zero")
        other = _rational(other)
        if other == 1:
            return self
        out = {}
        for m, c in self._terms.items():
            # An int over an int is a Fraction, never a float.
            new = Fraction(c, other) if type(c) is int and type(other) is int else c / other
            if new._denominator == 1:
                new = new._numerator
            out[m] = new
        result = Scalar.__new__(Scalar)
        result._terms = out
        return result

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of scalars are not defined")
        acc = Scalar.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def substitute(self, values: Mapping[str, "ScalarLike"]) -> "Scalar":
        """Replace parameters by scalars; unlisted parameters are kept."""
        out = Scalar.zero()
        for mono, coeff in self._terms.items():
            term = Scalar.from_rational(coeff)
            for name, exp in mono:
                if name in values:
                    term = term * (Scalar.coerce(values[name]) ** exp)
                else:
                    term = term * (Scalar.param(name) ** exp)
            out = out + term
        return out

    # -- equality / hashing / display --------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = self._terms
            if not other:
                return not terms
            return len(terms) == 1 and terms.get(()) == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        return format_sum(
            signed_term(coeff, monomial_text(mono))
            for mono, coeff in sorted(self._terms.items())
        )

    def __repr__(self):
        return f"Scalar({self})"


ScalarLike = Union[int, Fraction, Scalar]


# ---------------------------------------------------------------------------
# Sums as text: the one formatter of ``c*x + ...`` for every printed sum
# ---------------------------------------------------------------------------


def monomial_text(factors) -> str:
    """``a*b^2`` from ``(name, exponent)`` pairs with positive exponents."""
    return "*".join(name if exp == 1 else f"{name}^{exp}" for name, exp in factors)


def signed_term(coeff, *factors) -> tuple:
    """The ``(sign, text)`` term ``coeff*factor*...`` of a sum.  A coefficient
    that is itself a sum is parenthesized, and a unit coefficient is left out
    unless it stands alone; empty factors are skipped."""
    text = str(coeff)
    sign = "+"
    if " " in text:
        text = f"({text})"
    elif text.startswith("-"):
        sign, text = "-", text[1:]
    factors = [f for f in factors if f]
    if text != "1" or not factors:
        factors.insert(0, text)
    return sign, "*".join(factors)


def format_sum(terms) -> str:
    """``a + b - c`` from ``(sign, text)`` terms; the empty sum is ``0``."""
    out = []
    for sign, text in terms:
        if out:
            out.append(f" {sign} {text}")
        else:
            out.append("-" + text if sign == "-" else text)
    return "".join(out) or "0"


# ---------------------------------------------------------------------------
# Sparse linear combinations: the module arithmetic over Scalar
# ---------------------------------------------------------------------------


def _reduced(x):
    """A coefficient in its narrowest exact form, or None when it is zero:
    an int, else a Fraction with a denominator other than 1, else a Scalar
    holding a parameter.  A combination (the coefficient of another
    combination) stays as it is.  A float, a bool or any other type raises
    TypeError, so no inexact value enters a combination."""
    t = type(x)
    if t is int:
        return x or None
    if t is Fraction:
        return x if x._denominator != 1 else (x._numerator or None)
    if t is Scalar:
        terms = x._terms
        if len(terms) == 1 and () in terms:
            return _reduced(terms[()])
        return x if terms else None
    if isinstance(x, LinearCombination):
        return None if x.is_zero() else x
    raise TypeError(f"expected an int, Fraction or Scalar coefficient, got {t.__name__}")


def narrow(x):
    """The narrowest exact form of a coefficient (see :func:`_reduced`),
    with ``0`` for zero."""
    x = _reduced(x)
    return 0 if x is None else x


_ZERO_FACTOR = Fraction(0)


def _factor(c):
    """A scale factor in its narrowest form: None for exactly 1,
    ``_ZERO_FACTOR`` for zero, else the narrowed number or Scalar."""
    c = _reduced(c)
    if c is None:
        return _ZERO_FACTOR
    if type(c) is int and c == 1:
        return None
    return c


def _accumulate(acc: dict, part: Mapping, f) -> None:
    """Add ``f * part`` into ``acc``, a dict private to the sum being built;
    ``f`` comes from :func:`_factor` and is not zero."""
    get = acc.get
    for key, value in part.items():
        if f is not None:
            value = _reduced(value * f)
        old = get(key)
        if old is None:
            acc[key] = value
        else:
            value = _reduced(old + value)
            if value is None:
                del acc[key]
            else:
                acc[key] = value


def sparse_sum(pairs) -> dict:
    """``sum(c * part for part, c in pairs)`` over sparse maps from keys to
    nonzero coefficients, in one pass, as a fresh dict without zero values."""
    acc: dict = {}
    for part, c in pairs:
        f = _factor(c)
        if f is not _ZERO_FACTOR:
            _accumulate(acc, part, f)
    return acc


class LinearCombination:
    """A finite linear combination with exact coefficients: the arithmetic
    that every module over Scalar in vacalc shares.

    A subclass lists in ``_parts`` the slots holding its coefficients, each a
    dict from basis keys to nonzero coefficients, and may name in
    ``_context`` one more slot (the presentation, the bracket variables) that
    operands must share and results inherit.  A coefficient is a number or
    Scalar in its :func:`narrow` form (an int, a non-integral Fraction or a
    Scalar holding a parameter), so equal values have equal parts and equal
    hashes; or it is a value of another combination type, which needs ``+``,
    ``*`` by a scale factor and ``is_zero``.  Values are immutable; an
    operation builds fresh dicts or returns an operand unchanged, so caches
    and sums may hand the same object to every caller.
    """

    __slots__ = ("_hash",)
    _parts: tuple = ()
    _context: str | None = None

    @staticmethod
    def _nonzero(mapping, key=None) -> dict:
        """The entries of ``mapping`` (a dict or pairs) whose value is
        nonzero, each in its :func:`narrow` form; ``key`` normalizes and
        validates each key."""
        out = {}
        if mapping:
            for k, v in dict(mapping).items():
                if key is not None:
                    k = key(k)
                v = _reduced(v)
                if v is not None:
                    out[k] = v
        return out

    def _build(self, *parts):
        """A value of this type, in this value's context, holding ``parts``
        (fresh dicts without zero values, in ``_parts`` order)."""
        out = object.__new__(type(self))
        context = self._context
        if context is not None:
            setattr(out, context, getattr(self, context))
        for name, part in zip(self._parts, parts):
            setattr(out, name, part)
        return out

    def _same_context(self, other) -> bool:
        context = self._context
        if context is None:
            return True
        mine, theirs = getattr(self, context), getattr(other, context)
        return mine is theirs or mine == theirs

    def is_zero(self) -> bool:
        for name in self._parts:
            if getattr(self, name):
                return False
        return True

    def combine(self, pairs):
        """``self + sum(c * x for x, c in pairs)``, built in one pass over
        fresh dicts; no operand is changed.  A sum that adds nothing returns
        its operand: no pairs give ``self``, and one pair onto an empty value
        of the same type and context gives ``x.scale(c)``, which is ``x``
        itself when c is 1."""
        pairs = tuple(pairs)
        if not pairs:
            return self
        if len(pairs) == 1 and self.is_zero():
            x, c = pairs[0]
            if type(x) is type(self) and self._same_context(x):
                return x.scale(c)
        names = self._parts
        accs = [dict(getattr(self, name)) for name in names]
        for x, c in pairs:
            if not self._same_context(x):
                raise ValueError(f"cannot combine values with different {self._context}")
            f = _factor(c)
            if f is _ZERO_FACTOR:
                continue
            for acc, name in zip(accs, names):
                part = getattr(x, name)
                if part:
                    _accumulate(acc, part, f)
        return self._build(*accs)

    def add(self, other):
        return self.combine(((other, 1),))

    def sub(self, other):
        return self.combine(((other, -1),))

    def neg(self):
        return self.scale(-1)

    def scale(self, factor):
        """``factor * self``; scaling by exactly 1 returns ``self``."""
        f = _factor(factor)
        if f is None:
            return self
        if f is _ZERO_FACTOR:
            return self._build(*({} for _ in self._parts))
        # Coefficients lie in integral domains, so none of the products is zero.
        return self._build(
            *({k: _reduced(v * f) for k, v in getattr(self, name).items()} for name in self._parts)
        )

    # A combination may be the coefficient of another (BracketPoly over
    # elements, the delta ladder over Laurent polynomials), so it answers the
    # ``+`` and ``*`` that sums apply to coefficients.
    __add__ = add
    __mul__ = scale

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if not self._same_context(other):
            return False
        for name in self._parts:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        # Values are immutable, so the hash is computed once, on first use.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(
                tuple(frozenset(getattr(self, name).items()) for name in self._parts)
            )
            return self._hash

    def _heads(self):
        """``(head text, coefficient)`` pairs in display order, for the types
        that print as sums."""
        raise NotImplementedError

    def sum_terms(self, *factors) -> list:
        """The ``(sign, text)`` terms ``coefficient*factors*head`` of this value."""
        return [signed_term(c, *factors, head) for head, c in self._heads()]

    def __str__(self):
        return format_sum(self.sum_terms())

    __repr__ = __str__

    def __getstate__(self):
        # The memoized hash depends on the interpreter's string-hash seed, so
        # it stays out of pickles.
        names = self._parts if self._context is None else (self._context,) + self._parts
        return None, {name: getattr(self, name) for name in names}


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    exps: dict = {}
    for name, exp in m1:
        exps[name] = exps.get(name, 0) + exp
    for name, exp in m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in exps.items() if e))


def binom(j, n: int):
    """Extended binomial coefficient prod_{k=1..n} (j-k+1)/k, with value 1 at n=0.

    The upper argument may be any integer, Fraction, or Scalar (for symbolic
    mode indices); the lower argument must be a non-negative integer.  An
    integral upper argument gives an int, ``C(n-j-1, n)`` up to the sign
    ``(-1)^n`` when it is negative; any other number gives a Fraction, and
    a Scalar holding a parameter gives a Scalar.
    """
    if not isinstance(n, int):
        raise ValueError(f"lower binomial argument must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"lower binomial argument must be non-negative, got {n}")
    if isinstance(j, Scalar):
        if j.is_constant():
            return binom(j.as_rational(), n)
        acc = Scalar.one()
        for k in range(1, n + 1):
            acc = acc * (j - Scalar.from_rational(k - 1)) / k
        return acc
    if isinstance(j, Fraction) and j.denominator == 1:
        j = j.numerator
    if isinstance(j, int):
        if j >= 0:
            return math.comb(j, n)
        return sign_power(n) * math.comb(n - j - 1, n)
    q = _rational(j)
    acc = Fraction(1)
    for k in range(1, n + 1):
        acc *= (q - k + 1) / k
    return acc


def sign_power(j: int) -> int:
    """``(-1)^j`` as an int, for any integer j (``(-1) ** j`` is a float
    when j is negative)."""
    return -1 if j % 2 else 1


def factorial(n: int) -> int:
    """``n!``, and 1 for every n below 2."""
    return math.factorial(n) if n >= 2 else 1
