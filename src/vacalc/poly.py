"""Polynomials in formal bracket variables (lambda, mu, ...).

A :class:`BracketPoly` stores, for each exponent vector, a coefficient living
in an additive module: a number or :class:`~vacalc.scalar.Scalar` (kept in
its ``narrow`` form), a one-variable Laurent polynomial, an element of a
C[d]-module presentation, or a vertex element.  Substitution of
``lambda -> -lambda - d`` additionally needs ``translate``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable

from .scalar import (
    LinearCombination,
    binom,
    factorial,
    format_sum,
    monomial_text,
    signed_term,
    sparse_sum,
)


class BracketPoly(LinearCombination):
    __slots__ = ("variables", "coeffs")
    _parts = ("coeffs",)
    _context = "variables"

    def __init__(self, variables, coeffs=None):
        self.variables = tuple(variables)
        self.coeffs = self._nonzero(coeffs, key=self._exponents)

    def _exponents(self, exps) -> tuple:
        exps = tuple(exps)
        if len(exps) != len(self.variables):
            raise ValueError("exponent arity does not match variables")
        if any(e < 0 for e in exps):
            raise ValueError("negative bracket-variable exponent")
        return exps

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, variables=("lambda",)) -> "BracketPoly":
        return cls(variables)

    @classmethod
    def constant(cls, value, variables=("lambda",)) -> "BracketPoly":
        return cls(variables, {(0,) * len(variables): value})

    # -- queries -------------------------------------------------------------

    def coefficient(self, exps, zero):
        """Coefficient at the exponent vector, or ``zero`` when absent."""
        return self.coeffs.get(tuple(exps), zero)

    def degree(self, var: str) -> int:
        """Largest exponent of ``var`` present; -1 for the zero polynomial."""
        idx = self.variables.index(var)
        if not self.coeffs:
            return -1
        return max(e[idx] for e in self.coeffs)

    def terms(self) -> Iterable:
        return sorted(self.coeffs.items())

    def j_products(self) -> list:
        """The nonzero products ``x_(j) y = j! * (lambda^j coefficient)`` of a
        bracket ``[x_lambda y]``, ascending in j."""
        return [
            (j, value.scale(factorial(j)))
            for (j,), value in sorted(self.coeffs.items())
        ]

    # -- maps on coefficients and exponents -------------------------------------

    def map_coeffs(self, fn: Callable) -> "BracketPoly":
        mapped = ((exps, fn(value)) for exps, value in self.coeffs.items())
        return self._build({exps: value for exps, value in mapped if not value.is_zero()})

    def shift_power(self, var: str, k: int) -> "BracketPoly":
        """Multiply by ``var**k``."""
        idx = self.variables.index(var)
        out = {}
        for exps, value in self.coeffs.items():
            new = list(exps)
            new[idx] += k
            out[tuple(new)] = value
        return self._build(out)

    def __str__(self):
        """Parseable text, lowest degree first: ``d(L) + 2*lambda*L``."""
        terms = []
        for exps, value in self.terms():
            lam = monomial_text((name, k) for name, k in zip(self.variables, exps) if k)
            if isinstance(value, LinearCombination):
                terms.extend(value.sum_terms(lam))
            else:
                terms.append(signed_term(value, lam))
        return format_sum(terms)

    def __repr__(self):
        body = ", ".join(f"{e}: {v}" for e, v in self.terms())
        return f"BracketPoly[{','.join(self.variables)}]({body})"


def substitute_skew(poly: BracketPoly) -> BracketPoly:
    """Substitute ``lambda -> -lambda - d`` in a one-variable polynomial.

    ``d`` acts on the coefficients through their ``translate`` method (raising
    derivative powers and annihilating torsion generators), so
    ``lambda**k . e`` becomes ``sum_i C(k,i) (-1)**k lambda**i d**(k-i) e``.
    """
    if len(poly.variables) != 1:
        raise ValueError("skew substitution needs a single bracket variable")
    terms = []
    for (k,), value in poly.coeffs.items():
        shifted = value
        # i = k, k-1, ..., 0; apply one more translate per step down.
        for i in range(k, -1, -1):
            if i < k:
                shifted = shifted.translate()
            if not shifted.is_zero():
                terms.append(({(i,): shifted}, binom(k, i) * (1 if k % 2 == 0 else -1)))
    return poly._build(sparse_sum(terms))


def integrate_zero_to_lambda(poly: BracketPoly, var_out: str = "lambda") -> BracketPoly:
    """Formal integral from 0 to ``var_out`` of a one-variable polynomial:
    each monomial ``u**k`` maps to ``var_out**(k+1) / (k+1)``."""
    if len(poly.variables) != 1:
        raise ValueError("formal integration needs a single bracket variable")
    return BracketPoly(
        (var_out,),
        {(k + 1,): value.scale(Fraction(1, k + 1)) for (k,), value in poly.coeffs.items()},
    )


def substitute_sum(poly: BracketPoly, variables=("lambda", "mu")) -> BracketPoly:
    """Substitute ``nu -> lambda + mu``: a one-variable polynomial becomes a
    two-variable polynomial via the binomial expansion of ``(lambda+mu)**k``.
    Each exponent pair ``(i, k - i)`` comes from a single ``k``."""
    if len(poly.variables) != 1:
        raise ValueError("sum substitution needs a single bracket variable")
    return BracketPoly(
        variables,
        {
            (i, k - i): value.scale(binom(k, i))
            for (k,), value in poly.coeffs.items()
            for i in range(k + 1)
        },
    )


def embed_bivariate(
    poly: BracketPoly, position: int, other_power: int, variables=("lambda", "mu")
) -> BracketPoly:
    """Embed a one-variable polynomial into two variables, placing its own
    variable at ``position`` (0 or 1) and a fixed power of the other variable."""
    out = {}
    for (k,), value in poly.coeffs.items():
        exps = [0, 0]
        exps[position] = k
        exps[1 - position] = other_power
        out[tuple(exps)] = value
    return BracketPoly(variables, out)
