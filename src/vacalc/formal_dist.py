"""Formal distribution calculus in one and two indeterminates.

Two-variable objects are always kept in decomposed form: a finite "delta
ladder" (pairs ``(j, c_j)`` standing for ``c_j(w) * d_w^j delta(z,w) / j!``)
plus a finite bivariate Laurent part.  The doubly infinite series is never
materialized; the two expansion maps of ``(z-w)^k`` are produced as series
truncated to a caller-chosen order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .poly import BracketPoly
from .scalar import (
    LinearCombination,
    Scalar,
    ScalarLike,
    _reduced,
    binom,
    factorial,
    monomial_text,
    sign_power,
    sparse_sum,
)

Z_DOMINANT = "z_dominant"
W_DOMINANT = "w_dominant"


class NonLocalError(ValueError):
    """Raised when an operation requires a local distribution."""


# ---------------------------------------------------------------------------
# One-variable sparse Laurent polynomials
# ---------------------------------------------------------------------------


class OneVarLaurent(LinearCombination):
    """Finite-support Laurent polynomial ``sum_n a_n z^n`` with exact a_n."""

    __slots__ = ("coeffs",)
    _parts = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, ScalarLike] | None = None):
        self.coeffs = self._nonzero(coeffs, key=int)

    @classmethod
    def zero(cls) -> "OneVarLaurent":
        return cls()

    @classmethod
    def unit(cls) -> "OneVarLaurent":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: ScalarLike = 1) -> "OneVarLaurent":
        return cls({exp: coeff})

    def coefficient(self, exp: int) -> Scalar:
        return Scalar.coerce(self.coeffs.get(exp, 0))

    def mul(self, other: "OneVarLaurent") -> "OneVarLaurent":
        """The product: one shifted copy of ``self`` per term of ``other``."""
        return self._build(
            sparse_sum(
                ({e1 + e2: v1 for e1, v1 in self.coeffs.items()}, v2)
                for e2, v2 in other.coeffs.items()
            )
        )

    def _heads(self):
        for exp in sorted(self.coeffs):
            yield monomial_text((("w", exp),)) if exp else "", self.coeffs[exp]

    def derive(self) -> "OneVarLaurent":
        return self._build(
            {exp - 1: _reduced(value * exp) for exp, value in self.coeffs.items() if exp != 0}
        )

    def to_json(self):
        return [
            {"exponent": exp, "coeff": str(self.coeffs[exp])}
            for exp in sorted(self.coeffs)
        ]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for exp in sorted(self.coeffs):
            value = self.coeffs[exp]
            if exp == 0:
                parts.append(f"({value})")
            else:
                parts.append(f"({value})*w^{exp}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Truncated bivariate series (images of the expansion maps)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """Bivariate series with finitely many known coefficients.

    ``trunc_var`` names the subordinate variable whose exponents >= ``order``
    are unknown; a total polynomial carries ``trunc_var=None``.
    """

    coeffs: tuple
    trunc_var: str | None = None
    order: int | None = None

    @classmethod
    def build(cls, coeffs: Mapping[tuple, ScalarLike], trunc_var=None, order=None):
        clean = []
        for (ze, we), value in coeffs.items():
            value = _reduced(value)
            if value is not None:
                clean.append(((ze, we), value))
        return cls(tuple(sorted(clean)), trunc_var, order)

    def coeff_map(self) -> dict:
        return dict(self.coeffs)

    def coefficient(self, ze: int, we: int) -> Scalar:
        return Scalar.coerce(self.coeff_map().get((ze, we), 0))

    def is_total(self) -> bool:
        return self.trunc_var is None

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restrict knowledge of the subordinate variable below ``order``."""
        if self.trunc_var is None:
            raise ValueError("cannot truncate a total polynomial without a variable")
        idx = 0 if self.trunc_var == "z" else 1
        kept = {k: v for k, v in self.coeffs if k[idx] < order}
        return TruncatedSeries.build(kept, self.trunc_var, order)

    def derive(self, var: str) -> "TruncatedSeries":
        idx = 0 if var == "z" else 1
        out: dict = {}
        for (ze, we), value in self.coeffs:
            exp = (ze, we)[idx]
            if exp == 0:
                continue
            key = (ze - 1, we) if idx == 0 else (ze, we - 1)
            out[key] = value * exp
        order = self.order
        if self.trunc_var == var and order is not None:
            order -= 1
        return TruncatedSeries.build(out, self.trunc_var, order)

    def mul_poly(self, poly: Mapping[tuple, ScalarLike]) -> "TruncatedSeries":
        """Multiply by a finite bivariate Laurent polynomial.

        The result is truncated where knowledge runs out: order shifts by the
        smallest subordinate-variable exponent appearing in the polynomial.
        """
        out = sparse_sum(
            ({(ze + pz, we + pw): value for (ze, we), value in self.coeffs}, pv)
            for (pz, pw), pv in poly.items()
        )
        order = self.order
        if self.trunc_var is not None and order is not None and poly:
            idx = 0 if self.trunc_var == "z" else 1
            order += min(k[idx] for k in poly)
            idx_keep = idx
            out = {k: v for k, v in out.items() if k[idx_keep] < order}
        return TruncatedSeries.build(out, self.trunc_var, order)

    def __str__(self):
        parts = []
        for (ze, we), value in self.coeffs:
            parts.append(f"({value})*z^{ze}*w^{we}")
        body = " + ".join(parts) if parts else "0"
        if self.trunc_var is not None:
            body += f" + O({self.trunc_var}^{self.order})"
        return body

    def to_json(self):
        return {
            "coeffs": [
                {"z": ze, "w": we, "coeff": str(v)} for (ze, we), v in self.coeffs
            ],
            "trunc_var": self.trunc_var,
            "order": self.order,
        }


def expand_power(k: int, orientation: str, order: int) -> TruncatedSeries:
    """The two formal expansions of ``(z-w)^k``.

    For ``z_dominant``: ``sum_j C(k,j) (-1)^j w^j z^(k-j)``; for
    ``w_dominant`` the mirror ``sum_j C(k,j) z^j (-1)^(k-j) w^(k-j)``.  For
    k >= 0 both are the same total polynomial.
    """
    if order < 1:
        raise ValueError("expansion order must be positive")
    if k >= 0:
        coeffs = {(k - j, j): c * sign_power(j) for j, c in _binomials(k, k + 1)}
        return TruncatedSeries.build(coeffs)
    if orientation == Z_DOMINANT:
        coeffs = {(k - j, j): c * sign_power(j) for j, c in _binomials(k, order)}
        return TruncatedSeries.build(coeffs, trunc_var="w", order=order)
    if orientation == W_DOMINANT:
        coeffs = {(j, k - j): c * sign_power(k - j) for j, c in _binomials(k, order)}
        return TruncatedSeries.build(coeffs, trunc_var="z", order=order)
    raise ValueError(f"unknown orientation {orientation!r}")


def _binomials(k: int, count: int):
    """``(j, C(k, j))`` for j below ``count`` and an integer k, by the
    recurrence ``C(k, j+1) = C(k, j) (k-j) / (j+1)``, whose division is exact."""
    c = 1
    for j in range(count):
        yield j, c
        c = c * (k - j) // (j + 1)


# ---------------------------------------------------------------------------
# Two-variable distributions in decomposed form
# ---------------------------------------------------------------------------


class TwoVarDistribution(LinearCombination):
    """Delta ladder plus finite bivariate Laurent part.

    ``singular[j] = c_j`` encodes ``c_j(w) * d_w^j delta(z,w) / j!``;
    ``regular[(m, n)]`` is the coefficient of ``z^m w^n``.
    """

    __slots__ = ("singular", "regular")
    _parts = ("singular", "regular")

    def __init__(self, singular=None, regular=None):
        self.singular = self._nonzero(singular, key=_ladder_index)
        self.regular = self._nonzero(regular, key=lambda key: (int(key[0]), int(key[1])))

    @classmethod
    def zero(cls) -> "TwoVarDistribution":
        return cls()

    def __str__(self):
        parts = []
        for j in sorted(self.singular):
            c = self.singular[j]
            head = "delta" if j == 0 else f"d_w^{j} delta/{j}!"
            parts.append(f"({c}) {head}")
        for (m, n) in sorted(self.regular):
            parts.append(f"({self.regular[(m, n)]})*z^{m}*w^{n}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__

    def to_json(self):
        return {
            "singular": [
                {"j": j, "coeff": self.singular[j].to_json()}
                for j in sorted(self.singular)
            ],
            "regular": [
                {"z": m, "w": n, "coeff": str(self.regular[(m, n)])}
                for (m, n) in sorted(self.regular)
            ],
        }


def _ladder_index(j) -> int:
    if j < 0:
        raise ValueError("ladder indices must be non-negative")
    return int(j)


def delta() -> TwoVarDistribution:
    """The formal Dirac distribution ``delta(z, w)``."""
    return TwoVarDistribution(singular={0: OneVarLaurent.unit()})


def delta_ladder(j: int, coeff: OneVarLaurent | None = None) -> TwoVarDistribution:
    """The distribution ``c(w) * d_w^j delta(z,w) / j!``."""
    return TwoVarDistribution(singular={j: coeff or OneVarLaurent.unit()})


def mul_zw_power(a: TwoVarDistribution, m: int) -> TwoVarDistribution:
    """Multiply by ``(z-w)^m`` for m >= 0.

    Ladder entries descend by m and vanish once the ladder bottoms out; the
    regular part is multiplied by the exact expansion of ``(z-w)^m``.
    """
    if m < 0:
        raise ValueError("only non-negative powers of (z-w) are defined here")
    sing = {j - m: c for j, c in a.singular.items() if j - m >= 0}
    # The binomial coefficients cost O(m^2); a local distribution needs none.
    shifts = range(m + 1) if a.regular else ()
    reg = sparse_sum(
        (
            {(ze + i, we + m - i): value for (ze, we), value in a.regular.items()},
            binom(m, i) * sign_power(m - i),
        )
        for i in shifts
    )
    return a._build(sing, reg)


def derive(a: TwoVarDistribution, var: str) -> TwoVarDistribution:
    """Derivative with respect to ``z`` or ``w``.

    On the ladder: ``d_w`` obeys the product rule and raises the index with a
    factor of (j+1); ``d_z`` lowers through ``d_z delta = -d_w delta``.
    """
    if var == "w":
        derived = ((j, c.derive()) for j, c in a.singular.items())
        lowered = {j: c for j, c in derived if not c.is_zero()}
        raised = {j + 1: c.scale(j + 1) for j, c in a.singular.items()}
        reg = {(ze, we - 1): _reduced(value * we) for (ze, we), value in a.regular.items() if we != 0}
        return a._build(sparse_sum(((lowered, 1), (raised, 1))), reg)
    if var == "z":
        # d_z (c_j d_w^j delta / j!) = -(j+1) c_j d_w^(j+1) delta / (j+1)!
        sing = {j + 1: c.scale(-(j + 1)) for j, c in a.singular.items()}
        reg = {(ze - 1, we): _reduced(value * ze) for (ze, we), value in a.regular.items() if ze != 0}
        return a._build(sing, reg)
    raise ValueError(f"unknown variable {var!r}")


def residue_z(a: TwoVarDistribution) -> OneVarLaurent:
    """``Res_z`` of the distribution, a one-variable object in w."""
    out = a.singular.get(0, OneVarLaurent.zero())
    return out.add(OneVarLaurent({we: v for (ze, we), v in a.regular.items() if ze == -1}))


def mul_one_var(a: TwoVarDistribution, f: OneVarLaurent, var: str) -> TwoVarDistribution:
    """Multiply by a one-variable Laurent polynomial ``f`` in ``z`` or ``w``.

    Multiplication by ``f(z)`` uses ``f(z) delta = f(w) delta`` generalized to
    the ladder: ``f(z) c_j d^j delta/j! = sum_i c_j (d^i f/i!) d^(j-i) delta/(j-i)!``.
    """
    if var == "w":
        sing = {j: c.mul(f) for j, c in a.singular.items()}
        sing = {j: c for j, c in sing.items() if not c.is_zero()}
        reg = sparse_sum(
            ({(ze, we + exp): value for (ze, we), value in a.regular.items()}, coeff)
            for exp, coeff in f.coeffs.items()
        )
        return a._build(sing, reg)
    if var == "z":
        terms = []
        for j, c in a.singular.items():
            df = f
            for i in range(j + 1):
                if i > 0:
                    df = df.derive().scale(Fraction(1, i))
                contribution = c.mul(df)
                if not contribution.is_zero():
                    terms.append(({j - i: contribution}, 1))
        reg = sparse_sum(
            ({(ze + exp, we): value for (ze, we), value in a.regular.items()}, coeff)
            for exp, coeff in f.coeffs.items()
        )
        return a._build(sparse_sum(terms), reg)
    raise ValueError(f"unknown variable {var!r}")


def swap_zw(a: TwoVarDistribution) -> TwoVarDistribution:
    """The distribution ``a(w, z)``.

    Uses ``delta(w,z) = delta(z,w)`` and ``d_z^j delta = (-d_w)^j delta``, so a
    ladder term ``c_j(w) d_w^j delta/j!`` becomes ``(-1)^j c_j(z) d_w^j delta/j!``
    with the one-variable factor re-expanded through the z-multiplication rule.
    """
    out = a._build({}, {(n, m): v for (m, n), v in a.regular.items()})
    return out.combine(
        (mul_one_var(delta_ladder(j), c, "z"), sign_power(j))
        for j, c in a.singular.items()
    )


def fourier_one(f: OneVarLaurent) -> BracketPoly:
    """``Res_z e^(lambda z) f(z)``: the coefficient of ``lambda^n / n!`` is the
    coefficient of ``z^(-1-n)`` in f.  Finite because f has finite support."""
    return BracketPoly(
        ("lambda",),
        {
            (-1 - exp,): value * Fraction(1, factorial(-1 - exp))
            for exp, value in f.coeffs.items()
            if exp <= -1
        },
    )


def fourier_two(a: TwoVarDistribution, order: int | None = None) -> BracketPoly:
    """``Res_z e^(lambda (z-w)) a(z,w)`` as a polynomial in lambda with
    one-variable coefficients.

    Exact for local and weakly local inputs.  A regular part with negative
    z-exponents produces an infinite lambda series; ``order`` must then be
    given and the result is truncated below that lambda degree.
    """
    ladder = {(j,): c.scale(Fraction(1, factorial(j))) for j, c in a.singular.items()}
    negative = [key for key in a.regular if key[0] < 0]
    if negative and order is None:
        raise NonLocalError(
            "regular part has negative z-exponents; pass an explicit lambda "
            f"truncation order (offending monomials: {sorted(negative)})"
        )
    terms = [(ladder, 1)]
    for (ze, we), value in a.regular.items():
        if ze >= 0:
            continue
        i = -1 - ze  # power of (z-w) needed to reach z^(-1)
        series = {}
        for k in range(i, order):
            coeff = Fraction(binom(k, i) * sign_power(k - i), factorial(k))
            series[(k,)] = OneVarLaurent.monomial(k - i + we, value * coeff)
        terms.append((series, 1))
    return BracketPoly(("lambda",), sparse_sum(terms))


def decompose(a: TwoVarDistribution) -> list:
    """Ladder coefficients ``(j, c_j)`` with ``c_j = Res_z (z-w)^j a``.

    Defined for local distributions only; a nonzero regular part is reported
    with its offending monomials.
    """
    if a.regular:
        raise NonLocalError(
            f"distribution is not local; regular monomials {sorted(a.regular)}"
        )
    return sorted(a.singular.items())


@dataclass(frozen=True)
class LocalityResult:
    kind: str  # "local" | "weakly_local" | "non_local"
    order: int | None = None  # annihilating power of (z-w) when local

    def __str__(self):
        if self.kind == "local":
            return f"local({self.order})"
        return self.kind


def locality_test(a: TwoVarDistribution) -> LocalityResult:
    """Classify: local (with annihilation order), weakly local (regular part
    holomorphic in z), or non-local."""
    if not a.regular:
        n = 1 + max(a.singular) if a.singular else 0
        return LocalityResult("local", n)
    if all(ze >= 0 for (ze, _) in a.regular):
        return LocalityResult("weakly_local")
    return LocalityResult("non_local")
