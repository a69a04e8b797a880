"""Fourier-mode view of a conformal algebra presentation.

Modes are linear symbols ``g_(n)`` (shifted indexing) or ``g_n`` (weight
indexing, requiring declared weights); commutators expand through the
pairwise formula ``[a_(m), b_(n)] = sum_j C(m, j) (a_(j) b)_(m+n-j)`` and the
normalization rules ``(d^k g)_(n) = (-1)^k C(n,k) k! g_(n-k)`` and
``C_(n) = delta_(n,-1) C``.

Indices are scalars, so they may be symbolic polynomials in named parameters;
a Kronecker delta on a symbolic index that is not identically zero is treated
as vanishing (the generic-index regime).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .lie_conformal import AlgebraPresentation, ConformalElement, VacalcError
from .scalar import LinearCombination, Scalar, ScalarLike, binom, factorial

SHIFTED = "shifted"
WEIGHT = "weight"


@dataclass(frozen=True)
class ModeSymbol:
    gen: str
    index: Scalar
    indexing: str = SHIFTED
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Symbols key the commutator tables of sweeps; hashing the index
        # builds a frozenset of its terms, so it is done once per symbol.
        object.__setattr__(self, "_hash", hash((self.gen, self.index, self.indexing)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # The hash depends on the interpreter's string-hash seed: recompute it.
        return ModeSymbol, (self.gen, self.index, self.indexing)

    def __str__(self):
        text = str(self.index).replace(" ", "")
        if self.indexing == SHIFTED:
            return f"{self.gen}_({text})"
        return f"{self.gen}_{{{text}}}" if len(text) > 1 else f"{self.gen}_{text}"


def mode(gen: str, index: ScalarLike, indexing: str = SHIFTED) -> ModeSymbol:
    return ModeSymbol(gen, Scalar.coerce(index), indexing)


def default_indexing(alg: AlgebraPresentation) -> str:
    """Weight indexing when every generator declares a weight, else shifted."""
    return WEIGHT if all(g.weight is not None for g in alg.generators) else SHIFTED


class ModeExpression(LinearCombination):
    """Finite linear combination of mode symbols plus central scalars."""

    __slots__ = ("terms", "central")
    _parts = ("terms", "central")

    def __init__(self, terms=None, central=None):
        self.terms = self._nonzero(terms)
        self.central = self._nonzero(central)

    @classmethod
    def zero(cls) -> "ModeExpression":
        return cls()

    def _heads(self):
        for sym in sorted(self.terms, key=lambda s: (s.gen, str(s.index))):
            yield str(sym), self.terms[sym]
        for cid in sorted(self.central):
            yield cid, self.central[cid]


def _kron_delta(x: Scalar) -> int:
    """Kronecker delta of an exact index expression.

    Identically zero gives 1.  Any other polynomial gives 0: for constants
    this is exact; for symbolic indices it is the generic-index value (the
    coincident case is recovered by substituting the slice explicitly).
    """
    return 1 if x.is_zero() else 0


def _check_weight_index(alg: AlgebraPresentation, gen: str, index: Scalar):
    delta = alg.weight(gen)
    if delta is None:
        raise VacalcError(
            f"weight indexing needs a declared weight for {gen!r}"
        )
    if index.is_constant():
        if (index.as_rational() + delta) % 1 != 0:
            raise VacalcError(
                f"index {index} of {gen!r} is incompatible with weight {delta}: "
                "index + weight must be an integer"
            )


def normalize_derivative_mode(
    gen: str, k: int, n: ScalarLike, alg: AlgebraPresentation | None = None
) -> ModeExpression:
    """``(d^k g)_(n) = (-1)^k C(n, k) k! g_(n-k)`` in shifted indexing.

    For a torsion central the derivative kills every mode (k >= 1), and at
    k = 0 only the (-1)-mode survives.
    """
    if k < 0:
        raise ValueError("derivative power must be non-negative")
    n = Scalar.coerce(n)
    if alg is not None and alg.is_central(gen):
        if k > 0:
            return ModeExpression.zero()
        return ModeExpression(central={gen: _kron_delta(n + Scalar.from_rational(1))})
    coeff = binom(n, k) * (-1) ** k * factorial(k)
    return ModeExpression(terms={ModeSymbol(gen, n - Scalar.from_rational(k)): coeff})


def _element_mode(
    e: ConformalElement, p: Scalar, alg: AlgebraPresentation, indexing: str
) -> ModeExpression:
    """Mode ``e_(p)`` (shifted index p) of an element, normalized and
    optionally converted to weight indexing."""
    delta = _kron_delta(p + Scalar.from_rational(1))
    out = ModeExpression(
        central={cid: coeff * delta for cid, coeff in e.central.items()}
    ).combine(
        (normalize_derivative_mode(g, k, p, alg), coeff)
        for (g, k), coeff in e.terms.items()
    )
    if indexing == WEIGHT:
        converted = {}
        for sym, value in out.terms.items():
            weight = alg.weight(sym.gen)
            if weight is None:
                raise VacalcError(
                    f"weight indexing needs a declared weight for {sym.gen!r}"
                )
            widx = sym.index - Scalar.from_rational(weight) + Scalar.from_rational(1)
            converted[ModeSymbol(sym.gen, widx, WEIGHT)] = value
        out = out._build(converted, out.central)
    return out


def mode_commutator(
    a: str,
    m: ScalarLike,
    b: str,
    n: ScalarLike,
    alg: AlgebraPresentation,
    indexing: str = SHIFTED,
) -> ModeExpression:
    """``[a_(m), b_(n)] = sum_j C(m, j) (a_(j) b)_(m+n-j)``.

    With weight indexing the inputs are weight indices (``a_m = a_(m+D-1)``)
    and the output is converted back; the graded commutator is the super
    version when both generators are odd.
    """
    if indexing not in (SHIFTED, WEIGHT):
        raise VacalcError(f"unknown indexing {indexing!r}")
    m = Scalar.coerce(m)
    n = Scalar.coerce(n)
    if alg.is_central(a) or alg.is_central(b):
        return ModeExpression.zero()
    if indexing == WEIGHT:
        _check_weight_index(alg, a, m)
        _check_weight_index(alg, b, n)
        ms = m + Scalar.from_rational(alg.weight(a) - 1)
        ns = n + Scalar.from_rational(alg.weight(b) - 1)
    else:
        ms, ns = m, n
    terms = []
    for j, cj in alg.generator_products(a, b):
        coeff = binom(ms, j)
        if isinstance(coeff, Scalar):
            if coeff.is_zero():
                continue
        elif not coeff:
            continue
        p = ms + ns - Scalar.from_rational(j)
        terms.append((_element_mode(cj, p, alg, indexing), coeff))
    return ModeExpression.zero().combine(terms)


def commute(a: ModeSymbol, b: ModeSymbol, alg: AlgebraPresentation) -> ModeExpression:
    if a.indexing != b.indexing:
        raise VacalcError(
            f"indexing mismatch: {a} is {a.indexing}, {b} is {b.indexing}"
        )
    return mode_commutator(a.gen, a.index, b.gen, b.index, alg, a.indexing)
