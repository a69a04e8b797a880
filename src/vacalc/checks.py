"""Axiom checks: skew-symmetry and Jacobi of the lambda-bracket, their
mode-commutator form, and Borcherds' identity, the defining axiom of a vertex
algebra.  Each instance is an :class:`Identity`; a sweep yields them into one
driver, which counts them and keeps the failing ones in a :class:`CheckReport`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product

from .lie_conformal import AlgebraPresentation
from .mode_algebra import SHIFTED, ModeExpression, ModeSymbol, commute, default_indexing, mode
from .poly import BracketPoly, embed_bivariate, substitute_skew, substitute_sum
from .scalar import binom, factorial, sign_power
from .vertex_calc import VertexElement, VertexEngine, engine, state


@dataclass
class Identity:
    """One instance ``lhs == rhs`` of an axiom: ``kind`` names the axiom and
    ``subject`` the instance (generators, modes, indices).  Both sides are
    values of one linear-combination type."""

    kind: str
    subject: tuple
    lhs: object
    rhs: object

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    @property
    def diff(self):
        return self.lhs.sub(self.rhs)

    def __str__(self):
        where = ", ".join(str(s) for s in self.subject)
        return f"{self.kind} at ({where}): {'ok' if self.passed else self.diff}"


@dataclass
class CheckReport:
    """The outcome of a sweep: how many identities it checked, and the
    failing ones in sweep order, one line each."""

    check: str
    algebra: str
    checked: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self):
        status = "ok" if self.passed else "FAIL"
        noun = "identity" if self.checked == 1 else "identities"
        head = f"check {self.check} on {self.algebra}: {status} ({self.checked} {noun})"
        return "\n".join([head] + [f"  {failure}" for failure in self.failures])


def _sweep(check: str):
    """Make a generator of the identities of ``check`` on a presentation into
    the function that counts them and reports the failing ones."""

    def decorate(identities):
        @functools.wraps(identities)
        def run(alg: AlgebraPresentation, *args, **kwargs) -> CheckReport:
            checked, failures = 0, []
            for identity in identities(alg, *args, **kwargs):
                checked += 1
                if not identity.passed:
                    failures.append(identity)
            return CheckReport(check, alg.name, checked, failures)

        return run

    return decorate


# -- the lambda-bracket --------------------------------------------------------


@_sweep("skew")
def check_skew(alg: AlgebraPresentation):
    """Verify ``[b_lambda a] = -p(a,b) * ([a_lambda b] with lambda -> -lambda-d)``
    for every generator pair."""
    eng = engine(alg)
    for a, b in combinations_with_replacement([g.name for g in alg.generators], 2):
        xa, xb = state(alg, a), state(alg, b)
        sign = -alg.parity(a).sign_with(alg.parity(b))
        rhs = substitute_skew(eng.bracket(xa, xb)).scale(sign)
        yield Identity("skew", (b, a), eng.bracket(xb, xa), rhs)


def _nested_bracket(
    eng: VertexEngine, x: VertexElement, inner: BracketPoly, outer_pos: int
) -> BracketPoly:
    """``[x_lambda inner]`` where inner is a polynomial in the other variable;
    outer_pos selects which slot of (lambda, mu) the new bracket variable fills."""
    return BracketPoly.zero(("lambda", "mu")).combine(
        (embed_bivariate(eng.bracket(x, coeff), outer_pos, k), 1)
        for (k,), coeff in inner.coeffs.items()
    )


@_sweep("jacobi")
def check_jacobi(alg: AlgebraPresentation):
    """Verify ``[a_l [b_m c]] = [[a_l b]_(l+m) c] + p(a,b) [b_m [a_l c]]``
    coefficientwise in (lambda, mu) for every generator triple."""
    eng = engine(alg)
    for a, b, c in product([g.name for g in alg.generators], repeat=3):
        xa, xb, xc = state(alg, a), state(alg, b), state(alg, c)
        lhs = _nested_bracket(eng, xa, eng.bracket(xb, xc), 0)
        middle = (
            (substitute_sum(eng.bracket(coeff, xc)).shift_power("lambda", i), 1)
            for (i,), coeff in eng.bracket(xa, xb).coeffs.items()
        )
        sign = alg.parity(a).sign_with(alg.parity(b))
        third = _nested_bracket(eng, xb, eng.bracket(xa, xc), 1)
        rhs = BracketPoly.zero(("lambda", "mu")).combine([*middle, (third, sign)])
        yield Identity("jacobi", (a, b, c), lhs, rhs)


# -- mode commutators ---------------------------------------------------------


def _index_grid(alg: AlgebraPresentation, gen: str, bound: int, indexing: str):
    """Indices in [-bound, bound]: integers when shifted; for weight indexing
    the grid is offset so that index + weight is integral."""
    offset = 0 if indexing == SHIFTED else (-alg.weight(gen)) % 1
    return [k + offset for k in range(-bound, bound + 1) if k + offset <= bound]


@_sweep("mode-jacobi")
def verify_mode_jacobi(
    alg: AlgebraPresentation, index_range: int, indexing: str | None = None
):
    """Graded antisymmetry and Jacobi for all generator triples with indices
    in [-range, range] (on each generator's own integral or half-integral
    grid when weight-indexed).  The commutators of mode symbols are memoized
    for the sweep."""
    if index_range < 1:
        raise ValueError("index range must be at least 1")
    if indexing is None:
        indexing = default_indexing(alg)
    gens = [g.name for g in alg.generators]
    grids = {
        g: [mode(g, i, indexing) for i in _index_grid(alg, g, index_range, indexing)]
        for g in gens
    }
    # One object per symbol: the grids and every memoized commutator hold it,
    # so equal table and sum keys match by identity, not by comparing indices.
    canonical = {x: x for grid in grids.values() for x in grid}
    table: dict = {}

    def comm(x: ModeSymbol, y: ModeSymbol) -> ModeExpression:
        key = (x, y)
        out = table.get(key)
        if out is None:
            out = commute(x, y, alg)
            terms = {canonical.setdefault(s, s): v for s, v in out.terms.items()}
            out = table[key] = out._build(terms, out.central)
        return out

    def bilinear(x: ModeExpression, y: ModeExpression) -> ModeExpression:
        """``comm`` extended bilinearly to expressions; centrals commute."""
        return ModeExpression.zero().combine(
            (comm(sa, sb), va * vb)
            for sa, va in x.terms.items()
            for sb, vb in y.terms.items()
        )

    single = {x: ModeExpression(terms={x: 1}) for grid in grids.values() for x in grid}
    # Subjects name modes as ``gen_index`` with the index as a rational, e.g. ``G_-1/2``.
    label = {x: f"{x.gen}_{x.index.as_rational()}" for x in single}

    for a, b in product(gens, repeat=2):
        sign_ab = alg.parity(a).sign_with(alg.parity(b))
        for x, y in product(grids[a], grids[b]):
            rhs = comm(y, x).scale(-sign_ab)
            yield Identity("antisymmetry", (label[x], label[y]), comm(x, y), rhs)
    for a, b, c in product(gens, repeat=3):
        sign_ab = alg.parity(a).sign_with(alg.parity(b))
        for x, y, z in product(grids[a], grids[b], grids[c]):
            lhs = bilinear(single[x], comm(y, z))
            first = bilinear(comm(x, y), single[z])
            second = bilinear(single[y], comm(x, z))
            rhs = first.combine(((second, sign_ab),))
            yield Identity("jacobi", (label[x], label[y], label[z]), lhs, rhs)


# -- Borcherds identities ------------------------------------------------------


def borcherds_nproducts_check(a: VertexElement, b: VertexElement, n: int) -> Identity:
    """Quasi-symmetry in mode form:
    ``a_(n)b = -p(a,b) (-1)^n sum_j (-T)^j / j! (b_(n+j) a)``."""
    eng = engine(a.alg)
    lhs = eng.nproduct(a, n, b)
    degree = eng.bracket(b, a).degree("lambda")
    jmax = max(0, degree - n, -n - 1)
    sign = -eng.element_parity(a).sign_with(eng.element_parity(b)) * sign_power(n)
    rhs = eng.zero.combine(
        (eng.nproduct(b, n + j, a).translate_power(j), Fraction(sign * (-1) ** j, factorial(j)))
        for j in range(jmax + 1)
    )
    return Identity("borcherds-n-products", (f"n={n}",), lhs, rhs)


class _ProductTable:
    """Whole brackets and n-products of elements, memoized for as long as
    the table lives: one identity, or one generator triple of a sweep.  A
    positive product and a degree read the pair's whole bracket, so the
    sweep's n = 0, 1, 2, ... on one pair evaluate it once."""

    def __init__(self, eng: VertexEngine):
        self.eng = eng
        self._products: dict = {}
        self._brackets: dict = {}
        self._degrees: dict = {}

    def bracket(self, x: VertexElement, y: VertexElement) -> BracketPoly:
        key = (x, y)
        out = self._brackets.get(key)
        if out is None:
            out = self._brackets[key] = self.eng.bracket(x, y)
        return out

    def nproduct(self, x: VertexElement, n: int, y: VertexElement) -> VertexElement:
        key = (x, n, y)
        out = self._products.get(key)
        if out is None:
            if n >= 0:
                value = self.bracket(x, y).coeffs.get((n,))
                out = self.eng.zero if value is None else value.scale(factorial(n))
            else:
                out = self.eng.nproduct(x, n, y)
            self._products[key] = out
        return out

    def degree(self, x: VertexElement, y: VertexElement) -> int:
        key = (x, y)
        out = self._degrees.get(key)
        if out is None:
            out = self._degrees[key] = self.bracket(x, y).degree("lambda")
        return out


def borcherds_identity_check(
    a: VertexElement,
    b: VertexElement,
    c: VertexElement,
    m: int,
    n: int,
    q: int,
) -> Identity:
    """The master identity
    ``sum_i C(m,i) (a_(q+i) b)_(m+n-i) c =
      sum_i (-1)^i C(q,i) ( a_(m+q-i)(b_(n+i) c)
                            - p(a,b) (-1)^q b_(n+q-i)(a_(m+i) c) )``.
    All sums are finite: positive products vanish beyond the bracket degree.
    At q = 0 this is the graded mode-commutator formula.
    """
    table = _ProductTable(engine(a.alg))
    sign_ab = table.eng.element_parity(a).sign_with(table.eng.element_parity(b))
    return _borcherds_identity(table, (a, b, c), sign_ab, m, n, q, (str(a), str(b), str(c)))


def _borcherds_identity(table: _ProductTable, triple, sign_ab, m, n, q, names) -> Identity:
    """The master identity on the states ``triple``, where ``sign_ab`` is
    ``p(a,b)``, with the subject ``names`` followed by m, n and q."""
    a, b, c = triple
    eng = table.eng
    terms = []
    for i in range(max(0, table.degree(a, b) - q) + 1):
        coeff = binom(m, i)
        if not coeff:
            continue
        inner = table.nproduct(a, q + i, b)
        if inner.is_zero():
            continue
        terms.append((table.nproduct(inner, m + n - i, c), coeff))
    lhs = eng.zero.combine(terms)
    if q >= 0:
        imax = q
    else:
        imax = max(0, table.degree(b, c) - n, table.degree(a, c) - m)
    sign_q = sign_power(q) * sign_ab
    terms = []
    for i in range(imax + 1):
        coeff = binom(q, i) * (-1) ** i
        if not coeff:
            continue
        first = table.nproduct(a, m + q - i, table.nproduct(b, n + i, c))
        second = table.nproduct(b, n + q - i, table.nproduct(a, m + i, c))
        terms += [(first, coeff), (second, -sign_q * coeff)]
    rhs = eng.zero.combine(terms)
    subject = (*names, f"m={m}", f"n={n}", f"q={q}")
    return Identity("borcherds-identity", subject, lhs, rhs)


@_sweep("borcherds")
def borcherds_sweep(alg: AlgebraPresentation, index_range: int):
    """The master identity for every generator triple and every m, n, q in
    [-range, range].  The identities of one triple share an n-product table,
    which is dropped before the next triple."""
    if index_range < 1:
        raise ValueError("index range must be at least 1")
    eng = engine(alg)
    states = {g.name: state(alg, g.name) for g in alg.generators}
    span = range(-index_range, index_range + 1)
    for names in product(states, repeat=3):
        triple = tuple(states[name] for name in names)
        table = _ProductTable(eng)
        sign_ab = alg.parity(names[0]).sign_with(alg.parity(names[1]))
        for m, n, q in product(span, repeat=3):
            yield _borcherds_identity(table, triple, sign_ab, m, n, q, names)
