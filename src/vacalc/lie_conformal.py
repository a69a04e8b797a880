"""Presentations of Lie conformal superalgebras and the built-ins.

A presentation declares parity-graded generators, torsion central generators,
and a bracket table on ordered generator pairs, whose values are elements of
the free C[d]-module.  The mirror of each table entry is derived through
skew-symmetry, so the table can never hold two inconsistent copies of the
same pair.  The lambda-bracket of arbitrary elements is evaluated in
:mod:`vacalc.vertex_calc`, which applies sesquilinearity to the table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .poly import BracketPoly, substitute_skew
from .scalar import LinearCombination, Scalar, ScalarLike


class VacalcError(Exception):
    pass


class ParityError(VacalcError):
    pass


class UndeclaredSymbolError(VacalcError):
    pass


class PresentationError(VacalcError):
    pass


class Parity(enum.Enum):
    EVEN = 0
    ODD = 1

    def __add__(self, other: "Parity") -> "Parity":
        return Parity((self.value + other.value) % 2)

    def sign_with(self, other: "Parity") -> int:
        """The Koszul sign p(a, b): -1 iff both arguments are odd."""
        return -1 if self is Parity.ODD and other is Parity.ODD else 1

    def __str__(self):
        return "even" if self is Parity.EVEN else "odd"


# ---------------------------------------------------------------------------
# Elements of the free C[d]-module over a presentation
# ---------------------------------------------------------------------------


class ConformalElement(LinearCombination):
    """Finite sum of ``scalar * d^n(generator)`` plus central multiples."""

    __slots__ = ("terms", "central")
    _parts = ("terms", "central")

    def __init__(self, terms=None, central=None):
        self.terms = self._nonzero(terms, key=_derivative_key)
        self.central = self._nonzero(central)

    @classmethod
    def zero(cls) -> "ConformalElement":
        return cls()

    def translate(self) -> "ConformalElement":
        return self.translate_power(1)

    def translate_power(self, k: int) -> "ConformalElement":
        """Apply d^k: raise derivative powers in place; centrals are torsion
        (d C = 0)."""
        if k < 0:
            raise ValueError("translation power must be non-negative")
        if k == 0:
            return self
        return self._build({(g, n + k): v for (g, n), v in self.terms.items()}, {})

    def _heads(self):
        for key in sorted(self.terms):
            yield atom_text(key), self.terms[key]
        for cid in sorted(self.central):
            yield cid, self.central[cid]


def _derivative_key(key) -> tuple:
    gen, dpow = key
    if dpow < 0:
        raise ValueError("derivative powers must be non-negative")
    return (gen, int(dpow))


def atom_text(atom) -> str:
    """``g``, ``d(g)`` or ``d^k(g)`` for the atom ``(g, k)``."""
    gen, dpow = atom
    if dpow == 0:
        return gen
    if dpow == 1:
        return f"d({gen})"
    return f"d^{dpow}({gen})"


# ---------------------------------------------------------------------------
# Presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorDecl:
    name: str
    parity: Parity = Parity.EVEN
    weight: Fraction | None = None


@dataclass(frozen=True)
class CentralDecl:
    name: str
    parity: Parity = Parity.EVEN
    acts_as: Scalar | None = None  # vertex-layer value; None keeps it symbolic


class AlgebraPresentation:
    """Validated presentation of a Lie conformal superalgebra.

    ``table`` holds the bracket of each ordered generator pair (i <= j in
    declaration order) as a polynomial in ``lambda`` with element-valued
    coefficients; mirrors are always derived via skew-symmetry.
    ``bilinear_form`` is the form a current or free-fermion algebra was
    built from (None otherwise); it is not part of equality.
    """

    def __init__(
        self,
        name: str,
        parameters: Iterable[str] = (),
        generators: Iterable[GeneratorDecl] = (),
        centrals: Iterable[CentralDecl] = (),
        table: Mapping | None = None,
        bilinear_form: Mapping | None = None,
    ):
        self.name = name
        self.parameters = tuple(parameters)
        self.generators = tuple(generators)
        self.centrals = tuple(centrals)
        self._gen_index = {g.name: i for i, g in enumerate(self.generators)}
        self._central_index = {c.name: i for i, c in enumerate(self.centrals)}
        if len(self._gen_index) != len(self.generators):
            raise PresentationError("duplicate generator names")
        overlap = set(self._gen_index) & set(self._central_index)
        if overlap or len(self._central_index) != len(self.centrals):
            raise PresentationError("duplicate or clashing central names")
        self.table = {}
        for (a, b), poly in dict(table or {}).items():
            self._check_pair(a, b)
            if not poly.is_zero():
                self.table[(a, b)] = poly
        self._validate_table()
        self.bilinear_form = bilinear_form
        self._vertex_engine = None  # created by vertex_calc.engine on first use

    # -- declaration lookups -------------------------------------------------

    def is_generator(self, name: str) -> bool:
        return name in self._gen_index

    def is_central(self, name: str) -> bool:
        return name in self._central_index

    def index(self, name: str) -> int:
        try:
            return self._gen_index[name]
        except KeyError:
            raise UndeclaredSymbolError(f"undeclared generator {name!r}") from None

    def parity(self, name: str) -> Parity:
        if name in self._gen_index:
            return self.generators[self._gen_index[name]].parity
        if name in self._central_index:
            return self.centrals[self._central_index[name]].parity
        raise UndeclaredSymbolError(f"undeclared symbol {name!r}")

    def weight(self, name: str) -> Fraction | None:
        if name in self._gen_index:
            return self.generators[self._gen_index[name]].weight
        if name in self._central_index:
            return Fraction(0)
        raise UndeclaredSymbolError(f"undeclared symbol {name!r}")

    def acts_as(self, name: str) -> Scalar | None:
        return self.centrals[self._central_index[name]].acts_as

    # -- element constructors --------------------------------------------------

    def gen(self, name: str, dpow: int = 0) -> ConformalElement:
        if self.is_generator(name):
            return ConformalElement(terms={(name, dpow): 1})
        if self.is_central(name):
            if dpow > 0:
                return ConformalElement.zero()
            return ConformalElement(central={name: 1})
        raise UndeclaredSymbolError(f"undeclared symbol {name!r}")

    def element_parity(self, x: ConformalElement) -> Parity:
        """Parity of a homogeneous element; mixed parity is rejected."""
        parities = {self.parity(g) for (g, _) in x.terms}
        parities |= {self.parity(c) for c in x.central}
        if len(parities) > 1:
            raise ParityError(f"element {x} mixes parities")
        return parities.pop() if parities else Parity.EVEN

    # -- validation -------------------------------------------------------------

    def _check_pair(self, a: str, b: str):
        for name in (a, b):
            if not self.is_generator(name):
                if self.is_central(name):
                    raise PresentationError(
                        f"central {name!r} cannot carry a table entry"
                    )
                raise UndeclaredSymbolError(f"undeclared generator {name!r}")
        if self.index(a) > self.index(b):
            raise PresentationError(
                f"table pair ({a},{b}) must be stored in declaration order"
            )

    def _check_element_symbols(self, x: ConformalElement, context: str):
        for (g, _) in x.terms:
            if not self.is_generator(g):
                raise UndeclaredSymbolError(
                    f"undeclared generator {g!r} in {context}"
                )
        for c in x.central:
            if not self.is_central(c):
                raise UndeclaredSymbolError(f"undeclared central {c!r} in {context}")

    def _validate_table(self):
        for (a, b), poly in self.table.items():
            expected = self.parity(a) + self.parity(b)
            for exps, element in poly.coeffs.items():
                self._check_element_symbols(element, f"bracket [{a},{b}]")
                if self.element_parity(element) is not expected and not element.is_zero():
                    raise PresentationError(
                        f"bracket [{a},{b}] coefficient {element} has parity "
                        f"inconsistent with p({a})+p({b})"
                    )

    def pair_bracket(self, a: str, b: str) -> BracketPoly:
        """Bracket of two declared symbols, deriving mirrors via skew-symmetry."""
        if self.is_central(a) or self.is_central(b):
            return BracketPoly.zero(("lambda",))
        if self.index(a) <= self.index(b):
            return self.table.get((a, b), BracketPoly.zero(("lambda",)))
        stored = self.table.get((b, a))
        if stored is None:
            return BracketPoly.zero(("lambda",))
        sign = -self.parity(a).sign_with(self.parity(b))
        return substitute_skew(stored).scale(sign)

    def __eq__(self, other):
        if not isinstance(other, AlgebraPresentation):
            return NotImplemented
        return (
            self.name == other.name
            and self.parameters == other.parameters
            and self.generators == other.generators
            and self.centrals == other.centrals
            and self.table == other.table
        )

    def __repr__(self):
        return f"AlgebraPresentation({self.name!r})"


# ---------------------------------------------------------------------------
# Built-in presentations
# ---------------------------------------------------------------------------


def virasoro(central_charge: str = "c") -> AlgebraPresentation:
    """One even generator L of weight 2 with bracket (d + 2 lambda) L + lambda^3/12 C."""
    L = ConformalElement(terms={("L", 0): 1})
    dL = ConformalElement(terms={("L", 1): 1})
    C = ConformalElement(central={"C": Fraction(1, 12)})
    table = {
        ("L", "L"): BracketPoly(
            ("lambda",), {(0,): dL, (1,): L.scale(2), (3,): C}
        )
    }
    return AlgebraPresentation(
        name="virasoro",
        parameters=(central_charge,),
        generators=(GeneratorDecl("L", Parity.EVEN, Fraction(2)),),
        centrals=(CentralDecl("C", Parity.EVEN, Scalar.param(central_charge)),),
        table=table,
    )


def neveu_schwarz(central_charge: str = "c") -> AlgebraPresentation:
    """Virasoro plus an odd weight-3/2 generator G with [G_l G] = L + lambda^2/6 C."""
    L = ConformalElement(terms={("L", 0): 1})
    dL = ConformalElement(terms={("L", 1): 1})
    G = ConformalElement(terms={("G", 0): 1})
    dG = ConformalElement(terms={("G", 1): 1})
    table = {
        ("L", "L"): BracketPoly(
            ("lambda",),
            {(0,): dL, (1,): L.scale(2), (3,): ConformalElement(central={"C": Fraction(1, 12)})},
        ),
        ("L", "G"): BracketPoly(
            ("lambda",), {(0,): dG, (1,): G.scale(Fraction(3, 2))}
        ),
        ("G", "G"): BracketPoly(
            ("lambda",),
            {(0,): L, (2,): ConformalElement(central={"C": Fraction(1, 6)})},
        ),
    }
    return AlgebraPresentation(
        name="neveu_schwarz",
        parameters=(central_charge,),
        generators=(
            GeneratorDecl("L", Parity.EVEN, Fraction(2)),
            GeneratorDecl("G", Parity.ODD, Fraction(3, 2)),
        ),
        centrals=(CentralDecl("C", Parity.EVEN, Scalar.param(central_charge)),),
        table=table,
    )


def _check_form(basis, form, antisupersymmetric: bool):
    """Validate (anti)supersymmetry and parity support of a bilinear form."""
    names = [g.name for g in basis]
    parity = {g.name: g.parity for g in basis}
    for a in names:
        for b in names:
            val = form.get((a, b), Scalar.zero())
            val = Scalar.coerce(val)
            mirror = Scalar.coerce(form.get((b, a), Scalar.zero()))
            if parity[a] is not parity[b]:
                if not val.is_zero():
                    raise PresentationError(
                        f"form must vanish on mixed parities, got ({a},{b}) = {val}"
                    )
                continue
            sign = -1 if parity[a] is Parity.ODD else 1
            if antisupersymmetric:
                sign = -sign
            if val != mirror * sign:
                kind = "antisupersymmetric" if antisupersymmetric else "supersymmetric"
                raise PresentationError(
                    f"form is not {kind}: ({a},{b}) = {val} vs ({b},{a}) = {mirror}"
                )


def current_algebra(
    basis,
    brackets,
    form,
    name: str = "current",
    level: str = "k",
    central: str = "K",
    validate: bool = True,
) -> AlgebraPresentation:
    """Current algebra over a finite Lie superalgebra with invariant form:
    ``[a_l b] = [a, b] + (a|b) K lambda``.

    ``basis`` lists GeneratorDecl (weights default to 1); ``brackets`` maps
    ordered pairs (i <= j in basis order) to element coefficient dicts;
    ``form`` maps pairs to scalars (supersymmetric).
    """
    basis = tuple(
        GeneratorDecl(g.name, g.parity, g.weight if g.weight is not None else Fraction(1))
        for g in basis
    )
    _check_form(basis, form, antisupersymmetric=False)
    index = {g.name: i for i, g in enumerate(basis)}
    table = {}
    for i, gi in enumerate(basis):
        for gj in basis[i:]:
            key = (gi.name, gj.name)
            entry = {}
            struct = brackets.get(key, {})
            lie = ConformalElement(
                terms={(g, 0): Scalar.coerce(v) for g, v in struct.items()}
            )
            if not lie.is_zero():
                entry[(0,)] = lie
            pairing = Scalar.coerce(form.get(key, Scalar.zero()))
            if not pairing.is_zero():
                entry[(1,)] = ConformalElement(central={central: pairing})
            if entry:
                table[key] = BracketPoly(("lambda",), entry)
    for key in brackets:
        if key not in {(a.name, b.name) for i, a in enumerate(basis) for b in basis[i:]}:
            raise PresentationError(f"bracket pair {key} not in basis order")
    alg = AlgebraPresentation(
        name=name,
        parameters=(level,),
        generators=basis,
        centrals=(CentralDecl(central, Parity.EVEN, Scalar.param(level)),),
        table=table,
        bilinear_form={k: Scalar.coerce(v) for k, v in form.items()},
    )
    if validate:
        _require_axioms(alg)
    return alg


def free_boson(
    basis=None,
    form=None,
    name: str = "free_boson",
    level: str = "k",
) -> AlgebraPresentation:
    """Abelian current algebra: ``[a_l b] = (a|b) K lambda``.  Only a
    caller's ``basis`` and ``form`` are validated; the default table is
    proven by the test suite."""
    validate = basis is not None
    if basis is None:
        basis = (GeneratorDecl("a1", Parity.EVEN), GeneratorDecl("a2", Parity.EVEN))
        form = {("a1", "a1"): 1, ("a2", "a2"): 1}
    form = {k: Scalar.coerce(v) for k, v in (form or {}).items()}
    return current_algebra(basis, {}, form, name=name, level=level, validate=validate)


def free_fermion(
    basis=None,
    form=None,
    name: str = "free_fermion",
    central: str = "K",
    acts_as: ScalarLike | None = 1,
) -> AlgebraPresentation:
    """Clifford-type conformal algebra: ``[a_l b] = <a, b> K`` with an
    antisupersymmetric form.  Generators default to weight 1/2; the central
    acts as the identity in the vertex layer unless ``acts_as=None``.  Only a
    caller's ``basis`` and ``form`` are validated; the default table is
    proven by the test suite.
    """
    validate = basis is not None
    if basis is None:
        basis = (
            GeneratorDecl("psi1", Parity.ODD, Fraction(1, 2)),
            GeneratorDecl("psi2", Parity.ODD, Fraction(1, 2)),
        )
        form = {("psi1", "psi1"): 1, ("psi2", "psi2"): 1}
    basis = tuple(
        GeneratorDecl(
            g.name, g.parity, g.weight if g.weight is not None else Fraction(1, 2)
        )
        for g in basis
    )
    form = {k: Scalar.coerce(v) for k, v in (form or {}).items()}
    _check_form(basis, form, antisupersymmetric=True)
    table = {}
    for i, gi in enumerate(basis):
        for gj in basis[i:]:
            pairing = form.get((gi.name, gj.name), Scalar.zero())
            if not pairing.is_zero():
                table[(gi.name, gj.name)] = BracketPoly(
                    ("lambda",),
                    {(0,): ConformalElement(central={central: pairing})},
                )
    pin = Scalar.coerce(acts_as) if acts_as is not None else None
    alg = AlgebraPresentation(
        name=name,
        parameters=(),
        generators=basis,
        centrals=(CentralDecl(central, Parity.EVEN, pin),),
        table=table,
        bilinear_form=dict(form),
    )
    if validate:
        _require_axioms(alg)
    return alg


def uncharged_superfermions(even: int, odd: int, name=None) -> AlgebraPresentation:
    """Free superfermions on a basis with ``even`` even and ``odd`` odd
    vectors: the even part pairs symplectically (so ``even`` must itself be
    even), the odd part carries the identity form.  Superdimension even-odd.
    """
    if even % 2:
        raise PresentationError(
            "a nondegenerate antisupersymmetric form needs an even number of "
            "even basis vectors"
        )
    basis = []
    form = {}
    for i in range(1, even + 1):
        basis.append(GeneratorDecl(f"b{i}", Parity.EVEN, Fraction(1, 2)))
    for i in range(0, even, 2):
        x, y = f"b{i + 1}", f"b{i + 2}"
        form[(x, y)] = Scalar.one()
        form[(y, x)] = Scalar.from_rational(-1)
    for i in range(1, odd + 1):
        basis.append(GeneratorDecl(f"psi{i}", Parity.ODD, Fraction(1, 2)))
        form[(f"psi{i}", f"psi{i}")] = Scalar.one()
    return free_fermion(
        tuple(basis), form, name=name or f"superfermions_{even}_{odd}"
    )


def sl2_current(level: str = "k") -> AlgebraPresentation:
    """Current algebra over sl2 with the trace form of the fundamental
    representation: (e|f) = 1, (h|h) = 2.  The table does not depend on
    ``level`` and is proven by the test suite, so it is not validated."""
    basis = (
        GeneratorDecl("e", Parity.EVEN, Fraction(1)),
        GeneratorDecl("f", Parity.EVEN, Fraction(1)),
        GeneratorDecl("h", Parity.EVEN, Fraction(1)),
    )
    brackets = {
        ("e", "f"): {"h": 1},
        ("e", "h"): {"e": -2},
        ("f", "h"): {"f": 2},
    }
    form = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}
    return current_algebra(
        basis, brackets, form, name="current_sl2", level=level, validate=False
    )


def _require_axioms(alg: AlgebraPresentation):
    from .checks import check_jacobi, check_skew  # checks builds on this module

    for check, axiom in ((check_skew, "skew-symmetry"), (check_jacobi, "the Jacobi identity")):
        report = check(alg)
        if not report.passed:
            raise PresentationError(f"presentation fails {axiom}:\n{report}")


BUILTIN_NAMES = ("virasoro", "neveu_schwarz", "free_fermion", "free_boson", "current_sl2")


def builtin(name: str) -> AlgebraPresentation:
    """Built-in presentations by name (default instances for the CLI).  The
    test suite proves their constant tables skew-symmetric and Jacobi once,
    so no call validates them again."""
    factories = {
        "virasoro": virasoro,
        "neveu_schwarz": neveu_schwarz,
        "free_fermion": free_fermion,
        "free_boson": free_boson,
        "current_sl2": sl2_current,
    }
    try:
        return factories[name]()
    except KeyError:
        raise VacalcError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        ) from None
