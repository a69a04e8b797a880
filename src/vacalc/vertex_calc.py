"""Vertex-algebra layer over a conformal presentation.

States are linear combinations of canonical normally ordered words over
derivatives of the generators, plus a vacuum multiple and symbolic central
multiples.  Canonical words are right-nested with a fixed atom order
(declaration index, then decreasing derivative power); reordering uses the
mode commutator ``[a_(-1), b_(-1)] = sum_j (-1)^j (a_(j) b)_(-2-j)`` and
repeated equal odd atoms resolve through the same identity, so equality of
states is decidable.  A central pinned by ``acts`` stays a symbol; only
:meth:`VertexElement.folded` reads it as that scalar times the vacuum, for
normal products, equality and the OPE and primary renderings.

The bracket recursion is the only evaluator of the lambda-bracket.  A
derivative on the left factor pulls out ``(-lambda)``; a derivative on a
single right atom expands as ``(lambda + T)``; two underived atoms read the
table.  A composite right operand peels its head atom through the
non-abelian Wick formula (with the formal integral term); a composite left
operand against a single atom flips through quasi-symmetry
``[x_lambda y] = -p(x,y) [y_(-lambda-T) x]``.  Every path terminates because
bracket tables are linear in the generators.

The recursion takes a degree bound ``top`` and then builds the bracket only
through ``lambda^top``; a positive n-th product asks for ``top = n``.  The
left rule asks ``top - d``, the right rule keeps ``lambda^k`` for ``k <= top``,
the quasi-symmetry flip substitutes into the whole inner bracket and keeps
``lambda^i`` for ``i <= top``, and the Wick integral of the ``lambda^i``
coefficient, which starts at ``lambda^(i+1)``, asks its integrand through
``mu^(top-1-i)``.  One memo per word pair records the degree through which
its polynomial is exact; a second request beyond that degree computes the
whole bracket, so repeated n-products of one pair cost one evaluation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .lie_conformal import (
    AlgebraPresentation,
    ConformalElement,
    Parity,
    ParityError,
    UndeclaredSymbolError,
    VacalcError,
    atom_text,
)
from .poly import BracketPoly, integrate_zero_to_lambda, substitute_skew
from .scalar import LinearCombination, Scalar, binom, factorial, sign_power

DEFAULT_MAX_LAMBDA_DEGREE = 64
_PARITIES = (Parity.EVEN, Parity.ODD)


class EngineLimitError(VacalcError):
    """The lambda-degree guard tripped (inconsistent table suspected)."""


class NormalWord:
    """Right-nested normally ordered word: atoms ``(generator, d-power)``."""

    __slots__ = ("atoms", "_hash")

    def __init__(self, atoms: Iterable):
        atoms = tuple((g, int(d)) for g, d in atoms)
        if not atoms:
            raise ValueError("normal words are nonempty; use the vacuum instead")
        if any(d < 0 for _, d in atoms):
            raise ValueError("derivative powers must be non-negative")
        self.atoms = atoms
        # Words key every engine cache and every state, so hash them once.
        self._hash = hash(atoms)

    def __reduce__(self):
        # The hash depends on the interpreter's string-hash seed: recompute it.
        return NormalWord, (self.atoms,)

    def __len__(self):
        return len(self.atoms)

    def __eq__(self, other):
        if not isinstance(other, NormalWord):
            return NotImplemented
        return self.atoms == other.atoms

    def __hash__(self):
        return self._hash

    def __str__(self):
        return _render_atoms(self.atoms)

    __repr__ = __str__


def _render_atoms(atoms) -> str:
    if len(atoms) == 1:
        return atom_text(atoms[0])
    return f":{atom_text(atoms[0])} {_render_atoms(atoms[1:])}:"


class VertexElement(LinearCombination):
    """State of the vertex algebra attached to a presentation: canonical
    words, a vacuum multiple and central multiples.  The vacuum coefficient
    is held as the coefficient of the empty word ``()``.  Equality, the hash
    and ``is_zero`` read each pinned central as its scalar."""

    __slots__ = ("alg", "words", "_vacuum", "centrals", "_folded")
    _parts = ("words", "_vacuum", "centrals")
    _context = "alg"

    def __init__(self, alg: AlgebraPresentation, words=None, vacuum=0, centrals=None):
        self.alg = alg
        self.words = self._nonzero(words, key=self._word)
        self._vacuum = self._nonzero({(): vacuum})
        self.centrals = self._nonzero(centrals, key=self._central)

    def _word(self, word) -> NormalWord:
        if not isinstance(word, NormalWord):
            word = NormalWord(word)
        for g, _ in word.atoms:
            if not self.alg.is_generator(g):
                raise UndeclaredSymbolError(f"undeclared generator {g!r} in word {word}")
        return word

    def _central(self, cid: str) -> str:
        if not self.alg.is_central(cid):
            raise UndeclaredSymbolError(f"undeclared central {cid!r}")
        return cid

    @property
    def vacuum(self) -> Scalar:
        return Scalar.coerce(self._vacuum.get((), 0))

    def _require_same(self, other: "VertexElement"):
        if self.alg is not other.alg:
            raise VacalcError("cannot combine states over different presentations")

    def folded(self) -> "VertexElement":
        """This state with each pinned central ``C`` read as ``acts(C)*vac``;
        ``self`` when it holds no central.  Memoized, like the hash."""
        if not self.centrals:
            return self
        try:
            return self._folded
        except AttributeError:
            pass
        vac, unpinned = self._vacuum.get((), 0), {}
        for cid, value in self.centrals.items():
            acts = self.alg.acts_as(cid)
            if acts is None:
                unpinned[cid] = value
            else:
                vac = vac + value * acts
        self._folded = self._build(self.words, self._nonzero({(): vac}), unpinned)
        return self._folded

    def is_zero(self) -> bool:
        if self.words:
            return False
        x = self.folded()
        return not (x._vacuum or x.centrals)

    def __eq__(self, other):
        if type(other) is VertexElement and (self.centrals or other.centrals):
            return LinearCombination.__eq__(self.folded(), other.folded())
        return LinearCombination.__eq__(self, other)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = LinearCombination.__hash__(self.folded())
            return self._hash

    def translate(self) -> "VertexElement":
        return self.translate_power(1)

    def translate_power(self, k: int) -> "VertexElement":
        """``T^k``, word by word from the engine's per-word memo: Leibniz on
        words, zero on the vacuum and on centrals."""
        if k < 0:
            raise ValueError("translation power must be non-negative")
        if k == 0:
            return self
        eng = engine(self.alg)
        return eng.zero.combine(
            (eng.translate_word_power(word, k), value) for word, value in self.words.items()
        )

    def _heads(self):
        for word in sorted(self.words, key=lambda w: (len(w), w.atoms)):
            yield str(word), self.words[word]
        if self._vacuum:
            yield "vac", self._vacuum[()]
        for cid in sorted(self.centrals):
            yield cid, self.centrals[cid]


# -- element constructors ------------------------------------------------------


def zero(alg: AlgebraPresentation) -> VertexElement:
    return VertexElement(alg)


def vacuum(alg: AlgebraPresentation) -> VertexElement:
    return VertexElement(alg, vacuum=1)


def state(alg: AlgebraPresentation, name: str, dpow: int = 0) -> VertexElement:
    """The state of a declared generator or central (``d`` kills a central)."""
    return from_conformal(alg, alg.gen(name, dpow))


def from_conformal(alg: AlgebraPresentation, e: ConformalElement) -> VertexElement:
    """Embed a C[d]-module element: one-atom words and symbolic centrals."""
    words = {NormalWord((atom,)): v for atom, v in e.terms.items()}
    return VertexElement(alg, words=words, centrals=e.central)


def normal_word(alg: AlgebraPresentation, atoms: Iterable) -> VertexElement:
    """Right-nested normally ordered product of derivative atoms, in
    canonical form (reordering corrections included)."""
    return engine(alg).word_element(atoms)


# ---------------------------------------------------------------------------
# The evaluation engine
# ---------------------------------------------------------------------------


class VertexEngine:
    def __init__(self, alg: AlgebraPresentation, max_lambda_degree=DEFAULT_MAX_LAMBDA_DEGREE):
        self.alg = alg
        self.max_lambda_degree = max_lambda_degree
        self._odd = frozenset(g.name for g in alg.generators if g.parity is Parity.ODD)
        # Memos that live as long as the presentation; ``clear`` empties them.
        self._bracket_cache: dict = {}  # (W, U) -> ([W_lambda U] through lambda^t, t, degree)
        self._insert_cache: dict = {}  # (atom, U) -> :atom U:
        self._product_cache: dict = {}  # (W, U) -> :W U: for a composite W
        self._power_cache: dict = {}  # (W, k) -> T^k(W); a single atom only at k = 1
        self._pair_products: dict = {}  # (a, b) -> generator_products(a, b)
        self.zero = VertexElement(alg)

    def clear(self):
        """Empty every memo of the presentation."""
        for cache in (
            self._bracket_cache,
            self._insert_cache,
            self._product_cache,
            self._power_cache,
            self._pair_products,
        ):
            cache.clear()

    # -- structural helpers ------------------------------------------------------

    def atom_key(self, atom):
        g, d = atom
        return (self.alg.index(g), -d)

    def atom_parity(self, atom) -> Parity:
        return _PARITIES[atom[0] in self._odd]

    def word_parity(self, word: NormalWord) -> Parity:
        odd, odd_gens = 0, self._odd
        for g, _ in word.atoms:
            odd ^= g in odd_gens
        return _PARITIES[odd]

    def element_parity(self, x: VertexElement) -> Parity:
        parities = {self.word_parity(w) for w in x.words}
        if x._vacuum:
            parities.add(Parity.EVEN)
        for cid in x.centrals:
            parities.add(self.alg.parity(cid))
        if len(parities) > 1:
            raise ParityError(f"state {x} mixes parities")
        return parities.pop() if parities else Parity.EVEN

    # -- canonical words ----------------------------------------------------------

    def word_element(self, atoms) -> VertexElement:
        """Canonicalize an atom sequence read as a right-nested word."""
        atoms = [(g, int(d)) for g, d in atoms]
        if not atoms:
            return vacuum(self.alg)
        out = self.atom_element(atoms[-1])
        for atom in reversed(atoms[:-1]):
            out = self.insert_atom(atom, out)
        return out

    def translate_word_power(self, word: NormalWord, k: int) -> VertexElement:
        """``T^k(word)`` for k >= 1, memoized per ``(word, k)``; a single atom
        is raised in place for k >= 2.  ``T(word)`` is Leibniz over the atoms,
        each term re-canonicalized (a raised derivative can create a repeated
        odd atom that must reduce).  A miss fills every power above the
        highest one memoized below k, in a loop, since k may be in the
        thousands."""
        atoms = word.atoms
        if k > 1 and len(atoms) == 1:
            (g, d), = atoms
            return self.atom_element((g, d + k))
        cache = self._power_cache
        j, out = k, cache.get((word, k))
        while out is None and j > 1:
            j -= 1
            out = cache.get((word, j))
        if out is None:
            out = cache[(word, 1)] = self.zero.combine(
                (self.word_element(atoms[:i] + ((g, d + 1),) + atoms[i + 1:]), 1)
                for i, (g, d) in enumerate(atoms)
            )
        for i in range(j + 1, k + 1):
            out = cache[(word, i)] = out.translate()
        return out

    def word_state(self, word: NormalWord) -> VertexElement:
        """The state of one canonical word, built without validation: the
        engine builds its words from declared generators."""
        return self.zero._build({word: 1}, {}, {})

    def atom_element(self, atom) -> VertexElement:
        return self.word_state(NormalWord((atom,)))

    def insert_atom(self, atom, y: VertexElement) -> VertexElement:
        """Normal product of a single derivative atom with a canonical state
        of words and vacuum."""
        terms = [(self._insert_atom_word(atom, word), value) for word, value in y.words.items()]
        if y._vacuum:
            terms.append((self.atom_element(atom), y._vacuum[()]))
        return self.zero.combine(terms)

    def _insert_atom_word(self, atom, word: NormalWord) -> VertexElement:
        key = (atom, word)
        cached = self._insert_cache.get(key)
        if cached is not None:
            return cached
        head = word.atoms[0]
        ka, kb = self.atom_key(atom), self.atom_key(head)
        if ka < kb or (ka == kb and self.atom_parity(atom) is Parity.EVEN):
            result = self.word_state(NormalWord((atom,) + word.atoms))
        else:
            # [a_(-1), b_(-1)] rest = sum_j (-1)^j (a_(j)b)_(-2-j) rest
            rest = self._tail_element(word)
            pair = self._word_bracket(NormalWord((atom,)), NormalWord((head,)))
            commutator = self.zero.combine(
                (self.nproduct(prod, -2 - j, rest), (-1) ** j) for j, prod in pair.j_products()
            )
            if ka == kb:
                # Repeated odd atom: 2 a_(-1) a_(-1) = [a_(-1), a_(-1)].
                result = commutator.scale(Fraction(1, 2))
            else:
                # Straighten: a b = p(a,b) b a + [a_(-1), b_(-1)].
                sign = self.atom_parity(atom).sign_with(self.atom_parity(head))
                main = self.insert_atom(head, self.insert_atom(atom, rest))
                result = self.zero.combine([(main, sign), (commutator, 1)])
        self._insert_cache[key] = result
        return result

    def _tail_element(self, word: NormalWord) -> VertexElement:
        if len(word) == 1:
            return vacuum(self.alg)
        return self.word_state(NormalWord(word.atoms[1:]))

    # -- the lambda-bracket ----------------------------------------------------------

    def bracket(self, x: VertexElement, y: VertexElement, top: int | None = None) -> BracketPoly:
        """``[x_lambda y]`` through ``lambda^top``; the whole bracket when
        ``top`` is None."""
        x._require_same(y)
        self.element_parity(x)
        self.element_parity(y)
        return BracketPoly.zero(("lambda",)).combine(
            (self._word_bracket(wx, wy, top), sx * sy)
            for wx, sx in sorted(x.words.items(), key=lambda kv: kv[0].atoms)
            for wy, sy in sorted(y.words.items(), key=lambda kv: kv[0].atoms)
        )

    def _word_bracket(self, W: NormalWord, U: NormalWord, top: int | None = None) -> BracketPoly:
        """``[W_lambda U]`` through ``lambda^top`` (whole when None).  The memo
        holds one polynomial per pair with the degree through which it is
        exact (None: whole) and its lambda-degree; a request it covers is
        cut from it, and a request it does not cover computes the whole
        bracket."""
        key = (W, U)
        cached = self._bracket_cache.get(key)
        through = top
        if cached is not None:
            poly, exact, degree = cached
            if exact is None or (top is not None and top <= exact):
                return self._guarded(poly, degree, top)
            through = None
        g, d = W.atoms[0]
        if len(W) == 1 and d > 0:
            # [T^d g _lambda U] = (-lambda)^d [g_lambda U]
            if through is not None and through < d:
                result = BracketPoly.zero(("lambda",))
            else:
                base = self._word_bracket(
                    NormalWord(((g, 0),)), U, None if through is None else through - d
                )
                result = base.shift_power("lambda", d).scale(sign_power(d))
        elif len(W) == 1 and len(U) == 1:
            h, e = U.atoms[0]
            if e == 0:
                # A table entry is read whole.
                through = None
                result = self.alg.pair_bracket(g, h).map_coeffs(
                    lambda c: from_conformal(self.alg, c)
                )
            else:
                # [g_lambda d^e h] = sum_k C(e,k) lambda^k T^(e-k) [g_lambda h]
                base = self._word_bracket(W, NormalWord(((h, 0),)))
                # Refused before the e + 1 terms of a whole bracket are built.
                limit = self.max_lambda_degree
                if through is None and base.coeffs and e + base.degree("lambda") > limit:
                    raise EngineLimitError(f"lambda degree exceeds guard {limit}")
                result = BracketPoly.zero(("lambda",)).combine(
                    (
                        (base if through is None else base.truncated(through - k))
                        .map_coeffs(lambda c, r=e - k: c.translate_power(r))
                        .shift_power("lambda", k),
                        binom(e, k),
                    )
                    for k in range(e + 1 if through is None else min(e, through) + 1)
                )
        elif len(U) == 1:
            # Composite left, single right: quasi-symmetry flip.  Every
            # lambda^i of the result reads every coefficient of [U_lambda W].
            inner = self._word_bracket(U, W)
            sign = -self.word_parity(W).sign_with(self.word_parity(U))
            result = substitute_skew(inner, through).scale(sign)
        else:
            result = self._wick_composite_right(W, U, through)
        degree = result.degree("lambda")
        self._bracket_cache[key] = (result, through, degree)
        return self._guarded(result, degree, top)

    def _guarded(self, poly: BracketPoly, degree: int, top: int | None) -> BracketPoly:
        """``poly``, of lambda-degree ``degree``, cut after ``lambda^top``: the
        lambda-degree guard of every bracket that ``_word_bracket`` returns."""
        out = poly if top is None or top >= degree else poly.truncated(top)
        limit = self.max_lambda_degree
        if degree > limit and out.degree("lambda") > limit:
            raise EngineLimitError(f"lambda degree exceeds guard {limit}")
        return out

    def _wick_composite_right(self, W: NormalWord, U: NormalWord, top: int | None) -> BracketPoly:
        """Non-abelian Wick formula on ``U = :head rest:``, through ``lambda^top``:
        ``[W_l :hc:] = :[W_l h] c: + p(W,h) :h [W_l c]: + int_0^l [[W_l h]_m c] dm``.
        The integral of the ``lambda^i`` coefficient starts at ``lambda^(i+1)``.
        """
        head = U.atoms[0]
        head_elem = self.atom_element(head)
        rest_elem = self._tail_element(U)
        t_head = self._word_bracket(W, NormalWord((head,)), top)
        t_rest = self.bracket(self.word_state(W), rest_elem, top)
        terms = []
        for (i,), value in t_head.coeffs.items():
            prod = self.normal_product(value, rest_elem)
            terms.append((BracketPoly.constant(prod).shift_power("lambda", i), 1))
        sign = self.word_parity(W).sign_with(self.atom_parity(head))
        for (i,), value in t_rest.coeffs.items():
            prod = self.normal_product(head_elem, value)
            terms.append((BracketPoly.constant(prod).shift_power("lambda", i), sign))
        for (i,), value in t_head.coeffs.items():
            if top is not None and i >= top:
                continue
            # A polynomial in mu, needed through mu^(top-1-i).
            integrand = self.bracket(value, rest_elem, None if top is None else top - 1 - i)
            integral = integrate_zero_to_lambda(integrand)
            terms.append((integral.shift_power("lambda", i), 1))
        return BracketPoly.zero(("lambda",)).combine(terms)

    # -- products ------------------------------------------------------------------

    def normal_product(self, x: VertexElement, y: VertexElement) -> VertexElement:
        """``:x y:``.  A pinned central acts as its scalar, ``:C y: = acts(C) y``
        and ``:x C: = acts(C) x``; an unpinned one only against the vacuum."""
        x._require_same(y)
        if x.centrals or y.centrals:
            x, y = x.folded(), y.folded()
            if (x.centrals and (y.words or y.centrals)) or (y.centrals and x.words):
                raise VacalcError(
                    "normal product with an unpinned central is undefined; pin "
                    "it with 'acts' or keep it out of products"
                )
        # vac y = y, and x_word vac = x_word, x_central vac = x_central.
        terms = []
        if x._vacuum:
            terms.append((y, x._vacuum[()]))
        if y._vacuum:
            terms.append((x._build(x.words, {}, x.centrals), y._vacuum[()]))
        terms += [
            (self._word_product(W, U), sw * su)
            for W, sw in sorted(x.words.items(), key=lambda kv: kv[0].atoms)
            for U, su in y.words.items()
        ]
        return self.zero.combine(terms)

    def _word_product(self, W: NormalWord, U: NormalWord) -> VertexElement:
        """``:W U:`` of two canonical words, memoized for a composite ``W``."""
        if len(W) == 1:
            return self._insert_atom_word(W.atoms[0], U)
        key = (W, U)
        cached = self._product_cache.get(key)
        if cached is not None:
            return cached
        # Quasi-associativity: (a_(-1) b)_(-1) c = a_(-1)(b_(-1) c) + defect.
        a_atom, b_word = W.atoms[0], NormalWord(W.atoms[1:])
        main = self.insert_atom(a_atom, self._word_product(b_word, U))
        a, b, c = self.atom_element(a_atom), self.word_state(b_word), self.word_state(U)
        result = main.add(self.quasi_assoc_defect(a, b, c))
        self._product_cache[key] = result
        return result

    def quasi_assoc_defect(self, a, b, c) -> VertexElement:
        """``(a_(-1)b)_(-1)c - a_(-1)(b_(-1)c)`` as the sum
        ``sum_j a_(-j-2)(b_(j)c) + p(a,b) sum_j b_(-j-2)(a_(j)c)``."""
        sign = self.element_parity(a).sign_with(self.element_parity(b))
        return self.zero.combine(
            (self.nproduct(x, -2 - j, prod), s)
            for x, y, s in ((a, b, 1), (b, a, sign))
            for j, prod in self.bracket(y, c).j_products()
        )

    def nproduct(self, x: VertexElement, n: int, y: VertexElement) -> VertexElement:
        if n >= 0:
            value = self.bracket(x, y, n).coeffs.get((n,))
            return self.zero if value is None else value.scale(factorial(n))
        j = -1 - n
        left = x.translate_power(j).scale(Fraction(1, factorial(j)))
        return self.normal_product(left, y)

    def generator_products(self, a: str, b: str) -> tuple:
        """The nonzero j-products of the generators ``a`` and ``b``, read off
        the table; the mode layer's commutators read them here."""
        key = (a, b)
        out = self._pair_products.get(key)
        if out is None:
            out = self._pair_products[key] = tuple(self.alg.pair_bracket(a, b).j_products())
        return out


def engine(alg: AlgebraPresentation) -> VertexEngine:
    """Evaluation engine for a presentation; caches attach to the presentation."""
    eng = alg._vertex_engine
    if eng is None:
        eng = alg._vertex_engine = VertexEngine(alg)
    return eng


def limited_copy(alg: AlgebraPresentation, max_lambda_degree: int) -> AlgebraPresentation:
    """A shallow copy of ``alg`` with empty memos and an engine of its own,
    limited to ``max_lambda_degree``; states built over it evaluate there."""
    limited = copy.copy(alg)
    limited._vertex_engine = VertexEngine(limited, max_lambda_degree)
    return limited


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def wick_bracket(x: VertexElement, y: VertexElement) -> BracketPoly:
    """Full lambda-bracket on the differential algebra generated by the
    presentation, via the Wick recursion."""
    return engine(x.alg).bracket(x, y)


def nproduct(x: VertexElement, n: int, y: VertexElement) -> VertexElement:
    """Generalized n-th product: positive products from the bracket, negative
    products ``x_(-1-j) y = : (T^j x / j!) y :``."""
    return engine(x.alg).nproduct(x, n, y)


def normal_product(x: VertexElement, y: VertexElement) -> VertexElement:
    """``: x y : = x_(-1) y`` in canonical form."""
    return engine(x.alg).normal_product(x, y)


def vertex_jproducts(x: VertexElement, y: VertexElement):
    """Nonzero products ``x_(j) y`` (j >= 0), ascending in j."""
    return engine(x.alg).bracket(x, y).j_products()


def quasi_comm_defect(x: VertexElement, y: VertexElement) -> VertexElement:
    """The quantum correction ``int_(-T)^0 [x_l y] dl``; equals
    ``:xy: - p(x,y) :yx:``.  Each bracket coefficient c_j of lambda^j
    contributes ``(-1)^j T^(j+1) c_j / (j+1)``."""
    eng = engine(x.alg)
    return eng.zero.combine(
        (value.translate_power(j + 1), Fraction((-1) ** j, j + 1))
        for (j,), value in eng.bracket(x, y).coeffs.items()
    )


def quasi_assoc_rewrite(x: VertexElement, y: VertexElement) -> VertexElement:
    """Canonical form of the left-nested product ``(x)_(-1) y``."""
    return engine(x.alg).nproduct(x, -1, y)


def quasi_assoc_defect_sum(a, b, c) -> VertexElement:
    """Associativity defect ``(a_(-1)b)_(-1)c - a_(-1)(b_(-1)c)`` as the sum
    ``sum_j a_(-j-2)(b_(j)c) + p(a,b) sum_j b_(-j-2)(a_(j)c)``."""
    return engine(a.alg).quasi_assoc_defect(a, b, c)


def quasi_assoc_defect_integral(a, b, c) -> VertexElement:
    """Same defect through the formal-integral reading: expand the bracket in
    powers of lambda, integrate ``int_0^T``, and place the resulting
    T-powers on the left factor of the (-1)-product."""
    eng = engine(a.alg)

    def contribution(left, right, sign):
        # int_0^T lambda^j dl = T^(j+1)/(j+1), applied to the left factor.
        return [
            (eng.normal_product(left.translate_power(j + 1), coeff), Fraction(sign, j + 1))
            for (j,), coeff in eng.bracket(right, c).coeffs.items()
        ]

    terms = contribution(a, b, 1)
    sign = eng.element_parity(a).sign_with(eng.element_parity(b))
    return eng.zero.combine(terms + contribution(b, a, sign))


# -- weights ------------------------------------------------------------------


def weight(x: VertexElement) -> Fraction | None:
    """Common weight of a state over its presentation's declared weights
    (vacuum and centrals count as weight 0, a pinned central as its scalar),
    or None when the state is zero or mixes weights."""
    x = x.folded()
    values = {Fraction(0)} if x._vacuum or x.centrals else set()
    for word in x.words:
        total = Fraction(0)
        for g, d in word.atoms:
            w = x.alg.weight(g)
            if w is None:
                raise VacalcError(f"no declared weight for generator {g!r}")
            total += w + d
        values.add(total)
    return values.pop() if len(values) == 1 else None


@dataclass
class PrimaryResult:
    kind: str  # "primary" | "eigen" | "neither"
    weight: Fraction | None = None
    tail: BracketPoly | None = None

    def __str__(self):
        if self.kind == "primary":
            return f"primary({self.weight})"
        if self.kind == "eigen":
            parts = [
                f"lambda^{e[0]}: {v}" for e, v in (self.tail.terms() if self.tail else [])
            ]
            return f"eigen({self.weight}; tail {'; '.join(parts)})"
        return "neither"


def primary_check(name: str, L: VertexElement) -> PrimaryResult:
    """Classify a generator against a (Virasoro-type) even state L by the
    shape of ``[L_lambda a]``: primary means exactly ``(T + D lambda) a``.
    The tail shows each pinned central as its scalar."""
    a = state(L.alg, name)
    poly = wick_bracket(L, a)
    lam0 = poly.coefficient((0,), zero(L.alg))
    lam1 = poly.coefficient((1,), zero(L.alg))
    if lam0 != a.translate():
        return PrimaryResult("neither")
    target = NormalWord(((name, 0),))
    if lam1.is_zero():
        delta = Fraction(0)
    else:
        if set(lam1.words) != {target} or lam1._vacuum or lam1.centrals:
            return PrimaryResult("neither")
        coeff = lam1.words[target]
        if isinstance(coeff, Scalar):
            return PrimaryResult("neither")
        delta = Fraction(coeff)
    tail = BracketPoly(
        ("lambda",), {e: v.folded() for e, v in poly.coeffs.items() if e[0] >= 2}
    )
    if tail.is_zero():
        return PrimaryResult("primary", delta)
    return PrimaryResult("eigen", delta, tail)


def mode_of_primary(name: str, m, n, L: VertexElement):
    """Closed-form mode bracket with a primary generator:
    ``[L_m, a_n] = (m (D-1) - n) a_(m+n)`` in weight indexing."""
    from .mode_algebra import WEIGHT, ModeExpression, ModeSymbol

    result = primary_check(name, L)
    if result.kind != "primary":
        raise VacalcError(f"{name!r} is not primary: {result}")
    delta = result.weight
    m = Scalar.coerce(m)
    n = Scalar.coerce(n)
    coeff = m * Scalar.from_rational(delta - 1) - n
    return ModeExpression(terms={ModeSymbol(name, m + n, WEIGHT): coeff})


# -- free superfermions ---------------------------------------------------------


def _invert_rational_matrix(rows):
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    size = len(rows)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise VacalcError("bilinear form is degenerate")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [v / factor for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def fermion_conformal_vector(alg: AlgebraPresentation) -> VertexElement:
    """The state ``1/2 sum_i : d(dual_i) basis_i :`` built from the stored
    bilinear form of a free-fermion presentation: one whose every table
    entry is a lambda^0 multiple of centrals."""
    form = alg.bilinear_form
    if form is None:
        raise VacalcError("presentation carries no bilinear form")
    if any(set(poly.coeffs) != {(0,)} or poly.coeffs[(0,)].terms for poly in alg.table.values()):
        raise VacalcError("presentation is not a free-fermion table")
    names = [g.name for g in alg.generators]
    rows = [
        [Scalar.coerce(form.get((a, b), 0)).as_rational() for b in names]
        for a in names
    ]
    inverse = _invert_rational_matrix(rows)
    eng = engine(alg)
    terms = []
    for i, name in enumerate(names):
        # dual_i = sum_k inverse[k][i] basis_k satisfies <basis_j, dual_i> = delta_ij.
        dual = eng.zero.combine(
            (state(alg, other, 1), inverse[k][i]) for k, other in enumerate(names)
        )
        terms.append((eng.normal_product(dual, state(alg, name)), Fraction(1, 2)))
    return eng.zero.combine(terms)
