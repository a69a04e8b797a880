"""Algebra-definition DSL and expression parsing.

Definition files look like::

    algebra virasoro {
      param c;
      generator L : even, weight 2;
      central C : even acts c;
      bracket [L, L] = d(L) + 2*lambda*L + 1/12*lambda^3*C;
    }

One expression grammar serves query operands, bracket statements and
``acts`` clauses.  ``d(...)`` is the derivation (``T`` is an alias),
``lambda`` is the bracket variable of definitions, ``vac`` denotes the
vacuum, and ``:a b:`` is a right-nested normally ordered word; the last two
occur in queries only.  Identifiers are alphanumeric and start with a
letter; ``#`` starts a comment.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from ..lie_conformal import (
    AlgebraPresentation,
    CentralDecl,
    GeneratorDecl,
    Parity,
    PresentationError,
    UndeclaredSymbolError,
    VacalcError,
)
from ..poly import BracketPoly, substitute_skew
from ..scalar import Scalar
from .. import vertex_calc as vx

RESERVED = ("lambda", "vac", "d", "T")
MAX_NESTING = 100


class ParseError(VacalcError):
    def __init__(self, message, line=None, col=None, expected=None):
        self.line = line
        self.col = col
        self.expected = tuple(expected or ())
        where = f" at line {line}, column {col}" if line is not None else ""
        hint = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{message}{where}{hint}")


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | INT | SYM | EOF
    text: str
    line: int
    col: int


_SYMBOLS = set("{}()[]+-*/^=,;:_")
_DIGITS = set("0123456789")  # str.isdigit also accepts U+00B2 (²), which int() cannot read


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch.isalpha():
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("NAME", text[start:i], line, col))
            col += i - start
            continue
        if ch in _DIGITS:
            start = i
            while i < len(text) and text[i] in _DIGITS:
                i += 1
            limit = sys.get_int_max_str_digits()  # 0: no limit
            if limit and i - start > limit:
                raise ParseError(f"integer literal longer than {limit} digits", line, col)
            tokens.append(Token("INT", text[start:i], line, col))
            col += i - start
            continue
        if ch in _SYMBOLS:
            tokens.append(Token("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind, text=None):
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    def expect(self, kind, text=None, expected=None):
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            raise ParseError(
                f"unexpected {got.kind} {got.text!r}",
                got.line,
                got.col,
                expected or [text or kind],
            )
        return tok

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _times(p: BracketPoly, s: BracketPoly) -> BracketPoly:
    """``p * s`` for a lambda-polynomial ``s`` with scalar coefficients."""
    return BracketPoly.zero(("lambda",)).combine(
        (p.shift_power("lambda", i), u) for (i,), u in s.coeffs.items()
    )


class _ExprParser:
    """The one expression grammar of vacalc: ``+ - * / ^`` and parentheses
    over integers, parameters, generators, centrals, ``lambda``, ``vac``,
    ``d^k(...)`` (alias ``T``) and normal words ``:x y ...:``.

    A value is a pair ``(is_element, poly)``: a polynomial in ``lambda`` whose
    coefficients are scalars or elements.  In a query, elements are states of
    the vertex algebra and ``lambda`` is reserved.  In a definition (bracket
    statements, ``acts`` clauses), elements are conformal elements, and
    ``vac`` and normal words are rejected.  Centrals stay symbols in both."""

    def __init__(self, ts: TokenStream, alg: AlgebraPresentation, query: bool):
        self.ts = ts
        self.alg = alg
        self.query = query
        self.noun = "state" if query else "element"
        self.depth = 0

    def _nested(self, tok, parse):
        """``parse()`` one level inside parentheses, ``d(...)`` or a normal
        word.  The bound turns hostile nesting into a parse error before it
        reaches the interpreter's recursion limit."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", tok.line, tok.col
            )
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def expr(self):
        tok = self.ts.peek()
        negate = bool(self.ts.accept("SYM", "-"))
        value = self.term()
        if negate:
            value = (value[0], value[1].scale(-1))
        while True:
            if self.ts.accept("SYM", "+"):
                value = self._add(value, self.term(), 1, tok)
            elif self.ts.accept("SYM", "-"):
                value = self._add(value, self.term(), -1, tok)
            else:
                return value

    def _add(self, a, b, sign, tok):
        if a[0] != b[0]:
            article = "a" if self.query else "an"
            raise ParseError(
                f"cannot add a scalar to {article} {self.noun}", tok.line, tok.col
            )
        return a[0], a[1].combine(((b[1], sign),))

    def term(self):
        tok = self.ts.peek()
        value = self.factor()
        while True:
            if self.ts.accept("SYM", "*"):
                other = self.factor()
                if value[0] and other[0]:
                    raise ParseError(
                        "use a normal word :x y: for products of states"
                        if self.query
                        else "products of elements are not defined in a definition",
                        tok.line,
                        tok.col,
                    )
                if other[0]:
                    value, other = other, value
                value = (value[0], _times(value[1], other[1]))
            elif self.ts.accept("SYM", "/"):
                is_element, divisor = self.factor()
                const = divisor.coefficient((0,), 0)
                if (
                    is_element
                    or divisor.degree("lambda") > 0
                    or isinstance(const, Scalar)
                    or not const
                ):
                    raise ParseError(
                        "division is only defined by nonzero rational constants",
                        tok.line,
                        tok.col,
                    )
                value = (value[0], value[1].scale(Fraction(1, const)))
            else:
                return value

    def factor(self):
        value = self.atom()
        if self.ts.accept("SYM", "^"):
            tok = self.ts.expect("INT")
            if value[0]:
                raise ParseError(
                    f"powers of {self.noun}s are not defined", tok.line, tok.col
                )
            power = BracketPoly.constant(1)
            for _ in range(int(tok.text)):
                power = _times(power, value[1])
            value = (False, power)
        return value

    def atom(self):
        tok = self.ts.peek()
        if tok.kind == "INT":
            self.ts.next()
            return False, BracketPoly.constant(int(tok.text))
        if self.ts.accept("SYM", "("):
            value = self._nested(tok, self.expr)
            self.ts.expect("SYM", ")")
            return value
        if tok.kind == "SYM" and tok.text == ":":
            return True, BracketPoly.constant(self._nested(tok, self._normal_word))
        if tok.kind == "NAME":
            self.ts.next()
            name = tok.text
            if name == "lambda":
                if self.query:
                    raise ParseError("lambda is reserved", tok.line, tok.col)
                return False, BracketPoly(("lambda",), {(1,): 1})
            if name == "vac":
                self._require_query(tok, "vac")
                return True, BracketPoly.constant(vx.vacuum(self.alg))
            if name in ("d", "T"):
                power = 1
                if self.ts.accept("SYM", "^"):
                    power = int(self.ts.expect("INT").text)
                self.ts.expect("SYM", "(")
                is_element, inner = self._nested(tok, self.expr)
                self.ts.expect("SYM", ")")
                if not is_element:
                    raise ParseError(
                        f"d(...) applies to {self.noun}s", tok.line, tok.col
                    )
                return True, inner.map_coeffs(lambda e: e.translate_power(power))
            if name in self.alg.parameters:
                return False, BracketPoly.constant(Scalar.param(name))
            if self.alg.is_generator(name) or self.alg.is_central(name):
                if self.query:
                    return True, BracketPoly.constant(vx.state(self.alg, name))
                return True, BracketPoly.constant(self.alg.gen(name))
            raise ParseError(f"undeclared symbol {name!r}", tok.line, tok.col)
        raise ParseError(
            f"unexpected {tok.kind} {tok.text!r}",
            tok.line,
            tok.col,
            ["number", "name", "(", ":", "vac", "d("]
            if self.query
            else ["number", "name", "(", "d(", "lambda"],
        )

    def _require_query(self, tok, what):
        if not self.query:
            raise ParseError(
                f"{what} belongs in queries, not in a definition", tok.line, tok.col
            )

    def _normal_word(self) -> vx.VertexElement:
        """``:x y ...:``, the right-nested normal product of its factors."""
        tok = self.ts.next()
        self._require_query(tok, "a normal word")
        factors = [self.atom()]
        while True:
            nxt = self.ts.peek()
            if nxt.kind == "SYM" and nxt.text == ":":
                # Either the closing colon or a nested word: try the nested
                # reading first and fall back to closing.
                save = self.ts.pos, self.depth
                try:
                    factors.append(self.atom())
                    continue
                except ParseError:
                    self.ts.pos, self.depth = save
                    self.ts.next()
                    break
            factors.append(self.atom())
        if len(factors) < 2:
            raise ParseError(
                "a normal word needs at least two factors", tok.line, tok.col
            )
        if not all(is_element for is_element, _ in factors):
            raise ParseError("normal words contain states only", tok.line, tok.col)
        zero = vx.zero(self.alg)
        states = [poly.coefficient((0,), zero) for _, poly in factors]
        out = states[-1]
        for left in reversed(states[:-1]):
            out = vx.normal_product(left, out)
        return out


def _parse(ts: TokenStream, alg: AlgebraPresentation, query: bool, stop=None):
    """One expression, which must run to the end of the input or, with
    ``stop``, up to that symbol (consumed)."""
    value = _ExprParser(ts, alg, query).expr()
    tok = ts.peek()
    if not (ts.accept("SYM", stop) if stop else ts.at_end()):
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return value


def parse_vertex_expr(text: str, alg: AlgebraPresentation) -> vx.VertexElement:
    """Parse a query operand into a state; a scalar ``s`` is ``s*vac``."""
    is_element, poly = _parse(TokenStream(text), alg, query=True)
    if is_element:
        return poly.coefficient((0,), vx.zero(alg))
    return vx.vacuum(alg).scale(poly.coefficient((0,), 0))


def _conformal_expr(ts: TokenStream, alg: AlgebraPresentation, stop=None) -> BracketPoly:
    tok = ts.peek()
    is_element, poly = _parse(ts, alg, False, stop)
    if not is_element:
        raise ParseError("expression has no generator part", tok.line, tok.col)
    return poly


def parse_conformal_expr(text: str, alg: AlgebraPresentation) -> BracketPoly:
    """Parse a lambda-polynomial with conformal-element coefficients (the
    right-hand side of a bracket statement)."""
    return _conformal_expr(TokenStream(text), alg)


def _conformal_scalar(ts: TokenStream, alg: AlgebraPresentation, stop=None) -> Scalar:
    """A lambda-free, generator-free scalar expression (an ``acts`` clause)."""
    tok = ts.peek()
    is_element, poly = _parse(ts, alg, False, stop)
    if is_element or poly.degree("lambda") > 0:
        raise ParseError("expected a scalar expression", tok.line, tok.col)
    return Scalar.coerce(poly.coefficient((0,), 0))


# ---------------------------------------------------------------------------
# Definition files
# ---------------------------------------------------------------------------


def _parse_rational(ts: TokenStream) -> Fraction:
    sign = -1 if ts.accept("SYM", "-") else 1
    num = int(ts.expect("INT").text)
    if ts.accept("SYM", "/"):
        tok = ts.expect("INT")
        if int(tok.text) == 0:
            raise ParseError("division by zero", tok.line, tok.col)
        return Fraction(sign * num, int(tok.text))
    return Fraction(sign * num)


def _declared_name(ts: TokenStream) -> str:
    """The name in a declaration, which may not be one the grammar reserves."""
    tok = ts.expect("NAME")
    if tok.text in RESERVED:
        raise ParseError(f"{tok.text!r} is reserved and cannot be declared", tok.line, tok.col)
    return tok.text


def _skip_statement(ts: TokenStream, what: str) -> int:
    """Move past the tokens of a statement body up to its closing ``;`` (left
    in place) and return where the body starts, to be parsed once every
    declaration is known."""
    start = ts.pos
    depth = 0
    while True:
        tok = ts.peek()
        if tok.kind == "EOF":
            raise ParseError(f"unterminated {what}", tok.line, tok.col)
        if tok.kind == "SYM" and tok.text == ";" and depth == 0:
            return start
        if tok.kind == "SYM" and tok.text in "()":
            depth += 1 if tok.text == "(" else -1
        ts.next()


def parse_definition(text: str) -> AlgebraPresentation:
    """Parse a definition file into a validated presentation."""
    ts = TokenStream(text)
    ts.expect("NAME", "algebra", expected=["algebra"])
    name = ts.expect("NAME").text
    ts.expect("SYM", "{")
    parameters: list = []
    generators: list = []
    centrals: list = []
    pending_acts: dict = {}
    bracket_statements: list = []
    declared_pairs: set = set()

    while not ts.accept("SYM", "}"):
        tok = ts.peek()
        if ts.accept("NAME", "param"):
            while True:
                parameters.append(_declared_name(ts))
                if not ts.accept("SYM", ","):
                    break
            ts.expect("SYM", ";")
        elif tok.kind == "NAME" and tok.text in ("generator", "central"):
            ts.next()
            is_central = tok.text == "central"
            gname = _declared_name(ts)
            parity = Parity.EVEN
            weight = None
            if ts.accept("SYM", ":"):
                ptok = ts.expect("NAME", expected=["even", "odd"])
                if ptok.text == "even":
                    parity = Parity.EVEN
                elif ptok.text == "odd":
                    parity = Parity.ODD
                else:
                    raise ParseError(
                        f"unknown parity {ptok.text!r}", ptok.line, ptok.col,
                        ["even", "odd"],
                    )
            if ts.accept("SYM", ","):
                ts.expect("NAME", "weight", expected=["weight"])
                weight = _parse_rational(ts)
            if is_central:
                if weight is not None:
                    raise ParseError(
                        "centrals carry no weight declaration", tok.line, tok.col
                    )
                if ts.accept("NAME", "acts"):
                    pending_acts[gname] = _skip_statement(ts, "acts clause")
                centrals.append((gname, parity))
            else:
                generators.append(GeneratorDecl(gname, parity, weight))
            ts.expect("SYM", ";")
        elif ts.accept("NAME", "bracket"):
            ts.expect("SYM", "[")
            a = ts.expect("NAME").text
            ts.expect("SYM", ",")
            b = ts.expect("NAME").text
            ts.expect("SYM", "]")
            ts.expect("SYM", "=")
            start = _skip_statement(ts, "bracket statement")
            ts.expect("SYM", ";")
            key = frozenset((a, b)) if a != b else frozenset((a,))
            if key in declared_pairs:
                raise ParseError(
                    f"duplicate bracket for the pair [{a},{b}]", tok.line, tok.col
                )
            declared_pairs.add(key)
            bracket_statements.append((a, b, start, tok))
        else:
            raise ParseError(
                f"unexpected {tok.kind} {tok.text!r}",
                tok.line,
                tok.col,
                ["param", "generator", "central", "bracket", "}"],
            )
    end = ts.peek()
    if not ts.at_end():
        raise ParseError(f"trailing input {end.text!r}", end.line, end.col)

    # Statement bodies are parsed against the declarations, with every
    # central symbolic: 'acts' pins act in the vertex layer only.
    bare = AlgebraPresentation(
        name, parameters, tuple(generators),
        tuple(CentralDecl(n, p) for n, p in centrals), {},
    )
    central_decls = []
    for cname, parity in centrals:
        acts = None
        if cname in pending_acts:
            ts.pos = pending_acts[cname]
            acts = _conformal_scalar(ts, bare, ";")
        central_decls.append(CentralDecl(cname, parity, acts))
    table = {}
    for a, b, start, tok in bracket_statements:
        ts.pos = start
        poly = _conformal_expr(ts, bare, ";")
        for gen in (a, b):
            if not bare.is_generator(gen):
                raise ParseError(
                    f"undeclared generator {gen!r} in bracket", tok.line, tok.col
                )
        if bare.index(a) <= bare.index(b):
            table[(a, b)] = poly
        else:
            sign = -bare.parity(a).sign_with(bare.parity(b))
            table[(b, a)] = substitute_skew(poly).scale(sign)
    try:
        return AlgebraPresentation(
            name, parameters, tuple(generators), tuple(central_decls), table
        )
    except (PresentationError, UndeclaredSymbolError) as exc:
        raise ParseError(str(exc)) from exc
