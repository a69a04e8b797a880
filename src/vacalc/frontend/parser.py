"""Algebra-definition DSL and expression parsing.

Definition files look like::

    algebra virasoro {
      param c;
      generator L : even, weight 2;
      central C : even acts c;
      bracket [L, L] = d(L) + 2*lambda*L + 1/12*lambda^3*C;
    }

``d(...)`` is the derivation (``T`` is an alias in vertex expressions),
``lambda`` is reserved, ``vac`` denotes the vacuum, and ``:a b:`` is a
right-nested normally ordered word.  Identifiers are alphanumeric and start
with a letter; ``#`` starts a comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..lie_conformal import (
    AlgebraPresentation,
    CentralDecl,
    ConformalElement,
    GeneratorDecl,
    Parity,
    PresentationError,
    UndeclaredSymbolError,
    VacalcError,
)
from ..poly import BracketPoly, substitute_skew
from ..scalar import Scalar
from .. import vertex_calc as vx

KEYWORDS = {
    "algebra", "param", "generator", "central", "bracket",
    "even", "odd", "weight", "acts", "lambda", "vac", "d", "T",
}


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
        if ch.isdigit():
            start = i
            while i < len(text) and text[i].isdigit():
                i += 1
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
# Scalar/conformal expression values
# ---------------------------------------------------------------------------


class _Value:
    """Either a lambda-polynomial of scalars or of elements."""

    __slots__ = ("kind", "data")

    def __init__(self, kind, data):
        self.kind = kind  # "scalar" | "element"
        self.data = data  # BracketPoly over Scalar / over ConformalElement


def _spoly(scalar: Scalar) -> _Value:
    return _Value("scalar", BracketPoly(("lambda",), {(0,): scalar}))


def _value_add(a: _Value, b: _Value, tok) -> _Value:
    if a.kind != b.kind:
        raise ParseError("cannot add a scalar to an element", tok.line, tok.col)
    return _Value(a.kind, a.data.add(b.data))


def _value_neg(a: _Value) -> _Value:
    return _Value(a.kind, a.data.scale(-1))


def _times_scalar_poly(p: BracketPoly, s: BracketPoly) -> BracketPoly:
    """``p * s`` for a lambda-polynomial ``s`` with scalar coefficients."""
    return BracketPoly.zero(("lambda",)).combine(
        (p.shift_power("lambda", i), u) for (i,), u in s.coeffs.items()
    )


def _value_mul(a: _Value, b: _Value, tok) -> _Value:
    if b.kind == "scalar":
        return _Value(a.kind, _times_scalar_poly(a.data, b.data))
    if a.kind == "scalar":
        return _Value("element", _times_scalar_poly(b.data, a.data))
    raise ParseError(
        "products of generators are not defined here; use a normal word",
        tok.line,
        tok.col,
    )


def _value_div(a: _Value, b: _Value, tok) -> _Value:
    if b.kind != "scalar":
        raise ParseError("division by an element", tok.line, tok.col)
    const = b.data.coefficient((0,), Scalar.zero())
    if b.data.degree("lambda") > 0 or not const.is_constant() or const.is_zero():
        raise ParseError(
            "division is only defined by nonzero rational constants",
            tok.line,
            tok.col,
        )
    return _Value(a.kind, a.data.scale(Fraction(1) / const.as_rational()))


def _value_pow(a: _Value, n: int, tok) -> _Value:
    if a.kind != "scalar":
        raise ParseError("powers of elements are not defined", tok.line, tok.col)
    out = _spoly(Scalar.one())
    for _ in range(n):
        out = _value_mul(out, a, tok)
    return out


class _ConformalExprParser:
    """lambda-polynomial expressions with generator-linear coefficients."""

    def __init__(self, ts: TokenStream, alg: AlgebraPresentation):
        self.ts = ts
        self.alg = alg

    def expr(self) -> _Value:
        tok = self.ts.peek()
        negate = bool(self.ts.accept("SYM", "-"))
        value = self.term()
        if negate:
            value = _value_neg(value)
        while True:
            if self.ts.accept("SYM", "+"):
                value = _value_add(value, self.term(), tok)
            elif self.ts.accept("SYM", "-"):
                value = _value_add(value, _value_neg(self.term()), tok)
            else:
                return value

    def term(self) -> _Value:
        tok = self.ts.peek()
        value = self.factor()
        while True:
            if self.ts.accept("SYM", "*"):
                value = _value_mul(value, self.factor(), tok)
            elif self.ts.accept("SYM", "/"):
                value = _value_div(value, self.factor(), tok)
            else:
                return value

    def factor(self) -> _Value:
        value = self.atom()
        if self.ts.accept("SYM", "^"):
            tok = self.ts.expect("INT")
            value = _value_pow(value, int(tok.text), tok)
        return value

    def atom(self) -> _Value:
        tok = self.ts.peek()
        if tok.kind == "INT":
            self.ts.next()
            return _spoly(Scalar.from_rational(int(tok.text)))
        if self.ts.accept("SYM", "("):
            value = self.expr()
            self.ts.expect("SYM", ")")
            return value
        if tok.kind == "NAME":
            self.ts.next()
            name = tok.text
            if name == "lambda":
                return _Value(
                    "scalar", BracketPoly(("lambda",), {(1,): Scalar.one()})
                )
            if name in ("d", "T"):
                power = 1
                if self.ts.accept("SYM", "^"):
                    power = int(self.ts.expect("INT").text)
                self.ts.expect("SYM", "(")
                inner = self.expr()
                self.ts.expect("SYM", ")")
                if inner.kind != "element":
                    raise ParseError(
                        "d(...) applies to elements", tok.line, tok.col
                    )
                data = inner.data
                for _ in range(power):
                    data = data.map_coeffs(lambda e: e.translate())
                return _Value("element", data)
            if name in self.alg.parameters:
                return _spoly(Scalar.param(name))
            if self.alg.is_generator(name) or self.alg.is_central(name):
                return _Value(
                    "element", BracketPoly(("lambda",), {(0,): self.alg.gen(name)})
                )
            raise ParseError(
                f"undeclared symbol {name!r}", tok.line, tok.col
            )
        raise ParseError(
            f"unexpected {tok.kind} {tok.text!r}",
            tok.line,
            tok.col,
            ["number", "name", "(", "d(", "lambda"],
        )


def parse_conformal_expr(text: str, alg: AlgebraPresentation) -> BracketPoly:
    """Parse a lambda-polynomial with element coefficients (bracket RHS)."""
    ts = TokenStream(text)
    value = _ConformalExprParser(ts, alg).expr()
    tok = ts.peek()
    if not ts.at_end():
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    if value.kind != "element":
        raise ParseError("expression has no generator part", 1, 1)
    return value.data


def parse_element(text: str, alg: AlgebraPresentation) -> ConformalElement:
    """Parse a lambda-free element of the C[d]-module."""
    poly = parse_conformal_expr(text, alg)
    if poly.degree("lambda") > 0:
        raise ParseError("lambda is not allowed in this expression", 1, 1)
    return poly.coefficient((0,), ConformalElement.zero())


# ---------------------------------------------------------------------------
# Vertex expressions (queries)
# ---------------------------------------------------------------------------


class _VertexExprParser:
    def __init__(self, ts: TokenStream, alg: AlgebraPresentation):
        self.ts = ts
        self.alg = alg

    def expr(self):
        tok = self.ts.peek()
        negate = bool(self.ts.accept("SYM", "-"))
        value = self.term()
        if negate:
            value = self._neg(value)
        while True:
            if self.ts.accept("SYM", "+"):
                value = self._add(value, self.term(), tok)
            elif self.ts.accept("SYM", "-"):
                value = self._add(value, self._neg(self.term()), tok)
            else:
                return value

    def _neg(self, v):
        kind, data = v
        return (kind, data * -1)

    def _add(self, a, b, tok):
        if a[0] != b[0]:
            raise ParseError("cannot add a scalar to a state", tok.line, tok.col)
        if a[0] == "scalar":
            return ("scalar", a[1] + b[1])
        return ("vertex", a[1].add(b[1]))

    def _mul(self, a, b, tok):
        if a[0] == "scalar" and b[0] == "scalar":
            return ("scalar", a[1] * b[1])
        if a[0] == "scalar":
            return ("vertex", b[1].scale(a[1]))
        if b[0] == "scalar":
            return ("vertex", a[1].scale(b[1]))
        raise ParseError(
            "use a normal word :x y: for products of states", tok.line, tok.col
        )

    def term(self):
        tok = self.ts.peek()
        value = self.factor()
        while True:
            if self.ts.accept("SYM", "*"):
                value = self._mul(value, self.factor(), tok)
            elif self.ts.accept("SYM", "/"):
                divisor = self.factor()
                if divisor[0] != "scalar" or not divisor[1].is_constant() or divisor[1].is_zero():
                    raise ParseError(
                        "division is only defined by nonzero rational constants",
                        tok.line,
                        tok.col,
                    )
                q = Fraction(1) / divisor[1].as_rational()
                value = self._mul(value, ("scalar", Scalar.from_rational(q)), tok)
            else:
                return value

    def factor(self):
        value = self.atom()
        if self.ts.accept("SYM", "^"):
            tok = self.ts.expect("INT")
            if value[0] != "scalar":
                raise ParseError("powers of states are not defined", tok.line, tok.col)
            return ("scalar", value[1] ** int(tok.text))
        return value

    def atom(self):
        tok = self.ts.peek()
        if tok.kind == "INT":
            self.ts.next()
            return ("scalar", Scalar.from_rational(int(tok.text)))
        if self.ts.accept("SYM", "("):
            value = self.expr()
            self.ts.expect("SYM", ")")
            return value
        if self.ts.accept("SYM", ":"):
            factors = [self.atom()]
            while True:
                nxt = self.ts.peek()
                if nxt.kind == "SYM" and nxt.text == ":":
                    # Either the closing colon or a nested word: try the
                    # nested reading first and fall back to closing.
                    save = self.ts.pos
                    try:
                        factors.append(self.atom())
                        continue
                    except ParseError:
                        self.ts.pos = save
                        self.ts.next()
                        break
                factors.append(self.atom())
            if len(factors) < 2:
                raise ParseError(
                    "a normal word needs at least two factors", tok.line, tok.col
                )
            for kind, _ in factors:
                if kind != "vertex":
                    raise ParseError(
                        "normal words contain states only", tok.line, tok.col
                    )
            out = factors[-1][1]
            for _, left in reversed(factors[:-1]):
                out = vx.normal_product(left, out, self.alg)
            return ("vertex", out)
        if tok.kind == "NAME":
            self.ts.next()
            name = tok.text
            if name == "lambda":
                raise ParseError("lambda is reserved", tok.line, tok.col)
            if name == "vac":
                return ("vertex", vx.vacuum(self.alg))
            if name in ("d", "T"):
                power = 1
                if self.ts.accept("SYM", "^"):
                    power = int(self.ts.expect("INT").text)
                self.ts.expect("SYM", "(")
                inner = self.expr()
                self.ts.expect("SYM", ")")
                if inner[0] != "vertex":
                    raise ParseError("d(...) applies to states", tok.line, tok.col)
                return ("vertex", inner[1].translate_power(power))
            if name in self.alg.parameters:
                return ("scalar", Scalar.param(name))
            if self.alg.is_generator(name) or self.alg.is_central(name):
                return ("vertex", vx.state(self.alg, name))
            raise ParseError(f"undeclared symbol {name!r}", tok.line, tok.col)
        raise ParseError(
            f"unexpected {tok.kind} {tok.text!r}",
            tok.line,
            tok.col,
            ["number", "name", "(", ":", "vac", "d("],
        )


def parse_vertex_expr(text: str, alg: AlgebraPresentation):
    ts = TokenStream(text)
    kind, value = _VertexExprParser(ts, alg).expr()
    tok = ts.peek()
    if not ts.at_end():
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    if kind == "scalar":
        return vx.vacuum(alg).scale(value)
    return value


# ---------------------------------------------------------------------------
# Definition files
# ---------------------------------------------------------------------------


def _parse_rational(ts: TokenStream) -> Fraction:
    sign = -1 if ts.accept("SYM", "-") else 1
    num = int(ts.expect("INT").text)
    if ts.accept("SYM", "/"):
        den = int(ts.expect("INT").text)
        return Fraction(sign * num, den)
    return Fraction(sign * num)


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
                parameters.append(ts.expect("NAME").text)
                if not ts.accept("SYM", ","):
                    break
            ts.expect("SYM", ";")
        elif tok.kind == "NAME" and tok.text in ("generator", "central"):
            ts.next()
            is_central = tok.text == "central"
            gname = ts.expect("NAME").text
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
                acts_text = None
                if ts.accept("NAME", "acts"):
                    chunk = []
                    while not (
                        ts.peek().kind == "EOF"
                        or (ts.peek().kind == "SYM" and ts.peek().text == ";")
                    ):
                        chunk.append(ts.next().text)
                    acts_text = " ".join(chunk)
                centrals.append((gname, parity))
                if acts_text is not None:
                    pending_acts[gname] = acts_text
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
            chunk = []
            depth = 0
            while True:
                nxt = ts.peek()
                if nxt.kind == "EOF":
                    raise ParseError("unterminated bracket statement", nxt.line, nxt.col)
                if nxt.kind == "SYM" and nxt.text == ";" and depth == 0:
                    break
                if nxt.kind == "SYM" and nxt.text == "(":
                    depth += 1
                if nxt.kind == "SYM" and nxt.text == ")":
                    depth -= 1
                chunk.append(ts.next())
            ts.expect("SYM", ";")
            key = frozenset((a, b)) if a != b else frozenset((a,))
            if key in declared_pairs:
                raise ParseError(
                    f"duplicate bracket for the pair [{a},{b}]", tok.line, tok.col
                )
            declared_pairs.add(key)
            bracket_statements.append((a, b, chunk, tok))
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

    # Resolve 'acts' scalars against the declared parameters.
    central_decls = []
    bare = AlgebraPresentation(
        name, parameters, tuple(generators),
        tuple(CentralDecl(n, p) for n, p in centrals), {},
    )
    for cname, parity in centrals:
        acts = None
        if cname in pending_acts:
            poly = parse_conformal_scalar(pending_acts[cname], bare)
            acts = poly
        central_decls.append(CentralDecl(cname, parity, acts))

    skeleton = AlgebraPresentation(
        name, parameters, tuple(generators), tuple(central_decls), {}
    )
    table = {}
    for a, b, chunk, tok in bracket_statements:
        text_chunk = _tokens_to_text(chunk)
        try:
            poly = parse_conformal_expr(text_chunk, skeleton)
        except (UndeclaredSymbolError, PresentationError) as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc
        for gen in (a, b):
            if not skeleton.is_generator(gen):
                raise ParseError(
                    f"undeclared generator {gen!r} in bracket", tok.line, tok.col
                )
        if skeleton.index(a) <= skeleton.index(b):
            table[(a, b)] = poly
        else:
            sign = -skeleton.parity(a).sign_with(skeleton.parity(b))
            table[(b, a)] = substitute_skew(poly).scale(sign)
    try:
        return AlgebraPresentation(
            name, parameters, tuple(generators), tuple(central_decls), table
        )
    except (PresentationError, UndeclaredSymbolError) as exc:
        raise ParseError(str(exc)) from exc


def parse_conformal_scalar(text: str, alg: AlgebraPresentation) -> Scalar:
    """Parse a lambda-free, generator-free scalar expression."""
    ts = TokenStream(text)
    value = _ConformalExprParser(ts, alg).expr()
    tok = ts.peek()
    if not ts.at_end():
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    if value.kind != "scalar" or value.data.degree("lambda") > 0:
        raise ParseError("expected a scalar expression", 1, 1)
    return value.data.coefficient((0,), Scalar.zero())


def _tokens_to_text(tokens) -> str:
    parts = []
    for tok in tokens:
        parts.append(tok.text)
    return " ".join(parts)
