"""Canonical values of vacalc results, for comparing outputs with references.

Outputs are compared as values, not as rendered text.  Every result is
reduced to a sorted list of ``[degree, basis, coefficient]`` triples:

* ``degree`` is the power of ``lambda`` (brackets), the pole index ``j`` of
  ``1/(z-w)^(j+1)`` (OPEs), or 0;
* ``basis`` names a canonical word (``"w:L^0 G^1"``), the vacuum (``"vac"``)
  or a Fourier mode (``"m:weight:L:<index>"``);
* ``coefficient`` is a polynomial in the parameters, a sorted list of
  ``[monomial, rational]`` strings.

A central that the algebra pins to a scalar (``C acts c``) is replaced by
that scalar times the vacuum, so the conformal and the vertex renderings of
one value agree.  Text, OPE and JSON outputs all reduce to this form, and so
do the library objects of :mod:`vacalc.formal_dist` through their
``to_json`` methods.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

# -- polynomials: {monomial: Fraction}, monomial = sorted ((name, exp), ...) --


def _padd(p, q, sign=1):
    out = dict(p)
    for mono, coeff in q.items():
        new = out.get(mono, 0) + sign * coeff
        if new:
            out[mono] = new
        else:
            out.pop(mono, None)
    return out


def _pmul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            mono = tuple(sorted(exps.items()))
            new = out.get(mono, 0) + c1 * c2
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
    return out


def _pconst(q):
    q = Fraction(q)
    return {(): q} if q else {}


def poly_key(p) -> list:
    return sorted(
        ["*".join(f"{n}^{e}" for n, e in mono), str(c)] for mono, c in p.items()
    )


# -- values: {(degree, basis or None): poly}; None marks a bare scalar ----------


def _vadd(a, b, sign=1):
    out = dict(a)
    for key, p in b.items():
        new = _padd(out.get(key, {}), p, sign)
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def _vmul(a, b):
    out = {}
    for (da, ba), pa in a.items():
        for (db, bb), pb in b.items():
            if ba is not None and bb is not None:
                raise ValueError("product of two basis elements")
            key = (da + db, ba if ba is not None else bb)
            out = _vadd(out, {key: _pmul(pa, pb)})
    return out


def _vscalar(p):
    return {(0, None): p} if p else {}


def value_key(v) -> list:
    """The canonical, JSON-ready form of a value; a bare scalar is a
    multiple of the vacuum."""
    merged = {}
    for (deg, basis), p in v.items():
        merged = _vadd(merged, {(deg, basis or "vac"): p})
    return [[deg, basis, poly_key(p)] for (deg, basis), p in sorted(merged.items())]


def word_basis(atoms) -> str:
    return "w:" + " ".join(f"{g}^{d}" for g, d in atoms)


# -- text parsing ---------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<mode>[A-Za-z][A-Za-z0-9]*_(?:\{[^{}]*\}|\([^()]*\)|[A-Za-z0-9]))"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<sym>[-+*/^():]))"
)


def _tokenize(text):
    tokens, pos = [], 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot tokenize {text[pos:pos + 20]!r}")
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))
        pos = m.end()
    tokens.append(("end", ""))
    return tokens


class _TextParser:
    """Recursive descent over vacalc's parseable text output."""

    def __init__(self, text, params, pinned):
        self.toks = _tokenize(text)
        self.pos = 0
        self.params = params
        self.pinned = pinned

    def peek(self):
        return self.toks[self.pos]

    def accept(self, text):
        if self.toks[self.pos] == ("sym", text):
            self.pos += 1
            return True
        return False

    def expect(self, text):
        if not self.accept(text):
            raise ValueError(f"expected {text!r}, got {self.peek()[1]!r}")

    def parse(self):
        value = self.expr()
        if self.peek()[0] != "end":
            raise ValueError(f"trailing input {self.peek()[1]!r}")
        return value

    def expr(self):
        negate = self.accept("-")
        value = self.term()
        if negate:
            value = _vadd({}, value, -1)
        while True:
            if self.accept("+"):
                value = _vadd(value, self.term())
            elif self.accept("-"):
                value = _vadd(value, self.term(), -1)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            if self.accept("*"):
                value = _vmul(value, self.factor())
            elif self.accept("/"):
                div = self.factor()
                if set(div) != {(0, None)} or set(div[(0, None)]) != {()}:
                    raise ValueError("division by a non-constant")
                value = _vmul(value, _vscalar(_pconst(1 / div[(0, None)][()])))
            else:
                return value

    def factor(self):
        value = self.atom()
        if self.accept("^"):
            kind, text = self.peek()
            if kind != "int":
                raise ValueError("expected an integer exponent")
            self.pos += 1
            out = _vscalar(_pconst(1))
            for _ in range(int(text)):
                out = _vmul(out, value)
            value = out
        return value

    def gen_atom(self):
        kind, text = self.peek()
        if kind != "name":
            raise ValueError(f"expected a generator, got {text!r}")
        self.pos += 1
        if text != "d":
            return (text, 0)
        power = 1
        if self.accept("^"):
            power = int(self.peek()[1])
            self.pos += 1
        self.expect("(")
        inner = self.peek()[1]
        self.pos += 1
        self.expect(")")
        return (inner, power)

    def word(self):
        # Canonical words are right-nested: ':' atom (atom | word) ':'.
        head = self.gen_atom()
        if self.accept(":"):
            tail = self.word()
        else:
            tail = [self.gen_atom()]
        self.expect(":")
        return [head] + tail

    def atom(self):
        kind, text = self.peek()
        if kind == "int":
            self.pos += 1
            return _vscalar(_pconst(int(text)))
        if self.accept("("):
            value = self.expr()
            self.expect(")")
            return value
        if self.accept(":"):
            return {(0, word_basis(self.word())): _pconst(1)}
        if kind == "mode":
            self.pos += 1
            return {(0, mode_basis(text, self.params)): _pconst(1)}
        if kind == "name":
            if text == "lambda":
                self.pos += 1
                return {(1, None): _pconst(1)}
            if text == "vac":
                self.pos += 1
                return {(0, "vac"): _pconst(1)}
            if text in self.params:
                self.pos += 1
                return _vscalar({((text, 1),): Fraction(1)})
            if text in self.pinned:
                self.pos += 1
                return {(0, "vac"): scalar_poly(self.pinned[text], self.params)}
            return {(0, word_basis([self.gen_atom()])): _pconst(1)}
        raise ValueError(f"unexpected {text!r}")


def scalar_poly(text, params=None):
    """A scalar expression in the parameters as a polynomial dict."""
    names = set(params or ()) | set(re.findall(r"[A-Za-z][A-Za-z0-9]*", text))
    value = _TextParser(text, names, {}).parse()
    if set(value) - {(0, None)}:
        raise ValueError(f"not a scalar: {text!r}")
    return value.get((0, None), {})


def mode_basis(token, params) -> str:
    gen, _, idx = token.partition("_")
    indexing = "weight"
    if idx.startswith("{"):
        idx = idx[1:-1]
    elif idx.startswith("("):
        idx, indexing = idx[1:-1], "shifted"
    return f"m:{indexing}:{gen}:{poly_key(scalar_poly(idx, params))}"


def parse_text(text, params, pinned):
    """Canonical value of a text rendering (bracket, element or modes)."""
    return value_key(_TextParser(text, params, pinned).parse())


_POLE = re.compile(r"/\(z-w\)(?:\^(\d+))?$")


def _split_top(text, sep):
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            i += len(sep)
            start = i
            continue
        i += 1
    parts.append(text[start:])
    return parts


def parse_ope(text, params, pinned):
    """Canonical value of ``a(z)b(w) ~ sum_j X_j(w)/(z-w)^(j+1)``: degree j
    carries the product ``a_(j) b``."""
    _, sep, rhs = text.partition(" ~ ")
    if not sep:
        raise ValueError("not an OPE")
    total = {}
    if rhs.strip() == "0":
        return []
    for piece in _split_top(rhs.strip(), " + "):
        m = _POLE.search(piece)
        if not m:
            raise ValueError(f"no pole in {piece!r}")
        j = int(m.group(1) or 1) - 1
        body = piece[: m.start()].removesuffix("(w)")  # a bare scalar is a vacuum multiple
        value = _TextParser(body, params, pinned).parse()
        shifted = {(d + j, b): p for (d, b), p in value.items()}
        total = _vadd(total, shifted)
    return value_key(total)


# -- JSON payloads (schema version 1) ---------------------------------------------


def json_scalar(items):
    p = {}
    for item in items:
        mono = tuple(sorted((n, int(e)) for n, e in item["monomial"].items()))
        p = _padd(p, {mono: Fraction(item["coeff"])})
    return p


def _json_element(elem, pinned, params):
    out = {}
    if "words" in elem:
        for w in elem["words"]:
            out = _vadd(out, {(0, word_basis(w["atoms"])): json_scalar(w["coeff"])})
        out = _vadd(out, {(0, "vac"): json_scalar(elem.get("vacuum", []))})
    else:
        for t in elem["terms"]:
            key = (0, word_basis([(t["generator"], t["dpow"])]))
            out = _vadd(out, {key: json_scalar(t["coeff"])})
    return _vadd(out, _json_centrals(elem.get("centrals", {}), pinned, params))


def _json_centrals(centrals, pinned, params):
    out = {}
    for cid, coeff in centrals.items():
        p = json_scalar(coeff)
        if cid in pinned:
            out = _vadd(out, {(0, "vac"): _pmul(p, scalar_poly(pinned[cid], params))})
        else:
            out = _vadd(out, {(0, f"central:{cid}"): p})
    return out


def parse_json(text, params, pinned):
    """Canonical value of a ``--format json`` payload."""
    result = json.loads(text)["result"]
    if isinstance(result, str):
        return ["str", result]
    if isinstance(result, dict) and "passed" in result:
        return check_key(result["report"])
    if isinstance(result, dict) and "variables" in result:
        total = {}
        for term in result["terms"]:
            value = _json_element(term["value"], pinned, params)
            deg = term["exponents"][0]
            total = _vadd(total, {(d + deg, b): p for (d, b), p in value.items()})
        return value_key(total)
    if isinstance(result, dict) and "modes" in result:
        total = {}
        for m in result["modes"]:
            basis = f"m:{m['indexing']}:{m['generator']}:{poly_key(json_scalar(m['index']))}"
            total = _vadd(total, {(0, basis): json_scalar(m["coeff"])})
        return value_key(_vadd(total, _json_centrals(result["centrals"], pinned, params)))
    return value_key(_json_element(result, pinned, params))


_CHECK = re.compile(r"check (\S+) on (\S+): (ok|FAIL) \((\d+) identit")


def check_key(report_text):
    m = _CHECK.match(report_text.strip())
    if not m:
        raise ValueError(f"not a check report: {report_text[:60]!r}")
    return ["check", m.group(1), m.group(3) == "ok", int(m.group(4))]


def cli_value(kind, fmt, stdout, params, pinned):
    """Canonical value of a CLI output, chosen by query kind and format."""
    text = stdout.strip()
    if kind == "ope" or (kind == "bracket" and fmt == "ope"):
        return parse_ope(text, params, pinned)
    if fmt == "json":
        return parse_json(text, params, pinned)
    if kind == "check":
        return check_key(text)
    if kind in ("weight", "primary"):
        return ["str", text]
    return parse_text(text, params, pinned)


# -- library objects ------------------------------------------------------------------


def _canon_json(obj):
    """Scalar strings under ``coeff`` become polynomials; lists are sorted."""
    if isinstance(obj, dict):
        return {
            k: poly_key(scalar_poly(v)) if k == "coeff" and isinstance(v, str) else _canon_json(v)
            for k, v in obj.items()
        }
    if isinstance(obj, list):
        return sorted((_canon_json(x) for x in obj), key=lambda x: json.dumps(x, sort_keys=True))
    return obj


def library_value(obj):
    """Canonical value of a formal_dist or mode_algebra result object."""
    if hasattr(obj, "to_json"):
        return _canon_json(obj.to_json())
    if isinstance(obj, (list, tuple)):
        return [library_value(x) for x in obj]
    if hasattr(obj, "coeffs") and hasattr(obj, "variables"):  # BracketPoly
        return [[list(e), library_value(v)] for e, v in obj.terms()]
    if hasattr(obj, "central") and hasattr(obj, "terms"):  # ModeExpression
        from vacalc.frontend.render import mode_to_json

        return parse_json(json.dumps({"result": mode_to_json(obj)}), (), {})
    return str(obj)
