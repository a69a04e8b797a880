"""Rendering backends: parseable text, LaTeX, JSON, and the physics-style
operator product expansion."""

from __future__ import annotations

import json
from fractions import Fraction

from ..lie_conformal import AlgebraPresentation, ConformalElement
from ..mode_algebra import ModeExpression
from ..poly import BracketPoly
from ..scalar import Scalar
from ..vertex_calc import VertexElement

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# text
# ---------------------------------------------------------------------------


def _scalar_prefix(value: Scalar):
    """Split a scalar into (sign, text or None); None means factor 1."""
    text = str(value)
    sign = "+"
    if text.startswith("-") and " " not in text:
        sign, text = "-", text[1:]
    elif " " in text:
        return "+", f"({text})"
    if text == "1":
        return sign, None
    return sign, text


def _format_terms(pieces) -> str:
    """Join (sign, text) pieces into a sum."""
    if not pieces:
        return "0"
    sign, text = pieces[0]
    out = ("-" if sign == "-" else "") + text
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


def _lambda_factor(var: str, k: int):
    if k == 0:
        return None
    if k == 1:
        return var
    return f"{var}^{k}"


def _element_pieces(elem, lam=None):
    """(sign, text) pieces of an element, each woven with a lambda factor."""
    pieces = []
    if isinstance(elem, ConformalElement):
        heads = [
            (("term", key), _atom_text(key), value)
            for key, value in sorted(elem.terms.items())
        ]
        heads += [
            (("central", cid), cid, value)
            for cid, value in sorted(elem.central.items())
        ]
    else:
        heads = [
            (("word", w.atoms), str(w), value)
            for w, value in sorted(elem.words.items(), key=lambda kv: (len(kv[0]), kv[0].atoms))
        ]
        if not elem.vacuum.is_zero():
            heads.append((("vac",), "vac", elem.vacuum))
        heads += [
            (("central", cid), cid, value)
            for cid, value in sorted(elem.centrals.items())
        ]
    for _, head, value in heads:
        sign, prefix = _scalar_prefix(value)
        factors = [x for x in (prefix, lam, head) if x]
        pieces.append((sign, "*".join(factors)))
    return pieces


def _atom_text(key) -> str:
    gen, dpow = key
    if dpow == 0:
        return gen
    if dpow == 1:
        return f"d({gen})"
    return f"d^{dpow}({gen})"


def render_element_text(elem) -> str:
    return _format_terms(_element_pieces(elem))


def render_poly_text(poly: BracketPoly, variables=None) -> str:
    """A bracket polynomial in parseable text, lowest degree first."""
    names = variables or poly.variables
    pieces = []
    for exps, value in poly.terms():
        factors = [
            _lambda_factor(name, k) for name, k in zip(names, exps)
        ]
        lam = "*".join(f for f in factors if f) or None
        if isinstance(value, Scalar):
            sign, prefix = _scalar_prefix(value)
            text_factors = [x for x in (prefix, lam) if x]
            pieces.append((sign, "*".join(text_factors) or "1"))
        else:
            pieces.extend(_element_pieces(value, lam))
    return _format_terms(pieces)


def render_mode_text(expr: ModeExpression) -> str:
    return str(expr)


# ---------------------------------------------------------------------------
# OPE
# ---------------------------------------------------------------------------


def _pin_centrals(elem, alg: AlgebraPresentation):
    """Split into (element without pinned centrals, pinned scalar part).  A
    state has its pinned centrals in the vacuum already, so its vacuum
    coefficient is the scalar part."""
    if isinstance(elem, VertexElement):
        return VertexElement(alg, words=elem.words, centrals=elem.centrals), elem.vacuum
    scal = Scalar.zero()
    rest_central = {}
    for cid, value in elem.central.items():
        acts = alg.acts_as(cid)
        if acts is not None:
            scal = scal + value * acts
        else:
            rest_central[cid] = value
    return ConformalElement(terms=elem.terms, central=rest_central), scal


def _ope_scalar_text(value: Scalar) -> str:
    """Scalars in the OPE read like c/2: numerator monomials over denominator."""
    terms = list(value.terms())
    if len(terms) != 1:
        return f"({str(value)})"
    mono, coeff = terms[0]
    body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in mono)
    num = abs(coeff.numerator)
    parts = []
    if num != 1 or not body:
        parts.append(str(num))
    if body:
        parts.append(body)
    text = "*".join(parts)
    if coeff.denominator != 1:
        text = f"{text}/{coeff.denominator}"
    if coeff < 0:
        text = f"-{text}"
    return f"({text})"


def render_ope(a_name: str, b_name: str, products, alg: AlgebraPresentation) -> str:
    """``a(z)b(w) ~ sum_j (a_(j)b)(w) / (z-w)^(j+1)``, singular part only,
    highest pole first, pinned centrals replaced by their scalars."""
    pieces = []
    for j, elem in sorted(products, reverse=True):
        elem, scal = _pin_centrals(elem, alg)
        pole = "(z-w)" if j == 0 else f"(z-w)^{j + 1}"
        if not scal.is_zero():
            pieces.append(f"{_ope_scalar_text(scal)}/{pole}")
        if not elem.is_zero():
            body = _element_pieces(elem)
            if len(body) == 1 and body[0][0] == "+":
                text = body[0][1]
            else:
                text = f"({_format_terms(body)})"
            pieces.append(f"{text}(w)/{pole}")
    rhs = " + ".join(pieces) if pieces else "0"
    return f"{a_name}(z){b_name}(w) ~ {rhs}"


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------


def _latex_scalar(value: Scalar) -> str:
    text = str(value)
    replacements = {"*": " ", "lambda": r"\lambda"}
    for old, new in replacements.items():
        text = text.replace(old, new)
    return text


def _latex_head(head: str) -> str:
    out = head.replace("d(", r"\partial(").replace("d^", r"\partial^")
    out = out.replace("vac", r"|0\rangle")
    out = out.replace(":", r"{:}")
    return out


def render_poly_latex(poly: BracketPoly) -> str:
    text = render_poly_text(poly)
    out = text.replace("lambda", r"\lambda").replace("mu", r"\mu")
    out = out.replace("d(", r"\partial(").replace("d^", r"\partial^")
    out = out.replace("vac", r"|0\rangle")
    out = out.replace("*", r"\,")
    return out


def render_latex(obj) -> str:
    if isinstance(obj, BracketPoly):
        return render_poly_latex(obj)
    text = obj if isinstance(obj, str) else render_text(obj)
    out = text.replace("lambda", r"\lambda")
    out = out.replace("d(", r"\partial(").replace("d^", r"\partial^")
    out = out.replace("vac", r"|0\rangle")
    out = out.replace("*", r"\,")
    return out


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def scalar_to_json(value: Scalar):
    return [
        {"monomial": {name: exp for name, exp in mono}, "coeff": str(coeff)}
        for mono, coeff in value.terms()
    ]


def element_to_json(elem):
    if isinstance(elem, ConformalElement):
        return {
            "terms": [
                {"generator": g, "dpow": d, "coeff": scalar_to_json(v)}
                for (g, d), v in sorted(elem.terms.items())
            ],
            "centrals": {
                cid: scalar_to_json(v) for cid, v in sorted(elem.central.items())
            },
        }
    if isinstance(elem, VertexElement):
        return {
            "words": [
                {
                    "atoms": [[g, d] for g, d in w.atoms],
                    "coeff": scalar_to_json(v),
                }
                for w, v in sorted(
                    elem.words.items(), key=lambda kv: (len(kv[0]), kv[0].atoms)
                )
            ],
            "vacuum": scalar_to_json(elem.vacuum),
            "centrals": {
                cid: scalar_to_json(v) for cid, v in sorted(elem.centrals.items())
            },
        }
    if isinstance(elem, Scalar):
        return scalar_to_json(elem)
    raise TypeError(f"cannot serialize {type(elem).__name__}")


def poly_to_json(poly: BracketPoly):
    return {
        "variables": list(poly.variables),
        "terms": [
            {"exponents": list(exps), "value": element_to_json(v)}
            for exps, v in poly.terms()
        ],
    }


def mode_to_json(expr: ModeExpression):
    return {
        "modes": [
            {
                "generator": sym.gen,
                "index": scalar_to_json(sym.index),
                "indexing": sym.indexing,
                "coeff": scalar_to_json(v),
            }
            for sym, v in sorted(
                expr.terms.items(), key=lambda kv: (kv[0].gen, str(kv[0].index))
            )
        ],
        "centrals": {
            cid: scalar_to_json(v) for cid, v in sorted(expr.central.items())
        },
    }


def to_json_payload(result, algebra: str, query: str):
    if isinstance(result, BracketPoly):
        body = poly_to_json(result)
    elif isinstance(result, (ConformalElement, VertexElement)):
        body = element_to_json(result)
    elif isinstance(result, ModeExpression):
        body = mode_to_json(result)
    elif isinstance(result, (str, int, bool)):
        body = result
    elif isinstance(result, Fraction):
        body = str(result)
    elif result is None:
        body = None
    elif hasattr(result, "passed"):
        body = {"passed": result.passed, "report": str(result)}
    else:
        body = str(result)
    return json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "algebra": algebra,
            "query": query,
            "result": body,
        },
        sort_keys=True,
        indent=2,
    )


# ---------------------------------------------------------------------------
# generic text + definitions
# ---------------------------------------------------------------------------


def render_text(obj) -> str:
    if isinstance(obj, BracketPoly):
        return render_poly_text(obj)
    if isinstance(obj, (ConformalElement, VertexElement)):
        return render_element_text(obj)
    if isinstance(obj, ModeExpression):
        return render_mode_text(obj)
    return str(obj)


def render_result(result, fmt: str, algebra: str = "", query: str = "") -> str:
    if fmt == "text":
        return render_text(result)
    if fmt == "latex":
        return render_latex(result)
    if fmt == "json":
        return to_json_payload(result, algebra, query)
    raise ValueError(f"unknown format {fmt!r}")


def render_definition(alg: AlgebraPresentation) -> str:
    """Definition-file text whose parse equals the presentation."""
    lines = [f"algebra {alg.name} {{"]
    if alg.parameters:
        lines.append(f"  param {', '.join(alg.parameters)};")
    for g in alg.generators:
        decl = f"  generator {g.name} : {g.parity}"
        if g.weight is not None:
            decl += f", weight {g.weight}"
        lines.append(decl + ";")
    for c in alg.centrals:
        decl = f"  central {c.name} : {c.parity}"
        if c.acts_as is not None:
            decl += f" acts {c.acts_as}"
        lines.append(decl + ";")
    for (a, b), poly in sorted(
        alg.table.items(), key=lambda kv: (alg.index(kv[0][0]), alg.index(kv[0][1]))
    ):
        lines.append(f"  bracket [{a}, {b}] = {render_poly_text(poly)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
