"""Rendering backends: parseable text, LaTeX, JSON, and the physics-style
operator product expansion."""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from ..lie_conformal import AlgebraPresentation, VacalcError
from ..mode_algebra import ModeExpression
from ..poly import BracketPoly
from ..scalar import Scalar, format_sum, monomial_text
from ..vertex_calc import VertexElement

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# OPE
# ---------------------------------------------------------------------------


def _ope_scalar_text(value: Scalar) -> str:
    """Scalars in the OPE read like c/2: numerator monomials over denominator."""
    terms = list(value.terms())
    if len(terms) != 1:
        return f"({str(value)})"
    mono, coeff = terms[0]
    body = monomial_text(mono)
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


def render_ope(a_name: str, b_name: str, products) -> str:
    """``a(z)b(w) ~ sum_j (a_(j)b)(w) / (z-w)^(j+1)``, singular part only,
    highest pole first, pinned centrals replaced by their scalars."""
    pieces = []
    for j, elem in sorted(products, reverse=True):
        elem = elem.folded()
        scal = elem.vacuum
        elem = VertexElement(elem.alg, words=elem.words, centrals=elem.centrals)
        pole = "(z-w)" if j == 0 else f"(z-w)^{j + 1}"
        if not scal.is_zero():
            pieces.append(f"{_ope_scalar_text(scal)}/{pole}")
        if not elem.is_zero():
            body = elem.sum_terms()
            if len(body) == 1 and body[0][0] == "+":
                text = body[0][1]
            else:
                text = f"({format_sum(body)})"
            pieces.append(f"{text}(w)/{pole}")
    rhs = " + ".join(pieces) if pieces else "0"
    return f"{a_name}(z){b_name}(w) ~ {rhs}"


# ---------------------------------------------------------------------------
# LaTeX
# ---------------------------------------------------------------------------

# Only whole identifiers are rewritten, and the parser reserves these names,
# so a match is always the bracket variable, the vacuum or the derivation.
_LATEX = {"lambda": r"\lambda", "vac": r"|0\rangle", "d": r"\partial", "*": r"\,"}
_LATEX_TOKEN = re.compile(r"\b(?:lambda|vac)\b|\bd(?=[(^])|\*")


def render_latex(obj) -> str:
    return _LATEX_TOKEN.sub(lambda m: _LATEX[m.group()], str(obj))


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def scalar_to_json(value: Scalar):
    return [
        {"monomial": {name: exp for name, exp in mono}, "coeff": str(coeff)}
        for mono, coeff in value.terms()
    ]


def element_to_json(elem):
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
    elif isinstance(result, VertexElement):
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
# results and definitions
# ---------------------------------------------------------------------------


def render_result(result, fmt: str, algebra: str = "", query: str = "") -> str:
    if fmt not in ("text", "latex", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    try:
        if fmt == "json":
            return to_json_payload(result, algebra, query)
        return render_latex(result) if fmt == "latex" else str(result)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise VacalcError(
            "cannot print the result: it has a number of more than "
            f"{sys.get_int_max_str_digits()} digits, Python's limit for "
            "converting integers to text"
        ) from None


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
        lines.append(f"  bracket [{a}, {b}] = {poly};")
    lines.append("}")
    return "\n".join(lines) + "\n"
