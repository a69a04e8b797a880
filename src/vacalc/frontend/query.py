"""Query dispatch shared by the CLI and tests."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .. import mode_algebra, vertex_calc as vx
from ..lie_conformal import (
    AlgebraPresentation,
    VacalcError,
    check_jacobi,
    check_skew,
    j_products,
    lambda_bracket,
)
from .parser import ParseError, parse_element, parse_vertex_expr
from .render import render_ope, render_result

CHECK_NAMES = ("skew", "jacobi", "borcherds", "mode-jacobi")
QUERY_KINDS = ("bracket", "nproduct", "ope", "modes", "check", "weight", "primary")


@dataclass(frozen=True)
class Query:
    kind: str
    args: tuple

    def __str__(self):
        return " ".join((self.kind,) + self.args)


def parse_query(args) -> Query:
    if not args:
        raise ParseError("empty query")
    kind, rest = args[0], tuple(args[1:])
    if kind not in QUERY_KINDS:
        raise ParseError(
            f"unknown query {kind!r}", expected=QUERY_KINDS
        )
    arity = {
        "bracket": 2, "nproduct": 3, "ope": 2, "modes": 2,
        "weight": 1, "primary": 1,
    }
    if kind == "check":
        if len(rest) != 1 or rest[0] not in CHECK_NAMES:
            raise ParseError(
                "check takes one of: " + ", ".join(CHECK_NAMES)
            )
    elif len(rest) != arity[kind]:
        raise ParseError(f"query {kind} takes {arity[kind]} argument(s)")
    return Query(kind, rest)


def _parse_mode_ref(text: str):
    """``L_2``, ``L_-2``, ``L_{-2}``, ``G_{1/2}`` -> (generator, Fraction index)."""
    text = text.strip()
    if "_{" in text and text.endswith("}"):
        name, _, idx = text.partition("_{")
        idx = idx[:-1]
    else:
        name, _, idx = text.rpartition("_")
    try:
        index = Fraction(idx)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad mode index in {text!r}") from None
    if not name:
        raise ParseError(f"bad mode reference {text!r}")
    return name, index


def _try_conformal(text: str, alg: AlgebraPresentation):
    try:
        return parse_element(text, alg)
    except ParseError:
        return None


def _conformal_vector(alg: AlgebraPresentation) -> vx.VertexElement:
    if alg.is_generator("L"):
        return vx.state(alg, "L")
    if getattr(alg, "bilinear_form", None) is not None:
        return vx.fermion_conformal_vector(alg)
    raise VacalcError(
        "no Virasoro-type state available: declare a generator L"
    )


def run_query(
    query: Query,
    alg: AlgebraPresentation,
    fmt: str = "text",
    index_range: int = 2,
    max_lambda_degree=None,
):
    """Execute a query; returns (rendered output, exit code)."""
    if fmt == "ope" and query.kind not in ("bracket", "ope", "check"):
        raise VacalcError(
            f"--format ope applies to bracket and ope queries, not to {query.kind}"
        )
    if max_lambda_degree is not None:
        vx.engine(alg, max_lambda_degree=max_lambda_degree)
    exit_code = 0

    if query.kind in ("bracket", "ope"):
        xa = _try_conformal(query.args[0], alg)
        xb = _try_conformal(query.args[1], alg)
        if xa is not None and xb is not None:
            if query.kind == "bracket" and fmt != "ope":
                result = lambda_bracket(xa, xb, alg)
                return render_result(result, fmt, alg.name, str(query)), 0
            products = j_products(xa, xb, alg)
            return render_ope(query.args[0], query.args[1], products, alg), 0
        va = parse_vertex_expr(query.args[0], alg)
        vb = parse_vertex_expr(query.args[1], alg)
        if query.kind == "bracket" and fmt != "ope":
            result = vx.wick_bracket(va, vb, alg)
            return render_result(result, fmt, alg.name, str(query)), 0
        products = vx.vertex_jproducts(va, vb, alg)
        return render_ope(query.args[0], query.args[1], products, alg), 0

    if query.kind == "nproduct":
        va = parse_vertex_expr(query.args[0], alg)
        try:
            n = int(query.args[1])
        except ValueError:
            raise ParseError(f"nproduct index must be an integer, got {query.args[1]!r}")
        vb = parse_vertex_expr(query.args[2], alg)
        result = vx.nproduct(va, n, vb, alg)
        return render_result(result, fmt, alg.name, str(query)), 0

    if query.kind == "modes":
        (ga, ia) = _parse_mode_ref(query.args[0])
        (gb, ib) = _parse_mode_ref(query.args[1])
        weights = [g.weight for g in alg.generators]
        indexing = (
            mode_algebra.WEIGHT
            if all(w is not None for w in weights)
            else mode_algebra.SHIFTED
        )
        result = mode_algebra.mode_commutator(ga, ia, gb, ib, alg, indexing)
        return render_result(result, fmt, alg.name, str(query)), 0

    if query.kind == "check":
        name = query.args[0]
        if name == "skew":
            report = check_skew(alg)
        elif name == "jacobi":
            report = check_jacobi(alg)
        elif name == "mode-jacobi":
            report = mode_algebra.verify_mode_jacobi(alg, index_range)
        else:
            report = vx.borcherds_sweep(alg, index_range)
        exit_code = 0 if report.passed else 1
        if fmt == "json":
            return render_result(report, "json", alg.name, str(query)), exit_code
        return str(report), exit_code

    if query.kind == "weight":
        v = parse_vertex_expr(query.args[0], alg)
        table = alg.weight_table()
        value = vx.weight(v, table)
        text = "inhomogeneous" if value is None else str(value)
        return render_result(text, fmt, alg.name, str(query)), 0

    if query.kind == "primary":
        name = query.args[0]
        L = _conformal_vector(alg)
        result = vx.primary_check(name, L, alg)
        return render_result(str(result), fmt, alg.name, str(query)), 0

    raise ParseError(f"unknown query {query.kind!r}")

