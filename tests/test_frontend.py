import json
import sys
from fractions import Fraction
from itertools import permutations, product

import pytest

from vacalc.frontend import (
    ParseError,
    parse_definition,
    parse_query,
    render_definition,
    run_query,
)
from vacalc.frontend.cli import main
from vacalc.frontend.parser import parse_conformal_expr, parse_vertex_expr
from vacalc.lie_conformal import (
    GeneratorDecl,
    Parity,
    builtin,
    check_jacobi,
    check_skew,
    current_algebra,
    lambda_bracket,
    neveu_schwarz,
    virasoro,
)
from vacalc.mode_algebra import verify_mode_jacobi
from vacalc.scalar import Scalar, factorial
from vacalc import vertex_calc as vx
from vacalc.vertex_calc import EngineLimitError

VIRASORO_FILE = """
algebra virasoro {
  param c;
  generator L : even, weight 2;
  central C : even acts c;
  bracket [L, L] = d(L) + 2*lambda*L + (lambda^3/12)*C;
}
"""

NS_REVERSED_FILE = """
# the mixed bracket is declared in the reversed order on purpose
algebra ns2 {
  param c;
  generator L : even, weight 2;
  generator G : odd, weight 3/2;
  central C : even acts c;
  bracket [L, L] = d(L) + 2*lambda*L + (lambda^3/12)*C;
  bracket [G, L] = (1/2)*d(G) + (3/2)*lambda*G;
  bracket [G, G] = L + (lambda^2/6)*C;
}
"""


def test_parse_virasoro_file():
    alg = parse_definition(VIRASORO_FILE)
    assert alg == virasoro()
    assert check_skew(alg).passed and check_jacobi(alg).passed


def test_reversed_bracket_normalized():
    alg = parse_definition(NS_REVERSED_FILE)
    reference = neveu_schwarz()
    for key in reference.table:
        assert alg.table[key] == reference.table[key], key


def test_round_trip_builtins():
    for name in ("virasoro", "neveu_schwarz", "free_fermion", "free_boson", "current_sl2"):
        alg = builtin(name)
        assert parse_definition(render_definition(alg)) == alg


def test_duplicate_bracket_rejected():
    bad = VIRASORO_FILE.replace(
        "}", "  bracket [L, L] = lambda*L;\n}"
    )
    with pytest.raises(ParseError, match="duplicate bracket"):
        parse_definition(bad)


def test_undeclared_symbol_named_in_diagnostic():
    bad = VIRASORO_FILE.replace("2*lambda*L", "2*lambda*M")
    with pytest.raises(ParseError, match="'M'"):
        parse_definition(bad)


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_definition("algebra x {\n  param ;\n}")
    assert err.value.line == 2


def test_parity_mismatch_in_rhs_rejected():
    bad = NS_REVERSED_FILE.replace(
        "bracket [G, G] = L + (lambda^2/6)*C;",
        "bracket [G, G] = G;",
    )
    with pytest.raises(ParseError, match="parity"):
        parse_definition(bad)


def test_expression_parsing(vir, fermion2):
    e = parse_conformal_expr("d^2(L) - 3*L", vir).coefficient((0,), None)
    assert e == vir.gen("L", 2).add(vir.gen("L").scale(-3))
    v = parse_vertex_expr(":d(psi1) psi1: + 2*vac", fermion2)
    expected = vx.normal_word(fermion2, [("psi1", 1), ("psi1", 0)]).add(
        vx.vacuum(fermion2).scale(2)
    )
    assert v == expected
    # sugar :a b c: is the right-nested :a :b c::
    lhs = parse_vertex_expr(":psi1 d(psi1) psi2:", fermion2)
    rhs = parse_vertex_expr(":psi1 :d(psi1) psi2::", fermion2)
    assert lhs == rhs


def test_query_bracket_text(vir):
    out, code = run_query(parse_query(["bracket", "L", "L"]), vir)
    assert code == 0
    assert out == "d(L) + 2*lambda*L + 1/12*lambda^3*C"


def test_query_bracket_round_trips_through_parser(vir):
    out, _ = run_query(parse_query(["bracket", "L", "L"]), vir)
    assert parse_conformal_expr(out, vir) == lambda_bracket(
        vir.gen("L"), vir.gen("L"), vir
    )


def test_query_ope(vir):
    out, code = run_query(parse_query(["ope", "L", "L"]), vir)
    assert code == 0
    assert out == "L(z)L(w) ~ (c/2)/(z-w)^4 + 2*L(w)/(z-w)^2 + d(L)(w)/(z-w)"


def test_query_ope_ns_suite(ns):
    expected = {
        ("G", "G"): "G(z)G(w) ~ (c/3)/(z-w)^3 + L(w)/(z-w)",
        ("L", "G"): "L(z)G(w) ~ 3/2*G(w)/(z-w)^2 + d(G)(w)/(z-w)",
        ("G", "L"): "G(z)L(w) ~ 3/2*G(w)/(z-w)^2 + 1/2*d(G)(w)/(z-w)",
    }
    for (a, b), text in expected.items():
        out, code = run_query(parse_query(["ope", a, b]), ns)
        assert code == 0 and out == text


def test_query_modes(ns, vir):
    out, _ = run_query(parse_query(["modes", "G_{1/2}", "G_{-1/2}"]), ns)
    assert out == "L_0"
    out, _ = run_query(parse_query(["modes", "L_2", "L_{-2}"]), vir)
    assert out == "4*L_0 + 1/2*C"


def test_query_check_exit_codes(vir):
    out, code = run_query(parse_query(["check", "jacobi"]), vir)
    assert code == 0 and "ok" in out
    corrupted = parse_definition(
        VIRASORO_FILE.replace("2*lambda*L", "3*lambda*L")
    )
    out, code = run_query(parse_query(["check", "jacobi"]), corrupted)
    assert code == 1 and "FAIL" in out
    out, code = run_query(parse_query(["check", "skew"]), corrupted)
    assert code == 1 and "FAIL" in out


def test_query_weight_and_primary(fermion2):
    out, _ = run_query(parse_query(["weight", ":d(psi1) psi1:"]), fermion2)
    assert out == "2"
    out, _ = run_query(parse_query(["weight", "psi1 + :d(psi1) psi1:"]), fermion2)
    assert out == "inhomogeneous"
    out, _ = run_query(parse_query(["primary", "psi1"]), fermion2)
    assert out == "primary(1/2)"


def test_query_nproduct(fermion2):
    out, _ = run_query(parse_query(["nproduct", "psi1", "-2", "psi2"]), fermion2)
    assert out == ":d(psi1) psi2:"


def test_query_json_schema(vir):
    out, _ = run_query(parse_query(["bracket", "L", "L"]), vir, fmt="json")
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["algebra"] == "virasoro"
    degrees = [t["exponents"] for t in payload["result"]["terms"]]
    assert degrees == [[0], [1], [3]]


def test_query_latex(vir):
    out, _ = run_query(parse_query(["bracket", "L", "L"]), vir, fmt="latex")
    assert "\\lambda" in out and "\\partial" in out


def test_determinism(ns):
    runs = {
        run_query(parse_query(["bracket", "G", "L"]), neveu_schwarz())[0]
        for _ in range(3)
    }
    assert len(runs) == 1


def test_bad_queries_raise():
    with pytest.raises(ParseError):
        parse_query(["frobnicate", "x"])
    with pytest.raises(ParseError):
        parse_query(["bracket", "L"])
    with pytest.raises(ParseError):
        parse_query(["check", "nonsense"])


# -- one grammar for queries and definitions -------------------------------------

LINEAR_TEXTS = [
    ("virasoro", "d^2(L) - 3*L"),
    ("virasoro", "(c/2)*C + L"),
    ("virasoro", "T^2(L)/4 - c^2*d(L)"),
    ("neveu_schwarz", "T(G)"),
    ("neveu_schwarz", "(c + 1)*G - d^3(G)/6"),
    ("current_sl2", "-(1/2)*d(e) + k*h"),
    ("current_sl2", "e + (f - 2*K)*k"),
]


@pytest.mark.parametrize("name, text", LINEAR_TEXTS)
def test_query_and_statement_readings_agree(name, text):
    alg = builtin(name)
    poly = parse_conformal_expr(text, alg)
    assert poly.degree("lambda") == 0
    element = poly.coefficient((0,), None)
    assert parse_vertex_expr(text, alg) == vx.from_conformal(alg, element)


@pytest.mark.parametrize("text", ["L + 2", "d(2)", "L*L", "L/0", "L/c", "L^2"])
def test_hostile_expressions_rejected_in_both_contexts(vir, text):
    with pytest.raises(ParseError):
        parse_vertex_expr(text, vir)
    with pytest.raises(ParseError):
        parse_conformal_expr(text, vir)
    with pytest.raises(ParseError):
        parse_definition(VIRASORO_FILE.replace("2*lambda*L", f"({text})"))


def test_lambda_only_in_definitions_and_words_only_in_queries(vir):
    with pytest.raises(ParseError, match="lambda is reserved"):
        parse_vertex_expr("lambda*L", vir)
    for text in (":L L:", "vac"):
        with pytest.raises(ParseError, match="belongs in queries") as err:
            parse_definition(VIRASORO_FILE.replace("2*lambda*L", f"2*lambda*{text}"))
        assert err.value.line == 6  # the bracket statement's line
        with pytest.raises(ParseError):
            parse_conformal_expr(text, vir)


def test_linear_operands_bracket_at_the_conformal_level(vir):
    expected, _ = run_query(parse_query(["bracket", "L", "L"]), vir)
    assert expected == "d(L) + 2*lambda*L + 1/12*lambda^3*C"
    for operand in (":L vac:", "L + vac", "L + C - c*vac"):
        out, _ = run_query(parse_query(["bracket", "L", operand]), vir)
        assert out == expected


def test_lambda_degree_limit_applies_to_one_query():
    alg = virasoro()
    with pytest.raises(EngineLimitError):
        run_query(parse_query(["bracket", "L", ":L L:"]), alg, max_lambda_degree=2)
    L = vx.state(alg, "L")
    assert vx.wick_bracket(L, L, alg).degree("lambda") == 3


def test_mode_output_writes_unit_centrals_like_generators(sl2):
    query = parse_query(["modes", "e_-1", "f_1"])
    out, _ = run_query(query, sl2)
    assert out == "h_0 - K"
    payload = json.loads(run_query(query, sl2, fmt="json")[0])
    assert payload["result"]["centrals"] == {"K": [{"coeff": "-1", "monomial": {}}]}


# -- CLI ------------------------------------------------------------------------


def test_cli_success(capsys):
    code = main(["--builtin", "virasoro", "bracket", "L", "L"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "d(L) + 2*lambda*L + 1/12*lambda^3*C"
    assert captured.err == ""


def test_cli_number_past_the_digit_limit_is_a_usage_error(capsys):
    assert main(["--builtin", "virasoro", "nproduct", "L", "-2000", "L"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("vacalc: ") and str(sys.get_int_max_str_digits()) in line


def test_cli_negative_product_index(capsys):
    code = main(["--builtin", "free_fermion", "nproduct", "psi1", "-2", "psi2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == ":d(psi1) psi2:"


def test_cli_algebra_file(tmp_path, capsys):
    path = tmp_path / "vir.vac"
    path.write_text(VIRASORO_FILE, encoding="utf-8")
    code = main(["--algebra", str(path), "--format", "ope", "ope", "L", "L"])
    captured = capsys.readouterr()
    assert code == 0
    assert "(c/2)/(z-w)^4" in captured.out


def test_cli_check_failure_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.vac"
    path.write_text(
        VIRASORO_FILE.replace("2*lambda*L", "3*lambda*L"), encoding="utf-8"
    )
    code = main(["--algebra", str(path), "check", "skew"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out


def test_cli_usage_errors_to_stderr(capsys):
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err

    assert main(["--builtin", "nope", "bracket", "L", "L"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nope" in captured.err

    assert main(["--builtin", "virasoro", "bracket", "M", "L"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'M'" in captured.err

    assert main(["--algebra", "/nonexistent.vac", "check", "skew"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""


def test_cli_missing_algebra(capsys):
    assert main(["bracket", "L", "L"]) == 2
    captured = capsys.readouterr()
    assert "required" in captured.err


def _split_top(text, sep=" + "):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0 and text.startswith(sep, i):
            parts.append(text[start:i])
            start = i + len(sep)
    return parts + [text[start:]]


def _ope_products(text, alg):
    """{j: a_(j) b} read back from a rendered OPE ``a(z)b(w) ~ ...``."""
    out = {}
    for piece in _split_top(text.partition(" ~ ")[2]):
        body, _, pole = piece.rpartition("/(z-w)")
        j = int(pole[1:]) - 1 if pole else 0
        value = parse_vertex_expr(body.removesuffix("(w)"), alg)
        out[j] = out.get(j, vx.zero(alg)).add(value)
    return out


def _scalar_from_json(items):
    return Scalar(
        {tuple(sorted(i["monomial"].items())): Fraction(i["coeff"]) for i in items}
    )


def _state_from_json(alg, value):
    return vx.VertexElement(
        alg,
        words={
            vx.NormalWord(tuple(a) for a in w["atoms"]): _scalar_from_json(w["coeff"])
            for w in value["words"]
        },
        vacuum=_scalar_from_json(value["vacuum"]),
        centrals={c: _scalar_from_json(v) for c, v in value["centrals"].items()},
    )


@pytest.mark.parametrize(
    "algebra, a, b",
    [
        ("virasoro", ":L L:", "L"),
        ("virasoro", ":L L:", ":d(L) L:"),
        ("neveu_schwarz", "G", ":G L:"),
        ("free_fermion", "psi1", ":psi1 psi2:"),
        ("current_sl2", ":e f:", "h"),
    ],
)
def test_ope_of_composite_operands_matches_json_bracket(capsys, algebra, a, b):
    alg = builtin(algebra)
    assert main(["--builtin", algebra, "ope", a, b]) == 0
    ope = capsys.readouterr().out.strip()
    assert main(["--builtin", algebra, "--format", "ope", "bracket", a, b]) == 0
    assert capsys.readouterr().out.strip() == ope
    assert main(["--builtin", algebra, "--format", "json", "bracket", a, b]) == 0
    terms = json.loads(capsys.readouterr().out)["result"]["terms"]
    expected = {
        t["exponents"][0]: _state_from_json(alg, t["value"]).scale(factorial(t["exponents"][0]))
        for t in terms
    }
    assert ope.startswith(f"{a}(z){b}(w) ~ ")
    assert _ope_products(ope, alg) == expected


@pytest.mark.parametrize(
    "query", [["nproduct", "L", "-1", "L"], ["modes", "L_1", "L_-1"], ["weight", "L"], ["primary", "L"]]
)
def test_format_ope_rejected_outside_brackets(capsys, query):
    assert main(["--builtin", "virasoro", "--format", "ope", *query]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"vacalc: --format ope applies to bracket and ope queries, not to {query[0]}\n"
    )


def test_format_ope_on_checks_prints_the_report(capsys):
    assert main(["--builtin", "virasoro", "--format", "ope", "check", "skew"]) == 0
    assert capsys.readouterr().out == "check skew on virasoro: ok (1 identity)\n"


def test_cli_borcherds_sweep(capsys):
    code = main(["--builtin", "free_fermion", "--range", "1", "check", "borcherds"])
    captured = capsys.readouterr()
    assert code == 0
    assert "ok" in captured.out


@pytest.mark.parametrize("check", ["skew", "jacobi", "borcherds", "mode-jacobi"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_range_below_one_rejected(capsys, check, value):
    code = main(["--builtin", "free_fermion", "--range", value, "check", check])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"vacalc: --range must be at least 1, got {value}\n"


# Failures of the sl2 current algebra with the (f, h) entry corrupted from
# [f_l h] = 2f to 3f, as reported by the uncached sweeps.  Only the six
# orderings of (e, f, h) fail; listed per triple in sweep order.
CORRUPT_SL2_BORCHERDS = {
    ("e", "f", "h"): [(-1, 0, 1), (0, -1, 1), (0, 0, 0), (0, 0, 1), (1, -1, 1), (1, 0, -1), (1, 0, 0)],
    ("e", "h", "f"): [
        (-1, -1, 1), (-1, 0, 1), (0, -1, 0), (0, 0, 0), (0, 0, 1),
        (1, -1, -1), (1, -1, 0), (1, -1, 1), (1, 0, -1), (1, 0, 0),
    ],
    ("f", "e", "h"): [(-1, 0, 1), (-1, 1, 1), (0, -1, 1), (0, 0, 0), (0, 0, 1), (0, 1, -1), (0, 1, 0)],
    ("f", "h", "e"): [
        (-1, -1, -1), (-1, -1, 0), (-1, 0, -1), (-1, 0, 0), (-1, 1, -1), (-1, 1, 0), (0, -1, 0),
        (0, 0, 0), (0, 1, 0), (1, -1, -1), (1, -1, 0), (1, 0, -1), (1, 0, 0), (1, 1, -1),
    ],
    ("h", "e", "f"): [
        (-1, -1, 1), (-1, 0, 0), (-1, 1, -1), (-1, 1, 0), (-1, 1, 1),
        (0, -1, 1), (0, 0, 0), (0, 0, 1), (0, 1, -1), (0, 1, 0),
    ],
    ("h", "f", "e"): [
        (-1, -1, -1), (-1, -1, 0), (-1, 0, 0), (-1, 1, -1), (-1, 1, 0), (0, -1, -1), (0, -1, 0),
        (0, 0, 0), (0, 1, -1), (0, 1, 0), (1, -1, -1), (1, -1, 0), (1, 0, 0), (1, 1, -1),
    ],
}


def corrupt_sl2():
    basis = tuple(GeneratorDecl(g, Parity.EVEN, Fraction(1)) for g in "efh")
    brackets = {("e", "f"): {"h": 1}, ("e", "h"): {"e": -2}, ("f", "h"): {"f": 3}}
    form = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}
    return current_algebra(basis, brackets, form, name="current_sl2", validate=False)


def test_sweeps_report_every_failure_of_a_corrupt_table():
    alg = corrupt_sl2()
    report = vx.borcherds_sweep(alg, 1)
    assert (report.checked, len(report.failures)) == (729, 62)
    expected = [
        (*triple, f"m={m}", f"n={n}", f"q={q}")
        for triple in sorted(CORRUPT_SL2_BORCHERDS)
        for m, n, q in CORRUPT_SL2_BORCHERDS[triple]
    ]
    assert [f.subject for f in report.failures] == expected
    # The single-identity entry point agrees, one fresh table per identity.
    states = {g: vx.state(alg, g) for g in "efh"}
    for (a, b, c), failing in CORRUPT_SL2_BORCHERDS.items():
        for m, n, q in product((-1, 0, 1), repeat=3):
            single = vx.borcherds_identity_check(states[a], states[b], states[c], m, n, q, alg)
            assert single.passed == ((m, n, q) not in failing), (a, b, c, m, n, q)

    report = verify_mode_jacobi(alg, 1)
    assert (report.checked, len(report.failures)) == (810, 162)
    expected = {
        ("jacobi", (f"{a}_{i}", f"{b}_{j}", f"{c}_{k}"))
        for a, b, c in permutations("efh")
        for i, j, k in product((-1, 0, 1), repeat=3)
    }
    assert {(f.kind, f.subject) for f in report.failures} == expected

    for check in ("borcherds", "mode-jacobi"):
        _, code = run_query(parse_query(["check", check]), corrupt_sl2(), index_range=1)
        assert code == 1
