from fractions import Fraction

import pytest

from conftest import rng_for
from vacalc import vertex_calc as vx
from vacalc.checks import check_jacobi, check_skew
from vacalc.lie_conformal import (
    AlgebraPresentation,
    CentralDecl,
    ConformalElement,
    GeneratorDecl,
    Parity,
    ParityError,
    PresentationError,
    current_algebra,
    free_boson,
    free_fermion,
    uncharged_superfermions,
    virasoro,
)
from vacalc.poly import BracketPoly, embed_bivariate, substitute_skew
from vacalc.scalar import Scalar


def bp(entries):
    return BracketPoly(("lambda",), {(k,): v for k, v in entries.items()})


def over_states(alg, poly):
    """The same polynomial with each table element read as a state."""
    return poly.map_coeffs(lambda e: vx.from_conformal(alg, e))


# -- the lambda-bracket of generators -------------------------------------------


def test_virasoro_bracket(vir):
    expected = bp(
        {
            0: ConformalElement(terms={("L", 1): 1}),
            1: ConformalElement(terms={("L", 0): 2}),
            3: ConformalElement(central={"C": Fraction(1, 12)}),
        }
    )
    L = vx.state(vir, "L")
    assert vx.wick_bracket(L, L) == over_states(vir, expected)


def test_sesquilinearity_forced(vir):
    base = vx.wick_bracket(vx.state(vir, "L"), vx.state(vir, "L"))
    shifted = vx.wick_bracket(vx.state(vir, "L", 1), vx.state(vir, "L"))
    assert shifted == base.shift_power("lambda", 1).scale(-1)


def test_ns_mixed_bracket(ns):
    # [G_l L] is derived from the stored [L_l G] through skew-symmetry
    expected = bp(
        {
            0: ConformalElement(terms={("G", 1): Fraction(1, 2)}),
            1: ConformalElement(terms={("G", 0): Fraction(3, 2)}),
        }
    )
    assert vx.wick_bracket(vx.state(ns, "G"), vx.state(ns, "L")) == over_states(ns, expected)


def test_central_brackets_vanish(ns):
    assert vx.wick_bracket(vx.state(ns, "C"), vx.state(ns, "L")).is_zero()
    assert vx.wick_bracket(vx.state(ns, "G"), vx.state(ns, "C")).is_zero()


def test_parity_mixing_rejected(ns):
    mixed = vx.state(ns, "L").add(vx.state(ns, "G"))
    with pytest.raises(ParityError):
        vx.wick_bracket(mixed, vx.state(ns, "L"))


# -- substitute_skew ----------------------------------------------------------


def test_skew_substitution_virasoro_self_consistent(vir):
    poly = vx.wick_bracket(vx.state(vir, "L"), vx.state(vir, "L"))
    assert substitute_skew(poly).scale(-1) == poly


def test_skew_substitution_degree_zero(vir):
    const = bp({0: ConformalElement(terms={("L", 2): 5})})
    assert substitute_skew(const) == const


def test_skew_substitution_central_linear(vir):
    # (-l - d) K = -l K for torsion K
    poly = bp({1: ConformalElement(central={"C": 1})})
    assert substitute_skew(poly) == poly.scale(-1)


# -- j-products ----------------------------------------------------------------


def test_virasoro_j_products(vir):
    products = vx.vertex_jproducts(vx.state(vir, "L"), vx.state(vir, "L"))
    assert products == [
        (0, vx.state(vir, "L", 1)),
        (1, vx.state(vir, "L").scale(2)),
        (3, vx.state(vir, "C").scale(Fraction(1, 2))),
    ]


def test_fermion_j_products(fermion2):
    psi1, psi2 = vx.state(fermion2, "psi1"), vx.state(fermion2, "psi2")
    assert vx.vertex_jproducts(psi1, psi2) == []  # orthogonal pair
    assert vx.vertex_jproducts(psi1, psi1) == [(0, vx.state(fermion2, "K"))]


def test_central_j_products_empty(ns):
    assert vx.vertex_jproducts(vx.state(ns, "C"), vx.state(ns, "L")) == []


# -- axiom checkers ---------------------------------------------------------------


def test_checkers_pass_on_builtins(vir, ns, fermion2, sl2):
    for alg in (vir, ns, fermion2, sl2, free_boson()):
        assert check_skew(alg).passed
        assert check_jacobi(alg).passed


def corrupted_virasoro():
    """Table entry (d + 3 lambda) L + lambda^3/12 C (the 2 became a 3)."""
    table = {
        ("L", "L"): bp(
            {
                0: ConformalElement(terms={("L", 1): 1}),
                1: ConformalElement(terms={("L", 0): 3}),
                3: ConformalElement(central={"C": Fraction(1, 12)}),
            }
        )
    }
    return AlgebraPresentation(
        "virasoro_corrupt",
        ("c",),
        (GeneratorDecl("L", Parity.EVEN, Fraction(2)),),
        (CentralDecl("C", Parity.EVEN, Scalar.param("c")),),
        table,
    )


def test_corrupted_virasoro_fails_skew():
    # Hand oracle: -[L_(-l-d) L] for the corrupted table is (2d + 3l) L
    # + l^3/12 C, so the discrepancy against the table is -d(L) at degree 0.
    alg = corrupted_virasoro()
    report = check_skew(alg)
    assert not report.passed
    [failure] = report.failures
    diff = failure.diff
    assert diff == over_states(alg, bp({0: ConformalElement(terms={("L", 1): -1})}))


def test_corrupted_virasoro_fails_jacobi():
    report = check_jacobi(corrupted_virasoro())
    assert not report.passed


def test_jacobi_intermediate_value(vir):
    # [L_l [L_m L]] = (d^2 + (3l + 2m) d + 2 l^2 + 4 m l) L + central tail
    L = vx.state(vir, "L")
    inner = vx.wick_bracket(L, L)
    lhs = BracketPoly.zero(("lambda", "mu"))
    for (k,), coeff in inner.coeffs.items():
        lhs = lhs.add(embed_bivariate(vx.wick_bracket(L, coeff), 0, k))
    dL2 = ConformalElement(terms={("L", 2): 1})
    dL = ConformalElement(terms={("L", 1): 1})
    Le = ConformalElement(terms={("L", 0): 1})
    C = ConformalElement(central={"C": 1})
    expected = BracketPoly(
        ("lambda", "mu"),
        {
            (0, 0): dL2,
            (1, 0): dL.scale(3),
            (0, 1): dL.scale(2),
            (2, 0): Le.scale(2),
            (1, 1): Le.scale(4),
            (4, 0): C.scale(Fraction(1, 12)),
            (3, 1): C.scale(Fraction(1, 6)),
        },
    )
    assert lhs == over_states(vir, expected)


def brute_force_sl2_jacobi():
    """Independent check of the current-algebra Jacobi identity over sl2,
    written directly from the structure constants with dict arithmetic."""
    from vacalc.scalar import binom as bn

    gens = ("e", "f", "h")
    struct = {
        ("e", "f"): {"h": 1}, ("f", "e"): {"h": -1},
        ("h", "e"): {"e": 2}, ("e", "h"): {"e": -2},
        ("h", "f"): {"f": -2}, ("f", "h"): {"f": 2},
    }
    pairing = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}

    def bracket(a, b):
        """[a_l b] as {(lpow, symbol): coeff}; symbol ('g', dpow) or 'K'."""
        out = {}
        for g, v in struct.get((a, b), {}).items():
            out[(0, (g, 0))] = Fraction(v)
        if (a, b) in pairing:
            out[(1, "K")] = Fraction(pairing[(a, b)])
        return out

    def bracket_into(a, poly):
        """[a_l poly] for poly mapping (passive power, symbol) -> coeff; the
        active lambda power lands in slot 0 of the result key, the passive
        power in slot 1.  Right derivatives expand as (d + l)^dpow."""
        out = {}
        for (mpow, sym), coeff in poly.items():
            if sym == "K":
                continue
            g, dpow = sym
            for (lpow, sym2), c2 in bracket(a, g).items():
                for k in range(dpow + 1):
                    factor = bn(dpow, k)
                    if sym2 == "K":
                        if k != dpow:
                            continue  # d K = 0
                        key = (lpow + k, mpow, "K")
                    else:
                        g2, d2 = sym2
                        key = (lpow + k, mpow, (g2, d2 + dpow - k))
                    out[key] = out.get(key, Fraction(0)) + coeff * c2 * factor
        return {k: v for k, v in out.items() if v}

    failures = []
    for a in gens:
        for b in gens:
            for c in gens:
                lhs = bracket_into(a, bracket(b, c))
                # [[a_l b]_(l+m) c]: left derivatives give (-(l+m))^dpow and
                # nu = l + m expands binomially
                mid = {}
                for (lpow, sym), v in bracket(a, b).items():
                    if sym == "K":
                        continue
                    g, dpow = sym
                    for (qpow, sym2), c2 in bracket(g, c).items():
                        total = qpow + dpow
                        sign = Fraction(-1) ** dpow
                        for i in range(total + 1):
                            key = (lpow + i, total - i, sym2)
                            mid[key] = mid.get(key, Fraction(0)) + (
                                v * c2 * sign * bn(total, i)
                            )
                mid = {k: v for k, v in mid.items() if v}
                # p(a,b) [b_m [a_l c]] with everything even: swap variable slots
                third = {
                    (inner_l, outer_m, sym): v
                    for (outer_m, inner_l, sym), v in bracket_into(
                        b, bracket(a, c)
                    ).items()
                }
                diff = dict(lhs)
                for key, v in mid.items():
                    diff[key] = diff.get(key, Fraction(0)) - v
                for key, v in third.items():
                    diff[key] = diff.get(key, Fraction(0)) - v
                diff = {k: v for k, v in diff.items() if v}
                if diff:
                    failures.append((a, b, c, diff))
    return failures


def test_sl2_jacobi_against_brute_force(sl2):
    assert brute_force_sl2_jacobi() == []
    assert check_jacobi(sl2).passed


# -- invariants -----------------------------------------------------------------


def random_homogeneous(rng, alg, parity, max_dpow=3):
    """A state ``sum s * d^n(g)`` of one or two derivative atoms of one parity."""
    gens = [g for g in alg.generators if g.parity is parity]
    out = vx.zero(alg)
    for _ in range(rng.randint(1, 2)):
        g = rng.choice(gens)
        atom = vx.state(alg, g.name, rng.randint(0, max_dpow))
        out = out.add(atom.scale(Fraction(rng.randint(1, 5))))
    return out


def test_sesquilinearity_random(ns):
    rng = rng_for("sesqui")
    for _ in range(25):
        parity_x = rng.choice((Parity.EVEN, Parity.ODD))
        parity_y = rng.choice((Parity.EVEN, Parity.ODD))
        x = random_homogeneous(rng, ns, parity_x)
        y = random_homogeneous(rng, ns, parity_y)
        base = vx.wick_bracket(x, y)
        for m in range(1, 4):
            lhs = vx.wick_bracket(x.translate_power(m), y)
            assert lhs == base.shift_power("lambda", m).scale(Fraction(-1) ** m)
        lhs = vx.wick_bracket(x, y.translate())
        rhs = base.map_coeffs(lambda e: e.translate()).add(
            base.shift_power("lambda", 1)
        )
        assert lhs == rhs


def test_derivation_property(ns):
    rng = rng_for("derivation")
    for _ in range(25):
        x = random_homogeneous(rng, ns, rng.choice((Parity.EVEN, Parity.ODD)))
        y = random_homogeneous(rng, ns, rng.choice((Parity.EVEN, Parity.ODD)))
        lhs = vx.wick_bracket(x, y).map_coeffs(lambda e: e.translate())
        rhs = vx.wick_bracket(x.translate(), y).add(vx.wick_bracket(x, y.translate()))
        assert lhs == rhs


def test_right_sesquilinearity_redundant(ns):
    # [x_l d(y)] through two skew flips equals the direct evaluation
    rng = rng_for("redundant")
    for _ in range(20):
        px = rng.choice((Parity.EVEN, Parity.ODD))
        py = rng.choice((Parity.EVEN, Parity.ODD))
        x = random_homogeneous(rng, ns, px)
        y = random_homogeneous(rng, ns, py)
        sign = -px.sign_with(py)
        direct = vx.wick_bracket(x, y.translate())
        flipped = substitute_skew(vx.wick_bracket(y.translate(), x)).scale(sign)
        assert direct == flipped


def test_j_product_translation_rules(vir, ns, fermion2, sl2):
    for alg in (vir, ns, fermion2, sl2):
        gens = [g.name for g in alg.generators]
        for a in gens:
            for b in gens:
                x, y = vx.state(alg, a), vx.state(alg, b)
                zero = vx.zero(alg)
                products = dict(vx.vertex_jproducts(x, y))
                shifted = dict(vx.vertex_jproducts(x.translate(), y))
                jmax = max(list(products) + list(shifted) + [0]) + 1
                for j in range(jmax + 1):
                    expected = products.get(j - 1, zero).scale(-j)
                    assert shifted.get(j, zero) == expected
                right = dict(vx.vertex_jproducts(x, y.translate()))
                for j in range(jmax + 1):
                    expected = products.get(j, zero).translate()
                    expected = expected.add(products.get(j - 1, zero).scale(j))
                    assert right.get(j, zero) == expected


# -- builtin validation ------------------------------------------------------------


def test_fermion_form_must_be_antisupersymmetric():
    basis = (GeneratorDecl("a", Parity.EVEN), GeneratorDecl("b", Parity.EVEN))
    with pytest.raises(PresentationError):
        free_fermion(basis, {("a", "b"): 1, ("b", "a"): 1})


def test_boson_form_must_be_supersymmetric():
    basis = (GeneratorDecl("a", Parity.EVEN), GeneratorDecl("b", Parity.EVEN))
    with pytest.raises(PresentationError):
        free_boson(basis, {("a", "b"): 1, ("b", "a"): -1})


def test_form_must_vanish_on_mixed_parity():
    basis = (GeneratorDecl("a", Parity.EVEN), GeneratorDecl("p", Parity.ODD))
    with pytest.raises(PresentationError):
        free_fermion(basis, {("a", "p"): 1})


def test_non_lie_bracket_rejected():
    basis = (
        GeneratorDecl("x", Parity.EVEN),
        GeneratorDecl("y", Parity.EVEN),
        GeneratorDecl("z", Parity.EVEN),
    )
    brackets = {("x", "y"): {"z": 1}, ("x", "z"): {"x": 1}, ("y", "z"): {"y": 1}}
    with pytest.raises(PresentationError):
        current_algebra(basis, brackets, {})


def test_superfermion_builder_validates():
    with pytest.raises(PresentationError):
        uncharged_superfermions(1, 0)
    alg = uncharged_superfermions(2, 1)
    assert check_skew(alg).passed and check_jacobi(alg).passed


def test_table_must_be_ordered():
    with pytest.raises(PresentationError):
        AlgebraPresentation(
            "bad",
            (),
            (GeneratorDecl("a"), GeneratorDecl("b")),
            (),
            {("b", "a"): bp({0: ConformalElement(terms={("a", 0): 1})})},
        )


def test_table_parity_consistency_enforced():
    with pytest.raises(PresentationError):
        AlgebraPresentation(
            "bad",
            (),
            (GeneratorDecl("a", Parity.EVEN), GeneratorDecl("p", Parity.ODD)),
            (),
            {("a", "p"): bp({0: ConformalElement(terms={("a", 0): 1})})},
        )
