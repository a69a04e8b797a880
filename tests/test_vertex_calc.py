import inspect
import math
import os
import pickle
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from conftest import rng_for
from test_cli_golden import DEFINITIONS
from vacalc import vertex_calc as vx
from vacalc.checks import borcherds_identity_check, borcherds_nproducts_check
from vacalc.frontend import parse_definition
from vacalc.lie_conformal import (
    BUILTIN_NAMES,
    AlgebraPresentation,
    CentralDecl,
    ConformalElement,
    GeneratorDecl,
    Parity,
    ParityError,
    VacalcError,
    builtin,
    free_fermion,
    neveu_schwarz,
    sl2_current,
    uncharged_superfermions,
    virasoro,
)
from vacalc.mode_algebra import WEIGHT, ModeExpression, ModeSymbol
from vacalc.poly import BracketPoly, embed_bivariate, substitute_skew, substitute_sum
from vacalc.scalar import Scalar
from vacalc.vertex_calc import EngineLimitError


@pytest.fixture(scope="module")
def weight2():
    """Virasoro plus a weight-2 primary Phi and an L-inert generator X."""
    table = {
        ("L", "L"): BracketPoly(
            ("lambda",),
            {
                (0,): ConformalElement(terms={("L", 1): 1}),
                (1,): ConformalElement(terms={("L", 0): 2}),
                (3,): ConformalElement(central={"C": Fraction(1, 12)}),
            },
        ),
        ("L", "Phi"): BracketPoly(
            ("lambda",),
            {
                (0,): ConformalElement(terms={("Phi", 1): 1}),
                (1,): ConformalElement(terms={("Phi", 0): 2}),
            },
        ),
    }
    return AlgebraPresentation(
        "weight2",
        ("c",),
        (
            GeneratorDecl("L", Parity.EVEN, Fraction(2)),
            GeneratorDecl("Phi", Parity.EVEN, Fraction(2)),
            GeneratorDecl("X", Parity.EVEN, Fraction(1)),
        ),
        (CentralDecl("C", Parity.EVEN, Scalar.param("c")),),
        table,
    )


def random_state(rng, alg, max_len=2, max_dpow=2):
    """A random parity-homogeneous state (nonzero for the algebras used)."""
    eng = vx.engine(alg)
    gens = list(alg.generators)

    def random_word():
        atoms = [
            (rng.choice(gens).name, rng.randint(0, max_dpow))
            for _ in range(rng.randint(1, max_len))
        ]
        return vx.normal_word(alg, atoms)

    out = vx.zero(alg)
    while out.is_zero():
        out = random_word().scale(Fraction(rng.randint(1, 3)))
    if rng.random() < 0.4:
        target = eng.element_parity(out)
        for _ in range(8):
            extra = random_word()
            if not extra.is_zero() and eng.element_parity(extra) is target:
                out = out.add(extra)
                break
    return out


def parity_of(alg, x):
    return vx.engine(alg).element_parity(x)


# -- n-th products --------------------------------------------------------------


def test_negative_product_is_derivative_word(fermion2):
    p1, p2 = vx.state(fermion2, "psi1"), vx.state(fermion2, "psi2")
    assert vx.nproduct(p1, -2, p2) == vx.normal_word(
        fermion2, [("psi1", 1), ("psi2", 0)]
    )
    assert vx.nproduct(p1, -3, p2) == vx.normal_word(
        fermion2, [("psi1", 2), ("psi2", 0)]
    ).scale(Fraction(1, 2))


def test_vacuum_is_negative_one_unit(fermion2):
    a = vx.normal_word(fermion2, [("psi1", 1), ("psi2", 0)])
    assert vx.nproduct(a, -1, vx.vacuum(fermion2)) == a
    assert vx.nproduct(vx.vacuum(fermion2), -1, a) == a


def test_virasoro_first_product(vir):
    L = vx.state(vir, "L")
    assert vx.nproduct(L, 1, L) == L.scale(2)
    assert vx.nproduct(L, 0, L) == L.translate()
    assert vx.nproduct(L, 3, L) == vx.vacuum(vir).scale(
        Scalar.param("c") * Fraction(1, 2)
    )
    assert vx.nproduct(L, 2, L).is_zero()


# -- the Wick recursion ------------------------------------------------------------


def expected_fermion_brackets(alg):
    L = vx.fermion_conformal_vector(alg)
    sdim = sum(
        1 if g.parity is Parity.EVEN else -1 for g in alg.generators
    )
    for g in alg.generators:
        phi = vx.state(alg, g.name)
        lhs = vx.wick_bracket(phi, L)
        expected = BracketPoly(
            ("lambda",),
            {(0,): phi.translate().scale(Fraction(-1, 2)), (1,): phi.scale(Fraction(1, 2))},
        )
        assert lhs == expected, g.name
        lhs = vx.wick_bracket(L, phi)
        expected = BracketPoly(
            ("lambda",),
            {(0,): phi.translate(), (1,): phi.scale(Fraction(1, 2))},
        )
        assert lhs == expected, g.name
    lhs = vx.wick_bracket(L, L)
    expected = BracketPoly(
        ("lambda",),
        {
            (0,): L.translate(),
            (1,): L.scale(2),
            (3,): vx.vacuum(alg).scale(Fraction(-sdim, 24)),
        },
    )
    assert lhs == expected


def test_superfermion_wick_single_odd():
    expected_fermion_brackets(uncharged_superfermions(0, 1))


def test_superfermion_wick_two_odd(fermion2):
    expected_fermion_brackets(fermion2)


def test_superfermion_wick_symplectic_even():
    expected_fermion_brackets(uncharged_superfermions(2, 0))


def test_repeated_odd_atoms_vanish(fermion2):
    assert vx.normal_word(fermion2, [("psi1", 0), ("psi1", 0)]).is_zero()
    assert vx.normal_word(fermion2, [("psi1", 1), ("psi1", 1)]).is_zero()
    # but distinct derivatives survive
    assert not vx.normal_word(fermion2, [("psi1", 1), ("psi1", 0)]).is_zero()


def test_word_reordering_sign(fermion2):
    forward = vx.normal_word(fermion2, [("psi1", 0), ("psi2", 0)])
    backward = vx.normal_word(fermion2, [("psi2", 0), ("psi1", 0)])
    assert backward == forward.scale(-1)


SUPERFERMION_FILE = """
algebra superfermion {
  generator b1 : even, weight 1/2;
  generator b2 : even, weight 1/2;
  generator psi1 : odd, weight 1/2;
  generator psi2 : odd, weight 1/2;
  central K : even acts 1;
  bracket [b1, b2] = K;
  bracket [psi1, psi1] = K;
  bracket [psi2, psi2] = K;
}
"""


def leibniz_translate(x):
    """T(x) summed term by term: raise one atom, re-canonicalize the word."""
    out = vx.zero(x.alg)
    for word, value in x.words.items():
        for i, (g, d) in enumerate(word.atoms):
            atoms = list(word.atoms)
            atoms[i] = (g, d + 1)
            out = out.add(vx.normal_word(x.alg, atoms).scale(value))
    return out


@pytest.mark.parametrize(
    "name, words",
    [
        # a raised derivative meets an equal odd atom: d(G) d(G), d(psi1) d(psi1)
        ("ns", [[("G", 1), ("G", 0)], [("L", 0), ("G", 1), ("G", 0)], [("G", 0), ("G", 0)]]),
        ("vac", [[("psi1", 1), ("psi1", 0)], [("b1", 0), ("psi2", 1), ("psi2", 0)], [("b2", 1), ("b1", 0)]]),
        ("vir", [[("L", 1), ("L", 0)], [("L", 0), ("L", 0), ("L", 0)]]),
    ],
)
def test_translate_memo_matches_leibniz(ns, vir, name, words):
    from vacalc.frontend import parse_definition

    alg = {"ns": ns, "vir": vir, "vac": parse_definition(SUPERFERMION_FILE)}[name]
    for atoms in words:
        x = vx.normal_word(alg, atoms).scale(3)
        expected = leibniz_translate(x)
        first = x.translate()
        assert first == expected, atoms
        assert x.translate() == expected
        # results are values: combining them leaves the memo untouched
        first.scale(5).add(first)
        first.add(x).sub(x)
        assert x.translate() == expected
        assert x.translate_power(2) == leibniz_translate(expected)


# -- quasi-commutativity ------------------------------------------------------------


def test_quasi_comm_defect_matches_direct(fermion22):
    rng = rng_for("quasicomm")
    alg = fermion22
    for _ in range(30):
        a = random_state(rng, alg)
        b = random_state(rng, alg)
        sign = parity_of(alg, a).sign_with(parity_of(alg, b))
        direct = vx.normal_product(a, b).sub(
            vx.normal_product(b, a).scale(sign)
        )
        assert direct == vx.quasi_comm_defect(a, b)


def test_quasi_comm_defect_fermion_pair_zero(fermion2):
    # the bracket is central, so the defect integral is killed by T
    p1, p2 = vx.state(fermion2, "psi1"), vx.state(fermion2, "psi2")
    assert vx.quasi_comm_defect(p1, p2).is_zero()
    assert vx.normal_product(p1, p2) == vx.normal_product(p2, p1).scale(-1)


def test_quasi_comm_defect_virasoro_zero(vir):
    # hand evaluation: T(dL) - T^2(2L)/2 + 0 = d^2 L - d^2 L = 0
    L = vx.state(vir, "L")
    assert vx.quasi_comm_defect(L, L).is_zero()


def test_quasi_comm_defect_zero_products(weight2):
    phi, x = vx.state(weight2, "Phi"), vx.state(weight2, "X")
    assert vx.quasi_comm_defect(phi, x).is_zero()


# -- quasi-associativity ------------------------------------------------------------


def test_quasi_assoc_sum_equals_integral(fermion22):
    rng = rng_for("quasiassoc")
    for _ in range(25):
        a = random_state(rng, fermion22)
        b = random_state(rng, fermion22)
        c = random_state(rng, fermion22)
        assert vx.quasi_assoc_defect_sum(a, b, c) == (
            vx.quasi_assoc_defect_integral(a, b, c)
        )


def test_quasi_assoc_defect_matches_products(fermion22):
    rng = rng_for("quasiassoc-direct")
    for _ in range(15):
        a = random_state(rng, fermion22, max_len=1)
        b = random_state(rng, fermion22, max_len=1)
        c = random_state(rng, fermion22, max_len=1)
        left_nested = vx.quasi_assoc_rewrite(vx.normal_product(a, b), c)
        right_nested = vx.normal_product(a, vx.normal_product(b, c))
        assert left_nested.sub(right_nested) == vx.quasi_assoc_defect_sum(a, b, c)


@pytest.mark.parametrize(
    "factory, words",
    [
        (sl2_current, ([("e", 0), ("f", 0)], [("h", 0), ("e", 1)], [("f", 0)])),
        (sl2_current, ([("h", 1), ("f", 0)], [("e", 0), ("h", 0)], [("e", 0), ("f", 0)])),
        (neveu_schwarz, ([("L", 0), ("G", 0)], [("G", 1), ("L", 0)], [("G", 0)])),
        (neveu_schwarz, ([("G", 0), ("G", 1)], [("L", 0), ("G", 0)], [("L", 1)])),
    ],
)
def test_composite_reassociation_matches_the_integral_defect(factory, words):
    # The products reassociate through the engine's defect sum; the integral
    # reading of the same defect is an independent route.
    alg = factory()
    a, b, c = (vx.normal_word(alg, atoms) for atoms in words)
    left_nested = vx.normal_product(vx.normal_product(a, b), c)
    right_nested = vx.normal_product(a, vx.normal_product(b, c))
    defect = left_nested.sub(right_nested)
    assert not defect.is_zero()
    assert defect == vx.quasi_assoc_defect_integral(a, b, c)


def test_quasi_assoc_fermion_example(fermion2):
    # hand evaluation: ::psi1 psi2: psi2: reassociates to psi1_(-1)(psi2_(-1)psi2)
    # (the inner square vanishes) plus the correction psi1_(-2)(psi2_(0)psi2)
    # = d(psi1) from the pairing <psi2, psi2> = 1
    p1, p2 = vx.state(fermion2, "psi1"), vx.state(fermion2, "psi2")
    word = vx.normal_product(p1, p2)
    assert vx.quasi_assoc_rewrite(word, p2) == p1.translate()


def test_quasi_assoc_pure_reassociation(weight2):
    phi, x = vx.state(weight2, "Phi"), vx.state(weight2, "X")
    assert vx.quasi_assoc_defect_sum(phi, x, phi).is_zero()
    lhs = vx.nproduct(vx.normal_product(phi, x), -1, phi)
    rhs = vx.normal_product(phi, vx.normal_product(x, phi))
    assert lhs == rhs


def test_associator_supersymmetry(fermion22):
    rng = rng_for("associator")
    for _ in range(15):
        a = random_state(rng, fermion22, max_len=1)
        b = random_state(rng, fermion22, max_len=1)
        c = random_state(rng, fermion22, max_len=1)
        sign = parity_of(fermion22, a).sign_with(parity_of(fermion22, b))

        def associator(u, v, w):
            return vx.nproduct(vx.normal_product(u, v), -1, w).sub(
                vx.normal_product(u, vx.normal_product(v, w))
            )

        assert associator(a, b, c) == associator(b, a, c).scale(sign)


# -- quasi-symmetry / Borcherds n-products --------------------------------------------


def test_borcherds_nproducts_virasoro(vir):
    L = vx.state(vir, "L")
    report = borcherds_nproducts_check(L, L, 1)
    assert report.passed
    assert report.lhs == L.scale(2)


def test_borcherds_nproducts_negative_one_is_quasi_comm(fermion22):
    rng = rng_for("bnp")
    for _ in range(10):
        a = random_state(rng, fermion22)
        b = random_state(rng, fermion22)
        assert borcherds_nproducts_check(a, b, -1).passed


def test_borcherds_nproducts_odd_zero_mode(fermion2):
    p = vx.state(fermion2, "psi1")
    report = borcherds_nproducts_check(p, p, 0)
    assert report.passed
    assert report.lhs == vx.vacuum(fermion2)


def test_borcherds_nproducts_sweep(fermion22):
    rng = rng_for("bnp-sweep")
    for n in range(-3, 4):
        a = random_state(rng, fermion22)
        b = random_state(rng, fermion22)
        assert borcherds_nproducts_check(a, b, n).passed


# -- Borcherds identity -----------------------------------------------------------------


def test_borcherds_identity_fermion_origin(fermion2):
    p1, p2 = vx.state(fermion2, "psi1"), vx.state(fermion2, "psi2")
    report = borcherds_identity_check(p1, p2, p1, 0, 0, 0)
    assert report.passed
    # both sides vanish here: a_(0)b is a vacuum multiple and x_(0)|0> = 0
    assert report.lhs.is_zero() and report.rhs.is_zero()


def test_borcherds_identity_virasoro(vir):
    L = vx.state(vir, "L")
    assert borcherds_identity_check(L, L, L, 1, -1, -2).passed


def test_borcherds_identity_trivial_beyond_locality(fermion2):
    p1, p2 = vx.state(fermion2, "psi1"), vx.state(fermion2, "psi2")
    report = borcherds_identity_check(p1, p2, p1, 0, 0, 5)
    assert report.passed
    assert report.lhs.is_zero()


def test_borcherds_identity_virasoro_ns_sweep(vir, ns):
    for alg in (vir, ns):
        states = [vx.state(alg, g.name) for g in alg.generators]
        for a in states:
            for b in states:
                for c in states:
                    for m in range(-2, 3):
                        for n in range(-2, 3):
                            for q in range(-2, 3):
                                assert borcherds_identity_check(
                                    a, b, c, m, n, q
                                ).passed, (alg.name, m, n, q)


# -- Jacobi identity hidden in the Wick formula -------------------------------------------


def vertex_jacobi_diff(a, b, c, alg):
    lhs = BracketPoly.zero(("lambda", "mu"))
    for (k,), coeff in vx.wick_bracket(b, c).coeffs.items():
        lhs = lhs.add(embed_bivariate(vx.wick_bracket(a, coeff), 0, k))
    mid = BracketPoly.zero(("lambda", "mu"))
    for (i,), coeff in vx.wick_bracket(a, b).coeffs.items():
        mid = mid.add(
            substitute_sum(vx.wick_bracket(coeff, c)).shift_power("lambda", i)
        )
    sign = parity_of(alg, a).sign_with(parity_of(alg, b))
    third = BracketPoly.zero(("lambda", "mu"))
    for (k,), coeff in vx.wick_bracket(a, c).coeffs.items():
        third = third.add(embed_bivariate(vx.wick_bracket(b, coeff), 1, k))
    return lhs.sub(mid).sub(third.scale(sign))


def test_wick_consistency_jacobi(fermion2):
    rng = rng_for("wick-jacobi")
    L = vx.fermion_conformal_vector(fermion2)
    pool = [vx.state(fermion2, "psi1"), vx.state(fermion2, "psi2"), L]
    for _ in range(8):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert vertex_jacobi_diff(a, b, c, fermion2).is_zero()


def test_wick_consistency_composite_words(fermion22):
    rng = rng_for("wick-jacobi2")
    for _ in range(5):
        a = random_state(rng, fermion22, max_len=2, max_dpow=1)
        b = random_state(rng, fermion22, max_len=1)
        c = random_state(rng, fermion22, max_len=1)
        assert vertex_jacobi_diff(a, b, c, fermion22).is_zero()


# -- vacuum and translation laws ---------------------------------------------------------


def test_vacuum_laws(fermion22):
    rng = rng_for("vacuum")
    x = random_state(rng, fermion22)
    vac = vx.vacuum(fermion22)
    for n in range(-3, 4):
        lhs = vx.nproduct(vac, n, x)
        if n == -1:
            assert lhs == x
        else:
            assert lhs.is_zero()
    for n in range(-1, 4):
        rhs = vx.nproduct(x, n, vac)
        if n == -1:
            assert rhs == x
        else:
            assert rhs.is_zero()
    assert vx.nproduct(x, -2, vac) == x.translate()


def test_translation_covariance(fermion22):
    rng = rng_for("translation")
    for _ in range(10):
        x = random_state(rng, fermion22)
        y = random_state(rng, fermion22)
        for n in range(-3, 4):
            lhs = vx.nproduct(x.translate(), n, y)
            rhs = vx.nproduct(x, n - 1, y).scale(-n)
            assert lhs == rhs, n


def test_quasi_symmetry_matches_skew(ns, fermion2):
    for alg in (ns, fermion2):
        gens = [g.name for g in alg.generators]
        for a in gens:
            for b in gens:
                xa, xb = vx.state(alg, a), vx.state(alg, b)
                sign = -alg.parity(a).sign_with(alg.parity(b))
                lhs = vx.wick_bracket(xa, xb)
                rhs = substitute_skew(vx.wick_bracket(xb, xa)).scale(sign)
                assert lhs == rhs


# -- weights -----------------------------------------------------------------------------


def test_weight_examples(fermion2, vir):
    w = vx.weight(vx.normal_word(fermion2, [("psi1", 1), ("psi1", 0)]))
    assert w == 2
    L = vx.fermion_conformal_vector(fermion2)
    assert vx.weight(L) == 2
    assert vx.weight(L.translate()) == 3
    assert vx.weight(vx.state(vir, "L").translate()) == 3
    mixed = L.add(vx.state(fermion2, "psi1"))
    assert vx.weight(mixed) is None


def test_weight_additivity(fermion2):
    rng = rng_for("weight-add")
    for _ in range(12):
        a = random_state(rng, fermion2, max_len=1)
        b = random_state(rng, fermion2, max_len=1)
        wa, wb = vx.weight(a), vx.weight(b)
        if wa is None or wb is None:
            continue
        for n in range(-3, 4):
            out = vx.nproduct(a, n, b)
            if out.is_zero():
                continue
            w = vx.weight(out)
            if w is not None:
                assert w == wa + wb - n - 1, (n, str(a), str(b))


def test_dong_closure(fermion2):
    rng = rng_for("dong")
    L = vx.fermion_conformal_vector(fermion2)
    pool = [vx.state(fermion2, "psi1"), vx.state(fermion2, "psi2"), L]
    for _ in range(10):
        a, b, c = (rng.choice(pool) for _ in range(3))
        for n in range(-2, 3):
            derived = vx.nproduct(b, n, c)
            poly = vx.wick_bracket(a, derived)
            assert poly.degree("lambda") <= 6


# -- eigenvalue structure -----------------------------------------------------------------


def test_primary_check_fermion(fermion2):
    L = vx.fermion_conformal_vector(fermion2)
    result = vx.primary_check("psi1", L)
    assert result.kind == "primary" and result.weight == Fraction(1, 2)


def test_primary_check_virasoro_self(vir):
    L = vx.state(vir, "L")
    result = vx.primary_check("L", L)
    assert result.kind == "eigen" and result.weight == 2
    assert result.tail.degree("lambda") == 3


def test_primary_check_inert_is_neither(weight2):
    L = vx.state(weight2, "L")
    assert vx.primary_check("X", L).kind == "neither"
    assert vx.primary_check("Phi", L).kind == "primary"


def test_mode_of_primary(fermion2, ns, weight2):
    m, n = Scalar.param("m"), Scalar.param("n")
    L = vx.fermion_conformal_vector(fermion2)
    out = vx.mode_of_primary("psi1", m, n, L)
    coeff = m * Fraction(-1, 2) - n
    assert out == ModeExpression(terms={ModeSymbol("psi1", m + n, WEIGHT): coeff})
    # energy operator: [L_0, a_n] = -n a_n
    out = vx.mode_of_primary("psi1", 0, n, L)
    assert out == ModeExpression(terms={ModeSymbol("psi1", n, WEIGHT): -n})
    # weight-2 primary at (m, n) = (1, -1): (1*(2-1) + 1) a_0 = 2 a_0
    out = vx.mode_of_primary("Phi", 1, -1, vx.state(weight2, "L"))
    assert out == ModeExpression(
        terms={ModeSymbol("Phi", Scalar.zero(), WEIGHT): Scalar.from_rational(2)}
    )
    with pytest.raises(VacalcError):
        vx.mode_of_primary("L", m, n, vx.state(ns, "L"))


# -- guards and errors ---------------------------------------------------------------------


def test_lambda_degree_guard():
    alg = virasoro()
    eng = vx.VertexEngine(alg, max_lambda_degree=2)
    L = vx.state(alg, "L")
    with pytest.raises(EngineLimitError):
        eng.bracket(L, L)


def test_lambda_degree_guard_trips_before_a_high_right_derivative_expands():
    # [L_lambda d^k L] has degree k + 3.  The guard trips before the k + 1
    # terms of the right rule are built (seconds of binomial arithmetic at
    # this k), while L_(0) d^k L needs only the lambda^0 term T^(k+1) L.
    alg = virasoro()
    L, high = vx.state(alg, "L"), vx.state(alg, "L", 6000)
    start = time.perf_counter()
    with pytest.raises(EngineLimitError, match="exceeds guard 64"):
        vx.wick_bracket(L, high)
    assert vx.nproduct(L, 0, high) == vx.state(alg, "L", 6001)
    assert time.perf_counter() - start < 2.0


def test_lambda_degree_guard_reads_memo_hits_too():
    # The whole [d^400(h)_lambda :e f:], of degree 401, stays memoized when
    # the guard refuses it; the flip that reads it again is refused again,
    # while a cut through lambda^0 is within the limit.
    alg = builtin("current_sl2")
    ef, high = vx.normal_word(alg, [("e", 0), ("f", 0)]), vx.state(alg, "h", 400)
    for _ in range(2):
        with pytest.raises(EngineLimitError, match="exceeds guard 64"):
            vx.nproduct(ef, 0, high)
    assert vx.nproduct(high, 0, ef).is_zero()


def test_normal_word_hash_is_recomputed_on_unpickling():
    # A word stores its hash, which depends on the string-hash seed: a word
    # unpickled under another seed must still find equal words.
    data = pickle.dumps({vx.NormalWord([("G", 1), ("L", 0)]): 1})
    code = (
        "import pickle, sys\n"
        "from vacalc.vertex_calc import NormalWord\n"
        "table = pickle.loads(sys.stdin.buffer.read())\n"
        "assert table[NormalWord([('G', 1), ('L', 0)])] == 1\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": "4242", "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], input=data, env=env, check=True)


def test_parity_mixing_rejected(fermion2):
    mixed = vx.state(fermion2, "psi1").add(vx.vacuum(fermion2))
    with pytest.raises(ParityError):
        vx.wick_bracket(mixed, vx.state(fermion2, "psi1"))


def test_unpinned_central_products_error():
    alg = free_fermion(acts_as=None)
    k = vx.state(alg, "K")
    p = vx.state(alg, "psi1")
    for x, y in ((k, p), (p, k), (k, k)):
        with pytest.raises(VacalcError):
            vx.normal_product(x, y)
    # but bracket results with central components still work
    poly = vx.wick_bracket(p, p)
    assert poly == BracketPoly(
        ("lambda",), {(0,): vx.VertexElement(alg, centrals={"K": 1})}
    )
    assert vx.quasi_comm_defect(p, vx.state(alg, "psi2")).is_zero()


# -- centrals and the one bracket path -------------------------------------------------


def test_pinned_central_stays_a_symbol_and_compares_as_its_scalar(vir):
    C, L = vx.state(vir, "C"), vx.state(vir, "L")
    c_vac = vx.vacuum(vir).scale(Scalar.param("c"))
    assert str(C) == "C"
    assert C == c_vac and hash(C) == hash(c_vac)
    assert C.sub(c_vac).is_zero()
    assert vx.nproduct(C, -1, L) == L.scale(Scalar.param("c"))
    assert vx.nproduct(L, -1, C) == L.scale(Scalar.param("c"))


def _sesquilinear_table_bracket(alg, a, i, b, j) -> BracketPoly:
    """``[d^i a_lambda d^j b] = (-lambda)^i (lambda + d)^j [a_lambda b]``,
    expanded from the table entry of the pair over the C[d]-module."""
    base = alg.pair_bracket(a, b)
    out = BracketPoly.zero(("lambda",))
    for k in range(j + 1):
        part = base.map_coeffs(lambda e: e.translate_power(j - k))
        out = out.add(part.shift_power("lambda", i + k).scale(math.comb(j, k) * (-1) ** i))
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("superfermion",))
def test_engine_bracket_of_atoms_is_the_table_bracket(name):
    # Bracket queries on one-atom operands must give the sesquilinear
    # expansion of the table, with every central still a symbol.
    if name == "superfermion":
        alg = parse_definition(DEFINITIONS["superfermion.vac"])
    else:
        alg = builtin(name)
    gens = [g.name for g in alg.generators]
    for a, b, i, j in product(gens, gens, range(3), range(3)):
        engine = vx.wick_bracket(vx.state(alg, a, i), vx.state(alg, b, j))
        table = _sesquilinear_table_bracket(alg, a, i, b, j)
        expected = table.map_coeffs(lambda e: vx.from_conformal(alg, e))
        assert engine == expected and str(engine) == str(table), (a, i, b, j)


def _random_composite(rng, alg):
    """A canonical word of two atoms with derivative powers up to 1, scaled."""
    gens = [g.name for g in alg.generators]
    atoms = [(rng.choice(gens), rng.randint(0, 1)) for _ in range(2)]
    return vx.normal_word(alg, atoms).scale(rng.randint(1, 4))


@pytest.mark.parametrize("name", ["neveu_schwarz", "current_sl2"])
def test_sesquilinearity_on_composite_words(name):
    # [Tx_lambda y] = -lambda [x_lambda y] and [x_lambda Ty] = (lambda + T) [x_lambda y]
    alg = builtin(name)
    rng = rng_for(f"composite-sesqui-{name}")
    for _ in range(10):
        x, y = _random_composite(rng, alg), _random_composite(rng, alg)
        base = vx.wick_bracket(x, y)
        assert vx.wick_bracket(x.translate(), y) == base.shift_power("lambda", 1).scale(-1)
        right = base.map_coeffs(lambda e: e.translate()).add(base.shift_power("lambda", 1))
        assert vx.wick_bracket(x, y.translate()) == right, (str(x), str(y))


def _presentation(name):
    if name == "superfermion":
        return parse_definition(DEFINITIONS["superfermion.vac"])
    return builtin(name)


def _random_word(rng, alg, length):
    """A canonical word of ``length`` atoms with derivative powers up to 2, scaled."""
    gens = [g.name for g in alg.generators]
    atoms = [(rng.choice(gens), rng.randint(0, 2)) for _ in range(length)]
    return vx.normal_word(alg, atoms).scale(rng.randint(1, 3))


@pytest.mark.parametrize(
    "name", ["current_sl2", "neveu_schwarz", "virasoro", "free_fermion", "superfermion"]
)
def test_truncated_bracket_is_the_whole_bracket_cut(name):
    # [x_lambda y] through lambda^top is the whole bracket without its terms
    # above lambda^top: on a fresh engine, before the whole bracket and after
    # it; x_(n) y is n! times the lambda^n coefficient.
    alg = _presentation(name)
    eng = vx.engine(alg)
    rng = rng_for(f"truncated-bracket-{name}")
    for _ in range(6):
        # One to three atoms a side, at most four in all, keeps the
        # degree-by-degree recomputation below a second per algebra.
        length = rng.randint(1, 3)
        x = _random_word(rng, alg, length)
        y = _random_word(rng, alg, rng.randint(1, min(3, 4 - length)))
        eng.clear()
        whole = eng.bracket(x, y)
        tops = range(whole.degree("lambda") + 2)

        def cut(top):
            return BracketPoly(
                ("lambda",), {e: v for e, v in whole.coeffs.items() if e[0] <= top}
            )

        for top in tops:
            eng.clear()
            assert eng.bracket(x, y, top) == cut(top), (str(x), str(y), top)
            assert eng.bracket(x, y) == whole
        for top in tops:
            assert eng.bracket(x, y, top) == cut(top), (str(x), str(y), top)
        eng.clear()
        for n in tops:
            expected = whole.coefficient((n,), eng.zero).scale(math.factorial(n))
            assert eng.nproduct(x, n, y) == expected, (str(x), n, str(y))
        assert eng.bracket(x, y) == whole


# -- engine memos ---------------------------------------------------------------

MEMO_OPERANDS = {
    "current_sl2": ["e", "d(h)", ":e f:", ":d(e) h:", ":h :e f::"],
    "neveu_schwarz": ["G", "d(L)", ":G L:", ":L :d(G) G::"],
    "free_fermion": ["psi1", ":psi1 psi2:", ":d(psi2) psi1:", ":d(psi1) :psi2 psi1::"],
}


def _memo_queries(name):
    """Brackets, n-products (n in [-3, 3]) and OPEs of a composite left
    operand with every operand but the longest, which run the product, power
    and parity memos."""
    operands = MEMO_OPERANDS[name]
    out = []
    for x, y in product(operands[2:], operands[:-1]):
        out += [["bracket", x, y], ["ope", x, y]]
        out += [["nproduct", x, str(n), y] for n in range(-3, 4)]
    return out


@pytest.mark.parametrize("name", sorted(MEMO_OPERANDS))
def test_warm_engine_answers_as_a_fresh_one(name):
    from vacalc.frontend.query import parse_query, run_query

    queries = _memo_queries(name)
    fresh = [run_query(parse_query(q), builtin(name)) for q in queries]
    forward = builtin(name)
    assert [run_query(parse_query(q), forward) for q in queries] == fresh
    backward = builtin(name)
    answers = [run_query(parse_query(q), backward) for q in reversed(queries)]
    assert answers[::-1] == fresh
    assert vx.engine(backward)._product_cache and vx.engine(backward)._power_cache


def test_clear_empties_every_memo():
    from vacalc.mode_algebra import mode_commutator

    alg = builtin("neveu_schwarz")
    eng = vx.engine(alg)
    x = vx.normal_word(alg, [("L", 0), ("G", 1)])
    y = vx.normal_word(alg, [("L", 1), ("G", 0)])

    def queries():
        return (
            eng.nproduct(x, 1, y),
            eng.bracket(x, y),
            eng.nproduct(x, -3, y),
            x.translate_power(3),
            mode_commutator("L", 2, "G", Scalar.param("n"), alg),
        )

    first = queries()
    caches = [v for v in vars(eng).values() if isinstance(v, dict)]
    assert len(caches) == 5 and all(caches)
    eng.clear()
    assert not any(caches)
    assert queries() == first


def test_negative_translation_power_is_refused(vir):
    with pytest.raises(ValueError):
        vx.state(vir, "L").translate_power(-3)
    with pytest.raises(ValueError):
        vir.gen("L").translate_power(-2)


def test_large_translation_powers():
    alg = virasoro()
    assert vx.state(alg, "L").translate_power(5000) == vx.state(alg, "L", 5000)
    # A composite word's powers are filled in a loop: with a recursion limit
    # far below k, a fill that recursed once per power would fail.
    alg = free_fermion()
    word = vx.normal_word(alg, [("psi1", 0), ("psi2", 0)])
    k = 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        high = word.translate_power(k)
    finally:
        sys.setrecursionlimit(limit)
    expected = vx.VertexElement(
        alg,
        words={vx.NormalWord([("psi1", i), ("psi2", k - i)]): math.comb(k, i) for i in range(k + 1)},
    )
    assert high == expected
