from fractions import Fraction

import pytest

from vacalc.checks import verify_mode_jacobi
from vacalc.lie_conformal import (
    AlgebraPresentation,
    CentralDecl,
    ConformalElement,
    GeneratorDecl,
    Parity,
    VacalcError,
    free_boson,
)
from vacalc.mode_algebra import (
    SHIFTED,
    WEIGHT,
    ModeExpression,
    ModeSymbol,
    commute,
    mode,
    mode_commutator,
    normalize_derivative_mode,
)
from vacalc.poly import BracketPoly
from vacalc.scalar import Scalar


def sym(gen, index, indexing=WEIGHT):
    return ModeSymbol(gen, Scalar.coerce(index), indexing)


def expr(terms=None, central=None):
    return ModeExpression(terms=terms, central=central)


# -- normalization rules ---------------------------------------------------


def test_first_derivative_mode(vir):
    n = Scalar.param("n")
    out = normalize_derivative_mode("L", 1, n, vir)
    assert out == expr({ModeSymbol("L", n - Scalar.from_rational(1), SHIFTED): -n})


def test_second_derivative_mode(vir):
    # applying the single-derivative rule twice: (d^2 a)_(3) = -3 (d a)_(2)
    # = -3 * (-2) a_(1) = 6 a_(1)
    out = normalize_derivative_mode("L", 2, 3, vir)
    assert out == expr({sym("L", 3 - 2, SHIFTED): 6})


def test_central_modes_are_torsion(vir):
    assert normalize_derivative_mode("C", 1, 5, vir).is_zero()
    assert normalize_derivative_mode("C", 0, -1, vir) == expr(central={"C": 1})
    assert normalize_derivative_mode("C", 0, 2, vir).is_zero()


# -- commutators -------------------------------------------------------------


def test_virasoro_weight_modes(vir):
    assert mode_commutator("L", 2, "L", -2, vir, WEIGHT) == expr(
        {sym("L", 0): 4}, {"C": Fraction(1, 2)}
    )
    assert mode_commutator("L", 0, "L", 1, vir, WEIGHT) == expr({sym("L", 1): -1})


def test_ns_weight_modes(ns):
    half = Fraction(1, 2)
    assert mode_commutator("G", half, "G", -half, ns, WEIGHT) == expr({sym("L", 0): 1})
    # [L_m, G_n] = (m/2 - n) G_(m+n): zero at (1, 1/2), 3/2 at (2, -1/2)
    assert mode_commutator("L", 1, "G", half, ns, WEIGHT).is_zero()
    out = mode_commutator("L", 2, "G", -half, ns, WEIGHT)
    assert out == expr({sym("G", Fraction(3, 2)): Fraction(3, 2)})


def test_boson_modes():
    alg = free_boson()
    m = Scalar.param("m")
    out = mode_commutator("a1", m, "a1", -m, alg, WEIGHT)
    assert out == expr(central={"K": m})
    assert mode_commutator("a1", 2, "a1", 3, alg, WEIGHT).is_zero()
    assert mode_commutator("a1", 2, "a2", -2, alg, WEIGHT).is_zero()


def test_fermion_modes(fermion2):
    m = Scalar.param("m")
    out = mode_commutator("psi1", m, "psi1", -m, fermion2, WEIGHT)
    assert out == expr(central={"K": 1})
    assert mode_commutator("psi1", m, "psi2", -m, fermion2, WEIGHT).is_zero()
    half = Fraction(1, 2)
    assert mode_commutator("psi1", half, "psi1", half, fermion2, WEIGHT).is_zero()


def test_symbolic_virasoro_recovered(vir):
    m, n = Scalar.param("m"), Scalar.param("n")
    generic = mode_commutator("L", m, "L", n, vir, WEIGHT)
    assert generic == expr({ModeSymbol("L", m + n, WEIGHT): m - n})
    onslice = mode_commutator("L", m, "L", -m, vir, WEIGHT)
    cubic = (m * m * m - m) / 12
    assert onslice == expr({ModeSymbol("L", Scalar.zero(), WEIGHT): m * 2}, {"C": cubic})


def test_shifted_indexing_and_coherence(vir, ns):
    # commute in shifted indexing, convert, and compare against weight indexing
    for alg, gens in ((vir, ("L",)), (ns, ("L", "G"))):
        for a in gens:
            for b in gens:
                da, db = alg.weight(a), alg.weight(b)
                for i in range(-3, 4):
                    for j in range(-3, 4):
                        ma = Fraction(i) - da + 1  # weight index of a_(i)
                        mb = Fraction(j) - db + 1
                        shifted = mode_commutator(a, i, b, j, alg, SHIFTED)
                        converted = ModeExpression(
                            terms={
                                ModeSymbol(
                                    s.gen,
                                    s.index
                                    - Scalar.from_rational(alg.weight(s.gen) - 1),
                                    WEIGHT,
                                ): v
                                for s, v in shifted.terms.items()
                            },
                            central=shifted.central,
                        )
                        direct = mode_commutator(a, ma, b, mb, alg, WEIGHT)
                        assert converted == direct, (a, i, b, j)


def test_weight_indexing_requires_integral_shift(ns):
    with pytest.raises(VacalcError):
        mode_commutator("G", 1, "G", -1, ns, WEIGHT)  # G needs half-integers
    with pytest.raises(VacalcError):
        mode_commutator("L", Fraction(1, 2), "L", 0, ns, WEIGHT)


def test_commute_requires_matching_indexing(vir):
    with pytest.raises(VacalcError):
        commute(mode("L", 2, WEIGHT), mode("L", 1, SHIFTED), vir)
    out = commute(mode("L", 2, WEIGHT), mode("L", -2, WEIGHT), vir)
    assert out == expr({sym("L", 0): 4}, {"C": Fraction(1, 2)})


def test_mode_symbols_hash_apart_where_int_hashes_collide():
    # hash(-1) == hash(-2), so a hash of the index's terms would let these
    # modes collide in every table that a sweep keys by symbol.
    assert hash(-1) == hash(-2)
    indices = [-2, -1, 0, 1, 2, Fraction(-1, 2), Fraction(-3, 2), Scalar.param("n") - 1]
    modes = [mode("L", i, WEIGHT) for i in indices]
    assert len({hash(x) for x in modes}) == len(modes)
    # Equal symbols still hash alike, however the index was given.
    assert hash(mode("L", Fraction(-4, 2), WEIGHT)) == hash(sym("L", -2))


# -- invariants ---------------------------------------------------------------


def test_gradation(ns):
    m, n = Scalar.param("m"), Scalar.param("n")
    for a in ("L", "G"):
        for b in ("L", "G"):
            out = mode_commutator(a, m, b, n, ns, WEIGHT)
            for s in out.terms:
                assert s.index == m + n


def test_central_delta_support(vir, ns, fermion2):
    for alg in (vir, ns, fermion2):
        gens = [g.name for g in alg.generators]
        for a in gens:
            for b in gens:
                grid_a = _grid(alg, a, 4)
                grid_b = _grid(alg, b, 4)
                for i in grid_a:
                    for j in grid_b:
                        out = mode_commutator(a, i, b, j, alg, WEIGHT)
                        if out.central and i + j != 0:
                            raise AssertionError((a, i, b, j, str(out)))


def _grid(alg, gen, bound):
    offset = (-alg.weight(gen)) % 1
    v = Fraction(-bound) + offset
    out = []
    while v <= bound:
        out.append(v)
        v += 1
    return out


# -- Jacobi sweeps --------------------------------------------------------------


def test_mode_jacobi_virasoro(vir):
    report = verify_mode_jacobi(vir, 3)
    assert report.passed


def test_mode_jacobi_ns(ns):
    report = verify_mode_jacobi(ns, 2)
    assert report.passed


def test_mode_jacobi_all_builtins_range_three(vir, ns, fermion2, sl2):
    from vacalc.lie_conformal import free_boson

    for alg in (vir, ns, fermion2, free_boson(), sl2):
        assert verify_mode_jacobi(alg, 3).passed, alg.name


def test_mode_jacobi_detects_table_corruption():
    # Corrupt 2 lambda L -> 3 lambda L.  Hand evaluation of the antisymmetry
    # instance: [L_1, L_-1] = (2m - n + 1)|_(1,-1) L_0 = 4 L_0 while
    # -[L_-1, L_1] = 2 L_0.
    table = {
        ("L", "L"): BracketPoly(
            ("lambda",),
            {
                (0,): ConformalElement(terms={("L", 1): 1}),
                (1,): ConformalElement(terms={("L", 0): 3}),
                (3,): ConformalElement(central={"C": Fraction(1, 12)}),
            },
        )
    }
    bad = AlgebraPresentation(
        "virasoro_corrupt",
        ("c",),
        (GeneratorDecl("L", Parity.EVEN, Fraction(2)),),
        (CentralDecl("C", Parity.EVEN, Scalar.param("c")),),
        table,
    )
    assert mode_commutator("L", 1, "L", -1, bad, WEIGHT) == expr({sym("L", 0): 4})
    assert mode_commutator("L", -1, "L", 1, bad, WEIGHT) == expr({sym("L", 0): -2})
    report = verify_mode_jacobi(bad, 2)
    assert not report.passed
    kinds = {f.kind for f in report.failures}
    assert "antisymmetry" in kinds
