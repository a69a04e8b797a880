"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every comparison is an
exact symbolic identity (truncated identities state their order explicitly).
"""

import time
from fractions import Fraction

from conftest import rng_for
from vacalc import formal_dist as fd
from vacalc import vertex_calc as vx
from vacalc.checks import borcherds_identity_check, check_jacobi, check_skew, verify_mode_jacobi
from vacalc.frontend import parse_query, run_query
from vacalc.lie_conformal import (
    AlgebraPresentation,
    CentralDecl,
    ConformalElement,
    GeneratorDecl,
    Parity,
    free_boson,
    free_fermion,
    neveu_schwarz,
    sl2_current,
    uncharged_superfermions,
    virasoro,
)
from vacalc.mode_algebra import (
    WEIGHT,
    ModeExpression,
    ModeSymbol,
    mode_commutator,
)
from vacalc.poly import BracketPoly
from vacalc.scalar import Scalar, binom


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def bp(alg_entries):
    return BracketPoly(("lambda",), {(k,): v for k, v in alg_entries.items()})


def over_states(alg, poly):
    """The same polynomial with each table element read as a state."""
    return poly.map_coeffs(lambda e: vx.from_conformal(alg, e))


def msym(gen, index):
    return ModeSymbol(gen, Scalar.coerce(index), WEIGHT)


def test_criterion_01_virasoro_bracket():
    alg = virasoro()
    expected = bp(
        {
            0: ConformalElement(terms={("L", 1): 1}),
            1: ConformalElement(terms={("L", 0): 2}),
            3: ConformalElement(central={"C": Fraction(1, 12)}),
        }
    )
    L = vx.state(alg, "L")
    assert vx.wick_bracket(L, L) == over_states(alg, expected)
    out, code = run_query(parse_query(["bracket", "L", "L"]), alg)
    assert code == 0
    assert out == "d(L) + 2*lambda*L + 1/12*lambda^3*C"
    report(1, "[L_lambda L] = (d + 2 lambda) L + lambda^3/12 C, exactly")


def test_criterion_02_virasoro_ope():
    out, code = run_query(parse_query(["ope", "L", "L"]), virasoro())
    assert code == 0
    assert out == "L(z)L(w) ~ (c/2)/(z-w)^4 + 2*L(w)/(z-w)^2 + d(L)(w)/(z-w)"
    report(2, "Virasoro OPE rendering matches the singular part verbatim")


def test_criterion_03_neveu_schwarz_suite():
    ns = neveu_schwarz()
    L, G, C = vx.state(ns, "L"), vx.state(ns, "G"), vx.state(ns, "C")
    dL = ConformalElement(terms={("L", 1): 1})
    dG = ConformalElement(terms={("G", 1): 1})
    Ge = ConformalElement(terms={("G", 0): 1})
    Le = ConformalElement(terms={("L", 0): 1})
    cc = lambda q: ConformalElement(central={"C": q})
    assert vx.wick_bracket(L, L) == over_states(
        ns, bp({0: dL, 1: Le.scale(2), 3: cc(Fraction(1, 12))})
    )
    assert vx.wick_bracket(L, G) == over_states(
        ns, bp({0: dG, 1: Ge.scale(Fraction(3, 2))})
    )
    assert vx.wick_bracket(G, L) == over_states(
        ns, bp({0: dG.scale(Fraction(1, 2)), 1: Ge.scale(Fraction(3, 2))})
    )
    assert vx.wick_bracket(G, G) == over_states(ns, bp({0: Le, 2: cc(Fraction(1, 6))}))
    assert vx.wick_bracket(C, L).is_zero()
    assert vx.wick_bracket(C, G).is_zero()

    # symbolic mode relations: generic indices drop the central delta, the
    # slice n = -m recovers it
    m, n = Scalar.param("m"), Scalar.param("n")
    assert mode_commutator("L", m, "L", n, ns, WEIGHT) == ModeExpression(
        terms={msym("L", m + n): m - n}
    )
    assert mode_commutator("L", m, "L", -m, ns, WEIGHT) == ModeExpression(
        terms={msym("L", 0): m * 2}, central={"C": (m * m * m - m) / 12}
    )
    assert mode_commutator("L", m, "G", n, ns, WEIGHT) == ModeExpression(
        terms={msym("G", m + n): m / 2 - n}
    )
    assert mode_commutator("G", m, "G", n, ns, WEIGHT) == ModeExpression(
        terms={msym("L", m + n): Scalar.one()}
    )
    assert mode_commutator("G", m, "G", -m, ns, WEIGHT) == ModeExpression(
        terms={msym("L", 0): Scalar.one()},
        central={"C": (m * m - Scalar.from_rational(Fraction(1, 4))) / 6},
    )

    # concrete indices in [-3, 3]; half-integer grid for G
    ints = [Fraction(k) for k in range(-3, 4)]
    halves = [Fraction(k, 2) for k in range(-5, 6, 2)]
    for i in ints:
        for j in ints:
            expected = ModeExpression(
                terms={msym("L", i + j): i - j},
                central={"C": (i**3 - i) / 12 if i + j == 0 else 0},
            )
            assert mode_commutator("L", i, "L", j, ns, WEIGHT) == expected
        for j in halves:
            expected = ModeExpression(terms={msym("G", i + j): i / 2 - j})
            assert mode_commutator("L", i, "G", j, ns, WEIGHT) == expected
    for i in halves:
        for j in halves:
            expected = ModeExpression(
                terms={msym("L", i + j): 1},
                central={"C": (i**2 - Fraction(1, 4)) / 6 if i + j == 0 else 0},
            )
            assert mode_commutator("G", i, "G", j, ns, WEIGHT) == expected
    report(3, "all five NS lambda-brackets and three mode relations, symbolic and on the grid")


def test_criterion_04_free_superfermion_wick():
    sdim = Scalar.param("sdim")
    for even, odd in ((0, 1), (2, 0), (0, 2), (2, 1), (2, 2)):
        alg = uncharged_superfermions(even, odd)
        L = vx.fermion_conformal_vector(alg)
        values = {"sdim": Fraction(even - odd)}
        for g in alg.generators:
            phi = vx.state(alg, g.name)
            assert vx.wick_bracket(phi, L) == BracketPoly(
                ("lambda",),
                {
                    (0,): phi.translate().scale(Fraction(-1, 2)),
                    (1,): phi.scale(Fraction(1, 2)),
                },
            )
            assert vx.wick_bracket(L, phi) == BracketPoly(
                ("lambda",),
                {(0,): phi.translate(), (1,): phi.scale(Fraction(1, 2))},
            )
        cubic = (sdim * Fraction(-1, 24)).substitute(values)
        assert vx.wick_bracket(L, L) == BracketPoly(
            ("lambda",),
            {
                (0,): L.translate(),
                (1,): L.scale(2),
                (3,): vx.vacuum(alg).scale(cubic),
            },
        ), (even, odd)
    report(4, "[phi_l L] = (l-d)phi/2, [L_l phi] = (d+l/2)phi, [L_l L] 3rd "
              "coefficient -(e-o)/24 over five bases")


def corrupted_virasoro():
    return AlgebraPresentation(
        "virasoro_corrupt",
        ("c",),
        (GeneratorDecl("L", Parity.EVEN, Fraction(2)),),
        (CentralDecl("C", Parity.EVEN, Scalar.param("c")),),
        {
            ("L", "L"): bp(
                {
                    0: ConformalElement(terms={("L", 1): 1}),
                    1: ConformalElement(terms={("L", 0): 3}),
                    3: ConformalElement(central={"C": Fraction(1, 12)}),
                }
            )
        },
    )


def corrupted_ns():
    good = neveu_schwarz()
    table = dict(good.table)
    table[("G", "G")] = bp(
        {
            0: ConformalElement(terms={("L", 0): 1}),
            2: ConformalElement(central={"C": Fraction(1, 3)}),
        }
    )
    return AlgebraPresentation(
        "ns_corrupt", ("c",), good.generators, good.centrals, table
    )


def corrupted_fermion():
    # an even vector must pair antisymmetrically with itself, so <phi,phi> = 1
    # is inconsistent; build the table directly to bypass form validation
    return AlgebraPresentation(
        "fermion_corrupt",
        (),
        (GeneratorDecl("phi", Parity.EVEN, Fraction(1, 2)),),
        (CentralDecl("K", Parity.EVEN, Scalar.one()),),
        {("phi", "phi"): bp({0: ConformalElement(central={"K": 1})})},
    )


def test_criterion_05_axiom_checkers():
    for alg in (
        virasoro(),
        neveu_schwarz(),
        free_fermion(),
        free_boson(),
        sl2_current(),
    ):
        assert check_skew(alg).passed, alg.name
        assert check_jacobi(alg).passed, alg.name

    # corruption 1: Virasoro 2 lambda L -> 3 lambda L; the skew residual is
    # -d(L) at lambda^0 (hand evaluation of -[L_(-l-d) L])
    bad = corrupted_virasoro()
    skew = check_skew(bad)
    assert not skew.passed
    assert skew.failures[0].subject == ("L", "L")
    assert skew.failures[0].diff == over_states(
        bad, bp({0: ConformalElement(terms={("L", 1): -1})})
    )
    assert not check_jacobi(bad).passed

    # corruption 2: NS lambda^2/6 C -> lambda^2/3 C passes skew (even lambda
    # powers of a torsion central are skew-invariant) but fails Jacobi at
    # (G, L, G) with residual mu^3/12 C (hand evaluation pins the 1/6)
    bad = corrupted_ns()
    assert check_skew(bad).passed
    jac = check_jacobi(bad)
    assert not jac.passed
    failure = next(f for f in jac.failures if f.subject == ("G", "L", "G"))
    assert failure.diff == over_states(
        bad,
        BracketPoly(
            ("lambda", "mu"),
            {(0, 3): ConformalElement(central={"C": Fraction(1, 12)})},
        ),
    )

    # corruption 3: an even fermion with <phi,phi> = 1; the skew residual is
    # 2K at lambda^0
    bad = corrupted_fermion()
    skew = check_skew(bad)
    assert not skew.passed
    assert skew.failures[0].diff == over_states(
        bad, bp({0: ConformalElement(central={"K": 2})})
    )
    report(5, "checkers pass on the builtins and localize all three corruptions")


def test_criterion_06_mode_jacobi_sweeps():
    start = time.time()
    assert verify_mode_jacobi(virasoro(), 3).passed
    assert verify_mode_jacobi(neveu_schwarz(), 2).passed
    elapsed = time.time() - start
    assert elapsed < 10, f"mode Jacobi sweeps took {elapsed:.1f}s"
    report(6, f"mode Jacobi: Virasoro range 3 and NS range 2 in {elapsed:.1f}s")


def test_criterion_07_borcherds_sweep():
    alg = uncharged_superfermions(0, 2)
    states = [vx.state(alg, "psi1"), vx.state(alg, "psi2")]
    start = time.time()
    checked = 0
    for a in states:
        for b in states:
            for c in states:
                for m in range(-3, 4):
                    for n in range(-3, 4):
                        for q in range(-3, 4):
                            result = borcherds_identity_check(a, b, c, m, n, q)
                            assert result.passed, (m, n, q)
                            checked += 1
    elapsed = time.time() - start
    assert checked == 8 * 343
    report(7, f"Borcherds identity on all {checked} cases in {elapsed:.1f}s")


def random_state(rng, alg, max_len=2, max_dpow=2):
    gens = list(alg.generators)
    out = vx.zero(alg)
    while out.is_zero():
        atoms = [
            (rng.choice(gens).name, rng.randint(0, max_dpow))
            for _ in range(rng.randint(1, max_len))
        ]
        out = vx.normal_word(alg, atoms).scale(Fraction(rng.randint(1, 3)))
    return out


def test_criterion_08_quasi_identities():
    alg = uncharged_superfermions(2, 2)
    eng = vx.engine(alg)
    rng = rng_for("acceptance-quasi")
    for _ in range(50):
        a = random_state(rng, alg)
        b = random_state(rng, alg)
        sign = eng.element_parity(a).sign_with(eng.element_parity(b))
        direct = vx.normal_product(a, b).sub(
            vx.normal_product(b, a).scale(sign)
        )
        assert direct == vx.quasi_comm_defect(a, b)
    for _ in range(50):
        a = random_state(rng, alg, max_len=1)
        b = random_state(rng, alg, max_len=1)
        c = random_state(rng, alg, max_len=1)
        assert vx.quasi_assoc_defect_sum(a, b, c) == (
            vx.quasi_assoc_defect_integral(a, b, c)
        )
    report(8, "quasi-commutativity on 50 random pairs, sum = integral "
              "correction on 50 random triples")


def test_criterion_09_formal_calculus_kernel():
    rng = rng_for("acceptance-kernel")
    delta = fd.delta()

    def random_laurent():
        return fd.OneVarLaurent(
            {
                rng.randint(-3, 3): Scalar.from_rational(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                )
                for _ in range(rng.randint(1, 3))
            }
        )

    # (1) (z-w)^m d^n delta = 0 for m > n
    for n in range(0, 4):
        ladder = delta
        for _ in range(n):
            ladder = fd.derive(ladder, "w")
        for m in range(n + 1, n + 4):
            assert fd.mul_zw_power(ladder, m).is_zero()
    # (2) (z-w) d^n delta / n! = d^(n-1) delta / (n-1)!
    for n in range(1, 5):
        assert fd.mul_zw_power(fd.delta_ladder(n), 1) == fd.delta_ladder(n - 1)
    # (3) delta(z,w) = delta(w,z)
    assert fd.swap_zw(delta) == delta
    # (4) d_z delta(z,w) = -d_w delta(w,z): the right side differentiates the
    # swapped expression in its explicit w slot
    assert fd.derive(delta, "z") == fd.derive(fd.swap_zw(delta), "w").scale(-1)
    # (5) a(z) delta = a(w) delta and (6) Res_z a(z) delta = a(w)
    for _ in range(10):
        a = random_laurent()
        prod = fd.mul_one_var(delta, a, "z")
        assert prod == fd.mul_one_var(delta, a, "w")
        assert fd.residue_z(prod) == a
    # (7) e^(l(z-w)) d^n delta = (l + d_w)^n delta, lambda degree <= 6
    for n in range(0, 5):
        ladder = delta
        for _ in range(n):
            ladder = fd.derive(ladder, "w")
        assert fd.fourier_two(ladder) == fd.BracketPoly(
            ("lambda",), {(n,): fd.OneVarLaurent.unit()}
        )
        for k in range(0, 7):
            lhs = fd.mul_zw_power(ladder, k).scale(Fraction(1, fd.factorial(k)))
            if k <= n:
                rhs = fd.delta_ladder(n - k).scale(
                    binom(n, k) * fd.factorial(n - k)
                )
            else:
                rhs = fd.TwoVarDistribution.zero()
            assert lhs == rhs

    # decomposition round-trip on 20 random local distributions
    for _ in range(20):
        singular = {}
        for j in rng.sample(range(0, 5), rng.randint(1, 3)):
            c = random_laurent()
            if not c.is_zero():
                singular[j] = c
        dist = fd.TwoVarDistribution(singular=singular)
        parts = fd.decompose(dist)
        for j, c in parts:
            assert fd.residue_z(fd.mul_zw_power(dist, j)) == c
        assert fd.TwoVarDistribution(singular=dict(parts)) == dist

    # delta = i_zw 1/(z-w) - i_wz 1/(z-w) at truncation order 8
    order = 8
    a = fd.expand_power(-1, fd.Z_DOMINANT, order).coeff_map()
    b = fd.expand_power(-1, fd.W_DOMINANT, order).coeff_map()
    for (ze, we) in set(a) | set(b):
        if we >= order or ze >= order:
            continue
        diff = a.get((ze, we), Scalar.zero()) - b.get((ze, we), Scalar.zero())
        expected = Scalar.one() if ze == -1 - we else Scalar.zero()
        assert diff == expected
    report(9, "delta property suite, decomposition round-trips, and the "
              "expansion difference identity at order 8")


def test_criterion_10_weight_calculus():
    alg = uncharged_superfermions(0, 2)
    assert vx.weight(vx.normal_word(alg, [("psi1", 1), ("psi1", 0)])) == Fraction(2)
    L = vx.fermion_conformal_vector(alg)
    assert vx.weight(L.translate()) == Fraction(3)
    vir = virasoro()
    assert vx.weight(vx.state(vir, "L").translate()) == 3
    result = vx.primary_check("psi1", L)
    assert result.kind == "primary" and result.weight == Fraction(1, 2)

    rng = rng_for("acceptance-weights")
    for _ in range(20):
        a = random_state(rng, alg, max_len=1)
        b = random_state(rng, alg, max_len=1)
        wa, wb = vx.weight(a), vx.weight(b)
        for n in range(-3, 4):
            out = vx.nproduct(a, n, b)
            if out.is_zero():
                continue
            w = vx.weight(out)
            if w is not None:
                assert w == wa + wb - n - 1
    report(10, "weight calculus: words, derivatives, primaries, additivity sweep")
