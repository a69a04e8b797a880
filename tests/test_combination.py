"""The module arithmetic shared by every linear-combination type."""

import pickle
from fractions import Fraction
from itertools import product

import pytest

from vacalc import formal_dist as fd
from vacalc import vertex_calc as vx
from vacalc.formal_dist import OneVarLaurent, TwoVarDistribution
from vacalc.lie_conformal import (
    BUILTIN_NAMES,
    ConformalElement,
    builtin,
    neveu_schwarz,
    virasoro,
)
from vacalc.mode_algebra import ModeExpression, default_indexing, mode, mode_commutator
from vacalc.poly import BracketPoly
from vacalc.scalar import LinearCombination, Scalar

VIR = virasoro()
C = Scalar.param("c")

# Each case builds p*e1 + q*e2 for two fixed basis vectors of one type,
# spread over its parts where it has several.
CASES = {
    "ConformalElement": lambda p, q: ConformalElement(
        terms={("L", 1): p}, central={"C": q}
    ),
    "ModeExpression": lambda p, q: ModeExpression(
        terms={mode("L", Scalar.param("m")): p}, central={"C": q}
    ),
    "VertexElement": lambda p, q: vx.VertexElement(
        VIR, words={vx.NormalWord([("L", 0), ("L", 0)]): p}, vacuum=q
    ),
    "OneVarLaurent": lambda p, q: OneVarLaurent({-2: p, 3: q}),
    "TwoVarDistribution": lambda p, q: TwoVarDistribution(
        singular={1: OneVarLaurent({0: p})}, regular={(1, -1): q}
    ),
    "BracketPoly": lambda p, q: BracketPoly(
        ("lambda",),
        {
            (0,): ConformalElement(terms={("L", 0): p}),
            (2,): ConformalElement(central={"C": q}),
        },
    ),
}


def _parts(x):
    return [dict(getattr(x, name)) for name in x._parts]


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_shared_module_arithmetic(build):
    x, y = build(2, C), build(-2, 1)
    assert isinstance(x, LinearCombination)
    # Zero coefficients are never stored, and cancellation prunes them.
    assert build(0, 0).is_zero()
    assert sum(map(len, _parts(build(3, 0)))) == 1
    assert build(3, 0) == build(3, 1).sub(build(0, 1))
    assert sum(map(len, _parts(x.add(y)))) == 1
    assert x.add(y) == build(0, C + 1)
    assert x.add(x.neg()).is_zero()
    assert x.sub(x).is_zero()
    assert x.scale(0).is_zero()
    # Scaling by exactly 1 is the identity on the object; nothing is changed.
    before = _parts(x)
    assert x.scale(1) is x
    assert x.scale(Scalar.one()) is x
    assert x.scale(1) == build(2, C)
    x.combine([(y, 3)])
    x.add(y).combine([(x, 3)])
    assert _parts(x) == before
    # Equal values hash equal, also after a pickle round trip; a pickle does
    # not carry the memoized hash, which depends on the string-hash seed.
    assert x == build(2, C) and hash(x) == hash(build(2, C))
    assert x != y
    assert pickle.dumps(x) == pickle.dumps(build(2, C))
    copy = pickle.loads(pickle.dumps(x))
    assert copy == x and hash(copy) == hash(x)
    # The one-pass sum equals the chained adds.
    pairs = [(y, 3), (x, -1), (y, C), (x, Fraction(1, 2)), (y, 0)]
    chained = x
    for z, c in pairs:
        chained = chained.add(z.scale(c))
    assert x.combine(pairs) == chained
    assert x.combine([]) == x


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_a_sum_that_adds_nothing_returns_its_operand(build):
    x, zero = build(2, C), build(0, 0)
    assert x.combine([]) is x
    assert x.combine(iter(())) is x
    assert zero.combine([(x, 1)]) is x
    assert zero.combine(iter([(x, Scalar.one())])) is x
    assert zero.combine([(x, 3)]) == x.scale(3) == build(6, 3 * C)
    assert zero.combine([(x, 0)]).is_zero()
    # Onto a nonzero value, or with two pairs, the sum is built.
    assert x.combine([(x, 1)]) == build(4, 2 * C)
    assert zero.combine([(x, 1), (x, -1)]).is_zero()


def test_a_one_term_sum_still_checks_the_context():
    with pytest.raises(ValueError, match="different alg"):
        vx.zero(VIR).combine([(vx.state(neveu_schwarz(), "L"), 1)])
    with pytest.raises(ValueError, match="different variables"):
        BracketPoly.zero(("mu",)).combine([(BracketPoly.constant(1), 1)])


def test_sums_leave_cached_engine_results_unchanged():
    alg = neveu_schwarz()
    eng = vx.engine(alg)
    word = vx.NormalWord([("L", 0), ("G", 0)])
    single = vx.NormalWord([("G", 0)])
    translated = eng.translate_word_power(word, 1)
    bracket = eng._word_bracket(single, word)
    normal = eng._word_product(word, word)
    power = eng.translate_word_power(word, 3)
    cached = (translated, bracket, normal, power)
    snapshot = [repr(value) for value in cached] + [str(eng.zero)]

    state = vx.VertexElement(alg, words={word: C})
    eng.zero.combine([(translated, 1), (translated, -1), (state, 2)])
    translated.add(translated.scale(-1)).scale(3)
    state.translate().translate()
    eng.bracket(vx.state(alg, "G"), state.add(state.translate()))
    bracket.add(bracket).sub(bracket.scale(Fraction(1, 3)))
    BracketPoly.zero().combine([(bracket, 1), (bracket, C)])
    eng.zero.combine([(normal, C), (power, 1), (normal, -C), (power, 2)])
    normal.add(power).sub(normal.scale(Fraction(1, 3)))
    state.translate_power(4).add(state.translate_power(3))
    eng.normal_product(state, state.add(state.translate_power(3)))

    assert eng.translate_word_power(word, 1) is translated
    assert eng._word_bracket(single, word) is bracket
    assert eng._word_product(word, word) is normal
    assert eng.translate_word_power(word, 3) is power
    assert snapshot == [repr(value) for value in cached] + ["0"]


# -- coefficients are kept in their narrowest exact type ------------------------


def _coefficients(value):
    """Every number or Scalar stored in a result, through coefficients that
    are themselves combinations and through lists and pairs."""
    if isinstance(value, LinearCombination):
        for name in value._parts:
            for coeff in getattr(value, name).values():
                yield from _coefficients(coeff)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _coefficients(item)
    elif isinstance(value, fd.TruncatedSeries):
        yield from (coeff for _, coeff in value.coeffs)
    else:
        yield value


def _assert_narrow(value):
    for coeff in _coefficients(value):
        kind = type(coeff)
        assert (
            kind is int
            or (kind is Fraction and coeff.denominator != 1)
            or (kind is Scalar and coeff.parameters())
        ), f"{coeff!r} ({kind.__name__}) in {value}"


def _states(alg):
    gens = [g.name for g in alg.generators]
    out = [vx.state(alg, g, d) for g in gens for d in (0, 1)]
    out += [vx.normal_word(alg, [(a, 0), (b, 0)]) for a in gens[:2] for b in gens[-2:]]
    even = vx.normal_word(alg, [(gens[0], 0), (gens[0], 1)]).scale(Fraction(2, 3))
    out.append(even.add(vx.vacuum(alg).scale(Scalar.param("c"))))
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_vertex_and_mode_results_hold_narrow_coefficients(name):
    alg = builtin(name)
    states = _states(alg)
    for x in states:
        _assert_narrow(x)
        for y in states[:4]:
            _assert_narrow(vx.wick_bracket(x, y))
            for n in (-2, -1, 0, 1, 2):
                _assert_narrow(vx.nproduct(x, n, y))
    indexing = default_indexing(alg)
    m, n = Scalar.param("m"), Scalar.param("n")
    for a, b in product([g.name for g in alg.generators], repeat=2):
        _assert_narrow(mode_commutator(a, m, b, n, alg, indexing))
        for i in (-1, 0, 2):
            offset_a, offset_b = (-alg.weight(a)) % 1, (-alg.weight(b)) % 1
            _assert_narrow(mode_commutator(a, i + offset_a, b, offset_b - i, alg, indexing))
        _assert_narrow(vx.wick_bracket(vx.state(alg, a, 1), vx.state(alg, b, 2)))


def test_formal_results_hold_narrow_coefficients():
    c = Scalar.param("c")
    f = OneVarLaurent({-2: Scalar.from_rational(3), 1: c * Fraction(1, 2), 2: Fraction(4, 2)})
    dist = TwoVarDistribution(
        singular={0: f, 2: OneVarLaurent({0: Scalar.one(), -1: c})},
        regular={(-2, 1): Scalar.from_rational(Fraction(1, 3)), (1, 0): c},
    )
    local = TwoVarDistribution(singular=dist.singular)
    results = [
        f, dist, f.mul(f), f.derive(),
        fd.derive(dist, "z"), fd.derive(dist, "w"), fd.swap_zw(dist),
        fd.mul_one_var(dist, f, "z"), fd.mul_one_var(dist, f, "w"), fd.residue_z(dist),
        fd.mul_zw_power(dist, 3), fd.fourier_two(dist, order=4), fd.fourier_one(f),
        fd.decompose(local), fd.fourier_two(local),
        fd.expand_power(-3, fd.Z_DOMINANT, 12), fd.expand_power(4, fd.W_DOMINANT, 3),
        fd.expand_power(-2, fd.W_DOMINANT, 5).mul_poly({(1, 0): Fraction(1, 2), (0, 1): c}),
    ]
    for result in results:
        _assert_narrow(result)


def test_numbers_and_constant_scalars_build_equal_values():
    word = vx.NormalWord([("L", 0), ("L", 0)])
    pairs = [
        (vx.VertexElement(VIR, words={word: Scalar.from_rational(2)}),
         vx.VertexElement(VIR, words={word: 2})),
        (vx.VertexElement(VIR, vacuum=Scalar.from_rational(Fraction(1, 2))),
         vx.VertexElement(VIR, vacuum=Fraction(1, 2))),
        (ConformalElement(terms={("L", 0): Fraction(4, 2)}),
         ConformalElement(terms={("L", 0): 2})),
    ]
    for x, y in pairs:
        # Scalar(2) == 2 but their hashes differ: a part holding either one
        # must hold the same number, or equal states would hash apart.
        assert x == y and hash(x) == hash(y)
        _assert_narrow(x)
    with pytest.raises(TypeError):
        vx.VertexElement(VIR, words={word: 0.5})
