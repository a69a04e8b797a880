"""The module arithmetic shared by every linear-combination type."""

import pickle
from fractions import Fraction

import pytest

from vacalc import vertex_calc as vx
from vacalc.formal_dist import OneVarLaurent, TwoVarDistribution
from vacalc.lie_conformal import ConformalElement, neveu_schwarz, virasoro
from vacalc.mode_algebra import ModeExpression, mode
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


def test_sums_leave_cached_engine_results_unchanged():
    alg = neveu_schwarz()
    eng = vx.engine(alg)
    word = vx.NormalWord([("L", 0), ("G", 0)])
    single = vx.NormalWord([("G", 0)])
    translated = eng.translate_word(word)
    bracket = eng._word_bracket(single, word)
    snapshot = (str(translated), repr(bracket), str(eng.zero))

    state = vx.VertexElement(alg, words={word: C})
    eng.zero.combine([(translated, 1), (translated, -1), (state, 2)])
    translated.add(translated.scale(-1)).scale(3)
    state.translate().translate()
    eng.bracket(vx.state(alg, "G"), state.add(state.translate()))
    bracket.add(bracket).sub(bracket.scale(Fraction(1, 3)))
    BracketPoly.zero().combine([(bracket, 1), (bracket, C)])

    assert eng.translate_word(word) is translated
    assert eng._word_bracket(single, word) is bracket
    assert snapshot == (str(translated), repr(bracket), "0")
