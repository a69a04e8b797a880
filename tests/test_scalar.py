from fractions import Fraction

import pytest

from conftest import random_scalar, rng_for
from vacalc.scalar import Scalar, binom, factorial, narrow


def test_binom_ordinary():
    assert binom(3, 2) == 3
    assert binom(5, 5) == 1
    assert binom(4, 2) == 6


def test_binom_zero_lower():
    for j in range(-6, 7):
        assert binom(j, 0) == 1
    assert binom(Fraction(7, 2), 0) == 1


def test_binom_negative_upper():
    # product formula by hand: (-1)(-2)/2 = 1 and (-2)(-3)(-4)/6 = -4
    assert binom(-1, 2) == 1
    assert binom(-2, 3) == -4
    assert binom(-3, 1) == -3


def test_binom_rational_upper():
    assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom(Fraction(3, 2), 1) == Fraction(3, 2)


def test_binom_symbolic_upper_is_polynomial():
    m = Scalar.param("m")
    poly = binom(m, 3)
    # m(m-1)(m-2)/6
    expected = m * (m - Scalar.from_rational(1)) * (m - Scalar.from_rational(2)) / 6
    assert poly == expected
    # constant Scalar falls back to the numeric value
    assert binom(Scalar.from_rational(5), 2) == 10


def _product_binom(j, n):
    acc = Fraction(1)
    for k in range(1, n + 1):
        acc = acc * (j - k + 1) / k
    return acc


def test_binom_matches_the_product_formula():
    for j in range(-30, 31):
        for n in range(31):
            value = binom(j, n)
            assert type(value) is int, (j, n)
            assert value == _product_binom(Fraction(j), n), (j, n)
    for j in (Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3)):
        for n in range(31):
            assert binom(j, n) == _product_binom(j, n), (j, n)
    # A symbolic upper argument gives the polynomial that takes the same
    # values at every integer.
    m = Scalar.param("m")
    for n in range(8):
        poly = binom(m, n)
        for j in range(-5, 6):
            assert poly.substitute({"m": j}) == _product_binom(Fraction(j), n), (j, n)


def test_binom_rejects_negative_lower():
    with pytest.raises(ValueError):
        binom(3, -1)
    with pytest.raises(ValueError):
        binom(3, Fraction(1, 2))


def test_vandermonde():
    for n in range(-6, 7):
        for m in range(-6, 7):
            for j in range(0, 9):
                total = sum(binom(n, k) * binom(m, j - k) for k in range(j + 1))
                assert total == binom(n + m, j), (n, m, j)


def test_binomial_reflection():
    for r in range(-6, 7):
        for s in range(0, 9):
            assert binom(r, s) == Fraction(-1) ** s * binom(s - r - 1, s)


def test_scalar_basic_arithmetic():
    c = Scalar.param("c")
    half = Scalar.from_rational(Fraction(1, 2))
    assert half * c + half * c == c
    assert (c - c).is_zero()
    assert (c - c) == Scalar.zero()
    assert Scalar.from_rational(Fraction(1, 12)) * c * 6 == c / 2


def test_scalar_ring_axioms_random():
    rng = rng_for("scalar-ring")
    for _ in range(60):
        a = random_scalar(rng, params=("c", "k"))
        b = random_scalar(rng, params=("c", "k"))
        d = random_scalar(rng, params=("c", "k"))
        assert (a + b) + d == a + (b + d)
        assert a + b == b + a
        assert (a * b) * d == a * (b * d)
        assert a * b == b * a
        assert a * (b + d) == a * b + a * d


def test_scalar_canonical_form_and_printing():
    c = Scalar.param("c")
    k = Scalar.param("k")
    assert str(Scalar.from_rational(Fraction(1, 12)) * c) == "1/12*c"
    assert str(Scalar.zero()) == "0"
    assert str(c * c * k * 2) == "2*c^2*k"
    assert str(-c) == "-c"
    assert str(c - k) == "c - k"
    # identical representation regardless of construction order
    assert (c + k) == (k + c)
    assert hash(c + k) == hash(k + c)


def test_scalar_substitute():
    c = Scalar.param("c")
    s = c * c + Scalar.from_rational(3)
    assert s.substitute({"c": Fraction(2)}) == Scalar.from_rational(7)
    assert s.substitute({}) == s


def test_scalar_division_restrictions():
    c = Scalar.param("c")
    with pytest.raises(TypeError):
        c / c
    with pytest.raises(ZeroDivisionError):
        c / 0


def test_factorial():
    assert [factorial(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]
    assert factorial(-3) == 1
    acc = 1
    for n in range(1, 40):
        acc *= n
        assert factorial(n) == acc


def test_narrow_gives_the_narrowest_exact_type():
    c = Scalar.param("c")
    cases = [
        (2, 2, int),
        (Fraction(6, 3), 2, int),
        (Fraction(1, 2), Fraction(1, 2), Fraction),
        (Scalar.from_rational(-3), -3, int),
        (Scalar.from_rational(Fraction(1, 12)), Fraction(1, 12), Fraction),
        (Scalar.zero(), 0, int),
        (c + 1, c + 1, Scalar),
    ]
    for value, expected, kind in cases:
        out = narrow(value)
        assert type(out) is kind and out == expected, value
    for inexact in (0.5, True, "1", None):
        with pytest.raises(TypeError):
            narrow(inexact)


def _fraction_built(s):
    """The same scalar with every coefficient held as a Fraction, as the
    arithmetic stored it before coefficients were narrowed."""
    out = Scalar.__new__(Scalar)
    out._terms = {mono: Fraction(coeff) for mono, coeff in s._terms.items()}
    return out


def _assert_narrow(s):
    for mono, coeff in s._terms.items():
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1), (
            mono,
            coeff,
        )
    if s.is_constant():
        assert type(s.as_rational()) is Fraction
    ref = _fraction_built(s)
    assert str(s) == str(ref)
    assert hash(s) == hash(ref)
    assert s == ref


def test_scalar_coefficients_stay_narrow():
    rng = rng_for("scalar-narrow")
    params = ("c", "k")
    divisors = [2, -3, 6, Fraction(1, 2), Fraction(-4, 3), Fraction(6, 3), Scalar.from_rational(4)]
    for _ in range(80):
        a = random_scalar(rng, params=params, max_terms=3)
        b = random_scalar(rng, params=params, max_terms=3)
        q = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        results = [a, b, a + b, a - b, a * b, a * q, q * a, a + q, q - a, a * a * b]
        results += [a / rng.choice(divisors), (a * b) / 3]
        results.append(a.substitute({"c": q}))
        results.append(a.substitute({"c": b, "k": Fraction(1, 2)}))
        results.append(Scalar.coerce(binom(a, rng.randint(0, 4))))
        for s in results:
            _assert_narrow(s)
    # An int over an int is an exact Fraction, never a float.
    third = Scalar.from_rational(1) / 3
    assert type(third._terms[()]) is Fraction and third == Fraction(1, 3)
    assert type((Scalar.param("c") * 3 / 3)._terms[(("c", 1),)]) is int
    assert type((third * 3)._terms[()]) is int
    assert type(Scalar.from_rational(Fraction(8, 4)).as_rational()) is Fraction
    assert type(Scalar.zero().as_rational()) is Fraction
