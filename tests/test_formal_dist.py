from fractions import Fraction

import pytest

from conftest import rng_for
from vacalc import formal_dist as fd
from vacalc.formal_dist import (
    NonLocalError,
    OneVarLaurent,
    TwoVarDistribution,
    W_DOMINANT,
    Z_DOMINANT,
    decompose,
    delta,
    delta_ladder,
    derive,
    expand_power,
    fourier_one,
    fourier_two,
    locality_test,
    mul_one_var,
    mul_zw_power,
    residue_z,
    swap_zw,
)
from vacalc.scalar import Scalar, binom


def random_laurent(rng, span=3):
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        coeffs[rng.randint(-span, span)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return OneVarLaurent({e: Scalar.from_rational(v) for e, v in coeffs.items()})


def random_local(rng):
    singular = {}
    for j in rng.sample(range(0, 5), rng.randint(1, 3)):
        c = random_laurent(rng)
        if not c.is_zero():
            singular[j] = c
    return TwoVarDistribution(singular=singular)


# -- expansions ------------------------------------------------------------


def test_expand_negative_one_z_dominant():
    s = expand_power(-1, Z_DOMINANT, 3)
    assert s.coefficient(-1, 0) == Scalar.one()
    assert s.coefficient(-2, 1) == Scalar.one()
    assert s.coefficient(-3, 2) == Scalar.one()
    assert s.trunc_var == "w" and s.order == 3


def test_expand_positive_power_total_and_equal():
    a = expand_power(2, Z_DOMINANT, 5)
    b = expand_power(2, W_DOMINANT, 9)
    assert a.is_total() and b.is_total()
    assert a == b
    assert a.coefficient(2, 0) == Scalar.one()
    assert a.coefficient(1, 1) == Scalar.from_rational(-2)
    assert a.coefficient(0, 2) == Scalar.one()


def test_expand_w_dominant_inverse_square():
    s = expand_power(-2, W_DOMINANT, 4)
    # coefficient of z^j is C(-2, j) (-1)^(-2-j) w^(-2-j): 1, 2, 3, 4
    for j in range(4):
        assert s.coefficient(j, -2 - j) == Scalar.from_rational(
            binom(-2, j) * Fraction(-1) ** (-2 - j)
        )
    # multiplying back by (z-w)^2 gives 1 up to the truncation order
    product = s.mul_poly({(2, 0): 1, (1, 1): -2, (0, 2): 1})
    assert product.coeff_map() == {(0, 0): Scalar.one()}


def test_expand_power_coefficients_are_the_binomials():
    order = 200
    for k in range(-10, 11):
        terms = order if k < 0 else k + 1
        z_dominant = {(k - j, j): binom(k, j) * (-1) ** j for j in range(terms)}
        w_dominant = {(j, k - j): binom(k, j) * (-1) ** abs(k - j) for j in range(terms)}
        for orientation, expected in ((Z_DOMINANT, z_dominant), (W_DOMINANT, w_dominant)):
            series = expand_power(k, orientation, order)
            assert series.coeff_map() == {e: c for e, c in expected.items() if c}, (k, orientation)
            assert all(type(c) is int for _, c in series.coeffs)


def test_expansion_derivation_commutes():
    for k in range(-3, 0):
        for orientation in (Z_DOMINANT, W_DOMINANT):
            base = expand_power(k, orientation, 8)
            target = expand_power(k - 1, orientation, 8).truncate(7)
            dz = base.derive("z").truncate(7)
            dw = base.derive("w").truncate(7)
            assert dz == target.mul_poly({(0, 0): Fraction(k)}).truncate(7)
            assert dw == target.mul_poly({(0, 0): Fraction(-k)}).truncate(7)


def test_delta_as_difference_of_expansions():
    # i_zw (z-w)^k - i_wz (z-w)^k is the ladder at height -k-1, compared on
    # the window where both expansions are known.
    order = 8
    for k in range(-4, 0):
        j = -k - 1
        a = expand_power(k, Z_DOMINANT, order).coeff_map()
        b = expand_power(k, W_DOMINANT, order).coeff_map()
        window = set(a) | set(b)
        for (ze, we) in window:
            if we >= order or ze >= order:
                continue
            diff = a.get((ze, we), Scalar.zero()) - b.get((ze, we), Scalar.zero())
            # ladder coefficient of z^(-1-m) w^(m-j) in d^j delta / j!
            m = -1 - ze
            expected = (
                Scalar.from_rational(binom(m, j)) if we == m - j else Scalar.zero()
            )
            assert diff == expected, (k, ze, we)


# -- delta algebra -----------------------------------------------------------


def test_delta_residue():
    assert residue_z(delta()) == OneVarLaurent.unit()


def test_mul_zw_power_ladder():
    c = OneVarLaurent({0: Scalar.param("c")})
    assert mul_zw_power(TwoVarDistribution(singular={2: c}), 1) == TwoVarDistribution(
        singular={1: c}
    )
    assert mul_zw_power(TwoVarDistribution(singular={1: c}), 2).is_zero()
    assert mul_zw_power(delta(), 1).is_zero()


def test_mul_zw_power_regular():
    reg = TwoVarDistribution(regular={(0, 0): 1})
    out = mul_zw_power(reg, 1)
    assert out == TwoVarDistribution(regular={(1, 0): 1, (0, 1): -1})


def test_derive_examples():
    assert derive(delta(), "w") == delta_ladder(1)
    assert derive(delta(), "z") == delta_ladder(1).scale(-1)
    wsq = OneVarLaurent({2: 1})
    out = derive(TwoVarDistribution(singular={0: wsq}), "w")
    expected = TwoVarDistribution(
        singular={0: OneVarLaurent({1: 2}), 1: wsq}
    )
    assert out == expected


def test_fourier_one():
    assert fourier_one(OneVarLaurent({-1: 1})) == fd.BracketPoly(
        ("lambda",), {(0,): Scalar.one()}
    )
    # Res_z e^(lz) z^-3 expanded termwise: coefficient of z^2 is l^2/2
    assert fourier_one(OneVarLaurent({-3: 1})) == fd.BracketPoly(
        ("lambda",), {(2,): Scalar.from_rational(Fraction(1, 2))}
    )
    assert fourier_one(OneVarLaurent({5: 1})).is_zero()


def test_fourier_two():
    c = OneVarLaurent({0: Scalar.param("c")})
    out = fourier_two(TwoVarDistribution(singular={1: c}))
    assert out == fd.BracketPoly(("lambda",), {(1,): c})
    assert fourier_two(delta()) == fd.BracketPoly(
        ("lambda",), {(0,): OneVarLaurent.unit()}
    )
    assert fourier_two(TwoVarDistribution(regular={(2, 3): 1}), order=4).is_zero()
    with pytest.raises(NonLocalError):
        fourier_two(TwoVarDistribution(regular={(-1, 0): 1}))
    # truncated evaluation of the non-local part: Res_z e^(l(z-w)) z^-1 = e^(-lw)
    out = fourier_two(TwoVarDistribution(regular={(-1, 0): 1}), order=3)
    for k in range(3):
        expected = OneVarLaurent(
            {k: Scalar.from_rational(Fraction((-1) ** k, 1)) * Fraction(
                1, fd.factorial(k)
            )}
        )
        assert out.coefficient((k,), OneVarLaurent.zero()) == expected


def test_fourier_two_prints_as_a_sum():
    assert str(fourier_two(delta_ladder(2))) == "1/2*lambda^2"
    ladder = delta_ladder(1, OneVarLaurent({0: Scalar.param("c"), 2: 3}))
    assert str(fourier_two(ladder)) == "c*lambda + 3*lambda*w^2"
    out = fourier_two(TwoVarDistribution(regular={(-1, 0): 1}), order=3)
    assert str(out) == "1 - lambda*w + 1/2*lambda^2*w^2"


def test_decompose_round_trip_random():
    rng = rng_for("decompose")
    for _ in range(20):
        dist = random_local(rng)
        parts = decompose(dist)
        # independent computation of each ladder coefficient through
        # Res_z (z-w)^j applied to the distribution
        for j, c in parts:
            assert residue_z(mul_zw_power(dist, j)) == c
        rebuilt = TwoVarDistribution(singular=dict(parts))
        assert rebuilt == dist


def test_decompose_rejects_non_local():
    with pytest.raises(NonLocalError):
        decompose(TwoVarDistribution(regular={(2, -1): 1}))


def test_locality_classification():
    two = TwoVarDistribution(
        singular={0: OneVarLaurent.unit(), 1: OneVarLaurent.unit()}
    )
    assert str(locality_test(two)) == "local(2)"
    weak = two.add(TwoVarDistribution(regular={(2, -1): 1}))
    assert locality_test(weak).kind == "weakly_local"
    assert locality_test(TwoVarDistribution(regular={(-1, 0): 1})).kind == "non_local"
    assert locality_test(TwoVarDistribution()).order == 0


def test_delta_sifting_random():
    rng = rng_for("sifting")
    for _ in range(20):
        a = random_laurent(rng)
        prod = mul_one_var(delta(), a, "z")
        assert prod == TwoVarDistribution(singular={0: a})
        assert residue_z(prod) == a
        # multiplication in w agrees on the delta line
        assert mul_one_var(delta(), a, "w") == prod


def test_swap_symmetry():
    assert swap_zw(delta()) == delta()
    rng = rng_for("swap")
    for _ in range(10):
        dist = random_local(rng)
        assert swap_zw(swap_zw(dist)) == dist


def test_json_mirrors_type_fields():
    dist = TwoVarDistribution(
        singular={1: OneVarLaurent({0: Scalar.param("c")})},
        regular={(2, -1): 3},
    )
    payload = dist.to_json()
    assert payload["singular"] == [
        {"j": 1, "coeff": [{"exponent": 0, "coeff": "c"}]}
    ]
    assert payload["regular"] == [{"z": 2, "w": -1, "coeff": "3"}]
    series = expand_power(-1, Z_DOMINANT, 2).to_json()
    assert series["trunc_var"] == "w" and series["order"] == 2


def test_exp_shift_identity():
    # e^(l(z-w)) d_w^n delta = (l + d_w)^n delta, coefficientwise in lambda
    for n in range(0, 5):
        ladder_n = delta()
        for _ in range(n):
            ladder_n = derive(ladder_n, "w")
        ft = fourier_two(ladder_n)
        assert ft == fd.BracketPoly(("lambda",), {(n,): OneVarLaurent.unit()})
        for k in range(0, 7):
            lhs = mul_zw_power(ladder_n, k).scale(Fraction(1, fd.factorial(k)))
            rhs = delta()
            for _ in range(n - k):
                rhs = derive(rhs, "w")
            rhs = rhs.scale(binom(n, k)) if k <= n else TwoVarDistribution.zero()
            assert lhs == rhs, (n, k)
