"""The one report format of every axiom check."""

from fractions import Fraction

import pytest

from test_frontend import corrupt_sl2
from test_lie_conformal import corrupted_virasoro
from vacalc import vertex_calc as vx
from vacalc.checks import (
    borcherds_identity_check,
    borcherds_sweep,
    check_jacobi,
    check_skew,
    verify_mode_jacobi,
)
from vacalc.lie_conformal import ConformalElement
from vacalc.poly import BracketPoly
from vacalc.scalar import Scalar

SWEEPS = {
    "skew": check_skew,
    "jacobi": check_jacobi,
    "borcherds": lambda alg: borcherds_sweep(alg, 1),
    "mode-jacobi": lambda alg: verify_mode_jacobi(alg, 1),
}


@pytest.mark.parametrize("check", sorted(SWEEPS))
@pytest.mark.parametrize("make", [corrupt_sl2, corrupted_virasoro])
def test_every_failure_prints_as_one_line(make, check):
    report = SWEEPS[check](make())
    lines = str(report).splitlines()
    status = "ok" if report.passed else "FAIL"
    assert lines[0].startswith(f"check {check} on {report.algebra}: {status} ({report.checked} ")
    assert len(lines) == 1 + len(report.failures)
    for line, failure in zip(lines[1:], report.failures):
        where = ", ".join(failure.subject)
        assert line == f"  {failure.kind} at ({where}): {failure.diff}"
        assert not failure.passed


def test_failure_lines_pinned():
    sl2, vir = corrupt_sl2(), corrupted_virasoro()
    first = {
        "skew": str(check_skew(vir).failures[0]),
        "jacobi": str(check_jacobi(sl2).failures[0]),
        "borcherds": str(borcherds_sweep(sl2, 1).failures[0]),
        "mode-jacobi": str(verify_mode_jacobi(sl2, 1).failures[0]),
    }
    assert first == {
        "skew": "skew at (L, L): -d(L)",
        "jacobi": "jacobi at (e, f, h): h + lambda*K",
        "borcherds": "borcherds-identity at (e, f, h, m=-1, n=0, q=1): -h",
        "mode-jacobi": "jacobi at (e_-1, f_-1, h_-1): h_{-3}",
    }


def test_failing_borcherds_identity_keeps_both_sides():
    alg = corrupt_sl2()
    e, f, h = (vx.state(alg, g) for g in "efh")
    identity = borcherds_identity_check(e, f, h, -1, 0, 1)
    assert not identity.passed
    assert (str(identity.lhs), str(identity.rhs)) == ("k*h", "(1 + k)*h")
    assert identity.diff == h.scale(-1)
    assert str(identity) == "borcherds-identity at (e, f, h, m=-1, n=0, q=1): -h"
    passing = borcherds_identity_check(e, f, h, 0, 0, 2)
    assert str(passing) == "borcherds-identity at (e, f, h, m=0, n=0, q=2): ok"


def test_two_variable_polynomial_prints_as_text():
    K = ConformalElement(central={"K": 1})
    h = ConformalElement(terms={("h", 0): 1})
    poly = BracketPoly(
        ("lambda", "mu"), {(0, 0): h, (0, 1): K.scale(-1), (1, 0): K.scale(-1)}
    )
    assert str(poly) == "h - mu*K - lambda*K"
    scalars = BracketPoly(
        ("lambda", "mu"),
        {(0, 0): Scalar.one(), (1, 2): Scalar.param("c") * Fraction(1, 2)},
    )
    assert str(scalars) == "1 + 1/2*c*lambda*mu^2"
    assert repr(scalars) == "BracketPoly[lambda,mu]((0, 0): 1, (1, 2): 1/2*c)"
