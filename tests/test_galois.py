import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from origami_lab import intlinalg as la
from origami_lab.galois import (
    ReciprocalQuartic,
    has_real_simple_roots,
    is_galois_pinching_sl2,
    is_galois_pinching_sp4,
    is_irreducible,
    is_perfect_square,
    quartic_from_charpoly,
    sp4_pinching_report,
)


def test_perfect_square():
    assert is_perfect_square(0) and is_perfect_square(1) and is_perfect_square(144)
    assert not is_perfect_square(2)
    assert not is_perfect_square(-4)


def test_quartic_from_charpoly_round_trip():
    q = quartic_from_charpoly([1, -2, -30, -2, 1])
    assert (q.a, q.b) == (-2, -30)
    assert q.coefficients == [1, -2, -30, -2, 1]
    with pytest.raises(ValueError):
        quartic_from_charpoly([1, -2, -30, -3, 1])  # not reciprocal


@pytest.mark.parametrize(
    "c", [Fraction(-2), -2.0, np.int64(-2)], ids=["fraction", "float", "numpy-int64"]
)
def test_quartic_from_charpoly_rejects_a_non_int_coefficient(c):
    # integral in value, but not an int
    with pytest.raises(ValueError, match="coefficients must be integers"):
        quartic_from_charpoly([1, c, -30, c, 1])


def test_dema_word_deltas():
    q = ReciprocalQuartic(a=-2, b=-30)
    assert q.delta1 == 132
    assert q.delta2 == 768
    assert q.delta3 == 101376
    for value in (q.delta1, q.delta2, q.delta3):
        assert not is_perfect_square(value)


def test_sp4_pinching_on_dema_word():
    # companion-style matrix with the target charpoly
    m = [[0, 0, 0, -1], [1, 0, 0, 2], [0, 1, 0, 30], [0, 0, 1, 2]]
    report = is_galois_pinching_sp4(m)
    assert report.pinching
    assert report.quartic.delta1 == 132


def test_sp4_rejects_non_unimodular():
    with pytest.raises(ValueError):
        is_galois_pinching_sp4([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ValueError, match="determinant 1"):
        sp4_pinching_report([1, -5, 9, -7, 2])


def test_sl2_pinching():
    assert is_galois_pinching_sl2([[2, 1], [1, 1]])  # trace 3, 5 not square
    assert not is_galois_pinching_sl2([[1, 1], [0, 1]])  # parabolic
    assert not is_galois_pinching_sl2([[0, -1], [1, 0]])  # elliptic, trace 0
    with pytest.raises(ValueError):
        is_galois_pinching_sl2([[2, 0], [0, 1]])


def test_pinching_tests_reject_other_sizes():
    from_charpoly = lambda m: sp4_pinching_report(la.charpoly(m))  # noqa: E731
    for test in (is_galois_pinching_sl2, is_galois_pinching_sp4, from_charpoly):
        with pytest.raises(ValueError, match="sizes 2 and 4 only"):
            test([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def _sympy_irreducible(q):
    x = sympy.symbols("x")
    poly = sympy.Poly(
        x**4 + q.a * x**3 + q.b * x**2 + q.a * x + 1, x, domain="QQ"
    )
    factors = poly.factor_list()[1]
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == 4


def _sympy_real_simple(q):
    x = sympy.symbols("x")
    poly = sympy.Poly(x**4 + q.a * x**3 + q.b * x**2 + q.a * x + 1, x)
    return poly.is_sqf and poly.count_roots() == 4


def test_irreducibility_against_brute_force():
    rng = random.Random(77)
    for _ in range(1000):
        q = ReciprocalQuartic(a=rng.randint(-12, 12), b=rng.randint(-40, 40))
        assert is_irreducible(q) == _sympy_irreducible(q), (q.a, q.b)


def test_real_simple_roots_against_sympy():
    # exhaustive over the box; covers |a| > 4 with both roots of
    # Q(y) = y^2 + a y + b - 2 beyond one end of [-2, 2], Q(2) < 0 and
    # every double-root boundary
    for a, b in itertools.product(range(-10, 11), range(-30, 31)):
        q = ReciprocalQuartic(a=a, b=b)
        assert has_real_simple_roots(q) == _sympy_real_simple(q), (a, b)


def _companion(a, b):
    return [[0, 0, 0, -1], [1, 0, 0, -a], [0, 1, 0, -b], [0, 0, 1, -a]]


@pytest.mark.parametrize(
    "m, reason",
    [
        (
            [[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, -1]],  # x^4 + x^3 + 1
            "characteristic polynomial not reciprocal",
        ),
        # (x^2 + x - 1)(x^2 - x - 1): the a = 0 split, Delta1 = 20
        (_companion(0, -3), "characteristic polynomial reducible"),
        # (x - 1)^4: Delta1 = 0
        (_companion(-4, 6), "characteristic polynomial reducible"),
        (_companion(0, 3), "roots not all real and simple"),
        (_companion(0, -4), "delta2 = 4 is a perfect square"),
        (_companion(-11, -29), "delta3 = 60025 is a perfect square"),
        (_companion(-2, -30), "ok"),
    ],
)
def test_sp4_reasons(m, reason):
    report = is_galois_pinching_sp4(m)
    assert report.reason == reason
    assert report.pinching == (reason == "ok")
    assert sp4_pinching_report(la.charpoly(m)) == report
