import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from origami_lab import intlinalg as la
from origami_lab.homology import Homology

from conftest import fixture_origami
from restrict_oracle import solve_right


def random_int_matrix(rng, n, m, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def test_charpoly_matches_numpy():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = random_int_matrix(rng, n, n)
        ours = la.charpoly(a)
        theirs = np.poly(np.array(a, dtype=float))
        assert len(ours) == n + 1
        assert np.allclose(np.array(ours, dtype=float), theirs, atol=1e-6)


def test_det_and_rank():
    assert la.det([[2, 0], [0, 3]]) == 6
    assert la.rank([[1, 2], [2, 4]]) == 1
    assert la.rank(la.identity_matrix(4)) == 4


def test_smith_normal_form_diagonalizes():
    rng = random.Random(5)
    for _ in range(20):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = random_int_matrix(rng, n, m)
        d, u, v = la.smith_normal_form(a)
        assert la.mat_eq(la.mat_mul(u, la.mat_mul(a, v)), d)
        assert abs(la.det(u)) == 1 and abs(la.det(v)) == 1
        divisors = [d[i][i] for i in range(min(n, m)) if d[i][i] != 0]
        for x, y in zip(divisors, divisors[1:]):
            assert y % x == 0
        # off-diagonal zero
        for i in range(n):
            for j in range(m):
                if i != j:
                    assert d[i][j] == 0


def test_kernel_basis():
    a = [[1, 2, 3], [2, 4, 6]]
    cols = la.kernel_basis(a)
    assert len(cols) == 2
    for col in cols:
        assert all(
            sum(a[i][j] * col[j] for j in range(3)) == 0 for i in range(2)
        )


def test_solve_right_and_invert():
    # solve_right is the rational solve of the restriction oracle
    a = [[2, 1], [1, 1]]
    inv = la.invert(a)
    assert all(type(x) is Fraction for row in inv for x in row)
    assert la.mat_eq(la.mat_mul(a, inv), la.identity_matrix(2))
    num, d = la.int_inverse([[2, 0], [1, 3]])
    assert all(type(x) is int for row in num for x in row) and type(d) is int
    assert la.mat_eq(la.mat_mul([[2, 0], [1, 3]], num), la.mat_scale(d, la.identity_matrix(2)))
    b = [[1], [0]]
    x = solve_right(a, b)
    assert la.mat_eq(la.mat_mul(a, x), [[Fraction(1)], [Fraction(0)]])


def test_solve_right_inconsistent():
    assert solve_right([[1, 2], [2, 4]], [[1], [0]]) is None


def test_rational_span():
    span = la.RationalSpan()
    assert span.add([1, 0, 0])
    assert span.add([0, 1, 0])
    assert not span.add([2, 3, 0])
    assert span.dim == 2
    assert span.contains([5, -7, 0])
    assert not span.contains([0, 0, 1])


def test_is_reciprocal():
    assert la.is_reciprocal([1, -2, -30, -2, 1])
    assert not la.is_reciprocal([1, -2, -30, -2, 2])


def test_bracket_antisymmetry():
    rng = random.Random(3)
    a = random_int_matrix(rng, 3, 3)
    b = random_int_matrix(rng, 3, 3)
    ab = la.bracket(a, b)
    ba = la.bracket(b, a)
    assert la.mat_eq(ab, la.mat_scale(-1, ba))


# ---------------------------------------------------------------------------
# det, charpoly and invert against sympy


def to_fraction(r):
    return Fraction(int(r.p), int(r.q))


def check_against_sympy(a):
    n = len(a)
    m = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for row in a for x in row])
    want_det = to_fraction(m.det())
    assert la.det(a) == want_det
    cp = la.charpoly(a)
    want_cp = [to_fraction(c) for c in m.charpoly().all_coeffs()] if n else [1]
    assert cp == want_cp
    # integral coefficients (and the determinant) come back as ints
    assert all(type(c) is int for c in cp + [la.det(a)] if Fraction(c).denominator == 1)
    if want_det == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            la.invert(a)
    else:
        inv = la.invert(a)
        want_inv = m.inv()
        assert all(type(x) is Fraction for row in inv for x in row)
        assert inv == [[to_fraction(want_inv[i, j]) for j in range(n)] for i in range(n)]
        num, d = la.int_inverse(a)
        assert all(type(x) is int for row in num for x in row) and type(d) is int and d != 0
        assert [[Fraction(x, d) for x in row] for row in num] == inv


def square_matrices(elements):
    return st.integers(0, 8).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(square_matrices(st.integers(-9, 9)))
def test_kernels_on_int_matrices(a):
    check_against_sympy(a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(square_matrices(st.fractions(-5, 5, max_denominator=6)))
def test_kernels_on_fraction_matrices(a):
    check_against_sympy(a)


@pytest.mark.parametrize(
    "a",
    [
        [[0, 1], [1, 0]],  # zero leading pivot, one swap
        [[0, 2, 1], [0, 1, 3], [4, 0, 5]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        [[1, 2, 3], [2, 4, 6], [1, 0, 1]],  # zero pivot after one step
        [[1, 2], [2, 4]],  # singular
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # zero column
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 6)]],
        [[Fraction(0), Fraction(2, 3)], [Fraction(3, 2), 1]],
        [[5]],
        [[0]],
        [[Fraction(-2, 3)]],
        [],
    ],
)
def test_kernels_on_edge_cases(a):
    check_against_sympy(a)


def test_kernels_on_mbar_star_7_form():
    j = Homology(fixture_origami("mbar_star_7")).intersection
    assert len(j) == 36
    assert la.mat_eq(la.transpose(j), la.mat_scale(-1, j))
    assert la.det(j) == 1
    check_against_sympy(j)
