import random
import signal
from fractions import Fraction

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors
from hypothesis import example, given, settings
from hypothesis import strategies as st

from origami_lab import intlinalg as la
from origami_lab.homology import Homology, isotypical_W, tautological_split
from origami_lab.origami import central_involution

from conftest import FIXTURE_NAMES, fixture_origami, random_origamis
from inverse_oracle import det, int_inverse_oracle, invert
from lie_oracle import bracket
from restrict_oracle import solve_right
from span_oracle import RationalSpan


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
    assert det([[2, 0], [0, 3]]) == 6
    assert la.rank([[1, 2], [2, 4]]) == 1
    assert la.rank(la.identity_matrix(4)) == 4


def check_kernel(a):
    """kernel_basis(a) is a saturated basis of the kernel: a x = 0 for each
    column x, there are n - rank of them (rank by sympy), and the n x k
    matrix of the columns has every nonzero invariant factor 1."""
    n = len(a[0]) if a else 0
    cols = la.kernel_basis(a)
    for x in cols:
        assert all(sum(c * y for c, y in zip(row, x)) == 0 for row in a)
    assert len(cols) == n - sympy.Matrix(a).rank()
    if cols:
        assert set(invariant_factors(sympy.Matrix(la.transpose(cols)))) <= {0, 1}


def random_products(seed, count, most):
    """Products of random int matrices up to ``most`` x ``most``: a product
    through k columns has rank at most k, so it often has a kernel."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, k, m = (rng.randint(1, most) for _ in range(3))
        out.append(la.mat_mul(random_int_matrix(rng, n, k), random_int_matrix(rng, k, m)))
    return out


def test_kernel_basis_is_saturated_and_full():
    cases = [
        [[0, 0, 0], [0, 0, 0]],
        [],
        [[2, -4, 6]],
        [[0, 3, 5, 7]],
        [[2], [4], [-6]],
        [[0], [0]],
        [[1, 2], [3, 4], [5, 6]],
    ]
    cases += random_products(5, 40, 4) + random_products(23, 60, 8)
    for a in cases:
        check_kernel(a)


def test_kernel_basis():
    a = [[1, 2, 3], [2, 4, 6]]
    cols = la.kernel_basis(a)
    assert len(cols) == 2
    for col in cols:
        assert all(
            sum(a[i][j] * col[j] for j in range(3)) == 0 for i in range(2)
        )


def test_kernel_basis_finishes_on_a_7x5_matrix():
    # all invariant factors 1, yet Euclid by interleaved row and column
    # passes (a Smith normal form) grows these entries past 30 M bits
    a = [
        [13, 3, -3, -1, -7],
        [-3, 3, -5, 18, 2],
        [-4, 1, -4, -21, 6],
        [-5, 1, -6, -7, 2],
        [4, 2, 2, -6, -7],
        [-2, 2, -15, -10, -8],
        [-5, -17, -5, 4, 10],
    ]

    def late(signum, frame):
        raise TimeoutError("kernel_basis ran past its 2 s budget")

    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        assert la.kernel_basis(a) == []
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_solve_right_and_invert():
    # solve_right is the rational solve of the restriction oracle
    a = [[2, 1], [1, 1]]
    inv = invert(a)
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


def span_contains(span, vec):
    """True iff vec reduces to zero against the rref rows of the span."""
    v = [Fraction(x) for x in vec]
    for row, p in zip(span.rows, span.pivots):
        if v[p] != 0:
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def test_rational_span():
    span = RationalSpan()
    assert span.add([1, 0, 0])
    assert span.add([0, 1, 0])
    assert not span.add([2, 3, 0])
    assert span.dim == 2
    assert span_contains(span, [5, -7, 0])
    assert not span_contains(span, [0, 0, 1])


def test_is_reciprocal():
    assert la.is_reciprocal([1, -2, -30, -2, 1])
    assert not la.is_reciprocal([1, -2, -30, -2, 2])


def test_bracket_antisymmetry():
    rng = random.Random(3)
    a = random_int_matrix(rng, 3, 3)
    b = random_int_matrix(rng, 3, 3)
    ab = bracket(a, b)
    ba = bracket(b, a)
    assert la.mat_eq(ab, la.mat_scale(-1, ba))


# ---------------------------------------------------------------------------
# det, charpoly and invert against sympy


def to_fraction(r):
    return Fraction(int(r.p), int(r.q))


def check_against_sympy(a):
    n = len(a)
    m = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for row in a for x in row])
    want_det = to_fraction(m.det())
    assert det(a) == want_det
    cp = la.charpoly(a)
    want_cp = [to_fraction(c) for c in m.charpoly().all_coeffs()] if n else [1]
    assert cp == want_cp
    assert all(type(c) is int for c in cp + [det(a)])
    if want_det == 0:
        with pytest.raises(ValueError, match="matrix is singular"):
            invert(a)
    else:
        inv = invert(a)
        want_inv = m.inv()
        assert all(type(x) is Fraction for row in inv for x in row)
        assert inv == [[to_fraction(want_inv[i, j]) for j in range(n)] for i in range(n)]
        num, d = la.int_inverse(a)
        assert all(type(x) is int for row in num for x in row) and type(d) is int and d != 0
        assert [[Fraction(x, d) for x in row] for row in num] == inv
    check_against_oracle(a)


def square_matrices(elements):
    return st.integers(0, 8).flatmap(
        lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(square_matrices(st.integers(-9, 9)))
def test_kernels_on_int_matrices(a):
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
        [[5]],
        [[0]],
        [],
    ],
    # the ids the cases were first numbered with, so that each keeps its name
    ids=["a%d" % i for i in (0, 1, 2, 3, 4, 5, 6, 9, 10, 12)],
)
def test_kernels_on_edge_cases(a):
    check_against_sympy(a)


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5], ids=["fraction", "float"])
@pytest.mark.parametrize(
    "kernel", [la.charpoly, la.int_inverse, la.kernel_basis, la.rank], ids=lambda f: f.__name__
)
def test_kernels_reject_a_non_int_entry(kernel, entry):
    # one non-int entry in an invertible matrix; charpoly would return a
    # result for it
    with pytest.raises(ValueError, match="matrix entries must be ints"):
        kernel([[1, 1], [0, entry]])


@st.composite
def rank_matrices(draw):
    """n x m int matrices, 0 <= n, m <= 9: random entries, or a product
    A B through k <= 9 columns (rank at most k, often below n and m), with
    up to two rows and two columns then set to zero."""
    n, m = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entries = st.integers(-9, 9)

    def matrix(rows, cols):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    if draw(st.booleans()):
        k = draw(st.integers(0, 9))
        a, b = matrix(n, k), matrix(k, m)
        out = [[sum(row[t] * b[t][j] for t in range(k)) for j in range(m)] for row in a]
    else:
        out = matrix(n, m)
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2)) if n else set()
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=2)) if m else set()
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(out)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rank_matrices())
@example([])
@example([[]])
@example([[0, 0, 3], [0, 0, 6]])
def test_rank_matches_sympy(a):
    m = len(a[0]) if a else 0
    assert la.rank(a) == sympy.Matrix(len(a), m, [x for row in a for x in row]).rank()


def test_kernels_on_mbar_star_7_form():
    j = Homology(fixture_origami("mbar_star_7")).intersection
    assert len(j) == 36
    assert la.mat_eq(la.transpose(j), la.mat_scale(-1, j))
    assert det(j) == 1
    check_against_sympy(j)


# ---------------------------------------------------------------------------
# The sparse int_inverse against the dense Bareiss oracle


def as_fractions(num, d):
    return [[Fraction(x, d) for x in row] for row in num]


def check_against_oracle(a):
    """int_inverse gives the oracle's num / d, with d = |oracle's d| =
    |det a|, and raises where the oracle does."""
    try:
        want_num, want_d = int_inverse_oracle(a)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            la.int_inverse(a)
        return
    num, d = la.int_inverse(a)
    assert all(type(x) is int for row in num for x in row) and type(d) is int
    assert d == abs(want_d)
    assert as_fractions(num, d) == as_fractions(want_num, want_d)


@st.composite
def singular_matrices(draw, elements):
    # the last row a combination of the others, then the rows shuffled
    n = draw(st.integers(1, 8))
    row = st.lists(elements, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n - 1, max_size=n - 1))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    last = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
    return draw(st.permutations(rows + [last]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(square_matrices(st.integers(-1, 1)))
def test_int_inverse_matches_oracle_on_unit_entry_matrices(a):
    # entries -1, 0 and 1, as in D; many are singular
    check_against_oracle(a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(singular_matrices(st.integers(-9, 9)))
def test_int_inverse_rejects_singular_matrices(a):
    with pytest.raises(ValueError, match="matrix is singular"):
        int_inverse_oracle(a)
    with pytest.raises(ValueError, match="matrix is singular"):
        la.int_inverse(a)


@pytest.mark.parametrize(
    "a, want",
    [
        # a -1 pivot after prev = 1: the row is negated, so d = 1 and the
        # numerators are the inverse itself
        ([[-1, 0], [0, 1]], ([[-1, 0], [0, 1]], 1)),
        ([[0, 1, 0], [-1, 0, 0], [0, 0, 1]], ([[0, -1, 0], [1, 0, 0], [0, 0, 1]], 1)),
        # pivot 2 after prev = 1: row 1, without an entry in column 0, is
        # scaled to 2 * row 1
        ([[2, 0], [0, 1]], ([[1, 0], [0, 2]], 2)),
        # pivot 2 after prev = 2: row 0 becomes row 0 - 1 * row 1 // 2
        ([[2, 1], [2, 2]], ([[2, -1], [-2, 2]], 2)),
        # least entry first: column 0 pivots on the 1 in row 1, not the 3
        ([[3, 1], [1, 1]], ([[1, -1], [-1, 3]], 2)),
        ([], ([], 1)),
        ([[5]], ([[1]], 5)),
        ([[-3]], ([[-1]], 3)),
    ],
    ids=[
        "negated",
        "negated-3x3",
        "scaled",
        "exact-div",
        "least-entry",
        "0x0",
        "1x1",
        "1x1-negated",
    ],
)
def test_int_inverse_branches(a, want):
    assert la.int_inverse(a) == want
    check_against_oracle(a)


@pytest.mark.parametrize(
    "a",
    [
        # column 1 keeps an entry only in row 0, which pivoted column 0
        [[1, 1], [1, 1]],
        [[1, 0, 1], [0, 1, 1], [1, 1, 2]],
        [[0, 0], [0, 0]],
    ],
)
def test_int_inverse_column_emptied_mid_elimination(a):
    with pytest.raises(ValueError, match="matrix is singular"):
        la.int_inverse(a)
    check_against_oracle(a)


def gram(cols):
    """Z^T Z for the columns ``cols``, in int64 under a bound that keeps it
    exact."""
    z = np.array(cols, dtype=np.int64)
    assert int(np.abs(z).max()) ** 2 * z.shape[1] < 2**62
    return (z @ z.T).tolist()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_int_inverse_matches_oracle_on_fixture_forms(name):
    # D, and the Gram matrices Z^T Z that _left_inverse inverts for the
    # H1_zero and (with a central involution) W bases
    o = fixture_origami(name)
    hom = Homology(o)
    forms = [hom.dual_coords, gram(tautological_split(hom)[1])]
    try:
        tau = central_involution(o)
    except ValueError:
        pass
    else:
        forms.append(gram(isotypical_W(hom, tau)))
    for a in forms:
        check_against_oracle(a)
    assert la.int_inverse(hom.dual_coords)[1] == 1


def test_int_inverse_matches_oracle_on_random_dual_coordinates():
    for o in random_origamis(200, seed=16):
        d = Homology(o).dual_coords
        check_against_oracle(d)
        assert la.int_inverse(d)[1] == 1


# ---------------------------------------------------------------------------
# mat_mul against the dense product it replaced


def dense_mat_mul(a, b):
    """The dense product ``intlinalg.mat_mul`` replaced, kept as its
    oracle: one dot product of a row of a and a column of b per entry."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("inner dimension mismatch")
    bt = la.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


@st.composite
def products(draw, elements):
    """(a, b) with a n x k and b k x m, 0 <= n, k, m <= 6, entries drawn
    from ``elements`` or zero (so rows and columns of zeros come up)."""
    n, k, m = (draw(st.integers(0, 6)) for _ in range(3))
    entry = st.one_of(st.just(0), elements)
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=k, max_size=k))
    return a, b


def check_product(a, b):
    got = la.mat_mul(a, b)
    assert la.mat_eq(got, dense_mat_mul(a, b))
    assert len(got) == len(a) and all(len(row) == (len(b[0]) if b else 0) for row in got)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(products(st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))))
def test_mat_mul_matches_dense_on_int_matrices(ab):
    check_product(*ab)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    products(
        st.one_of(
            st.fractions(-5, 5, max_denominator=6),
            st.fractions(-(2**45), 2**45, max_denominator=2**41),
        )
    )
)
def test_mat_mul_matches_dense_on_fraction_matrices(ab):
    check_product(*ab)


@pytest.mark.parametrize(
    "a,b,want",
    [
        ([[0, 0], [1, 2]], [[3, 4], [5, 6]], [[0, 0], [13, 16]]),
        ([[1, 2], [3, 4]], [[0, 0], [0, 0]], [[0, 0], [0, 0]]),
        ([[1, 2]], [[0, 7], [0, 0]], [[0, 7]]),
        ([], [[1, 2], [3, 4]], []),
        ([[], []], [], [[], []]),
        ([[1], [2]], [[]], [[], []]),
        ([[2**40 + 1, -(2**41)]], [[2**43], [3]], [[(2**40 + 1) * 2**43 - 3 * 2**41]]),
        (
            [[Fraction(1, 2**40), 0], [0, Fraction(-3, 7)]],
            [[2**40, Fraction(1, 3)], [0, 14]],
            [[1, Fraction(1, 3 * 2**40)], [0, -6]],
        ),
    ],
    ids=["zero-row", "zero-right", "one-column", "0xk", "kx0-empty-inner", "kx0", "40-bit", "fractions"],
)
def test_mat_mul_edge_cases(a, b, want):
    assert la.mat_mul(a, b) == want
    check_product(a, b)


@pytest.mark.parametrize("b", [[[1, 2], [3]], [[1], [3, 4]], [[1, 2], []]])
def test_mat_mul_rejects_a_ragged_right_factor(b):
    # transpose() would cut every row to the shortest and answer [[7]]
    with pytest.raises(ValueError, match="differ in length"):
        la.mat_mul([[1, 2]], b)


@pytest.mark.parametrize(
    "kernel, a",
    [
        (la.rank, [[0], [0, 1]]),
        (la.rank, [[1, 2], [3]]),
        (la.kernel_basis, [[1], [2, 3]]),
        (la.kernel_basis, [[1, 2], [3]]),
    ],
)
def test_ragged_rows_are_rejected(kernel, a):
    # the width was read off the first row: these gave 0, 2, [] and an
    # IndexError
    with pytest.raises(ValueError, match="differ in length"):
        kernel(a)


def test_mat_mul_rejects_an_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="inner dimension mismatch"):
        la.mat_mul([[1, 2, 3]], [[1], [2]])


@pytest.mark.parametrize("name", [n for n in FIXTURE_NAMES if n != "z6_origami"])
def test_mat_mul_on_fixture_forms(name):
    # J D = I, J = D^-1 the intersection form and D the dual coordinates
    hom = Homology(fixture_origami(name))
    got = la.mat_mul(hom.intersection, hom.dual_coords)
    assert got == dense_mat_mul(hom.intersection, hom.dual_coords)
    assert got == la.identity_matrix(hom.rank)


# ---------------------------------------------------------------------------
# charpoly against the dense Berkowitz loop it replaced


def dense_charpoly(a):
    """The dense Berkowitz loop ``intlinalg.charpoly`` replaced, kept as its
    oracle: M^j C and R M^j C by dot products over whole rows of the
    leading block a_k = [[M, C], [R, d]]."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    coeffs = [1]
    for k in range(n):
        col = [a[i][k] for i in range(k)]
        q = []
        for j in range(k):
            if j:
                col = [sum(x * y for x, y in zip(a[i], col)) for i in range(k)]
            q.append(sum(x * y for x, y in zip(a[k], col)))
        d = a[k][k]
        c = coeffs + [0]
        coeffs = [
            c[t]
            - (d * c[t - 1] if t else 0)
            - sum(q[j] * c[t - 2 - j] for j in range(t - 1))
            for t in range(k + 2)
        ]
    return coeffs


def random_matrix(rng, n, density, bits):
    """n x n with each entry nonzero with probability ``density``, of up to
    ``bits`` bits."""

    def entry():
        if rng.random() >= density:
            return 0
        return rng.choice((-1, 1)) * rng.randint(1, 2**bits)

    return [[entry() for _ in range(n)] for _ in range(n)]


def with_zero_lines(rng, a):
    """a with a random row and a random column set to zero."""
    n = len(a)
    i, j = rng.randrange(n), rng.randrange(n)
    a[i] = [0] * n
    for row in a:
        row[j] = 0
    return a


def made_singular(rng, a):
    """a with one row replaced by a combination of two others."""
    n = len(a)
    i, j, k = rng.sample(range(n), 3)
    a[i] = [2 * x - 3 * y for x, y in zip(a[j], a[k])]
    return a


def permuted_nilpotent(rng, n, density, bits):
    """A strictly upper triangular matrix conjugated by a random permutation:
    nilpotent, with its nonzero entries scattered on both sides of the
    diagonal."""
    u = random_matrix(rng, n, density, bits)
    p = rng.sample(range(n), n)
    return [[u[p[i]][p[j]] if p[i] < p[j] else 0 for j in range(n)] for i in range(n)]


def check_charpoly(a):
    got = la.charpoly(a)
    assert got == dense_charpoly(a)
    assert len(got) == len(a) + 1 and got[0] == 1
    assert all(type(c) is int for c in got)
    return got


CHARPOLY_CASES = [
    # (n, density, bits, variant)
    (60, 0.05, 8, None),
    (60, 0.1, 40, None),
    (60, 0.07, 48, "zero-lines"),
    (60, 0.1, 40, "singular"),
    (30, 1.0, 3, None),
    (22, 1.0, 40, "zero-lines"),
    (13, 1.0, 64, "singular"),
]


def charpoly_case_id(case):
    n, density, bits, variant = case
    parts = ["n%d" % n, "%g" % density, "%db" % bits, variant]
    return "-".join(p for p in parts if p)


@pytest.mark.parametrize(
    "n,density,bits,variant", CHARPOLY_CASES, ids=map(charpoly_case_id, CHARPOLY_CASES)
)
def test_charpoly_matches_dense_on_random_matrices(n, density, bits, variant):
    rng = random.Random(n * 1000 + bits)
    a = random_matrix(rng, n, density, bits)
    if variant == "zero-lines":
        a = with_zero_lines(rng, a)
    elif variant == "singular":
        a = made_singular(rng, a)
    got = check_charpoly(a)
    if variant:
        assert got[-1] == 0  # det = 0


@pytest.mark.parametrize("n", [1, 2, 7, 60])
def test_charpoly_of_a_nilpotent_matrix_is_x_to_the_n(n):
    rng = random.Random(n)
    upper = [[rng.randint(-(2**40), 2**40) if i < j else 0 for j in range(n)] for i in range(n)]
    assert la.charpoly(upper) == [1] + [0] * n
    scattered = permuted_nilpotent(rng, n, 0.1, 40)
    assert check_charpoly(scattered) == [1] + [0] * n


@st.composite
def sparse_square_matrices(draw, elements):
    """0 <= n <= 10, with at most n^2 / 8 + 1 entries set."""
    n = draw(st.integers(0, 10))
    a = [[0] * n for _ in range(n)]
    if n:
        index = st.integers(0, n - 1)
        for i, j, x in draw(st.lists(st.tuples(index, index, elements), max_size=n * n // 8 + 1)):
            a[i][j] = x
    return a


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sparse_square_matrices(st.one_of(st.integers(-9, 9), st.integers(-(2**48), 2**48))))
def test_charpoly_matches_dense_on_sparse_matrices(a):
    check_charpoly(a)


@pytest.mark.parametrize("n", [9, 10, 11, 12])
@pytest.mark.parametrize("kind", ["sparse-40-bit", "dense"])
def test_charpoly_matches_sympy_up_to_12(n, kind):
    rng = random.Random(n)
    if kind == "sparse-40-bit":
        a = with_zero_lines(rng, random_matrix(rng, n, 0.3, 40))
    else:
        a = made_singular(rng, random_matrix(rng, n, 1.0, 5))
    m = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator) for row in a for x in row])
    assert la.charpoly(a) == [to_fraction(c) for c in m.charpoly().all_coeffs()]
