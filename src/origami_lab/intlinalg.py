r"""
Exact integer linear algebra.

Matrices are lists of lists (row major); nothing here ever touches
floating point.  This is the substrate for integral homology (saturated
kernels by unimodular column elimination) and for the exact cocycle
computations (integer inverses, characteristic polynomials).  ``mat_mul``
(the one matrix product) and ``charpoly`` run over nonzero entries only,
as the step matrices and intersection forms are mostly zero.

``kernel_basis``, ``int_inverse``, ``rank`` and ``charpoly`` take rows
of one length with int entries only, and raise ``ValueError`` on any
other.  ``int_inverse`` and ``rank`` share one elimination,
``_eliminate``: Bareiss fraction-free elimination, whose divisions are
all exact, run as Gauss-Jordan on sparse rows, pivoting on the least
entry of each column so that the unimodular dual-coordinate matrix of
``homology`` reduces on unit pivots.  ``charpoly`` is Berkowitz's
division-free recursion.  There is no rational solve, and no rational
elimination.
"""

from __future__ import annotations


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    """a b, over the nonzero entries of both: each row of b is listed once
    as (column, value) pairs, and row r of the product adds x row_i(b) for
    every nonzero x = a[r][i].  Exact over int and Fraction alike; an entry
    that no nonzero term reaches is the int 0."""
    n = len(b[0]) if b else 0
    if any(len(row) != len(b) for row in a):
        raise ValueError("inner dimension mismatch")
    if any(len(row) != n for row in b):
        raise ValueError("rows of the right factor differ in length")
    rows = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * n
        for x, pairs in zip(row, rows):
            if x:
                for j, y in pairs:
                    acc[j] += x * y
        out.append(acc)
    return out


def mat_eq(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


# ---------------------------------------------------------------------------
# Integral kernels


def _int_rows(a):
    """Copies of the rows of a, which must have one length and int entries
    only."""
    rows = [list(row) for row in a]
    if len(set(map(len, rows))) > 1:
        raise ValueError("matrix rows differ in length")
    if not all(type(x) is int for row in rows for x in row):
        raise ValueError("matrix entries must be ints")
    return rows


def kernel_basis(a):
    """Saturated integral basis of {x : a @ x = 0}, as a list of columns.

    Column echelon form by unimodular column operations on a, whose
    entries must be ints, stacked over v = identity.  Step t pivots on
    the first entry in row-major order of least absolute value among rows
    >= t and columns >= t (so the scan ends at a row with a +-1), swaps it
    to (t, t), and clears the rest of row t by Euclid: subtract q times
    column t, swap a nonzero remainder into column t, and repeat.  Row
    operations would not change v, so the pivot row swap is the only one.
    The echelon form is zero past the last pivot, so the same columns of
    v, unimodular, are the basis."""
    w = _int_rows(a)
    m = len(w)
    n = len(w[0]) if m else 0
    w += identity_matrix(n)

    def swap_cols(i, j):
        for row in w:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(w[i][j])
                if x and (pivot is None or x < pivot[0]):
                    pivot = (x, i, j)
            if pivot and pivot[0] == 1:
                break
        if pivot is None:
            break
        w[t], w[pivot[1]] = w[pivot[1]], w[t]
        swap_cols(t, pivot[2])
        dirty = True
        while dirty:
            dirty = False
            for j in range(t + 1, n):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    for row in w:
                        row[j] -= q * row[t]
                    if w[t][j]:
                        swap_cols(t, j)
                        dirty = True
        t += 1
    return [[row[j] for row in w[m:]] for j in range(t, n)]


# ---------------------------------------------------------------------------
# Fraction-free kernels: elimination (Bareiss) for the inverse and the
# rank, characteristic polynomial (Berkowitz)


def _check_square(a):
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    return n


def _eliminate(rows, width):
    """Fraction-free Gauss-Jordan on the sparse {column: value} int rows
    ``rows`` (changed in place) over columns 0 .. width - 1.  Returns the
    pivot rows in pivot order, each without its pivot entry, and the last
    pivot (1 if there is none).

    Each column pivots on the first entry of least absolute value among
    the rows not yet pivoted, that row negated if need be so that every
    pivot is positive; a column with no such entry is skipped.  With p
    the pivot, prev the one before and f a row's entry in the pivot
    column, a row becomes (p * row - f * pivot row) // prev, an exact
    division (Bareiss, Math. Comp. 22, 1968): every entry is, up to sign,
    a minor of the input.  Where p == prev this is row - f * pivot row // p, so only
    the rows with f != 0 change; on unit pivots, as for the dual
    coordinates of ``homology``, every step is such a sparse update with
    no growth.
    """
    pivoted = [False] * len(rows)
    order = []
    prev = 1
    for k in range(width):
        hits = [i for i, row in enumerate(rows) if k in row]
        pr = min((i for i in hits if not pivoted[i]), key=lambda i: abs(rows[i][k]), default=None)
        if pr is None:
            continue
        pivot = rows[pr]
        if pivot[k] < 0:
            pivot = rows[pr] = {j: -x for j, x in pivot.items()}
        p = pivot.pop(k)
        pivoted[pr] = True
        order.append(pr)
        if p == prev:
            for i in hits:
                if i == pr:
                    continue
                row = rows[i]
                f = row.pop(k)
                for j, y in pivot.items():
                    x = row.get(j, 0) - f * y // p
                    if x:
                        row[j] = x
                    else:
                        del row[j]
        else:
            for i, row in enumerate(rows):
                if i == pr:
                    continue
                f = row.pop(k, 0)
                new = {j: p * x for j, x in row.items()}
                if f:
                    for j, y in pivot.items():
                        new[j] = new.get(j, 0) - f * y
                rows[i] = {j: x // prev for j, x in new.items() if x}
        prev = p
    return [rows[i] for i in order], prev


def int_inverse(a):
    """Exact inverse as integers: (numerators, d) with a^-1 = numerators / d
    and d a positive int, for a with int entries.

    ``_eliminate`` on [a | I] over the columns of a; fewer than n pivots
    raise ``ValueError("matrix is singular")``.  After n pivots the right
    half is d a^-1 with d the last pivot, which is 1 on the unit pivots
    of the dual coordinates of ``homology``.
    """
    n = _check_square(a)
    rows = []
    for i, row in enumerate(_int_rows(a)):
        r = {j: x for j, x in enumerate(row) if x}
        r[n + i] = 1
        rows.append(r)
    pivots, d = _eliminate(rows, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return [[r.get(n + j, 0) for j in range(n)] for r in pivots], d


def rank(a):
    """Rank over Q of a, whose entries must be ints: the number of pivots
    ``_eliminate`` finds on its rows."""
    rows = [{j: x for j, x in enumerate(row) if x} for row in _int_rows(a)]
    return len(_eliminate(rows, len(a[0]) if a else 0)[0])


def charpoly(a):
    """Coefficients [1, c1, .., cn] of det(xI - a) = x^n + c1 x^(n-1) + .. + cn.

    Berkowitz's division-free recursion (Inf. Proc. Letters 18, 1984) over
    the leading principal submatrices: with a_k = [[M, C], [R, d]] and
    q_j = R M^j C, the coefficients e of a_k follow from those c of M by
    e_t = c_t - d c_(t-1) - sum_(j <= t-2) q_j c_(t-2-j).  It runs over
    nonzero entries only: M is kept as the (column, value) pairs of each
    row, one column longer per step, and R M^j is formed as ``mat_mul``
    forms a product, adding y row_i(M) for every nonzero y = (R M^(j-1))_i.
    The entries of a must be ints, and so are the coefficients.
    """
    _check_square(a)
    a = _int_rows(a)
    block = []  # rows of M as their nonzero (column, value) pairs
    coeffs = [1]
    for k, row in enumerate(a):
        col = [(i, r[k]) for i, r in enumerate(a[:k]) if r[k]]  # C
        u = row[:k]  # R M^j
        q = []
        for j in range(k):
            if j:
                nxt = [0] * k
                for y, pairs in zip(u, block):
                    if y:
                        for c, x in pairs:
                            nxt[c] += y * x
                u = nxt
            q.append(sum([u[i] * x for i, x in col]))
        d = row[k]
        c = coeffs + [0]
        coeffs = [
            c[t]
            - (d * c[t - 1] if t else 0)
            - sum(q[j] * c[t - 2 - j] for j in range(t - 1))
            for t in range(k + 2)
        ]
        for i, x in col:
            block[i].append((k, x))
        block.append([(j, x) for j, x in enumerate(row[: k + 1]) if x])
    return coeffs


def is_reciprocal(coeffs):
    """True iff the coefficient list is palindromic."""
    return list(coeffs) == list(reversed(coeffs))
