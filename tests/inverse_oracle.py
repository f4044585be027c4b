"""The dense Bareiss inverse that ``intlinalg.int_inverse`` replaced, kept
as a test oracle: fraction-free Gauss-Jordan on dense rows of [B | I],
pivoting on the first nonzero entry of each column, with every row
updated at every step.  Beside it, the exact determinant and the
``Fraction`` inverse that only the tests use.  Entries must be ints."""

from fractions import Fraction

from origami_lab import intlinalg as la


def _bareiss_step(rows, k, prev):
    """One fraction-free elimination step on column 0 of ``rows``, with
    rows[k] as pivot row and ``prev`` the previous pivot.  Every other row
    becomes (p * row - row[0] * pivot row) // prev, an exact division;
    column 0 is dropped from all rows."""
    p = rows[k][0]
    tail = rows[k][1:]
    out = []
    for i, row in enumerate(rows):
        f = row[0]
        if i == k or (f == 0 and p == prev):
            out.append(row[1:])
        elif f == 0:
            out.append([p * x // prev for x in row[1:]])
        else:
            out.append([(p * x - f * y) // prev for x, y in zip(row[1:], tail)])
    return out


def int_inverse_oracle(a):
    """(numerators, d) with a^-1 = numerators / d and d = +-det a."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    rows = [list(row) + unit for row, unit in zip(a, la.identity_matrix(n))]
    prev = 1
    for k in range(n):
        pr = next((i for i in range(k, n) if rows[i][0] != 0), None)
        if pr is None:
            raise ValueError("matrix is singular")
        rows[k], rows[pr] = rows[pr], rows[k]
        prev, rows = rows[k][0], _bareiss_step(rows, k, prev)
    return rows, prev


def invert(a):
    """Exact inverse as a matrix of Fractions."""
    num, d = la.int_inverse(a)
    return [[Fraction(x, d) for x in row] for row in num]


def det(a):
    """Exact determinant by Bareiss fraction-free elimination."""
    n = la._check_square(a)
    rows = [list(row) for row in a]
    sign, prev = 1, 1
    for _ in range(n):
        pr = next((i for i, row in enumerate(rows) if row[0] != 0), None)
        if pr is None:
            return 0
        if pr:
            rows[0], rows[pr] = rows[pr], rows[0]
            sign = -sign
        prev, rows = rows[0][0], _bareiss_step(rows, 0, prev)[1:]
    return sign * prev
