"""The rational restriction that ``homology.restrict`` replaced, kept as a
test oracle: a Gauss-Jordan solve over Q of  Z_t R = M Z_s  through
``span_oracle.RationalSpan``, then an integrality check on the
solution."""

from fractions import Fraction

from origami_lab import intlinalg as la

from span_oracle import RationalSpan


def solve_right(a, b):
    """Solve a @ x = b over Q for each column of the matrix b.  Returns the
    particular solution (free variables zero) or None if inconsistent."""
    n = len(a[0]) if a else 0
    k = len(b[0]) if b else 0
    span = RationalSpan()
    for row_a, row_b in zip(a, b):
        span.add(list(row_a) + list(row_b))
    if any(p >= n for p in span.pivots):
        return None  # a pivot in the augmented part: inconsistent
    x = [[Fraction(0)] * k for _ in range(n)]
    for row, p in zip(span.rows, span.pivots):
        x[p] = row[n:]
    return x


def restrict_oracle(m, sub_source, sub_target=None):
    if sub_target is None:
        sub_target = sub_source
    mat = [list(r) for r in m]
    src = [[col[i] for col in sub_source] for i in range(len(mat[0]))]
    tgt = [[col[i] for col in sub_target] for i in range(len(mat))]
    img = la.mat_mul(mat, src)
    sol = solve_right(tgt, img)
    if sol is None or not la.mat_eq(la.mat_mul(tgt, sol), img):
        raise ValueError("subspace is not invariant under the map")
    if any(Fraction(x).denominator != 1 for row in sol for x in row):
        raise ValueError("restriction is not integral on the given lattice basis")
    return [[int(x) for x in row] for row in sol]
