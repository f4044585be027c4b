"""Unipotent logarithms and Lie algebra closures over the rationals, kept
as test oracles: the sp(4) Zariski-density check on ``mstar`` reads the
dimension of the Lie algebra that the logarithms of conjugate unipotent
cocycle matrices generate.  Products go through ``intlinalg.mat_mul``,
which is exact over ``Fraction`` entries; spans through
``span_oracle.RationalSpan``."""

from fractions import Fraction

from origami_lab import intlinalg as la

from span_oracle import RationalSpan


def bracket(a, b):
    """Lie bracket [a, b] = ab - ba."""
    return la.mat_sub(la.mat_mul(a, b), la.mat_mul(b, a))


def _nilpotent_series(nil, coefficient, error):
    """sum over j >= 1 of coefficient(j) nil^j, forming each power of nil
    once and stopping at the first zero one; raises ValueError(error) if
    nil^n is not zero, n the size of nil."""
    n = len(nil)
    out = [[0] * n for _ in range(n)]
    power = la.identity_matrix(n)
    for j in range(1, n + 1):
        power = la.mat_mul(power, nil)
        if all(x == 0 for row in power for x in row):
            break
        out = la.mat_add(out, la.mat_scale(coefficient(j), power))
    if any(x != 0 for row in power for x in row):
        raise ValueError(error)
    return out


def unipotent_log(m):
    """log(m) for unipotent m via the finite series
    sum (-1)^(k+1) (m - Id)^k / k; exact rational output."""
    mf = [[Fraction(x) for x in row] for row in m]
    nil = la.mat_sub(mf, la.identity_matrix(len(m)))
    return _nilpotent_series(nil, lambda j: Fraction((-1) ** (j + 1), j), "matrix is not unipotent")


def lie_algebra_dim(gens):
    """Dimension of the smallest linear space containing ``gens`` and
    closed under the bracket [X, Y] = XY - YX."""
    if not gens:
        return 0
    span = RationalSpan()
    basis = []
    queue = []
    for g in gens:
        gf = [[Fraction(x) for x in row] for row in g]
        if span.add([x for row in gf for x in row]):
            basis.append(gf)
            queue.append(gf)
    while queue:
        new = queue.pop()
        for other in list(basis):
            for x, y in ((new, other), (other, new)):
                br = bracket(x, y)
                if span.add([c for row in br for c in row]):
                    basis.append(br)
                    queue.append(br)
    return span.dim
