"""The rational elimination that ``intlinalg.rank`` ran before it
counted the pivots of the fraction-free one, kept as a test oracle: a
growing span over Q in reduced row echelon form, whose rows are
``Fraction``s.  The restriction and Lie oracles build their solves and
closures on it, and ``rational_rank`` takes the rank of matrices with
``Fraction`` entries, which ``intlinalg.rank`` rejects."""

from fractions import Fraction


def rational_rank(a):
    """Rank over Q: the dimension of the ``RationalSpan`` of the rows."""
    span = RationalSpan()
    for row in a:
        span.add(row)
    return span.dim


class RationalSpan:
    """A growing subspace of Q^n kept in reduced row echelon form."""

    def __init__(self):
        self.rows = []  # rref rows
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def add(self, vec):
        """Add a vector; returns True if it enlarged the span."""
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        p = next((i for i, x in enumerate(v) if x != 0), None)
        if p is None:
            return False
        inv = 1 / v[p]
        v = [x * inv for x in v]
        for row in self.rows:
            if row[p] != 0:
                f = row[p]
                for i in range(len(row)):
                    row[i] -= f * v[i]
        self.rows.append(v)
        self.pivots.append(p)
        return True
