r"""
Exact permutation arithmetic on the symbols {1, .., N}.

All input and output is 1-based.  The composition convention is

    (p * q)(i) = p(q(i)),

i.e. ``q`` acts first.  Every formula in the rest of the library (corner
permutation, T/S action on origamis, chain maps) depends on this choice.

Permutations are validated once, at the boundary.  ``Permutation(...)``
and ``parse_cycles`` check that their input is a bijection of 1..N.  A
permutation the library derives from valid ones (an inverse, a product, a
conjugate, the identity, and the canonical tables and relabels of
``origami`` and ``orbit``) is a bijection by construction and is built by
``Permutation._trusted``, which stores its image tuple without checking
it.
"""

from __future__ import annotations

import operator


class Permutation:
    """An immutable bijection of {1, .., N}.

    ``images[i-1]`` is the image of the symbol ``i`` (both 1-based).
    """

    __slots__ = ("images",)

    def __init__(self, images):
        try:
            images = tuple(map(operator.index, images))
        except TypeError:
            raise ValueError("images %r are not a sequence of integers" % (images,)) from None
        n = len(images)
        if n == 0:
            raise ValueError("a permutation needs degree at least 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("images %r are not a bijection of 1..%d" % (images, n))
        object.__setattr__(self, "images", images)

    @classmethod
    def _trusted(cls, images):
        """The permutation with the image tuple ``images``, stored as is:
        only for images that are a bijection of 1..N by construction."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)

    def __str__(self):
        return render_cycles(self)

    def __mul__(self, other):
        return compose(self, other)

    def inverse(self):
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        # the inverse of a bijection is a bijection
        return Permutation._trusted(tuple(inv))

    def is_identity(self):
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self, include_fixed=False):
        """Cycles as tuples of symbols, each starting at its minimal symbol,
        ordered by that minimum."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                seen[j - 1] = True
                cyc.append(j)
                j = self(j)
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def order(self):
        from math import lcm

        return lcm(*(len(c) for c in self.cycles(include_fixed=True)))


def identity(degree):
    if degree < 1:
        raise ValueError("a permutation needs degree at least 1")
    # 1..N in order is a bijection
    return Permutation._trusted(tuple(range(1, degree + 1)))


def compose(p, q):
    """(p * q)(i) = p(q(i))."""
    if p.degree != q.degree:
        raise ValueError("degree mismatch: %d vs %d" % (p.degree, q.degree))
    images = p.images
    # a product of bijections is a bijection
    return Permutation._trusted(tuple([images[j - 1] for j in q.images]))


def conjugate(p, r):
    """r * p * r^-1."""
    if p.degree != r.degree:
        raise ValueError("degree mismatch: %d vs %d" % (p.degree, r.degree))
    r_images = r.images
    out = [0] * p.degree
    for i, j in zip(r_images, p.images):
        out[i - 1] = r_images[j - 1]
    # a conjugate of a bijection is a bijection
    return Permutation._trusted(tuple(out))


def is_transitive(gens):
    """True iff the group generated acts transitively on {1, .., N}.

    Only the generators themselves are followed: the symbols reached from
    1 form a set that each generator maps into itself, hence onto itself
    (it is finite), so it is the orbit of 1 under the whole group."""
    if not gens:
        raise ValueError("empty generator list")
    n = gens[0].degree
    if any(g.degree != n for g in gens):
        raise ValueError("generators have mismatched degrees")
    moves = [g.images for g in gens]
    seen = [False] * n
    seen[0] = True
    stack = [1]
    count = 1
    while stack:
        i = stack.pop()
        for images in moves:
            j = images[i - 1]
            if not seen[j - 1]:
                seen[j - 1] = True
                count += 1
                stack.append(j)
    return count == n


def parse_cycles(text, degree_hint=None):
    """Parse disjoint cycle notation like ``(1)(2,3)(4,5,6)``.

    Whitespace is ignored everywhere.  Symbols not mentioned are fixed
    points; the degree is the larger of the maximal symbol and
    ``degree_hint``.
    """
    return cycles_permutation(*read_cycles(text, degree_hint))


def read_cycles(text, degree_hint=None):
    """(cycles, degree) of a cycle text as ``parse_cycles`` reads it, each
    cycle a list of symbols: checked, but with no image table built."""
    compact = "".join(text.split())
    cycles = []
    pos = 0
    while pos < len(compact):
        if compact[pos] != "(":
            raise ValueError("expected '(' at position %d in %r" % (pos, text))
        end = compact.find(")", pos)
        if end < 0:
            raise ValueError("unbalanced '(' in %r" % (text,))
        body = compact[pos + 1 : end]
        if body:
            try:
                cyc = [int(tok) for tok in body.split(",")]
            except ValueError:
                raise ValueError("malformed cycle %r" % (body,)) from None
            if any(s < 1 for s in cyc):
                raise ValueError("symbols must be positive, got %r" % (cyc,))
            cycles.append(cyc)
        pos = end + 1
    symbols = [s for cyc in cycles for s in cyc]
    seen, repeated = set(), set()
    for s in symbols:
        (repeated if s in seen else seen).add(s)
    if repeated:
        raise ValueError("symbol %d repeated across cycles" % min(repeated))
    degree = max(symbols, default=0)
    if degree_hint is not None:
        if degree > degree_hint:
            raise ValueError(
                "symbol %d exceeds the stated degree %d" % (degree, degree_hint)
            )
        degree = max(degree, degree_hint)
    if degree == 0:
        raise ValueError("empty cycle text with no degree hint")
    return cycles, degree


def cycles_permutation(cycles, degree):
    """The permutation of 1..degree with the given disjoint cycles."""
    images = list(range(1, degree + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return Permutation(images)


def render_cycles(p):
    """Canonical cycle string; ``parse_cycles(render_cycles(p)) == p``."""
    cycles = p.cycles(include_fixed=True)
    if not cycles:
        return "()"
    return "".join("(" + ",".join(str(s) for s in c) + ")" for c in cycles)
