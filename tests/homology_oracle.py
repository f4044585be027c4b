r"""The incidence layer of the homology engine as it was written over
``Permutation`` calls and ``Counter``s keyed by tuples, kept as a test
oracle for ``chain_complex``, ``_check_complex``, ``_check_chain_map`` and
``_edge_map``.

Vertex classes come from ``corner_permutation(o).cycles()``, incidences
from ``Permutation.__call__`` on 1-based symbols, and the two checks add
their contributions into ``Counter``s keyed by (square, vertex) and
(square, edge) pairs.  The two checks return a bool instead of raising.
"""

from collections import Counter

from origami_lab.homology import ChainComplexData
from origami_lab.origami import corner_permutation


def chain_complex(o):
    """The incidences of ``o``, built symbol by symbol; unchecked."""
    n = o.degree
    vertex_of = [0] * n
    for idx, cyc in enumerate(corner_permutation(o).cycles(include_fixed=True)):
        for s in cyc:
            vertex_of[s - 1] = idx
    squares = range(1, n + 1)
    hi, vi = o.h.inverse(), o.v.inverse()
    tail = vertex_of * 2
    head = [vertex_of[o.h(i) - 1] for i in squares] + [vertex_of[o.v(i) - 1] for i in squares]
    plus = [i - 1 for i in squares] + [hi(i) - 1 for i in squares]
    minus = [vi(i) - 1 for i in squares] + [i - 1 for i in squares]
    return ChainComplexData(max(vertex_of) + 1, tail, head, plus, minus)


def composes_to_zero(cx):
    """d1(d2(square)) = 0 on the incidences of ``cx``."""
    composed = Counter()
    for k in range(len(cx.plus)):
        for square, sign in ((cx.plus[k], 1), (cx.minus[k], -1)):
            composed[square, cx.head[k]] += sign
            composed[square, cx.tail[k]] -= sign
    return not any(composed.values())


def is_chain_map(cs, ct, edges, cell):
    """f(d2(i)) = d2(cell[i]) for every source square i."""
    law = Counter()
    for k, image in enumerate(edges):
        for square, sign in ((cs.plus[k], 1), (cs.minus[k], -1)):
            for e, c in image:
                law[cell[square], e] += sign * c
    for e in range(len(ct.plus)):
        law[ct.plus[e], e] -= 1
        law[ct.minus[e], e] += 1
    return not any(law.values())


def edge_map(o, letter, relabel):
    """(edges, cell) of a generator letter, one symbol at a time."""
    n = o.degree
    h, v, r = o.h, o.v, relabel
    hi, vi = h.inverse(), v.inverse()
    edges = [None] * (2 * n)
    cell = [0] * n
    for i in range(1, n + 1):
        sigma, zeta = i - 1, n + i - 1
        if letter == "T":
            edges[sigma] = [(r(i) - 1, 1)]
            edges[zeta] = [(r(i) - 1, 1), (n + r(h(i)) - 1, 1)]
            cell[i - 1] = r(h(i)) - 1
        elif letter == "t":
            edges[sigma] = [(r(i) - 1, 1)]
            edges[zeta] = [(n + r(hi(i)) - 1, 1), (r(hi(i)) - 1, -1)]
            cell[i - 1] = r(hi(i)) - 1
        elif letter == "S":
            edges[zeta] = [(n + r(i) - 1, 1)]
            edges[sigma] = [(n + r(i) - 1, 1), (r(v(i)) - 1, 1)]
            cell[i - 1] = r(v(i)) - 1
        elif letter == "s":
            edges[zeta] = [(n + r(i) - 1, 1)]
            edges[sigma] = [(r(vi(i)) - 1, 1), (n + r(vi(i)) - 1, -1)]
            cell[i - 1] = r(vi(i)) - 1
        else:
            raise ValueError("unknown letter %r" % letter)
    return edges, cell
