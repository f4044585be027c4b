r"""The cotree peel, kept as a test oracle for ``Homology.project_many``.

The cell graphs are split as the engine splits them: a spanning tree T of
the vertex graph, a spanning tree C of the square-adjacency graph avoiding
the duals of T, and the leftover edges.  Square coefficients s are peeled
from the root of C so that chain - d2(s) vanishes on C; what is left is a
cycle on T and the leftover edges, so it is the sum of the basis loops
weighted by its leftover coefficients, which are the coordinates.  No
dual loop and no crossing record is involved.
"""

from origami_lab.homology import _spanning_tree


def peel_coordinates(hom, chains):
    """Coordinates of sparse edge cycles {edge: coefficient} in the basis
    of ``hom``, one list per chain, by peeling squares along C."""
    cx = hom.complex
    n = hom.origami.degree
    tree = _spanning_tree(cx.vertices, (cx.tail, cx.head), range(2 * n))
    in_tree = {k for _child, k, _parent in tree}
    cotree = _spanning_tree(n, (cx.minus, cx.plus), [k for k in range(2 * n) if k not in in_tree])
    in_cotree = {k for _child, k, _parent in cotree}
    leftover = [k for k in range(2 * n) if k not in in_tree and k not in in_cotree]
    # basis loop a is leftover edge a closed through T
    assert [next(k for k in loop if k not in in_tree) for loop in hom.loops] == leftover
    out = []
    for chain in chains:
        dense = [chain.get(k, 0) for k in range(2 * n)]
        boundary = [0] * cx.vertices
        for k, c in enumerate(dense):
            boundary[cx.head[k]] += c
            boundary[cx.tail[k]] -= c
        if any(boundary):
            raise ValueError("chain is not a cycle")
        s = [0] * n
        for child, k, parent in cotree:
            if child == cx.plus[k]:
                s[child] = dense[k] + s[parent]
            else:
                s[child] = s[parent] - dense[k]
        out.append([dense[e] - s[cx.plus[e]] + s[cx.minus[e]] for e in leftover])
    return out
