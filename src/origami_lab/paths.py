r"""
Closed paths through square centers.

A CenterPath walks from square center to square center with steps R
(i -> h(i)), L (i -> h^-1(i)), U (i -> v(i)), D (i -> v^-1(i)).  Such
paths avoid the singular points, so their winding indices are well
defined: the turning of the tangent direction, a quarter turn per
corner.

These paths also provide homology representatives: an R step at square i
contributes the bottom edge sigma_i, a U step the left edge zeta_i (and
L/D steps the corresponding negatives), via a homotopy pushing centers to
bottom-left corners.

The module serves the spin form phi (winding indices, and the core loops
of its consistency check with their chains) and the dual loops of the
homology engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

_DIRS = {"R": (1, 0), "L": (-1, 0), "U": (0, 1), "D": (0, -1)}


@dataclass(frozen=True)
class CenterPath:
    start: int
    steps: str

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a center path needs at least one step")
        if any(s not in _DIRS for s in self.steps):
            raise ValueError("steps must be over R, L, U, D")


def follow(o, path):
    """Squares visited: list of length len(steps); entry j is the square
    the path occupies before step j.  Raises if the path is not closed.
    h^-1 and v^-1 are built once, and only for a path with L or D steps."""
    moves = {"R": o.h, "U": o.v}
    if "L" in path.steps:
        moves["L"] = o.h.inverse()
    if "D" in path.steps:
        moves["D"] = o.v.inverse()
    squares = []
    s = path.start
    for st in path.steps:
        squares.append(s)
        s = moves[st](s)
    if s != path.start:
        raise ValueError("path is not closed")
    return squares


def path_class_chain(o, path):
    """Homology representative as a sparse edge chain, a ``Counter``
    {edge: coefficient} with sigma_i as edge i-1 and zeta_i as edge
    N+i-1; an edge the path runs both ways may be listed with 0."""
    n = o.degree
    chain = Counter()
    squares = follow(o, path)
    # an L or D step from sq lands on h^-1(sq) or v^-1(sq), the next square
    for sq, nxt, st in zip(squares, squares[1:] + squares[:1], path.steps):
        if st == "R":
            chain[sq - 1] += 1
        elif st == "L":
            chain[nxt - 1] -= 1
        elif st == "U":
            chain[n + sq - 1] += 1
        else:  # D
            chain[n + nxt - 1] -= 1
    return chain


def winding_index(o, path):
    """(left turns - right turns) / 4 over consecutive steps including the
    wrap-around, of the path as given; the division must be exact.  A step
    followed by its inverse raises."""
    follow(o, path)  # closure check
    total = 0
    steps = path.steps
    for s1, s2 in zip(steps, steps[1:] + steps[0]):
        d1, d2 = _DIRS[s1], _DIRS[s2]
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        if cross == 0 and d1 != d2:
            raise ValueError("backtracking pair %s%s" % (s1, s2))
        total += cross
    if total % 4 != 0:
        raise ValueError("turn sum %d is not divisible by 4" % total)
    return total // 4


# ---------------------------------------------------------------------------
# Loop families


def cycle_loops(o):
    """Horizontal and vertical core loops: all-R loops around h-cycles and
    all-U loops around v-cycles, each starting at the cycle's minimal
    square."""
    loops = []
    for cyc in o.h.cycles(include_fixed=True):
        loops.append(CenterPath(min(cyc), "R" * len(cyc)))
    for cyc in o.v.cycles(include_fixed=True):
        loops.append(CenterPath(min(cyc), "U" * len(cyc)))
    return loops

