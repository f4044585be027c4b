r"""The crossing engine and the path reduction that ``paths`` used to
carry, kept as a test oracle for the intersection form and for phi on
loops that are not simple.

Closed center paths are put in general position by a deterministic
perturbation: every edge crossing event gets a distinct integer rank
along its edge, ordered by traversal time (earlier events sit closer to
the bottom / left end), and within each square a traversal becomes a
chord of the boundary circle, whose four sides of integer length L (more
than any edge's event count) run counterclockwise as bottom [0,L), right
[L,2L), top [2L,3L), left [3L,4L).  Chords cross iff their endpoints
interleave; the sign is the orientation of the tangent frame at the
crossing.  Every coordinate is an integer, so the crossing counts are
exact, and no homology basis is involved.

``phi`` is the full formula phi = ind + 1 + D (mod 2), D the number of
transverse self-crossings (Johnson, J. London Math. Soc. 1980), valid on
any closed center path.  ``spin.phi_of_path`` evaluates it only on paths
that visit every square at most once, where D = 0.
"""

from origami_lab.paths import _DIRS, CenterPath, follow, winding_index
from origami_lab.perm import compose, identity


_OPPOSITE = {"R": "L", "L": "R", "U": "D", "D": "U"}


def reduce_path(path):
    """Cancel adjacent inverse step pairs, cyclically, to a non-backtracking
    path.  Returns None if everything cancels."""
    steps = list(path.steps)
    changed = True
    while changed and steps:
        changed = False
        i = 0
        while i < len(steps) - 1:
            if steps[i + 1] == _OPPOSITE[steps[i]]:
                del steps[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
        if len(steps) >= 2 and steps[0] == _OPPOSITE[steps[-1]]:
            del steps[-1]
            del steps[0]
            changed = True
    if not steps:
        return None
    return CenterPath(path.start, "".join(steps))


def _chords(o, paths):
    """All square traversals of the given paths as boundary-circle chords.

    Returns {square: [(entry coord, exit coord, path index)]}.  Integer
    circle coordinates, with L the side length: bottom side [0,L) left to
    right, right side [L,2L) bottom to top, top side [2L,3L) right to left,
    left side [3L,4L) top to bottom.
    """
    events = {}  # edge key -> list of (path index, step index)
    per_path = []
    for pi, path in enumerate(paths):
        squares = follow(o, path)
        per_path.append(squares)
        for j, (sq, st) in enumerate(zip(squares, path.steps)):
            if st == "R":
                key = ("zeta", o.h(sq))
            elif st == "L":
                key = ("zeta", sq)
            elif st == "U":
                key = ("sigma", o.v(sq))
            else:  # D
                key = ("sigma", sq)
            events.setdefault(key, []).append((pi, j))
    # distinct coordinates 1..len(evs) along each edge, earlier events
    # nearer 0, all below the side length
    coord = {}
    for key, evs in events.items():
        evs.sort()
        for rank, ev in enumerate(evs):
            coord[(key, ev)] = rank + 1
    side = 1 + max(map(len, events.values()), default=0)
    chords = {}
    for pi, path in enumerate(paths):
        squares = per_path[pi]
        k = len(path.steps)
        for j in range(k):
            sq = squares[j]
            st_in = path.steps[(j - 1) % k]
            st_out = path.steps[j]
            ev_in = (pi, (j - 1) % k)
            ev_out = (pi, j)
            # entry point: where the previous step's edge event sits on the
            # boundary of this square
            if st_in == "R":  # entered through the left side
                y = coord[(("zeta", sq), ev_in)]
                a = 4 * side - y
            elif st_in == "L":  # entered through the right side
                y = coord[(("zeta", o.h(sq)), ev_in)]
                a = side + y
            elif st_in == "U":  # entered through the bottom
                x = coord[(("sigma", sq), ev_in)]
                a = x
            else:  # st_in == "D": entered through the top
                x = coord[(("sigma", o.v(sq)), ev_in)]
                a = 3 * side - x
            if st_out == "R":  # exits through the right side
                y = coord[(("zeta", o.h(sq)), ev_out)]
                b = side + y
            elif st_out == "L":
                y = coord[(("zeta", sq), ev_out)]
                b = 4 * side - y
            elif st_out == "U":  # exits through the top
                x = coord[(("sigma", o.v(sq)), ev_out)]
                b = 3 * side - x
            else:  # D: exits through the bottom
                x = coord[(("sigma", sq), ev_out)]
                b = x
            chords.setdefault(sq, []).append((a, b, pi))
    return chords


def _crossing_sign(a1, b1, a2, b2):
    def in_arc(x, start, end):
        if start < end:
            return start < x < end
        return x > start or x < end

    a2_in = in_arc(a2, a1, b1)
    b2_in = in_arc(b2, a1, b1)
    if a2_in and not b2_in:
        return 1
    if b2_in and not a2_in:
        return -1
    return 0


def signed_crossings(o, path_a, path_b):
    """Algebraic intersection number of two closed center paths."""
    chords = _chords(o, [path_a, path_b])
    total = 0
    for square_chords in chords.values():
        for a1, b1, p1 in square_chords:
            if p1 != 0:
                continue
            for a2, b2, p2 in square_chords:
                if p2 != 1:
                    continue
                total += _crossing_sign(a1, b1, a2, b2)
    return total


def self_crossings(o, path):
    """Number of transverse self-crossings of one closed center path under
    the deterministic perturbation."""
    chords = _chords(o, [path])
    total = 0
    for square_chords in chords.values():
        k = len(square_chords)
        for i in range(k):
            for j in range(i + 1, k):
                a1, b1, _ = square_chords[i]
                a2, b2, _ = square_chords[j]
                if _crossing_sign(a1, b1, a2, b2) != 0:
                    total += 1
    return total


def phi(o, path):
    """The quadratic form phi = ind + 1 + D mod 2 of a closed path."""
    reduced = reduce_path(path)
    if reduced is None:
        raise ValueError("path reduces to nothing")
    return (winding_index(o, reduced) + 1 + self_crossings(o, reduced)) % 2


def pairing_in_basis(hom, x, y):
    """x^T J y for coordinate vectors x, y in the H_1 basis of ``hom``."""
    return sum(
        xi * hom.intersection[i][j] * yj
        for i, xi in enumerate(x)
        for j, yj in enumerate(y)
        if xi and yj
    )


def pattern_loops(o, pattern):
    """Loops following the cycles of the permutation obtained by chaining
    the steps of ``pattern``, one copy of the pattern per cycle element.
    ``pattern`` "RRU" uses cycles of v o h^2; "RU" gives staircases."""
    if not pattern or any(s not in _DIRS for s in pattern):
        raise ValueError("pattern must be a nonempty string over R, L, U, D")
    w = identity(o.degree)
    for st in pattern:
        if st == "R":
            w = compose(o.h, w)
        elif st == "L":
            w = compose(o.h.inverse(), w)
        elif st == "U":
            w = compose(o.v, w)
        else:
            w = compose(o.v.inverse(), w)
    loops = []
    for cyc in w.cycles(include_fixed=True):
        loops.append(CenterPath(min(cyc), pattern * len(cyc)))
    return loops
