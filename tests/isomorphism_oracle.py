"""The square-map propagation that ``origami._isomorphisms`` replaced, kept
as a test oracle: each candidate image of square 1 is pushed through the
action of h and v, and the consistent bijective assignments are the
isomorphisms.  No canonical labelling is involved."""

from origami_lab.origami import Origami, genus
from origami_lab.perm import Permutation
from origami_lab.spin import _rotation_fixed_points


def propagate_square_map(target, pairs):
    """The square map tau with tau(1) = target and tau(g(s)) = g'(tau(s))
    for every pair (g, g') in ``pairs``, propagated from square 1; None
    when the rules contradict each other or tau is not a bijection of
    1..N.  The first members of the pairs must act transitively."""
    n = pairs[0][0].degree
    tau = [0] * (n + 1)
    tau[1] = target
    queue = [1]
    while queue:
        s = queue.pop()
        for gen, image_gen in pairs:
            t, image = gen(s), image_gen(tau[s])
            if tau[t] == 0:
                tau[t] = image
                queue.append(t)
            elif tau[t] != image:
                return None
    if set(tau[1:]) != set(range(1, n + 1)):
        return None
    return Permutation(tau[1:])


def isomorphisms(a, b):
    """Every isomorphism from origami a onto origami b of the same
    degree, by tau(1): one propagation per candidate image of square 1."""
    pairs = ((a.h, b.h), (a.v, b.v))
    maps = (propagate_square_map(t, pairs) for t in range(1, a.degree + 1))
    return [tau for tau in maps if tau is not None]


def automorphisms(o):
    return isomorphisms(o, o)


def hyperelliptic_involution(o):
    """(rho, fixed point count) for the first isomorphism rho from
    (h, v) onto (h^-1, v^-1) by rho(1) that is an involution with 2g + 2
    fixed points, else None."""
    rotated = Origami(o.h.inverse(), o.v.inverse())
    for rho in isomorphisms(o, rotated):
        if (rho * rho).is_identity():
            count = _rotation_fixed_points(o, rho)
            if count == 2 * genus(o) + 2:
                return rho, count
    return None


def torus(n, m):
    """The n x m torus: n squares per row, m rows, h and v the shifts
    along the rows and the columns.  Its deck group is Z/n x Z/m."""
    square = lambda row, col: (row % m) * n + col % n + 1
    h = [square(row, col + 1) for row in range(m) for col in range(n)]
    v = [square(row + 1, col) for row in range(m) for col in range(n)]
    return Origami(Permutation(h), Permutation(v))
