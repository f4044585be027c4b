r"""
Spin structure invariants of origamis: winding indices, the mod-2
quadratic form phi on homology, its Arf invariant, and the connected
component of the ambient stratum.

For a translation surface whose cone angles are all odd multiples of
2*pi (equivalently: all zero orders even), the winding index ind of a
simple closed center path gives

    phi(gamma) = ind(gamma) + 1  (mod 2),

which depends only on the homology class mod 2 (Johnson, J. London
Math. Soc. 1980).  phi is a quadratic refinement of the mod-2
intersection pairing and its Arf invariant separates the even and odd
spin components of a stratum.

phi is evaluated on the 2g dual loops of the homology engine
(``Homology.dual_loops``), which form a Z-basis of H_1 whose mod-2 Gram
matrix is read off the intersection form, and on the horizontal and
vertical core loops, which check it.  The Arf invariant is taken by
symplectic reduction on that basis.  Each of these loops visits every
square at most once, so it is a simple closed curve; ``phi_of_path``
refuses any other path.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg as la
from .homology import Homology
from .origami import corner_permutation, genus, propagate_square_map, singularities, stratum
from .paths import cycle_loops, follow, path_class_chain, winding_index


def phi_of_path(o, path):
    """The quadratic form phi = ind + 1 mod 2 of a closed path that visits
    every square at most once.

    Such a path has at most one strand in each square, so it has no
    self-crossings and is a simple closed curve.  A path that visits a
    square twice raises ValueError, even if it reduces to a simple one.
    """
    squares = follow(o, path)
    if len(set(squares)) != len(squares):
        raise ValueError("phi needs a simple loop; %r visits a square twice" % (path,))
    return (winding_index(o, path) + 1) % 2


@dataclass
class QuadraticFormData:
    """A basis of H_1 mod 2 with phi values and the mod-2 intersection
    matrix between its classes."""

    basis: list  # integer coordinate vectors in an H_1 basis
    phi_values: list  # 0/1 per class
    intersection_mod2: list  # symmetric F2 matrix between the classes

    def validate(self):
        k = len(self.basis)
        if len(self.phi_values) != k or len(self.intersection_mod2) != k:
            raise ValueError("inconsistent quadratic form data sizes")
        for i in range(k):
            for j in range(k):
                if self.intersection_mod2[i][j] != self.intersection_mod2[j][i]:
                    raise ValueError("mod-2 intersection matrix must be symmetric")


def arf_from_data(q):
    """Arf invariant of a quadratic form given on a basis of H_1 mod 2.

    Symplectic reduction over F2: take the first class x still alive and
    the first alive y with <x, y> odd, add phi(x) phi(y), and replace
    every other alive class c by c + a x + b y, a = <c, y>, b = <c, x>,
    which pairs evenly with x and y.  phi(c) gains a phi(x) + b phi(y) +
    a b by the quadratic relation, and <c, d> gains a <d, x> + b <d, y>,
    a symmetric rank-2 update of the Gram block (rows kept as bit masks).
    If no such y exists the form is degenerate, the classes are not a
    basis, and ValueError is raised.
    """
    q.validate()
    rows = [sum(1 << j for j, e in enumerate(row) if e % 2) for row in q.intersection_mod2]
    phi = [x % 2 for x in q.phi_values]
    alive = list(range(len(phi)))
    arf = 0
    while alive:
        x = alive[0]
        y = next((c for c in alive[1:] if rows[x] >> c & 1), None)
        if y is None:
            raise ValueError("degenerate mod-2 intersection form: the classes are not a basis")
        arf ^= phi[x] & phi[y]
        alive = [c for c in alive[1:] if c != y]
        for c in alive:
            a, b = rows[c] >> y & 1, rows[c] >> x & 1
            phi[c] ^= (a & phi[x]) ^ (b & phi[y]) ^ (a & b)
            rows[c] ^= (rows[x] if a else 0) ^ (rows[y] if b else 0)
    return arf


def _quadratic_value(phi_basis, gram, support):
    """phi of a sum of basis elements from the quadratic relation."""
    support = list(support)
    val = sum(phi_basis[i] for i in support)
    for a in range(len(support)):
        for b in range(a + 1, len(support)):
            val += gram[support[a]][support[b]]
    return val % 2


def quadratic_form_data(o):
    """phi on the dual loops of the homology engine, with their mod-2
    intersection matrix.

    The dual loops are simple closed curves forming a Z-basis of H_1, so
    phi = ind + 1 on each.  With D their coordinates and J = D^-1 the
    intersection form, their Gram matrix is D^T J D = D^T.  As a check
    that can fail, phi of every horizontal and vertical core loop must
    equal the value the quadratic relation gives from its dual-loop
    coordinates J x mod 2, x its basis coordinates.
    """
    orders = singularities(o)
    if any(k % 2 for k in orders):
        raise ValueError("spin structure requires all zero orders even")
    hom = Homology(o)
    phis = [phi_of_path(o, p) for p in hom.dual_loops()]
    basis = la.transpose(hom.dual_coords)
    gram = [[x % 2 for x in row] for row in basis]
    cores = cycle_loops(o)
    xs = hom.project_many([path_class_chain(o, p) for p in cores])
    for loop, y in zip(cores, la.transpose(la.mat_mul(hom.intersection, la.transpose(xs)))):
        support = [i for i, c in enumerate(y) if c % 2]
        if _quadratic_value(phis, gram, support) != phi_of_path(o, loop):
            raise AssertionError("phi is not well defined on homology classes (core loop %r)" % (loop,))
    return QuadraticFormData(basis=basis, phi_values=phis, intersection_mod2=gram)


def spin_parity(o):
    """Arf invariant of the spin structure of an origami with even zero
    orders (the parity separating stratum components), taken on the
    dual-loop basis of ``quadratic_form_data``."""
    return arf_from_data(quadratic_form_data(o))


# ---------------------------------------------------------------------------
# Hyperelliptic involutions


def hyperelliptic_involution(o):
    """A square permutation rho realizing the 180-degree rotation, if one
    exists with the right fixed-point count.

    rho must intertwine rotation: rho h = h^-1 rho and rho v = v^-1 rho,
    and square to the identity.  Its fixed points on the surface are
    counted from the in-square rules (square centers with rho(i) = i,
    horizontal edge midpoints with v(rho(i)) = i, vertical edge midpoints
    with h(rho(i)) = i, and vertex classes preserved by the induced
    vertex map).  Returns (rho, fixed point count) for the first rho whose
    count equals 2g + 2, else None.
    """
    g = genus(o)
    pairs = ((o.h, o.h.inverse()), (o.v, o.v.inverse()))
    for target in range(1, o.degree + 1):
        perm = propagate_square_map(target, pairs)
        if perm is None or not (perm * perm).is_identity():
            continue
        count = _rotation_fixed_points(o, perm)
        if count == 2 * g + 2:
            return perm, count
    return None


def _vertex_map(o, rho):
    """(corner cycles, index of the image cycle of each) under the
    rotation rho: the corner of square s goes to that of v(h(rho(s)))."""
    cycles = corner_permutation(o).cycles(include_fixed=True)
    cls = [0] * (o.degree + 1)
    for idx, cyc in enumerate(cycles):
        for s in cyc:
            cls[s] = idx
    targets = []
    for cyc in cycles:
        images = {cls[o.v(o.h(rho(s)))] for s in cyc}
        if len(images) != 1:
            raise AssertionError("vertex image of a rotation is not well defined")
        targets.append(images.pop())
    return cycles, targets


def _rotation_fixed_points(o, rho):
    n = o.degree
    centers = sum(1 for i in range(1, n + 1) if rho(i) == i)
    h_mid = sum(1 for i in range(1, n + 1) if o.v(rho(i)) == i)
    v_mid = sum(1 for i in range(1, n + 1) if o.h(rho(i)) == i)
    _cycles, targets = _vertex_map(o, rho)
    fixed_vertices = sum(1 for idx, t in enumerate(targets) if t == idx)
    return centers + h_mid + v_mid + fixed_vertices


def is_hyperelliptic(o):
    return hyperelliptic_involution(o) is not None


# ---------------------------------------------------------------------------
# Stratum components


def component(o):
    """Connected component of the stratum containing the origami.

    Classification of components of strata: genus 2 strata are connected;
    the minimal stratum H(2g-2) for g >= 3 splits by hyperellipticity and
    spin parity; H(g-1, g-1) splits by hyperellipticity (and parity when
    g-1 is even and g >= 4), where hyperelliptic means that the
    hyperelliptic involution swaps the two zeros; all remaining strata
    with some odd order are connected, and remaining all-even strata
    split by parity for g >= 4.
    Returns one of: connected, hyperelliptic, non-hyperelliptic (H(g-1, g-1)
    with g-1 odd), even-spin, odd-spin, hyperelliptic-or-spin-undecided.
    """
    st = stratum(o)
    g = st.genus
    orders = st.orders
    if g <= 2:
        return "connected"
    minimal = len(orders) == 1
    two_equal = len(orders) == 2 and orders[0] == orders[1]
    all_even = all(k % 2 == 0 for k in orders)
    if minimal:
        # three components for g >= 4, two for g = 3 (hyperelliptic = even)
        if is_hyperelliptic(o):
            return "hyperelliptic"
        return "odd-spin" if spin_parity(o) else "even-spin"
    if two_equal:
        found = hyperelliptic_involution(o)
        if found is not None:
            cycles, targets = _vertex_map(o, found[0])
            zero = next(idx for idx, cyc in enumerate(cycles) if len(cyc) > 1)
            if targets[zero] != zero:
                return "hyperelliptic"
        if all_even:
            if g == 3:
                return "odd-spin"
            return "odd-spin" if spin_parity(o) else "even-spin"
        return "non-hyperelliptic"
    if all_even:
        if g == 3:
            # H(2,2): hyperelliptic handled above via two_equal; other
            # all-even genus 3 strata do not occur
            return "hyperelliptic-or-spin-undecided"
        return "odd-spin" if spin_parity(o) else "even-spin"
    return "connected"
