r"""
Finite-group covering constructions for origamis.

A cover is specified by a finite group G and an edge cocycle (wh, wv)
assigning a group element to every square: the covering surface has
squares (s, g) with

    h~(s, g) = (h(s), g * wh(s)),    v~(s, g) = (v(s), g * wv(s)),

so the deck transformation g0 . (s, g) = (s, g0 g) always commutes with
both permutations.  The quaternion group cover of the torus with
wh = i, wv = j everywhere is the classical 8-square surface whose
homology cocycle acts through a finite group; the same recipe applied to
the 3-square L origami with the twists placed once per cycle gives a
genus 11 surface in H(5,5,5,5).
"""

from __future__ import annotations

from dataclasses import dataclass

from .origami import Origami, stratum
from .perm import Permutation


@dataclass(frozen=True)
class FiniteGroupTable:
    """Multiplication table of a finite group on indices 0..order-1."""

    order: int
    table: tuple  # table[a][b] = index of a*b
    identity: int
    names: tuple = ()

    def __post_init__(self):
        table = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", table)
        if len(table) != self.order or any(len(r) != self.order for r in table):
            raise ValueError("multiplication table has wrong shape")
        e = self.identity
        for a in range(self.order):
            if table[a][e] != a or table[e][a] != a:
                raise ValueError("identity law fails at element %d" % a)
        for a in range(self.order):
            if e not in table[a]:
                raise ValueError("element %d has no inverse" % a)
        for a in range(self.order):
            for b in range(self.order):
                for c in range(self.order):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValueError("multiplication table is not associative")

    def mul(self, a, b):
        return self.table[a][b]

    def inverse(self, a):
        return self.table[a].index(self.identity)

    def name(self, a):
        return self.names[a] if self.names else str(a)


def trivial_group():
    return FiniteGroupTable(order=1, table=((0,),), identity=0, names=("1",))


Q_ONE, Q_MINUS_ONE, Q_I, Q_J, Q_K = 0, 1, 2, 4, 6


def quaternion_group():
    """The eight-element quaternion group {1, -1, i, -i, j, -j, k, -k}
    with i^2 = j^2 = k^2 = -1, ij = k, jk = i, ki = j."""
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    # represent each element as (sign, unit) with unit in {1, i, j, k}
    decode = [(1, 0), (-1, 0), (1, 1), (-1, 1), (1, 2), (-1, 2), (1, 3), (-1, 3)]

    def unit_mul(u, v):
        # returns (sign, unit)
        if u == 0:
            return 1, v
        if v == 0:
            return 1, u
        if u == v:
            return -1, 0
        # i*j=k, j*k=i, k*i=j; reversed order flips the sign
        cyclic = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
        if (u, v) in cyclic:
            return 1, cyclic[(u, v)]
        return -1, cyclic[(v, u)]

    def encode(sign, unit):
        return decode.index((sign, unit))

    table = []
    for a in range(8):
        sa, ua = decode[a]
        row = []
        for b in range(8):
            sb, ub = decode[b]
            s, u = unit_mul(ua, ub)
            row.append(encode(sa * sb * s, u))
        table.append(tuple(row))
    group = FiniteGroupTable(order=8, table=tuple(table), identity=0, names=names)
    assert group.mul(Q_I, Q_J) == Q_K
    return group


@dataclass(frozen=True)
class EdgeCocycle:
    """Group-element labels on the right and top edge of each square."""

    group: FiniteGroupTable
    wh: tuple  # wh[s-1] = group element for the step s -> h(s)
    wv: tuple

    def __post_init__(self):
        wh = tuple(self.wh)
        wv = tuple(self.wv)
        object.__setattr__(self, "wh", wh)
        object.__setattr__(self, "wv", wv)
        if len(wh) != len(wv):
            raise ValueError("wh and wv must label the same squares")
        for x in wh + wv:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError("cocycle value %r is not an integer" % (x,))
            if not 0 <= x < self.group.order:
                raise ValueError("cocycle value %r outside the group" % (x,))


def group_cover(o, cocycle, label=None):
    """The covering origami on pairs (square, group element).

    Square (s, g) is encoded as (s - 1) * |G| + g + 1.  Raises on a
    disconnected cover.
    """
    n = o.degree
    if len(cocycle.wh) != n:
        raise ValueError("cocycle degree %d does not match origami degree %d" % (len(cocycle.wh), n))
    grp = cocycle.group
    m = grp.order

    def idx(s, g):
        return (s - 1) * m + g + 1

    h_images = [0] * (n * m)
    v_images = [0] * (n * m)
    for s in range(1, n + 1):
        for g in range(m):
            h_images[idx(s, g) - 1] = idx(o.h(s), grp.mul(g, cocycle.wh[s - 1]))
            v_images[idx(s, g) - 1] = idx(o.v(s), grp.mul(g, cocycle.wv[s - 1]))
    try:
        return Origami(Permutation(h_images), Permutation(v_images), label)
    except ValueError as exc:
        raise ValueError("cover is disconnected: %s" % exc)


def deck_transformation(o_base_degree, group, g0):
    """The permutation (s, g) -> (s, g0 g) on the cover's squares."""
    m = group.order
    images = [0] * (o_base_degree * m)
    for s in range(1, o_base_degree + 1):
        for g in range(m):
            images[(s - 1) * m + g] = (s - 1) * m + group.mul(g0, g) + 1
    return Permutation(images)


def _wrap_twist(perm, degree, element, group):
    """Cocycle labels that are trivial except on the step leaving the
    maximal-index square of each cycle, which gets ``element``."""
    labels = [group.identity] * degree
    for cyc in perm.cycles(include_fixed=True):
        labels[max(cyc) - 1] = element
    return tuple(labels)


def ew_origami():
    """The 8-square quaternionic cover of the unit torus (wh = i and
    wv = j on the single square)."""
    torus = Origami(Permutation([1]), Permutation([1]))
    grp = quaternion_group()
    cocycle = EdgeCocycle(group=grp, wh=(Q_I,), wv=(Q_J,))
    return group_cover(torus, cocycle, label="EW")


def l3_origami():
    from .perm import parse_cycles

    return Origami(parse_cycles("(1,2)", 3), parse_cycles("(1,3)", 3), "L3")


def ltilde_origami():
    """The quaternionic cover of the 3-square L origami: one i-twist per
    h-cycle and one j-twist per v-cycle, applied on the step leaving the
    cycle's maximal-index square."""
    base = l3_origami()
    grp = quaternion_group()
    cocycle = EdgeCocycle(
        group=grp,
        wh=_wrap_twist(base.h, base.degree, Q_I, grp),
        wv=_wrap_twist(base.v, base.degree, Q_J, grp),
    )
    return group_cover(base, cocycle, label="LTILDE")


def mbar_star_origami(d=1):
    """The one-cylinder relabeling of the odd H(4) reference origami and
    its connected d-fold covers (d odd), which live in H(5d-1)."""
    if d < 1 or d % 2 == 0:
        raise ValueError("the layered cover exists for odd d >= 1")
    n = 6 * d

    def idx(s, layer):
        return (layer - 1) * 6 + s

    h = list(range(1, n + 1))
    v = list(range(1, n + 1))

    def set_cycle(images, cyc):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b

    set_cycle(h, [idx(s, 1) for s in range(1, 7)])
    layer = 2
    while layer < d:
        set_cycle(
            h,
            [idx(s, layer) for s in range(1, 7)] + [idx(s, layer + 1) for s in range(1, 7)],
        )
        layer += 2
    set_cycle(v, [idx(1, layer) for layer in range(1, d + 1)])
    for layer in range(1, d + 1):
        set_cycle(v, [idx(2, layer), idx(5, layer), idx(4, layer)])
        set_cycle(v, [idx(3, layer), idx(6, layer)])
    label = "MBAR*" if d == 1 else "MBAR*(%d)" % d
    return Origami(Permutation(h), Permutation(v), label)


def quotient_origami(o, central):
    """Quotient of an origami by the cyclic group generated by an
    automorphism: permutation pair induced on the orbits of squares."""
    from .perm import conjugate

    if conjugate(o.h, central) != o.h or conjugate(o.v, central) != o.v:
        raise ValueError("central is not an automorphism of the origami")
    n = o.degree
    orbit_of = [0] * (n + 1)
    orbits = []
    for s in range(1, n + 1):
        if orbit_of[s]:
            continue
        orbits.append(s)
        t = s
        while True:
            orbit_of[t] = len(orbits)
            t = central(t)
            if t == s:
                break
    k = len(orbits)
    h_images = [0] * k
    v_images = [0] * k
    for i, rep in enumerate(orbits):
        h_images[i] = orbit_of[o.h(rep)]
        v_images[i] = orbit_of[o.v(rep)]
    return Origami(Permutation(h_images), Permutation(v_images), o.label)


def quotient_dims_check(o, central):
    """Degree, genus and stratum of the quotient by an automorphism."""
    q = quotient_origami(o, central)
    st = stratum(q)
    return {"degree": q.degree, "genus": st.genus, "stratum": str(st)}


def quaternionic_block_report():
    """Exercise the 12-dimensional faithful isotypical block W of the
    genus 11 quaternionic cover.

    W is the (-1)-eigenspace of the central involution.  Two products of
    Dehn multitwist linear parts, (49 132; 36 97) and (-71 -192; 240 649),
    stabilize the surface; their W-restrictions should have
    characteristic polynomials (x-1)^4 (x^2-6x+1)^4 and
    (x-1)^4 (x^2-10x+1)^4 up to composition with one of the eight deck
    matrices, and their eigenvalue-1 eigenspaces should together span
    dimension 8.  The matrices are only defined up to the deck action, so
    failures are reported in the diagnostics rather than raised.
    """
    from . import intlinalg as la
    from .homology import kz_context
    from .orbit import sl2z_word

    lt = ltilde_origami()
    ctx = kz_context(lt)
    base = ctx.graph.basepoint
    dim_w = len(ctx.basis(base, "W"))
    report = {"dim_W": dim_w, "targets": [], "span_dim_1_eigenspaces": None, "diagnostics": []}
    aut_w = [la.identity_matrix(dim_w)] + list(ctx.aut_matrices(base, "W"))

    def poly_mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def poly_pow4(p):
        sq = poly_mul(p, p)
        return poly_mul(sq, sq)

    x_minus_1_4 = [1, -4, 6, -4, 1]
    expected = {
        ((49, 132), (36, 97)): poly_mul(x_minus_1_4, poly_pow4([1, -6, 1])),
        ((-71, -192), (240, 649)): poly_mul(x_minus_1_4, poly_pow4([1, -10, 1])),
    }
    one_eigenspaces = []
    for mat2, want in expected.items():
        entry = {"linear_part": [list(r) for r in mat2], "ok": False}
        word = sl2z_word(mat2)
        end, mw = ctx.word_matrix(word, subspace="W")
        if end != base:
            report["diagnostics"].append(
                "linear part %r does not stabilize the surface" % (mat2,)
            )
            report["targets"].append(entry)
            continue
        matched = None
        tried = []
        for g in aut_w:
            cand = la.mat_mul(g, mw)
            cp = la.charpoly(cand)
            tried.append(cp)
            if cp == want:
                matched = cand
                break
        if matched is None:
            report["diagnostics"].append(
                "no deck composition of the W-restriction of %r has the "
                "expected characteristic polynomial; ambiguity set: %r"
                % (mat2, tried)
            )
            report["targets"].append(entry)
            continue
        entry["ok"] = True
        entry["charpoly"] = want
        report["targets"].append(entry)
        dim = len(matched)
        m_minus_id = la.mat_sub(matched, la.identity_matrix(dim))
        for col in la.kernel_basis(m_minus_id):
            one_eigenspaces.append(col)
    if one_eigenspaces:
        report["span_dim_1_eigenspaces"] = la.rank(one_eigenspaces)
    return report
