r"""
The Origami type: a pair (h, v) of same-degree permutations with
transitive action, encoding a translation surface tiled by unit squares.
h(i) is the square to the right of square i, v(i) the square on top of it,
and two origamis are isomorphic iff the pairs are simultaneously conjugate.

Provides singularity data (corner permutation, stratum, genus), the
reduction test, a canonical labeling, and the isomorphisms between two
origamis that it gives, deck transformations and their count among them.

An origami is validated once, at the boundary.  ``Origami(...)``,
``Origami.from_json``, ``parse_origami_text`` and ``load_origami`` check
that h and v are permutations of one degree acting transitively.  An
origami the library derives from a valid one is built by
``Origami._trusted``, which checks nothing: a relabelling (simultaneous
conjugation keeps both bijectivity and transitivity), a canonical form
(``canonical_labelling`` raises on a pair that is not transitive, and its
tables are a conjugate of its input), the orbit's letter images and
nodes (each letter replaces (h, v) by pairs like (h, v h^-1), which
generate the same group), and the rotated pair (h^-1, v^-1) that
``spin`` compares an origami with (it generates the same group too).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional

from .perm import (
    Permutation,
    compose,
    conjugate,
    cycles_permutation,
    identity,
    is_transitive,
    read_cycles,
    render_cycles,
)


class Origami:
    """Immutable validated pair (h, v); squares are the symbols 1..N."""

    __slots__ = ("h", "v", "label")

    def __init__(self, h, v, label=None):
        if h.degree != v.degree:
            raise ValueError(
                "h and v have different degrees: %d vs %d" % (h.degree, v.degree)
            )
        if not is_transitive([h, v]):
            raise ValueError("the pair (h, v) is not transitive: surface disconnected")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "label", label)

    @classmethod
    def _trusted(cls, h, v, label=None):
        """The origami (h, v), stored as is: only for a pair that is of one
        degree and transitive by construction."""
        o = object.__new__(cls)
        object.__setattr__(o, "h", h)
        object.__setattr__(o, "v", v)
        object.__setattr__(o, "label", label)
        return o

    def __setattr__(self, name, value):
        raise AttributeError("Origami is immutable")

    @property
    def degree(self):
        return self.h.degree

    def __eq__(self, other):
        # the label is metadata, not part of the value
        return (
            isinstance(other, Origami)
            and self.h == other.h
            and self.v == other.v
        )

    def __hash__(self):
        return hash((self.h.images, self.v.images))

    def __repr__(self):
        name = " %r" % self.label if self.label else ""
        return "Origami(h=%s, v=%s%s)" % (self.h, self.v, name)

    def relabel(self, r):
        """Simultaneous conjugation: squares renamed by i -> r(i)."""
        # conjugation keeps bijectivity and transitivity
        return Origami._trusted(conjugate(self.h, r), conjugate(self.v, r), self.label)

    def to_json(self):
        return {
            "degree": self.degree,
            "h_images": list(self.h.images),
            "v_images": list(self.v.images),
            "label": self.label,
        }

    @staticmethod
    def from_json(obj):
        if not isinstance(obj, dict):
            raise ValueError("an origami must be a JSON object, not %r" % (obj,))
        for key in ("h_images", "v_images"):
            images = obj.get(key)
            if not isinstance(images, list) or any(type(x) is not int for x in images):
                raise ValueError("origami %s must be a list of integers, not %r" % (key, images))
        return Origami(
            Permutation(obj["h_images"]),
            Permutation(obj["v_images"]),
            obj.get("label"),
        )


@dataclass(frozen=True)
class Stratum:
    """Zero orders (sorted descending) and the genus; sum k = 2g - 2."""

    orders: tuple
    genus: int

    def __post_init__(self):
        orders = tuple(sorted((int(k) for k in self.orders), reverse=True))
        object.__setattr__(self, "orders", orders)
        if orders:
            if sum(orders) != 2 * self.genus - 2:
                raise ValueError(
                    "orders %r do not sum to 2g-2 for g=%d" % (orders, self.genus)
                )
        elif self.genus != 1:
            raise ValueError("empty order list requires genus 1")

    def __str__(self):
        if not self.orders:
            return "H()"
        return "H(%s)" % ",".join(str(k) for k in self.orders)


def corner_permutation(o):
    """The permutation c = v h v^-1 h^-1 on squares, squares standing for
    their bottom-left corners.

    c(i) is the next square counterclockwise around the bottom-left corner
    of square i whose own bottom-left corner is that same point, so cycles
    of c are exactly the vertices of the square complex; a cycle of length
    l is a cone point of angle 2*pi*l.  (The commutator in the other
    grouping has the same cycle type but partitions the squares by a
    different corner, which breaks the incidence maps of the chain
    complex.)
    """
    hi = o.h.inverse()
    vi = o.v.inverse()
    return compose(o.v, compose(o.h, compose(vi, hi)))


def singularities(o):
    """Multiset {l - 1 : l >= 2 cycle length of the corner permutation}."""
    return stratum(o).orders


def genus(o):
    return stratum(o).genus


def stratum(o):
    cycles = corner_permutation(o).cycles(include_fixed=True)
    orders = tuple(sorted((len(cyc) - 1 for cyc in cycles if len(cyc) > 1), reverse=True))
    two_g_minus_2 = o.degree - len(cycles)
    if two_g_minus_2 % 2 != 0:
        raise AssertionError("N - V must be even")
    g = 1 + two_g_minus_2 // 2
    if sum(orders) != 2 * g - 2:
        raise AssertionError("cone-angle and Euler-characteristic genus disagree")
    return Stratum(orders, g)


def square_positions(o):
    """Integer plane positions of the squares from a breadth-first
    development (square 1 at the origin, h a step right, v a step up),
    together with the list of holonomy vectors of the loops closing the
    development."""
    n = o.degree
    pos = [None] * (n + 1)
    pos[1] = (0, 0)
    queue = [1]
    loops = []
    hi, vi = o.h.inverse(), o.v.inverse()
    while queue:
        nxt = []
        for s in queue:
            x, y = pos[s]
            for t, tx, ty in (
                (o.h(s), x + 1, y),
                (o.v(s), x, y + 1),
                (hi(s), x - 1, y),
                (vi(s), x, y - 1),
            ):
                if pos[t] is None:
                    pos[t] = (tx, ty)
                    nxt.append(t)
                else:
                    dx, dy = tx - pos[t][0], ty - pos[t][1]
                    if (dx, dy) != (0, 0):
                        loops.append((dx, dy))
        queue = nxt
    return pos[1:], loops


def is_reduced(o):
    """True iff the relative periods of the origami generate the full
    integer lattice (the surface is not a pull-back through a larger
    torus).

    The relative period lattice is generated by the holonomy vectors of
    closed loops plus the differences of positions of squares whose
    bottom-left corner is a singular point.
    """
    pos, vectors = square_positions(o)
    vectors = list(vectors)
    c = corner_permutation(o)
    singular_squares = [
        s
        for cyc in c.cycles(include_fixed=True)
        if len(cyc) > 1
        for s in cyc
    ]
    if singular_squares:
        x0, y0 = pos[singular_squares[0] - 1]
        for s in singular_squares[1:]:
            x, y = pos[s - 1]
            vectors.append((x - x0, y - y0))
    # the lattice spanned by `vectors` is all of Z^2 iff a Hermite basis
    # of the span is unimodular
    a = b = c = 0  # invariant: lattice so far is spanned by (a, b), (0, c)
    for x, y in vectors:
        # reduce (x, y) against (a, b), then fold into the basis
        if a != 0 and x != 0:
            g, p, q = _xgcd(a, x)
            a, b, y = g, p * b + q * y, (a // g) * y - (x // g) * b
        elif x != 0:
            a, b, y = x, y, 0
        if a < 0:
            a, b = -a, -b
        c = gcd(c, y)
        if a == 1 and c == 1:
            return True
    return a == 1 and c == 1


def _xgcd(a, b):
    """(g, p, q) with g = gcd(a, b) = p*a + q*b and g >= 0."""
    old_r, r = a, b
    old_p, p = 1, 0
    old_q, q = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_p, p = p, old_p - quot * p
        old_q, q = q, old_q - quot * q
    if old_r < 0:
        old_r, old_p, old_q = -old_r, -old_p, -old_q
    return old_r, old_p, old_q


def automorphisms(o):
    """All deck transformations, the permutations commuting with both h
    and v, sorted by their image of square 1: the isomorphisms of the
    origami onto itself, one per tied start of its one canonical
    labelling (see ``_isomorphisms``)."""
    return _isomorphisms(o, o)


def automorphism_count(o):
    """The order of the deck group, without listing it: the number of
    tied starts of ``canonical_labelling``, one per deck transformation."""
    return len(_labelling(o)[3])


def _isomorphisms(a, b):
    """Every square map tau from origami a onto origami b, with
    tau(a.h(s)) = b.h(tau(s)) and tau(a.v(s)) = b.v(tau(s)) for every s,
    sorted by tau(1); [] when a and b are not isomorphic.  For ``b is a``
    these are the deck transformations, from one labelling.

    Each canonical labelling conjugates its pair onto the canonical
    tables, so an isomorphism exists exactly when the tables of a and b
    are equal.  Then for each tied order of b, tau sends the square with
    new label k in a's best order to the square with new label k in that
    order, and conjugates a onto b.  These are all of them: an
    isomorphism carries the breadth-first search from a's best start to
    the search from its image, which therefore ties, and it is fixed by
    that one image since the pair is transitive.
    """
    h, v, label, ties = _labelling(a)
    if b is not a:
        h_b, v_b, _label, ties = _labelling(b)
        if (h_b, v_b) != (h, v):
            return []
    # tau(s) = order[label[s]] is one bijection after another
    maps = [_trusted_permutation([order[k] for k in label]) for order in ties]
    return sorted(maps, key=lambda tau: tau(1))


def central_involution(o):
    """A deterministic choice of central involution among the deck
    transformations: central in the whole automorphism group, smallest
    image table wins."""
    auts = automorphisms(o)
    candidates = [
        tau
        for tau in auts
        if not tau.is_identity()
        and (tau * tau).is_identity()
        and all((tau * other).images == (other * tau).images for other in auts)
    ]
    if not candidates:
        raise ValueError("no central involution among the automorphisms")
    return min(candidates, key=lambda t: t.images)


def canonical_labelling(h, v):
    """The canonical labelling of a pair of 0-based image lists.

    For each start square, squares are relabeled in breadth-first
    discovery order with neighbor priority (h, v, h^-1, v^-1); the start
    whose relabeled (h, v) image table is lexicographically smallest wins,
    and among equal tables the first start wins.  The relabeled h-table is
    compared with the best one entry by entry as the search produces it,
    and a start is abandoned at its first larger entry; the v-table is
    built only for a start whose h-table is smaller or equal.

    Only starts that can win are tried: the fixed points of h if it has
    any, else the squares on 2-cycles of h if it has any, else all.  The
    start gets new label 0 and h(start) is the first neighbor it labels,
    so the first h-entry is 0 at a fixed point of h and 1 elsewhere.
    When h has no fixed point, new square 1 is h(start), so the second
    h-entry is the label of h^2(start): 0 on a 2-cycle, and at least 2
    otherwise, since h^2(start) is then neither the start nor h(start).
    A skipped start thus has a strictly larger h-table than a kept one.
    Starts with equal tables all lie in the kept set, so ``ties`` holds
    every one of them, and ``_isomorphisms`` (hence the deck group and
    its order) misses none.  (Keeping only the starts on the shortest
    h-cycles is not sound: from a longer cycle, the next labels can come
    out smaller.)

    Returns (h-table, v-table, label, ties) with new square label[s] for
    old square s, all 0-based.  ``ties`` lists, in the order tried, the
    breadth-first order (old squares by new label) of each start that
    gives the smallest tables; ``label`` inverts the first of them.  Two
    tied orders differ by a deck transformation, so there is one per
    element of the automorphism group.  Raises ValueError when the pair
    is not transitive (the search from the first start tried misses a
    square).
    """
    n = len(h)
    hi = [0] * n
    vi = [0] * n
    for s in range(n):
        hi[h[s]] = s
        vi[v[s]] = s
    neighbors = list(zip(h, v, hi, vi))
    best_h = best_v = None
    # one label buffer serves every start: from the start with base
    # start * n, square t is labelled iff mark[t] >= base, with label
    # mark[t] - base
    mark = [-1] * n
    starts = (
        [s for s in range(n) if h[s] == s]
        or [s for s in range(n) if h[h[s]] == s]
        or range(n)
    )
    for start in starts:
        base = start * n
        mark[start] = base
        order = [start]
        h_row = []
        smaller = best_h is None
        for s in order:
            for t in neighbors[s]:
                if mark[t] < base:
                    mark[t] = base + len(order)
                    order.append(t)
            entry = mark[h[s]] - base
            if not smaller:
                b = best_h[len(h_row)]
                if entry > b:
                    break
                smaller = entry < b
            h_row.append(entry)
        else:
            if len(order) < n:
                raise ValueError("the pair (h, v) is not transitive: surface disconnected")
            v_row = [mark[v[s]] - base for s in order]
            if smaller or v_row < best_v:
                best_h, best_v = h_row, v_row
                ties = [order]
            elif v_row == best_v:
                ties.append(order)
    label = [0] * n
    for new, old in enumerate(ties[0]):
        label[old] = new
    return tuple(best_h), tuple(best_v), label, ties


class CanonicalForm(NamedTuple):
    origami: Origami
    relabel: Permutation


def canonical_form(o):
    """Lexicographically minimal representative of the simultaneous
    conjugacy class, from ``canonical_labelling``: of the starts with the
    smallest relabeled (h, v) table, the first (lowest square) is used.
    Returns the canonical origami and the relabeling used
    (new = relabel(old))."""
    h_table, v_table, label, _ties = _labelling(o)
    # canonical_labelling raises on a pair that is not transitive, and its
    # tables are the conjugate of the input by the bijection ``label``
    return CanonicalForm(_trusted_origami(h_table, v_table, o.label), _trusted_permutation(label))


def _labelling(o):
    """``canonical_labelling`` of an origami's 0-based image tables."""
    return canonical_labelling([x - 1 for x in o.h.images], [x - 1 for x in o.v.images])


def _trusted_permutation(table):
    """The permutation of a 0-based image table that is a bijection by
    construction, built unchecked (see the module docstring)."""
    return Permutation._trusted(tuple([x + 1 for x in table]))


def _trusted_origami(h, v, label=None):
    """The origami of 0-based image tables (h, v) that are of one degree
    and transitive by construction, built unchecked."""
    return Origami._trusted(_trusted_permutation(h), _trusted_permutation(v), label)


# ---------------------------------------------------------------------------
# Text format


def parse_origami_text(text):
    """Parse the origami text format:

        # optional name
        n = 8            (optional)
        h = (1,2,3,4)(5,6,7,8)
        v = (1,2,3,5)(4,8,7,6)

    Cycle lists may span several lines.
    """
    label = None
    body_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            if label is None and stripped[1:].strip():
                label = stripped[1:].strip()
            continue
        body_lines.append(line)
    body = "\n".join(body_lines)
    if not body.strip():
        raise ValueError("empty origami file")

    degree_hint = None
    m = re.search(r"\bn\s*=\s*(\d+)", body)
    if m:
        degree_hint = int(m.group(1))
        body = body[: m.start()] + body[m.end() :]

    mh = re.search(r"\bh\s*=", body)
    mv = re.search(r"\bv\s*=", body)
    if mh is None or mv is None:
        raise ValueError("origami file must contain 'h = ...' and 'v = ...'")
    if mh.start() < mv.start():
        h_text = body[mh.end() : mv.start()]
        v_text = body[mv.end() :]
    else:
        v_text = body[mv.end() : mh.start()]
        h_text = body[mh.end() :]
    h_cycles, h_degree = read_cycles(h_text, degree_hint)
    v_cycles, v_degree = read_cycles(v_text, degree_hint)
    degree = max(h_degree, v_degree)
    # a square that no cycle mentions is fixed by both h and v; refusing
    # that before any image table is built bounds the tables by the text
    if degree > 1 and degree > len({s for cyc in h_cycles + v_cycles for s in cyc}):
        raise ValueError("the pair (h, v) is not transitive: surface disconnected")
    h = cycles_permutation(h_cycles, degree)
    v = cycles_permutation(v_cycles, degree)
    return Origami(h, v, label)


def render_origami_text(o):
    lines = []
    if o.label:
        lines.append("# %s" % o.label)
    lines.append("n = %d" % o.degree)
    lines.append("h = %s" % render_cycles(o.h))
    lines.append("v = %s" % render_cycles(o.v))
    return "\n".join(lines) + "\n"


def load_origami(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_origami_text(fh.read())


def save_origami(o, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_origami_text(o))
