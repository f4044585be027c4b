r"""
The SL(2,Z) action on origamis and its orbit combinatorics.

The generators are the parabolic matrices T = (1 1; 0 1) and S = (1 0; 1 1),
acting by

    T(h, v) = (h, v h^-1)        S(h, v) = (h v^-1, v),

with composition (p q)(i) = p(q(i)).  Orbits are enumerated up to
simultaneous conjugation via canonical forms, as in Schmithuesen's
Veech-group algorithm (Exp. Math. 13, 2004).  An ``OrbitGraph`` keeps
each node as its packed canonical tables and each edge as a target in one
array and a relabel in one flat buffer; it canonicalizes an edge the
first time a walk reads it, so a cocycle word pays only for the nodes it
visits.  A node's ``Origami`` and an edge's relabel ``Permutation`` are
built only when asked for, so the Veech group index, the Veech group and
the cylinder term of the sum formula read the closed orbit without
building either.

Words over {T, S, T^-1, S^-1} are written as strings over {T, S, t, s}
(lowercase = inverse); the letters multiply left to right, so the
leftmost letter acts last.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

from .origami import (
    _trusted_origami,
    _trusted_permutation,
    canonical_form,
    canonical_labelling,
    is_reduced,
)

GEN_MATRICES = {
    "T": ((1, 1), (0, 1)),
    "S": ((1, 0), (1, 1)),
    "t": ((1, -1), (0, 1)),
    "s": ((1, 0), (-1, 1)),
}

_INVERSE_LETTER = {"T": "t", "t": "T", "S": "s", "s": "S"}
_LETTERS = ("T", "S", "t", "s")
_SLOT = {letter: slot for slot, letter in enumerate(_LETTERS)}
# the largest degree whose labels fit in one byte each
_BYTE_DEGREE = 256
# the largest degree whose labels fit in two bytes each
_MAX_DEGREE = 1 << 16
# the most letters a parsed word may expand to
MAX_WORD_LETTERS = 10**6


def mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


MAT2_ID = ((1, 0), (0, 1))


@dataclass(frozen=True)
class Sl2zWord:
    """A word over {T, S, t, s}; ``matrix`` is the ordered product of the
    generator matrices (leftmost letter is the leftmost factor)."""

    letters: tuple

    def __post_init__(self):
        letters = tuple(self.letters)
        if any(l not in GEN_MATRICES for l in letters):
            raise ValueError("letters must be among T, S, t, s: %r" % (letters,))
        object.__setattr__(self, "letters", letters)

    @property
    def matrix(self):
        m = MAT2_ID
        for l in self.letters:
            m = mat2_mul(m, GEN_MATRICES[l])
        return m

    def inverse(self):
        return Sl2zWord(tuple(_INVERSE_LETTER[l] for l in reversed(self.letters)))

    def __mul__(self, other):
        return Sl2zWord(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return "".join(self.letters) if self.letters else "(empty)"

    @staticmethod
    def parse(text):
        """Parse a word string; a letter may be followed by a positive
        decimal repeat count, e.g. ``"T8SSTTSS"`` or ``"T2 s3"``.  A word
        may expand to at most ``MAX_WORD_LETTERS`` letters."""
        if not isinstance(text, str):
            raise ValueError("a word must be a string, not %r" % (text,))
        letters = []
        i = 0
        text = "".join(text.split())
        while i < len(text):
            l = text[i]
            if l not in GEN_MATRICES:
                raise ValueError("bad word letter %r (use T, S, t, s)" % l)
            i += 1
            digits = i
            while i < len(text) and text[i].isdigit():
                i += 1
            count = int(text[digits:i]) if i > digits else 1
            if count == 0:
                raise ValueError("repeat count of %r must be positive" % l)
            if len(letters) + count > MAX_WORD_LETTERS:
                raise ValueError("word expands to more than %d letters" % MAX_WORD_LETTERS)
            letters.extend([l] * count)
        return Sl2zWord(tuple(letters))


def apply_letter(o, letter):
    """Returns (raw, canonical, relabel) for one generator letter."""
    h, v = _letter_images([x - 1 for x in o.h.images], [x - 1 for x in o.v.images], letter)
    # T, S, t and s replace (h, v) by pairs like (h, v h^-1): bijections
    # generating the same transitive group
    raw = _trusted_origami(h, v, o.label)
    canon, relabel = canonical_form(raw)
    return raw, canon, relabel


class OrbitGraph:
    """SL(2,Z)-orbit of canonical forms, stored packed and grown on demand
    (see ``sl2z_orbit``).

    Node i is one key: its canonical 0-based h-table followed by its
    v-table, as ``bytes`` while the degree is at most 256 and as the bytes
    of an ``array('H')`` above that, up to 65,536; a larger degree raises
    ValueError.  A dict maps each key to its node id, and ``rigid[i]`` is
    1 when node i has no automorphism but the identity, else 0.
    The edge targets are one ``array('l')`` with 4 entries per node, for
    the letters T, S, t, s in that order, -1 while an edge is open.  The
    edge relabels are one flat buffer of N 0-based labels per edge: the
    relabel of an edge carries the raw image of its source to the
    canonical form at its target.  ``nodes`` builds a node's ``Origami``
    on first access, and ``step`` builds a relabel ``Permutation`` only
    when asked.
    """

    basepoint = 0

    def __init__(self, o):
        n = self.degree = o.degree
        if n > _MAX_DEGREE:
            raise ValueError("orbit graphs hold at most %d squares, not %d" % (_MAX_DEGREE, n))
        self.label = o.label
        h, v, _label, ties = canonical_labelling(
            [x - 1 for x in o.h.images], [x - 1 for x in o.v.images]
        )
        self._keys = []
        self._index = {}
        self.rigid = bytearray()
        self._targets = array("l")
        self._labels = bytearray() if n <= _BYTE_DEGREE else array("H")
        self._blank = bytes(4 * n)
        # every node below this id has all four edges
        self._closed = 0
        self._add(_pack(h + v), ties)
        self.nodes = OrbitNodes(self)

    def __len__(self):
        self._close()
        return len(self._keys)

    def _add(self, key, ties):
        """Give a new canonical key the next node id, with open edges."""
        j = self._index[key] = len(self._keys)
        self._keys.append(key)
        self.rigid.append(len(ties) == 1)
        self._targets.extend((-1, -1, -1, -1))
        self._labels.extend(self._blank)
        return j

    def _set(self, edge, target, label):
        n = self.degree
        self._targets[edge] = target
        self._labels[edge * n : (edge + 1) * n] = label if n <= _BYTE_DEGREE else array("H", label)

    def _edge(self, edge, h, v):
        """Canonicalize edge slot 4 i + letter, where (h, v) are the
        tables of node i, and return its target.

        Inverse letters give inverse edges: if T takes node i to node j
        with relabel r, then t takes j back to i, and r^-1 carries the raw
        t-image of j to i.  The canonical relabel differs from r^-1 by an
        automorphism of i, so when i has none but the identity (one tied
        start in its canonical labelling) the t-edge of j is filled at
        once with r^-1 and no labelling runs for it.  The same holds for
        S and s, and for an inverse letter seen first."""
        i, slot = divmod(edge, 4)
        h_table, v_table, label, ties = canonical_labelling(*_letter_images(h, v, _LETTERS[slot]))
        key = _pack(h_table + v_table)
        j = self._index.get(key)
        if j is None:
            j = self._add(key, ties)
        self._set(edge, j, label)
        back = 4 * j + (slot ^ 2)  # the inverse letter's slot at j
        if self.rigid[i] and self._targets[back] < 0:
            inverse = [0] * self.degree
            for old, new in enumerate(label):
                inverse[new] = old
            self._set(back, i, inverse)
        return j

    def _close(self):
        """Canonicalize every open edge, nodes in id order."""
        targets = self._targets
        while self._closed < len(self._keys):
            i = self._closed
            h = None
            for edge in range(4 * i, 4 * i + 4):
                if targets[edge] < 0:
                    if h is None:
                        h, v = self.tables(i)
                    self._edge(edge, h, v)
            self._closed = i + 1

    def tables(self, node):
        """The (h, v) image tables of a node, 0-based."""
        key = self._keys[node]
        if self.degree > _BYTE_DEGREE:
            key = array("H", key)
        return key[: self.degree], key[self.degree :]

    def index_of(self, o):
        """Node index of an origami (canonicalized first); None if absent."""
        h, v, _label, _ties = canonical_labelling(
            [x - 1 for x in o.h.images], [x - 1 for x in o.v.images]
        )
        self._close()
        return self._index.get(_pack(h + v))

    def target(self, node, letter):
        """The node a letter takes a node to."""
        edge = 4 * node + _SLOT[letter]
        j = self._targets[edge]
        return j if j >= 0 else self._edge(edge, *self.tables(node))

    def step(self, node, letter):
        """(target node, relabel) for a letter applied at a node."""
        target = self.target(node, letter)
        # a relabel is a canonical labelling: a bijection
        return target, _trusted_permutation(self._relabel(4 * node + _SLOT[letter]))

    def _relabel(self, edge):
        """The 0-based relabel of edge slot 4 node + letter."""
        n = self.degree
        return self._labels[edge * n : (edge + 1) * n]

    def trace(self, node, word):
        """Apply a word to a node: letters act right to left."""
        for l in reversed(word.letters):
            node = self.target(node, l)
        return node

    def to_json(self):
        nodes = [
            {"degree": self.degree, "h_images": [x + 1 for x in h], "v_images": [x + 1 for x in v],
             "label": self.label}
            for h, v in map(self.tables, range(len(self)))
        ]
        return {
            "basepoint": self.basepoint,
            "nodes": nodes,
            "edges": [
                {
                    "from": i,
                    "gen": l,
                    "to": self._targets[edge],
                    "relabel_images": [x + 1 for x in self._relabel(edge)],
                }
                for i in range(len(self))
                for l, edge in (("T", 4 * i), ("S", 4 * i + 1))
            ],
        }


class OrbitNodes(Sequence):
    """The nodes of an orbit graph as ``Origami``s, each built on first
    access and kept."""

    def __init__(self, graph):
        self._graph = graph
        self._built = {}

    def __len__(self):
        return len(self._graph)

    def __getitem__(self, i):
        i = operator.index(i)
        if not 0 <= i < len(self._graph._keys):
            # counted from the end, or not reached yet: close the graph
            i = range(len(self))[i]
        o = self._built.get(i)
        if o is None:
            h, v = self._graph.tables(i)
            # a node's tables are a canonical form of an orbit image
            o = self._built[i] = _trusted_origami(h, v, self._graph.label)
        return o


def _pack(entries):
    """The packed key of a node's 2N table entries (0-based labels below
    N): one byte each while N is at most ``_BYTE_DEGREE``, else two."""
    if len(entries) <= 2 * _BYTE_DEGREE:
        return bytes(entries)
    return array("H", entries).tobytes()


def _letter_images(h, v, letter):
    """The raw image of the 0-based image lists (h, v) under one letter."""
    if letter == "T":
        hi = [0] * len(h)
        for s, t in enumerate(h):
            hi[t] = s
        return h, [v[s] for s in hi]
    if letter == "t":
        return h, [v[s] for s in h]
    if letter == "S":
        vi = [0] * len(v)
        for s, t in enumerate(v):
            vi[t] = s
        return [h[s] for s in vi], v
    if letter == "s":
        return [h[s] for s in v], v
    raise ValueError("unknown letter %r" % letter)


def _cycle_lengths(images):
    """The cycle lengths of a 0-based image table, fixed points included."""
    seen = bytearray(len(images))
    for start in range(len(images)):
        length = 0
        s = start
        while not seen[s]:
            seen[s] = 1
            s = images[s]
            length += 1
        if length:
            yield length


def sl2z_orbit(o):
    """The orbit graph of ``o`` under the four generator letters, with
    canonical-form deduplication (see ``OrbitGraph``).  It holds only
    node 0, the canonical form of ``o``, at first: ``target``, ``step``
    and ``trace`` canonicalize an edge the first time they read it, and a
    node gets the next id when an edge first reaches it.  ``len``,
    ``index_of``, ``to_json`` and a node index not reached yet close the
    graph: every edge of every node, nodes in id order, letters in the
    order T, S, t, s.  On a graph nothing has walked, that is breadth-first
    discovery order.  No ``Origami`` and no ``Permutation`` is built."""
    return OrbitGraph(o)


def veech_index(o):
    """Size of the SL(2,Z)-orbit = index of the Veech group in SL(2,Z)
    (for reduced origamis, where the Veech group sits inside SL(2,Z))."""
    if not is_reduced(o):
        raise ValueError("veech_index requires a reduced origami")
    return len(sl2z_orbit(o))


def veech_generators(o):
    """Generators of the Veech group as words stabilizing the basepoint of
    the orbit of ``o`` (see ``stabilizer_words``)."""
    if not is_reduced(o):
        raise ValueError("veech_generators requires a reduced origami")
    return stabilizer_words(sl2z_orbit(o))


def spanning_tree(graph, letters):
    """Breadth-first spanning tree of an orbit graph from its basepoint,
    over the edges of ``letters`` in that priority.  Returns a dict from
    each node the letters reach, in discovery order, to the letters
    applied in sequence from the basepoint along the tree."""
    path_to = {graph.basepoint: ()}
    queue = [graph.basepoint]
    for i in queue:
        for letter in letters:
            j = graph.target(i, letter)
            if j not in path_to:
                path_to[j] = path_to[i] + (letter,)
                queue.append(j)
    return path_to


def stabilizer_words(graph):
    """Words over T, S generating the stabilizer of the basepoint of an
    orbit graph: the Veech group when the graph is the orbit of a reduced
    origami.

    Every non-tree T/S edge (n --g--> m) of the T/S spanning tree yields
    the loop word path(m)^-1 * g * path(n), taken in node id order.  The
    graph is closed first, so that the ids are those of the breadth-first
    closure and not of a T/S-only walk."""
    size = len(graph)
    path_to = spanning_tree(graph, ("T", "S"))
    assert len(path_to) == size, "orbit graph not T/S-connected"
    words = []
    for i in range(size):
        for letter in ("T", "S"):
            j = graph.target(i, letter)
            if path_to[j] == path_to[i] + (letter,):
                continue  # a tree edge
            letters = (
                [_INVERSE_LETTER[l] for l in path_to[j]]
                + [letter]
                + list(reversed(path_to[i]))
            )
            word = Sl2zWord(tuple(letters))
            assert graph.trace(graph.basepoint, word) == graph.basepoint
            words.append(word)
    return words


def sl2z_word(m):
    """A word in {T, S, t, s} whose matrix equals ``m`` exactly.

    Euclidean reduction on the first column; -Id is realized as
    (T S^-1 T)^2."""
    (a, b), (c, d) = m
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    letters = []

    def emit(letter, q):
        # current = letter^q * rest; record and continue with rest
        if q >= 0:
            letters.extend([letter] * q)
        else:
            letters.extend([_INVERSE_LETTER[letter]] * (-q))

    rot = ["T", "s", "T"]  # matrix (0 1; -1 0)
    while c != 0:
        if a == 0:
            # current = rot * (rot^-1 * current)
            letters.extend(rot)
            a, b, c, d = -c, -d, a, b
        elif abs(a) >= abs(c):
            q = a // c
            emit("T", q)
            a, b = a - q * c, b - q * d
        else:
            q = c // a
            emit("S", q)
            c, d = c - q * a, d - q * b
    # now c == 0 and a*d == 1
    if a == 1:
        emit("T", b)
    else:
        # (-1 b; 0 -1) = (T s T)^2 * T^(-b)
        letters.extend(rot * 2)
        emit("T", -b)
    word = Sl2zWord(tuple(letters))
    if word.matrix != m:
        raise AssertionError("decomposition failed for %r" % (m,))
    return word
