r"""
The SL(2,Z) action on origamis and its orbit combinatorics.

The generators are the parabolic matrices T = (1 1; 0 1) and S = (1 0; 1 1),
acting by

    T(h, v) = (h, v h^-1)        S(h, v) = (h v^-1, v),

with composition (p q)(i) = p(q(i)).  Orbits are enumerated up to
simultaneous conjugation via canonical forms.  Words over {T, S, T^-1,
S^-1} are written as strings over {T, S, t, s} (lowercase = inverse); the
letters multiply left to right, so the leftmost letter acts last.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .origami import Origami, canonical_form, canonical_labelling, is_reduced
from .perm import Permutation, compose

GEN_MATRICES = {
    "T": ((1, 1), (0, 1)),
    "S": ((1, 0), (1, 1)),
    "t": ((1, -1), (0, 1)),
    "s": ((1, 0), (-1, 1)),
}

_INVERSE_LETTER = {"T": "t", "t": "T", "S": "s", "s": "S"}


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
        """Parse a word string; a letter may be followed by a decimal
        repeat count, e.g. ``"T8SSTTSS"`` or ``"T2 s3"``."""
        letters = []
        i = 0
        text = "".join(text.split())
        while i < len(text):
            l = text[i]
            if l not in GEN_MATRICES:
                raise ValueError("bad word letter %r (use T, S, t, s)" % l)
            i += 1
            count = 0
            while i < len(text) and text[i].isdigit():
                count = 10 * count + int(text[i])
                i += 1
            letters.extend([l] * (count if count else 1))
        return Sl2zWord(tuple(letters))


def apply_letter_raw(o, letter):
    """The raw image (no canonicalization) of an origami under one
    generator letter."""
    h, v = o.h, o.v
    if letter == "T":
        return Origami(h, compose(v, h.inverse()), o.label)
    if letter == "t":
        return Origami(h, compose(v, h), o.label)
    if letter == "S":
        return Origami(compose(h, v.inverse()), v, o.label)
    if letter == "s":
        return Origami(compose(h, v), v, o.label)
    raise ValueError("unknown letter %r" % letter)


def apply_letter(o, letter):
    """Returns (raw, canonical, relabel) for one generator letter."""
    raw = apply_letter_raw(o, letter)
    canon, relabel = canonical_form(raw)
    return raw, canon, relabel


@dataclass
class OrbitGraph:
    """SL(2,Z)-orbit of canonical forms.

    ``edges[i]`` maps each letter in {T, S, t, s} to ``(target index,
    relabel)`` where relabel carries the raw image of node i to the
    canonical form at the target index.
    """

    nodes: list
    edges: list
    basepoint: int = 0
    _index: dict = field(default_factory=dict, repr=False)

    def index_of(self, o):
        """Node index of an origami (canonicalized first); None if absent."""
        canon = canonical_form(o).origami
        return self._index.get(canon)

    def step(self, node, letter):
        return self.edges[node][letter]

    def trace(self, node, word):
        """Apply a word to a node: letters act right to left."""
        for l in reversed(word.letters):
            node = self.edges[node][l][0]
        return node

    def to_json(self):
        return {
            "basepoint": self.basepoint,
            "nodes": [o.to_json() for o in self.nodes],
            "edges": [
                {
                    "from": i,
                    "gen": l,
                    "to": self.edges[i][l][0],
                    "relabel_images": list(self.edges[i][l][1].images),
                }
                for i in range(len(self.nodes))
                for l in ("T", "S")
            ],
        }


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
    return [h[s] for s in v], v


def sl2z_orbit(o):
    """Breadth-first closure under the four generator letters, with
    canonical-form deduplication.  Node ids follow discovery order with
    letter priority T, S, t, s; node 0 is the canonical form of the
    input.  The search runs on 0-based image tuples; an ``Origami`` is
    built once per node and a relabel ``Permutation`` once per edge."""

    def one_based(images):
        return Permutation([x + 1 for x in images])

    h_table, v_table, _label = canonical_labelling(
        [x - 1 for x in o.h.images], [x - 1 for x in o.v.images]
    )
    tables = [(h_table, v_table)]
    index = {tables[0]: 0}
    edges = [{}]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            h, v = tables[i]
            for letter in ("T", "S", "t", "s"):
                h_table, v_table, label = canonical_labelling(*_letter_images(h, v, letter))
                key = (h_table, v_table)
                j = index.get(key)
                if j is None:
                    j = index[key] = len(tables)
                    tables.append(key)
                    edges.append({})
                    nxt.append(j)
                edges[i][letter] = (j, one_based(label))
        frontier = nxt
    nodes = [Origami(one_based(h), one_based(v), o.label) for h, v in tables]
    return OrbitGraph(
        nodes=nodes, edges=edges, basepoint=0, _index={node: i for i, node in enumerate(nodes)}
    )


def veech_index(o):
    """Size of the SL(2,Z)-orbit = index of the Veech group in SL(2,Z)
    (for reduced origamis, where the Veech group sits inside SL(2,Z))."""
    if not is_reduced(o):
        raise ValueError("veech_index requires a reduced origami")
    return len(sl2z_orbit(o).nodes)


def veech_generators(o):
    """Generators of the Veech group as words stabilizing the basepoint of
    the orbit of ``o`` (see ``stabilizer_words``)."""
    if not is_reduced(o):
        raise ValueError("veech_generators requires a reduced origami")
    return stabilizer_words(sl2z_orbit(o))


def spanning_tree(graph, letters):
    """Breadth-first spanning tree of an orbit graph from its basepoint,
    over the edges of ``letters`` in that priority.  Returns, per node, the
    letters applied in sequence from the basepoint along the tree (None for
    a node the letters do not reach) and the set of tree edges
    (node, letter)."""
    path_to = [None] * len(graph.nodes)
    path_to[graph.basepoint] = ()
    tree_edges = set()
    frontier = [graph.basepoint]
    while frontier:
        nxt = []
        for i in frontier:
            for letter in letters:
                j = graph.edges[i][letter][0]
                if path_to[j] is None:
                    path_to[j] = path_to[i] + (letter,)
                    tree_edges.add((i, letter))
                    nxt.append(j)
        frontier = nxt
    return path_to, tree_edges


def stabilizer_words(graph):
    """Words over T, S generating the stabilizer of the basepoint of an
    orbit graph: the Veech group when the graph is the orbit of a reduced
    origami.

    Every non-tree T/S edge (n --g--> m) of the T/S spanning tree yields
    the loop word path(m)^-1 * g * path(n)."""
    path_to, tree_edges = spanning_tree(graph, ("T", "S"))
    assert all(p is not None for p in path_to), "orbit graph not T/S-connected"
    words = []
    for i in range(len(graph.nodes)):
        for letter in ("T", "S"):
            if (i, letter) in tree_edges:
                continue
            j = graph.edges[i][letter][0]
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
