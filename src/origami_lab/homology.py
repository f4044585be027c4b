r"""
Integral cellular homology of an origami and the action of affine
homeomorphisms on it.

The cell structure has one vertex class per corner-permutation cycle, two
edges per square (sigma_i: bottom edge, zeta_i: left edge) and one square
2-cell per symbol.  Edge chains are sparse mappings {edge: coefficient},
with sigma_i as edge i-1 and zeta_i as edge N+i-1.  The boundary of square
i is sigma_i + zeta_{h(i)} - sigma_{v(i)} - zeta_i.

H_1 comes from a tree-cotree decomposition (Eppstein, "Dynamic generators
of topologically embedded graphs", SODA 2003): a spanning tree T of the
vertex graph, a spanning tree C of the square-adjacency graph that avoids
the duals of T, and the 2g leftover edges.  Each leftover edge e closes a
basis loop e + (T-path) and, through its dual edge, a dual loop
e* + (C-path) through square centers.  Each tree is climbed once; the
dual loops are kept as ordered (edge, +-1) crossing records, which give
both their chains and their center paths.  Basis loop a crosses dual
loop b exactly when a = b, so coordinate b of a cycle is its intersection
number with dual loop b: a signed sum of its coefficients over the
crossing records of that loop.  The coordinates of the dual loops invert
to the intersection form; both are built, and the form checked, the first
time either is read, since most builds need only the basis and the
coordinates.

The complex is kept as incidences only, read off the 0-based image
tables of h and v.  A generator letter and a deck transformation both act
through one path: a sparse edge map and a square map, the chain-map law
checked per square, the sparse basis loops pushed through and projected,
and M^T J' M = J checked.  The checks d1 d2 = 0 and the chain-map law add
their contributions into a dict keyed by one int (square * V + vertex,
square * E + edge), so they hold memory linear in the contributions.

Cocycle matrices are restricted to an invariant sublattice (the
zero-holonomy part, or the isotypical block W of a central involution) by
an integer left inverse of its basis, with exact divisibility checks;
``KzContext`` holds these bases per orbit node.  All arithmetic in this
module is exact, in integers; the one float array is a ``StepStack``
that a caller asks for with a float dtype.  ``StepStack`` is also the
only user of numpy here, and imports it itself, so that the exact
computations never pay for loading it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import intlinalg as la
from .origami import automorphisms, canonical_form, central_involution
from .orbit import _LETTERS, Sl2zWord, sl2z_orbit
from .paths import CenterPath
from .perm import conjugate


# ---------------------------------------------------------------------------
# Chain complex


@dataclass(frozen=True)
class ChainComplexData:
    """The incidences of the cell complex on ``vertices`` vertex classes:
    edge k runs from vertex tail[k] to vertex head[k], with square plus[k]
    (0-based) on its left and square minus[k] on its right, so it enters
    the boundary of plus[k] with sign +1 and that of minus[k] with sign
    -1."""

    vertices: int
    tail: list
    head: list
    plus: list
    minus: list


def chain_complex(o):
    """The incidences of the cell complex of ``o``, with d1 d2 = 0 checked.
    Vertex classes are the cycles of the corner permutation c = v h v^-1
    h^-1, numbered by their least square."""
    n = o.degree
    h = [j - 1 for j in o.h.images]
    v = [j - 1 for j in o.v.images]
    hi, vi = [0] * n, [0] * n
    for i in range(n):
        hi[h[i]] = i
        vi[v[i]] = i
    vertex_of = [-1] * n
    vertices = 0
    for start in range(n):
        if vertex_of[start] < 0:
            j = start
            while vertex_of[j] < 0:
                vertex_of[j] = vertices
                j = v[h[vi[hi[j]]]]
            vertices += 1
    # sigma_i runs from the corner of square i to the corner of h(i), with
    # square i above it; zeta_i runs from the corner of square i to the
    # corner of v(i), with square i to its right
    cx = ChainComplexData(
        vertices,
        tail=vertex_of * 2,
        head=[vertex_of[j] for j in h] + [vertex_of[j] for j in v],
        plus=list(range(n)) + hi,
        minus=vi + list(range(n)),
    )
    _check_complex(cx)
    return cx


def _check_complex(cx):
    """Raise unless d1(d2(square)) = 0 on the incidences of ``cx``: every
    contribution to the entry of the product at (vertex, square) is added
    under the key square * V + vertex, without forming the V x N
    product."""
    nv = cx.vertices
    composed = {}
    get = composed.get
    for p, m, hd, tl in zip(cx.plus, cx.minus, cx.head, cx.tail):
        p *= nv
        m *= nv
        composed[p + hd] = get(p + hd, 0) + 1
        composed[p + tl] = get(p + tl, 0) - 1
        composed[m + hd] = get(m + hd, 0) - 1
        composed[m + tl] = get(m + tl, 0) + 1
    if any(composed.values()):
        raise AssertionError("boundary maps do not compose to zero")


def _spanning_tree(count, ends, edges):
    """Breadth-first spanning tree from node 0 of the graph on nodes
    0..count-1 whose edge k (for k in ``edges``) runs from ends[0][k] to
    ends[1][k].  Returns the (child, edge, parent) triples in discovery
    order."""
    adjacent = [[] for _ in range(count)]
    for k in edges:
        adjacent[ends[0][k]].append((k, ends[1][k]))
        adjacent[ends[1][k]].append((k, ends[0][k]))
    seen = [True] + [False] * (count - 1)
    order = [(0, None, None)]
    for x, _k, _parent in order:
        for k, y in adjacent[x]:
            if not seen[y]:
                seen[y] = True
                order.append((y, k, x))
    if len(order) != count:
        raise AssertionError("cell graph is not connected")
    return order[1:]


def _tree_cycles(tree, ends, leftover):
    """Per edge e in ``leftover``: e run from ends[0][e] to ends[1][e] and
    closed back through the tree, as its ordered crossings [(edge, +1 or
    -1)] (-1 where the cycle runs against the edge).  The tree part climbs
    from both ends of e to where they meet, so no edge repeats."""
    up = [None] * (len(tree) + 1)
    depth = [0] * (len(tree) + 1)
    for child, k, parent in tree:
        up[child] = (k, parent)
        depth[child] = depth[parent] + 1
    cycles = []
    for e in leftover:
        a, b = ends[1][e], ends[0][e]
        climb, descent = [], []
        while a != b:
            if depth[a] >= depth[b]:
                k, parent = up[a]
                climb.append((k, 1 if ends[0][k] == a else -1))
                a = parent
            else:
                k, parent = up[b]
                descent.append((k, 1 if ends[0][k] == parent else -1))
                b = parent
        cycles.append([(e, 1)] + climb + descent[::-1])
    return cycles


class Homology:
    """H_1(X; Z) with a fixed integral basis, intersection matrix and
    tautological data, for one origami.  ``loops[a]`` is basis loop a as
    a sparse edge cycle {edge: coefficient}.  ``dual_coords`` (D) and
    ``intersection`` (J = D^-1) are computed on their first read, and J
    is checked integral and skew then; a build whose J is never read
    never proves D unimodular."""

    def __init__(self, o):
        self.origami = o
        n = o.degree
        cx = self.complex = chain_complex(o)
        tree = _spanning_tree(cx.vertices, (cx.tail, cx.head), range(2 * n))
        in_tree = {k for _child, k, _parent in tree}
        cotree = _spanning_tree(n, (cx.minus, cx.plus), [k for k in range(2 * n) if k not in in_tree])
        in_cotree = {k for _child, k, _parent in cotree}
        self._leftover = [k for k in range(2 * n) if k not in in_tree and k not in in_cotree]
        # both trees span, so there are 2N - (V - 1) - (N - 1) = 2g
        # leftover edges by Euler's formula; the rank needs no check
        self.rank = len(self._leftover)
        # per leftover edge e: the basis loop e + (T-path back to its tail)
        # and the dual loop e* + (C-path back to square minus[e]), where e*
        # crosses e from square minus[e] to square plus[e]
        self.loops = [dict(c) for c in _tree_cycles(tree, (cx.tail, cx.head), self._leftover)]
        self._duals = _tree_cycles(cotree, (cx.minus, cx.plus), self._leftover)
        # per edge: the (dual loop, sign) records of the dual loops crossing it
        self._crossings = {}
        for b, dual in enumerate(self._duals):
            for k, c in dual:
                self._crossings.setdefault(k, []).append((b, c))
        # project_many reads coordinates off the crossing records, so it
        # gives coordinates only if P[a][b] = <loop a, dual b> is the
        # identity
        if self.project_many(self.loops) != la.identity_matrix(self.rank):
            raise AssertionError("basis loops and dual loops do not cross once each")
        self.taut_sigma, self.taut_zeta = self.project_many(
            [dict.fromkeys(range(n), 1), dict.fromkeys(range(n, 2 * n), 1)]
        )

    def dual_loops(self):
        """The dual loops as closed center paths, in leftover-edge order.

        The loop of e crosses e from square minus[e] to square plus[e] and
        runs back through C; crossing a sigma edge is a U or D step, a
        zeta edge an L or R step.  Each is a simple cycle of squares, so a
        simple closed curve, and column b of ``dual_coords`` holds the
        coordinates of loop b; they form a Z-basis of H_1 since
        J = D^-1 is integral, which is checked when D or J is first
        read."""
        n = self.origami.degree
        return [
            CenterPath(
                self.complex.minus[e] + 1,
                "".join(("UD" if k < n else "LR")[c < 0] for k, c in dual),
            )
            for e, dual in zip(self._leftover, self._duals)
        ]

    @property
    def dual_coords(self):
        """D: column b holds the basis coordinates of dual loop b."""
        return self._intersection_matrix[0]

    @property
    def intersection(self):
        """J = D^-1, the intersection form in basis coordinates."""
        return self._intersection_matrix[1]

    @cached_property
    def _intersection_matrix(self):
        """Intersection form in basis coordinates.

        With every dual edge run from its right square to its left one
        (minus to plus), each crossing of an edge by its dual is positive,
        so <a, b> = sum_k a_k b_k for an edge cycle a and a dual cycle b;
        this is sum_i b_U(i) a_sigma(v(i)) - b_R(i) a_zeta(h(i)) in terms
        of the up and right steps of b.  With D the coordinates of the
        dual loops, J D = P = I (checked at build) gives J = D^-1, checked
        integral and skew here: det J det D = 1 in integers gives
        det J = +-1, and det J = Pf(J)^2, so J is unimodular.  D pivots on
        units: D^T J D = D^T = -D is the intersection matrix of the dual
        loops, sparse with entries -1, 0 and 1 (on every fixture and
        random surface tested), and int_inverse's least-entry pivot has
        found a 1 in every column there, so each step is x - f y on the
        few rows meeting the pivot column, with no growth and den = 1.
        Computed once, on the first read of D or J; (D, J)."""
        # each dual chain pushed to corners: a dual edge k run minus -> plus
        # is an up step at square minus[k] (k a sigma) or a left step into
        # square plus[k] (k a zeta), so +zeta_{minus[k]} or -sigma_{plus[k]}
        n = self.origami.degree
        chains = []
        for dual in self._duals:
            chain = Counter()
            for k, c in dual:
                if k < n:
                    chain[n + self.complex.minus[k]] += c
                else:
                    chain[self.complex.plus[k]] -= c
            chains.append(chain)
        d = la.transpose(self.project_many(chains))
        num, den = la.int_inverse(d)
        if any(x % den for row in num for x in row):
            raise AssertionError("intersection form came out non-integral")
        j = [[x // den for x in row] for row in num]
        if any(j[a][b] != -j[b][a] for a in range(self.rank) for b in range(self.rank)):
            raise AssertionError("intersection form must be skew")
        return d, j

    def project_many(self, chains):
        """Coordinates in the H_1 basis of sparse edge cycles {edge:
        coefficient}, one coordinate list per chain.  Coordinate b is the
        intersection number with dual loop b, the sum of c * sign over the
        records (b, sign) of every edge the chain has with coefficient c;
        a chain with nonzero boundary raises ``ValueError``."""
        cx = self.complex
        crossings = self._crossings
        out = []
        for chain in chains:
            boundary = [0] * cx.vertices
            coords = [0] * self.rank
            for k, c in chain.items():
                boundary[cx.head[k]] += c
                boundary[cx.tail[k]] -= c
                for b, sign in crossings.get(k, ()):
                    coords[b] += c * sign
            if any(boundary):
                raise ValueError("chain is not a cycle")
            out.append(coords)
        return out

    def action_matrix(self, tau):
        """Matrix on H_1 (basis coordinates) of a deck transformation tau,
        the chain map sigma_i -> sigma_tau(i), zeta_i -> zeta_tau(i) on
        edges and tau on squares."""
        o = self.origami
        if conjugate(o.h, tau) != o.h or conjugate(o.v, tau) != o.v:
            raise ValueError("tau is not a deck transformation of the origami")
        n = o.degree
        cell = [j - 1 for j in tau.images]
        edges = [[(j, 1)] for j in cell] + [[(n + j, 1)] for j in cell]
        return _homology_map(self, self, edges, cell)


def tautological_split(o_or_hom):
    """(H1_st, H1_zero): coordinates (in the Homology basis) of the tautological
    plane span{sum sigma, sum zeta} and a saturated integral basis of the
    zero-holonomy subspace; dim H1_zero = 2g - 2."""
    hom = o_or_hom if isinstance(o_or_hom, Homology) else Homology(o_or_hom)
    st = [hom.taut_sigma, hom.taut_zeta]
    n = hom.origami.degree
    hol_rows = [
        [sum(c for k, c in loop.items() if k < n) for loop in hom.loops],
        [sum(c for k, c in loop.items() if k >= n) for loop in hom.loops],
    ]
    zero = la.kernel_basis(hol_rows)
    if len(zero) != hom.rank - 2:
        raise AssertionError("zero-holonomy subspace must have dimension 2g-2")
    return st, zero


# ---------------------------------------------------------------------------
# Cocycle matrices


@dataclass(frozen=True)
class CocycleMatrix:
    matrix: tuple  # rows of ints, in the homology coordinates of the basepoint
    word: Sl2zWord
    ambiguity: tuple = ()  # nontrivial deck matrices, on the matrix's subspace


def _edge_map(o, letter, relabel):
    """Chain map of a generator letter from o to its image relabelled by
    ``relabel``: per source edge (sigma_i at i-1, zeta_i at N+i-1) its image
    as a list of (target edge, coefficient) pairs, and per source square
    (0-based) its target square."""
    if letter not in _LETTERS:
        raise ValueError("unknown letter %r" % letter)
    n = o.degree
    r = [j - 1 for j in relabel.images]
    # the square i moves to: r(h(i)) for T, r(h^-1(i)) for t, r(v(i)) for
    # S and r(v^-1(i)) for s
    moved = (o.h if letter in ("T", "t") else o.v).images
    if letter in ("T", "S"):
        cell = [r[j - 1] for j in moved]
    else:
        cell = [0] * n
        for i, j in enumerate(moved):
            cell[j - 1] = r[i]
    if letter == "T":
        # sigma_i -> sigma'_{r(i)}; zeta_i -> sigma'_{r(i)} + zeta'_{r(h(i))}
        edges = [[(x, 1)] for x in r] + [[(x, 1), (n + c, 1)] for x, c in zip(r, cell)]
    elif letter == "t":
        edges = [[(x, 1)] for x in r] + [[(n + c, 1), (c, -1)] for c in cell]
    elif letter == "S":
        # zeta_i -> zeta'_{r(i)}; sigma_i -> zeta'_{r(i)} + sigma'_{r(v(i))}
        edges = [[(n + x, 1), (c, 1)] for x, c in zip(r, cell)] + [[(n + x, 1)] for x in r]
    else:
        edges = [[(c, 1), (n + c, -1)] for c in cell] + [[(n + x, 1)] for x in r]
    return edges, cell


def _check_chain_map(cs, ct, edges, cell):
    """Raise unless f(d2(i)) = d2(cell[i]) for every source square i, for
    the chain map f of ``_homology_map`` between the complexes cs and ct:
    every contribution to f(d2(i)) - d2(cell[i]) is added under the key
    (target square) * E + (target edge), E the target edge count."""
    ne = len(ct.plus)
    law = {}
    get = law.get
    for p, m, image in zip(cs.plus, cs.minus, edges):
        p = cell[p] * ne
        m = cell[m] * ne
        for e, c in image:
            law[p + e] = get(p + e, 0) + c
            law[m + e] = get(m + e, 0) - c
    for e, (p, m) in enumerate(zip(ct.plus, ct.minus)):
        p = p * ne + e
        m = m * ne + e
        law[p] = get(p, 0) - 1
        law[m] = get(m, 0) + 1
    if any(law.values()):
        raise AssertionError("edge map is not a chain map")


def _homology_map(hs, ht, edges, cell):
    """Matrix H1(source) -> H1(target), in the bases of hs and ht, of the
    chain map f taking source edge k to sum c * (target edge e) over (e, c)
    in edges[k] and source square i to target square cell[i] (0-based, a
    bijection).  Checks f(d2(i)) = d2(cell[i]) on the incidences and
    M^T J_t M = J_s."""
    _check_chain_map(hs.complex, ht.complex, edges, cell)
    images = []
    for loop in hs.loops:
        image = Counter()
        for k, c in loop.items():
            for e, ce in edges[k]:
                image[e] += c * ce
        images.append(image)
    cols = ht.project_many(images)
    m = la.transpose(cols)
    # symplecticity: M^T J_t M = J_s, with M^T = cols
    if not la.mat_eq(la.mat_mul(cols, la.mat_mul(ht.intersection, m)), hs.intersection):
        raise AssertionError("map on H_1 is not symplectic")
    return m


_SUBSPACES = ("full", "H1_zero", "W")


class KzContext:
    """Cached orbit graph, per-node homology, subspace bases and per-edge
    step matrices for one SL(2,Z)-orbit.  The graph grows as words walk
    it, and a node's ``Origami`` is built with its ``Homology``, so a walk
    canonicalizes each edge it takes and builds one of each per node it
    visits.

    A ``subspace`` is one of "full" (H_1 itself), "H1_zero" (the
    zero-holonomy part, from ``tautological_split``) or "W" (the
    (-1)-eigenspace of the node's central involution, from
    ``isotypical_W``); matrices on it are in the basis ``basis`` returns
    at each end."""

    def __init__(self, o):
        self.graph = sl2z_orbit(o)
        self._homology = {}
        self._bases = {}
        self._steps = {}
        self._aut_matrices = {}

    def homology(self, node):
        if node not in self._homology:
            self._homology[node] = Homology(self.graph.nodes[node])
        return self._homology[node]

    def basis(self, node, subspace):
        """Integral basis of a subspace at a node, as columns of H_1
        coordinates."""
        return self._lattice(node, subspace)[0]

    def _lattice(self, node, subspace):
        """(basis columns, Z, N, d): Z has the basis as columns and N / d is
        its left inverse; computed once per node and subspace."""
        if subspace not in _SUBSPACES:
            raise ValueError("subspace must be one of: %s" % ", ".join(_SUBSPACES))
        key = (node, subspace)
        if key not in self._bases:
            hom = self.homology(node)
            if subspace == "full":
                cols = la.identity_matrix(hom.rank)
            elif subspace == "H1_zero":
                cols = tautological_split(hom)[1]
            else:
                cols = isotypical_W(hom, central_involution(self.graph.nodes[node]))
            self._bases[key] = (cols, *_left_inverse(cols, hom.rank))
        return self._bases[key]

    def _on_subspace(self, m, source, target, subspace):
        """A matrix H1(source) -> H1(target) on the subspace at both ends."""
        if subspace == "full":
            return m
        z_source = self._lattice(source, subspace)[1]
        _cols, z_target, n, d = self._lattice(target, subspace)
        return _restrict(m, z_source, z_target, n, d)

    def step(self, node, letter, subspace="full"):
        """(target node, integer matrix of the letter from node to target
        on the subspace), cached per (node, letter, subspace)."""
        key = (node, letter, subspace)
        if key not in self._steps:
            if subspace == "full":
                self._steps[key] = self._homology_step(node, letter)
            else:
                target, m = self.step(node, letter)
                self._steps[key] = (target, self._on_subspace(m, node, target, subspace))
        return self._steps[key]

    def _homology_step(self, node, letter):
        """(target node, integer matrix H1(node) -> H1(target))."""
        target, relabel = self.graph.step(node, letter)
        hs, ht = self.homology(node), self.homology(target)
        edges, cell = _edge_map(self.graph.nodes[node], letter, relabel)
        return target, _homology_map(hs, ht, edges, cell)

    def aut_matrices(self, node, subspace="full"):
        """Action matrices of the nontrivial deck transformations of a
        node on the subspace."""
        key = (node, subspace)
        if key not in self._aut_matrices:
            if subspace == "full":
                hom = self.homology(node)
                mats = [
                    hom.action_matrix(tau)
                    for tau in automorphisms(self.graph.nodes[node])
                    if not tau.is_identity()
                ]
            else:
                mats = [self._on_subspace(m, node, node, subspace) for m in self.aut_matrices(node)]
            self._aut_matrices[key] = tuple(tuple(tuple(row) for row in m) for m in mats)
        return self._aut_matrices[key]

    def word_matrix(self, word, start=None, subspace="full"):
        """(end node, matrix of the word on the subspace) for a word applied
        at a node; letters act right to left.  The product is formed on H_1
        and restricted once, between the subspaces at its two ends."""
        start = self.graph.basepoint if start is None else start
        node = start
        total = la.identity_matrix(self.homology(start).rank)
        for letter in reversed(word.letters):
            node, m = self.step(node, letter)
            total = la.mat_mul(m, total)
        return node, self._on_subspace(total, start, node, subspace)


# the most orbit contexts ``kz_context`` keeps
MAX_CONTEXTS = 64
# canonical form -> context, least recently used first
_context_cache = {}


def kz_context(o):
    """The ``KzContext`` of the orbit of ``o``, shared by every surface
    with the same canonical form.  The contexts last used are kept, at
    most ``MAX_CONTEXTS`` of them; the least recently used one is dropped
    to make room and is built afresh if it is asked for again."""
    canon = canonical_form(o).origami
    ctx = _context_cache.pop(canon, None)
    if ctx is None:
        ctx = KzContext(canon)
        while len(_context_cache) >= MAX_CONTEXTS:
            del _context_cache[next(iter(_context_cache))]
    _context_cache[canon] = ctx
    return ctx


class StepStack:
    """The step matrices on one subspace that a walk over a context has
    reached, each one row of a stacked ``dtype`` array that doubles when
    full, so that a batch of steps is gathered by indexing ``mats`` with
    rows.  ``rows`` maps 4 * node + letter index (into the letter order
    T, S, t, s) to a row, and ``targets[row]`` is the target node of that
    step; ``add`` fills the row of a key that is not in ``rows`` yet."""

    def __init__(self, ctx, subspace, dtype):
        import numpy as np

        self._ctx = ctx
        self._subspace = subspace
        self.dim = len(ctx.basis(ctx.graph.basepoint, subspace))
        self.rows = {}
        self.targets = []
        self.mats = np.empty((4, self.dim, self.dim), dtype=dtype)

    def add(self, node, letter):
        """Row of the step by letter index ``letter`` from node, which
        must not have a row yet."""
        import numpy as np

        target, m = self._ctx.step(node, _LETTERS[letter], self._subspace)
        row = self.rows[4 * node + letter] = len(self.targets)
        self.targets.append(target)
        if row == len(self.mats):
            self.mats = np.concatenate([self.mats, np.empty_like(self.mats)])
        # reshaped, so that a 0-dimensional subspace gives (0, 0)
        self.mats[row] = np.array(m, dtype=self.mats.dtype).reshape(self.dim, self.dim)
        return row


def kz_matrix(o, word, subspace="full"):
    """The Kontsevich-Zorich cocycle matrix of a word stabilizing the
    canonical form of ``o``, on a subspace ("full", "H1_zero" or "W").

    If the origami has nontrivial deck transformations the matrix is only
    well-defined up to left composition with the listed ambiguity
    matrices, given on the same subspace.
    """
    if not isinstance(word, Sl2zWord):
        word = Sl2zWord.parse(word)
    ctx = kz_context(o)
    end, total = ctx.word_matrix(word, subspace=subspace)
    if end != ctx.graph.basepoint:
        raise ValueError("word %s does not return to the basepoint" % word)
    return CocycleMatrix(
        matrix=tuple(tuple(row) for row in total),
        word=word,
        ambiguity=ctx.aut_matrices(ctx.graph.basepoint, subspace),
    )


def _left_inverse(cols, dim):
    """(Z, N, d) for basis columns of length ``dim``: Z is the dim x k
    matrix with those columns and N / d = (Z^T Z)^-1 Z^T, N integral."""
    z = [[col[i] for col in cols] for i in range(dim)]
    num, d = la.int_inverse(la.mat_mul(cols, z))
    return z, la.mat_mul(num, cols), d


def _restrict(m, z_source, z_target, n, d):
    """R with M Z_s = Z_t R, as N M Z_s / d for the left inverse N / d of
    Z_t, after checking that Z_t (N M Z_s) = d M Z_s (M Z_s lies in the
    span of Z_t) and that d divides N M Z_s (R is integral)."""
    img = la.mat_mul(m, z_source)
    x = la.mat_mul(n, img)
    if not la.mat_eq(la.mat_mul(z_target, x), la.mat_scale(d, img)):
        raise ValueError("subspace is not invariant under the map")
    if any(v % d for row in x for v in row):
        raise ValueError("restriction is not integral on the given lattice basis")
    return [[v // d for v in row] for row in x]


def restrict(m, sub_source, sub_target=None):
    """Matrix of a cocycle map on an invariant subspace.

    ``sub_source``/``sub_target`` are lists of basis columns (source and
    target coordinates); the result R solves  M @ sub_source = sub_target
    @ R and must be integral."""
    if sub_target is None:
        sub_target = sub_source
    mat = m.matrix if isinstance(m, CocycleMatrix) else m
    z_source = [[col[i] for col in sub_source] for i in range(len(mat[0]))]
    return _restrict(mat, z_source, *_left_inverse(sub_target, len(mat)))


def isotypical_W(o, tau):
    """Saturated integral basis (in Homology basis coordinates) of the
    (-1)-eigenspace of a central involution tau acting on H_1."""
    hom = o if isinstance(o, Homology) else Homology(o)
    if not (tau * tau).is_identity():
        raise ValueError("tau must be an involution")
    plus_id = la.mat_add(hom.action_matrix(tau), la.identity_matrix(hom.rank))
    return la.kernel_basis(plus_id)
