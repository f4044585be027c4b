r"""
Certificates for simplicity of the Lyapunov spectrum of an origami.

For a reduced genus-3 origami with trivial automorphisms, the spectrum of
the homology cocycle on the 4-dimensional zero-holonomy part is simple
once two ingredients are exhibited:

  * a loop word in the Veech group whose zero-holonomy matrix is
    pinching (irreducible reciprocal quartic, real simple roots, maximal
    Galois group), and
  * either a direction in which the waist curves of the cylinder
    decomposition span a subspace E with 1 < dim E < g, or a parabolic
    element whose zero-holonomy matrix B is not the identity and whose
    image (B - Id) is not a Lagrangian subspace.

Everything in a certificate is integer data that can be re-derived from
scratch, which is exactly what verify_certificate does.  Only the batched
word search uses numpy, and its functions import it themselves, so that
verifying a certificate never loads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from . import intlinalg as la
from .galois import is_galois_pinching_sp4, sp4_pinching_report
from .homology import StepStack, kz_context
from .origami import Origami, genus, is_reduced
from .orbit import _INVERSE_LETTER, _LETTERS, Sl2zWord, _cycle_lengths, spanning_tree


def horizontal_cylinder_classes(hom):
    """Waist classes of the horizontal cylinders of ``hom.origami``: for
    each cycle of h, the class of the sum of the bottom edges along it."""
    cycles = hom.origami.h.cycles(include_fixed=True)
    return hom.project_many([{s - 1: 1 for s in cyc} for cyc in cycles])


def _span_dim(ctx, node):
    """Rank of the waist classes of the horizontal cylinders at a node."""
    return la.rank(horizontal_cylinder_classes(ctx.homology(node)))


def cylinder_span_dim(o, direction=None):
    """Rank of the waist classes of the horizontal cylinders of the
    origami reached by applying ``direction`` (an Sl2zWord) to o."""
    ctx = kz_context(o)
    return _span_dim(ctx, ctx.graph.trace(ctx.graph.basepoint, direction or Sl2zWord(())))


def parabolic_word(o, direction="horizontal"):
    """Smallest power of the elementary parabolic (T for horizontal, S
    for vertical) stabilizing the canonical form of o, as a word."""
    if direction not in ("horizontal", "vertical"):
        raise ValueError("direction must be 'horizontal' or 'vertical'")
    return _parabolic_word(kz_context(o).graph, "T" if direction == "horizontal" else "S")


def _parabolic_word(graph, letter):
    """Smallest power of the letter T or S stabilizing the basepoint of
    an orbit graph, as a word."""
    base = graph.basepoint
    # T^L (h, v) = (h, v h^-L) is (h, v) once h^L = id, and likewise
    # S^L (h, v) once v^L = id
    h, v = graph.tables(base)
    bound = math.lcm(*_cycle_lengths(h if letter == "T" else v))
    node = base
    for k in range(1, bound + 1):
        node = graph.target(node, letter)
        if node == base:
            return Sl2zWord((letter,) * k)
    raise AssertionError("parabolic never returned to the basepoint")


def _zero_form(ctx):
    """Intersection form Z J Z^T on the zero-holonomy basis Z (one basis
    vector per row) at the basepoint."""
    base = ctx.graph.basepoint
    zero = ctx.basis(base, "H1_zero")
    return la.mat_mul(zero, la.mat_mul(ctx.homology(base).intersection, la.transpose(zero)))


@dataclass
class UnipotentWitness:
    word: Sl2zWord
    rank_b_minus_id: int
    isotropic: bool

    def to_json(self):
        return {
            "kind": "unipotent",
            "word": str(self.word),
            "rank_b_minus_id": self.rank_b_minus_id,
            "isotropic": self.isotropic,
        }


@dataclass
class CylinderWitness:
    direction: Sl2zWord  # empty word means the horizontal direction itself
    dim_e: int
    genus: int

    def to_json(self):
        return {
            "kind": "cylinder",
            "direction": str(self.direction) if len(self.direction) else "",
            "dim_e": self.dim_e,
            "genus": self.genus,
        }


@dataclass
class SimplicityCertificate:
    origami: Origami  # canonical form
    pinching_word: Sl2zWord
    quartic: object  # ReciprocalQuartic
    witness: object  # UnipotentWitness or CylinderWitness

    def to_json(self):
        return {
            "origami": self.origami.to_json(),
            "pinching_word": str(self.pinching_word),
            "quartic": self.quartic.to_json(),
            "witness": self.witness.to_json(),
        }

    def dumps(self):
        return json.dumps(self.to_json(), indent=2)


@dataclass
class NotFound:
    """No certificate up to ``explored_depth``; not a disproof.

    ``exhausted`` means the word search reached every state of the
    cocycle, so no loop word of any length is pinching and this method
    cannot certify the surface.  ``words`` counts the matrix products
    the search formed and ``states`` the distinct (node, matrix, last
    letter) states it kept.
    """

    explored_depth: int
    exhausted: bool = False
    words: int = 0
    states: int = 0


def _check_preconditions(o):
    """The context of o, once o is known to be reduced, with trivial
    automorphisms and of genus 3, checked in that order."""
    if not is_reduced(o):
        raise ValueError("simplicity certification requires a reduced origami")
    ctx = kz_context(o)
    if not ctx.graph.rigid[ctx.graph.basepoint]:
        raise ValueError("simplicity certification requires trivial automorphisms")
    if genus(o) != 3:
        raise ValueError("simplicity certification is implemented for genus 3 only")
    return ctx


# products are formed in int64 only while a bound on their entries stays
# below this; past it, in Python ints
_INT64_LIMIT = 2**63

# the letter indices (into T, S, t, s) a path may take after its last
# letter, which is None for the empty path: all but the inverse
_NEXT_LETTERS = {
    last: [i for i in range(4) if last is None or _LETTERS[i] != _INVERSE_LETTER[_LETTERS[last]]]
    for last in (None, 0, 1, 2, 3)
}


def _products(steps, mats, bound):
    """(steps[i] @ mats[i] for every i, a bound on their entries) for
    stacks of square integer matrices, given a bound on the entries of
    ``mats``.  An entry of a product is at most the largest absolute row
    sum of the steps times ``bound``, and so is every partial sum that
    forms it: while that is below 2**63 the products are formed in int64,
    which is then exact, else in Python ints (dtype=object)."""
    import numpy as np

    bound *= int(np.abs(steps).sum(axis=2).max(initial=0))
    if bound >= _INT64_LIMIT:
        steps, mats = steps.astype(object), mats.astype(object)
    return np.matmul(steps, mats), bound


def _power_traces(mats, bound):
    """The traces of M, M^2, .., M^d, one row per matrix M of a stack of
    d x d integer matrices, given a bound on their entries.  The entries
    of M^k, every partial sum that forms one and its trace are at most
    d^k bound^k, so the powers are formed in int64 while d^d bound^d is
    below 2**63, which is then exact, else in Python ints (dtype=object)."""
    import numpy as np

    d = mats.shape[-1]
    if (d * bound) ** d >= _INT64_LIMIT:
        mats = mats.astype(object)
    power = mats
    traces = [power.trace(axis1=1, axis2=2)]
    for _ in range(d - 1):
        power = np.matmul(mats, power)
        traces.append(power.trace(axis1=1, axis2=2))
    return np.stack(traces, axis=1)


def _charpolys(mats, bound):
    """The characteristic polynomials [1, c1, .., cd], in Python ints, of
    a stack of d x d integer matrices, given a bound on their entries:
    Newton's identities k c_k = -(c_(k-1) p_1 + c_(k-2) p_2 + .. + c_0 p_k),
    with c_0 = 1 and p_k the trace of M^k, in exact division."""
    d = mats.shape[-1]
    polys = []
    for p in _power_traces(mats, bound).tolist():
        c = [1]
        for k in range(1, d + 1):
            c.append(-sum([x * y for x, y in zip(reversed(c), p)]) // k)
        polys.append(c)
    return polys


def _matrix_keys(mats):
    """One key per matrix of a stack, equal exactly when the matrices are,
    whatever their dtype: the bytes of its entries in int64, or the tuple
    of its entries when they do not fit in int64."""
    import numpy as np

    flat = mats.reshape(len(mats), -1)
    if flat.dtype != object:
        return [row.tobytes() for row in flat]
    keys = []
    for row in flat:
        try:
            keys.append(row.astype(np.int64).tobytes())
        except OverflowError:
            keys.append(tuple(row.tolist()))
    return keys


def _search_pinching_word(ctx, search_depth):
    """Breadth-first search behind find_pinching_word, at the basepoint
    of a context.

    Returns (found, stats): found is (word, Sp4PinchingReport) or None,
    stats the ``exhausted``, ``words`` and ``states`` fields of NotFound.
    """
    import numpy as np

    if search_depth < 0:
        raise ValueError("search depth must be non-negative, not %d" % search_depth)
    base = ctx.graph.basepoint
    table = StepStack(ctx, "H1_zero", np.int64)
    rows, targets = table.rows, table.targets
    # the frontier: its matrices stacked, and per state its node, last
    # letter index and path; every frontier entry is at most ``bound``
    frontier = np.eye(table.dim, dtype=np.int64)[None]
    nodes, lasts, paths = [base], [None], [()]
    bound = 1
    seen = set()
    rejected = set()  # keys of closed matrices already found not pinching
    words = 0
    found, exhausted = None, False
    for _length in range(search_depth):
        parents, picks, letters = [], [], []
        for parent, (node, last) in enumerate(zip(nodes, lasts)):
            for letter in _NEXT_LETTERS[last]:
                row = rows.get(4 * node + letter)
                if row is None:
                    row = table.add(node, letter)
                parents.append(parent)
                picks.append(row)
                letters.append(letter)
        # the path applies letters left to right, so each new step
        # multiplies on the left
        products, bound = _products(table.mats[picks], frontier[parents], bound)
        keys = _matrix_keys(products)
        words += len(picks)
        kept = []
        for child, key in enumerate(keys):
            state = (targets[picks[child]], key, letters[child])
            if state not in seen:
                seen.add(state)
                kept.append(child)
        if not kept:
            exhausted = True
            break
        frontier = products[kept]
        nodes = [targets[picks[c]] for c in kept]
        lasts = [letters[c] for c in kept]
        paths = [paths[parents[c]] + (_LETTERS[letters[c]],) for c in kept]
        # the closed states not yet rejected, one per matrix, in kept order
        closed = {}
        for i, child in enumerate(kept):
            if nodes[i] == base and keys[child] not in rejected:
                closed.setdefault(keys[child], i)
        picked = list(closed.values())
        polys = _charpolys(frontier[picked], bound) if picked else []
        for key, i, cp in zip(closed, picked, polys):
            report = sp4_pinching_report(cp)
            if report.pinching:
                # the word's leftmost letter acts last: reverse the path
                found = Sl2zWord(tuple(reversed(paths[i]))), report
                break
            rejected.add(key)
        if found is not None:
            break
    return found, {"exhausted": exhausted, "words": words, "states": len(seen)}


def find_pinching_word(o, search_depth):
    """Shortest loop word at the canonical form whose zero-holonomy
    matrix is pinching, and among those the first whose path (letters
    in the order they act) comes first in the letter order T, S, T^-1,
    S^-1; paths never take a letter right after its inverse.

    The search runs breadth first over states (node, H1_zero matrix,
    last letter), expanding them in the order they were first reached
    and each one's children in letter order.  A child whose state was
    already reached, at this length or a shorter one, is dropped: both
    prefixes allow the same suffixes, and each suffix gives the same end
    node and matrix from both, so every pinching word through the
    dropped prefix has a counterpart that is shorter, or as long and
    earlier in letter order, and that one is found first.  The result
    is therefore the same as testing every closed word by length and
    letter order.  When a length adds no new state the search is
    exhausted: every state of the cocycle has been tested, and no loop
    word of any length is pinching.

    Each length is formed at once: the matrices of the states kept at
    the last length are stacked in one array, and one ``np.matmul``
    multiplies each by the H1_zero steps of its allowed letters, which
    are gathered from a table with one row per (node, letter) reached.
    The array is int64 only while a running bound proves int64 exact:
    the bound starts at 1 for the identity, and each length multiplies
    it by the largest absolute row sum of the steps it used, which
    bounds every entry of the new products and every partial sum that
    forms one.  Once the bound reaches 2**63 the rest of the search
    runs in Python ints (a dtype=object array).

    The closed matrices of a length at the basepoint are tested as one
    batch as well: those whose matrix was not found not pinching at a
    shorter length, one per matrix, in the order they were kept.
    ``_charpolys`` forms their characteristic polynomials from the
    traces of their first d powers, taken by batched products, with
    Newton's identities in Python ints; the powers are int64 while
    d^d bound^d, which bounds their entries, partial sums and traces, is
    below 2**63, else Python ints.  The reports are then read off the
    coefficient lists in that order, up to the first pinching one, so
    the word and report are those a test of one matrix at a time would
    give.  ``verify_certificate`` re-derives the report of the word it
    is given with Berkowitz's recursion instead.

    Memory is one d x d matrix per kept state: one key of node, matrix
    bytes and last letter per distinct state, and the array of the
    states kept at the last length.  On Zariski-dense orbits such as
    ``dema`` the new states grow about 2x per length (8,064 at length
    10), so about 64k states by the CLI default depth 12; on ``ew``,
    whose cocycle acts through a finite group, 384 states exhaust the
    search at length 9.

    Returns (word, Sp4PinchingReport) or None.
    """
    return _search_pinching_word(kz_context(o), search_depth)[0]


def _cylinder_witness(ctx, g):
    """A direction (as a word reaching an orbit node) where the waist
    span E has 1 < dim E < g, if one exists."""
    graph = ctx.graph
    for node, path in spanning_tree(graph, _LETTERS).items():
        dim_e = _span_dim(ctx, node)
        if 1 < dim_e < g:
            # word applying path letters in order: first letter acts first
            word = Sl2zWord(tuple(reversed(path)))
            assert graph.trace(graph.basepoint, word) == node
            return CylinderWitness(direction=word, dim_e=dim_e, genus=g)
    return None


def _image_is_lagrangian(b, form, g):
    """(rank, isotropic, lagrangian) for the image of b - Id."""
    bmi = la.mat_sub(b, la.identity_matrix(len(b)))
    cols = la.transpose(bmi)
    rank = la.rank(cols)
    gram = la.mat_mul(cols, la.mat_mul(form, bmi))
    isotropic = all(x == 0 for row in gram for x in row)
    return rank, isotropic, (rank == g - 1 and isotropic)


def _unipotent_witness(ctx, g):
    base = ctx.graph.basepoint
    form = _zero_form(ctx)
    for letter in ("T", "S"):
        word = _parabolic_word(ctx.graph, letter)
        node, mat = ctx.word_matrix(word, subspace="H1_zero")
        if node != base:
            raise AssertionError("parabolic word did not close up")
        if la.mat_eq(mat, la.identity_matrix(len(mat))):
            continue
        rank, isotropic, lagrangian = _image_is_lagrangian(mat, form, g)
        if not lagrangian:
            return UnipotentWitness(word=word, rank_b_minus_id=rank, isotropic=isotropic)
    return None


def certify_simplicity(o, search_depth=12):
    """Search for a complete simplicity certificate; NotFound (which is
    not a disproof) when no pinching word of length up to
    ``search_depth`` or no witness is found."""
    ctx = _check_preconditions(o)
    found, stats = _search_pinching_word(ctx, search_depth)
    if found is None:
        return NotFound(explored_depth=search_depth, **stats)
    word, report = found
    # the preconditions hold, so the genus is 3
    witness = _cylinder_witness(ctx, 3) or _unipotent_witness(ctx, 3)
    if witness is None:
        return NotFound(explored_depth=search_depth, **stats)
    # the context is shared across labels: the certificate keeps o's
    node = ctx.graph.nodes[ctx.graph.basepoint]
    canon = Origami._trusted(node.h, node.v, o.label)
    return SimplicityCertificate(canon, word, report.quartic, witness)


def _require(obj, keys, what):
    """``obj`` after checking that it is a JSON object with every key."""
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % what)
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError("%s lacks %s" % (what, ", ".join(missing)))
    return obj


def _integer(value, what):
    """``value`` after checking that it is an integer (a bool is not)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("%s must be an integer, not %r" % (what, value))
    return value


_WITNESS_KEYS = {
    "unipotent": ("word", "rank_b_minus_id", "isotropic"),
    "cylinder": ("direction", "dim_e", "genus"),
}


def certificate_from_json(obj):
    from .galois import ReciprocalQuartic

    _require(obj, ("origami", "pinching_word", "quartic", "witness"), "certificate")
    origami = Origami.from_json(_require(obj["origami"], ("h_images", "v_images"), "origami"))
    word = Sl2zWord.parse(obj["pinching_word"])
    _require(obj["quartic"], ("a", "b"), "quartic")
    quartic = ReciprocalQuartic(
        a=_integer(obj["quartic"]["a"], "quartic a"), b=_integer(obj["quartic"]["b"], "quartic b")
    )
    for key, value in (
        ("delta1", quartic.delta1),
        ("delta2", quartic.delta2),
        ("delta3", quartic.delta3),
    ):
        if key in obj["quartic"] and obj["quartic"][key] != value:
            raise ValueError("certificate %s does not match (a, b)" % key)
    w = _require(obj["witness"], ("kind",), "witness")
    if not isinstance(w["kind"], str) or w["kind"] not in _WITNESS_KEYS:
        raise ValueError("unknown witness kind %r" % w["kind"])
    _require(w, _WITNESS_KEYS[w["kind"]], "%s witness" % w["kind"])
    if w["kind"] == "unipotent":
        if not isinstance(w["isotropic"], bool):
            raise ValueError("witness isotropic must be a bool, not %r" % (w["isotropic"],))
        witness = UnipotentWitness(
            word=Sl2zWord.parse(w["word"]),
            rank_b_minus_id=_integer(w["rank_b_minus_id"], "witness rank_b_minus_id"),
            isotropic=w["isotropic"],
        )
    elif w["kind"] == "cylinder":
        witness = CylinderWitness(
            direction=Sl2zWord.parse(w["direction"]),
            dim_e=_integer(w["dim_e"], "witness dim_e"),
            genus=_integer(w["genus"], "witness genus"),
        )
    return SimplicityCertificate(
        origami=origami, pinching_word=word, quartic=quartic, witness=witness
    )


def verify_certificate(cert):
    """Re-derive every claim in a certificate from scratch."""
    try:
        ctx = _check_preconditions(cert.origami)
        base = ctx.graph.basepoint
        node, mat = ctx.word_matrix(cert.pinching_word, subspace="H1_zero")
        if node != base:
            return False
        report = is_galois_pinching_sp4(mat)
        if not report.pinching:
            return False
        # Both quartics are ReciprocalQuartics, so equal (a, b) means equal
        # deltas; certificate_from_json rejects tampered JSON deltas.
        if (report.quartic.a, report.quartic.b) != (cert.quartic.a, cert.quartic.b):
            return False
        g = 3  # the preconditions hold
        w = cert.witness
        if isinstance(w, CylinderWitness):
            if w.genus != g:
                return False
            dim_e = _span_dim(ctx, ctx.graph.trace(base, w.direction))
            return dim_e == w.dim_e and 1 < dim_e < g
        if isinstance(w, UnipotentWitness):
            node, mat = ctx.word_matrix(w.word, subspace="H1_zero")
            if node != base or la.mat_eq(mat, la.identity_matrix(len(mat))):
                return False
            rank, isotropic, lagrangian = _image_is_lagrangian(mat, _zero_form(ctx), g)
            if rank != w.rank_b_minus_id or isotropic != w.isotropic:
                return False
            return not lagrangian
        return False
    except (ValueError, AssertionError):
        return False
