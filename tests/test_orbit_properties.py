"""The early-abort canonical labelling and the orbit search against
reference implementations.

The oracle for ``canonical_form`` is the full-key search: every start
square builds both relabeled image tables, and the start with the
lexicographically smallest (h-table, v-table) wins, ties keeping the
first start; the number of tied starts must be the number of
automorphisms, and the isomorphisms read off the tied starts must be the
maps that ``isomorphism_oracle`` propagates, in the same order.  The
reference orbit is a breadth-first closure over
``apply_letter``, with every raw image checked against
``apply_letter_raw`` and every canonical form against the oracle.
The packed orbit graph must give its nodes, every ``step`` and its JSON,
and ``ekz_sum``'s cylinder term must equal the one summed over its nodes.
Pairs whose h has no fixed point are drawn on their own, with and without
2-cycles, since ``canonical_labelling`` picks its starts by the cycles of
h and random pairs mostly have fixed points.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origami_lab.lyapunov import ekz_sum
from origami_lab.orbit import Sl2zWord, apply_letter, sl2z_orbit, veech_generators
from origami_lab.origami import (
    Origami,
    _isomorphisms,
    automorphism_count,
    automorphisms,
    canonical_form,
    canonical_labelling,
    is_reduced,
)
from origami_lab.perm import Permutation, is_transitive
from origami_lab.spin import hyperelliptic_involution

import isomorphism_oracle as oracle
from conftest import FIXTURE_NAMES, apply_letter_raw, fixture_origami

# surfaces with nontrivial automorphisms, where several starts tie
TIED_FIXTURES = ("ltilde", "mstar", "ew", "dema")


def oracle_canonical_form(o):
    n = o.degree
    hi, vi = o.h.inverse(), o.v.inverse()
    best = None
    best_relabel = None
    for start in range(1, n + 1):
        new_label = [0] * (n + 1)
        new_label[start] = 1
        order = [start]
        head = 0
        while head < len(order):
            s = order[head]
            head += 1
            for t in (o.h(s), o.v(s), hi(s), vi(s)):
                if new_label[t] == 0:
                    new_label[t] = len(order) + 1
                    order.append(t)
        h_images = [0] * n
        v_images = [0] * n
        for s in range(1, n + 1):
            h_images[new_label[s] - 1] = new_label[o.h(s)]
            v_images[new_label[s] - 1] = new_label[o.v(s)]
        key = (tuple(h_images), tuple(v_images))
        if best is None or key < best:
            best = key
            best_relabel = Permutation(new_label[1:])
    return Origami(Permutation(best[0]), Permutation(best[1]), o.label), best_relabel


def reference_orbit(o):
    """(nodes, edges) of the orbit by breadth-first closure over
    ``apply_letter``, with letter priority T, S, t, s."""
    base = oracle_canonical_form(o)[0]
    nodes = [base]
    index = {base: 0}
    edges = [{}]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for letter in ("T", "S", "t", "s"):
                raw, canon, relabel = apply_letter(nodes[i], letter)
                assert raw == apply_letter_raw(nodes[i], letter)
                assert (canon, relabel) == oracle_canonical_form(raw)
                j = index.get(canon)
                if j is None:
                    j = index[canon] = len(nodes)
                    nodes.append(canon)
                    edges.append({})
                    nxt.append(j)
                edges[i][letter] = (j, relabel)
        frontier = nxt
    return nodes, edges


def reference_stabilizer_words(edges):
    """The Veech group generators of the reference orbit, as strings: a
    breadth-first T/S spanning tree, then the loop word of every other T/S
    edge, edges in node id order."""
    path_to = {0: ""}
    tree = set()
    queue = [0]
    for i in queue:
        for letter in "TS":
            j = edges[i][letter][0]
            if j not in path_to:
                path_to[j] = path_to[i] + letter
                tree.add((i, letter))
                queue.append(j)
    return [
        path_to[j].swapcase() + letter + path_to[i][::-1]
        for i in range(len(edges))
        for letter in "TS"
        if (i, letter) not in tree
        for j in [edges[i][letter][0]]
    ]


@st.composite
def transitive_pairs(draw, max_degree=10, min_degree=1):
    n = draw(st.integers(min_degree, max_degree))
    h = Permutation(draw(st.permutations(range(1, n + 1))))
    v = Permutation(draw(st.permutations(range(1, n + 1))))
    assume(is_transitive([h, v]))
    return Origami(h, v)


@st.composite
def fixed_point_free_pairs(draw, shortest_cycle, max_degree=10):
    """Transitive pairs whose h has no fixed point: h with a 2-cycle when
    ``shortest_cycle`` is 2, and with every cycle of length at least 3
    when it is 3."""
    lengths = [shortest_cycle] + draw(
        st.lists(st.integers(shortest_cycle, 6), max_size=3)
    )
    assume(sum(lengths) <= max_degree)
    n = sum(lengths)
    squares = draw(st.permutations(range(1, n + 1)))
    images = [0] * (n + 1)
    at = 0
    for length in lengths:
        cycle = squares[at : at + length]
        for i, s in enumerate(cycle):
            images[s] = cycle[(i + 1) % length]
        at += length
    h = Permutation(images[1:])
    v = Permutation(draw(st.permutations(range(1, n + 1))))
    assume(is_transitive([h, v]))
    return Origami(h, v)


def relabelled(o, images):
    return o.relabel(Permutation(images))


def check_canonical_form(o):
    canon, relabel = canonical_form(o)
    want_canon, want_relabel = oracle_canonical_form(o)
    assert canon == want_canon
    assert relabel == want_relabel
    assert o.relabel(relabel) == canon
    ties = canonical_labelling([x - 1 for x in o.h.images], [x - 1 for x in o.v.images])[3]
    assert len(ties) == automorphism_count(o) == len(automorphisms(o))
    assert len(ties) == len(oracle.automorphisms(o))


def reference_json(nodes, edges):
    """The orbit JSON of the reference graph, built from its objects."""
    return {
        "basepoint": 0,
        "nodes": [node.to_json() for node in nodes],
        "edges": [
            {"from": i, "gen": l, "to": edges[i][l][0], "relabel_images": list(edges[i][l][1].images)}
            for i in range(len(nodes))
            for l in ("T", "S")
        ],
    }


def check_orbit(o):
    graph = sl2z_orbit(o)
    nodes, edges = reference_orbit(o)
    assert len(graph) == len(graph.nodes) == len(nodes)
    assert list(graph.nodes) == nodes
    assert [{l: graph.step(i, l) for l in "TSts"} for i in range(len(graph))] == edges
    assert json.dumps(graph.to_json(), indent=2, sort_keys=True) == json.dumps(
        reference_json(nodes, edges), indent=2, sort_keys=True
    )
    for i, node in enumerate(graph.nodes):
        assert graph.index_of(node) == i
        for letter in ("T", "S", "t", "s"):
            target, relabel = graph.step(i, letter)
            assert graph.target(i, letter) == target
            assert apply_letter_raw(node, letter).relabel(relabel) == graph.nodes[target]
    # a graph walked before it is closed numbers its nodes otherwise, but
    # closes to the same nodes and edges
    walked = sl2z_orbit(o)
    walked.trace(walked.basepoint, Sl2zWord.parse("sTTtS3"))
    assert len(walked) == len(nodes) and set(walked.nodes) == set(nodes)
    for i, node in enumerate(walked.nodes):
        for letter in ("T", "S", "t", "s"):
            target, relabel = walked.step(i, letter)
            assert apply_letter_raw(node, letter).relabel(relabel) == walked.nodes[target]
    if is_reduced(o):
        # a fresh graph gives the generators of the closed-first order
        assert [str(w) for w in veech_generators(o)] == reference_stabilizer_words(edges)
        # the cylinder term of the sum formula over the reference nodes
        cylinder = sum(
            Fraction(1, len(c)) for node in nodes for c in node.h.cycles(include_fixed=True)
        )
        assert ekz_sum(o).cylinder == cylinder / len(nodes)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(transitive_pairs())
def test_canonical_form_matches_oracle(o):
    check_canonical_form(o)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fixed_point_free_pairs(shortest_cycle=2))
def test_canonical_form_with_h_on_2_cycles_matches_oracle(o):
    check_canonical_form(o)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(fixed_point_free_pairs(shortest_cycle=3))
def test_canonical_form_with_h_on_longer_cycles_matches_oracle(o):
    check_canonical_form(o)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.one_of(fixed_point_free_pairs(2, max_degree=7), fixed_point_free_pairs(3, max_degree=7)))
def test_orbit_of_fixed_point_free_h_matches_reference(o):
    check_orbit(o)


def test_canonical_start_off_the_shortest_h_cycle():
    # h = (1,3,5,4)(2,6,7): the shortest h-cycle is (2,6,7), but the
    # canonical start is square 4, on the 4-cycle
    o = Origami(Permutation((3, 6, 5, 1, 4, 7, 2)), Permutation((2, 5, 7, 4, 6, 3, 1)))
    assert min(map(len, o.h.cycles())) == 3
    assert canonical_form(o).relabel(4) == 1
    check_canonical_form(o)
    check_orbit(o)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_automorphism_count_of_fixtures(name):
    o = fixture_origami(name)
    assert automorphism_count(o) == len(automorphisms(o))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(transitive_pairs(), st.randoms(use_true_random=False))
def test_canonical_form_is_relabelling_invariant(o, rnd):
    images = list(range(1, o.degree + 1))
    rnd.shuffle(images)
    assert canonical_form(relabelled(o, images)).origami == canonical_form(o).origami


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transitive_pairs(max_degree=7))
def test_orbit_matches_reference(o):
    check_orbit(o)


@pytest.mark.parametrize("name", TIED_FIXTURES)
def test_fixtures_with_automorphisms(name):
    o = fixture_origami(name)
    check_canonical_form(o)
    check_orbit(o)
    # every cyclic relabelling reaches the same form
    n = o.degree
    for shift in range(1, n):
        twin = relabelled(o, [(i + shift) % n + 1 for i in range(n)])
        check_canonical_form(twin)
        assert canonical_form(twin).origami == canonical_form(o).origami


@pytest.mark.parametrize(
    "h, v",
    [
        # all four starts have equal h-tables; start 4 has the smallest v-table
        ((3, 4, 2, 1), (1, 3, 2, 4)),
        # starts 1 and 3 have the smallest h-table; start 1 has the smaller v-table
        ((2, 4, 1, 3), (4, 1, 2, 3)),
        # every start gives the same tables: the first start wins
        ((1, 2, 3, 4, 5), (2, 3, 4, 5, 1)),
    ],
)
def test_tied_h_tables(h, v):
    o = Origami(Permutation(h), Permutation(v))
    check_canonical_form(o)
    check_orbit(o)


def check_isomorphisms(o, copy):
    """The deck groups and hyperelliptic involutions of o and a relabelled
    copy, and the isomorphisms between them both ways, against the
    propagation oracle, in order."""
    for a, b in ((o, copy), (copy, o)):
        assert [g.images for g in automorphisms(a)] == [g.images for g in oracle.automorphisms(a)]
        assert hyperelliptic_involution(a) == oracle.hyperelliptic_involution(a)
        maps = _isomorphisms(a, b)
        assert [g.images for g in maps] == [g.images for g in oracle.isomorphisms(a, b)]
        assert maps and all(a.relabel(g) == b for g in maps)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(transitive_pairs(max_degree=8), st.data())
def test_isomorphisms_match_the_propagation_oracle(o, data):
    images = data.draw(st.permutations(range(1, o.degree + 1)))
    check_isomorphisms(o, relabelled(o, images))
    other = data.draw(transitive_pairs(min_degree=o.degree, max_degree=o.degree))
    assert [g.images for g in _isomorphisms(o, other)] == [
        g.images for g in oracle.isomorphisms(o, other)
    ]


@pytest.mark.parametrize(
    "o",
    [oracle.torus(n, m) for n in range(1, 7) for m in range(1, 7)]
    + [fixture_origami(name) for name in ("ew", "ltilde", "mbar_star_3")],
    ids=["torus%dx%d" % (n, m) for n in range(1, 7) for m in range(1, 7)]
    + ["ew", "ltilde", "mbar_star_3"],
)
def test_isomorphisms_of_tori_and_covers_match_the_oracle(o):
    # on a torus every start ties and the first one tried is square 1, so
    # the tied orders come sorted by tau(1); the random pairs and ltilde
    # turned by one square are where an unsorted list shows
    n = o.degree
    check_isomorphisms(o, relabelled(o, list(range(n, 0, -1))))
    check_isomorphisms(o, relabelled(o, [s % n + 1 for s in range(1, n + 1)]))


def test_non_isomorphic_pairs_have_no_isomorphisms():
    pairs = [(oracle.torus(n, m), oracle.torus(m, n)) for n in range(1, 7) for m in range(1, n)]
    pairs.append((fixture_origami("mstar"), fixture_origami("mstarstar")))
    for a, b in pairs:
        assert a.degree == b.degree
        assert canonical_form(a).origami != canonical_form(b).origami
        assert _isomorphisms(a, b) == [] == oracle.isomorphisms(a, b)


@pytest.mark.parametrize("name", ["dema", "l3", "ltilde", "mstar", "mbar_star"])
def test_veech_generators_match_the_closed_first_reference(name):
    o = fixture_origami(name)
    _nodes, edges = reference_orbit(o)
    assert [str(w) for w in veech_generators(o)] == reference_stabilizer_words(edges)


def test_wide_packing_on_the_17x17_torus():
    # h and v translate Z/17 x Z/17 by (1, 0) and (0, 1); square (x, y)
    # is 17 y + x + 1, so labels reach 289 and keys take two bytes each
    h = Permutation([17 * y + (x + 1) % 17 + 1 for y in range(17) for x in range(17)])
    v = Permutation([17 * ((y + 1) % 17) + x + 1 for y in range(17) for x in range(17)])
    torus = Origami(h, v)
    graph = sl2z_orbit(torus)
    assert graph.degree == 289 and len(graph) == 1
    check_orbit(torus)


def test_disconnected_pair_raises():
    # h = (1,2)(3,4), v = id, as 0-based image lists
    with pytest.raises(ValueError, match="not transitive"):
        canonical_labelling([1, 0, 3, 2], [0, 1, 2, 3])
