"""Invariants of the tree-cotree homology engine on random origamis.

The reference for the intersection form is the crossing engine of
``paths``: signed crossing numbers of closed center paths, computed
without any homology basis.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origami_lab import intlinalg as la
from origami_lab.covers import EdgeCocycle, FiniteGroupTable, group_cover, quaternion_group
from origami_lab.homology import Homology, KzContext
from origami_lab.orbit import Sl2zWord
from origami_lab.origami import Origami, automorphisms, genus
from origami_lab.paths import cycle_loops, path_class_chain, pattern_loops, signed_crossings
from origami_lab.perm import Permutation, is_transitive

from conftest import fixture_origami


@st.composite
def transitive_pairs(draw, max_degree=9):
    n = draw(st.integers(1, max_degree))
    h = Permutation(draw(st.permutations(range(1, n + 1))))
    v = Permutation(draw(st.permutations(range(1, n + 1))))
    assume(is_transitive([h, v]))
    return Origami(h, v)


def check_engine(o):
    hom = Homology(o)
    assert hom.rank == 2 * genus(o)
    j = hom.intersection
    assert la.mat_eq(la.transpose(j), la.mat_scale(-1, j))
    assert la.det(j) == 1
    for col in range(hom.rank):
        unit = [int(i == col) for i in range(hom.rank)]
        assert hom.project([hom.loops[col].get(k, 0) for k in range(2 * o.degree)]) == unit
    assert hom.pairing_in_basis(hom.taut_sigma, hom.taut_zeta) == o.degree
    # a single edge between two different vertices is not a cycle
    cx = hom.complex
    for k in range(2 * o.degree):
        if cx.tail[k] != cx.head[k]:
            with pytest.raises(ValueError):
                hom.project([int(e == k) for e in range(2 * o.degree)])
            break
    loops = cycle_loops(o) + pattern_loops(o, "RU")
    coords = hom.project_many([path_class_chain(o, p) for p in loops])
    for a, ca in zip(loops, coords):
        for b, cb in zip(loops, coords):
            assert hom.pairing_in_basis(ca, cb) == signed_crossings(o, a, b)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(transitive_pairs())
def test_engine_on_random_origamis(o):
    check_engine(o)


@pytest.mark.parametrize("name", ("ltilde", "mbar_star_3"))
def test_engine_on_covers(name):
    check_engine(fixture_origami(name))


words = st.lists(st.sampled_from(("T", "S", "t", "s")), max_size=6)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transitive_pairs(max_degree=7), words, words, st.integers(0, 10**6))
def test_composition_law_on_random_orbits(o, u, v, start):
    # word_matrix(uv) = word_matrix(u) word_matrix(v), with u applied at
    # the node where v ends; the product is symplectic between the ends
    ctx = KzContext(o)
    node = start % len(ctx.graph.nodes)
    middle, m_v = ctx.word_matrix(Sl2zWord(v), node)
    end, m_u = ctx.word_matrix(Sl2zWord(u), middle)
    end_uv, m_uv = ctx.word_matrix(Sl2zWord(u + v), node)
    assert end_uv == end
    assert la.mat_eq(m_uv, la.mat_mul(m_u, m_v))
    j_end = ctx.homology(end).intersection
    assert la.mat_eq(la.mat_mul(la.transpose(m_uv), la.mat_mul(j_end, m_uv)), ctx.homology(node).intersection)


def cyclic_group(m):
    return FiniteGroupTable(order=m, table=[[(a + b) % m for b in range(m)] for a in range(m)], identity=0)


@st.composite
def group_covers(draw):
    # a cover of a small origami with cocycle values in Z/2, Z/3 or the
    # quaternion group, which acts on it by deck transformations
    base = draw(transitive_pairs(max_degree=3))
    grp = draw(st.sampled_from((cyclic_group(2), cyclic_group(3), quaternion_group())))
    labels = st.lists(st.integers(0, grp.order - 1), min_size=base.degree, max_size=base.degree)
    cocycle = EdgeCocycle(group=grp, wh=draw(labels), wv=draw(labels))
    try:
        return group_cover(base, cocycle)
    except ValueError:
        assume(False)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(group_covers())
def test_deck_matrices_are_symplectic_and_compose(o):
    hom = Homology(o)
    j = hom.intersection
    auts = automorphisms(o)
    assert len(auts) > 1
    mats = {tau: hom.action_matrix(tau) for tau in auts}
    for tau, m in mats.items():
        assert la.mat_eq(la.mat_mul(la.transpose(m), la.mat_mul(j, m)), j)
        if tau.is_identity():
            assert la.mat_eq(m, la.identity_matrix(hom.rank))
    for sigma in auts:
        for tau in auts:
            assert la.mat_eq(mats[sigma * tau], la.mat_mul(mats[sigma], mats[tau]))
