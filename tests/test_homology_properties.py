"""Invariants of the tree-cotree homology engine on random origamis.

The reference for the intersection form is the crossing engine of
``crossing_oracle``: signed crossing numbers of closed center paths,
computed without any homology basis.  The reference for coordinates is
the cotree peel of ``peel_oracle``, which reads no crossing record.  The
reference for the incidences, the edge maps and the two checks on them
is ``homology_oracle``, built over ``Permutation`` calls and ``Counter``s.
"""

import copy
import dataclasses
import hashlib
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origami_lab import cli, homology
from origami_lab import intlinalg as la
from origami_lab.covers import EdgeCocycle, FiniteGroupTable, group_cover, quaternion_group
from origami_lab.homology import Homology, KzContext, tautological_split
from origami_lab.orbit import Sl2zWord, apply_letter
from origami_lab.origami import Origami, automorphisms, genus
from origami_lab.paths import cycle_loops, path_class_chain
from origami_lab.perm import Permutation, is_transitive

from conftest import FIXTURE_NAMES, fixture_origami, fixture_path, random_origamis
import homology_oracle
from crossing_oracle import pairing_in_basis, pattern_loops, signed_crossings
from inverse_oracle import det
from peel_oracle import peel_coordinates


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
    assert det(j) == 1
    assert peel_coordinates(hom, hom.loops) == la.identity_matrix(hom.rank)
    assert pairing_in_basis(hom, hom.taut_sigma, hom.taut_zeta) == o.degree
    # a single edge between two different vertices is not a cycle
    cx = hom.complex
    for k in range(2 * o.degree):
        if cx.tail[k] != cx.head[k]:
            with pytest.raises(ValueError):
                hom.project_many([{k: 1}])
            break
    loops = cycle_loops(o) + pattern_loops(o, "RU")
    coords = hom.project_many([path_class_chain(o, p) for p in loops])
    for a, ca in zip(loops, coords):
        for b, cb in zip(loops, coords):
            assert pairing_in_basis(hom, ca, cb) == signed_crossings(o, a, b)


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


def homology_digest(homs):
    """sha256 of the basis loops, D, J and the tautological vectors."""
    record = [
        (
            [sorted(loop.items()) for loop in hom.loops],
            hom.dual_coords,
            hom.intersection,
            hom.taut_sigma,
            hom.taut_zeta,
        )
        for hom in homs
    ]
    return hashlib.sha256(repr(record).encode()).hexdigest()


def check_inverse_pair(hom):
    # J D = I and D J = I in integers: int64 is exact while n max|J| max|D|
    # stays below 2^63
    d = np.array(hom.dual_coords, dtype=np.int64)
    j = np.array(hom.intersection, dtype=np.int64)
    assert hom.rank * int(np.abs(d).max()) * int(np.abs(j).max()) < 2**63
    unit = np.eye(hom.rank, dtype=np.int64)
    assert (j @ d == unit).all()
    assert (d @ j == unit).all()


# captured with the dense Bareiss int_inverse that the sparse one replaced
DIGESTS = {
    "dema": "f4beb8deec35f27be65fa5ff72448e1d03784a48c72b4b868003afdda76d628f",
    "ew": "123551946ab75f948348c1ad8d2227f4f809e94b0fdcfb4c796cf2769aebe084",
    "l3": "f5ba72e6d944438e11c46e0caeb018428890a107a8ef5072da0b4ee9d2cb5e5e",
    "ltilde": "f804d9b08800ba2be943cf00108fb5472a44cacd090511d4edd20ecc1a52b7c3",
    "mbar_star": "0cdb06b53ead374311ea1985bb8ea0fe56bdebc919442a7e5ca31c8991b4399b",
    "mbar_star_3": "56e0f31be4bd952698bc044bf96e14d73fb8d1b9a5c43327ae2d01e271868c4c",
    "mbar_star_5": "cfd7e3d453313fdf30c4699130521ec8bdefe9f6f795c305d7e3e63b7f62f7fa",
    "mbar_star_7": "36af5597a162bcfa1a7323320d791416be8c7fe3929f04147a5a430ca9454743",
    "mstar": "d1220b8c40a32efc55c46101e18ee8b9576894f47a8f78106c5e22238ff5642a",
    "mstarstar": "497b86c926eaea48653457f3ecf9a2481ae0979c838a002df7752b8de0ef3757",
    "z6_origami": "aaf508fc01771eb9903aed450605685fab526bcb9b2d6d829ef8d5698f5714c6",
    "random": "a6fdbc565f1dbaf6ee8fec993020557529e34a77658e46e0a84bb1b968792820",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dual_coordinates_invert_the_form_on_fixtures(name):
    hom = Homology(fixture_origami(name))
    check_inverse_pair(hom)
    assert homology_digest([hom]) == DIGESTS[name]


def test_dual_coordinates_invert_the_form_on_random_surfaces():
    homs = [Homology(o) for o in random_origamis(200, seed=17)]
    for hom in homs:
        check_inverse_pair(hom)
    assert homology_digest(homs) == DIGESTS["random"]


# ---------------------------------------------------------------------------
# Coordinates from the crossing records against the cotree peel


def step_images(ctx, node, letter):
    """(target Homology, the sparse images of the basis loops at ``node``)
    for the step by ``letter``, caught as ``_homology_map`` projects them.
    The step reads J at both ends, so J is read here first, and the
    projection of the target's dual chains is not caught with the
    images."""
    target, _relabel = ctx.graph.step(node, letter)
    ctx.homology(node).intersection
    ht = ctx.homology(target)
    ht.intersection
    caught = []
    ht.project_many = lambda chains: caught.append(chains) or Homology.project_many(ht, chains)
    try:
        ctx.step(node, letter)
    finally:
        del ht.project_many
    (images,) = caught
    return ht, images


def random_sums(rng, chains, count=3):
    """``count`` integer combinations of the chains, coefficients in [-3, 3]."""
    sums = []
    for _ in range(count):
        total = Counter()
        for chain in chains:
            c = rng.randint(-3, 3)
            for k, x in chain.items():
                total[k] += c * x
        sums.append(total)
    return sums


def surface_chains(o, rng):
    """(Homology, cycles) pairs at the basepoint of the orbit of o: its
    basis loops and its core loops, the step images of each letter at
    their targets, and random sums of each family."""
    ctx = KzContext(o)
    base = ctx.graph.basepoint
    hom = ctx.homology(base)
    cores = [path_class_chain(hom.origami, p) for p in cycle_loops(hom.origami)]
    groups = [(hom, hom.loops), (hom, cores)]
    groups += [step_images(ctx, base, letter) for letter in "TSts"]
    return [(h, chains + random_sums(rng, chains)) for h, chains in groups]


def assert_records_match_peel(groups):
    for hom, chains in groups:
        assert hom.project_many(chains) == peel_coordinates(hom, chains)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(transitive_pairs(), st.integers(0, 2**32))
def test_records_match_the_peel_on_random_origamis(o, seed):
    assert_records_match_peel(surface_chains(o, random.Random(seed)))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_records_match_the_peel_on_fixtures(name):
    assert_records_match_peel(surface_chains(fixture_origami(name), random.Random(name)))


def test_a_flipped_crossing_record_fails_the_peel_comparison():
    # the core loops run over every edge, so flipping the sign of any one
    # crossing record changes the projection of some core loop
    groups = surface_chains(fixture_origami("dema"), random.Random(0))
    hom = groups[0][0]
    own = [(h, chains) for h, chains in groups if h is hom]
    assert_records_match_peel(own)
    flipped = 0
    for k, records in hom._crossings.items():
        for i, (b, sign) in enumerate(records):
            mutant = copy.copy(hom)
            mutant._crossings = {**hom._crossings, k: records[:i] + [(b, -sign)] + records[i + 1 :]}
            with pytest.raises(AssertionError):
                assert_records_match_peel([(mutant, chains) for _h, chains in own])
            flipped += 1
    assert flipped == sum(len(dual) for dual in hom._duals)


# ---------------------------------------------------------------------------
# D and J are built on their first read only


def count_inverses(monkeypatch):
    """Patch ``la.int_inverse`` to record the size of every matrix it
    inverts; returns the list of sizes."""
    int_inverse = la.int_inverse
    sizes = []

    def counted(a):
        sizes.append(len(a))
        return int_inverse(a)

    monkeypatch.setattr(la, "int_inverse", counted)
    return sizes


def test_a_build_and_its_split_invert_nothing(monkeypatch):
    sizes = count_inverses(monkeypatch)
    hom = Homology(fixture_origami("dema"))
    tautological_split(hom)
    tautological_split(fixture_origami("dema"))
    assert sizes == []
    j = hom.intersection
    assert hom.intersection is j and hom.dual_coords is hom.dual_coords
    assert sizes == [hom.rank]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(transitive_pairs())
def test_a_build_and_its_split_invert_nothing_on_random_origamis(o):
    with pytest.MonkeyPatch.context() as monkeypatch:
        sizes = count_inverses(monkeypatch)
        tautological_split(Homology(o))
    assert sizes == []


def test_kz_zero_inverts_d_once_per_node_it_visits(monkeypatch, capsys):
    # a fresh context cache, so that every node of the walk is built here;
    # the one (2g - 2)-square inverse is the left inverse of the zero-
    # holonomy basis at the basepoint
    monkeypatch.setattr(homology, "_context_cache", {})
    sizes = count_inverses(monkeypatch)
    assert cli.main(["kz", fixture_path("dema"), "T8SSTTSS", "--zero"]) == 0
    capsys.readouterr()
    (ctx,) = homology._context_cache.values()
    node = ctx.graph.basepoint
    visited = {node}
    for letter in reversed(Sl2zWord.parse("T8SSTTSS").letters):
        node = ctx.graph.target(node, letter)
        visited.add(node)
    assert set(ctx._homology) == visited
    rank = ctx.homology(node).rank
    assert sorted(sizes) == [rank - 2] + [rank] * len(visited)


# ---------------------------------------------------------------------------
# The incidence layer against the Counter-keyed oracle


def corrupt_complex(cx, rng):
    """``cx`` with one random entry of tail, head, plus or minus replaced
    by a random value in its range (possibly the same value)."""
    name = rng.choice(("tail", "head", "plus", "minus"))
    values = list(getattr(cx, name))
    bound = cx.vertices if name in ("tail", "head") else len(values) // 2
    values[rng.randrange(len(values))] = rng.randrange(bound)
    return dataclasses.replace(cx, **{name: values})


def corrupt_map(edges, cell, rng, target_edges):
    """(edges, cell) with one random entry replaced: the target square of
    one source square, or the target edge or the coefficient of one term
    of one edge image."""
    edges = [list(image) for image in edges]
    cell = list(cell)
    kind = rng.randrange(3)
    if kind == 0:
        cell[rng.randrange(len(cell))] = rng.randrange(len(cell))
    else:
        image = edges[rng.randrange(len(edges))]
        t = rng.randrange(len(image))
        e, c = image[t]
        image[t] = (rng.randrange(target_edges), c) if kind == 1 else (e, rng.randint(-2, 2))
    return edges, cell


def fires(check, *args):
    try:
        check(*args)
    except AssertionError:
        return True
    return False


def check_against_oracle(o, rng, corruptions=20):
    """The incidences and the edge map of each letter equal the oracle's,
    both checks pass on them, and each check fails exactly where the
    oracle's does on random single-entry corruptions."""
    cx = homology.chain_complex(o)
    assert cx == homology_oracle.chain_complex(o)
    for _ in range(corruptions):
        bad = corrupt_complex(cx, rng)
        assert fires(homology._check_complex, bad) != homology_oracle.composes_to_zero(bad)
    for letter in "TSts":
        _raw, canon, relabel = apply_letter(o, letter)
        edges, cell = homology._edge_map(o, letter, relabel)
        assert (edges, cell) == homology_oracle.edge_map(o, letter, relabel)
        ct = homology.chain_complex(canon)
        assert homology_oracle.is_chain_map(cx, ct, edges, cell)
        homology._check_chain_map(cx, ct, edges, cell)
        for _ in range(corruptions):
            bad = corrupt_map(edges, cell, rng, len(ct.plus))
            assert fires(homology._check_chain_map, cx, ct, *bad) != homology_oracle.is_chain_map(cx, ct, *bad)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_incidences_and_checks_match_the_oracle_on_fixtures(name):
    check_against_oracle(fixture_origami(name), random.Random(name))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(transitive_pairs(), st.integers(0, 2**32))
def test_incidences_and_checks_match_the_oracle_on_random_origamis(o, seed):
    check_against_oracle(o, random.Random(seed))
