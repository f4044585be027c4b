"""Validation happens once, at the boundary.

Public constructors and parsers check their input; what the library
derives from valid objects is built by ``Permutation._trusted`` and
``Origami._trusted`` without a check.  Every object a trusted site
returns is passed back through the public constructors here, which must
accept it and give an equal object; a non-bijective table built through
``_trusted`` shows that this re-validation can fail.  Also here:
``is_transitive`` against a union-find, and the order and bound of the
orbit-context cache of ``homology``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origami_lab import homology
from origami_lab.orbit import apply_letter, sl2z_orbit
from origami_lab.origami import Origami, canonical_form
from origami_lab.perm import Permutation, compose, conjugate, identity, is_transitive

from conftest import fixture_origami
from test_orbit_properties import transitive_pairs


def revalidated(x):
    """``x`` rebuilt through the public constructors, which must accept
    it; the rebuilt object must equal ``x``."""
    if isinstance(x, Permutation):
        y = Permutation(x.images)
    else:
        y = Origami(revalidated(x.h), revalidated(x.v), x.label)
    assert y == x
    return y


def permutations(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(permutations(n), permutations(n))))
def test_permutation_arithmetic_gives_valid_permutations(pair):
    p, q = pair
    for r in (p.inverse(), compose(p, q), conjugate(p, q), identity(p.degree)):
        revalidated(r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(transitive_pairs(max_degree=8), st.randoms(use_true_random=False))
def test_derived_origamis_are_valid(o, rnd):
    images = list(range(1, o.degree + 1))
    rnd.shuffle(images)
    revalidated(o.relabel(Permutation(images)))
    canon, relabel = canonical_form(o)
    revalidated(canon)
    revalidated(relabel)
    for letter in "TSts":
        for x in apply_letter(o, letter):
            revalidated(x)
    graph = sl2z_orbit(o)
    for node in range(len(graph)):
        revalidated(graph.nodes[node])
        for letter in "TSts":
            revalidated(graph.step(node, letter)[1])


def test_revalidation_rejects_a_trusted_non_bijection():
    bad = Permutation._trusted((1, 1, 3))
    with pytest.raises(ValueError, match="not a bijection"):
        revalidated(bad)
    h = Permutation._trusted((2, 1, 3))
    with pytest.raises(ValueError, match="not transitive"):
        revalidated(Origami._trusted(h, h))


def _connected(gens):
    """Transitivity by union-find over the edges i -- g(i)."""
    n = gens[0].degree
    root = list(range(n + 1))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for g in gens:
        for i in range(1, n + 1):
            root[find(i)] = find(g(i))
    return len({find(i) for i in range(1, n + 1)}) == 1


def test_is_transitive_matches_union_find():
    rng = random.Random(5)
    seen = set()
    for _ in range(2000):
        n = rng.randint(1, 8)
        gens = [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(rng.randint(1, 3))]
        want = _connected(gens)
        assert is_transitive(gens) == want
        seen.add(want)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# The bounded orbit-context cache


def test_context_cache_keeps_the_contexts_used_last(monkeypatch):
    monkeypatch.setattr(homology, "_context_cache", {})
    monkeypatch.setattr(homology, "MAX_CONTEXTS", 2)
    l3, dema, ew = map(fixture_origami, ("l3", "dema", "ew"))
    first = homology.kz_context(l3)
    keys = [(node, letter) for node in range(len(first.graph)) for letter in "TSts"]
    steps = {key: first.step(*key) for key in keys}
    second = homology.kz_context(dema)
    assert homology.kz_context(l3) is first  # a hit: l3 is now the last used
    homology.kz_context(ew)  # evicts dema, the least recently used
    assert len(homology._context_cache) == 2
    assert homology.kz_context(l3) is first
    assert homology.kz_context(dema) is not second  # rebuilt; this evicts ew
    assert len(homology._context_cache) == 2
    homology.kz_context(ew)  # evicts l3
    again = homology.kz_context(l3)
    assert again is not first and len(again.graph) == len(first.graph)
    assert {key: again.step(*key) for key in keys} == steps
    assert len(homology._context_cache) == 2
