import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origami_lab import galois, homology, orbit, origami, simplicity
from origami_lab import intlinalg as la
from origami_lab.galois import is_galois_pinching_sp4
from origami_lab.homology import kz_context, kz_matrix
from origami_lab.lyapunov import mc_exponents
from origami_lab.origami import Origami, automorphisms, genus, is_reduced, parse_origami_text
from origami_lab.perm import Permutation, is_transitive
from origami_lab.simplicity import (
    CylinderWitness,
    NotFound,
    _search_pinching_word,
    certificate_from_json,
    certify_simplicity,
    cylinder_span_dim,
    find_pinching_word,
    parabolic_word,
    verify_certificate,
)
from origami_lab.orbit import Sl2zWord, sl2z_orbit

from conftest import fixture_origami

_INVERSE = {"T": "t", "t": "T", "S": "s", "s": "S"}


def _dfs_pinching_word(o, search_depth):
    """Reference search: an iterative-deepening DFS that forms every
    path of each length and tests every closed one, by length and then
    in the letter order T, S, t, s, skipping immediate backtracks."""
    ctx = kz_context(o)
    base = ctx.graph.basepoint
    ident = la.identity_matrix(len(ctx.basis(base, "H1_zero")))
    for depth in range(1, search_depth + 1):
        stack = [(base, ident, ())]
        while stack:
            node, mat, letters = stack.pop()
            if len(letters) == depth:
                if node == base:
                    report = is_galois_pinching_sp4(mat)
                    if report.pinching:
                        return Sl2zWord(tuple(reversed(letters))), report
                continue
            # push children in reverse so they pop in T, S, t, s order
            for letter in "sStT":
                if letters and _INVERSE[letters[-1]] == letter:
                    continue
                target, step = ctx.step(node, letter, "H1_zero")
                stack.append((target, la.mat_mul(step, mat), letters + (letter,)))
    return None


@st.composite
def trivial_genus_3_surfaces(draw):
    """Random reduced genus-3 origamis of degree 5-7 with trivial
    automorphisms."""
    n = draw(st.integers(5, 7))
    h = Permutation(draw(st.permutations(range(1, n + 1))))
    v = Permutation(draw(st.permutations(range(1, n + 1))))
    assume(is_transitive([h, v]))
    o = Origami(h, v)
    assume(genus(o) == 3 and is_reduced(o) and len(automorphisms(o)) == 1)
    return o


@pytest.fixture(scope="module")
def dema_cert():
    return certify_simplicity(fixture_origami("dema"), search_depth=12)


def test_cylinder_span_dim_on_all_orbit_nodes(dema):
    graph = sl2z_orbit(dema)
    assert len(graph.nodes) == 3
    for node in graph.nodes:
        assert cylinder_span_dim(node) == 2


def test_cylinder_span_is_isotropic(dema):
    # dim 2 < genus 3 and the waist classes pairwise do not intersect;
    # isotropy is asserted inside cylinder_span_dim via the zero form
    assert cylinder_span_dim(dema) == 2


def test_parabolic_word_stabilizes(dema):
    graph = sl2z_orbit(dema)
    for direction in ("horizontal", "vertical"):
        w = parabolic_word(dema, direction)
        assert graph.trace(graph.basepoint, w) == graph.basepoint


def test_parabolic_word_canonicalizes_only_the_edges_it_walks(monkeypatch):
    # the orbit of mbar_star_3 has 155,520 nodes; its horizontal parabolic
    # T^12 needs the basepoint and 12 edges
    labellings = []
    canonical_labelling = orbit.canonical_labelling

    def counted(h, v):
        labellings.append(len(h))
        assert len(labellings) <= 13, "more labellings than the walk needs"
        return canonical_labelling(h, v)

    monkeypatch.setattr(orbit, "canonical_labelling", counted)
    monkeypatch.setattr(homology, "_context_cache", {})
    assert str(parabolic_word(fixture_origami("mbar_star_3"))) == "T" * 12
    assert len(labellings) == 13


def test_z6_parabolic_words_come_back_fast(monkeypatch):
    monkeypatch.setattr(homology, "_context_cache", {})
    z6 = fixture_origami("z6_origami")
    for direction, letter in (("horizontal", "T"), ("vertical", "S")):
        start = time.perf_counter()
        word = parabolic_word(z6, direction)
        assert time.perf_counter() - start < 1.0
        assert str(word) == letter * 12


@pytest.mark.parametrize("entry", ["certify", "verify", "mc"])
def test_warm_entry_points_canonicalize_once(monkeypatch, dema, entry):
    # the one labelling is kz_context's: the preconditions, the word
    # search, the witnesses and the checks all reuse its context
    cert = certify_simplicity(dema, search_depth=9)
    run = {
        "certify": lambda: certify_simplicity(dema, search_depth=9) == cert,
        "verify": lambda: verify_certificate(cert),
        "mc": lambda: mc_exponents(dema, steps=200, trials=2, seed=3).estimates != [],
    }[entry]
    assert run()  # warms the context
    labellings = []
    canonical_labelling = origami.canonical_labelling

    def counted(h, v):
        labellings.append(len(h))
        return canonical_labelling(h, v)

    monkeypatch.setattr(origami, "canonical_labelling", counted)
    monkeypatch.setattr(orbit, "canonical_labelling", counted)
    assert run()
    assert labellings == [dema.degree]


@pytest.mark.parametrize("name", ["dema", "mstar", "mstarstar", "mbar_star"])
def test_certificate_does_not_depend_on_earlier_walks(monkeypatch, name):
    # a walk numbers the orbit nodes in the order it reaches them, which
    # differs from the breadth-first order of a cold context
    o = fixture_origami(name)
    walks = [
        lambda: kz_context(o).word_matrix(Sl2zWord.parse("T8SSTTSS")),
        lambda: parabolic_word(o, "vertical"),
    ]
    if name == "dema":
        walks.append(lambda: kz_matrix(o, "T8SSTTSS"))
    monkeypatch.setattr(homology, "_context_cache", {})
    cold = certify_simplicity(o).to_json()
    for walk in walks:
        monkeypatch.setattr(homology, "_context_cache", {})
        walk()
        assert certify_simplicity(o).to_json() == cold


@pytest.mark.parametrize("search", [certify_simplicity, find_pinching_word])
def test_negative_search_depth_is_rejected(dema, search):
    with pytest.raises(ValueError, match="non-negative"):
        search(dema, search_depth=-1)


def test_certificate_found_and_verifies(dema_cert):
    assert not isinstance(dema_cert, NotFound)
    assert verify_certificate(dema_cert)
    q = dema_cert.quartic
    for value in (q.delta1, q.delta2, q.delta3):
        assert value > 0


def test_certificate_witness_is_cylinder(dema_cert):
    assert isinstance(dema_cert.witness, CylinderWitness)
    assert 1 < dema_cert.witness.dim_e < dema_cert.witness.genus


def test_certificate_json_round_trip(dema_cert):
    blob = dema_cert.dumps()
    again = certificate_from_json(json.loads(blob))
    assert verify_certificate(again)
    assert json.loads(again.dumps()) == json.loads(blob)


def test_tampered_delta_rejected(dema_cert):
    bad = json.loads(dema_cert.dumps())
    bad["quartic"]["delta1"] += 2
    with pytest.raises(ValueError):
        certificate_from_json(bad)


def test_tampered_word_fails_verification(dema_cert):
    bad = json.loads(dema_cert.dumps())
    bad["pinching_word"] = "TT"
    cert = certificate_from_json(bad)
    assert not verify_certificate(cert)


def test_preconditions():
    torus = Origami(Permutation([1]), Permutation([1]))
    with pytest.raises(ValueError):
        certify_simplicity(torus)  # genus 1
    with pytest.raises(ValueError):
        certify_simplicity(fixture_origami("ew"))  # |Aut| = 8


@pytest.mark.parametrize(
    "h, v, message",
    [
        # a 2-square horizontal strip: not reduced, |Aut| = 2, genus 1
        ([2, 1], [1, 2], "reduced origami"),
        # reduced, |Aut| = 2, genus 2
        ([4, 1, 2, 3], [1, 4, 3, 2], "trivial automorphisms"),
        ([1], [1], "genus 3"),
    ],
)
def test_preconditions_are_checked_in_order(h, v, message):
    o = Origami(Permutation(h), Permutation(v))
    with pytest.raises(ValueError, match=message):
        certify_simplicity(o)


def test_deterministic(dema):
    a = certify_simplicity(dema, search_depth=8)
    b = certify_simplicity(dema, search_depth=8)
    assert a.pinching_word == b.pinching_word
    assert a.dumps() == b.dumps()


# The breadth-first word search against the DFS it replaced


@settings(max_examples=40, deadline=None, derandomize=True)
@given(trivial_genus_3_surfaces())
def test_word_search_matches_dfs_on_random_surfaces(o):
    assert find_pinching_word(o, 6) == _dfs_pinching_word(o, 6)


@pytest.mark.parametrize("name,depth", [("dema", 7), ("dema", 8), ("ew", 7)])
def test_word_search_matches_dfs_on_fixtures(name, depth):
    o = fixture_origami(name)
    assert find_pinching_word(o, depth) == _dfs_pinching_word(o, depth)


@pytest.mark.parametrize(
    "text",
    ["h = (1,4,5,2)(3)\nv = (1,4,3,5)(2)\n", "h = (1)(2,5)(3,4)\nv = (1,2,5,3)(4)\n"],
)
def test_word_search_matches_dfs_through_tied_states(text):
    # the first pinching word (length 7) runs through a state that two
    # paths of the same length reach: the search must keep the earlier
    o = parse_origami_text(text)
    want = _dfs_pinching_word(o, 7)
    assert want is not None and find_pinching_word(o, 7) == want


def test_word_search_exhausts_ew(ew):
    # ew's cocycle acts through a finite group: its 384 states are all
    # reached by length 8, and length 9 adds none
    found, stats = _search_pinching_word(kz_context(ew), 8)
    assert found is None and stats["exhausted"] is False
    found, at_9 = _search_pinching_word(kz_context(ew), 9)
    assert found is None and at_9["exhausted"] is True
    found, at_20 = _search_pinching_word(kz_context(ew), 20)
    assert found is None and at_20 == at_9
    assert at_9["states"] == 384
    assert find_pinching_word(ew, 20) is None


def test_not_found_carries_the_search_counters(dema):
    result = certify_simplicity(dema, search_depth=3)
    found, stats = _search_pinching_word(kz_context(dema), 3)
    assert found is None
    assert result == NotFound(explored_depth=3, **stats)
    assert stats["exhausted"] is False
    assert stats["words"] == 4 + 12 + 36 and stats["states"] == 4 + 12 + 36


# The batched search: one product per level, exact past int64

_TIED_STATE_SURFACES = [
    "h = (1,4,5,2)(3)\nv = (1,4,3,5)(2)\n",
    "h = (1)(2,5)(3,4)\nv = (1,2,5,3)(4)\n",
]


def _spy_products(monkeypatch):
    """Record (products, bound) for each level the search forms."""
    levels = []
    real = simplicity._products

    def spy(steps, mats, bound):
        products, bound = real(steps, mats, bound)
        levels.append((products, bound))
        return products, bound

    monkeypatch.setattr(simplicity, "_products", spy)
    return levels


def test_products_switch_to_python_ints_where_int64_would_wrap():
    a = np.array([[(-1) ** (i + j) * (2**40 + 4 * i + j) for j in range(4)] for i in range(4)])
    products, bound = simplicity._products(a[None], a[None], 2**40 + 15)
    want = la.mat_mul(a.tolist(), a.tolist())
    assert products.dtype == object and products[0].tolist() == want
    assert all(type(v) is int for row in products[0].tolist() for v in row)
    assert bound == max(sum(map(abs, row)) for row in a.tolist()) * (2**40 + 15)
    assert max(abs(v) for row in want for v in row) <= bound
    # at the limit: every entry of ones @ (2**61) is 2**63, one past int64
    ones = np.ones((1, 4, 4), dtype=np.int64)
    big = np.full((1, 4, 4), 2**61, dtype=np.int64)
    products, bound = simplicity._products(ones, big, 2**61)
    assert bound == 2**63 and products.dtype == object
    assert products[0].tolist() == [[2**63] * 4] * 4
    # just below it int64 is proven exact and is used
    products, bound = simplicity._products(ones, big - 1, 2**61 - 1)
    assert bound == 2**63 - 4 and products.dtype == np.int64
    assert products[0].tolist() == [[2**63 - 4] * 4] * 4


@pytest.mark.parametrize("d", range(1, 7))
def test_charpolys_match_berkowitz(d):
    def check(mats, bound):
        polys = simplicity._charpolys(mats, bound)
        assert polys == [la.charpoly(m) for m in mats.tolist()]
        assert all(type(c) is int for cp in polys for c in cp)

    rng = np.random.default_rng(d)
    check(rng.integers(-9, 10, size=(50, d, d)), 9)
    # the least bound at which d^d bound^d reaches 2**63, from the least
    # root r with r^d >= 2**63: the all-``bound`` matrix has trace (d bound)^d
    # at its d-th power, which wraps in int64 from there on
    root = round(2 ** (63 / d))
    root += (root**d < 2**63) - ((root - 1) ** d >= 2**63)
    assert (root - 1) ** d < 2**63 <= root**d
    switch = -(-root // d)
    assert (d * (switch - 1)) ** d < 2**63 <= (d * switch) ** d
    for bound, dtype in ((switch - 1, np.int64), (switch, object)):
        assert simplicity._power_traces(np.ones((1, d, d), dtype=np.int64), bound).dtype == dtype
        stored = np.int64 if bound < 2**63 else object
        full = np.full((1, d, d), bound, dtype=stored)
        rand = rng.integers(-bound, min(bound, 2**63 - 1), size=(20, d, d))
        check(np.concatenate([full, -full, rand.astype(stored)]), bound)


def test_matrix_keys_agree_across_dtypes():
    small = np.arange(16, dtype=np.int64).reshape(1, 4, 4)
    huge = small.astype(object) * 2**70
    keys = simplicity._matrix_keys(np.concatenate([small.astype(object), huge, huge.copy()]))
    assert keys[0] == simplicity._matrix_keys(small)[0]
    assert keys[1] == keys[2] != keys[0]
    assert keys[1] != simplicity._matrix_keys(huge + 1)[0]


@pytest.mark.parametrize(
    "text,depth",
    [("dema", 7), ("ew", 7)] + [(t, 7) for t in _TIED_STATE_SURFACES],
    ids=["dema", "ew", "tied-1", "tied-2"],
)
def test_word_search_past_the_int64_bound_matches_dfs(monkeypatch, text, depth):
    # with the limit lowered the bound passes it after a level or two, and
    # every later level is formed in Python ints
    o = fixture_origami(text) if text in ("dema", "ew") else parse_origami_text(text)
    want = _search_pinching_word(kz_context(o), depth)
    monkeypatch.setattr(simplicity, "_INT64_LIMIT", 8)
    levels = _spy_products(monkeypatch)
    batches = []  # (levels formed so far, bound, dtype) per charpoly batch
    real_traces = simplicity._power_traces

    def spy_traces(mats, bound):
        traces = real_traces(mats, bound)
        batches.append((len(levels), bound, traces.dtype))
        return traces

    monkeypatch.setattr(simplicity, "_power_traces", spy_traces)
    assert _search_pinching_word(kz_context(o), depth) == want
    dtypes = [products.dtype for products, _bound in levels]
    first = dtypes.index(object)
    assert 0 < first <= 2 and dtypes[first:] == [object] * (len(dtypes) - first)
    # each batch is bounded by its length's products, and 4^4 bound^4 is
    # past the lowered limit from the first length on: every batch runs in
    # Python ints, those after the products switch included
    assert any(level > first for level, _bound, _dtype in batches)
    for level, bound, dtype in batches:
        assert bound == levels[level - 1][1] and dtype == object
    assert find_pinching_word(o, depth) == _dfs_pinching_word(o, depth)


@pytest.mark.parametrize("name", ["dema", "mstarstar"])
def test_word_search_bound_holds_every_entry(monkeypatch, name):
    levels = _spy_products(monkeypatch)
    _search_pinching_word(kz_context(fixture_origami(name)), 8)
    assert len(levels) >= 7
    for products, bound in levels:
        assert products.dtype == np.int64
        assert int(np.abs(products).max()) <= bound


def test_word_search_is_batched(monkeypatch, dema):
    found, stats = _search_pinching_word(kz_context(dema), 8)  # warms the H1_zero steps

    def no_mat_mul(*args):
        raise AssertionError("the word search formed a product in Python")

    def no_charpoly(*args):
        raise AssertionError("the word search formed a characteristic polynomial per matrix")

    ctx = kz_context(dema)
    real_step = ctx.step
    step_calls = []

    def counting_step(*args):
        step_calls.append(args)
        return real_step(*args)

    monkeypatch.setattr(la, "mat_mul", no_mat_mul)
    monkeypatch.setattr(la, "charpoly", no_charpoly)
    monkeypatch.setattr(galois, "is_galois_pinching_sp4", no_charpoly)
    monkeypatch.setattr(simplicity, "is_galois_pinching_sp4", no_charpoly)
    monkeypatch.setattr(ctx, "step", counting_step)
    assert _search_pinching_word(ctx, 8) == (found, stats)
    assert step_calls and len(step_calls) == len(set(step_calls))
    monkeypatch.undo()
    quartic = certify_simplicity(dema, search_depth=8).quartic
    for q in (found[1].quartic, quartic):
        assert type(q.a) is int and type(q.b) is int


def test_dema_certificate_json_is_unchanged(dema):
    want = {
        "origami": {
            "degree": 8,
            "h_images": [2, 4, 1, 3, 6, 8, 5, 7],
            "v_images": [3, 1, 5, 6, 2, 8, 4, 7],
            "label": "DEMA",
        },
        "pinching_word": "STTSTST",
        "quartic": {"a": -1, "b": -8, "delta1": 41, "delta2": 32, "delta3": 1312},
        "witness": {"kind": "cylinder", "direction": "", "dim_e": 2, "genus": 3},
    }
    assert certify_simplicity(dema, search_depth=8).dumps() == json.dumps(want, indent=2)


def pairwise_isotropic(b, form):
    """The isotropy test ``_image_is_lagrangian`` replaced, kept as its
    oracle: u^T F v = 0 for every pair u, v of columns of b - Id."""
    dim = len(b)
    cols = [[b[r][c] - (r == c) for r in range(dim)] for c in range(dim)]
    return all(
        sum(u[r] * form[r][s] * v[s] for r in range(dim) for s in range(dim)) == 0
        for u in cols
        for v in cols
    )


def test_isotropy_test_matches_the_pairwise_loop():
    # the H1_zero matrices at the basepoint of the two parabolics and of
    # their product; on mstar the parabolics give isotropic images and
    # their product does not
    seen = set()
    for name in ("dema", "mstar", "mbar_star", "ew"):
        o = fixture_origami(name)
        ctx = kz_context(o)
        form = simplicity._zero_form(ctx)
        g = genus(o)
        words = [parabolic_word(o, d).letters for d in ("horizontal", "vertical")]
        for letters in words + [words[0] + words[1]]:
            node, b = ctx.word_matrix(Sl2zWord(letters), subspace="H1_zero")
            assert node == ctx.graph.basepoint
            rank, isotropic, lagrangian = simplicity._image_is_lagrangian(b, form, g)
            assert isotropic == pairwise_isotropic(b, form)
            assert rank == la.rank(la.mat_sub(b, la.identity_matrix(len(b))))
            assert lagrangian == (rank == g - 1 and isotropic)
            seen.add(isotropic)
    assert seen == {True, False}
