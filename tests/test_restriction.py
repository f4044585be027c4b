"""Restriction of the cocycle to invariant sublattices on ``KzContext``.

The reference is the rational solve that the integer left inverse
replaced (``restrict_oracle``).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origami_lab import cli, homology
from origami_lab import intlinalg as la
from origami_lab.homology import KzContext, restrict
from origami_lab.orbit import Sl2zWord, veech_generators
from origami_lab.origami import automorphisms, central_involution, save_origami
from origami_lab.perm import Permutation
from origami_lab.simplicity import certify_simplicity, verify_certificate

from conftest import fixture_origami, fixture_path
from restrict_oracle import restrict_oracle
from test_homology_properties import transitive_pairs


def subspaces_of(ctx):
    subspaces = ["H1_zero"]
    try:
        central_involution(ctx.graph.nodes[ctx.graph.basepoint])
    except ValueError:
        return subspaces
    return subspaces + ["W"]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(transitive_pairs(max_degree=7))
def test_restriction_matches_rational_oracle_on_random_orbits(o):
    ctx = KzContext(o)
    for subspace in subspaces_of(ctx):
        for node in range(len(ctx.graph.nodes)):
            z = ctx.basis(node, subspace)
            for letter in "TSts":
                target, m = ctx.step(node, letter)
                got_target, r = ctx.step(node, letter, subspace)
                assert got_target == target
                assert r == restrict_oracle(m, z, ctx.basis(target, subspace))
                assert restrict(m, z, ctx.basis(target, subspace)) == r
            auts = ctx.aut_matrices(node, subspace)
            assert len(auts) == len(ctx.aut_matrices(node)) == len(automorphisms(ctx.graph.nodes[node])) - 1
            for m, r in zip(ctx.aut_matrices(node), auts):
                assert [list(row) for row in r] == restrict_oracle(m, z)


words = st.lists(st.sampled_from(("T", "S", "t", "s")), min_size=1, max_size=6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(transitive_pairs(max_degree=7), words, st.integers(0, 10**6))
def test_word_matrix_restricts_the_product_at_its_ends(o, letters, start):
    ctx = KzContext(o)
    node = start % len(ctx.graph.nodes)
    word = Sl2zWord(tuple(letters))
    end, full = ctx.word_matrix(word, node)
    for subspace in subspaces_of(ctx):
        got_end, r = ctx.word_matrix(word, node, subspace)
        assert got_end == end
        assert r == restrict_oracle(full, ctx.basis(node, subspace), ctx.basis(end, subspace))
        # the restricted steps compose to the same matrix
        walk, product = node, la.identity_matrix(len(ctx.basis(node, subspace)))
        for letter in reversed(letters):
            walk, m = ctx.step(walk, letter, subspace)
            product = la.mat_mul(m, product)
        assert walk == end and product == r


def test_restrict_rejects_a_subspace_that_is_not_invariant():
    shear = [[1, 1], [0, 1]]
    with pytest.raises(ValueError, match="not invariant"):
        restrict(shear, [[0, 1]])
    with pytest.raises(ValueError, match="not invariant"):
        restrict_oracle(shear, [[0, 1]])
    assert restrict(shear, [[1, 0]]) == restrict_oracle(shear, [[1, 0]]) == [[1]]


def test_restrict_rejects_a_target_basis_that_is_not_saturated():
    ident = la.identity_matrix(3)
    for target in ([[2, 0, 0]], [[1, 1, 0], [0, 2, 0]]):
        source = [[1, 0, 0]] if len(target) == 1 else [[1, 0, 0], [0, 1, 0]]
        with pytest.raises(ValueError, match="not integral"):
            restrict(ident, source, target)
        with pytest.raises(ValueError, match="not integral"):
            restrict_oracle(ident, source, target)
    # the saturated basis of the same line is fine
    assert restrict(ident, [[1, 0, 0]], [[1, 0, 0]]) == [[1]]


def test_restrict_rejects_a_non_invariant_subspace_of_a_cocycle(dema):
    ctx = homology.kz_context(dema)
    base = ctx.graph.basepoint
    m = [list(r) for r in homology.kz_matrix(dema, "T8SSTTSS").matrix]
    zero = ctx.basis(base, "H1_zero")
    # a zero-holonomy vector plus the horizontal tautological class spans
    # a plane the pinching matrix does not keep
    plane = [zero[0], ctx.homology(base).taut_sigma]
    with pytest.raises(ValueError, match="not invariant"):
        restrict(m, plane)
    with pytest.raises(ValueError, match="not invariant"):
        restrict_oracle(m, plane)


def test_unknown_subspace_is_rejected(dema):
    ctx = homology.kz_context(dema)
    with pytest.raises(ValueError, match="subspace must be one of"):
        ctx.step(ctx.graph.basepoint, "T", "H1_st")


def test_certify_and_verify_restrict_each_step_once(dema, monkeypatch):
    # a fresh context for the basepoint, so nothing is restricted yet
    monkeypatch.setattr(homology, "_context_cache", {})
    calls = []
    real = homology._restrict

    def spy(m, *args):
        calls.append(id(m))
        return real(m, *args)

    monkeypatch.setattr(homology, "_restrict", spy)
    cert = certify_simplicity(dema, search_depth=12)
    assert verify_certificate(cert)
    ctx = homology.kz_context(dema)
    step_ids = {
        id(ctx.step(node, letter)[1]): (node, letter)
        for node in range(len(ctx.graph.nodes))
        for letter in "TSts"
    }
    per_step = {}
    for c in calls:
        if c in step_ids:
            per_step[step_ids[c]] = per_step.get(step_ids[c], 0) + 1
    assert per_step and max(per_step.values()) == 1


def run_cli(argv, capsys):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return json.loads(out)


@pytest.mark.parametrize("name", ("dema", "mstar", "ew"))
def test_kz_zero_charpolys_and_ekz_invariant_under_relabeling(name, tmp_path, capsys, monkeypatch):
    # each input, relabeled or not, gets a cold orbit context
    o = fixture_origami(name)
    rng = random.Random(name)
    monkeypatch.setattr(homology, "_context_cache", {})
    words = [str(w) for w in veech_generators(o)[:4]]
    want_kz = [run_cli(["kz", fixture_path(name), w, "--zero", "--json"], capsys)["charpoly"] for w in words]
    want_ekz = run_cli(["ekz", fixture_path(name), "--json"], capsys)["total"]
    for trial in range(3):
        images = list(range(1, o.degree + 1))
        rng.shuffle(images)
        path = str(tmp_path / ("%s-%d.txt" % (name, trial)))
        save_origami(o.relabel(Permutation(images)), path)
        monkeypatch.setattr(homology, "_context_cache", {})
        got_kz = [run_cli(["kz", path, w, "--zero", "--json"], capsys)["charpoly"] for w in words]
        assert got_kz == want_kz
        assert run_cli(["ekz", path, "--json"], capsys)["total"] == want_ekz
