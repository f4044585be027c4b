import random

import pytest

from origami_lab import origami
from origami_lab.origami import (
    Origami,
    automorphism_count,
    automorphisms,
    canonical_form,
    corner_permutation,
    genus,
    is_reduced,
    load_origami,
    parse_origami_text,
    render_origami_text,
    stratum,
)
from origami_lab.perm import Permutation, parse_cycles

from conftest import fixture_origami, fixture_path, random_origamis


def random_connected_pair(rng, max_degree=10):
    """Random transitive (h, v) pair by rejection sampling."""
    while True:
        n = rng.randint(1, max_degree)
        h = list(range(1, n + 1))
        v = list(range(1, n + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            return Origami(Permutation(h), Permutation(v))
        except ValueError:
            continue


def test_strata_goldens():
    assert str(stratum(fixture_origami("l3"))) == "H(2)"
    assert genus(fixture_origami("l3")) == 2
    assert str(stratum(fixture_origami("mstar"))) == "H(4)"
    assert str(stratum(fixture_origami("dema"))) == "H(2,2)"
    assert str(stratum(fixture_origami("ew"))) == "H(1,1,1,1)"
    assert str(stratum(fixture_origami("ltilde"))) == "H(5,5,5,5)"
    assert genus(fixture_origami("ltilde")) == 11


def test_torus_has_empty_stratum():
    torus = Origami(Permutation([1]), Permutation([1]))
    assert genus(torus) == 1
    assert str(stratum(torus)) == "H()"


def test_disconnected_pair_rejected():
    with pytest.raises(ValueError):
        Origami(parse_cycles("(1,2)", 4), parse_cycles("(1,2)", 4))


def test_corner_permutation_on_l3(l3):
    # three squares around the single cone point of angle 6 pi: one
    # 4-cycle plus fixed corners summing to 2N
    c = corner_permutation(l3)
    lengths = sorted(len(cyc) for cyc in c.cycles(include_fixed=True))
    # a single zero of order 2 means one corner cycle of length 3
    assert lengths == [3]


def test_reducedness():
    assert is_reduced(fixture_origami("l3"))
    # doubling the torus horizontally is not reduced
    o = Origami(parse_cycles("(1,2)", 2), parse_cycles("(1)(2)", 2))
    assert not is_reduced(o)


def test_stratum_and_genus_build_the_corner_cycles_once(monkeypatch, dema):
    built = []
    real = origami.corner_permutation

    def counted(o):
        built.append(o)
        return real(o)

    monkeypatch.setattr(origami, "corner_permutation", counted)
    assert str(stratum(dema)) == "H(2,2)" and len(built) == 1
    assert genus(dema) == 3 and len(built) == 2


def test_automorphism_counts(dema, ew):
    assert len(automorphisms(dema)) == 1
    assert len(automorphisms(ew)) == 8


def test_automorphisms_commute_with_h_and_v(ew, ltilde):
    # automorphisms returns the maps of propagate_square_map unchecked
    surfaces = [o for o in random_origamis(600, seed=29, degrees=(2, 8)) if automorphism_count(o) > 1]
    assert len(surfaces) > 100
    for o in surfaces + [ew, ltilde]:
        auts = automorphisms(o)
        assert len({g.images for g in auts}) == len(auts) == automorphism_count(o)
        for g in auts:
            assert g * o.h == o.h * g and g * o.v == o.v * g


def test_canonical_form_fixed_seed_sweep():
    rng = random.Random(20260823)
    for _ in range(300):
        o = random_connected_pair(rng)
        canon, relabel = canonical_form(o)
        # idempotence
        again, _ = canonical_form(canon)
        assert again == canon
        # the relabeling actually carries o to canon
        assert o.relabel(relabel) == canon
        # conjugation invariance
        images = list(range(1, o.degree + 1))
        rng.shuffle(images)
        twin = o.relabel(Permutation(images))
        assert canonical_form(twin).origami == canon


def test_text_format_round_trip(dema):
    text = render_origami_text(dema)
    back = parse_origami_text(text)
    assert back.h == dema.h and back.v == dema.v and back.label == dema.label


def test_text_format_errors(tmp_path):
    with pytest.raises(ValueError):
        parse_origami_text("")
    with pytest.raises(ValueError, match="2"):
        parse_origami_text("h = (1,2)(2,3)\nv = (1,2,3)")


def test_load_fixture_files_parse():
    for name in (
        "l3",
        "mstar",
        "mstarstar",
        "mbar_star",
        "dema",
        "ew",
        "ltilde",
        "mbar_star_3",
        "mbar_star_5",
        "mbar_star_7",
        "z6_origami",
    ):
        o = load_origami(fixture_path(name))
        assert o.degree >= 1
