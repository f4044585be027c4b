import random

import pytest

from origami_lab.orbit import (
    MAX_WORD_LETTERS,
    Sl2zWord,
    mat2_mul,
    sl2z_orbit,
    sl2z_word,
    veech_generators,
    veech_index,
)
from origami_lab.origami import Origami, canonical_form
from origami_lab.perm import Permutation

from conftest import apply_letter_raw, fixture_origami, large_origami

T_MAT = ((1, 1), (0, 1))
S_MAT = ((1, 0), (1, 1))
ID = ((1, 0), (0, 1))


def test_word_parse_and_str():
    w = Sl2zWord.parse("T8SSTTSS")
    assert str(w) == "TTTTTTTTSSTTSS"
    assert len(w) == 14
    assert Sl2zWord.parse(str(w)) == w


def test_word_matrix_and_inverse():
    w = Sl2zWord.parse("TS")
    assert mat2_mul(w.matrix, w.inverse().matrix) == ID
    assert Sl2zWord.parse("T").matrix == T_MAT
    assert Sl2zWord.parse("S").matrix == S_MAT


def test_word_rejects_garbage():
    with pytest.raises(ValueError):
        Sl2zWord.parse("TX")


@pytest.mark.parametrize("text", ["T0", "T00S", "S0T", "t 0"])
def test_word_rejects_zero_repeat_count(text):
    with pytest.raises(ValueError, match="must be positive"):
        Sl2zWord.parse(text)


def test_word_parse_stops_at_the_letter_limit():
    assert len(Sl2zWord.parse("T%dS" % (MAX_WORD_LETTERS - 1))) == MAX_WORD_LETTERS
    for text in ("T%d" % (MAX_WORD_LETTERS + 1), "T%dS2" % (MAX_WORD_LETTERS - 1), "T100000000000"):
        with pytest.raises(ValueError, match="more than %d letters" % MAX_WORD_LETTERS):
            Sl2zWord.parse(text)


def test_generator_actions_preserve_degree():
    o = fixture_origami("l3")
    for letter in "TSts":
        assert apply_letter_raw(o, letter).degree == o.degree


def test_orbit_sizes():
    assert len(sl2z_orbit(fixture_origami("dema")).nodes) == 3
    assert len(sl2z_orbit(fixture_origami("l3")).nodes) == 3
    assert len(sl2z_orbit(fixture_origami("ew")).nodes) == 1
    assert len(sl2z_orbit(fixture_origami("ltilde")).nodes) == 12


def test_orbit_contains_one_cylinder_representative():
    graph = sl2z_orbit(fixture_origami("mstar"))
    assert len(graph.nodes) == 120
    assert graph.index_of(fixture_origami("mbar_star")) is not None


def test_orbit_edges_consistent():
    graph = sl2z_orbit(fixture_origami("dema"))
    for i, node in enumerate(graph.nodes):
        for letter in "TSts":
            target, relabel = graph.step(i, letter)
            raw = apply_letter_raw(node, letter)
            assert raw.relabel(relabel) == graph.nodes[target]
        # t then T is a round trip
        mid, _ = graph.step(i, "t")
        back, _ = graph.step(mid, "T")
        assert back == i


def test_veech_index_and_generators(dema):
    assert veech_index(dema) == 3
    graph = sl2z_orbit(dema)
    for w in veech_generators(dema):
        assert graph.trace(graph.basepoint, w) == graph.basepoint
        # generators are nontrivial in SL(2,Z)
        assert len(w) > 0


def test_sl2z_word_round_trip():
    rng = random.Random(99)
    for _ in range(100):
        m = ID
        for _ in range(rng.randint(0, 12)):
            m = mat2_mul(m, rng.choice([T_MAT, S_MAT, ((1, -1), (0, 1)), ((1, 0), (-1, 1))]))
        w = sl2z_word(m)
        assert w.matrix == m


def test_sl2z_word_rejects_non_unimodular():
    with pytest.raises(ValueError):
        sl2z_word(((2, 0), (0, 1)))


def test_orbit_graph_holds_at_most_65536_squares():
    o = large_origami(65536)
    h, v = sl2z_orbit(o).tables(0)
    assert canonical_form(o).origami == Origami(
        Permutation([x + 1 for x in h]), Permutation([x + 1 for x in v])
    )
    with pytest.raises(ValueError, match="at most 65536 squares"):
        sl2z_orbit(large_origami(65537))
