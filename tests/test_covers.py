import pytest

from origami_lab.covers import (
    EdgeCocycle,
    Q_I,
    Q_J,
    Q_K,
    Q_MINUS_ONE,
    Q_ONE,
    deck_transformation,
    ew_origami,
    group_cover,
    l3_origami,
    ltilde_origami,
    mbar_star_origami,
    quaternion_group,
    quotient_dims_check,
    quotient_origami,
    trivial_group,
)
from origami_lab.origami import (
    Origami,
    automorphisms,
    canonical_form,
    genus,
    is_reduced,
    load_origami,
    stratum,
)
from origami_lab.perm import Permutation

from conftest import fixture_path


def test_quaternion_group_table():
    grp = quaternion_group()
    assert grp.order == 8
    assert grp.mul(Q_I, Q_J) == Q_K
    assert grp.mul(Q_J, Q_I) == grp.mul(Q_MINUS_ONE, Q_K)
    assert grp.mul(Q_I, Q_I) == Q_MINUS_ONE
    assert grp.inverse(Q_I) == grp.mul(Q_MINUS_ONE, Q_I)
    assert grp.identity == Q_ONE


def test_bad_group_table_rejected():
    from origami_lab.covers import FiniteGroupTable

    with pytest.raises(ValueError):
        FiniteGroupTable(order=2, table=((0, 1), (1, 1)), identity=0)


def test_group_table_associativity_checked_past_order_16():
    from origami_lab.covers import FiniteGroupTable

    table = [[(a + b) % 17 for b in range(17)] for a in range(17)]
    assert FiniteGroupTable(order=17, table=table, identity=0).mul(16, 2) == 1
    # Z/17 with two entries of row 1 swapped keeps its identity and
    # inverses, but (1 * 1) * 1 = 3 while 1 * (1 * 1) = 4
    table[1][2], table[1][3] = table[1][3], table[1][2]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroupTable(order=17, table=table, identity=0)


def test_trivial_cover_is_relabeling(l3):
    cover = group_cover(l3, EdgeCocycle(trivial_group(), (0, 0, 0), (0, 0, 0)))
    assert canonical_form(cover).origami == canonical_form(l3).origami


def test_ew_construction():
    ew = ew_origami()
    assert ew.degree == 8
    assert genus(ew) == 3
    assert str(stratum(ew)) == "H(1,1,1,1)"
    assert is_reduced(ew)
    assert len(automorphisms(ew)) == 8


def test_ltilde_construction():
    lt = ltilde_origami()
    assert lt.degree == 24
    assert genus(lt) == 11
    assert str(stratum(lt)) == "H(5,5,5,5)"
    assert is_reduced(lt)


def test_deck_transformations_are_automorphisms():
    grp = quaternion_group()
    lt = ltilde_origami()
    auts = set(a.images for a in automorphisms(lt))
    for g in range(8):
        deck = deck_transformation(3, grp, g)
        assert deck.images in auts


def test_cover_degree_multiplicative():
    base = l3_origami()
    grp = quaternion_group()
    cocycle = EdgeCocycle(grp, (Q_I, 0, 0), (Q_J, 0, 0))
    cover = group_cover(base, cocycle)
    assert cover.degree == base.degree * 8


def test_disconnected_cover_rejected():
    torus = Origami(Permutation([1]), Permutation([1]))
    with pytest.raises(ValueError):
        group_cover(torus, EdgeCocycle(quaternion_group(), (Q_ONE,), (Q_ONE,)))


def test_cocycle_validation():
    with pytest.raises(ValueError):
        EdgeCocycle(trivial_group(), (0, 0), (0,))
    with pytest.raises(ValueError):
        EdgeCocycle(trivial_group(), (1,), (0,))
    with pytest.raises(ValueError):
        group_cover(l3_origami(), EdgeCocycle(trivial_group(), (0,), (0,)))


def test_quotients():
    grp = quaternion_group()
    lt = ltilde_origami()
    minus_one = deck_transformation(3, grp, Q_MINUS_ONE)
    report = quotient_dims_check(lt, minus_one)
    assert report["genus"] == 5
    assert report["degree"] == 12
    ew = ew_origami()
    q = quotient_origami(ew, deck_transformation(1, grp, Q_MINUS_ONE))
    assert genus(q) == 1
    # quotient by the identity is the surface itself
    same = quotient_dims_check(ew, deck_transformation(1, grp, Q_ONE))
    assert same["genus"] == genus(ew)


def test_quotient_rejects_non_automorphism(dema):
    with pytest.raises(ValueError):
        quotient_origami(dema, Permutation([2, 1, 3, 4, 5, 6, 7, 8]))


def test_mbar_star_family():
    base = mbar_star_origami(1)
    assert str(stratum(base)) == "H(4)"
    for d, order in ((3, 14), (5, 24)):
        o = mbar_star_origami(d)
        assert o.degree == 6 * d
        assert str(stratum(o)) == "H(%d)" % order
    with pytest.raises(ValueError):
        mbar_star_origami(2)


def test_gauss_bonnet_consistency():
    for o in (ew_origami(), ltilde_origami(), l3_origami(), mbar_star_origami(3)):
        assert sum(stratum(o).orders) == 2 * genus(o) - 2


def test_ingest_corpus_z6():
    o = load_origami(fixture_path("z6_origami"))
    assert o.degree == 576
    assert genus(o) == 147


def test_ingest_corpus_errors(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_origami(str(empty))
    dup = tmp_path / "dup.txt"
    dup.write_text("h = (1,2)(2,3)\nv = (1,2,3)\n")
    with pytest.raises(ValueError, match="2"):
        load_origami(str(dup))
