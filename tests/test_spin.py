import pytest

from origami_lab.orbit import sl2z_orbit
from origami_lab.origami import Origami, stratum
from origami_lab.perm import Permutation, parse_cycles
from origami_lab.spin import (
    arf_from_data,
    component,
    hyperelliptic_involution,
    is_hyperelliptic,
    quadratic_form_data,
    spin_parity,
)

from conftest import fixture_origami


def test_spin_parity_goldens():
    assert spin_parity(fixture_origami("mstar")) == 1
    assert spin_parity(fixture_origami("mstarstar")) == 0
    assert spin_parity(fixture_origami("mbar_star")) == 1
    assert spin_parity(fixture_origami("mbar_star_3")) == 1
    assert spin_parity(fixture_origami("mbar_star_5")) == 1


def test_spin_requires_even_orders(ew):
    with pytest.raises(ValueError):
        spin_parity(ew)  # H(1,1,1,1) has odd zero orders


def test_quadratic_form_data_validates(l3):
    data = quadratic_form_data(l3)
    data.validate()
    assert arf_from_data(data) in (0, 1)


def test_spin_constant_on_orbits():
    # spin parity is an SL(2,Z)-invariant of all-even strata
    for name in ("l3", "dema", "mstar", "mstarstar"):
        o = fixture_origami(name)
        value = spin_parity(o)
        graph = sl2z_orbit(o)
        assert all(spin_parity(node) == value for node in graph.nodes)


def test_spin_invariant_under_generator_moves_layered():
    # full orbits of the layered covers are too large to enumerate; check
    # invariance along a few orbit edges instead
    from origami_lab.orbit import apply_letter_raw

    o = fixture_origami("mbar_star_3")
    value = spin_parity(o)
    for word in ("T", "S", "tS", "Ts"):
        image = o
        for letter in word:
            image = apply_letter_raw(image, letter)
        assert spin_parity(image) == value


def test_hyperelliptic_detection():
    assert is_hyperelliptic(fixture_origami("mstarstar"))
    assert not is_hyperelliptic(fixture_origami("mstar"))
    found = hyperelliptic_involution(fixture_origami("mstarstar"))
    assert found is not None
    rho, fixed = found
    assert (rho * rho).is_identity()
    assert fixed == 2 * 3 + 2  # 2g + 2 branch points in genus 3


def test_components():
    assert component(fixture_origami("l3")) == "connected"
    assert component(fixture_origami("mstar")) == "odd-spin"
    assert component(fixture_origami("mstarstar")) == "hyperelliptic"
    # H(2,2) with spin parity 1: the hyperelliptic involution fixes both
    # zeros instead of swapping them, so this is the odd component
    assert component(fixture_origami("dema")) == "odd-spin"
    assert component(fixture_origami("ew")) == "connected"
    assert component(fixture_origami("ltilde")) == "connected"


def test_h22_hyperelliptic_component_needs_swapped_zeros():
    # both surfaces have a hyperelliptic involution, but only the second
    # one swaps the two zeros; the hyperelliptic component of H(2,2) has
    # spin parity 0 (Kontsevich-Zorich)
    fixes = Origami(parse_cycles("(1,2,5,6)(3,4)"), parse_cycles("(1,3)(2,6)(4,5)"))
    swaps = Origami(Permutation([1, 5, 2, 3, 4, 6]), Permutation([2, 1, 6, 4, 3, 5]))
    for o, parity, comp in ((fixes, 1, "odd-spin"), (swaps, 0, "hyperelliptic")):
        assert str(stratum(o)) == "H(2,2)"
        assert is_hyperelliptic(o)
        assert spin_parity(o) == parity
        assert component(o) == comp


def test_h33_without_involution_is_non_hyperelliptic():
    # H(3,3) has a hyperelliptic and a non-hyperelliptic component and no
    # spin split; this surface has no hyperelliptic involution at all
    o = Origami(parse_cycles("(1,4,6,8)(2)(3)(5,7)"), parse_cycles("(1,2,5,8,3,4,6)(7)"))
    assert str(stratum(o)) == "H(3,3)"
    assert not is_hyperelliptic(o)
    assert component(o) == "non-hyperelliptic"


def test_torus_spin_trivial():
    torus = Origami(Permutation([1]), Permutation([1]))
    assert str(stratum(torus)) == "H()"
    assert spin_parity(torus) in (0, 1)
