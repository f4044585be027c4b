import pytest
from hypothesis import given, strategies as st

from origami_lab.perm import (
    Permutation,
    compose,
    conjugate,
    identity,
    is_transitive,
    parse_cycles,
    render_cycles,
)


def cycle_type(p):
    """Sorted tuple of cycle lengths (a multiset), summing to the degree."""
    return tuple(sorted(len(c) for c in p.cycles(include_fixed=True)))


def random_perm(draw, degree):
    images = draw(st.permutations(list(range(1, degree + 1))))
    return Permutation(list(images))


perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(lambda im: Permutation(list(im)))
)


def test_composition_convention():
    p = parse_cycles("(1,2)", 3)
    q = parse_cycles("(2,3)", 3)
    # compose(p, q) applies q first
    assert compose(p, q)(2) == p(q(2)) == p(3) == 3
    assert (p * q)(2) == 3


def test_inverse_and_identity():
    p = parse_cycles("(1,2,3)(4,5)", 5)
    assert (p * p.inverse()).is_identity()
    assert identity(5).is_identity()
    assert p.order() == 6


def test_cycles_include_fixed():
    p = parse_cycles("(2,3)", 4)
    cycles = p.cycles(include_fixed=True)
    assert sorted(min(c) for c in cycles) == [1, 2, 4]
    assert [list(c) for c in p.cycles()] == [[2, 3]]
    assert cycle_type(p) == (1, 1, 2)


def test_parse_render_round_trip():
    text = "(1,2,3)(4,5)"
    p = parse_cycles(text, 6)
    assert parse_cycles(render_cycles(p), 6) == p


def test_parse_rejects_duplicates():
    with pytest.raises(ValueError, match="2"):
        parse_cycles("(1,2)(2,3)", 3)
    # of several repeated symbols, the smallest is named
    with pytest.raises(ValueError, match="^symbol 3 repeated across cycles$"):
        parse_cycles("(5,4,3)(4,3,5)", 5)


def test_parse_rejects_bad_symbols():
    with pytest.raises(ValueError):
        parse_cycles("(0,1)", 2)
    with pytest.raises(ValueError):
        parse_cycles("(1,x)", 2)


@pytest.mark.parametrize("images", [5, [1.0, 2], ["1", "2"], [None]])
def test_images_of_the_wrong_type_are_rejected(images):
    with pytest.raises(ValueError, match="not a sequence of integers"):
        Permutation(images)


def test_transitivity():
    h = parse_cycles("(1,2)", 4)
    v = parse_cycles("(3,4)", 4)
    assert not is_transitive([h, v])
    assert is_transitive([parse_cycles("(1,2,3,4)", 4)])


@given(perms)
def test_inverse_involutive(p):
    assert p.inverse().inverse() == p


@given(perms)
def test_render_round_trip_property(p):
    assert parse_cycles(render_cycles(p), p.degree) == p


@given(st.data())
def test_conjugation_preserves_cycle_type(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    mk = lambda: Permutation(list(data.draw(st.permutations(list(range(1, n + 1))))))
    p, r = mk(), mk()
    assert cycle_type(conjugate(p, r)) == cycle_type(p)
