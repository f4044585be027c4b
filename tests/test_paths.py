from collections import Counter

import pytest

from origami_lab.origami import Origami
from origami_lab.paths import (
    CenterPath,
    cycle_loops,
    follow,
    path_class_chain,
    winding_index,
)
from origami_lab.perm import Permutation

from conftest import large_origami
from crossing_oracle import pattern_loops, reduce_path, self_crossings, signed_crossings


def torus():
    return Origami(Permutation([1]), Permutation([1]))


def test_follow_checks_closure(l3):
    with pytest.raises(ValueError):
        follow(l3, CenterPath(1, "R"))
    assert follow(l3, CenterPath(1, "RR")) == [1, 2]


def test_reduce_path_cancels():
    p = CenterPath(1, "RLU")
    r = reduce_path(p)
    assert r.steps == "U"
    assert reduce_path(CenterPath(1, "RL")) is None
    # cyclic cancellation
    assert reduce_path(CenterPath(1, "RUUL")) .steps == "UU"


def test_winding_index_square_and_figure_eight():
    o = torus()
    assert winding_index(o, CenterPath(1, "RULD")) == 1
    assert winding_index(o, CenterPath(1, "DLUR")) == -1
    # figure eight: total turning zero
    assert winding_index(o, CenterPath(1, "RURD")) == 0


def test_winding_index_takes_the_path_as_given(l3):
    # RLU reduces to U, whose index is 0, but it is not reduced here
    with pytest.raises(ValueError, match="backtracking pair RL"):
        winding_index(torus(), CenterPath(1, "RLU"))
    with pytest.raises(ValueError, match="backtracking pair DU"):
        winding_index(torus(), CenterPath(1, "URRD"))
    with pytest.raises(ValueError, match="path is not closed"):
        winding_index(l3, CenterPath(1, "R"))
    assert winding_index(l3, CenterPath(1, "RR")) == 0


def test_signed_crossings_antisymmetry():
    o = torus()
    a = CenterPath(1, "R")
    b = CenterPath(1, "U")
    assert signed_crossings(o, a, b) == 1
    assert signed_crossings(o, b, a) == -1


def test_self_crossings_figure_eight():
    # one-square torus: the four strands share the square, picking up
    # identification crossings; the parity is what matters downstream
    assert self_crossings(torus(), CenterPath(1, "RURD")) % 2 == 1
    assert self_crossings(torus(), CenterPath(1, "RU")) == 0
    # on a 2x2 torus the same step word visits four distinct squares and
    # is embedded: no crossings at all
    big = Origami(Permutation([2, 1, 4, 3]), Permutation([3, 4, 1, 2]))
    assert self_crossings(big, CenterPath(1, "RURD")) == 0


def test_path_class_chain(l3):
    assert path_class_chain(l3, CenterPath(1, "RR")) == Counter({0: 1, 1: 1})


def reference_walk(o, path):
    """(squares, chain) by the definitions: the squares a path occupies
    before each step, and its sparse edge chain, where an R or U step at
    square i adds the bottom edge sigma_i or the left edge zeta_i, and an L
    or D step subtracts that of h^-1(i) or v^-1(i)."""
    n = o.degree
    squares, chain = [], Counter()
    sq = path.start
    for st in path.steps:
        squares.append(sq)
        if st == "R":
            chain[sq - 1] += 1
            sq = o.h(sq)
        elif st == "L":
            sq = o.h.inverse()(sq)
            chain[sq - 1] -= 1
        elif st == "U":
            chain[n + sq - 1] += 1
            sq = o.v(sq)
        else:
            sq = o.v.inverse()(sq)
            chain[n + sq - 1] -= 1
    assert sq == path.start
    return squares, chain


def test_long_path_builds_each_inverse_once(monkeypatch):
    # h = (1)(2, ..., 50) and v = (1, 2)(3, 5): from square 2, L^49 and DD
    # close up, so the path below takes 153 L and D steps
    o = large_origami(50)
    path = CenterPath(2, ("L" * 49 + "DD") * 3)
    squares, chain = reference_walk(o, path)
    real_inverse = Permutation.inverse
    calls = []

    def counting_inverse(p):
        calls.append(p)
        return real_inverse(p)

    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    assert path_class_chain(o, path) == chain
    assert calls == [o.h, o.v]
    calls.clear()
    assert follow(o, path) == squares
    assert calls == [o.h, o.v]
    calls.clear()
    assert path_class_chain(o, CenterPath(1, "R")) == Counter({0: 1})
    assert calls == []


def test_paths_match_their_definitions(l3, mstar):
    for o in (l3, mstar, large_origami(9)):
        for loop in cycle_loops(o) + pattern_loops(o, "LD") + pattern_loops(o, "RDLU"):
            assert (follow(o, loop), path_class_chain(o, loop)) == reference_walk(o, loop)


def test_cycle_and_pattern_loops_close(l3):
    for loop in cycle_loops(l3) + pattern_loops(l3, "RU") + pattern_loops(l3, "RRUD"[:3]):
        follow(l3, loop)  # raises if not closed


def test_pattern_loops_rejects_garbage(l3):
    with pytest.raises(ValueError):
        pattern_loops(l3, "")
    with pytest.raises(ValueError):
        pattern_loops(l3, "RX")
