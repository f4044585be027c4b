import pytest

from origami_lab.origami import Origami
from origami_lab.paths import (
    CenterPath,
    cycle_loops,
    follow,
    path_class_chain,
    reduce_path,
    winding_index,
)
from origami_lab.perm import Permutation

from crossing_oracle import pattern_loops, self_crossings, signed_crossings


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
    chain = path_class_chain(l3, CenterPath(1, "RR"))
    n = l3.degree
    assert chain[:n] == [1, 1, 0]
    assert chain[n:] == [0, 0, 0]


def test_cycle_and_pattern_loops_close(l3):
    for loop in cycle_loops(l3) + pattern_loops(l3, "RU") + pattern_loops(l3, "RRUD"[:3]):
        follow(l3, loop)  # raises if not closed


def test_pattern_loops_rejects_garbage(l3):
    with pytest.raises(ValueError):
        pattern_loops(l3, "")
    with pytest.raises(ValueError):
        pattern_loops(l3, "RX")
