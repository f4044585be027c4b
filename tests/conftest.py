import os
import random

import pytest

from origami_lab import load_origami
from origami_lab.origami import Origami
from origami_lab.perm import Permutation, compose, is_transitive

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURE_NAMES = tuple(sorted(f[: -len(".txt")] for f in os.listdir(FIXTURES) if f.endswith(".txt")))


def fixture_path(name):
    return os.path.join(FIXTURES, name + ".txt")


def fixture_origami(name):
    return load_origami(fixture_path(name))


def random_origamis(count, seed, degrees=(6, 14)):
    """``count`` connected origamis with h and v drawn uniformly from
    ``random.Random(seed)``, of degree in the closed range ``degrees``."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*degrees)
        h = Permutation(rng.sample(range(1, n + 1), n))
        v = Permutation(rng.sample(range(1, n + 1), n))
        if is_transitive([h, v]):
            out.append(Origami(h, v))
    return out


def apply_letter_raw(o, letter):
    """The raw image (no canonicalization) of an origami under one
    generator letter, from T(h, v) = (h, v h^-1) and S(h, v) = (h v^-1, v):
    the reference for the edges of the orbit graph."""
    h, v = o.h, o.v
    if letter == "T":
        return Origami(h, compose(v, h.inverse()), o.label)
    if letter == "t":
        return Origami(h, compose(v, h), o.label)
    if letter == "S":
        return Origami(compose(h, v.inverse()), v, o.label)
    if letter == "s":
        return Origami(compose(h, v), v, o.label)
    raise ValueError("unknown letter %r" % letter)


def large_origami(n):
    """A genus-3 surface on n squares: h = (1)(2, ..., n) has one fixed
    point, so a canonical labelling tries one start, and v = (1,2)(3,5)."""
    h = [1] + list(range(3, n + 1)) + [2]
    v = list(range(1, n + 1))
    v[0], v[1], v[2], v[4] = 2, 1, 5, 3
    return Origami(Permutation(h), Permutation(v))


@pytest.fixture
def l3():
    return fixture_origami("l3")


@pytest.fixture
def mstar():
    return fixture_origami("mstar")


@pytest.fixture
def mstarstar():
    return fixture_origami("mstarstar")


@pytest.fixture
def dema():
    return fixture_origami("dema")


@pytest.fixture
def ew():
    return fixture_origami("ew")


@pytest.fixture
def ltilde():
    return fixture_origami("ltilde")
