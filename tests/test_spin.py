"""Spin parity, hyperelliptic involutions and stratum components.

The oracle for ``spin_parity`` is the loop-pool pipeline: phi is
evaluated on a pool of loops grown until their classes span H_1 over F2
(the horizontal and vertical core loops, then the loops along every
non-backtracking step pattern of increasing length), an F2-independent
subset is chosen greedily, phi of every other loop in the pool is checked
against the quadratic relation, and the Arf invariant is taken on the
chosen subset.  The staircase loops of the pool may visit a square more
than once, so the pool uses the full phi = ind + 1 + D of
``crossing_oracle``; ``spin.phi_of_path`` accepts simple loops only, and
the loops it sees are checked to be simple.

The oracle for ``arf_from_data`` is a brute-force count over all 2^n
classes: the Arf invariant is 1 exactly when q is 1 on more than half of
them.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origami_lab import intlinalg as la
from origami_lab import spin
from origami_lab.homology import Homology
from origami_lab.orbit import sl2z_orbit
from origami_lab.origami import Origami, stratum
from origami_lab.paths import CenterPath, cycle_loops, follow, path_class_chain
from origami_lab.perm import Permutation, is_transitive, parse_cycles
from origami_lab.spin import (
    QuadraticFormData,
    arf_from_data,
    component,
    hyperelliptic_involution,
    is_hyperelliptic,
    phi_of_path,
    quadratic_form_data,
    spin_parity,
)

from conftest import FIXTURE_NAMES, fixture_origami
from crossing_oracle import pairing_in_basis, pattern_loops, reduce_path, self_crossings, signed_crossings
from crossing_oracle import phi as oracle_phi
from inverse_oracle import det

ALL_EVEN_FIXTURES = (
    "l3",
    "mstar",
    "mstarstar",
    "mbar_star",
    "mbar_star_3",
    "mbar_star_5",
    "mbar_star_7",
    "dema",
)


# ---------------------------------------------------------------------------
# The loop-pool oracle


def step_patterns(length):
    """Non-backtracking step patterns of the given length that start with
    R and are primitive (no shorter repeating block)."""
    opposite = {"R": "L", "L": "R", "U": "D", "D": "U"}
    out = []
    for tail in itertools.product("RULD", repeat=length - 1):
        pat = "R" + "".join(tail)
        if any(b == opposite[a] for a, b in zip(pat, pat[1:] + pat[0])):
            continue
        if any(length % d == 0 and pat == pat[:d] * (length // d) for d in range(1, length)):
            continue
        out.append(pat)
    return out


def f2_rank(vectors):
    pivots = []
    for v in vectors:
        row = [x % 2 for x in v]
        for lead, p in pivots:
            if row[lead]:
                row = [(x + y) % 2 for x, y in zip(row, p)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            pivots.append((lead, row))
    return len(pivots)


def solve_f2(columns, target):
    """F2 coefficients expressing target in the given columns, or None."""
    k, n = len(columns), len(target)
    aug = [[columns[j][i] % 2 for j in range(k)] + [target[i] % 2] for i in range(n)]
    pivots = []
    r = 0
    for c in range(k):
        pr = next((i for i in range(r, n) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        for i in range(n):
            if i != r and aug[i][c]:
                aug[i] = [(x + y) % 2 for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(aug[i][k] for i in range(r, n)):
        return None
    sol = [0] * k
    for row, c in enumerate(pivots):
        sol[c] = aug[row][k]
    return sol


def oracle_quadratic_form_data(o, max_pattern=8):
    hom = Homology(o)
    pool = cycle_loops(o)
    length = 1
    while f2_rank(hom.project_many([path_class_chain(o, p) for p in pool])) < hom.rank:
        length += 1
        if length > max_pattern:
            raise AssertionError("loop pool does not span H_1 over F2")
        for pat in step_patterns(length):
            pool.extend(pattern_loops(o, pat))
    coords = hom.project_many([path_class_chain(o, p) for p in pool])
    phis = [oracle_phi(o, p) for p in pool]
    chosen = []
    for i, c in enumerate(coords):
        if f2_rank([coords[j] for j in chosen] + [c]) > len(chosen):
            chosen.append(i)
    basis = [coords[i] for i in chosen]
    gram = [[pairing_in_basis(hom, u, v) % 2 for v in basis] for u in basis]
    for i in range(len(pool)):
        if i in chosen:
            continue
        sol = solve_f2(basis, coords[i])
        assert sol is not None, "basis extraction lost a class"
        support = [j for j, c in enumerate(sol) if c]
        value = sum(phis[chosen[j]] for j in support)
        value += sum(gram[a][b] for a, b in itertools.combinations(support, 2))
        assert value % 2 == phis[i], "phi is not well defined on loop %d" % i
    return QuadraticFormData(basis, [phis[i] for i in chosen], gram)


def oracle_spin_parity(o):
    return arf_from_data(oracle_quadratic_form_data(o))


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
    from conftest import apply_letter_raw

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


# ---------------------------------------------------------------------------
# Spin parity from the dual loops against the oracle


@st.composite
def even_genus_2_3_surfaces(draw):
    """Random origamis in H(2), H(4) or H(2,2)."""
    n = draw(st.integers(3, 7))
    h = Permutation(draw(st.permutations(range(1, n + 1))))
    v = Permutation(draw(st.permutations(range(1, n + 1))))
    assume(is_transitive([h, v]))
    o = Origami(h, v)
    assume(str(stratum(o)) in ("H(2)", "H(4)", "H(2,2)"))
    return o


@pytest.mark.parametrize("name", ALL_EVEN_FIXTURES)
def test_spin_parity_matches_pool_oracle_on_fixtures(name):
    o = fixture_origami(name)
    assert spin_parity(o) == oracle_spin_parity(o)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(even_genus_2_3_surfaces())
def test_spin_parity_matches_pool_oracle_on_random(o):
    assert spin_parity(o) == oracle_spin_parity(o)


def check_simple_loops(o, loops):
    """Each loop is closed, visits no square twice, is reduced and has no
    self-crossings (D = 0) by the crossing engine."""
    for loop in loops:
        squares = follow(o, loop)  # raises unless closed
        assert len(set(squares)) == len(squares)
        assert reduce_path(loop) == loop
        assert self_crossings(o, loop) == 0


def check_dual_loops(o):
    hom = Homology(o)
    loops = hom.dual_loops()
    assert len(loops) == hom.rank
    # both loop families that spin.phi_of_path is evaluated on
    check_simple_loops(o, loops + cycle_loops(o))
    coords = hom.project_many([path_class_chain(o, p) for p in loops])
    assert la.transpose(coords) == hom.dual_coords
    assert det(coords) in (1, -1)
    # the Gram matrix of the dual loops is D^T, by the crossing engine
    for a, loop_a in enumerate(loops):
        for b, loop_b in enumerate(loops):
            assert signed_crossings(o, loop_a, loop_b) == hom.dual_coords[b][a]


@pytest.mark.parametrize("name", ("l3", "dema", "ew", "mstar", "mbar_star_3"))
def test_dual_loops_are_a_simple_basis(name):
    check_dual_loops(fixture_origami(name))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(even_genus_2_3_surfaces())
def test_dual_loops_on_random(o):
    check_dual_loops(o)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_phi_loops_are_simple_on_every_fixture(name):
    o = fixture_origami(name)
    check_simple_loops(o, Homology(o).dual_loops() + cycle_loops(o))


def test_phi_of_path_rejects_a_figure_eight():
    torus = Origami(Permutation([1]), Permutation([1]))
    eight = CenterPath(1, "RURD")
    with pytest.raises(ValueError, match="visits a square twice"):
        phi_of_path(torus, eight)
    # ind = 0 and one self-crossing: phi = 0, as for its class 2[R] = 0 mod 2
    assert self_crossings(torus, eight) % 2 == 1
    assert oracle_phi(torus, eight) == 0
    core = CenterPath(1, "R")
    assert phi_of_path(torus, core) == oracle_phi(torus, core) == 1


def test_phi_of_path_rejects_a_detour_before_reduction(mstar):
    loop = Homology(mstar).dual_loops()[0]
    detour = CenterPath(loop.start, "RL" + loop.steps)
    assert reduce_path(detour) == loop
    with pytest.raises(ValueError, match="visits a square twice"):
        phi_of_path(mstar, detour)


def test_phi_of_path_rejects_a_two_step_backtrack(l3):
    # RL visits squares 1 and 2 once each; both of its step pairs backtrack
    assert follow(l3, CenterPath(1, "RL")) == [1, 2]
    with pytest.raises(ValueError, match="backtracking pair"):
        phi_of_path(l3, CenterPath(1, "RL"))


def test_quadratic_form_check_catches_a_wrong_phi(monkeypatch):
    # flip phi on one dual loop that some core loop's class involves: the
    # quadratic relation on that core loop must then fail
    o = fixture_origami("mstar")
    hom = Homology(o)
    cores = cycle_loops(o)
    core_coords = hom.project_many([path_class_chain(o, p) for p in cores])
    # column c of J X^T is the dual-loop coordinate vector J x of core loop c
    dual = la.mat_mul(hom.intersection, la.transpose(core_coords))
    involved = {i for i, row in enumerate(dual) if any(c % 2 for c in row)}
    wrong = hom.dual_loops()[min(involved)]
    real_phi = spin.phi_of_path
    monkeypatch.setattr(spin, "phi_of_path", lambda o, p: real_phi(o, p) ^ (p == wrong))
    with pytest.raises(AssertionError, match="not well defined"):
        quadratic_form_data(o)


# ---------------------------------------------------------------------------
# The Arf invariant against a brute-force count


def brute_force_arf(phi, gram):
    """1 exactly when q is 1 on more than half of the 2^n classes, with q
    of every class from the quadratic relation
    q(c + e_i) = q(c) + phi_i + <c, e_i>."""
    n = len(phi)
    q = [0] * (1 << n)
    for mask in range(1, 1 << n):
        i = mask.bit_length() - 1
        rest = mask ^ (1 << i)
        q[mask] = (q[rest] + phi[i] + sum(gram[i][j] for j in range(i) if rest >> j & 1)) % 2
    return int(2 * sum(q) > len(q))


def random_nondegenerate_form(rng, n):
    """Random phi on n = 2k classes and G = P^T J0 P mod 2, with P a
    random invertible F2 matrix and J0 the standard symplectic form."""
    while True:
        p = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if f2_rank(p) == n:
            break
    j0 = [[int(abs(i - j) == 1 and min(i, j) % 2 == 0) for j in range(n)] for i in range(n)]
    gram = [[x % 2 for x in row] for row in la.mat_mul(la.transpose(p), la.mat_mul(j0, p))]
    return [rng.randint(0, 1) for _ in range(n)], gram


def test_arf_matches_brute_force_on_random_forms():
    rng = random.Random(22)
    for _ in range(400):
        n = 2 * rng.randint(1, 5)
        phi, gram = random_nondegenerate_form(rng, n)
        data = QuadraticFormData(la.identity_matrix(n), phi, gram)
        assert arf_from_data(data) == brute_force_arf(phi, gram)


@pytest.mark.parametrize("name", ("l3", "dema", "mstar", "mstarstar", "mbar_star"))
def test_arf_matches_brute_force_on_fixtures(name):
    data = quadratic_form_data(fixture_origami(name))
    assert arf_from_data(data) == brute_force_arf(data.phi_values, data.intersection_mod2)


def test_arf_rejects_a_degenerate_form():
    zero = QuadraticFormData(la.identity_matrix(2), [1, 1], [[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="degenerate"):
        arf_from_data(zero)
