"""End-to-end acceptance checks with explicit runtime budgets.

Each test pins down a headline computation: strata and genera of the
bundled surfaces, spin parities, orbit sizes, the exact exponent-sum
values, the full simplicity pipeline for the 8-square counterexample,
the Lie-algebra density computation, the quaternionic isotypical block,
Monte Carlo behaviour of the finite-group cover, and the eigenvalue
bound.  Property-style invariants (composition laws, canonical-form
invariance, irreducibility brute force) close the suite.
"""

import math
import random
import time
from fractions import Fraction

import pytest
import sympy

from origami_lab import intlinalg as la
from origami_lab.covers import quaternionic_block_report
from origami_lab.galois import ReciprocalQuartic, is_irreducible, is_perfect_square
from origami_lab.homology import kz_context, kz_matrix, restrict, tautological_split
from origami_lab.lyapunov import ekz_sum, mc_exponents, w_exponent_from_sum
from origami_lab.orbit import Sl2zWord, sl2z_orbit, sl2z_word, veech_generators
from origami_lab.origami import Origami, canonical_form, genus, load_origami, stratum
from origami_lab.perm import Permutation
from origami_lab.simplicity import (
    NotFound,
    certify_simplicity,
    cylinder_span_dim,
    verify_certificate,
)
from origami_lab.spectral import buser_bound, trace_to_length
from origami_lab.spin import spin_parity

from conftest import fixture_origami, fixture_path
from inverse_oracle import invert
from lie_oracle import lie_algebra_dim, unipotent_log
from span_oracle import rational_rank


class budget:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                "runtime %.1fs exceeded the %.0fs budget" % (elapsed, self.seconds)
            )
        return False


def test_strata_and_genus_goldens():
    with budget(5):
        l3 = fixture_origami("l3")
        assert str(stratum(l3)) == "H(2)"
        assert genus(l3) == 2
        assert str(stratum(fixture_origami("mstar"))) == "H(4)"
        lt = fixture_origami("ltilde")
        assert str(stratum(lt)) == "H(5,5,5,5)"
        assert genus(lt) == 11
        assert genus(load_origami(fixture_path("z6_origami"))) == 147


def test_spin_parities():
    with budget(10):
        assert spin_parity(fixture_origami("mstar")) == 1
        assert spin_parity(fixture_origami("mstarstar")) == 0
        assert spin_parity(fixture_origami("mbar_star_3")) == 1
        assert spin_parity(fixture_origami("mbar_star_5")) == 1


def test_orbit_sizes():
    with budget(60):
        assert len(sl2z_orbit(fixture_origami("dema")).nodes) == 3
        assert len(sl2z_orbit(fixture_origami("ltilde")).nodes) == 12
        mstar_orbit = sl2z_orbit(fixture_origami("mstar"))
        mbar = canonical_form(fixture_origami("mbar_star")).origami
        assert mbar in mstar_orbit.nodes


def test_exponent_sums_exact():
    with budget(120):
        assert ekz_sum(fixture_origami("l3")).total == Fraction(4, 3)
        report = ekz_sum(fixture_origami("ltilde"))
        assert report.total == 3
        assert w_exponent_from_sum(report, multiplicity=4) == Fraction(1, 6)


def test_simplicity_pipeline():
    with budget(300):
        dema = fixture_origami("dema")
        graph = sl2z_orbit(dema)
        assert len(graph.nodes) == 3
        for node in graph.nodes:
            assert cylinder_span_dim(node) == 2

        m = [list(r) for r in kz_matrix(dema, Sl2zWord.parse("T8SSTTSS")).matrix]
        _taut, zero = tautological_split(
            kz_context(dema).homology(kz_context(dema).graph.basepoint)
        )
        mz = restrict(m, zero, zero)
        assert la.charpoly(mz) == [1, -2, -30, -2, 1]
        q = ReciprocalQuartic(a=-2, b=-30)
        assert (q.delta1, q.delta2, q.delta1 * q.delta2) == (132, 768, 101376)
        for value in (q.delta1, q.delta2, q.delta1 * q.delta2):
            assert not is_perfect_square(value)

        cert = certify_simplicity(dema, search_depth=12)
        assert not isinstance(cert, NotFound)
        assert verify_certificate(cert)


def test_lie_algebra_density():
    with budget(60):
        ctx = kz_context(fixture_origami("mstar"))
        base = ctx.graph.basepoint
        _taut, zero = tautological_split(ctx.homology(base))

        def zero_restriction(mat2):
            end, total = ctx.word_matrix(sl2z_word(mat2))
            assert end == base
            return restrict(total, zero, zero)

        a = zero_restriction(((1, 6), (0, 1)))
        b = zero_restriction(((1, 0), (6, 1)))
        c = zero_restriction(((-2, 3), (-3, 4)))
        for u in (a, b):
            assert la.charpoly(u) == [1, -4, 6, -4, 1]
        log_a = unipotent_log(a)

        def conj(g, x):
            return la.mat_mul(la.mat_mul(g, x), invert(g))

        mm = la.mat_mul
        conjugators = (
            b,
            mm(b, b),
            mm(a, b),
            mm(mm(a, a), b),
            mm(mm(b, a), b),
            c,
            mm(c, c),
            mm(a, c),
            mm(b, c),
        )
        gens = [log_a] + [conj(g, log_a) for g in conjugators]
        assert rational_rank([[x for row in g for x in row] for g in gens]) == 10
        assert lie_algebra_dim(gens) == 10


def test_quaternionic_isotypical_block():
    # the central involution and the deck lifts are chosen
    # deterministically, so both targets must match every time
    report = quaternionic_block_report()
    assert report["dim_W"] == 12
    assert report["diagnostics"] == []
    assert len(report["targets"]) == 2
    assert all(t["ok"] for t in report["targets"])
    assert report["span_dim_1_eigenspaces"] == 8


def test_monte_carlo_zero_block_and_symmetry():
    with budget(60):
        ew = fixture_origami("ew")
        est = mc_exponents(ew, subspace="H1_zero", steps=10000, trials=20, seed=11)
        assert all(abs(x) < 0.02 for x in est.estimates)
        sigma = [max(e, 1e-9) for e in est.std_errors]
        for lo, hi, s in zip(est.estimates, reversed(est.estimates), sigma):
            assert abs(lo + hi) <= 3 * s + 1e-3


def test_eigenvalue_bound():
    for k in range(3, 101):
        assert buser_bound(k) < 1 / (2 * k)
    assert trace_to_length(34) / 2 < 3.5255


# ---------------------------------------------------------------------------
# Property suites


def test_step_matrices_symplectic_everywhere():
    for name in ("l3", "mstar", "dema", "ew"):
        ctx = kz_context(fixture_origami(name))
        for node in range(len(ctx.graph.nodes)):
            js = ctx.homology(node).intersection
            for letter in "TSts":
                target, m = ctx.step(node, letter)
                jt = ctx.homology(target).intersection
                assert la.mat_eq(la.mat_mul(la.transpose(m), la.mat_mul(jt, m)), js)


def test_cocycle_composition_law():
    dema = fixture_origami("dema")
    gens = veech_generators(dema)
    rng = random.Random(10)

    def random_loop():
        w = Sl2zWord(())
        for _ in range(rng.randint(1, 3)):
            w = w * rng.choice(gens)
        return w

    for _ in range(100):
        w1, w2 = random_loop(), random_loop()
        m1 = [list(r) for r in kz_matrix(dema, w1).matrix]
        m2 = [list(r) for r in kz_matrix(dema, w2).matrix]
        m12 = [list(r) for r in kz_matrix(dema, w1 * w2).matrix]
        assert la.mat_eq(la.mat_mul(m1, m2), m12)


def test_spin_parity_constant_on_orbits():
    for name in ("l3", "dema", "mstar", "mstarstar"):
        o = fixture_origami(name)
        values = {spin_parity(node) for node in sl2z_orbit(o).nodes}
        assert len(values) == 1


def test_canonical_form_sweep():
    rng = random.Random(123)
    count = 0
    while count < 1000:
        n = rng.randint(1, 10)
        h = list(range(1, n + 1))
        v = list(range(1, n + 1))
        rng.shuffle(h)
        rng.shuffle(v)
        try:
            o = Origami(Permutation(h), Permutation(v))
        except ValueError:
            continue
        count += 1
        canon, relabel = canonical_form(o)
        assert canonical_form(canon).origami == canon
        assert o.relabel(relabel) == canon
        images = list(range(1, n + 1))
        rng.shuffle(images)
        twin = o.relabel(Permutation(images))
        assert canonical_form(twin).origami == canon


def test_irreducibility_brute_force():
    x = sympy.symbols("x")
    rng = random.Random(321)
    for _ in range(1000):
        q = ReciprocalQuartic(a=rng.randint(-12, 12), b=rng.randint(-40, 40))
        poly = sympy.Poly(
            x**4 + q.a * x**3 + q.b * x**2 + q.a * x + 1, x, domain="QQ"
        )
        factors = poly.factor_list()[1]
        brute = len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == 4
        assert is_irreducible(q) == brute, (q.a, q.b)
