import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from origami_lab import intlinalg as la
from origami_lab import lyapunov
from origami_lab.homology import kz_context
from origami_lab.lyapunov import (
    combinatorial_term,
    ekz_sum,
    mc_exponents,
    w_exponent_from_sum,
)
from origami_lab.orbit import _LETTERS
from origami_lab.origami import Origami, Stratum, stratum
from origami_lab.perm import Permutation

from conftest import fixture_origami


def test_torus_sum_is_one():
    torus = Origami(Permutation([1]), Permutation([1]))
    report = ekz_sum(torus)
    assert report.combinatorial == 0
    assert report.cylinder == 1
    assert report.total == 1
    assert report.orbit_size == 1


def test_l3_sum(l3):
    report = ekz_sum(l3)
    assert report.total == Fraction(4, 3)


def test_ltilde_sum_and_lambda(ltilde):
    report = ekz_sum(ltilde)
    assert report.combinatorial == Fraction(35, 18)
    assert report.cylinder == Fraction(19, 18)
    assert report.total == 3
    assert report.orbit_size == 12
    assert w_exponent_from_sum(report) == Fraction(1, 6)


@pytest.mark.parametrize("multiplicity", [0, -3, 2.0, True, "4"])
def test_w_exponent_needs_a_positive_int_multiplicity(multiplicity):
    report = SimpleNamespace(total=Fraction(3))
    with pytest.raises(ValueError, match="positive integer"):
        w_exponent_from_sum(report, multiplicity)


def test_combinatorial_term_h4():
    assert combinatorial_term(Stratum((4,), 3)) == Fraction(1, 12) * Fraction(24, 5)


def test_sum_is_basepoint_independent(dema):
    from origami_lab.orbit import sl2z_orbit

    values = {ekz_sum(node).total for node in sl2z_orbit(dema).nodes}
    assert len(values) == 1


def test_ekz_rejects_non_reduced():
    o = Origami(Permutation([2, 1]), Permutation([1, 2]).inverse())
    # 2-square torus cover, not reduced
    with pytest.raises(ValueError):
        ekz_sum(o)


def test_report_json_fractions(l3):
    payload = ekz_sum(l3).to_json()
    assert payload["total"] == {"num": 4, "den": 3}
    assert payload["orbit"] == 3


def test_mc_requires_seed(l3):
    with pytest.raises(ValueError):
        mc_exponents(l3, steps=100, trials=2, seed=None)


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_mc_rejects_negative_seeds(l3, seed):
    with pytest.raises(ValueError, match="seed must be non-negative"):
        mc_exponents(l3, steps=100, trials=1, seed=seed)


def test_mc_rejects_more_than_max_trials(l3, monkeypatch):
    # refused before the context, the step stack or a generator is built
    def unreachable(*args):
        raise AssertionError("allocated before the trials bound was checked")

    monkeypatch.setattr(lyapunov, "kz_context", unreachable)
    monkeypatch.setattr(lyapunov, "random", SimpleNamespace(Random=unreachable))
    for trials in (lyapunov.MAX_TRIALS + 1, 100000000000):
        with pytest.raises(ValueError, match="trials must be at most %d" % lyapunov.MAX_TRIALS):
            mc_exponents(l3, steps=20, trials=trials, seed=1)


def test_mc_accepts_max_trials(l3):
    est = mc_exponents(l3, steps=1, trials=lyapunov.MAX_TRIALS, seed=1)
    assert est.trials == lyapunov.MAX_TRIALS and len(est.estimates) == 4


def test_mc_rejects_bad_subspace(l3):
    with pytest.raises(ValueError):
        mc_exponents(l3, subspace="nope", steps=100, trials=2, seed=1)


def test_mc_reproducible(l3):
    a = mc_exponents(l3, subspace="full", steps=500, trials=3, seed=42)
    b = mc_exponents(l3, subspace="full", steps=500, trials=3, seed=42)
    assert a.estimates == b.estimates
    assert a.std_errors == b.std_errors
    c = mc_exponents(l3, subspace="full", steps=500, trials=3, seed=43)
    assert c.estimates != a.estimates


def test_mc_sorts_each_trial_before_averaging(l3, monkeypatch):
    # two one-step walks, by T and by S (letter indices 0 and 1); the QR
    # diagonal of the T step comes out unordered, so averaging in column
    # order would mix its second and third exponents
    letters = iter([0, 1])

    class Scripted:
        def __init__(self, seed):
            self.letter = next(letters)

        def getrandbits(self, k):
            # k // 32 words, each of which randrange(4) reads as the letter
            word = self.letter << 29
            return sum(word << (32 * i) for i in range(k // 32))

    monkeypatch.setattr(lyapunov, "random", SimpleNamespace(Random=Scripted))
    est = mc_exponents(l3, subspace="full", steps=1, trials=2, seed=1)
    ctx = kz_context(l3)
    trials = []
    for letter in "TS":
        _target, m = ctx.step(ctx.graph.basepoint, letter)
        r = np.linalg.qr(np.array(m, dtype=float))[1]
        trials.append(sorted(np.log(np.abs(np.diag(r))), reverse=True))
    assert est.estimates == pytest.approx(list(np.mean(trials, axis=0)))
    assert est.std_errors == pytest.approx(list(np.std(trials, axis=0, ddof=1) / np.sqrt(2)))


def test_mc_spectrum_symmetric(l3, dema):
    for o in (l3, dema):
        est = mc_exponents(o, subspace="full", steps=4000, trials=6, seed=5)
        values = est.estimates
        sigma = [max(e, 1e-9) for e in est.std_errors]
        for lo, hi, s in zip(values, reversed(values), sigma):
            assert abs(lo + hi) <= 3 * s + 1e-3


def test_mc_ew_zero_block(ew):
    est = mc_exponents(ew, subspace="H1_zero", steps=5000, trials=5, seed=9)
    assert all(abs(x) < 0.02 for x in est.estimates)
    assert est.ambiguity_note  # EW has nontrivial deck transformations


def test_mc_w_subspace_runs(ew):
    est = mc_exponents(ew, subspace="W", steps=500, trials=2, seed=3)
    assert len(est.estimates) >= 2


def _letter_takes(rng, counts):
    stream = lyapunov._LetterStream(rng)
    return [stream.take(count) for count in counts]


_HALF_REFILL = lyapunov._REFILL_WORDS // 2


@pytest.mark.parametrize("seed", [0, 1, 2**40])
@pytest.mark.parametrize(
    "counts",
    [
        [0],
        [1],
        [0, 1, 0, 2],
        # about half of a refill's words are kept, so these cross one or
        # more refill boundaries, within one take and between takes
        [_HALF_REFILL - 1, 2, _HALF_REFILL],
        [3 * lyapunov._REFILL_WORDS],
        [1000, 1000, 999, 1, 21],
    ],
    ids=["zero", "one", "empty-takes", "across-a-refill", "three-refills", "chunk-sized"],
)
def test_letter_stream_draws_the_randrange_letters(seed, counts):
    expected_rng = random.Random(seed)
    expected = [[expected_rng.randrange(4) for _ in range(count)] for count in counts]
    assert _letter_takes(random.Random(seed), counts) == expected


def _untemper(y):
    """The Mersenne Twister state word that the output tempering maps to y."""

    def undo_right(y, shift):
        x = y
        for _ in range(32 // shift + 1):
            x = y ^ (x >> shift)
        return x

    def undo_left(y, shift, mask):
        x = y
        for _ in range(32 // shift + 1):
            x = y ^ ((x << shift) & mask)
        return x & 0xFFFFFFFF

    y = undo_right(y, 18)
    y = undo_left(y, 15, 0xEFC60000)
    y = undo_left(y, 7, 0x9D2C5680)
    return undo_right(y, 11)


def _rng_emitting(words):
    """A random.Random whose next 32-bit outputs are ``words``."""
    rng = random.Random(0)
    version, state, gauss = rng.getstate()
    index = 624 - len(words)
    mt = list(state[:624])
    mt[index:] = [_untemper(w) for w in words]
    rng.setstate((version, tuple(mt) + (index,), gauss))
    return rng


def test_letter_stream_on_boundary_words():
    # the words around each letter boundary and around the rejection
    # bound 2**31, then the generator's own words after them
    words = [0, 2**29 - 1, 2**29, 2**30 - 1, 2**30, 3 * 2**29 - 1, 3 * 2**29]
    words += [2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**31, 2**31 - 1]
    check = _rng_emitting(words)
    assert [check.getrandbits(32) for _ in words] == words
    expected_rng = _rng_emitting(words)
    expected = [expected_rng.randrange(4) for _ in range(2 * _HALF_REFILL)]
    assert expected[:9] == [0, 0, 1, 1, 2, 2, 3, 3, 3]
    counts = [1, 8, 2 * _HALF_REFILL - 9]
    assert sum(_letter_takes(_rng_emitting(words), counts), []) == expected


def _walk_trials(o, subspace, steps, trials, seed, apply_period):
    """The trial-by-trial Monte Carlo walk: each trial in turn walks its
    steps, and for each period of 20 of them (the last may be shorter)
    replaces its frame q by ``apply_period(mats, q)``, with mats the int
    step matrices of the period, and takes one QR.  Returns (estimates,
    std_errors).  The QR period is written out, so that a changed
    ``_QR_PERIOD`` fails the comparison."""
    ctx = kz_context(o)
    dim = len(ctx.basis(ctx.graph.basepoint, subspace))
    per_trial = []
    for trial in range(trials):
        rng = random.Random((int(seed) << 32) ^ trial)
        node = ctx.graph.basepoint
        taken = []
        for _ in range(steps):
            node, m = ctx.step(node, _LETTERS[rng.randrange(4)], subspace)
            taken.append(m)
        q = np.eye(dim)
        sums = np.zeros(dim)
        for start in range(0, steps, 20):
            q, r = np.linalg.qr(apply_period(taken[start : start + 20], q))
            diag = np.abs(np.diag(r))
            diag[diag == 0] = np.finfo(float).tiny
            sums += np.log(diag)
            signs = np.sign(np.diag(r))
            signs[signs == 0] = 1.0
            q = q * signs
        per_trial.append(np.sort(sums / steps)[::-1])
    data = np.array(per_trial)
    means = data.mean(axis=0)
    if trials > 1:
        errs = data.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        errs = np.zeros(dim)
    return [float(x) for x in means], [float(x) for x in errs]


def _exact_period(mats, q):
    """P q, with P the period's product formed in Python ints, each later
    step on the left, and converted to floats once; every entry of P must
    be below 2**53, so that the conversion is exact."""
    product = mats[0]
    for m in mats[1:]:
        product = la.mat_mul(m, product)
    assert all(abs(x) < 2**53 for row in product for x in row)
    return np.array(product, dtype=float) @ q


def _per_step_period(mats, q):
    """q multiplied by each step of the period in turn, in floats."""
    for m in mats:
        q = np.array(m, dtype=float) @ q
    return q


def _mc_reference(o, subspace, steps, trials, seed):
    return _walk_trials(o, subspace, steps, trials, seed, _exact_period)


def _mc_per_step_reference(o, subspace, steps, trials, seed):
    return _walk_trials(o, subspace, steps, trials, seed, _per_step_period)


_MC_CASES = [("l3", "full"), ("dema", "full"), ("dema", "H1_zero"), ("ew", "H1_zero"), ("ew", "W")]


# 999, 1000 and 1001 steps end just before, at and just after the end of
# the first 50-period chunk; 2021 spans three chunks and, in every trial,
# several letter refills whose leftovers carry over between chunks
@pytest.mark.parametrize("steps", [1, 19, 20, 21, 500, 999, 1000, 1001, 2021])
@pytest.mark.parametrize("name, subspace", _MC_CASES)
def test_mc_matches_trial_by_trial_reference(name, subspace, steps):
    o = fixture_origami(name)
    for trials in (1, 3):
        seed = 1000 * steps + trials
        est = mc_exponents(o, subspace=subspace, steps=steps, trials=trials, seed=seed)
        assert (est.estimates, est.std_errors) == _mc_reference(o, subspace, steps, trials, seed)


# a group of 1 or 3 periods: 3 periods split a 50-period chunk into 16
# groups and a last one of 2
@pytest.mark.parametrize("periods", [1, 3])
@pytest.mark.parametrize("steps", [19, 41, 1001, 2021])
@pytest.mark.parametrize("name, subspace", _MC_CASES)
def test_mc_matches_reference_with_small_groups(name, subspace, steps, periods, monkeypatch):
    o = fixture_origami(name)
    ctx = kz_context(o)
    dim = len(ctx.basis(ctx.graph.basepoint, subspace))
    for trials in (1, 3):
        period_bytes = 20 * trials * dim * dim * 8
        # one byte short of the next period, which must not fit
        monkeypatch.setattr(lyapunov, "_GATHER_BYTES", (periods + 1) * period_bytes - 1)
        seed = 1000 * steps + trials
        est = mc_exponents(o, subspace=subspace, steps=steps, trials=trials, seed=seed)
        assert (est.estimates, est.std_errors) == _mc_reference(o, subspace, steps, trials, seed)


@pytest.mark.parametrize("name, subspace", _MC_CASES)
def test_mc_near_the_per_step_product(name, subspace):
    # the exact period product rounds the frame once per period, where a
    # product per step rounds it 20 times; the estimates move in the last
    # bits only
    o = fixture_origami(name)
    est = mc_exponents(o, subspace=subspace, steps=2021, trials=3, seed=11)
    estimates, errs = _mc_per_step_reference(o, subspace, 2021, 3, 11)
    assert est.estimates == pytest.approx(estimates, rel=0, abs=1e-12)
    assert est.std_errors == pytest.approx(errs, rel=0, abs=1e-12)


@pytest.mark.parametrize("dim", [0, 1, 4, 22])
def test_raw_qr_matches_numpy_qr(dim):
    # the two LAPACK gufuncs behind np.linalg.qr, called directly: a numpy
    # that changes them fails here
    rng = np.random.default_rng(dim)
    for a in (rng.standard_normal((3, dim, dim)), rng.integers(-3, 4, (3, dim, dim)).astype(float)):
        q, r = np.linalg.qr(a)
        raw_q, raw_diag = lyapunov._qr(a.copy())
        assert raw_q.shape == q.shape and np.array_equal(raw_q, q)
        assert np.array_equal(raw_diag, np.diagonal(r, axis1=1, axis2=2))


@pytest.mark.parametrize("trials", [1, 3])
def test_mc_zero_dimensional_subspace(trials):
    torus = Origami(Permutation([1]), Permutation([1]))
    est = mc_exponents(torus, subspace="H1_zero", steps=50, trials=trials, seed=1)
    assert est.estimates == [] and est.std_errors == []


@pytest.mark.parametrize(
    "argument, value",
    [
        ("steps", 2.5),
        ("steps", True),
        ("steps", "100"),
        ("trials", 2.0),
        ("trials", True),
        ("seed", "7"),
        ("seed", 1.5),
        ("seed", False),
    ],
)
def test_mc_rejects_non_int_arguments(l3, argument, value):
    kwargs = {"steps": 100, "trials": 2, "seed": 1, argument: value}
    with pytest.raises(ValueError, match=argument):
        mc_exponents(l3, **kwargs)


def _gather_groups(steps, trials, dim):
    """The groups of periods ``mc_exponents`` gathers: per 1,000-step
    chunk, its whole periods in groups of as many as fit in
    ``_GATHER_BYTES``, and a partial last period on its own."""
    group = max(1, lyapunov._GATHER_BYTES // (20 * trials * dim * dim * 8))
    count = 0
    for start in range(0, steps, 1000):
        whole, rest = divmod(min(1000, steps - start), 20)
        count += math.ceil(whole / group) + (rest > 0)
    return count


def test_mc_batches_trials(l3, dema, monkeypatch):
    # one raw QR per period whatever the number of trials, one product
    # per period with the frame and five halving levels per group, each a
    # single batched product; and each step matrix fetched once per call
    # ("full", where KzContext.step makes no nested step call)
    real_qr_r_raw, real_matmul = _umath_linalg.qr_r_raw, np.matmul
    qr_calls = []
    matmul_calls = []

    def counting_qr_r_raw(a, **kwargs):
        qr_calls.append(a.shape)
        return real_qr_r_raw(a, **kwargs)

    def counting_matmul(*args, **kwargs):
        matmul_calls.append(1)
        return real_matmul(*args, **kwargs)

    monkeypatch.setattr(_umath_linalg, "qr_r_raw", counting_qr_r_raw)
    monkeypatch.setattr(np, "matmul", counting_matmul)
    for o in (l3, dema):
        ctx = kz_context(o)
        dim = len(ctx.basis(ctx.graph.basepoint, "full"))
        real_step = ctx.step
        step_calls = []

        def counting_step(*args):
            step_calls.append(args)
            return real_step(*args)

        monkeypatch.setattr(ctx, "step", counting_step)
        for steps in (1, 20, 21, 500, 1001):
            for trials in (2, 5):
                qr_calls.clear()
                matmul_calls.clear()
                step_calls.clear()
                mc_exponents(o, subspace="full", steps=steps, trials=trials, seed=steps)
                periods = math.ceil(steps / 20)
                assert len(qr_calls) == periods
                assert all(shape[0] == trials for shape in qr_calls)
                assert len(matmul_calls) <= periods + 5 * _gather_groups(steps, trials, dim)
                assert step_calls and len(step_calls) == len(set(step_calls))
