r"""
Lyapunov exponent data for origamis: the exact sum formula and a Monte
Carlo estimator for random products of cocycle matrices.

The sum of the non-negative homology exponents of a reduced origami is

    (1/12) * sum k(k+2)/(k+1)   +   (1/|orbit|) * sum 1/len(c)

where the first sum runs over the zero orders of the stratum and the
second over all horizontal cycles c of all origamis in the SL(2,Z)
orbit.  The evaluation is exact rational arithmetic.

The Monte Carlo estimator runs a uniform random walk over the four
generator letters, accumulates the corresponding cocycle matrices
restricted to a chosen subspace (full homology, the zero-holonomy part,
or the (-1)-isotypical part W of a central involution), and extracts
exponents by periodic QR re-orthonormalization; ``mc_exponents`` tells
how the trials are walked side by side and what the walk holds.  The
walk law is not the harmonic measure of the Teichmueller flow, so only
law-independent conclusions (zero blocks, symmetry of the spectrum)
should be drawn.  Only the walk uses numpy, and its functions import it
themselves, so that the exact sum formula never loads it.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .homology import StepStack, kz_context
from .orbit import _cycle_lengths
from .origami import is_reduced, stratum

_QR_PERIOD = 20
# bytes of step matrices and row indices a group of the walk gathers: as
# many whole QR periods as fit, and at least one
_GATHER_BYTES = 1 << 20
# 32-bit generator words drawn per refill of a trial's letters
_REFILL_WORDS = 512
# the most trials one estimate walks: every trial's generator, frame
# and group rows are held at once
MAX_TRIALS = 1000


@dataclass(frozen=True)
class EkzReport:
    stratum: str
    combinatorial: Fraction
    cylinder: Fraction
    total: Fraction
    orbit_size: int

    def to_json(self):
        def frac(x):
            return {"num": x.numerator, "den": x.denominator}

        return {
            "stratum": self.stratum,
            "combinatorial": frac(self.combinatorial),
            "cylinder": frac(self.cylinder),
            "total": frac(self.total),
            "orbit": self.orbit_size,
        }


def combinatorial_term(st):
    """(1/12) sum k(k+2)/(k+1) over the zero orders of a stratum."""
    return Fraction(1, 12) * sum(
        (Fraction(k * (k + 2), k + 1) for k in st.orders), Fraction(0)
    )


def ekz_sum(o):
    """Exact sum of the non-negative homology Lyapunov exponents."""
    if not is_reduced(o):
        raise ValueError("the sum formula requires a reduced origami")
    st = stratum(o)
    comb = combinatorial_term(st)
    graph = kz_context(o).graph
    orbit_size = len(graph)
    # the horizontal cycles of the orbit, counted by length
    counts = Counter(
        length for node in range(orbit_size) for length in _cycle_lengths(graph.tables(node)[0])
    )
    cyl = sum((Fraction(c, length) for length, c in counts.items()), Fraction(0)) / orbit_size
    total = comb + cyl
    if total < 1:
        raise AssertionError("exponent sum below the tautological contribution")
    return EkzReport(
        stratum=str(st),
        combinatorial=comb,
        cylinder=cyl,
        total=total,
        orbit_size=orbit_size,
    )


# ---------------------------------------------------------------------------
# Monte Carlo estimation


@dataclass
class McEstimate:
    estimates: list  # sorted descending, mean over trials
    std_errors: list
    steps: int
    trials: int
    seed: int
    subspace: str
    ambiguity_note: str = ""

    def to_json(self):
        return {
            "estimates": self.estimates,
            "std_errors": self.std_errors,
            "steps": self.steps,
            "trials": self.trials,
            "seed": self.seed,
            "subspace": self.subspace,
            "ambiguity_note": self.ambiguity_note,
        }


class _LetterStream:
    """The letters 0..3 that ``rng.randrange(4)`` would draw one by one,
    drawn in bulk.  CPython's ``randrange(4)`` takes the top 3 bits of the
    next 32-bit Mersenne Twister word and draws again while they are 4 or
    more, so its letters are ``w >> 29`` for each word ``w < 2**31`` in
    turn; ``getrandbits(32 * k)`` returns the next k words, the first one
    least significant.  Letters left over from a refill are kept for the
    next ``take``, so at most one refill is buffered."""

    def __init__(self, rng):
        import numpy as np

        self._rng = rng
        self._pending = np.empty(0, dtype=np.uint32)

    def take(self, count):
        """The next ``count`` letters, as a list of ints."""
        import numpy as np

        parts = [self._pending]
        have = len(self._pending)
        while have < count:
            bits = self._rng.getrandbits(32 * _REFILL_WORDS)
            words = np.frombuffer(bits.to_bytes(4 * _REFILL_WORDS, "little"), dtype="<u4")
            fresh = words[words < 2**31] >> 29
            parts.append(fresh)
            have += len(fresh)
        letters = np.concatenate(parts)
        self._pending = letters[count:].copy()
        return letters[:count].tolist()


def _qr(a):
    """Q and diag(R) of ``np.linalg.qr(a)`` for a float64 stack a, by the
    two LAPACK gufuncs it calls, without its copy of a, its ``triu`` of R
    and its errstate guard (geqrf and orgqr fail only on bad arguments).
    a is overwritten with the raw factor, whose diagonal is diag(R)."""
    from numpy.linalg import _umath_linalg

    tau = _umath_linalg.qr_r_raw(a)
    return _umath_linalg.qr_reduced(a, tau), a.diagonal(axis1=-2, axis2=-1)


def _period_products(block):
    """The product of each period of a (periods, length, trials, d, d)
    block of steps, each later step on the left of the one before it.
    Batched products halve the step axis; an odd last step waits at the
    end for the next level."""
    import numpy as np

    length = block.shape[1]
    while length > 1:
        half = np.matmul(block[:, 1::2], block[:, : length - 1 : 2])
        if length % 2:
            half = np.concatenate([half, block[:, -1:]], axis=1)
        block, length = half, (length + 1) // 2
    return block[:, 0]


def mc_exponents(o, subspace="full", steps=10000, trials=10, seed=None):
    """Monte Carlo Lyapunov exponents of the uniform generator walk.

    Deterministic given (seed, steps, trials).  Each trial's exponents
    are sorted in decreasing order; the estimates are their means with
    standard errors across trials.  ``trials`` is at most ``MAX_TRIALS``.

    Trial t walks with ``random.Random((seed << 32) ^ t)``, taking the
    letters ``randrange(4)`` would: each refill reads ``_REFILL_WORDS``
    32-bit words with one ``getrandbits`` call and keeps ``w >> 29`` of
    every word ``w < 2**31``, which is what ``randrange(4)`` returns for
    that word (it rejects the rest).  A trial holds its generator, fewer
    than ``_REFILL_WORDS`` buffered letters (4 bytes each), its current
    node and its d x d QR frame.

    The trials walk side by side, one group of whole 20-step QR periods
    at a time; only the walk's last group may end in a partial period.
    A group has as many periods as fit in ``_GATHER_BYTES`` (1 MiB), and
    at least one, charged per step and trial for one row index, held as
    a list entry and as an intp, and one d x d float step matrix.  Each
    trial takes the group's letters at once and turns them into rows of
    the step stack in one Python pass; the rows make one (steps, trials)
    index array, which gathers one block of step matrices.  Batched
    products halve the block's step axis within each period, each later
    step on the left, down to one product per period; they hold at most
    as much again as the block.  Each period then takes one batched
    product with the (trials, d, d) frame and one batched QR, ``_qr``.

    A period's product of integer steps is exact while the entries of
    the product of their absolute values, which bound every partial
    product and partial sum, stay below 2**53, so the frame is rounded
    once per period, not once per step.  The bound is not checked, and
    it does not always hold: along random 20-step walks it was passed at
    step 13 on ``z6`` (``full``) and reached 2**75.9 on ``ltilde``
    (``H1_zero``), while on l3, dema, ew and mstar it stayed at or below
    2**32; where it is passed the product is rounded as well.  After
    each period's QR the frame's columns are negated in place where
    diag(R) is negative, which is ``np.sign``'s flip for every diagonal
    but NaN, whose column it leaves as it is; the diagonals of a group's
    periods are stored in one (periods + 1, trials, d) block behind the
    running sums, and their logs (of ``tiny`` where a diagonal is 0) are
    taken once per group and added in period order.

    The state above does not grow with ``steps``, but the walk keeps one
    float d x d matrix per (node, letter) it has reached, and the context
    each node's homology and each step's integer matrix, so memory stops
    growing only once the walk has reached every node and step of the
    orbit: on ``z6`` a new node holds about 2.45 MB and a new step about
    1.37 MB (0.68 MB of integer matrix and 0.69 MB of float copy).
    """
    import numpy as np

    if seed is None:
        raise ValueError("a seed is required for reproducible estimates")
    for name, value in (("steps", steps), ("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("%s must be an int, not %r" % (name, value))
    if steps < 1 or trials < 1:
        raise ValueError("steps and trials must be at least 1")
    if trials > MAX_TRIALS:
        raise ValueError("trials must be at most %d, not %d" % (MAX_TRIALS, trials))
    if seed < 0:
        # random.Random seeds from the absolute value, so trial 0 of a
        # negative seed would walk as trial 0 of its negation
        raise ValueError("seed must be non-negative, not %d" % seed)
    if not is_reduced(o):
        raise ValueError("the random walk estimator requires a reduced origami")
    ctx = kz_context(o)
    stack = StepStack(ctx, subspace, float)
    rows, targets, dim = stack.rows, stack.targets, stack.dim
    note = ""
    if not ctx.graph.rigid[ctx.graph.basepoint]:
        note = (
            "nontrivial deck transformations: cocycle matrices are only "
            "defined up to the automorphism action"
        )
    streams = [_LetterStream(random.Random((seed << 32) ^ trial)) for trial in range(trials)]
    nodes = [ctx.graph.basepoint] * trials
    q = np.tile(np.eye(dim), (trials, 1, 1))
    sums = np.zeros((trials, dim))
    # a list entry is a pointer, as wide as an intp
    step_bytes = trials * (2 * np.dtype(np.intp).itemsize + dim * dim * stack.mats.itemsize)
    group_steps = _QR_PERIOD * max(1, _GATHER_BYTES // (_QR_PERIOD * step_bytes))
    tiny = np.finfo(float).tiny
    get = rows.get
    for start in range(0, steps, group_steps):
        count = min(group_steps, steps - start)
        picked = []
        append = picked.append
        for trial, stream in enumerate(streams):
            node = nodes[trial]
            for letter in stream.take(count):
                row = get(4 * node + letter)
                if row is None:
                    row = stack.add(node, letter)
                append(row)
                node = targets[row]
            nodes[trial] = node
        block = stack.mats[np.array(picked, dtype=np.intp).reshape(trials, count).T]
        whole, rest = divmod(count, _QR_PERIOD)
        products = []
        if whole:
            periods = block[: count - rest].reshape(whole, _QR_PERIOD, trials, dim, dim)
            products.extend(_period_products(periods))
        if rest:
            products.extend(_period_products(block[None, count - rest :]))
        # row 0 is the running sums, row k diag(R) of period k and then
        # its log; accumulate adds the rows in order, as a running += would
        logs = np.empty((len(products) + 1, trials, dim))
        logs[0] = sums
        for k, product in enumerate(products, 1):
            q, logs[k] = _qr(np.matmul(product, q))
            np.negative(q, out=q, where=(logs[k] < 0)[:, None, :])
        diag = np.abs(logs[1:])
        diag[diag == 0] = tiny
        np.log(diag, out=logs[1:])
        sums = np.add.accumulate(logs, axis=0)[-1]
    # QR column order need not be the order of the exponents, so each
    # trial is sorted before the trials are averaged; the copy is C-ordered,
    # so the reductions below add the trials in the order they always have
    data = np.sort(sums / steps, axis=1)[:, ::-1].copy()
    means = data.mean(axis=0)
    if trials > 1:
        errs = data.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        errs = np.zeros(dim)
    return McEstimate(
        estimates=[float(x) for x in means],
        std_errors=[float(x) for x in errs],
        steps=steps,
        trials=trials,
        seed=seed,
        subspace=subspace,
        ambiguity_note=note,
    )


def w_exponent_from_sum(report, multiplicity=4):
    """Solve total = 7/3 + multiplicity * lambda for the genus 11
    quaternionic cover, under the stated multiplicity assumption for the
    12-dimensional faithful isotypical block."""
    if type(multiplicity) is not int or multiplicity < 1:
        raise ValueError("the multiplicity must be a positive integer, not %r" % (multiplicity,))
    return (report.total - Fraction(7, 3)) / multiplicity
