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
exponents by periodic QR re-orthonormalization.  The trials walk side by
side, one QR period of 20 steps at a time: each trial draws its letters
for the period from its own generator, the float step matrices of the
period are gathered into a (trials, period, d, d) block, each step is one
batched product on the (trials, d, d) stack, and the period ends with one
batched QR.  Besides that block the walk keeps one float d x d matrix per
(node, letter) it has reached; nothing grows with the number of steps.
The walk law is not the harmonic measure of the Teichmueller flow, so
only law-independent conclusions (zero blocks, symmetry of the spectrum)
should be drawn.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .homology import StepStack, kz_context
from .orbit import _cycle_lengths
from .origami import automorphisms, is_reduced, stratum

_QR_PERIOD = 20


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


def mc_exponents(o, subspace="full", steps=10000, trials=10, seed=None):
    """Monte Carlo Lyapunov exponents of the uniform generator walk.

    Deterministic given (seed, steps, trials).  Each trial's exponents
    are sorted in decreasing order; the estimates are their means with
    standard errors across trials.
    """
    if seed is None:
        raise ValueError("a seed is required for reproducible estimates")
    for name, value in (("steps", steps), ("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError("%s must be an int, not %r" % (name, value))
    if steps < 1 or trials < 1:
        raise ValueError("steps and trials must be at least 1")
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
    if len(automorphisms(ctx.graph.nodes[ctx.graph.basepoint])) > 1:
        note = (
            "nontrivial deck transformations: cocycle matrices are only "
            "defined up to the automorphism action"
        )
    rngs = [random.Random((seed << 32) ^ trial) for trial in range(trials)]
    nodes = [ctx.graph.basepoint] * trials
    q = np.tile(np.eye(dim), (trials, 1, 1))
    sums = np.zeros((trials, dim))
    for start in range(0, steps, _QR_PERIOD):
        period = min(_QR_PERIOD, steps - start)
        picked = []
        for trial, rng in enumerate(rngs):
            node = nodes[trial]
            for _ in range(period):
                letter = rng.randrange(4)
                row = rows.get(4 * node + letter)
                if row is None:
                    row = stack.add(node, letter)
                picked.append(row)
                node = targets[row]
            nodes[trial] = node
        block = stack.mats[np.reshape(picked, (trials, period))]
        for j in range(period):
            q = block[:, j] @ q
        q, r = np.linalg.qr(q)
        r_diag = np.diagonal(r, axis1=1, axis2=2)
        diag = np.abs(r_diag)
        diag[diag == 0] = np.finfo(float).tiny
        sums += np.log(diag)
        signs = np.sign(r_diag)
        signs[signs == 0] = 1.0
        q = q * signs[:, None, :]
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
    return (report.total - Fraction(7, 3)) / multiplicity
