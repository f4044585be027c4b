r"""
Exact pinching tests for integral symplectic matrices of sizes 2 and 4.

A matrix is called pinching when its characteristic polynomial is
irreducible over Q with real simple roots and the Galois group is as
large as the symplectic constraint allows.  For reciprocal quartics
P(x) = x^4 + a x^3 + b x^2 + a x + 1 this is decided by three integers:

    Delta1 = a^2 - 4b + 8,   Delta2 = (b + 2 - 2a)(b + 2 + 2a),
    Delta3 = Delta1 * Delta2,

the Galois group being maximal iff none of them is a perfect square.
Irreducibility and real-rootedness are read off the same integers:
P(x) = x^2 Q(x + 1/x) with Q(y) = y^2 + a y + b - 2, whose discriminant
is Delta1 and whose values at y = +-2 multiply to Delta2.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from . import intlinalg as la


def is_perfect_square(n):
    """Exact test; negative integers are never squares."""
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class ReciprocalQuartic:
    """P(x) = x^4 + a x^3 + b x^2 + a x + 1 with its derived quantities."""

    a: int
    b: int

    @property
    def delta1(self):
        return self.a * self.a - 4 * self.b + 8

    @property
    def delta2(self):
        return (self.b + 2 - 2 * self.a) * (self.b + 2 + 2 * self.a)

    @property
    def delta3(self):
        return self.delta1 * self.delta2

    @property
    def coefficients(self):
        return [1, self.a, self.b, self.a, 1]

    def to_json(self):
        return {
            "a": self.a,
            "b": self.b,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta3": self.delta3,
        }


def quartic_from_charpoly(coeffs):
    """Extract (a, b) from a monic reciprocal quartic coefficient list."""
    coeffs = list(coeffs)
    if len(coeffs) != 5:
        raise ValueError("expected degree 4 (5 coefficients), got %d" % (len(coeffs) - 1))
    if coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    if any(type(c) is not int for c in coeffs):
        raise ValueError("coefficients must be integers")
    if not la.is_reciprocal(coeffs):
        raise ValueError("polynomial must be reciprocal (palindromic)")
    return ReciprocalQuartic(a=coeffs[1], b=coeffs[2])


def has_real_simple_roots(q):
    """True iff the quartic has four real simple roots.

    P(x) = x^2 Q(x + 1/x) with Q(y) = y^2 + a y + b - 2, and x + 1/x = y
    has two real simple roots iff |y| > 2.  So P qualifies iff Q has two
    distinct real roots (Delta1 > 0) outside [-2, 2]: Q(2) and Q(-2) of
    the same sign (Delta2 > 0) and either negative (one root beyond each
    end) or positive with the vertex -a/2 outside [-2, 2].
    """
    q2 = q.b + 2 + 2 * q.a
    return q.delta1 > 0 and q.delta2 > 0 and (q2 < 0 or abs(q.a) > 4)


def is_irreducible(q):
    """Irreducibility of the reciprocal quartic over Q.

    Gauss: a monic integral quartic factors over Q iff it factors over Z.
    A root +-1 of P is a root +-2 of Q (see has_real_simple_roots), so
    each split is either (x^2+px+1)(x^2+rx+1), i.e. Q factors over Z,
    i.e. Delta1 = disc Q is a square, or (x^2+px-1)(x^2-px-1), which
    needs a = 0 and p^2 = -(b+2).
    """
    return not is_perfect_square(q.delta1) and not (
        q.a == 0 and is_perfect_square(-(q.b + 2))
    )


@dataclass(frozen=True)
class Sp4PinchingReport:
    pinching: bool
    quartic: object  # ReciprocalQuartic or None
    reason: str

    def to_json(self):
        return {
            "pinching": self.pinching,
            "quartic": self.quartic.to_json() if self.quartic else None,
            "reason": self.reason,
        }


def is_galois_pinching_sp4(m):
    """Pinching test for a 4x4 integral matrix of determinant one.

    Returns the Sp4PinchingReport of ``sp4_pinching_report`` for the
    characteristic polynomial of m, formed by ``la.charpoly``.
    """
    m = [list(r) for r in m]
    if len(m) != 4 or any(len(r) != 4 for r in m):
        raise ValueError("pinching criteria are implemented for sizes 2 and 4 only")
    return sp4_pinching_report(la.charpoly(m))


def sp4_pinching_report(cp):
    """Pinching test for the characteristic polynomial [1, c1, .., c4] of
    a 4x4 integral matrix of determinant one.

    Returns an Sp4PinchingReport; pinching holds iff cp is an irreducible
    reciprocal quartic with four real simple roots and none of Delta1,
    Delta2, Delta3 is a perfect square.  The final loop tests only Delta2
    and Delta3: a square Delta1 has already returned "characteristic
    polynomial reducible".  The determinant is read off the constant term
    of the (even degree) polynomial, and every coefficient must be an int.
    """
    if len(cp) != 5:
        raise ValueError("pinching criteria are implemented for sizes 2 and 4 only")
    if cp[-1] != 1:
        raise ValueError("matrix must have determinant 1 (symplectic)")
    if not la.is_reciprocal(cp):
        return Sp4PinchingReport(False, None, "characteristic polynomial not reciprocal")
    q = quartic_from_charpoly(cp)
    if not is_irreducible(q):
        return Sp4PinchingReport(False, q, "characteristic polynomial reducible")
    if not has_real_simple_roots(q):
        return Sp4PinchingReport(False, q, "roots not all real and simple")
    for name, value in (("delta2", q.delta2), ("delta3", q.delta3)):
        if is_perfect_square(value):
            return Sp4PinchingReport(False, q, "%s = %d is a perfect square" % (name, value))
    return Sp4PinchingReport(True, q, "ok")


def is_galois_pinching_sl2(m):
    """Pinching for 2x2: |trace| > 2 (then trace^2 - 4 is not a square)."""
    m = [list(r) for r in m]
    if len(m) != 2 or any(len(r) != 2 for r in m):
        raise ValueError("pinching criteria are implemented for sizes 2 and 4 only")
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 1:
        raise ValueError("matrix must have determinant 1")
    tr = m[0][0] + m[1][1]
    # For |tr| >= 3, (|tr| - 1)^2 < tr^2 - 4 < tr^2, so tr^2 - 4 is never
    # a square and the characteristic polynomial is irreducible.
    return abs(tr) > 2

