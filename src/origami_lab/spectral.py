"""
Hyperbolic geodesic lengths from traces and the Buser-type upper bound
for the bottom of the Laplacian spectrum of a family of congruence-like
covers indexed by k.

A hyperbolic element of SL(2,R) with |trace| > 2 translates along a
geodesic of length 2*arccosh(|t|/2).  Covers containing a short closed
geodesic of length 2*arccosh(17) split into two large pieces whose
common boundary is k copies of that geodesic; the resulting Cheeger
constant bound feeds Buser's inequality and yields an upper bound for
the first eigenvalue that beats 1/(2k) for k >= 3.
"""

from __future__ import annotations

import math
import sys

_ACOSH17 = math.acosh(17)


def trace_to_length(t):
    """Translation length 2*arccosh(|t|/2) of a hyperbolic element with
    integer trace t; requires 2 < |t| <= the largest float."""
    t = int(t)
    if abs(t) <= 2:
        raise ValueError("trace %d is not hyperbolic (need |t| > 2)" % t)
    if abs(t) > sys.float_info.max:
        raise ValueError("|trace| must be at most %.4g" % sys.float_info.max)
    return 2.0 * math.acosh(abs(t) / 2.0)


def buser_bound(k):
    """Upper bound for the first Laplacian eigenvalue of the k-th cover:

        (5*arccosh(17)^2 / (9*k*pi^2) + 2*arccosh(17) / (3*pi)) * 1/(2k)

    For k >= 3 the bracket is < 1, so the bound beats 1/(2k).  2k must be
    at most the largest float."""
    k = int(k)
    if k < 1:
        raise ValueError("k must be a positive integer")
    if 2 * k > sys.float_info.max:
        raise ValueError("k must be at most %.4g" % (sys.float_info.max / 2))
    bracket = 5.0 * _ACOSH17**2 / (9.0 * k * math.pi**2) + 2.0 * _ACOSH17 / (
        3.0 * math.pi
    )
    return bracket / (2.0 * k)
