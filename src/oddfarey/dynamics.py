"""Exact dynamics on the Farey triangle.

The phase space is T = {(x, y) : 0 < x <= 1, 0 < y <= 1, x + y > 1}.  With
kappa(x, y) = floor((1 + x) / y), the area-preserving map

    next_pair(x, y) = (y, kappa(x, y) * y - x)

transports normalized consecutive-denominator pairs: if q, q', q'' are the
denominators of three consecutive elements of F(Q), then
next_pair(q/Q, q'/Q) = (q'/Q, q''/Q), and kappa(q/Q, q'/Q) = (Q + q) // q'
is the index of the first fraction.  The inverse is

    prev_pair(x, y) = (floor((1 + y) / x) * x - y, x).

All coordinates are exact rationals; floors are exact integer quotients, so
lattice points sitting on cell boundaries are classified deterministically.
Points with x + y = 1 lie outside the phase space and are rejected.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

__all__ = ["TrianglePoint", "kappa", "next_pair", "prev_pair", "orbit_kappas"]


class TrianglePoint(namedtuple("TrianglePoint", "x y")):
    """A point of the Farey triangle, with exact rational coordinates."""

    __slots__ = ()

    def __new__(cls, x, y):
        x, y = Fraction(x), Fraction(y)
        if not (0 < x <= 1 and 0 < y <= 1 and x + y > 1):
            raise ValueError(
                f"({x}, {y}) is outside the triangle 0 < x,y <= 1, x + y > 1"
            )
        return super().__new__(cls, x, y)


def kappa(p: TrianglePoint) -> int:
    """floor((1 + x) / y), computed exactly; always >= 1 on the triangle."""
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.y.numerator, p.y.denominator
    return (xd + xn) * yd // (xd * yn)


def next_pair(p: TrianglePoint) -> TrianglePoint:
    """Image (y, kappa(p) * y - x); stays in the triangle."""
    return TrianglePoint(p.y, kappa(p) * p.y - p.x)


def prev_pair(p: TrianglePoint) -> TrianglePoint:
    """Preimage (floor((1 + y) / x) * x - y, x); round-trips with next_pair."""
    xn, xd = p.x.numerator, p.x.denominator
    yn, yd = p.y.numerator, p.y.denominator
    j = (yd + yn) * xd // (yd * xn)
    return TrianglePoint(j * p.x - p.y, p.x)


def orbit_kappas(p: TrianglePoint, r: int) -> tuple[int, ...]:
    """The first r index values (kappa(p), kappa(next_pair(p)), ...)."""
    if r < 1:
        raise ValueError("orbit length r must be >= 1")
    out = []
    for _ in range(r):
        out.append(kappa(p))
        p = next_pair(p)
    return tuple(out)
