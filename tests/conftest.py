"""Shared brute-force oracles for the test suite.

The oracles deliberately avoid the library's streaming recurrence: sequences
come from gcd enumeration plus sorting, gaps from determinants on the sorted
list.  Expected values frozen in the tests were computed with these.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import strategies as st


@lru_cache(maxsize=None)
def cached_gap_histogram(q_max: int, h: int):
    """Session-wide cache for the expensive large-order streaming passes."""
    from oddfarey.farey import gap_histogram

    return gap_histogram(q_max, h)


def brute_farey(q_max: int) -> list[Fraction]:
    """All reduced a/q in (0,1] with q <= q_max, by enumeration and sorting."""
    out = {
        Fraction(a, q)
        for q in range(1, q_max + 1)
        for a in range(1, q + 1)
        if gcd(a, q) == 1
    }
    return sorted(out)


def brute_odd_farey(q_max: int) -> list[Fraction]:
    return [f for f in brute_farey(q_max) if f.denominator % 2 == 1]


def totients(n: int) -> list[int]:
    """Euler phi for 0..n by a sieve over every prime (phi[0] = 0), so that
    #F(Q) = sum(phi[1:]) and its odd part is sum(phi[1::2])."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    phi[0] = 0
    return phi


def farey_index(q_max: int, frac: Fraction, succ: Fraction) -> int:
    """Index ``(Q + q) // q'`` of ``frac`` given its F(Q)-successor ``succ``:
    the gap to the next odd-denominator fraction whenever ``succ`` has even
    denominator."""
    q, q2 = frac.denominator, succ.denominator
    if succ.numerator * q - frac.numerator * q2 != 1 or q + q2 <= q_max:
        raise ValueError(f"{frac} and {succ} are not consecutive in F({q_max})")
    return (q_max + q) // q2


def instantiate(family, free_values) -> tuple[int, ...]:
    """A family's concrete cylinder labels with its free slots filled by
    ``free_values``, each checked against its slot's parity."""
    slots = family.free_slots
    if len(free_values) != len(slots):
        raise ValueError(f"family has {len(slots)} free slots, got {len(free_values)}")
    out = []
    it = iter(free_values)
    for i in range(family.arity):
        slot = family.path.labels[i]
        if slot.is_free:
            v = int(next(it))
            if not slot.admits(v):
                raise ValueError(f"value {v} violates the {slot.parity} parity of slot {i}")
            out.append(v)
        else:
            out.append(slot.value)
    return tuple(out)


def brute_gaps(fractions: list[Fraction]) -> list[int]:
    return [
        g2.numerator * g.denominator - g.numerator * g2.denominator
        for g, g2 in zip(fractions, fractions[1:])
    ]


def brute_window_counts(q_max: int, h: int) -> dict[tuple[int, ...], int]:
    gaps = brute_gaps(brute_odd_farey(q_max))
    out: dict[tuple[int, ...], int] = {}
    for i in range(len(gaps) - h + 1):
        key = tuple(gaps[i : i + h])
        out[key] = out.get(key, 0) + 1
    return out


def swept_lattice_counts(region, q_max: int) -> dict:
    """``count_lattice(region, q_max, PairParity(x, y), primitive).count`` for
    all 9 parities and both values of ``primitive``, keyed (x, y, primitive),
    from one column sweep with a gcd test at every point."""
    from oddfarey.lattice import PairParity, _columns

    classes: dict = {}
    for a, bs in _columns(region, q_max, PairParity()):
        for b in bs:
            key = (a & 1, b & 1, gcd(a, b) == 1)
            classes[key] = classes.get(key, 0) + 1
    fits = {"odd": (1,), "even": (0,), "any": (0, 1)}
    return {
        (px, py, primitive): sum(
            classes.get((x, y, p), 0)
            for x in fits[px]
            for y in fits[py]
            for p in ((True,) if primitive else (True, False))
        )
        for px in fits
        for py in fits
        for primitive in (True, False)
    }


def point_starts(q_max: int, interval=None) -> tuple[list[tuple[int, int]], int]:
    """The primitive points (a, b) of Q*T with a odd, tested one at a time: a
    gcd at every point and, given an interval, the inverse b_bar = b^-1 mod a
    (0 when a = 1), kept when a*(1 - hi) <= b_bar < a*(1 - lo), i.e. when the
    window's first fraction 1 - b_bar/a lies in (lo, hi].  Also returns how
    many primitive points have b_bar exactly on a*(1 - hi) or a*(1 - lo)."""
    kept, hits = [], 0
    for a in range(1, q_max + 1, 2):
        if interval is not None:
            hn, hd = interval.hi.numerator, interval.hi.denominator
            ln, ld = interval.lo.numerator, interval.lo.denominator
            lo_wall, hi_wall = a * (hd - hn), a * (ld - ln)
        for b in range(q_max - a + 1, q_max + 1):
            if gcd(a, b) != 1:
                continue
            if interval is None:
                kept.append((a, b))
                continue
            bbar = pow(b, -1, a)
            hits += bbar * hd == lo_wall or bbar * ld == hi_wall
            if bbar * hd >= lo_wall and bbar * ld < hi_wall:
                kept.append((a, b))
    return kept, hits


def scan_pair_at(q_max: int, x, strict: bool) -> tuple[int, int, int]:
    """``farey._pair_at`` by a scan of every b <= Q: the first element of
    F(Q) that is >= x (> x if ``strict``) is the least ceil(x*b)/b
    (floor(x*b) + 1 if strict, and at least 1/b) over b <= Q, at the least b;
    1/1 when none is.  Returns the numerator and denominator of the first odd
    element from there and the denominator of its successor."""
    from oddfarey.farey import _successor_den

    n, d = x.numerator, x.denominator
    a, q = 1, 1
    for b in range(2, q_max + 1):
        c = max((n * b - (not strict)) // d + 1, 1)
        if c * q < a * b:
            a, q = c, b
    q2 = _successor_den(q_max, a, q)
    if q & 1:
        return a, q, q2
    a2 = next(c for c in range(1, q2 + 1) if c * q - a * q2 == 1)
    return a2, q2, (q_max + q) // q2 * q2 - q


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def full_canonical(points) -> tuple:
    """A polygon's full normal form: drop repeated consecutive vertices
    (cyclically), drop collinear middles until none is left, orient CCW and
    rotate to the lex-min vertex; () when fewer than 3 vertices or zero area
    remain.  The library's normal form only orients and rotates, and must
    agree with this on every polygon the library makes."""
    pts = []
    for p in points:
        p = (Fraction(p[0]), Fraction(p[1]))
        if not pts or p != pts[-1]:
            pts.append(p)
    while len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    changed = True
    while changed and len(pts) >= 3:
        n = len(pts)
        kept = [pts[i] for i in range(n) if _cross(pts[i - 1], pts[i], pts[(i + 1) % n]) != 0]
        changed, pts = len(kept) < n, kept
    if len(pts) < 3:
        return ()
    area2 = sum(_cross((0, 0), pts[i - 1], pts[i]) for i in range(len(pts)))
    if area2 == 0:
        return ()
    if area2 < 0:
        pts.reverse()
    start = pts.index(min(pts))
    return tuple(pts[start:] + pts[:start])


# The Fraction clipper that geometry.py used before it moved to homogeneous
# integer vertices, kept as the reference for the integer one.
FRACTION_TRIANGLE = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))


def as_points(triples) -> list:
    """Fraction points (X/W, Y/W) of homogeneous integer vertices."""
    return [(Fraction(x, w), Fraction(y, w)) for x, y, w in triples]


def fraction_area2(points) -> Fraction:
    """Twice the signed shoelace area of Fraction points."""
    pairs = zip(points, points[1:] + points[:1])
    return sum((x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in pairs), Fraction(0))


def fraction_clip_values(points, vals) -> list:
    """Keep the part of a convex polygon where an affine function, with
    value ``vals[i]`` at vertex i, is <= 0; crossing points are interpolated
    on the edges where it changes sign."""
    out = []
    n = len(points)
    for i in range(n):
        p, sp = points[i], vals[i]
        q, sq = points[(i + 1) % n], vals[(i + 1) % n]
        if sp <= 0:
            out.append(p)
        if (sp < 0 < sq) or (sq < 0 < sp):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def fraction_clip(points, hp) -> list:
    """Clip a convex polygon by the closure of the half-plane, exactly."""
    f, b = hp.form, hp.bound
    sign = -1 if hp.sense in (">=", ">") else 1
    return fraction_clip_values(points, [sign * (f.evaluate(x, y) - b) for x, y in points])


def fraction_clip_chain(points, constraints) -> list:
    for hp in constraints:
        points = fraction_clip(points, hp)
    return points


def fraction_index_cells(points, ks: range):
    """(k, image, area2) for each cell of ``ks`` that meets the polygon in
    positive area, as geometry._index_cells gives it, in Fractions."""
    ratios = [(1 + x) / y for x, y in points if y]
    first = math.floor(min(ratios))
    last = math.ceil(max(ratios)) - 1 if len(ratios) == len(points) else ks.stop
    start = ks.start + max(0, -((ks.start - first) // ks.step)) * ks.step
    for k in range(start, min(ks.stop, last + 1), ks.step):
        piece = fraction_clip_values(points, [k * y - x - 1 for x, y in points])
        piece = fraction_clip_values(piece, [1 + x - (k + 1) * y for x, y in piece])
        if len(piece) < 3:
            continue
        image = [(y, k * y - x) for x, y in piece]
        area2 = fraction_area2(image)
        if area2 > 0:
            yield k, image, area2


def _unit_interval(ends):
    from oddfarey.farey import UnitInterval

    return UnitInterval(min(ends), max(ends))


# Hypothesis strategy: closed subintervals of [0, 1] with endpoint
# denominators <= 9, so endpoints are often odd-denominator elements of F(Q).
small_fractions = st.builds(
    lambda d, n: Fraction(min(n, d), d), st.integers(1, 9), st.integers(0, 9)
)
small_intervals = st.tuples(small_fractions, small_fractions).map(_unit_interval)


def brute_windows(q_max: int, h: int, interval=None, with_steps: bool = False) -> dict:
    """Histogram of windows of h+1 consecutive odd-denominator fractions.

    ``interval`` is None or a pair (lo, hi); a window counts when its first
    fraction f has lo <= f <= hi.  With ``with_steps`` the keys are
    (gaps, steps) pairs, where a step is 'OO' when no even-denominator
    fraction sits between its two odd ones and 'OEO' otherwise.
    """
    seq = brute_farey(q_max)
    odd_pos = [i for i, f in enumerate(seq) if f.denominator % 2 == 1]
    out: dict = {}
    for s in range(len(odd_pos) - h):
        idx = odd_pos[s : s + h + 1]
        if interval is not None and not (interval[0] <= seq[idx[0]] <= interval[1]):
            continue
        key = tuple(brute_gaps([seq[i] for i in idx]))
        if with_steps:
            key = (key, _steps(idx))
        out[key] = out.get(key, 0) + 1
    return out


def _steps(idx: list[int]) -> tuple[str, ...]:
    """'OO' where two odd positions are adjacent, 'OEO' where one sits between."""
    return tuple("OO" if j == i + 1 else "OEO" for i, j in zip(idx, idx[1:]))


@lru_cache(maxsize=None)
def _windows_past_one(q_max: int, h: int) -> list[tuple[Fraction, tuple]]:
    """(first fraction, (gaps, steps)) of each window of h+1 consecutive
    odd-denominator fractions of the periodic sequence F(Q), F(Q) + 1,
    F(Q) + 2, ... that starts in F(Q) and ends past 1/1.  Each copy
    F(Q) + s holds the odd element (s + 1)/1, so h + 2 copies hold them all.
    """
    base = brute_farey(q_max)
    seq = [f + s for s in range(h + 2) for f in base]
    odd_pos = [i for i, f in enumerate(seq) if f.denominator % 2 == 1]
    one = len(base) - 1  # the position of 1/1 in the ascending sequence
    out = []
    for s in range(len(odd_pos) - h):
        idx = odd_pos[s : s + h + 1]
        if idx[0] <= one < idx[-1]:
            out.append((seq[idx[0]], (tuple(brute_gaps([seq[i] for i in idx])), _steps(idx))))
    return out


def brute_boundary_windows(q_max: int, h: int, interval=None) -> dict:
    """Histogram of the windows of ``_windows_past_one``, keyed (gaps, steps)
    as in ``brute_windows``.  ``interval`` is None or a pair (lo, hi); a
    window counts when its first fraction f has lo < f <= hi, the half-open
    rule of the lattice side."""
    out: dict = {}
    for first, key in _windows_past_one(q_max, h):
        if interval is None or interval[0] < first <= interval[1]:
            out[key] = out.get(key, 0) + 1
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


# The order-8 sequence and its odd-denominator subsequence, as frozen
# reference data (22 and 13 entries).
F8 = [
    Fraction(*t)
    for t in [
        (1, 8), (1, 7), (1, 6), (1, 5), (1, 4), (2, 7), (1, 3), (3, 8),
        (2, 5), (3, 7), (1, 2), (4, 7), (3, 5), (5, 8), (2, 3), (5, 7),
        (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (1, 1),
    ]
]
F8_ODD = [
    Fraction(*t)
    for t in [
        (1, 7), (1, 5), (2, 7), (1, 3), (2, 5), (3, 7), (4, 7), (3, 5),
        (2, 3), (5, 7), (4, 5), (6, 7), (1, 1),
    ]
]
