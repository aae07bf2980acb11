"""Shared brute-force oracles for the test suite.

The oracles deliberately avoid the library's streaming recurrence: sequences
come from gcd enumeration plus sorting, gaps from determinants on the sorted
list.  Expected values frozen in the tests were computed with these.
"""

from __future__ import annotations

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
