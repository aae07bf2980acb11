"""Streaming enumeration of Farey fractions and odd-denominator gap statistics.

F(Q) is the ascending sequence of reduced fractions a/q in (0, 1] with
1 <= q <= Q; its odd subsequence keeps the terms whose denominator is odd.
For gamma = a/q < gamma' = a'/q' the determinant ``a'q - aq'`` equals 1
exactly when the two fractions are neighbours in F(Q).  Between neighbours
of the odd subsequence it can be any positive integer; the h-tuples of
consecutive values of this "gap" are the statistic measured here.

Everything is exact.  The public API trades in ``fractions.Fraction``;
the streaming loops run on plain integers via the neighbour recurrence

    a'' = k*a' - a,   q'' = k*q' - q,   k = (Q + q) // q',

seeded by the first two terms 1/Q and 1/(Q-1).  A full pass over F(Q) costs
Theta(Q^2) steps, so the order is capped by configuration (default 10^5,
override with the ``FAREY_MAX_Q`` environment variable).
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

__all__ = [
    "DEFAULT_MAX_Q",
    "max_order",
    "FareyCursor",
    "farey_next",
    "farey_fractions",
    "odd_farey_fractions",
    "delta",
    "farey_index",
    "totients",
    "farey_count",
    "odd_farey_count",
    "UnitInterval",
    "gap_histogram",
    "count_delta_tuples",
    "window_count",
    "empirical_rho",
]

DEFAULT_MAX_Q = 100_000
_ENV_MAX_Q = "FAREY_MAX_Q"


def max_order() -> int:
    """Maximum admissible Farey order, from ``FAREY_MAX_Q`` or the default."""
    raw = os.environ.get(_ENV_MAX_Q)
    if not raw:
        return DEFAULT_MAX_Q
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{_ENV_MAX_Q} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{_ENV_MAX_Q} must be a positive integer, got {raw!r}")
    return cap


def _check_order(q_max: int) -> None:
    if not isinstance(q_max, int) or isinstance(q_max, bool) or q_max < 1:
        raise ValueError(f"Farey order must be a positive integer, got {q_max!r}")
    cap = max_order()
    if q_max > cap:
        raise ValueError(
            f"Farey order {q_max} exceeds the configured cap {cap}; "
            f"a full pass costs Theta(Q^2) steps (raise {_ENV_MAX_Q} to override)"
        )


# ---------------------------------------------------------------------------
# element-level streaming
# ---------------------------------------------------------------------------


def _element_stream(q_max: int) -> Iterator[tuple[int, int]]:
    """Yield (numerator, denominator) over F(q_max) in increasing order."""
    if q_max == 1:
        yield 1, 1
        return
    a, q = 1, q_max
    a2, q2 = 1, q_max - 1
    yield a, q
    while True:
        yield a2, q2
        if q2 == 1:
            return
        k = (q_max + q) // q2
        a, q, a2, q2 = a2, q2, k * a2 - a, k * q2 - q


@dataclass
class FareyCursor:
    """A pair of consecutive F(Q) elements, advanced by the neighbour recurrence."""

    order: int
    prev: Fraction
    curr: Fraction

    @classmethod
    def start(cls, q_max: int) -> "FareyCursor":
        _check_order(q_max)
        if q_max < 2:
            raise ValueError("a cursor needs two elements; F(1) has only 1/1")
        return cls(q_max, Fraction(1, q_max), Fraction(1, q_max - 1))


def farey_next(cursor: FareyCursor) -> Fraction:
    """Advance the cursor and return the successor of ``cursor.curr`` in F(Q).

    Raises StopIteration once the current element is 1/1, the last term.
    """
    if cursor.curr == 1:
        raise StopIteration("1/1 is the last element of the Farey sequence")
    q_max = cursor.order
    a, q = cursor.prev.numerator, cursor.prev.denominator
    a2, q2 = cursor.curr.numerator, cursor.curr.denominator
    k = (q_max + q) // q2
    nxt = Fraction(k * a2 - a, k * q2 - q)
    cursor.prev, cursor.curr = cursor.curr, nxt
    return nxt


def farey_fractions(q_max: int) -> Iterator[Fraction]:
    """Yield F(q_max) in increasing order, from 1/q_max up to 1/1."""
    _check_order(q_max)
    for a, q in _element_stream(q_max):
        yield Fraction(a, q)


def odd_farey_fractions(q_max: int) -> Iterator[Fraction]:
    """Yield the odd-denominator subsequence of F(q_max), in increasing order."""
    _check_order(q_max)
    for a, q in _element_stream(q_max):
        if q & 1:
            yield Fraction(a, q)


def delta(g: Fraction, g2: Fraction) -> int:
    """Determinant ``g2.num * g.den - g.num * g2.den`` of an increasing pair."""
    d = g2.numerator * g.denominator - g.numerator * g2.denominator
    if d <= 0:
        raise ValueError(f"fractions must be given in increasing order: {g} !< {g2}")
    return d


def farey_index(q_max: int, frac: Fraction, succ: Fraction) -> int:
    """Index ``(Q + q) // q'`` of ``frac`` given its F(Q)-successor ``succ``.

    Equals the gap to the next odd-denominator fraction whenever ``succ`` has
    even denominator.
    """
    q, q2 = frac.denominator, succ.denominator
    if succ.numerator * q - frac.numerator * q2 != 1 or q + q2 <= q_max:
        raise ValueError(f"{frac} and {succ} are not consecutive in F({q_max})")
    return (q_max + q) // q2


# ---------------------------------------------------------------------------
# totients
# ---------------------------------------------------------------------------


def totients(n: int) -> list[int]:
    """Euler phi for 0..n by a linear-style sieve (phi[0] = 0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    phi[0] = 0
    return phi


def farey_count(q_max: int) -> int:
    """#F(q_max) = sum of phi(q) for q <= q_max."""
    _check_order(q_max)
    return sum(totients(q_max)[1:])


def odd_farey_count(q_max: int) -> int:
    """Number of odd-denominator elements of F(q_max)."""
    _check_order(q_max)
    phi = totients(q_max)
    return sum(phi[q] for q in range(1, q_max + 1, 2))


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitInterval:
    """A rational subinterval [lo, hi] of [0, 1].

    Window counting uses closed membership ``lo <= f <= hi``; the lattice
    module restricts by the half-open rule ``lo < f <= hi`` so that interval
    partitions of [0, 1] split counts exactly (see lattice.py).
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = Fraction(self.lo), Fraction(self.hi)
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def parse(cls, text: str) -> "UnitInterval":
        """Parse "lo,hi" with each endpoint like "1/4" or "0.25"."""
        parts = text.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'lo,hi', got {text!r}")
        return cls(Fraction(parts[0].strip()), Fraction(parts[1].strip()))

    @property
    def is_full(self) -> bool:
        return self.lo == 0 and self.hi == 1

    def contains(self, f: Fraction) -> bool:
        """Closed membership lo <= f <= hi."""
        return self.lo <= f <= self.hi

    def contains_half_open(self, f: Fraction) -> bool:
        """Half-open membership lo < f <= hi."""
        return self.lo < f <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


# ---------------------------------------------------------------------------
# gap windows of the odd subsequence
# ---------------------------------------------------------------------------


def _odd_walk(q_max: int) -> Iterator[tuple[int, int, Optional[int], Optional[str]]]:
    """Yield (a, q, gap, step) per odd-denominator element, in order.

    ``gap`` is the determinant against the previous odd element (None for the
    first); ``step`` is 'OO' when the two odd elements are F(Q)-neighbours and
    'OEO' when exactly one even-denominator fraction sits between them.
    """
    prev: Optional[tuple[int, int]] = None
    direct = True
    for a, q in _element_stream(q_max):
        if q & 1:
            if prev is None:
                yield a, q, None, None
            else:
                pa, pq = prev
                yield a, q, a * pq - pa * q, ("OO" if direct else "OEO")
            prev = (a, q)
            direct = True
        else:
            direct = False


def _hist_h1_plain(q_max: int) -> tuple[Counter, int]:
    hist: Counter = Counter()
    if q_max == 1:
        return hist, 0
    q, q2 = q_max, q_max - 1
    while True:
        if q & 1:
            if q2 & 1:
                g = 1
            else:
                g = (q_max + q) // q2
            hist[g] += 1
        if q2 == 1:
            break
        q, q2 = q2, ((q_max + q) // q2) * q2 - q
    return Counter({(g,): c for g, c in hist.items()}), sum(hist.values())


def _hist_h2_plain(q_max: int) -> tuple[Counter, int]:
    hist: Counter = Counter()
    windows = 0
    if q_max == 1:
        return hist, 0
    q, q2 = q_max, q_max - 1
    prev_gap = 0  # 0 = no gap seen yet
    while True:
        if q & 1:
            if q2 & 1:
                g = 1
            else:
                g = (q_max + q) // q2
            if prev_gap:
                hist[(prev_gap, g)] += 1
                windows += 1
            prev_gap = g
        if q2 == 1:
            break
        q, q2 = q2, ((q_max + q) // q2) * q2 - q
    return hist, windows


def gap_histogram(
    q_max: int,
    h: int,
    interval: Optional[UnitInterval] = None,
    with_steps: bool = False,
) -> tuple[Counter, int]:
    """Histogram of h-tuples of consecutive odd-subsequence gaps, in one pass.

    Returns ``(counter, windows)`` where ``windows`` counts every length-(h+1)
    window of consecutive odd-denominator fractions (restricted, when
    ``interval`` is given, to windows whose first fraction lies in the closed
    interval).  Keys are gap tuples, or ``(gaps, steps)`` pairs when
    ``with_steps`` is set.  Windows never wrap past 1/1.
    """
    _check_order(q_max)
    if h < 1:
        raise ValueError("window length h must be >= 1")
    if interval is not None and interval.is_full:
        interval = None
    if interval is None and not with_steps:
        if h == 1:
            return _hist_h1_plain(q_max)
        if h == 2:
            return _hist_h2_plain(q_max)

    hist: Counter = Counter()
    windows = 0
    fracs: deque = deque()
    gaps: deque = deque()
    steps: deque = deque()
    if interval is not None:
        lo_n, lo_d = interval.lo.numerator, interval.lo.denominator
        hi_n, hi_d = interval.hi.numerator, interval.hi.denominator
    for a, q, gap, step in _odd_walk(q_max):
        if gap is not None:
            gaps.append(gap)
            steps.append(step)
        fracs.append((a, q))
        if len(gaps) == h:
            a0, q0 = fracs[0]
            if interval is None or (lo_n * q0 <= a0 * lo_d and a0 * hi_d <= hi_n * q0):
                windows += 1
                key = (tuple(gaps), tuple(steps)) if with_steps else tuple(gaps)
                hist[key] += 1
            fracs.popleft()
            gaps.popleft()
            steps.popleft()
    return hist, windows


def count_delta_tuples(
    q_max: int,
    deltas: Sequence[int],
    interval: Optional[UnitInterval] = None,
) -> int:
    """Count windows of h+1 consecutive odd-denominator fractions whose gap
    tuple equals ``deltas`` (first fraction in ``interval`` when given, closed
    membership).  Single streaming pass, O(h) memory.
    """
    _check_order(q_max)
    target = tuple(int(d) for d in deltas)
    if not target or any(d < 1 for d in target):
        raise ValueError(f"gap tuple must be nonempty positive integers, got {deltas}")
    h = len(target)
    if interval is not None and interval.is_full:
        interval = None
    count = 0
    fracs: deque = deque()
    gaps: deque = deque()
    if interval is not None:
        lo_n, lo_d = interval.lo.numerator, interval.lo.denominator
        hi_n, hi_d = interval.hi.numerator, interval.hi.denominator
    for a, q, gap, _step in _odd_walk(q_max):
        if gap is not None:
            gaps.append(gap)
        fracs.append((a, q))
        if len(gaps) == h:
            if tuple(gaps) == target:
                a0, q0 = fracs[0]
                if interval is None or (
                    lo_n * q0 <= a0 * lo_d and a0 * hi_d <= hi_n * q0
                ):
                    count += 1
            fracs.popleft()
            gaps.popleft()
    return count


def window_count(
    q_max: int, h: int, interval: Optional[UnitInterval] = None
) -> int:
    """Number of length-(h+1) windows with first fraction in ``interval``."""
    _check_order(q_max)
    if h < 1:
        raise ValueError("window length h must be >= 1")
    if interval is None or interval.is_full:
        return max(odd_farey_count(q_max) - h, 0)
    _, windows = gap_histogram(q_max, h, interval=interval)
    return windows


def empirical_rho(
    q_max: int,
    deltas: Sequence[int],
    interval: Optional[UnitInterval] = None,
) -> Fraction:
    """Exact ratio (matching windows) / (all windows) for the gap tuple.

    The denominator is the number of length-(h+1) windows, h = len(deltas),
    with the first fraction in ``interval`` when one is given.
    """
    h = len(tuple(deltas))
    total = window_count(q_max, h, interval)
    if total == 0:
        raise ValueError(f"no length-{h + 1} windows in the odd subsequence of F({q_max})")
    return Fraction(count_delta_tuples(q_max, deltas, interval), total)
