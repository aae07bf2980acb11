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

seeded by 0/1 and 1/Q, the first term.  A full pass over F(Q) costs
Theta(Q^2) steps, so the order is capped by configuration (default 10^5,
override with the ``FAREY_MAX_Q`` environment variable).

Windows in an interval come from one pass, ``_gap_pass``, which steps
from each odd-denominator element straight to the next; over the whole
sequence it is the oracle of the count below.  Two even denominators are
never adjacent in F(Q), so the successor q' of an odd q is either odd
(one recurrence step: gap 1, step type 'OO') or even and followed by an odd
one (two steps: gap k = (Q + q) // q', step type 'OEO').  Only denominators
are needed for that.  A step is coded as ``2*gap + (1 if 'OEO' else 0)``;
gaps are at most 2Q, so every code c has 2 <= c < m = 4Q + 2, and a window
is the integer whose base-m digits are its last h codes.  The first h - 1
steps leave partial windows of j < h codes, whose keys are below m**j; a
full window's leading digit is at least 2, so its key is at least
2*m**(h-1).  Dropping the keys below 2*m**(h-1) therefore removes exactly
the partial windows, and the loop needs no test for them.

A window counts when its first fraction f has lo <= f <= hi; F(Q) is
ascending, so these windows start at the odd elements from the first one
>= lo to the last one <= hi.  The one loop starts at the first element
>= lo (one more step if it is even; 1/Q without an interval) with an empty
key, so its partial windows are dropped as above.  It stops at the h-th odd
element at or after the first element > hi, where the last such window
closes, or at 1/1 if it would run past.  A restricted pass thus costs in
proportion to the interval's share of F(Q).  ``gap_histogram`` decodes the
keys; the other window counters each make one call to it.

Windows of the whole sequence are counted, not streamed, at every h.  Each
odd-denominator element a/q other than 1/1, with its F(Q)-successor of
denominator b, is a primitive point (q, b) with q odd, q, b <= Q and
q + b > Q; conversely every such point is one consecutive pair, and the
point (1, Q) is the pair 1/1, (Q + 1)/Q of the periodic continuation.  The
recurrence runs on past 1/1 through the shifted copies of F(Q), so every
point starts one window of h steps of the periodic odd subsequence.  These
are the windows of F(Q) plus the ones that run past 1/1: those that start
at the last h odd elements, or at all of them when there are at most h.
``_tail_starts`` finds their start pairs by walking the recurrence back
from the last pair (Q, 1) (the denominators of (Q - 1)/Q and 1/1), and
``_counted_keys`` takes their keys away.  ``_window_keys`` codes the window
of each start pair; it is the one window coder, shared by the count's tail
and the lattice decoder, whose boundary windows are these tail windows.

The points are counted row by row.  Row b holds the points (q, b) with odd
q in (Q - b, Q] coprime to b.  Along a row every later denominator is a
linear function of q, u0 + u1*q, as long as the indices so far are fixed,
carried by the recurrence w = k*v - u.  The lemma that makes this work: on
such a run the index k = (Q + u) // v never decreases as q grows.  The
recurrence maps (u, v) and its slope (u1, v1) by the same matrix of
determinant 1, so u1*v - u*v1 keeps its value at the start of the row,
where (u, v) = (q, b) and (u1, v1) = (1, 0): it is b > 0.  As u, v > 0
(every real point of Q*T maps into Q*T), v1/v < u1/u.  Each step makes the
old v1 the new u1, so after the first step u1 = 0 and v1 < 0, and from then
on both are negative: v1 <= 0 throughout, and the slope of (Q + u) / v has
the sign of u1*v - v1*(Q + u) = b - v1*Q > 0.  So each level set of the
index is an interval of q, which ends where the linear inequality Q + u >=
(k + 1)*v starts to hold, and splitting by the index at each step cuts a
row into blocks on which all indices are fixed.  The parity of v = v0 +
v1*q is that of v0 + v1 for every odd q, so on a block each step is fixed
to be 'OO' or 'OEO', and so is each window key.  Two rules keep the blocks
few: the last step is not split when it is 'OO' (its code is 2 whatever its
index), and when it is 'OEO' it is split by its gap only, not by the index
after the even denominator.  At Q = 4003 that makes about 6,000, 42,000 and
98,000 blocks for h = 1, 2 and 3, against about Q**2 / 4 points.  Each
block counts the q coprime to 2b, i.e. odd and coprime to b, by
inclusion-exclusion over the odd squarefree divisors of b, built from one
smallest-prime-factor sieve.  ``_counted_keys`` returns the same keys as
``_gap_pass(Q, h, None)``, which stays the oracle.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "DEFAULT_MAX_Q",
    "max_order",
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
    a, q, a2, q2 = 0, 1, 1, q_max  # 0/1 is the predecessor of 1/Q
    while True:
        yield a2, q2
        if q2 == 1:
            return
        k = (q_max + q) // q2
        a, q, a2, q2 = a2, q2, k * a2 - a, k * q2 - q


def farey_fractions(q_max: int) -> Iterator[Fraction]:
    """F(q_max) in increasing order, from 1/q_max up to 1/1; the order is
    checked at the call, before the first element."""
    _check_order(q_max)
    return (Fraction(a, q) for a, q in _element_stream(q_max))


def odd_farey_fractions(q_max: int) -> Iterator[Fraction]:
    """The odd-denominator subsequence of F(q_max), in increasing order."""
    _check_order(q_max)
    return (Fraction(a, q) for a, q in _element_stream(q_max) if q & 1)


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

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


# ---------------------------------------------------------------------------
# gap windows of the odd subsequence
# ---------------------------------------------------------------------------


def _key_base(q_max: int) -> int:
    """Base of the integer window keys: every step code c has 2 <= c < 4Q + 2."""
    return 4 * q_max + 2


def _pair_at(q_max: int, x, strict: bool) -> tuple[int, int]:
    """Denominators (q, q') of the first a/q in F(q_max) that is >= x (> x if
    ``strict``) and of its successor, or (1, Q) if none: a/q is the least
    ceil(x*b)/b (floor(x*b) + 1 if strict) over b <= Q, at the least b, and
    q' is the largest q' <= Q with a*q' = -1 (mod q)."""
    n, d = x.numerator, x.denominator
    a, q = 1, 1
    for b in range(2, q_max + 1):
        c = max((n * b - (not strict)) // d + 1, 1)
        if c * q < a * b:
            a, q = c, b
    return q, q_max - (q_max + pow(a, -1, q)) % q


def _gap_pass(q_max: int, h: int, interval: Optional[UnitInterval]) -> dict[int, int]:
    """Window keys of the odd subsequence of F(q_max), with their counts.

    One step goes from an odd-denominator element to the next one; the key
    of the window ending there holds its last h codes in base 4Q + 2 (see
    the module docstring).  It walks only the stretch of F(Q) that holds the
    windows whose first fraction lies in ``interval`` (closed membership).
    """
    m = _key_base(q_max)
    head = m ** (h - 1)
    lo, hi = (0, 1) if interval is None else (interval.lo, interval.hi)
    q, q2 = _pair_at(q_max, hi, strict=True)
    left = h - (q & 1)  # the stop is the h-th odd element from here on
    while left and q != 1:
        q, q2 = q2, (q_max + q) // q2 * q2 - q
        left -= q & 1
    stop, stop2 = q, q2
    q, q2 = _pair_at(q_max, lo, strict=False)
    if not q & 1:  # two even denominators are never adjacent
        q, q2 = q2, (q_max + q) // q2 * q2 - q
    keys: dict[int, int] = {}  # a plain dict: CPython specializes its item access
    get = keys.get
    key = 0
    while q != stop or q2 != stop2:
        k = (q_max + q) // q2
        if q2 & 1:
            key = key % head * m + 2
            q, q2 = q2, k * q2 - q
        else:
            key = key % head * m + 2 * k + 1
            q3 = k * q2 - q
            q, q2 = q3, (q_max + q2) // q3 * q3 - q2
        keys[key] = get(key, 0) + 1
    partial = 2 * head
    return {k: c for k, c in keys.items() if k >= partial}


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[k] is the least prime factor of k for 2 <= k <= n."""
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for k in range(p * p, n + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _index_runs(
    x: int, y: int, n0: int, n1: int, d0: int, d1: int
) -> list[tuple[int, int, int]]:
    """Split the q in (x, y] into runs (x', y', k) on which the index
    k = (n0 + n1*q) // (d0 + d1*q) is constant.

    Along a row the index never decreases in q (see the module docstring),
    so the run of k ends at the last q below the first with index k + 1,
    where n0 + n1*q >= (k + 1)*(d0 + d1*q) starts to hold.
    """
    k = (n0 + n1 * (x + 1)) // (d0 + d1 * (x + 1))
    end = (n0 + n1 * y) // (d0 + d1 * y)
    runs = []
    for j in range(k + 1, end + 1):
        cut = (j * d0 - n0 - 1) // (n1 - j * d1)  # the index is >= j for q > cut
        if x < cut:
            runs.append((x, cut, j - 1))
            x = cut
    runs.append((x, y, end))
    return runs


def _window_keys(q_max: int, h: int, starts: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Keys of the h-step windows of the periodic odd subsequence that start
    at the pairs of ``starts``, with their counts.

    A pair (q, q') holds an odd denominator and the next denominator of the
    periodic sequence: a primitive point of Q*T with q odd.  The codes are
    those of ``_gap_pass``; the count's tail and the lattice decoder both
    code their windows here.
    """
    m = _key_base(q_max)
    keys: dict[int, int] = {}
    get = keys.get
    for q, q2 in starts:
        key = 0
        for _ in range(h):
            k = (q_max + q) // q2
            if q2 & 1:
                key = key * m + 2
                q, q2 = q2, k * q2 - q
            else:
                key = key * m + 2 * k + 1
                q3 = k * q2 - q
                q, q2 = q3, (q_max + q2) // q3 * q3 - q2
        keys[key] = get(key, 0) + 1
    return keys


def _tail_starts(q_max: int, h: int) -> list[tuple[int, int]]:
    """Start pairs of the windows of the periodic odd subsequence that start
    in F(q_max) but run past 1/1: those of the last h odd elements, or of
    all of them when there are at most h.  They are found by walking the
    recurrence back from (Q - 1)/Q, 1/1 until 0/1."""
    q, q2 = q_max, 1
    starts = [(1, q_max)]  # 1/1 is followed by (Q + 1)/Q
    while len(starts) < h and q != 1:
        if q & 1:
            starts.append((q, q2))
        q, q2 = (q_max + q2) // q * q - q2, q
    return starts


def _counted_keys(q_max: int, h: int) -> dict[int, int]:
    """``_gap_pass(q_max, h, None)`` by counting lattice points in row blocks.

    Row b holds the points (q, b) with odd q in (Q - b, Q] coprime to b; a
    block is a run of q on which every step of the window is fixed, its
    denominators being linear in q (see the module docstring).
    """
    m = _key_base(q_max)
    spf = _smallest_prime_factors(q_max)
    keys: dict[int, int] = {}
    get = keys.get
    for b in range(1, q_max + 1):
        # (d, mu(d)) for the squarefree d | b, d odd: q is coprime to 2b iff
        # odd and coprime to b, and (n // d + 1) // 2 odd multiples of d are <= n
        divs = [(1, 1)]
        n = b // (b & -b)
        while n > 1:
            p = spf[n]
            divs += [(p * d, -mu) for d, mu in divs]
            while n % p == 0:
                n //= p
        # (x, y, steps left, u0, u1, v0, v1, key): the window has reached the
        # odd denominator u0 + u1*q, followed by v0 + v1*q, for q in (x, y]
        todo = [(q_max - b, q_max, h, 0, 1, b, 0, 0)]
        while todo:
            x, y, left, u0, u1, v0, v1, key = todo.pop()
            left -= 1
            if (v0 + v1) & 1:  # 'OO' for every odd q
                key = key * m + 2
                if left:
                    for x2, y2, k in _index_runs(x, y, q_max + u0, u1, v0, v1):
                        todo.append((x2, y2, left, v0, v1, k * v0 - u0, k * v1 - u1, key))
                    continue
                blocks = ((x, y, key),)
            else:  # 'OEO': the gap is the index at the even denominator
                blocks = []
                for x2, y2, k in _index_runs(x, y, q_max + u0, u1, v0, v1):
                    key2 = key * m + 2 * k + 1
                    if not left:
                        blocks.append((x2, y2, key2))
                        continue
                    w0, w1 = k * v0 - u0, k * v1 - u1
                    for x3, y3, k2 in _index_runs(x2, y2, q_max + v0, v1, w0, w1):
                        todo.append((x3, y3, left, w0, w1, k2 * w0 - v0, k2 * w1 - v1, key2))
            for x, y, key in blocks:
                count = 0
                for d, mu in divs:
                    count += mu * (((y // d + 1) >> 1) - ((x // d + 1) >> 1))
                if count:
                    keys[key] = get(key, 0) + count
    for key, count in _window_keys(q_max, h, _tail_starts(q_max, h)).items():
        keys[key] -= count
    return {k: c for k, c in keys.items() if c}


def _histogram(
    keys: dict[int, int], q_max: int, h: int, with_steps: bool
) -> tuple[Counter, int]:
    """Decode window keys into gap tuples or (gaps, steps) pairs, and total them."""
    m = _key_base(q_max)
    hist: Counter = Counter()
    windows = 0
    for key, count in keys.items():
        codes = []
        for _ in range(h):
            key, code = divmod(key, m)
            codes.append(code)
        codes.reverse()
        gaps = tuple(c >> 1 for c in codes)
        if with_steps:
            hist[gaps, tuple("OEO" if c & 1 else "OO" for c in codes)] += count
        else:
            hist[gaps] += count
        windows += count
    return hist, windows


def _restriction(
    q_max: int, h: int, interval: Optional[UnitInterval]
) -> Optional[UnitInterval]:
    """Check the order and h, and settle the interval: None stands for no
    interval or all of [0, 1].  The streaming and the lattice side both ask
    this one function whether a window count is restricted."""
    _check_order(q_max)
    if h < 1:
        raise ValueError("window length h must be >= 1")
    return None if interval is None or interval.is_full else interval


def gap_histogram(
    q_max: int,
    h: int,
    interval: Optional[UnitInterval] = None,
    with_steps: bool = False,
) -> tuple[Counter, int]:
    """Histogram of h-tuples of consecutive odd-subsequence gaps.

    Returns ``(counter, windows)`` where ``windows`` counts every length-(h+1)
    window of consecutive odd-denominator fractions (restricted, when
    ``interval`` is given, to windows whose first fraction lies in the closed
    interval).  Keys are gap tuples, or ``(gaps, steps)`` pairs when
    ``with_steps`` is set.  Windows never wrap past 1/1.  Windows of the
    whole sequence are counted by row blocks of lattice points; windows in
    an interval come from one streaming pass over its stretch of F(Q).
    """
    interval = _restriction(q_max, h, interval)
    if interval is None:
        keys = _counted_keys(q_max, h)
    else:
        keys = _gap_pass(q_max, h, interval)
    return _histogram(keys, q_max, h, with_steps)


def _stream_histogram(
    q_max: int,
    h: int,
    interval: Optional[UnitInterval] = None,
    with_steps: bool = False,
) -> tuple[Counter, int]:
    """``gap_histogram`` from the streaming pass at every h and interval.

    The streaming side of the lattice window identity, and the oracle of
    the counted windows.
    """
    keys = _gap_pass(q_max, h, _restriction(q_max, h, interval))
    return _histogram(keys, q_max, h, with_steps)


def _gap_tuple(deltas: Sequence[int]) -> tuple[int, ...]:
    target = tuple(int(d) for d in deltas)
    if not target or any(d < 1 for d in target):
        raise ValueError(f"gap tuple must be nonempty positive integers, got {deltas}")
    return target


def count_delta_tuples(
    q_max: int,
    deltas: Sequence[int],
    interval: Optional[UnitInterval] = None,
) -> int:
    """Count windows of h+1 consecutive odd-denominator fractions whose gap
    tuple equals ``deltas`` (first fraction in ``interval`` when given, closed
    membership).  One pass of ``gap_histogram``.
    """
    target = _gap_tuple(deltas)
    hist, _ = gap_histogram(q_max, len(target), interval)
    return hist[target]


def window_count(
    q_max: int, h: int, interval: Optional[UnitInterval] = None
) -> int:
    """Number of length-(h+1) windows with first fraction in ``interval``."""
    interval = _restriction(q_max, h, interval)
    if interval is None:
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
    with the first fraction in ``interval`` when one is given.  One pass of
    ``gap_histogram`` gives both.
    """
    target = _gap_tuple(deltas)
    hist, windows = gap_histogram(q_max, len(target), interval)
    if windows == 0:
        raise ValueError(
            f"no length-{len(target) + 1} windows in the odd subsequence of F({q_max})"
        )
    return Fraction(hist[target], windows)
