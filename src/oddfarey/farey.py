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
ascending, so these windows start at the odd elements e_s, s0 <= s <= s1,
from the first one >= lo to the last one <= hi.  The pass starts at e_s0
with an empty key, counts the key of every step up to e_(s1 + 1), the first
odd element > hi (or 1/1), then keeps the keys of at most h - 1 more steps,
in order, stopping at 1/1.  The start and the first stop do not depend on
h, so one pass at h serves every h' <= h (``_read_pass``).  Proof: the key
at the step to e_t holds the last min(h, t - s0) codes, so mod m**h' it is
the h'-window from e_(t - h') iff t - s0 >= h', iff it is >= 2*m**(h' - 1).
The windows to count end at e_(s0 + h'), ..., e_(s1 + h'); the counted
steps end at e_(s0 + 1), ..., e_(s1 + 1), and the first h' - 1 kept ones
at e_(s1 + 2), ..., e_(s1 + h').  None ends past 1/1, where both walks
stop.  A restricted pass thus costs in proportion to the interval's share
of F(Q).

Windows of the whole sequence are counted, not streamed, at every h.  Each
odd-denominator element a/q other than 1/1, with its F(Q)-successor of
denominator b, is a primitive point (q, b) with q odd, q, b <= Q and
q + b > Q; conversely every such point is one consecutive pair, and the
point (1, Q) is the pair 1/1, (Q + 1)/Q of the periodic continuation.  The
recurrence runs on past 1/1 through the shifted copies of F(Q), so every
point starts one window of h steps of the periodic odd subsequence.  These
are the windows of F(Q) plus the ones that run past 1/1: those that start
at the last h odd elements, or at all of them when there are at most h.
``_block_keys`` counts the windows of all the points (the lattice decoder
takes them as they are, and counts the points that a wide interval keeps in
the same row blocks, see below), ``_tail_starts`` finds the start pairs of
the windows past 1/1 by walking the recurrence back from the last pair
(Q, 1) (the denominators of (Q - 1)/Q and 1/1), and ``gap_histogram`` takes
their keys away.  ``_window_keys`` codes the window of each start pair; it
is the one window coder, shared by the count's tail and the lattice decoder
(which codes the points that a narrow interval keeps), whose boundary
windows are these tail windows.

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
after the even denominator.  At Q = 4003 a walk over every row makes about
6,000, 42,000 and 98,000 blocks for h = 1, 2 and 3, against about Q**2 / 4
points; the lemmas below bring them down to 4,000, 8,600 and 57,000.  Each
block counts the q coprime to 2b, i.e. odd and coprime to b, by
inclusion-exclusion over the odd squarefree divisors of b
(``_squarefree_divisors``, from one smallest-prime-factor sieve; the
lattice module counts its columns with the same two functions).
``gap_histogram`` counts, with no interval, the keys that ``_read_pass``
reads off ``_gap_pass(Q, h, None)``, which stays the oracle.

Whole-sequence windows take a shorter walk, by three lemmas.  Without them
a row splits once for each distinct later index, and near a fraction of
small denominator those run through many values: at h = 2, 14.0, 16.3 and
18.4 runs of the index per row at Q = 3000, 20000 and 10**5.

Reversal lemma (every h).  The reflection x -> -x maps the periodic
sequence, the union of the F(Q) + n over all integers n, onto itself; it
keeps denominators and reverses order.  So it keeps the gap of each step,
the determinant of the step's odd ends, and its type, since an even
denominator between the two ends stays between them.  It therefore maps the
windows of one period onto the windows of one period, with their codes in
reverse order: the keys P of ``_block_keys`` without rows, which are the
windows of one period, are invariant under reversing their h codes.  The
windows that run past 1/1 are not symmetric (at Q = 20000 the pair (1, 2)
counts 6561920 of them and (2, 1) 6561921), so the reversal acts on the
periodic keys alone, before ``gap_histogram`` takes those windows away.

Hence one rule at every h >= 2.  Let C be the windows whose last code is at
most their first.  The other windows are exactly the reversals of the
windows of C whose last code is below their first, so
P = C + reversed(C[last < first]).  The walk counts C directly.  An 'OO'
last step has code 2, which is never above a first code.  An 'OEO' last
step has code 2k + 1, so it is kept when k <= (c1 - 1) // 2, c1 being the
first code: one bound on the last step's runs of the index, since the
index never decreases along a row.  At h = 1 nothing is cut, since the
last code is the first.

Odd-row lemma (h <= 2).  The first step from a point (q, b) is 'OO' (code
2) exactly when the next denominator b is odd, so the odd rows hold exactly
the windows whose first code is 2, and the even rows all the others.  At
h <= 2 the only window of C in the odd rows is the all-'OO' one, (2) or
(2, 2), as no code is below 2; the reversal of an even row's (c, 2) is the
odd row's (2, c), i.e. H(2, c) = H(c, 2), where H counts the windows of one
period with the given codes.  The rows hold one window per point,
N = ``odd_farey_count(Q)`` in all, so (2) or (2, 2) counts what the rest
leaves of N.  So at h <= 2 without rows the walk visits the even rows
alone.  The total N is that of a full period, so the walk given rows, whose
listed starts have no known total, visits every row.  At h >= 3 the
odd rows' windows in C, such as (2, c, 2), are no reversals of the even
rows' windows, and the one total cannot split them among the c, so the
walk visits every row there too; the cap keeps their 'OO' last steps alone.

Fan lemma (h = 2).  Let an odd s with 3s <= Q follow an even b, and let n
follow s.  As neighbours of s, b and n lie in (Q - s, Q], so both exceed
2s.  The gap of the step over b is the index at b read either way, here
(Q + s) // b, and (Q + s) / b < (Q + s) / (Q - s) <= 2, so it is 1, and
the step's code is 3.  The step from s is 'OO' (code 2) when n is odd;
otherwise its gap (Q + s) // n is 1 in the same way (code 3).  As
n = ((Q + b) // s)*s - b with s odd and b even, the window's key is (3, 2)
when (Q + b) // s is odd and (3, 3) when it is even.  Conversely each even
b in (Q - s, Q] coprime to s is followed by s, after the odd b - s, and so
ends the first step of one window.  ``_fan_counts`` counts these windows by
Moebius over the divisors of s, in the two runs of b on which (Q + b) // s
is constant.  Both keys lie in C, so the fan's counts join the walk's
before the reversals, and the fan cut stands under the rule.

So at h = 2 without rows the walk over the even rows makes two cuts.  Its
first 'OEO' step keeps the q whose odd end s = k*b - q is at least
Q // 3 + 1, a single bound on each run of k since s falls as q grows; the
fan counts the rest.  After an 'OEO' step to s > Q/3 the index at s,
(Q + b) // s, stays below 6, and the last step is capped by the first
code.  The walk makes 3.87*Q runs of the index at every Q measured, and
``_block_keys(Q, 2)`` takes about 30% of the time of one walk over every
row with no cut at Q = 4000, and 28% at 20000 and 10**5.  At h >= 3 the
runs still grow at the middle steps, which neither the cap nor the fan
reaches (``_block_keys``' table).

The same walk counts a given set of start points, listed by row in
ascending q: the points that the lattice decoder keeps in an interval.  A
listed start is a primitive point (q, b) of Q*T with q odd.  Row b's blocks
tile (Q - b, Q] and fix the window key of every odd q in them, so a block's
listed starts are exactly the listed windows with its key, which is the
argument by which the decoder without an interval takes the keys of all the
points.  A block (x, y] then counts the listed q in it by two bisections,
with no divisor list and no sieve; only the rows that list a start are
walked, each node of the walk is narrowed to the span of its listed q, and
a node that lists none is dropped.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from math import isqrt
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "DEFAULT_MAX_Q",
    "max_order",
    "farey_fractions",
    "odd_farey_fractions",
    "delta",
    "odd_farey_count",
    "UnitInterval",
    "gap_histogram",
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
# element-level streaming and counting
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


def odd_farey_count(q_max: int) -> int:
    """Number of odd-denominator elements of F(q_max): the sum of phi(q) over
    odd q <= q_max (``_odd_totient_sum``)."""
    _check_order(q_max)
    return _odd_totient_sum(q_max, _smallest_prime_factors(q_max))


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


class UnitInterval(namedtuple("UnitInterval", "lo hi")):
    """A rational subinterval [lo, hi] of [0, 1].

    Window counting uses closed membership ``lo <= f <= hi``; the lattice
    module restricts by the half-open rule ``lo < f <= hi`` so that interval
    partitions of [0, 1] split counts exactly (see lattice.py).  The two
    rules disagree on one start at most: the element lo itself, when it is
    an odd-denominator fraction of F(Q), i.e. lo > 0 and its reduced
    denominator is odd and at most Q.  A start f other than lo has lo <= f
    exactly when lo < f, so both rules keep it or neither does.
    """

    __slots__ = ()

    def __new__(cls, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if not (0 <= lo <= hi <= 1):
            raise ValueError(f"need 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)

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

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


# ---------------------------------------------------------------------------
# gap windows of the odd subsequence
# ---------------------------------------------------------------------------


def _key_base(q_max: int) -> int:
    """Base of the integer window keys: every step code c has 2 <= c < 4Q + 2."""
    return 4 * q_max + 2


def _successor_den(q_max: int, a: int, q: int) -> int:
    """Denominator of the F(q_max)-successor of a/q (of (Q + 1)/Q after
    1/1): the largest q' <= Q with a*q' = -1 (mod q)."""
    return q_max - (q_max + pow(a, -1, q)) % q


def _pair_at(q_max: int, x, strict: bool) -> tuple[int, int, int]:
    """(a, q, q') for the first odd a/q in F(q_max) that is >= x (> x if
    ``strict``), q' being the denominator of its successor, or (1, 1, Q) if
    none.

    When x's denominator is at most Q, the first element of F(Q) that is
    >= x is x itself (unless x = 0), and the first one > x is the term after
    x (``_successor_den``; 1/Q after 0/1, and none after 1/1).  Otherwise
    both are x's upper neighbour in F(Q), read off the continued fraction of
    x by the two bounds that ``Fraction.limit_denominator`` computes.  An
    even q is followed by an odd one, whose numerator (a*q' + 1) / q the
    determinant gives.
    """
    n, d = x.numerator, x.denominator
    if d <= q_max:
        if n and not strict:  # x itself
            a, q = n, d
        elif n == d:  # nothing follows 1/1 in (0, 1]
            a, q = 1, 1
        else:
            q = _successor_den(q_max, n, d)
            a = (n * q + 1) // d
    else:  # the convergents p1/q1 of x while q1 <= Q
        p0, q0, p1, q1 = 0, 1, 1, 0
        while True:
            c = n // d
            q_next = q0 + c * q1
            if q_next > q_max:
                break
            p0, q0, p1, q1 = p1, q1, p0 + c * p1, q_next
            n, d = d, n - c * d
        # p1/q1 and the next bound are neighbours in F(Q) around x; take the upper
        k = (q_max - q0) // q1
        a, q = (p1, q1) if p1 * x.denominator > x.numerator * q1 else (p0 + k * p1, q0 + k * q1)
    q2 = _successor_den(q_max, a, q)
    if q & 1:
        return a, q, q2
    return (a * q2 + 1) // q, q2, (q_max + q) // q2 * q2 - q


def _gap_pass(q_max: int, h: int, interval: Optional[UnitInterval]) -> tuple[dict, list]:
    """One streaming pass over the odd subsequence of F(q_max) for the
    windows of every length <= h whose first fraction lies in ``interval``.

    A step goes from an odd-denominator element to the next; its key holds
    the last h codes of the window that ends there.  Returns the counts of
    the keys of the steps up to the first odd element > hi, partial ones
    included, and the keys of the next h - 1 steps or fewer, in order.
    """
    m = _key_base(q_max)
    head = m ** (h - 1)
    lo, hi = (0, 1) if interval is None else (interval.lo, interval.hi)
    last, stop, stop2 = _pair_at(q_max, hi, strict=True)
    first, q, q2 = _pair_at(q_max, lo, strict=False)
    if first * stop > last * q:  # else the loop would run a whole period
        raise RuntimeError(f"pass start {first}/{q} lies past its stop {last}/{stop}")
    counted: dict[int, int] = {}  # a plain dict: CPython specializes its item access
    get = counted.get
    kept: list[int] = []
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
        counted[key] = get(key, 0) + 1
    while len(kept) < h - 1 and q != 1:
        k = (q_max + q) // q2
        if q2 & 1:
            key = key % head * m + 2
            q, q2 = q2, k * q2 - q
        else:
            key = key % head * m + 2 * k + 1
            q3 = k * q2 - q
            q, q2 = q3, (q_max + q2) // q3 * q3 - q2
        kept.append(key)
    return counted, kept


def _read_pass(q_max: int, h: int, counted: dict, kept: list) -> dict[int, int]:
    """The h-window keys of a ``_gap_pass`` at any length >= h, with their
    counts: its counted keys and first h - 1 kept keys, mod m**h, that are
    >= 2*m**(h - 1)."""
    m = _key_base(q_max)
    mod, partial = m**h, 2 * m ** (h - 1)
    keys: dict[int, int] = {}
    get = keys.get
    for key, count in [*counted.items(), *((key, 1) for key in kept[: h - 1])]:
        key %= mod
        if key >= partial:
            keys[key] = get(key, 0) + count
    return keys


def _smallest_prime_factors(n: int) -> list[int]:
    """spf[k] is the least prime factor of k for 2 <= k <= n."""
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for k in range(p * p, n + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _odd_totient_sum(n: int, spf: Sequence[int]) -> int:
    """The sum of phi(q) over odd q <= n, from the sieve ``spf`` of
    ``_smallest_prime_factors`` (which must reach n): with p the least prime
    of q and m = q/p, phi(q) = phi(m)*p when p divides m, and phi(m)*(p - 1)
    otherwise."""
    phi = [1] * (n + 1)  # phi(1) = 1; even entries stay unread
    for q in range(3, n + 1, 2):
        p = spf[q]
        m = q // p
        phi[q] = phi[m] * (p if m % p == 0 else p - 1)
    return sum(phi[1::2])


def _squarefree_divisors(n: int, spf: Sequence[int]) -> list[tuple[int, int]]:
    """(d, mu(d)) for the squarefree divisors d of n >= 1, from the sieve
    ``spf`` of ``_smallest_prime_factors`` (which must reach n)."""
    divs = [(1, 1)]
    while n > 1:
        p = spf[n]
        divs += [(p * d, -mu) for d, mu in divs]
        while n % p == 0:
            n //= p
    return divs


def _index_runs(
    x: int, y: int, n0: int, n1: int, d0: int, d1: int, top: Optional[int] = None
) -> list[tuple[int, int, int]]:
    """Split the q in (x, y] into runs (x', y', k) on which the index
    k = (n0 + n1*q) // (d0 + d1*q) is constant, leaving out the q whose
    index exceeds ``top`` if it is given.

    Along a row the index never decreases in q (see the module docstring),
    so the run of k ends at the last q below the first with index k + 1,
    where n0 + n1*q >= (k + 1)*(d0 + d1*q) starts to hold, and the q with
    index above ``top`` are the ones past the end of the run of ``top``.
    """
    k = (n0 + n1 * (x + 1)) // (d0 + d1 * (x + 1))
    end = (n0 + n1 * y) // (d0 + d1 * y)
    if top is not None and end > top:
        if k > top:
            return []
        end = top
        y = ((top + 1) * d0 - n0 - 1) // (n1 - (top + 1) * d1)
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


def _fan_counts(q_max: int, spf: Sequence[int]) -> tuple[int, int]:
    """Numbers of the windows of two steps whose first step runs over an
    even denominator b to an odd s <= Q/3: those with key (3, 2), and those
    with key (3, 3).

    The b before such an s are the even b in (Q - s, Q] coprime to s, and
    the key is (3, 2) exactly when (Q + b) // s is odd (the fan lemma of the
    module docstring).  That index is 2Q // s from b = (2Q // s)*s - Q on
    and one less below, and each of the two runs counts its even b coprime
    to s by Moebius over the squarefree divisors d of s, which are odd, as
    the multiples of 2d.
    """
    odd = even = 0
    for s in range(1, q_max // 3 + 1, 2):
        k = 2 * q_max // s
        cut = k * s - q_max - 1  # (Q + b) // s is k for b > cut, k - 1 below
        below = above = 0
        for d, mu in _squarefree_divisors(s, spf):
            d *= 2
            below += mu * (cut // d - (q_max - s) // d)
            above += mu * (q_max // d - cut // d)
        if k & 1:
            odd, even = odd + above, even + below
        else:
            odd, even = odd + below, even + above
    return odd, even


def _block_keys(
    q_max: int, h: int, rows: Optional[Sequence[list[int]]] = None
) -> dict[int, int]:
    """Keys of the windows of the periodic odd subsequence that start at the
    primitive points (q, b) of Q*T with q odd, with their counts, by counting
    those points in row blocks.

    Row b holds the points (q, b) with odd q in (Q - b, Q] coprime to b; a
    block is a run of q on which every step of the window is fixed, its
    denominators being linear in q (see the module docstring).  Without
    ``rows`` each block counts all its points by Moebius inversion.  With
    ``rows``, a sequence indexed by b up to Q, only the start points (q, b)
    with q in the ascending list ``rows[b]`` are counted: a block counts the
    listed q in it, and the walk skips what lists none.

    Without ``rows`` at h >= 2 the walk counts only the windows whose last
    code is at most their first, and each counted window whose last code is
    below its first adds its reversal (the reversal lemma of the module
    docstring).  At h <= 2 it visits the even rows alone, and the all-'OO'
    window of the odd rows is what the others leave of the total
    ``_odd_totient_sum`` (the odd-row lemma).  At h = 2 a first 'OEO' step
    also stops short of the odd denominators s <= Q/3, whose windows
    ``_fan_counts`` counts.  With ``rows`` the walk visits every row, with
    no cap, fan or reversal.  Runs of the index per row of Q*T:

        =================================  =  =====  =====  =====
        walk                               h   3000  20000  10**5
        =================================  =  =====  =====  =====
        every row, no cut                  2  14.0   16.3   18.4
        fan and cap, every row             2   4.87   4.87   4.87
        fan and cap, even rows only        2   3.87   3.87   3.87
        every row, no cut                  3  46.6   55.6
        every row, cap                     3  36.8   43.9
        every row, no cut                  4  104.3
        every row, cap                     4  91.2
        =================================  =  =====  =====  =====
    """
    m = _key_base(q_max)
    keys: dict[int, int] = {}
    get = keys.get
    whole = rows is None
    if whole:
        spf = _smallest_prime_factors(q_max)
    least = q_max // 3 + 1 if whole and h == 2 else 0  # the least s a first 'OEO' step reaches
    lead = m ** (h - 2) if whole and h >= 2 else 0  # at the last step key // lead is the first code
    step = 2 if whole and h <= 2 else 1  # walk the even rows, derive the odd ones
    for b in range(step, q_max + 1, step):
        if whole:
            # q is coprime to 2b iff odd and coprime to the odd part of b,
            # and (n // d + 1) // 2 odd multiples of an odd d are <= n
            divs = _squarefree_divisors(b // (b & -b), spf)
        else:
            qs = rows[b]
            if not qs:
                continue
        # (x, y, steps left, u0, u1, v0, v1, key): the window has reached
        # the odd denominator u0 + u1*q, followed by v0 + v1*q, for q in (x, y]
        todo = [(q_max - b, q_max, h, 0, 1, b, 0, 0)]
        while todo:
            x, y, left, u0, u1, v0, v1, key = todo.pop()
            if not whole:  # narrow (x, y] to its listed q, if any
                i, j = bisect_right(qs, x), bisect_right(qs, y)
                if i == j:
                    continue
                x, y = qs[i] - 1, qs[j - 1]
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
                # a last code 2k + 1 is at most the first code c1 iff k <= (c1 - 1) // 2
                top = (key // lead - 1) >> 1 if lead and not left else None
                for x2, y2, k in _index_runs(x, y, q_max + u0, u1, v0, v1, top):
                    key2 = key * m + 2 * k + 1
                    if not left:
                        blocks.append((x2, y2, key2))
                        continue
                    w0, w1 = k * v0 - u0, k * v1 - u1
                    if least:  # h = 2: the first step, to w0 - q >= least
                        y2 = min(y2, w0 - least)
                        if y2 <= x2:
                            continue
                    for x3, y3, k2 in _index_runs(x2, y2, q_max + v0, v1, w0, w1):
                        todo.append((x3, y3, left, w0, w1, k2 * w0 - v0, k2 * w1 - v1, key2))
            for x, y, key in blocks:
                if whole:
                    count = 0
                    for d, mu in divs:
                        count += mu * (((y // d + 1) >> 1) - ((x // d + 1) >> 1))
                else:
                    count = bisect_right(qs, y) - bisect_right(qs, x)
                if count:
                    keys[key] = get(key, 0) + count
    if not whole:
        return keys
    if least:
        for key, count in zip((3 * m + 2, 3 * m + 3), _fan_counts(q_max, spf)):
            if count:
                keys[key] = get(key, 0) + count
    # the windows whose last code is above their first, by the reversal lemma
    first = m ** (h - 1)
    for key, count in list(keys.items()):
        if key % m < key // first:  # never at h = 1, where the last code is the first
            flipped = 0
            for _ in range(h):
                key, code = divmod(key, m)
                flipped = flipped * m + code
            keys[flipped] = get(flipped, 0) + count
    if h <= 2:  # the all-'OO' window of the odd rows is what the rest leaves
        rest = _odd_totient_sum(q_max, spf) - sum(keys.values())
        if rest:
            keys[2 * m + 2 if h == 2 else 2] = rest
    return keys


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
    if interval is None:  # the row-block keys less the windows past 1/1
        keys = _block_keys(q_max, h)
        for key, count in _window_keys(q_max, h, _tail_starts(q_max, h)).items():
            keys[key] -= count
        keys = {k: c for k, c in keys.items() if c}
    else:
        keys = _read_pass(q_max, h, *_gap_pass(q_max, h, interval))
    return _histogram(keys, q_max, h, with_steps)


def _stream_histograms(
    q_max: int, h: int, interval: Optional[UnitInterval] = None, with_steps: bool = False
) -> list[tuple[Counter, int]]:
    """``gap_histogram`` at every length 1, ..., h from one streaming pass,
    whatever the interval: the streaming side of the lattice window
    identity, and the oracle of the counted windows."""
    counted, kept = _gap_pass(q_max, h, _restriction(q_max, h, interval))
    return [
        _histogram(_read_pass(q_max, j, counted, kept), q_max, j, with_steps)
        for j in range(1, h + 1)
    ]
