"""Primitive lattice counts with parity and modular-inverse restrictions.

For a region R inside the (unit-scaled) Farey triangle and an order Q, the
counters here count integer points (a, b) with (a/Q, b/Q) satisfying every
region constraint at its exact strictness, optionally filtered by
coordinate parities, primitivity gcd(a, b) = 1, and the short-interval rule
below.  They go column by column with exact integer bounds per column:
``_columns`` is the one place that turns the region's constraints (scaled
by geometry's ``_functional``, the one half-plane-to-integer rule) into
each column's b-range, keeping the a and the b of the asked parities
(paths' ``_parity_range``); ``_sweep`` adds the sieve that reaches them.

Counted columns.  One column counter, ``_count_columns``, serves
``count_lattice``, ``count_delta_tuples`` and ``window_count``; without an
interval it and ``parity_profile`` (all three classes in one sweep) never
visit a point.  Column a's primitive points are counted by Moebius inversion
over the squarefree divisors d of a, from farey's smallest-prime-factor
sieve: sum of mu(d) times the multiples of d in the b-range that have the
right parity (for odd d, d*t has the parity of t; for even d, every multiple
is even, so the term is 0 when b must be odd).  That costs 2**omega(a) terms
per column instead of one gcd per point.  Counts and decodes restricted to
an interval walk each column by the inverse rule below.

Windows vs points.  Each primitive point (a, b) in Q*T with a odd is the
denominator pair of an odd-denominator fraction and its Farey successor, and
its index orbit decodes the window of the next h odd-denominator fractions.
Summed over walk families this reproduces the streaming window counts with
one caveat: the decoded walk continues past 1/1 into the periodic
continuation of the sequence, while the streaming side stops there.  The
identity checkers therefore subtract the (at most h) boundary windows that
start inside F(Q) but end past 1/1; with that correction the equality is an
exact integer identity at every order.  Those boundary windows are farey's
tail windows (``farey._tail_starts``), kept by the half-open rule below when
there is an interval.  Without an interval the windows are counted, not
decoded one point at a time: the start points are exactly the ones that
``farey._block_keys`` counts in row blocks, so the decoder takes its keys
(``farey.gap_histogram`` takes the same count less the tail windows).  With an
interval ``_kept`` gives the kept start pairs column by column, and the
request (|I|*Q and h) picks one of two routes for them before the first is
kept (``decode_histogram``).  A wide interval lists them by row and counts
them in the same row blocks (``farey._block_keys`` given the rows): a kept
start is a primitive point (q, b) of Q*T with q odd, row b's blocks tile
(Q - b, Q] and fix the window key of every odd q in them, so a block's
kept starts are exactly the kept windows with its key.  A narrow one codes
each start on its own (``farey._window_keys``), in O(1) memory.  Every
window key is decoded by ``farey._histogram``, so the recurrence and the
key format live only in farey.  ``verify_tuple_identities`` streams and
decodes once per (Q, interval), at the longest length H of its tuples, and
reads each shorter h off that: the pass as farey proves, the decode by
``_truncated``.  Nothing is cached.

Short intervals.  A point (a, b) with gcd(a, b) = 1 has a unique inverse
b_bar in {1, ..., a-1} with b*b_bar = 1 mod a (b_bar = 0 when a = 1, as
Python's pow(b, -1, 1) gives); it equals a*(1 - gamma0) for the window's
first fraction gamma0.  Membership in I = [lo, hi] is taken as
a*(1 - hi) <= b_bar < a*(1 - lo), i.e. the half-open rule lo < gamma0 <= hi,
so interval partitions of [0, 1] induce exact partitions of counts.  (The
streaming side uses closed membership; the two differ only when lo itself
is an odd-denominator fraction of F(Q), see ``_lo_pair``: the verifiers
flag that case, and the counts below correct for it.)  ``_inverse_rule``
states the rule once per column: the kept b_bar form range(ceil(a*(1 -
hi)), ceil(a*(1 - lo))).  A wall is an integer among a*(1 - hi), a*(1 -
lo) below a that is a unit mod a (the inverse of some b), and an
endpoint's walls lie in its own column alone: for e = n/d in lowest terms
with 0 < e < 1, a*(1 - e) = a*(d - n)/d is an integer exactly when d | a,
and then it shares the factor a/d with a, so it is a unit only when a = d
(wall d - n); at e = 1 the wall 0 is a unit only when a = 1 (wall d - n
again), and at e = 0, a*(1 - e) = a is no wall.  The two endpoints may
share a column, as 1/3 and 2/3 share column 3.  As b -> b_bar is an
involution on the units mod a, the kept b of a column that spans less than
a (every column of a region inside T: column a of Q*T is (Q - a, Q]) are
the lifts of the kept units, one b = b_bar^-1 mod a each.  ``_kept`` is the
one kernel that applies the rule to points: it walks the shorter of the two
ranges, min(#b, a*|I| + 1) values per column (at most |I|*Q^2/4 + Q to
decode Q*T, against about Q^2/4 point by point), and keeps a unit when its
inverse's offset from the other range's start lands in that range.  On a
walk of more than 8 values no value costs a gcd or an inverse of its own:
``_units`` sieves the range by a's primes, and the units left are inverted
in one batch (Montgomery's trick), at 3 multiplications mod a each and one
inversion per column, inside the pass that tests them.  A walk of at most 8
values (every wall, and every column with a*|I| <= 7) tests each value by
one gcd and one inversion, which costs less than the bytearray and the
batch.  An interval count needs no point at all from a column that holds
one b of every unit class mod a (all of Q*T's columns when b's parity is
free): it counts the units among the kept inverses by Moebius inversion
(``_count_columns``).

Window counts.  ``empirical_rho`` divides two counts, each one function
and neither a pass.  ``count_delta_tuples`` counts a gap tuple's windows:
they start at the primitive points (a, b) of Q*R, a odd and b of the given
parity, over the (region R, first-vertex parity) pairs of its region list:
its walk families' cylinders and, for an open tuple, one shell per pair of
escape slots.  density.py builds the list (``_tuple_regions``) and proves
it exact at every order.  ``window_count`` counts every window: without an
interval, the odd-denominator elements of F(Q) less h; with one, by the
columns below.

The closed/half-open bridge.  The region list's points are the starts of the
periodic sequence's windows, kept when lo < gamma0 <= hi; the pass counts
the full windows (not running past 1/1) with lo <= gamma0 <= hi.  A start
kept by one rule and not the other has gamma0 = lo, and there is one
exactly when lo is an odd-denominator element of F(Q): lo > 0, with odd
reduced denominator at most Q (``_lo_pair``).  The windows that run past
1/1 are the tail windows, and the half-open rule keeps the same ones among
them as among the points (``boundary_window_histogram``).  Hence the pass
counts the points plus the bridge (``_bridge``, per gap tuple): the window
at lo when it is full, less the kept tail windows read by their gaps.
``count_delta_tuples`` adds its tuple's entry.  ``window_count`` adds the
whole bridge to the odd-denominator elements in (lo, hi]: each odd q adds
the a in (lo*q, hi*q] coprime to q, ``_count_columns`` over the columns
(q, (lo*q, hi*q]) with no interval.  ``stats`` and the verifiers keep their
routes.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import compress
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .density import _tuple_regions
from .farey import (
    UnitInterval,
    _block_keys,
    _check_order,
    _histogram,
    _restriction,
    _smallest_prime_factors,
    _squarefree_divisors,
    _stream_histograms,
    _successor_den,
    _tail_starts,
    _window_keys,
    odd_farey_count,
)
from .geometry import (
    ConvexRegion,
    _functional,
    cylinder,
    refine,
    unimodular_image,
)
from .paths import (
    _PARITIES,
    _gap_tuple,
    _parity_range,
    arrow_text,
    families,
)

__all__ = [
    "PairParity",
    "CountReport",
    "count_lattice",
    "parity_profile",
    "decode_histogram",
    "boundary_window_histogram",
    "count_delta_tuples",
    "window_count",
    "empirical_rho",
    "FamilyCheck",
    "VerifyResult",
    "verify_tuple_identities",
    "verify_parity_swap",
]


class PairParity(namedtuple("PairParity", "x y", defaults=("any", "any"))):
    """Parity filter for the two coordinates ('odd' / 'even' / 'any')."""

    __slots__ = ()

    def __new__(cls, x: str = "any", y: str = "any"):
        if x not in _PARITIES or y not in _PARITIES:
            raise ValueError(f"parities must be in {_PARITIES}")
        return super().__new__(cls, x, y)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


class CountReport(NamedTuple):
    """Result of one lattice count, with the filters that produced it."""

    count: int
    region: ConvexRegion
    order: int
    parity: PairParity
    primitive: bool
    interval: Optional[UnitInterval] = None
    boundary_hits: int = 0


# ---------------------------------------------------------------------------
# column sweeps
# ---------------------------------------------------------------------------


def _column_range(
    cons: Sequence[tuple[int, int, int, bool]], a: int
) -> Optional[tuple[int, int]]:
    """Exact integer b-range of one column, or None when the column is empty;
    each of ``cons`` is (cx, cy, rhs, strict) for cx*a + cy*b <= rhs (< when
    strict)."""
    lo: Optional[int] = None
    hi: Optional[int] = None
    for cx, cy, rhs, strict in cons:
        r = rhs - cx * a
        if cy == 0:
            if r < 0 or (strict and r == 0):
                return None
        elif cy > 0:
            b = (r - 1) // cy if strict else r // cy
            hi = b if hi is None else min(hi, b)
        else:
            d, p = -cy, -r
            b = p // d + 1 if strict else -((-p) // d)
            lo = b if lo is None else max(lo, b)
    if lo is None or hi is None:
        raise ValueError("region constraints do not bound the sweep column")
    if lo > hi:
        return None
    return lo, hi


def _columns(
    region: ConvexRegion, q_max: int, parity: PairParity
) -> Iterator[tuple[int, range]]:
    """Yield (a, b-range) for every nonempty column of the scaled region.

    Columns of the wrong x-parity are skipped; each b-range starts at the
    first b of the right y-parity and strides by 2 when y-parity is fixed.
    """
    bounds = region.bounds()
    if bounds is None:  # empty region
        return
    cons = []
    for hp in region.constraints:  # (a/Q, b/Q) is in hp's closure iff gx*a + gy*b + gw*Q <= 0
        gx, gy, gw = _functional(hp)
        cons.append((gx, gy, -gw * q_max, hp.sense in ("<", ">")))
    xmin, xmax, _, _ = bounds
    xlo = max(-(-q_max * xmin.numerator // xmin.denominator), 1)
    for a in _parity_range(parity.x, xlo, q_max * xmax.numerator // xmax.denominator):
        rng = _column_range(cons, a)
        if rng is not None:
            yield a, _parity_range(parity.y, *rng)


def _coprime_count(divs: Sequence[tuple[int, int]], bs: range) -> int:
    """#{b in bs : gcd(a, b) = 1}, by Moebius inversion over the squarefree
    divisors (d, mu(d)) of a.  ``bs`` has step 1, or step 2 from the parity
    it keeps: a column range of ``_columns``, or a column's kept inverses."""
    lo, hi = bs.start - 1, bs.stop - 1  # the b in (lo, hi]
    if bs.step == 1:
        return sum(mu * (hi // d - lo // d) for d, mu in divs)
    odd = bs.start & 1  # (n + odd) >> 1 of the t <= n have the parity of bs
    count = 0
    for d, mu in divs:
        if d & 1:  # d*t has the parity of t
            count += mu * (((hi // d + odd) >> 1) - ((lo // d + odd) >> 1))
        elif not odd:  # every multiple of an even d is even
            count += mu * (hi // d - lo // d)
    return count


def _sweep(
    region: ConvexRegion, q_max: int, parity: PairParity
) -> tuple[list[tuple[int, range]], list[int]]:
    """The columns of the scaled region (``_columns``) and the sieve that
    reaches them all: a increases, so the last column's sieve."""
    _check_order(q_max)
    cols = list(_columns(region, q_max, parity))
    return cols, _smallest_prime_factors(cols[-1][0] if cols else 1)


def _inverse_rule(a: int, interval: UnitInterval) -> range:
    """Column a's kept inverses, range(ceil(a*(1 - hi)), ceil(a*(1 - lo)))."""
    start, stop = (-(-a * (e.denominator - e.numerator) // e.denominator) for e in (interval.hi, interval.lo))
    return range(start, stop)


def _units(a: int, vals: range, spf: Sequence[int]) -> list[int]:
    """The v in ``vals`` (step 1 or 2) with gcd(a, v) = 1: the multiples of
    each prime of a, from the sieve ``spf`` (which must reach a), are struck
    from vals.start, ..., vals.stop - 1, and vals is read off what is left."""
    n = len(range(vals.start, vals.stop))
    keep, zeros = bytearray(b"\x01") * n, bytes(n)
    while a > 1:
        p = spf[a]
        while a % p == 0:
            a //= p
        i = -vals.start % p  # the first index of a multiple of p
        keep[i::p] = zeros[i::p]
    return list(compress(vals, keep[::vals.step]))


def _kept(a: int, bs: range, bbars: range, spf: Sequence[int]) -> list[int]:
    """The b in ``bs`` with gcd(a, b) = 1 and b_bar in ``bbars``, in walk order.

    The kernel walks the shorter of ``bs`` and ``bbars`` (by b_bar only when
    ``bs`` spans less than a) and keeps a unit of the walked range when the
    offset ``off`` in [0, a) of its inverse mod a from the other range's
    start reaches no further than that range's last value and, when that
    range has step 2, is even.  As ``bbars`` lies in [0, a) and the walk by
    b_bar needs ``bs`` to span less than a, start + off is the inverse's one
    candidate in the other range.  A walk of more than 8 values is sieved
    (``_units``) and inverted by Montgomery's trick: the units' suffix
    products, one inversion per column, and one pass that finds each unit's
    inverse at 3 multiplications mod a and tests it there."""
    by_bbar = len(bbars) < len(bs) and bs[-1] - bs[0] < a
    walked, other = (bbars, bs) if by_bbar else (bs, bbars)
    if not other:  # no value to keep, and no last one
        return []
    start, last, odd = other.start, other[-1] - other.start, other.step - 1
    if len(walked) <= 8:  # a gcd and an inverse per value cost less up to here
        offs = ((v, (pow(v, -1, a) - start) % a) for v in walked if gcd(a, v) == 1)
        return [start + off if by_bbar else v for v, off in offs if off <= last and not off & odd]
    units = _units(a, walked, spf)
    after, p = [], 1
    for u in reversed(units):
        after.append(p)  # the product of the units after u
        p = p * u % a
    inv, kept = pow(p, -1, a), []
    for u, p in zip(units, reversed(after)):  # inv = 1 / (u * p) mod a
        off = (inv * p - start) % a
        if off <= last and not off & odd:
            kept.append(start + off if by_bbar else u)
        inv = inv * u % a
    return kept


def _count_columns(
    cols: Iterable[tuple[int, range]], spf: Sequence[int], interval: Optional[UnitInterval]
) -> tuple[int, int]:
    """The primitive points of ``_columns`` output, those that the inverse
    rule keeps when there is an interval, and the points whose inverse lies
    on a wall (0 without one); the sieve ``spf`` must reach the last column.

    Without an interval each column is counted whole by ``_coprime_count``.
    With one, a column is walked by ``_kept`` unless its b-range holds
    exactly one b of every unit class mod a: a values of step 1 (a
    consecutive integers), or, for an even a, a // 2 odd values of step 2
    (they meet every odd class once, and every unit of an even a is odd).
    The primitive b of such a column are then one per unit class, and b ->
    b_bar is a bijection on the units mod a, so its kept b are as many as
    the units among the kept inverses in [0, a): ``_coprime_count`` of
    ``bbars``, and of each wall, with no inversion.  (``window_count``
    counts the a coprime to q in (lo*q, hi*q] on the same ground.)  The
    walls are read from the endpoints once: wall d - n in column d for each
    endpoint n/d other than 0 (module docstring)."""
    count = hits = 0
    walls: dict[int, list[range]] = {}
    for end in () if interval is None else {interval.lo, interval.hi} - {0}:
        d, w = end.denominator, end.denominator - end.numerator
        walls.setdefault(d, []).append(range(w, w + 1))
    for a, bs in cols:
        if interval is None:
            count += _coprime_count(_squarefree_divisors(a, spf), bs)
            continue
        bbars = _inverse_rule(a, interval)
        if len(bs) == a if bs.step == 1 else not a & 1 and bs.start & 1 and len(bs) == a >> 1:
            divs = _squarefree_divisors(a, spf)
            count += _coprime_count(divs, bbars)
            hits += sum(_coprime_count(divs, r) for r in walls.get(a, ()))
        else:
            count += len(_kept(a, bs, bbars, spf))
            hits += sum(len(_kept(a, bs, r, spf)) for r in walls.get(a, ()))
    return count, hits


def count_lattice(
    region: ConvexRegion,
    q_max: int,
    parity: PairParity = PairParity(),
    primitive: bool = True,
    interval: Optional[UnitInterval] = None,
) -> CountReport:
    """Exact count of integer points of the scaled region, with filters.

    Membership honors each constraint's strict/non-strict sense exactly, so
    boundary lattice points are classified deterministically.  Without
    ``primitive`` a column counts its length.  An ``interval`` keeps the
    primitive points whose b_bar (the inverse of b mod a in {1, ..., a-1}, 0
    when a = 1) has a*(1 - hi) <= b_bar < a*(1 - lo), and tallies those on
    either wall in ``boundary_hits``; only a primitive point has an inverse,
    so ``primitive=False`` with an interval is a ValueError.
    """
    if primitive:
        count, hits = _count_columns(*_sweep(region, q_max, parity), interval)
    elif interval is not None:
        raise ValueError("the inverse rule is defined only for primitive points")
    else:
        _check_order(q_max)
        count, hits = sum(len(bs) for _, bs in _columns(region, q_max, parity)), 0
    return CountReport(count, region, q_max, parity, primitive, interval, hits)


def parity_profile(region: ConvexRegion, q_max: int) -> dict[tuple[str, str], int]:
    """Primitive counts keyed by coordinate parities, from one column sweep.

    Only ('odd','odd'), ('odd','even'), ('even','odd') occur: two even
    coordinates are never coprime.  An odd column counts its odd and its
    even b, an even column its odd b, each by ``_coprime_count``.
    """
    cols, spf = _sweep(region, q_max, PairParity())
    oo = oe = eo = 0
    for a, bs in cols:
        divs = _squarefree_divisors(a, spf)
        odd_bs = _parity_range("odd", bs.start, bs.stop - 1)
        if a & 1:
            oo += _coprime_count(divs, odd_bs)
            oe += _coprime_count(divs, _parity_range("even", bs.start, bs.stop - 1))
        else:
            eo += _coprime_count(divs, odd_bs)
    return {("odd", "odd"): oo, ("odd", "even"): oe, ("even", "odd"): eo}


# ---------------------------------------------------------------------------
# window decoding
# ---------------------------------------------------------------------------


def decode_histogram(
    q_max: int, h: int, interval: Optional[UnitInterval] = None
) -> Counter:
    """Window histogram decoded from lattice points, keyed (gaps, steps).

    Every primitive point of Q*T with odd x decodes to exactly one window of
    the *periodic* odd subsequence; free index labels never exceed 2Q, so the
    per-family sums below are finite by construction.

    With an interval of width |I| the kept starts, about |I|*Q**2 / 5 of
    them, are counted in farey's row blocks when |I|*Q >= 12 * 3**h and
    |I|*Q**2 <= 2**26, and coded one by one otherwise (module docstring).
    A row holds about |I|*Q / 5 starts, and the blocks that hold them grow
    with h faster than the coding does, so the threshold (36, 108, 324 and
    972 for h = 1 to 4) rises with h.  Rows time over coding time, decoded
    in-process on a 2-core x86-64 box (best of 2; each cell gave equal keys
    both ways):

        Q, |I|          |I|*Q   h = 1   h = 2   h = 3   h = 4
        896, 1/2          448    0.51    0.50    0.76    0.88
        3000, 1/2        1500            0.39    0.56
        20000, 1/100      200            0.82    1.21
        10**4, 1/100      100            0.96    2.08
        10**5, 1/1000     100            1.02    1.48
        10**5, 1/10**4     10    1.13    1.53    2.20    2.97

    At Q = 2000 and 8000 (best of 3) the rows took 1.05-1.10, 0.94-1.22 and
    1.06-1.13 of the coding at |I|*Q = 2**(h + 4) for h = 2 to 4, 0.80,
    0.84-0.87 and 0.98-1.00 at twice that, and 0.51-0.52, 0.55 and 0.43 at
    eight times; for h = 1, 0.66-0.83 at |I|*Q = 32.  The rows hold one list
    pointer per kept start, 8.75 bytes with the lists' slack (911,956
    starts at Q = 3000, |I| = 1/2): about 90 MB for the 10**7 starts of Q =
    10**4, |I| = 1/2, and the cap 2**26 keeps them under 120 MB.
    """
    interval = _restriction(q_max, h, interval)
    if interval is None:  # the start pairs are farey's row-block points
        return _histogram(_block_keys(q_max, h), q_max, h, with_steps=True)[0]
    cols, spf = _sweep(cylinder(()), q_max, PairParity("odd", "any"))
    kept = ((a, _kept(a, bs, _inverse_rule(a, interval), spf)) for a, bs in cols)
    width = interval.hi - interval.lo
    if width * q_max >= 12 * 3**h and width * q_max * q_max <= 1 << 26:
        rows: list[list[int]] = [[] for _ in range(q_max + 1)]
        for a, bs in kept:  # a increases, so every row is ascending
            for b in bs:
                rows[b].append(a)
        keys = _block_keys(q_max, h, rows)
    else:
        keys = _window_keys(q_max, h, ((a, b) for a, bs in kept for b in bs))
    return _histogram(keys, q_max, h, with_steps=True)[0]


def _truncated(hist: Counter, h: int) -> Counter:
    """A decoded (gaps, steps) histogram cut to the first h steps: a decoded
    window is a full window of the periodic sequence, so its first h steps
    are the h-window from the same start."""
    out: Counter = Counter()
    for (gaps, steps), count in hist.items():
        out[gaps[:h], steps[:h]] += count
    return out


def boundary_window_histogram(
    q_max: int, h: int, interval: Optional[UnitInterval] = None
) -> Counter:
    """The decoded windows that start in F(Q) but end past 1/1 (at most h):
    farey's tail windows, kept by the half-open rule when there is an
    interval (a start pair is coprime, so its b_bar is one inverse)."""
    interval = _restriction(q_max, h, interval)
    starts = _tail_starts(q_max, h)
    if interval is not None:
        starts = [(q, q2) for q, q2 in starts if pow(q2, -1, q) in _inverse_rule(q, interval)]
    return _histogram(_window_keys(q_max, h, starts), q_max, h, with_steps=True)[0]


def _lo_pair(q_max: int, interval: Optional[UnitInterval]) -> Optional[tuple[int, int]]:
    """The start pair (q, q') of lo when lo is an odd-denominator element of
    F(q_max), else None: the one start that the closed rule keeps and the
    half-open rule drops (see ``UnitInterval``)."""
    if interval is None:
        return None
    lo, q = interval.lo, interval.lo.denominator
    if lo == 0 or not q & 1 or q > q_max:
        return None
    return q, _successor_den(q_max, lo.numerator, q)


# ---------------------------------------------------------------------------
# window counts of one gap tuple
# ---------------------------------------------------------------------------


def _bridge(q_max: int, h: int, interval: Optional[UnitInterval]) -> Counter:
    """The closed pass's windows less the half-open points, per gap tuple:
    minus each kept tail window, plus the window at lo when lo is an
    odd-denominator element of F(Q) and its window does not run past 1/1
    (see the module docstring)."""
    pair = _lo_pair(q_max, interval)
    starts = [] if pair is None or pair in _tail_starts(q_max, h) else [pair]
    bridge = _histogram(_window_keys(q_max, h, starts), q_max, h, with_steps=False)[0]
    for (gaps, _), count in boundary_window_histogram(q_max, h, interval).items():
        bridge[gaps] -= count
    return bridge


def count_delta_tuples(
    q_max: int,
    deltas: Sequence[int],
    interval: Optional[UnitInterval] = None,
) -> int:
    """Count windows of h+1 consecutive odd-denominator fractions whose gap
    tuple equals ``deltas`` (first fraction in ``interval`` when given, closed
    membership): the primitive points of the tuple's region list (density's
    ``_tuple_regions``), kept by the half-open rule, plus the bridge (see the
    module docstring).
    """
    target = _gap_tuple(deltas)
    interval = _restriction(q_max, len(target), interval)
    spf = _smallest_prime_factors(q_max)
    count = sum(_count_columns(_columns(region, q_max, PairParity("odd", first)), spf, interval)[0]
                for region, first in _tuple_regions(target))
    return count + _bridge(q_max, len(target), interval)[target]


def window_count(
    q_max: int, h: int, interval: Optional[UnitInterval] = None
) -> int:
    """Number of length-(h+1) windows with first fraction in ``interval``,
    counted: the odd-denominator elements of F(Q) less h, or those in (lo,
    hi] by odd q's columns plus the bridge (see the module docstring)."""
    interval = _restriction(q_max, h, interval)
    if interval is None:
        return max(odd_farey_count(q_max) - h, 0)
    (ln, ld), (hn, hd) = interval.lo.as_integer_ratio(), interval.hi.as_integer_ratio()
    cols = ((q, range(ln * q // ld + 1, hn * q // hd + 1)) for q in range(1, q_max + 1, 2))
    count = _count_columns(cols, _smallest_prime_factors(q_max), None)[0]
    return count + sum(_bridge(q_max, h, interval).values())


def _tuple_windows(q_max: int, deltas: Sequence[int], interval: Optional[UnitInterval]):
    """(matching windows, all windows) for ``empirical_rho``; a ValueError
    when there is no window."""
    count = count_delta_tuples(q_max, deltas, interval)
    h = len(deltas)
    windows = window_count(q_max, h, interval)
    if windows == 0:
        where = "" if interval is None else f" with first fraction in {interval}"
        raise ValueError(
            f"no length-{h + 1} windows{where} in the odd subsequence of F({q_max})"
        )
    return count, windows


def empirical_rho(
    q_max: int, deltas: Sequence[int], interval: Optional[UnitInterval] = None
) -> Fraction:
    """Exact ratio (matching windows) / (all windows) for the gap tuple.

    The denominator is the number of length-(h+1) windows, h = len(deltas),
    with the first fraction in ``interval`` when one is given.
    """
    return Fraction(*_tuple_windows(q_max, deltas, interval))


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


class FamilyCheck(NamedTuple):
    """Per-family comparison of the streaming and lattice window counts."""

    signature: tuple[str, ...]
    text: str
    stream: int
    lattice: int
    boundary: int

    @property
    def ok(self) -> bool:
        return self.stream == self.lattice - self.boundary


class VerifyResult(NamedTuple):
    """Machine-readable outcome of one identity check."""

    ok: bool
    lhs: int
    rhs: int
    families: tuple[FamilyCheck, ...] = ()
    notes: tuple[str, ...] = ()

    def first_mismatch(self) -> Optional[FamilyCheck]:
        for fc in self.families:
            if not fc.ok:
                return fc
        return None


def verify_tuple_identities(
    q_max: int, tuples: Sequence[Sequence[int]], interval: Optional[UnitInterval] = None
) -> list[VerifyResult]:
    """Check streaming window count == lattice family sums, exactly; one
    result per gap tuple, in order.

    The left-hand side is the streaming pass over F(Q).  The right-hand side
    takes the window of every primitive odd-x point of Q*T (free labels are
    automatically <= 2Q) and subtracts the boundary windows that run past
    1/1.  Without an interval those windows are counted by farey's row
    blocks of lattice points, on which every step of the window is fixed,
    so the identity compares two independent algorithms: the recurrence
    pass and the lattice count.  With an interval each point is kept by the
    half-open rule, and the kept points are counted in the same row blocks
    or, in a narrow interval, decoded one at a time (``decode_histogram``);
    a note is attached when the closed streaming rule could differ
    (odd-denominator fraction exactly at the lower endpoint).  One pass and
    one decode, at the longest tuple's length, serve every tuple (see the
    module docstring).
    """
    targets = [tuple(int(d) for d in deltas) for deltas in tuples]
    ikey = _restriction(q_max, min(map(len, targets), default=0), interval)
    fams = [families(target) for target in targets]  # checks each tuple before the pass
    top = max(map(len, targets))
    streams = _stream_histograms(q_max, top, ikey, with_steps=True)
    decoded = decode_histogram(q_max, top, ikey)
    notes = ()
    if _lo_pair(q_max, ikey) is not None:
        notes = (
            f"lower endpoint {ikey.lo} is an odd-denominator fraction of F({q_max}): "
            "closed (streaming) and half-open (lattice) memberships may differ",
        )
    results = []
    for target, target_fams in zip(targets, fams):
        h = len(target)
        stream_hist = streams[h - 1][0]
        dec = _truncated(decoded, h)
        bound = boundary_window_histogram(q_max, h, ikey)
        checks = []
        for fam in target_fams:
            sig = fam.path.step_types()
            key = (target, sig)
            checks.append(
                FamilyCheck(sig, arrow_text(fam), stream_hist[key], dec[key], bound[key])
            )
        lhs = sum(fc.stream for fc in checks)
        rhs = sum(fc.lattice - fc.boundary for fc in checks)
        ok = all(fc.ok for fc in checks)
        results.append(VerifyResult(ok, lhs, rhs, tuple(checks), notes))
    return results


def verify_parity_swap(
    q_max: int, k: int, domain: Optional[ConvexRegion] = None
) -> VerifyResult:
    """Check the parity exchange under the unimodular cell map, exactly.

    The map (x, y) -> (y, ky - x) is a primitive-point bijection from the
    scaled index-k cell (intersected with ``domain``) onto its image; it
    sends (odd, even) to (even, odd) and, depending on the parity of k,
    permutes the remaining classes: (px, py) goes to (py, the parity of
    k*py + px), that of ky - x.  All three class equalities are checked.
    """
    if k < 1:
        raise ValueError("cell index k must be >= 1")
    cell = cylinder((k,))
    region = cell if domain is None else refine(cell, domain)
    image = unimodular_image(region, k)
    pa = parity_profile(region, q_max)
    pb = parity_profile(image, q_max)
    name = ("even", "odd")
    checks = []
    for px, py in ((1, 0), (0, 1), (1, 1)):  # the classes of coprime points, 1 for odd
        left, right = (name[px], name[py]), (name[py], name[(k * py + px) & 1])
        checks.append(
            FamilyCheck(
                (f"{left}->{right}",),
                f"N_{left} (cell) == N_{right} (image)",
                pa[left],
                pb[right],
                0,
            )
        )
    lhs = sum(fc.stream for fc in checks)
    rhs = sum(fc.lattice for fc in checks)
    return VerifyResult(all(fc.ok for fc in checks), lhs, rhs, tuple(checks))

