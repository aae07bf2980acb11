"""Primitive lattice counts with parity and modular-inverse restrictions.

For a region R inside the (unit-scaled) Farey triangle and an order Q, the
counters here enumerate integer points (a, b) with (a/Q, b/Q) satisfying
every region constraint at its exact strictness, optionally filtered by
coordinate parities, primitivity gcd(a, b) = 1, and the short-interval rule
below.  Sweeps go column by column with exact integer bounds per column:
``_columns`` is the one place that turns the region's constraints into each
column's b-range, skips columns of the wrong x-parity and aligns the range
to the y-parity.  Each counter keeps its per-point loop inline, since a call
per point would cost more than the point's own test.

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
there is an interval.  Each window, decoded or boundary, is coded by
``farey._window_keys`` and decoded by ``farey._histogram``, so the
recurrence and the key format live only in farey.

Short intervals.  A point (a, b) with gcd(a, b) = 1 has a unique inverse
b_bar in {1, ..., a-1} with b*b_bar = 1 mod a (b_bar = 0 when a = 1); it
equals a*(1 - gamma0) for the window's first fraction gamma0.  Membership in
I = [lo, hi] is taken as  a*(1 - hi) <= b_bar < a*(1 - lo), i.e. the
half-open rule lo < gamma0 <= hi, so interval partitions of [0, 1] induce
exact partitions of counts.  (The streaming side uses closed membership; the
two agree unless some odd-denominator fraction equals an interval endpoint,
which the verifiers flag.)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, log, pi
from typing import Iterable, Iterator, Optional, Sequence

from .farey import (
    UnitInterval,
    _check_order,
    _histogram,
    _restriction,
    _stream_histogram,
    _tail_starts,
    _window_keys,
)
from .geometry import ConvexRegion, cylinder, farey_triangle, refine, unimodular_image
from .paths import arrow_text, families

__all__ = [
    "PairParity",
    "CountReport",
    "count_lattice",
    "count_lattice_interval",
    "parity_profile",
    "decode_histogram",
    "boundary_window_histogram",
    "FamilyCheck",
    "VerifyResult",
    "verify_tuple_identity",
    "verify_parity_swap",
    "AsymptoticRow",
    "asymptotic_report",
    "MAIN_TERM_COEFFICIENTS",
]

_PARITIES = ("odd", "even", "any")


def _fits(n: int, parity: str) -> bool:
    """Whether n has the given parity ('odd' / 'even' / 'any')."""
    return parity == "any" or n % 2 == (parity == "odd")


@dataclass(frozen=True)
class PairParity:
    """Parity filter for the two coordinates ('odd' / 'even' / 'any')."""

    x: str = "any"
    y: str = "any"

    def __post_init__(self) -> None:
        if self.x not in _PARITIES or self.y not in _PARITIES:
            raise ValueError(f"parities must be in {_PARITIES}")

    def matches(self, a: int, b: int) -> bool:
        return _fits(a, self.x) and _fits(b, self.y)

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class CountReport:
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


def _scaled_constraints(
    region: ConvexRegion, q_max: int
) -> list[tuple[int, int, int, bool]]:
    """Constraints as CX*a + CY*b <= RHS (or < when strict) on integer points."""
    out = []
    for hp in region.constraints:
        f, bound = hp.form, hp.bound
        d = bound.denominator
        cx, cy = d * f.cx, d * f.cy
        rhs = q_max * bound.numerator - d * f.c0 * q_max
        if hp.sense in (">=", ">"):
            cx, cy, rhs = -cx, -cy, -rhs
        out.append((cx, cy, rhs, hp.sense in ("<", ">")))
    return out


def _column_range(
    cons: Sequence[tuple[int, int, int, bool]], a: int
) -> Optional[tuple[int, int]]:
    """Exact integer b-range of one column, or None when the column is empty."""
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


def _align(lo: int, parity: str) -> int:
    """The least integer >= lo of the given parity."""
    return lo if _fits(lo, parity) else lo + 1


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
    cons = _scaled_constraints(region, q_max)
    xmin, xmax, _, _ = bounds
    xlo = _align(max(-(-q_max * xmin.numerator // xmin.denominator), 1), parity.x)
    xhi = q_max * xmax.numerator // xmax.denominator
    xstep = 1 if parity.x == "any" else 2
    ystep = 1 if parity.y == "any" else 2
    for a in range(xlo, xhi + 1, xstep):
        rng = _column_range(cons, a)
        if rng is not None:
            yield a, range(_align(rng[0], parity.y), rng[1] + 1, ystep)


def count_lattice(
    region: ConvexRegion,
    q_max: int,
    parity: PairParity = PairParity(),
    primitive: bool = True,
) -> CountReport:
    """Exact count of integer points of the scaled region, with filters.

    Membership honors each constraint's strict/non-strict sense exactly, so
    boundary lattice points are classified deterministically.
    """
    _check_order(q_max)
    count = 0
    for a, bs in _columns(region, q_max, parity):
        if primitive:
            for b in bs:
                if gcd(a, b) == 1:
                    count += 1
        else:
            count += len(bs)
    return CountReport(count, region, q_max, parity, primitive)


def count_lattice_interval(
    region: ConvexRegion,
    q_max: int,
    parity: PairParity,
    interval: UnitInterval,
) -> CountReport:
    """Primitive count additionally requiring b_bar in the scaled interval.

    b_bar is the inverse of b mod a in {1, ..., a-1} (0 when a = 1), and the
    membership rule is a*(1 - hi) <= b_bar < a*(1 - lo).  Points whose b_bar
    lands exactly on either wall are tallied in ``boundary_hits``.
    """
    _check_order(q_max)
    ln, ld = interval.lo.numerator, interval.lo.denominator
    hn, hd = interval.hi.numerator, interval.hi.denominator
    count = 0
    hits = 0
    for a, bs in _columns(region, q_max, parity):
        lo_wall = a * (hd - hn)  # b_bar * hd >= this
        hi_wall = a * (ld - ln)  # b_bar * ld < this
        for b in bs:
            if gcd(a, b) != 1:
                continue
            bbar = 0 if a == 1 else pow(b, -1, a)
            if bbar * hd == lo_wall or bbar * ld == hi_wall:
                hits += 1
            if bbar * hd >= lo_wall and bbar * ld < hi_wall:
                count += 1
    return CountReport(count, region, q_max, parity, True, interval, hits)


def parity_profile(region: ConvexRegion, q_max: int) -> dict[tuple[str, str], int]:
    """Primitive counts keyed by coordinate parities, in one sweep.

    Only ('odd','odd'), ('odd','even'), ('even','odd') occur: two even
    coordinates are never coprime.
    """
    _check_order(q_max)
    out = {("odd", "odd"): 0, ("odd", "even"): 0, ("even", "odd"): 0}
    for a, bs in _columns(region, q_max, PairParity()):
        xk = "odd" if a % 2 else "even"
        for b in bs:
            if gcd(a, b) == 1:
                out[(xk, "odd" if b % 2 else "even")] += 1
    return out


# ---------------------------------------------------------------------------
# window decoding
# ---------------------------------------------------------------------------


def _column_starts(
    interval: Optional[UnitInterval], a: int, bs: Iterable[int]
) -> list[tuple[int, int]]:
    """The window start pairs (a, b) of column a, b in ``bs``: primitive, and
    with a*(1 - hi) <= b_bar < a*(1 - lo) when there is an interval."""
    if interval is None:
        return [(a, b) for b in bs if gcd(a, b) == 1]
    # b_bar is an integer: a*(1 - hi) <= b_bar < a*(1 - lo) iff first <= b_bar < stop
    lo, hi = interval.lo, interval.hi
    first = -(-a * (hi.denominator - hi.numerator) // hi.denominator)
    stop = -(-a * (lo.denominator - lo.numerator) // lo.denominator)
    return [(a, b) for b in bs if gcd(a, b) == 1 and first <= pow(b, -1, a) < stop]


@lru_cache(maxsize=64)
def _decode_cached(q_max: int, h: int, interval: Optional[UnitInterval]) -> Counter:
    keys: dict[int, int] = {}
    get = keys.get
    for a, bs in _columns(farey_triangle(), q_max, PairParity("odd", "any")):
        for key, count in _window_keys(q_max, h, _column_starts(interval, a, bs)).items():
            keys[key] = get(key, 0) + count
    return _histogram(keys, q_max, h, with_steps=True)[0]


def decode_histogram(
    q_max: int, h: int, interval: Optional[UnitInterval] = None
) -> Counter:
    """Window histogram decoded from lattice points, keyed (gaps, steps).

    Every primitive point of Q*T with odd x decodes to exactly one window of
    the *periodic* odd subsequence; free index labels never exceed 2Q, so the
    per-family sums below are finite by construction.
    """
    return _decode_cached(q_max, h, _restriction(q_max, h, interval))


@lru_cache(maxsize=64)
def _stream_cached(q_max: int, h: int, interval: Optional[UnitInterval]) -> Counter:
    # the streaming pass, so the identity still checks the recurrence
    # (gap_histogram counts whole-sequence windows from lattice row blocks)
    return _stream_histogram(q_max, h, interval, with_steps=True)[0]


def boundary_window_histogram(
    q_max: int, h: int, interval: Optional[UnitInterval] = None
) -> Counter:
    """The decoded windows that start in F(Q) but end past 1/1 (at most h):
    farey's tail windows, kept by the half-open rule when there is an interval."""
    interval = _restriction(q_max, h, interval)
    starts = [s for q, q2 in _tail_starts(q_max, h) for s in _column_starts(interval, q, (q2,))]
    return _histogram(_window_keys(q_max, h, starts), q_max, h, with_steps=True)[0]


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyCheck:
    """Per-family comparison of the streaming and lattice window counts."""

    signature: tuple[str, ...]
    text: str
    stream: int
    lattice: int
    boundary: int

    @property
    def ok(self) -> bool:
        return self.stream == self.lattice - self.boundary


@dataclass(frozen=True)
class VerifyResult:
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


def verify_tuple_identity(
    q_max: int,
    deltas: Sequence[int],
    interval: Optional[UnitInterval] = None,
) -> VerifyResult:
    """Check streaming window count == lattice family sums, exactly.

    The right-hand side decodes every primitive odd-x point of Q*T into its
    window (free labels are automatically <= 2Q) and subtracts the boundary
    windows that run past 1/1.  With an interval the lattice side uses the
    half-open rule; a note is attached when the closed streaming rule could
    differ (odd-denominator fraction exactly at the lower endpoint).
    """
    target = tuple(int(d) for d in deltas)
    h = len(target)
    ikey = _restriction(q_max, h, interval)
    stream_hist = _stream_cached(q_max, h, ikey)
    dec = decode_histogram(q_max, h, ikey)
    bound = boundary_window_histogram(q_max, h, ikey)
    checks = []
    for fam in families(target):
        sig = fam.path.step_types()
        key = (target, sig)
        checks.append(
            FamilyCheck(sig, arrow_text(fam), stream_hist[key], dec[key], bound[key])
        )
    notes = []
    if ikey is not None and ikey.lo > 0:
        lo = ikey.lo
        if lo.denominator % 2 == 1 and lo.denominator <= q_max:
            notes.append(
                f"lower endpoint {lo} is an odd-denominator fraction of F({q_max}): "
                "closed (streaming) and half-open (lattice) memberships may differ"
            )
    lhs = sum(fc.stream for fc in checks)
    rhs = sum(fc.lattice - fc.boundary for fc in checks)
    return VerifyResult(all(fc.ok for fc in checks), lhs, rhs, tuple(checks), tuple(notes))


_SWAP_EVEN = (
    (("odd", "even"), ("even", "odd")),
    (("even", "odd"), ("odd", "even")),
    (("odd", "odd"), ("odd", "odd")),
)
_SWAP_ODD = (
    (("odd", "even"), ("even", "odd")),
    (("even", "odd"), ("odd", "odd")),
    (("odd", "odd"), ("odd", "even")),
)


def verify_parity_swap(
    q_max: int, k: int, domain: Optional[ConvexRegion] = None
) -> VerifyResult:
    """Check the parity exchange under the unimodular cell map, exactly.

    The map (x, y) -> (y, ky - x) is a primitive-point bijection from the
    scaled index-k cell (intersected with ``domain``) onto its image; it
    sends (odd, even) to (even, odd) and, depending on the parity of k,
    permutes the remaining classes.  All three class equalities are checked.
    """
    if k < 1:
        raise ValueError("cell index k must be >= 1")
    cell = cylinder((k,))
    region = cell if domain is None else refine(cell, domain)
    image = unimodular_image(region, k)
    pa = parity_profile(region, q_max)
    pb = parity_profile(image, q_max)
    rules = _SWAP_EVEN if k % 2 == 0 else _SWAP_ODD
    checks = []
    for left, right in rules:
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


# ---------------------------------------------------------------------------
# asymptotic diagnostics
# ---------------------------------------------------------------------------

MAIN_TERM_COEFFICIENTS = {
    ("odd", "any"): 4,
    ("even", "any"): 2,
    ("odd", "odd"): 2,
    ("odd", "even"): 2,
    ("even", "odd"): 2,
    ("any", "any"): 6,
}


@dataclass(frozen=True)
class AsymptoticRow:
    order: int
    count: int
    main_term: float
    residual: float
    normalized: float  # residual / (Q log Q)


def asymptotic_report(
    region: ConvexRegion,
    parity: PairParity,
    orders: Iterable[int],
    coefficient: Optional[int] = None,
) -> list[AsymptoticRow]:
    """Counts vs the predicted main term coeff * Area * Q^2 / pi^2.

    The residual is normalized by Q log Q; staying bounded is the empirical
    analogue of the counting estimates this package cross-checks.
    """
    if coefficient is None:
        try:
            coefficient = MAIN_TERM_COEFFICIENTS[(parity.x, parity.y)]
        except KeyError as exc:
            raise ValueError(
                f"no default main-term coefficient for parity {parity}; pass one"
            ) from exc
    area = float(region.area())
    rows = []
    for q_max in orders:
        n = count_lattice(region, q_max, parity).count
        main = coefficient * area * q_max * q_max / pi**2
        resid = n - main
        rows.append(
            AsymptoticRow(q_max, n, main, resid, resid / (q_max * log(q_max)))
        )
    return rows
