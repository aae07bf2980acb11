"""Certified evaluation of the limiting gap-tuple densities.

The limiting frequency of a gap tuple (d1, ..., dh) is the sum, over the
walk families of paths.families, of the areas of all cylinders obtained by
instantiating the free labels.  Sums over free labels may be infinite; the
engine returns a certified enclosure [lo, hi]:

  * lo is an exact partial sum (free values up to a cutoff K);
  * hi adds a rigorous tail bound.  A cylinder with a label m in some slot
    has area at most area(C(m)) = 4/(m(m+1)(m+2)) (it sits inside a backward
    iterate of the index-m cell, and the map preserves area), and cylinders
    with distinct values in the remaining slots are disjoint inside it, so
    the mass with a given slot's value > K is at most the one-slot tail
    sum_{m > K} 4/(m(m+1)(m+2)) = 2/((K+1)(K+2)).  Since every free slot is
    parity-constrained and the majorant is decreasing, the parity-restricted
    tail is at most (2/((K+1)(K+2)) + 4/((K+1)(K+2)(K+3))) / 2; one such term
    per free slot (union bound) gives the tail.

Many families have certifiably finite sums: if a slot value m >= 4r + 2
(r = cylinder arity) gives a nonempty cylinder, the labels adjacent to that
slot must equal 1 and all remaining labels must equal 2.  When the fixed
labels and the other slots' parities contradict that pattern for every free
slot, all terms beyond the cut 4r + 1 (``_escape_cut``) vanish and the
enclosure is exact (lo == hi).  The cut loses no point either, which is
what lattice.py counts: the lemma is about nonempty cylinders, not only
those of positive area, and every nonempty cylinder has positive area.  Its
only non-strict constraints are L_i <= 1 with linear L_i, and at a point p
of it every L_i is > 0, so at (1 - e)*p every L_i is < 1 while, for small
e > 0, every strict constraint still holds; all constraints then hold
strictly, so a disc around (1 - e)*p lies in the cylinder.

A family's cylinders are found over a tree of label prefixes rather than
one by one (``_cylinder_labels``).  C(k1, ..., kj, k) is a subset of
C(k1, ..., kj), so each node clips its parent's polygon by the one new cell
(see geometry._index_cells).  A prefix whose closure polygon is empty or
has zero area is not extended: every cylinder below it lies inside that
null set, so it has area 0 and, by the above, no point.  Cells that the
index range of a polygon's vertices rules out are null in the same way.
The skipped terms are all zero, so the sum stays exact.

Stabilized shells.  The open families are clipped only up to S = 4r + 1, r
the largest arity among them; beyond S their shells have a closed form.
Take an open family f (arity at most r), a free slot s of f and a value
m > S, so m >= 4r + 2:

  * The set of points whose index at step s is m is T^{-s} of the index-m
    cell.  Up to a null set it is the union of the cylinders (of f's arity)
    with label m at s, and its area is gap_density(m), since T preserves
    area.  By the lemma above, every such cylinder is null except the one
    that carries the forced pattern (1 next to s, 2 elsewhere), so that one
    cylinder has area gap_density(m).
  * That cylinder belongs to f exactly when s is escape-consistent (f's
    fixed labels and the other slots' parities admit the pattern) and the
    parity of s admits m.
  * Every other label of a non-null tuple with m at s is 1 or 2 < m, so no
    tuple has values above S in two slots: the tuples with free values in
    (S, K] at some slot split disjointly by that slot and its value.

Hence, for K > S, lo(K) = the clipped heads at S plus the sum over m in
(S, K] of c(m) * gap_density(m), where c(m) counts the escape-consistent
free slots of the open families whose parity admits m (_stable_shells).
An even and an odd slot together admit every m once and telescope to
tail_after(S) - tail_after(K); a slot left without a partner is summed
term by term.  This is the same rational as the clipped partial sum at K,
which family_sum_upto still computes as the oracle.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple, Optional, Sequence

from .geometry import (
    _TRIANGLE,
    ConvexRegion,
    HalfPlane,
    LinearForm,
    _escape_bound,
    _index_cells,
    _signed_area2,
    cylinder,
    cylinder_forms,
    refine,
)
from .paths import PathFamily, _parity_range, families

__all__ = [
    "Enclosure",
    "gap_density",
    "tail_after",
    "parity_tail_after",
    "family_is_certified_finite",
    "family_sum_upto",
    "rho_odd",
    "RhoRow",
    "rho_table",
]


class Enclosure(namedtuple("Enclosure", "lo hi exact cutoff converged")):
    """Certified rational interval around a convergent series value."""

    __slots__ = ()

    def __new__(cls, lo: Fraction, hi: Fraction, exact: bool, cutoff: int, converged: bool):
        if lo > hi:
            raise ValueError(f"invalid enclosure [{lo}, {hi}]")
        return super().__new__(cls, lo, hi, exact, cutoff, converged)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, value) -> bool:
        return self.lo <= value <= self.hi


def gap_density(k: int) -> Fraction:
    """Limiting frequency 4/(k(k+1)(k+2)) of a single gap value k >= 1."""
    if k < 1:
        raise ValueError("gap value must be >= 1")
    return Fraction(4, k * (k + 1) * (k + 2))


def tail_after(k_cut: int) -> Fraction:
    """Exact value of sum_{m > k_cut} 4/(m(m+1)(m+2)) (telescoping)."""
    if k_cut < 1:
        raise ValueError("cutoff must be >= 1")
    return Fraction(2, (k_cut + 1) * (k_cut + 2))


def parity_tail_after(k_cut: int) -> Fraction:
    """Upper bound for the tail restricted to one parity class.

    For a decreasing nonnegative sequence the even- and odd-indexed partial
    tails each stay below (full tail + first term)/2.
    """
    return (tail_after(k_cut) + gap_density(k_cut + 1)) / 2


# ---------------------------------------------------------------------------
# per-family analysis
# ---------------------------------------------------------------------------


def _escape_pattern_consistent(family: PathFamily, slot: int) -> bool:
    """Can ``slot`` grow without bound while the cylinder stays nonempty?

    A label m >= 4r + 2 at position ``slot`` forces neighbours of the slot to
    carry 1 and every other position to carry 2; check that requirement
    against the family's fixed labels and the other free slots' parities.
    """
    r = family.arity
    labels = family.path.labels
    for pos in range(r):
        if pos == slot:
            continue
        required = 1 if abs(pos - slot) == 1 else 2
        lab = labels[pos]
        if not lab.admits(required):
            return False
    return True


def _escape_slots(family: PathFamily) -> list[int]:
    """The free slots whose escape pattern is consistent."""
    return [s for s in family.free_slots if _escape_pattern_consistent(family, s)]


def _escape_parities(family: PathFamily) -> list[str]:
    """The parities of the escape slots."""
    return [family.path.labels[s].parity for s in _escape_slots(family)]


def family_is_certified_finite(family: PathFamily) -> bool:
    """True when every free slot's escape pattern is contradicted."""
    return not _escape_slots(family)


def _escape_cut(family: PathFamily) -> int:
    """4r + 1 (geometry's ``_escape_bound``), r the family's arity: no free
    label above it occurs in a nonempty cylinder of a certified-finite family
    (see the module docstring)."""
    return _escape_bound(family.arity)


def _shell(s: int, above: int) -> ConvexRegion:
    """The points whose labels before step s are (2, ..., 2, 1) and whose
    index at step s is above ``above``: C(p), p = (2,)*(s-1) + (1,) (p = ()
    when s = 0), cut by (above + 1)*L_{s+1} - L_s <= 1 with the forms L of
    p; the index at step s is the k with k*L_{s+1} - L_s <= 1 < (k+1)*L_{s+1}
    - L_s (the constraints on L_{s+2} of geometry's cylinders)."""
    prefix = (2,) * (s - 1) + (1,) if s else ()
    ls, ls1 = cylinder_forms(prefix)[s:]
    n = above + 1
    wall = LinearForm(n * ls1.cx - ls.cx, n * ls1.cy - ls.cy, n * ls1.c0 - ls.c0)
    return refine(cylinder(prefix), [HalfPlane(wall, "<=", 1)])


def _tuple_regions(deltas: Sequence[int]) -> list[tuple[ConvexRegion, str]]:
    """The (region, first-vertex parity) pairs of a gap tuple: the primitive
    points (a, b) of Q*region, a odd and b of the parity, over the list are
    the window starts of the periodic odd subsequence of F(Q) whose gap
    tuple is ``deltas``, each once, at every order Q.

    The list holds each family's cylinders as ``_cylinder_labels`` yields
    them, a certified-finite family's at its own cut and an open family's at
    S, the largest cut among the open families; and one shell (``_shell(s,
    S)``) per first vertex and step s at which an odd and an even escape slot
    of the open families meet.  It is exact:

      * A point is a window start of one walk, so the families of one first
        vertex have disjoint cylinders; a point of a certified-finite
        family lies in one of its listed cylinders (module docstring), and
        so does a point of an open family whose free labels are all <= S.
      * A point of an open family f with a free label m > S at slot s has
        m >= 4r + 2, r the arity of f, so by the escape lemma it carries 1
        next to s and 2 elsewhere: s is an escape slot of f, and the point
        lies in the shell at (first vertex of f, s) and in none of the
        listed cylinders.  Shells of one first vertex are disjoint: every
        other label of such a point is 1 or 2.
      * Conversely, a point of the shell at (v, s) has an index m > S at
        step s, so the same lemma, applied at the arity of each family of
        the pair, gives it that pattern.  Both families admit the pattern
        off s, and m's parity admits exactly one of them.

    Each shell has area tail_after(S) (module docstring), the count-side
    twin of the value-side shells.  Every open tuple (all are in {1, 2}^h,
    h <= MAX_WINDOW, and the tests check each) meets one odd and one even
    escape slot at each first vertex and step where it has one.
    """
    fams = families(deltas)
    open_fams = [f for f in fams if not family_is_certified_finite(f)]
    stable = max(map(_escape_cut, open_fams), default=0)
    regions = [
        (cylinder(ks), f.first_vertex_parity)
        for f in fams
        for ks, _ in _cylinder_labels(f, stable if f in open_fams else _escape_cut(f))
    ]
    meets = dict.fromkeys((f.first_vertex_parity, s) for f in open_fams for s in _escape_slots(f))
    return regions + [(_shell(s, stable), first) for first, s in meets]


def _cylinder_labels(family: PathFamily, k_cut: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield (ks, twice the area of C(ks)) for each cylinder of ``family`` of
    positive area whose free labels are at most k_cut, depth first over the
    label prefixes, carrying each prefix's polygon; a prefix whose polygon
    is null is not extended."""
    ranges = [
        _parity_range(lab.parity, 1, k_cut) if lab.is_free else range(lab.value, lab.value + 1)
        for lab in family.path.labels[: family.arity]
    ]

    def walk(ks: tuple[int, ...], points, area2: Fraction):
        if len(ks) == len(ranges):
            yield ks, area2
            return
        for k, image, image_area2 in _index_cells(points, ranges[len(ks)]):
            yield from walk(ks + (k,), image, image_area2)

    return walk((), _TRIANGLE, _signed_area2(_TRIANGLE))


def family_sum_upto(family: PathFamily, k_cut: int) -> Fraction:
    """Exact sum of cylinder areas over free-slot values <= k_cut."""
    return sum((area2 for _, area2 in _cylinder_labels(family, k_cut)), Fraction(0)) / 2


def _stable_shells(parities: Sequence[str], above: int, k_cut: int) -> Fraction:
    """Sum over m in (above, k_cut] of c(m) * gap_density(m), where c(m) is
    the number of ``parities`` that admit m.

    An even and an odd slot together admit every m once, so each such pair
    (and each slot of parity "any") telescopes to tail_after(above) -
    tail_after(k_cut); only the slots left without a partner are summed term
    by term.
    """
    if k_cut <= above:
        return Fraction(0)
    n_odd, n_even = parities.count("odd"), parities.count("even")
    full = len(parities) - n_odd - n_even + min(n_odd, n_even)
    total = full * (tail_after(above) - tail_after(k_cut))
    if n_odd != n_even:
        left = "odd" if n_odd > n_even else "even"
        terms = (gap_density(m) for m in _parity_range(left, above + 1, k_cut))
        total += abs(n_odd - n_even) * sum(terms, Fraction(0))
    return total


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

_FIRST_CUTOFF = 125


def rho_odd(
    deltas: Sequence[int],
    tol: Fraction = Fraction(1, 10**6),
    k_max: int = 8000,
) -> Enclosure:
    """Certified enclosure of the limiting frequency of a gap tuple.

    Families whose free sums are certified finite contribute exactly; the
    remaining families are summed over free values up to a growing cutoff K
    with a per-slot parity tail bound: clipped up to 4 * (largest arity) + 1,
    in closed form beyond (the stabilized shells of the module docstring).  K
    grows (doubling) until the width is at most ``tol`` or K reaches
    ``k_max`` (then ``converged`` is False); K never exceeds ``k_max``.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if k_max < 1:
        raise ValueError(f"cutoff limit k_max must be >= 1, got {k_max}")
    fams = families(deltas)
    exact_part = Fraction(0)
    open_fams: list[PathFamily] = []
    max_cut = 0
    for fam in fams:
        if family_is_certified_finite(fam):
            cut = _escape_cut(fam) if fam.free_slots else 0
            exact_part += family_sum_upto(fam, cut)
            max_cut = max(max_cut, cut)
        else:
            open_fams.append(fam)
    if not open_fams:
        return Enclosure(exact_part, exact_part, True, max_cut, True)

    n_slots = sum(len(f.free_slots) for f in open_fams)
    # The heads are clipped once, up to min(K, stable): K starts at or above
    # min(stable, k_max) and never falls.
    stable = max(map(_escape_cut, open_fams))
    escapes = [p for f in open_fams for p in _escape_parities(f)]
    head_cut = min(stable, k_max)
    head = exact_part + sum(family_sum_upto(f, head_cut) for f in open_fams)
    k_cut = min(max(_FIRST_CUTOFF, head_cut), k_max)
    best_hi: Optional[Fraction] = None
    while True:
        lo = head + _stable_shells(escapes, stable, k_cut)
        hi = lo + n_slots * parity_tail_after(k_cut)
        if best_hi is None or hi < best_hi:
            best_hi = hi
        if best_hi - lo <= tol:
            return Enclosure(lo, best_hi, False, k_cut, True)
        if k_cut >= k_max:
            return Enclosure(lo, best_hi, False, k_cut, False)
        k_cut = min(2 * k_cut, k_max)


class RhoRow(NamedTuple):
    """One table row: gap tuple and its enclosure."""

    deltas: tuple[int, ...]
    enclosure: Enclosure


def rho_table(h: int, delta_max: int, **options) -> list[RhoRow]:
    """Enclosures for every gap tuple in {1..delta_max}^h.  ``options``
    (``tol``, ``k_max``) go to rho_odd as given; its defaults stand for the
    rest."""
    if not (1 <= h <= 4):
        raise ValueError("table window length h must be in 1..4")
    if not (1 <= delta_max <= 20):
        raise ValueError("delta_max must be in 1..20")
    return [RhoRow(ds, rho_odd(ds, **options)) for ds in product(range(1, delta_max + 1), repeat=h)]
