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
labels and the other slots' parities contradict that pattern for every
free slot, all terms beyond the cut 4r + 1 (geometry's ``_escape_bound``)
vanish and the enclosure is exact (lo == hi).  The cut loses no point
either, which is what lattice.py counts: the lemma is about nonempty
cylinders, not only those of positive area, and every nonempty cylinder
has positive area.  Its only non-strict constraints are L_i <= 1 with
linear L_i, and at a point p of it every L_i is > 0, so at (1 - e)*p every
L_i is < 1 while, for small e > 0, every strict constraint still holds;
all constraints then hold strictly, so a disc around (1 - e)*p lies in the
cylinder.

A family's cylinders are found over a tree of label prefixes rather than
one by one (``_cylinder_labels``).  C(k1, ..., kj, k) is a subset of
C(k1, ..., kj), so each node clips its parent's polygon by the one new cell
(see geometry._index_cells).  A prefix whose closure polygon is empty or
has zero area is not extended: every cylinder below it lies inside that
null set, so it has area 0 and, by the above, no point.  Cells that the
index range of a polygon's vertices rules out are null in the same way.
The skipped terms are all zero, so the sum stays exact.

Values from the region list.  ``_decomposition`` splits a gap tuple once:
each family's cylinders at its cut, the open families' at S, the largest
cut among them, and one shell per first vertex and step s at which an odd
and an even escape slot meet (``_tuple_regions`` turns the same split into
regions and proves the list exact at every order).  For m > S the points of
the shell with index m at step s are, up to a null set, T^{-s} of the
index-m cell, of area gap_density(m) since T preserves area; so each shell
has area tail_after(S), the density is V = (the cylinders' areas) + n_shells
* tail_after(S), and for K >= S the clipped partial sum at K
(family_sum_upto, the oracle) drops just the shells' points with index above
K:

    lo(K) = V - n_shells * tail_after(K).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple, Sequence

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


def _escape_slots(family: PathFamily) -> list[int]:
    """The free slots that can grow without bound while the cylinder stays
    nonempty.  A label m >= 4r + 2 at slot s forces 1 next to s and 2 at
    every other position (module docstring), so s is kept when the family's
    fixed labels and the other free slots' parities admit that pattern."""
    labels = family.labels
    return [
        s
        for s in family.free_slots
        if all(labels[p].admits(1 if abs(p - s) == 1 else 2) for p in range(family.arity) if p != s)
    ]


def _decomposition(deltas: Sequence[int]):
    """A gap tuple's families, split once into what ``_tuple_regions`` lists
    and ``rho_odd`` sums: the tuple (cylinders, shells, n_slots, S).

      * cylinders: (ks, twice the area of C(ks), first-vertex parity) for
        each cylinder ``_cylinder_labels`` yields, a certified-finite
        family's at its own cut 4r + 1 and an open family's at S, the
        largest cut among the open families;
      * shells: the (first-vertex parity, step s) at which the open
        families meet an escape slot;
      * n_slots: the number of free slots of the open families.

    With no open family, S is the largest cut the walk used (0 when no
    family has a free slot).  Each (first vertex, step) must meet exactly
    one odd and one even escape slot, as the proofs in ``_tuple_regions``
    and ``rho_odd`` need; every open tuple up to the longest window does
    (the tests check each), and any other split raises ValueError.
    """
    fams = families(deltas)
    open_fams = [f for f in fams if _escape_slots(f)]
    stable = max((_escape_bound(f.arity) for f in open_fams or fams if f.free_slots), default=0)
    cylinders = [
        (ks, area2, f.first_vertex_parity)
        for f in fams
        for ks, area2 in _cylinder_labels(f, stable if f in open_fams else _escape_bound(f.arity))
    ]
    meets: dict[tuple[str, int], list[str]] = {}
    for f in open_fams:
        for s in _escape_slots(f):
            meets.setdefault((f.first_vertex_parity, s), []).append(f.labels[s].parity)
    if any(sorted(parities) != ["even", "odd"] for parities in meets.values()):
        raise ValueError(f"gap tuple {tuple(deltas)}: escape slots that do not pair by parity")
    return cylinders, list(meets), sum(len(f.free_slots) for f in open_fams), stable


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

    The list holds ``_decomposition``'s cylinders, a certified-finite
    family's at its own cut and an open family's at S, the largest cut
    among the open families; and one shell (``_shell(s, S)``) per first
    vertex and step s at which an odd and an even escape slot of the open
    families meet.  It is exact:

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

    Each shell has area tail_after(S) (module docstring), so the list's
    area is the density that ``rho_odd`` encloses.
    """
    cylinders, shells, _, stable = _decomposition(deltas)
    regions = [(cylinder(ks), first) for ks, _, first in cylinders]
    return regions + [(_shell(s, stable), first) for first, s in shells]


def _cylinder_labels(family: PathFamily, k_cut: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """Yield (ks, twice the area of C(ks)) for each cylinder of ``family`` of
    positive area whose free labels are at most k_cut, depth first over the
    label prefixes, carrying each prefix's polygon; a prefix whose polygon
    is null is not extended."""
    ranges = [
        _parity_range(lab.parity, 1, k_cut) if lab.is_free else range(lab.value, lab.value + 1)
        for lab in family.labels[: family.arity]
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


# ---------------------------------------------------------------------------
# enclosures
# ---------------------------------------------------------------------------

_FIRST_CUTOFF, _LAST_CUTOFF = 125, 8000


def rho_odd(deltas: Sequence[int], tol: Fraction = Fraction(1, 10**6)) -> Enclosure:
    """Certified enclosure of the limiting frequency of a gap tuple.

    A tuple without open families is exact: lo = hi = the area of its
    cylinders.  Otherwise lo is the clipped partial sum at a cutoff K, read
    off ``_decomposition``'s areas as lo(K) = V - n_shells * tail_after(K)
    (module docstring), and hi(K) = lo(K) + n_slots * parity_tail_after(K),
    one parity tail per free slot of the open families.  K starts at
    max(125, S) and doubles until the width is at most ``tol`` or K reaches
    8000 (then ``converged`` is False).

    hi(K) strictly decreases in K, so the last hi is the tightest.  Each
    shell pairs two escape slots, so n_slots = 2 n_shells + e, e the open
    free slots that are not escape slots; with parity_tail_after(K) =
    (tail_after(K) + gap_density(K + 1)) / 2,

        hi(K) = V + n_shells * gap_density(K + 1) + e * parity_tail_after(K),

    whose terms both decrease, the first strictly since n_shells >= 1.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cylinders, shells, n_slots, stable = _decomposition(deltas)
    head = sum((area2 for _, area2, _ in cylinders), Fraction(0)) / 2
    if not n_slots:
        return Enclosure(head, head, True, stable, True)
    k_cut = max(_FIRST_CUTOFF, stable)
    while n_slots * parity_tail_after(k_cut) > tol and k_cut < _LAST_CUTOFF:
        k_cut = min(2 * k_cut, _LAST_CUTOFF)
    lo = head + len(shells) * (tail_after(stable) - tail_after(k_cut))
    width = n_slots * parity_tail_after(k_cut)
    return Enclosure(lo, lo + width, False, k_cut, width <= tol)


class RhoRow(NamedTuple):
    """One table row: gap tuple and its enclosure."""

    deltas: tuple[int, ...]
    enclosure: Enclosure


def rho_table(h: int, delta_max: int, **options) -> list[RhoRow]:
    """Enclosures for every gap tuple in {1..delta_max}^h.  ``options``
    (``tol``) go to rho_odd as given; its default stands when not given."""
    if not (1 <= h <= 4):
        raise ValueError("table window length h must be in 1..4")
    if not (1 <= delta_max <= 20):
        raise ValueError("delta_max must be in 1..20")
    return [RhoRow(ds, rho_odd(ds, **options)) for ds in product(range(1, delta_max + 1), repeat=h)]
