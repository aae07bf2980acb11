"""Exact convex geometry for the index cylinders of the triangle map.

The cylinder C(k1, ..., kr) is the set of triangle points whose first r
index values along the orbit are k1, ..., kr.  It is cut out by the linear
forms

    L0 = x,  L1 = y,  L_{i+1} = k_i * L_i - L_{i-1},

through the inequalities 1 >= L_i > 0 (0 <= i <= r+1) and
L_i + L_{i+1} > 1 (0 <= i <= r); the redundant i = 0 entries are kept as
part of the contract.  A region carries both the inequality list (with
strict/non-strict senses, used for exact lattice membership) and the closure
polygon (used for exact areas).  Vertices come from successive half-plane
clips of the closed triangle in exact integer arithmetic on homogeneous
coordinates (see the polygon machinery); regions hold Fraction points.

Regions are canonical by construction: every polygon runs CCW from its
lexicographically smallest vertex and has no repeated and no collinear
consecutive vertex, so two regions describe the same set iff their vertex
tuples are equal.  Clips and the unimodular maps keep that form, so the
normal form only orients and rotates (see ``_canonicalize`` for why the
precondition holds).  Points from outside the package enter only through
``convex_hull``.  Degenerate closures (point, segment, empty) normalize to
an empty polygon of area 0.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

__all__ = [
    "Point",
    "LinearForm",
    "HalfPlane",
    "ConvexRegion",
    "cylinder",
    "cylinder_forms",
    "cylinder_constraints",
    "cylinder_area",
    "refine",
    "unimodular_image",
    "stabilized_quadrangle",
    "halfplanes_from_polygon",
]

Point = tuple[Fraction, Fraction]

_SENSES = ("<=", "<", ">=", ">")


class LinearForm(namedtuple("LinearForm", "cx cy c0", defaults=(0,))):
    """The affine form cx*x + cy*y + c0 with integer coefficients."""

    __slots__ = ()

    def __new__(cls, cx: int, cy: int, c0: int = 0):
        if cx == 0 and cy == 0 and c0 == 0:
            raise ValueError("all coefficients are zero")
        return super().__new__(cls, cx, cy, c0)

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        return self.cx * x + self.cy * y + self.c0

    def __str__(self) -> str:
        return f"{self.cx}*x + {self.cy}*y + {self.c0}"


class HalfPlane(namedtuple("HalfPlane", "form sense bound")):
    """Constraint ``form <sense> bound`` with sense in {<=, <, >=, >}."""

    __slots__ = ()

    def __new__(cls, form: LinearForm, sense: str, bound):
        if sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {sense!r}")
        return super().__new__(cls, form, sense, Fraction(bound))

    def holds(self, x: Fraction, y: Fraction) -> bool:
        v = self.form.evaluate(x, y)
        if self.sense == "<=":
            return v <= self.bound
        if self.sense == "<":
            return v < self.bound
        if self.sense == ">=":
            return v >= self.bound
        return v > self.bound

    def closure_holds(self, x: Fraction, y: Fraction) -> bool:
        v = self.form.evaluate(x, y)
        if self.sense in ("<=", "<"):
            return v <= self.bound
        return v >= self.bound

    def __str__(self) -> str:
        return f"{self.form} {self.sense} {self.bound}"


# ---------------------------------------------------------------------------
# polygon machinery
# ---------------------------------------------------------------------------

# Inside this module a polygon is a list of homogeneous integer vertices: a
# reduced triple (X, Y, W), W > 0 and gcd(X, Y, W) = 1, stands for the point
# (X/W, Y/W).  A half-plane is an integer functional (gx, gy, gw) whose value
# gx*X + gy*Y + gw*W has the sign of the affine function at the point, so a
# clip needs no Fraction: a crossing point is an integer combination of its
# edge's endpoints, reduced by one gcd (Blinn and Newell, "Clipping using
# homogeneous coordinates", 1978).  Regions convert to Fractions once, in
# _canonicalize.
_Triple = tuple[int, int, int]


def _triple(p: Point) -> _Triple:
    """The reduced triple of a rational point."""
    x, y = p
    w = math.lcm(x.denominator, y.denominator)
    return x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w


def _functional(hp: HalfPlane) -> _Triple:
    """The integer functional that is <= 0 exactly on the closure of ``hp``."""
    f, b = hp.form, hp.bound
    sign = 1 if hp.sense in ("<=", "<") else -1
    d = sign * b.denominator
    return d * f.cx, d * f.cy, d * f.c0 - sign * b.numerator


def _signed_area2(points: Sequence[_Triple]) -> Fraction:
    """Twice the signed shoelace area (0 for fewer than 3 points)."""
    terms = [
        (x1 * y2 - x2 * y1, w1 * w2)
        for (x1, y1, w1), (x2, y2, w2) in zip(points, points[1:] + points[:1])
    ]
    den = math.lcm(*[d for _, d in terms])
    return Fraction(sum(n * (den // d) for n, d in terms), den)


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _canonicalize(points: Sequence[_Triple]) -> tuple[Point, ...]:
    """Orient a convex polygon CCW, rotate it to its lex-min vertex and
    convert it to Fraction points.

    Returns () for zero area, so also for fewer than 3 vertices.
    Precondition: the polygon has zero area, or it is convex with no repeated
    and no collinear consecutive vertex.  ``_TRIANGLE`` and ``convex_hull``'s
    output meet it, and every polygon made from them does.  Clipping such a
    polygon by a closed half-plane keeps it so: a crossing point lies
    strictly inside an edge whose endpoints have values of opposite sign, and
    at most two output vertices lie on the clip line, next to each other.  A
    linear map of determinant 1 keeps it too, and a polygon that loses its
    area stays of zero area under both, which the area test maps to ().
    """
    area2 = _signed_area2(points)
    if area2 == 0:
        return ()
    pts = [(Fraction(x, w), Fraction(y, w)) for x, y, w in points]
    if area2 < 0:
        pts.reverse()
    start = pts.index(min(pts))
    return tuple(pts[start:] + pts[:start])


def convex_hull(points: Iterable[Point]) -> tuple[Point, ...]:
    """Exact convex hull (Andrew monotone chain): CCW from the lex-min
    vertex, with no collinear vertex; () when the points span no area."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    return tuple(hull) if len(hull) >= 3 else ()


def _clip(points: Sequence[_Triple], g: _Triple) -> list[_Triple]:
    """Keep the part of a convex polygon where the functional ``g`` is <= 0.

    On an edge where the value changes sign from sp to sq, the crossing point
    sq*P - sp*Q is a combination of the endpoints with coefficients of one
    sign, so it lies on the edge; it is negated to W > 0 and reduced.
    """
    gx, gy, gw = g
    vals = [gx * x + gy * y + gw * w for x, y, w in points]
    out: list[_Triple] = []
    for (xp, yp, wp), sp, (xq, yq, wq), sq in zip(
        points, vals, points[1:] + points[:1], vals[1:] + vals[:1]
    ):
        if sp <= 0:
            out.append((xp, yp, wp))
        if (sp < 0 < sq) or (sq < 0 < sp):
            x, y, w = sq * xp - sp * xq, sq * yp - sp * yq, sq * wp - sp * wq
            if w < 0:
                x, y, w = -x, -y, -w
            d = math.gcd(x, y, w)
            out.append((x // d, y // d, w // d))
    return out


def _clipped(points: Sequence[_Triple], constraints: Iterable[HalfPlane]) -> tuple[Point, ...]:
    """The canonical polygon of ``points`` clipped by each constraint's closure."""
    for hp in constraints:
        points = _clip(points, _functional(hp))
    return _canonicalize(points)


def _index_cells(
    points: Sequence[_Triple], ks: range
) -> Iterator[tuple[int, list[_Triple], Fraction]]:
    """Cut a polygon of positive area in the closed triangle by index cells.

    Yields (k, image, area2) for each k in ``ks`` (a range with step >= 1)
    whose closed cell k*y <= 1 + x <= (k+1)*y meets the polygon in positive
    area: the piece mapped by (x, y) -> (y, k*y - x), and twice its area.
    The cell's third wall k*y - x >= 0 holds on the whole triangle, where
    y <= 1, so only two clips are needed.  The map has determinant 1, so the
    image keeps the piece's area and orientation; clipping the image again
    by the next label's cell is the next cylinder (see ``_TRIANGLE``).  On a
    triple it is (X, Y, W) -> (Y, k*Y - X, W), which stays reduced.

    The index (1 + x)/y is a ratio of affine functions, so over a convex
    polygon of positive area its values in the interior fill the open
    interval between its extremes at the vertices (+inf at a vertex with
    y = 0); cells outside that interval meet the polygon in a null set and
    are skipped without clipping.
    """
    first = min((w + x) // y for x, y, w in points if y)
    ceils = [-((-w - x) // y) for x, y, w in points if y]
    last = max(ceils) - 1 if len(ceils) == len(points) else ks.stop
    start = ks.start + max(0, -((ks.start - first) // ks.step)) * ks.step
    for k in range(start, min(ks.stop, last + 1), ks.step):
        piece = _clip(_clip(points, (-1, k, -1)), (1, -k - 1, 1))
        if len(piece) < 3:
            continue
        image = [(y, k * y - x, w) for x, y, w in piece]
        area2 = _signed_area2(image)
        if area2 > 0:
            yield k, image, area2


# The closed triangle 1 >= x, y >= 0, x + y >= 1 (the closure of
# cylinder(()), counter-clockwise).  ``cylinder`` clips every cylinder from
# it, as the constraints on L0, L1 and L0 + L1 cut out no more.  After
# labels k1..kj, the image of the closed cylinder under the j-th iterate is
# a polygon in the coordinates (L_j, L_{j+1}); _index_cells on it adds the
# constraints on L_{j+2}.
_TRIANGLE: tuple[_Triple, ...] = ((1, 0, 1), (1, 1, 1), (0, 1, 1))


class ConvexRegion(NamedTuple):
    """A convex region: inequality list plus canonical closure polygon.

    A hand-built region must hold a canonical polygon (see the module
    docstring; ``convex_hull`` gives one) that is the closure of its
    constraints.
    """

    constraints: tuple[HalfPlane, ...]
    vertices: tuple[Point, ...]

    def area(self) -> Fraction:
        return abs(_signed_area2([_triple(p) for p in self.vertices])) / 2

    def contains(self, x, y) -> bool:
        """Exact membership honoring each constraint's strictness."""
        x, y = Fraction(x), Fraction(y)
        return all(hp.holds(x, y) for hp in self.constraints)

    def closure_contains(self, x, y) -> bool:
        x, y = Fraction(x), Fraction(y)
        return all(hp.closure_holds(x, y) for hp in self.constraints)

    def bounds(self) -> Optional[tuple[Fraction, Fraction, Fraction, Fraction]]:
        """(xmin, xmax, ymin, ymax) of the closure polygon, or None if empty."""
        if not self.vertices:
            return None
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), max(xs), min(ys), max(ys)

    def same_polygon(self, other: "ConvexRegion") -> bool:
        """True iff the canonical closure polygons coincide."""
        return self.vertices == other.vertices

    def to_json_dict(self) -> dict:
        return {
            "constraints": [
                {
                    "cx": hp.form.cx,
                    "cy": hp.form.cy,
                    "c0": hp.form.c0,
                    "sense": hp.sense,
                    "bound": str(hp.bound),
                }
                for hp in self.constraints
            ],
            "vertices": [{"x": str(x), "y": str(y)} for x, y in self.vertices],
            "area": str(self.area()),
        }


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------


def cylinder_forms(ks: Sequence[int]) -> list[LinearForm]:
    """Forms L0..L_{r+1} from the label recurrence."""
    forms = [LinearForm(1, 0, 0), LinearForm(0, 1, 0)]
    for k in ks:
        a, b = forms[-1], forms[-2]
        forms.append(LinearForm(k * a.cx - b.cx, k * a.cy - b.cy, k * a.c0 - b.c0))
    return forms


def cylinder_constraints(ks: Sequence[int]) -> tuple[HalfPlane, ...]:
    forms = cylinder_forms(ks)
    cons: list[HalfPlane] = []
    for f in forms:
        cons.append(HalfPlane(f, "<=", 1))
        cons.append(HalfPlane(f, ">", 0))
    for f, g in zip(forms, forms[1:]):
        cons.append(HalfPlane(LinearForm(f.cx + g.cx, f.cy + g.cy, f.c0 + g.c0), ">", 1))
    return tuple(cons)


def cylinder(ks: Sequence[int]) -> ConvexRegion:
    """The convex region of points whose first r index values are ``ks``.

    ks = () gives the whole triangle (closure vertices (0,1), (1,0), (1,1),
    area 1/2); an unrealizable label pattern gives an empty region.
    """
    ks = tuple(int(k) for k in ks)
    if any(k < 1 for k in ks):
        raise ValueError(f"labels must be positive integers, got {ks}")
    cons = cylinder_constraints(ks)
    return ConvexRegion(cons, _clipped(_TRIANGLE, cons))


@lru_cache(maxsize=None)
def cylinder_area(ks: tuple[int, ...]) -> Fraction:
    """Exact area of cylinder(ks), memoized.  The density sums do not use it:
    they walk the cells with ``_index_cells`` (see density.py)."""
    return cylinder(ks).area()


def refine(region: ConvexRegion, extra: "ConvexRegion | Iterable[HalfPlane]") -> ConvexRegion:
    """Intersect a region with further half-plane constraints.  The result
    keeps one copy of each constraint, in order of first appearance."""
    extra_cons = tuple(extra.constraints if isinstance(extra, ConvexRegion) else extra)
    cons = tuple(dict.fromkeys(region.constraints + extra_cons))
    return ConvexRegion(cons, _clipped([_triple(p) for p in region.vertices], extra_cons))


# ---------------------------------------------------------------------------
# the piecewise unimodular action
# ---------------------------------------------------------------------------


def unimodular_image(region: ConvexRegion, k: int) -> ConvexRegion:
    """Image of a region under (x, y) -> (y, k*y - x).

    The map is the restriction of the triangle map to the index-k cell, so
    the region must lie in the closure of cylinder((k,)); the determinant is
    1 and areas are preserved exactly.  Constraints transform by substituting
    the inverse (u, v) -> (k*u - v, u).
    """
    if k < 1:
        raise ValueError("cell index k must be >= 1")
    walls = [_functional(hp) for hp in cylinder((k,)).constraints]
    pts = [_triple(p) for p in region.vertices]
    for (x, y), (X, Y, W) in zip(region.vertices, pts):
        if any(gx * X + gy * Y + gw * W > 0 for gx, gy, gw in walls):
            raise ValueError(f"vertex ({x}, {y}) is outside the closed index-{k} cell")
    new_cons = tuple(
        HalfPlane(
            LinearForm(k * hp.form.cx + hp.form.cy, -hp.form.cx, hp.form.c0),
            hp.sense,
            hp.bound,
        )
        for hp in region.constraints
    )
    return ConvexRegion(new_cons, _canonicalize([(Y, k * Y - X, W) for X, Y, W in pts]))


# ---------------------------------------------------------------------------
# stabilized backward images
# ---------------------------------------------------------------------------


def halfplanes_from_polygon(points: Sequence[Point]) -> tuple[HalfPlane, ...]:
    """Closed edge constraints (integer coefficients) of the convex hull of
    the points."""
    pts = convex_hull(points)
    if not pts:
        raise ValueError("degenerate polygon has no half-plane description")
    cons: list[HalfPlane] = []
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        a, b = y1 - y2, x2 - x1  # the inward normal for CCW order
        c = -(a * x1 + b * y1)
        scale = math.lcm(a.denominator, b.denominator, c.denominator)
        ai, bi, ci = int(a * scale), int(b * scale), int(c * scale)
        g = math.gcd(ai, bi, ci)
        ai, bi, ci = ai // g, bi // g, ci // g
        cons.append(HalfPlane(LinearForm(ai, bi, ci), ">=", Fraction(0)))
    return tuple(cons)


def _escape_bound(r: int) -> int:
    """4r + 1: a nonempty cylinder of arity r with a label m above it carries
    1 next to that label and 2 elsewhere (density.py's escape lemma), which
    is the regime of ``stabilized_quadrangle``."""
    return 4 * r + 1


def stabilized_quadrangle(m: int, i: int, r: int) -> ConvexRegion:
    """The i-th backward image of the index-m cell, in the stabilized regime.

    For m >= 4r + 2 and 1 <= i <= r the backward iterates act affinely and
    the image is the quadrangle with vertices

        (1 - 2i/m,     1 - 2(i-1)/m),     (1 - 2i/(m+1),     1 - 2(i-1)/(m+1)),
        (1 - 2(i+1)/(m+2), 1 - 2i/(m+2)), (1 - 2(i+1)/(m+1), 1 - 2i/(m+1)),

    which coincides with the clipped cylinder (2, ..., 2, 1, m) carrying
    i - 1 leading 2s.
    """
    if r < 1 or not (1 <= i <= r):
        raise ValueError(f"need 1 <= i <= r with r >= 1, got i={i}, r={r}")
    if m <= _escape_bound(r):
        raise ValueError(f"stabilization needs m >= 4r + 2 = {_escape_bound(r) + 1}, got m={m}")
    pts = [
        (1 - Fraction(2 * i, m), 1 - Fraction(2 * (i - 1), m)),
        (1 - Fraction(2 * i, m + 1), 1 - Fraction(2 * (i - 1), m + 1)),
        (1 - Fraction(2 * (i + 1), m + 2), 1 - Fraction(2 * i, m + 2)),
        (1 - Fraction(2 * (i + 1), m + 1), 1 - Fraction(2 * i, m + 1)),
    ]
    hull = convex_hull(pts)
    return ConvexRegion(halfplanes_from_polygon(hull), hull)

