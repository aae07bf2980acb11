import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    FRACTION_TRIANGLE,
    as_points,
    fraction_area2,
    fraction_clip,
    fraction_clip_chain,
    fraction_index_cells,
    full_canonical,
)

from oddfarey.dynamics import TrianglePoint, orbit_kappas
from oddfarey.geometry import (
    ConvexRegion,
    HalfPlane,
    LinearForm,
    convex_hull,
    cylinder,
    cylinder_area,
    cylinder_forms,
    halfplanes_from_polygon,
    refine,
    stabilized_quadrangle,
    unimodular_image,
)
from oddfarey.geometry import (
    _TRIANGLE,
    _canonicalize,
    _clip,
    _clipped,
    _cross,
    _functional,
    _index_cells,
    _signed_area2,
    _triple,
    cylinder_constraints,
)


def F(*t):
    return Fraction(*t)


def test_triangle():
    t = cylinder(())
    assert t.vertices == ((F(0), F(1)), (F(1), F(0)), (F(1), F(1)))
    assert t.area() == F(1, 2)
    assert t.contains(F(1), F(1))
    assert not t.contains(F(1, 2), F(1, 2))  # x + y = 1 excluded
    assert t.closure_contains(F(1, 2), F(1, 2))


def test_form_recurrence():
    forms = cylinder_forms((2, 1, 3))
    assert (forms[0].cx, forms[0].cy) == (1, 0)
    assert (forms[1].cx, forms[1].cy) == (0, 1)
    # L2 = 2y - x, L3 = 1*L2 - L1 = -x + y, L4 = 3*L3 - L2 = -2x + y
    assert (forms[2].cx, forms[2].cy) == (-1, 2)
    assert (forms[3].cx, forms[3].cy) == (-1, 1)
    assert (forms[4].cx, forms[4].cy) == (-2, 1)


def test_cell_one():
    c1 = cylinder((1,))
    assert c1.vertices == ((F(0), F(1)), (F(1, 3), F(2, 3)), (F(1), F(1)))
    assert c1.area() == F(1, 6)


@pytest.mark.parametrize("k", range(2, 31))
def test_cell_area_formula(k):
    assert cylinder_area((k,)) == F(4, k * (k + 1) * (k + 2))


def test_stabilized_pair_area():
    assert cylinder_area((10, 1)) == cylinder_area((10,)) == F(1, 330)


def test_cell_areas_partition_the_triangle():
    total = F(0)
    for k in range(1, 201):
        total += cylinder_area((k,))
        assert total + F(2, (k + 1) * (k + 2)) == F(1, 2)


@pytest.mark.parametrize("ks", [(2, 1, 3), (2, 1, 7)])
def test_membership_matches_orbit_oracle(ks, rng):
    # (2,1,3) is an empty cylinder (orbits (2,1,k) need k >= 6): the oracle
    # equivalence must hold there too, with no false positives.
    region = cylinder(ks)
    q = 1009
    points = []
    for _ in range(500):
        a, b = rng.randint(1, q), rng.randint(1, q)
        if a + b > q:
            points.append((F(a, q), F(b, q)))
    # random convex combinations of the vertices land inside the region
    vs = region.vertices
    for _ in range(60 if vs else 0):
        w = [F(rng.randint(1, 9)) for _ in vs]
        tot = sum(w)
        points.append(
            (
                sum(wi * v[0] for wi, v in zip(w, vs)) / tot,
                sum(wi * v[1] for wi, v in zip(w, vs)) / tot,
            )
        )
    hits = 0
    for x, y in points:
        by_constraints = region.contains(x, y)
        by_orbit = orbit_kappas(TrianglePoint(x, y), len(ks)) == ks
        assert by_constraints == by_orbit
        hits += by_constraints
    assert not region.vertices or hits  # nonempty regions get exercised


@settings(max_examples=300, deadline=None)
@given(
    ks=st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple),
    q=st.integers(2, 400),
    data=st.data(),
)
def test_contains_agrees_with_orbit_oracle_at_random_points(ks, q, data):
    """At a random rational point of T, at a random point of the closure
    polygon (often on its boundary) and at its vertices, the strict/closed
    constraint test agrees with the orbit's first r indices."""
    region = cylinder(ks)
    a = data.draw(st.integers(1, q))
    points = [(F(a, q), F(data.draw(st.integers(q - a + 1, q)), q))]
    vs = region.vertices
    if vs:
        w = data.draw(st.lists(st.integers(0, 5), min_size=len(vs), max_size=len(vs)))
        if any(w):
            points.append(tuple(sum(wi * v[i] for wi, v in zip(w, vs)) / sum(w) for i in (0, 1)))
        points += vs
    for x, y in points:
        if x > 0 and y > 0 and x + y > 1:
            by_orbit = orbit_kappas(TrianglePoint(x, y), len(ks)) == ks
            assert region.contains(x, y) == by_orbit, (x, y)


def test_membership_examples():
    assert cylinder((2,)).contains(1, 1)
    assert not cylinder((1,)).contains(1, 1)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_nesting(r):
    import itertools

    for ks in itertools.product(range(1, 6), repeat=r):
        child = cylinder(ks)
        parent = cylinder(ks[:-1])
        for v in child.vertices:
            assert parent.closure_contains(*v)


def test_empty_region_normalization():
    dead = cylinder((50, 50))  # large neighbouring labels cannot coexist
    assert dead.area() == 0
    assert dead.vertices == ()


def test_emptiness_regime():
    """At a label >= 4r + 2 the cylinder dies unless flanked by 1s over 2s."""
    for r in (2, 3):
        c = 4 * r + 2
        for ks in _tuples(r, 30):
            if r == 3 and cylinder_area(ks[:2]) == 0:
                continue  # already empty at the prefix (nesting tested separately)
            must_be_empty = any(
                ks[j] >= c
                and not all(
                    ks[pos] == (1 if abs(pos - j) == 1 else 2)
                    for pos in range(r)
                    if pos != j
                )
                for j in range(r)
            )
            if must_be_empty:
                assert cylinder_area(ks) == 0, ks


def _tuples(r, hi):
    import itertools

    return itertools.product(range(1, hi + 1), repeat=r)


def test_unimodular_image_preserves_area():
    for k in range(1, 51):
        cell = cylinder((k,))
        assert unimodular_image(cell, k).area() == cell.area()


def test_unimodular_image_requires_the_cell():
    with pytest.raises(ValueError):
        unimodular_image(cylinder((2,)), 5)


@pytest.mark.parametrize("k1,k2", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (4, 4)])
def test_image_of_pair_cylinder(k1, k2):
    """T C(k1,k2) equals C(k2) intersected with T C(k1), as polygons."""
    lhs = unimodular_image(cylinder((k1, k2)), k1)
    rhs = refine(unimodular_image(cylinder((k1,)), k1), cylinder((k2,)))
    assert lhs.same_polygon(rhs)


@pytest.mark.parametrize("m", [6, 7, 11, 20, 33])
def test_high_cells_map_into_cell_one(m):
    image = unimodular_image(cylinder((m,)), m)
    c1 = cylinder((1,))
    assert all(c1.closure_contains(*v) for v in image.vertices)


def test_quadrangle_example():
    quad = stabilized_quadrangle(6, 1, 1)
    expected = {
        (1 - F(2, 6), F(1)),
        (1 - F(2, 7), F(1)),
        (1 - F(4, 8), 1 - F(2, 8)),
        (1 - F(4, 7), 1 - F(2, 7)),
    }
    assert set(quad.vertices) == expected
    assert quad.area() == cylinder_area((6,))


def test_quadrangle_matches_clipping():
    for r in (1, 2, 3):
        for i in range(1, r + 1):
            m = 4 * r + 2
            quad = stabilized_quadrangle(m, i, r)
            clipped = cylinder((2,) * (i - 1) + (1, m))
            assert quad.same_polygon(clipped)


def test_quadrangle_in_cell_two():
    quad = stabilized_quadrangle(10, 2, 2)
    c2 = cylinder((2,))
    assert all(c2.closure_contains(*v) for v in quad.vertices)


def test_quadrangle_regime_errors():
    with pytest.raises(ValueError):
        stabilized_quadrangle(9, 2, 2)  # m below 4r + 2
    with pytest.raises(ValueError):
        stabilized_quadrangle(20, 3, 2)  # i beyond r


def test_halfplanes_from_polygon_roundtrip():
    quad = stabilized_quadrangle(10, 1, 2)
    cons = halfplanes_from_polygon(quad.vertices)
    region = ConvexRegion(cons, quad.vertices)
    for v in quad.vertices:
        assert region.closure_contains(*v)
    inside = (
        sum(x for x, _ in quad.vertices) / 4,
        sum(y for _, y in quad.vertices) / 4,
    )
    assert region.contains(*inside)


def test_convex_hull_and_canonical_equality():
    pts = [(F(0), F(1)), (F(1), F(1)), (F(1), F(0)), (F(1, 2), F(1, 2))]
    hull = convex_hull(pts)
    assert hull == ((F(0), F(1)), (F(1), F(0)), (F(1), F(1)))


def test_json_dump_uses_rational_strings():
    d = cylinder((2,)).to_json_dict()
    assert d["area"] == "1/6"
    assert all(set(v) == {"x", "y"} for v in d["vertices"])
    assert all("/" in v["x"] or v["x"].lstrip("-").isdigit() for v in d["vertices"])


def test_linear_form_validation():
    with pytest.raises(ValueError):
        LinearForm(0, 0, 0)
    with pytest.raises(ValueError):
        HalfPlane(LinearForm(1, 0), "==", F(1))
    with pytest.raises(ValueError):
        cylinder((0,))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 12), max_size=5))
def test_index_cells_chain_is_the_forward_image_of_the_cylinder(ks):
    """Cutting cell by cell from the triangle gives the cylinder's image
    under the r-th iterate: the closure polygon of cylinder(ks) in the
    coordinates (L_r, L_{r+1}), with the same area."""
    points, area2 = _TRIANGLE, F(1)
    for k in ks:
        cells = list(_index_cells(points, range(k, k + 1)))
        if not cells:
            assert cylinder_area(tuple(ks)) == 0
            return
        [(label, points, area2)] = cells
        assert label == k
    region = cylinder(ks)
    assert area2 / 2 == region.area() > 0
    a, b = cylinder_forms(ks)[-2:]
    image = [_triple((a.evaluate(x, y), b.evaluate(x, y))) for x, y in region.vertices]
    assert _canonicalize(points) == _canonicalize(image)


def _assert_strictly_convex_ccw(points):
    """CCW, with no repeated and no collinear consecutive vertex."""
    n = len(points)
    assert n >= 3 and fraction_area2(points) > 0, points
    assert len(set(points)) == n, points
    assert all(_cross(points[i - 2], points[i - 1], points[i]) > 0 for i in range(n)), points


def _clip_chain(points, constraints):
    """The polygon that ``refine`` hands to the normal form."""
    for hp in constraints:
        points = _clip(points, _functional(hp))
    return points


def _assert_in_normal_form(raw, canonical):
    """A polygon of integer triples made by the library is strictly convex
    and CCW, or of zero area; its normal form is the old full one, also from
    every rotation of either orientation; and ``canonical`` is that normal
    form."""
    assert _canonicalize(raw) == full_canonical(as_points(raw)) == canonical
    if not canonical:
        assert _signed_area2(raw) == 0
        return
    _assert_strictly_convex_ccw(as_points(raw))
    _assert_strictly_convex_ccw(canonical)
    for turned in (list(raw), list(reversed(raw))):
        for r in range(len(turned)):
            rotated = turned[r:] + turned[:r]
            assert _canonicalize(rotated) == full_canonical(as_points(rotated)) == canonical


_LABELS = st.lists(st.one_of(st.integers(1, 4), st.integers(1, 40)), max_size=5).map(tuple)


@seed(20151)
@settings(max_examples=300, deadline=None)
@given(ks=_LABELS, j=st.integers(1, 40))
def test_regions_are_canonical_by_construction(ks, j):
    """Cylinders (labels <= 40, arity <= 5), a cell refined by a sub-cylinder,
    unimodular images and an ``_index_cells`` chain all come out CCW with no
    repeated and no collinear consecutive vertex, so the normal form that only
    orients and rotates equals the full one on them."""
    region = cylinder(ks)
    _assert_in_normal_form(_clip_chain(_TRIANGLE, cylinder_constraints(ks)), region.vertices)
    k = ks[0] if ks else j
    cell, sub = cylinder((k,)), cylinder((k,) + ks[1:])
    raw = _clip_chain([_triple(p) for p in cell.vertices], sub.constraints)
    _assert_in_normal_form(raw, refine(cell, sub).vertices)
    assert refine(cell, sub).vertices == sub.vertices
    image = unimodular_image(sub, k)
    image_raw = [(y, k * y - x, w) for x, y, w in map(_triple, sub.vertices)]
    _assert_in_normal_form(image_raw, image.vertices)
    points = _TRIANGLE
    for label in ks:
        cells = list(_index_cells(points, range(label, label + 1)))
        if not cells:
            break
        [(_, points, _)] = cells
        _assert_strictly_convex_ccw(as_points(points))
        assert _canonicalize(points) == full_canonical(as_points(points))


def test_start_polygon_and_hull_are_in_normal_form():
    _assert_strictly_convex_ccw(as_points(_TRIANGLE))
    assert _canonicalize(_TRIANGLE) == full_canonical(FRACTION_TRIANGLE) == cylinder(()).vertices
    assert as_points(_TRIANGLE) == list(FRACTION_TRIANGLE)
    for m, i, r in [(6, 1, 1), (10, 2, 2), (17, 3, 3)]:
        quad = stabilized_quadrangle(m, i, r)
        _assert_in_normal_form([_triple(p) for p in quad.vertices], quad.vertices)


@seed(20152)
@settings(max_examples=100, deadline=None)
@given(ks=_LABELS.filter(lambda ks: cylinder_area(ks) > 0), data=st.data())
def test_halfplanes_take_the_hull_of_their_points(ks, data):
    """A cylinder's vertices give the same edge constraints shuffled, repeated
    and padded with edge midpoints."""
    vs = cylinder(ks).vertices
    mids = [((x1 + x2) / 2, (y1 + y2) / 2) for (x1, y1), (x2, y2) in zip(vs, vs[1:] + vs[:1])]
    extra = data.draw(st.lists(st.sampled_from(list(vs) + mids), max_size=12))
    points = data.draw(st.permutations(list(vs) + mids + extra))
    assert halfplanes_from_polygon(points) == halfplanes_from_polygon(vs)


@pytest.mark.parametrize("k", range(1, 12))
def test_refine_keeps_each_constraint_once(k):
    """Refining a cell by its sub-cylinders keeps each constraint once, the
    cell's first and then the new ones in order, and gives the sub-cylinder's
    polygon and constraint set."""
    cell = cylinder((k,))
    for j in range(1, 12):
        sub = cylinder((k, j))
        refined = refine(cell, sub)
        assert len(set(refined.constraints)) == len(refined.constraints)
        new = tuple(hp for hp in sub.constraints if hp not in cell.constraints)
        assert refined.constraints == cell.constraints + new
        assert set(refined.constraints) == set(sub.constraints)
        assert refined.vertices == sub.vertices
        twice = refine(refined, list(sub.constraints) * 2)
        assert twice == refined


def _vertex_halfplanes(vs, data):
    """Integer half-planes through vertices of ``vs``, where a clip meets
    values that are exactly 0: one through a vertex in a drawn direction, and
    the edge lines of the hull of three vertices (chords or sides), each with
    either sense."""
    x, y = data.draw(st.sampled_from(vs))
    cx, cy = data.draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(any))
    c0 = data.draw(st.integers(-3, 3))
    sense = data.draw(st.sampled_from(("<=", "<", ">=", ">")))
    yield HalfPlane(LinearForm(cx, cy, c0), sense, cx * x + cy * y + c0)
    for hp in halfplanes_from_polygon(data.draw(st.permutations(vs))[:3]):
        yield hp
        yield HalfPlane(hp.form, "<", hp.bound)


@seed(20161)
@settings(max_examples=300, deadline=None)
@given(
    ks=st.lists(st.integers(1, 12), max_size=3).map(tuple),
    j=st.integers(1, 12),
    step=st.integers(1, 2),
    data=st.data(),
)
def test_integer_clipping_matches_the_fraction_clipper(ks, j, step, data):
    """Cylinders (arity <= 3, labels <= 12), cells refined by sub-cylinders,
    unimodular images, half-planes through vertices and ``_index_cells``
    give the same canonical vertices and the same area2 as the Fraction
    clipper."""
    region = cylinder(ks)
    cons = cylinder_constraints(ks)
    assert region.vertices == full_canonical(fraction_clip_chain(FRACTION_TRIANGLE, cons))
    assert _clipped(_TRIANGLE, cons) == region.vertices
    assert region.area() == abs(fraction_area2(list(region.vertices))) / 2
    k = ks[0] if ks else j
    cell, sub = cylinder((k,)), cylinder((k,) + ks[1:] + (j,))
    oracle = full_canonical(fraction_clip_chain(list(cell.vertices), sub.constraints))
    assert refine(cell, sub).vertices == oracle
    image = unimodular_image(sub, k)
    assert image.vertices == full_canonical([(y, k * y - x) for x, y in sub.vertices])
    if region.vertices:
        for hp in _vertex_halfplanes(list(region.vertices), data):
            oracle = full_canonical(fraction_clip(list(region.vertices), hp))
            assert refine(region, [hp]).vertices == oracle, hp
    points, fpoints = _TRIANGLE, list(FRACTION_TRIANGLE)
    for label in ks + (j,):
        ls = range(data.draw(st.integers(1, 3)), 13, step)
        cells = list(_index_cells(points, ls))
        oracle = list(fraction_index_cells(fpoints, ls))
        assert [(c, as_points(img), a2) for c, img, a2 in cells] == oracle
        nxt = [(img, fimg) for (c, img, _), (_, fimg, _) in zip(cells, oracle) if c == label]
        if not nxt:
            break
        [(points, fpoints)] = nxt


@pytest.mark.parametrize("ks", [(2,) * 20 + (1, 200), (1, 1000)])
def test_triples_stay_reduced_along_deep_chains(ks):
    """Every vertex of a clip chain and of an ``_index_cells`` chain stays a
    reduced triple with W > 0: unreduced triples would still give the right
    polygons, only with ever larger integers."""

    def assert_reduced(points):
        assert points
        assert all(w > 0 and math.gcd(x, y, w) == 1 for x, y, w in points), points

    points = _TRIANGLE
    for hp in cylinder_constraints(ks):
        points = _clip(points, _functional(hp))
        assert_reduced(points)
    points = _TRIANGLE
    for k in ks:
        [(_, points, _)] = _index_cells(points, range(k, k + 1))
        assert_reduced(points)
