import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, log, pi

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    F8_ODD,
    brute_boundary_windows,
    brute_farey,
    small_fractions,
    small_intervals,
)
from oddfarey.farey import UnitInterval, _stream_histogram, gap_histogram
from oddfarey.geometry import cylinder, farey_triangle
from oddfarey.lattice import (
    PairParity,
    asymptotic_report,
    boundary_window_histogram,
    count_lattice,
    count_lattice_interval,
    decode_histogram,
    parity_profile,
    verify_parity_swap,
    verify_tuple_identity,
)
from oddfarey.paths import families

T = farey_triangle()


def test_triangle_counts():
    rep = count_lattice(T, 1, PairParity())
    assert rep.count == 1  # just the point (1, 1)
    # odd-x primitive points of Q*T are one per odd-denominator element
    rep = count_lattice(T, 8, PairParity("odd", "any"))
    assert rep.count == 13 == len(F8_ODD)
    # one more than the number of neighbour pairs led by an odd denominator
    seq = brute_farey(8)
    pairs = sum(1 for f in seq[:-1] if f.denominator % 2 == 1)
    assert rep.count == pairs + 1


def test_brute_force_point_count():
    region = cylinder((2,))
    q = 40
    expected = 0
    for a in range(1, q + 1):
        for b in range(1, q + 1):
            if a + b > q and gcd(a, b) == 1 and a % 2 == 1 and (q + a) // b == 2:
                expected += 1
    assert count_lattice(region, q, PairParity("odd", "any")).count == expected


def test_nonprimitive_and_parity_partitions():
    region = cylinder((2,))
    q = 60
    n_all = count_lattice(region, q, PairParity(), primitive=True).count
    prof = parity_profile(region, q)
    assert sum(prof.values()) == n_all
    n_odd = count_lattice(region, q, PairParity("odd", "any")).count
    assert prof[("odd", "odd")] + prof[("odd", "even")] == n_odd
    assert n_odd + count_lattice(region, q, PairParity("even", "any")).count == n_all
    # without primitivity the count matches a double loop
    m_all = count_lattice(region, q, PairParity(), primitive=False).count
    expected = sum(
        1
        for a in range(1, q + 1)
        for b in range(1, q + 1)
        if a + b > q and (q + a) // b == 2
    )
    assert m_all == expected


def test_cell_counts_partition_the_triangle():
    q = 100
    total = count_lattice(T, q, PairParity()).count
    by_cells = sum(
        count_lattice(cylinder((k,)), q, PairParity()).count
        for k in range(1, 2 * q + 1)
    )
    assert by_cells == total


def test_empty_region_count():
    assert count_lattice(cylinder((50, 50)), 100, PairParity()).count == 0


# ---------------------------------------------------------------------------
# window decoding and the exact identity
# ---------------------------------------------------------------------------


def test_decode_totals_match_element_count():
    from oddfarey.farey import odd_farey_count

    for q in (8, 30, 50):
        for h in (1, 2):
            dec = decode_histogram(q, h)
            assert sum(dec.values()) == odd_farey_count(q)


def test_family_counts_by_region_route():
    """Orbit-decoded family counts equal sums of region-based counts."""
    for q, deltas in [(8, (1,)), (8, (2,)), (30, (1,)), (30, (3,)), (30, (1, 2))]:
        for fam in families(deltas):
            by_orbit = decode_histogram(q, len(deltas))[(deltas, fam.path.step_types())]
            parity = PairParity("odd", fam.first_vertex_parity)
            total = 0
            free = fam.free_slots
            ranges = []
            for s in free:
                par = fam.path.labels[s].parity
                start = 1 if par == "odd" else 2
                ranges.append(range(start, 2 * q + 1, 2))
            for values in itertools.product(*ranges):
                from oddfarey.paths import instantiate

                ks = instantiate(fam, values)
                total += count_lattice(cylinder(ks), q, parity).count
            assert by_orbit == total, (q, deltas, fam.path.step_types())


def test_boundary_windows_order_8():
    bnd = boundary_window_histogram(8, 1)
    assert sum(bnd.values()) == 1
    assert bnd[((1,), ("OEO",))] == 1  # the window starting at 1/1
    bnd2 = boundary_window_histogram(8, 2)
    assert sum(bnd2.values()) == 2


def test_tuple_identity_examples():
    res = verify_tuple_identity(8, (7,))
    assert res.ok and res.lhs == res.rhs == 1
    res = verify_tuple_identity(8, (1,))
    assert res.ok and res.lhs == 7
    assert sum(fc.boundary for fc in res.families) == 1
    res = verify_tuple_identity(50, (1, 1))
    assert res.ok
    res = verify_tuple_identity(100, (2, 3))
    assert res.ok
    assert res.first_mismatch() is None


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 21, 30])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_identity_full_histogram(q, h):
    """Every observed pattern satisfies the corrected identity, not just a few."""
    stream, _ = _stream_histogram(q, h, with_steps=True)  # the pass, not the count
    dec = decode_histogram(q, h)
    bnd = boundary_window_histogram(q, h)
    keys = set(stream) | set(dec) | set(bnd)
    for key in keys:
        assert stream[key] == dec[key] - bnd[key], (q, h, key)


def test_verify_streams_once_per_key(monkeypatch):
    """The identity's stream side is one pass per (Q, h, interval), and a
    streaming pass even at h = 1."""
    import oddfarey.farey as farey
    from oddfarey.lattice import _stream_cached

    passes = []
    gap_pass = farey._gap_pass

    def counted_pass(*key):
        passes.append(key)
        return gap_pass(*key)

    monkeypatch.setattr(farey, "_gap_pass", counted_pass)
    _stream_cached.cache_clear()
    half = UnitInterval(0, Fraction(1, 2))
    for deltas in [(1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (2, 2)]:
        assert verify_tuple_identity(33, deltas).ok
    for deltas in [(1,), (2,), (1, 1)]:
        assert verify_tuple_identity(33, deltas, half).ok
    _stream_cached.cache_clear()
    assert passes == [(33, 1, None), (33, 2, None), (33, 1, half), (33, 2, half)]


def test_identity_at_tiny_orders():
    # fewer elements than the window: stream side has no windows at all
    res = verify_tuple_identity(1, (1, 1))
    assert res.ok and res.lhs == 0


def test_interval_identity():
    for interval in (UnitInterval(0, Fraction(1, 2)), UnitInterval(Fraction(1, 4), Fraction(3, 4))):
        for q in (1, 2, 3, 4, 8, 30, 50):  # F(Q) has at most 2h + 4 elements for Q <= 4
            for h in (1, 2):
                stream, _ = gap_histogram(q, h, interval=interval, with_steps=True)
                dec = decode_histogram(q, h, interval)
                bnd = boundary_window_histogram(q, h, interval)
                keys = set(stream) | set(dec) | set(bnd)
                for key in keys:
                    assert stream[key] == dec[key] - bnd[key], (q, h, key)
        res = verify_tuple_identity(50, (1, 1), interval)
        assert res.ok and not res.notes


@seed(20022)
@settings(max_examples=40, deadline=None)
@given(interval=small_intervals)
def test_boundary_windows_match_brute_force_in_intervals(interval):
    """The boundary windows kept by the half-open rule are those of the
    periodic sequence F(Q), F(Q) + 1, ... whose first fraction lies in the
    interval, at every Q <= 60 and h <= 4."""
    ends = (interval.lo, interval.hi)
    for h in (1, 2, 3, 4):
        for q in range(1, 61):
            expected = brute_boundary_windows(q, h, ends)
            assert boundary_window_histogram(q, h, interval) == expected, (q, h, interval)


def test_interval_convention_note():
    # 1/3 is an odd-denominator element, so closed vs half-open may differ
    res = verify_tuple_identity(30, (1,), UnitInterval(Fraction(1, 3), 1))
    assert res.notes


@settings(max_examples=25, deadline=None)
@given(
    q=st.integers(1, 150),
    h=st.integers(1, 3),
    cuts=st.lists(small_fractions, max_size=4),
)
def test_decode_adds_up_over_interval_partitions(q, h, cuts):
    """Under the half-open rule lo < f <= hi, the decoded windows of the cells
    of any partition of [0, 1] add up to the unrestricted decode, key by key."""
    ends = sorted({Fraction(0), Fraction(1), *cuts})
    total = Counter()
    for lo, hi in zip(ends, ends[1:]):
        total.update(decode_histogram(q, h, UnitInterval(lo, hi)))
    assert total == decode_histogram(q, h)


def test_full_interval_equals_unrestricted():
    region = cylinder((2,))
    full = UnitInterval(0, 1)
    a = count_lattice_interval(region, 40, PairParity("odd", "any"), full).count
    b = count_lattice(region, 40, PairParity("odd", "any")).count
    assert a == b


def test_interval_partition_of_counts():
    cells = [UnitInterval(Fraction(i, 4), Fraction(i + 1, 4)) for i in range(4)]
    q = 50
    parts = [
        count_lattice_interval(T, q, PairParity("odd", "any"), c).count for c in cells
    ]
    total = count_lattice(T, q, PairParity("odd", "any")).count
    assert sum(parts) == total


def test_interval_proportionality():
    q = 200
    half = UnitInterval(0, Fraction(1, 2))
    part = count_lattice_interval(T, q, PairParity("odd", "any"), half).count
    total = count_lattice(T, q, PairParity("odd", "any")).count
    eps = 5 * log(q) / q**0.5
    assert abs(part / total - 0.5) <= eps


def test_boundary_hits_flagged():
    # with x parity free, b_bar can land exactly on a cell wall
    rep = count_lattice_interval(T, 12, PairParity(), UnitInterval(0, Fraction(1, 2)))
    assert rep.boundary_hits > 0


# ---------------------------------------------------------------------------
# parity swap under the cell map
# ---------------------------------------------------------------------------


def test_parity_swap_examples():
    assert verify_parity_swap(60, 2).ok
    assert verify_parity_swap(60, 3, cylinder((2,))).ok
    assert verify_parity_swap(30, 1, cylinder((40, 40))).ok  # empty domain: 0 == 0


@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("q", [30, 60])
def test_parity_swap_battery(k, q):
    for domain in (None, cylinder((k, 1)), cylinder((k, 2))):
        assert verify_parity_swap(q, k, domain).ok


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotic_report_triangle():
    rows = asymptotic_report(T, PairParity("odd", "any"), [100, 300, 500])
    for row in rows:
        # main term 4 * (1/2) * Q^2 / pi^2 = 2 Q^2 / pi^2
        assert abs(row.main_term - 2 * row.order**2 / pi**2) < 1e-9
        assert abs(row.normalized) <= 2


def test_asymptotic_report_cell_two():
    rows = asymptotic_report(cylinder((2,)), PairParity("odd", "even"), [100, 250, 400])
    for row in rows:
        assert abs(row.main_term - 2 * row.order**2 / (6 * pi**2)) < 1e-9
        assert abs(row.normalized) <= 2


def test_asymptotic_report_requires_coefficient():
    with pytest.raises(ValueError):
        asymptotic_report(T, PairParity("even", "even"), [10])
    rows = asymptotic_report(T, PairParity("even", "even"), [10], coefficient=0)
    assert rows[0].count == 0


def test_parity_soundness_replay():
    """Every decoded window's full label orbit obeys its family's slot rules:
    fixed labels equal the gaps, free labels have the forced parity."""
    from oddfarey.dynamics import TrianglePoint, orbit_kappas

    for q in (8, 30, 60, 100):
        for a in range(1, q + 1, 2):
            for b in range(max(q - a + 1, 1), q + 1):
                if gcd(a, b) != 1:
                    continue
                # decode the h = 2 window and its step signature
                x, y = a, b
                gaps, steps = [], []
                for _ in range(2):
                    if y & 1:
                        gaps.append(1)
                        steps.append("OO")
                        x, y = y, ((q + x) // y) * y - x
                    else:
                        k = (q + x) // y
                        gaps.append(k)
                        steps.append("OEO")
                        x, y = y, k * y - x
                        x, y = y, ((q + x) // y) * y - x
                fam = next(
                    f
                    for f in families(tuple(gaps))
                    if f.path.step_types() == tuple(steps)
                )
                size = fam.path.size
                labels = orbit_kappas(
                    TrianglePoint(Fraction(a, q), Fraction(b, q)), size
                )
                for slot, value in zip(fam.path.labels, labels):
                    assert slot.admits(value), (q, a, b, gaps, steps, labels)


def test_sweep_matches_naive_membership(rng):
    """Column sweeps agree with a full-grid membership scan on many shapes."""
    from fractions import Fraction as Fr

    from oddfarey.geometry import unimodular_image

    shapes = [cylinder(()), cylinder((1,)), cylinder((4,)), cylinder((1, 2)),
              cylinder((2, 1, 7)), unimodular_image(cylinder((3,)), 3)]
    for _ in range(6):
        ks = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 3)))
        shapes.append(cylinder(ks))
    parities = [PairParity(), PairParity("odd", "any"), PairParity("odd", "even"),
                PairParity("even", "odd"), PairParity("any", "odd")]
    for region in shapes:
        q = rng.choice([13, 24, 37])
        for parity in parities:
            for primitive in (True, False):
                expected = 0
                for a in range(1, q + 1):
                    for b in range(1, q + 1):
                        if not parity.matches(a, b):
                            continue
                        if primitive and gcd(a, b) != 1:
                            continue
                        if region.contains(Fr(a, q), Fr(b, q)):
                            expected += 1
                got = count_lattice(region, q, parity, primitive).count
                assert got == expected, (region.constraints, q, parity, primitive)


_PARITY_NAMES = ("odd", "even", "any")


def _parity_class(n: int) -> str:
    return "odd" if n % 2 else "even"


@settings(max_examples=30, deadline=None)
@given(
    ks=st.lists(st.integers(1, 8), max_size=2),
    q=st.integers(1, 60),
    interval=small_intervals,
)
def test_column_sweep_matches_double_loop(ks, q, interval):
    """Every sweep counter agrees with a membership test of every grid point."""
    region = cylinder(tuple(ks))
    inside = [
        (a, b)
        for a in range(1, q + 1)
        for b in range(1, q + 1)
        if region.contains(Fraction(a, q), Fraction(b, q))
    ]
    primitive = [(a, b) for a, b in inside if gcd(a, b) == 1]

    def first_fraction(a, b):  # gamma0 = 1 - b_bar / a
        return 1 - Fraction(0 if a == 1 else pow(b, -1, a), a)

    for px, py in itertools.product(_PARITY_NAMES, repeat=2):
        parity = PairParity(px, py)
        pts = [p for p in inside if parity.matches(*p)]
        prim = [p for p in primitive if parity.matches(*p)]
        assert count_lattice(region, q, parity, primitive=False).count == len(pts)
        assert count_lattice(region, q, parity).count == len(prim)
        rep = count_lattice_interval(region, q, parity, interval)
        firsts = [first_fraction(a, b) for a, b in prim]
        assert rep.count == sum(interval.lo < f <= interval.hi for f in firsts)
        assert rep.boundary_hits == sum(f in (interval.lo, interval.hi) for f in firsts)
    expected = Counter((_parity_class(a), _parity_class(b)) for a, b in primitive)
    profile = parity_profile(region, q)
    assert sum(profile.values()) == len(primitive)
    assert all(profile[key] == expected[key] for key in profile)
