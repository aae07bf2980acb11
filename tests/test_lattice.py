import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, log, pi

import pytest
from hypothesis import Phase, example, given, seed, settings
from hypothesis import strategies as st

from conftest import (
    F8_ODD,
    brute_boundary_windows,
    brute_windows,
    brute_farey,
    instantiate,
    point_starts,
    small_fractions,
    small_intervals,
    swept_lattice_counts,
    totients,
)
from oddfarey.density import _cylinder_labels, _escape_slots
from oddfarey.farey import (
    UnitInterval,
    _block_keys,
    _histogram,
    _smallest_prime_factors,
    _squarefree_divisors,
    _stream_histograms,
    _window_keys,
    gap_histogram,
    odd_farey_count,
)
from oddfarey.geometry import (
    ConvexRegion,
    HalfPlane,
    LinearForm,
    _escape_bound,
    convex_hull,
    cylinder,
    halfplanes_from_polygon,
    refine,
    stabilized_quadrangle,
    unimodular_image,
)
from oddfarey.lattice import (
    PairParity,
    _columns,
    _inverse_rule,
    _kept,
    _truncated,
    _units,
    boundary_window_histogram,
    count_delta_tuples,
    count_lattice,
    decode_histogram,
    empirical_rho,
    parity_profile,
    verify_parity_swap,
    verify_tuple_identities,
    window_count,
)
from oddfarey.paths import MAX_WINDOW, _fits, families

T = cylinder(())
_PARITY_NAMES = ("odd", "even", "any")


def _matches(parity, a, b):
    """Whether (a, b) has the coordinate parities of ``parity``."""
    return _fits(a, parity.x) and _fits(b, parity.y)


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


_PROFILE_KEYS = (("odd", "odd"), ("odd", "even"), ("even", "odd"))


@seed(20023)
@settings(max_examples=40, deadline=None)
@given(ks=st.lists(st.integers(1, 8), max_size=3), q=st.integers(1, 2500))
@example(ks=[2], q=2310)  # the columns a = 1155 = 3*5*7*11 and a = 2310 = 2*1155
@example(ks=[1, 2], q=2500)
def test_column_counts_match_the_point_sweep(ks, q):
    """The Moebius column counts equal the sweep with a gcd test at every
    point, for all 9 parities, primitive or not."""
    region = cylinder(tuple(ks))
    expected = swept_lattice_counts(region, q)
    for (px, py, primitive), n in expected.items():
        got = count_lattice(region, q, PairParity(px, py), primitive).count
        assert got == n, (ks, q, px, py, primitive)
    profile = parity_profile(region, q)
    assert profile == {key: expected[(*key, True)] for key in _PROFILE_KEYS}


def _profile_region(kind, ks):
    """A cylinder, a cell refined by a subcylinder (as the parity swap
    refines), that cell's unimodular image, or an empty region."""
    cell = refine(cylinder(ks[:1]), cylinder(ks))
    return {
        "cylinder": cylinder(ks),
        "refined": cell,
        "image": unimodular_image(cell, ks[0]),
        "empty": refine(cylinder((1,)), cylinder((2,))),
    }[kind]


@seed(20025)
@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["cylinder", "refined", "image", "empty"]),
    ks=st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple),
    q=st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 300)),
)
@example(kind="empty", ks=(1,), q=300)
@example(kind="image", ks=(3, 1), q=1)
def test_parity_profile_is_three_counts_in_one_sweep(kind, ks, q):
    region = _profile_region(kind, ks)
    profile = parity_profile(region, q)
    assert profile == {key: count_lattice(region, q, PairParity(*key)).count for key in _PROFILE_KEYS}
    swept = swept_lattice_counts(region, q)
    assert profile == {key: swept[(*key, True)] for key in _PROFILE_KEYS}


def test_column_counts_at_the_default_cap():
    q = 10**5  # a point sweep would take minutes; the columns are counted
    assert count_lattice(T, q, PairParity("odd", "any")).count == odd_farey_count(q)
    profile = parity_profile(T, q)
    assert sum(profile.values()) == sum(totients(q)[1:])
    assert profile[("odd", "odd")] + profile[("odd", "even")] == odd_farey_count(q)


# ---------------------------------------------------------------------------
# window decoding and the exact identity
# ---------------------------------------------------------------------------


def test_decode_totals_match_element_count():
    for q in (8, 30, 50):
        for h in (1, 2):
            dec = decode_histogram(q, h)
            assert sum(dec.values()) == odd_farey_count(q)


def _point_decode(q, h, interval=None):
    starts, _ = point_starts(q, interval)
    return _histogram(_window_keys(q, h, starts), q, h, with_steps=True)[0]


def test_decode_counts_what_the_points_decode():
    """Without an interval the windows come from farey's row blocks; they are
    the windows decoded point by point at every small order."""
    for q in range(1, 151):
        for h in (1, 2, 3, 4):
            assert decode_histogram(q, h) == _point_decode(q, h), (q, h)


@seed(20024)
@settings(max_examples=6, deadline=None)
@given(q=st.integers(301, 3000), h=st.integers(1, 4))
@example(q=3000, h=4)
def test_decode_counts_what_the_points_decode_at_random_orders(q, h):
    assert decode_histogram(q, h) == _point_decode(q, h), (q, h)


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
    res = verify_tuple_identities(8, [(7,)])[0]
    assert res.ok and res.lhs == res.rhs == 1
    res = verify_tuple_identities(8, [(1,)])[0]
    assert res.ok and res.lhs == 7
    assert sum(fc.boundary for fc in res.families) == 1
    res = verify_tuple_identities(50, [(1, 1)])[0]
    assert res.ok
    res = verify_tuple_identities(100, [(2, 3)])[0]
    assert res.ok
    assert res.first_mismatch() is None


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 21, 30])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_identity_full_histogram(q, h):
    """Every observed pattern satisfies the corrected identity, not just a few."""
    stream, _ = _stream_histograms(q, h, with_steps=True)[-1]  # the pass, not the count
    dec = decode_histogram(q, h)
    bnd = boundary_window_histogram(q, h)
    keys = set(stream) | set(dec) | set(bnd)
    for key in keys:
        assert stream[key] == dec[key] - bnd[key], (q, h, key)


def test_verify_streams_once_per_key(monkeypatch, capsys):
    """`verify all` makes one streaming pass and one decode per (Q, interval),
    at the longest window its tuples ask for (a pass streams even for the
    h = 1 tuples), and one column sweep per parity profile."""
    import oddfarey.farey as farey
    import oddfarey.lattice as lattice
    from oddfarey.cli import main

    calls = []

    def recording(name, fn):
        def recorded(*args):
            calls.append((name, *args))
            return fn(*args)

        return recorded

    monkeypatch.setattr(farey, "_gap_pass", recording("pass", farey._gap_pass))
    for name in ("decode_histogram", "parity_profile", "_columns"):
        monkeypatch.setattr(lattice, name, recording(name, getattr(lattice, name)))
    assert main(["verify", "all", "--q", "33"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    half = UnitInterval(0, Fraction(1, 2))
    per_key = [(33, 2, None), (33, 2, half)]
    assert [c[1:] for c in calls if c[0] == "pass"] == per_key
    assert [c[1:] for c in calls if c[0] == "decode_histogram"] == per_key
    first = next(i for i, c in enumerate(calls) if c[0] == "parity_profile")
    assert [c[0] for c in calls[first:]] == ["parity_profile", "_columns"] * 30


def test_identity_at_tiny_orders():
    # fewer elements than the window: stream side has no windows at all
    res = verify_tuple_identities(1, [(1, 1)])[0]
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
        res = verify_tuple_identities(50, [(1, 1)], interval)[0]
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
    res = verify_tuple_identities(30, [(1,)], UnitInterval(Fraction(1, 3), 1))[0]
    assert res.notes


@seed(20024)
@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 150), top=st.integers(1, 4), interval=small_intervals)
@example(q=40, top=4, interval=UnitInterval(Fraction(7, 9), 1))  # ends at 1
@example(q=50, top=3, interval=UnitInterval(Fraction(1, 2), Fraction(1, 2)))  # no odd element
@example(q=60, top=4, interval=UnitInterval(0, Fraction(1, 3)))  # starts at 0
@example(q=9, top=4, interval=UnitInterval(Fraction(4, 5), Fraction(4, 5)))  # tail cut at 1/1
@example(q=2, top=4, interval=UnitInterval(0, 1))  # the whole sequence: no tail
@example(q=37, top=4, interval=UnitInterval(0, 1))
def test_one_pass_and_one_decode_serve_every_shorter_window(q, top, interval):
    """One streaming pass at the longest length H gives the windows of every
    h <= H, and the H-decode cut to h is the h-decode."""
    streams = _stream_histograms(q, top, interval, with_steps=True)
    decoded = decode_histogram(q, top, interval)
    for h in range(1, top + 1):
        expected = brute_windows(q, h, (interval.lo, interval.hi), with_steps=True)
        assert streams[h - 1] == (expected, sum(expected.values())), (q, top, h, interval)
        assert _truncated(decoded, h) == decode_histogram(q, h, interval), (q, top, h, interval)


def test_identities_of_mixed_lengths_match_one_at_a_time():
    tuples = [(2, 1, 1), (1,), (1, 2), (3,), (1, 1, 2)]
    for interval in (None, UnitInterval(Fraction(1, 4), Fraction(2, 3))):
        together = verify_tuple_identities(45, tuples, interval)
        assert together == [verify_tuple_identities(45, [t], interval)[0] for t in tuples]
        assert all(res.ok for res in together)
    with pytest.raises(ValueError, match="window length"):
        verify_tuple_identities(45, [(1,), ()])


def test_identities_check_their_tuples_before_the_pass(monkeypatch):
    def no_pass(*args, **kwargs):
        raise AssertionError("streamed before checking the gap tuples")

    monkeypatch.setattr("oddfarey.lattice._stream_histograms", no_pass)
    with pytest.raises(ValueError, match="windows longer than"):
        verify_tuple_identities(3000, [(1,), (1,) * 9])
    with pytest.raises(ValueError, match="nonempty positive"):
        verify_tuple_identities(3000, [(1,), (0,)])


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
    a = count_lattice(region, 40, PairParity("odd", "any"), interval=full).count
    b = count_lattice(region, 40, PairParity("odd", "any")).count
    assert a == b


def test_all_point_counts_reject_an_interval():
    """The inverse rule needs an inverse, so only primitive points have one."""
    with pytest.raises(ValueError, match="primitive points"):
        count_lattice(T, 10, PairParity(), primitive=False, interval=UnitInterval(0, 1))


_ALL_PARITIES = [PairParity(x, y) for x in _PARITY_NAMES for y in _PARITY_NAMES]


@seed(20031)
@settings(max_examples=40, deadline=None)
@given(
    ks=st.lists(st.integers(1, 6), max_size=2),
    q=st.integers(1, 300),
    parity=st.sampled_from(_ALL_PARITIES),
    cuts=st.lists(small_fractions, min_size=1, max_size=4),
)
@example(ks=[], q=50, parity=PairParity("odd", "any"), cuts=[Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
@example(ks=[1], q=60, parity=PairParity(), cuts=[Fraction(1, 2)])  # columns of a - 1 values
@example(ks=[1], q=300, parity=PairParity("even", "odd"), cuts=[Fraction(6, 11)])
@example(ks=[], q=299, parity=PairParity("odd", "odd"), cuts=[Fraction(1, 50)])  # odd a, step 2
def test_interval_partition_of_counts(ks, q, parity, cuts):
    """Under the half-open rule, the interval counts of the cells of any
    partition of [0, 1] add up to the primitive count, for T and cylinders
    of arity at most 2 under all nine parities."""
    region = cylinder(tuple(ks))
    ends = sorted({Fraction(0), Fraction(1), *cuts})
    parts = [count_lattice(region, q, parity, interval=UnitInterval(lo, hi)).count
             for lo, hi in zip(ends, ends[1:])]
    assert sum(parts) == count_lattice(region, q, parity).count, (ks, q, parity, ends)


def _interval_points(region, q, parity, interval):
    """(kept, on a wall) for the primitive points of Q*region with the given
    parities, one gcd and one inverse per point: kept when the first
    fraction 1 - b_bar/a lies in (lo, hi], on a wall when it is lo or hi."""
    (ln, ld), (hn, hd) = interval.lo.as_integer_ratio(), interval.hi.as_integer_ratio()
    kept = hits = 0
    for a, bs in _columns(region, q, parity):
        for b in bs:
            if gcd(a, b) == 1:
                bbar = pow(b, -1, a)  # 1 - bbar/a > lo iff bbar*ld < a*(ld - ln)
                kept += bbar * ld < a * (ld - ln) and bbar * hd >= a * (hd - hn)
                hits += bbar * ld == a * (ld - ln) or bbar * hd == a * (hd - hn)
    return kept, hits


_FULL_CLASS = [(T, PairParity()), (T, PairParity("odd", "any")), (T, PairParity("even", "odd")),
               (cylinder((1,)), PairParity("even", "odd"))]


@seed(20032)
@settings(max_examples=30, deadline=None)
@given(q=st.integers(1, 300), interval=small_intervals)
@example(q=300, interval=UnitInterval(0, 1))
@example(q=299, interval=UnitInterval(Fraction(1, 3), Fraction(1, 3)))  # [a, a] at a wall
@example(q=300, interval=UnitInterval(Fraction(1, 2), Fraction(1, 2)))
@example(q=240, interval=UnitInterval(Fraction(1, 4), Fraction(3, 4)))  # walls where 4 divides a
@example(q=300, interval=UnitInterval(0, Fraction(6, 11)))
def test_full_class_columns_count_the_point_oracle(q, interval):
    """The columns that hold one b of every unit class mod a are counted
    without a walk, and the counts and wall hits are the point oracle's: on
    T under (any, any), (odd, any) and (even, odd) every column is such a
    column, on C(1) under (even, odd) some are."""
    import oddfarey.lattice as lattice

    walks = []
    kept = lattice._kept

    def recorded_kept(a, bs, bbars, spf):
        walks.append(a)
        return kept(a, bs, bbars, spf)

    for region, parity in _FULL_CLASS:
        walks.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lattice, "_kept", recorded_kept)
            rep = count_lattice(region, q, parity, interval=interval)
        assert (rep.count, rep.boundary_hits) == _interval_points(region, q, parity, interval)
        columns = {a for a, _ in _columns(region, q, parity)}
        if region is T:
            assert walks == []
        elif q >= 30:
            assert columns - set(walks) and set(walks), (q, parity)


@seed(20033)
@settings(max_examples=30, deadline=None)
@given(q=st.integers(1, 300), interval=small_intervals)
@example(q=300, interval=UnitInterval(Fraction(1, 3), Fraction(2, 3)))  # two walls in column 3
@example(q=300, interval=UnitInterval(0, 1))  # the wall 0 of hi = 1, in column 1
def test_walls_lie_in_their_endpoints_columns(q, interval):
    """Every wall hit of the point oracle, a primitive point whose first
    fraction 1 - b_bar/a is lo or hi, lies in column den(lo) or den(hi),
    on the cylinders of the full-class test: a*(1 - n/d) is a unit mod a
    only when a = d."""
    ends = {interval.lo, interval.hi}
    columns = {e.denominator for e in ends}
    for region, parity in _FULL_CLASS:
        for a, bs in _columns(region, q, parity):
            for b in bs:
                if gcd(a, b) == 1 and Fraction(a - pow(b, -1, a), a) in ends:
                    assert a in columns, (region, parity, a, b)


def test_interval_proportionality():
    q = 200
    half = UnitInterval(0, Fraction(1, 2))
    part = count_lattice(T, q, PairParity("odd", "any"), interval=half).count
    total = count_lattice(T, q, PairParity("odd", "any")).count
    eps = 5 * log(q) / q**0.5
    assert abs(part / total - 0.5) <= eps


_RULE_INTERVALS = [
    UnitInterval(0, 1), UnitInterval(0, 0), UnitInterval(1, 1),
    UnitInterval(0, Fraction(1, 2)), UnitInterval(Fraction(1, 3), Fraction(7, 8)),
    UnitInterval(Fraction(1, 4), Fraction(2501, 10000)),
    UnitInterval(Fraction(2, 7), Fraction(2, 7)),
]


def _by_point(a, bs, bbars):
    """The b in ``bs`` with gcd(a, b) = 1 and b_bar in ``bbars``, with one gcd
    and one inverse per point: the oracle of the walk."""
    return [b for b in bs if gcd(a, b) == 1 and pow(b, -1, a) in bbars]


@pytest.mark.parametrize("ks", [(), (1,), (2,), (1, 2)])
def test_both_walks_keep_the_same_points(ks, monkeypatch):
    """The walk by b and the walk by b_bar (the two sides ``_kept`` chooses
    between) keep the b's of the per-point oracle on every column of the
    cylinder (each spans less than a), among them a = 1, even a with step-2
    columns and prime powers; both sides occur on sieved walks, and short
    walks that test each value directly occur too."""
    import oddfarey.lattice as lattice

    walked, units = [], lattice._units

    def recorded_units(a, vals, spf):
        walked.append(vals)  # the range the walk inverts: bs or bbars
        return units(a, vals, spf)

    monkeypatch.setattr(lattice, "_units", recorded_units)
    region = cylinder(ks)
    parities = [PairParity(), PairParity("odd", "any"), PairParity("odd", "even"),
                PairParity("even", "odd"), PairParity("odd", "odd")]
    spf = _smallest_prime_factors(200)
    kinds = set()
    for q in [*range(1, 25), 57, 98, 131, 200]:
        for parity in parities:
            for a, bs in _columns(region, q, parity):
                assert not bs or bs[-1] - bs[0] < a
                if a == 1:
                    kinds.add("a = 1")
                if a % 2 == 0 and bs.step == 2:
                    kinds.add("even a, step 2")
                if len(_squarefree_divisors(a, spf)) == 2:
                    kinds.add("prime power")
                for interval in _RULE_INTERVALS:
                    bbars = _inverse_rule(a, interval)
                    kept = _kept(a, bs, bbars, spf)
                    assert sorted(kept) == _by_point(a, bs, bbars), (ks, q, parity, a, interval)
                    if walked:
                        kinds.add("by b" if walked.pop() is bs else "by b_bar")
                    else:
                        kinds.add("direct")
    assert kinds >= {"by b", "by b_bar", "direct", "even a, step 2", "prime power"} | (
        {"a = 1"} if ks in [(), (1,)] else set())


_PRIME_POWERS = [2, 4, 8, 64, 3, 9, 27, 243, 5, 25, 125, 7, 49, 343, 11, 121, 1331]


@seed(20026)
@settings(max_examples=200, deadline=None)
@given(
    a=st.one_of(st.integers(1, 400), st.sampled_from(_PRIME_POWERS)),
    start=st.integers(-3, 3),
    length=st.integers(-1, 6),
    step=st.sampled_from([1, 2]),
    shift=st.integers(-2, 2),
)
@example(a=1, start=0, length=1, step=1, shift=0)
@example(a=6, start=-1, length=3, step=2, shift=0)  # 0, a and 2a in a step-2 range
@example(a=7, start=-2, length=4, step=2, shift=1)  # odd a, step 2: 0, 7, 14, 21 off and on parity
@example(a=2310, start=-1, length=2, step=1, shift=0)  # 2*3*5*7*11
def test_unit_sieve_is_the_gcd_filter(a, start, length, step, shift):
    """The sieve keeps exactly the v with gcd(a, v) = 1, on ranges of step 1
    and 2 reaching from about start*a to about (start + length)*a, so that
    they hold 0, a and multiples of a."""
    vals = range(start * a + shift, (start + length) * a + shift, step)
    assert _units(a, vals, _smallest_prime_factors(a)) == [v for v in vals if gcd(a, v) == 1]


@st.composite
def _kernel_columns(draw):
    """A modulus a, a b-range of step 1 or 2 spanning less than a, and a
    range of inverses in [0, a]: empty, one value (a wall) or longer, often
    placed around the inverse of one of the b so that some b are kept."""
    a = draw(st.one_of(st.integers(1, 10**6), st.sampled_from([1, 2, *_PRIME_POWERS])))
    step = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(0, min(40, (a - 1) // step + 1)))
    first = draw(st.integers(-a, 2 * a))
    bs = range(first, first + n * step, step)
    units = [b for b in bs if gcd(a, b) == 1]
    centre = draw(st.integers(0, a - 1))
    if units and draw(st.booleans()):
        centre = pow(draw(st.sampled_from(units)), -1, a)
    length = draw(st.sampled_from([0, 1, 1]) | st.integers(0, 40))
    lo = max(0, min(centre - draw(st.integers(0, length)), a - length))
    return a, bs, range(lo, min(lo + length, a))


@seed(20027)
@settings(max_examples=300, deadline=None)
@given(column=_kernel_columns())
@example(column=(1, range(5, 6), range(0, 1)))  # b_bar = 0 when a = 1, as Python's pow gives
@example(column=(1, range(5, 6), range(0, 0)))
@example(column=(2, range(1, 2), range(1, 2)))
@example(column=(9, range(7, 8), range(4, 5)))  # one value each
@example(column=(3**12, range(0, 0), range(0, 3**12)))  # no b
@example(column=(2**10, range(1, 2**10, 2), range(2**9, 2**10)))  # even a, every odd b: by b_bar
@example(column=(2**10, range(2, 2**10, 2), range(0, 2**9)))  # even a, even b: no unit
@example(column=(1001, range(3, 1001, 2), range(0, 30)))  # odd a, step 2: by b_bar, odd offsets dropped
@example(column=(1001, range(0, 20), range(0, 1001)))  # by b
def test_batch_inverses_are_the_modular_inverses(column):
    """The kernel's inverses, one inversion per sieved walk, are the modular
    inverses: ``_kept`` keeps the b's of the per-point oracle, each b once,
    in walk order (increasing b when it walks by b), on walks of at most 8
    values and sieved ones, by b and by b_bar."""
    a, bs, bbars = column
    spf = _smallest_prime_factors(a)
    kept = _kept(a, bs, bbars, spf)
    assert sorted(kept) == _by_point(a, bs, bbars), column
    if not (len(bbars) < len(bs) and bs[-1] - bs[0] < a):
        assert kept == _by_point(a, bs, bbars)


def _short_interval(q, inv_length, den, num, from_lo):
    """An interval of length 1/min(inv_length, Q^2) with one endpoint at or
    next to num/den, on the lower end when ``from_lo`` is set."""
    length = Fraction(1, min(inv_length, q * q))
    end = Fraction(min(num, den), den)
    if from_lo:
        lo = min(end, 1 - length)
        return UnitInterval(lo, lo + length)
    hi = max(end, length)
    return UnitInterval(hi - length, hi)


@seed(20025)
# no shrink phase: each example runs the O(Q^2) point oracle, and shrinking
# a failure re-ran it for minutes
@settings(max_examples=8, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(
    q=st.integers(301, 3000),
    h=st.integers(1, 3),
    inv_length=st.integers(2, 9 * 10**6),
    den=st.sampled_from([1, 2, 3, 4, 5, 12, 999, 10**6]),  # small ones put inverses on walls
    num=st.integers(0, 10**6),
    from_lo=st.booleans(),
)
@example(q=3000, h=2, inv_length=2, den=1, num=0, from_lo=True)  # [0, 1/2]
@example(q=3000, h=1, inv_length=9 * 10**6, den=3, num=1, from_lo=True)  # |I| = 1/Q^2
def test_short_interval_counts_match_the_point_oracle(q, h, inv_length, den, num, from_lo):
    """Decoded windows and interval counts (and wall hits) in intervals of
    length 1/Q^2 to 1/2 are those of the point-by-point inverse test."""
    interval = _short_interval(q, inv_length, den, num, from_lo)
    starts, hits = point_starts(q, interval)
    expected = _histogram(_window_keys(q, h, starts), q, h, with_steps=True)[0]
    assert decode_histogram(q, h, interval) == expected, (q, h, interval)
    rep = count_lattice(T, q, PairParity("odd", "any"), interval=interval)
    assert (rep.count, rep.boundary_hits) == (len(starts), hits), (q, interval)


def test_short_interval_count_costs_its_share(monkeypatch):
    """An interval count inverts about |I| * Q^2 / 2 + 3Q units, not one per
    primitive point: each column walks the shorter of b and b_bar.  A pow
    inverts a sieved walk's units (one ``_units`` call each), or one unit of
    a walk of at most 8 values; sieved walks take at most three per column,
    one for the kept range and one for each wall.  The shorter interval
    walks only short columns, the longer one both kinds.  The (odd, any)
    columns of Q*T hold every unit class and invert nothing."""
    import oddfarey.lattice as lattice

    sieved, pows = [], []
    units = lattice._units

    def counted_units(a, vals, spf):
        sieved.append(units(a, vals, spf))
        return sieved[-1]

    def counted_pow(*args):
        pows.append(args)
        return pow(*args)

    monkeypatch.setattr(lattice, "_units", counted_units)
    monkeypatch.setattr(lattice, "pow", counted_pow, raising=False)
    q = 2000
    for length in (Fraction(1, 1000), Fraction(1, 100)):
        interval = UnitInterval(Fraction(1, 4), Fraction(1, 4) + length)
        starts = point_starts(q, interval)[0]
        for parity in (PairParity("odd", "even"), PairParity("odd", "any")):
            sieved.clear()
            pows.clear()
            rep = count_lattice(T, q, parity, interval=interval)
            assert rep.count == sum(_matches(parity, a, b) for a, b in starts)
            if parity.y == "any":
                assert sieved == pows == []
                continue
            columns = len(list(_columns(T, q, parity)))
            inverted = sum(map(len, sieved)) + len(pows) - len(sieved)
            assert 0 < inverted <= length * q * q / 2 + 3 * q
            assert len(pows) > len(sieved) <= 3 * columns
            assert (len(sieved) > 0) == (length == Fraction(1, 100))


def _rows(q, starts):
    """Start points (a, b) in increasing a, bucketed by row b."""
    rows = [[] for _ in range(q + 1)]
    for a, b in starts:
        rows[b].append(a)
    return rows


@seed(20029)
@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 400), h=st.integers(1, 4), interval=small_intervals)
@example(q=1, h=2, interval=UnitInterval(0, 1))
@example(q=2, h=3, interval=UnitInterval(0, Fraction(1, 2)))
@example(q=3, h=4, interval=UnitInterval(Fraction(1, 3), 1))
@example(q=97, h=2, interval=UnitInterval(Fraction(1, 5), Fraction(1, 5)))  # [a, a] at an odd element
@example(q=96, h=3, interval=UnitInterval(Fraction(1, 2), Fraction(1, 2)))  # [a, a] at an even one
@example(q=301, h=4, interval=UnitInterval(Fraction(7, 9), 1))  # ends at 1/1
@example(q=400, h=2, interval=UnitInterval(Fraction(3, 7), Fraction(5, 6)))  # odd-denominator lo
def test_row_blocks_count_the_kept_starts(q, h, interval):
    """The row blocks that hold the kept starts count the windows that the
    coder finds start by start, whichever route the decoder takes."""
    starts = point_starts(q, interval)[0]
    coded = _window_keys(q, h, starts)
    assert _block_keys(q, h, _rows(q, starts)) == coded, (q, h, interval)
    assert decode_histogram(q, h, interval) == _histogram(coded, q, h, with_steps=True)[0]


def test_row_blocks_count_the_small_orders():
    """At Q <= 3 every subset of the start points, in every row, is counted
    as the coder counts it."""
    for q in (1, 2, 3):
        points = point_starts(q)[0]
        for mask in range(1 << len(points)):
            starts = [p for i, p in enumerate(points) if mask >> i & 1]
            for h in (1, 2, 3, 4):
                assert _block_keys(q, h, _rows(q, starts)) == _window_keys(q, h, starts), (q, h, starts)


def test_dense_intervals_decode_by_rows(monkeypatch):
    """The request picks the route: an interval with (hi - lo)*Q >= 12*3**h
    and (hi - lo)*Q**2 <= 2**26 is counted in row blocks, codes no start and
    gives the coder's windows; a narrower one never calls the row counter;
    a wider one than 2**26 / Q**2 codes its starts, to bound the rows' memory."""
    import oddfarey.lattice as lattice

    calls = []

    def recording(name, fn):
        def wrapper(q, h, *args):
            calls.append((name, args and args[0]))
            return fn(q, h, *args)

        return wrapper

    monkeypatch.setattr(lattice, "_window_keys", recording("coded", _window_keys))
    monkeypatch.setattr(lattice, "_block_keys", recording("rows", _block_keys))
    for q, h, interval, route in (
        (300, 2, UnitInterval(Fraction(1, 4), Fraction(3, 4)), "rows"),  # 150 >= 108
        (300, 3, UnitInterval(Fraction(1, 4), Fraction(3, 4)), "coded"),  # 150 < 324
        (2000, 2, UnitInterval(Fraction(1, 4), Fraction(1, 4) + Fraction(1, 1000)), "coded"),
        (2000, 1, UnitInterval(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 55)), "rows"),  # 36.4 >= 36
        (2000, 1, UnitInterval(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 56)), "coded"),  # 35.7 < 36
    ):
        calls.clear()
        starts = point_starts(q, interval)[0]
        expected = _histogram(_window_keys(q, h, starts), q, h, with_steps=True)[0]
        assert decode_histogram(q, h, interval) == expected
        names = [name for name, _ in calls]
        if route == "rows":
            assert names == ["rows"] and sum(map(len, calls[0][1])) == len(starts), (q, h)
        else:
            assert names == ["coded"], (q, h)
    # the memory bound, read without keeping a start: 11000**2 / 2 <= 2**26 < 12000**2 / 2
    monkeypatch.setattr(lattice, "_kept", lambda a, bs, bbars, spf: [])
    for q, route in ((11000, "rows"), (12000, "coded")):
        calls.clear()
        assert decode_histogram(q, 4, UnitInterval(0, Fraction(1, 2))) == Counter()
        assert [name for name, _ in calls] == [route], q


def test_boundary_hits_flagged():
    # with x parity free, b_bar can land exactly on a cell wall
    rep = count_lattice(T, 12, PairParity(), interval=UnitInterval(0, Fraction(1, 2)))
    assert rep.boundary_hits > 0


# ---------------------------------------------------------------------------
# windows of one gap tuple, counted over its region list
# ---------------------------------------------------------------------------

_SHORT = [ds for h in (1, 2, 3) for ds in itertools.product(range(1, 5), repeat=h)]
_CERTIFIED = [ds for ds in _SHORT if not any(_escape_slots(f) for f in families(ds))]
_OPEN = [  # only entries 1 and 2 admit the escape pattern
    ds
    for h in (2, 3, 4, 5)
    for ds in itertools.product((1, 2), repeat=h)
    if any(_escape_slots(f) for f in families(ds))
]


@seed(20030)
@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 200), interval=st.none() | small_intervals)
@example(q=199, interval=None)  # odd Q: the window from 1/1 has gaps (1, 2)
@example(q=200, interval=None)
@example(q=101, interval=UnitInterval(Fraction(1, 3), 1))  # odd lo, hi = 1
@example(q=150, interval=UnitInterval(0, Fraction(2, 5)))  # [0, x]
@example(q=97, interval=UnitInterval(Fraction(1, 5), Fraction(1, 5)))  # [a, a] at an odd element
@example(q=96, interval=UnitInterval(Fraction(1, 2), Fraction(1, 2)))  # [a, a] at an even one
@example(q=4, interval=UnitInterval(Fraction(1, 3), Fraction(2, 3)))  # fewer odd elements than h
@example(q=301, interval=UnitInterval(Fraction(4, 5), 1))  # above the hypothesis range
def test_counted_windows_match_the_pass(q, interval):
    """Every tuple in {1..4}^h, h <= 3, and every open tuple with h <= 5 has
    as many windows as the streaming pass finds, and the window totals are
    the pass's."""
    assert (len(_SHORT), len(_CERTIFIED), len(_OPEN)) == (84, 81, 10)
    streams = _stream_histograms(q, 5, interval)
    for h in (1, 2, 3, 4, 5):
        assert window_count(q, h, interval) == streams[h - 1][1], (q, h, interval)
    for ds in _SHORT + [ds for ds in _OPEN if len(ds) > 3]:
        expected = streams[len(ds) - 1][0][ds]
        assert count_delta_tuples(q, ds, interval) == expected, (q, ds, interval)


@seed(20031)
@settings(max_examples=50, deadline=None)
@given(q=st.integers(1, 150), interval=st.none() | small_intervals)
@example(q=1, interval=None)
@example(q=2, interval=None)
@example(q=3, interval=None)
@example(q=4, interval=None)
@example(q=3, interval=UnitInterval(Fraction(1, 3), 1))  # odd lo, hi = 1, at the smallest order
@example(q=149, interval=UnitInterval(Fraction(1, 3), 1))  # odd lo, hi = 1
@example(q=150, interval=UnitInterval(Fraction(3, 7), Fraction(3, 7)))  # [a, a] at an odd element
@example(q=4, interval=UnitInterval(Fraction(1, 3), Fraction(1, 3)))
@example(q=120, interval=UnitInterval(0, Fraction(5, 8)))  # [0, x]
@example(q=2, interval=UnitInterval(0, Fraction(1, 2)))
def test_every_single_gap_is_counted(q, interval):
    """Every single gap d in 1..2Q + 2 has as many windows as the pass finds
    (none past 2Q), and the gaps' counts add up to ``window_count`` and to the
    pass's window total."""
    hist, windows = _stream_histograms(q, 1, interval)[-1]
    labels = range(1, 2 * q + 3)
    counts = [count_delta_tuples(q, (d,), interval) for d in labels]
    assert counts == [hist[(d,)] for d in labels], (q, interval)
    assert counts[2 * q :] == [0, 0]
    assert sum(counts) == window_count(q, 1, interval) == windows, (q, interval)


def test_counted_tuples_take_no_pass(monkeypatch):
    """Every tuple is counted over its region list, without a pass or the
    row blocks: (1,), whose region list holds all of T, and the open (1, 1)
    and (2, 1, 1, 2) too.  A tuple longer than the longest window has no
    walk families, and the counts refuse it."""
    import oddfarey.farey as farey
    import oddfarey.lattice as lattice

    calls = []

    def recording(name, fn):
        def recorded(*args):
            calls.append(name)
            return fn(*args)

        return recorded

    for mod in (farey, lattice):
        for name in ("_gap_pass", "_block_keys"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, recording(name, getattr(mod, name)))
    half = UnitInterval(Fraction(1, 3), Fraction(4, 5))
    for interval in (None, half):
        for ds in [(1,), (2,), (5,), (1, 1), (1, 2), (2, 3), (3, 1, 2), (2, 1, 1, 2)]:
            count_delta_tuples(60, ds, interval)
            window_count(60, len(ds), interval)
            empirical_rho(60, ds, interval)
            assert calls == [], (ds, interval)
        too_long = (1,) * (MAX_WINDOW + 1)
        for count in (count_delta_tuples, empirical_rho):
            with pytest.raises(ValueError, match=f"windows longer than {MAX_WINDOW}"):
                count(60, too_long, interval)


def test_label_ranges_reach_the_escape_bound():
    """The cut is 4r + 1 for every family with a free slot, as density's
    escape lemma rules out only labels >= 4r + 2 at a point, and density's
    walk at that cut yields exactly the label tuples, each free label of its
    parity, whose cylinders have positive area.  (No count would notice a
    lower cut: the free labels of these families' points stay below 4r - 3.)"""
    for ds in _CERTIFIED:
        for fam in families(ds):
            if fam.free_slots:
                assert _escape_bound(fam.arity) == 4 * fam.arity + 1
            ranges = [
                [v for v in range(1, 4 * fam.arity + 2) if lab.admits(v)] if lab.is_free else [lab.value]
                for lab in fam.path.labels[: fam.arity]
            ]
            brute = {ks for ks in itertools.product(*ranges) if cylinder(ks).area() > 0}
            walked = [ks for ks, _ in _cylinder_labels(fam, _escape_bound(fam.arity))]
            assert len(walked) == len(brute) and set(walked) == brute, (ds, fam)


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
    """The odd-x primitive points of Q*T number 4 * area * Q^2 / pi^2 (area
    1/2) up to 2 Q log Q."""
    for q in (100, 300, 500):
        n = count_lattice(T, q, PairParity("odd", "any")).count
        assert abs(n - 4 * T.area() * q * q / pi**2) <= 2 * q * log(q)


def test_asymptotic_report_cell_two():
    """The (odd, even) primitive points of Q * cylinder((2,)) (area 1/6) number
    2 * area * Q^2 / pi^2 up to 2 Q log Q."""
    cell = cylinder((2,))
    for q in (100, 250, 400):
        n = count_lattice(cell, q, PairParity("odd", "even")).count
        assert abs(n - 2 * cell.area() * q * q / pi**2) <= 2 * q * log(q)


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
                        if not _matches(parity, a, b):
                            continue
                        if primitive and gcd(a, b) != 1:
                            continue
                        if region.contains(Fr(a, q), Fr(b, q)):
                            expected += 1
                got = count_lattice(region, q, parity, primitive).count
                assert got == expected, (region.constraints, q, parity, primitive)



def _parity_class(n: int) -> str:
    return "odd" if n % 2 else "even"


@settings(max_examples=30, deadline=None)
@given(
    ks=st.lists(st.integers(1, 8), max_size=2),
    q=st.integers(1, 60),
    interval=small_intervals,
)
@example(ks=[], q=1, interval=UnitInterval(0, 0))  # the wall a*(1 - 0) = a is no inverse
def test_column_sweep_matches_double_loop(ks, q, interval):
    """Every sweep counter agrees with a membership test of every grid point."""
    _assert_sweeps_match_the_grid(cylinder(tuple(ks)), q, [interval])


def _assert_sweeps_match_the_grid(region, q, intervals):
    """count_lattice (primitive or not, every parity, and in each of
    ``intervals``) and parity_profile of a region in (0, 1]^2 against a
    membership test of every grid point of [1, q]^2; the scan reads only the
    constraints, never the vertices that bound the sweeps' columns."""
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
        pts = [p for p in inside if _matches(parity, *p)]
        prim = [p for p in primitive if _matches(parity, *p)]
        assert count_lattice(region, q, parity, primitive=False).count == len(pts)
        rep = count_lattice(region, q, parity)
        assert (rep.count, rep.interval, rep.boundary_hits) == (len(prim), None, 0)
        firsts = [first_fraction(a, b) for a, b in prim]
        for interval in intervals:
            rep = count_lattice(region, q, parity, interval=interval)
            assert rep.count == sum(interval.lo < f <= interval.hi for f in firsts)
            assert rep.boundary_hits == sum(f in (interval.lo, interval.hi) for f in firsts)
    expected = Counter((_parity_class(a), _parity_class(b)) for a, b in primitive)
    profile = parity_profile(region, q)
    assert sum(profile.values()) == len(primitive)
    assert all(profile[key] == expected[key] for key in profile)


def _restated(hp, sense):
    """A closed constraint f >= 0 of ``halfplanes_from_polygon`` stated in
    ``sense`` on the same wall (strict for < and >): the form is negated for
    <= and <, and its constant moves into the bound over gcd(cx, cy), so
    that the bound can be a proper fraction."""
    f, sign = hp.form, 1 if sense in (">=", ">") else -1
    g = gcd(f.cx, f.cy)
    return HalfPlane(LinearForm(sign * f.cx // g, sign * f.cy // g), sense, Fraction(-sign * f.c0, g))


_SENSES = (">=", ">", "<=", "<")
F = Fraction
_POLYGONS = [  # walls through lattice points of Q*R when Q is a multiple of 12
    [(F(1, 2), F(1)), (F(1), F(1, 2)), (F(1), F(1))],  # restated, x + y >= 3/2 has bound 3/2
    [(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)), (F(1), F(1))],
    [(F(1, 3), F(1)), (F(2, 3), F(1, 2)), (F(1), F(3, 4)), (F(5, 6), F(1))],
]


@pytest.mark.parametrize("corners", _POLYGONS)
def test_sweeps_honor_all_four_senses(corners):
    """The sweeps read every constraint sense, not only the <= and > that
    cylinders, cells and their images use: each hand-built region is stated
    closed as halfplanes_from_polygon gives it, in each one sense throughout,
    and with the four senses mixed; a stabilized quadrangle is closed too."""
    hull = convex_hull(corners)
    closed = halfplanes_from_polygon(hull)
    assert all(hp.sense == ">=" for hp in closed)
    statements = [[sense] * len(closed) for sense in _SENSES]
    statements += [[_SENSES[(i + shift) % 4] for i in range(len(closed))] for shift in range(4)]
    intervals = [UnitInterval(0, F(1, 2)), UnitInterval(F(1, 3), F(3, 4))]
    for senses in statements:
        region = ConvexRegion(tuple(map(_restated, closed, senses)), hull)
        for q in (12, 24, 13):
            _assert_sweeps_match_the_grid(region, q, intervals)


@pytest.mark.parametrize("m, i, r", [(6, 1, 1), (8, 1, 1), (10, 2, 2)])
def test_sweeps_of_stabilized_quadrangles(m, i, r):
    """At Q the lcm of its vertices' denominators, every vertex of a
    stabilized quadrangle is a lattice point of Q*R, on two walls."""
    region = stabilized_quadrangle(m, i, r)
    q = lcm(*(c.denominator for v in region.vertices for c in v))
    intervals = [UnitInterval(0, F(1, 2)), UnitInterval(F(1, 3), F(3, 4))]
    _assert_sweeps_match_the_grid(region, q, intervals)
