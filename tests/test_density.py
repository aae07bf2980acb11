import itertools
from collections import Counter
from fractions import Fraction
from math import log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cached_gap_histogram, instantiate

from oddfarey.density import (
    Enclosure,
    family_sum_upto,
    gap_density,
    parity_tail_after,
    rho_odd,
    rho_table,
    tail_after,
)
from oddfarey.density import _cylinder_labels, _decomposition, _escape_slots, _tuple_regions
from oddfarey.geometry import _escape_bound, cylinder_area
from oddfarey.paths import MAX_WINDOW, arrow_text, families

SMALL_TUPLES = [
    ds for h in (1, 2, 3) for ds in itertools.product((1, 2, 3), repeat=h)
]
OPEN_TUPLES = [
    ds
    for h in (1, 2, 3, 4)
    for ds in itertools.product((1, 2, 3, 4), repeat=h)
    if any(_escape_slots(f) for f in families(ds))
]
OPEN_FAMILIES = [f for ds in OPEN_TUPLES for f in families(ds) if _escape_slots(f)]


def _brute_family_sum(family, k_cut):
    """The direct sum: one clipped cylinder per label tuple."""
    labels = family.path.labels
    ranges = [
        [v for v in range(1, k_cut + 1) if labels[s].admits(v)] for s in family.free_slots
    ]
    return sum(
        (cylinder_area(instantiate(family, combo)) for combo in itertools.product(*ranges)),
        Fraction(0),
    )


def test_gap_density_values():
    assert gap_density(1) == Fraction(2, 3)
    assert gap_density(2) == Fraction(1, 6)
    with pytest.raises(ValueError):
        gap_density(0)


@pytest.mark.parametrize("K", [1, 2, 10, 57, 200])
def test_tail_is_telescoping(K):
    assert sum(gap_density(k) for k in range(1, K + 1)) == 1 - tail_after(K)
    # parity tails are valid and below the full tail
    assert parity_tail_after(K) < tail_after(K)
    # crude check of the bound against a long truncation, per parity
    for parity in (0, 1):
        partial = sum(
            gap_density(m) for m in range(K + 1, K + 4001) if m % 2 == parity
        )
        assert partial <= parity_tail_after(K)


def test_single_gap_exact():
    for k in range(1, 51):
        enc = rho_odd((k,))
        assert enc.exact and enc.lo == enc.hi == gap_density(k)


def test_pair_exactness_flags():
    # with both entries >= 2 every family sum terminates
    for deltas in [(2, 2), (2, 3), (3, 2), (3, 3), (1, 2), (2, 1), (1, 3), (3, 1)]:
        enc = rho_odd(deltas)
        assert enc.exact and enc.lo == enc.hi
    enc = rho_odd((1, 1), tol=Fraction(1, 1000))
    assert not enc.exact and enc.lo < enc.hi


def test_certified_finiteness_analysis():
    fams = {f.path.step_types(): f for f in families((1, 1))}
    assert _escape_slots(fams[("OO", "OO")])  # sum over even k
    assert _escape_slots(fams[("OO", "OEO")])  # C(k odd, 1)
    assert _escape_slots(fams[("OEO", "OEO")])  # C(1, k even, 1)
    fams22 = families((2, 2))
    assert len(fams22) == 1 and not _escape_slots(fams22[0])


def test_pair_two_two_value():
    """The finite sum for (2,2) is the even-label series over C(2, k, 2)."""
    expected = sum(cylinder_area((2, k, 2)) for k in range(2, 14, 2))
    enc = rho_odd((2, 2))
    assert enc.lo == expected == Fraction(1, 14)
    # terms beyond the certified cutoff all vanish
    assert all(cylinder_area((2, k, 2)) == 0 for k in range(14, 60, 2))


def test_family_sum_upto_matches_direct_areas():
    fam = next(
        f for f in families((1, 2)) if f.path.step_types() == ("OO", "OEO")
    )
    direct = sum(cylinder_area((k, 2)) for k in range(1, 20, 2))
    assert family_sum_upto(fam, 19) == direct


def test_one_one_enclosure_tightens_monotonically():
    """Tighter tolerances tighten (1, 1)'s enclosure; and for each open tuple
    of {1..4}^h, h <= 4, hi strictly falls and lo strictly rises along the
    cutoffs 125, 250, ..., 8000, so the last hi is the tightest.  Cutoff
    125 * 2**i is the first whose width n_slots * parity_tail_after(K) meets
    that width as the tolerance."""
    tols = [Fraction(1, 10**e) for e in (2, 3, 4, 5)]
    encs = [rho_odd((1, 1), tol=t) for t in tols]
    for a, b in zip(encs, encs[1:]):
        assert a.lo <= b.lo
        assert a.hi >= b.hi
        assert b.lo <= b.hi
    assert all(e.converged for e in encs)
    assert encs[-1].width <= Fraction(1, 10**5)
    for ds in OPEN_TUPLES:
        n_slots = _decomposition(ds)[2]
        cutoffs = [125 * 2**i for i in range(7)]
        encs = [rho_odd(ds, tol=n_slots * parity_tail_after(k)) for k in cutoffs]
        assert [e.cutoff for e in encs] == cutoffs, ds
        assert all(e.converged and not e.exact for e in encs), ds
        for a, b in zip(encs, encs[1:]):
            assert a.lo < b.lo and a.hi > b.hi, (ds, a, b)


def test_unconverged_is_flagged():
    """A tolerance that the last cutoff 8000 does not meet stops there."""
    enc = rho_odd((1, 1), tol=Fraction(1, 10**12))
    assert not enc.converged and not enc.exact
    assert enc.cutoff == 8000
    assert enc.lo < enc.hi and enc.width > Fraction(1, 10**12)


def test_rho_table_shape():
    """Rows are rho_odd's enclosures under the table's options, so rho_odd's
    defaults stand for the options not given; (1, 1) has an open family, so
    its row depends on them."""
    for options in ({"tol": Fraction(1, 1000)}, {}, {"tol": Fraction(1, 10**9)}):
        rows = rho_table(1, 6, **options)
        assert [r.deltas for r in rows] == [(k,) for k in range(1, 7)]
        for r in rows:
            assert r.enclosure.lo == gap_density(r.deltas[0])
        for r in rows + rho_table(2, 2, **options):
            assert r.enclosure == rho_odd(r.deltas, **options)
    with pytest.raises(ValueError):
        rho_table(5, 3)
    with pytest.raises(ValueError):
        rho_table(2, 21)


def test_table_mass_is_dominated_by_one():
    rows = rho_table(2, 3, tol=Fraction(1, 1000))
    total = sum(r.enclosure.hi for r in rows)
    assert total < 1


def test_triple_windows_certified_exact():
    """With three gaps the parity pinning contradicts every escape pattern,
    so even the all-ones tuple has a certified finite sum."""
    enc = rho_odd((1, 1, 1))
    assert enc.exact and enc.lo == Fraction(17, 70)
    assert rho_odd((1, 2, 1)).lo == Fraction(16, 315)
    # empirical cross-check at moderate order
    hist, windows = cached_gap_histogram(1500, 3)
    emp = Fraction(hist[(1, 1, 1)], windows)
    assert abs(emp - Fraction(17, 70)) <= Fraction(10 * 54, 1500)  # 10 log^2 Q / Q


def test_enclosure_soundness_against_large_order():
    """The order-5000 ratios land inside enclosure +- 10 log^2(Q)/Q for all
    windows of length <= 2 with entries <= 6."""
    q = 5000
    tol = 10 * log(q) ** 2 / q
    for h in (1, 2):
        hist, windows = cached_gap_histogram(q, h)
        for deltas in itertools.product(range(1, 7), repeat=h):
            enc = rho_odd(deltas, tol=Fraction(1, 10**6))
            assert enc.exact or enc.cutoff <= 2000, deltas
            emp = Fraction(hist[deltas], windows)
            dev = float(max(enc.lo - emp, emp - enc.hi, Fraction(0)))
            assert dev <= tol, (deltas, dev)


def test_enclosure_type():
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0), False, 0, False)
    e = Enclosure(Fraction(1, 3), Fraction(1, 2), False, 10, True)
    assert e.width == Fraction(1, 6)
    assert Fraction(2, 5) in e and Fraction(3, 5) not in e
    with pytest.raises(ValueError):
        rho_odd((2,), tol=Fraction(0))


@pytest.mark.parametrize("deltas", SMALL_TUPLES, ids=lambda ds: ",".join(map(str, ds)))
@settings(max_examples=2, deadline=None)
@given(k_cut=st.integers(1, 40))
def test_pruned_walk_matches_brute_sum(deltas, k_cut):
    for fam in families(deltas):
        assert family_sum_upto(fam, k_cut) == _brute_family_sum(fam, k_cut)


def test_benchmark_enclosures_are_pinned():
    """The enclosures the enclose workload computes, as the direct
    cylinder-by-cylinder sums gave them."""
    enc = rho_odd((1, 1), Fraction(1, 10**6))
    assert (enc.lo, enc.hi, enc.cutoff) == (
        Fraction(2893217, 6676670), Fraction(17385381053, 40120110030), 2000,
    )
    assert enc.converged and not enc.exact
    for deltas in [(1, 1, 2), (2, 1, 1)]:
        enc = rho_odd(deltas, Fraction(1, 100))
        assert (enc.lo, enc.hi, enc.cutoff) == (Fraction(271, 4572), Fraction(2551, 42672), 125)
        assert enc.converged and not enc.exact


def test_open_families_of_small_tuples():
    """The open families of {1..4}^h, h <= 4: 24 of them, in 6 tuples."""
    assert OPEN_TUPLES == [(1, 1), (1, 1, 2), (2, 1, 1), (1, 1, 2, 2), (2, 1, 1, 2), (2, 2, 1, 1)]
    assert len(OPEN_FAMILIES) == 24
    assert all(len(_escape_slots(f)) == 1 for f in OPEN_FAMILIES)


@pytest.mark.parametrize("fam", OPEN_FAMILIES, ids=arrow_text)
def test_stable_shells_are_gap_densities(fam):
    """Beyond 4r + 1 the clipped shell at m is gap_density(m) once per
    escape slot whose parity admits m."""
    escapes = [fam.path.labels[s].parity for s in _escape_slots(fam)]
    start = 4 * fam.arity + 2
    for m in range(start, start + 30):
        shell = family_sum_upto(fam, m) - family_sum_upto(fam, m - 1)
        assert shell == sum(1 for p in escapes if p == ("even", "odd")[m % 2]) * gap_density(m)


def test_open_slots_pair_up():
    """Every gap tuple up to the longest window has as many even as odd
    escape-consistent slots, so its stabilized shells telescope.  Only
    entries 1 and 2 admit the escape pattern, so {1, 2}^h covers the tuples
    with open families."""
    for h in range(1, MAX_WINDOW + 1):
        for ds in itertools.product((1, 2), repeat=h):
            escapes = [f.path.labels[s].parity for f in families(ds) for s in _escape_slots(f)]
            assert escapes.count("odd") == escapes.count("even"), ds


def test_region_lists_pair_their_shells_and_sum_to_rho():
    """The 28 open tuples up to the longest window, all in {1, 2}^h, meet
    one odd and one even escape slot at each (first vertex, step), so a
    region list holds its families' cylinders (at S, the largest cut of the
    open families, for an open family) and one shell per such pair.  Over
    {1..4}^h, h <= 3, the areas of a tuple's list sum to a value inside
    rho_odd's enclosure, and to its value when the enclosure is exact."""
    n_open = 0
    for h in range(1, MAX_WINDOW + 1):
        for ds in itertools.product((1, 2), repeat=h):
            fams = families(ds)
            meets = Counter(
                (f.first_vertex, s, f.path.labels[s].parity) for f in fams for s in _escape_slots(f)
            )
            if not meets:
                continue
            n_open += 1
            steps = {(v, s) for v, s, _ in meets}
            assert all(meets[v, s, "odd"] == meets[v, s, "even"] == 1 for v, s in steps), ds
            assert sum(meets.values()) == 2 * len(steps), ds
            stable = max(_escape_bound(f.arity) for f in fams if _escape_slots(f))
            cylinders = sum(
                len(list(_cylinder_labels(f, stable if _escape_slots(f) else _escape_bound(f.arity))))
                for f in fams
            )
            assert len(_tuple_regions(ds)) == cylinders + len(steps), ds
    assert n_open == 28
    for ds in itertools.chain.from_iterable(
        itertools.product(range(1, 5), repeat=h) for h in (1, 2, 3)
    ):
        enc = rho_odd(ds)
        area = sum((region.area() for region, _ in _tuple_regions(ds)), Fraction(0))
        cylinders, shells, _, stable = _decomposition(ds)
        shell_area = len(shells) * tail_after(stable) if shells else 0
        assert area == sum(area2 for _, area2, _ in cylinders) / 2 + shell_area, ds
        assert area in enc, ds
        assert not enc.exact or area == enc.lo, ds


def test_unpaired_escape_slots_are_refused(monkeypatch):
    """A split whose escape slot meets no partner of the other parity at its
    (first vertex, step), or meets two of one parity, has no shell that
    stands for it, so the decomposition refuses it."""
    import oddfarey.density as density

    fams = families((1, 1))
    open_fams = [f for f in fams if _escape_slots(f)]
    for split in ([f for f in fams if f != open_fams[0]], [*fams, open_fams[0]]):
        monkeypatch.setattr(density, "families", lambda deltas, split=split: split)
        with pytest.raises(ValueError, match="do not pair"):
            _decomposition((1, 1))


@settings(max_examples=60, deadline=None)
@given(
    deltas=st.one_of(
        st.sampled_from(OPEN_TUPLES),  # the open ones, often
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    ),
    k=st.integers(1, 300),
    tol=st.sampled_from([Fraction(1, 100), Fraction(1, 1000), Fraction(1, 5000)]),  # cutoffs 125 and 250
)
def test_lo_is_the_clipped_partial_sum(deltas, k, tol):
    """For a tuple in {1..4}^h, h <= 3, or an open tuple with h = 4, and
    every cutoff K in [S, 300], V - n_shells * tail_after(K) from
    ``_decomposition`` is the clipped sum of every family at K (a certified
    finite family at its cut 4 * arity + 1 when that is larger), and
    rho_odd's lo is that sum at its own cutoff.  The clipped sums at every K
    come from one walk to 300, by each cylinder's largest free label; the
    drawn K checks them against ``family_sum_upto``."""
    cylinders, shells, _, stable = _decomposition(deltas)
    value = sum(area2 for _, area2, _ in cylinders) / 2 + (len(shells) * tail_after(stable) if shells else 0)
    fams = families(deltas)
    area2_by_label = Counter()  # twice the area, by largest free label (0: kept at every K)
    for f in fams:
        cut = 0 if _escape_slots(f) else 4 * f.arity + 1
        for ks, area2 in _cylinder_labels(f, max(300, cut)):
            top = max((ks[s] for s in f.free_slots), default=0)
            area2_by_label[top if top > cut else 0] += area2
    clipped = [Fraction(c) / 2 for c in itertools.accumulate(area2_by_label[m] for m in range(301))]
    assert clipped[k] == sum(family_sum_upto(f, k if _escape_slots(f) else max(k, 4 * f.arity + 1)) for f in fams)
    for cut in range(max(stable, 1), 301):
        assert value - len(shells) * tail_after(cut) == clipped[cut], (deltas, cut)
    enc = rho_odd(deltas, tol)
    assert enc.exact or enc.cutoff in (125, 250), (deltas, enc.cutoff)
    assert enc.lo == (value if enc.exact else clipped[enc.cutoff])
