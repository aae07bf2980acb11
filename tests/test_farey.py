import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from conftest import (
    F8,
    F8_ODD,
    brute_boundary_windows,
    brute_farey,
    brute_gaps,
    brute_odd_farey,
    brute_window_counts,
    brute_windows,
    cached_gap_histogram,
    farey_index,
    point_starts,
    scan_pair_at,
    small_intervals,
    totients,
)
from oddfarey.farey import (
    DEFAULT_MAX_Q,
    UnitInterval,
    _block_keys,
    _fan_counts,
    _histogram,
    _index_runs,
    _pair_at,
    _smallest_prime_factors,
    _squarefree_divisors,
    _stream_histograms,
    _window_keys,
    delta,
    farey_fractions,
    gap_histogram,
    max_order,
    odd_farey_count,
    odd_farey_fractions,
)
from oddfarey.lattice import count_delta_tuples, empirical_rho, window_count


def test_order_8_reference_listings():
    assert list(farey_fractions(8)) == F8
    assert list(odd_farey_fractions(8)) == F8_ODD


@pytest.mark.parametrize("q_max", [1, 2, 3, 5, 8, 13, 29, 40])
def test_streaming_matches_brute_force(q_max):
    assert list(farey_fractions(q_max)) == brute_farey(q_max)
    assert list(odd_farey_fractions(q_max)) == brute_odd_farey(q_max)


def test_small_counts():
    assert len(list(farey_fractions(5))) == 10
    assert list(farey_fractions(1)) == [Fraction(1, 1)]
    assert list(odd_farey_fractions(1)) == [Fraction(1, 1)]
    assert odd_farey_count(8) == 13
    # the expected size is ~ 2 Q^2 / pi^2
    assert abs(odd_farey_count(8) - 2 * 64 / math.pi**2) < 1


def test_delta_examples():
    assert delta(Fraction(1, 3), Fraction(2, 5)) == 1
    assert delta(Fraction(3, 7), Fraction(4, 7)) == 7
    assert delta(Fraction(1, 7), Fraction(1, 5)) == 2
    with pytest.raises(ValueError):
        delta(Fraction(2, 5), Fraction(1, 3))


def test_farey_index_examples():
    assert farey_index(8, Fraction(1, 4), Fraction(2, 7)) == 1
    assert farey_index(8, Fraction(3, 7), Fraction(1, 2)) == 7
    assert farey_index(8, Fraction(1, 7), Fraction(1, 6)) == 2
    with pytest.raises(ValueError):
        farey_index(8, Fraction(1, 7), Fraction(1, 5))  # not consecutive in F(8)


@pytest.mark.parametrize("q_max", list(range(1, 61)) + [150, 300])
def test_neighbour_determinants_are_one(q_max):
    seq = list(farey_fractions(q_max))
    for g, g2 in zip(seq, seq[1:]):
        assert g2.numerator * g.denominator - g.numerator * g2.denominator == 1


@pytest.mark.parametrize("q_max", list(range(2, 151)) + [200, 300])
def test_no_two_consecutive_even_denominators(q_max):
    prev_even = False
    for f in farey_fractions(q_max):
        even = f.denominator % 2 == 0
        assert not (even and prev_even)
        prev_even = even


@pytest.mark.parametrize("q_max", list(range(2, 121)) + [160, 200])
def test_gap_above_one_skips_exactly_one_fraction(q_max):
    """Between odd-subsequence neighbours with gap > 1 sits exactly one
    F(Q) element, and the gap equals the first fraction's index."""
    seq = list(farey_fractions(q_max))
    odd_pos = [i for i, f in enumerate(seq) if f.denominator % 2 == 1]
    for i, j in zip(odd_pos, odd_pos[1:]):
        gap = delta(seq[i], seq[j])
        assert j - i in (1, 2)
        if gap > 1:
            assert j - i == 2
        if j - i == 2:
            assert gap == farey_index(q_max, seq[i], seq[i + 1])


def test_totient_sieve_against_direct_phi(rng):
    phi = totients(10_000)
    for _ in range(300):
        n = rng.randint(1, 10_000)
        direct = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
        assert phi[n] == direct


@pytest.mark.parametrize("q_max", list(range(1, 61)) + [120, 300, 3991, 4009])
def test_counts_match_totient_sums(q_max):
    """The odd-element count is the sum of the oracle's phi(q) over odd q,
    at the stream workload's orders 3991 and 4009 too, and (up to 300) the
    length of the streamed odd subsequence."""
    count = odd_farey_count(q_max)
    assert count == sum(totients(q_max)[1::2])
    if q_max <= 300:
        assert count == len(list(odd_farey_fractions(q_max)))


def test_gap_histogram_order_8():
    hist, windows = gap_histogram(8, 1)
    assert dict(hist) == {(1,): 7, (2,): 2, (3,): 2, (7,): 1}
    assert windows == 12


@pytest.mark.parametrize("q_max", [2, 3, 5, 8, 17, 30, 60])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_gap_histogram_matches_brute_force(q_max, h):
    hist, windows = gap_histogram(q_max, h)
    expected = brute_window_counts(q_max, h)
    assert dict(hist) == expected
    assert windows == sum(expected.values())
    # keyed by (gaps, steps), the same windows merge back to the gap keys
    hist_steps, windows_steps = gap_histogram(q_max, h, with_steps=True)
    merged = {}
    for (gaps, _steps), c in hist_steps.items():
        merged[gaps] = merged.get(gaps, 0) + c
    assert merged == expected
    assert windows_steps == windows


@pytest.mark.parametrize("q_max", list(range(2, 121)) + [333, 500])
def test_gap_counts_total_to_window_count(q_max):
    hist, windows = gap_histogram(q_max, 1)
    assert sum(hist.values()) == windows == odd_farey_count(q_max) - 1


def _assert_count_is_stream(q, h):
    stream, windows = _stream_histograms(q, h, with_steps=True)[-1]
    gaps_only = Counter()
    for (gaps, _steps), c in stream.items():
        gaps_only[gaps] += c
    assert gap_histogram(q, h, with_steps=True) == (stream, windows), (q, h)
    assert gap_histogram(q, h) == (gaps_only, windows), (q, h)


def test_counted_windows_match_stream():
    """Whole-sequence windows are counted from lattice row blocks, not streamed."""
    for q in range(1, 401):
        _assert_count_is_stream(q, 1)
    for h in (2, 3):
        for q in range(1, 301):
            _assert_count_is_stream(q, h)


@seed(20020)
@settings(max_examples=25, deadline=None)
@given(q=st.integers(301, 3000))
def test_counted_windows_match_stream_at_random_orders(q):
    for h in (1, 2, 3):
        _assert_count_is_stream(q, h)


@pytest.mark.parametrize("q", range(1, 7))
def test_counted_windows_at_the_smallest_orders(q):
    """Orders whose odd subsequence has at most h + 1 elements, down to none
    with a window: F(1) and F(2) have one odd element, F(3) and F(4) three."""
    for h in range(1, 5):
        hist, windows = gap_histogram(q, h, with_steps=True)
        expected = brute_windows(q, h, with_steps=True)
        assert dict(hist) == expected, (q, h)
        assert windows == sum(expected.values()) == max(odd_farey_count(q) - h, 0)
        assert gap_histogram(q, h)[1] == windows


def test_counted_windows_of_order_4():
    # the odd elements 1/3, 2/3, 1/1 of F(4): gaps 3 (over 1/2) and 1 (over 3/4)
    assert gap_histogram(4, 1, with_steps=True) == (
        Counter({((3,), ("OEO",)): 1, ((1,), ("OEO",)): 1}), 2)
    assert gap_histogram(4, 2, with_steps=True) == (
        Counter({((3, 1), ("OEO", "OEO")): 1}), 1)
    assert gap_histogram(4, 3) == gap_histogram(2, 1) == (Counter(), 0)


def test_tail_windows_are_the_boundary_windows():
    """The windows that the count takes away, found by walking back from
    the last pair, are the windows of the periodic odd subsequence that
    start in F(Q) and end past 1/1."""
    from oddfarey.lattice import boundary_window_histogram

    for h in (1, 2, 3, 4):
        for q in range(1, 61):
            assert boundary_window_histogram(q, h) == brute_boundary_windows(q, h), (q, h)


def _point_windows(q, h):
    """The windows of every primitive point (q, b) of Q*T with q odd, each
    coded on its own: the oracle of the row-block count."""
    return _histogram(_window_keys(q, h, point_starts(q)[0]), q, h, with_steps=True)[0]


def test_point_windows_are_symmetric_under_reversal():
    """x -> -x maps the periodic sequence onto itself, keeps each step's gap
    and type and reverses their order: the windows of one period, reversed,
    are the windows of one period."""
    for q in range(1, 201):
        for h in (1, 2, 3, 4):
            hist = _point_windows(q, h)
            flipped = Counter({(g[::-1], s[::-1]): c for (g, s), c in hist.items()})
            assert flipped == hist, (q, h)


def test_fan_counts_are_the_windows_through_a_small_odd_denominator():
    """A first 'OEO' step over an even b to an odd s <= Q/3 has gap 1, and the
    second step's key is (3, 2) or (3, 3) by the parity of (Q + b) // s."""
    for q in range(1, 121):
        m = 4 * q + 2
        fan = Counter()
        for a, b in point_starts(q)[0]:
            if b % 2 == 0 and 3 * ((q + a) // b * b - a) <= q:
                fan.update(_window_keys(q, 2, [(a, b)]))
        assert set(fan) <= {3 * m + 2, 3 * m + 3}, q
        assert _fan_counts(q, _smallest_prime_factors(q)) == (fan[3 * m + 2], fan[3 * m + 3]), q


@pytest.mark.parametrize("q", range(1, 13))
def test_gap_pairs_at_the_smallest_orders(q):
    """Orders around the first steps of Q // 3, the largest fan denominator:
    the even-row walk (cut at h = 2), the fan, the reversed first-gap rows
    and the odd rows read off them make up the points' windows at h = 1
    and 2, and the count is the brute-force one."""
    starts = point_starts(q)[0]
    for h in (1, 2):
        assert _block_keys(q, h) == _window_keys(q, h, starts), (q, h)
        hist = gap_histogram(q, h, with_steps=True)[0]
        assert dict(hist) == brute_windows(q, h, with_steps=True), (q, h)


@seed(20031)
@settings(max_examples=30, deadline=None)
@given(q=st.integers(1, 400))
def test_gap_pair_keys_are_the_point_windows(q):
    starts = point_starts(q)[0]
    for h in (1, 2):
        assert _block_keys(q, h) == _window_keys(q, h, starts), (q, h)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 7, 12, 101, 3000])
def test_whole_sequence_walk_skips_the_odd_rows(monkeypatch, q):
    """At h <= 2 without rows no odd row is walked: the first steps of the
    walk, the calls of ``_index_runs`` with d1 = 0, are over the even rows
    b = d0 alone, and at h = 1 the walk lists the divisors of Q // 2 rows."""
    import oddfarey.farey as farey

    firsts, divisor_lists = [], [0]

    def recording(x, y, n0, n1, d0, d1, top=None):
        if d1 == 0:
            firsts.append(d0)
        return _index_runs(x, y, n0, n1, d0, d1, top)

    def counting(n, spf):
        divisor_lists[0] += 1
        return _squarefree_divisors(n, spf)

    monkeypatch.setattr(farey, "_index_runs", recording)
    monkeypatch.setattr(farey, "_squarefree_divisors", counting)
    _block_keys(q, 1)
    assert divisor_lists == [q // 2]
    for h in (1, 2):
        firsts.clear()
        _block_keys(q, h)
        assert set(firsts) == set(range(2, q + 1, 2)), (q, h)


def test_gap_pair_walk_makes_few_index_runs(monkeypatch):
    """With the two cuts every split of a row has O(1) runs, and only the
    even rows are walked: 5.0*Q runs at Q = 3000, where the cut walk over
    every row makes 7.2*Q and one walk with no cut 14.0*Q."""
    import oddfarey.farey as farey

    runs = []

    def counting(*args):
        out = _index_runs(*args)
        runs.append(len(out))
        return out

    monkeypatch.setattr(farey, "_index_runs", counting)
    q = 3000
    _block_keys(q, 2)
    assert sum(runs) <= 5.5 * q


def test_gap_pairs_at_order_20000():
    """The tail windows are not symmetric: (1, 2) and (2, 1) differ by one."""
    hist, windows = cached_gap_histogram(20000, 2)
    assert windows == 81058755
    pairs = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1)]
    assert [hist[p] for p in pairs] == [35125428, 6561920, 6561921, 643266, 643266]


def test_a_pass_that_would_start_past_its_stop_fails(monkeypatch):
    """With the endpoints' strict and non-strict cases swapped, the pass over
    [1/3, 1/3] would start after 1/3 and stop at it, and so walk a whole
    period; it fails at once instead."""
    import oddfarey.farey as farey

    monkeypatch.setattr(farey, "_pair_at", lambda q, x, strict: _pair_at(q, x, not strict))
    with pytest.raises(RuntimeError, match="past its stop"):
        gap_histogram(30, 1, UnitInterval(Fraction(1, 3), Fraction(1, 3)))


def test_single_gap_boundary_window_closed_form():
    """The count subtracts one window at 1/1: gap 1, 'OO' iff Q is odd."""
    from oddfarey.lattice import boundary_window_histogram

    for q in range(1, 601):
        step = "OO" if q % 2 else "OEO"
        assert boundary_window_histogram(q, 1) == {((1,), (step,)): 1}, q


def test_single_gaps_at_order_20000():
    """The row-block count against the region list's, one gap at a time."""
    hist, windows = cached_gap_histogram(20000, 1)
    assert windows == 81058756
    counts = [hist[(d,)] for d in (1, 2, 3)]
    assert counts == [count_delta_tuples(20000, (d,)) for d in (1, 2, 3)]
    assert counts == [54039163, 13509824, 5403866]


def test_single_gap_count_at_the_default_cap():
    """Far beyond a streaming pass in a test.  The total holds by
    construction (the odd rows' windows are what the even rows leave of
    it), so the counts are pinned, as the walk over every row gave them."""
    q = 10**5
    hist, windows = gap_histogram(q, 1)
    assert sum(hist.values()) == windows == odd_farey_count(q) - 1 == 2026413874
    assert [hist[(d,)] for d in (1, 2, 3)] == [1350942575, 337735624, 135094288]
    assert min(hist.values()) > 0


def test_gap_pair_count_at_the_default_cap():
    """A few seconds counted; a pass would take about 20 minutes.  The
    total holds by construction, so the counts are pinned, as the walk
    over every row gave them."""
    q = 10**5
    hist, windows = gap_histogram(q, 2)
    assert sum(hist.values()) == windows == odd_farey_count(q) - 2 == 2026413873
    pairs = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1)]
    assert [hist[p] for p in pairs] == [878112684, 164043001, 164043002, 16082782, 16082782]
    assert min(hist.values()) > 0


def test_count_delta_tuples_and_empirical_rho():
    assert count_delta_tuples(8, (7,)) == 1
    assert count_delta_tuples(8, (1,)) == 7
    assert count_delta_tuples(8, (1,), UnitInterval(0, 1)) == 7
    assert empirical_rho(8, (1,)) == Fraction(7, 12)
    assert empirical_rho(8, (7,)) == Fraction(1, 12)
    assert empirical_rho(8, (7,), UnitInterval(0, 1)) == Fraction(1, 12)
    with pytest.raises(ValueError):
        empirical_rho(1, (1,))
    with pytest.raises(ValueError):
        count_delta_tuples(8, ())
    with pytest.raises(ValueError):
        count_delta_tuples(8, (0,))


def test_interval_restriction_against_brute_force():
    interval = UnitInterval(Fraction(1, 4), Fraction(3, 4))
    odd = brute_odd_farey(30)
    gaps = brute_gaps(odd)
    for deltas in [(1,), (2,), (1, 1), (2, 3)]:
        h = len(deltas)
        expected = sum(
            1
            for i in range(len(gaps) - h + 1)
            if tuple(gaps[i : i + h]) == deltas
            and interval.lo <= odd[i] <= interval.hi
        )
        assert count_delta_tuples(30, deltas, interval) == expected
    expected_windows = sum(
        1
        for i in range(len(odd) - 2)
        if interval.lo <= odd[i] <= interval.hi
    )
    assert window_count(30, 2, interval) == expected_windows


def test_unit_interval_validation():
    with pytest.raises(ValueError):
        UnitInterval(Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        UnitInterval(Fraction(-1, 2), Fraction(1, 4))
    i = UnitInterval.parse("1/4, 3/4")
    assert (i.lo, i.hi) == (Fraction(1, 4), Fraction(3, 4))


def test_order_cap_enforced(monkeypatch):
    monkeypatch.setenv("FAREY_MAX_Q", "100")
    with pytest.raises(ValueError):
        list(farey_fractions(101))
    monkeypatch.setenv("FAREY_MAX_Q", "not-a-number")
    with pytest.raises(ValueError):
        list(farey_fractions(10**9))
    with pytest.raises(ValueError):
        list(farey_fractions(0))
    for raw in ("0", "-5"):  # a cap below 1 is an error, not the default
        monkeypatch.setenv("FAREY_MAX_Q", raw)
        with pytest.raises(ValueError, match="positive"):
            max_order()
        with pytest.raises(ValueError):
            list(farey_fractions(3))
    monkeypatch.setenv("FAREY_MAX_Q", "")
    assert max_order() == DEFAULT_MAX_Q


_intervals = st.none() | small_intervals


def _ends(interval):
    return None if interval is None else (interval.lo, interval.hi)


@settings(max_examples=60, deadline=None)
@given(
    q=st.integers(1, 200),
    h=st.integers(1, 3),
    interval=_intervals,
    with_steps=st.booleans(),
)
def test_gap_histogram_matches_oracle(q, h, interval, with_steps):
    hist, windows = gap_histogram(q, h, interval, with_steps)
    expected = brute_windows(q, h, _ends(interval), with_steps)
    assert dict(hist) == expected
    assert windows == sum(expected.values())


@settings(max_examples=40, deadline=None)
@given(
    q=st.integers(1, 120),
    deltas=st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
    interval=_intervals,
)
def test_window_counters_agree_with_histogram(q, deltas, interval):
    h = len(deltas)
    hist, windows = gap_histogram(q, h, interval)
    assert window_count(q, h, interval) == windows
    targets = [deltas] + [key for key, _ in hist.most_common(1)]
    for target in targets:
        assert count_delta_tuples(q, target, interval) == hist[target]
        if windows:
            assert empirical_rho(q, target, interval) == Fraction(hist[target], windows)
        else:
            with pytest.raises(ValueError, match="no length"):
                empirical_rho(q, target, interval)


# Interval passes walk only their stretch of F(Q): they start at the first
# element >= lo (stepping past it when its denominator is even) and stop
# where the window of the last odd element <= hi closes.  The cases below
# put the endpoints on odd elements, on even ones, and between elements.


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_interval_passes_at_the_smallest_orders(q):
    ends = sorted({Fraction(n, d) for d in range(1, 5) for n in range(d + 1)})
    for h in (1, 2, 3):
        for lo in ends:
            for hi in (f for f in ends if f >= lo):
                hist, windows = gap_histogram(q, h, UnitInterval(lo, hi), with_steps=True)
                expected = brute_windows(q, h, (lo, hi), with_steps=True)
                assert dict(hist) == expected, (q, h, lo, hi)
                assert windows == sum(expected.values())


@pytest.mark.parametrize("q", [29, 30])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize(
    "ends",
    [
        (Fraction(1, 3), Fraction(1, 3)),  # an odd element
        (Fraction(3, 8), Fraction(3, 8)),  # an even element
        (Fraction(1, 2), Fraction(1, 2)),  # an even element between two odd ones
        (Fraction(17, 40), Fraction(17, 40)),  # not in F(Q)
        (Fraction(0), Fraction(2, 7)),
        (Fraction(0), Fraction(3, 8)),
        (Fraction(5, 8), Fraction(1)),
        (Fraction(4, 7), Fraction(1)),
        (Fraction(27, 28), Fraction(1)),  # its odd elements are 28/29 and 1/1
        (Fraction(1), Fraction(1)),
    ],
)
def test_interval_pass_endpoints(q, h, ends):
    hist, windows = gap_histogram(q, h, UnitInterval(*ends), with_steps=True)
    expected = brute_windows(q, h, ends, with_steps=True)
    assert dict(hist) == expected
    assert windows == sum(expected.values())


@seed(20029)
@settings(max_examples=300, deadline=None)
@given(
    q=st.integers(1, 2000),
    den=st.integers(1, 10**6),
    num=st.integers(0, 10**6),
    strict=st.booleans(),
)
def test_pair_at_is_the_scan(q, den, num, strict):
    """An endpoint's start or stop pair, read off its continued fraction, is
    the one the scan over every b <= Q finds."""
    x = Fraction(num % (den + 1), den)
    assert _pair_at(q, x, strict) == scan_pair_at(q, x, strict), (q, x, strict)


@pytest.mark.parametrize("q", [1, 2, 3, 8, 29, 30, 2000])
def test_pair_at_endpoints(q):
    """0, 1, elements of F(Q) of both parities and fractions of denominator
    Q + 1, non-strict and strict."""
    xs = [
        Fraction(0),
        Fraction(1),
        Fraction(1, min(q, 3)),  # in F(Q), odd denominator
        Fraction(1, min(q, 2)),  # in F(Q), even denominator when Q >= 2
        Fraction(1, q + 1),  # denominator Q + 1, below the first element
        Fraction(q, q + 1),  # denominator Q + 1, between (Q - 1)/Q and 1/1
        Fraction(q // 2 + 1, q + 1),
    ]
    for x in xs:
        for strict in (False, True):
            assert _pair_at(q, x, strict) == scan_pair_at(q, x, strict), (q, x, strict)


def test_pair_at_examples():
    """At Q = 8 (F8_ODD): 1/3 itself when non-strict, else 2/5 (after 3/8);
    1/2 is even, so 4/7 either way; 1/1 is the last pair, (1, 1, Q)."""
    assert _pair_at(8, Fraction(1, 3), False) == (1, 3, 8)
    assert _pair_at(8, Fraction(1, 3), True) == (2, 5, 7)
    assert _pair_at(8, Fraction(1, 2), False) == _pair_at(8, Fraction(1, 2), True) == (4, 7, 5)
    assert _pair_at(8, Fraction(0), False) == (1, 7, 6)  # 1/8 is even: 1/7, then 1/6
    assert _pair_at(8, Fraction(1), True) == _pair_at(8, Fraction(8, 9), False) == (1, 1, 8)


_twelfths = st.builds(
    lambda d, n: Fraction(min(n, d), d), st.integers(1, 12), st.integers(0, 12)
)


@seed(20021)
# no shrink phase: each example streams four passes at Q <= 3000, and
# shrinking a failure re-ran them for minutes
@settings(max_examples=25, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
@given(
    q=st.integers(201, 3000),
    h=st.integers(1, 3),
    cuts=st.lists(_twelfths, min_size=3, max_size=3).map(sorted),
)
def test_interval_passes_add_up_at_a_cut(q, h, cuts):
    """[lo, c] and [c, hi] count the windows of [lo, hi], those that start
    at c twice: closed membership on both halves."""
    lo, c, hi = cuts
    left, wl = gap_histogram(q, h, UnitInterval(lo, c), with_steps=True)
    right, wr = gap_histogram(q, h, UnitInterval(c, hi), with_steps=True)
    at_c, wc = gap_histogram(q, h, UnitInterval(c, c), with_steps=True)
    whole, ww = gap_histogram(q, h, UnitInterval(lo, hi), with_steps=True)
    for key in set(left) | set(right) | set(at_c) | set(whole):
        assert left[key] + right[key] - at_c[key] == whole[key], key
    assert wl + wr - wc == ww
    # one window starts at c exactly when c is an odd element of F(Q) below 1
    assert wc == (c.denominator % 2 == 1 and 0 < c < 1)
