"""Acceptance battery: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heaviest criteria
stream the order-5000 sequence; the whole battery takes on the order of a
minute.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import log, pi

from conftest import F8, F8_ODD, cached_gap_histogram
from oddfarey.density import gap_density, rho_odd
from oddfarey.farey import (
    UnitInterval,
    _stream_histograms,
    farey_fractions,
    gap_histogram,
    odd_farey_count,
    odd_farey_fractions,
)
from oddfarey.geometry import cylinder, cylinder_area, stabilized_quadrangle
from oddfarey.lattice import (
    boundary_window_histogram,
    decode_histogram,
    empirical_rho,
    verify_parity_swap,
)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def _hist(q_max: int, h: int):
    return cached_gap_histogram(q_max, h)


def test_criterion_01_reference_listings():
    ok = list(farey_fractions(8)) == F8 and list(odd_farey_fractions(8)) == F8_ODD
    _report(1, ok, "order-8 sequence and odd subsequence match the reference listings")


def test_criterion_02_area_oracle():
    ok = cylinder_area((1,)) == Fraction(1, 6)
    for k in range(2, 201):
        ok = ok and cylinder_area((k,)) == Fraction(4, k * (k + 1) * (k + 2))
    _report(2, ok, "cell areas equal 4/(k(k+1)(k+2)) exactly for k <= 200, cell 1 = 1/6")


def test_criterion_03_single_gap_frequencies():
    q = 5000
    hist, windows = _hist(q, 1)
    tol = 10 * log(q) ** 2 / q
    worst = 0.0
    ok = True
    for k in range(1, 11):
        dev = abs(hist[(k,)] / windows - float(gap_density(k)))
        worst = max(worst, dev)
        ok = ok and dev <= tol
    _report(3, ok, f"single-gap ratios at Q={q} within {tol:.3f} (worst {worst:.5f})")


def test_criterion_04_window_identity():
    ok = True
    for q in (8, 50, 100, 200):
        for h in (1, 2, 3):
            stream, _ = _stream_histograms(q, h)[-1]  # the pass, not the lattice count
            dec: Counter = Counter()
            for (gaps, _sig), c in decode_histogram(q, h).items():
                dec[gaps] += c
            bnd: Counter = Counter()
            for (gaps, _sig), c in boundary_window_histogram(q, h).items():
                bnd[gaps] += c
            for deltas in itertools.product(range(1, 5), repeat=h):
                ok = ok and stream[deltas] == dec[deltas] - bnd[deltas]
    _report(4, ok, "streaming window counts equal lattice family sums exactly "
                   "(Q in {8,50,100,200}, h <= 3, entries <= 4)")


def test_criterion_05_parity_swap():
    domains = [None, cylinder((1,)), cylinder((2,)), cylinder((3,))]
    ok = True
    for q in (30, 60, 120):
        for k in range(1, 8):
            for dom in domains:
                ok = ok and verify_parity_swap(q, k, dom).ok
    _report(5, ok, "parity-class counts swap exactly under the cell map "
                   "(k <= 7, Q in {30,60,120}, four domains)")


def test_criterion_06_stabilized_backward_images():
    ok = True
    for r in (1, 2, 3):
        c_r = 4 * r + 2
        for i in range(1, r + 1):
            for m in (c_r, c_r + 1, c_r + 5):
                quad = stabilized_quadrangle(m, i, r)
                clipped = cylinder((2,) * (i - 1) + (1, m))
                ok = ok and quad.same_polygon(clipped)
    for m in range(6, 81):
        ok = ok and cylinder((m, 1)).same_polygon(cylinder((m,)))
    _report(6, ok, "explicit backward-image quadrangles equal clipped cylinders; "
                   "C(m,1) = C(m) as polygons for m >= 6")


def test_criterion_07_pair_densities():
    q = 5000
    hist, windows = _hist(q, 2)
    tol = 10 * log(q) ** 2 / q
    width_cap = Fraction(1, 10**6)
    ok = True
    detail = []
    for deltas in itertools.product((1, 2, 3), repeat=2):
        enc = rho_odd(deltas, tol=width_cap)
        ok = ok and enc.converged and enc.width <= width_cap and enc.cutoff <= 2000
        if min(deltas) >= 2:
            ok = ok and enc.exact and enc.lo == enc.hi
        emp = Fraction(hist[deltas], windows)
        dev = max(enc.lo - emp, emp - enc.hi, Fraction(0))
        detail.append(float(dev))
        ok = ok and float(dev) <= tol
    _report(7, ok, f"pair enclosures (width <= 1e-6) contain the Q={q} ratios "
                   f"within {tol:.3f} (worst dev {max(detail):.5f}); "
                   "min >= 2 cases exact")


def test_criterion_08_odd_element_count():
    ok = True
    detail = []
    for q in (100, 1000, 10000):
        n = odd_farey_count(q)
        normalized = abs(n - 2 * q * q / pi**2) / (q * log(q))
        detail.append(round(normalized, 4))
        ok = ok and normalized <= 2
    _report(8, ok, f"odd-element counts match 2Q^2/pi^2 within 2*Q*log Q {detail}")


def test_criterion_09_short_intervals():
    intervals = (UnitInterval(0, Fraction(1, 2)), UnitInterval(Fraction(1, 4), Fraction(3, 4)))
    ok = True
    for interval in intervals:
        for q in (8, 25, 50, 75, 100):
            for h in (1, 2):
                stream, _ = gap_histogram(q, h, interval=interval, with_steps=True)
                dec = decode_histogram(q, h, interval)
                bnd = boundary_window_histogram(q, h, interval)
                for key in set(stream) | set(dec) | set(bnd):
                    ok = ok and stream[key] == dec[key] - bnd[key]
    q = 2000
    tol = 5 * log(q) / q**0.5
    for interval in intervals:
        for deltas in ((1,), (2,), (1, 1)):
            enc = rho_odd(deltas, tol=Fraction(1, 10**6))
            emp = empirical_rho(q, deltas, interval)
            dev = float(max(enc.lo - emp, emp - enc.hi, Fraction(0)))
            ok = ok and dev <= tol and enc.cutoff <= 2000
    _report(9, ok, "interval-restricted identities exact for Q <= 100; "
                   f"Q={q} interval ratios within {tol:.3f} of the limits")


def test_criterion_10_probability_completeness():
    ok = True
    total = Fraction(0)
    for k in range(1, 201):
        enc = rho_odd((k,))
        ok = ok and enc.exact
        total += enc.lo
        ok = ok and total == 1 - Fraction(2, (k + 1) * (k + 2))
    _report(10, ok, "single-gap densities telescope to 1 - 2/((K+1)(K+2)) for K <= 200")
