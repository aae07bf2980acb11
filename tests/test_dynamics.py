from fractions import Fraction

import pytest

from conftest import brute_farey, farey_index
from oddfarey.dynamics import TrianglePoint, kappa, next_pair, orbit_kappas, prev_pair


def _random_triangle_point(rng, q=9973):
    while True:
        a, b = rng.randint(1, q), rng.randint(1, q)
        if a + b > q:
            return TrianglePoint(Fraction(a, q), Fraction(b, q))


def _point_in_cell(rng, m):
    """A rational point with index value m (rejection sampling in the cell)."""
    while True:
        x = Fraction(rng.randint(1, 2048), 2048)
        # y must satisfy m <= (1+x)/y < m+1, i.e. y in ((1+x)/(m+1), (1+x)/m]
        lo, hi = (1 + x) / (m + 1), (1 + x) / m
        y = (lo + hi) / 2 + (hi - lo) * Fraction(rng.randint(0, 255), 1024)
        if y <= 1 and x + y > 1:
            p = TrianglePoint(x, y)
            if kappa(p) == m:
                return p


def test_point_validation():
    with pytest.raises(ValueError):
        TrianglePoint(Fraction(1, 2), Fraction(1, 2))  # x + y = 1 excluded
    with pytest.raises(ValueError):
        TrianglePoint(Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        TrianglePoint(Fraction(0), Fraction(1))
    p = TrianglePoint(1, 1)  # ints coerce to Fractions
    assert p.x == p.y == Fraction(1)


def test_kappa_examples():
    assert kappa(TrianglePoint(1, 1)) == 2
    assert kappa(TrianglePoint(Fraction(4, 8), Fraction(7, 8))) == 1
    assert kappa(TrianglePoint(Fraction(7, 8), Fraction(2, 8))) == 7
    # agreement with the Farey index
    assert farey_index(8, Fraction(1, 4), Fraction(2, 7)) == 1
    assert farey_index(8, Fraction(3, 7), Fraction(1, 2)) == 7


def test_map_examples():
    assert next_pair(TrianglePoint(1, 1)) == TrianglePoint(1, 1)
    assert prev_pair(TrianglePoint(1, 1)) == TrianglePoint(1, 1)
    p = next_pair(TrianglePoint(Fraction(3, 4), Fraction(1, 2)))
    assert (p.x, p.y) == (Fraction(1, 2), Fraction(3, 4))
    # consecutive denominators 4, 7 of F(8) advance to (7, 3)
    p = next_pair(TrianglePoint(Fraction(4, 8), Fraction(7, 8)))
    assert (p.x, p.y) == (Fraction(7, 8), Fraction(3, 8))


def test_round_trip_on_random_points(rng):
    for _ in range(1000):
        p = _random_triangle_point(rng)
        assert prev_pair(next_pair(p)) == p
        assert next_pair(prev_pair(p)) == p


@pytest.mark.parametrize("q_max", list(range(2, 61)))
def test_denominator_shadowing_brute_force(q_max):
    seq = brute_farey(q_max)
    for i in range(len(seq) - 2):
        p = TrianglePoint(
            Fraction(seq[i].denominator, q_max),
            Fraction(seq[i + 1].denominator, q_max),
        )
        q = next_pair(p)
        assert q.x * q_max == seq[i + 1].denominator
        assert q.y * q_max == seq[i + 2].denominator


@pytest.mark.parametrize("q_max", [100, 150, 200])
def test_denominator_shadowing_streamed(q_max):
    from oddfarey.farey import farey_fractions

    seq = list(farey_fractions(q_max))
    for i in range(len(seq) - 2):
        p = next_pair(
            TrianglePoint(
                Fraction(seq[i].denominator, q_max),
                Fraction(seq[i + 1].denominator, q_max),
            )
        )
        assert p.y * q_max == seq[i + 2].denominator


def test_orbit_examples():
    assert orbit_kappas(TrianglePoint(1, 1), 3) == (2, 2, 2)
    # orbit along F(8) from the starting denominator pair (8, 7)
    from oddfarey.farey import farey_fractions

    seq = list(farey_fractions(8))
    p = TrianglePoint(Fraction(8, 8), Fraction(7, 8))
    expected = tuple(farey_index(8, seq[i], seq[i + 1]) for i in range(4))
    assert orbit_kappas(p, 4) == expected
    with pytest.raises(ValueError):
        orbit_kappas(p, 0)


def test_backward_stabilization(rng):
    """In the high-index regime the backward iterates act affinely."""
    for r in range(1, 6):
        for m in (4 * r + 2, 4 * r + 3, 4 * r + 7):
            for _ in range(10):
                p = _point_in_cell(rng, m)
                x, y = p.x, p.y
                cur = p
                for i in range(1, r + 1):
                    cur = prev_pair(cur)
                    assert (cur.x, cur.y) == (x - i * y, x - (i - 1) * y)
                    if i == 1:
                        assert kappa(cur) == 1
                    else:
                        assert kappa(cur) == 2


def test_forward_stabilization(rng):
    for r in range(2, 6):
        for m in (4 * r + 2, 4 * r + 5):
            for _ in range(10):
                p = _point_in_cell(rng, m)
                x, y = p.x, p.y
                cur = next_pair(p)
                assert kappa(cur) == 1
                for i in range(2, r + 1):
                    cur = next_pair(cur)
                    assert (cur.x, cur.y) == ((m + 2 - i) * y - x, (m + 1 - i) * y - x)
                assert all(
                    kappa(q) == 2
                    for q in _orbit_points(next_pair(p), r - 1)
                )


def _orbit_points(p, n):
    out = []
    for _ in range(n):
        p = next_pair(p)
        out.append(p)
    return out


def test_inverse_simplifies_high_in_the_cusp(rng):
    # for index >= 6 the preimage is the shear (x - y, x)
    for m in (6, 9, 15, 40):
        for _ in range(20):
            p = _point_in_cell(rng, m)
            q = prev_pair(p)
            assert (q.x, q.y) == (p.x - p.y, p.x)
            assert kappa(q) == 1


def test_forward_inclusions(rng):
    """Image cells of the low-index cells."""
    allowed = {2: {1, 2, 3}, 3: {1, 2, 3, 4}, 4: {1, 2}, 5: {1, 2}}
    for m, targets in allowed.items():
        for _ in range(50):
            p = _point_in_cell(rng, m)
            assert kappa(next_pair(p)) in targets
    for m in (6, 7, 11, 23):
        for _ in range(50):
            p = _point_in_cell(rng, m)
            assert kappa(next_pair(p)) == 1
