import itertools

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import instantiate
from oddfarey.paths import (
    _PARITIES,
    LabelSlot,
    PathFamily,
    _fits,
    _parity_range,
    arrow_text,
    families,
)


def _shape(family):
    """(cylinder label pattern, first vertex) with free slots as parity names."""
    pattern = tuple(
        slot.value if slot.value is not None else slot.parity
        for slot in family.labels[: family.arity]
    )
    return pattern, family.first_vertex


def test_single_gap_at_least_two():
    fams = families((3,))
    assert len(fams) == 1
    assert _shape(fams[0]) == ((3,), "E")
    assert fams[0].arity == 1
    assert fams[0].vertices == ("E", "O")


def test_single_gap_one():
    shapes = {_shape(f) for f in families((1,))}
    assert shapes == {((), "O"), ((1,), "E")}


def test_pair_one_one_matches_the_four_case_split():
    shapes = {_shape(f) for f in families((1, 1))}
    assert shapes == {
        (("even",), "O"),
        (("odd", 1), "O"),
        ((1, "odd"), "E"),
        ((1, "even", 1), "E"),
    }


def test_pair_mixed_cases():
    assert {_shape(f) for f in families((1, 4))} == {
        (("odd", 4), "O"),
        ((1, "even", 4), "E"),
    }
    assert {_shape(f) for f in families((4, 1))} == {
        ((4, "odd"), "E"),
        ((4, "even", 1), "E"),
    }
    assert {_shape(f) for f in families((4, 6))} == {((4, "even", 6), "E")}


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_family_count_is_two_to_the_ones(h):
    for deltas in itertools.product((1, 2, 3), repeat=h):
        ones = sum(1 for d in deltas if d == 1)
        assert len(families(deltas)) == 2**ones


def _oe_pinned(family, deltas) -> bool:
    """Whether the O->E labels of the family are, in order, the gaps of its
    O->E->O hops."""
    vertices, labels = family.vertices, family.labels
    oe = [lab.value for v, lab in zip(vertices, labels) if v == "E"]
    steps = family.steps
    return oe == [d for d, step in zip(deltas, steps) if step == "OEO"]


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_oe_pinning_and_parities(h):
    """Every O->E label is fixed to its hop's gap, and the free labels obey
    the parity table."""
    for deltas in itertools.product((1, 2), repeat=h):
        for fam in families(deltas):
            vertices = fam.vertices
            labels = fam.labels
            assert _oe_pinned(fam, deltas)
            # parity table: even iff source kind equals the kind after target
            for e in range(len(labels) - 1):
                slot = labels[e]
                if slot.value is not None:
                    continue
                source = vertices[e - 1] if e else "O"
                after = vertices[e + 1]
                assert slot.parity == ("even" if source == after else "odd")
            assert labels[-1].parity == "any" and labels[-1].is_free


def _walked_steps(vertices) -> tuple[str, ...]:
    """'OO'/'OEO' per hop, read off the vertex kinds after the root: an E
    and the O after it are one hop."""
    out = []
    i = 0
    while i < len(vertices):
        if vertices[i] == "E":
            out.append("OEO")
            i += 2
        else:
            out.append("OO")
            i += 1
    return tuple(out)


@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_steps_are_the_walked_steps(h):
    """Each family's steps are the hops that its vertex walk gives, and its
    arity, first vertex and free slots are read off the same walk."""
    for deltas in itertools.product((1, 2, 3), repeat=h):
        for fam in families(deltas):
            vertices = fam.vertices
            assert fam.steps == _walked_steps(vertices), (deltas, fam)
            assert vertices[-1] == "O"
            assert fam.arity == len(vertices) - 1
            assert fam.first_vertex == vertices[0]
            assert fam.first_vertex_parity == ("odd" if vertices[0] == "O" else "even")
            assert fam.free_slots == tuple(
                i for i in range(len(vertices) - 1) if fam.labels[i].value is None
            )


def test_reference_walk_in_window_five():
    # O -k1- E -k2- O -k3- O -k4- E -k5- O -k6- O -k7- E -k8- O
    deltas = (21, 1, 23, 1, 25)
    vertices = ("E", "O", "O", "E", "O", "O", "E", "O")
    (fam,) = [f for f in families(deltas) if f.vertices == vertices]
    assert [fam.labels[e].value for e in (0, 3, 6)] == [21, 23, 25]
    assert _oe_pinned(fam, deltas)


def test_instantiate():
    fam = families((3,))[0]
    assert instantiate(fam, ()) == (3,)
    fam = next(f for f in families((1, 1)) if _shape(f) == ((1, "even", 1), "E"))
    assert instantiate(fam, (4,)) == (1, 4, 1)
    fam = families((2, 3))[0]
    assert instantiate(fam, (6,)) == (2, 6, 3)
    with pytest.raises(ValueError):
        instantiate(fam, (7,))  # parity violation
    with pytest.raises(ValueError):
        instantiate(fam, ())


def test_arrow_text():
    fam = families((2,))[0]
    assert arrow_text(fam) == "O --2-- E --k-- O"


def test_validation():
    with pytest.raises(ValueError):
        families(())
    with pytest.raises(ValueError):
        families((0, 1))
    with pytest.raises(ValueError):
        families((1,) * 9)
    with pytest.raises(ValueError):
        LabelSlot(0)
    with pytest.raises(ValueError):
        LabelSlot(None, "weird")
    with pytest.raises(ValueError):
        PathFamily(("OEO",), (LabelSlot(1),))  # one label per edge


_BRUTE_PARITY = {"odd": lambda n: n % 2 == 1, "even": lambda n: n % 2 == 0, "any": lambda n: True}


@seed(20040)
@settings(max_examples=300, deadline=None)
@given(
    parity=st.sampled_from(_PARITIES),
    lo=st.integers(-3, 40),
    hi=st.integers(-3, 40),
    value=st.integers(1, 40),
)
def test_parity_rule_is_the_brute_filter(parity, lo, hi, value):
    """``_parity_range``, ``_fits`` and ``LabelSlot.admits`` keep exactly the
    integers in [lo, hi] that a plain filter keeps (none when lo > hi)."""
    span = range(lo, hi + 1)
    want = [n for n in span if _BRUTE_PARITY[parity](n)]
    assert list(_parity_range(parity, lo, hi)) == want
    assert [n for n in span if _fits(n, parity)] == want
    assert [n for n in span if LabelSlot(None, parity).admits(n)] == want
    assert [n for n in span if LabelSlot(value).admits(n)] == [n for n in span if n == value]
