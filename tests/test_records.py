"""The record contract: every record of the package is an immutable named tuple.

Records keep their field names, positional and keyword construction, the
``X(f=...)`` repr, hashing and immutability; the validating ones check and
coerce their fields in ``__new__``.  Importing the package must not load
``dataclasses`` or ``inspect``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oddfarey import density, dynamics, farey, geometry, lattice, paths
from oddfarey.density import Enclosure, RhoRow
from oddfarey.dynamics import TrianglePoint
from oddfarey.farey import UnitInterval
from oddfarey.geometry import ConvexRegion, HalfPlane, LinearForm
from oddfarey.lattice import CountReport, FamilyCheck, PairParity, VerifyResult
from oddfarey.paths import LabelSlot, PathFamily

SRC = Path(__file__).resolve().parents[1] / "src"

F = Fraction
FORM = LinearForm(1, 2)

# (class, positional arguments, the repr of the record they build)
RECORDS = [
    (RhoRow, ((1,), Enclosure(F(1, 6), F(1, 6), True, 5, True)),
     "RhoRow(deltas=(1,), enclosure=Enclosure(lo=Fraction(1, 6), hi=Fraction(1, 6),"
     " exact=True, cutoff=5, converged=True))"),
    (ConvexRegion, ((), ()), "ConvexRegion(constraints=(), vertices=())"),
    (CountReport, (3,), "CountReport(count=3, boundary_hits=0)"),
    (FamilyCheck, (("OO",), "O --k-- O", 3, 4, 1),
     "FamilyCheck(signature=('OO',), text='O --k-- O', stream=3, lattice=4, boundary=1)"),
    (VerifyResult, ((),), "VerifyResult(families=(), notes=())"),
    (PathFamily, (("OEO",), (LabelSlot(3), LabelSlot())),
     "PathFamily(steps=('OEO',), labels=(LabelSlot(value=3, parity='any'),"
     " LabelSlot(value=None, parity='any')))"),
    (Enclosure, (F(1, 3), F(1, 2), False, 125, True),
     "Enclosure(lo=Fraction(1, 3), hi=Fraction(1, 2), exact=False, cutoff=125, converged=True)"),
    (TrianglePoint, (1, F(1, 2)), "TrianglePoint(x=Fraction(1, 1), y=Fraction(1, 2))"),
    (UnitInterval, (0, F(1, 2)), "UnitInterval(lo=Fraction(0, 1), hi=Fraction(1, 2))"),
    (LinearForm, (1, 2), "LinearForm(cx=1, cy=2, c0=0)"),
    (HalfPlane, (FORM, "<=", 1),
     "HalfPlane(form=LinearForm(cx=1, cy=2, c0=0), sense='<=', bound=Fraction(1, 1))"),
    (PairParity, ("odd",), "PairParity(x='odd', y='any')"),
    (LabelSlot, (2,), "LabelSlot(value=2, parity='any')"),
]

_IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_record_is_listed():
    """The table above holds every record class the package defines."""
    defined = {
        obj
        for mod in (density, dynamics, farey, geometry, lattice, paths)
        for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__
    }
    assert defined == {cls for cls, _, _ in RECORDS}
    assert len(RECORDS) == 13


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=_IDS)
def test_records_are_immutable(cls, args, text):
    record = cls(*args)
    assert not hasattr(record, "__dict__")
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=_IDS)
def test_equal_records_hash_alike(cls, args, text):
    a, b = cls(*args), cls(*args)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=_IDS)
def test_keyword_construction(cls, args, text):
    record = cls(*args)
    by_name = cls(**dict(zip(cls._fields, record)))
    assert type(by_name) is cls
    assert by_name == record


@pytest.mark.parametrize("cls, args, text", RECORDS, ids=_IDS)
def test_repr_is_pinned(cls, args, text):
    assert repr(cls(*args)) == text


def test_defaults():
    assert PairParity() == PairParity("any", "any") == PairParity(y="any")
    assert LabelSlot() == LabelSlot(value=None, parity="any")
    assert LabelSlot(parity="odd").value is None
    assert LinearForm(cx=1, cy=0).c0 == 0
    assert CountReport(3).boundary_hits == 0
    res = VerifyResult(families=())
    assert res.notes == ()
    assert (res.ok, res.lhs, res.rhs) == (True, 0, 0)


def test_coercions():
    for record in (UnitInterval(0, 1), TrianglePoint(1, 1)):
        assert all(type(v) is Fraction for v in record)
    assert UnitInterval(0, 1) == (Fraction(0), Fraction(1))
    hp = HalfPlane(FORM, "<=", 1)
    assert type(hp.bound) is Fraction and hp.bound == Fraction(1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: PairParity("odd", "weird"),
        lambda: PairParity("weird"),
        lambda: LabelSlot(0),
        lambda: LabelSlot(None, "weird"),
        lambda: PathFamily((), ()),
        lambda: PathFamily(("OE",), (LabelSlot(),)),
        lambda: PathFamily(("OEO",), (LabelSlot(3),)),
        lambda: PathFamily(("OO", "OEO"), (LabelSlot(), LabelSlot(3))),
        lambda: LinearForm(0, 0),
        lambda: HalfPlane(FORM, "==", 1),
        lambda: Enclosure(F(1, 2), F(1, 3), False, 1, False),
        lambda: UnitInterval(F(1, 2), F(1, 3)),
        lambda: TrianglePoint(F(1, 2), F(1, 2)),
    ],
)
def test_validation_runs_on_construction(build):
    with pytest.raises(ValueError):
        build()


def test_src_never_replaces_a_field():
    """``_replace`` builds a record without its checks, so the package never calls it."""
    offenders = [p.name for p in (SRC / "oddfarey").glob("*.py") if "_replace(" in p.read_text()]
    assert offenders == []


def test_import_loads_neither_dataclasses_nor_inspect():
    """The modules newly loaded by ``import oddfarey.cli`` include neither.
    ``-S`` keeps ``site`` from loading either one before the diff is taken."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import oddfarey.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
