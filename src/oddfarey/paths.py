"""Parity-labelled walk families behind the gap-tuple decomposition.

A window of h+1 consecutive odd-denominator fractions is shadowed by a walk
through the full Farey sequence whose vertices record denominator parities
(O = odd, E = even).  Each of the h hops to the next odd fraction is either

  * an O->O edge: the immediate neighbour already has odd denominator, which
    forces the gap to be 1; or
  * an O->E->O block: exactly one even-denominator fraction is skipped, and
    the gap equals the index label on the O->E edge.

Fixing the gap tuple therefore pins every O->E label; each remaining label
is free, but its parity is forced by what follows the odd vertex it enters:
the label is even when the edge's source vertex kind equals the vertex kind
right after its target, and odd otherwise.  (The final label of a walk is a
dummy: it is summed out and carries no constraint.)  Each family contributes
the lattice/area weight of the cylinder on its first |w| - 1 labels, counted
with x odd and y matching the parity of the walk's first vertex.

This module owns two rules that the others read: which integers a parity
admits (``_fits``, and ``_parity_range`` for the ones in [lo, hi]) and what
a gap tuple is (``_gap_tuple``: nonempty, positive).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from typing import NamedTuple, Optional, Sequence

__all__ = [
    "LabelSlot",
    "LabeledPath",
    "PathFamily",
    "families",
    "arrow_text",
    "MAX_WINDOW",
]

MAX_WINDOW = 8  # walks are generated implicitly; longer windows are out of scope

_PARITIES = ("odd", "even", "any")


def _fits(n: int, parity: str) -> bool:
    """Whether n has the given parity ('odd' / 'even' / 'any')."""
    return parity == "any" or n % 2 == (parity == "odd")


def _parity_range(parity: str, lo: int, hi: int) -> range:
    """The integers in [lo, hi] of the given parity, ascending (empty when
    lo > hi)."""
    return range(lo if _fits(lo, parity) else lo + 1, hi + 1, 1 if parity == "any" else 2)


def _gap_tuple(deltas: Sequence[int]) -> tuple[int, ...]:
    """``deltas`` as a tuple of ints, checked nonempty and positive."""
    ds = tuple(int(d) for d in deltas)
    if not ds or any(d < 1 for d in ds):
        raise ValueError(f"gap tuple must be nonempty positive integers, got {deltas}")
    return ds


class LabelSlot(namedtuple("LabelSlot", "value parity", defaults=(None, "any"))):
    """One edge label: a fixed positive integer, or free with a parity."""

    __slots__ = ()

    def __new__(cls, value: Optional[int] = None, parity: str = "any"):
        if parity not in _PARITIES:
            raise ValueError(f"parity must be one of {_PARITIES}")
        if value is not None and value < 1:
            raise ValueError("fixed labels must be positive")
        return super().__new__(cls, value, parity)

    @property
    def is_free(self) -> bool:
        return self.value is None

    def admits(self, v: int) -> bool:
        return v == self.value if self.value is not None else _fits(v, self.parity)

    def __str__(self) -> str:
        if self.value is not None:
            return str(self.value)
        return {"odd": "k(odd)", "even": "k(even)", "any": "k"}[self.parity]


class LabeledPath(namedtuple("LabeledPath", "vertices labels")):
    """Vertex kinds after the root (each 'O' or 'E') and one label per edge."""

    __slots__ = ()

    def __new__(cls, vertices: tuple[str, ...], labels: tuple[LabelSlot, ...]):
        if len(vertices) != len(labels):
            raise ValueError("need exactly one label per edge")
        if any(v not in ("O", "E") for v in vertices):
            raise ValueError("vertex kinds must be 'O' or 'E'")
        if not vertices or vertices[-1] != "O":
            raise ValueError("walks end at an odd vertex")
        return super().__new__(cls, vertices, labels)

    @property
    def size(self) -> int:
        """Number of edges |w|."""
        return len(self.labels)

    def step_types(self) -> tuple[str, ...]:
        """'OO'/'OEO' per hop between consecutive odd vertices."""
        out = []
        i = 0
        while i < len(self.vertices):
            if self.vertices[i] == "E":
                out.append("OEO")
                i += 2
            else:
                out.append("OO")
                i += 1
        return tuple(out)


class PathFamily(NamedTuple):
    """A walk shape whose cylinder labels are the first |w| - 1 edge labels."""

    path: LabeledPath
    arity: int
    first_vertex: str

    @property
    def free_slots(self) -> tuple[int, ...]:
        """Indices (into the cylinder label tuple) of the free labels."""
        return tuple(
            i for i in range(self.arity) if self.path.labels[i].is_free
        )

    @property
    def first_vertex_parity(self) -> str:
        return "odd" if self.first_vertex == "O" else "even"


def families(deltas: Sequence[int]) -> tuple[PathFamily, ...]:
    """All walk families compatible with the given gap tuple.

    Hop j is an O->O edge only when deltas[j] == 1; otherwise it must be an
    O->E->O block with the O->E label fixed to deltas[j].  There are
    2^(number of 1s) families.
    """
    ds = _gap_tuple(deltas)
    if len(ds) > MAX_WINDOW:
        raise ValueError(f"windows longer than {MAX_WINDOW} are not supported")

    choices_per_hop = [("OO", "OEO") if d == 1 else ("OEO",) for d in ds]
    out = []
    for choice in product(*choices_per_hop):
        vertices: list[str] = []
        fixed: list[Optional[int]] = []  # fixed label value per edge, else None
        for j, hop in enumerate(choice):
            if hop == "OEO":
                vertices += ["E", "O"]
                fixed += [ds[j], None]
            else:
                vertices += ["O"]
                fixed += [None]
        labels: list[LabelSlot] = []
        last = len(vertices) - 1
        for e in range(len(vertices)):
            if fixed[e] is not None:
                labels.append(LabelSlot(fixed[e]))
                continue
            if e == last:
                labels.append(LabelSlot())  # dummy: summed out, unconstrained
                continue
            source = vertices[e - 1] if e > 0 else "O"
            after = vertices[e + 1]
            labels.append(LabelSlot(None, "even" if source == after else "odd"))
        path = LabeledPath(tuple(vertices), tuple(labels))
        out.append(PathFamily(path, len(vertices) - 1, vertices[0]))
    return tuple(out)


def arrow_text(family: PathFamily) -> str:
    """Human-readable arrow notation, e.g. ``O --2-- E --k2(even)-- O --...``."""
    parts = ["O"]
    for v, lab in zip(family.path.vertices, family.path.labels):
        parts.append(f"--{lab}--")
        parts.append(v)
    return " ".join(parts)
