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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

__all__ = [
    "LabelSlot",
    "LabeledPath",
    "PathFamily",
    "families",
    "instantiate",
    "arrow_text",
    "MAX_WINDOW",
]

MAX_WINDOW = 8  # walks are generated implicitly; longer windows are out of scope

_PARITIES = ("odd", "even", "any")


@dataclass(frozen=True)
class LabelSlot:
    """One edge label: a fixed positive integer, or free with a parity."""

    value: Optional[int] = None
    parity: str = "any"

    def __post_init__(self) -> None:
        if self.parity not in _PARITIES:
            raise ValueError(f"parity must be one of {_PARITIES}")
        if self.value is not None and self.value < 1:
            raise ValueError("fixed labels must be positive")

    @property
    def is_free(self) -> bool:
        return self.value is None

    def admits(self, v: int) -> bool:
        if self.value is not None:
            return v == self.value
        if self.parity == "odd":
            return v % 2 == 1
        if self.parity == "even":
            return v % 2 == 0
        return True

    def __str__(self) -> str:
        if self.value is not None:
            return str(self.value)
        return {"odd": "k(odd)", "even": "k(even)", "any": "k"}[self.parity]


@dataclass(frozen=True)
class LabeledPath:
    """Vertex kinds after the root (each 'O' or 'E') and one label per edge."""

    vertices: tuple[str, ...]
    labels: tuple[LabelSlot, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.labels):
            raise ValueError("need exactly one label per edge")
        if any(v not in ("O", "E") for v in self.vertices):
            raise ValueError("vertex kinds must be 'O' or 'E'")
        if not self.vertices or self.vertices[-1] != "O":
            raise ValueError("walks end at an odd vertex")

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


@dataclass(frozen=True)
class PathFamily:
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
    ds = tuple(int(d) for d in deltas)
    if not ds or any(d < 1 for d in ds):
        raise ValueError(f"gap tuple must be nonempty positive integers, got {deltas}")
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


def instantiate(family: PathFamily, free_values: Sequence[int]) -> tuple[int, ...]:
    """Concrete cylinder labels with the free slots filled by ``free_values``."""
    slots = family.free_slots
    if len(free_values) != len(slots):
        raise ValueError(f"family has {len(slots)} free slots, got {len(free_values)}")
    out = []
    it = iter(free_values)
    for i in range(family.arity):
        slot = family.path.labels[i]
        if slot.is_free:
            v = int(next(it))
            if not slot.admits(v):
                raise ValueError(f"value {v} violates the {slot.parity} parity of slot {i}")
            out.append(v)
        else:
            out.append(slot.value)
    return tuple(out)


def arrow_text(family: PathFamily) -> str:
    """Human-readable arrow notation, e.g. ``O --2-- E --k2(even)-- O --...``."""
    parts = ["O"]
    for v, lab in zip(family.path.vertices, family.path.labels):
        parts.append(f"--{lab}--")
        parts.append(v)
    return " ".join(parts)
