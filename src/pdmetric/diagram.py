"""Diagrams: finite multisets of non-basepoint points of a pointed space.

A diagram is the canonical representative of an element of the free
commutative monoid on the space modulo its basepoint, so basepoint atoms
are dropped on construction and atom order is normalized.  Two diagrams
are equal iff their spaces have equal signatures and their multisets agree
atom for atom (exact point equality; no coordinate tolerance).
"""

from __future__ import annotations

import itertools
from operator import add as _operator_add
from typing import Iterable

from .errors import DomainError, PreconditionError
from .metric_core import CollapsedClass, PointedSpace


class Diagram:
    __slots__ = ("space", "atoms")

    def __init__(self, space: PointedSpace, atoms: tuple):
        # atoms must already be canonical: ((point, count), ...) sorted by
        # space.sort_key, counts >= 1, no basepoint.  Use diagram_from_list.
        self.space = space
        self.atoms = atoms

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_points(points: Iterable, space: PointedSpace) -> "Diagram":
        normal = []
        for raw in points:
            if not space.contains(raw):
                raise DomainError(f"point {raw!r} is not in the space")
            normal.append(space.canonical(raw))
        return Diagram.from_normal_points(normal, space)

    @staticmethod
    def from_normal_points(points: Iterable, space: PointedSpace) -> "Diagram":
        """The diagram of points of the space already in normal form (as
        canonical and sample_point return them); basepoints are dropped."""
        counts: dict = {}
        for x in points:
            base = space.basepoint
            # Only a CollapsedClass equals one, so no other point calls its __eq__.
            if (type(x) is CollapsedClass or type(base) is not CollapsedClass) and x == base:
                continue
            counts[x] = counts.get(x, 0) + 1
        atoms = tuple(sorted(counts.items(), key=lambda item: space.sort_key(item[0])))
        return Diagram(space, atoms)

    # -- multiset views ----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of atoms counted with multiplicity."""
        return sum(c for _, c in self.atoms)

    def expand(self) -> list:
        """Atoms repeated by multiplicity, in canonical order."""
        out = []
        for x, c in self.atoms:
            out.extend([x] * c)
        return out

    def counts(self) -> dict:
        return dict(self.atoms)

    # -- monoid structure --------------------------------------------------

    def __add__(self, other: "Diagram") -> "Diagram":
        if not isinstance(other, Diagram):
            return NotImplemented
        if self.space is not other.space and self.space.signature != other.space.signature:
            raise DomainError("cannot add diagrams over different spaces")
        merged = self.counts()
        for x, c in other.atoms:
            merged[x] = merged.get(x, 0) + c
        atoms = tuple(
            sorted(merged.items(), key=lambda item: self.space.sort_key(item[0]))
        )
        return Diagram(self.space, atoms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Diagram)
            and (self.space is other.space or self.space.signature == other.space.signature)
            and self.atoms == other.atoms
        )

    def __hash__(self) -> int:
        return hash((self.space.signature, self.atoms))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{x!r}" + (f"*{c}" if c > 1 else "") for x, c in self.atoms
        )
        return f"Diagram({{{inner}}})"


def diagram_from_list(points: Iterable, space: PointedSpace) -> Diagram:
    """Canonical diagram from a list of points; basepoint entries are dropped."""
    return Diagram.from_points(points, space)


def empty_diagram(space: PointedSpace) -> Diagram:
    return Diagram(space, ())


def include(x, space: PointedSpace) -> Diagram:
    """The canonical inclusion of a point as a singleton diagram."""
    return Diagram.from_points([x], space)


def add(a: Diagram, b: Diagram) -> Diagram:
    """Multiset union; the monoid operation."""
    return a + b


def extend_hom(phi, alpha: Diagram, *, monoid_add=_operator_add, identity=0):
    """The unique monoid homomorphism extending phi along inclusion.

    phi maps points of the space into a commutative monoid; the extension
    sends a diagram to the monoid sum of phi over its atoms (with
    multiplicity) and the empty diagram to the identity.  phi must send the
    basepoint to the identity, otherwise no extension exists.
    """
    base_image = phi(alpha.space.basepoint)
    if not base_image == identity:
        raise PreconditionError(
            f"phi must send the basepoint to the monoid identity, got {base_image!r}"
        )
    total = identity
    for x in alpha.expand():
        total = monoid_add(total, phi(x))
    return total


def enumerate_diagrams(space, max_size: int) -> list:
    """All diagrams over a finite space with size at most max_size."""
    points = [lab for lab in space.labels if lab != space.basepoint]
    out = []
    for size in range(max_size + 1):
        for combo in itertools.combinations_with_replacement(points, size):
            out.append(diagram_from_list(list(combo), space))
    return out
