"""Finite strict partial orders stored as full reachability matrices.

A poset on n elements keeps the complete strict-order relation as an n-by-n
boolean matrix ``lt`` (``lt[a, b]`` means a < b), transitively closed at
construction time.  Every algorithm downstream only ever asks "is a below b"
or "what lies above a", so paying the closure cost once keeps the hot paths
branch-free.  Instances are immutable and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import CycleError, EmptyPosetError

__all__ = [
    "Poset",
    "SubsetMap",
    "from_relations",
    "induced_subposet",
    "transitive_closure",
    "transitive_reduction",
]


def transitive_closure(lt: np.ndarray) -> np.ndarray:
    """Boolean transitive closure (Floyd-Warshall; n is desk-scale)."""
    closed = np.array(lt, dtype=bool)
    for k in range(closed.shape[0]):
        closed |= np.outer(closed[:, k], closed[k, :])
    return closed


@dataclass(frozen=True, eq=False)
class Poset:
    """A strict partial order on elements 0..n-1.

    The relation matrix must already be transitively closed, irreflexive and
    antisymmetric; use :func:`from_relations` to build one from arbitrary
    generating pairs.
    """

    n: int
    lt: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise EmptyPosetError("a poset needs at least one element")
        lt = np.array(self.lt, dtype=bool)
        if lt.shape != (self.n, self.n):
            raise ValueError(f"relation matrix must be {self.n}x{self.n}")
        if lt.diagonal().any():
            raise CycleError("strict order relates an element to itself")
        # a < b < a sets (lt @ lt)[a, a] on a clear diagonal: this checks antisymmetry too
        if ((lt @ lt) & ~lt).any():
            raise ValueError("relation matrix is not transitively closed")
        lt.setflags(write=False)
        object.__setattr__(self, "lt", lt)

    @cached_property
    def is_maximal(self) -> np.ndarray:
        """Boolean vector: element has nothing strictly above it."""
        flags = ~self.lt.any(axis=1)
        flags.setflags(write=False)
        return flags

    @cached_property
    def maximal(self) -> frozenset[int]:
        """Elements with nothing strictly above them; never empty."""
        return frozenset(int(i) for i in np.flatnonzero(self.is_maximal))

    @cached_property
    def series_parts(self) -> tuple[tuple[int, ...], ...]:
        """The connected components of the incomparability graph, bottom to top.

        The poset is the ordinal sum of these parts: every element of a part
        lies below every element of each later part.  A one-element part is
        a post, an element comparable to every other.  Each part lists its
        elements in ascending order.
        """
        # Listed by count below, the parts run bottom to top, each contiguous:
        # below an element lie every lower part and less than its own part.
        # A part ends where all listed before lie below all listed after; a
        # cut inside a part would split its incomparability graph.
        below = self.lt.sum(axis=0).tolist()
        order = sorted(range(self.n), key=below.__getitem__)  # stable
        lt = self.lt[np.ix_(order, order)]
        cuts = [i for i in range(1, self.n) if lt[:i, i:].all()]
        return tuple(tuple(sorted(order[a:b])) for a, b in zip([0, *cuts], [*cuts, self.n]))

    def __reduce__(self):
        # Rebuild through the constructor so unpickled copies are validated
        # and write-locked like any other instance (cached views recompute).
        return (Poset, (self.n, np.asarray(self.lt)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.lt, other.lt)

    def __hash__(self) -> int:
        return hash((self.n, self.lt.tobytes()))

    def __repr__(self) -> str:
        pairs = [(int(a), int(b)) for a, b in zip(*np.nonzero(self.lt))]
        return f"Poset(n={self.n}, lt={pairs})"


@dataclass(frozen=True)
class SubsetMap:
    """Ordered subset of a parent poset; maps induced indices to parent ones.

    ``members[i]`` is the parent index of induced element i.  Members must be
    strictly increasing, which also rules out duplicates.
    """

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        members = tuple(int(m) for m in self.members)
        if any(b <= a for a, b in zip(members, members[1:])):
            raise ValueError("subset members must be strictly increasing")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)


def from_relations(n: int, pairs: Iterable[tuple[int, int]]) -> Poset:
    """Build a poset from any generating relation (covers or otherwise).

    The input pairs are transitively closed; a closure that would relate an
    element to itself raises :class:`CycleError`.
    """
    if n < 1:
        raise EmptyPosetError("a poset needs at least one element")
    lt = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        a, b = int(a), int(b)
        if not (0 <= a < n and 0 <= b < n):
            raise IndexError(f"relation ({a}, {b}) out of range for n={n}")
        lt[a, b] = True
    closed = transitive_closure(lt)
    if closed.diagonal().any():
        raise CycleError("relations contain a cycle")
    return Poset(n, closed)


def induced_subposet(p: Poset, s: SubsetMap) -> Poset:
    """Restrict p to the members of s, reindexed to 0..len(s)-1.

    A restriction of a transitively closed relation is transitively closed,
    so the result needs no further closure.
    """
    if len(s) == 0:
        raise EmptyPosetError("cannot induce a poset on the empty subset")
    for m in s.members:
        if not 0 <= m < p.n:
            raise IndexError(f"subset member {m} out of range for n={p.n}")
    idx = np.asarray(s.members, dtype=np.intp)
    return Poset(len(s), p.lt[np.ix_(idx, idx)])


def transitive_reduction(p: Poset) -> list[tuple[int, int]]:
    """Cover relations of p: pairs a < b with nothing strictly between.

    Unique for finite strict orders; used by the text writer so files stay
    human-readable.
    """
    covers = p.lt & ~(p.lt @ p.lt)
    return [(int(a), int(b)) for a, b in zip(*np.nonzero(covers))]
