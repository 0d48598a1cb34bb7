"""Canonical and random poset families for the verification bench.

The random model is the random graph order: fix the identity permutation as
an underlying linear order, keep each pair (i, j) with i < j independently
with probability p, and transitively close.  p=0 gives the antichain, p=1
the chain, so one knob spans the whole range the success-probability bound
has to survive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GeneratorSpecError
from .posets import Poset, from_relations

__all__ = [
    "chain",
    "antichain",
    "wedge",
    "boolean_lattice",
    "random_poset",
    "forest_of_chains",
    "GeneratorSpec",
    "parse_generator_spec",
]


def chain(n: int) -> Poset:
    """Linear order 0 < 1 < ... < n-1."""
    return from_relations(n, [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    """n pairwise incomparable elements."""
    return from_relations(n, [])


def wedge() -> Poset:
    """One bottom element below two incomparable tops: {0 < 1, 0 < 2}."""
    return from_relations(3, [(0, 1), (0, 2)])


def boolean_lattice(k: int) -> Poset:
    """Subsets of a k-set ordered by strict inclusion (element id = bitmask)."""
    if not 1 <= k <= 4:
        raise ValueError(f"boolean_lattice needs 1 <= k <= 4, got {k}")
    n = 1 << k
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b and a & b == a]
    return from_relations(n, pairs)


def random_poset(n: int, p: float, seed: int) -> Poset:
    """Random graph order: each pair i < j kept with probability p, closed."""
    if n < 1:
        raise ValueError(f"random_poset needs n >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    coin = rng.random((n, n)) < p
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if coin[i, j]]
    return from_relations(n, pairs)


def forest_of_chains(lengths: Sequence[int]) -> Poset:
    """Disjoint union of chains; one maximal element per chain."""
    lengths = [int(m) for m in lengths]
    if not lengths or any(m < 1 for m in lengths):
        raise ValueError("forest_of_chains needs a nonempty list of lengths >= 1")
    pairs = []
    base = 0
    for m in lengths:
        pairs.extend((base + i, base + i + 1) for i in range(m - 1))
        base += m
    return from_relations(base, pairs)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parsed family:params text, buildable into a Poset.

    Grammar (one spec per string):
        chain:N  antichain:N  wedge  boolean:K  forest:L1,L2,...  random:N:P:SEED
    """

    family: str
    sizes: tuple[int, ...] = ()
    edge_probability: float | None = None
    seed: int | None = None

    @property
    def n(self) -> int:
        """Element count of the poset build() makes, from the parameters alone.

        Nothing is built or validated, so a caller can check a size cap
        before build() allocates its n-by-n relation.
        """
        if self.family == "wedge":
            return 3
        if self.family == "boolean":
            return 1 << max(self.sizes[0], 0)
        return sum(self.sizes)  # forest; every other family has one size

    def build(self) -> Poset:
        if self.family == "chain":
            return chain(self.sizes[0])
        if self.family == "antichain":
            return antichain(self.sizes[0])
        if self.family == "wedge":
            return wedge()
        if self.family == "boolean":
            return boolean_lattice(self.sizes[0])
        if self.family == "forest":
            return forest_of_chains(self.sizes)
        if self.family == "random":
            return random_poset(self.sizes[0], self.edge_probability, self.seed)
        raise GeneratorSpecError(f"unknown family {self.family!r}")

    def __str__(self) -> str:
        if self.family == "wedge":
            return "wedge"
        if self.family == "forest":
            return "forest:" + ",".join(str(m) for m in self.sizes)
        if self.family == "random":
            return f"random:{self.sizes[0]}:{self.edge_probability!r}:{self.seed}"
        return f"{self.family}:{self.sizes[0]}"


def _int(token: str, spec: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GeneratorSpecError(f"expected an integer in {spec!r}, got {token!r}") from None


def parse_generator_spec(text: str) -> GeneratorSpec:
    """Parse family[:param]* syntax; wrong shape raises GeneratorSpecError.

    Syntax problems (unknown family, wrong arity, non-numeric tokens) raise
    here; out-of-range values surface later from build() as ValueError.
    """
    parts = text.strip().split(":")
    family, params = parts[0], parts[1:]
    if family in ("chain", "antichain", "boolean"):
        if len(params) != 1:
            raise GeneratorSpecError(f"{family} takes exactly one parameter, got {text!r}")
        return GeneratorSpec(family, sizes=(_int(params[0], text),))
    if family == "wedge":
        if params:
            raise GeneratorSpecError(f"wedge takes no parameters, got {text!r}")
        return GeneratorSpec("wedge")
    if family == "forest":
        if len(params) != 1 or not params[0]:
            raise GeneratorSpecError(f"forest takes a comma list of lengths, got {text!r}")
        lengths = tuple(_int(tok, text) for tok in params[0].split(","))
        return GeneratorSpec("forest", sizes=lengths)
    if family == "random":
        if len(params) != 3:
            raise GeneratorSpecError(f"random takes N:P:SEED, got {text!r}")
        try:
            prob = float(params[1])
        except ValueError:
            raise GeneratorSpecError(f"expected a float probability in {text!r}") from None
        return GeneratorSpec(
            "random",
            sizes=(_int(params[0], text),),
            edge_probability=prob,
            seed=_int(params[2], text),
        )
    raise GeneratorSpecError(f"unknown poset family {family!r}")
